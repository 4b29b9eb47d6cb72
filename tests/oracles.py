"""Slow reference implementations kept as test oracles.

These are the code paths the package used before faster ones replaced
them, and the tests hold the new paths to them bit for bit:

* the hand-written n = 2 and n = 3 symmetric reductions, replaced by
  the blocks of ``PairTable``, one reduction for any n;
* the per-ring loop of ``polar_rule_at``, replaced by one block of full
  rings and one of arcs;
* the apex loop of ``bekolle_bonami_estimate`` that took each tent's two
  averages through two ``tent_average`` calls, each building the tent's
  rule and evaluating the weight on it, and the whole-disc tent's two
  averages a second time after the integrability check; its
  ``tent_average`` builds every rule anew, as the package did before it
  kept the rules of one weight table for all its p;
* the full-tensor ``apply_operator`` for one sample point and one
  function, which evaluated the kernel again for every function and
  every point, in chunks of 2^18 tensor points; one point and one
  function must match it bit for bit, batches to 1e-13 of their scale;
* ``KernelSpec.evaluate`` as it was before it built the n^2 denominator
  factors once, and the permutation loop of ``apply_operator``, which
  averaged n! such evaluations on permuted columns, each rebuilding the
  factors; ``evaluate`` must match both bit for bit, on rows of points
  and on rows of node indices;
* ``apply_operator`` as it was before it evaluated the kernel at rows of
  node indices: every chunk's points conjugated and the kernel computed
  row by row by the two oracles above; the operator must match it bit
  for bit, and raise the same ``PoleProximity``;
* the fused norm pass ``_norm_sums`` as it was before the pair sums of
  the last two indices were tabulated once per rule, when every block
  gathered the factors of its pairs and multiplied them anew; the new
  pass must match it bit for bit;
* the exact layer before its monomials were packed into ints, keyed by
  exponent tuples, with its block helpers and its builds of the
  denominators and the kernel numerators; the packed layer must equal
  it term for term, and the series form of T1 annihilation and the pair
  symmetry of the P_l differences are checked on it;
* two integrals that only tests take: the weighted L^p norm by tensor
  quadrature, which the fused norm pass must match bit for bit, and
  plain Monte Carlo over the polydisc, the independent route of the
  3-sigma check.

``at_points`` adapts an integrand of points to ``integrate_polydisc``,
which hands its integrand rows of node indices.
"""

import math
from itertools import combinations, permutations

import numpy as np

from bergproj.errors import NonIntegrable, OverflowInIntegrand, PoleProximity
from bergproj.experiments import JACOBIAN_SQUARED
from bergproj.estimates import (
    INTEGRABILITY_CUTOFFS,
    TentRegion,
    default_apex_grid,
    tent_rule,
)
from bergproj.kernels import POLE_GUARD, _as_rows, family_factors
from bergproj.quadrature import (
    BLOCK_CHUNK,
    INNER_CUTOFF,
    INTEGRAND_CHUNK,
    TWO_PI,
    PairTable,
    QuadratureRule,
    _check_finite,
    _radial_panels,
    _triangle_start,
    chunk_slices,
    integrate_polydisc,
    pairwise_sum,
)
from bergproj.quadrature import polar_rule_at as _polar_rule_at
from bergproj.symbolic import kernel_terms


def at_points(f, rule):
    """The integrand of node-index rows that evaluates the integrand of
    points ``f`` at the points the rows stand for."""
    nodes = np.asarray(rule.nodes)
    return lambda index: f(nodes.take(index))


def _integrate_symmetric_2(f, nodes, weights):
    size = len(nodes)
    j_idx, k_idx = np.triu_indices(size)
    pts = np.stack([nodes[j_idx], nodes[k_idx]], axis=1)
    w = weights[j_idx] * weights[k_idx]
    mult = np.where(j_idx == k_idx, 1.0, 2.0)
    vals = np.asarray(f(pts))
    _check_finite(vals, "symmetric n=2")
    return complex(np.sum(mult * w * vals))


def _integrate_symmetric_3(f, nodes, weights, chunk):
    size = len(nodes)
    acc = 0.0 + 0.0j
    for i in range(size):
        sub = size - i
        j_rel, k_rel = np.triu_indices(sub)
        j_idx, k_idx = j_rel + i, k_rel + i
        for start in range(0, len(j_idx), chunk):
            j_c = j_idx[start : start + chunk]
            k_c = k_idx[start : start + chunk]
            pts = np.stack(
                [np.full(len(j_c), nodes[i]), nodes[j_c], nodes[k_c]], axis=1
            )
            w = weights[i] * weights[j_c] * weights[k_c]
            mult = np.where(
                (i == j_c) & (j_c == k_c),
                1.0,
                np.where((i == j_c) | (j_c == k_c), 3.0, 6.0),
            )
            vals = np.asarray(f(pts))
            _check_finite(vals, f"symmetric n=3, i={i}")
            acc += np.sum(mult * w * vals)
    return complex(acc)


def polar_rule_at(center, radial_order, angular_order, inner_cutoff=INNER_CUTOFF):
    center = complex(center)
    d = abs(center)
    if abs(d - 1.0) < 1e-9:
        raise ValueError("polar rule center may not sit on the boundary circle")
    beta = math.atan2(center.imag, center.real)
    rho, rho_w = _radial_panels(d, radial_order, inner_cutoff)

    m = int(angular_order)
    gl_x, gl_w = np.polynomial.legendre.leggauss(m)
    nodes, weights, dists, log_weights = [], [], [], []
    for rr, ww in zip(rho, rho_w):
        if d < 1e-14:
            gamma = math.inf if rr < 1.0 else -math.inf
        else:
            gamma = (1.0 - d * d - rr * rr) / (2.0 * rr * d)
        if gamma >= 1.0:
            m_full = max(8, 2 * m)
            phi = beta + TWO_PI * (np.arange(m_full) + 0.5) / m_full
            pw = np.full(m_full, TWO_PI / m_full)
        elif gamma <= -1.0:
            continue
        else:
            half = math.pi - math.acos(gamma)
            phi = beta + math.pi + half * gl_x
            pw = half * gl_w
        nodes.append(center + rr * np.exp(1j * phi))
        weights.append(rr * ww * pw)
        dists.append(np.full(len(phi), rr))
        log_weights.append(math.log(rr) + math.log(ww) + np.log(pw))
    return QuadratureRule(
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        descriptor={
            "family": "polar",
            "center": center,
            "radial_order": int(radial_order),
            "angular_order": int(angular_order),
            "inner_cutoff": inner_cutoff,
        },
        aux={
            "center": center,
            "center_distance": np.concatenate(dists),
            "log_weight": np.concatenate(log_weights),
        },
    )


def tent_average(weight, power, tent, order, inner_cutoff=INTEGRABILITY_CUTOFFS[0]):
    total_exponent = (
        weight.exponent * power if weight.kind == "point_product" else 0.0
    )
    graded = (
        tent.is_whole_disc
        and weight.kind == "point_product"
        and total_exponent < 0
        and len(weight.points) > 0
    )
    if graded:
        rule = _polar_rule_at(
            weight.points[0],
            max(4, order // 8),
            max(16, order),
            inner_cutoff=inner_cutoff,
        )
        rho = rule.aux["center_distance"]
        log_values = total_exponent * np.log(rho)
        for a in weight.points[1:]:
            log_values = log_values + total_exponent * np.log(
                np.abs(a - rule.nodes)
            )
        with np.errstate(over="ignore"):
            terms = np.exp(log_values + rule.aux["log_weight"])
        if not np.all(np.isfinite(terms)):
            raise OverflowInIntegrand("tent average diverges beyond float range")
        return float(np.sum(terms)) / float(np.sum(rule.weights))
    rule = tent_rule(tent, order)
    values = weight.evaluate(rule.nodes) ** power
    if not np.all(np.isfinite(values)):
        raise OverflowInIntegrand("non-finite integrand value in tent average")
    return float(np.sum(rule.weights * values)) / float(np.sum(rule.weights))


def bekolle_bonami_estimate(weight, p, apex_grid=None, rule=48):
    if p <= 1:
        raise ValueError("the exponent p must exceed 1")
    dual_power = -1.0 / (p - 1.0)
    disc_tent = TentRegion(0j)
    for power in (1.0, dual_power):
        try:
            base = tent_average(
                weight, power, disc_tent, rule, inner_cutoff=INTEGRABILITY_CUTOFFS[0]
            )
            fine = tent_average(
                weight,
                power,
                disc_tent,
                2 * rule,
                inner_cutoff=INTEGRABILITY_CUTOFFS[1],
            )
        except OverflowInIntegrand as exc:
            raise NonIntegrable(
                f"weight power {power:g} overflows under a graded rule"
            ) from exc
        if not math.isfinite(base) or not math.isfinite(fine):
            raise NonIntegrable(f"weight power {power:g} is not integrable")
        if abs(fine - base) > 0.5 * abs(base):
            raise NonIntegrable(
                f"average of weight power {power:g} moved from {base:.3e} to "
                f"{fine:.3e} under refinement"
            )

    if apex_grid is None:
        apex_grid = default_apex_grid()
    best = 0.0
    for apex in apex_grid:
        tent = TentRegion(complex(apex))
        avg_u = tent_average(weight, 1.0, tent, rule)
        avg_dual = tent_average(weight, dual_power, tent, rule)
        best = max(best, avg_u * avg_dual ** (p - 1.0))
    return best


def apply_operator(spec, f, z, rule, n, chunk=1 << 18):
    nodes = np.asarray(rule.nodes)
    weights = np.asarray(rule.weights)
    size = len(nodes)
    total = size**n
    shape = (size,) * n
    acc = 0.0 + 0.0j
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        multi = np.unravel_index(idx, shape)
        pts = np.stack([nodes[ix] for ix in multi], axis=1)
        w = weights[multi[0]].copy()
        for ix in multi[1:]:
            w *= weights[ix]
        vals = kernel_evaluate(spec, z, np.conj(pts)) * np.asarray(f(pts))
        _check_finite(vals, f"chunk at {start}")
        acc += np.sum(w * vals)
    return complex(acc)


def row_operator(spec, f, z, rule, symmetric_f=False, budget=INTEGRAND_CHUNK):
    """``apply_operator`` with the kernel evaluated row by row at the
    conjugated points of each chunk, the chunks cut for a value budget of
    ``budget`` as the operator cuts them for ``INTEGRAND_CHUNK``."""
    n = spec.n
    z = np.asarray(z)
    points = z if z.ndim == 2 else z[None]
    probe = np.asarray(f(np.full((1, n), rule.nodes[0])))
    chunk = max(1, budget // (len(points) * math.prod(probe.shape[:-1])))
    kernel = symmetrized_kernel if symmetric_f else kernel_evaluate

    def integrand(pts):
        wbar = np.conj(pts)
        ker = np.stack([kernel(spec, point, wbar) for point in points])
        values = np.asarray(f(pts))
        return np.expand_dims(ker, tuple(range(1, values.ndim))) * values

    integrand = at_points(integrand, rule)
    out = integrate_polydisc(integrand, rule, n, symmetric=symmetric_f, chunk=chunk)
    return out if z.ndim == 2 else out[0]


def _guard(values, what):
    small = np.min(np.abs(values))
    if small < POLE_GUARD:
        raise PoleProximity(f"{what} within {small:.2e} of a kernel singularity")


def _shared_denominator(z, wbar):
    n = len(z)
    cross = np.ones(len(wbar), dtype=complex)
    diag = np.ones(len(wbar), dtype=complex)
    for j in range(n):
        factor = 1.0 - z[j] * wbar[:, j]
        _guard(factor, "diagonal factor")
        diag *= factor * factor
        for k in range(j + 1, n):
            f1 = 1.0 - z[k] * wbar[:, j]
            f2 = 1.0 - z[j] * wbar[:, k]
            _guard(f1, "cross factor")
            _guard(f2, "cross factor")
            cross *= f1 * f2
    return cross, diag


def _pair_factor(name, z, wbar, j, k):
    if name == "symmetric":
        return (1.0 - z[k] * wbar[:, j]) * (1.0 - z[j] * wbar[:, k])
    if name == "vandermonde":
        return (z[j] - z[k]) * (wbar[:, j] - wbar[:, k])
    diff = wbar[:, j] - wbar[:, k]
    return diff * diff


def _term_sum(terms, z, wbar, cross):
    num = None
    for sign, factors in terms:
        if all(name == "symmetric" for name in factors):
            term = cross
        else:
            term = np.ones(len(wbar), dtype=complex)
            for (j, k), name in zip(combinations(range(len(z)), 2), factors):
                term *= _pair_factor(name, z, wbar, j, k)
        if num is None:
            num = term if sign > 0 else -term
        else:
            num = num + term if sign > 0 else num - term
    return num


def kernel_evaluate(spec, z, wbar):
    n = spec.n
    wbar, single = _as_rows(wbar, n)
    z = np.asarray(z, dtype=complex)
    cross, diag = _shared_denominator(z, wbar)
    num = _term_sum(kernel_terms(spec.family, n, spec.l), z, wbar, cross)
    out = num / (math.pi**n * cross * diag)
    return out[0] if single else out


def symmetrized_kernel(spec, z, wbar, evaluate=kernel_evaluate):
    """The mean of ``evaluate`` over the n! column permutations of wbar,
    summed in ``permutations`` order and divided once."""
    perms = list(permutations(range(spec.n)))
    ker = evaluate(spec, z, wbar[:, perms[0]])
    for tau in perms[1:]:
        ker = ker + evaluate(spec, z, wbar[:, tau])
    return ker / len(perms)


def _symmetric_top(prefix, y, z):
    low = y + z
    if not prefix:
        return low
    top = y * z
    for x in prefix[:0:-1]:
        low, top = top + x * low, x * top
    return math.factorial(len(prefix) + 1) * (top + prefix[0] * low)


def _shape_from_factors(s, r, c):
    n = len(r)
    denom = c[-2] * c[-1]
    for x in c[:-2]:
        denom = x * denom
    return s ** (n * (n - 1)) * _symmetric_top(r[:-2], r[-2], r[-1]) / denom


def norm_sums(n, s, rule, p_list, constant):
    """The fused norm pass, gathering and multiplying the factors of every
    pair (j, k) anew in each block."""
    g, r, c = family_factors(n, s, rule.nodes)
    nodes = np.asarray(rule.nodes)
    size = len(nodes)
    j_all, k_all = np.triu_indices(size)
    table = np.empty(len(j_all))
    for part in chunk_slices(len(j_all), BLOCK_CHUNK):
        pairs = np.stack([nodes[j_all[part]], nodes[k_all[part]]], axis=1)
        table[part] = JACOBIAN_SQUARED.evaluate(pairs)
    del j_all, k_all
    out = {"h": [0.0] * len(p_list), "image": [0.0] * len(p_list)}
    for prefix, length, tuples in PairTable(rule.weights, n).blocks():
        j, k, tensor_weight, _ = tuples(slice(0, length))
        rows = [table[_triangle_start(size, i) - i :] for i in prefix]
        own = table[_triangle_start(size, prefix[-1] if prefix else 0) :]
        weight = np.empty(len(j)) if prefix else own
        values = {"h": np.empty(len(j)), "image": np.empty(len(j))}
        parts = chunk_slices(len(j), BLOCK_CHUNK)
        for part in parts:
            jp, kp = j[part], k[part]
            if prefix:
                factors = []
                for a, row in enumerate(rows):
                    factors += [row[later] for later in prefix[a + 1 :]]
                    factors += [row[jp], row[kp]]
                weight[part] = math.prod(factors) * own[part]
            h = _symmetric_top([g[i] for i in prefix], g[jp], g[kp])
            values["h"][part] = np.abs(h)
            r_cols = [r[i] for i in prefix] + [r[jp], r[kp]]
            c_cols = [c[i] for i in prefix] + [c[jp], c[kp]]
            image = constant * _shape_from_factors(s, r_cols, c_cols)
            values["image"][part] = np.abs(image)
        summands = np.empty(len(j))
        for kind, absolute in values.items():
            for index, p in enumerate(p_list):
                if isinstance(out[kind][index], Exception):
                    continue
                try:
                    for part in parts:
                        integrand = absolute[part] ** p * weight[part]
                        where = f"symmetric n={n}, prefix={prefix}, from {part.start}"
                        _check_finite(integrand, where)
                        np.multiply(tensor_weight[part], integrand, out=summands[part])
                except OverflowInIntegrand as exc:
                    out[kind][index] = exc
                    continue
                out[kind][index] += np.sum(summands)
    return out


class TupleMultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> exact coefficient,
    the exact layer before its keys were packed."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        cleaned = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff != 0:
                    cleaned[tuple(exps)] = coeff
        self.terms = cleaned

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {tuple([0] * nvars): c})

    @classmethod
    def variable(cls, nvars, index):
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, TupleMultiPoly):
            other = TupleMultiPoly.constant(self.nvars, other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            out[exps] = coeff if acc is None else acc + coeff
        return TupleMultiPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return TupleMultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TupleMultiPoly):
            other = TupleMultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        return TupleMultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, TupleMultiPoly):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = out.get(e)
                out[e] = c if acc is None else acc + c
        return TupleMultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = TupleMultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, TupleMultiPoly):
            if not self.terms:
                return other == 0
            zero_exp = tuple([0] * self.nvars)
            return set(self.terms) == {zero_exp} and self.terms[zero_exp] == other
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- queries -----------------------------------------------------------
    @property
    def n_terms(self):
        return len(self.terms)

    def is_zero(self):
        return not self.terms

    def eval(self, point):
        """Evaluate at a sequence of numbers (complex allowed)."""
        total = 0j if any(isinstance(p, complex) for p in point) else 0
        for exps, coeff in self.terms.items():
            val = coeff
            for i, e in enumerate(exps):
                if e:
                    val = val * point[i] ** e
            total = total + val
        return total

    def sorted_terms(self):
        """Graded-lexicographic term order, largest degree first."""
        return sorted(
            self.terms.items(), key=lambda item: (-sum(item[0]), item[0])
        )

    def __repr__(self):
        shown = self.sorted_terms()[:4]
        inner = ", ".join(f"{e}:{c}" for e, c in shown)
        more = "" if self.n_terms <= 4 else f", +{self.n_terms - 4} terms"
        return f"TupleMultiPoly({self.nvars}, {{{inner}{more}}})"


def as_tuple_poly(poly):
    """The tuple-keyed form of a packed ``MultiPoly``, term for term."""
    return TupleMultiPoly(poly.nvars, dict(poly.sorted_terms()))


def permute_block(poly, start, length, perm):
    """Relabel the variables of one block by a permutation.

    Variable ``start + i`` becomes variable ``start + perm.mapping[i]``.
    """
    out = {}
    for exps, coeff in poly.terms.items():
        new = list(exps)
        for i in range(length):
            new[start + perm.mapping[i]] = exps[start + i]
        key = tuple(new)
        acc = out.get(key)
        out[key] = coeff if acc is None else acc + coeff
    return TupleMultiPoly(poly.nvars, out)


def truncate_block_degree(poly, start, length, max_deg):
    """Drop all terms whose degree in one block exceeds ``max_deg``."""
    kept = {
        e: c
        for e, c in poly.terms.items()
        if sum(e[start : start + length]) <= max_deg
    }
    return TupleMultiPoly(poly.nvars, kept)


def mul_truncate_block(f, g, start, length, max_deg):
    """Product of two polynomials, truncated by block degree on the fly."""
    out = {}
    for e1, c1 in f.terms.items():
        d1 = sum(e1[start : start + length])
        if d1 > max_deg:
            continue
        for e2, c2 in g.terms.items():
            if d1 + sum(e2[start : start + length]) > max_deg:
                continue
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            acc = out.get(e)
            out[e] = c if acc is None else acc + c
    return TupleMultiPoly(f.nvars, out)


def _a_factor(n, j, k):
    nvars = 2 * n
    exps = [0] * nvars
    exps[j] += 1
    exps[n + k] += 1
    return TupleMultiPoly(nvars, {tuple([0] * nvars): 1, tuple(exps): -1})


def _b_factor(n, j, k):
    zj, zk, wj, wk = (TupleMultiPoly.variable(2 * n, i) for i in (j, k, n + j, n + k))
    return (zj - zk) * (wj - wk)


def tuple_full_denominator(n):
    out = TupleMultiPoly.constant(2 * n, 1)
    for j in range(n):
        for k in range(j, n):
            out = out * _a_factor(n, k, j) * _a_factor(n, j, k)
    return out


def tuple_diagonal_denominator(n):
    out = TupleMultiPoly.constant(2 * n, 1)
    for j in range(n):
        out = out * _a_factor(n, j, j) * _a_factor(n, j, j)
    return out


def tuple_kernel_numerator(family, n, l=None):
    """The numerator of one row of the kernel table, built from the
    factors of every pair in tuple-keyed arithmetic."""
    num = TupleMultiPoly.zero(2 * n)
    for sign, factors in kernel_terms(family, n, l):
        term = TupleMultiPoly.constant(2 * n, 1)
        for (j, k), name in zip(combinations(range(n), 2), factors):
            if name == "symmetric":
                factor = _a_factor(n, k, j) * _a_factor(n, j, k)
            elif name == "vandermonde":
                factor = _b_factor(n, j, k)
            else:
                diff = TupleMultiPoly.variable(2 * n, n + j) - TupleMultiPoly.variable(2 * n, n + k)
                factor = diff * diff
            term = term * factor
        num = num + term if sign > 0 else num - term
    return num


def pairwise_leaves(length):
    """The slices that ``pairwise_sum`` cuts range(length) into, in the
    order it sums them."""
    leaves = []
    pairwise_sum(length, lambda parts: (leaves.append(part) or 0.0 for part in parts))
    return leaves


def monte_carlo_polydisc(f, sample_count, seed, n):
    """Plain Monte Carlo integral over D^n by rejection from the square.

    Returns (estimate, standard_error).  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    kept = []
    have = 0
    while have < sample_count:
        batch = max(4096, int(1.4 * (sample_count - have) / (math.pi / 4.0) ** n))
        pts = rng.uniform(-1.0, 1.0, (batch, n)) + 1j * rng.uniform(-1.0, 1.0, (batch, n))
        mask = np.all(np.abs(pts) < 1.0, axis=1)
        good = pts[mask][: sample_count - have]
        kept.append(good)
        have += len(good)
    pts = np.concatenate(kept)
    vals = np.asarray(f(pts))
    _check_finite(vals, "monte carlo")
    volume = math.pi**n
    estimate = volume * complex(np.mean(vals))
    stderr = volume * float(np.std(vals, ddof=1)) / math.sqrt(sample_count)
    return estimate, stderr


def weighted_lp_norm(f, p, weight, rule, n, symmetric=False):
    """The L^p norm of f against a weight, by tensor quadrature.

    ``symmetric=True`` is only sound when both f and the weight are
    symmetric under coordinate permutations.
    """
    if p <= 0:
        raise ValueError("p must be positive")

    def integrand(pts):
        return np.abs(np.asarray(f(pts))) ** p * weight.evaluate(pts)

    value = integrate_polydisc(at_points(integrand, rule), rule, n, symmetric=symmetric).real
    return value ** (1.0 / p)
