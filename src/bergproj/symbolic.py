"""Exact multivariate polynomial arithmetic and kernel identities.

Everything in this module is exact: coefficients are Python ints,
:class:`fractions.Fraction`, or :class:`GaussianRational`.  Floating point
appears only in the fast pre-screen that evaluates both sides of a claimed
identity at a few pseudorandom points before the exact comparison runs.

Variable layout for kernel polynomials in dimension n: the first n slots
are the holomorphic variables z_0..z_{n-1}, the next n slots are the
conjugated integration variables w_0..w_{n-1} (written wbar in formulas).
The kernel constructors build numerators and denominators only; the
constant (1/pi)^n of the analytic kernels is applied in the numeric layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .symmetrization import Permutation


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return cls(other, 0)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return float(self.re) + 1j * float(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _coeff_to_complex(c):
    return complex(c)


class MultiPoly:
    """Sparse multivariate polynomial: exponent tuple -> exact coefficient."""

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
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            out[exps] = coeff if acc is None else acc + coeff
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        return MultiPoly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = out.get(e)
                out[e] = c if acc is None else acc + c
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
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

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    def block_degree(self, start, length):
        return max((sum(e[start : start + length]) for e in self.terms), default=0)

    def eval(self, point):
        """Evaluate at a sequence of numbers (complex allowed)."""
        total = 0j if any(isinstance(p, complex) for p in point) else 0
        for exps, coeff in self.terms.items():
            val = _coeff_to_complex(coeff) if isinstance(coeff, GaussianRational) else coeff
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
        return f"MultiPoly({self.nvars}, {{{inner}{more}}})"


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
    return MultiPoly(poly.nvars, out)


def antisymmetrize(poly, start, length):
    """Signed average over all relabelings of one variable block.

    Returns (1/length!) * sum over permutations of sign * permuted poly.
    The projection onto the antisymmetric component of that block.
    """
    total = MultiPoly.zero(poly.nvars)
    for perm in Permutation.group(length):
        contrib = permute_block(poly, start, length, perm)
        total = total + (contrib if perm.sign > 0 else -contrib)
    return total.scale(Fraction(1, math.factorial(length)))


def truncate_block_degree(poly, start, length, max_deg):
    """Drop all terms whose degree in one block exceeds ``max_deg``."""
    kept = {
        e: c
        for e, c in poly.terms.items()
        if sum(e[start : start + length]) <= max_deg
    }
    return MultiPoly(poly.nvars, kept)


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
    return MultiPoly(f.nvars, out)


# ---------------------------------------------------------------------------
# kernel building blocks, zero-based indices, layout (z_0..z_{n-1}, w_0..w_{n-1})
# ---------------------------------------------------------------------------


def a_factor(n, j, k):
    """1 - z_j w_k  (w denotes the conjugated integration variable)."""
    nvars = 2 * n
    zero = tuple([0] * nvars)
    exps = [0] * nvars
    exps[j] += 1
    exps[n + k] += 1
    return MultiPoly(nvars, {zero: 1, tuple(exps): -1})


def b_factor(n, j, k):
    """(z_j - z_k)(w_j - w_k)."""
    nvars = 2 * n
    zj = MultiPoly.variable(nvars, j)
    zk = MultiPoly.variable(nvars, k)
    wj = MultiPoly.variable(nvars, n + j)
    wk = MultiPoly.variable(nvars, n + k)
    return (zj - zk) * (wj - wk)


def symmetric_pair_product(n):
    """prod over j<k of (1 - z_k w_j)(1 - z_j w_k)."""
    out = MultiPoly.constant(2 * n, 1)
    for j, k in combinations(range(n), 2):
        out = out * a_factor(n, k, j) * a_factor(n, j, k)
    return out


def vandermonde_pair_product(n):
    """prod over j<k of (z_j - z_k)(w_j - w_k)."""
    out = MultiPoly.constant(2 * n, 1)
    for j, k in combinations(range(n), 2):
        out = out * b_factor(n, j, k)
    return out


def t1_numerator(n):
    """Numerator of the symmetric-part kernel: pair product minus Vandermonde product."""
    return symmetric_pair_product(n) - vandermonde_pair_product(n)


def t2_numerator(n):
    """Numerator of the antisymmetric-part kernel."""
    return vandermonde_pair_product(n)


def full_denominator(n):
    """prod over j<=k of (1 - z_k w_j)(1 - z_j w_k): shared denominator."""
    out = MultiPoly.constant(2 * n, 1)
    for j in range(n):
        for k in range(j, n):
            out = out * a_factor(n, k, j) * a_factor(n, j, k)
    return out


def diagonal_denominator(n):
    """prod over j of (1 - z_j w_j)^2: the polydisc Bergman denominator."""
    out = MultiPoly.constant(2 * n, 1)
    for j in range(n):
        out = out * a_factor(n, j, j) * a_factor(n, j, j)
    return out


def pl_numerator(n, l):
    """Numerator of the l-th interpolating kernel, 1 <= l <= n.

    Pairs with both indices at most l contribute the symmetric factors,
    pairs whose larger index exceeds l contribute Vandermonde factors.
    l = 1 gives the antisymmetric-part numerator, l = n the symmetric
    pair product (whose ratio with the shared denominator is the polydisc
    Bergman kernel).
    """
    if not 1 <= l <= n:
        raise ValueError(f"l must lie in 1..{n}, got {l}")
    out = MultiPoly.constant(2 * n, 1)
    for j, k in combinations(range(n), 2):
        if k + 1 <= l:
            out = out * a_factor(n, k, j) * a_factor(n, j, k)
        else:
            out = out * b_factor(n, j, k)
    return out


def tilde_t_numerator(n):
    """Numerator of the conjugate-Vandermonde kernel: prod over j<k of (w_j - w_k)^2."""
    nvars = 2 * n
    out = MultiPoly.constant(nvars, 1)
    for j, k in combinations(range(n), 2):
        wj = MultiPoly.variable(nvars, n + j)
        wk = MultiPoly.variable(nvars, n + k)
        out = out * (wj - wk) * (wj - wk)
    return out


def geometric_series(nvars, i, j, order):
    """Truncated expansion of 1/(1 - x_i x_j): sum of (x_i x_j)^m, m <= order."""
    terms = {}
    for m in range(order + 1):
        exps = [0] * nvars
        exps[i] += m
        exps[j] += m
        terms[tuple(exps)] = 1
    return MultiPoly(nvars, terms)


@dataclass(frozen=True)
class RationalFn:
    """A ratio of two :class:`MultiPoly`; ``n`` is the kernel block size."""

    num: MultiPoly
    den: MultiPoly
    n: int

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")

    def eval(self, point):
        return self.num.eval(point) / self.den.eval(point)

    def __mul__(self, other):
        if isinstance(other, RationalFn):
            return RationalFn(self.num * other.num, self.den * other.den, self.n)
        return RationalFn(self.num.scale(other), self.den, self.n)

    def __add__(self, other):
        return RationalFn(
            self.num * other.den + other.num * self.den, self.den * other.den, self.n
        )

    def __sub__(self, other):
        return RationalFn(
            self.num * other.den - other.num * self.den, self.den * other.den, self.n
        )


def rational_equal(f, g):
    """Exact equality of rational functions by cross multiplication."""
    return f.num * g.den == g.num * f.den


def swap_block_variables(f, i, j, block):
    """Transpose variables i and j inside the z block or the w block."""
    n = f.n
    start = 0 if block == "z" else n
    perm = Permutation.transposition(n, i, j)
    return RationalFn(
        permute_block(f.num, start, n, perm),
        permute_block(f.den, start, n, perm),
        n,
    )


def t1_kernel(n):
    return RationalFn(t1_numerator(n), full_denominator(n), n)


def t2_kernel(n):
    return RationalFn(t2_numerator(n), full_denominator(n), n)


def pl_kernel(n, l):
    return RationalFn(pl_numerator(n, l), full_denominator(n), n)


def tilde_t_kernel(n):
    return RationalFn(tilde_t_numerator(n), full_denominator(n), n)


def bergman_polydisc_kernel(n):
    return RationalFn(MultiPoly.constant(2 * n, 1), diagonal_denominator(n), n)


# ---------------------------------------------------------------------------
# identity verifiers
# ---------------------------------------------------------------------------


def _polys_agree(lhs, rhs, seed):
    """Float pre-screen at three pseudorandom points, then exact comparison."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        point = rng.uniform(-0.5, 0.5, lhs.nvars) + 1j * rng.uniform(
            -0.5, 0.5, lhs.nvars
        )
        lv = lhs.eval(tuple(point))
        rv = rhs.eval(tuple(point))
        if abs(lv - rv) > 1e-9 * max(1.0, abs(lv), abs(rv)):
            return False
    return lhs == rhs


def verify_ab_identity(n, mutate=False, collect=None):
    """Check (1 - z_j w_k)(1 - z_k w_j) = (1 - z_j w_j)(1 - z_k w_k) + b_{jk}.

    ``mutate=True`` flips the sign of the cross term; the verifier must
    then return False (negative control for the test harness).
    """
    ok = True
    for j, k in combinations(range(n), 2):
        lhs = a_factor(n, j, k) * a_factor(n, k, j)
        cross = b_factor(n, j, k)
        rhs = a_factor(n, j, j) * a_factor(n, k, k) + (-cross if mutate else cross)
        ok = ok and _polys_agree(lhs, rhs, seed=1000 + 17 * n + j + 3 * k)
        if not ok:
            break
    if collect is not None:
        collect["pairs"] = n * (n - 1) // 2
    return ok


def verify_kernel_decomposition(n, mutate=False, collect=None):
    """Check that the two kernel parts sum to the polydisc Bergman kernel.

    Two exact statements: the numerators over the shared denominator sum
    to the full pair product, and that pair product times the diagonal
    denominator equals the shared denominator (so the sum of the two parts
    is exactly the product of the one-variable Bergman kernels).
    """
    a_part = symmetric_pair_product(n)
    b_part = vandermonde_pair_product(n)
    t1 = a_part - b_part
    t2 = -b_part if mutate else b_part
    numerator_ok = _polys_agree(t1 + t2, a_part, seed=2000 + n)
    lhs = (t1 + t2) * diagonal_denominator(n)
    den = full_denominator(n)
    rational_ok = _polys_agree(lhs, den, seed=2100 + n)
    if collect is not None:
        collect["t1_terms"] = t1.n_terms
        collect["denominator_terms"] = den.n_terms
    return numerator_ok and rational_ok


def verify_pI_expansion(m, mutate=False, collect=None):
    """Expand the cross factors attached to a new variable into subset terms.

    With indices 0..m-1 old and m new, the product over j < m of
    (1 - z_j w_m)(1 - z_m w_j) equals the sum over subsets I of {0..m-1} of
    (1 - z_m w_m)^{|I|} * prod_{j in I} (1 - z_j w_j) * prod_{k not in I} b_{km}.
    """
    n = m + 1
    lhs = MultiPoly.constant(2 * n, 1)
    for j in range(m):
        lhs = lhs * a_factor(n, j, m) * a_factor(n, m, j)
    rhs = MultiPoly.zero(2 * n)
    index_set = list(range(m))
    for size in range(m + 1):
        for subset in combinations(index_set, size):
            term = a_factor(n, m, m) ** len(subset)
            for j in subset:
                term = term * a_factor(n, j, j)
            for k in index_set:
                if k not in subset:
                    cross = b_factor(n, k, m)
                    term = term * (-cross if mutate else cross)
            rhs = rhs + term
    if collect is not None:
        collect["subsets"] = 2**m
        collect["rhs_terms"] = rhs.n_terms
    return _polys_agree(lhs, rhs, seed=3000 + m)


def _expansion_sides(nv, mutate):
    """Common core of the two determinant expansions.

    Variables are x_0..x_{nv-1} plus a final slot s.  Left side:
    Vandermonde(x) * s^(nv choose 2).  Right side: the alternating sum over
    permutations of prod_t (1 - x_{sigma(t)} s)^t for t = 0..nv-1.
    """
    nvars = nv + 1
    s_index = nv
    lhs = MultiPoly.constant(nvars, 1)
    for j, k in combinations(range(nv), 2):
        xj = MultiPoly.variable(nvars, j)
        xk = MultiPoly.variable(nvars, k)
        lhs = lhs * (xj - xk)
    s_power = [0] * nvars
    s_power[s_index] = nv * (nv - 1) // 2
    lhs = lhs * MultiPoly(nvars, {tuple(s_power): 1})

    rhs = MultiPoly.zero(nvars)
    for perm in Permutation.group(nv):
        term = MultiPoly.constant(nvars, 1)
        for t in range(nv):
            zero = tuple([0] * nvars)
            exps = [0] * nvars
            exps[perm.mapping[t]] += 1
            exps[s_index] += 1
            factor = MultiPoly(nvars, {zero: 1, tuple(exps): -1})
            term = term * factor**t
        sign = 1 if mutate else perm.sign
        rhs = rhs + (term if sign > 0 else -term)
    return lhs, rhs


def verify_vandermonde_expansion(n, mutate=False, collect=None):
    """Alternating-sum expansion of the Vandermonde in n variables.

    This is the determinant of the matrix with rows (1 - x_j s)^t,
    expanded two ways; dropping the permutation signs (mutate) breaks it.
    """
    lhs, rhs = _expansion_sides(n, mutate)
    if collect is not None:
        collect["rhs_terms"] = rhs.n_terms
    return _polys_agree(lhs, rhs, seed=4000 + n)


def verify_partial_fraction(n, mutate=False, collect=None):
    """Cleared form of the partial-fraction expansion over n-1 variables.

    Clearing denominators in the partial-fraction decomposition used for
    the one-dimensional reduction leaves exactly the determinant expansion
    in n-1 variables, which is what gets checked.
    """
    if n < 3:
        raise ValueError("partial fraction form needs n >= 3")
    lhs, rhs = _expansion_sides(n - 1, mutate)
    if collect is not None:
        collect["rhs_terms"] = rhs.n_terms
    return _polys_agree(lhs, rhs, seed=5000 + n)


def t1_series_w_antisymmetrization(n, order, numerator=None):
    """w-block antisymmetrization of the truncated kernel power series.

    Expands numerator / shared denominator as a power series in the w block
    (truncated at total w degree ``order``) and antisymmetrizes the w block.
    For the symmetric-part numerator the result is identically zero: that
    is the series-level statement that the operator annihilates
    antisymmetric functions.  Other numerators give a nonzero control.
    """
    nvars = 2 * n
    if numerator is None:
        numerator = t1_numerator(n)
    series = truncate_block_degree(numerator, n, n, order)
    for j in range(n):
        for k in range(j, n):
            # one series factor per denominator factor; the diagonal pair
            # (j, j) correctly contributes its factor twice
            for zi, wi in ((k, j), (j, k)):
                geo = geometric_series(nvars, zi, n + wi, order)
                series = mul_truncate_block(series, geo, n, n, order)
    return antisymmetrize(series, n, n)
