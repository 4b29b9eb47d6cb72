"""Bergman-type kernels on the polydisc, their decomposition, and operators.

Every kernel of :data:`bergproj.symbolic.KERNEL_TABLE` -- the polydisc
Bergman kernel, the part T1 that annihilates antisymmetric functions, the
part T2 that reproduces them, the interpolating kernels P_l that walk
between the two in n steps, and the conjugate-Vandermonde kernel that
transports the antisymmetric part to symmetric functions and drives the
blow-up experiments -- is (1/pi)^n times a signed sum of pair products
over the shared denominator prod_{j<=k} (1 - z_k wbar_j)(1 - z_j wbar_k).
:class:`KernelSpec` evaluates that table, vectorized over rows of
integration points and over a stack of points z;
:func:`bergproj.symbolic.kernel_numerator` builds the same numerators
exactly, and the two layers are tested against each other.
:func:`apply_operator` hands it rows of node indices, from which it
gathers the factors 1 - z_a wbar_b out of one table of n values per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .errors import PoleProximity
from .quadrature import INTEGRAND_CHUNK, integrate_polydisc
from .symbolic import kernel_terms
# bergbench's layer trace requires this module to bind both names
from .symmetrization import jacobian_phi, local_inverse_roots  # noqa: F401

#: kernels refuse to evaluate when a denominator factor is smaller than this
POLE_GUARD = 1e-14


def _as_rows(wbar, n, dtype=complex):
    wbar = np.asarray(wbar, dtype=dtype)
    rows = wbar[None, :] if wbar.ndim == 1 else wbar
    if rows.shape[1] != n:
        raise ValueError(f"expected {n} columns, got {rows.shape[1]}")
    return rows, wbar.ndim == 1


def _guard(small, what):
    """Refuse a denominator factor whose smallest modulus is ``small``."""
    if small < POLE_GUARD:
        raise PoleProximity(f"{what} within {small:.2e} of a kernel singularity")


def symmetric_top_from_sums(prefix, low, top):
    """(n-1)! e_{n-1}(x_1, ..., x_{n-2}, y, z): the sum over all orderings of
    the n variables of the product of the first n - 1.

    ``prefix`` holds x_1, ..., x_{n-2} (scalars or arrays); the last two
    variables enter through their elementary symmetric values ``low`` =
    y + z and ``top`` = y z (unused without a prefix), so that a caller can
    build them once for many prefixes.

    Adding a variable x to a set of m maps its top two elementary symmetric
    values (e_{m-1}, e_m) to (e_m + x e_{m-1}, x e_m).
    """
    if not prefix:
        return low
    for x in prefix[:0:-1]:
        low, top = top + x * low, x * top
    return math.factorial(len(prefix) + 1) * (top + prefix[0] * low)


def pair_sums(n, y, z):
    """y + z and, when n > 2, y z: the last two of n variables as
    :func:`symmetric_top_from_sums` takes them (None for an unused product)."""
    return y + z, (y * z if n > 2 else None)


def family_factors(n, s, w):
    """Per-coordinate factors of the blow-up family and of its image shape:
    (g, r, c) = ((1 - w s)^(-n), 1 / (1 - w s), (1 - w s)^(n-1)).

    Every factor depends on one coordinate, so over a tensor rule they are
    tables of one value per node.
    """
    a = 1.0 - np.asarray(w) * s
    return a ** (-float(n)), 1.0 / a, a ** (n - 1)


def test_function_hs(n, s, pts):
    """The symmetric blow-up family: sum over permutations tau of
    prod_{j=1}^{n-1} (1 - w_{tau(j)} s)^(-n), that is (n-1)! e_{n-1}(g).

    Each summand omits one coordinate; the function is symmetric and its
    p-th power norms against the squared-Vandermonde weight blow up as
    s -> 1 at the rate the experiments measure.
    """
    pts, single = _as_rows(pts, n)
    g = list(family_factors(n, s, pts)[0].T)
    out = symmetric_top_from_sums(g[:-2], *pair_sums(n, g[-2], g[-1]))
    return out[0] if single else out


def tildeT2_closed_form(s, z):
    """Closed form of the conjugate-Vandermonde operator on the n=2 family.

    Normalized so that applying the kernel by quadrature to
    ``test_function_hs(2, s, .)`` gives pi times this value.  No driver
    calls it yet: it is the exact image an exact blow-up verdict at the
    n = 2 endpoint p = 4 needs.
    """
    z1, z2 = complex(z[0]), complex(z[1])
    a = s * s / (math.pi * (1.0 - z1 * s) ** 2 * (1.0 - z2 * s))
    b = s * s / (math.pi * (1.0 - z2 * s) ** 2 * (1.0 - z1 * s))
    return a + b


def shape_from_sums(s, r_prefix, c_prefix, r_sum, r_prod, c_prod):
    """:func:`tilde_shape` from the factors r and c of :func:`family_factors`:
    s^(n(n-1)) (n-1)! e_{n-1}(r) / prod c.  The prefixes hold the factors of
    the first n - 2 coordinates; the last two enter through r_j + r_k,
    r_j r_k (unused at n = 2) and c_j c_k, as in
    :func:`symmetric_top_from_sums`."""
    n = len(r_prefix) + 2
    denom = c_prod
    for x in c_prefix:
        denom = x * denom
    return s ** (n * (n - 1)) * symmetric_top_from_sums(r_prefix, r_sum, r_prod) / denom


def tilde_shape(n, s, pts):
    """Unit-constant model for the conjugate-Vandermonde operator output.

    sum over tau of s^(n(n-1)) / ( prod_{m<n} (1 - z_{tau(m)} s) *
    prod_l (1 - z_l s)^(n-1) ).  For n = 2 this is exactly pi times
    ``tildeT2_closed_form``; for n = 3 the experiments fit the constant.
    """
    pts, single = _as_rows(pts, n)
    _, r, c = family_factors(n, s, pts)
    r, c = list(r.T), list(c.T)
    out = shape_from_sums(s, r[:-2], c[:-2], *pair_sums(n, r[-2], r[-1]), c[-2] * c[-1])
    return out[0] if single else out


def _denominator_factors(z, nodes, index, factor):
    """The n^2 factors 1 - z_a wbar_b at the rows ``index`` of node
    indices, written into ``factor`` as ``factor[a][b]``: ``nodes`` holds
    the conjugated nodes, and the factors of row r are
    1 - z_a nodes[index[r, b]].

    The n x size table of 1 - z_a nodes[i] is built once and each row's
    factors are gathered from it, so every factor has the bits it would
    have if it were computed at that row.  The table is checked against
    the pole guard; only when one of its entries is within the guard are
    the gathered factors checked, in the order the unpermuted kernel
    meets them: the diagonal factor of j, then the cross factors of
    (j, k) for k > j.  A node within the guard that no row reads raises
    nothing.

    The factors share one (n, n, m) buffer, which a caller fills again for
    each point z: as n^2 separate arrays they made the allocator hand the
    heap back and fault it in again on every call, about 200 page faults
    per call at 4,369 rows, which doubled the time of an unsymmetrized
    evaluation.
    """
    n = len(z)
    table = np.empty((n, len(nodes)), dtype=complex)
    for a in range(n):
        np.subtract(1.0, z[a] * nodes, out=table[a])
    # mode="wrap" spares the copy of ``out`` that take makes to raise on an
    # index out of range
    table.take(index.T, axis=1, out=factor, mode="wrap")
    if np.min(np.abs(table)) < POLE_GUARD:
        nearest = np.min(np.abs(factor), axis=-1)
        for j in range(n):
            _guard(nearest[j, j], "diagonal factor")
            for k in range(j + 1, n):
                _guard(nearest[k, j], "cross factor")
                _guard(nearest[j, k], "cross factor")


def _permuted_kernel(terms, z, tau, factor, diffs):
    """The signed term sum over the shared denominator with the columns of
    wbar permuted by ``tau``, from the factors and differences of the
    unpermuted columns, multiplied as on a permuted copy of wbar.

    The denominator is cross * diag, the products over j < k of
    (1 - z_k wbar_j)(1 - z_j wbar_k) and over j of (1 - z_j wbar_j)^2; a
    term whose every pair is symmetric is ``cross`` itself.
    """
    n = len(z)
    size = len(factor[0][0])
    cross = np.ones(size, dtype=complex)
    diag = np.ones(size, dtype=complex)
    for j in range(n):
        f = factor[j][tau[j]]
        diag *= f * f
        for k in range(j + 1, n):
            cross *= factor[k][tau[j]] * factor[j][tau[k]]
    num = None
    for sign, names in terms:
        if all(name == "symmetric" for name in names):
            term = cross
        else:
            term = np.ones(size, dtype=complex)
            for (j, k), name in zip(combinations(range(n), 2), names):
                if name == "symmetric":
                    term *= factor[k][tau[j]] * factor[j][tau[k]]
                elif name == "vandermonde":
                    term *= (z[j] - z[k]) * diffs[tau[j], tau[k]]
                else:
                    diff = diffs[tau[j], tau[k]]
                    term *= diff * diff
        if num is None:
            num = term if sign > 0 else -term
        else:
            num = num + term if sign > 0 else num - term
    return num / (math.pi**n * cross * diag)


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel family to integrate against, and how.

    ``family`` is one of the families of
    :data:`bergproj.symbolic.KERNEL_TABLE`: bergman_polydisc, t1, t2,
    tilde, or pl with its level ``l`` in 1..n.
    """

    family: str
    n: int
    l: int | None = None

    def __post_init__(self):
        kernel_terms(self.family, self.n, self.l)

    def evaluate(self, z, wbar, *, nodes=None, symmetrize=False):
        """The kernel at one point z (n coordinates) or a stack of Z points
        (shape (Z, n)) and one row or an (m, n) array of rows wbar.  One
        point gives (m,) values, a stack (Z, m), each without its last
        axis for one row.

        Without ``nodes`` the rows hold conjugated points.  With ``nodes``
        (the conjugated nodes of a rule) they hold indices into it, and
        the row (i_1, ..., i_n) stands for the point whose conjugate is
        (nodes[i_1], ..., nodes[i_n]).  Plain rows are their own node
        table, so both forms take the same path and give the same bits.
        The factors 1 - z_a wbar_b are gathered from a table of one value
        per coordinate of z and node (see :func:`_denominator_factors`),
        and the pair differences wbar_a - wbar_b from the columns of
        conjugated points.  The columns and differences are built once for
        all points, and each point's factors fill one shared buffer, so a
        point of a stack has the bits it has alone.

        With ``symmetrize=True`` it is the mean of the kernel over the n!
        permutations of the columns of wbar.  The factors and differences are built once for
        all permutations, and each permutation multiplies them in the
        order an evaluation on permuted columns would, so the mean equals
        the mean of n! separate evaluations bit for bit.  A factor within
        ``POLE_GUARD`` of zero raises :class:`PoleProximity`, as the
        unpermuted kernel would, at the first point of the stack that
        meets it.
        """
        n = self.n
        if nodes is None:
            wbar, single = _as_rows(wbar, n)
            nodes, index = wbar.ravel(), np.arange(wbar.size).reshape(wbar.shape)
        else:
            index, single = _as_rows(wbar, n, dtype=None)
        z = np.asarray(z, dtype=complex)
        if z.ndim not in (1, 2) or z.shape[-1] != n:
            raise ValueError(f"z must have {n} coordinates, got shape {z.shape}")
        points = z if z.ndim == 2 else z[None]
        perms = list(permutations(range(n))) if symmetrize else [tuple(range(n))]
        columns = [nodes.take(index[:, b]) for b in range(n)]
        pairs = {(tau[j], tau[k]) for tau in perms for j, k in combinations(range(n), 2)}
        diffs = {(a, b): columns[a] - columns[b] for a, b in pairs}
        terms = kernel_terms(self.family, n, self.l)
        factor = np.empty((n, n, len(index)), dtype=complex)
        out = np.empty((len(points), len(index)), dtype=complex)
        for point, row in zip(points, out):
            _denominator_factors(point, nodes, index, factor)
            row[...] = _permuted_kernel(terms, point, perms[0], factor, diffs)
            for tau in perms[1:]:
                row += _permuted_kernel(terms, point, tau, factor, diffs)
            if symmetrize:
                row /= len(perms)
        if single:
            out = out[:, 0]
        return out if z.ndim == 2 else out[0]


def apply_operator(spec, f, z, rule, *, symmetric_f=False):
    """Integrate kernel(z, conj(w)) * f(w) over the polydisc with a tensor rule.

    ``z`` is one point (shape (n,)) or a stack of Z points (shape (Z, n)),
    and ``f`` maps an (m, n) array of points to (m,) values or to (F, m)
    values of F functions at once.  The result has shape z.shape[:-1] +
    (F,), without the F axis for (m,) values: a complex number for one
    point and one function.  Each chunk of integration points is evaluated
    by ``f`` once and by the kernel once for all points of ``z``, and that
    one kernel evaluation serves every function.  A chunk holds at most
    ``INTEGRAND_CHUNK`` values in all (Z * F * points); ``f`` is called once
    more, at the rule's first tensor point, to read F.

    When ``symmetric_f=True`` the caller asserts f is invariant under
    coordinate permutations.  The kernel is then replaced by its average
    over permutations of the integration coordinates -- which leaves the
    integral unchanged for symmetric f -- and the symmetric tensor
    reduction of the rule is used, cutting the node count by n!.  The
    average is one ``KernelSpec.evaluate(..., symmetrize=True)`` call per
    chunk, which builds the kernel's factors once per point of ``z`` for
    all n! permutations.  The kernel is evaluated at the chunk's rows of
    node indices against the rule's conjugated nodes, and ``f`` at the
    points gathered from them.
    """
    n = spec.n
    z = np.asarray(z)
    if z.ndim not in (1, 2) or z.shape[-1] != n:
        raise ValueError(f"z must be one point of {n} coordinates or a stack of them")
    points = z if z.ndim == 2 else z[None]
    nodes = np.asarray(rule.nodes)
    conjugated = np.conj(nodes)
    probe = np.asarray(f(np.full((1, n), nodes[0])))
    chunk = max(1, INTEGRAND_CHUNK // (len(points) * math.prod(probe.shape[:-1])))

    def integrand(index):
        ker = spec.evaluate(points, index, nodes=conjugated, symmetrize=symmetric_f)
        values = np.asarray(f(nodes.take(index)))
        return np.expand_dims(ker, tuple(range(1, values.ndim))) * values

    out = integrate_polydisc(integrand, rule, n, symmetric=symmetric_f, chunk=chunk)
    return out if z.ndim == 2 else out[0]
