"""Bergman-type kernels on the polydisc, their decomposition, and operators.

All kernels share the denominator prod_{j<=k} (1 - z_k wbar_j)(1 - z_j wbar_k)
and a constant (1/pi)^n.  The full polydisc Bergman kernel splits into a
part that annihilates antisymmetric functions (``kernel_T1``) and a part
that reproduces them (``kernel_T2``); a family of interpolating kernels
(``kernel_Pl``) walks between the two in n steps.  The conjugate-Vandermonde
kernel (``kernel_tildeT``) transports the antisymmetric part to symmetric
functions and is the engine of the blow-up experiments.

Numeric evaluators are vectorized over rows of integration points; the
exact counterparts of the same formulas live in :mod:`bergproj.symbolic`
and the two layers are tested against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .errors import InterpolationInconsistent, PoleProximity
from .quadrature import integrate_polydisc
from .symmetrization import jacobian_phi, local_inverse_roots, Permutation

#: kernels refuse to evaluate when a denominator factor is smaller than this
POLE_GUARD = 1e-14


def _as_rows(wbar, n):
    wbar = np.asarray(wbar, dtype=complex)
    if wbar.ndim == 1:
        return wbar[None, :], True
    if wbar.shape[1] != n:
        raise ValueError(f"expected {n} columns, got {wbar.shape[1]}")
    return wbar, False


def _guard(values, what):
    small = np.min(np.abs(values))
    if small < POLE_GUARD:
        raise PoleProximity(f"{what} within {small:.2e} of a kernel singularity")


def _pair_products(n, z, wbar):
    """Shared building blocks: cross pair product, Vandermonde product, diagonal.

    Returns (cross, vandermonde, diagonal) where cross is the product over
    j<k of (1 - z_k wbar_j)(1 - z_j wbar_k), vandermonde the product over
    j<k of (z_j - z_k)(wbar_j - wbar_k), and diagonal the product over j of
    (1 - z_j wbar_j)^2.  The full shared denominator is cross * diagonal.
    """
    z = np.asarray(z, dtype=complex)
    m = len(wbar)
    cross = np.ones(m, dtype=complex)
    vand = np.ones(m, dtype=complex)
    diag = np.ones(m, dtype=complex)
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
            vand *= (z[j] - z[k]) * (wbar[:, j] - wbar[:, k])
    return cross, vand, diag


def bergman_disc(z, wbar):
    """Bergman kernel of the unit disc, 1 / (pi (1 - z wbar)^2)."""
    factor = 1.0 - np.asarray(z, complex) * np.asarray(wbar, complex)
    _guard(np.atleast_1d(factor), "disc kernel")
    return 1.0 / (math.pi * factor * factor)


def bergman_polydisc(n, z, wbar):
    """Product of one-variable Bergman kernels."""
    wbar, single = _as_rows(wbar, n)
    _, _, diag = _pair_products(n, z, wbar)
    out = 1.0 / (math.pi**n * diag)
    return out[0] if single else out


def kernel_T1(n, z, wbar):
    """The part of the polydisc kernel annihilating antisymmetric functions."""
    wbar, single = _as_rows(wbar, n)
    cross, vand, diag = _pair_products(n, z, wbar)
    out = (cross - vand) / (math.pi**n * cross * diag)
    return out[0] if single else out


def kernel_T2(n, z, wbar):
    """The part of the polydisc kernel reproducing antisymmetric functions."""
    wbar, single = _as_rows(wbar, n)
    cross, vand, diag = _pair_products(n, z, wbar)
    out = vand / (math.pi**n * cross * diag)
    return out[0] if single else out


def kernel_Pl(n, l, z, wbar):
    """Interpolating kernel: symmetric factors up to index l, Vandermonde beyond.

    l = 1 coincides with ``kernel_T2`` and l = n with the full polydisc
    Bergman kernel.
    """
    if not 1 <= l <= n:
        raise ValueError(f"l must lie in 1..{n}, got {l}")
    wbar, single = _as_rows(wbar, n)
    z = np.asarray(z, dtype=complex)
    cross, _, diag = _pair_products(n, z, wbar)
    num = np.ones(len(wbar), dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            if k + 1 <= l:
                num *= (1.0 - z[k] * wbar[:, j]) * (1.0 - z[j] * wbar[:, k])
            else:
                num *= (z[j] - z[k]) * (wbar[:, j] - wbar[:, k])
    out = num / (math.pi**n * cross * diag)
    return out[0] if single else out


def kernel_tildeT(n, z, wbar):
    """Conjugate-Vandermonde kernel: squared wbar Vandermonde over the shared denominator."""
    wbar, single = _as_rows(wbar, n)
    cross, _, diag = _pair_products(n, z, wbar)
    num = np.ones(len(wbar), dtype=complex)
    for j in range(n):
        for k in range(j + 1, n):
            diff = wbar[:, j] - wbar[:, k]
            num *= diff * diff
    out = num / (math.pi**n * cross * diag)
    return out[0] if single else out


def bergman_symmetrized(p, q, tol=1e-12):
    """Bergman kernel of the symmetrized polydisc via the proper-map formula.

    With z any root ordering for p and w any root ordering for q,

        K(p, q) = sum over permutations sigma of sign(sigma) *
                  prod_j k_D(z_j, conj(w_{sigma(j)}))
                  / (J(z) * conj(J(w)))

    where k_D is the disc Bergman kernel and J the coordinate Vandermonde.
    The value does not depend on the orderings chosen.  Points whose roots
    are closer than tol^(1/2) to each other sit near the branch locus,
    where both Jacobians vanish; the formula stays finite but loses
    digits, so callers should stay away from the diagonal there.
    """
    zs = local_inverse_roots(p, tol=tol)
    ws = local_inverse_roots(q, tol=tol)
    n = len(zs)
    if len(ws) != n:
        raise ValueError("points of different dimension")
    z = np.asarray(zs, dtype=complex)
    wbar = np.conj(np.asarray(ws, dtype=complex))
    total = 0.0 + 0.0j
    for perm in Permutation.group(n):
        prod = 1.0 + 0.0j
        for j in range(n):
            factor = 1.0 - z[j] * wbar[perm.mapping[j]]
            if abs(factor) < POLE_GUARD:
                raise PoleProximity("symmetrized kernel at a boundary pair")
            prod *= 1.0 / (math.pi * factor * factor)
        total += perm.sign * prod
    jz = jacobian_phi(tuple(z))
    jw = jacobian_phi(tuple(ws))
    denom = jz * np.conj(jw)
    if abs(denom) < POLE_GUARD:
        raise PoleProximity("symmetrized kernel at the branch locus")
    return complex(total / denom)


def symmetric_top(prefix, y, z):
    """(n-1)! e_{n-1}(x_1, ..., x_{n-2}, y, z): the sum over all orderings of
    the n variables of the product of the first n - 1.

    ``prefix`` holds x_1, ..., x_{n-2} (scalars or arrays).  Adding a
    variable x to a set of m maps its top two elementary symmetric values
    (e_{m-1}, e_m) to (e_m + x e_{m-1}, x e_m); the set starts as the last
    two variables, with e_1 = y + z and e_2 = y z.
    """
    low = y + z
    if not prefix:
        return low
    top = y * z
    for x in prefix[:0:-1]:
        low, top = top + x * low, x * top
    return math.factorial(len(prefix) + 1) * (top + prefix[0] * low)


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
    g = family_factors(n, s, pts)[0]
    out = symmetric_top([g[:, l] for l in range(n - 2)], g[:, n - 2], g[:, n - 1])
    return out[0] if single else out


def tildeT2_closed_form(s, z):
    """Closed form of the conjugate-Vandermonde operator on the n=2 family.

    Normalized so that applying the kernel by quadrature to
    ``test_function_hs(2, s, .)`` gives pi times this value.
    """
    z1, z2 = complex(z[0]), complex(z[1])
    a = s * s / (math.pi * (1.0 - z1 * s) ** 2 * (1.0 - z2 * s))
    b = s * s / (math.pi * (1.0 - z2 * s) ** 2 * (1.0 - z1 * s))
    return a + b


def shape_from_factors(s, r, c):
    """:func:`tilde_shape` from the factors r and c of :func:`family_factors`,
    one entry per coordinate: s^(n(n-1)) (n-1)! e_{n-1}(r) / prod c."""
    n = len(r)
    denom = c[-2] * c[-1]
    for x in c[:-2]:
        denom = x * denom
    return s ** (n * (n - 1)) * symmetric_top(r[:-2], r[-2], r[-1]) / denom


def tilde_shape(n, s, pts):
    """Unit-constant model for the conjugate-Vandermonde operator output.

    sum over tau of s^(n(n-1)) / ( prod_{m<n} (1 - z_{tau(m)} s) *
    prod_l (1 - z_l s)^(n-1) ).  For n = 2 this is exactly pi times
    ``tildeT2_closed_form``; for n = 3 the experiments fit the constant.
    """
    pts, single = _as_rows(pts, n)
    _, r, c = family_factors(n, s, pts)
    out = shape_from_factors(s, list(r.T), list(c.T))
    return out[0] if single else out


@dataclass(frozen=True)
class QPolynomial:
    """The degree k-2 polynomial with q(m+1) (m+1) = binom(m+k-1, k-1).

    Built by exact interpolation and revalidated out of sample on
    construction, so holding an instance certifies the contract.
    Applying q in the index variable upgrades the square-power disc
    kernel series to the k-th power series.
    """

    k: int
    coeffs: tuple  # ascending, exact Fractions

    def __call__(self, x):
        out = 0 if not isinstance(x, (float, complex)) else 0.0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    @property
    def degree(self):
        return len(self.coeffs) - 1


def q_polynomial(k):
    """Interpolate the index polynomial for the k-th kernel power exactly.

    Interpolation nodes are m = 0..k-2; the result is checked at the next
    six integers and the construction aborts if any check fails.
    """
    if k < 2:
        raise ValueError("kernel power k must be at least 2")
    target = lambda m: Fraction(math.comb(m + k - 1, k - 1), m + 1)
    xs = [Fraction(m + 1) for m in range(k - 1)]
    ys = [target(m) for m in range(k - 1)]
    # Newton's divided differences, exact in Fractions
    table = list(ys)
    for level in range(1, len(xs)):
        for i in range(len(xs) - 1, level - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - level])
    # expand to monomial coefficients
    coeffs = [Fraction(0)] * len(xs)
    for i in reversed(range(len(xs))):
        # multiply current polynomial by (x - xs[i]) and add table[i]
        new = [Fraction(0)] * len(xs)
        for d in range(len(xs) - 1):
            new[d + 1] += coeffs[d]
            new[d] -= xs[i] * coeffs[d]
        new[0] += table[i]
        coeffs = new
    poly = QPolynomial(k=k, coeffs=tuple(coeffs[: max(1, k - 1)]))
    for m in range(k - 1, k + 5):
        if poly(Fraction(m + 1)) * (m + 1) != math.comb(m + k - 1, k - 1):
            raise InterpolationInconsistent(
                f"index polynomial for k={k} fails its out-of-sample check at m={m}"
            )
    return poly


def apply_D_operator(coeffs, q):
    """Apply q of the index operator to a power series given by coefficients.

    The index operator sends w^m to (m+1) w^m (equivalently it is
    1 + w d/dw), so q acts diagonally: coefficient m is scaled by q(m+1).
    Returns a list of the same length.
    """
    return [q(m + 1) * c for m, c in enumerate(coeffs)]


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel family to integrate against, and how.

    ``family`` is one of: bergman_polydisc, t1, t2, tilde, pl.
    ``positive=True`` integrates against the modulus of the kernel (the
    absolute-kernel majorant operator).
    """

    family: str
    n: int
    l: int | None = None
    positive: bool = False

    def evaluate(self, z, wbar):
        if self.family == "bergman_polydisc":
            out = bergman_polydisc(self.n, z, wbar)
        elif self.family == "t1":
            out = kernel_T1(self.n, z, wbar)
        elif self.family == "t2":
            out = kernel_T2(self.n, z, wbar)
        elif self.family == "tilde":
            out = kernel_tildeT(self.n, z, wbar)
        elif self.family == "pl":
            out = kernel_Pl(self.n, self.l, z, wbar)
        else:
            raise ValueError(f"unknown kernel family {self.family!r}")
        return np.abs(out) if self.positive else out


def apply_operator(spec, f, z, rule, n, symmetric_f=False, chunk=1 << 18):
    """Integrate kernel(z, conj(w)) * f(w) over the polydisc with a tensor rule.

    When ``symmetric_f=True`` the caller asserts f is invariant under
    coordinate permutations.  The kernel is then replaced by its average
    over permutations of the integration coordinates -- which leaves the
    integral unchanged for symmetric f -- and the symmetric tensor
    reduction of the rule is used, cutting the node count by n!.
    """
    if spec.n != n:
        raise ValueError("kernel dimension does not match the integration dimension")

    if symmetric_f:
        perms = list(permutations(range(n)))

        def integrand(pts):
            wbar = np.conj(pts)
            ker = spec.evaluate(z, wbar[:, perms[0]])
            for tau in perms[1:]:
                ker = ker + spec.evaluate(z, wbar[:, tau])
            return (ker / len(perms)) * np.asarray(f(pts))

        return integrate_polydisc(integrand, rule, n, symmetric=True, chunk=chunk)

    def integrand(pts):
        return spec.evaluate(z, np.conj(pts)) * np.asarray(f(pts))

    return integrate_polydisc(integrand, rule, n, symmetric=False, chunk=chunk)
