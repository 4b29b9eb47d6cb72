"""The symmetrization map of the polydisc and its local inverses.

The map sends an n-tuple of disc variables to the n elementary symmetric
polynomials.  Its local inverses are root multisets of the monic polynomial
whose signed coefficients are those symmetric values; there are n! of them,
one per ordering of the roots.  The complex Jacobian of the map is the
Vandermonde determinant of the tuple.

Points of both the polydisc and the symmetrized polydisc are plain
sequences of complex numbers.  The experiments use :class:`Permutation`
and, in the annihilation check, :func:`jacobian_phi`.  No driver reaches
the root machinery (``elementary_symmetric``, ``local_inverse_roots``,
``local_inverses`` and ``in_symmetrized_polydisc``).  It stays only
because the benchmark's layer tracer wraps these names, with
``Permutation.group``, and requires ``bergproj`` to bind them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, permutations as _all_orderings

import numpy as np

from .errors import NonConvergence

#: fuzz used when grouping root arguments for the canonical ordering
_ARG_FUZZ = 1e-12


def _parity_sign(mapping: tuple) -> int:
    inversions = sum(
        1
        for i in range(len(mapping))
        for j in range(i + 1, len(mapping))
        if mapping[i] > mapping[j]
    )
    return -1 if inversions % 2 else 1


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., n-1} with its parity sign.

    ``mapping[i]`` is the image of position ``i``.  The ``sign`` field is
    always the inversion parity of ``mapping``; it is computed on
    construction so the invariant cannot drift.
    """

    mapping: tuple
    sign: int = field(init=False)

    def __post_init__(self):
        mapping = tuple(int(i) for i in self.mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError(f"not a permutation of 0..{len(mapping) - 1}: {mapping}")
        object.__setattr__(self, "mapping", mapping)
        object.__setattr__(self, "sign", _parity_sign(mapping))

    @classmethod
    def group(cls, n: int):
        """All n! permutations, in lexicographic order of the mapping."""
        return [cls(m) for m in _all_orderings(range(n))]

    def apply(self, values):
        """Reorder a sequence: result[i] = values[mapping[i]]."""
        return tuple(values[i] for i in self.mapping)


def elementary_symmetric(w) -> tuple:
    """Symmetrize a polydisc point: all n elementary symmetric polynomials.

    Uses the stable one-root-at-a-time recurrence: appending a root r maps
    e_k -> e_k + r * e_{k-1}.
    """
    coords = tuple(complex(c) for c in w)
    n = len(coords)
    e = [0j] * (n + 1)
    e[0] = 1.0 + 0j
    for m, root in enumerate(coords, start=1):
        for k in range(m, 0, -1):
            e[k] = e[k] + root * e[k - 1]
    return tuple(e[1:])


def jacobian_phi(w):
    """Complex Jacobian of the symmetrization map: prod_{j<k} (w_j - w_k).

    ``w`` is one point, which gives a complex number, or an (m, n) array
    of rows, which gives m values; the pairs multiply in the order of
    ``combinations(range(n), 2)``.
    """
    pts = np.asarray(w, dtype=complex)
    out = np.ones(pts.shape[:-1], dtype=complex)
    for j, k in combinations(range(pts.shape[-1]), 2):
        out *= pts[..., j] - pts[..., k]
    return out if pts.ndim > 1 else complex(out)


def _canonical_sort(roots):
    """Sort by principal argument, then modulus within argument ties.

    Arguments closer than ``_ARG_FUZZ`` are treated as equal so that conjugate
    or coincident roots come out in a reproducible order.
    """
    by_arg = sorted(roots, key=lambda r: (math.atan2(r.imag, r.real), abs(r)))
    out = []
    group = [by_arg[0]] if by_arg else []
    for r in by_arg[1:]:
        gap = math.atan2(r.imag, r.real) - math.atan2(group[-1].imag, group[-1].real)
        if abs(gap) <= _ARG_FUZZ:
            group.append(r)
        else:
            out.extend(sorted(group, key=abs))
            group = [r]
    out.extend(sorted(group, key=abs))
    return out


def _monic_coefficients(p) -> list:
    """Descending coefficients of t^n - p_1 t^{n-1} + ... + (-1)^n p_n."""
    coeffs = [1.0 + 0j]
    for k, pk in enumerate(p, start=1):
        coeffs.append(((-1) ** k) * complex(pk))
    return coeffs


def local_inverse_roots(p, tol: float = 1e-12) -> list:
    """Roots of the monic polynomial attached to a symmetrized point.

    The returned list is the canonical ordering (argument, then modulus) of
    the multiset that any local inverse of the symmetrization map permutes.
    Raises :class:`NonConvergence` when a polished root still has residual
    above ``tol`` relative to the coefficient scale.
    """
    coeffs = _monic_coefficients(p)
    n = len(coeffs) - 1
    if n == 0:
        return []
    scale = max(1.0, max(abs(c) for c in coeffs))
    roots = np.roots(np.asarray(coeffs, dtype=complex))

    poly = np.polynomial.polynomial.Polynomial(np.asarray(coeffs[::-1], dtype=complex))
    dpoly = poly.deriv()
    polished = []
    for r in roots:
        r = complex(r)
        for _ in range(2):
            fr = complex(poly(r))
            if abs(fr) <= tol * scale:
                break
            dfr = complex(dpoly(r))
            if abs(dfr) < 1e-30:
                break
            step = fr / dfr
            if abs(complex(poly(r - step))) < abs(fr):
                r = r - step
        polished.append(r)

    worst = max(abs(complex(poly(r))) for r in polished)
    if worst > tol * scale:
        raise NonConvergence(
            f"root residual {worst:.3e} exceeds {tol:.1e} * scale {scale:.3e}",
            witness={"p": tuple(coeffs), "roots": tuple(polished)},
        )
    return _canonical_sort(polished)


def local_inverses(p, tol: float = 1e-12) -> list:
    """All n! orderings of the root multiset, as tuples.

    These are exactly the values of the n! local inverses of the
    symmetrization map at ``p`` (for p off the branch locus).
    """
    roots = local_inverse_roots(p, tol=tol)
    return [perm.apply(roots) for perm in Permutation.group(len(roots))]


def in_symmetrized_polydisc(p, tol: float = 1e-9) -> bool:
    """Membership test: every root of the attached polynomial has |r| < 1 - tol.

    The margin makes the test conservative: points within ``tol`` of the
    boundary are rejected, which is the safe direction for quadrature.
    """
    roots = local_inverse_roots(p)
    return all(abs(r) < 1.0 - tol for r in roots)
