"""Tests for the symmetrization map, its Jacobian and local inverses.

Oracles used here:
* hand-expanded elementary symmetric polynomials at small fixed points;
* the defining product for the Jacobian, evaluated directly;
* roundtrip properties (symmetrize, invert, compare) under hypothesis.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bergproj.errors import NonConvergence
from bergproj.symmetrization import (
    Permutation,
    elementary_symmetric,
    in_symmetrized_polydisc,
    jacobian_phi,
    local_inverse_roots,
    local_inverses,
)


def _disc_coords(n, max_mag=0.9):
    return st.tuples(
        *[
            st.complex_numbers(
                max_magnitude=max_mag, allow_nan=False, allow_infinity=False
            )
        ]
        * n
    )


class TestElementarySymmetric:
    def test_two_variables_closed_form(self):
        w = (0.3 + 0j, 0.5j)
        p = elementary_symmetric(w)
        assert p[0] == pytest.approx(0.3 + 0.5j)
        assert p[1] == pytest.approx(0.15j)

    def test_three_variables_closed_form(self):
        a, b, c = 0.2 + 0.1j, -0.4j, 0.5 - 0.2j
        p = elementary_symmetric((a, b, c))
        assert p[0] == pytest.approx(a + b + c)
        assert p[1] == pytest.approx(a * b + a * c + b * c)
        assert p[2] == pytest.approx(a * b * c)

    def test_accepts_array_row(self):
        # a row of a numpy array is a point like a tuple
        row = np.array([[0.1, 0.2j, -0.3]])[0]
        assert elementary_symmetric(row) == elementary_symmetric((0.1, 0.2j, -0.3))

    @settings(max_examples=60, deadline=None)
    @given(_disc_coords(3))
    def test_permutation_invariance(self, w):
        base = elementary_symmetric(w)
        for perm in Permutation.group(3):
            shuffled = elementary_symmetric(perm.apply(w))
            np.testing.assert_allclose(shuffled, base, rtol=0, atol=1e-12)


class TestJacobian:
    def test_two_variables(self):
        assert jacobian_phi((0.3, 0.5j)) == pytest.approx(0.3 - 0.5j)

    def test_three_variables_product(self):
        a, b, c = 0.1, 0.2, 0.3j
        expected = (a - b) * (a - c) * (b - c)
        assert jacobian_phi((a, b, c)) == pytest.approx(expected)

    def test_vanishes_on_diagonal(self):
        assert jacobian_phi((0.4 + 0.1j, 0.4 + 0.1j, -0.2)) == 0

    @settings(max_examples=60, deadline=None)
    @given(_disc_coords(4))
    def test_antisymmetry(self, w):
        base = jacobian_phi(w)
        for perm in Permutation.group(4):
            assert jacobian_phi(perm.apply(w)) == pytest.approx(
                perm.sign * base, abs=1e-12
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_rows_match_points(self, n, seed):
        """Both forms are the pair product in combinations order, bit for
        bit: a point with Python complex arithmetic, an (m, n) array with
        numpy's column products, whose vectorised multiply may round
        differently, so the two forms agree to roundoff only."""
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-1, 1, (7, n)) + 1j * rng.uniform(-1, 1, (7, n))
        columns = np.ones(7, dtype=complex)
        for j, k in itertools.combinations(range(n), 2):
            columns *= rows[:, j] - rows[:, k]
        values = jacobian_phi(rows)
        assert values.tobytes() == columns.tobytes()
        for row, value in zip(rows, values):
            expected = 1.0 + 0j
            for j, k in itertools.combinations(range(n), 2):
                expected *= complex(row[j]) - complex(row[k])
            assert jacobian_phi(tuple(row)) == expected
            assert value == pytest.approx(expected, rel=1e-14, abs=1e-15)


class TestPermutation:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_transposition_sign(self):
        assert Permutation((0, 3, 2, 1)).sign == -1

    def test_identity_sign(self):
        assert Permutation(range(5)).sign == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sign_is_homomorphism(self, n):
        group = Permutation.group(n)
        assert len(group) == math.factorial(n)
        for a, b in itertools.product(group, repeat=2):
            # b.apply(a.mapping) maps i to a(b(i))
            assert Permutation(b.apply(a.mapping)).sign == a.sign * b.sign

    def test_inverse_composes_to_identity(self):
        values = tuple("abcd")
        for perm in Permutation.group(4):
            inverse = Permutation(sorted(range(4), key=perm.mapping.__getitem__))
            assert perm.apply(inverse.apply(values)) == values
            assert inverse.apply(perm.apply(values)) == values
            assert inverse.sign == perm.sign

    def test_apply_reorders(self):
        perm = Permutation((2, 0, 1))
        assert perm.apply(("a", "b", "c")) == ("c", "a", "b")


class TestLocalInverses:
    def test_quadratic_closed_form(self):
        # p = Phi_2(0.3, -0.5) = (-0.2, -0.15); roots via the quadratic formula
        p = elementary_symmetric((0.3, -0.5))
        roots = local_inverse_roots(p)
        disc = (p[0] ** 2 - 4 * p[1]) ** 0.5
        expected = sorted(
            [(p[0] + disc) / 2, (p[0] - disc) / 2],
            key=lambda r: math.atan2(r.imag, r.real),
        )
        got = sorted(roots, key=lambda r: math.atan2(r.imag, r.real))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_counts_all_orderings(self):
        p = elementary_symmetric((0.1, 0.4j, -0.3))
        inverses = local_inverses(p)
        assert len(inverses) == 6
        for pt in inverses:
            np.testing.assert_allclose(elementary_symmetric(pt), p, atol=1e-10)

    def test_nonconvergence_witness(self):
        # a quintuple root keeps a genuinely nonzero float residual, so an
        # absurdly small tolerance must trip the structured failure
        p = elementary_symmetric((0.7, 0.7, 0.7, 0.7, 0.7))
        with pytest.raises(NonConvergence) as exc:
            local_inverse_roots(p, tol=1e-30)
        assert exc.value.witness is not None

    @settings(max_examples=80, deadline=None)
    @given(_disc_coords(3, max_mag=0.85))
    def test_coefficient_roundtrip(self, w):
        """Symmetrize, take roots, symmetrize again: coefficients survive."""
        p = elementary_symmetric(w)
        roots = local_inverse_roots(p)
        again = elementary_symmetric(roots)
        np.testing.assert_allclose(again, p, atol=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(_disc_coords(4, max_mag=0.85))
    def test_root_recovery_for_separated_tuples(self, w):
        """With well-separated roots, inversion recovers the original tuple."""
        pairs = itertools.combinations(w, 2)
        if min(abs(a - b) for a, b in pairs) < 5e-2:
            return  # ill-conditioned near the branch locus; covered above
        p = elementary_symmetric(w)
        roots = local_inverse_roots(p)
        got = sorted(roots, key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        expected = sorted(
            (complex(z) for z in w), key=lambda z: (round(z.real, 6), round(z.imag, 6))
        )
        np.testing.assert_allclose(got, expected, atol=1e-9)


class TestMembership:
    def test_origin_is_inside(self):
        assert in_symmetrized_polydisc((0.0, 0.0))

    def test_double_boundary_root_is_outside(self):
        # t^2 - 2t + 1 = (t - 1)^2: root exactly on the boundary circle
        assert not in_symmetrized_polydisc((2.0, 1.0))

    def test_image_of_interior_point(self):
        assert in_symmetrized_polydisc(elementary_symmetric((0.5, -0.5)))

    def test_margin_is_conservative(self):
        p = elementary_symmetric((0.999, 0.0))
        assert in_symmetrized_polydisc(p, tol=1e-9)
        assert not in_symmetrized_polydisc(p, tol=1e-2)
