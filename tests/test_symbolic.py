"""Tests for exact polynomial arithmetic and the kernel identities.

The oracle for the arithmetic layer is direct expansion by hand at tiny
sizes plus float evaluation at random points; the identity verifiers are
additionally exercised through their mutation switches, which must flip
the verdict (a verifier that cannot fail verifies nothing).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bergproj.symbolic as symbolic
from bergproj.experiments import identity_suite
from bergproj.symbolic import (
    GaussianRational,
    MultiPoly,
    RationalFn,
    antisymmetrize,
    a_factor,
    b_factor,
    diagonal_denominator,
    full_denominator,
    geometric_series,
    mul_truncate_block,
    permute_block,
    rational_equal,
    rational_kernel,
    swap_block_variables,
    t1_series_w_antisymmetrization,
    truncate_block_degree,
    verify_ab_identity,
    verify_kernel_decomposition,
    verify_pI_expansion,
    verify_partial_fraction,
    verify_vandermonde_expansion,
)
from bergproj.symmetrization import Permutation


def symmetric_pair_product(n):
    """prod over j<k of (1 - z_k w_j)(1 - z_j w_k), built from the factors."""
    out = MultiPoly.constant(2 * n, 1)
    for j in range(n):
        for k in range(j + 1, n):
            out = out * a_factor(n, k, j) * a_factor(n, j, k)
    return out


def _small_polys(nvars=3, max_terms=4, max_exp=3):
    exponents = st.tuples(*[st.integers(0, max_exp)] * nvars)
    coeffs = st.integers(-9, 9)
    return st.dictionaries(exponents, coeffs, max_size=max_terms).map(
        lambda terms: MultiPoly(nvars, terms)
    )


class TestGaussianRational:
    def test_product_of_conjugates(self):
        z = GaussianRational(1, 1)
        w = GaussianRational(1, -1)
        assert z * w == 2

    def test_mixed_arithmetic(self):
        z = GaussianRational(Fraction(1, 2), 1)
        assert z + 1 == GaussianRational(Fraction(3, 2), 1)
        assert 2 * z == GaussianRational(1, 2)
        assert complex(z) == 0.5 + 1j

    def test_zero_detection(self):
        assert not GaussianRational(0, 0)
        assert GaussianRational(0, 1)


class TestMultiPoly:
    def test_binomial_square(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        got = (x + y) * (x + y)
        expected = x**2 + x * y * 2 + y**2
        assert got == expected

    def test_zero_terms_are_pruned(self):
        x = MultiPoly.variable(2, 0)
        assert (x - x).is_zero()
        assert (x - x) == 0

    def test_pow_matches_repeated_product(self):
        f = MultiPoly.variable(2, 0) + MultiPoly.constant(2, 2)
        assert f**3 == f * f * f
        assert f**0 == MultiPoly.constant(2, 1)

    def test_eval_matches_numpy(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        f = x**2 * y - y * 3 + 7
        pt = (0.3 + 0.2j, -1.5j)
        expected = pt[0] ** 2 * pt[1] - 3 * pt[1] + 7
        assert f.eval(pt) == pytest.approx(expected)

    def test_fraction_coefficients_survive(self):
        f = MultiPoly.variable(1, 0).scale(Fraction(1, 3))
        assert (f + f + f) == MultiPoly.variable(1, 0)

    def test_gaussian_rational_coefficients(self):
        i = GaussianRational(0, 1)
        f = MultiPoly.variable(1, 0).scale(i)
        assert f * f == MultiPoly.variable(1, 0) ** 2 * (-1)

    @settings(max_examples=60, deadline=None)
    @given(_small_polys(), _small_polys(), _small_polys())
    def test_distributive_law(self, f, g, h):
        assert (f + g) * h == f * h + g * h

    @settings(max_examples=40, deadline=None)
    @given(_small_polys())
    def test_eval_is_ring_homomorphism(self, f):
        pt = (0.37 - 0.11j, -0.52 + 0.4j, 0.23j)
        assert (f * f).eval(pt) == pytest.approx(f.eval(pt) ** 2, rel=1e-9, abs=1e-9)


class TestBlockOperations:
    def test_permute_block_relabels(self):
        # variables (z0, z1, w0, w1); swap the w block
        f = MultiPoly.variable(4, 2)
        swapped = permute_block(f, 2, 2, Permutation.transposition(2, 0, 1))
        assert swapped == MultiPoly.variable(4, 3)

    def test_antisymmetrize_single_variable(self):
        x0 = MultiPoly.variable(2, 0)
        x1 = MultiPoly.variable(2, 1)
        got = antisymmetrize(x0, 0, 2)
        assert got == (x0 - x1).scale(Fraction(1, 2))

    def test_antisymmetrize_kills_symmetric(self):
        x0 = MultiPoly.variable(2, 0)
        x1 = MultiPoly.variable(2, 1)
        assert antisymmetrize(x0 * x1 + x0 + x1, 0, 2).is_zero()

    def test_antisymmetrize_kills_degenerate_monomial(self):
        # in three variables no antisymmetric polynomial of degree 2 exists
        sq = MultiPoly.variable(3, 0) ** 2
        assert antisymmetrize(sq, 0, 3).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(_small_polys(nvars=3, max_exp=2))
    def test_antisymmetrize_is_projection(self, f):
        once = antisymmetrize(f, 0, 3)
        assert antisymmetrize(once, 0, 3) == once

    def test_truncate_block_degree(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        f = x**3 + x * y**2 + y
        assert truncate_block_degree(f, 1, 1, 1) == x**3 + y

    def test_mul_truncate_matches_full_product(self):
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        f = (x + y) ** 2
        g = (x - y) ** 3
        full = truncate_block_degree(f * g, 1, 1, 2)
        assert mul_truncate_block(f, g, 1, 1, 2) == full

    def test_geometric_series_terms(self):
        geo = geometric_series(2, 0, 1, 2)
        x = MultiPoly.variable(2, 0)
        y = MultiPoly.variable(2, 1)
        assert geo == 1 + x * y + (x * y) ** 2


class TestKernelBuilders:
    def test_t2_numerator_two_vars(self):
        # (z0 - z1)(w0 - w1), four monomials with unit coefficients
        f = rational_kernel("t2", 2).num
        z0, z1 = MultiPoly.variable(4, 0), MultiPoly.variable(4, 1)
        w0, w1 = MultiPoly.variable(4, 2), MultiPoly.variable(4, 3)
        assert f == (z0 - z1) * (w0 - w1)

    def test_full_denominator_two_vars(self):
        f = full_denominator(2)
        expected = (
            a_factor(2, 0, 0)
            * a_factor(2, 0, 0)
            * a_factor(2, 1, 1)
            * a_factor(2, 1, 1)
            * a_factor(2, 1, 0)
            * a_factor(2, 0, 1)
        )
        assert f == expected

    def test_pl_interpolates_between_parts(self):
        for n in (2, 3):
            assert rational_kernel("pl", n, 1).num == rational_kernel("t2", n).num
            assert rational_kernel("pl", n, n).num == symmetric_pair_product(n)

    def test_pl_rejects_bad_index(self):
        with pytest.raises(ValueError):
            rational_kernel("pl", 3, 4)

    def test_tilde_numerator_vanishes_on_diagonal(self):
        f = rational_kernel("tilde", 2).num
        assert f.eval((0.3, 0.1, 0.7j, 0.7j)) == 0

    def test_cached_products_equal_fresh_builds_after_suite(self):
        # the suite with its negative controls must leave the shared,
        # memoized polynomials as a fresh build makes them
        identity_suite(4, negative_controls=True)
        families = ("t1", "t2", "bergman_polydisc")
        constructors = [full_denominator, diagonal_denominator] + [
            lambda n, family=family: rational_kernel(family, n).num for family in families
        ]
        fresh_builds = [full_denominator.__wrapped__, diagonal_denominator.__wrapped__] + [
            lambda n, family=family: rational_kernel.__wrapped__(family, n).num
            for family in families
        ]
        for construct, build in zip(constructors, fresh_builds):
            for n in (2, 3, 4):
                cached = construct(n)
                assert construct(n) is cached
                fresh = build(n)
                assert fresh is not cached
                assert cached == fresh and cached.nvars == fresh.nvars == 2 * n

    def test_denominator_factors_consistently(self):
        # shared denominator = pair product * diagonal part, exactly
        for n in (2, 3):
            assert full_denominator(n) == (
                symmetric_pair_product(n) * diagonal_denominator(n)
            )


class TestIdentityVerifiers:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ab_identity(self, n):
        assert verify_ab_identity(n)
        assert not verify_ab_identity(n, mutate=True)

    @pytest.mark.parametrize("n", [2, 3])
    def test_kernel_decomposition(self, n):
        collect = {}
        assert verify_kernel_decomposition(n, collect=collect)
        assert collect["denominator_terms"] > 0
        assert not verify_kernel_decomposition(n, mutate=True)

    def test_kernel_decomposition_four_vars(self):
        assert verify_kernel_decomposition(4)

    def test_kernel_decomposition_reads_the_table(self, monkeypatch):
        # a wrong t1 row, P_n - P_2, must fail the check: t1 + t2 is then
        # P_n - P_2 + P_1, which is not P_n
        def clear():
            symbolic.kernel_terms.cache_clear()
            symbolic.rational_kernel.cache_clear()

        clear()
        monkeypatch.setitem(symbolic.KERNEL_TABLE, "t1", ((1, "n"), (-1, 2)))
        try:
            rows = identity_suite(4).rows
        finally:
            monkeypatch.undo()
            clear()
        passed = {
            row["index"]: row["passed"] for row in rows if row["verifier"] == "kernel_decomposition"
        }
        assert passed[3] is False and passed[4] is False

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_pI_expansion(self, m):
        assert verify_pI_expansion(m)
        assert not verify_pI_expansion(m, mutate=True)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_vandermonde_expansion(self, n):
        assert verify_vandermonde_expansion(n)
        assert not verify_vandermonde_expansion(n, mutate=True)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_partial_fraction(self, n):
        assert verify_partial_fraction(n)
        assert not verify_partial_fraction(n, mutate=True)

    def test_partial_fraction_needs_three_vars(self):
        with pytest.raises(ValueError):
            verify_partial_fraction(2)


class TestSeriesAnnihilation:
    @pytest.mark.parametrize("n,order", [(2, 6), (3, 4)])
    def test_symmetric_part_series_antisymmetrizes_to_zero(self, n, order):
        assert t1_series_w_antisymmetrization(n, order).is_zero()

    def test_antisymmetric_part_is_nonzero_control(self):
        out = t1_series_w_antisymmetrization(2, 4, numerator=rational_kernel("t2", 2).num)
        assert not out.is_zero()


class TestRationalLayer:
    def test_parts_sum_to_bergman(self):
        for n in (2, 3):
            total = rational_kernel("t1", n) + rational_kernel("t2", n)
            product = RationalFn(MultiPoly.constant(2 * n, 1), diagonal_denominator(n), n)
            assert rational_equal(total, product)
            assert rational_equal(rational_kernel("bergman_polydisc", n), product)

    def test_eval_matches_closed_form(self):
        z = (0.2 + 0.1j, -0.3j)
        w = (0.4, 0.1 - 0.2j)
        point = z + w
        den = 1.0
        for zz in z:
            for ww in w:
                den *= 1 - zz * ww
        extra = (1 - z[0] * w[0]) * (1 - z[1] * w[1])
        got = rational_kernel("t2", 2).eval(point)
        expected = (z[0] - z[1]) * (w[0] - w[1]) / (den * extra)
        assert got == pytest.approx(expected)

    def test_successive_difference_is_pair_symmetric(self):
        # the difference of consecutive interpolating kernels in three
        # variables is invariant under transposing the first two variables,
        # separately in each block
        diff = RationalFn(
            rational_kernel("pl", 3, 2).num - rational_kernel("pl", 3, 1).num,
            full_denominator(3),
            3,
        )
        for block in ("z", "w"):
            assert rational_equal(diff, swap_block_variables(diff, 0, 1, block))

    def test_full_swap_is_not_symmetric_control(self):
        # the same difference is NOT invariant under transposing the first
        # and last variables, so the previous test cannot pass vacuously
        diff = RationalFn(
            rational_kernel("pl", 3, 2).num - rational_kernel("pl", 3, 1).num,
            full_denominator(3),
            3,
        )
        assert not rational_equal(diff, swap_block_variables(diff, 0, 2, "w"))

    def test_pl_kernel_eval_at_point(self):
        point = (0.1, 0.2j, -0.3, 0.05 - 0.1j, 0.25, 0.4j)
        f = rational_kernel("pl", 3, 2)
        assert f.eval(point) == pytest.approx(
            f.num.eval(point) / f.den.eval(point)
        )
