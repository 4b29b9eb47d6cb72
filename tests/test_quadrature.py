"""Tests for disc/polydisc quadrature against independently derived values.

Oracles:
* moment identities on the disc: the integral of z^a conj(z)^b over the
  unit disc is pi/(a+1) when a = b and 0 otherwise;
* the radial power series: the integral of |1 - w s|^(-2q) over the disc
  equals pi * sum_m binom(m+q-1, q-1)^2 s^(2m) / (m+1), summed to machine
  precision (geometric tail);
* closed forms obtained by expanding the Vandermonde determinant:
  the integral of |w1 - w2|^2 over D^2 is pi^2 and the integral of the
  squared modulus of the full Vandermonde over D^3 is pi^3;
* Monte Carlo as an independent stochastic cross-check (``oracles.py``).
"""

import math

import numpy as np
import pytest

from bergproj.errors import OverflowInIntegrand
from bergproj.quadrature import (
    QuadratureRule,
    WeightSpec,
    disc_rule,
    integrate_polydisc,
    legendre_nodes,
    polar_rule_at,
    refine,
    singular_disc_rule,
)
from oracles import at_points, monte_carlo_polydisc, weighted_lp_norm


def vandermonde_sq(pts):
    """|prod_{j<k} (w_j - w_k)|^2, vectorized over rows."""
    m, n = pts.shape
    out = np.ones(m)
    for j in range(n):
        for k in range(j + 1, n):
            out *= np.abs(pts[:, j] - pts[:, k]) ** 2
    return out


def inverse_power_integral(q, s, tol=1e-16):
    """Series oracle for the disc integral of |1 - w s|^(-2q)."""
    total = 0.0
    m = 0
    while True:
        term = math.comb(m + q - 1, q - 1) ** 2 * s ** (2 * m) / (m + 1)
        total += term
        if m > 10 and term < tol * total:
            break
        m += 1
    return math.pi * total


class TestDiscRule:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"cluster": 3},
            {"boost": (8, math.pi / 8)},
            {"cluster": 2, "boost": (4, math.pi / 6)},
        ],
    )
    def test_weights_sum_to_pi(self, kwargs):
        rule = disc_rule(16, 24, **kwargs)
        assert np.sum(rule.weights) == pytest.approx(math.pi, abs=1e-12)

    def test_moment_exactness(self):
        rule = disc_rule(12, 16)
        for a in range(5):
            for b in range(5):
                val = np.sum(rule.weights * rule.nodes**a * np.conj(rule.nodes) ** b)
                expected = math.pi / (a + 1) if a == b else 0.0
                assert val == pytest.approx(expected, abs=1e-12)

    def test_cluster_handles_boundary_growth(self):
        # (1 - |w|^2)^(-1/2) integrates to 2 pi; the cluster-2 substitution
        # turns the radial integrand into a constant, so this is exact
        rule = disc_rule(16, 8, cluster=2)
        val = np.sum(rule.weights / np.sqrt(1.0 - np.abs(rule.nodes) ** 2))
        assert val == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_boost_keeps_node_count_bounded(self):
        plain = disc_rule(8, 16)
        boosted = disc_rule(8, 16, boost=(8, math.pi / 8))
        assert boosted.size > plain.size
        assert boosted.size < 3 * plain.size

    def test_all_nodes_inside_disc(self):
        rule = disc_rule(20, 12, cluster=4)
        assert np.max(np.abs(rule.nodes)) < 1.0

    @pytest.mark.parametrize("cluster", [4, 5, 10])
    def test_graded_rule_keeps_exact_boundary_distance(self, cluster):
        # at cluster 5 and 10 the outermost radii round to 1
        rule = disc_rule(64, 64, cluster=cluster)
        assert np.all(np.abs(rule.nodes) <= 1.0)
        # Gauss-Legendre nodes u on [0, 1], graded to 1 - (1 - u)^cluster
        u = 0.5 + 0.5 * legendre_nodes(64)[0]
        exact = (1.0 - u) ** cluster
        distance = rule.aux["boundary_distance"]
        assert np.array_equal(distance, np.repeat(exact, 64))
        assert np.all(distance > 0)
        # away from the circle the node's own 1 - |w|^2 agrees
        inner = distance > 1e-3
        np.testing.assert_allclose(1.0 - np.abs(rule.nodes[inner]) ** 2, distance[inner], rtol=1e-12)

    def test_ungraded_rule_has_no_aux(self):
        assert disc_rule(8, 8).aux is None


class TestPolarRule:
    def test_smooth_mass(self):
        rule = polar_rule_at(0.37 + 0.21j, 24, 24)
        assert np.sum(rule.weights) == pytest.approx(math.pi, rel=1e-7)

    def test_smooth_integrand_interior_center(self):
        rule = polar_rule_at(0.5, 24, 24)
        val = np.sum(rule.weights * (1.0 - np.abs(rule.nodes) ** 2))
        assert val == pytest.approx(math.pi / 2, rel=1e-7)

    def test_point_singularity_at_origin(self):
        rule = polar_rule_at(0.0, 16, 16)
        val = np.sum(rule.weights / np.abs(rule.nodes))
        assert val == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_point_singularity_off_center(self):
        # integral of |a - w|^(-3/2), compared against a refined rule
        a = 0.3 - 0.4j
        rule = polar_rule_at(a, 10, 16)
        fine = polar_rule_at(a, 24, 32)
        val = np.sum(rule.weights * np.abs(a - rule.nodes) ** -1.5)
        ref = np.sum(fine.weights * np.abs(a - fine.nodes) ** -1.5)
        assert val == pytest.approx(ref, rel=1e-6)

    def test_nodes_stay_inside(self):
        for center in (0.0, 0.6j, 1.0 / 0.999):
            rule = polar_rule_at(center, 16, 16)
            assert np.max(np.abs(rule.nodes)) < 1.0
            assert np.all(rule.weights > 0)

    def test_boundary_center_covers_the_disc(self):
        # about a point of the circle every ring is an arc facing the disc
        for center in (1.0, -1j, complex(np.exp(0.7j))):
            rule = polar_rule_at(center, 10, 16)
            assert np.sum(rule.weights) == pytest.approx(math.pi, rel=1e-12)
            assert np.max(np.abs(rule.nodes)) < 1.0
            assert np.all(rule.weights > 0)


class TestSingularRule:
    @pytest.mark.parametrize("s", [0.9, 0.99, 0.999, 0.9999])
    def test_fourth_power_closed_form(self, s):
        # integral of |1 - w s|^(-4) over the disc is pi / (1 - s^2)^2
        rule = singular_disc_rule(s, 12, 24)
        val = np.sum(rule.weights * np.abs(1.0 - rule.nodes * s) ** -4.0)
        expected = math.pi / (1.0 - s * s) ** 2
        assert val == pytest.approx(expected, rel=1e-7)

    @pytest.mark.parametrize("q,s", [(2, 0.99), (3, 0.99), (3, 0.9)])
    def test_series_oracle(self, q, s):
        rule = singular_disc_rule(s, 12, 24)
        val = np.sum(rule.weights * np.abs(1.0 - rule.nodes * s) ** (-2.0 * q))
        assert val == pytest.approx(inverse_power_integral(q, s), rel=1e-7)

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            singular_disc_rule(1.0, 8, 8)


class TestRefine:
    def test_disc_refinement_descriptor(self):
        rule = disc_rule(8, 12, cluster=2)
        fine = refine(rule, 2.0, 2.0)
        assert fine.descriptor["radial_order"] == 16
        assert fine.descriptor["angular_order"] == 24
        assert fine.descriptor["cluster"] == 2
        assert np.sum(fine.weights) == pytest.approx(math.pi, abs=1e-12)

    def test_polar_refinement(self):
        rule = singular_disc_rule(0.9, 16, 16)
        fine = refine(rule, radial_factor=1.5, angular_factor=1.0)
        assert fine.descriptor["radial_order"] == 24
        assert fine.size > rule.size


class TestPolydiscIntegration:
    def test_constant(self):
        rule = disc_rule(8, 8)
        val = integrate_polydisc(lambda pts: np.ones(len(pts)), rule, 2)
        assert val.real == pytest.approx(math.pi**2, rel=1e-12)

    def test_vandermonde_two_vars(self):
        rule = disc_rule(10, 12)
        val = integrate_polydisc(at_points(vandermonde_sq, rule), rule, 2)
        assert val.real == pytest.approx(math.pi**2, rel=1e-10)

    def test_vandermonde_three_vars(self):
        rule = disc_rule(8, 10)
        val = integrate_polydisc(at_points(vandermonde_sq, rule), rule, 3, symmetric=True)
        assert val.real == pytest.approx(math.pi**3, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3])
    def test_symmetric_reduction_matches_full(self, n):
        rule = disc_rule(4, 6)

        def f(pts):
            return np.abs(np.prod(pts, axis=1)) ** 2 + np.real(np.sum(pts, axis=1))

        f = at_points(f, rule)

        full = integrate_polydisc(f, rule, n, symmetric=False)
        reduced = integrate_polydisc(f, rule, n, symmetric=True)
        assert reduced == pytest.approx(full, rel=1e-12, abs=1e-12)

    def test_chunking_is_invisible(self):
        rule = disc_rule(4, 8)
        f = at_points(lambda pts: np.abs(pts[:, 0] - pts[:, 1]) ** 2, rule)
        a = integrate_polydisc(f, rule, 2, chunk=1 << 18)
        b = integrate_polydisc(f, rule, 2, chunk=97)
        assert a == pytest.approx(b, rel=1e-13)

    def test_overflow_detected(self):
        rule = disc_rule(4, 4)
        with pytest.raises(OverflowInIntegrand):
            integrate_polydisc(lambda pts: np.full(len(pts), np.inf), rule, 2)


class TestMonteCarlo:
    def test_reproducible(self):
        f = vandermonde_sq
        a, sa = monte_carlo_polydisc(f, 20000, seed=7, n=2)
        b, sb = monte_carlo_polydisc(f, 20000, seed=7, n=2)
        assert a == b and sa == sb

    def test_three_sigma_consistency(self):
        val, err = monte_carlo_polydisc(vandermonde_sq, 200000, seed=11, n=2)
        assert abs(val.real - math.pi**2) < 3.0 * err

    def test_three_vars(self):
        val, err = monte_carlo_polydisc(vandermonde_sq, 200000, seed=3, n=3)
        assert abs(val.real - math.pi**3) < 3.0 * err


class TestWeightSpec:
    def test_exponent_zero_is_exactly_one(self):
        # coincident coordinates included, where the factor is 0^0
        w = WeightSpec.jacobian_power(0.0)
        for n in (1, 2, 3):
            np.testing.assert_array_equal(w.evaluate(np.zeros((4, n), complex)), 1.0)

    def test_jacobian_power(self):
        w = WeightSpec.jacobian_power(2.0)
        pts = np.array([[0.1 + 0.2j, -0.3j], [0.5, 0.5]])
        np.testing.assert_allclose(w.evaluate(pts), vandermonde_sq(pts))

    def test_point_product(self):
        w = WeightSpec.point_product([0.5, -0.5j], -1.0)
        pts = np.array([[0.1], [0.2j]])
        expected = 1.0 / (np.abs(0.5 - pts[:, 0]) * np.abs(-0.5j - pts[:, 0]))
        np.testing.assert_allclose(w.evaluate(pts), expected)

    def test_point_product_needs_one_variable(self):
        w = WeightSpec.point_product([0.0], -1.0)
        with pytest.raises(ValueError):
            w.evaluate(np.zeros((3, 2), complex))


class TestWeightedNorm:
    def test_constant_function(self):
        rule = disc_rule(8, 8)
        val = weighted_lp_norm(
            lambda pts: np.ones(len(pts)), 4.0, WeightSpec.jacobian_power(0.0), rule, 2
        )
        assert val == pytest.approx((math.pi**2) ** 0.25, rel=1e-12)

    def test_identity_function_disc(self):
        rule = disc_rule(8, 8)
        val = weighted_lp_norm(
            lambda pts: pts[:, 0], 2.0, WeightSpec.jacobian_power(0.0), rule, 1
        )
        assert val == pytest.approx(math.sqrt(math.pi / 2), rel=1e-12)

    def test_vandermonde_weight(self):
        rule = disc_rule(8, 10)
        val = weighted_lp_norm(
            lambda pts: np.ones(len(pts)),
            2.0,
            WeightSpec.jacobian_power(2.0),
            rule,
            2,
        )
        assert val == pytest.approx(math.pi, rel=1e-10)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            weighted_lp_norm(
                lambda pts: np.ones(len(pts)),
                0.0,
                WeightSpec.jacobian_power(0.0),
                disc_rule(4, 4),
                1,
            )
