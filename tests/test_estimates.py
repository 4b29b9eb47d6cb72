"""Tests for the growth-integral classification, Carleson-tent weight
constants, and annular-sector integrals.

Oracles: the Gauss hypergeometric closed form of the growth integral
(scipy), the exact lens-area formula for tents, adaptive 2-d quadrature
for off-center averages, and the elementary antiderivatives of the
sector integrands.
"""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.special import hyp2f1

from bergproj.errors import (
    AmbiguousFit,
    EmptyRegion,
    NonIntegrable,
    OverflowInIntegrand,
)
import bergproj.estimates as estimates
from bergproj.estimates import (
    SectorRegion,
    TentRegion,
    _sector_cubature,
    bb_norm_bound,
    bekolle_bonami_estimate,
    classify_forelli_rudin,
    default_apex_grid,
    forelli_rudin,
    sector_annulus_integral,
    tent_average,
    tent_rule,
)
from bergproj.quadrature import WeightSpec, disc_rule


def growth_oracle(eps, s_exp, r):
    """Hypergeometric closed form of the growth integral."""
    alpha = (2.0 - eps - s_exp) / 2.0
    return math.pi / (1.0 - eps) * hyp2f1(alpha, alpha, 2.0 - eps, r * r)


def region_contains(region, z):
    """Strict membership in the sector region, from its aperture and,
    for kind "Unj", its annulus."""
    z = complex(z)
    if abs(z) >= 1.0:
        return False
    u = 1.0 - z * region.s
    if not -region.half_aperture < math.atan2(u.imag, u.real) < region.half_aperture:
        return False
    if region.kind == "Unj":
        rho = abs(z - 1.0 / region.s)
        return region.inner_radius < rho < 1.0
    return True


class TestGrowthIntegral:
    def test_center_value_is_pi(self):
        for s_exp in (-0.5, 0.0, 0.5, 2.0):
            assert forelli_rudin(0.0, s_exp, 0.0) == pytest.approx(math.pi, rel=1e-14)

    def test_log_case_exact_form(self):
        # at s_exp = 0 without boundary factor the integral is
        # pi * (-log(1 - r^2)) / r^2 exactly
        for r in (0.3, 0.9, 0.99):
            expected = -math.pi * math.log1p(-r * r) / (r * r)
            assert forelli_rudin(0.0, 0.0, r) == pytest.approx(expected, rel=1e-9)

    def test_matches_hypergeometric_series(self):
        for s_exp in (0.5, -0.5):
            for r in (0.5, 0.9, 0.99, 0.999):
                assert forelli_rudin(0.0, s_exp, r) == pytest.approx(
                    growth_oracle(0.0, s_exp, r), rel=1e-8
                )

    def test_matches_hypergeometric_with_boundary_factor(self):
        for s_exp in (0.5, 0.0, -0.5):
            for r in (0.5, 0.9, 0.99):
                assert forelli_rudin(0.5, s_exp, r) == pytest.approx(
                    growth_oracle(0.5, s_exp, r), rel=2e-3
                )

    def test_explicit_rule_and_complex_argument(self):
        # the integral depends on z only through |z|; a user-supplied
        # rule integrates the literal integrand at a complex z
        z = 0.5 * np.exp(0.7j)
        value = forelli_rudin(0.0, 0.5, z, rule=disc_rule(48, 64))
        assert value == pytest.approx(growth_oracle(0.0, 0.5, 0.5), rel=1e-6)

    def test_log_growth_ratio_bracket(self):
        ratios = []
        for r in (0.9, 0.99, 0.999):
            ratios.append(forelli_rudin(0.0, 0.0, r) / (-math.log1p(-r * r)))
        assert max(ratios) / min(ratios) < 1.3

    def test_power_growth_ratio_bracket(self):
        ratios = []
        for r in (0.9, 0.99, 0.999):
            ratios.append(forelli_rudin(0.0, -1.0, r) * (1.0 - r * r))
        assert max(ratios) / min(ratios) < 2.0

    def test_overflow_for_extreme_exponent(self):
        with pytest.raises(OverflowInIntegrand):
            forelli_rudin(0.0, -600.0, 0.99)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            forelli_rudin(1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            forelli_rudin(0.0, 0.0, 1.0)


class TestGrowthClassification:
    def test_three_way_labels(self):
        bounded = classify_forelli_rudin(0.0, 0.5)
        assert bounded.label == "Bounded" and bounded.matches_theory

        log = classify_forelli_rudin(0.0, 0.0)
        assert log.label == "Log" and log.matches_theory
        assert "Power" not in log.residuals  # degenerate model dropped

        power = classify_forelli_rudin(0.0, -0.5)
        assert power.label == "Power" and power.matches_theory
        assert power.fitted_exponent == pytest.approx(-0.5, abs=0.1)

    def test_labels_with_boundary_factor(self):
        assert classify_forelli_rudin(0.5, 0.5).label == "Bounded"
        assert classify_forelli_rudin(0.5, -0.5).label == "Power"

    def test_ambiguous_on_coarse_grid(self):
        # a barely-negative exponent on interior radii cannot be told
        # apart from a bounded integral
        with pytest.raises(AmbiguousFit):
            classify_forelli_rudin(0.0, -0.01, samples=(0.3, 0.4, 0.5))

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            classify_forelli_rudin(0.0, 0.5, samples=(0.9,))


def lens_area(r):
    """Area of the intersection of the unit disc with a disc of radius r
    centered on the boundary circle (circle-circle lens, center gap 1)."""
    return (
        r * r * math.acos(r / 2.0)
        + math.acos(1.0 - r * r / 2.0)
        - 0.5 * r * math.sqrt(4.0 - r * r)
    )


class TestTents:
    def test_membership(self):
        whole = TentRegion(0j)
        assert whole.contains(0.999)
        assert not whole.contains(1.0)

        tent = TentRegion(0.5 + 0j)
        assert tent.contains(0.8)  # 0.2 from the boundary center
        assert not tent.contains(0.4)  # 0.6 away, radius is 0.5
        assert not tent.contains(0.5 - 0.5j)

    def test_membership_is_strict(self):
        tent = TentRegion(0.5 + 0j)
        assert not tent.contains(0.5)  # exactly on the tent circle

    def test_apex_must_be_interior(self):
        with pytest.raises(ValueError):
            TentRegion(1.0 + 0j)

    def test_area_matches_lens_formula(self):
        for mod in (0.1, 0.5, 0.9):
            rule = tent_rule(TentRegion(mod + 0j), 64)
            exact = lens_area(1.0 - mod)
            assert np.sum(rule.weights) == pytest.approx(exact, rel=0.03)

    def test_area_to_squared_height_bracket(self):
        for mod in (0.1, 0.5, 0.9, 0.99, 0.999):
            mass = np.sum(tent_rule(TentRegion(mod * 1j), 64).weights)
            ratio = mass / (1.0 - mod) ** 2
            assert 1.0 / 16.0 < ratio < 16.0

    def test_whole_disc_rule(self):
        assert np.sum(tent_rule(TentRegion(0j), 24).weights) == pytest.approx(
            math.pi, rel=1e-12
        )


class TestTentAverages:
    def test_constant_weight_is_exactly_one(self):
        for apex in (0j, 0.5 + 0j, 0.9j):
            avg = tent_average(WeightSpec.jacobian_power(0.0), 1.0, TentRegion(apex), 32)
            assert avg == 1.0

    def test_graded_average_exact(self):
        # the average of |w|^-1 over the disc is (2 pi) / pi = 2
        weight = WeightSpec.point_product([0], -1.0)
        avg = tent_average(weight, 1.0, TentRegion(0j), 48)
        assert avg == pytest.approx(2.0, rel=1e-12)

    def test_off_center_graded_average_matches_adaptive_quadrature(self):
        weight = WeightSpec.point_product([0.5], -1.0)
        avg = tent_average(weight, 1.0, TentRegion(0j), 48)
        integral, err = dblquad(
            lambda r, th: r / abs(0.5 - r * np.exp(1j * th)),
            0.0,
            2.0 * math.pi,
            0.0,
            1.0,
            epsabs=1e-10,
            epsrel=1e-10,
        )
        assert err < 1e-8
        assert avg == pytest.approx(integral / math.pi, rel=1e-6)


class TestWeightConstant:
    def test_constant_weight_exact_one(self):
        for p in (1.5, 2.7):
            assert bekolle_bonami_estimate(WeightSpec.jacobian_power(0.0), p) == 1.0

    def test_flat_point_weight_exact_one(self):
        # exponent 2 - p vanishes at p = 2: the weight is identically 1
        weight = WeightSpec.point_product([0.3], 0.0)
        assert bekolle_bonami_estimate(weight, 2.0) == 1.0

    def test_point_weight_values(self):
        # grid maxima for |a-w|^(2-p) at p = 3; magnitudes pinned loosely,
        # the a-independence bracket pinned tightly
        got = {}
        for a in (0, 0.9):
            weight = WeightSpec.point_product([a], -1.0)
            got[a] = bekolle_bonami_estimate(weight, 3.0)
        assert got[0] == pytest.approx(1.28, rel=0.1)
        assert got[0.9] == pytest.approx(1.64, rel=0.1)
        assert max(got.values()) / min(got.values()) < 4.0

    def test_divergent_weight_raises(self):
        with pytest.raises(NonIntegrable):
            bekolle_bonami_estimate(WeightSpec.point_product([0], -2.0), 3.0)
        with pytest.raises(NonIntegrable):
            bekolle_bonami_estimate(WeightSpec.point_product([0], -3.0), 2.5)

    def test_divergent_dual_weight_raises(self):
        # |w|^3 is integrable but its dual power at p = 1.5 is |w|^-6
        with pytest.raises(NonIntegrable):
            bekolle_bonami_estimate(WeightSpec.point_product([0], 3.0), 1.5)

    def test_exponent_precondition(self):
        with pytest.raises(ValueError):
            bekolle_bonami_estimate(WeightSpec.jacobian_power(0.0), 1.0)

    def test_apex_grid_shape(self, monkeypatch):
        monkeypatch.setattr(estimates, "APEX_LEVELS", 3)
        monkeypatch.setattr(estimates, "APEX_ANGLES", 8)
        grid = default_apex_grid()
        assert grid[0] == 0j
        assert len(grid) == 1 + 3 * 8
        mods = sorted({round(abs(a), 12) for a in grid})
        assert mods == [0.0, 0.5, 0.75, 0.875]

    def test_norm_bound_shape(self):
        assert bb_norm_bound(1.0, 2.0) == 1.0
        assert bb_norm_bound(4.0, 3.0) == 4.0
        assert bb_norm_bound(4.0, 1.5) == 16.0
        with pytest.raises(ValueError):
            bb_norm_bound(0.5, 2.0)
        with pytest.raises(ValueError):
            bb_norm_bound(2.0, 1.0)


class TestSectorRegions:
    def test_real_axis_points_are_inside(self):
        region = SectorRegion("U", 0.9)
        for z in (0.1, 0.5, 0.99):
            assert region_contains(region, z)

    def test_aperture_is_respected(self):
        # choose z with Arg(1 - zs) = pi/4, outside the pi/6 aperture
        s = 0.9
        z = (1.0 - 0.5 * np.exp(1j * math.pi / 4.0)) / s
        assert abs(z) < 1.0
        assert not region_contains(SectorRegion("U", s), z)

    def test_narrower_aperture_for_higher_dimension(self):
        s = 0.9
        z = (1.0 - 0.5 * np.exp(1j * math.pi / 8.0)) / s
        assert region_contains(SectorRegion("U", s), z)
        assert not region_contains(SectorRegion("Un", s, n=3), z)

    def test_annulus_bounds_are_strict(self):
        region = SectorRegion("Unj", 0.999, n=2, j=1)
        inner = region.inner_radius
        assert inner == pytest.approx(0.1, rel=1e-10)
        center = 1.0 / region.s
        assert not region_contains(region, center - inner * (1.0 - 1e-9))
        assert region_contains(region, center - inner * (1.0 + 1e-9))
        assert not region_contains(region, center - 1.0 * (1.0 + 1e-9))

    def test_unit_disc_membership_required(self):
        assert not region_contains(SectorRegion("U", 0.5), 1.2)

    def test_nested_regions(self):
        rng = np.random.default_rng(3)
        s = 0.999
        unj = SectorRegion("Unj", s, n=3, j=1)
        un = SectorRegion("Un", s, n=3)
        count = 0
        for _ in range(200):
            # the inner radius is 0.9 here, so sample around it
            rho = rng.uniform(0.8, 1.0)
            phi = rng.uniform(-math.pi / 12, math.pi / 12)
            z = 1.0 / s - rho * np.exp(1j * phi)
            if region_contains(unj, z):
                count += 1
                assert region_contains(un, z)
                assert abs(z) < 1.0
        assert count > 50

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SectorRegion("V", 0.5)
        with pytest.raises(ValueError):
            SectorRegion("Un", 0.5, n=1)
        with pytest.raises(ValueError):
            SectorRegion("Unj", 0.5, n=2, j=0)
        with pytest.raises(ValueError):
            SectorRegion("U", 1.0)


class TestSectorAnnulusIntegral:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_closed_form_matches_cubature(self, n, k):
        closed = sector_annulus_integral(0.999, 1, k, n, mode="closed")
        quad = sector_annulus_integral(0.999, 1, k, n, mode="quadrature")
        assert quad == pytest.approx(closed, rel=1e-9)

    def test_logarithmic_case_frozen_value(self):
        value = sector_annulus_integral(0.999, 1, 2, 2, mode="closed")
        formula = -math.pi / (3.0 * 0.999**2) * (2.0 * math.log(10.0) + math.log(1e-3))
        assert value == pytest.approx(formula, rel=1e-14)
        assert value == pytest.approx(2.41609123719, rel=1e-10)

    def test_empty_region_in_both_modes(self):
        for mode in ("closed", "quadrature"):
            with pytest.raises(EmptyRegion):
                sector_annulus_integral(0.99, 1, 3, 2, mode=mode)
            with pytest.raises(EmptyRegion):
                sector_annulus_integral(0.999, 2, 2, 3, mode=mode)

    def test_asymptotic_constant(self):
        # value * (1-s)^(k-2) approaches pi (5 n!)^(2j(2-k)) / (3 s^k (k-2) (n-1));
        # the normalized ratio is 1 - inner^2 and must rise toward 1
        n, j, k = 2, 1, 4
        ratios = []
        for s in (0.999, 0.9999, 0.99999):
            value = sector_annulus_integral(s, j, k, n, mode="closed")
            limit = math.pi * (5.0 * math.factorial(n)) ** (2 * j * (2 - k)) / (
                3.0 * s**k * (k - 2) * (n - 1)
            )
            ratios.append(value * (1.0 - s) ** (k - 2) / limit)
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] == pytest.approx(1.0, abs=1e-3)

    def test_cubature_nodes_lie_in_region(self):
        nodes, _, _ = _sector_cubature(0.999, 0.1, math.pi / 6.0, 4.0)
        region = SectorRegion("Unj", 0.999, n=2, j=1)
        assert all(region_contains(region, z) for z in nodes[::23])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sector_annulus_integral(0.999, 1, 1.5, 2)
        with pytest.raises(ValueError):
            sector_annulus_integral(0.999, 1, 2, 1)
        with pytest.raises(ValueError):
            sector_annulus_integral(0.999, 0, 2, 2)
        with pytest.raises(ValueError):
            sector_annulus_integral(1.0, 1, 2, 2)
        with pytest.raises(ValueError):
            sector_annulus_integral(0.999, 1, 2, 2, mode="montecarlo")
