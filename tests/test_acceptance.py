"""Acceptance suite: the ten headline checks of the toolkit, each at its
stated tolerance, printing one PASS/FAIL line per criterion (run with
``pytest -s`` to see the lines as they happen).

The deep-grid ratio runs are shared between criteria through
module-scoped fixtures; everything else runs standalone.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from bergproj.errors import EmptyRegion
from bergproj.estimates import (
    bekolle_bonami_estimate,
    classify_forelli_rudin,
    sector_annulus_integral,
)
from bergproj.experiments import (
    annihilation_check,
    blowup_experiment,
    boundedness_scan,
    identity_suite,
)
from bergproj.kernels import (
    KernelSpec,
    apply_operator,
    test_function_hs as hs_family,
)
from bergproj.quadrature import (
    WeightSpec,
    disc_rule,
    integrate_polydisc,
    singular_disc_rule,
)
from oracles import at_points, monte_carlo_polydisc, tildeT2_closed_form


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" -- {detail}" if detail else ""
    print(f"[criterion {number:2d}] {status}: {name}{tail}")


@pytest.fixture(scope="module")
def blowup_n2():
    return blowup_experiment(2, 4.0, s_grid=(0.9, 0.99, 0.999, 0.9999))


@pytest.fixture(scope="module")
def blowup_n3():
    return blowup_experiment(3, 3.0, s_grid=(0.9, 0.99, 0.999))


def test_criterion_1_exact_identity_suite():
    report = identity_suite(5, negative_controls=True)
    ok = report.passed and report.wall_time_s < 60.0
    report_line(
        1,
        "exact identity suite with negative controls",
        ok,
        f"{len(report.rows)} checks in {report.wall_time_s:.1f}s",
    )
    assert report.passed
    assert report.wall_time_s < 60.0


def test_criterion_2_annihilation_and_chain_independence():
    thresholds = {2: 1e-8, 3: 1e-6}
    worst = {}
    for n, bound in thresholds.items():
        report = annihilation_check(n)
        worst[n] = max(row["max_abs"] for row in report.rows if row["expected"] == "zero")

    # the chain operators must give l-independent values on alternating
    # input (their kernels differ by terms that cancel under theshuffle)
    rule = disc_rule(4, 8)
    rng = np.random.default_rng(3)
    z_samples = rng.uniform(0.0, 0.7, (20, 3)) * np.exp(
        2j * math.pi * rng.uniform(0.0, 1.0, (20, 3))
    )

    def alternating(pts):
        pts = np.asarray(pts)
        out = np.ones(pts.shape[0], dtype=complex)
        for j, k in combinations(range(3), 2):
            out *= pts[:, j] - pts[:, k]
        return out

    spread = 0.0
    for z in z_samples:
        values = [
            apply_operator(KernelSpec(family="pl", n=3, l=l), alternating, z, rule)
            for l in (1, 2, 3)
        ]
        spread = max(
            spread, max(abs(a - b) for a, b in combinations(values, 2))
        )

    ok = worst[2] < thresholds[2] and worst[3] < thresholds[3] and spread < 1e-7
    report_line(
        2,
        "alternating-input annihilation and chain independence",
        ok,
        f"max|T(f)| n=2: {worst[2]:.1e}, n=3: {worst[3]:.1e}; "
        f"chain spread {spread:.1e}",
    )
    assert worst[2] < thresholds[2]
    assert worst[3] < thresholds[3]
    assert spread < 1e-7


def test_criterion_3_closed_form_cross_check():
    pairs = [
        (s, z)
        for s in (0.5, 0.6, 0.7, 0.8, 0.9)
        for z in (np.array([0.3 + 0.1j, -0.25]), np.array([-0.15, 0.2 - 0.3j]))
    ]
    assert len(pairs) == 10
    spec = KernelSpec(family="tilde", n=2)
    worst = 0.0
    for s, z in pairs:
        rule = singular_disc_rule(s, 16, 32)

        def family(pts, s=s):
            return hs_family(2, s, pts)

        quad = apply_operator(spec, family, z, rule, symmetric_f=True)
        # the quadrature uses the unit-normalized family; the closed form
        # is stated for the area-normalized one, hence the pi
        closed = math.pi * tildeT2_closed_form(s, z)
        worst = max(worst, abs(quad - closed) / abs(closed))
    ok = worst < 1e-8
    report_line(
        3,
        "operator image matches the closed form at 10 (s, z) pairs",
        ok,
        f"worst relative difference {worst:.1e}",
    )
    assert worst < 1e-8


def test_criterion_4_norm_growth_exponents(blowup_n2, blowup_n3):
    # exponent over the pinned radii {0.9, 0.99, 0.999}
    cells = [c for c in blowup_n2.rows if c["s"] in (0.9, 0.99, 0.999)]
    x = [math.log(1.0 - c["s"]) for c in cells]
    y = [math.log(c["h_norm_power"]) for c in cells]
    exponent_n2 = float(np.polyfit(x, y, 1)[0])
    exponent_n3 = blowup_n3.fit["h_norm_exponent"]
    ok = abs(exponent_n2 - (-6.0)) <= 0.3 and abs(exponent_n3 - (-12.0)) <= 0.8
    report_line(
        4,
        "test-family norm growth exponents",
        ok,
        f"n=2: {exponent_n2:.2f} (target -6 +/- 0.3), "
        f"n=3: {exponent_n3:.2f} (target -12 +/- 0.8)",
    )
    assert exponent_n2 == pytest.approx(-6.0, abs=0.3)
    assert exponent_n3 == pytest.approx(-12.0, abs=0.8)


def test_criterion_5_blowup_at_critical_exponent(blowup_n2, blowup_n3):
    results = {}
    for name, report in (("n=2 p=4", blowup_n2), ("n=3 p=3", blowup_n3)):
        fit = report.fit
        results[name] = (
            fit["strictly_increasing"] and fit["beta"] > 0.0 and fit["r_squared"] > 0.9
        )
    ok = all(results.values())
    report_line(
        5,
        "ratio growth r(s) ~ -log(1-s) at the critical exponent",
        ok,
        f"n=2: beta={blowup_n2.fit['beta']:.3f} R2={blowup_n2.fit['r_squared']:.3f}; "
        f"n=3: beta={blowup_n3.fit['beta']:.3f} R2={blowup_n3.fit['r_squared']:.3f}",
    )
    for name, report in (("n=2", blowup_n2), ("n=3", blowup_n3)):
        assert report.fit["strictly_increasing"], name
        assert report.fit["beta"] > 0.0, name
        assert report.fit["r_squared"] > 0.9, name


def test_criterion_6_flat_ratio_inside_regular_range():
    report = boundedness_scan(2, [1.5, 2.0, 3.0, 3.9, 4.0])
    by_p = {row["p"]: row for row in report.rows}
    interior = {p: by_p[p]["ratio_max_over_min"] for p in (1.5, 2.0, 3.0, 3.9)}
    endpoint_spread = by_p[4.0]["ratio_max_over_min"]
    ok = all(v < 4.0 for v in interior.values()) and endpoint_spread >= 4.0
    report_line(
        6,
        "flat ratio trend strictly inside the regular range",
        ok,
        "spreads "
        + ", ".join(f"p={p}: {v:.2f}" for p, v in interior.items())
        + f"; endpoint p=4: {endpoint_spread:.2f}",
    )
    for p, v in interior.items():
        assert v < 4.0, f"p={p}"
    assert endpoint_spread >= 4.0


def test_criterion_7_growth_integral_classification():
    outcomes = {s: classify_forelli_rudin(0.0, s) for s in (0.5, 0.0, -0.5)}
    labels_ok = (
        outcomes[0.5].label == "Bounded"
        and outcomes[0.0].label == "Log"
        and outcomes[-0.5].label == "Power"
    )
    theory_ok = all(o.matches_theory for o in outcomes.values())
    exponent = outcomes[-0.5].fitted_exponent
    exponent_ok = abs(exponent - (-0.5)) <= 0.1
    ok = labels_ok and theory_ok and exponent_ok
    report_line(
        7,
        "three-way growth-integral classification",
        ok,
        f"labels {[o.label for o in outcomes.values()]}, "
        f"power exponent {exponent:.3f} (target -0.5 +/- 0.1)",
    )
    assert labels_ok
    assert theory_ok
    assert exponent_ok


def test_criterion_8_weight_constants():
    apexes = (0.0, 0.5, 0.9, 0.99j)
    p_grid = (1.5, 2.0, 3.0, 3.5)
    ratios = {}
    for p in p_grid:
        estimates = [
            bekolle_bonami_estimate(WeightSpec.point_product([a], 2.0 - p), p)
            for a in apexes
        ]
        ratios[p] = max(estimates) / min(estimates)
    independence_ok = all(r < 4.0 for r in ratios.values())

    toward_upper = [
        bekolle_bonami_estimate(WeightSpec.point_product([0.0], 2.0 - p), p)
        for p in (3.8, 3.9, 3.95)
    ]
    monotone_ok = toward_upper[0] < toward_upper[1] < toward_upper[2]

    two_point = [0.3, 0.3 + 0.02j]
    curve = {
        p: bekolle_bonami_estimate(WeightSpec.point_product(two_point, 2.0 - p), p)
        for p in (1.6, 1.75, 2.0, 2.5, 2.9)
    }
    bounded_ok = all(np.isfinite(v) for v in curve.values())
    endpoints_ok = (
        curve[1.6] > curve[1.75] > curve[2.0] < curve[2.5] < curve[2.9]
    )

    ok = independence_ok and monotone_ok and bounded_ok and endpoints_ok
    report_line(
        8,
        "weight-constant estimates",
        ok,
        f"reference-point spread max {max(ratios.values()):.2f} (< 4); "
        f"monotone toward the endpoint: {monotone_ok}; "
        f"two-point curve rises toward both endpoints: {endpoints_ok}",
    )
    assert independence_ok
    assert monotone_ok
    assert bounded_ok
    assert endpoints_ok


def test_criterion_9_sector_annulus_integrals():
    worst = 0.0
    nonempty = []
    consistent_empty = True
    for n in (2, 3):
        for j in (1, 2):
            for k in (2, 3, 4):
                for s in (0.99, 0.999):
                    values = {}
                    for mode in ("closed", "quadrature"):
                        try:
                            values[mode] = sector_annulus_integral(s, j, k, n, mode=mode)
                        except EmptyRegion:
                            values[mode] = None
                    if (values["closed"] is None) != (values["quadrature"] is None):
                        consistent_empty = False
                    elif values["closed"] is not None:
                        nonempty.append((n, j, k, s))
                        rel = abs(values["closed"] - values["quadrature"]) / abs(
                            values["closed"]
                        )
                        worst = max(worst, rel)
    ok = consistent_empty and worst < 1e-6 and len(nonempty) > 0
    report_line(
        9,
        "sector-annulus closed forms against cubature",
        ok,
        f"{len(nonempty)} nonempty tuples agree to {worst:.1e}; "
        f"empty tuples consistent in both modes: {consistent_empty}",
    )
    assert consistent_empty
    assert worst < 1e-6
    assert nonempty  # the comparison must not be vacuous


def test_criterion_10_quadrature_soundness(blowup_n2, blowup_n3):
    deltas = [
        cell[key]
        for report in (blowup_n2, blowup_n3)
        for cell in report.rows
        for key in ("h_delta", "image_delta")
    ]
    refinement_ok = max(deltas) < 0.05

    s = 0.7
    weight = WeightSpec.jacobian_power(2.0)

    def integrand(pts):
        return np.abs(hs_family(2, s, pts)) ** 4 * weight.evaluate(pts)

    rule = singular_disc_rule(s, 10, 20)
    quad = integrate_polydisc(at_points(integrand, rule), rule, 2, symmetric=True).real
    mc, stderr = monte_carlo_polydisc(integrand, 200_000, seed=12, n=2)
    mc_sigma = abs(mc.real - quad) / stderr
    mc_ok = mc_sigma < 3.0

    rule = disc_rule(32, 64)
    spec = KernelSpec(family="bergman_polydisc", n=2)
    worst_reproduction = 0.0
    for a, b in ((0, 0), (1, 0), (2, 1), (3, 3)):
        def monomial(pts, a=a, b=b):
            return pts[:, 0] ** a * pts[:, 1] ** b

        for z in (np.array([0.3 + 0.2j, -0.5]), np.array([0.6, 0.55j])):
            got = apply_operator(spec, monomial, z, rule)
            worst_reproduction = max(
                worst_reproduction, abs(got - z[0] ** a * z[1] ** b)
            )
    reproduction_ok = worst_reproduction < 1e-10

    ok = refinement_ok and mc_ok and reproduction_ok
    report_line(
        10,
        "quadrature soundness",
        ok,
        f"max refinement delta {max(deltas):.1e}; Monte Carlo at "
        f"{mc_sigma:.2f} standard errors; monomial reproduction error "
        f"{worst_reproduction:.1e}",
    )
    assert refinement_ok
    assert mc_ok
    assert reproduction_ok
