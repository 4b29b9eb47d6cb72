"""Tests for the experiment drivers and their JSON reports.

Heavy deep-grid runs live in the acceptance suite; here the drivers run
on shallow parameter grids, which exercises every code path at a small
fraction of the cost.
"""

import csv
import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from bergproj.errors import QuadratureNotConverged
from bergproj.estimates import CLASSIFICATION_SAMPLES
from bergproj.experiments import (
    DEFAULT_ANNIHILATION_RULE_ORDERS,
    REPORT_SCHEMA,
    SCHEMA_VERSION,
    _alternating_monomial,
    _fit_line,
    _leaves_weight_class,
    annihilation_check,
    blowup_experiment,
    boundedness_scan,
    default_annihilation_samples,
    growth_class_check,
    identity_suite,
    weight_class_check,
    write_ratio_csv,
)
from bergproj.kernels import KernelSpec
from bergproj.quadrature import disc_rule, refine
from bergproj.symmetrization import jacobian_phi
import oracles


def check_schema(report):
    jsonschema.validate(report.to_dict(), REPORT_SCHEMA)


def strip_wall_time(report):
    payload = report.to_dict()
    payload.pop("wall_time_s")
    return payload


@pytest.fixture(scope="module")
def shallow_blowup():
    return blowup_experiment(2, 4.0, s_grid=(0.7, 0.9))


@pytest.fixture(scope="module")
def annihilation_report():
    return annihilation_check(2)


class TestIdentitySuite:
    def test_all_pass_through_n3(self):
        report = identity_suite(3)
        check_schema(report)
        assert report.passed
        assert report.schema_version == SCHEMA_VERSION
        # per-verifier index ranges capped at 3: 2+2+3+2+1
        assert len(report.rows) == 10
        assert all(row["outcome"] and row["passed"] for row in report.rows)

    def test_negative_controls_must_fail(self):
        report = identity_suite(3, negative_controls=True)
        assert report.passed
        assert len(report.rows) == 20
        mutated = [row for row in report.rows if row["mutated"]]
        assert len(mutated) == 10
        assert all(not row["outcome"] for row in mutated)
        assert all(row["passed"] for row in mutated)

    def test_term_counts_are_logged(self):
        report = identity_suite(4)
        decomposition = [
            row for row in report.rows
            if row["verifier"] == "kernel_decomposition" and row["index"] == 4
        ]
        assert len(decomposition) == 1
        details = decomposition[0]["details"]
        assert details["t1_terms"] > 0
        assert details["denominator_terms"] > details["t1_terms"]

    def test_full_suite_is_fast(self):
        report = identity_suite(5, negative_controls=True)
        assert report.passed
        assert report.wall_time_s < 60.0

    def test_max_n_bounds(self):
        with pytest.raises(ValueError):
            identity_suite(1)
        with pytest.raises(ValueError):
            identity_suite(6)


class TestBlowupExperiment:
    def test_report_shape(self, shallow_blowup):
        report = shallow_blowup
        check_schema(report)
        assert report.experiment == "blowup"
        assert report.n == 2 and report.p == 4.0
        assert [cell["s"] for cell in report.rows] == [0.7, 0.9]
        for cell in report.rows:
            assert cell["h_delta"] < 0.05 and cell["image_delta"] < 0.05
            assert cell["ratio"] == pytest.approx(
                cell["image_norm_power"] / cell["h_norm_power"]
            )
            assert cell["neg_log_one_minus_s"] == pytest.approx(
                -math.log(1.0 - cell["s"])
            )

    def test_image_constant_is_one_for_two_variables(self, shallow_blowup):
        # the operator image of the test family equals its closed shape
        # exactly in two variables; quadrature must recover the factor 1
        constant = shallow_blowup.fit["image_constant"]
        assert constant["re"] == pytest.approx(1.0, abs=1e-6)
        assert constant["im"] == pytest.approx(0.0, abs=1e-6)

    def test_ratio_grows(self, shallow_blowup):
        assert shallow_blowup.passed
        assert shallow_blowup.fit["strictly_increasing"]
        assert shallow_blowup.fit["beta"] > 0

    def test_fit_has_two_point_degeneracy_fields(self, shallow_blowup):
        # with two grid points the line fit is exact: no stderr, R^2 = 1
        assert shallow_blowup.fit["beta_stderr"] is None
        assert shallow_blowup.fit["r_squared"] == pytest.approx(1.0)

    def test_reproducible_modulo_wall_time(self, shallow_blowup):
        again = blowup_experiment(2, 4.0, s_grid=(0.7, 0.9))
        assert strip_wall_time(again) == strip_wall_time(shallow_blowup)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            blowup_experiment(4, 4.0)
        with pytest.raises(ValueError):
            blowup_experiment(2, 1.0)
        with pytest.raises(ValueError):
            blowup_experiment(2, 4.0, s_grid=(0.9, 0.7))
        with pytest.raises(ValueError):
            blowup_experiment(2, 4.0, s_grid=(0.7, 0.7))
        with pytest.raises(ValueError):
            blowup_experiment(2, 4.0, s_grid=(0.7, 1.0))
        # one point fits a line with any slope; least squares reports a
        # positive one, so a one-point grid would pass on no evidence
        with pytest.raises(ValueError):
            blowup_experiment(2, 4.0, s_grid=(0.99999999,))

    def test_only_a_missing_grid_takes_the_default(self, shallow_blowup):
        # an empty grid is refused rather than replaced by the default
        # one, and a numpy array is a grid like any other sequence
        with pytest.raises(ValueError, match="at least two points"):
            blowup_experiment(2, 4.0, s_grid=[])
        again = blowup_experiment(2, 4.0, s_grid=np.array([0.7, 0.9]))
        assert strip_wall_time(again) == strip_wall_time(shallow_blowup)

    def test_non_convergence_aborts(self, monkeypatch):
        import bergproj.experiments as experiments

        monkeypatch.setattr(experiments, "MAX_NORM_DELTA", 1e-15)
        with pytest.raises(QuadratureNotConverged):
            blowup_experiment(2, 4.0, s_grid=(0.7, 0.9))


class TestBoundednessScan:
    def test_flat_inside_growing_at_endpoint(self):
        report = boundedness_scan(2, [2.0, 4.0], s_grid=(0.7, 0.9))
        check_schema(report)
        assert report.passed
        by_p = {row["p"]: row for row in report.rows}
        assert by_p[2.0]["verdict"] == "flat"
        assert not by_p[2.0]["at_or_beyond_endpoint"]
        assert by_p[4.0]["verdict"] == "growing"
        assert by_p[4.0]["at_or_beyond_endpoint"]
        assert all(row["consistent"] for row in report.rows)

    def test_lower_endpoint_expected_flat_but_marked_unbounded(self):
        # the ratio diagnostic cannot witness the dual-sided failure at
        # the lower endpoint: the trend stays flat there by design, and
        # the row records that theory does not grant boundedness
        report = boundedness_scan(2, [4.0 / 3.0], s_grid=(0.7, 0.9))
        row = report.rows[0]
        assert row["expected"] == "flat"
        assert row["theory_bounded"] is False
        assert row["at_or_beyond_endpoint"] is True
        assert report.passed

    def test_preconditions(self):
        with pytest.raises(ValueError):
            boundedness_scan(2, [])
        with pytest.raises(ValueError):
            boundedness_scan(2, [2.0], s_grid=(0.9,))
        with pytest.raises(ValueError):
            boundedness_scan(2, [0.9])

    def test_only_a_missing_grid_takes_the_default(self):
        with pytest.raises(ValueError, match="at least two points"):
            boundedness_scan(2, [2.0], s_grid=[])
        report = boundedness_scan(2, [2.0], s_grid=np.array([0.7, 0.9]))
        assert report.s_grid == [0.7, 0.9] and report.passed


class TestAnnihilationCheck:
    def test_alternating_inputs_annihilated(self, annihilation_report):
        report = annihilation_report
        check_schema(report)
        assert report.passed
        by_name = {row["function"]: row for row in report.rows}
        assert by_name["vandermonde"]["max_abs"] < 1e-8
        assert by_name["alternating_monomial"]["max_abs"] < 1e-8
        assert by_name["first_coordinate_control"]["max_abs"] > 1e-3

    def test_rows_carry_thresholds(self, annihilation_report):
        for row in annihilation_report.rows:
            assert row["threshold"] > 0
            assert row["passed"]

    @pytest.mark.parametrize("n, rule", [(2, None), (3, disc_rule(2, 4))])
    def test_rows_equal_per_point_per_function_calls(self, n, rule):
        # the two batched operator calls against one oracle call per
        # (sample point, function, rule)
        z_samples = default_annihilation_samples(n, count=4, seed=5)
        report = annihilation_check(n, z_samples=z_samples, rule=rule)
        base = rule if rule is not None else disc_rule(*DEFAULT_ANNIHILATION_RULE_ORDERS[n])
        functions = [
            jacobian_phi,
            _alternating_monomial({2: (2, 0), 3: (3, 1, 0)}[n]),
            lambda pts: pts[:, 0],
        ]
        spec = KernelSpec("t1", n)
        scale = report.rows[2]["max_abs"]
        for row, f in zip(report.rows, functions):
            coarse, fine = (
                np.array([oracles.apply_operator(spec, f, z, r, n) for z in z_samples])
                for r in (base, refine(base, 1.5, 1.5))
            )
            assert abs(row["max_abs"] - np.max(np.abs(fine))) <= 1e-13 * scale
            assert abs(row["delta"] - np.max(np.abs(fine - coarse))) <= 1e-13 * scale

    def test_default_samples(self):
        samples = default_annihilation_samples(3)
        assert samples.shape == (20, 3)
        assert np.max(np.abs(samples)) < 0.75
        # seeded: identical across calls
        assert np.array_equal(samples, default_annihilation_samples(3))

    def test_dimension_precondition(self):
        with pytest.raises(ValueError):
            annihilation_check(4)


class TestGrowthClassCheck:
    def test_report_of_the_default_grid(self):
        report = growth_class_check(0.0, -0.5)
        check_schema(report)
        assert report.passed
        assert report.fit["label"] == "Power"
        assert report.fit["matches_theory"] is True
        assert set(report.fit["residuals"]) == {"Bounded", "Log", "Power"}
        assert [row["r"] for row in report.rows] == list(CLASSIFICATION_SAMPLES)
        assert report.quadrature["eps"] == 0.0
        assert report.quadrature["s_exp"] == -0.5

    def test_ambiguous_fit_is_a_failed_report(self):
        report = growth_class_check(0.0, -0.01, samples=(0.3, 0.4, 0.5))
        check_schema(report)
        assert report.passed is False
        assert report.fit is None
        assert report.rows == []
        assert report.notes[0].startswith("ambiguous: growth models are not separated")


#: the weight-constant groups of the benchmark reference, by reference
#: points: [(p, expected record)] in increasing p
_REFERENCE = Path(__file__).resolve().parent.parent / "bergbench" / "reference.json"


def reference_weight_tables():
    tables = {}
    for key, group in json.loads(_REFERENCE.read_text())["weights"].items():
        if key.startswith("bb points="):
            label, p = key[len("bb points="):].split(" p=")
            points = tuple(complex(tok) for tok in label.split(","))
            tables.setdefault(points, []).append((float(p), group["estimate"]))
    return {points: sorted(rows) for points, rows in tables.items()}


class TestWeightClassCheck:
    @pytest.mark.parametrize("points, rows", sorted(reference_weight_tables().items(), key=str))
    def test_reference_tables(self, points, rows):
        weight = "up" if len(points) == 1 else "vp"
        report = weight_class_check(weight, [p for p, _ in rows], points)
        check_schema(report)
        assert report.passed
        assert report.quadrature["points"] == [[a.real, a.imag] for a in points]
        for row, (p, expected) in zip(report.rows, rows):
            assert row["p"] == p
            divergent = expected["verdicts"]["outcome"] == "NonIntegrable"
            assert row["divergent"] is row["expected_divergent"] is divergent
            if divergent:
                assert row["estimate"] is None and row["reason"]
            else:
                # bit for bit
                assert row["estimate"] == expected["numbers"]["estimate"]
                assert row["norm_bound"] == expected["numbers"]["norm_bound"]

    def test_both_tables_are_present(self):
        tables = reference_weight_tables()
        assert len(tables) == 2
        one_point = [p for p, _ in tables[(0.5 + 0j,)]]
        assert (one_point[0], one_point[-1]) == (1.3, 4.0)

    def test_coincident_points(self):
        p_list = [1.5, 1.6, 2.0, 2.9, 3.0, 3.5]
        report = weight_class_check("vp", p_list, [0.3, 0.3])
        assert report.passed
        assert [row["divergent"] for row in report.rows] == [
            True, False, False, False, True, True
        ]

    def test_inputs_refused(self):
        with pytest.raises(ValueError, match="non-empty"):
            weight_class_check("up", [], [0.5])
        with pytest.raises(ValueError, match="exceed 1"):
            weight_class_check("up", [2.0, 1.0], [0.5])
        with pytest.raises(ValueError, match="one reference point"):
            weight_class_check("up", [2.0], [0.3, 0.4])
        with pytest.raises(ValueError, match="unknown weight family"):
            weight_class_check("wp", [2.0], [0.3])


class TestWeightClassRange:
    """The exponent count: c coincident points of the closed disc make the
    weight leave the class where c(p-2) >= 2 or c(2-p) >= 2(p-1)."""

    @pytest.mark.parametrize(
        "points, p, leaves",
        [
            ((0.5,), 1.3, True),
            ((0.5,), 4.0 / 3.0, True),
            ((0.5,), 1.34, False),
            ((0.5,), 3.99, False),
            ((0.5,), 4.0, True),
            ((0.5,), 4.5, True),
            ((-0.2j,), 1.2, True),
            ((1.5,), 1.2, False),
            ((1.5,), 4.5, False),
            ((0.3, 0.3), 1.5, True),
            ((0.3, 0.3), 1.51, False),
            ((0.3, 0.3), 2.99, False),
            ((0.3, 0.3), 3.0, True),
            ((0.3, 0.3 + 0.02j), 2.9, False),
            ((0.3, 0.3 + 0.02j, 0.3), 3.0, True),
            ((1.5, 1.5, 1.5), 3.5, False),
            # on the circle, and within the polar rule's 1e-9 of it
            ((1.0,), 1.3, True),
            ((1.0,), 3.9, False),
            ((1.0 + 5e-10,), 4.0, True),
            ((1.0 + 2e-9,), 4.0, False),
        ],
    )
    def test_range(self, points, p, leaves):
        assert _leaves_weight_class([complex(a) for a in points], p) is leaves


class TestHelpers:
    def test_fit_line_recovers_exact_line(self):
        x = [0.0, 1.0, 2.0, 3.0]
        y = [2.0 + 3.0 * t for t in x]
        fit = _fit_line(x, y)
        assert fit["alpha"] == pytest.approx(2.0)
        assert fit["beta"] == pytest.approx(3.0)
        assert fit["r_squared"] == pytest.approx(1.0)
        assert fit["beta_stderr"] == pytest.approx(0.0, abs=1e-12)
        assert all(abs(r) < 1e-12 for r in fit["residuals"])

    def test_fit_line_stderr_none_for_two_points(self):
        assert _fit_line([0.0, 1.0], [1.0, 2.0])["beta_stderr"] is None

    def test_alternating_monomial_two_variables(self):
        f = _alternating_monomial((2, 0))
        pts = np.array([[0.3 + 0.1j, -0.2j], [0.5, 0.25]])
        expected = pts[:, 0] ** 2 - pts[:, 1] ** 2
        assert np.allclose(f(pts), expected)

    def test_alternating_monomial_sign_flip(self):
        f = _alternating_monomial((3, 1, 0))
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.5, 0.5, (4, 3)) + 1j * rng.uniform(-0.5, 0.5, (4, 3))
        swapped = pts[:, [1, 0, 2]]
        assert np.allclose(f(swapped), -f(pts))

    def test_csv_round_trip(self, shallow_blowup, tmp_path):
        path = tmp_path / "ratios.csv"
        write_ratio_csv(shallow_blowup, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "s",
            "h_norm_power",
            "image_norm_power",
            "ratio",
            "neg_log_one_minus_s",
        ]
        assert len(rows) == 3
        assert float(rows[1][3]) == pytest.approx(shallow_blowup.rows[0]["ratio"])
