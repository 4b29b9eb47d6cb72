"""End-to-end tests of the command line interface: flags, file outputs,
and the exit-code contract (0 pass, 2 failed verification or invalid
input, 3 quadrature not converged, 4 any other package error)."""

import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest

import bergproj.cli as cli
import bergproj.estimates as estimates
import bergproj.experiments as experiments
import bergproj.quadrature as quadrature
from bergproj.cli import build_parser, main
from bergproj.estimates import classify_forelli_rudin, forelli_rudin
from bergproj.errors import NonIntegrable, OverflowInIntegrand, PoleProximity
from bergproj.experiments import REPORT_SCHEMA


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


class TestIdentitiesCommand:
    def test_writes_schema_valid_report(self, tmp_path):
        out = tmp_path / "ids.json"
        code = main(["identities", "--max-n", "2", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["experiment"] == "identities"
        assert payload["passed"] is True

    def test_negative_controls_flag(self, tmp_path, capsys):
        out = tmp_path / "ids.json"
        code = main(
            ["identities", "--max-n", "2", "--negative-controls", "--out", str(out)]
        )
        assert code == 0
        # ab, decomposition, vandermonde at n=2 plus expansion at m=1,2;
        # each entry twice (straight and mutated)
        assert len(read_json(out)["rows"]) == 10
        assert "0 failed" in capsys.readouterr().out


class TestBlowupCommand:
    def test_json_and_csv_outputs(self, tmp_path):
        out = tmp_path / "blow.json"
        plot = tmp_path / "blow.csv"
        code = main(
            ["blowup", "--n", "2", "--p", "4", "--s", "0.7,0.9",
             "--out", str(out), "--csv", str(plot)]
        )
        assert code == 0
        payload = read_json(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["s_grid"] == [0.7, 0.9]
        with open(plot, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 3 and len(rows[1]) == 5

    def test_explicit_rule_orders(self, tmp_path):
        out = tmp_path / "blow.json"
        code = main(
            ["blowup", "--n", "2", "--p", "4", "--s", "0.7,0.9",
             "--radial", "6", "--angular", "12", "--out", str(out)]
        )
        assert code == 0
        assert read_json(out)["quadrature"]["radial_order"] == 6

    def test_invalid_exponent_exits_2(self):
        assert main(["blowup", "--n", "2", "--p", "0.5", "--s", "0.7,0.9"]) == 2

    def test_half_specified_rule_exits_2(self):
        assert main(
            ["blowup", "--n", "2", "--p", "4", "--s", "0.7,0.9", "--radial", "6"]
        ) == 2

    def test_non_convergence_exits_3(self, monkeypatch):
        monkeypatch.setattr(experiments, "MAX_NORM_DELTA", 1e-15)
        code = main(["blowup", "--n", "2", "--p", "4", "--s", "0.7,0.9"])
        assert code == 3

    def test_one_point_grid_exits_2(self, capsys):
        code = main(["blowup", "--n", "2", "--p", "4", "--s", "0.99999999"])
        assert code == 2
        assert "at least two points" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [OverflowInIntegrand, PoleProximity])
    def test_other_package_errors_exit_4(self, monkeypatch, capsys, error):
        def driver(*args, **kwargs):
            raise error("raised by the driver")

        monkeypatch.setattr(cli, "blowup_experiment", driver)
        code = main(["blowup", "--n", "2", "--p", "4", "--s", "0.7,0.9"])
        assert code == 4
        assert f"{error.__name__}: raised by the driver" in capsys.readouterr().err


class TestScanCommand:
    def test_consistent_scan_passes(self, tmp_path):
        out = tmp_path / "scan.json"
        plot = tmp_path / "scan.csv"
        code = main(
            ["scan", "--n", "2", "--p-list", "2,4", "--s", "0.7,0.9",
             "--out", str(out), "--csv", str(plot)]
        )
        assert code == 0
        payload = read_json(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert [row["verdict"] for row in payload["rows"]] == ["flat", "growing"]
        with open(plot, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 2 * 2  # header + (p, s) cells


class TestForelliRudinCommand:
    def test_power_case(self, tmp_path, capsys):
        out = tmp_path / "fr.json"
        code = main(
            ["forelli-rudin", "--eps", "0", "--s-exp", "-0.5", "--out", str(out)]
        )
        assert code == 0
        assert "Power" in capsys.readouterr().out
        payload = read_json(out)
        assert payload["fit"]["label"] == "Power"
        assert payload["fit"]["matches_theory"] is True

    def test_ambiguous_fit_exits_2(self, capsys):
        code = main(
            ["forelli-rudin", "--eps", "0", "--s-exp", "-0.01",
             "--grid", "0.3,0.4,0.5"]
        )
        assert code == 2
        assert "ambiguous" in capsys.readouterr().out

    def test_values_recorded_for_explicit_grid(self, tmp_path):
        out = tmp_path / "fr.json"
        code = main(
            ["forelli-rudin", "--eps", "0", "--s-exp", "0.5",
             "--grid", "0.9,0.99,0.999,0.9999", "--out", str(out)]
        )
        assert code == 0
        payload = read_json(out)
        assert len(payload["rows"]) == 4
        assert payload["rows"][0]["value"] > 0

    @pytest.mark.parametrize("eps", [0.8, 0.9, 0.985])
    def test_strong_boundary_factor_ends_in_a_verdict(self, eps, capsys):
        # the graded rule's outermost radii round to 1; its exact boundary
        # distances keep the integrand finite there
        code = main(["forelli-rudin", "--eps", str(eps), "--s-exp", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "growth class: Bounded" in out
        assert "matches the three-case theory: True" in out

    def test_underflowing_growth_rule_exits_2(self, capsys):
        # the grading that eps = 0.99 needs makes the rule's weights underflow
        code = main(["forelli-rudin", "--eps", "0.99", "--s-exp", "0.5"])
        assert code == 2
        assert "eps = 0.99" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0.5,0.5", "-0.5,0.5"])
    def test_repeated_radius_exits_2(self, grid, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["forelli-rudin", "--eps", "0", "--s-exp", "0", f"--grid={grid}"])
        assert code == 2
        assert "two distinct sample radii" in capsys.readouterr().err

    def test_values_are_the_classification_samples(self, tmp_path, monkeypatch):
        grid = (0.9, 0.99, 0.999, 0.9999)
        outcome = classify_forelli_rudin(0.0, 0.5, samples=grid)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return forelli_rudin(*args, **kwargs)

        monkeypatch.setattr(estimates, "forelli_rudin", counting)
        monkeypatch.setattr(cli, "forelli_rudin", counting)
        out = tmp_path / "fr.json"
        code = main(
            ["forelli-rudin", "--eps", "0", "--s-exp", "0.5",
             "--grid", ",".join(map(str, grid)), "--out", str(out)]
        )
        assert code == 0
        values = read_json(out)["rows"]
        assert [row["r"] for row in values] == list(grid)
        assert [row["value"] for row in values] == list(outcome.values)
        assert len(calls) == len(grid)


class TestBekolleBonamiCommand:
    def test_table_with_divergent_row(self, tmp_path, capsys):
        out = tmp_path / "bb.json"
        code = main(
            ["bekolle-bonami", "--weight", "up", "--p-list", "2,4.5",
             "--points", "0.5", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "divergent" in printed
        payload = read_json(out)
        by_p = {row["p"]: row for row in payload["rows"]}
        assert by_p[2.0]["estimate"] == 1.0
        assert by_p[2.0]["norm_bound"] == 1.0
        assert by_p[4.5]["divergent"] is True

    def test_up_weight_takes_one_point(self, capsys):
        code = main(
            ["bekolle-bonami", "--weight", "up", "--p-list", "2",
             "--points", "0.3,0.3+0.02j"]
        )
        assert code == 2
        assert "one reference point" in capsys.readouterr().err

    def test_two_point_weight(self, capsys):
        code = main(
            ["bekolle-bonami", "--weight", "vp", "--p-list", "2",
             "--points", "0.3,0.3+0.02j"]
        )
        assert code == 0
        assert "1.0000" in capsys.readouterr().out

    def test_invalid_rule_exits_4(self, monkeypatch, capsys):
        # a radial rule stretched past the circle puts disc nodes outside it
        stretch = quadrature._gauss_legendre
        monkeypatch.setattr(
            quadrature, "_gauss_legendre", lambda order, lo, hi: stretch(order, lo, 1.5 * hi)
        )
        monkeypatch.setattr(estimates, "_TABLE_RULES", {})
        code = main(["bekolle-bonami", "--weight", "up", "--p-list", "2", "--points", "0.5"])
        assert code == 4
        err = capsys.readouterr().err
        assert "InvalidRule: disc rule has a node outside the closed unit disc" in err

    def test_rule_of_no_nodes_exits_4(self, monkeypatch, capsys):
        # about a centre this far outside the disc the graded polar rule
        # keeps no node; an average over it would divide by a mass of zero.
        # Such a point is refused first, so the refusal is lifted here to
        # reach the rule's own check
        monkeypatch.setattr(estimates, "FAR_WEIGHT_POINT", math.inf)
        monkeypatch.setattr(estimates, "_TABLE_RULES", {})
        code = main(["bekolle-bonami", "--weight", "up", "--p-list", "3", "--points", "1e16"])
        assert code == 4
        assert "InvalidRule: polar rule has no nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("point", ["1e8", "1e16", "1e308", "1e308+1e308j"])
    def test_far_weight_point_exits_2(self, point, monkeypatch, capsys):
        # refused before any rule about it is built: no rule error, no
        # numpy warning
        monkeypatch.setattr(estimates, "_TABLE_RULES", {})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["bekolle-bonami", "--weight", "up", "--p-list", "3", "--points", point])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: weight point {complex(point)} lies farther than 6.711e+07")
        assert len(err.splitlines()) == 1
        assert estimates._TABLE_RULES == {}

    def test_far_point_refused_at_every_p_but_2(self, monkeypatch, capsys):
        # below p = 2 the graded rule is the dual power's; at p = 2 the
        # weight is 1 and no rule is built about the point
        monkeypatch.setattr(estimates, "_TABLE_RULES", {})
        assert main(["bekolle-bonami", "--weight", "up", "--p-list", "1.5", "--points", "1e8"]) == 2
        assert "weight point (100000000+0j)" in capsys.readouterr().err
        assert main(["bekolle-bonami", "--weight", "up", "--p-list", "2", "--points", "1e8"]) == 0

    def test_point_within_the_bound_keeps_its_estimate(self, monkeypatch, tmp_path):
        monkeypatch.setattr(estimates, "_TABLE_RULES", {})
        out = tmp_path / "far.json"
        code = main(["bekolle-bonami", "--weight", "up", "--p-list", "3", "--points", "1e5",
                     "--out", str(out)])
        assert code == 0
        # the estimate this point gave before far points were refused
        assert read_json(out)["rows"][0]["estimate"] == 1.0000000000185192


class TestWeightTablesInOneProcess:
    """Tables run one after another in one process, as
    scripts/run_weight_estimates.py runs them, report what each reports
    in a fresh process: the rules one table keeps never reach another."""

    RUNS = (
        ("up", "1.5,3,4", "0.5"),
        ("vp", "1.6,2.5", "0.3,0.3+0.02j"),
        ("up", "1.5,3,4", "0.5"),
    )

    @staticmethod
    def argv(weight, p_list, points, out):
        return ["bekolle-bonami", "--weight", weight, "--p-list", p_list,
                "--points", points, "--out", str(out)]

    @staticmethod
    def report(path):
        payload = read_json(path)
        payload.pop("wall_time_s")
        return payload

    def test_reports_equal_to_fresh_processes(self, tmp_path, capsys):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        fresh = {}
        for run in sorted(set(self.RUNS)):
            out = tmp_path / f"fresh_{run[0]}.json"
            subprocess.run(
                [sys.executable, "-m", "bergproj.cli", *self.argv(*run, out)],
                capture_output=True, check=True, env=env,
            )
            fresh[run] = self.report(out)
        for i, run in enumerate(self.RUNS):
            out = tmp_path / f"run{i}.json"
            assert main(self.argv(*run, out)) == 0
            assert self.report(out) == fresh[run]
        assert fresh[self.RUNS[0]]["rows"][-1]["divergent"] is True


class TestAnnihilationCommand:
    def test_passes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "ann.json"
        code = main(["annihilation", "--n", "2", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "vandermonde" in printed
        payload = read_json(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["passed"] is True


class TestWeightClassVerdict:
    def test_one_point_table_with_divergent_ends_passes(self, tmp_path, capsys):
        code = main(
            ["bekolle-bonami", "--weight", "up", "--points", "0.5",
             "--p-list", "1.3,1.5,2,3,3.5,3.8,3.9,3.95,4.0"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "p=1.3: divergent (expected divergent)" in printed
        assert "p=4.0: divergent (expected divergent)" in printed
        # a point on the circle has the same range: its half disc
        # integrates the same powers as a whole one
        out = tmp_path / "circle.json"
        code = main(
            ["bekolle-bonami", "--weight", "up", "--points", "1",
             "--p-list", "1.3,1.5,2.5,3.9,4.0", "--out", str(out)]
        )
        assert code == 0
        rows = read_json(out)["rows"]
        assert [row["divergent"] for row in rows] == [True, False, False, False, True]
        assert all(row["consistent"] for row in rows)

    def test_two_point_table_passes(self):
        code = main(
            ["bekolle-bonami", "--weight", "vp", "--points", "0.3,0.3+0.02j",
             "--p-list", "1.6,2,2.5,2.9"]
        )
        assert code == 0

    def test_row_against_the_range_exits_2(self, tmp_path, monkeypatch, capsys):
        def diverging(weight, p):
            raise NonIntegrable("forced")

        monkeypatch.setattr(experiments, "bekolle_bonami_estimate", diverging)
        out = tmp_path / "bb.json"
        code = main(
            ["bekolle-bonami", "--weight", "up", "--p-list", "2,4.5",
             "--points", "0.5", "--out", str(out)]
        )
        assert code == 2
        assert "p=2.0: divergent (expected finite)" in capsys.readouterr().out
        rows = read_json(out)["rows"]
        assert [row["consistent"] for row in rows] == [False, True]


class TestEmptyListFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bekolle-bonami", "--weight", "up", "--p-list", ",", "--points", "0.5"],
            ["bekolle-bonami", "--weight", "up", "--p-list", "2", "--points", " , "],
            ["forelli-rudin", "--eps", "0", "--s-exp", "0.5", "--grid", ","],
            ["blowup", "--n", "2", "--p", "4", "--s", ","],
            ["scan", "--n", "2", "--p-list", ",", "--s", "0.7,0.9"],
        ],
        ids=["p-list", "points", "grid", "s", "scan-p-list"],
    )
    def test_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "no value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--n", "2", "--p-list", "nan", "--s", "0.9,0.99"],
        ["blowup", "--n", "2", "--p", "inf", "--s", "0.9,0.99"],
        ["bekolle-bonami", "--weight", "up", "--p-list", "inf", "--points", "0.5"],
        ["bekolle-bonami", "--weight", "vp", "--p-list", "3", "--points", "nan"],
        ["forelli-rudin", "--eps", "nan", "--s-exp", "0"],
    ],
    ids=["scan-p-list", "blowup-p", "bekolle-p-list", "points", "eps"],
)
def test_non_finite_number_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "is not a finite number" in capsys.readouterr().err


def test_rule_orders_below_the_floors_exit_2(capsys):
    # radial 3 refines to 4, and both use the floor of 4 nodes per panel
    code = main(
        ["blowup", "--n", "2", "--p", "4", "--s", "0.9,0.99",
         "--radial", "3", "--angular", "16"]
    )
    assert code == 2
    assert "adds no node per radial panel" in capsys.readouterr().err


#: small inputs of every command; the last one's fit is ambiguous
EVERY_COMMAND = {
    "identities": ["identities", "--max-n", "2", "--negative-controls"],
    "blowup": ["blowup", "--n", "2", "--p", "4", "--s", "0.7,0.9"],
    "scan": ["scan", "--n", "2", "--p-list", "2,4", "--s", "0.7,0.9"],
    "forelli-rudin": ["forelli-rudin", "--eps", "0", "--s-exp", "-0.5"],
    "bekolle-bonami": ["bekolle-bonami", "--weight", "up", "--p-list", "2,4.5",
                       "--points", "0.5"],
    "annihilation": ["annihilation", "--n", "2"],
    "forelli-rudin-ambiguous": ["forelli-rudin", "--eps", "0", "--s-exp", "-0.01",
                                "--grid", "0.3,0.4,0.5"],
}


@pytest.mark.parametrize("name", list(EVERY_COMMAND))
def test_every_command_writes_a_reproducible_report(name, tmp_path, capsys):
    argv = EVERY_COMMAND[name]
    payloads = []
    for run in (1, 2):
        out = tmp_path / f"run{run}.json"
        code = main(argv + ["--out", str(out)])
        payload = read_json(out)
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["experiment"] == argv[0]
        assert code == (0 if payload["passed"] else 2)
        payload.pop("wall_time_s")
        payloads.append(json.dumps(payload, sort_keys=True, indent=2))
    assert payloads[0] == payloads[1]
    assert payload["passed"] is not name.endswith("ambiguous")
    if name.endswith("ambiguous"):
        assert payload["fit"] is None
        assert payload["notes"][0].startswith("ambiguous: ")
        assert "ambiguous" in capsys.readouterr().out


class TestParser:
    def test_missing_subcommand_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_weight_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["bekolle-bonami", "--weight", "wp", "--p-list", "2",
                  "--points", "0"])

    @pytest.mark.parametrize(
        "script", sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.name
    )
    def test_reproduction_scripts_parse(self, script):
        # the scripts' argument lists must stay valid commands; nothing runs
        spec = importlib.util.spec_from_file_location(script.stem, script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.RUNS
        for argv in module.RUNS:
            build_parser().parse_args(argv)


class TestModuleEntryPoint:
    """``python -m bergproj.cli`` runs a command as the console script does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["identities", "--max-n", "2"],
            ["bekolle-bonami", "--weight", "up", "--p-list", "2.5", "--points", "1"],
            ["blowup", "--n", "2", "--p", "0.5"],
        ],
        ids=["passes", "centre-on-circle", "invalid-exponent"],
    )
    def test_exit_code_and_output_match_main(self, argv, capsys):
        expected = main(argv)
        printed = capsys.readouterr()
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "bergproj.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert done.returncode == expected
        assert (done.stdout, done.stderr) == (printed.out, printed.err)

    def test_overflow_prints_only_the_package_error(self):
        # numpy's overflow warnings must not precede the package's own error
        src = str(Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "bergproj.cli", "blowup", "--n", "2", "--p", "1e308",
             "--s", "0.9,0.99"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 4
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("OverflowInIntegrand: "), done.stderr
