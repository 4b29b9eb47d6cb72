"""End-to-end tests of the command line interface: flags, file outputs,
and the exit-code contract (0 pass, 2 failed verification or invalid
input, 3 quadrature not converged, 4 any other package error)."""

import csv
import json

import jsonschema
import pytest

import bergproj.cli as cli
import bergproj.experiments as experiments
from bergproj.cli import main
from bergproj.errors import OverflowInIntegrand, PoleProximity
from bergproj.experiments import REPORT_SCHEMA


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
        assert payload["label"] == "Power"
        assert payload["matches_theory"] is True

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
        assert len(payload["values"]) == 4
        assert payload["values"][0]["value"] > 0


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

    def test_two_point_weight(self, capsys):
        code = main(
            ["bekolle-bonami", "--weight", "vp", "--p-list", "2",
             "--points", "0.3,0.3+0.02j"]
        )
        assert code == 0
        assert "1.0000" in capsys.readouterr().out


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


class TestParser:
    def test_missing_subcommand_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_weight_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["bekolle-bonami", "--weight", "wp", "--p-list", "2",
                  "--points", "0"])
