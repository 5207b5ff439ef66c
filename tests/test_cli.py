import json
import math
import shlex
from pathlib import Path

import jsonschema
import pytest

from hardyzeta import cli, hilbert, polyzero, report, zerofinder
from hardyzeta.cli import main
from hardyzeta.errors import DomainError
from hardyzeta.report import RunConfig, load_schema, report_json, run_report
from hardyzeta.zetaeval import davenport_heilbronn


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "theta", "--t", "50", "--mode", "exact")
        assert code == 0

    def test_usage_error_is_one(self, capsys):
        assert run_cli(capsys, "bogus")[0] == 1
        assert run_cli(capsys, "zeros", "--interval", "nonsense")[0] == 1
        assert run_cli(capsys, "theta")[0] == 1

    def test_numeric_error_is_two(self, capsys):
        code, out, err = run_cli(capsys, "z", "--t", "3")
        assert code == 2
        assert out == ""
        assert "2*pi" in err

    @pytest.mark.parametrize("argv,name", [
        (("zeros", "--interval", "10:20", "--step", "nan"), "step"),
        (("zeros", "--interval", "7000:7010", "--step", "0.5"), "step"),
        (("lehmer", "--interval", "7000:7010", "--step", "0.2"), "step"),
        (("dh-scan", "--box", "0.51:1:80:90", "--n-per-side", "250001"),
         "n_per_side"),
        (("lehmer", "--interval", "10:20", "--threshold", "nan"), "threshold"),
        (("lehmer", "--interval", "10:20", "--threshold", "0"), "threshold"),
        (("gz", "--sigma", "-20", "--t", "1"), "N="),
        (("gz", "--sigma", "-10", "--t", "1"), "rounding"),
        (("spiral", "--sigma", "0.5", "--t", "30", "--n", "1000001"),
         "MAX_TERMS"),
        (("zeros", "--interval", "10:20", "--step", "1e-9"), "MAX_TERMS"),
        (("theta", "--mode", "asym", "--t", "0.5"), "2*pi"),
        (("theta", "--mode", "asym", "--t", "1e70"), "2*pi"),
        (("gram", "--sigmas", "0.3,0.5", "--interval", "1e60:1.0000001e60"),
         "2*pi"),
        (("theta", "--t", "1e308"), "overflows"),
        (("z", "--method", "em", "--t", "1e308"), "MAX_TERMS"),
        (("gz", "--sigma", "1e306", "--t", "1000"), "overflows a double"),
    ], ids=["step-nan", "zeros-step-0.5",
            "lehmer-step-0.2", "dh-scan-n-per-side-250001", "threshold-nan",
            "threshold-0", "gz-sigma-minus-20", "gz-sigma-minus-10",
            "spiral-n-above-max-terms", "zeros-step-1e-9",
            "theta-asym-below-2pi", "theta-asym-above-1e50",
            "gram-above-1e50", "theta-exact-overflow", "z-em-above-max-terms",
            "gz-sigma-1e306"])
    def test_rejected_parameter_is_two(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert name in err


class TestValueCommands:
    def test_theta_fifteen_digits(self, capsys):
        code, out, _ = run_cli(capsys, "theta", "--t", "50", "--mode", "exact")
        assert code == 0
        value = float(out.strip())
        assert value == pytest.approx(26.4613660701615, abs=1e-12)
        digits = out.strip().replace("-", "").replace(".", "")
        assert len(digits) >= 14

    def test_theta_modes_differ_slightly(self, capsys):
        _, exact, _ = run_cli(capsys, "theta", "--t", "50", "--mode", "exact")
        _, asym, _ = run_cli(capsys, "theta", "--t", "50", "--mode", "asym")
        assert abs(float(exact) - float(asym)) < 1e-12

    def test_z_methods_agree(self, capsys):
        _, rs, _ = run_cli(capsys, "z", "--t", "30", "--method", "rs")
        _, em, _ = run_cli(capsys, "z", "--t", "30", "--method", "em")
        assert abs(float(rs) - float(em)) < 5e-3

    def test_gz_json(self, capsys):
        code, out, _ = run_cli(capsys, "gz", "--sigma", "0.5", "--t", "25",
                               "--json")
        payload = json.loads(out)
        assert abs(payload["y"]) < 1e-9

    def test_global_flag_positions(self, capsys):
        argv = ("gram", "--sigmas", "0.3,0.5", "--interval", "10:20")
        _, before, _ = run_cli(capsys, "--quad-order", "300", *argv)
        _, after, _ = run_cli(capsys, *argv, "--quad-order", "300")
        assert before == after
        assert json.loads(before)["order"] == 300

    def test_subcommand_help_describes_global_flags(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--help")
        assert code == 0
        assert "Gauss-Legendre order" in out
        assert "emit JSON" in out


class TestFileCommands:
    def test_spiral_files(self, capsys, tmp_path):
        svg = tmp_path / "s.svg"
        csv = tmp_path / "s.csv"
        code, _, err = run_cli(capsys, "spiral", "--sigma", "0.5", "--t", "30",
                               "--n", "50", "--svg", str(svg), "--csv", str(csv))
        assert code == 0
        assert svg.exists() and csv.exists()
        assert csv.read_text().splitlines()[0] == "n,re,im"
        assert len(csv.read_text().strip().splitlines()) == 51

    def test_spiral_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "spiral", "--sigma", "0", "--t", "0",
                               "--n", "3")
        lines = out.strip().splitlines()
        assert lines[0] == "n,re,im"
        assert lines[1].startswith("1,1,")

    def test_spiral_stdout_matches_csv_file(self, capsys, tmp_path):
        csv = tmp_path / "s.csv"
        argv = ("spiral", "--sigma", "0.5", "--t", "30", "--n", "50")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert run_cli(capsys, *argv, "--csv", str(csv))[0] == 0
        assert out.encode("utf-8") == csv.read_bytes()

    def test_ortho_csv(self, capsys, tmp_path):
        prefix = tmp_path / "orth"
        code, _, err = run_cli(capsys, "ortho", "--sigmas", "0.5,0.3",
                               "--interval", "10:20", "--order", "128",
                               "--out", str(prefix))
        assert code == 0
        lines = (tmp_path / "orth.csv").read_text().strip().splitlines()
        assert lines[0] == "t,g1,g2"
        assert len(lines) == 129

    def test_ortho_requires_out(self, capsys):
        code, _, err = run_cli(capsys, "ortho", "--sigmas", "0.5,0.3",
                               "--interval", "10:20")
        assert code == 1


class TestJsonCommands:
    def test_gram_payload(self, capsys):
        code, out, _ = run_cli(capsys, "gram", "--sigmas", "0.3,0.5,0.7",
                               "--interval", "10:20", "--order", "128")
        payload = json.loads(out)
        assert payload["order"] == 128
        assert len(payload["correlations"]) == 3
        assert payload["correlations"][0][0] == 1.0
        assert "determinant" in payload and "min_eigenvalue" in payload

    def test_zeros_json_twelve_digits(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--interval", "10:30",
                               "--step", "0.01", "--json")
        payload = json.loads(out)
        assert [round(r["location"], 4) for r in payload] == [
            14.1347, 21.022, 25.0109
        ]
        for r in payload:
            assert r["simple"] is True
            assert len(f"{r['location']:.12g}".replace(".", "")) <= 13

    def test_lehmer_json(self, capsys):
        code, out, _ = run_cli(capsys, "lehmer", "--interval", "7000:7010",
                               "--threshold", "0.2")
        payload = json.loads(out)
        assert len(payload) == 1
        assert payload[0]["normalized_gap"] < 0.2

    def test_dh_scan(self, capsys):
        code, out, _ = run_cli(capsys, "dh-scan", "--box", "0.51:1:80:90",
                               "--n-per-side", "128")
        payload = json.loads(out)
        assert payload["count"] >= 1

    def test_polyfit_evaluates_only_the_study(self, capsys, monkeypatch):
        calls = []
        real = hilbert.generalized_hardy

        def counted(sigma, t):
            calls.append(t)
            return real(sigma, t)

        monkeypatch.setattr(hilbert, "generalized_hardy", counted)
        code, out, _ = run_cli(capsys, "polyfit", "--sigma", "0.5",
                               "--interval", "10:30", "--degrees", "20,40")
        assert code == 0
        cli_calls = len(calls)
        calls.clear()
        study = polyzero.zero_convergence_study(
            hilbert.hardy_function(0.5), hilbert.Interval(10.0, 30.0),
            [20, 40])
        assert cli_calls == len(calls)
        payload = json.loads(out)
        assert [p["l2_error"] for p in payload] == [
            pytest.approx(c.l2_error, rel=1e-11) for c in study]

    def test_polyfit_below_scan_range_output_frozen(self, capsys,
                                                     monkeypatch):
        # [5, 15] crosses 2*pi, below which the Riemann-Siegel route is
        # not valid, so the study scans Z(1/2, .) on Euler-Maclaurin and
        # prints these frozen bytes.
        monkeypatch.setattr(zerofinder, "hardy_z_rs", None)
        code, out, _ = run_cli(capsys, "polyfit", "--sigma", "0.5",
                               "--interval", "5:15", "--degrees", "20,30")
        assert code == 0
        zero = 14.1347251417
        frozen = [
            {"degree": 20, "l2_error": 2.06784038981e-13,
             "max_deviation": 7.28306304154e-14,
             "pairs": [[zero, zero, 7.28306304154e-14]]},
            {"degree": 30, "l2_error": 1.06209338348e-13,
             "max_deviation": 1.24344978758e-14,
             "pairs": [[zero, zero, 1.24344978758e-14]]},
        ]
        assert out == json.dumps(frozen, indent=2, sort_keys=True) + "\n"

    def test_polyfit(self, capsys):
        code, out, _ = run_cli(capsys, "polyfit", "--sigma", "0.5",
                               "--interval", "10:30", "--degrees", "20,40")
        payload = json.loads(out)
        assert [p["degree"] for p in payload] == [20, 40]
        assert payload[1]["max_deviation"] < 1e-6


class TestReport:
    def test_cli_report_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, "report", "--out", str(out1))
        assert code == 0
        text1 = out1.read_text()
        out1.unlink()
        run_cli(capsys, "report", "--out", str(out1))
        assert out1.read_text() == text1

    def test_cli_report_independent_of_out_path(self, capsys, tmp_path):
        paths = [tmp_path / d / "r.json" for d in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            assert run_cli(capsys, "report", "--out", str(path))[0] == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_dh_recount_reuses_the_coarse_contour(self, monkeypatch):
        seen = []

        def counted(s):
            seen.append(s)
            return davenport_heilbronn(s)

        monkeypatch.setattr(report, "davenport_heilbronn", counted)
        entry = report._entry_dh_offline(RunConfig())
        assert entry.status == "Pass"
        assert len(seen) == len(set(seen))

    def test_config_matches_schema(self):
        config_schema = load_schema()["properties"]["config"]
        keys = set(RunConfig().as_dict())
        assert keys == set(config_schema["properties"])
        assert set(config_schema["required"]) <= keys

    def test_payload_validates_against_schema(self):
        config = RunConfig()
        entries = run_report(config)
        payload = json.loads(report_json(config, entries))
        jsonschema.validate(payload, load_schema())

    def test_all_claims_present_in_order(self):
        config = RunConfig()
        entries = run_report(config)
        assert [e.claim_id for e in entries] == [
            "sin-theta-identity",
            "functional-equation",
            "chi-modulus",
            "gs-preserves-first",
            "independence-grid",
            "zero-convergence",
            "lehmer-7005",
            "dh-offline-zero",
        ]
        by_id = {e.claim_id: e for e in entries}
        assert by_id["sin-theta-identity"].status == "Pass"
        assert by_id["sin-theta-identity"].metrics["max_abs_y"] < 1e-8
        assert by_id["gs-preserves-first"].status == "Pass"
        assert by_id["gs-preserves-first"].metrics[
            "first_element_deviation"] == 0.0
        assert by_id["dh-offline-zero"].status == "Pass"
        assert by_id["dh-offline-zero"].metrics["count"] >= 1
        assert by_id["independence-grid"].status == "Measured"

    def test_config_dict_is_flat(self):
        assert RunConfig().as_dict() == {
            "quad_order": 256,
            "interval": [10.0, 50.0],
        }

    @pytest.mark.parametrize("order", ["0", "5000"])
    def test_cli_report_rejects_quad_order(self, capsys, tmp_path, order):
        out = tmp_path / "r.json"
        code, stdout, err = run_cli(capsys, "report", "--quad-order", order,
                                    "--out", str(out))
        assert code == 2
        assert "quad_order" in err
        assert stdout == "" and not out.exists()

    @pytest.mark.parametrize("kwargs", [
        {"quad_order": 0},
        {"quad_order": 4097},
        {"interval": (50.0, 10.0)},
        {"interval": (10.0, 10.0)},
        {"interval": (10.0, math.inf)},
        {"interval": (math.nan, 50.0)},
    ], ids=["order-0", "order-4097", "reversed", "empty", "infinite", "nan"])
    def test_config_rejects_unreportable_values(self, kwargs):
        with pytest.raises(DomainError):
            RunConfig(**kwargs)


def test_readme_cli_examples_parse():
    # Every `hardyzeta ...` line in README's command block must still
    # parse, and together they must cover every subcommand.  Nothing runs.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [ln for ln in readme.read_text(encoding="utf-8").splitlines()
             if ln.startswith("hardyzeta ")]
    parser = cli.build_parser()
    commands = set()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example no longer parses: {line}")
        commands.add(args.command)
    assert commands == set(cli._COMMANDS)
