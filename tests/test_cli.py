import json
import math
import re
import shlex
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from hardyzeta import cli, hilbert, polyzero, report, zerofinder
from hardyzeta.cli import main
from hardyzeta.report import (load_schema, report_json, report_payload,
                              run_report)
from hardyzeta.zetaeval import davenport_heilbronn


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _assert_refused_before_running(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error:" in err
    assert list(tmp_path.iterdir()) == []


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
        (("dh-scan", "--box", "0.51:1:80:90", "--n-per-side", "250001"),
         "n_per_side"),
        (("lehmer", "--interval", "10:20", "--threshold", "nan"), "threshold"),
        (("lehmer", "--interval", "10:20", "--threshold", "0"), "threshold"),
        (("gz", "--sigma", "-20", "--t", "1"), "N="),
        (("gz", "--sigma", "-10", "--t", "1"), "rounding"),
        (("spiral", "--sigma", "0.5", "--t", "30", "--n", "1000001"),
         "MAX_TERMS"),
        (("theta", "--mode", "asym", "--t", "0.5"), "2*pi"),
        (("theta", "--mode", "asym", "--t", "1e70"), "2*pi"),
        (("gram", "--sigmas", "0.3,0.5", "--interval", "1e60:1.0000001e60"),
         "2*pi"),
        (("theta", "--t", "1e308"), "overflows"),
        (("z", "--method", "em", "--t", "1e308"), "MAX_TERMS"),
        (("gz", "--sigma", "1e306", "--t", "1000"), "overflows a double"),
        (("dh-scan", "--box", "0.5:inf:80:90"),
         "interval endpoints must be finite: Interval(a=0.5, b=inf)"),
    ], ids=["dh-scan-n-per-side-250001", "threshold-nan",
            "threshold-0", "gz-sigma-minus-20", "gz-sigma-minus-10",
            "spiral-n-above-max-terms", "theta-asym-below-2pi",
            "theta-asym-above-1e50", "gram-above-1e50", "theta-exact-overflow",
            "z-em-above-max-terms", "gz-sigma-1e306",
            "dh-scan-box-infinite-side"])
    def test_rejected_parameter_is_two(self, capsys, argv, name):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert name in err

    @pytest.mark.parametrize("argv,printed", [
        (("zeros", "--interval", "7005.06:7005.07"), "7005.06286617\n"),
        (("lehmer", "--interval", "7000:7000.005"), "[]\n"),
    ], ids=["zeros", "lehmer"])
    def test_window_narrower_than_step_is_scanned(self, capsys, argv,
                                                  printed):
        # Both windows are narrower than the scan step, 0.01; they used
        # to be refused with exit 2.
        assert run_cli(capsys, *argv) == (0, printed, "")

    @pytest.mark.parametrize("command", ["gram", "ortho"])
    def test_default_order_refusal_names_the_flag(self, capsys, tmp_path,
                                                  monkeypatch, command):
        # No --order is given: the default, the interval's oscillation
        # order on [10, 2000], is above MAX_QUAD_ORDER, and the refusal
        # says so before anything is evaluated or written.
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, command, "--sigmas", "0.3,0.5",
                                 "--interval", "10:2000", "--out", "o")
        assert (code, out) == (2, "")
        assert ("--order defaults to 22937, the larger of 256 and the "
                "oscillation order of [10, 2000], above MAX_QUAD_ORDER = "
                "4096") in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("t", ["-100", "3", "1e51", "-inf", "nan"])
    def test_rs_refusal_names_its_own_range(self, capsys, t):
        # The Riemann-Siegel route names its range and the route that
        # takes t below it, not the range of its theta.
        code, out, err = run_cli(capsys, "z", "--t", t)
        assert (code, out) == (2, "")
        assert f"Riemann-Siegel Z needs 2*pi <= t <= 1e50, got t={float(t)!r}" in err
        assert "--method em" in err and "asymptotic theta" not in err

    def test_em_route_takes_t_below_2pi(self, capsys):
        code, out, _ = run_cli(capsys, "z", "--t", "-100", "--method", "em")
        assert code == 0 and math.isfinite(float(out))

    @pytest.mark.parametrize("t", ["-inf", "-infinity", "-nan", "-INF",
                                   "-Infinity", "-NaN"])
    def test_minus_infinity_and_nan_are_values(self, capsys, t):
        # Read as the value of --t, not as a flag, so the refusal is
        # theta's own, exit 2.
        code, out, err = run_cli(capsys, "theta", "--t", t)
        assert (code, out) == (2, "")
        assert f"t must be finite, got {float(t)!r}" in err
        # So is the first item of a list, an interval or a box: it is
        # refused as the same value in a later position is.
        gram = ("gram", "--interval", "10:20", "--order", "32", "--sigmas")
        first = run_cli(capsys, *gram, f"{t},0.5")
        assert first == run_cli(capsys, *gram, f"0.5,{t}")
        assert first[:2] == (2, "")
        for code, *forms in [
                (1, ("zeros", "--interval", f"{t}:20"),
                 ("zeros", "--interval", f"20:{t}")),
                (2, ("dh-scan", "--box", f"{t}:1:80:90"),
                 ("dh-scan", "--box", f"0.5:{t}:80:90"))]:
            for argv in forms:
                got, out, err = run_cli(capsys, *argv)
                assert (got, out) == (code, "")
                assert "interval endpoints must be finite" in err


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

    @pytest.mark.parametrize("argv", [
        ("zeros", "--interval", "100:110", "--quad-order", "5"),
        ("dh-scan", "--box", "0.51:1:80:90", "--json"),
        ("gram", "--sigmas", "0.3,0.5", "--interval", "10:20",
         "--quad-order", "300"),
        ("spiral", "--sigma", "0.5", "--t", "30", "--n", "5", "--out", "x"),
        ("--json", "theta", "--t", "50"),
        ("--out", "x", "z", "--t", "30"),
        ("report", "--quad-order", "256", "--out", "r.json"),
        ("report", "--interval", "10:50", "--out", "r.json"),
        ("zeros", "--interval", "100:110", "--step", "0.01"),
        ("lehmer", "--interval", "7000:7010", "--step", "0.01"),
    ], ids=["zeros-quad-order", "dh-scan-json", "gram-quad-order",
            "spiral-out", "json-before-command", "out-before-command",
            "report-quad-order", "report-interval", "zeros-step",
            "lehmer-step"])
    def test_unread_flag_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                        argv):
        # A flag the command does not read, or one given before the
        # command, is refused before anything runs or is written.
        _assert_refused_before_running(capsys, tmp_path, monkeypatch, argv)

    @pytest.mark.parametrize("argv", [
        ("zeros", "--interval", "10::50", "--out", "z.json"),
        ("lehmer", "--interval", "10:", "--out", "l.json"),
        ("gram", "--sigmas", "0.3,0.5", "--interval", "-5", "--out", "g"),
        ("dh-scan", "--box", "0.51:1:80:90:", "--out", "d.json"),
        ("dh-scan", "--box", "1:2:3", "--out", "d.json"),
        ("polyfit", "--interval", "10:20", "--degrees", "20.5",
         "--out", "p.json"),
    ], ids=["interval-empty-part", "interval-one-number", "interval-negative",
            "box-five-parts", "box-three-parts", "degrees-not-int"])
    def test_malformed_value_is_usage_error(self, capsys, tmp_path,
                                            monkeypatch, argv):
        # An interval or a box takes exactly its count of numbers, no
        # empty part among them.
        _assert_refused_before_running(capsys, tmp_path, monkeypatch, argv)

    @pytest.mark.parametrize("argv,shown", [
        (("gz", "--sigma", "0.3", "--t", "-1e3"), ""),
        (("theta", "--t", "-1e2", "--json"), ""),
        (("gram", "--sigmas", "-0.5,0.3", "--interval", "10:50",
          "--order", "32"), ""),
        (("gram", "--sigmas", "0.5,0.3", "--interval", "-50:-10",
          "--order", "64"), ""),
        (("dh-scan", "--box", "-1:2:80:90"), '"count": 7'),
    ], ids=["gz-t", "theta-t", "gram-sigmas", "gram-interval", "dh-scan-box"])
    def test_value_may_start_with_minus(self, capsys, argv, shown):
        # A value that starts with "-" and a digit is no flag: it prints
        # the bytes of its --flag=value form.
        joined = []
        for arg in argv:
            if re.match(r"-\.?\d", arg):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert (code, out, err) == run_cli(capsys, *joined)
        assert shown in out

    def test_list_skips_empty_items(self, capsys):
        argv = ("gram", "--interval", "10:20", "--order", "32", "--sigmas")
        code, out, _ = run_cli(capsys, *argv, "0.3,,0.5")
        assert code == 0
        assert out == run_cli(capsys, *argv, "0.3,0.5")[1]

    # theta, z and gz share one emitter; these are its bytes, key order
    # included.
    @pytest.mark.parametrize("argv,frozen", [
        (("theta", "--t", "50", "--json"),
         '{"t": 50.0, "mode": "exact", "theta": 26.4613660701614}\n'),
        (("z", "--t", "30", "--method", "em", "--json"),
         '{"t": 30.0, "method": "em", "z": 0.596028519239887}\n'),
        (("gz", "--sigma", "0.3", "--t", "25", "--json"),
         '{"sigma": 0.3, "t": 25.0, "z": -0.0255356834777969, '
         '"y": 0.314977489102278}\n'),
        (("theta", "--t", "50"), "26.4613660701614\n"),
        (("z", "--t", "30", "--method", "em"), "0.596028519239887\n"),
        (("gz", "--sigma", "0.3", "--t", "25"),
         "-0.0255356834777969 0.314977489102278\n"),
    ], ids=["theta-json", "z-json", "gz-json", "theta", "z", "gz"])
    def test_value_output_frozen(self, capsys, argv, frozen):
        assert run_cli(capsys, *argv) == (0, frozen, "")

    OWN_FLAGS = {
        "theta": {"--t", "--mode", "--json", "--out"},
        "z": {"--t", "--method", "--json", "--out"},
        "gz": {"--sigma", "--t", "--json", "--out"},
        "spiral": {"--sigma", "--t", "--n", "--svg", "--csv"},
        "gram": {"--sigmas", "--interval", "--order", "--out"},
        "ortho": {"--sigmas", "--interval", "--order", "--out"},
        "polyfit": {"--sigma", "--interval", "--degrees", "--out"},
        "zeros": {"--interval", "--json", "--out"},
        "lehmer": {"--interval", "--threshold", "--out"},
        "dh-scan": {"--box", "--n-per-side", "--out"},
        "report": {"--out"},
    }

    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_help_lists_only_own_flags(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out))
        assert listed == self.OWN_FLAGS[command] | {"--help"}


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

    def test_spiral_refused_writes_no_file(self, capsys, tmp_path):
        # One partial sum draws no SVG; the CSV is not written either.
        code, out, err = run_cli(capsys, "spiral", "--sigma", "0.5", "--t",
                                 "30", "--n", "1", "--csv",
                                 str(tmp_path / "a.csv"), "--svg",
                                 str(tmp_path / "b.svg"))
        assert code == 2 and out == ""
        assert "two partial sums" in err
        assert list(tmp_path.iterdir()) == []

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
        assert "--out" in err


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
                               "--json")
        payload = json.loads(out)
        assert [round(r["location"], 4) for r in payload] == [
            14.1347, 21.022, 25.0109
        ]
        for r in payload:
            assert r["simple"] is True
            assert len(f"{r['location']:.12g}".replace(".", "")) <= 13
        # Computed floats at 12 significant digits; `simple` stays a bool.
        assert out.startswith(
            '[\n  {\n    "bracket": [\n      14.13,\n      14.14\n    ],\n'
            '    "derivative": 0.793160433357,\n'
            '    "location": 14.1347251417,\n'
            '    "residual": 2.72680895606e-13,\n'
            '    "simple": true\n  },\n')

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
        real, real_family = hilbert.generalized_hardy, hilbert._hardy_z_family

        def counted(sigma, t):
            calls.append(t)
            return real(sigma, t)

        def counted_family(sigmas, ts):
            values = real_family(sigmas, ts)
            for _ in sigmas:
                calls.extend(ts.tolist())
            return values

        monkeypatch.setattr(hilbert, "generalized_hardy", counted)
        monkeypatch.setattr(hilbert, "_hardy_z_family", counted_family)
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
        # prints these frozen bytes.  Degree 20 is the degree-30
        # projection truncated; its l2_error is the Parseval residual on
        # the 60-node rule.
        monkeypatch.setattr(zerofinder, "hardy_z_rs", None)
        code, out, _ = run_cli(capsys, "polyfit", "--sigma", "0.5",
                               "--interval", "5:15", "--degrees", "20,30")
        assert code == 0
        zero = 14.1347251417
        frozen = [
            {"degree": 20, "l2_error": 2.0010473904e-13,
             "max_deviation": 7.63833440942e-14,
             "pairs": [[zero, zero, 7.63833440942e-14]]},
            {"degree": 30, "l2_error": 1.12758541831e-14,
             "max_deviation": 1.7763568394e-15,
             "pairs": [[zero, zero, 1.7763568394e-15]]},
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

    def test_dh_counts_make_one_grid_call_each(self, monkeypatch):
        # Each count evaluates its whole contour in one array call, of
        # 4 * 256 + 1 and 4 * 512 + 1 points, and then only the scalar
        # midpoints of its subdivided steps.
        grids, midpoints = [], []

        def counted(s):
            if isinstance(s, np.ndarray):
                grids.append(s.size)
            else:
                midpoints.append(s)
            return davenport_heilbronn(s)

        monkeypatch.setattr(report, "davenport_heilbronn", counted)
        entry = report._entry_dh_offline()
        assert entry.status == "Pass"
        assert grids == [1025, 2049]
        assert all(type(z) is complex for z in midpoints)
        assert len(midpoints) == 5

    def test_config_matches_schema(self):
        config_schema = load_schema()["properties"]["config"]
        keys = set(report_payload([])["config"])
        assert keys == set(config_schema["properties"])
        assert set(config_schema["required"]) <= keys

    def test_payload_validates_against_schema(self):
        payload = json.loads(report_json(run_report()))
        jsonschema.validate(payload, load_schema())

    def test_all_claims_present_in_order(self):
        entries = run_report()
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
        assert report_payload([])["config"] == {
            "quad_order": 256,
            "interval": [10.0, 50.0],
        }


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
