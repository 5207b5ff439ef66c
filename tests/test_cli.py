import json
import math
import warnings

import jsonschema
import pytest

from hardyzeta import hilbert, polyzero
from hardyzeta.cli import main
from hardyzeta.errors import DomainError
from hardyzeta.report import RunConfig, load_schema, report_json, run_report


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
        _, before, _ = run_cli(capsys, "--em-terms", "200", "z", "--t", "30",
                               "--method", "em")
        _, after, _ = run_cli(capsys, "z", "--t", "30", "--method", "em",
                              "--em-terms", "200")
        assert before == after


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

        def counted(sigma, t, cfg=None):
            calls.append(t)
            return real(sigma, t, cfg)

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
            "em_terms": None,
            "em_bernoulli_order": 8,
            "rs_remainder_order": 0,
            "quad_order": 256,
            "interval": [10.0, 50.0],
        }

    def test_cli_report_embeds_em_terms(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _, _ = run_cli(capsys, "--em-terms", "200", "report",
                                 "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["config"]["em_terms"] == 200

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
