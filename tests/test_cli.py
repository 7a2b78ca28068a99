import json

import pytest

from matchlab import genfun
from matchlab.cli import main
from matchlab.config import RunConfig


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenfunCommand:
    @pytest.mark.parametrize(
        "n,expected",
        [("6", "c1^2*c3"), ("7", "2*c0*c1*c3^2"), ("8", "c1^3*c3^2 + c0^2*c3^3")],
    )
    def test_transfer_base_cases(self, n, expected, capsys):
        code, out, _ = run(["genfun", n, "2", "--method", "transfer"], capsys)
        assert code == 0
        assert out.strip() == expected

    def test_check_cross_validates(self, capsys):
        code, out, _ = run(["genfun", "10", "6", "--check"], capsys)
        assert code == 0
        assert "agree" in out

    def test_check_computes_each_method_once(self, capsys, monkeypatch):
        calls = []
        transfer = genfun.transfer_genfun

        def counting(n, m):
            calls.append((n, m))
            return transfer(n, m)

        monkeypatch.setattr(genfun, "transfer_genfun", counting)
        code, out, _ = run(["genfun", "10", "6", "--check"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "check: brute+closed+transfer agree"
        assert calls == [(10, 6)]

    def test_json_format(self, capsys):
        code, out, _ = run(["--format", "json", "genfun", "7", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["terms"] == [{"w": [1, 1, 2], "c": 2}]

    def test_coefficients_past_64_bits(self, capsys):
        code, out, _ = run(["genfun", "200", "2", "--check"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "check: closed+transfer agree"

    def test_closed_form_unavailable_is_usage_error(self, capsys):
        code, _, err = run(["genfun", "9", "3", "--method", "closed"], capsys)
        assert code == 2
        assert "closed form" in err


class TestClassifyCommand:
    def test_holds_exhaustive(self, capsys):
        code, out, _ = run(["classify", "5"], capsys)
        assert code == 0
        assert "holds (exhaustive)" in out

    def test_fails(self, capsys):
        code, out, _ = run(["classify", "7"], capsys)
        assert code == 0
        assert "fails" in out

    def test_integers(self, capsys):
        code, out, _ = run(["classify", "Z"], capsys)
        assert code == 0
        assert "torsion-free" in out

    def test_invalid_descriptor(self, capsys):
        code, out, err = run(["classify", "pear"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: group must be a positive integer or Z, got 'pear'\n"

    def test_order_zero_is_usage_error(self, capsys):
        code, out, err = run(["classify", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: group order must be >= 1, got 0\n"


class TestVerifyAmpCommand:
    def test_holds(self, capsys):
        code, out, _ = run(["verify-amp", "5"], capsys)
        assert code == 0
        assert "holds" in out

    def test_counterexample_reported(self, capsys):
        code, out, _ = run(["--format", "json", "verify-amp", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is False
        assert payload["counterexample"] == {"a": [0, 1, 3], "b": [1, 2, 4]}

    def test_bound_exceeded_exit_3(self, capsys):
        code, _, err = run(["verify-amp", "30"], capsys)
        assert code == 3


class TestEnumerateCommand:
    def test_reports_classes(self, capsys):
        code, out, _ = run(
            ["--format", "json", "enumerate", "7", "--a", "0,1,3", "--b", "1,2,4"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["total_matchings"] == 2
        assert payload["acyclic_witness"] is None

    def test_integers_past_32_bits(self, capsys):
        code, out, _ = run(
            ["--format", "json", "enumerate", "Z", "--a", "0,4294967296", "--b", "1,2"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["total_matchings"] == 2

    def test_invalid_pair_is_usage_error(self, capsys):
        code, _, err = run(["enumerate", "7", "--a", "1,2", "--b", "0,1"], capsys)
        assert code == 2

    def test_invalid_group_is_usage_error(self, capsys):
        code, out, err = run(["enumerate", "pear", "--a", "1", "--b", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: group must be a positive integer or Z, got 'pear'\n"


class TestCertifyCommand:
    def test_coprime6(self, capsys):
        code, out, _ = run(["certify", "7"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["claim"] == "coprime6_failure"
        assert payload["verified"] is True

    def test_nonprime(self, capsys):
        code, out, _ = run(["certify", "9"], capsys)
        assert code == 0
        assert json.loads(out)["claim"] == "nonprime_failure"

    def test_coefficients_past_64_bits(self, capsys):
        code, out, _ = run(["certify", "199"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verified"] is True
        assert max(t["c"] for t in payload["evidence"]["genfun"]) > 2**64

    def test_small_prime_is_usage_error(self, capsys):
        code, _, err = run(["certify", "5"], capsys)
        assert code == 2

    def test_writes_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, _, _ = run(["--out", str(out_path), "certify", "11"], capsys)
        assert code == 0
        assert json.loads(out_path.read_text())["verified"] is True


class TestReportCommand:
    def test_verdicts_2_to_8(self, capsys):
        code, out, _ = run(["--format", "json", "report", "2..8"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        verdicts = {r["n"]: r["verdict"] for r in rows}
        assert verdicts == {
            2: "holds", 3: "holds", 4: "fails", 5: "holds",
            6: "fails", 7: "fails", 8: "fails",
        }

    def test_byte_identical_reports(self, capsys):
        _, first, _ = run(["--format", "json", "report", "2..7"], capsys)
        _, second, _ = run(["--format", "json", "report", "2..7"], capsys)
        assert first == second

    def test_csv_projection(self, capsys):
        code, out, _ = run(["--format", "csv", "report", "6..7"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,verdict,evidence,matchings,min_coefficient,verified"
        assert len(lines) == 3

    def test_empty_range(self, capsys):
        code, out, _ = run(["--format", "csv", "report", "9..8"], capsys)
        assert code == 0
        assert out.strip().splitlines()[1:] == []

    def test_bad_range_is_usage_error(self, capsys):
        code, _, _ = run(["report", "a..b"], capsys)
        assert code == 2


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.enumeration_bound == 20
        assert cfg.exhaustive_group_bound == 8
        assert cfg.symmetry_reduction is True

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(enumeration_bound=0)
        with pytest.raises(ValueError):
            RunConfig(output_format="xml")
        with pytest.raises(ValueError):
            RunConfig(output_path=5)

    def test_env_config_file(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"exhaustive_group_bound": 6}))
        monkeypatch.setenv("MATCHLAB_CONFIG", str(path))
        code, _, _ = run(["verify-amp", "7"], capsys)
        assert code == 3  # 7 exceeds the configured bound

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValueError):
            RunConfig.from_file(path)

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out, err = run(["--config", str(path), "classify", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot read config {path}: ")

    def test_missing_env_config_file_is_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MATCHLAB_CONFIG", str(tmp_path / "missing.json"))
        code, out, err = run(["classify", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read config ")

    def test_config_not_an_object_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[]")
        code, out, err = run(["--config", str(path), "classify", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: config must be a JSON object, got list\n"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("enumeration_bound", "20"),
            ("exhaustive_group_bound", True),
            ("seed", "x"),
            ("symmetry_reduction", "no"),
        ],
    )
    def test_wrongly_typed_field_is_usage_error(self, capsys, tmp_path, field, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}))
        code, out, err = run(["--config", str(path), "classify", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {field} must be ")

    def test_no_symmetry_flag(self, capsys):
        code, out, _ = run(["--no-symmetry", "--format", "json", "verify-amp", "7"], capsys)
        assert code == 0
        assert json.loads(out)["counterexample"] == {"a": [0, 1, 3], "b": [1, 2, 4]}
