import json
import pathlib
import re
import shlex

import pytest
from hypothesis import example, given, settings, strategies as st

from matchlab import cli, genfun
from matchlab.cli import main


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

    @pytest.mark.parametrize(
        "argv,ran",
        [(["genfun", "30", "5", "--check"], "transfer"),
         (["genfun", "8", "5", "--method", "brute", "--check"], "brute")],
    )
    def test_check_with_one_method_is_usage_error(self, capsys, argv, ran):
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        n, m = argv[1:3]
        assert err == f"error: --check needs two methods, but only {ran} ran for n = {n}, m = {m}\n"

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

    def test_element_lists_may_start_with_a_negative_number(self, capsys):
        a, b = "-9,-5,-3,0,2,4,7,8", "-8,-6,-2,1,3,5,6,9"
        spaced = run(["enumerate", "Z", "--a", a, "--b", b], capsys)
        joined = run(["enumerate", "Z", f"--a={a}", f"--b={b}"], capsys)
        assert spaced[0] == joined[0] == 0
        assert spaced[1] == joined[1]
        assert "matchings: 3779" in spaced[1]

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
        code, out, err = run(["--format", "csv", "report", "5..3"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: range '5..3' contains no n >= 1\n"

    def test_range_below_one_is_usage_error(self, capsys):
        code, out, err = run(["report", "0"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: range '0' contains no n >= 1\n"

    def test_bad_range_is_usage_error(self, capsys):
        code, out, err = run(["report", "a..b"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: range must be N or LO..HI, got 'a..b'\n"


class TestOptions:
    def test_enumeration_bound_exits_3(self, capsys):
        a = ",".join(str(x) for x in range(21))
        b = ",".join(str(x) for x in range(1, 22))
        for argv in (
            ["enumerate", "Z", "--a", a, "--b", b],
            ["genfun", "24", "2", "--method", "brute"],
        ):
            code, out, err = run(argv, capsys)
            assert code == 3
            assert out == ""
            assert err == "error: |A| = 21 exceeds enumeration bound 20\n"

    def test_listing_bound_exits_3(self, capsys):
        # 228,732,066 matchings: the count answers at once, listing their
        # classes would walk every one
        argv = ["enumerate", "Z", "--a", "-12,-11,-10,-9,-8,-7,-4,-2,4,5,6,9,11,12",
                "--b", "-11,-9,-7,-5,-4,-1,1,2,3,5,7,8,10,12"]
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert err == "error: 228732066 matchings exceed the listing bound 1000000\n"

    def test_listing_bound_is_inclusive(self, capsys, monkeypatch):
        argv = ["enumerate", "Z", "--a", "-9,-5,-3,0,2,4,7,8", "--b", "-8,-6,-2,1,3,5,6,9"]
        monkeypatch.setattr(cli, "LISTING_BOUND", 3779)
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert "matchings: 3779" in out
        monkeypatch.setattr(cli, "LISTING_BOUND", 3778)
        code, out, err = run(argv, capsys)
        assert code == 3
        assert out == ""
        assert err == "error: 3779 matchings exceed the listing bound 3778\n"

    def test_verify_amp_bound(self, capsys):
        code, out, err = run(["verify-amp", "9"], capsys)
        assert code == 3
        assert err == "error: group order 9 exceeds exhaustive bound 8\n"
        code, out, _ = run(["verify-amp", "9", "--bound", "9"], capsys)
        assert code == 0
        assert out.startswith("Z/9Z: fails; first counterexample")
        code, out, err = run(["verify-amp", "5", "--bound", "0"], capsys)
        assert code == 2
        assert err == "error: --bound must be positive, got 0\n"

    def test_unknown_format_is_usage_error(self, capsys):
        code, out, err = run(["--format", "xml", "certify", "9"], capsys)
        assert (code, out) == (2, "")
        # what argparse prints before its SystemExit(2): the usage, wrapped to
        # the terminal's width, then the error line
        usage = cli.build_parser().format_usage()
        assert err.startswith(usage + "matchlab: error: argument --format: invalid choice: 'xml'")
        assert err.count("\n") == usage.count("\n") + 1

    def test_subcommand_usage_error_names_the_verb(self, capsys):
        code, out, err = run(["enumerate", "7", "--a", "x", "--b", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: matchlab enumerate [-h] ")
        assert err.splitlines()[-1] == (
            "matchlab enumerate: error: argument --a: expected comma-separated integers, got 'x'"
        )

    def test_duplicate_elements_are_usage_error(self, capsys):
        code, out, err = run(["enumerate", "7", "--a", "1,1,2", "--b", "1,2,3"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: duplicate elements in A or B\n"

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(["--out", str(path), "certify", "9"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert not path.parent.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: matchlab")

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "5"],
            ["verify-amp", "5"],
            ["enumerate", "7", "--a", "0,1,3", "--b", "1,2,4"],
            ["genfun", "7", "2"],
            ["certify", "9"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_csv_outside_report_is_usage_error(self, capsys, argv):
        code, out, err = run(["--format", "csv", *argv], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --format csv applies only to report, not {argv[0]}\n"

    def test_config_variable_is_not_read(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MATCHLAB_CONFIG", str(tmp_path / "missing.json"))
        code, out, err = run(["classify", "2"], capsys)
        assert code == 0
        assert out == "Z/2Z: holds (exhaustive)\n"
        assert err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--seed", "3", "classify", "Z"],
            ["--no-symmetry", "verify-amp", "7"],
            ["--config", "f.json", "classify", "2"],
            ["certify", "9", "--bound", "5"],
        ],
        ids=["seed", "no-symmetry", "config", "certify-bound"],
    )
    def test_removed_option_is_usage_error(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: matchlab")
        assert err.splitlines()[-1].startswith("matchlab: error: ")


class TestOneProcess:
    """`main` called again and again in one process, on the one parser
    `build_parser` keeps, answers each call as a fresh process would."""

    def test_calls_share_no_state(self, capsys, tmp_path):
        out_path = tmp_path / "cert.json"
        code, out, _ = run(["--format", "json", "--out", str(out_path), "certify", "7"], capsys)
        assert (code, out) == (0, "")
        code, out, _ = run(["certify", "7"], capsys)
        assert code == 0
        assert out == out_path.read_text()

        code, out, _ = run(["--format", "csv", "report", "1..2"], capsys)
        assert code == 0
        assert out.startswith("n,verdict,evidence,")
        code, out, _ = run(["report", "1..2"], capsys)
        assert code == 0
        assert out.splitlines()[0].split() == ["n", "verdict", "evidence", "matchings", "min_coeff"]
        assert out.splitlines()[2].split() == ["2", "holds", "exhaustive"]

        code, out, err = run(["--format", "xml", "certify", "9"], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("matchlab: error: argument --format: ")
        code, out, err = run(["classify", "7"], capsys)
        assert (code, out, err) == (0, "Z/7Z: fails (coprime6_failure)\n", "")

        code, out, _ = run(["enumerate", "7", "--a", "0,1,3", "--b", "1,2,4"], capsys)
        assert code == 0
        assert out.startswith("Z/7Z A=[0, 1, 3] B=[1, 2, 4]\n")
        code, out, _ = run(["genfun", "7", "2"], capsys)
        assert (code, out) == (0, "2*c0*c1*c3^2\n")

        assert cli.build_parser() is cli.build_parser()


_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters())
_SCALARS = (st.none() | st.booleans() | st.integers(min_value=-2**70, max_value=2**70)
            | st.floats() | st.sampled_from([float("nan"), float("inf"), -0.0]) | _TEXT)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.lists(st.integers() | st.just(True))
                      | st.dictionaries(_TEXT, children) | st.dictionaries(st.integers(), children)),
    max_leaves=25,
)


class TestJsonRendering:
    """JSON output is byte for byte `json.dumps(payload, indent=2,
    sort_keys=True)`, written without `json`'s pure-Python encoder."""

    @settings(max_examples=150, deadline=None)
    @given(_JSON_VALUES)
    @example([1, True])
    @example({"a": [], "b": {}, "c": (), "d": [2**64, -1, 0]})
    @example({1: [1, 2], 2: {"x": None}})
    def test_writer_is_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "120"],
            ["certify", "13"],
            ["--format", "json", "genfun", "100", "2", "--check"],
            ["--format", "json", "enumerate", "7", "--a", "0,1,3", "--b", "1,2,4"],
        ],
        ids=["certify-composite", "certify-coprime6", "genfun-check", "enumerate"],
    )
    def test_verbs_render_without_the_stdlib_encoder(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("json's indented encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        code, out, _ = run(argv, capsys)
        monkeypatch.undo()
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def _readme_cli_examples() -> list[str]:
    """The `matchlab ...` lines of README's CLI block, comments dropped."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    return [line.split("#")[0].strip() for line in block.splitlines()
            if line.startswith("matchlab ")]


@pytest.mark.parametrize("line", _readme_cli_examples())
def test_readme_cli_example_exits_0(capsys, line):
    code, out, _ = run(shlex.split(line)[1:], capsys)
    assert code == 0
    assert out
