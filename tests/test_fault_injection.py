"""Fault injection: every check that sets a certificate's ``verified`` fails
when the route behind it gives a wrong answer, the certificate names it in
``failed_checks``, and the CLI exits 1."""

import json
from types import SimpleNamespace

import pytest

from matchlab import certify, genfun, matching
from matchlab.certify import classify, failure_certificate
from matchlab.cli import main
from matchlab.errors import VerificationFailure
from matchlab.genfun import C1, ZERO, GenPoly, transfer_genfun
from matchlab.groups import integers


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _first_coefficient_set_to_1(poly: GenPoly) -> GenPoly:
    terms = dict(poly.items())
    terms[min(terms)] = 1
    return GenPoly(terms)


def _break_transfer(monkeypatch):
    transfer = genfun.transfer_genfun
    monkeypatch.setattr(
        genfun, "transfer_genfun", lambda n, m: _first_coefficient_set_to_1(transfer(n, m))
    )


def _break_brute(monkeypatch):
    brute = genfun.brute_genfun
    monkeypatch.setattr(
        genfun, "brute_genfun", lambda n, m: _first_coefficient_set_to_1(brute(n, m))
    )


def _every_route_has_a_coefficient_of_1(monkeypatch):
    # the routes still agree, so only the minimum can catch it
    by_method = genfun.genfun_by_method
    monkeypatch.setattr(
        genfun,
        "genfun_by_method",
        lambda method, n, m: _first_coefficient_set_to_1(by_method(method, n, m)),
    )


def _augmenting_paths_find_a_matching(monkeypatch):
    monkeypatch.setattr(certify, "matching_exists", lambda pair: True)


def _every_translate_leaves_a(monkeypatch):
    # every rotation of A's mask lands outside A, so N(A) = B; augmenting
    # paths rotate nothing, so they keep their right answer
    monkeypatch.setattr(certify, "_rotate", lambda mask, k, n: ~mask & ((1 << n) - 1))


def _rotation_keeps_high_bits(monkeypatch):
    # in Z/9Z, 3 + 6 = 9 lands on bit 9, not on bit 0, and so leaves <3>:
    # N(A) = B
    monkeypatch.setattr(certify, "_rotate", lambda mask, k, n: (mask << k) | (mask >> (n - k)))


FAULTS = [
    ("closed_form_matches_transfer", 13, _break_transfer),
    ("matches_brute_genfun", 13, _break_brute),
    ("all_coefficients_ge_2", 13, _every_route_has_a_coefficient_of_1),
    ("no_matching_augmenting_paths", 9, _augmenting_paths_find_a_matching),
    ("hall_violation", 9, _every_translate_leaves_a),
    ("hall_violation", 9, _rotation_keeps_high_bits),
]
# the first fault on a key is named by the key alone
FAULT_IDS = ["hall_violation-unreduced_translate" if fault is _rotation_keeps_high_bits
             else key for key, _, fault in FAULTS]


@pytest.mark.parametrize("key,n,fault", FAULTS, ids=FAULT_IDS)
def test_fault_fails_its_check_alone(monkeypatch, key, n, fault):
    evidence = failure_certificate(n).evidence
    assert all(evidence["checks"].values()) and "failed_checks" not in evidence
    fault(monkeypatch)
    cert = failure_certificate(n)
    assert cert.verified is False
    assert cert.evidence["checks"][key] is False
    assert cert.evidence["failed_checks"] == [key]


@pytest.mark.parametrize("key,n,fault", FAULTS, ids=FAULT_IDS)
def test_fault_exits_1_with_the_evidence(monkeypatch, capsys, key, n, fault):
    fault(monkeypatch)
    code, out, _ = run(["certify", str(n)], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["verified"] is False
    assert payload["evidence"]["failed_checks"] == [key]
    for argv in (["classify", str(n)], ["report", f"{n}..{n}"]):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        prefix = f"verification failure: evidence for Z/{n}Z failed to verify: "
        assert err.startswith(prefix)
        inner = json.loads(err.removeprefix(prefix))
        assert inner["verified"] is False
        assert inner["evidence"]["failed_checks"] == [key]


def test_genfun_check_disagreement_exits_1(monkeypatch, capsys):
    closed = genfun.closed_form_m2
    monkeypatch.setattr(genfun, "closed_form_m2", lambda n: closed(n) + C1)
    code, out, err = run(["genfun", "7", "2", "--check"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("verification failure: method disagreement: ")
    dump = json.loads(err.removeprefix("verification failure: method disagreement: "))
    assert dump == {"transfer": "2*c0*c1*c3^2", "brute": "2*c0*c1*c3^2",
                    "closed": "c1 + 2*c0*c1*c3^2"}


def test_integer_sample_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(
        certify, "acyclicity_report", lambda pair: SimpleNamespace(has_acyclic=False)
    )
    cert = classify(integers())
    assert cert.verified is False
    assert len(cert.evidence["failures"]) == cert.evidence["samples"]
    code, out, _ = run(["classify", "Z"], capsys)
    assert code == 1
    assert out == "Z: fails (torsion_free_sampled); first failure A=[1] B=[1]\n"


def test_failed_exhaustive_check_names_its_pair(monkeypatch, capsys):
    # no pair with |A| >= 2 has an acyclic matching; the first in sweep order
    # is A = {0, 1}, B = {1, 2}
    report = matching.acyclicity_report
    monkeypatch.setattr(
        matching,
        "acyclicity_report",
        lambda pair: report(pair) if pair.size < 2 else SimpleNamespace(has_acyclic=False),
    )
    code, out, _ = run(["classify", "5"], capsys)
    assert code == 1
    assert out == "Z/5Z: fails (exhaustive); counterexample A=[0, 1] B=[1, 2]\n"
    code, out, _ = run(["--format", "json", "classify", "5"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["verified"] is False
    assert payload["evidence"]["holds"] is False
    assert payload["evidence"]["counterexample"] == {"a": [0, 1], "b": [1, 2]}
    code, out, _ = run(["--format", "json", "report", "5"], capsys)
    assert code == 1
    row = json.loads(out)["rows"][0]
    assert row["verified"] is False
    assert row["counterexample"] == {"a": [0, 1], "b": [1, 2]}
    code, out, _ = run(["report", "5"], capsys)
    assert code == 1
    assert out.splitlines()[1].endswith(" A=[0, 1] B=[1, 2]")
    # the header takes the counterexample column from a row after the first
    code, out, _ = run(["--format", "csv", "report", "4..5"], capsys)
    assert code == 1
    assert out.splitlines() == [
        "n,verdict,evidence,matchings,min_coefficient,verified,counterexample",
        "4,fails,nonprime_failure,0,,True,",
        '5,fails,exhaustive,,,False,"{""a"": [0, 1], ""b"": [1, 2]}"',
    ]


def _break_step_matrix(monkeypatch):
    # c3 read as c1 in the first row: w0 + w1 + w3 still counts the steps,
    # but 2*w0 + w1 + 1 = w3 + m no longer holds
    monkeypatch.setattr(genfun, "STEP_MATRIX", ((ZERO, C1, ZERO), *genfun.STEP_MATRIX[1:]))


def test_transfer_rejects_a_step_matrix_that_breaks_the_exponent_constraints(monkeypatch):
    _break_step_matrix(monkeypatch)
    with pytest.raises(VerificationFailure, match="violates exponent constraints"):
        transfer_genfun(10, 2)


@pytest.mark.parametrize("argv", [["certify", "13"], ["genfun", "10", "2"]])
def test_broken_step_matrix_exits_1_without_a_traceback(monkeypatch, capsys, argv):
    _break_step_matrix(monkeypatch)
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("verification failure: term (")
    assert "violates exponent constraints" in err
    assert "Traceback" not in err


def test_brute_rejects_a_sum_outside_0_1_3(monkeypatch, capsys):
    stray = (((0, 1), (2, 3)), 1, None)
    monkeypatch.setattr(genfun, "acyclicity_report", lambda pair: SimpleNamespace(classes=[stray]))
    code, out, err = run(["genfun", "7", "2", "--method", "brute"], capsys)
    assert code == 1
    assert out == ""
    assert err == ("verification failure: class ((0, 1), (2, 3)) has sums [2] outside {0,1,3}"
                   " for n=7, m=2\n")
