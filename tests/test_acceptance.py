"""Acceptance criteria, one test per criterion.

Each test prints one `[PASS]`/`[FAIL]` line (visible with `pytest -s` or on
failure) and enforces the stated wall-clock budget.
"""

import subprocess
import sys
import time

import pytest

from matchlab.certify import certify_coprime6, nonprime_counterexample, spot_check_integers
from matchlab.genfun import (
    binomial_family,
    brute_genfun,
    closed_form_m2,
    closed_form_m6,
    recurrence_check,
    standard_pair,
    transfer_genfun,
)
from matchlab.groups import cyclic
from matchlab.matching import (
    SubsetPair,
    acyclicity_report,
    iter_valid_pairs,
    matching_exists,
    verify_group_amp,
)


def timed(label, budget_s, check):
    start = time.perf_counter()
    try:
        check()
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"[FAIL] {label} (took {elapsed:.1f}s, budget {budget_s}s)")
        pytest.fail(f"{label}: exceeded time budget ({elapsed:.1f}s > {budget_s}s)")
    print(f"[PASS] {label} ({elapsed:.2f}s)")


def test_criterion_1_genfun_base_cases(capsys):
    def check():
        expected = {6: "c1^2*c3", 7: "2*c0*c1*c3^2", 8: "c1^3*c3^2 + c0^2*c3^3"}
        for n, text in expected.items():
            proc = subprocess.run(
                [sys.executable, "-m", "matchlab", "genfun", str(n), "2", "--method", "transfer"],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == text

    with capsys.disabled():
        timed("criterion 1: transfer-matrix base cases via CLI", 1.0, check)


def test_criterion_2_oracle_equivalence(capsys):
    def check():
        for n in range(6, 17):
            assert transfer_genfun(n, 2) == brute_genfun(n, 2)
        for n in range(10, 17):
            assert transfer_genfun(n, 6) == brute_genfun(n, 6)

    with capsys.disabled():
        timed("criterion 2: transfer = brute-force enumeration", 300.0, check)


def test_criterion_3_closed_form_equivalence(capsys):
    def check():
        for n in range(6, 21):
            assert closed_form_m2(n) == transfer_genfun(n, 2)
        for n in range(10, 21):
            assert closed_form_m6(n) == transfer_genfun(n, 6)

    with capsys.disabled():
        timed("criterion 3: binomial closed forms = transfer", 10.0, check)


def test_criterion_4_recurrence(capsys):
    def check():
        assert recurrence_check([transfer_genfun(n, 2) for n in range(6, 14)])
        assert recurrence_check([transfer_genfun(n, 6) for n in range(10, 18)])
        for d, e, m in [(0, 0, 2), (2, 0, 6), (1, 1, 3)]:
            seq = [binomial_family(n, d, e, m) for n in range(m + 4, m + 12)]
            assert recurrence_check(seq)

    with capsys.disabled():
        timed("criterion 4: cubic linear recurrence", 10.0, check)


def test_criterion_5_positive_classification(capsys):
    def check():
        for n in (2, 3, 5):
            with_sym = verify_group_amp(cyclic(n), use_symmetry=True)
            without = verify_group_amp(cyclic(n), use_symmetry=False)
            assert with_sym.holds and without.holds
            assert with_sym.counterexample == without.counterexample is None

    with capsys.disabled():
        timed("criterion 5: property holds exhaustively for n = 2, 3, 5", 60.0, check)


def test_criterion_6_negative_classification(capsys):
    def check():
        for n in (7, 11, 13):
            cert = certify_coprime6(n)
            assert cert.verified
            assert cert.evidence["min_coefficient"] >= 2
        for n in (7, 11):
            report = acyclicity_report(standard_pair(n, 2 if n % 6 == 1 else 6))
            assert report.total_matchings > 0
            assert all(count >= 2 for _, count, _ in report.classes)
            assert report.acyclic_witness is None

    with capsys.disabled():
        timed("criterion 6: failure certificates for n = 7, 11, 13", 300.0, check)


def test_criterion_7_nonprime_failures(capsys):
    def check():
        for n in (4, 6, 8, 9, 10, 12):
            cert = nonprime_counterexample(n)
            assert cert.verified
            pair = SubsetPair(
                cyclic(n),
                tuple(cert.evidence["pair"]["a"]),
                tuple(cert.evidence["pair"]["b"]),
            )
            assert not matching_exists(pair)

    with capsys.disabled():
        timed("criterion 7: subgroup pairs unmatched for composite n", 1.0, check)


def test_criterion_8_large_set_property(capsys):
    def check():
        for n in range(3, 9):
            for pair in iter_valid_pairs(n):
                if pair.size >= n - 2:
                    report = acyclicity_report(pair)
                    assert report.total_matchings == 0 or report.has_acyclic, pair

    with capsys.disabled():
        timed("criterion 8: near-full-size matched pairs are acyclically matched", 120.0, check)


def test_criterion_9_torsion_free_spot_check(capsys):
    def check():
        result = spot_check_integers()
        assert result["samples"] == 500
        assert result["failures"] == []

    with capsys.disabled():
        timed("criterion 9: 500 seeded integer pairs all acyclically matched", 60.0, check)
