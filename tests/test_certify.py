import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from matchlab import certify
from matchlab.certify import (
    CERTIFICATE_SCHEMA_VERSION,
    certify_coprime6,
    classify,
    failure_certificate,
    nonprime_counterexample,
    sample_integer_pairs,
    spot_check_integers,
)
from matchlab.genfun import GenPoly, standard_pair, transfer_genfun
from matchlab.groups import GroupCtx, cyclic, integers
from matchlab.matching import SubsetPair, acyclicity_report, matching_exists, verify_group_amp

import random


class TestCertifyCoprime6:
    def test_n7_case1(self):
        cert = certify_coprime6(7)
        assert cert.verified
        ev = cert.evidence
        assert ev["case"] == 1 and ev["m"] == 2
        assert GenPoly.from_json_terms(ev["genfun"]) == GenPoly.monomial(1, 1, 2, 2)
        assert ev["min_coefficient"] == 2
        assert ev["enumeration"] == {"total_matchings": 2}

    def test_n11_case2_with_enumeration(self):
        cert = certify_coprime6(11)
        assert cert.verified
        ev = cert.evidence
        assert ev["case"] == 2 and ev["m"] == 6
        assert ev["min_coefficient"] >= 2
        assert ev["enumeration"] is not None
        assert ev["checks"]["matches_brute_genfun"] is True

    @pytest.mark.parametrize("n", [17, 19, 23])
    def test_enumerates_while_a_is_within_the_enumeration_bound(self, n):
        # |A| = n - 3 is at most the enumeration bound of 20
        cert = certify_coprime6(n)
        assert cert.verified
        ev = cert.evidence
        genfun = GenPoly.from_json_terms(ev["genfun"])
        assert ev["enumeration"]["total_matchings"] == genfun.total()
        assert ev["checks"]["matches_brute_genfun"] is True

    @pytest.mark.parametrize("n", [7, 11, 13, 17, 19, 23])
    def test_enumeration_block_matches_the_report(self, n):
        ev = certify_coprime6(n).evidence
        report = acyclicity_report(standard_pair(n, ev["m"]))
        assert ev["enumeration"] == {"total_matchings": report.total_matchings}

    def test_n25_closed_form_only(self):
        cert = certify_coprime6(25)
        assert cert.verified
        assert cert.evidence["enumeration"] is None
        assert cert.evidence["min_coefficient"] >= 2

    @pytest.mark.parametrize("n", [n for n in range(7, 36) if math.gcd(n, 6) == 1])
    def test_all_in_range_verify(self, n):
        cert = certify_coprime6(n)
        assert cert.verified
        assert cert.evidence["min_coefficient"] >= 2

    @pytest.mark.parametrize(
        "n,keys",
        [(13, {"all_coefficients_ge_2", "closed_form_matches_transfer", "matches_brute_genfun"}),
         (25, {"all_coefficients_ge_2", "closed_form_matches_transfer"})],
    )
    def test_checks_each_fact_once(self, n, keys):
        ev = certify_coprime6(n).evidence
        assert ev["checks"] == dict.fromkeys(keys, True)

    def test_polynomial_evidence_reverifies(self):
        for n in (7, 11, 13):
            ev = certify_coprime6(n).evidence
            assert GenPoly.from_json_terms(ev["genfun"]) == transfer_genfun(n, ev["m"])

    @pytest.mark.parametrize("n", [5, 6, 9, 12])
    def test_precondition(self, n):
        with pytest.raises(ValueError):
            certify_coprime6(n)


class TestNonprimeCounterexample:
    def test_n9_matches_subgroup_construction(self):
        cert = nonprime_counterexample(9)
        assert cert.verified
        assert cert.evidence["pair"] == {"a": [0, 3, 6], "b": [1, 3, 6]}

    def test_n4(self):
        cert = nonprime_counterexample(4)
        assert cert.verified
        assert cert.evidence["pair"] == {"a": [0, 2], "b": [1, 2]}

    def test_n6(self):
        cert = nonprime_counterexample(6)
        assert cert.verified
        assert cert.evidence["generator"] == 2
        assert cert.evidence["pair"] == {"a": [0, 2, 4], "b": [1, 2, 4]}

    @pytest.mark.parametrize("n", [4, 6, 8, 9, 10, 12, 14, 15, 16])
    def test_pair_reverifies_unmatched(self, n):
        cert = nonprime_counterexample(n)
        assert cert.verified
        pair = SubsetPair(
            cyclic(n), tuple(cert.evidence["pair"]["a"]), tuple(cert.evidence["pair"]["b"])
        )
        assert not matching_exists(pair)
        assert cert.evidence["neighbourhood"] == [cert.evidence["extra_element"]]

    @pytest.mark.parametrize("n", [42, 63, 166])
    def test_hall_violator_past_the_enumeration_bound(self, n):
        # |A| = n / 2 or n / 3 exceeds the enumeration bound of 20
        cert = nonprime_counterexample(n)
        assert cert.verified
        assert len(cert.evidence["pair"]["a"]) > 20
        assert cert.evidence["neighbourhood"] == [1]
        assert cert.evidence["checks"] == {
            "no_matching_augmenting_paths": True,
            "hall_violation": True,
        }

    @pytest.mark.parametrize("n", [1, 2, 7, 13])
    def test_precondition(self, n):
        with pytest.raises(ValueError):
            nonprime_counterexample(n)

    def test_generator_is_the_least_prime_factor(self):
        for n in range(2, 200):
            least = next(d for d in range(2, n + 1) if n % d == 0)
            if least < n:
                assert nonprime_counterexample(n).evidence["generator"] == least
            else:
                with pytest.raises(ValueError, match=rf"^n = {n} is prime; "):
                    nonprime_counterexample(n)

    @pytest.mark.parametrize("n", [-3, 0, 1, 2, 3, 5])
    def test_no_failure_certificate_below_6(self, n):
        with pytest.raises(ValueError, match=rf"^need n > 5 coprime to 6, got {n}$"):
            failure_certificate(n)

    def test_each_route_pays_for_its_own_sums(self, monkeypatch):
        # n = 2000: A = <2>, B = (<2> u {1}) \ {0}, |A| = |B| = 1000.
        # Augmenting paths add one sum at a time and stop at the second
        # element of A; Hall's route adds nothing and rotates A's mask once
        # per b.  Neither route calls into the other.
        calls = {"add": 0, "rotate": 0, "matching_exists": 0}
        inside_matching_exists = []
        add, rotate, exists = GroupCtx.add, certify._rotate, certify.matching_exists

        def counted_add(self, x, y):
            assert inside_matching_exists
            calls["add"] += 1
            return add(self, x, y)

        def counted_rotate(mask, k, n):
            assert not inside_matching_exists
            calls["rotate"] += 1
            return rotate(mask, k, n)

        def counted_exists(pair):
            calls["matching_exists"] += 1
            inside_matching_exists.append(True)
            try:
                return exists(pair)
            finally:
                inside_matching_exists.pop()

        monkeypatch.setattr(GroupCtx, "add", counted_add)
        monkeypatch.setattr(certify, "_rotate", counted_rotate)
        monkeypatch.setattr(certify, "matching_exists", counted_exists)
        cert = nonprime_counterexample(2000)
        assert cert.verified
        size_b = len(cert.evidence["pair"]["b"])
        assert size_b == 1000
        assert cert.evidence["neighbourhood"] == [1]
        assert calls == {"add": 2 * size_b, "rotate": size_b, "matching_exists": 1}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_neighbourhood_is_the_brute_force_rule(data):
    # any A, B of Z/nZ, not only subgroup pairs; past n = 64 the mask
    # spans more than one machine word
    n = data.draw(st.integers(min_value=1, max_value=72))
    subset = st.lists(st.integers(min_value=0, max_value=n - 1), unique=True)
    a = tuple(sorted(data.draw(subset)))
    b = tuple(sorted(data.draw(subset)))
    expected = [t for t in b if any((y + t) % n not in a for y in a)]
    assert certify._neighbourhood(n, a, b) == expected


class TestClassify:
    @pytest.mark.parametrize("n,holds", [(2, True), (3, True), (5, True),
                                         (4, False), (6, False), (7, False), (8, False)])
    def test_agrees_with_exhaustive_ground_truth(self, n, holds):
        cert = classify(cyclic(n))
        assert cert.verified
        assert cert.evidence["holds"] is holds
        # fully independent check of the verdict for orders in exhaustive range
        assert verify_group_amp(cyclic(n)).holds is holds

    def test_trivial_group_vacuous(self):
        cert = classify(cyclic(1))
        assert cert.verified
        assert cert.evidence["holds"] and cert.evidence["vacuous"]

    def test_cyclic_12_nonprime_evidence(self):
        cert = classify(cyclic(12))
        assert cert.verified
        assert cert.evidence["method"] == "nonprime_failure"

    def test_cyclic_7_coprime6_evidence(self):
        cert = classify(cyclic(7))
        assert cert.verified
        assert cert.evidence["method"] == "coprime6_failure"

    def test_cyclic_25_composite_coprime_to_6(self):
        cert = classify(cyclic(25))
        assert cert.verified
        assert cert.evidence["holds"] is False

    def test_integers_sampled(self):
        cert = classify(integers())
        assert cert.verified
        assert cert.evidence["holds"]
        assert cert.evidence["seed"] == 20240601
        assert cert.evidence["failures"] == []

    def test_json_schema(self):
        blob = json.loads(json.dumps(classify(cyclic(7)).to_json_dict()))
        assert blob["schema_version"] == CERTIFICATE_SCHEMA_VERSION
        assert set(blob) == {"schema_version", "claim", "descriptor", "verified", "evidence"}


class TestIntegerSpotCheck:
    def test_deterministic_given_seed(self):
        assert spot_check_integers() == spot_check_integers()

    def test_sampled_pairs_are_valid(self):
        rng = random.Random(3)
        for pair in sample_integer_pairs(rng, 50):
            assert 1 <= pair.size <= 5
            assert 0 not in pair.b
            assert all(-6 <= x <= 6 for x in pair.a + pair.b)

    def test_no_failures_at_default_scale(self):
        result = spot_check_integers()
        assert (result["seed"], result["samples"], result["max_size"], result["element_span"]) == (
            20240601, 500, 5, 6
        )
        assert result["failures"] == []
