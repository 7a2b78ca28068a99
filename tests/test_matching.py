import itertools

import pytest
from hypothesis import given, settings, strategies as st

import matchlab.matching
from matchlab.errors import BoundExceededError
from matchlab.groups import cyclic, integers, units
from matchlab.matching import (
    SubsetPair,
    acyclicity_report,
    enumerate_matchings,
    is_matching,
    iter_valid_pairs,
    large_set_check,
    matching_exists,
    multiplicity,
    verify_group_amp,
)


@st.composite
def integer_pairs(draw, max_size=4):
    k = draw(st.integers(min_value=1, max_value=max_size))
    universe = list(range(-6, 7))
    a = draw(st.sets(st.sampled_from(universe), min_size=k, max_size=k))
    b = draw(
        st.sets(st.sampled_from([x for x in universe if x != 0]), min_size=k, max_size=k)
    )
    return SubsetPair(integers(), tuple(sorted(a)), tuple(sorted(b)))


def reference_report(pair):
    """(total, classes, witness) of `pair` by enumeration and `multiplicity`,
    the route independent of `acyclicity_report`'s walk."""
    sizes, first = {}, {}
    for m in enumerate_matchings(pair):
        key = multiplicity(m)
        sizes[key] = sizes.get(key, 0) + 1
        first.setdefault(key, m.assignment)
    classes = [(key, sizes[key], first[key]) for key in sorted(sizes)]
    witness = next((m for _, size, m in classes if size == 1), None)
    return sum(sizes.values()), classes, witness


def report_summary(pair):
    r = acyclicity_report(pair)
    witness = r.acyclic_witness and r.acyclic_witness.assignment
    return r.total_matchings, [(key, size, m.assignment) for key, size, m in r.classes], witness


def complement_pair(n, a_removed, b_removed):
    return SubsetPair(
        cyclic(n),
        tuple(x for x in range(n) if x not in a_removed),
        tuple(x for x in range(n) if x not in b_removed),
    )


class TestSubsetPair:
    def test_rejects_zero_in_b(self):
        with pytest.raises(ValueError):
            SubsetPair(cyclic(5), (1,), (0,))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            SubsetPair(cyclic(5), (1, 2), (1,))

    def test_rejects_non_canonical(self):
        with pytest.raises(ValueError):
            SubsetPair(cyclic(5), (7,), (1,))

    def test_sorts_elements(self):
        p = SubsetPair(cyclic(7), (3, 1), (4, 2))
        assert p.a == (1, 3) and p.b == (2, 4)

    @pytest.mark.parametrize(
        "pair",
        [SubsetPair(cyclic(7), (0, 1, 3), (1, 2, 4)), SubsetPair(integers(), (-2, 0, 5), (1, 3, 4))],
        ids=["Z/7Z", "Z"],
    )
    def test_engines_store_nothing_on_pair(self, pair):
        is_matching(pair, pair.b)
        matching_exists(pair)
        report = acyclicity_report(pair)
        records = [pair, report.acyclic_witness, *enumerate_matchings(pair),
                   *(m for _, _, m in report.classes)]
        assert len(records) > 2
        assert not any(hasattr(r, "__dict__") for r in records)


class TestIsMatching:
    def test_singleton_valid(self):
        p = SubsetPair(cyclic(3), (1,), (1,))
        assert is_matching(p, (1,))  # 1+1 = 2, not in A

    def test_sum_lands_in_a(self):
        p = SubsetPair(cyclic(3), (1, 2), (1, 2))
        assert not is_matching(p, (1, 2))  # 2+2 = 1 in A

    def test_non_bijection_rejected(self):
        p = SubsetPair(cyclic(7), (2, 4), (3, 4))
        assert not is_matching(p, (3, 3))

    def test_length_mismatch_is_error(self):
        p = SubsetPair(cyclic(7), (2, 4), (3, 4))
        with pytest.raises(ValueError):
            is_matching(p, (3,))

    def test_definition_on_standard_pair(self):
        # any bijection with some sum inside A fails
        p = complement_pair(7, (0, 1, 3), (0, 1, 2))
        for perm in itertools.permutations(p.b):
            expected = all((a + fa) % 7 not in set(p.a) for a, fa in zip(p.a, perm))
            assert is_matching(p, perm) == expected


class TestMultiplicity:
    def test_singleton(self):
        p = SubsetPair(cyclic(3), (1,), (1,))
        (m,) = enumerate_matchings(p)
        assert multiplicity(m) == ((2, 1),)

    def test_standard_pair_z7(self):
        # both matchings of the n=7 standard pair share multiplicity {0:1, 1:1, 3:2}
        p = complement_pair(7, (0, 1, 3), (0, 1, 2))
        ms = list(enumerate_matchings(p))
        assert len(ms) == 2
        for m in ms:
            assert multiplicity(m) == ((0, 1), (1, 1), (3, 2))

    def test_counts_sum_to_size(self):
        for n in (5, 6, 7):
            for pair in iter_valid_pairs(n):
                for m in enumerate_matchings(pair):
                    assert sum(c for _, c in multiplicity(m)) == pair.size


class TestEnumerate:
    def test_z6_standard_pair_single_matching(self):
        p = complement_pair(6, (0, 1, 3), (0, 1, 2))
        ms = list(enumerate_matchings(p))
        assert len(ms) == 1
        assert multiplicity(ms[0]) == ((1, 2), (3, 1))

    def test_trivial_single(self):
        p = SubsetPair(cyclic(3), (1,), (1,))
        assert len(list(enumerate_matchings(p))) == 1

    def test_all_yielded_are_valid_unique_and_sorted(self):
        for n in (5, 6, 7):
            for pair in iter_valid_pairs(n):
                assignments = [m.assignment for m in enumerate_matchings(pair)]
                assert assignments == sorted(assignments)
                assert len(set(assignments)) == len(assignments)
                for a in assignments:
                    assert is_matching(pair, a)

    def test_matches_permutation_brute_force(self):
        # independent oracle: filter all |A|! bijections
        for n in (4, 5, 6):
            for pair in iter_valid_pairs(n):
                expected = sorted(
                    perm
                    for perm in itertools.permutations(pair.b)
                    if is_matching(pair, perm)
                )
                got = [m.assignment for m in enumerate_matchings(pair)]
                assert got == list(expected)

    def test_bound_enforced(self):
        p = complement_pair(8, (0, 1, 3), (0, 1, 2))
        with pytest.raises(BoundExceededError):
            list(enumerate_matchings(p, bound=4))


class TestMatchingExists:
    def test_subgroup_pair_z9(self):
        p = SubsetPair(cyclic(9), (0, 3, 6), (1, 3, 6))
        assert not matching_exists(p)

    def test_prime_order_always_matched(self):
        # cyclic groups of prime order have the matching property
        for p in (2, 3, 5, 7):
            for pair in iter_valid_pairs(p):
                assert matching_exists(pair)

    def test_trivial(self):
        assert matching_exists(SubsetPair(cyclic(3), (1,), (1,)))

    def test_agrees_with_enumeration(self):
        for n in range(2, 7):
            for pair in iter_valid_pairs(n):
                has = any(True for _ in enumerate_matchings(pair))
                assert matching_exists(pair) == has


class TestAcyclicityReport:
    def test_z7_standard_pair_no_witness(self):
        r = acyclicity_report(complement_pair(7, (0, 1, 3), (0, 1, 2)))
        assert r.total_matchings == 2
        assert [count for _, count, _ in r.classes] == [2]
        assert r.acyclic_witness is None

    def test_z5_standard_pair_has_witness(self):
        r = acyclicity_report(SubsetPair(cyclic(5), (2, 4), (3, 4)))
        assert r.acyclic_witness is not None

    def test_witness_is_lex_least_singleton_class(self):
        # both matchings sit alone in their class; (2, 3) comes first in
        # assignment order, but (3, 2) has the lex-least vector {1:1, 3:1}
        r = acyclicity_report(SubsetPair(cyclic(5), (0, 4), (2, 3)))
        assert [(key, count) for key, count, _ in r.classes] == [
            (((1, 1), (3, 1)), 1),
            (((2, 2),), 1),
        ]
        assert r.acyclic_witness.assignment == (3, 2)

    def test_unique_matching_is_witness(self):
        for n in (4, 5, 6):
            for pair in iter_valid_pairs(n):
                r = acyclicity_report(pair)
                if r.total_matchings == 1:
                    assert r.acyclic_witness is not None

    def test_class_counts_sum_to_total(self):
        for n in (5, 6, 7):
            for pair in iter_valid_pairs(n):
                r = acyclicity_report(pair)
                assert sum(count for _, count, _ in r.classes) == r.total_matchings

    def test_report_matches_enumeration(self):
        for n in range(2, 8):
            for pair in iter_valid_pairs(n):
                assert report_summary(pair) == reference_report(pair)

    @settings(max_examples=100, deadline=None)
    @given(integer_pairs(max_size=6))
    def test_report_matches_enumeration_in_z(self, pair):
        assert report_summary(pair) == reference_report(pair)

    @staticmethod
    def assert_lazy_answers_agree(pair):
        answers = []
        for witness_first in (True, False):
            r = acyclicity_report(pair)
            if witness_first:
                witness, classes = r.acyclic_witness, r.classes
            else:
                classes, witness = r.classes, r.acyclic_witness
            assert r.has_acyclic == (witness is not None)
            assert witness == next((m for _, s, m in classes if s == 1), None)
            answers.append((r.total_matchings, r.has_acyclic, witness, classes))
        assert answers[0] == answers[1]

    def test_lazy_answers_agree(self):
        for n in range(2, 8):
            for pair in iter_valid_pairs(n):
                self.assert_lazy_answers_agree(pair)

    @settings(max_examples=100, deadline=None)
    @given(integer_pairs(max_size=6))
    def test_lazy_answers_agree_in_z(self, pair):
        self.assert_lazy_answers_agree(pair)

    def test_bound_enforced(self):
        p = complement_pair(8, (0, 1, 3), (0, 1, 2))
        with pytest.raises(BoundExceededError):
            acyclicity_report(p, bound=p.size - 1)

    def test_symmetry_soundness(self):
        # simultaneous unit scaling preserves the class-size multiset
        for n in range(2, 8):
            g = cyclic(n)
            for pair in iter_valid_pairs(n):
                base = sorted(c for _, c, _ in acyclicity_report(pair).classes)
                for u in units(g):
                    image = SubsetPair(
                        g,
                        tuple(u * a % n for a in pair.a),
                        tuple(u * b % n for b in pair.b),
                    )
                    assert sorted(c for _, c, _ in acyclicity_report(image).classes) == base

    @settings(max_examples=50, deadline=None)
    @given(integer_pairs(max_size=6))
    def test_scaling_in_z_keeps_classes(self, pair):
        # in Z, lam*a + lam*b lies in lam*A iff a + b lies in A, so scaling by
        # lam > 0 maps matchings and their classes one to one, at any width
        lam = 2**40
        scaled = SubsetPair(
            pair.group, tuple(lam * a for a in pair.a), tuple(lam * b for b in pair.b)
        )
        report, scaled_report = acyclicity_report(pair), acyclicity_report(scaled)
        assert scaled_report.total_matchings == report.total_matchings
        assert [c for _, c, _ in scaled_report.classes] == [
            c for _, c, _ in report.classes
        ]


class TestVerifyGroupAmp:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_holds_for_small_primes(self, n):
        assert verify_group_amp(cyclic(n)).holds

    def test_z7_counterexample(self):
        r = verify_group_amp(cyclic(7))
        assert not r.holds
        # minimal counterexample found by exhaustive search in deterministic order
        assert r.counterexample.a == (0, 1, 3)
        assert r.counterexample.b == (1, 2, 4)
        assert r.counterexample.size == 3

    @pytest.mark.parametrize("n", range(2, 8))
    def test_symmetry_reduction_preserves_result(self, n):
        assert verify_group_amp(cyclic(n), use_symmetry=True) == verify_group_amp(
            cyclic(n), use_symmetry=False
        )

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            verify_group_amp(cyclic(9), exhaustive_bound=8)

    def test_units_computed_once_per_call(self, monkeypatch):
        calls = []

        def counted_units(g):
            calls.append(g)
            return units(g)

        monkeypatch.setattr(matchlab.matching, "units", counted_units)
        verify_group_amp(cyclic(7), use_symmetry=True)
        assert calls == [cyclic(7)]


class TestLargeSetCheck:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_passes_small_orders(self, n):
        assert large_set_check(cyclic(n))

    def test_bound_enforced(self):
        with pytest.raises(BoundExceededError):
            large_set_check(cyclic(9), exhaustive_bound=8)


@settings(max_examples=200, deadline=None)
@given(integer_pairs())
def test_integer_subsets_always_acyclically_matched(pair):
    # torsion-free behavior: small subsets of Z never lack an acyclic matching
    assert acyclicity_report(pair).has_acyclic
