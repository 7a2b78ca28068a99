import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import matchlab.matching
from matchlab.errors import BoundExceededError
from matchlab.groups import cyclic, integers, units
from matchlab.matching import (
    WALK_DEGREE_PRODUCT,
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


def degree_product(pair):
    """Product over A of the number of partners each element may take."""
    a_set = set(pair.a)
    return math.prod(sum(pair.group.add(a, b) not in a_set for b in pair.b) for a in pair.a)


def count_matchings(pair):
    """Number of matchings, by a DP over the set of elements of B used."""
    a_set = set(pair.a)
    ways = {frozenset(): 1}
    for a in pair.a:
        nxt = {}
        for used, count in ways.items():
            for b in pair.b:
                if b not in used and pair.group.add(a, b) not in a_set:
                    nxt[used | {b}] = nxt.get(used | {b}, 0) + count
        ways = nxt
    return sum(ways.values())


@pytest.fixture
def walks(monkeypatch):
    """The calls made to the walk over every matching."""
    calls = []
    walk = matchlab.matching._walk

    def counted(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(matchlab.matching, "_walk", counted)
    return calls


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

    def test_report_matches_enumeration(self, walks):
        # |A| runs from 1 (no second half to complete) to 7, odd and even;
        # every pair is walked, as a row of Z/nZ has at most n - k partners
        pairs = 0
        for n in range(2, 9):
            for pair in iter_valid_pairs(n):
                assert report_summary(pair) == reference_report(pair)
                pairs += 1
        assert len(walks) == pairs

    @staticmethod
    def assert_matches_reference(pair, walks):
        """Check every answer against `reference_report`, the witness both
        before and after `classes` is read; True when the search answered
        without walking."""
        total, classes, witness = reference_report(pair)
        searched = []
        for witness_first in (True, False):
            walks.clear()
            r = acyclicity_report(pair)
            searched.append(not walks)
            assert r.total_matchings == total
            assert r.has_acyclic == (witness is not None)
            if witness_first:
                got = r.acyclic_witness
            assert [(key, size, m.assignment) for key, size, m in r.classes] == classes
            if not witness_first:
                got = r.acyclic_witness
            assert (got and got.assignment) == witness
            # on the search side `classes` walks; on the walk side the report did
            assert len(walks) == 1
        assert searched[0] == searched[1]
        return searched[0]

    def test_report_matches_enumeration_on_dense_pairs_in_z(self, walks):
        # pairs with hundreds to thousands of matchings, whose completions
        # are reused; every degree product is above the walk's limit, and
        # the search answers all but the two pairs with 251 and 656
        # matchings, which exceed their budgets and fall back
        rng = random.Random(8)
        universe = range(-9, 10)
        searched = 0
        for k in (7, 8, 9):
            for _ in range(5):
                pair = SubsetPair(
                    integers(),
                    tuple(rng.sample(universe, k)),
                    tuple(rng.sample([x for x in universe if x != 0], k)),
                )
                assert degree_product(pair) > WALK_DEGREE_PRODUCT
                searched += self.assert_matches_reference(pair, walks)
        assert searched == 13

    def test_dense_pair_in_z19_falls_back_to_the_walk(self, walks):
        # 8 allowed sums shared by 11 elements: the search's c-subsets of
        # each sum's edges outgrow its budget
        pair = SubsetPair(
            cyclic(19),
            (3, 4, 5, 6, 7, 8, 13, 14, 15, 16, 17),
            (2, 4, 5, 6, 7, 9, 13, 14, 15, 17, 18),
        )
        assert degree_product(pair) > WALK_DEGREE_PRODUCT
        assert not self.assert_matches_reference(pair, walks)

    def test_search_exhausts_when_no_class_is_a_singleton(self, walks):
        # Z/7Z's counterexample (0, 1, 3) -> (1, 2, 4) beside Z/7Z x {1} on
        # both sides, in Z/14Z = Z/7Z x Z/2Z: no edge joins the two parts, so
        # every class is built on the first part's one class, of size 2.
        # Listing every class costs the search 13,610 states against a
        # budget of 288 // 16, so the report falls back to the walk; without
        # a budget the search runs out of classes
        pair = SubsetPair(
            cyclic(14), (0, 1, 3, 5, 7, 8, 9, 10, 11, 13), (1, 2, 3, 4, 5, 7, 8, 9, 11, 13)
        )
        assert degree_product(pair) > WALK_DEGREE_PRODUCT
        assert not self.assert_matches_reference(pair, walks)
        options, sums, _ = matchlab.matching._edge_table(pair)
        assert matchlab.matching._search(options, sums, 10**6) is None

    def test_count_answers_a_pair_without_matchings(self, walks):
        # above the walk's limit, but the count finds no matching, so the
        # report neither searches nor walks
        pair = SubsetPair(cyclic(14), (1, 3, 5, 7, 8, 9, 11, 13), (2, 3, 4, 6, 7, 9, 12, 13))
        assert degree_product(pair) > WALK_DEGREE_PRODUCT
        assert self.assert_matches_reference(pair, walks)

    def test_search_answers_a_pair_the_walk_cannot_finish(self):
        # 228,732,066 matchings: the walk would visit every one of them
        pair = SubsetPair(
            integers(),
            (-12, -11, -10, -9, -8, -7, -4, -2, 4, 5, 6, 9, 11, 12),
            (-11, -9, -7, -5, -4, -1, 1, 2, 3, 5, 7, 8, 10, 12),
        )
        r = acyclicity_report(pair)
        assert r.total_matchings == count_matchings(pair)
        assert r.has_acyclic
        assert is_matching(pair, r.acyclic_witness.assignment)

    def test_single_matching_at_size_20(self):
        # a + f(a) must leave A = {0..19}, so f(a) = 20 - a is the only
        # matching; completions are walked only for the sets of B that a
        # prefix leaves, which here is one set
        pair = SubsetPair(integers(), tuple(range(20)), tuple(range(1, 21)))
        r = acyclicity_report(pair)
        assert r.total_matchings == 1
        assert r.has_acyclic
        assert r.acyclic_witness.assignment == tuple(range(20, 0, -1))

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
