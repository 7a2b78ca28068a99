import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import matchlab.matching
from matchlab.errors import BoundExceededError
from matchlab.groups import GroupCtx, cyclic, integers, units
from matchlab.matching import (
    PACKED_COUNT_BITS,
    WALK_DEGREE_PRODUCT,
    SubsetPair,
    acyclicity_report,
    is_matching,
    iter_valid_pairs,
    matching_exists,
    verify_group_amp,
)
from reference import matchings, multiplicity, reference_report


@st.composite
def integer_pairs(draw, max_size=4, span=6):
    k = draw(st.integers(min_value=1, max_value=max_size))
    universe = list(range(-span, span + 1))
    a = draw(st.sets(st.sampled_from(universe), min_size=k, max_size=k))
    b = draw(
        st.sets(st.sampled_from([x for x in universe if x != 0]), min_size=k, max_size=k)
    )
    return SubsetPair(integers(), tuple(sorted(a)), tuple(sorted(b)))


@st.composite
def searched_pairs(draw):
    """A pair of Z with |A| = 7..10, A in a window of |A| + 2 elements and
    B in [-12, 12], or a pair of Z/nZ with n = 11..16 and |A| = n/2..n - 1;
    only pairs whose degree product is above the walk's limit and that have
    1 to 3,000 matchings are kept, so that the walk stays quick."""
    if draw(st.booleans()):
        k = draw(st.integers(7, 10))
        low = draw(st.integers(-12, 11 - k))
        a = draw(st.sets(st.integers(low, low + k + 1), min_size=k, max_size=k))
        b = draw(st.sets(st.sampled_from([x for x in range(-12, 13) if x]),
                         min_size=k, max_size=k))
        group = integers()
    else:
        n = draw(st.integers(11, 16))
        k = draw(st.integers(n // 2, n - 1))
        a = draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k))
        b = draw(st.sets(st.integers(1, n - 1), min_size=k, max_size=k))
        group = cyclic(n)
    pair = SubsetPair(group, tuple(sorted(a)), tuple(sorted(b)))
    assume(degree_product(pair) > WALK_DEGREE_PRODUCT)
    assume(0 < TestCountMatchings.count(pair) <= 3000)
    return pair


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


def class_size(pair, vector):
    """Number of matchings of `pair` with multiplicity vector `vector`
    ((sum, count), ...), by a DP over the rows of A whose state is the set of
    B used and the count still owed per sum.  It goes row by row where the
    search goes sum by sum, and calls no engine code."""
    a_set = set(pair.a)
    rank = {s: r for r, (s, _) in enumerate(vector)}
    ways = {(0, tuple(c for _, c in vector)): 1}
    for a in pair.a:
        nxt = {}
        for (used, owed), count in ways.items():
            for j, b in enumerate(pair.b):
                s = pair.group.add(a, b)
                r = rank.get(s)
                if used >> j & 1 or s in a_set or r is None or not owed[r]:
                    continue
                key = (used | 1 << j, owed[:r] + (owed[r] - 1,) + owed[r + 1:])
                nxt[key] = nxt.get(key, 0) + count
        ways = nxt
    return sum(ways.values())


def witness_class_size(pair, assignment):
    """`class_size` of the class of the matching `assignment`."""
    counts = {}
    for a, b in zip(pair.a, assignment):
        s = pair.group.add(a, b)
        counts[s] = counts.get(s, 0) + 1
    return class_size(pair, tuple(sorted(counts.items())))


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


@pytest.fixture
def adds(monkeypatch):
    """The number of group additions made, as a one-element list."""
    count = [0]
    add = GroupCtx.add

    def counted(self, x, y):
        count[0] += 1
        return add(self, x, y)

    monkeypatch.setattr(GroupCtx, "add", counted)
    return count


def placeable_prefix(pair):
    """The length of the longest prefix of A, ascending, that some injective
    map into B places with every sum a + f(a) outside the whole of A."""
    n = pair.group.modulus
    a_set = set(pair.a)
    rows = [[b for b in pair.b if (a + b) % n not in a_set] for a in pair.a]
    for i in range(len(rows)):
        if not any(len(set(f)) == i + 1 for f in itertools.product(*rows[: i + 1])):
            return i
    return len(rows)


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
        # the message names the first offender of sorted A, then sorted B
        cases = [(5, (7,), (1,), 7), (5, (1,), (-1,), -1), (8, (9, 2, 7), (1, 3, 12), 9),
                 (8, (2, 7), (-3, 1), -3), (8, (2, 5), (1, 8), 8)]
        for n, a, b, bad in cases:
            with pytest.raises(ValueError, match=rf"^element {bad} not canonical in Z/{n}Z$"):
                SubsetPair(cyclic(n), a, b)

    def test_sorts_elements(self):
        for a, b in [((3, 1), (4, 2)), ([3, 1], [4, 2]), ([1, 3], [2, 4])]:
            p = SubsetPair(cyclic(7), a, b)
            assert type(p.a) is tuple and type(p.b) is tuple
            assert p.a == (1, 3) and p.b == (2, 4)

    def test_keeps_the_callers_sorted_tuples(self):
        a, b = (1, 3), (2, 4)
        p = SubsetPair(cyclic(7), a, b)
        assert p.a is a and p.b is b

    def test_valid_pairs_share_one_a_per_distinct_a(self):
        pairs = list(iter_valid_pairs(6))
        assert len(pairs) == 461
        assert len({p.a for p in pairs}) == len({id(p.a) for p in pairs}) == 62

    def test_integers_accept_any_ints(self):
        p = SubsetPair(integers(), (10**30, -(10**30), 0), (-7, 5, 2**70))
        assert p.a == (-(10**30), 0, 10**30) and p.b == (-7, 5, 2**70)

    @pytest.mark.parametrize(
        "pair",
        [SubsetPair(cyclic(7), (0, 1, 3), (1, 2, 4)), SubsetPair(integers(), (-2, 0, 5), (1, 3, 4))],
        ids=["Z/7Z", "Z"],
    )
    def test_engines_store_nothing_on_pair(self, pair):
        is_matching(pair, pair.b)
        matching_exists(pair)
        report = acyclicity_report(pair)
        records = [pair, report.acyclic_witness, *(m for _, _, m in report.classes)]
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
        (m,) = matchings(p)
        assert multiplicity(p, m) == ((2, 1),)

    def test_standard_pair_z7(self):
        # both matchings of the n=7 standard pair share multiplicity {0:1, 1:1, 3:2}
        p = complement_pair(7, (0, 1, 3), (0, 1, 2))
        ms = list(matchings(p))
        assert len(ms) == 2
        for m in ms:
            assert multiplicity(p, m) == ((0, 1), (1, 1), (3, 2))

    def test_counts_sum_to_size(self):
        for n in (5, 6, 7):
            for pair in iter_valid_pairs(n):
                for m in matchings(pair):
                    assert sum(c for _, c in multiplicity(pair, m)) == pair.size


class TestEnumerate:
    def test_z6_standard_pair_single_matching(self):
        p = complement_pair(6, (0, 1, 3), (0, 1, 2))
        ms = list(matchings(p))
        assert len(ms) == 1
        assert multiplicity(p, ms[0]) == ((1, 2), (3, 1))

    def test_trivial_single(self):
        p = SubsetPair(cyclic(3), (1,), (1,))
        assert len(list(matchings(p))) == 1

    def test_all_yielded_are_valid_unique_and_sorted(self):
        for n in (5, 6, 7):
            for pair in iter_valid_pairs(n):
                assignments = list(matchings(pair))
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
                assert list(matchings(pair)) == expected


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
                has = any(True for _ in matchings(pair))
                assert matching_exists(pair) == has

    @pytest.mark.parametrize("n,pairs,matchable", [(7, 1715, 1715), (8, 6434, 6062)])
    def test_agrees_with_enumeration_on_every_pair(self, n, pairs, matchable):
        # the counts are the census fixture's
        answers = [(matching_exists(pair), any(True for _ in matchings(pair)))
                   for pair in iter_valid_pairs(n)]
        assert all(got == want for got, want in answers)
        assert (len(answers), sum(want for _, want in answers)) == (pairs, matchable)

    # (n, A, B, rows): augmenting paths cannot place the rows-th element of
    # A.  The first element always has a partner (B = A - a would hold 0),
    # so the earliest an element can go unplaced is second.
    @pytest.mark.parametrize(
        "n,a,b,rows",
        [
            (9, (0, 3, 6), (1, 3, 6), 2),
            (8, (0, 2, 4, 6), (1, 2, 4, 6), 2),
            (8, (0, 2, 4, 5, 6), (1, 2, 3, 4, 6), 3),
            (8, (0, 1, 4, 5), (1, 2, 3, 4), 4),
            (9, (0, 1, 3, 4, 6, 7), (1, 2, 3, 4, 5, 8), 6),
        ],
        ids=["subgroup-second", "second-of-4", "third-of-5", "last-of-4", "last-of-6"],
    )
    def test_stops_at_the_first_element_it_cannot_place(self, adds, n, a, b, rows):
        pair = SubsetPair(cyclic(n), a, b)
        assert not any(True for _ in matchings(pair))
        assert placeable_prefix(pair) == rows - 1
        adds[0] = 0
        assert matching_exists(pair) is False
        # one row of |B| sums per element the loop reached
        assert adds[0] == rows * len(b)

    def test_builds_one_row_per_element_reached(self, adds):
        for pair in iter_valid_pairs(6):
            prefix = placeable_prefix(pair)
            adds[0] = 0
            exists = matching_exists(pair)
            assert exists == (prefix == pair.size)
            assert adds[0] == min(prefix + 1, pair.size) * pair.size


class TestCountMatchings:
    @staticmethod
    def count(pair):
        return matchlab.matching._count_matchings(matchlab.matching._edge_table(pair)[0])

    @pytest.mark.parametrize("k, packed", [(9, True), (12, True), (13, False)])
    def test_complete_pair_has_k_factorial_matchings(self, k, packed):
        # every sum lies in [100, 100 + 2k - 2], outside A, so every
        # bijection is a matching; 12 is the largest size counted in one
        # packed int, 13 counts in a dict
        assert ((math.factorial(k).bit_length() + 1) << k <= PACKED_COUNT_BITS) == packed
        pair = SubsetPair(integers(), tuple(range(k)), tuple(range(100, 100 + k)))
        assert self.count(pair) == math.factorial(k)

    @settings(max_examples=40, deadline=None)
    @given(integer_pairs(max_size=13, span=13))
    def test_count_matches_reference_dp(self, pair):
        assert self.count(pair) == count_matchings(pair)


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

    def test_class_size_matches_enumeration(self):
        for n in (5, 6, 7):
            for pair in iter_valid_pairs(n):
                for vector, size, _ in reference_report(pair)[1]:
                    assert class_size(pair, vector) == size

    def test_every_pair_of_z10_is_walked(self):
        # an exhaustive sweep of Z/10Z never reaches the count or the
        # search, whatever changes there; the largest product is 3,125
        assert all(degree_product(pair) <= WALK_DEGREE_PRODUCT for pair in iter_valid_pairs(10))

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
        if searched[0] and witness is not None:
            assert witness_class_size(pair, witness) == 1
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
        assert witness_class_size(pair, r.acyclic_witness.assignment) == 1

    @staticmethod
    def search_side_pairs(rng):
        """Seeded pairs whose degree product is above the walk's limit and
        that have 1 to 3,000 matchings, so that the walk stays quick: four
        pairs of Z/nZ for each n = 11..16 (no pair of Z/10Z or below is above
        the limit), Z/16Z with |A| = 13 and 14, and two pairs of Z for each
        |A| = 6..13 in [-12, 12].  In Z, A is drawn from a window of |A| + 2
        elements, where a dense pair has few enough matchings."""

        def cyclic_pair(n, k):
            a, b = rng.sample(range(n), k), rng.sample(range(1, n), k)
            return SubsetPair(cyclic(n), tuple(sorted(a)), tuple(sorted(b)))

        def integer_pair(k):
            low = rng.randrange(-12, 12 - k)
            a = rng.sample(range(low, low + k + 2), k)
            b = rng.sample([x for x in range(-12, 13) if x], k)
            return SubsetPair(integers(), tuple(sorted(a)), tuple(sorted(b)))

        draws = [lambda n=n: cyclic_pair(n, rng.randrange(n // 2, n))
                 for n in range(11, 17) for _ in range(4)]
        draws += [lambda k=k: cyclic_pair(16, k) for k in (13, 14)]
        draws += [lambda k=k: integer_pair(k) for k in range(6, 14) for _ in range(2)]
        for draw in draws:
            while True:
                pair = draw()
                if (degree_product(pair) > WALK_DEGREE_PRODUCT
                        and 0 < TestCountMatchings.count(pair) <= 3000):
                    yield pair
                    break

    def test_search_matches_the_walk_on_search_side_pairs(self):
        # without a budget the search answers the first class of size 1
        # among the walk's sorted classes, or None; |A| >= 13 makes the
        # packed fields wider than 13 bits
        sizes = []
        for pair in self.search_side_pairs(random.Random(18)):
            options, sums, _ = matchlab.matching._edge_table(pair)
            walked = next((m.assignment for _, size, m in acyclicity_report(pair).classes
                           if size == 1), None)
            assert matchlab.matching._search(options, sums, math.inf) == walked
            sizes.append(pair.size)
        assert len(sizes) == 42 and max(sizes) == 14

    @settings(max_examples=100, deadline=None)
    @given(searched_pairs())
    def test_search_matches_the_walk_on_drawn_pairs(self, pair):
        options, sums, _ = matchlab.matching._edge_table(pair)
        walked = next((m.assignment for _, size, m in acyclicity_report(pair).classes
                       if size == 1), None)
        assert matchlab.matching._search(options, sums, math.inf) == walked

    def test_search_budget_is_its_state_count(self):
        # the search creates exactly 102 states before it finds this pair's
        # witness; on the way it passes 36 times over a sum at which no state
        # has an edge left, 10 times with more than one state.  Budget 102 is
        # enough, 101 is not
        pair = SubsetPair(
            integers(), (-9, -8, -5, -4, -3, -1, 3, 4, 5), (-8, -6, -4, -3, -2, 4, 5, 8, 9)
        )
        options, sums, _ = matchlab.matching._edge_table(pair)
        witness = (-8, -6, -2, 4, -3, 9, 5, 8, -4)
        assert matchlab.matching._search(options, sums, 102) == witness
        with pytest.raises(matchlab.matching._SearchBudgetExceeded):
            matchlab.matching._search(options, sums, 101)
        assert witness_class_size(pair, witness) == 1

    # (modulus, 0 for Z; A; B; the least budget that answers)
    SEARCH_STATE_COUNTS = [
        # every level has one state with one free edge
        (0, (-10, -9, -4, 0, 2, 3, 6, 8), (-12, -9, -6, 1, 2, 3, 4, 9), 25),
        # levels with two or three states, and counts of 2
        (0, (-12, -5, 0, 2, 4, 8, 10, 11), (-11, -8, -3, -2, 2, 7, 9, 10), 36),
        (0, (-12, -7, -6, -1, 2, 4, 7, 8, 10), (-10, -5, -2, 1, 2, 4, 7, 10, 11), 49),
        # |A| = 13 and 14, with up to 20 states at a level
        (0, (-5, -4, -3, -2, -1, 0, 2, 3, 4, 5, 6, 8, 9),
         (-10, -9, -7, -6, -5, -4, 1, 3, 4, 6, 8, 10, 12), 421),
        (0, (-10, -9, -8, -7, -6, -4, -3, -2, -1, 0, 1, 2, 3, 4),
         (-12, -11, -9, -8, -6, -4, -3, 1, 2, 5, 6, 7, 8, 10), 876),
        # Z/nZ: levels with up to 21 states and 5 free edges per state
        (13, (3, 4, 5, 6, 7, 9, 11), (1, 2, 4, 5, 7, 8, 10), 151),
        (16, (0, 1, 2, 3, 4, 6, 7, 13), (1, 2, 4, 7, 9, 10, 11, 14), 326),
        # the pair of `test_search_exhausts_when_no_class_is_a_singleton`
        (14, (0, 1, 3, 5, 7, 8, 9, 10, 11, 13), (1, 2, 3, 4, 5, 7, 8, 9, 11, 13), 13610),
    ]

    @pytest.mark.parametrize("n, a, b, budget", SEARCH_STATE_COUNTS)
    def test_search_state_counts(self, n, a, b, budget):
        # the least budget that answers is the number of states the search
        # creates; the report's fallback to the walk depends on it
        pair = SubsetPair(cyclic(n) if n else integers(), a, b)
        options, sums, _ = matchlab.matching._edge_table(pair)
        answer = matchlab.matching._search(options, sums, math.inf)
        assert matchlab.matching._search(options, sums, budget) == answer
        with pytest.raises(matchlab.matching._SearchBudgetExceeded):
            matchlab.matching._search(options, sums, budget - 1)

    def test_single_matching_at_size_20(self):
        # a + f(a) must leave A = {0..19}, so f(a) = 20 - a is the only
        # matching.  The degree product is 20!, so the pair is counted (in a
        # dict) and searched with budget 1 // 16 = 0, which the search's
        # first count exceeds.  It falls back to the walk, which walks
        # completions only for the sets of B that a prefix leaves, here one
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
        g = integers()
        at_bound = SubsetPair(g, tuple(range(20)), tuple(range(1, 21)))
        assert acyclicity_report(at_bound).total_matchings == 1
        with pytest.raises(BoundExceededError):
            acyclicity_report(SubsetPair(g, tuple(range(21)), tuple(range(1, 22))))

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

    @pytest.mark.parametrize("n", range(2, 11))
    def test_symmetry_reduction_preserves_result(self, n):
        assert verify_group_amp(cyclic(n), True, exhaustive_bound=10) == verify_group_amp(
            cyclic(n), False, exhaustive_bound=10
        )

    def test_reduced_sweep_reports_once_per_orbit(self, monkeypatch):
        # Z/5Z holds, so the sweep runs through all 125 pairs and reports
        # the least pair of each unit orbit, and no other pair
        n = 5
        orbits = {
            frozenset(
                (tuple(sorted(u * a % n for a in pair.a)), tuple(sorted(u * b % n for b in pair.b)))
                for u in units(cyclic(n))
            )
            for pair in iter_valid_pairs(n)
        }
        reported = []
        report = matchlab.matching.acyclicity_report

        def counting(pair):
            reported.append((pair.a, pair.b))
            return report(pair)

        monkeypatch.setattr(matchlab.matching, "acyclicity_report", counting)
        result = verify_group_amp(cyclic(n), use_symmetry=True)
        assert (result.holds, result.pairs_checked) == (True, 125)
        assert sorted(reported) == sorted(min(orbit) for orbit in orbits)

    def test_integers_rejected(self):
        with pytest.raises(ValueError, match="requires a cyclic group"):
            verify_group_amp(integers())

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
        # every matched pair with |A| in {n - 2, n - 1} is acyclically matched
        for pair in iter_valid_pairs(n):
            if pair.size >= n - 2:
                report = acyclicity_report(pair)
                assert report.total_matchings == 0 or report.has_acyclic, pair


@settings(max_examples=200, deadline=None)
@given(integer_pairs())
def test_integer_subsets_always_acyclically_matched(pair):
    # torsion-free behavior: small subsets of Z never lack an acyclic matching
    assert acyclicity_report(pair).has_acyclic
