"""Matchings between finite subsets of an abelian group.

A matching from A to B (|A| = |B|, 0 not in B) is a bijection f: A -> B with
a + f(a) not in A for every a.  Its multiplicity vector counts, for each group
element x, how many a satisfy a + f(a) = x.  A matching is acyclic when no
other matching shares its multiplicity vector.

This module decides matching existence (augmenting paths), enumerates all
matchings (backtracking), buckets them by multiplicity vector, and runs
exhaustive verification of the acyclic matching property over every valid
subset pair of a small cyclic group.  `acyclicity_report` walks a per-pair
table of sums and keeps the class table it fills: `has_acyclic` reads the
class sizes alone, while the sorted classes and the witness are built from
the table on first read.  `enumerate_matchings` with `multiplicity` is the
independent reference route that tests compare it against.

`SubsetPair` and `Matching` are slotted records that hold only their data;
each engine builds the lookup set of A it needs once per call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

from .errors import BoundExceededError
from .groups import GroupCtx, cyclic, units

DEFAULT_ENUMERATION_BOUND = 20
DEFAULT_EXHAUSTIVE_BOUND = 8

# entries: ((element, count), ...) sorted by element; counts sum to |A|
MultiplicityVector = tuple[tuple[int, int], ...]


@dataclass(frozen=True, slots=True)
class SubsetPair:
    """A pair (A, B) of equal-size finite subsets with 0 not in B."""

    group: GroupCtx
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        a = tuple(sorted(self.a))
        b = tuple(sorted(self.b))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if len(a) != len(b) or not a:
            raise ValueError(f"need |A| = |B| >= 1, got {len(a)} and {len(b)}")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValueError("duplicate elements in A or B")
        if 0 in b:
            raise ValueError("0 must not lie in B")
        for x in a + b:
            if not self.group.is_canonical(x):
                raise ValueError(f"element {x} not canonical in {self.group.describe()}")

    @property
    def size(self) -> int:
        return len(self.a)


@dataclass(frozen=True, slots=True)
class Matching:
    """A valid matching; assignment[i] is the partner of the i-th smallest
    element of A."""

    pair: SubsetPair
    assignment: tuple[int, ...]


def is_matching(pair: SubsetPair, assignment: tuple[int, ...] | list[int]) -> bool:
    """True iff assignment is a bijection A -> B with all sums a + f(a)
    outside A."""
    if len(assignment) != pair.size:
        raise ValueError(f"assignment length {len(assignment)} != |A| = {pair.size}")
    if set(assignment) != set(pair.b):
        return False
    g = pair.group
    a_set = frozenset(pair.a)
    for a, fa in zip(pair.a, assignment):
        if g.add(a, fa) in a_set:
            return False
    return True


def _vector(sums: Iterable[int]) -> MultiplicityVector:
    """The multiplicity vector of a sequence of sums."""
    counts: dict[int, int] = {}
    for s in sums:
        counts[s] = counts.get(s, 0) + 1
    return tuple(sorted(counts.items()))


def multiplicity(m: Matching) -> MultiplicityVector:
    """Counts of the sums a + f(a), sorted by element."""
    g = m.pair.group
    return _vector(g.add(a, fa) for a, fa in zip(m.pair.a, m.assignment))


def matching_exists(pair: SubsetPair) -> bool:
    """Decide matching existence via augmenting paths on the bipartite
    compatibility graph: edge (a, b) iff a + b not in A."""
    g = pair.group
    a_set = frozenset(pair.a)
    adj = {a: [b for b in pair.b if g.add(a, b) not in a_set] for a in pair.a}
    match_of_b: dict[int, int] = {}

    def augment(a: int, seen: set[int]) -> bool:
        for b in adj[a]:
            if b in seen:
                continue
            seen.add(b)
            if b not in match_of_b or augment(match_of_b[b], seen):
                match_of_b[b] = a
                return True
        return False

    matched = 0
    for a in pair.a:
        if augment(a, set()):
            matched += 1
    # augment refers to itself; dropping the name frees the tables by
    # refcount rather than leaving them to the cyclic collector
    del augment
    return matched == pair.size


def enumerate_matchings(
    pair: SubsetPair, bound: int = DEFAULT_ENUMERATION_BOUND
) -> Iterator[Matching]:
    """Yield every matching exactly once, in lexicographic order of the
    assignment array.

    The backtracking walks A in ascending order and tries each element's
    partners in ascending order of B, so assignments come out in
    lexicographic order without a sort.
    """
    if pair.size > bound:
        raise BoundExceededError(f"|A| = {pair.size} exceeds enumeration bound {bound}")
    g = pair.group
    a_set = frozenset(pair.a)
    # candidates[i] = elements of B that the i-th element of A may be matched to
    candidates = [
        [b for b in pair.b if g.add(a, b) not in a_set]
        for a in pair.a
    ]
    results: list[tuple[int, ...]] = []
    partner = [0] * pair.size  # partner[i] = b matched to the i-th element of A
    used = dict.fromkeys(pair.b, False)

    def backtrack(i: int):
        if i == pair.size:
            results.append(tuple(partner))
            return
        for b in candidates[i]:
            if used[b]:
                continue
            used[b] = True
            partner[i] = b
            backtrack(i + 1)
            used[b] = False

    backtrack(0)
    for assignment in results:
        yield Matching(pair, assignment)


@dataclass(frozen=True)
class AcyclicityReport:
    """All matchings of one pair, bucketed by multiplicity vector.

    A singleton bucket witnesses an acyclic matching.  The report keeps the
    walk's table, keyed by each class's sorted sums: `has_acyclic` reads
    the class sizes alone, and `classes` and `acyclic_witness` are built
    from the table the first time they are read.
    """

    pair: SubsetPair
    total_matchings: int
    # sorted sums -> class size, and -> the class's first assignment
    _sizes: dict[tuple[int, ...], int] = field(repr=False, compare=False)
    _first: dict[tuple[int, ...], tuple[int, ...]] = field(repr=False, compare=False)

    @property
    def has_acyclic(self) -> bool:
        return 1 in self._sizes.values()

    @cached_property
    def classes(self) -> tuple[tuple[MultiplicityVector, int, Matching], ...]:
        """(vector, size, first matching) per class, sorted by vector."""
        # vectors are unique, so the sort never compares the Matchings
        return tuple(sorted(
            (_vector(key), size, Matching(self.pair, self._first[key]))
            for key, size in self._sizes.items()
        ))

    @cached_property
    def acyclic_witness(self) -> Matching | None:
        """The first matching of the singleton class with the lex-least
        vector, or None."""
        singletons = [key for key, size in self._sizes.items() if size == 1]
        if not singletons:
            return None
        # a vector starts with its smallest sum, so the lex-least vector
        # has the least smallest sum
        least = min(key[0] for key in singletons)
        key = min((key for key in singletons if key[0] == least), key=_vector)
        return Matching(self.pair, self._first[key])


def acyclicity_report(
    pair: SubsetPair, bound: int = DEFAULT_ENUMERATION_BOUND
) -> AcyclicityReport:
    """Bucket all matchings by multiplicity vector, keeping each class's
    size and first matching in assignment order.  Classes are sorted by
    vector; the witness is the first matching of the singleton class with
    the lex-least vector.

    The walk visits matchings in the order of `enumerate_matchings` (A
    ascending, each partner tried in ascending order of B) over a table of
    the allowed (partner, sum) choices built once per pair.  Each matching
    is keyed by its sorted sums, which determine its multiplicity vector
    and are determined by it.  The report keeps that table; each class's
    vector and `Matching` are built from it only when `classes` or
    `acyclic_witness` is first read.
    """
    if pair.size > bound:
        raise BoundExceededError(f"|A| = {pair.size} exceeds enumeration bound {bound}")
    g = pair.group
    a_set = frozenset(pair.a)
    # options[i] = (b, a_i + b) for each partner b the i-th element of A may take
    options = []
    for a in pair.a:
        row = []
        for b in pair.b:
            s = g.add(a, b)
            if s not in a_set:
                row.append((b, s))
        options.append(row)
    k = pair.size
    partner = [0] * k
    sums = [0] * k
    used = dict.fromkeys(pair.b, False)
    sizes: dict[tuple[int, ...], int] = {}
    first: dict[tuple[int, ...], tuple[int, ...]] = {}

    def walk(i: int):
        if i == k:
            key = tuple(sorted(sums))
            size = sizes.get(key)
            if size is None:
                sizes[key] = 1
                first[key] = tuple(partner)
            else:
                sizes[key] = size + 1
            return
        for b, s in options[i]:
            if used[b]:
                continue
            used[b] = True
            partner[i] = b
            sums[i] = s
            walk(i + 1)
            used[b] = False

    walk(0)
    # walk refers to itself; dropping the name frees the tables by refcount
    # rather than leaving them to the cyclic collector
    del walk
    return AcyclicityReport(pair, sum(sizes.values()), sizes, first)


def iter_valid_pairs(n: int, sizes: tuple[int, ...] | None = None) -> Iterator[SubsetPair]:
    """All valid (A, B) pairs of Z/nZ in deterministic (|A|, lex A, lex B)
    order.  B is drawn from [1, n)."""
    g = cyclic(n)
    all_sizes = sizes if sizes is not None else tuple(range(1, n))
    for k in all_sizes:
        if not 1 <= k <= n - 1:
            continue
        for a_set in itertools.combinations(range(n), k):
            for b_set in itertools.combinations(range(1, n), k):
                yield SubsetPair(g, a_set, b_set)


def _canonical_orbit_key(n: int, pair: SubsetPair, unit_group: tuple[int, ...]) -> tuple:
    """Lex-least image of (A, B) under simultaneous scaling by the units
    `unit_group` of Z/nZ.

    Sound because u(a + f(a)) = ua + u f(a) and uA is the image of A, so the
    multiplicity-class structure is preserved.  Translating A and B together
    is not sound: a + f(a) moves by 2t while A moves by t, so the condition
    a + f(a) not in A is not kept.  Translating A alone is sound, since
    (a + t) + f(a) lies in A + t exactly when a + f(a) lies in A, and it
    keeps the class sizes; it is not used yet.
    """
    best = None
    for u in unit_group:
        image = (
            tuple(sorted(u * a % n for a in pair.a)),
            tuple(sorted(u * b % n for b in pair.b)),
        )
        if best is None or image < best:
            best = image
    return best


@dataclass(frozen=True)
class GroupSearchResult:
    holds: bool
    counterexample: SubsetPair | None
    pairs_checked: int


def verify_group_amp(
    g: GroupCtx,
    use_symmetry: bool = True,
    exhaustive_bound: int = DEFAULT_EXHAUSTIVE_BOUND,
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
) -> GroupSearchResult:
    """Exhaustively test the acyclic matching property of Z/nZ.

    Iterates every valid pair in deterministic order; with symmetry reduction
    the verdict for each pair is memoized on its unit-scaling orbit key, so
    the reported counterexample is identical either way.
    """
    if not g.is_cyclic:
        raise ValueError("exhaustive verification requires a cyclic group")
    n = g.modulus
    if n > exhaustive_bound:
        raise BoundExceededError(f"group order {n} exceeds exhaustive bound {exhaustive_bound}")
    verdict_cache: dict[tuple, bool] = {}
    unit_group = units(g) if use_symmetry else ()
    checked = 0
    for pair in iter_valid_pairs(n):
        checked += 1
        if use_symmetry:
            key = _canonical_orbit_key(n, pair, unit_group)
            ok = verdict_cache.get(key)
            if ok is None:
                ok = acyclicity_report(pair, enumeration_bound).has_acyclic
                verdict_cache[key] = ok
        else:
            ok = acyclicity_report(pair, enumeration_bound).has_acyclic
        if not ok:
            return GroupSearchResult(False, pair, checked)
    return GroupSearchResult(True, None, checked)


def large_set_check(
    g: GroupCtx,
    exhaustive_bound: int = DEFAULT_EXHAUSTIVE_BOUND,
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
) -> bool:
    """True iff every valid pair with |A| in {n-1, n-2} that admits any
    matching admits an acyclic one.  Size-(n-3) pairs are the largest that
    can be matched without being acyclically matched.

    Pairs with no matching at all (possible for composite n, e.g. subgroup
    constructions) fail the plain matching property and are out of scope
    here; they are certified separately.
    """
    if not g.is_cyclic:
        raise ValueError("large-set check requires a cyclic group")
    n = g.modulus
    if not 3 <= n <= exhaustive_bound:
        raise BoundExceededError(f"group order {n} outside [3, {exhaustive_bound}]")
    sizes = tuple(k for k in (n - 2, n - 1) if 1 <= k <= n - 1)
    for pair in iter_valid_pairs(n, sizes):
        report = acyclicity_report(pair, enumeration_bound)
        if report.total_matchings > 0 and not report.has_acyclic:
            return False
    return True
