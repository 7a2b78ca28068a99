"""Matchings between finite subsets of an abelian group.

A matching from A to B (|A| = |B|, 0 not in B) is a bijection f: A -> B with
a + f(a) not in A for every a.  Its multiplicity vector counts, for each group
element x, how many a satisfy a + f(a) = x.  A matching is acyclic when no
other matching shares its multiplicity vector.

This module decides matching existence (augmenting paths), enumerates all
matchings (backtracking), buckets them by multiplicity vector, and runs
exhaustive verification of the acyclic matching property over every valid
subset pair of a small cyclic group.  `acyclicity_report` keys each
matching by one int, a digit per distinct allowed sum counting how often it
occurs, and splits the walk: it backtracks over the first half of A, and
the completions of the second half, which depend only on the set of B left,
are walked once per such set the first time a prefix leaves it.  It keeps
the class table: `has_acyclic` reads the class sizes alone, while the sorted
classes and the witness are decoded from the keys on first read.
`enumerate_matchings` with `multiplicity` is the independent reference
route that tests compare it against.

`SubsetPair` and `Matching` are slotted records that hold only their data;
each engine builds the lookup set of A it needs once per call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

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


def multiplicity(m: Matching) -> MultiplicityVector:
    """Counts of the sums a + f(a), sorted by element."""
    g = m.pair.group
    counts: dict[int, int] = {}
    for a, fa in zip(m.pair.a, m.assignment):
        s = g.add(a, fa)
        counts[s] = counts.get(s, 0) + 1
    return tuple(sorted(counts.items()))


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
    walk's table, keyed by one int per class: digit r of the key,
    `k.bit_length()` bits wide for |A| = k, counts the matched sums equal to
    `_sums[r]`.  `has_acyclic` reads the class sizes alone; `classes`
    decodes the keys into vectors, and `acyclic_witness` compares the keys
    digit by digit, the first time each is read.
    """

    pair: SubsetPair
    total_matchings: int
    # the pair's distinct allowed sums, ascending: a key's digit r counts _sums[r]
    _sums: tuple[int, ...] = field(repr=False, compare=False)
    # class key -> class size, and -> the class's first assignment
    _sizes: dict[int, int] = field(repr=False, compare=False)
    _first: dict[int, tuple[int, ...]] = field(repr=False, compare=False)

    @property
    def has_acyclic(self) -> bool:
        return 1 in self._sizes.values()

    def _decode(self, key: int) -> MultiplicityVector:
        """The multiplicity vector a class key encodes."""
        width = self.pair.size.bit_length()
        digit = (1 << width) - 1
        vector = []
        for s in self._sums:
            if not key:
                break
            if key & digit:
                vector.append((s, key & digit))
            key >>= width
        return tuple(vector)

    @cached_property
    def classes(self) -> tuple[tuple[MultiplicityVector, int, Matching], ...]:
        """(vector, size, first matching) per class, sorted by vector."""
        # vectors are unique, so the sort never compares the Matchings
        return tuple(sorted(
            (self._decode(key), size, Matching(self.pair, self._first[key]))
            for key, size in self._sizes.items()
        ))

    @cached_property
    def acyclic_witness(self) -> Matching | None:
        """The first matching of the singleton class with the lex-least
        vector, or None."""
        singletons = [key for key, size in self._sizes.items() if size == 1]
        if not singletons:
            return None
        # Vectors compare entry by entry from the smallest sum, so at the
        # lowest digit where two keys differ a nonzero count beats 0 and a
        # smaller count beats a larger one.  The keys left always agree
        # below bit `shift`; skip to the lowest digit where one is nonzero
        # and keep the keys with the least nonzero count there.
        width = self.pair.size.bit_length()
        digit = (1 << width) - 1
        keys, shift = singletons, 0
        while len(keys) > 1:
            low = min(rest & -rest for rest in (key >> shift for key in keys))
            shift += (low.bit_length() - 1) // width * width
            counts = [key >> shift & digit for key in keys]
            least = min(count for count in counts if count)
            keys = [key for key, count in zip(keys, counts) if count == least]
            shift += width
        return Matching(self.pair, self._first[keys[0]])


def acyclicity_report(
    pair: SubsetPair, bound: int = DEFAULT_ENUMERATION_BOUND
) -> AcyclicityReport:
    """Bucket all matchings by multiplicity vector, keeping each class's
    size and first matching in assignment order.  Classes are sorted by
    vector; the witness is the first matching of the singleton class with
    the lex-least vector.

    A matching's class key is the sum of `1 << width * r` over its pairs
    (a, b), where r is the rank of a + b among the pair's distinct allowed
    sums and width is `k.bit_length()`.  A count never exceeds k <
    2**width, so no digit carries: the key encodes the multiplicity vector
    and is determined by it.  The walk backtracks over the first ceil(k/2)
    elements of A in the order of `enumerate_matchings` (A ascending, each
    partner tried in ascending order of B), keeping the used elements of B
    as a bitmask.  The completions of the other elements depend only on the
    set of B left.  The first time a prefix leaves a set, its completions
    are walked once and kept as key part -> (count, first completion); a
    set no prefix leaves is never walked.  Each prefix adds its key to the
    parts, so sizes and first matchings come out as one walk over whole
    matchings in assignment order gives them.  The report keeps the class
    table; vectors and `Matching`s are built only when `classes` or
    `acyclic_witness` is first read.
    """
    if pair.size > bound:
        raise BoundExceededError(f"|A| = {pair.size} exceeds enumeration bound {bound}")
    g = pair.group
    a_set = frozenset(pair.a)
    # options[i] = (b, bit of b, a_i + b) for each partner b the i-th
    # element of A may take
    options = []
    allowed_sums = set()
    for a in pair.a:
        row = []
        for j, b in enumerate(pair.b):
            s = g.add(a, b)
            if s not in a_set:
                row.append((b, 1 << j, s))
                allowed_sums.add(s)
        options.append(row)
    k = pair.size
    sums = tuple(sorted(allowed_sums))
    width = k.bit_length()
    # digit_of[s] = 1 << width * (rank of s); a loop, as a comprehension
    # costs a call on every report, and tiny pairs are the most common
    digit_of = {}
    digit = 1
    for s in sums:
        digit_of[s] = digit
        digit <<= width
    half = (k + 1) // 2
    partner = [0] * k
    # used-B bitmask after the first half -> {key part: [count, first tail]},
    # filled the first time a prefix reaches that mask
    completions: dict[int, dict[int, list]] = {}
    sizes: dict[int, int] = {}
    first: dict[int, tuple[int, ...]] = {}

    def tail(i, used, key, table):
        if i < k - 1:
            for b, bit, s in options[i]:
                if not used & bit:
                    partner[i] = b
                    tail(i + 1, used | bit, key + digit_of[s], table)
            return
        for b, bit, s in options[i]:
            if not used & bit:
                partner[i] = b
                part = key + digit_of[s]
                entry = table.get(part)
                if entry is None:
                    table[part] = [1, tuple(partner[half:])]
                else:
                    entry[0] += 1

    def head(i, used, key):
        if i < half - 1:
            for b, bit, s in options[i]:
                if not used & bit:
                    partner[i] = b
                    head(i + 1, used | bit, key + digit_of[s])
            return
        for b, bit, s in options[i]:
            if used & bit:
                continue
            partner[i] = b
            taken = used | bit
            tails = completions.get(taken)
            if tails is None:
                tails = completions[taken] = {}
                if half < k:
                    tail(half, taken, 0, tails)
                else:  # k = 1: the empty completion
                    tails[0] = [1, ()]
            prefix = None
            key_b = key + digit_of[s]
            for part, (count, rest) in tails.items():
                whole = key_b + part
                size = sizes.get(whole)
                if size is None:
                    if prefix is None:
                        prefix = tuple(partner[:half])
                    sizes[whole] = count
                    first[whole] = prefix + rest
                else:
                    sizes[whole] = size + count

    head(0, 0, 0)
    # head and tail refer to themselves; dropping the names frees the
    # tables by refcount rather than leaving them to the cyclic collector
    del head, tail
    return AcyclicityReport(pair, sum(sizes.values()), sums, sizes, first)


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
