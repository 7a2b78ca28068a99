"""Matchings between finite subsets of an abelian group.

A matching from A to B (|A| = |B|, 0 not in B) is a bijection f: A -> B with
a + f(a) not in A for every a.  Its multiplicity vector counts, for each group
element x, how many a satisfy a + f(a) = x.  A matching is acyclic when no
other matching shares its multiplicity vector.

This module decides matching existence (augmenting paths, which place A in
order, build each element's row of partners when they reach it, and stop at
the first element they cannot place), buckets all matchings by multiplicity
vector, and runs exhaustive verification of the acyclic matching property
over every valid subset pair of a small cyclic group.  `acyclicity_report`
builds the
pair's allowed edges and picks one of two sides from the product of the row
degrees, which bounds the number of matchings.  Up to `WALK_DEGREE_PRODUCT`
it walks every matching, keyed by one int, a digit per distinct allowed sum
counting how often it occurs: it backtracks over the first half of A, and
the completions of the second half, which depend only on the set of B left,
are walked once per such set the first time a prefix leaves it.  It keeps
the class table: `has_acyclic` reads the class sizes alone, the sorted
classes are decoded from the keys on first read, and the witness is the
first class of size 1 among them.  Beyond that product it counts the
matchings by a DP over the used elements of B, kept in one packed int while
it fits in `PACKED_COUNT_BITS` bits (|A| <= 12) and in a dict beyond, then
searches the classes in lex order of their vectors and stops at the first
singleton, the witness.  The search tests each state in one packed int
expression, a field of k + 1 bits per element of A with a guard bit on
top, reads a state's free edges at a sum as one such int, a bit per edge,
steps a level with one state and one free edge without forming subsets,
and jumps over the sums at which no state has an edge left; a search that
creates more than `total_matchings // SEARCH_BUDGET_DIVISOR` states gives
way to the walk, and on the search side the classes are walked when first
read.

`SubsetPair` and `Matching` are slotted records that hold only their data;
each engine builds the lookup set of A it needs once per call.  Validating a
`SubsetPair` makes a fixed number of Python calls per pair, and a sorted
tuple the caller gives is kept, not copied.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from .errors import BoundExceededError
from .groups import GroupCtx, cyclic, units

ENUMERATION_BOUND = 20
DEFAULT_EXHAUSTIVE_BOUND = 8
# The product of the row degrees bounds the number of matchings; up to this
# product `acyclicity_report` walks every matching, beyond it it counts them
# and searches for the witness.
WALK_DEGREE_PRODUCT = 2**12
# The search falls back to the walk once it has created more than
# total_matchings // SEARCH_BUDGET_DIVISOR states.
SEARCH_BUDGET_DIVISOR = 16
# The count keeps its whole DP vector in one int of at most this many bits,
# |A| <= 12; larger pairs count in a dict of bitmasks.
PACKED_COUNT_BITS = 2**17

# entries: ((element, count), ...) sorted by element; counts sum to |A|
MultiplicityVector = tuple[tuple[int, int], ...]
# rows[i]: (b, 1 << index of b in B, a_i + b) per partner b the i-th element
# of A may take, B ascending
EdgeTable = list[list[tuple[int, int, int]]]


@dataclass(frozen=True, slots=True)
class SubsetPair:
    """A pair (A, B) of equal-size finite subsets with 0 not in B."""

    group: GroupCtx
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        a = tuple(sorted(self.a))
        b = tuple(sorted(self.b))
        # a sorted tuple the caller gave is kept, so pairs built from one A
        # share it
        if a != self.a:
            object.__setattr__(self, "a", a)
        if b != self.b:
            object.__setattr__(self, "b", b)
        if len(a) != len(b) or not a:
            raise ValueError(f"need |A| = |B| >= 1, got {len(a)} and {len(b)}")
        if len(set(a)) != len(a) or len(set(b)) != len(b):
            raise ValueError("duplicate elements in A or B")
        if 0 in b:
            raise ValueError("0 must not lie in B")
        g = self.group
        # the canonical elements form an interval, so the least and the
        # largest element decide; the scan names the first offender
        if not (g.is_canonical(min(a[0], b[0])) and g.is_canonical(max(a[-1], b[-1]))):
            x = next(x for x in a + b if not g.is_canonical(x))
            raise ValueError(f"element {x} not canonical in {g.describe()}")

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


def matching_exists(pair: SubsetPair) -> bool:
    """Decide matching existence via augmenting paths on the bipartite
    compatibility graph: edge (a, b) iff a + b not in A.

    The elements of A are placed in order, and each one's row of partners
    is built when the loop reaches it: `augment` visits only the current
    element and elements matched before it, whose rows exist already.  The
    first element no augmenting path places decides the answer, False:
    the matching then covers every element before it, and with no
    augmenting path from the one free element it is maximum on that prefix
    of A (Berge), so the prefix, and A with it, has no matching into B
    (Kuhn 1955).  The rest of A is never read."""
    g = pair.group
    a_set = frozenset(pair.a)
    adj: dict[int, list[int]] = {}
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

    placed_all = True
    for a in pair.a:
        adj[a] = [b for b in pair.b if g.add(a, b) not in a_set]
        if not augment(a, set()):
            placed_all = False
            break
    # augment refers to itself; dropping the name frees the tables by
    # refcount rather than leaving them to the cyclic collector
    del augment
    return placed_all


@dataclass(frozen=True)
class AcyclicityReport:
    """All matchings of one pair, bucketed by multiplicity vector.

    A singleton bucket witnesses an acyclic matching.  On the walk side the
    report keeps the walk's table, keyed by one int per class: digit r of
    the key, `k.bit_length()` bits wide for |A| = k, counts the matched sums
    equal to `_sums[r]`.  `has_acyclic` reads the class sizes alone;
    `classes` decodes the keys into vectors the first time it is read, and
    `acyclic_witness` is its first class of size 1.  On the search side,
    taken for pairs whose row-degree product exceeds `WALK_DEGREE_PRODUCT`
    when the search stays within its budget, the report holds the count and
    the searched witness instead, and `classes` runs the walk the first time
    it is read.
    """

    pair: SubsetPair
    total_matchings: int
    # the pair's distinct allowed sums, ascending: a key's digit r counts _sums[r]
    _sums: tuple[int, ...] = field(repr=False, compare=False)
    # the allowed-edge table the walk runs on, as `_walk` takes it
    _options: EdgeTable = field(repr=False, compare=False)
    # walk side: (class key -> class size, class key -> first assignment);
    # search side: None
    _table: tuple[dict[int, int], dict[int, tuple[int, ...]]] | None = field(
        repr=False, compare=False
    )
    # search side: the witness's assignment, or None when no class is a singleton
    _searched: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    @property
    def has_acyclic(self) -> bool:
        if self._table is None:
            return self._searched is not None
        return 1 in self._table[0].values()

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
        sizes, first = self._table or _walk(self._options, self._sums)
        # vectors are unique, so the sort never compares the Matchings
        return tuple(sorted(
            (self._decode(key), size, Matching(self.pair, first[key]))
            for key, size in sizes.items()
        ))

    @cached_property
    def acyclic_witness(self) -> Matching | None:
        """The first matching of the singleton class with the lex-least
        vector, or None."""
        if self._table is None:
            return self._searched and Matching(self.pair, self._searched)
        return next((first for _, size, first in self.classes if size == 1), None)


def acyclicity_report(pair: SubsetPair) -> AcyclicityReport:
    """Bucket all matchings by multiplicity vector, keeping each class's
    size and first matching in assignment order.  Classes are sorted by
    vector; the witness is the first matching of the first class of size 1,
    the singleton class with the lex-least vector.

    The report first builds the table of allowed (partner, sum) choices per
    element of A and multiplies the row degrees, a bound on the number of
    matchings.  Up to `WALK_DEGREE_PRODUCT` it walks every matching
    (`_walk`).  Beyond it, it counts the matchings by a DP over the bitmask
    of used elements of B and searches the classes in lex order of their
    vectors for the first singleton (`_search`), which is the witness; if
    the search creates more than `total_matchings // SEARCH_BUDGET_DIVISOR`
    states, the walk runs instead.  Either way the answers are the same, and
    on the search side `classes` runs the walk the first time it is read.
    """
    if pair.size > ENUMERATION_BOUND:
        raise BoundExceededError(f"|A| = {pair.size} exceeds enumeration bound {ENUMERATION_BOUND}")
    options, sums, product = _edge_table(pair)
    if product > WALK_DEGREE_PRODUCT:
        total = _count_matchings(options)
        try:
            witness = _search(options, sums, total // SEARCH_BUDGET_DIVISOR) if total else None
        except _SearchBudgetExceeded:
            pass
        else:
            return AcyclicityReport(pair, total, sums, options, None, witness)
    table = _walk(options, sums)
    return AcyclicityReport(pair, sum(table[0].values()), sums, options, table)


def _edge_table(pair: SubsetPair) -> tuple[EdgeTable, tuple[int, ...], int]:
    """(options, sums, product): the pair's allowed edges, its distinct
    allowed sums in ascending order, and the product of the row degrees,
    which bounds the number of matchings."""
    g = pair.group
    a_set = frozenset(pair.a)
    options = []
    allowed_sums = set()
    product = 1
    for a in pair.a:
        row = []
        for j, b in enumerate(pair.b):
            s = g.add(a, b)
            if s not in a_set:
                row.append((b, 1 << j, s))
                allowed_sums.add(s)
        options.append(row)
        product *= len(row)
    return options, tuple(sorted(allowed_sums)), product


# |A| -> the packed count's {partner bit: (lacks mask, shift)}, built on
# first use; at most one entry per |A| <= 12
_LACKS: dict[int, dict[int, tuple[int, int]]] = {}


def _count_matchings(options: EdgeTable) -> int:
    """Number of matchings, by a DP over the bitmask of used elements of B.

    While the whole DP vector fits in `PACKED_COUNT_BITS` bits (|A| <= 12),
    it is one int: field m, W = `(k!).bit_length() + 1` bits wide, holds the
    number of partial matchings onto the set m of B.  A row step adds
    `(ways & mask) << shift` per partner of the row, where for the partner
    bit 1 << j, `lacks[1 << j]` is (mask, shift): the mask has ones in every
    field whose set lacks j, and the shift is W << j.  After i rows a field
    is at most i!, so no field carries.  The answer is the field of the full
    set.  The masks depend on k alone, so they are built once per k and
    kept in `_LACKS`.  Larger pairs run the DP in a dict of bitmasks;
    the count does not depend on the order of the rows, and taking the rows
    with fewest partners first keeps fewer bitmasks alive.
    """
    k = len(options)
    width = math.factorial(k).bit_length() + 1
    if width << k <= PACKED_COUNT_BITS:
        lacks = _LACKS.get(k)
        if lacks is None:
            # the mask of bit 1 << j repeats 2**j fields of ones and
            # 2**j fields of zeros
            lacks = _LACKS[k] = {}
            for j in range(k):
                mask = (1 << (width << j)) - 1
                for t in range(j + 1, k):
                    mask |= mask << (width << t)
                lacks[1 << j] = (mask, width << j)
        ways = 1
        for row in options:
            nxt = 0
            for _, bit, _ in row:
                mask, shift = lacks[bit]
                nxt += (ways & mask) << shift
            ways = nxt
        return ways >> ((width << k) - width)
    ways = {0: 1}
    for bits in sorted(([bit for _, bit, _ in row] for row in options), key=len):
        nxt: dict[int, int] = {}
        for used, count in ways.items():
            for bit in bits:
                if not used & bit:
                    nxt[used | bit] = nxt.get(used | bit, 0) + count
        ways = nxt
    return sum(ways.values())


def _walk(
    options: EdgeTable, sums: tuple[int, ...]
) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
    """Every matching's class, walked: (class key -> class size, class key
    -> first assignment).

    A matching's class key is the sum of `1 << width * r` over its pairs
    (a, b), where r is the rank of a + b in `sums` and width is
    `k.bit_length()`.  A count never exceeds k < 2**width, so no digit
    carries: the key encodes the multiplicity vector and is determined by
    it.  The walk backtracks over the first ceil(k/2) elements of A in
    ascending order, trying each one's partners in ascending order of B, and
    keeps the used elements of B as a bitmask.  The completions of the other
    elements depend only on the set of B left.  The first time a prefix
    leaves a set, its completions are walked once and kept as key part -> (count, first completion); a set no prefix leaves is
    never walked.  Each prefix adds its key to the parts, so sizes and first
    matchings come out as one walk over whole matchings in assignment order
    gives them.
    """
    k = len(options)
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
    return sizes, first


class _SearchBudgetExceeded(Exception):
    """The witness search created more states than its budget allows."""


def _search(
    options: EdgeTable, sums: tuple[int, ...], budget: int
) -> tuple[int, ...] | None:
    """The assignment of the singleton class with the lex-least vector, or
    None when no class is a singleton.

    Vectors compare entry by entry from the smallest sum, so at the lowest
    sum where two differ a nonzero count beats 0 and a smaller count beats a
    larger one.  The search therefore fixes the count of each distinct sum
    in ascending order, trying 1, 2, ... and then 0, and descends depth
    first.  A node holds the partial matchings that give its counts, merged
    by (A left, B left), each state with its number of partial
    matchings and one of them.  Edges with one sum share no element, so the
    partial matchings a count c adds are the c-subsets of the state's edges
    at that sum with both ends left.  A state is dropped once an element of
    A left has no partner left at a larger sum.  A sum at which no state has
    an edge left allows only count 0 and drops no state, so the search
    jumps over it without forming subsets, counting each state as created
    once per sum passed over, as a visit of each sum would.  After the
    largest sum only the state with nothing left survives, and its count is
    the class size: the first count of 1 is the witness.  Raises
    `_SearchBudgetExceeded` before creating more than `budget` states.

    Both tests, and a state's free edges, are one int expression per
    state.  A packed int has a field of k + 1 bits per element a_i of A:
    its low k bits hold a set of B and its top bit is a_i's guard bit.  The
    elements of A left are kept as their guard bits, and each sum keeps the
    partners of every a_i at it and at larger sums as one packed int each.
    `left_b * rep` copies the set of B left into every field; masked by
    partners and added to `fill`, 2**k - 1 in every field, it sets the
    guard bit of exactly the fields with a partner left, and no field
    carries into the next.  Masked by the partners at the sum and by the
    fields of A left, it is the state's free edges there: bit j of field i
    is the edge (a_i, b_j).  Any c of these bits form a c-subset, held as
    their sum e: `e + fill` carries into the guard bits of their elements
    of A, and `e % fold`, the sum of e's fields, is the set of their
    elements of B.  A state's partial matching is the sum of its chosen
    edges, one bit per field once A is used up.  A level with one state and
    one free edge, the most common one, tries count 1 and then count 0
    without forming subsets or merging.  A level's free edges are split
    into bits only once its budget allows count 1.
    """
    k = len(options)
    last = len(sums) - 1
    rank = {s: r for r, s in enumerate(sums)}
    # field i of a packed int: bits width * i .. width * i + k, guard on top
    width = k + 1
    guard = 1 << k
    ones = guard - 1  # the set of all of B, or the low k bits of a field
    fold = (1 << width) - 1
    rep = ((1 << width * k) - 1) // fold  # a 1 in every field
    fill = ones * rep
    # at[r] and later[r]: field i holds a_i's partners at sums[r] and at
    # sums above it
    at = [0] * len(sums)
    for i, row in enumerate(options):
        shift = width * i
        for _, bit, s in row:
            at[rank[s]] |= bit << shift
    later = [0] * len(sums)
    above = 0
    for r in range(last, -1, -1):
        later[r] = above
        above |= at[r]
    created = 0

    def descend(r, states):
        nonlocal created
        # A sum at which no state has an edge left allows count 0 only and
        # keeps every state, each of which passed the drop test against its
        # partners at that sum and above.  Jump to the first sum from
        # sums[r] on with an edge left, each state counting as created once
        # per sum passed over.
        live = last + 1
        for left_a, left_b in states:
            spread = left_b * rep
            for t in range(r, live):
                if left_a & ((spread & at[t]) + fill):
                    live = t
                    break
        created += len(states) * (live - r)
        if created > budget:
            raise _SearchBudgetExceeded
        if live > last:
            # only the state with nothing left gets here
            ways, picked = states[0, 0]
            return picked if ways == 1 else None
        r = live
        at_r, later_r = at[r], later[r]
        if len(states) == 1:
            [((left_a, left_b), (ways, picked))] = states.items()
            edges = left_b * rep & at_r & (left_a >> k) * ones
            if not edges & (edges - 1):
                # one free edge: count 1 takes it, count 0 keeps the state,
                # one state created for each
                for e in (edges, 0):
                    created += 1
                    if created > budget:
                        raise _SearchBudgetExceeded
                    ra = left_a & ~(e + fill)
                    rb = left_b ^ e % fold
                    if ra & ~((rb * rep & later_r) + fill):
                        continue
                    if r < last:
                        found = descend(r + 1, {(ra, rb): [ways, picked | e]})
                        if found is not None:
                            return found
                    elif ways == 1:
                        return picked | e
                return None
        # each state with its free edges at sums[r] as one int
        free = [(left_a, left_b, ways, picked, left_b * rep & at_r & (left_a >> k) * ones)
                for (left_a, left_b), (ways, picked) in states.items()]
        sizes = [edges.bit_count() for *_, edges in free]
        for c in (*range(1, max(sizes) + 1), 0):
            created += sum(math.comb(n, c) for n in sizes)
            if created > budget:
                raise _SearchBudgetExceeded
            if c == 1:
                # the free edges one bit each, split once count 1 is in budget
                free = [(left_a, left_b, ways, picked, _bits(edges))
                        for left_a, left_b, ways, picked, edges in free]
            merged: dict[tuple[int, int], list] = {}
            for left_a, left_b, ways, picked, bits in free:
                for e in map(sum, itertools.combinations(bits, c)):
                    ra = left_a & ~(e + fill)
                    rb = left_b ^ e % fold
                    # drop the state if some a_i left finds no partner left
                    # in its field: adding fill carries into the guard bit
                    # of exactly the fields that are not empty
                    if ra & ~((rb * rep & later_r) + fill):
                        continue
                    entry = merged.get((ra, rb))
                    if entry is None:
                        merged[ra, rb] = [ways, picked | e]
                    else:
                        entry[0] += ways
            if not merged:
                continue
            if r < last:
                found = descend(r + 1, merged)
                if found is not None:
                    return found
            elif merged[0, 0][0] == 1:
                return merged[0, 0][1]
        return None

    picked = descend(0, {(guard * rep, ones): [1, 0]})
    if picked is None:
        return None
    # field i of picked holds the bit of a_i's partner
    assignment = []
    for row in options:
        b_bit = picked & ones
        assignment.append(next(b for b, bit, _ in row if bit == b_bit))
        picked >>= width
    return tuple(assignment)


def _bits(x: int) -> list[int]:
    """The set bits of x, lowest first, as powers of two."""
    bits = []
    while x:
        low = x & -x
        bits.append(low)
        x ^= low
    return bits


def iter_valid_pairs(n: int) -> Iterator[SubsetPair]:
    """All valid (A, B) pairs of Z/nZ in deterministic (|A|, lex A, lex B)
    order.  B is drawn from [1, n)."""
    g = cyclic(n)
    for k in range(1, n):
        for a_set in itertools.combinations(range(n), k):
            for b_set in itertools.combinations(range(1, n), k):
                yield SubsetPair(g, a_set, b_set)


def _least_in_orbit(n: int, pair: SubsetPair, unit_group: tuple[int, ...]) -> bool:
    """Whether (A, B) is the lex-least pair of its orbit under simultaneous
    scaling by the units `unit_group` of Z/nZ: False at the first unit whose
    image is smaller.

    Sound because u(a + f(a)) = ua + u f(a) and uA is the image of A, so the
    multiplicity-class structure is preserved.  Translating A and B together
    is not sound: a + f(a) moves by 2t while A moves by t, so the condition
    a + f(a) not in A is not kept.  Translating A alone is sound, since
    (a + t) + f(a) lies in A + t exactly when a + f(a) lies in A, and it
    keeps the class sizes; it is not used yet.
    """
    pair_key = (pair.a, pair.b)
    for u in unit_group:
        image = (
            tuple(sorted(u * a % n for a in pair.a)),
            tuple(sorted(u * b % n for b in pair.b)),
        )
        if image < pair_key:
            return False
    return True


@dataclass(frozen=True)
class GroupSearchResult:
    holds: bool
    counterexample: SubsetPair | None
    pairs_checked: int


def verify_group_amp(
    g: GroupCtx,
    use_symmetry: bool = True,
    exhaustive_bound: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> GroupSearchResult:
    """Exhaustively test the acyclic matching property of Z/nZ.

    Iterates every valid pair in deterministic order.  With symmetry
    reduction only the lex-least pair of each unit-scaling orbit is tested,
    and no verdict is kept: `iter_valid_pairs` yields pairs in (|A|, A, B)
    lex order, the order in which `_least_in_orbit` compares images, and
    u = 1 is a unit, so an orbit's least pair comes before the rest of it.
    The verdict is the same on the whole orbit, so the sweep stops at the
    same pair and reports the same counterexample and count either way.
    """
    if not g.is_cyclic:
        raise ValueError("exhaustive verification requires a cyclic group")
    n = g.modulus
    if n > exhaustive_bound:
        raise BoundExceededError(f"group order {n} exceeds exhaustive bound {exhaustive_bound}")
    unit_group = units(g) if use_symmetry else ()
    checked = 0
    for pair in iter_valid_pairs(n):
        checked += 1
        if use_symmetry and not _least_in_orbit(n, pair, unit_group):
            continue
        if not acyclicity_report(pair).has_acyclic:
            return GroupSearchResult(False, pair, checked)
    return GroupSearchResult(True, None, checked)
