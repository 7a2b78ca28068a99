"""The reference route the tests check `matchlab.matching`'s engines against.

It imports nothing from `matchlab` and reads only a pair's data:
`pair.group.modulus` (None for Z), `pair.a` and `pair.b`.  It adds elements
itself, `(x + y) % n` in Z/nZ and `x + y` in Z, so a fault in the group
arithmetic cannot hide in both routes at once.  Assignments are tuples:
entry i is the partner of the i-th smallest element of A.
"""

from __future__ import annotations

from typing import Iterator


def _add(n: int | None, x: int, y: int) -> int:
    return x + y if n is None else (x + y) % n


def matchings(pair) -> Iterator[tuple[int, ...]]:
    """Every matching of `pair` exactly once, in lexicographic order, each
    yielded as soon as it is found.

    The backtracking runs over A in ascending order and tries each
    element's partners in ascending order of B.
    """
    n = pair.group.modulus
    a = sorted(pair.a)
    a_set = set(a)
    partners = [[y for y in sorted(pair.b) if _add(n, x, y) not in a_set] for x in a]
    partner: list[int] = []
    used: set[int] = set()

    def extend(i):
        if i == len(a):
            yield tuple(partner)
            return
        for y in partners[i]:
            if y not in used:
                used.add(y)
                partner.append(y)
                yield from extend(i + 1)
                partner.pop()
                used.remove(y)

    yield from extend(0)


def multiplicity(pair, assignment) -> tuple[tuple[int, int], ...]:
    """The counts of the sums a + f(a), as (sum, count) sorted by sum."""
    n = pair.group.modulus
    counts: dict[int, int] = {}
    for x, y in zip(sorted(pair.a), assignment):
        s = _add(n, x, y)
        counts[s] = counts.get(s, 0) + 1
    return tuple(sorted(counts.items()))


def reference_report(pair):
    """(total, classes, witness) of `pair`: classes are (vector, size, first
    assignment) sorted by vector, and the witness is the first assignment of
    the first class of size 1, or None."""
    sizes: dict[tuple, int] = {}
    first: dict[tuple, tuple[int, ...]] = {}
    for assignment in matchings(pair):
        key = multiplicity(pair, assignment)
        sizes[key] = sizes.get(key, 0) + 1
        first.setdefault(key, assignment)
    classes = [(key, sizes[key], first[key]) for key in sorted(sizes)]
    witness = next((m for _, size, m in classes if size == 1), None)
    return sum(sizes.values()), classes, witness


def standard_genfun(n: int, m: int) -> dict[tuple[int, int, int], int]:
    """The generating function of A = Z/nZ \\ {0,1,3}, B = Z/nZ \\ {0,1,m}
    as {(w0, w1, w3): count}, read from the pair's definition alone.

    With x = -a, every sum a + f(a) lies in {0, 1, 3}, so x takes the
    target b = x + d for some d in {0, 1, 3}.  The scan runs x = 0..n-1
    with the used targets in [x, x + 3] as a bitmask; a target in 0..2
    taken past n - 1 wraps, so each set of wrapped targets is fixed in
    advance and summed over (the transfer-matrix method for restricted
    permutations, Stanley, Enumerative Combinatorics I, section 4.7).
    """
    targets = set(range(n)) - {0, 1, m % n}
    sources = set(range(n)) - {0, n - 1, n - 3}
    low = [t for t in range(3) if t in targets]
    total: dict[tuple[int, int, int], int] = {}
    for wrapped in range(1 << len(low)):
        start = sum(1 << t for i, t in enumerate(low) if wrapped >> i & 1)
        states = {(start, (0, 0, 0)): 1}
        for x in range(n):
            placed: dict[tuple[int, tuple[int, int, int]], int] = {}
            for (mask, w), count in states.items():
                if x not in sources:
                    steps = [(mask, w)]
                else:
                    # a wrapped target (x + d >= n) is checked against
                    # `start` once the scan ends
                    steps = [
                        (mask | 1 << d, w[:i] + (w[i] + 1,) + w[i + 1:])
                        for i, d in enumerate((0, 1, 3))
                        if (x + d >= n or x + d in targets) and not mask >> d & 1
                    ]
                for new_mask, new_w in steps:
                    # target x is left behind: used exactly when it is in B
                    if new_mask & 1 == (x in targets):
                        key = (new_mask >> 1, new_w)
                        placed[key] = placed.get(key, 0) + count
            states = placed
        for (mask, w), count in states.items():
            if mask == start:
                total[w] = total.get(w, 0) + count
    return total
