"""Ambient abelian groups: cyclic groups Z/nZ and the integers.

Elements are plain Python ints in canonical form: residues in [0, n) for the
cyclic case, any int for Z.  All operations are pure.

A group is its modulus, None for Z.  A new kind of group (a product of
cyclic groups, say) adds the field it needs and teaches `GroupCtx` its
`is_cyclic`, `is_canonical`, `add` and `describe`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GroupCtx:
    """A cyclic group of order ``modulus``, or the additive group of integers
    when ``modulus`` is None."""

    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and self.modulus < 1:
            raise ValueError(f"cyclic group needs modulus >= 1, got {self.modulus}")

    @property
    def is_cyclic(self) -> bool:
        return self.modulus is not None

    def is_canonical(self, x: int) -> bool:
        # one attribute read per call, as in add
        n = self.modulus
        return n is None or 0 <= x < n

    def add(self, x: int, y: int) -> int:
        """Group addition of canonical elements; result is canonical."""
        # one attribute read per call: engines add k^2 times per pair
        n = self.modulus
        return x + y if n is None else (x + y) % n

    def describe(self) -> str:
        return f"Z/{self.modulus}Z" if self.is_cyclic else "Z"


def cyclic(n: int) -> GroupCtx:
    return GroupCtx(n)


def integers() -> GroupCtx:
    return GroupCtx()


def parse_group(text: str) -> GroupCtx:
    """The group a descriptor names: "Z" (either case) for the integers, a
    positive integer n for Z/nZ."""
    if text.upper() == "Z":
        return integers()
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"group must be a positive integer or Z, got {text!r}") from None
    if n < 1:
        raise ValueError(f"group order must be >= 1, got {n}")
    return cyclic(n)


def subgroup_generated(g: GroupCtx, a: int) -> tuple[int, ...]:
    """The cyclic subgroup <a> of Z/nZ as a sorted tuple.

    Size is n / gcd(a, n); <0> = {0}.
    """
    if not g.is_cyclic:
        raise ValueError("subgroup enumeration requires a cyclic group")
    n = g.modulus
    return tuple(range(0, n, math.gcd(a, n)))


def units(g: GroupCtx) -> tuple[int, ...]:
    """Multiplicative units of Z/nZ: residues u in [1, n) with gcd(u, n) = 1.

    These act as automorphisms x -> u*x; used for symmetry reduction.
    """
    if not g.is_cyclic:
        raise ValueError("unit enumeration requires a cyclic group")
    n = g.modulus
    return tuple(u for u in range(1, n) if math.gcd(u, n) == 1)
