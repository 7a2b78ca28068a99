"""Exact sparse polynomials in c0, c1, c3 and the transfer-matrix generating
function that counts matchings of A = Z/nZ \\ {0,1,3} against
B = Z/nZ \\ {0,1,m} by multiplicity vector.

A matching's multiplicity vector is encoded as the monomial
c0^w0 * c1^w1 * c3^w3, where w_k counts elements a with a + f(a) = k (all
sums land in {0, 1, 3} for these pairs).  The transfer matrix aggregates the
ascending-order matching choices; its characteristic polynomial
x^3 - c1*c3*x - c0*c3^2 drives the linear recurrence, and for m = 2 and
m = 6 the coefficients collapse to binomial closed forms.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import BoundExceededError, VerificationFailure
from .groups import cyclic
from .matching import SubsetPair, acyclicity_report

Exponents = tuple[int, int, int]  # (w0, w1, w3)


class GenPoly:
    """Sparse polynomial over exponent triples (w0, w1, w3) with positive
    exact integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Exponents, int] | None = None):
        clean: dict[Exponents, int] = {}
        for w, c in (terms or {}).items():
            if c == 0:
                continue
            if c < 0:
                raise ValueError(f"negative coefficient {c} for {w}")
            w = (int(w[0]), int(w[1]), int(w[2]))
            if min(w) < 0:
                raise ValueError(f"negative exponent in {w}")
            clean[w] = c
        self._terms = clean

    @classmethod
    def monomial(cls, w0: int, w1: int, w3: int, coeff: int = 1) -> "GenPoly":
        return cls({(w0, w1, w3): coeff})

    def items(self) -> list[tuple[Exponents, int]]:
        """Terms sorted lex-ascending by (w0, w1, w3)."""
        return sorted(self._terms.items())

    def coefficients(self) -> list[int]:
        return [c for _, c in self.items()]

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenPoly):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "GenPoly") -> "GenPoly":
        terms = dict(self._terms)
        for w, c in other._terms.items():
            terms[w] = terms.get(w, 0) + c
        return GenPoly(terms)

    def __mul__(self, other: "GenPoly") -> "GenPoly":
        terms: Counter[Exponents] = Counter()
        for (a0, a1, a3), ca in self._terms.items():
            for (b0, b1, b3), cb in other._terms.items():
                w = (a0 + b0, a1 + b1, a3 + b3)
                terms[w] += ca * cb
        return GenPoly(dict(terms))

    def total(self) -> int:
        """Sum of all coefficients (total matching count)."""
        return sum(self._terms.values())

    def min_coefficient(self) -> int | None:
        return min(self._terms.values()) if self._terms else None

    def to_text(self) -> str:
        """Canonical text form: `2*c0*c1*c3^2 + ...`, terms lex-ascending."""
        if not self:
            return "0"
        parts = []
        for (w0, w1, w3), c in self.items():
            factors = [] if c == 1 else [str(c)]
            for name, w in (("c0", w0), ("c1", w1), ("c3", w3)):
                if w == 1:
                    factors.append(name)
                elif w > 1:
                    factors.append(f"{name}^{w}")
            parts.append("*".join(factors) if factors else "1")
        return " + ".join(parts)

    def to_json_terms(self) -> list[dict]:
        return [{"w": list(w), "c": c} for w, c in self.items()]

    @classmethod
    def from_json_terms(cls, terms: list[dict]) -> "GenPoly":
        return cls({tuple(t["w"]): t["c"] for t in terms})

    def __repr__(self) -> str:
        return f"GenPoly({self.to_text()})"


C0 = GenPoly.monomial(1, 0, 0)
C1 = GenPoly.monomial(0, 1, 0)
C3 = GenPoly.monomial(0, 0, 1)
ONE = GenPoly.monomial(0, 0, 0)
ZERO = GenPoly()

# Automaton pieces, exactly as the ascending-order matching construction
# prints them.  States before the gap at m track the single unmatched element
# of {1-b, 2-b, 3-b}; states after track the two unmatched ones.
STEP_MATRIX = (
    (ZERO, C3, ZERO),
    (C1, ZERO, C3),
    (C0, ZERO, ZERO),
)
GAP_MATRIX = (
    (ONE, ZERO, ZERO),
    (ZERO, ONE, ZERO),
    (ZERO, ZERO, ZERO),
)
TAIL_MATRIX = (
    (C1, ZERO, C3),
    (C0, ZERO, ZERO),
    (ZERO, C0, ZERO),
)
START_VECTOR = (C1 * C1 * C3, C0 * C3 * C3, C1 * C3 * C3)

Matrix = tuple[tuple[GenPoly, ...], ...]


def row_times_matrix(row: tuple[GenPoly, ...], m: Matrix) -> tuple[GenPoly, ...]:
    return tuple(
        sum((row[k] * m[k][j] for k in range(3)), ZERO) for j in range(3)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(row_times_matrix(row, b) for row in a)


def mat_pow(m: Matrix, e: int) -> Matrix:
    """Iterated multiplication; fast exponentiation buys nothing at these
    sizes because the polynomial entries dominate."""
    result: Matrix = (
        (ONE, ZERO, ZERO),
        (ZERO, ONE, ZERO),
        (ZERO, ZERO, ONE),
    )
    for _ in range(e):
        result = mat_mul(result, m)
    return result


def transfer_genfun(n: int, m: int) -> GenPoly:
    """Generating function for matchings of Z/nZ \\ {0,1,3} against
    Z/nZ \\ {0,1,m} via the transfer-matrix product.

    Requires m > 1 and n >= m + 4.
    """
    if m <= 1:
        raise ValueError(f"need m > 1, got {m}")
    if n < m + 4:
        raise ValueError(f"need n >= m + 4, got n={n}, m={m}")
    row = row_times_matrix(START_VECTOR, mat_pow(STEP_MATRIX, n - m - 4))
    row = row_times_matrix(row, GAP_MATRIX)
    row = row_times_matrix(row, mat_pow(TAIL_MATRIX, m - 2))
    # column (1, 0, 0) selects the first component
    result = row[0]
    _check_exponent_constraints(result, n, m)
    return result


def _check_exponent_constraints(p: GenPoly, n: int, m: int):
    """Every term must satisfy w0 + w1 + w3 = n - 3 and
    2*w0 + w1 + 1 = w3 + m (the summation-bound constraints)."""
    for (w0, w1, w3), _ in p.items():
        if w0 + w1 + w3 != n - 3 or 2 * w0 + w1 + 1 != w3 + m:
            raise VerificationFailure(
                f"term {(w0, w1, w3)} violates exponent constraints for n={n}, m={m}"
            )


def standard_pair(n: int, m: int) -> SubsetPair:
    """The pair A = Z/nZ \\ {0,1,3}, B = Z/nZ \\ {0,1,m}."""
    if m <= 1:
        raise ValueError(f"need m > 1, got {m}")
    if n <= max(m, 3):
        raise ValueError(f"need n > max(m, 3), got n={n}, m={m}")
    g = cyclic(n)
    a = tuple(x for x in range(n) if x not in (0, 1, 3))
    b = tuple(x for x in range(n) if x not in (0, 1, m))
    return SubsetPair(g, a, b)


def brute_genfun(n: int, m: int) -> GenPoly:
    """Oracle for transfer_genfun: enumerate all matchings of the standard
    pair and read each multiplicity class as the monomial
    c0^w0 * c1^w1 * c3^w3, w_k = number of sums a + f(a) equal to k."""
    terms: dict[Exponents, int] = {}
    for key, size, _ in acyclicity_report(standard_pair(n, m)).classes:
        counts = dict(key)
        extra = set(counts) - {0, 1, 3}
        if extra:
            raise VerificationFailure(
                f"class {key} has sums {sorted(extra)} outside {{0,1,3}} for n={n}, m={m}"
            )
        terms[(counts.get(0, 0), counts.get(1, 0), counts.get(3, 0))] = size
    return GenPoly(terms)


def binom(a: int, b: int) -> int:
    """binom(a, b) with the zero convention for b < 0, b > a, or a < 0."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


def _constrained_support(n: int, m: int) -> list[Exponents]:
    """Non-negative solutions of w0 + w1 + w3 = n - 3 and
    2*w0 + w1 + 1 = w3 + m, i.e. 3*w0 + 2*w1 = n + m - 4."""
    target = n + m - 4
    out = []
    for w0 in range(target // 3 + 1):
        rest = target - 3 * w0
        if rest % 2:
            continue
        w1 = rest // 2
        w3 = n - 3 - w0 - w1
        if w3 >= 0:
            out.append((w0, w1, w3))
    return sorted(out)


def binomial_family(n: int, d: int, e: int, m: int) -> GenPoly:
    """The constrained binomial sum with term coefficient
    binom(w0 + w1 - d, w1 - e); satisfies the recurrence of
    x^3 - c1*c3*x - c0*c3^2."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    terms: dict[Exponents, int] = {}
    for (w0, w1, w3) in _constrained_support(n, m):
        c = binom(w0 + w1 - d, w1 - e)
        if c:
            terms[(w0, w1, w3)] = c
    return GenPoly(terms)


def closed_form_m2(n: int) -> GenPoly:
    """Binomial closed form for m = 2: coefficient binom(w0 + w1, w1)."""
    if n < 6:
        raise ValueError(f"closed form for m=2 needs n >= 6, got {n}")
    return binomial_family(n, 0, 0, 2)


def closed_form_m6(n: int) -> GenPoly:
    """Three-binomial closed form for m = 6:
    binom(w0+w1-2, w1) + binom(w0+w1-3, w1-1) + binom(w0+w1-3, w1-3)."""
    if n < 10:
        raise ValueError(f"closed form for m=6 needs n >= 10, got {n}")
    return sum(
        (binomial_family(n, d, e, 6) for d, e in ((2, 0), (3, 1), (3, 3))), ZERO
    )


def genfun_by_method(method: str, n: int, m: int) -> GenPoly:
    """The generating function of the standard pair (n, m) by one method:
    "transfer", "brute" (enumeration, up to the enumeration bound) or
    "closed" (m = 2 or m = 6).  Raises ValueError for an unknown method or a missing closed
    form."""
    if method == "transfer":
        return transfer_genfun(n, m)
    if method == "brute":
        return brute_genfun(n, m)
    if method == "closed":
        if m == 2:
            return closed_form_m2(n)
        if m == 6:
            return closed_form_m6(n)
        raise ValueError(f"no closed form for m = {m} (only m = 2 and m = 6)")
    raise ValueError(f"unknown method {method!r}")


def genfun_routes(n: int, m: int) -> dict[str, GenPoly]:
    """The generating function of the standard pair (n, m) by every method
    that applies, keyed by method in the order transfer, brute, closed.  A
    method that raises ValueError (no closed form, n too small) or
    BoundExceededError (|A| past the enumeration bound) is left out."""
    routes: dict[str, GenPoly] = {}
    for method in ("transfer", "brute", "closed"):
        try:
            routes[method] = genfun_by_method(method, n, m)
        except (ValueError, BoundExceededError):
            continue
    return routes


def recurrence_check(seq: list[GenPoly]) -> bool:
    """True iff seq[i] = c1*c3*seq[i-2] + c0*c3^2*seq[i-3] for all i >= 3
    (seq indexed by consecutive n)."""
    if len(seq) < 4:
        raise ValueError(f"need at least 4 consecutive terms, got {len(seq)}")
    c1c3 = C1 * C3
    c0c3sq = C0 * C3 * C3
    return all(
        seq[i] == c1c3 * seq[i - 2] + c0c3sq * seq[i - 3]
        for i in range(3, len(seq))
    )
