"""Machine-checkable certificates for the acyclic-matching classification.

Three claim families:

* ``coprime6_failure``: for n > 5 coprime to 6, the pair
  A = Z/nZ \\ {0,1,3}, B = Z/nZ \\ {0,1,m} (m = 2 if n = 6k+1, m = 6 if
  n = 6k+5) has every multiplicity class of size >= 2, so no acyclic
  matching exists.  ``genfun.genfun_routes`` computes the pair's generating
  function by every route that applies.  The checks: every coefficient of
  the closed form is >= 2 (``all_coefficients_ge_2``), the closed form
  equals the transfer matrix's (``closed_form_matches_transfer``), and,
  while |A| = n - 3 is within ``matching.ENUMERATION_BOUND``, the enumerated
  classes too (``matches_brute_genfun``), whose total the certificate
  carries.
* ``nonprime_failure``: for composite n, A = <a> and B = (<a> u {x}) \\ {0}
  admit no matching at all: augmenting paths find none
  (``no_matching_augmenting_paths``), and the neighbourhood N(A) of A in B
  is {x}, smaller than A (``hall_violation``).  The routes share nothing
  past the pair.  Augmenting paths stop at the first element of A they
  cannot place, here the second, so they build 2 rows of partners, 2|B|
  ``GroupCtx.add`` calls.  Hall's route reads every sum y + b as one bit
  of A's n-bit mask rotated by b, with no use of the subgroup structure.
* ``classification``: the overall verdict for a group - the acyclic
  matching property holds exactly for Z, Z/2, Z/3, Z/5 (and vacuously for
  the trivial group).

Certificates carry enough evidence to re-verify without re-running the
original search.  A failure certificate is ``verified`` exactly when all of
its ``checks`` hold, and lists the ones that do not as ``failed_checks``.
Nothing here takes a setting: enumeration stops at
``matching.ENUMERATION_BOUND`` elements of A, exhaustive checks at
``matching.DEFAULT_EXHAUSTIVE_BOUND``, and the integers are sampled with a
fixed seed and count.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Any

from .errors import VerificationFailure
from .genfun import genfun_routes
from .groups import GroupCtx, cyclic, integers, subgroup_generated
from .matching import (
    SubsetPair,
    acyclicity_report,
    matching_exists,
    verify_group_amp,
)

CERTIFICATE_SCHEMA_VERSION = 1

SAMPLE_COUNT = 500
SAMPLE_SEED = 20240601
SAMPLE_MAX_SIZE = 5
SAMPLE_SPAN = 6


@dataclass
class Certificate:
    """Auditable evidence for one claim; serializes to JSON with a stable
    schema version."""

    claim: str
    descriptor: str
    verified: bool
    evidence: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema_version": CERTIFICATE_SCHEMA_VERSION,
            "claim": self.claim,
            "descriptor": self.descriptor,
            "verified": self.verified,
            "evidence": self.evidence,
        }


def _checked(claim: str, descriptor: str, evidence: dict[str, Any],
             checks: dict[str, bool]) -> Certificate:
    """The certificate of a failure claim: ``verified`` exactly when every
    check holds, with the failed ones listed next to the evidence
    otherwise."""
    evidence["checks"] = checks
    verified = all(checks.values())
    if not verified:
        evidence["failed_checks"] = sorted(k for k, v in checks.items() if not v)
    return Certificate(claim, descriptor, verified, evidence)


def certify_coprime6(n: int) -> Certificate:
    """Certificate that Z/nZ (n > 5, coprime to 6) lacks the acyclic
    matching property, witnessed by the standard pair.

    Any coefficient equal to 1 would falsify the claim and marks the
    certificate failed, loudly.
    """
    if n <= 5 or math.gcd(n, 6) != 1:
        raise ValueError(f"need n > 5 coprime to 6, got {n}")
    case, m = (1, 2) if n % 6 == 1 else (2, 6)
    routes = genfun_routes(n, m)
    poly = routes["closed"]
    brute = routes.get("brute")

    evidence: dict[str, Any] = {
        "n": n,
        "case": case,
        "m": m,
        "witness_pair": {
            "a_removed": [0, 1, 3],
            "b_removed": [0, 1, m],
        },
        "genfun": poly.to_json_terms(),
        "min_coefficient": poly.min_coefficient(),
        "enumeration": None if brute is None else {"total_matchings": brute.total()},
    }
    checks = {
        "closed_form_matches_transfer": routes.get("transfer") == poly,
        "all_coefficients_ge_2": bool(poly) and all(c >= 2 for c in poly.coefficients()),
    }
    if brute is not None:
        checks["matches_brute_genfun"] = brute == poly
    return _checked("coprime6_failure", f"Z/{n}Z", evidence, checks)


def _rotate(mask: int, k: int, n: int) -> int:
    """The n-bit mask rotated by k: bit y moves to bit (y + k) mod n."""
    return ((mask << k) | (mask >> (n - k))) & ((1 << n) - 1)


def _neighbourhood(n: int, a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """N(A): the t in B with (y + t) mod n outside A for some y in A, that
    is, A's n-bit mask, built in O(n), rotated by t has a bit outside A."""
    bits = bytearray(b"0" * n)
    for y in a:
        bits[n - 1 - y] = ord("1")
    mask = int(bits, 2)
    return [t for t in b if _rotate(mask, t, n) & ~mask]


def _least_factor(n: int) -> int | None:
    """The least prime factor of n when n is composite, else None."""
    if n < 4:
        return None
    return next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), None)


def nonprime_counterexample(n: int) -> Certificate:
    """Certificate that for composite n, A = <a> and B = (<a> u {x}) \\ {0}
    admit no matching at all (a = smallest prime divisor of n, x = smallest
    element outside <a>).  The evidence carries the neighbourhood N(A) of A
    in B, which is smaller than A."""
    if n <= 1:
        raise ValueError(f"need composite n > 1, got {n}")
    a = _least_factor(n)
    if a is None:
        raise ValueError(f"n = {n} is prime; no subgroup counterexample exists")
    g = cyclic(n)
    a_set = subgroup_generated(g, a)
    sub_set = set(a_set)
    x = next(e for e in range(n) if e not in sub_set)
    b_set = tuple(sorted((sub_set | {x}) - {0}))
    pair = SubsetPair(g, a_set, b_set)
    neighbourhood = _neighbourhood(n, a_set, b_set)

    evidence = {
        "n": n,
        "generator": a,
        "extra_element": x,
        "pair": {"a": list(a_set), "b": list(b_set)},
        "neighbourhood": neighbourhood,
    }
    checks = {
        "no_matching_augmenting_paths": not matching_exists(pair),
        # the independent route: Hall's condition fails, |N(A)| < |A|
        "hall_violation": len(neighbourhood) < len(a_set),
    }
    return _checked("nonprime_failure", f"Z/{n}Z", evidence, checks)


def failure_certificate(n: int) -> Certificate:
    """Failure certificate for Z/nZ: the subgroup counterexample for
    composite n, the standard-pair certificate otherwise.  Raises
    ValueError when neither applies (n <= 5 and not composite)."""
    if _least_factor(n):
        return nonprime_counterexample(n)
    return certify_coprime6(n)


def sample_integer_pairs(rng: random.Random, count: int) -> list[SubsetPair]:
    """Seeded random pairs A, B of subsets of Z with
    |A| = |B| <= SAMPLE_MAX_SIZE, elements in [-SAMPLE_SPAN, SAMPLE_SPAN],
    0 not in B."""
    g = integers()
    pairs = []
    universe = list(range(-SAMPLE_SPAN, SAMPLE_SPAN + 1))
    universe_no_zero = [x for x in universe if x != 0]
    for _ in range(count):
        k = rng.randint(1, SAMPLE_MAX_SIZE)
        a = tuple(sorted(rng.sample(universe, k)))
        b = tuple(sorted(rng.sample(universe_no_zero, k)))
        pairs.append(SubsetPair(g, a, b))
    return pairs


def spot_check_integers() -> dict[str, Any]:
    """Sampled evidence that finite subsets of Z are always acyclically
    matched (torsion-free behavior at desk scale): SAMPLE_COUNT pairs drawn
    with SAMPLE_SEED."""
    failures = []
    for pair in sample_integer_pairs(random.Random(SAMPLE_SEED), SAMPLE_COUNT):
        if not acyclicity_report(pair).has_acyclic:
            failures.append({"a": list(pair.a), "b": list(pair.b)})
    return {
        "seed": SAMPLE_SEED,
        "samples": SAMPLE_COUNT,
        "max_size": SAMPLE_MAX_SIZE,
        "element_span": SAMPLE_SPAN,
        "failures": failures,
    }


def classify(g: GroupCtx) -> Certificate:
    """Classification verdict: the acyclic matching property holds exactly
    for the integers and for Z/pZ with p in {2, 3, 5}.

    The positive cyclic cases are re-verified exhaustively in-repo, and a
    failed check names its counterexample pair; the negative cases carry
    coprime6 or subgroup evidence.
    """
    if not g.is_cyclic:
        evidence = {"method": "torsion_free_sampled", **spot_check_integers()}
        ok = not evidence["failures"]
        return Certificate(
            "classification",
            g.describe(),
            ok,
            {"holds": ok, **evidence},
        )

    n = g.modulus
    if n == 1:
        # no valid (A, B) exists: B must be nonempty yet avoid 0
        return Certificate(
            "classification",
            g.describe(),
            True,
            {"holds": True, "vacuous": True, "method": "no_valid_pairs"},
        )
    if n in (2, 3, 5):
        result = verify_group_amp(g)
        evidence = {
            "holds": result.holds,
            "method": "exhaustive",
            "pairs_checked": result.pairs_checked,
        }
        if not result.holds:
            pair = result.counterexample
            evidence["counterexample"] = {"a": list(pair.a), "b": list(pair.b)}
        return Certificate("classification", g.describe(), result.holds, evidence)
    # n = 4 or n > 5: the property fails
    inner = failure_certificate(n)
    if not inner.verified:
        raise VerificationFailure(
            f"evidence for Z/{n}Z failed to verify: "
            f"{json.dumps(inner.to_json_dict(), sort_keys=True)}"
        )
    return Certificate(
        "classification",
        g.describe(),
        True,
        {"holds": False, "method": inner.claim, "evidence": inner.to_json_dict()},
    )
