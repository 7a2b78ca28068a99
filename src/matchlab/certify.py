"""Machine-checkable certificates for the acyclic-matching classification.

Three claim families:

* ``coprime6_failure``: for n > 5 coprime to 6, the pair
  A = Z/nZ \\ {0,1,3}, B = Z/nZ \\ {0,1,m} (m = 2 if n = 6k+1, m = 6 if
  n = 6k+5) has every multiplicity class of size >= 2, so no acyclic
  matching exists.
* ``nonprime_failure``: for composite n, A = <a> and B = (<a> u {x}) \\ {0}
  admit no matching at all.
* ``classification``: the overall verdict for a group descriptor - the
  acyclic matching property holds exactly for Z, Z/2, Z/3, Z/5 (and
  vacuously for the trivial group).

Certificates carry enough evidence to re-verify without re-running the
original search, and ``verified`` is set only after re-checking the evidence
against the enumeration and generating-function primitives.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

from .errors import VerificationFailure
from .genfun import (
    brute_genfun,
    closed_form_m2,
    closed_form_m6,
    standard_pair,
    transfer_genfun,
)
from .groups import cyclic, integers, subgroup_generated
from .matching import (
    DEFAULT_ENUMERATION_BOUND,
    DEFAULT_EXHAUSTIVE_BOUND,
    SubsetPair,
    acyclicity_report,
    matching_exists,
    verify_group_amp,
)

CERTIFICATE_SCHEMA_VERSION = 1

# Full enumeration is required alongside the coefficient argument up to this
# group order; past it the closed form alone carries the certificate.
ENUMERATION_CROSSCHECK_MAX_N = 14

DEFAULT_SAMPLE_COUNT = 500
DEFAULT_SEED = 20240601


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


def _case1_modular_obstruction(n: int) -> dict[str, Any]:
    """For n = 6k+1, m = 2: binomial coefficients binom(w0+w1, w1) in the
    closed form equal 1 only when w0 = 0 or w1 = 0, and the support
    constraint 3*w0 + 2*w1 = n - 2 = 6k - 1 rules both out:
    w0 = 0 forces 2*w1 odd, w1 = 0 forces 3 | 6k - 1."""
    target = n - 2
    return {
        "support_equation": f"3*w0 + 2*w1 = {target}",
        "w0_zero_impossible": target % 2 == 1,
        "w1_zero_impossible": target % 3 != 0,
    }


def certify_coprime6(
    n: int, enumeration_bound: int = DEFAULT_ENUMERATION_BOUND
) -> Certificate:
    """Certificate that Z/nZ (n > 5, coprime to 6) lacks the acyclic
    matching property, witnessed by the standard pair.

    Any coefficient equal to 1 would falsify the claim and marks the
    certificate failed, loudly.
    """
    if n <= 5 or math.gcd(n, 6) != 1:
        raise ValueError(f"need n > 5 coprime to 6, got {n}")
    if n % 6 == 1:
        case, m = 1, 2
        poly = closed_form_m2(n)
    else:  # n % 6 == 5
        case, m = 2, 6
        poly = closed_form_m6(n)

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
    }

    checks: dict[str, bool] = {}
    transfer = transfer_genfun(n, m)
    checks["closed_form_matches_transfer"] = transfer == poly
    checks["all_coefficients_ge_2"] = bool(poly) and all(
        c >= 2 for c in poly.coefficients()
    )
    if case == 1:
        obstruction = _case1_modular_obstruction(n)
        evidence["modular_obstruction"] = obstruction
        checks["modular_obstruction"] = (
            obstruction["w0_zero_impossible"] and obstruction["w1_zero_impossible"]
        )

    if n - 3 <= enumeration_bound and n <= ENUMERATION_CROSSCHECK_MAX_N:
        report = acyclicity_report(standard_pair(n, m), enumeration_bound)
        evidence["enumeration"] = {
            "total_matchings": report.total_matchings,
            "class_sizes": [count for _, count, _ in report.classes],
        }
        checks["no_singleton_class"] = not report.has_acyclic
        checks["count_matches_genfun"] = report.total_matchings == poly.total()
        checks["matches_brute_genfun"] = brute_genfun(n, m, enumeration_bound) == poly
    else:
        evidence["enumeration"] = None

    evidence["checks"] = checks
    verified = all(checks.values())
    if not verified:
        # would falsify the underlying claim; surface the full evidence
        failed = sorted(k for k, v in checks.items() if not v)
        evidence["failed_checks"] = failed
    return Certificate("coprime6_failure", f"Z/{n}Z", verified, evidence)


def nonprime_counterexample(
    n: int, enumeration_bound: int = DEFAULT_ENUMERATION_BOUND
) -> Certificate:
    """Certificate that for composite n, A = <a> and B = (<a> u {x}) \\ {0}
    admit no matching at all (a = smallest prime divisor of n, x = smallest
    element outside <a>)."""
    if n <= 1:
        raise ValueError(f"need composite n > 1, got {n}")
    a = next((d for d in range(2, n) if n % d == 0), None)
    if a is None:
        raise ValueError(f"n = {n} is prime; no subgroup counterexample exists")
    g = cyclic(n)
    sub = subgroup_generated(g, a)
    sub_set = set(sub)
    x = next(e for e in range(n) if e not in sub_set)
    a_set = sub
    b_set = tuple(sorted((sub_set | {x}) - {0}))
    pair = SubsetPair(g, a_set, b_set)

    no_matching = not matching_exists(pair)
    # independent route: full enumeration yields nothing
    enum_empty = True
    if pair.size <= enumeration_bound:
        enum_empty = acyclicity_report(pair, enumeration_bound).total_matchings == 0

    evidence = {
        "n": n,
        "generator": a,
        "extra_element": x,
        "pair": {"a": list(a_set), "b": list(b_set)},
        "checks": {
            "no_matching_augmenting_paths": no_matching,
            "no_matching_enumeration": enum_empty,
        },
    }
    return Certificate(
        "nonprime_failure", f"Z/{n}Z", no_matching and enum_empty, evidence
    )


def failure_certificate(
    n: int, enumeration_bound: int = DEFAULT_ENUMERATION_BOUND
) -> Certificate:
    """Failure certificate for Z/nZ: the subgroup counterexample for
    composite n, the standard-pair certificate otherwise.  Raises
    ValueError when neither applies (n <= 5 and not composite)."""
    if any(n % d == 0 for d in range(2, n)):
        return nonprime_counterexample(n, enumeration_bound)
    return certify_coprime6(n, enumeration_bound)


def sample_integer_pairs(
    rng: random.Random,
    count: int,
    max_size: int = 5,
    span: int = 6,
) -> list[SubsetPair]:
    """Seeded random pairs A, B of subsets of Z with |A| = |B| <= max_size,
    elements in [-span, span], 0 not in B."""
    g = integers()
    pairs = []
    universe = list(range(-span, span + 1))
    universe_no_zero = [x for x in universe if x != 0]
    for _ in range(count):
        k = rng.randint(1, max_size)
        a = tuple(sorted(rng.sample(universe, k)))
        b = tuple(sorted(rng.sample(universe_no_zero, k)))
        pairs.append(SubsetPair(g, a, b))
    return pairs


def spot_check_integers(
    seed: int = DEFAULT_SEED,
    count: int = DEFAULT_SAMPLE_COUNT,
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
) -> dict[str, Any]:
    """Sampled evidence that finite subsets of Z are always acyclically
    matched (torsion-free behavior at desk scale)."""
    rng = random.Random(seed)
    failures = []
    for pair in sample_integer_pairs(rng, count):
        if not acyclicity_report(pair, enumeration_bound).has_acyclic:
            failures.append({"a": list(pair.a), "b": list(pair.b)})
    return {
        "seed": seed,
        "samples": count,
        "max_size": 5,
        "element_span": 6,
        "failures": failures,
    }


def classify(
    descriptor: str | int,
    exhaustive_bound: int = DEFAULT_EXHAUSTIVE_BOUND,
    enumeration_bound: int = DEFAULT_ENUMERATION_BOUND,
    use_symmetry: bool = True,
    seed: int = DEFAULT_SEED,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
) -> Certificate:
    """Classification verdict: the acyclic matching property holds exactly
    for the integers and for Z/pZ with p in {2, 3, 5}.

    ``descriptor`` is "Z" for the integers or a positive int n for Z/nZ.
    The positive cyclic cases are re-verified exhaustively in-repo; the
    negative cases carry coprime6 or subgroup evidence.
    """
    if isinstance(descriptor, str) and descriptor.upper() == "Z":
        evidence = {"method": "torsion_free_sampled", **spot_check_integers(
            seed, sample_count, enumeration_bound
        )}
        ok = not evidence["failures"]
        return Certificate(
            "classification",
            "Z",
            ok,
            {"holds": ok, **evidence},
        )

    n = int(descriptor)
    if n < 1:
        raise ValueError(f"group order must be >= 1, got {n}")
    g = cyclic(n)

    if n == 1:
        # no valid (A, B) exists: B must be nonempty yet avoid 0
        return Certificate(
            "classification",
            "Z/1Z",
            True,
            {"holds": True, "vacuous": True, "method": "no_valid_pairs"},
        )
    if n in (2, 3, 5):
        result = verify_group_amp(g, use_symmetry, exhaustive_bound, enumeration_bound)
        return Certificate(
            "classification",
            f"Z/{n}Z",
            result.holds,
            {
                "holds": result.holds,
                "method": "exhaustive",
                "pairs_checked": result.pairs_checked,
                "symmetry_reduction": use_symmetry,
            },
        )
    # n = 4 or n > 5: the property fails
    inner = failure_certificate(n, enumeration_bound)
    if not inner.verified:
        raise VerificationFailure(
            f"evidence for Z/{n}Z failed to verify: {inner.to_json_dict()}"
        )
    return Certificate(
        "classification",
        f"Z/{n}Z",
        True,
        {"holds": False, "method": inner.claim, "evidence": inner.to_json_dict()},
    )
