"""Verification lab for the (acyclic) matching property in abelian groups."""

from .certify import (
    Certificate,
    certify_coprime6,
    classify,
    failure_certificate,
    nonprime_counterexample,
    spot_check_integers,
)
from .errors import (
    BoundExceededError,
    MatchlabError,
    VerificationFailure,
)
from .genfun import (
    GenPoly,
    binomial_family,
    brute_genfun,
    closed_form_m2,
    closed_form_m6,
    recurrence_check,
    standard_pair,
    transfer_genfun,
)
from .groups import GroupCtx, cyclic, integers, subgroup_generated, units
from .matching import (
    AcyclicityReport,
    Matching,
    SubsetPair,
    acyclicity_report,
    enumerate_matchings,
    is_matching,
    large_set_check,
    matching_exists,
    multiplicity,
    verify_group_amp,
)

__version__ = "0.1.0"
