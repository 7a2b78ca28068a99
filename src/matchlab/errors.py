"""Exception types and checked-arithmetic limits shared across the package."""

# Counts and polynomial coefficients are kept inside signed 64-bit range and
# checked on every arithmetic step.
I64_MAX = 2**63 - 1


class MatchlabError(Exception):
    """Base class for all package errors."""


class BoundExceededError(MatchlabError):
    """A configured resource bound (enumeration size, group order, element
    magnitude) was exceeded.  Maps to CLI exit code 3."""


class CoefficientOverflowError(MatchlabError):
    """A polynomial coefficient or matching count left the checked 64-bit
    range.  Never silently wraps.  Maps to CLI exit code 3."""


class VerificationFailure(MatchlabError):
    """A claim failed to re-verify from primitives.  Maps to CLI exit code 1
    and always carries a diagnostic payload in its message."""
