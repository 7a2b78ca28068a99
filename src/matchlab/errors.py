"""Exception types shared across the package."""


class MatchlabError(Exception):
    """Base class for all package errors."""


class BoundExceededError(MatchlabError):
    """A configured resource bound (enumeration size, group order) was
    exceeded.  Maps to CLI exit code 3."""


class VerificationFailure(MatchlabError):
    """A claim failed to re-verify from primitives.  Maps to CLI exit code 1
    and always carries a diagnostic payload in its message."""
