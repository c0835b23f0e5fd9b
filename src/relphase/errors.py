"""Exception types shared across the package.

The CLI maps these onto exit code 3 (numerical precondition violations);
plain ValueError/usage problems map onto exit code 2.
"""


class RelphaseError(Exception):
    """Base class for numerical precondition violations."""


class TruncationError(RelphaseError):
    """Requested state does not fit the Fock truncation."""


class AliasingError(RelphaseError):
    """Angular or time grid too small for the band-limited integrand."""


class SupportError(RelphaseError):
    """State supported outside the domain an operation requires."""

