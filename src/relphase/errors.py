"""Exception types shared across the package.

The CLI maps these onto exit code 3 (numerical precondition violations);
plain ValueError/usage problems map onto exit code 2.
"""


class RelphaseError(Exception):
    """Base class for numerical precondition violations."""


class TruncationError(RelphaseError):
    """Requested state does not fit the Fock truncation.

    ``required_n_max`` carries the smallest adequate truncation when known.
    """

    def __init__(self, message, required_n_max=None):
        super().__init__(message)
        self.required_n_max = required_n_max


class AliasingError(RelphaseError):
    """Angular or time grid too small for the band-limited integrand."""


class SupportError(RelphaseError):
    """State supported outside the domain an operation requires."""

