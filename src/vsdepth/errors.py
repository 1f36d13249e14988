"""Exception types shared across the package."""


class VsdepthError(Exception):
    """Base class for the errors this package raises on bad input; the CLI
    exits 2 on them."""


class ElementOutOfRange(VsdepthError):
    pass


class UniverseOutOfRange(VsdepthError):
    pass


class UniverseMismatch(VsdepthError):
    pass


class EmptySet(VsdepthError):
    pass


class DensityOutOfRange(VsdepthError):
    pass


class RefusesUnverified(VsdepthError):
    pass


class MatchingFailed(AssertionError):
    """A matching guaranteed to exist could not be completed.

    This signals an internal-consistency bug, never a recoverable condition,
    so it is not a VsdepthError: the CLI reports it as an internal error.
    """


class BadParameters(VsdepthError):
    pass


class MemberLimitExceeded(BadParameters):
    """A certificate would have more members than the verifier holds."""


class CertificateFormatError(VsdepthError):
    pass
