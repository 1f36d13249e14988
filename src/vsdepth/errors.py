"""Exception types shared across the package."""


class VsdepthError(Exception):
    """Base class for all errors raised by this package."""


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


class MatchingFailed(VsdepthError):
    """A matching guaranteed to exist could not be completed.

    This signals an internal-consistency bug, never a recoverable condition.
    """


class BadParameters(VsdepthError):
    pass


class DepthMismatch(VsdepthError):
    pass


class CertificateFormatError(VsdepthError):
    pass
