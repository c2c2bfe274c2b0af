"""Domain errors. All of them are recoverable conditions a caller opted into."""


class DomainError(Exception):
    """Base class for geometric/domain failures (CLI maps these to exit 1)."""


class HalfIntegerTie(DomainError):
    """Rounding was asked for an exact half-integer; nearest integer undefined."""


class PixelCenterHit(DomainError):
    """A path passes through a pixel center (m+1/2, n+1/2); digitization undefined."""


class EmptyRegion(DomainError):
    """No pixel of the window belongs to the region."""


class InvalidAxis(DomainError):
    """Reflection axis is not anchored on a pixel-corner or pixel-center line."""


class UnsupportedFormat(DomainError):
    """The requested output format does not apply to this renderer."""


class EmptySet(DomainError):
    """Image formats need at least one pixel."""


class ParallelSlopes(DomainError):
    """The two slopes coincide (ad - bc = 0); no angular region exists."""


class PartitionBoundary(DomainError):
    """Point lies exactly on a partition cell boundary; lookup refuses to guess."""
