"""Exception types shared across the package, and the one guard for count arguments.

Every error raised by chaindyn derives from :class:`ChainDynError`, so the
CLI (and embedding code) can catch one base class and map it to a nonzero
exit status.
"""


class ChainDynError(Exception):
    """Base class for all chaindyn errors."""


class InvalidParameterError(ChainDynError, ValueError):
    """A scalar argument is outside its documented range."""


class IncompatibleSpaceError(ChainDynError, ValueError):
    """Two objects built over different phase spaces were combined."""


class OutOfRangeError(ChainDynError, IndexError):
    """A point or component index does not exist."""


class InvalidCoverError(ChainDynError, ValueError):
    """A purported cover does not cover the space."""


class MalformedSpecError(ChainDynError, ValueError):
    """A system spec file could not be parsed."""


class ValidationError(ChainDynError, ValueError):
    """A system spec parsed but violates a documented invariant."""


class NoCycleError(ChainDynError, ValueError):
    """The component has no cycle, so cyclic classes are undefined."""


class UndefinedDiameterError(ChainDynError, ValueError):
    """Chain diameter requested for a graph that is not chain transitive."""


class NoCoprimeCyclesError(ChainDynError, ValueError):
    """No pair of coprime cycle lengths exists (period is not 1)."""


class NotCoprimeError(ChainDynError, ValueError):
    """Generators have gcd > 1, so no Frobenius-style bound exists."""


class ResourceLimitError(ChainDynError, RuntimeError):
    """An input exceeds the documented desk-scale caps."""


class DiscretizationTooCoarseError(ChainDynError, RuntimeError):
    """A pseudo-orbit step has no legal successor on the grid."""


class NoNonwanderingPointsError(ChainDynError, RuntimeError):
    """The finite non-wandering set is empty at the requested scale."""


def check_count(value: object, what: str, least: int = 1) -> None:
    """Raise :class:`InvalidParameterError` unless ``value`` is an int (no bool) >= ``least``."""
    if type(value) is not int or value < least:
        raise InvalidParameterError(f"{what} must be an integer >= {least}, got {value!r}")
