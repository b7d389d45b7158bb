"""Exception hierarchy shared across the package."""


class RemogenError(Exception):
    """Base class for all package errors."""


class DimensionError(RemogenError, ValueError):
    """Array shapes do not satisfy an operation's contract."""


class NumericError(RemogenError, ArithmeticError):
    """A computation produced or received non-finite values."""


class EmptyInputError(RemogenError, ValueError):
    """An operation that needs at least one element received none."""


class ConfigError(RemogenError, ValueError):
    """Invalid configuration value, unknown key, or inconsistent setting."""


class FormatError(RemogenError, ValueError):
    """A file does not conform to its declared on-disk format."""


class CorruptArchiveError(FormatError):
    """Weight archive manifest and blob disagree (overlap, overflow, truncation)."""


class InsufficientFramesError(RemogenError, ValueError):
    """Too few frames for a finite-difference metric."""


class EngineStateError(RemogenError, RuntimeError):
    """An engine whose earlier tick failed refuses further ticks."""
