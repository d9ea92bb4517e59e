"""Exception hierarchy.

Config-level problems (bad files, unsupported engine/scenario combinations)
and numerical-health problems (nonphysical density matrices, Pfaffian
consistency) are kept distinct because the CLI maps them to different exit
codes (2 and 3).
"""


class XYChainError(Exception):
    """Base class for all package errors."""


class ConfigError(XYChainError):
    """Invalid configuration: bad key, missing field, malformed value."""


class CapabilityError(ConfigError):
    """Requested scenario/engine combination is not supported.

    Reported explicitly rather than silently approximated.
    """


class NumericalHealthError(XYChainError):
    """A numerical sanity check failed (nonphysical state, residue too large)."""


class CutoffError(XYChainError):
    """A site-distance cutoff was too small for the requested time."""


class OutOfRangeError(XYChainError, ValueError):
    """Argument outside the supported range of a special-function routine."""
