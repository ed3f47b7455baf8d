"""Shared exception types."""


class UsageError(ValueError):
    """Caller violated a precondition (bad id, empty set, out-of-range arg)."""


class NoColorError(RuntimeError):
    """Every color of a consistent hash overflowed its bucket cap.

    Signals that the sampled hash family missed its success event. Every
    structure recovers through `hashing.hash_level`: it resamples the failed
    level with a fresh seed, counts the event, and rehashes the level. After
    `hashing.NOCOLOR_ATTEMPTS` (5) failed resamples it restores the original
    family, leaves the structure as it was before the call, and lets this
    error propagate.
    """


class NoMassError(RuntimeError):
    """A sample was requested but every live point coincides with a center."""
