"""Exception types shared across the package."""


class LengthMismatchError(ValueError):
    """Paired sequences must have equal length."""


class DimensionCapError(ValueError):
    """Exact expansion refused above the configured dimension cap."""


class GreedyPreconditionError(RuntimeError):
    """The zero-capturing term construction found no row to take.

    An internal invariant failure, not bad input: callers only build the
    term for pairs whose no-cancellation conditions hold.
    """
