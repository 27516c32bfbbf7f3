"""Exception types shared across the package."""


class NumericRangeError(ArithmeticError):
    """A partial sum overflowed or became non-finite."""


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable or does not match the run config."""


class LongRunError(ValueError):
    """A run was stopped because its projected wall time passed its limit."""
