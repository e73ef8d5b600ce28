"""Exception types shared across the package."""


class MarketLearnError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(MarketLearnError):
    """Likelihood table shape does not match the state/signal spaces."""


class RowSumInvalid(MarketLearnError):
    """A likelihood row does not sum to one."""

    def __init__(self, state_index, row_sum):
        self.state_index = state_index
        self.row_sum = row_sum
        super().__init__(f"likelihood row {state_index} sums to {row_sum!r}, expected 1")


class NonPositiveDensity(MarketLearnError):
    """A likelihood entry is zero, negative, or non-finite."""

    def __init__(self, state_index, signal_index, value):
        self.state_index = state_index
        self.signal_index = signal_index
        self.value = value
        super().__init__(
            f"likelihood[{state_index}][{signal_index}] = {value!r} must be strictly positive and finite"
        )


class UnknownSignal(MarketLearnError):
    """Signal label is not part of the signal space."""


class InvalidBelief(MarketLearnError):
    """Belief weights are negative, non-finite, or do not sum to one."""


class OutOfHull(MarketLearnError):
    """A target expectation lies outside the convex hull of the state values."""


class NoConsistentPartition(MarketLearnError):
    """Defensive: the quote scan found no self-consistent signal partition."""


class DegenerateBelief(MarketLearnError):
    """The belief puts zero weight on the conditioning state."""


class PreconditionFailed(MarketLearnError):
    """A check was invoked outside its domain of validity."""


class ConfigInvalid(MarketLearnError):
    """Scenario configuration failed validation."""


class MissingResults(MarketLearnError):
    """Plot emission was requested without any simulation results."""
