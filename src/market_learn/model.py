"""Finite state/signal spaces, signal structures, beliefs, and Bayes updates.

Everything here is a plain value type plus pure functions; nothing mutates
after construction, so instances can be shared freely across threads.

A note on the noise rate ``eta``: throughout this package ``eta`` is the
probability that the arriving trader is a *noise* trader (acting uniformly
over buy/sell/no-trade), and ``1 - eta`` the probability of an informed
trader.  Every action-likelihood formula uses the ``eta / 3`` noise arm
accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidBelief,
    NonPositiveDensity,
    RowSumInvalid,
    UnknownSignal,
)

__all__ = [
    "BUY",
    "SELL",
    "NO_TRADE",
    "ACTIONS",
    "PROB_SUM_TOL",
    "StateSpace",
    "SignalSpace",
    "SignalStructure",
    "Belief",
    "SignalPartition",
    "expectation",
    "posterior_values",
]

BUY = "B"
SELL = "S"
NO_TRADE = "NT"
ACTIONS = (BUY, SELL, NO_TRADE)

# Probability-mass bookkeeping tolerance (row sums, belief sums).
PROB_SUM_TOL = 1e-12


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateSpace:
    """Strictly increasing finite asset values ``w_1 < ... < w_n``, n >= 2."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values)
        if arr.ndim != 1 or arr.size < 2:
            raise DimensionMismatch("state space needs at least two values in a flat sequence")
        _check_values(arr)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)


def _check_values(values: np.ndarray) -> None:
    """Check that one row of state values, or each stacked row, is finite and strictly increasing."""
    if not np.all(np.isfinite(values)):
        raise DimensionMismatch("state values must be finite")
    if not np.all(np.diff(values) > 0):
        raise DimensionMismatch("state values must be strictly increasing")


@dataclass(frozen=True)
class SignalSpace:
    """Ordered, distinct signal labels; the order given here is the order
    used by likelihood-ratio monotonicity checks."""

    labels: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(labels) < 1:
            raise DimensionMismatch("signal space needs at least one label")
        if len(set(labels)) != len(labels):
            raise DimensionMismatch("signal labels must be distinct")
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownSignal(f"signal {label!r} not in {self.labels}") from None


@dataclass(frozen=True)
class SignalStructure:
    """Conditional signal likelihoods: ``likelihood[i, j]`` is the probability
    of signal ``signals.labels[j]`` given state ``states.values[i]``.

    Construction checks the shape and the probabilistic invariants: every
    entry is strictly positive and finite and every row sums to 1 within
    ``PROB_SUM_TOL``.  The first bad row in state order raises
    :class:`NonPositiveDensity` for its first bad entry, else
    :class:`RowSumInvalid`.
    """

    states: StateSpace
    signals: SignalSpace
    likelihood: np.ndarray

    def __post_init__(self):
        table = _frozen_array(self.likelihood)
        if table.shape != (len(self.states), len(self.signals)):
            raise DimensionMismatch(
                f"likelihood shape {table.shape} does not match "
                f"{len(self.states)} states x {len(self.signals)} signals"
            )
        _check_tables(table)
        object.__setattr__(self, "likelihood", table)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_signals(self) -> int:
        return len(self.signals)


def _check_tables(table: np.ndarray) -> None:
    """:class:`SignalStructure`'s checks on one table or on stacked ``(tables, n, m)``."""
    sums = table.sum(axis=-1)
    bad_row = ~((table > 0).all(axis=-1) & (np.abs(sums - 1.0) <= PROB_SUM_TOL))
    if bad_row.any():
        at = np.unravel_index(np.argmax(bad_row), bad_row.shape)
        row, i = table[at], int(at[-1])
        bad = ~(np.isfinite(row) & (row > 0))
        if bad.any():
            j = int(np.argmax(bad))
            raise NonPositiveDensity(i, j, float(row[j]))
        raise RowSumInvalid(i, float(sums[at]))


@dataclass(frozen=True)
class Belief:
    """Probability distribution over the state space, aligned with state order."""

    weights: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.weights)
        if arr.ndim != 1:
            raise InvalidBelief("belief weights must be a flat sequence")
        _checked_rows(arr[None])
        object.__setattr__(self, "weights", arr)

    @classmethod
    def uniform(cls, n: int) -> "Belief":
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def from_unnormalized(cls, raw) -> "Belief":
        # the constructor checks the quotient, so only divide here
        return cls(_divided_rows(np.asarray(raw, dtype=float)[None])[0])

    @property
    def full_support(self) -> bool:
        return bool(np.all(self.weights > 0))

    def __len__(self) -> int:
        return int(self.weights.size)


def _raise_where(bad: np.ndarray, error, message: str, w: np.ndarray) -> None:
    """Raise ``error`` naming the first row of ``w`` flagged in ``bad``."""
    if bad.any():
        raise error(f"{message} (belief {w[np.argmax(bad)]!r})")


_NOT_A_BELIEF = f"belief weights must be finite, nonnegative and sum to 1 within {PROB_SUM_TOL}"


def _checked_rows(w: np.ndarray) -> np.ndarray:
    """``w`` after checking that every row is a belief: finite, nonnegative
    and summing to 1 within ``PROB_SUM_TOL``."""
    # NaN fails ">= 0" and an infinite weight fails the sum test
    ok = (w >= 0).all(axis=1) & (np.abs(w.sum(axis=1) - 1.0) <= PROB_SUM_TOL)
    _raise_where(~ok, InvalidBelief, _NOT_A_BELIEF, w)
    return w


def _divided_rows(raw: np.ndarray) -> np.ndarray:
    """Each row of ``raw`` divided by its sum, which must be finite and positive."""
    total = raw.sum(axis=1)
    _raise_where(~(np.isfinite(total) & (total > 0)), InvalidBelief, "cannot normalize weights", raw)
    return raw / total[:, None]


def _normalized_rows(raw: np.ndarray) -> np.ndarray:
    """Each row of ``raw`` divided by its sum and checked as a belief, as
    :meth:`Belief.from_unnormalized` does for one row, for the loops that
    carry plain weight arrays.  :class:`InvalidBelief` names the first bad row."""
    return _checked_rows(_divided_rows(raw))


def _row_products(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w[r] @ x`` for every row of ``w``, ``x`` shared or stacked per row.
    This stacked ``matmul`` rounds as the 1-D ``@`` does; ``w @ x``,
    ``einsum`` and ``(w * x).sum(1)`` do not in many rows."""
    return np.matmul(w[:, None, :], x)[:, 0]


def _eta_value(eta) -> float:
    """The noise rate (probability of a noise trader) as a float in [0, 1]."""
    e = float(eta)
    if not (0.0 <= e <= 1.0):  # also rejects NaN
        raise InvalidBelief(f"noise rate must lie in [0, 1], got {eta!r}")
    return e


@dataclass(frozen=True)
class SignalPartition:
    """Classification of signal columns into buy / sell / no-trade sets.

    ``buy``, ``sell`` and ``no_trade`` hold column indices into the signal
    space; together they cover every signal exactly once.
    """

    n_signals: int
    buy: tuple = ()
    sell: tuple = ()
    no_trade: tuple = field(init=False)  # the signals in neither set

    def __post_init__(self):
        buy = tuple(int(j) for j in self.buy)
        sell = tuple(int(j) for j in self.sell)
        taken = set(buy) | set(sell)
        no_trade = tuple(j for j in range(self.n_signals) if j not in taken)
        claimed = sorted(buy + sell + no_trade)
        if claimed != list(range(self.n_signals)):
            raise DimensionMismatch(
                f"partition does not cover each of {self.n_signals} signals exactly once: {claimed}"
            )
        object.__setattr__(self, "buy", buy)
        object.__setattr__(self, "sell", sell)
        object.__setattr__(self, "no_trade", no_trade)

    def action_of_index(self, j: int) -> str:
        if j in self.buy:
            return BUY
        if j in self.sell:
            return SELL
        return NO_TRADE

    def assignment(self, signals: SignalSpace) -> dict:
        """Mapping signal label -> action."""
        return {label: self.action_of_index(j) for j, label in enumerate(signals.labels)}

    @property
    def all_no_trade(self) -> bool:
        return not self.buy and not self.sell


def expectation(states: StateSpace, belief: Belief) -> float:
    """Expected asset value under the belief; always inside [w_1, w_n]."""
    return float(_row_products(belief.weights[None], states.values[:, None])[0, 0])


def posterior_values(belief: Belief, structure: SignalStructure) -> np.ndarray:
    """E[w | s, H] for every signal column, as one vector.

    Positivity of the likelihood makes every denominator strictly positive
    for any valid belief.
    """
    w, table = belief.weights[None], structure.likelihood
    return (_row_products(structure.states.values * w, table) / _row_products(w, table))[0]
