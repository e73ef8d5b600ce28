"""Scalar reference pieces the tests build their oracles from.

These are the one-belief, value-type forms of updates the package runs on
plain weight arrays: Bayes on a set of signals, the action likelihood of a
partition class, the public update on an action, a point-mass belief, and
loading a bare structure file.  Nothing in ``market_learn`` calls them; the
reference steppers in the tests do.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from market_learn.errors import MarketLearnError
from market_learn.model import (
    BUY,
    NO_TRADE,
    SELL,
    Belief,
    SignalPartition,
    SignalStructure,
    _action_likelihood,
    _eta_value,
)
from market_learn.scenario import _load_json, structure_from_dict


class EmptySignalSet(MarketLearnError):
    """A set-conditioned update was requested with an empty signal set."""


def point_mass(n: int, index: int) -> Belief:
    w = np.zeros(n)
    w[index] = 1.0
    return Belief(w)


def indices_for(partition: SignalPartition, action: str) -> tuple:
    if action == BUY:
        return partition.buy
    if action == SELL:
        return partition.sell
    if action == NO_TRADE:
        return partition.no_trade
    raise KeyError(f"unknown action {action!r}")


def bayes_posterior_set(belief: Belief, structure: SignalStructure, signal_set: Iterable) -> Belief:
    """Posterior after learning only that the signal lies in ``signal_set``,
    i.e. an update with the set likelihood f(S|w) = sum of member columns."""
    labels = list(signal_set)
    if not labels:
        raise EmptySignalSet("signal set must be nonempty")
    # canonical summation order, so unordered inputs stay bit-deterministic
    idx = sorted(structure.signals.index(s) for s in labels)
    return Belief.from_unnormalized(belief.weights * structure.set_mass(idx))


def action_likelihood_vector(structure: SignalStructure, partition: SignalPartition, eta, action: str) -> np.ndarray:
    """Probability of observing ``action`` given each state:
    eta/3 + (1 - eta) f(S_action | w).

    The three action likelihoods for a fixed state always sum to 1.
    """
    return _action_likelihood(structure, indices_for(partition, action), _eta_value(eta))


def update_public_belief_on_action(belief: Belief, structure: SignalStructure, partition: SignalPartition,
                                   eta, action: str) -> Belief:
    """Bayes update of the public belief after observing only an action,
    using the mixed noise/informed action likelihood."""
    like = action_likelihood_vector(structure, partition, eta, action)
    return Belief.from_unnormalized(belief.weights * like)


def load_structure(path) -> SignalStructure:
    return structure_from_dict(_load_json(path))
