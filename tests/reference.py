"""Scalar reference pieces the tests build their oracles from.

These are the one-belief, value-type forms of updates the package runs on
plain weight arrays: Bayes on a set of signals, the action likelihood of a
partition class, the public update on an action, a point-mass belief, and
loading a bare structure file.  Beside them sit two test-only helpers, the
crossing signals of a state pair and random strict-MLRP structures, and the
linear program that is the oracle for the cascade-belief decision.
Nothing in ``market_learn`` calls any of them; the tests do.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from market_learn.conditions import _check_tol
from market_learn.errors import MarketLearnError, PreconditionFailed
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
from market_learn.verify import _on_random_value_grid


class EmptySignalSet(MarketLearnError):
    """A set-conditioned update was requested with an empty signal set."""


class NotPairwiseInformative(MarketLearnError):
    """Two states share an identical signal distribution."""

    def __init__(self, state_a, state_b):
        self.state_pair = (state_a, state_b)
        super().__init__(f"states {state_a} and {state_b} have identical signal distributions")


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


def find_crossing_signals(
    structure: SignalStructure,
    state_a: int,
    state_b: int,
    tol: float = 1e-9,
) -> tuple:
    """Signals on which the two state rows cross: returns labels ``(s1, s2)``
    with f(s1|a) > f(s1|b) and f(s2|a) < f(s2|b).

    Both directions exist whenever the rows differ at all, since each row
    sums to one.  Raises :class:`NotPairwiseInformative` when the rows agree
    within ``tol`` everywhere.
    """
    if state_a == state_b:
        raise PreconditionFailed(f"state indices must differ, got {state_a} twice")
    _check_tol(tol)
    diff = structure.likelihood[state_a] - structure.likelihood[state_b]
    hi = int(np.argmax(diff))
    lo = int(np.argmin(diff))
    if diff[hi] <= tol or diff[lo] >= -tol:
        raise NotPairwiseInformative(state_a, state_b)
    labels = structure.signals.labels
    return labels[hi], labels[lo]


def random_mlrp_structure(rng: np.random.Generator) -> SignalStructure:
    """Structure with 2-4 states, 2-5 signals and the strict monotone
    likelihood ratio property by construction: rows proportional to
    exp(theta_i x_j) with both parameter grids strictly increasing
    (log-supermodular table)."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 6))
    theta = np.cumsum(rng.uniform(0.4, 1.0, size=n))
    x = np.cumsum(rng.uniform(0.4, 1.0, size=m))
    rows = np.exp(np.outer(theta, x))
    rows /= rows.sum(axis=1, keepdims=True)
    return _on_random_value_grid(rng, rows)


def maxmin_support_lp(mat: np.ndarray):
    """Maximize the smallest coordinate over {x >= 0, sum x = 1, mat x = 0}
    with scipy's HiGHS solver.

    Returns (x, t) or (None, None) when the polytope is empty.
    """
    from scipy.optimize import linprog
    m, n = mat.shape
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    a_eq = np.zeros((m + 1, n + 1))
    a_eq[:m, :n] = mat
    a_eq[m, :n] = 1.0
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0.0, 1.0)] * (n + 1), method="highs")
    if not res.success:
        return None, None
    return res.x[:n], float(res.x[n])
