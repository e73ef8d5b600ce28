"""Scalar reference pieces the tests build their oracles from.

These are the one-belief, value-type forms of rules the package runs on
plain weight arrays.  The quote oracle is the scalar greedy scan
(:func:`quote_core`, wrapped as :func:`reference_quotes`), which
``engine.quote_rows`` and ``engine.solve_quotes`` are pinned against bit for
bit.  Beside it sit Bayes on one signal and on a set of signals, the action
likelihood of a partition class, the public update on an action, the scalar
one-step identities the martingale suite batches, the Monte Carlo summary
as a loop over episodes, an episode's draws through ``Generator.choice``,
the suite's random tables, value grids and beliefs one draw at a time
through ``Generator.dirichlet``, a point-mass belief, and loading a bare structure file; two test-only
helpers, the crossing signals of a state pair and random strict-MLRP
structures; and the linear program that is the oracle for the
cascade-belief decision.  Nothing in ``market_learn`` calls
any of them; the tests do.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from market_learn.conditions import _check_tol
from market_learn.engine import BOUNDARY_BAND, ZERO_PROFIT_TOL, Quotes
from market_learn.errors import DegenerateBelief, MarketLearnError, NoConsistentPartition, PreconditionFailed
from market_learn.model import (
    ACTIONS,
    BUY,
    NO_TRADE,
    SELL,
    Belief,
    SignalPartition,
    SignalSpace,
    SignalStructure,
    StateSpace,
    _eta_value,
    _normalized_rows,
)
from market_learn.scenario import _load_json, structure_from_dict
from market_learn.simulate import MonteCarloSummary, StateBreakdown
from market_learn.verify import ONE_STEP_TOL, RANDOM_FLOOR, _report


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


def set_mass(structure: SignalStructure, signal_indices) -> np.ndarray:
    """f(S|w) for a set of signal column indices, per state."""
    return structure.likelihood[:, np.asarray(signal_indices, dtype=np.intp)].sum(axis=1)


def _action_likelihood(structure: SignalStructure, signal_indices, e: float) -> np.ndarray:
    """eta/3 + (1 - eta) f(S|w) per state, for the action taken on the signal
    columns ``signal_indices`` (summed in the order given)."""
    return e / 3.0 + (1.0 - e) * set_mass(structure, signal_indices)


def _greedy_side(
    v: np.ndarray,
    order: np.ndarray,
    num_sig: np.ndarray,
    f_sig: np.ndarray,
    exp_val: float,
    eta: float,
    sense: int,
):
    """Grow one side of the partition while the next signal strictly beats
    the running quote by more than ``BOUNDARY_BAND``.

    The running quote is the conditional expectation of the value given the
    candidate set, which rises (falls) strictly below (above) each newly
    included signal's value; the scan therefore terminates at the largest
    self-consistent set, equivalently the tightest zero-profit quote.
    """
    noise = eta / 3.0
    informed = 1.0 - eta
    num = noise * exp_val
    den = noise
    quote = exp_val
    k = 0
    m = order.size
    while k < m and sense * (v[order[k]] - quote) > BOUNDARY_BAND:
        num += informed * num_sig[order[k]]
        den += informed * f_sig[order[k]]
        quote = num / den
        k += 1
    return k, float(quote)


_NO_SIGNALS = np.empty(0, dtype=np.intp)


def quote_core(w: np.ndarray, structure: SignalStructure, e: float):
    """The scalar quote oracle for belief weights ``w`` and a noise rate
    ``e`` already checked to lie in [0, 1].

    Returns ``(bid, ask, buy, sell)``: the quotes as floats and the buy and
    sell sets as signal index arrays, in descending (buy) and ascending
    (sell) order of conditional value.  Raises :class:`NoConsistentPartition`
    when the sets overlap, the bid is above the ask, or a quote fails the
    zero-profit self-check.
    """
    values = structure.states.values
    exp_val = float(values @ w)
    f_sig = w @ structure.likelihood
    num_sig = (values * w) @ structure.likelihood
    v = num_sig / f_sig

    if e >= 1.0:
        return exp_val, exp_val, _NO_SIGNALS, _NO_SIGNALS
    if e <= 0.0:
        return min(exp_val, float(v.min())), max(exp_val, float(v.max())), _NO_SIGNALS, _NO_SIGNALS

    order_desc = np.argsort(-v, kind="stable")
    order_asc = np.argsort(v, kind="stable")
    k_buy, ask = _greedy_side(v, order_desc, num_sig, f_sig, exp_val, e, +1)
    k_sell, bid = _greedy_side(v, order_asc, num_sig, f_sig, exp_val, e, -1)

    buy, sell = order_desc[:k_buy], order_asc[:k_sell]
    if set(buy.tolist()) & set(sell.tolist()):
        raise NoConsistentPartition(
            f"buy and sell sets overlap: {tuple(buy.tolist())} / {tuple(sell.tolist())} (belief {w!r})"
        )
    if not (bid <= ask):
        raise NoConsistentPartition(f"bid {bid} above ask {ask}")
    _check_zero_profit(w, structure, e, buy, ask, exp_val, BUY)
    _check_zero_profit(w, structure, e, sell, bid, exp_val, SELL)
    return bid, ask, buy, sell


def _check_zero_profit(w, structure, e, signals, quote, exp_val, action):
    """Verify, through the action-likelihood route, that the quote equals the
    conditional expectation given its own trade event."""
    like = _action_likelihood(structure, signals, e)
    mass = float(w @ like)
    cond = float((structure.states.values * w) @ like) / mass
    if abs(cond - quote) > ZERO_PROFIT_TOL * max(1.0, abs(quote)):
        raise NoConsistentPartition(
            f"{action} quote {quote} deviates from conditional expectation {cond}"
        )
    if not signals.size and abs(quote - exp_val) > ZERO_PROFIT_TOL * max(1.0, abs(exp_val)):
        raise NoConsistentPartition(
            f"empty {action} side must quote the expectation, got {quote} vs {exp_val}"
        )


def reference_quotes(belief: Belief, structure: SignalStructure, eta) -> tuple:
    """:func:`quote_core` in the value types, as ``(Quotes, SignalPartition)``.
    The partition keeps the oracle's conditional-value order, so a set mass
    built from it sums the members in that order."""
    bid, ask, buy, sell = quote_core(belief.weights, structure, _eta_value(eta))
    return Quotes(bid=bid, ask=ask), SignalPartition(structure.n_signals, buy=buy, sell=sell)


def bayes_posterior(belief: Belief, structure: SignalStructure, signal) -> Belief:
    """Posterior after observing one signal: mu'(w) = mu(w) f(s|w) / normalizer."""
    j = structure.signals.index(signal)
    return Belief.from_unnormalized(belief.weights * structure.likelihood[:, j])


def bayes_posterior_set(belief: Belief, structure: SignalStructure, signal_set: Iterable) -> Belief:
    """Posterior after learning only that the signal lies in ``signal_set``,
    i.e. an update with the set likelihood f(S|w) = sum of member columns."""
    labels = list(signal_set)
    if not labels:
        raise EmptySignalSet("signal set must be nonempty")
    # canonical summation order, so unordered inputs stay bit-deterministic
    idx = sorted(structure.signals.index(s) for s in labels)
    return Belief.from_unnormalized(belief.weights * set_mass(structure, idx))


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


def one_step_reports(belief: Belief, structure: SignalStructure, eta,
                     true_state: Optional[int] = None) -> dict:
    """The scalar form of :func:`market_learn.verify.one_step_reports`: the
    quotes from :func:`quote_core`, then one Python pass over the live
    actions (an action of probability 0, buy and sell at eta 0, adds
    nothing to any mixture)."""
    w = belief.weights
    if true_state is not None and w[true_state] <= 0.0:
        raise DegenerateBelief(f"belief places zero weight on state index {true_state}")
    e = _eta_value(eta)
    bid, ask, buy, sell = quote_core(w, structure, e)
    no_trade = np.ones(structure.n_signals, dtype=bool)
    no_trade[buy] = no_trade[sell] = False
    signal_sets = {BUY: buy, SELL: sell, NO_TRADE: np.flatnonzero(no_trade)}
    values = structure.states.values
    exp_val = float(values @ w)

    like = np.array([_action_likelihood(structure, signal_sets[action], e) for action in ACTIONS])
    live = np.flatnonzero(like.any(axis=1))
    like = like[live]

    mixed_belief = np.zeros(structure.n_states)
    mixed_price = 0.0
    mixed_lam = 0.0
    quote_gap = 0.0
    violation = 0.0
    conditional = {}
    for a, like_a, stepped in zip(live, like, _normalized_rows(w * like)):
        action = ACTIONS[a]
        prob = float(w @ like_a)
        cond = float(values @ stepped)
        conditional[action] = cond
        mixed_belief += prob * stepped
        mixed_price += prob * cond
        if action == BUY and buy.size:
            quote_gap = max(quote_gap, abs(cond - ask))
            violation = max(violation, exp_val - cond)
        elif action == SELL and sell.size:
            quote_gap = max(quote_gap, abs(cond - bid))
            violation = max(violation, cond - exp_val)
        elif action == NO_TRADE and float(like_a.max() - like_a.min()) <= 1e-12:
            violation = max(violation, abs(cond - exp_val))
        if true_state is not None:
            w_next = stepped[true_state]
            lam_next = float((1.0 - w_next) / w_next) if w_next > 0 else np.inf
            mixed_lam += float(like_a[true_state]) * lam_next

    belief_gap = np.abs(mixed_belief - w)
    worst = int(np.argmax(belief_gap))
    reports = {
        "belief_martingale": _report(
            "belief_martingale",
            belief_gap[worst],
            ONE_STEP_TOL,
            witness={"state_index": worst},
            detail="sum_a P(a) mu'(w|a) compared against mu(w) over all states",
        ),
        "price_martingale": _report(
            "price_martingale",
            max(abs(mixed_price - exp_val), quote_gap),
            ONE_STEP_TOL,
            witness={"expectation": exp_val, "mixed": mixed_price, "quote_gap": quote_gap},
            detail="sum_a P(a) E[w|a,H] vs E[w|H]; trading quotes double-checked against E[w|a,H]",
        ),
    }
    if true_state is not None:
        lam = float((1.0 - w[true_state]) / w[true_state])
        reports["likelihood_ratio_martingale"] = _report(
            "likelihood_ratio_martingale",
            abs(mixed_lam - lam),
            ONE_STEP_TOL,
            witness={"lambda": lam, "mixed": mixed_lam, "true_state": true_state},
            detail="odds of incorrect states vs the true state, averaged under the true-state action law",
        )
    reports["price_directions"] = _report(
        "price_directions",
        violation,
        ONE_STEP_TOL,
        witness={"expectation": exp_val, "conditional": conditional},
        detail="E[w|B,H] > E[w|H] > E[w|S,H] on nonempty sides; no-trade preserves it "
               "when its signal mass is state-independent",
    )
    return reports


def reference_summary(results, config) -> MonteCarloSummary:
    """``simulate.summarize_episodes`` as a loop over the episodes' row views."""
    tol = config.convergence_tol
    learned = np.array([r.learned(tol) for r in results])
    errors = np.array([abs(r.final_price - r.true_value) for r in results])
    cascaded = np.array([r.cascade_time is not None for r in results])
    states = np.array([r.true_state for r in results])

    per_state = []
    for i in range(config.structure.n_states):
        mask = states == i
        count = int(mask.sum())
        if count == 0:
            continue
        per_state.append(
            StateBreakdown(
                state_index=i,
                state_value=float(config.structure.states.values[i]),
                episodes=count,
                learned_fraction=float(learned[mask].mean()),
                cascade_fraction=float(cascaded[mask].mean()),
                mean_abs_price_error=float(errors[mask].mean()),
            )
        )

    return MonteCarloSummary(
        episodes=len(results),
        learned_fraction=float(learned.mean()),
        mean_abs_price_error=float(errors.mean()),
        cascade_fraction=float(cascaded.mean()),
        per_state=tuple(per_state),
    )


def draw_episode(config, episode_index: int):
    """``(true_state, informative, signals, noise_actions)`` of one episode
    as the simulator's reproducibility contract states them, the last three
    per period (noise actions 0/1/2 are B/S/NT), drawn with
    ``Generator.choice``: the oracle for ``simulate._draw_codes``."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, episode_index)))
    structure, t = config.structure, config.horizon
    if config.true_state is None:
        true_state = int(rng.choice(structure.n_states, p=config.prior.weights))
    else:
        true_state = config.true_state
    informative = rng.random(t) >= config.eta
    signals = rng.choice(structure.n_signals, size=t, p=structure.likelihood[true_state])
    return true_state, informative, signals, rng.integers(0, 3, size=t)


def draw_table(rng: np.random.Generator) -> np.ndarray:
    """The likelihood table of ``verify.random_structure`` drawn with
    ``Generator.dirichlet``: the oracle for ``verify._tables``."""
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    rows = np.maximum(rng.dirichlet(np.ones(m), size=n), RANDOM_FLOOR)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def draw_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random strictly increasing grid of ``n`` state values, one draw at a
    time: the oracle for ``verify._value_grids``."""
    start, gaps = float(rng.uniform(-1.0, 1.0)), rng.uniform(0.3, 1.2, size=n - 1)
    return start + np.concatenate([[0.0], np.cumsum(gaps)])


def draw_belief(rng: np.random.Generator, n: int) -> np.ndarray:
    """The unnormalized weights of ``verify.random_belief`` drawn with
    ``Generator.dirichlet``: the oracle for ``verify._floored_dirichlet``."""
    return np.maximum(rng.dirichlet(np.ones(n)), RANDOM_FLOOR)


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
    labels = tuple(f"s{j + 1}" for j in range(m))
    return SignalStructure(StateSpace(draw_values(rng, n)), SignalSpace(labels), rows)


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
