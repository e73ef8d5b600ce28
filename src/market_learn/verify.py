"""Exact one-step identity checks and randomized property suites.

The one-step checks enumerate the three-action space in full, so their
tolerances cover floating-point error only; nothing here is sampled.  The
long-horizon support check is the exception: it is an explicitly statistical
surrogate and reports its thresholds alongside the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conditions import is_pairwise_informative
from .engine import quote_core
from .errors import DegenerateBelief, PreconditionFailed
from .model import (
    ACTIONS,
    BUY,
    NO_TRADE,
    SELL,
    Belief,
    SignalSpace,
    SignalStructure,
    StateSpace,
    _action_likelihood,
    _eta_value,
    _normalized_rows,
)
from .simulate import PRIVATE, ScenarioConfig, run_episodes

__all__ = [
    "ONE_STEP_TOL",
    "DeviationReport",
    "one_step_reports",
    "check_limit_support_3state",
    "random_structure",
    "random_belief",
    "run_martingale_suite",
]

ONE_STEP_TOL = 1e-10

# :func:`check_limit_support_3state` needs this share of long runs to end
# with every belief coordinate within ``SUPPORT_SLACK`` of {0, 1}.
MIN_PASS_FRACTION = 0.95
SUPPORT_SLACK = 0.05

# Floor on the Dirichlet draws of the random structures and beliefs.
RANDOM_FLOOR = 1e-3


@dataclass(frozen=True)
class DeviationReport:
    check_name: str
    max_abs_deviation: float
    tolerance: float
    passed: bool
    witness: Optional[dict] = None
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "max_abs_deviation": self.max_abs_deviation,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "witness": self.witness,
            "detail": self.detail,
        }


def _report(name, deviation, tol, witness=None, detail=""):
    return DeviationReport(
        check_name=name,
        max_abs_deviation=float(deviation),
        tolerance=tol,
        passed=bool(deviation <= tol),
        witness=witness,
        detail=detail,
    )


def one_step_reports(belief: Belief, structure: SignalStructure, eta,
                     true_state: Optional[int] = None) -> dict:
    """The one-step identities at ``belief`` from one pass over the three
    actions, keyed by check name in the suite's order: ``belief_martingale``
    (the action-weighted next beliefs average to the belief),
    ``price_martingale`` (likewise the expectation; trading quotes equal
    their E[w|a]), ``likelihood_ratio_martingale`` only when ``true_state``
    is given (the wrong-over-right odds under the true state's action law;
    :class:`DegenerateBelief` if that state has no weight), and
    ``price_directions`` (a nonempty buy side raises the expectation, a sell
    side lowers it, and no trade keeps it when its signal mass is
    state-independent; otherwise no trade carries information of its own)."""
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
    # an action of probability 0 (buy and sell when eta is 0) adds nothing to any mixture
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
            violation = max(violation, exp_val - cond)  # must be strictly below zero
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


def check_limit_support_3state(
    structure: SignalStructure,
    eta,
    trials: int = 100,
    horizon: int = 3000,
    seed: int = 0,
) -> DeviationReport:
    """Statistical surrogate for vertex convergence with at most three
    states: after a long private-signal run, every belief coordinate should
    sit within ``SUPPORT_SLACK`` of {0, 1} in at least ``MIN_PASS_FRACTION``
    of trials.  Requires a pairwise informative structure with n <= 3 and at
    least one trial."""
    if trials < 1:
        raise PreconditionFailed(f"check requires at least one trial, got {trials}")
    if structure.n_states > 3:
        raise PreconditionFailed(f"check requires at most 3 states, got {structure.n_states}")
    if not is_pairwise_informative(structure).holds:
        raise PreconditionFailed("check requires a pairwise informative structure")

    config = ScenarioConfig(
        structure=structure,
        prior=Belief.uniform(structure.n_states),
        eta=float(eta),
        mode=PRIVATE,
        horizon=horizon,
        episodes=trials,
        seed=seed,
    )
    final = np.array([result.belief_path[-1] for result in run_episodes(config)])
    distances = np.minimum(final, 1.0 - final).max(axis=1)
    ok_fraction = float((distances <= SUPPORT_SLACK).mean())
    deviation = max(0.0, 1.0 - ok_fraction)
    worst = int(np.argmax(distances))
    return _report(
        "limit_support_3state",
        deviation,
        1.0 - MIN_PASS_FRACTION,
        witness={
            "trials": trials,
            "horizon": horizon,
            "seed": seed,
            "slack": SUPPORT_SLACK,
            "min_pass_fraction": MIN_PASS_FRACTION,
            "fraction_near_vertex": ok_fraction,
            "worst_episode": worst,
            "worst_distance": float(distances[worst]),
        },
        detail=f"statistical check: {ok_fraction:.1%} of {trials} trials ended within "
               f"{SUPPORT_SLACK} of a belief vertex (needs >= {MIN_PASS_FRACTION:.0%})",
    )


def random_structure(rng: np.random.Generator) -> SignalStructure:
    """Random strictly-positive structure with 2-4 states and 2-5 signals:
    flat-Dirichlet rows floored at ``RANDOM_FLOOR`` and renormalized."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 6))
    rows = rng.dirichlet(np.ones(m), size=n)
    rows = np.maximum(rows, RANDOM_FLOOR)
    rows /= rows.sum(axis=1, keepdims=True)
    return _on_random_value_grid(rng, rows)


def random_belief(rng: np.random.Generator, n: int) -> Belief:
    raw = rng.dirichlet(np.ones(n))
    raw = np.maximum(raw, RANDOM_FLOOR)
    return Belief.from_unnormalized(raw)


def _on_random_value_grid(rng: np.random.Generator, rows: np.ndarray) -> SignalStructure:
    """The likelihood table ``rows`` over a random strictly increasing value
    grid, with signals labelled s1, s2, ..."""
    n, m = rows.shape
    start = float(rng.uniform(-1.0, 1.0))
    gaps = rng.uniform(0.3, 1.2, size=n - 1)
    values = start + np.concatenate([[0.0], np.cumsum(gaps)])
    labels = tuple(f"s{j + 1}" for j in range(m))
    return SignalStructure(StateSpace(values), SignalSpace(labels), rows)


def run_martingale_suite(trials: int = 1000, seed: int = 0,
                         structure: Optional[SignalStructure] = None,
                         eta: Optional[float] = None) -> list[DeviationReport]:
    """Run :func:`one_step_reports` over ``trials`` randomized states and
    aggregate the worst deviation (latest trial on ties) per identity.  Each
    trial draws, in this order, the structure and the noise rate when they
    are not given, a full-support belief and a true state."""
    if trials < 1:
        raise PreconditionFailed(f"the suite needs at least one trial, got {trials}")
    if seed < 0:
        raise PreconditionFailed(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    names = ["belief_martingale", "price_martingale", "likelihood_ratio_martingale", "price_directions"]
    worst = {name: (0.0, None) for name in names}

    for trial in range(trials):
        struct = structure if structure is not None else random_structure(rng)
        e = eta if eta is not None else float(rng.uniform(0.05, 0.95))
        belief = random_belief(rng, struct.n_states)
        true_state = int(rng.integers(0, struct.n_states))
        for name, report in one_step_reports(belief, struct, e, true_state).items():
            if report.max_abs_deviation >= worst[name][0]:
                worst[name] = (report.max_abs_deviation, trial)

    return [
        _report(
            name,
            deviation,
            ONE_STEP_TOL,
            witness={"worst_trial": trial, "trials": trials, "seed": seed},
            detail=f"worst deviation across {trials} randomized market states",
        )
        for name, (deviation, trial) in worst.items()
    ]
