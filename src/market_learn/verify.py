"""Exact one-step identity checks and randomized property suites.

The one-step checks enumerate the three-action space in full, so their
tolerances cover floating-point error only; nothing here is sampled.  The
long-horizon support check is the exception: it is an explicitly
statistical surrogate and reports its thresholds alongside the result.  The
randomized suite makes only generator calls per trial; per block and
(states, signals) shape it builds the trials' arrays and checks them at once
on :func:`~market_learn.engine.quote_rows`, which takes per-row value grids,
tables and noise rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Optional

import numpy as np

from .conditions import is_pairwise_informative
from .engine import quote_rows
from .errors import DegenerateBelief, PreconditionFailed
from .model import (
    ACTIONS,
    Belief,
    SignalSpace,
    SignalStructure,
    StateSpace,
    _check_tables,
    _check_values,
    _eta_value,
    _normalized_rows,
    _raise_where,
    _row_products,
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

# The one-step identities in the order the suite reports them, and what each compares.
ONE_STEP_DETAILS = {
    "belief_martingale": "sum_a P(a) mu'(w|a) compared against mu(w) over all states",
    "price_martingale": "sum_a P(a) E[w|a,H] vs E[w|H]; trading quotes double-checked against E[w|a,H]",
    "likelihood_ratio_martingale":
        "odds of incorrect states vs the true state, averaged under the true-state action law",
    "price_directions": "E[w|B,H] > E[w|H] > E[w|S,H] on nonempty sides; no-trade preserves it "
                        "when its signal mass is state-independent",
}
CHECKS = tuple(ONE_STEP_DETAILS)

# Trials the suite draws and checks together, so that its memory does not
# grow with the trial count; the CLI default of 1,000 trials is one block.
SUITE_BLOCK = 1024

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
        deviation = self.max_abs_deviation if np.isfinite(self.max_abs_deviation) else None  # strict JSON
        return {"check_name": self.check_name, "max_abs_deviation": deviation, "tolerance": self.tolerance,
                "pass": self.passed, "witness": self.witness, "detail": self.detail}


def _report(name, deviation, tol, witness=None, detail=""):
    return DeviationReport(name, float(deviation), tol, bool(deviation <= tol), witness, detail)


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
    state-independent; otherwise no trade carries information of its own).
    This is the suite's row kernel on a batch of one."""
    truth = None if true_state is None else np.array([true_state])
    rows = _one_step_rows(belief.weights[None], structure.states.values, structure.likelihood, _eta_value(eta), truth)
    at = {key: value[0] for key, value in rows.items()}
    witnesses = {
        "belief_martingale": {"state_index": int(at["state_index"])},
        "price_martingale": {"expectation": float(at["expectation"]), "mixed": float(at["mixed_price"]),
                             "quote_gap": float(at["quote_gap"])},
        "likelihood_ratio_martingale": true_state is not None and {
            "lambda": float(at["lambda"]), "mixed": float(at["mixed_lambda"]), "true_state": true_state},
        "price_directions": {"expectation": float(at["expectation"]), "conditional": {
            action: float(at["conditional"][a]) for a, action in enumerate(ACTIONS) if at["live"][a]}},
    }
    return {name: _report(name, at[name], ONE_STEP_TOL, witnesses[name], ONE_STEP_DETAILS[name])
            for name in CHECKS if name in at}


def _one_step_rows(w: np.ndarray, values: np.ndarray, table: np.ndarray, e, true_state=None) -> dict:
    """Per row of ``w``, each one-step identity's deviation keyed by check
    name, and the witness fields.  ``values``, ``table`` and ``e`` are shared
    or per row as :func:`~market_learn.engine.quote_rows` takes them, and
    ``true_state`` is one index per row or ``None``."""
    r = np.arange(len(w))
    if true_state is not None:
        _raise_where(w[r, true_state] <= 0.0, DegenerateBelief, "belief places zero weight on its true state", w)
    bid, ask, buy, sell, like = quote_rows(w, values, table, e)
    exp_val = _row_products(w, values[..., None])[:, 0]
    live = like.any(axis=2)
    # one checked update of action-major rows names the first row it cannot normalize, else the first non-belief;
    # a dead action (buy and sell at eta 0) steps to the belief itself and adds an exact 0: its probability is 0
    batch_w, batch_like = np.tile(w, (3, 1)), like.transpose(1, 0, 2).reshape(3 * len(w), -1)
    stepped = _normalized_rows(batch_w * np.where(live.T.reshape(-1, 1), batch_like, 1.0))
    prob = _row_products(batch_w, batch_like[:, :, None]).reshape(3, -1)
    cond = _row_products(stepped, np.tile(np.broadcast_to(values, w.shape), (3, 1))[:, :, None]).reshape(3, -1)
    stepped, like = stepped.reshape(3, len(w), -1), batch_like.reshape(3, len(w), -1)  # [a, r]: row r, action a
    mixed_belief = (prob[:, :, None] * stepped).sum(axis=0)
    mixed_price = (prob * cond).sum(axis=0)
    trades = np.array([buy.any(axis=1), sell.any(axis=1)])
    quote_gap = np.max(np.where(trades, np.abs(cond[:2] - [ask, bid]), 0.0), axis=0, initial=0.0)
    # E[w|a,H] must lie strictly beyond E[w|H] on the side of a trade, and equal it after a flat no-trade
    flat = like[2].max(axis=1) - like[2].min(axis=1) <= 1e-12
    beyond = [exp_val - cond[0], cond[1] - exp_val, np.abs(cond[2] - exp_val)]
    violation = np.max(np.where([*trades, flat], beyond, 0.0), axis=0, initial=0.0)

    belief_gap = np.abs(mixed_belief - w)
    state_index = belief_gap.argmax(axis=1)
    rows = {"belief_martingale": belief_gap[r, state_index], "state_index": state_index,
            "price_martingale": np.maximum(np.abs(mixed_price - exp_val), quote_gap), "expectation": exp_val,
            "mixed_price": mixed_price, "quote_gap": quote_gap,
            "price_directions": violation, "conditional": cond.T, "live": live}
    if true_state is not None:
        w_next = stepped[:, r, true_state]
        lam_next = np.divide(1.0 - w_next, w_next, out=np.full(w_next.shape, np.inf), where=w_next > 0)
        mixed_lam = (like[:, r, true_state] * lam_next).sum(axis=0)
        lam = (1.0 - w[r, true_state]) / w[r, true_state]
        rows.update({"likelihood_ratio_martingale": np.abs(mixed_lam - lam), "lambda": lam, "mixed_lambda": mixed_lam})
    return rows


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

    config = ScenarioConfig(structure=structure, prior=Belief.uniform(structure.n_states), eta=eta,
                            mode=PRIVATE, horizon=horizon, episodes=trials, seed=seed)
    final = run_episodes(config, paths=False).final_belief
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
    flat-Dirichlet rows floored at ``RANDOM_FLOOR`` and renormalized, over a
    random value grid, with signals labelled s1, s2, ..."""
    cells, start, gaps = _draw_structure(rng)
    values, table = _structure_arrays(cells[None], np.array([start]), gaps[None])
    labels = tuple(f"s{j + 1}" for j in range(cells.shape[1]))
    return SignalStructure(StateSpace(values[0]), SignalSpace(labels), table[0])


def random_belief(rng: np.random.Generator, n: int) -> Belief:
    return Belief.from_unnormalized(_floored_dirichlet(rng.standard_exponential(n)))


def _draw_structure(rng: np.random.Generator) -> tuple:
    """The generator calls of :func:`random_structure`: n x m standard exponentials for the table, then the start
    and the n - 1 gaps of the value grid."""
    n, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
    cells = rng.standard_exponential(n * m).reshape(n, m)
    return cells, rng.uniform(-1.0, 1.0), rng.uniform(0.3, 1.2, size=n - 1)


def _floored_dirichlet(x: np.ndarray) -> np.ndarray:
    """Flat-Dirichlet rows (the last axis) from standard exponentials ``x``,
    floored at ``RANDOM_FLOOR``.  ``Generator.dirichlet(np.ones(k))`` draws
    gamma(1) variates, which are standard exponentials, and multiplies each
    row by 1 / its running sum, so this is that draw bit for bit."""
    return np.maximum(x * (1 / x.cumsum(-1)[..., -1:]), RANDOM_FLOOR)


def _structure_arrays(cells: np.ndarray, start: np.ndarray, gaps: np.ndarray) -> tuple:
    """The stacked value grids and tables of stacked :func:`_draw_structure`
    draws: each start, then it plus the running sums of its gaps; the
    floored flat-Dirichlet rows of each table, renormalized."""
    rows = _floored_dirichlet(cells)
    grids = np.concatenate([np.zeros((len(start), 1)), gaps.cumsum(axis=1)], axis=1)
    return start[:, None] + grids, rows / rows.sum(axis=-1, keepdims=True)


def _fold_worst(worst: tuple, deviations: np.ndarray, first: int) -> tuple:
    """``worst``, a (deviation, trial) pair, updated with the deviations of
    trials ``first``, ``first + 1``, ...: the largest, the latest on ties,
    except that the first non-finite deviation stays the worst."""
    nonfinite = np.flatnonzero(~np.isfinite(deviations))
    if not np.isfinite(worst[0]) or (not nonfinite.size and deviations.max() < worst[0]):
        return worst
    k = nonfinite[0] if nonfinite.size else np.flatnonzero(deviations == deviations.max())[-1]
    return float(deviations[k]), first + int(k)


def run_martingale_suite(trials: int = 1000, seed: int = 0,
                         structure: Optional[SignalStructure] = None,
                         eta: Optional[float] = None) -> list[DeviationReport]:
    """Check the one-step identities of :func:`one_step_reports` over
    ``trials`` randomized states and aggregate the worst deviation (latest
    trial on ties) per identity; a non-finite deviation fails its identity,
    and the first such trial is the worst.  Each trial draws, in this order,
    the structure and the noise rate when they are not given, a full-support
    belief and a true state.  Trials are drawn ``SUITE_BLOCK`` at a time and
    each block is checked in one kernel call per (states, signals) shape; a
    given structure's table and values are shared by all its rows."""
    if isinstance(trials, bool) or not isinstance(trials, Integral) or trials < 1:
        raise PreconditionFailed(f"the suite needs a whole number of trials, at least one, got {trials!r}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise PreconditionFailed(f"seed must be a nonnegative integer, got {seed!r}")
    rng, eta = np.random.default_rng(seed), None if eta is None else _eta_value(eta)
    worst = {name: (0.0, None) for name in CHECKS}

    for first in range(0, trials, SUITE_BLOCK):
        last, groups = min(first + SUITE_BLOCK, trials), {}
        for trial in range(first, last):
            drawn = _draw_structure(rng) if structure is None else ()
            e = rng.uniform(0.05, 0.95) if eta is None else eta
            shape = (drawn[0] if drawn else structure.likelihood).shape
            cells = rng.standard_exponential(shape[0])
            groups.setdefault(shape, []).append((trial - first, e, cells, rng.integers(0, shape[0])) + drawn)
        deviations = np.zeros((len(CHECKS), last - first))
        for group in groups.values():
            at, e, cells, true_state, *drawn = map(np.array, zip(*group))
            values, table = _structure_arrays(*drawn) if drawn else (structure.states.values, structure.likelihood)
            _check_values(values)
            _check_tables(table)
            w = _normalized_rows(_floored_dirichlet(cells))
            rows = _one_step_rows(w, values, table, e if eta is None else eta, true_state)
            deviations[:, at] = [rows[name] for name in CHECKS]
        for name, block in zip(CHECKS, deviations):
            worst[name] = _fold_worst(worst[name], block, first)

    return [_report(name, deviation, ONE_STEP_TOL, witness={"worst_trial": trial, "trials": trials, "seed": seed},
                    detail=f"worst deviation across {trials} randomized market states")
            for name, (deviation, trial) in worst.items()]
