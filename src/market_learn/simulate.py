"""Episode and Monte Carlo drivers for the private- and public-signal markets.

Reproducibility contract: episode ``i`` of a run draws its randomness from
``numpy.random.default_rng(SeedSequence((seed, i)))``, so results are
bit-identical for a given (config, seed) regardless of episode scheduling.
Within an episode all randomness is drawn up front in a fixed order (true
state, trader types, signals, noise actions), which also lets the two market
modes share identical draws in comparisons.

Both modes run as one batched kernel: all episodes of a run step together
as the rows of one weight array, and :func:`run_private_episode` and
:func:`run_public_episode` are that kernel on a batch of one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .engine import _row_products, quote_rows
from .errors import ConfigInvalid, PreconditionFailed
from .model import Belief, SignalStructure, _eta_value, _normalized_rows

__all__ = [
    "PRIVATE",
    "PUBLIC",
    "ScenarioConfig",
    "EpisodeResult",
    "StateBreakdown",
    "MonteCarloSummary",
    "ModeComparison",
    "run_private_episode",
    "run_public_episode",
    "run_episodes",
    "run_monte_carlo",
    "summarize_episodes",
    "compare_modes",
]

PRIVATE = "private"
PUBLIC = "public"


@dataclass(frozen=True)
class ScenarioConfig:
    structure: SignalStructure
    prior: Belief
    eta: float
    mode: str
    horizon: int = 1000
    episodes: int = 100
    seed: int = 0
    convergence_tol: float = 0.1
    true_state: Optional[int] = None  # fixed-true-state override; drawn from the prior when None

    def __post_init__(self):
        if self.mode not in (PRIVATE, PUBLIC):
            raise ConfigInvalid(f"mode must be '{PRIVATE}' or '{PUBLIC}', got {self.mode!r}")
        if len(self.prior) != self.structure.n_states:
            raise ConfigInvalid("prior length does not match the state space")
        if not self.prior.full_support:
            raise ConfigInvalid("prior must have full support")
        if not (0.0 <= self.eta <= 1.0):
            raise ConfigInvalid(f"eta must lie in [0, 1], got {self.eta!r}")
        if self.horizon < 1:
            raise ConfigInvalid("horizon must be at least 1")
        if self.episodes < 1:
            raise ConfigInvalid("episodes must be at least 1")
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be nonnegative, got {self.seed}")
        if not (0 < self.convergence_tol < np.inf):  # also rejects NaN
            raise ConfigInvalid(f"convergence_tol must be finite and positive, got {self.convergence_tol!r}")
        if self.true_state is not None and not (0 <= self.true_state < self.structure.n_states):
            raise ConfigInvalid(f"true_state index {self.true_state} out of range")

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class EpisodeResult:
    episode: int
    mode: str
    true_state: int
    true_value: float
    price_path: np.ndarray       # length horizon + 1, starts at the prior expectation
    belief_path: np.ndarray      # shape (horizon + 1, n_states), full resolution
    cascade_time: Optional[int]  # first date with an all-no-trade partition (private mode)
    final_belief_on_truth: float

    @property
    def final_price(self) -> float:
        return float(self.price_path[-1])

    def learned(self, convergence_tol: float) -> bool:
        return abs(self.final_price - self.true_value) < convergence_tol


@dataclass(frozen=True)
class StateBreakdown:
    state_index: int
    state_value: float
    episodes: int
    learned_fraction: float
    cascade_fraction: float
    mean_abs_price_error: float


@dataclass(frozen=True)
class MonteCarloSummary:
    episodes: int
    learned_fraction: float
    mean_abs_price_error: float
    cascade_fraction: float
    per_state: tuple = field(default_factory=tuple)


@dataclass(frozen=True)
class ModeComparison:
    """Side-by-side summaries from shared per-episode draws.

    ``nesting_ok`` reports the empirical containment check: the public-signal
    market should learn at least as often as the private one, up to ``slack``
    of Monte Carlo noise.  ``private_episodes`` and ``public_episodes`` are
    the episodes the summaries were built from; :meth:`as_dict` leaves them
    out.
    """

    private: MonteCarloSummary
    public: MonteCarloSummary
    slack: float
    nesting_ok: bool
    private_episodes: list = field(repr=False)
    public_episodes: list = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "private": asdict(self.private),
            "public": asdict(self.public),
            "slack": self.slack,
            "nesting_ok": self.nesting_ok,
        }


def _draw_episode(config: ScenarioConfig, episode_index: int):
    """``(true_state, informative, signals, noise_actions)``, the last three
    per period; noise actions 0/1/2 are B/S/NT."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, episode_index)))
    structure, t = config.structure, config.horizon
    if config.true_state is None:
        true_state = int(rng.choice(structure.n_states, p=config.prior.weights))
    else:
        true_state = config.true_state
    informative = rng.random(t) >= config.eta
    signals = rng.choice(structure.n_signals, size=t, p=structure.likelihood[true_state])
    return true_state, informative, signals, rng.integers(0, 3, size=t)


def _run(config: ScenarioConfig, episodes, mode: str) -> list[EpisodeResult]:
    """The episodes ``episodes`` of a run in market mode ``mode``, stepped
    together as the rows of one weight array.

    Private mode: each period a noise trader acts uniformly or an informed
    one on its signal's partition class, and the market maker updates on
    the action alone.  A row whose partition is all-no-trade leaves the
    active set: every action likelihood is then state-independent, so the
    rest of its path is filled as constant.

    Public mode: an informed period reveals the signal to everyone, the
    belief updates by Bayes rule and the price is the new expectation; a
    noise period leaves both untouched.  So the kernel steps once per
    revealed signal, not per period.  Rows are sorted by their count of
    informed periods, most first, so update k steps a leading slice of rows
    and writes their beliefs to column k + 1.  Each row is then spread over
    its periods in place, a noise period repeating the belief before it,
    and the prices follow from the beliefs in one product.
    """
    structure, e = config.structure, _eta_value(config.eta)
    values, m, t_max = structure.states.values, structure.n_signals, config.horizon
    size = len(episodes)
    # per period the signal of an informed trader, else m + the noise action
    true_state = np.empty(size, dtype=np.intp)
    code = np.empty((size, t_max), dtype=np.min_scalar_type(m + 2))
    for r, i in enumerate(episodes):
        true_state[r], informative, signals, noise_actions = _draw_episode(config, i)
        code[r] = np.where(informative, signals, m + noise_actions)

    beliefs = np.empty((size, t_max + 1, structure.n_states))
    slot = np.arange(size)  # the row of beliefs and prices that holds each episode
    cascade_time = np.full(size, -1)
    if mode == PRIVATE:
        prices = np.empty((size, t_max + 1))
        w = np.tile(config.prior.weights, (size, 1))
        price = _row_products(w, values)
        active = np.arange(size)  # the rows stepped this period
        for t in range(t_max + 1):
            prices[active, t], beliefs[active, t] = price, w
            bid, ask, buy, sell, like = quote_rows(w, structure, e)
            trading = buy.any(axis=1) | sell.any(axis=1)
            frozen = active[~trading]
            cascade_time[frozen] = t
            prices[frozen, t + 1:], beliefs[frozen, t + 1:] = price[~trading, None], w[~trading, None]
            if t == t_max or not trading.any():
                break
            if not trading.all():
                active, w, price, bid, ask, buy, sell, like = (
                    x[trading] for x in (active, w, price, bid, ask, buy, sell, like))
            # action codes follow model.ACTIONS: 0 buy, 1 sell, 2 no trade
            c = code[active, t].astype(np.intp)
            rows, j = np.arange(active.size), np.minimum(c, m - 1)
            action = np.where(c < m, np.where(buy[rows, j], 0, np.where(sell[rows, j], 1, 2)), c - m)
            price = np.where(action == 0, ask, np.where(action == 1, bid, price))
            w = _normalized_rows(w * like[rows, action])
    else:
        informed = code < m
        counts = informed.sum(axis=1)
        order = np.argsort(-counts, kind="stable")
        slot[order] = np.arange(size)
        signals = np.zeros((size, counts.max()), dtype=code.dtype)  # row k: row order[k]'s signals
        for k, r in enumerate(order):
            signals[k, :counts[r]] = code[r, informed[r]]
        beliefs[:, 0] = config.prior.weights
        table = structure.likelihood.T
        # update k steps the rows with more than k informed periods, a leading slice
        for k, a in enumerate(np.searchsorted(-counts[order], -np.arange(signals.shape[1])).tolist()):
            beliefs[:a, k + 1] = _normalized_rows(beliefs[:a, k] * table[signals[:a, k]])
        filled = np.zeros(t_max + 1, dtype=np.intp)  # per period the updates made by its end
        for k, r in enumerate(order):
            np.cumsum(informed[r], out=filled[1:])
            beliefs[k] = beliefs[k, filled]
        prices = _row_products(beliefs.reshape(-1, structure.n_states), values).reshape(size, t_max + 1)

    return [
        EpisodeResult(episode=i, mode=mode, true_state=int(s), true_value=float(values[s]),
                      price_path=prices[k], belief_path=beliefs[k], cascade_time=None if ct < 0 else int(ct),
                      final_belief_on_truth=float(beliefs[k, -1, s]))
        for i, s, ct, k in zip(episodes, true_state, cascade_time, slot)
    ]


def run_private_episode(config: ScenarioConfig, episode_index: int) -> EpisodeResult:
    """One private-signal episode: the batched kernel on the batch
    ``[episode_index]``."""
    return _run(config, [episode_index], PRIVATE)[0]


def run_public_episode(config: ScenarioConfig, episode_index: int) -> EpisodeResult:
    """One public-signal episode: the batched kernel on the batch
    ``[episode_index]``.  It matches a one-signal Bayes posterior per period
    plus :func:`~market_learn.model.expectation` bit for bit."""
    return _run(config, [episode_index], PUBLIC)[0]


def run_episodes(config: ScenarioConfig) -> list[EpisodeResult]:
    """All episodes of the scenario, in episode order, as one batch."""
    return _run(config, range(config.episodes), config.mode)


def summarize_episodes(results: list[EpisodeResult], config: ScenarioConfig) -> MonteCarloSummary:
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


def run_monte_carlo(config: ScenarioConfig) -> MonteCarloSummary:
    return summarize_episodes(run_episodes(config), config)


def compare_modes(config: ScenarioConfig, slack: float = 0.05) -> ModeComparison:
    """Run both market modes on identical per-episode draws (same true
    state, same trader types, same signal stream) and compare summaries.
    ``slack`` must be finite and nonnegative."""
    if not (0 <= slack < np.inf):  # also rejects NaN
        raise PreconditionFailed(f"slack must be finite and nonnegative, got {slack!r}")
    private_cfg = config.with_overrides(mode=PRIVATE)
    public_cfg = config.with_overrides(mode=PUBLIC)
    private_episodes = run_episodes(private_cfg)
    public_episodes = run_episodes(public_cfg)
    private = summarize_episodes(private_episodes, private_cfg)
    public = summarize_episodes(public_episodes, public_cfg)
    nesting_ok = public.learned_fraction >= private.learned_fraction - slack
    return ModeComparison(private=private, public=public, slack=slack, nesting_ok=nesting_ok,
                          private_episodes=private_episodes, public_episodes=public_episodes)
