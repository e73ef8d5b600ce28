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
from numbers import Integral
from typing import Optional

import numpy as np

from .engine import quote_rows
from .errors import ConfigInvalid, InvalidBelief, NoConsistentPartition, PreconditionFailed
from .model import Belief, SignalStructure, _eta_value, _row_products, _stepped_rows

__all__ = [
    "PRIVATE",
    "PUBLIC",
    "ScenarioConfig",
    "EpisodeResult",
    "RunResult",
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

# Periods a private-mode block steps before one quote_rows call checks them
# (see _run).  16 ran the shipped scenarios faster, but 35% slower than the
# period loop on 300 episodes whose sets change every ~13 periods; 8 did not.
_BLOCK = 8
# Updates per public-mode chunk (see _run): 32-256 ran alike at 300 x 30,000; 256 held 6 MB more.
_CHUNK = 64


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
        integers = [self.horizon, self.episodes, self.seed] + ([] if self.true_state is None else [self.true_state])
        for name, value in zip(("horizon", "episodes", "seed", "true_state"), integers):
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ConfigInvalid(f"{name} must be an integer, got {value!r}")
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
class RunResult:
    """The episodes of one run as columns: row ``k`` of each array is episode
    ``episode[k]``; ``cascade_time`` is -1 where the row never froze.  The
    paths are the kernel's own (E, T + 1) and (E, T + 1, n) arrays.  Indexing
    and iteration give :class:`EpisodeResult` row views of them."""

    mode: str
    episode: np.ndarray
    true_state: np.ndarray
    true_value: np.ndarray
    cascade_time: np.ndarray
    price_path: np.ndarray
    belief_path: np.ndarray

    @property
    def final_price(self) -> np.ndarray:
        return self.price_path[:, -1]

    @property
    def final_belief_on_truth(self) -> np.ndarray:
        return self.belief_path[np.arange(len(self)), -1, self.true_state]

    def learned(self, convergence_tol: float) -> np.ndarray:
        return np.abs(self.final_price - self.true_value) < convergence_tol

    def __len__(self) -> int:
        return len(self.episode)

    def __getitem__(self, k) -> EpisodeResult:
        s, ct = int(self.true_state[k]), int(self.cascade_time[k])
        return EpisodeResult(episode=int(self.episode[k]), mode=self.mode, true_state=s,
                             true_value=float(self.true_value[k]), price_path=self.price_path[k],
                             belief_path=self.belief_path[k], cascade_time=None if ct < 0 else ct,
                             final_belief_on_truth=float(self.belief_path[k, -1, s]))


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
    the runs the summaries were built from; :meth:`as_dict` leaves them out.
    """

    private: MonteCarloSummary
    public: MonteCarloSummary
    slack: float
    nesting_ok: bool
    private_episodes: RunResult = field(repr=False)
    public_episodes: RunResult = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "private": asdict(self.private),
            "public": asdict(self.public),
            "slack": self.slack,
            "nesting_ok": self.nesting_ok,
        }


def _draw_codes(config: ScenarioConfig, episodes, code: np.ndarray) -> np.ndarray:
    """Per row of ``episodes`` its true state, filling ``code`` (see _run).
    One uniform per true state, trader type and signal, in the contract's
    order; a draw counts the CDF entries at or below its uniform, the CDF
    built as ``Generator.choice`` builds it, so the draws are ``choice``'s."""
    t, drawn, m = config.horizon, int(config.true_state is None), config.structure.n_signals
    prior_cdf, cdf = (c / c[..., -1:] for c in (config.prior.weights.cumsum(), config.structure.likelihood.cumsum(1)))
    true_state = np.full(len(episodes), config.true_state or 0, dtype=np.intp)
    for r, i in enumerate(episodes.tolist()):
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, i)))
        u = rng.random(2 * t + drawn)
        s = true_state[r] = (prior_cdf <= u[0]).sum() if drawn else true_state[r]
        code[r] = np.where(u[drawn:drawn + t] >= config.eta, (cdf[s, :, None] <= u[drawn + t:]).sum(0),
                           rng.integers(m, m + 3, size=t))
    return true_state


def _run(config: ScenarioConfig, episodes, mode: str) -> RunResult:
    """The episodes ``episodes`` of a run in market mode ``mode``, stepped
    together as the rows of one weight array.  Both modes make their Bayes
    updates through ``_stepped_rows`` and differ only in what they update on.

    Private mode: each period a noise trader acts uniformly or an informed
    one on its signal's partition class, and the market maker updates on
    the action alone.  A row whose partition is all-no-trade leaves the
    active set: every action likelihood is then state-independent, so the
    rest of its path is filled as constant.  Partitions seldom change, so
    each row steps ``_BLOCK`` periods ahead on its current partition and one
    ``quote_rows`` call solves every stepped belief; a row keeps the periods
    up to its first belief whose sets or action likelihoods differ (a new
    sorted order alters their last bits) and restarts there, so its path is
    the period loop's bit for bit.  A block that raises is stepped again one
    period at a time, so an error names a belief that loop reaches.

    Public mode: an informed period reveals the signal to everyone, the
    belief updates by Bayes rule and the price is the new expectation; a
    noise period leaves both untouched.  So the kernel steps once per
    revealed signal, ``_CHUNK`` updates per stepper call: update k steps
    every row, in episode order, on its k + 1-th signal, or past its last
    one on signal 0 into columns it never reads (a positive likelihood row
    keeps a belief valid).  Each row is then spread over its periods in
    place, a noise period repeating the belief before it, and the prices
    follow from the beliefs in one product.
    :class:`ConfigInvalid` names a run too large to allocate.
    """
    values, table, e = config.structure.states.values, config.structure.likelihood, _eta_value(config.eta)
    (n, m), t_max = table.shape, config.horizon
    episodes = np.array(episodes, dtype=np.intp)
    size = len(episodes)
    # per period the signal of an informed trader, else m + the noise action
    try:
        code = np.empty((size, t_max), dtype=np.min_scalar_type(m + 2))
        beliefs = np.empty((size, t_max + 1, n))
    except (MemoryError, ValueError):
        raise ConfigInvalid(f"a run of {size} episodes x {t_max} periods does not fit in memory") from None
    true_state = _draw_codes(config, episodes, code)

    beliefs[:, 0] = config.prior.weights
    cascade_time = np.full(size, -1)
    if mode == PRIVATE:
        prices = np.empty((size, t_max + 1))
        prices[:, 0] = _row_products(beliefs[:, 0], values)
        t = np.zeros(size, dtype=np.intp)  # per row its last written period
        active, quotes = np.arange(size), quote_rows(beliefs[:, 0], values, table, e)  # each active row's quotes
        careful = 0  # periods left to step one at a time after a block raised
        while True:
            trading = quotes[2].any(axis=1) | quotes[3].any(axis=1)
            cascade_time[active[~trading]] = t[active[~trading]]
            going = trading & (t[active] < t_max)
            if not going.any():
                break
            active, quotes = active[going], [x[going] for x in quotes]
            bid, ask, buy, sell, like = quotes
            k, at, rows = 1 if careful else _BLOCK, t[active], np.arange(active.size)
            span = at[:, None] + np.arange(k)  # the block's periods, past the horizon for rows near it
            # per row the action, in model.ACTIONS order, of each signal and then of each noise code
            act = np.hstack([np.where(buy, 0, np.where(sell, 1, 2)), np.tile(np.arange(3), (rows.size, 1))])
            action = act[rows[:, None], code[active[:, None], np.minimum(span, t_max - 1)]]
            try:  # stepped[j]: each row's belief j + 1 periods on, if its partition holds
                stepped = _stepped_rows(beliefs[active, at], like[rows, action.T])
                check = quote_rows(stepped.reshape(-1, n), values, table, e)
            except (InvalidBelief, NoConsistentPartition):
                if careful:  # a one-period block steps only beliefs the period loop reaches
                    raise
                careful = _BLOCK  # the error may come from a belief past a partition change
                continue
            careful = max(careful - 1, 0)
            check = [x.reshape(k, rows.size, *x.shape[1:]) for x in check]
            # each row accepts its periods up to the first belief whose sets or likelihoods differ, or its horizon
            stop = ~((check[2] == buy).all(2) & (check[3] == sell).all(2) & (check[4] == like).all((2, 3))).T
            stop[rows, np.minimum(k, t_max - at) - 1] = True
            done = stop.argmax(axis=1) + 1
            # the price after a period is the quote the last trade so far hit, else the price before the block
            hit = np.where(action == 0, np.vstack([ask, check[1][:-1]]).T, np.vstack([bid, check[0][:-1]]).T)
            last = np.maximum.accumulate(np.where(action < 2, np.arange(k), -1), axis=1)
            taken = np.arange(k) < done[:, None]
            written = np.broadcast_to(active[:, None], taken.shape)[taken], span[taken] + 1
            prices[written] = np.where(last >= 0, hit[rows[:, None], last], prices[active, at][:, None])[taken]
            beliefs[written] = stepped.transpose(1, 0, 2)[taken]
            t[active] = at + done
            quotes = [x[done - 1, rows] for x in check]
        for r in range(size):  # a row that stopped early keeps its last price and belief
            prices[r, t[r] + 1:], beliefs[r, t[r] + 1:] = prices[r, t[r]], beliefs[r, t[r]]
    else:
        informed = code < m
        counts = informed.sum(axis=1)
        signals = np.zeros((size, counts.max()), dtype=code.dtype)  # per row its signals, then 0s
        signals[np.arange(signals.shape[1]) < counts[:, None]] = code[informed]
        for k in range(0, signals.shape[1], _CHUNK):
            like = table.T[signals[:, k:k + _CHUNK].T]
            beliefs[:, k + 1:k + len(like) + 1] = _stepped_rows(beliefs[:, k], like).transpose(1, 0, 2)
        filled = np.zeros(t_max + 1, dtype=np.intp)  # per period the updates made by its end
        for r in range(size):
            np.cumsum(informed[r], out=filled[1:])
            beliefs[r] = beliefs[r, filled]
        prices = _row_products(beliefs.reshape(-1, n), values).reshape(size, t_max + 1)
    return RunResult(mode=mode, episode=episodes, true_state=true_state, true_value=values[true_state],
                     cascade_time=cascade_time, price_path=prices, belief_path=beliefs)


def run_private_episode(config: ScenarioConfig, episode_index: int) -> EpisodeResult:
    """One private-signal episode: the batched kernel on the batch
    ``[episode_index]``."""
    return _run(config, [episode_index], PRIVATE)[0]


def run_public_episode(config: ScenarioConfig, episode_index: int) -> EpisodeResult:
    """One public-signal episode: the batched kernel on the batch
    ``[episode_index]``.  It matches a one-signal Bayes posterior per period
    plus :func:`~market_learn.model.expectation` bit for bit."""
    return _run(config, [episode_index], PUBLIC)[0]


def run_episodes(config: ScenarioConfig) -> RunResult:
    """All episodes of the scenario, in episode order, as one batch."""
    return _run(config, range(config.episodes), config.mode)


def summarize_episodes(run: RunResult, config: ScenarioConfig) -> MonteCarloSummary:
    learned = run.learned(config.convergence_tol)
    errors = np.abs(run.final_price - run.true_value)
    cascaded = run.cascade_time >= 0
    per_state = []
    for i, value in enumerate(config.structure.states.values.tolist()):
        mask = run.true_state == i
        if mask.any():
            per_state.append(StateBreakdown(
                state_index=i, state_value=value, episodes=int(mask.sum()),
                learned_fraction=float(learned[mask].mean()), cascade_fraction=float(cascaded[mask].mean()),
                mean_abs_price_error=float(errors[mask].mean())))
    return MonteCarloSummary(episodes=len(run), learned_fraction=float(learned.mean()),
                             mean_abs_price_error=float(errors.mean()),
                             cascade_fraction=float(cascaded.mean()), per_state=tuple(per_state))


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
