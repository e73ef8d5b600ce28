"""Episode and Monte Carlo drivers for the private- and public-signal markets.

Reproducibility contract: episode ``i`` of a run draws its randomness from
``numpy.random.default_rng(SeedSequence((seed, i)))``, so results are
bit-identical for a given (config, seed) regardless of episode scheduling.
Within an episode all randomness is drawn up front in a fixed order (true
state, trader types, signals, noise actions), and a comparison runs both
modes' kernels on that one draw.

Each mode runs as one batched kernel: all episodes of a run step together
as the rows of one weight array, and :func:`run_private_episode` and
:func:`run_public_episode` are that kernel on a batch of one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .engine import quote_rows
from .errors import ConfigInvalid, InvalidBelief, NoConsistentPartition, PreconditionFailed
from .model import Belief, SignalStructure, _eta_value, _row_products

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

# Periods the first private-mode block steps (see _private_kernel).  Blocks double, up
# to 64, after rows keep 90% of the beliefs solved and halve, down to 4, below 60%: 8
# alone kept 67% on sets that change every ~13 periods, and 16 ran them 35% slower.
_BLOCK = 8
# Episode-periods per public-mode block (see _public_kernel), but at least 64
# periods: shorter blocks ran 2x slower at 300 x 3,000, and blocks of 8,192
# cells raised the peak over the paths at 20 x 3,000.
_CELLS = 1 << 11


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
        kinds = dict(horizon=Integral, episodes=Integral, seed=Integral, eta=Real, convergence_tol=Real)
        for name, kind in [*kinds.items()] + ([] if self.true_state is None else [("true_state", Integral)]):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigInvalid(f"{name} must be {'a number' if kind is Real else 'an integer'}, got {value!r}")
            object.__setattr__(self, name, float(value) if kind is Real else int(value))  # numpy scalars: not JSON
        for name, kind in (("structure", SignalStructure), ("prior", Belief)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigInvalid(f"{name} must be a {kind.__name__}, got {type(getattr(self, name)).__name__}")
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
    price_path: Optional[np.ndarray]   # length horizon + 1, starts at the prior expectation; None if not kept
    belief_path: Optional[np.ndarray]  # shape (horizon + 1, n_states), full resolution; None if not kept
    cascade_time: Optional[int]  # first date with an all-no-trade partition (private mode)
    final_price: float
    final_belief_on_truth: float

    def learned(self, convergence_tol: float) -> bool:
        return abs(self.final_price - self.true_value) < convergence_tol


@dataclass(frozen=True)
class RunResult:
    """The episodes of one run as columns: row ``k`` of each array is episode
    ``episode[k]``; ``cascade_time`` is -1 where the row never froze.  The
    paths are the kernel's own (E, T + 1) and (E, T + 1, n) arrays, or None
    when not kept; ``final_price`` (E,) and ``final_belief`` (E, n) are their
    last columns.  Indexing and iteration give :class:`EpisodeResult` rows."""

    mode: str
    episode: np.ndarray
    true_state: np.ndarray
    true_value: np.ndarray
    cascade_time: np.ndarray
    final_price: np.ndarray
    final_belief: np.ndarray
    price_path: Optional[np.ndarray]
    belief_path: Optional[np.ndarray]

    @property
    def final_belief_on_truth(self) -> np.ndarray:
        return self.final_belief[np.arange(len(self)), self.true_state]

    def learned(self, convergence_tol: float) -> np.ndarray:
        return np.abs(self.final_price - self.true_value) < convergence_tol

    def __len__(self) -> int:
        return len(self.episode)

    def __getitem__(self, k) -> EpisodeResult:
        s, ct = int(self.true_state[k]), int(self.cascade_time[k])
        price_path, belief_path = (None if path is None else path[k] for path in (self.price_path, self.belief_path))
        return EpisodeResult(episode=int(self.episode[k]), mode=self.mode, true_state=s,
                             true_value=float(self.true_value[k]), price_path=price_path, belief_path=belief_path,
                             cascade_time=None if ct < 0 else ct, final_price=float(self.final_price[k]),
                             final_belief_on_truth=float(self.final_belief[k, s]))


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
    """Side-by-side summaries of both modes on one draw per episode.

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


def _stepped_rows(w: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``out[j]``: each row of ``w`` after Bayes updates on ``like[0]`` to ``like[j]`` in turn.  Past
    ``_run``'s table check every action likelihood, and so every row sum, is finite and positive."""
    out = np.empty(like.shape[:1] + w.shape)
    for j, before in enumerate([w, *out[:-1]]):
        np.multiply(before, like[j], out=out[j])
        out[j] /= out[j].sum(axis=1, keepdims=True)
    return out


def _counted_rows(counts: np.ndarray, logs: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """The public beliefs, states last, after ``counts[j]`` revealed signals
    ``j`` (see _public_kernel).  ``logs`` and ``prior`` carry two trailing axes,
    so the work runs state-major: numpy reduces a short last axis many times slower."""
    w = sum(log * count for log, count in zip(logs, counts))
    w -= w.max(axis=0)
    np.exp(w, out=w)
    w *= prior
    w /= w.sum(axis=0)
    return np.moveaxis(w, 0, -1)


def _private_kernel(code, cur, values, table, e, beliefs=None, prices=None):
    """Private mode (see _run), stepping the prior rows ``cur`` in place.  The market
    maker updates on each period's action alone, through ``_stepped_rows``; a row
    whose partition is all-no-trade leaves the active set, since no action then
    moves it, and its path is filled as constant.  Each row steps one block of
    periods ahead on its current partition, one ``quote_rows`` call solves every
    stepped belief, and a row keeps the periods up to its first belief whose sets
    or action likelihoods differ (a new sorted order alters their last bits): its
    path is the period loop's bit for bit.  One block length serves the batch and
    follows the share of solved beliefs the rows keep (see ``_BLOCK``).  A block
    that raises is stepped again one period at a time over its whole length, so
    an error names a belief that loop reaches."""
    (size, t_max), n = code.shape, cur.shape[1]
    cascade_time = np.full(size, -1)
    price = _row_products(cur, values)  # per row its price after its last written period
    if beliefs is not None:
        beliefs[:, 0], prices[:, 0] = cur, price
    t = np.zeros(size, dtype=np.intp)  # per row its last written period
    active, quotes = np.arange(size), quote_rows(cur, values, table, e)  # each active row's quotes
    block, careful = _BLOCK, 0  # the block length, and the periods left to step one at a time after a raise
    while True:
        trading = quotes[2].any(axis=1) | quotes[3].any(axis=1)
        cascade_time[active[~trading]] = t[active[~trading]]
        going = trading & (t[active] < t_max)
        if not going.any():
            break
        active, quotes = active[going], [x[going] for x in quotes]
        bid, ask, buy, sell, like = quotes
        k, at, rows = 1 if careful else block, t[active], np.arange(active.size)
        span = at[:, None] + np.arange(k)  # the block's periods, past the horizon for rows near it
        # per row the action, in model.ACTIONS order, of each signal and then of each noise code
        act = np.hstack([np.where(buy, 0, np.where(sell, 1, 2)), np.tile(np.arange(3), (rows.size, 1))])
        action = act[rows[:, None], code[active[:, None], np.minimum(span, t_max - 1)]]
        stepped = _stepped_rows(cur[active], like[rows, action.T])  # [j]: j + 1 periods on, if the sets hold
        try:
            check = quote_rows(stepped.reshape(-1, n), values, table, e)
        except NoConsistentPartition:
            if careful:  # a one-period block steps only beliefs the period loop reaches
                raise
            careful = k  # the error may come from any belief of the block past a partition change
            continue
        careful = max(careful - 1, 0)
        check = [x.reshape(k, rows.size, *x.shape[1:]) for x in check]
        # each row accepts its periods up to the first belief whose sets or likelihoods differ, or its horizon
        stop = ~((check[2] == buy).all(2) & (check[3] == sell).all(2) & (check[4] == like).all((2, 3))).T
        stop[rows, np.minimum(k, t_max - at) - 1] = True
        done = stop.argmax(axis=1) + 1
        kept = done.sum() / stop.size  # the share of the solved beliefs the rows keep; all, in a one-period block
        block = block if k == 1 else min(2 * block, 64) if kept >= 0.9 else max(block // 2, 4) if kept < 0.6 else block
        # the price after a period is the quote the last trade so far hit, else the price before the block
        hit = np.where(action == 0, np.vstack([ask, check[1][:-1]]).T, np.vstack([bid, check[0][:-1]]).T)
        last = np.maximum.accumulate(np.where(action < 2, np.arange(k), -1), axis=1)
        now = np.where(last >= 0, hit[rows[:, None], last], price[active][:, None])
        if beliefs is not None:
            taken = np.arange(k) < done[:, None]
            written = np.broadcast_to(active[:, None], taken.shape)[taken], span[taken] + 1
            prices[written], beliefs[written] = now[taken], stepped.transpose(1, 0, 2)[taken]
        price[active], cur[active] = now[rows, done - 1], stepped[done - 1, rows]
        t[active] = at + done
        quotes = [x[done - 1, rows] for x in check]
    if beliefs is not None:  # a row that stopped early keeps its last price and belief
        for r in range(size):
            prices[r, t[r] + 1:], beliefs[r, t[r] + 1:] = price[r], cur[r]
    return cascade_time, price, cur, prices, beliefs


def _public_kernel(code, prior, values, table, beliefs=None):
    """Public mode (see _run); no row freezes, and the price path comes from
    the beliefs.  A noise period reveals nothing, so a belief depends only on
    the prior and the count of each signal revealed so far: it is
    ``prior * exp(s - max(s))`` normalized, where ``s[i]`` sums count times
    log-likelihood for state ``i`` apart.  So states with equal table rows
    keep their prior ratio, and a weight that underflows comes back once the
    counts favour its state.  Blocks of ``_CELLS`` cells write their beliefs
    in place, so a noise period repeats the belief before it bit for bit."""
    (size, t_max), (n, m) = code.shape, table.shape
    # per signal the log-likelihoods against its likeliest state, so the sums stay small
    logs = np.log(table / table.max(axis=0)).T[..., None, None]
    prior, signal = prior.T[..., None], np.arange(m, dtype=code.dtype)[:, None, None]
    seen = np.zeros((m, size, 1))  # per signal and row its count revealed so far
    span = max(64, _CELLS // size)
    for k in range(0, t_max, span):
        revealed = code[:, k:k + span] == signal
        if beliefs is not None:  # the belief at period t counts the signals of the periods before t
            counts = np.cumsum(revealed, axis=2) - revealed + seen
            beliefs[:, k:k + counts.shape[2]] = _counted_rows(counts, logs, prior)
        seen += np.count_nonzero(revealed, axis=2, keepdims=True)
    cur, prices = _counted_rows(seen, logs, prior)[:, 0].copy(), None
    if beliefs is not None:
        beliefs[:, -1] = cur
        prices = _row_products(beliefs.reshape(-1, n), values).reshape(size, t_max + 1)
    return np.full(size, -1), _row_products(cur, values), cur, prices, beliefs


def _run(config: ScenarioConfig, episodes, modes, paths: bool = True) -> tuple:
    """One :class:`RunResult` per mode in ``modes``, all on one draw of the
    episodes ``episodes``.  A mode's kernel takes the period codes, prior rows
    of its own, the values, the table, (private) the noise rate and path
    arrays of its own or None, and returns the RunResult columns from
    ``cascade_time`` on; it keeps per row only its current belief and price.
    A likelihood entry that is not finite and positive (only a table swapped
    in after validation) raises :class:`InvalidBelief` before any allocation
    or draw, and :class:`ConfigInvalid` names a run too large for either."""
    values, table, e = config.structure.states.values, config.structure.likelihood, _eta_value(config.eta)
    (n, m), t_max = table.shape, config.horizon
    if not ((0 < table) & (table < np.inf)).all():  # NaN fails both
        raise InvalidBelief(f"likelihood table {table.tolist()} has an entry that is not finite and positive, "
                            "so beliefs would not stay finite and nonnegative")
    episodes = np.array(episodes, dtype=np.intp)
    size = len(episodes)
    try:  # code: per period the signal of an informed trader, else m + the noise action
        code = np.empty((size, t_max), dtype=np.min_scalar_type(m + 2))
        beliefs = [np.empty((size, t_max + 1, n)) if paths else None for _ in modes]  # never shared between modes
        prices = np.empty((size, t_max + 1)) if paths and PRIVATE in modes else None  # public: from its beliefs
        true_state = _draw_codes(config, episodes, code)
    except (MemoryError, ValueError):
        raise ConfigInvalid(f"a run of {size} episodes x {t_max} periods does not fit in memory") from None
    runs = []
    for mode, kept in zip(modes, beliefs):
        prior = np.tile(config.prior.weights, (size, 1))
        columns = (_private_kernel(code, prior, values, table, e, kept, prices) if mode == PRIVATE
                   else _public_kernel(code, prior, values, table, kept))
        runs.append(RunResult(mode, episodes, true_state, values[true_state], *columns))
    return tuple(runs)


def run_private_episode(config: ScenarioConfig, episode_index: int) -> EpisodeResult:
    """One private-signal episode: the batched kernel on the batch
    ``[episode_index]``."""
    return _run(config, [episode_index], (PRIVATE,))[0][0]


def run_public_episode(config: ScenarioConfig, episode_index: int) -> EpisodeResult:
    """One public-signal episode: the batched kernel on the batch
    ``[episode_index]``.  Its beliefs come from the signal counts in log
    space, so they match a one-signal Bayes posterior per period plus
    :func:`~market_learn.model.expectation` to rounding, not bit for bit."""
    return _run(config, [episode_index], (PUBLIC,))[0][0]


def run_episodes(config: ScenarioConfig, paths: bool = True) -> RunResult:
    """All episodes of the scenario, in episode order, as one batch, with paths only if ``paths`` (see _run)."""
    return _run(config, range(config.episodes), (config.mode,), paths)[0]


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
    return summarize_episodes(run_episodes(config, paths=False), config)


def compare_modes(config: ScenarioConfig, slack: float = 0.05) -> ModeComparison:
    """Run both market modes on one draw per episode (same true state,
    same trader types, same signal stream) and compare summaries.
    ``slack`` must be finite and nonnegative."""
    if isinstance(slack, bool) or not isinstance(slack, Real) or not (0 <= slack < np.inf):  # also rejects NaN
        raise PreconditionFailed(f"slack must be finite and nonnegative, got {slack!r}")
    private_episodes, public_episodes = _run(config, range(config.episodes), (PRIVATE, PUBLIC), paths=False)
    private, public = (summarize_episodes(run, config) for run in (private_episodes, public_episodes))
    nesting_ok = public.learned_fraction >= private.learned_fraction - slack
    return ModeComparison(private=private, public=public, slack=slack, nesting_ok=nesting_ok,
                          private_episodes=private_episodes, public_episodes=public_episodes)
