import itertools
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import market_learn.simulate as simulate
from market_learn.errors import ConfigInvalid, InvalidBelief, NonPositiveDensity, PreconditionFailed
from market_learn.engine import quote_rows
from market_learn.model import PROB_SUM_TOL, Belief, SignalSpace, SignalStructure, StateSpace, expectation
from market_learn.plots import emit_plots
from market_learn.presets import binary_symmetric, four_state_cascade, three_state_informative
from market_learn.simulate import (
    ScenarioConfig,
    compare_modes,
    run_episodes,
    run_monte_carlo,
    run_private_episode,
    run_public_episode,
    summarize_episodes,
)
from market_learn.verify import check_limit_support_3state, random_belief, random_structure
from reference import bayes_posterior, draw_episode, point_mass, reference_summary


def binary_config(**overrides):
    base = dict(
        structure=binary_symmetric(0.8),
        prior=Belief.uniform(2),
        eta=0.5,
        mode="private",
        horizon=200,
        episodes=8,
        seed=101,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


RUN_EPISODE = {"private": run_private_episode, "public": run_public_episode}

# a table that SignalStructure rejects: state 0 gives signal "b" a negative likelihood
NEGATIVE_TABLE = np.array([[1.2, -0.2], [0.2, 0.8]])

DUPLICATED_ROWS = SignalStructure(
    StateSpace(np.array([0.0, 1.0, 2.0])),
    SignalSpace(("a", "b")),
    np.array([[0.6, 0.4], [0.6, 0.4], [0.2, 0.8]]),
)


# ---------------------------------------------------------------- config validation

def test_config_rejects_bad_inputs():
    with pytest.raises(ConfigInvalid):
        binary_config(mode="other")
    with pytest.raises(ConfigInvalid):
        binary_config(prior=point_mass(2, 0))
    with pytest.raises(ConfigInvalid):
        binary_config(horizon=0)
    with pytest.raises(ConfigInvalid):
        binary_config(episodes=0)
    with pytest.raises(ConfigInvalid):
        binary_config(eta=1.2)
    with pytest.raises(ConfigInvalid):
        binary_config(true_state=5)
    with pytest.raises(ConfigInvalid):
        binary_config(convergence_tol=0.0)
    with pytest.raises(ConfigInvalid):
        binary_config(prior=Belief.uniform(3), structure=binary_symmetric())
    # a structure or prior of another type raises before any of its attributes is read
    with pytest.raises(ConfigInvalid, match=r"^prior must be a Belief, got list$"):
        binary_config(prior=[0.5, 0.5])
    with pytest.raises(ConfigInvalid, match=r"^structure must be a SignalStructure, got str$"):
        binary_config(structure="x")


@pytest.mark.parametrize("call, field, value", [
    ("config", "true_state", 0.5), ("config", "true_state", False), ("config", "horizon", 10.5),
    ("config", "horizon", float("nan")), ("config", "horizon", True), ("config", "horizon", "10"),
    ("config", "episodes", 2.5), ("config", "seed", 1.5), ("support", "trials", 2.5), ("support", "horizon", 10.5),
])
def test_config_rejects_run_sizes_that_are_not_integers(call, field, value):
    # the rule that JSON scenarios follow: a run size or a set true state is
    # an integer, numpy's included, and not a bool
    with pytest.raises(ConfigInvalid, match="must be an integer"):
        if call == "config":
            binary_config(**{field: value})
        else:
            check_limit_support_3state(three_state_informative(), 0.5, **{field: value})
    binary_config(horizon=np.int64(20), episodes=np.intp(2), seed=np.uint8(3), true_state=np.int64(1))


@pytest.mark.parametrize("field, value", [
    ("eta", True), ("eta", "0.5"), ("eta", None), ("convergence_tol", True), ("convergence_tol", "x"),
    ("slack", "0.1"), ("slack", True), ("plots_tol", "x"), ("plots_tol", True),
])
def test_rates_and_tolerances_that_are_not_numbers_raise_typed_errors(field, value, tmp_path):
    # the rule that JSON scenarios follow: a number, numpy's included, and not a bool
    if field == "slack":
        with pytest.raises(PreconditionFailed, match="slack"):
            compare_modes(binary_config(horizon=20, episodes=2), slack=value)
    elif field == "plots_tol":
        with pytest.raises(PreconditionFailed, match="convergence_tol"):
            emit_plots(run_episodes(binary_config(horizon=20, episodes=2)), tmp_path, convergence_tol=value)
    else:
        with pytest.raises(ConfigInvalid, match=f"{field} must be a number"):
            binary_config(**{field: value})
    binary_config(eta=np.float64(0.5), convergence_tol=np.float32(0.1))


@pytest.mark.parametrize("mode", ["private", "public"])
def test_config_rejects_a_likelihood_table_with_a_negative_entry(mode):
    # the structure rejects the table at construction, before any config exists
    with pytest.raises(NonPositiveDensity):
        ScenarioConfig(structure=SignalStructure(StateSpace(np.array([0.0, 1.0])), SignalSpace(("a", "b")),
                                                 NEGATIVE_TABLE),
                       prior=Belief.uniform(2), eta=0.1, mode=mode, horizon=50, episodes=5, seed=1)


# ---------------------------------------------------------------- determinism

def test_rng_contract_is_deterministic():
    config = binary_config(mode="public", horizon=50)
    a, b, c = (run_public_episode(config, i) for i in (3, 3, 4))
    np.testing.assert_array_equal(a.belief_path, b.belief_path)
    assert not np.array_equal(a.belief_path, c.belief_path)


@pytest.mark.parametrize("mode", ["private", "public"])
def test_episodes_are_reproducible(mode):
    config = binary_config(mode=mode)
    r1 = RUN_EPISODE[mode](config, 2)
    r2 = RUN_EPISODE[mode](config, 2)
    np.testing.assert_array_equal(r1.price_path, r2.price_path)
    np.testing.assert_array_equal(r1.belief_path, r2.belief_path)
    assert r1.true_state == r2.true_state
    assert r1.cascade_time == r2.cascade_time


# ---------------------------------------------------------------- private mode

def test_four_state_uniform_prior_cascades_immediately():
    config = ScenarioConfig(
        structure=four_state_cascade(),
        prior=Belief.uniform(4),
        eta=0.5,
        mode="private",
        horizon=500,
        episodes=3,
        seed=9,
    )
    for i in range(config.episodes):
        result = run_private_episode(config, i)
        assert result.cascade_time == 0
        assert np.all(result.price_path == 1.5)
        assert np.all(result.belief_path == 0.25)


def test_price_paths_stay_in_hull_and_freeze_after_cascade():
    config = binary_config(horizon=300, episodes=10)
    for i in range(config.episodes):
        result = run_private_episode(config, i)
        assert result.price_path.min() >= 0.0 - 1e-12
        assert result.price_path.max() <= 1.0 + 1e-12
        assert len(result.price_path) == config.horizon + 1
        if result.cascade_time is not None:
            tail = result.price_path[result.cascade_time:]
            assert np.all(tail == tail[0])


def test_private_initial_price_is_prior_expectation():
    config = binary_config(prior=Belief(np.array([0.3, 0.7])))
    result = run_private_episode(config, 0)
    assert result.price_path[0] == pytest.approx(0.7, abs=1e-12)


def test_true_state_override():
    config = binary_config(true_state=1, episodes=5)
    for i in range(5):
        assert run_private_episode(config, i).true_state == 1


def test_binary_private_learns_at_moderate_horizon():
    config = binary_config(horizon=2000, episodes=40, seed=77)
    summary = run_monte_carlo(config)
    assert summary.learned_fraction >= 0.9


# ---------------------------------------------------------------- batched kernel

def _assert_batch_matches_single_episodes(config):
    """run_episodes steps all episodes together; each must equal the batch
    of one that the mode's single-episode entry point runs, bit for bit."""
    batch = run_episodes(config)
    np.testing.assert_array_equal(batch.episode, np.arange(config.episodes))
    for result in batch:
        # the rows are views of the kernel's arrays, not copies
        assert np.shares_memory(batch.belief_path, result.belief_path)
        single = RUN_EPISODE[config.mode](config, result.episode)
        assert (result.mode, result.true_state) == (single.mode, single.true_state)
        np.testing.assert_array_equal(result.price_path, single.price_path)
        np.testing.assert_array_equal(result.belief_path, single.belief_path)
        assert result.cascade_time == single.cascade_time
        assert result.final_belief_on_truth == single.final_belief_on_truth
    return batch


# Public runs of 1-3 periods hold rows with no informed period beside rows
# informed in every period; at eta 1 no row updates at all.
@pytest.mark.parametrize("mode, horizon, eta", [
    ("private", 600, 0.5), ("public", 600, 0.5),
    ("public", 1, 0.5), ("public", 2, 0.5), ("public", 3, 0.5), ("public", 600, 1.0),
], ids=["private", "public", "public-h1", "public-h2", "public-h3", "public-eta1"])
@pytest.mark.parametrize("preset", [binary_symmetric, three_state_informative, four_state_cascade])
def test_batch_matches_single_episodes_on_presets(preset, mode, horizon, eta):
    structure = preset()
    config = ScenarioConfig(structure=structure, prior=Belief.uniform(structure.n_states), eta=eta,
                            mode=mode, horizon=horizon, episodes=12, seed=21)
    if horizon <= 3:
        counts = {int(draw_episode(config, i)[1].sum()) for i in range(config.episodes)}
        assert {0, horizon} <= counts
    _assert_batch_matches_single_episodes(config)


@pytest.mark.parametrize("mode", ["private", "public"])
def test_batch_matches_single_episodes_on_random_structures(mode):
    rng = np.random.default_rng(808)
    cascade_times = []
    for _ in range(30):
        structure = random_structure(rng)
        config = ScenarioConfig(structure=structure, prior=random_belief(rng, structure.n_states),
                                eta=float(rng.uniform(0.05, 0.95)), mode=mode,
                                horizon=60, episodes=6, seed=int(rng.integers(1000)))
        cascade_times += [r.cascade_time for r in _assert_batch_matches_single_episodes(config)]
    # the horizon is short enough that some private rows never freeze and
    # some freeze mid-run; public rows never freeze
    assert None in cascade_times
    if mode == "private":
        assert any(t is not None and t > 0 for t in cascade_times)
    else:
        assert set(cascade_times) == {None}


@pytest.mark.parametrize("mode", ["private", "public"])
def test_batch_matches_single_episodes_with_a_fixed_true_state(mode):
    config = ScenarioConfig(structure=three_state_informative(), prior=Belief(np.array([0.5, 0.3, 0.2])),
                            eta=0.3, mode=mode, horizon=400, episodes=8, seed=5, true_state=2)
    assert all(r.true_state == 2 for r in _assert_batch_matches_single_episodes(config))


def test_private_batch_matches_single_episodes_when_rows_freeze_inside_one_block(monkeypatch):
    # binary_symmetric keeps its partition until it freezes, so every row
    # steps whole blocks from period 0: the freezes at periods 36, 39 and
    # 40, the horizon, all fall inside the last block, which starts at 32
    solved = []

    def counting(w, values, table, e):
        solved.append(len(w))
        return quote_rows(w, values, table, e)

    monkeypatch.setattr(simulate, "quote_rows", counting)
    config = binary_config(eta=0.3, horizon=40, seed=15)
    results = _assert_batch_matches_single_episodes(config)
    assert [r.cascade_time for r in results] == [40, 39, None, None, 39, None, None, 36]
    blocks = -(-config.horizon // simulate._BLOCK)
    assert (blocks - 1) * simulate._BLOCK == 32
    assert solved[:blocks + 1] == [8] + blocks * [8 * simulate._BLOCK]


@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_private_batch_freezes_at_period_zero_at_degenerate_noise_rates(eta):
    prior = Belief(np.array([0.2, 0.3, 0.5]))
    config = ScenarioConfig(structure=three_state_informative(), prior=prior, eta=eta,
                            mode="private", horizon=50, episodes=4, seed=3)
    for result in _assert_batch_matches_single_episodes(config):
        assert result.cascade_time == 0
        assert np.all(result.price_path == expectation(config.structure.states, prior))
        assert np.all(result.belief_path == prior.weights)


@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_public_batch_matches_single_episodes_at_degenerate_noise_rates(eta):
    prior = Belief(np.array([0.2, 0.3, 0.5]))
    config = ScenarioConfig(structure=three_state_informative(), prior=prior, eta=eta,
                            mode="public", horizon=50, episodes=4, seed=3)
    for result in _assert_batch_matches_single_episodes(config):
        _assert_public_episode_matches_reference(config, result.episode)
        moved = np.any(np.diff(result.belief_path, axis=0) != 0, axis=1)
        # at eta 0 every period reveals a signal, at eta 1 none does
        assert moved.all() if eta == 0.0 else not moved.any()


@pytest.mark.parametrize("mode", ["private", "public"])
def test_batch_rejects_a_belief_with_a_negative_weight(mode):
    # SignalStructure rejects a table with a negative entry, so the table is
    # swapped in after validation to reach the kernel's own belief check
    config = ScenarioConfig(structure=binary_symmetric(), prior=Belief.uniform(2), eta=0.1,
                            mode=mode, horizon=50, episodes=1, seed=1)
    object.__setattr__(config.structure, "likelihood", NEGATIVE_TABLE)
    with pytest.raises(InvalidBelief, match="nonnegative"):
        RUN_EPISODE[mode](config, 0)


# ---------------------------------------------------------------- public mode

def test_public_duplicate_state_ratio_is_invariant_each_step():
    config = ScenarioConfig(
        structure=DUPLICATED_ROWS,
        prior=Belief(np.array([0.2, 0.5, 0.3])),
        eta=0.5,
        mode="public",
        horizon=500,
        episodes=5,
        seed=3,
    )
    prior_ratio = 0.2 / 0.5
    for i in range(config.episodes):
        result = run_public_episode(config, i)
        ratios = result.belief_path[:, 0] / result.belief_path[:, 1]
        assert np.abs(ratios - prior_ratio).max() <= 1e-12


def test_public_pure_noise_keeps_belief_constant():
    config = binary_config(mode="public", eta=1.0, horizon=50)
    result = run_public_episode(config, 0)
    assert np.all(result.belief_path == result.belief_path[0])
    assert np.all(result.price_path == result.price_path[0])


def test_public_mode_learns_four_state_structure():
    config = ScenarioConfig(
        structure=four_state_cascade(),
        prior=Belief.uniform(4),
        eta=0.5,
        mode="public",
        horizon=2000,
        episodes=20,
        seed=21,
    )
    results = run_episodes(config)
    good = sum(1 for r in results if r.final_belief_on_truth > 0.95)
    assert good >= 18


def reference_public_path(config, informative, signals):
    """The prices and beliefs of a public episode with these draws, rebuilt
    from bayes_posterior and expectation."""
    structure, belief = config.structure, config.prior
    prices, beliefs = [expectation(structure.states, belief)], [belief.weights]
    for t in range(len(informative)):
        if informative[t]:
            belief = bayes_posterior(belief, structure, structure.signals.labels[int(signals[t])])
        prices.append(expectation(structure.states, belief))
        beliefs.append(belief.weights)
    return np.array(prices), np.array(beliefs)


# The count-based public kernel against the probability-space loop of
# reference_public_path: across the runs these tests compare, the beliefs
# differed by at most 3.4e-15 and the prices by 5.2e-15.
PUBLIC_BELIEF_TOL, PUBLIC_PRICE_TOL = 4e-15, 6e-15


def _assert_public_episode_matches_reference(config, episode_index):
    """run_public_episode against the scalar loop on the draws of the
    documented contract; a noise period repeats the belief and price before
    it exactly."""
    true_state, informative, signals, _ = draw_episode(config, episode_index)
    prices, beliefs = reference_public_path(config, informative, signals)
    result = run_public_episode(config, episode_index)
    assert result.true_state == true_state
    np.testing.assert_allclose(result.price_path, prices, rtol=0, atol=PUBLIC_PRICE_TOL)
    np.testing.assert_allclose(result.belief_path, beliefs, rtol=0, atol=PUBLIC_BELIEF_TOL)
    quiet = np.flatnonzero(~informative)
    assert np.all(result.belief_path[quiet + 1] == result.belief_path[quiet])
    assert np.all(result.price_path[quiet + 1] == result.price_path[quiet])
    assert result.cascade_time is None
    assert result.final_belief_on_truth == result.belief_path[-1, true_state]


@pytest.mark.parametrize("preset", [binary_symmetric, three_state_informative, four_state_cascade])
def test_public_episode_matches_scalar_reference_on_presets(preset):
    structure = preset()
    config = ScenarioConfig(structure=structure, prior=Belief.uniform(structure.n_states), eta=0.5,
                            mode="public", horizon=400, episodes=3, seed=21)
    for i in range(config.episodes):
        _assert_public_episode_matches_reference(config, i)


def test_public_episode_matches_scalar_reference_on_duplicated_states():
    config = ScenarioConfig(structure=DUPLICATED_ROWS, prior=Belief(np.array([0.2, 0.5, 0.3])),
                            eta=0.5, mode="public", horizon=600, episodes=4, seed=502)
    for i in range(config.episodes):
        _assert_public_episode_matches_reference(config, i)


def test_public_episode_matches_scalar_reference_on_random_structures():
    rng = np.random.default_rng(2025)
    for _ in range(30):
        structure = random_structure(rng)
        config = ScenarioConfig(structure=structure, prior=random_belief(rng, structure.n_states),
                                eta=float(rng.uniform(0.05, 0.95)), mode="public",
                                horizon=300, episodes=2, seed=int(rng.integers(1000)))
        for i in range(config.episodes):
            _assert_public_episode_matches_reference(config, i)


PUBLIC_EDGES = {"horizon_one": dict(horizon=1, episodes=12), "fixed_true_state": dict(true_state=2)}


@pytest.mark.parametrize("edge", PUBLIC_EDGES)
def test_public_kernel_edges_match_reference_and_single_episodes(edge):
    config = ScenarioConfig(**{**dict(structure=three_state_informative(), prior=Belief(np.array([0.5, 0.3, 0.2])),
                                      eta=0.4, mode="public", horizon=80, episodes=6, seed=17),
                               **PUBLIC_EDGES[edge]})
    for result in _assert_batch_matches_single_episodes(config):
        _assert_public_episode_matches_reference(config, result.episode)


def test_public_rows_with_tied_and_empty_informed_counts_match_reference():
    config = binary_config(mode="public", eta=0.8, horizon=16, episodes=12, seed=7)
    results = _assert_batch_matches_single_episodes(config)
    # every informed period moves a binary_symmetric belief, so the moves
    # count the informed periods: a row with none sits between busy rows,
    # and several rows tie
    moves = [int(np.any(np.diff(r.belief_path, axis=0) != 0, axis=1).sum()) for r in results]
    assert moves[3:6] == [7, 0, 5] and moves.count(3) >= 2
    for result in results:
        _assert_public_episode_matches_reference(config, result.episode)


@pytest.mark.parametrize("horizon", [1, 250])
@pytest.mark.parametrize("eta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("true_state", [None, 1])
@pytest.mark.parametrize("preset", [binary_symmetric, three_state_informative, four_state_cascade])
def test_draws_match_the_choice_draws_bit_for_bit(preset, true_state, eta, horizon):
    structure = preset()
    prior = Belief.from_unnormalized(np.arange(1.0, structure.n_states + 1))
    config = ScenarioConfig(structure=structure, prior=prior, eta=eta, mode="public", horizon=horizon,
                            episodes=16, seed=9, true_state=true_state)
    code = np.empty((config.episodes, horizon), dtype=np.intp)
    drawn = simulate._draw_codes(config, np.arange(config.episodes), code)
    for i in range(config.episodes):
        state, informative, signals, noise_actions = draw_episode(config, i)
        assert drawn[i] == state
        np.testing.assert_array_equal(code[i], np.where(informative, signals, structure.n_signals + noise_actions))
    assert len(set(drawn.tolist())) > 1 if true_state is None else set(drawn.tolist()) == {true_state}


# The public kernel counts signals in blocks of _CELLS episode-periods, but
# of at least 64 periods; at _CELLS 1 a 129-period run splits at periods 64
# and 128 and gives the same run bit for bit as one block, with and without
# paths.  At eta 0 every period reveals a signal; at eta 0.5 noise periods,
# which repeat the belief before them, also straddle block edges.
@pytest.mark.parametrize("horizon", [1, 64, 129])
@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_public_blocks_match_reference_and_each_other(monkeypatch, eta, horizon):
    config = ScenarioConfig(structure=four_state_cascade(), prior=Belief(np.array([0.4, 0.3, 0.2, 0.1])),
                            eta=eta, mode="public", horizon=horizon, episodes=4, seed=11)
    run = _assert_batch_matches_single_episodes(config)
    for result in run:
        _assert_public_episode_matches_reference(config, result.episode)
    assert simulate._CELLS >= config.episodes * (horizon + 1)
    monkeypatch.setattr(simulate, "_CELLS", 1)
    for paths in (True, False):
        blocked = run_episodes(config, paths=paths)
        names = ["final_price", "final_belief"] + (["price_path", "belief_path"] if paths else [])
        for name in names:
            assert getattr(blocked, name).tobytes() == getattr(run, name).tobytes(), name


def test_public_rows_with_no_updates_beside_rows_with_every_update(monkeypatch):
    # at eta 0 every row updates in each of its 129 periods; rows 1 and 4
    # are made all noise after the draws, so they never update
    quiet, draw = [1, 4], simulate._draw_codes

    def with_quiet_rows(config, episodes, code):
        true_state = draw(config, episodes, code)
        code[quiet] = config.structure.n_signals  # the noise action B
        return true_state

    monkeypatch.setattr(simulate, "_draw_codes", with_quiet_rows)
    config = ScenarioConfig(structure=three_state_informative(), prior=Belief(np.array([0.5, 0.3, 0.2])),
                            eta=0.0, mode="public", horizon=129, episodes=6, seed=4)
    run = run_episodes(config)
    for k in range(config.episodes):
        true_state, informative, signals, _ = draw_episode(config, k)
        assert informative.all()
        prices, beliefs = reference_public_path(config, informative & (k not in quiet), signals)
        assert run.true_state[k] == true_state
        np.testing.assert_allclose(run.price_path[k], prices, rtol=0, atol=PUBLIC_PRICE_TOL)
        np.testing.assert_allclose(run.belief_path[k], beliefs, rtol=0, atol=PUBLIC_BELIEF_TOL)
    assert np.all(run.belief_path[quiet] == run.belief_path[quiet, :1])
    np.testing.assert_allclose(run.belief_path[quiet, 0], np.tile(config.prior.weights, (2, 1)), rtol=0,
                               atol=PUBLIC_BELIEF_TOL)


# Tables that SignalStructure rejects: state 0 gives the rare signal "c" a
# negative, a zero or a NaN likelihood.
NONPOSITIVE_TABLES = [np.array([[0.5, 0.51, c], [0.5, 0.49, 0.01]]) for c in (-0.01, 0.0, np.nan)]


@pytest.mark.parametrize("table", NONPOSITIVE_TABLES, ids=["negative", "zero", "nan"])
@pytest.mark.parametrize("eta", [0.0, 0.5])
@pytest.mark.parametrize("mode", ["private", "public"])
def test_public_run_on_a_table_with_a_nonpositive_entry_raises_before_any_log(monkeypatch, mode, eta, table):
    # the table is swapped in after validation, as in
    # test_batch_rejects_a_belief_with_a_negative_weight; one check at
    # _run's door covers both modes and compare_modes, before any draw,
    # Bayes step or log
    structure = SignalStructure(StateSpace(np.array([0.0, 1.0])), SignalSpace(("a", "b", "c")),
                                np.array([[0.5, 0.49, 0.01], [0.5, 0.49, 0.01]]))
    config = ScenarioConfig(structure=structure, prior=Belief.uniform(2), eta=eta, mode=mode,
                            horizon=200, episodes=3, seed=5, true_state=1)
    object.__setattr__(config.structure, "likelihood", table)
    message = (f"likelihood table [[0.5, 0.51, {table[0, 2]}], [0.5, 0.49, 0.01]] has an entry that is not "
               "finite and positive, so beliefs would not stay finite and nonnegative")

    def drawn(*args):
        raise AssertionError("the run drew before it checked the table")

    monkeypatch.setattr(simulate, "_draw_codes", drawn)
    runs = (lambda: run_episodes(config), lambda: run_episodes(config, paths=False),
            lambda: RUN_EPISODE[mode](config, 0), lambda: compare_modes(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in runs:
            with pytest.raises(InvalidBelief) as raised:
                run()
            assert str(raised.value) == message


# A public belief depends only on the prior and the signal counts, so a
# weight that underflows comes back: 2,000 "h" and then 2,000 "l" signals
# on binary_symmetric(0.8) leave exactly the prior.  A probability-space
# loop holds an exact zero from about the 540th "h" on.
def test_public_belief_recovers_from_an_underflowed_weight(monkeypatch):
    def balanced(config, episodes, code):
        code[:, :2000], code[:, 2000:] = 0, 1
        return np.ones(len(episodes), dtype=np.intp)

    monkeypatch.setattr(simulate, "_draw_codes", balanced)
    prior = Belief(np.array([0.3, 0.7]))
    config = ScenarioConfig(structure=binary_symmetric(0.8), prior=prior, eta=0.0, mode="public",
                            horizon=4000, episodes=2, seed=0)
    for paths in (True, False):
        run = run_episodes(config, paths=paths)
        np.testing.assert_array_equal(run.final_belief, np.tile(prior.weights, (2, 1)))
    assert run_episodes(config).belief_path[:, 2000, 1].max() == 0.0


# The duplicated-state table at 33x the benchmark's horizon, true state 2:
# the weights of the duplicated states underflow, and neither turns a
# belief into NaN nor, while both are normal, breaks their prior ratio.
def test_public_beliefs_stay_finite_and_keep_the_duplicated_ratio_at_long_horizons():
    prior = Belief(np.array([0.2, 0.5, 0.3]))
    config = ScenarioConfig(structure=DUPLICATED_ROWS, prior=prior, eta=0.5, mode="public", horizon=100_000,
                            episodes=3, seed=502, true_state=2)
    beliefs = run_episodes(config).belief_path
    assert np.isfinite(beliefs).all()
    assert np.abs(beliefs.sum(axis=2) - 1.0).max() <= PROB_SUM_TOL
    both = (beliefs[..., :2] >= np.finfo(float).tiny).all(axis=2)
    assert not both.all() and both.any()
    ratio = beliefs[..., 0][both] / beliefs[..., 1][both]
    assert np.abs(ratio - 0.2 / 0.5).max() <= 1e-12


# Peak of traced allocations over the bytes of the returned paths.  The
# kernel writes beliefs in place and keeps one byte per period of period
# codes, plus count arrays for one block of _CELLS episode-periods; it
# measured 1.03 (four states, eta 0.5) and 1.05 (two states, eta 0).  A
# dense (episodes, periods, signals) array of counts measured 4.03.
PUBLIC_PEAK_RATIO = 1.25

# Peak of traced allocations per episode-period of a run without paths: the
# one-byte period codes and one episode's draws at a time.  At 50 x 5,000
# it measured 1.84 in both modes on both tables; the paths alone are 24-40.
# Public mode counted each row's signals in a mask and a padded copy until
# it counted them by blocks, and then measured 4.13 and 5.18.
NO_PATH_PEAK_BYTES = {"private": 2.0, "public": 1.85}


def _traced_run(preset, eta, mode, paths):
    """A 50 x 5,000 run and the peak of its traced allocations."""
    structure = preset()
    config = ScenarioConfig(structure=structure, prior=Belief.uniform(structure.n_states), eta=eta,
                            mode=mode, horizon=5000, episodes=50, seed=3)
    run_episodes(config.with_overrides(horizon=10, episodes=2))  # warm up one-time allocations
    tracemalloc.start()
    try:
        results = run_episodes(config, paths=paths)
        return results, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("preset, eta", [(four_state_cascade, 0.5), (binary_symmetric, 0.0)])
def test_public_run_allocates_little_beyond_its_paths(preset, eta):
    results, peak = _traced_run(preset, eta, "public", paths=True)
    paths = sum(r.price_path.nbytes + r.belief_path.nbytes for r in results)
    assert peak <= PUBLIC_PEAK_RATIO * paths, peak / paths


@pytest.mark.parametrize("mode", ["private", "public"])
@pytest.mark.parametrize("preset, eta", [(four_state_cascade, 0.5), (binary_symmetric, 0.0)])
def test_run_without_paths_allocates_a_few_bytes_per_period(preset, eta, mode):
    results, peak = _traced_run(preset, eta, mode, paths=False)
    assert results.price_path is None and results.belief_path is None
    per_period = peak / (50 * 5000)
    assert per_period <= NO_PATH_PEAK_BYTES[mode], per_period


# ---------------------------------------------------------------- runs without paths

@pytest.mark.parametrize("mode", ["private", "public"])
@pytest.mark.parametrize("structure", [binary_symmetric(), three_state_informative(), four_state_cascade(),
                                       DUPLICATED_ROWS], ids=["binary", "three_state", "four_state", "duplicated"])
def test_run_without_paths_has_the_final_columns_of_the_path_run(structure, mode):
    for eta, seed in itertools.product((0.0, 0.5, 1.0), (0, 1, 7)):
        config = ScenarioConfig(structure=structure, prior=Belief.uniform(structure.n_states), eta=eta, mode=mode,
                                horizon=300, episodes=12, seed=seed)
        full, bare = run_episodes(config), run_episodes(config, paths=False)
        assert bare.price_path is None and bare.belief_path is None
        assert full.final_price.tobytes() == full.price_path[:, -1].tobytes()
        assert full.final_belief.tobytes() == full.belief_path[:, -1].tobytes()
        for name in ("final_price", "final_belief", "true_state", "cascade_time"):
            a, b = getattr(full, name), getattr(bare, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (name, eta, seed)


@pytest.mark.parametrize("mode", ["private", "public"])
def test_row_views_of_a_run_without_paths(mode):
    config = binary_config(mode=mode, horizon=120)
    for a, b in zip(run_episodes(config), run_episodes(config, paths=False), strict=True):
        assert b.price_path is None and b.belief_path is None
        assert (b.final_price, b.final_belief_on_truth) == (a.final_price, a.final_belief_on_truth)
        assert (a.final_price, a.final_belief_on_truth) == (a.price_path[-1], a.belief_path[-1, a.true_state])
    # compare_modes runs both kernels without paths on one draw, which each mode's own run repeats
    run = getattr(compare_modes(config), f"{mode}_episodes")
    full = run_episodes(config)
    assert run.price_path is None and run.belief_path is None
    assert run.final_price.tobytes() == full.final_price.tobytes()
    assert run.final_belief.tobytes() == full.final_belief.tobytes()


def _out_of_memory(size):
    raise MemoryError(f"Unable to allocate {8 * size} bytes")


@pytest.mark.parametrize("paths", [False, True])
@pytest.mark.parametrize("mode", ["private", "public"])
def test_run_too_large_to_draw_raises_a_typed_error(monkeypatch, mode, paths):
    # without paths the period codes are the largest array allocated up
    # front, so one episode's draw can be the first allocation that fails
    monkeypatch.setattr(np.random, "default_rng", lambda seed: SimpleNamespace(random=_out_of_memory))
    with pytest.raises(ConfigInvalid, match=r"^a run of 1 episodes x 1000 periods does not fit in memory$"):
        run_episodes(binary_config(mode=mode, episodes=1, horizon=1000), paths=paths)


# ---------------------------------------------------------------- summaries

def test_single_episode_summary_matches_indicators():
    config = binary_config(episodes=1, horizon=400)
    results = run_episodes(config)
    summary = summarize_episodes(results, config)
    r = results[0]
    assert summary.episodes == 1
    assert summary.learned_fraction == float(r.learned(config.convergence_tol))
    assert summary.cascade_fraction == float(r.cascade_time is not None)
    assert summary.mean_abs_price_error == pytest.approx(abs(r.final_price - r.true_value))


@pytest.mark.parametrize("mode", ["private", "public"])
@pytest.mark.parametrize("preset, true_state", [
    (binary_symmetric, None), (three_state_informative, None), (four_state_cascade, None),
    (three_state_informative, 1),  # states 0 and 2 draw no episodes and must not appear in per_state
])
def test_summary_matches_per_episode_reference(preset, true_state, mode):
    structure = preset()
    config = ScenarioConfig(structure=structure, prior=Belief.uniform(structure.n_states), eta=0.5, mode=mode,
                            horizon=300, episodes=40, seed=13, true_state=true_state)
    run = run_episodes(config)
    summary = summarize_episodes(run, config)
    assert summary == reference_summary(run, config)
    if true_state is not None:
        assert [s.state_index for s in summary.per_state] == [true_state]


def test_run_too_large_to_allocate_raises_a_typed_error():
    # 10**18 one-byte period codes are 888 PiB, which no overcommit policy
    # maps, so the failing allocation reserves nothing
    message = r"^a run of 1 episodes x 1000000000000000000 periods does not fit in memory$"
    for mode in ("private", "public"):
        with pytest.raises(ConfigInvalid, match=message):
            run_episodes(binary_config(mode=mode, episodes=1, horizon=10**18))
    with pytest.raises(ConfigInvalid, match=message):
        compare_modes(binary_config(episodes=1, horizon=10**18))


def test_four_state_summary_learned_fraction_is_zero():
    # price pinned at 1.5: no state value is within 0.1 of it
    config = ScenarioConfig(
        structure=four_state_cascade(),
        prior=Belief.uniform(4),
        eta=0.5,
        mode="private",
        horizon=100,
        episodes=20,
        seed=5,
    )
    summary = run_monte_carlo(config)
    assert summary.learned_fraction == 0.0
    assert summary.cascade_fraction == 1.0
    assert summary.mean_abs_price_error >= 0.5


def test_per_state_breakdown_covers_all_episodes():
    config = binary_config(episodes=12, horizon=100)
    summary = run_monte_carlo(config)
    assert sum(s.episodes for s in summary.per_state) == 12
    for s in summary.per_state:
        assert 0.0 <= s.learned_fraction <= 1.0


# ---------------------------------------------------------------- mode comparison

def test_compare_modes_shares_episode_draws(monkeypatch):
    # both kernels run on one draw, so each mode's columns are those of the
    # mode's own run without paths, which draws the same episodes again
    draws, draw = [], simulate._draw_codes

    def counting(config, episodes, code):
        draws.append(len(episodes))
        return draw(config, episodes, code)

    monkeypatch.setattr(simulate, "_draw_codes", counting)
    config = binary_config(episodes=6, horizon=80)
    comparison = compare_modes(config)
    assert draws == [6]
    assert len(comparison.private_episodes) == len(comparison.public_episodes) == 6
    for a, b in zip(comparison.private_episodes, comparison.public_episodes):
        assert (a.mode, b.mode) == ("private", "public")
        assert a.true_state == b.true_state
    assert set(comparison.as_dict()) == {"private", "public", "slack", "nesting_ok"}
    for preset in (binary_symmetric, three_state_informative, four_state_cascade):
        structure = preset()
        config = ScenarioConfig(structure=structure, prior=Belief.uniform(structure.n_states), eta=0.5,
                                mode="private", horizon=300, episodes=24, seed=17)
        del draws[:]
        comparison = compare_modes(config)
        assert draws == [24], preset.__name__
        for mode in ("private", "public"):
            run = getattr(comparison, f"{mode}_episodes")
            own = run_episodes(config.with_overrides(mode=mode), paths=False)
            assert run.mode == own.mode == mode
            for name in ("true_state", "cascade_time", "final_price", "final_belief"):
                a, b = getattr(run, name), getattr(own, name)
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (preset.__name__, mode, name)


@pytest.mark.parametrize("paths", [False, True])
def test_a_two_mode_run_gives_each_mode_its_own_arrays(paths):
    # one draw, but no path or belief array is shared between the modes
    config = binary_config(episodes=6, horizon=80)
    runs = simulate._run(config, range(config.episodes), ("private", "public"), paths)
    for run in runs:
        own = run_episodes(config.with_overrides(mode=run.mode), paths=paths)
        for name in ("true_state", "cascade_time", "final_price", "final_belief", "price_path", "belief_path"):
            a, b = getattr(run, name), getattr(own, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), (run.mode, name)
    for name in ("final_price", "final_belief", "price_path", "belief_path"):
        a, b = (getattr(run, name) for run in runs)
        assert (a is None and b is None) or not np.shares_memory(a, b), name


def test_compare_modes_pure_noise_is_symmetric():
    config = binary_config(eta=1.0, horizon=60, episodes=5)
    comparison = compare_modes(config)
    assert comparison.private.learned_fraction == comparison.public.learned_fraction
    assert comparison.private.mean_abs_price_error == pytest.approx(
        comparison.public.mean_abs_price_error, abs=1e-12
    )
    assert comparison.nesting_ok


def test_compare_modes_four_state_public_dominates():
    config = ScenarioConfig(
        structure=four_state_cascade(),
        prior=Belief.uniform(4),
        eta=0.5,
        mode="private",
        horizon=1500,
        episodes=20,
        seed=13,
        convergence_tol=0.1,
    )
    comparison = compare_modes(config)
    assert comparison.private.learned_fraction == 0.0
    assert comparison.public.learned_fraction >= 0.8
    assert comparison.nesting_ok


def test_three_state_private_learning_small_sample():
    config = ScenarioConfig(
        structure=three_state_informative(),
        prior=Belief.uniform(3),
        eta=0.5,
        mode="private",
        horizon=2500,
        episodes=25,
        seed=19,
    )
    summary = run_monte_carlo(config)
    assert summary.learned_fraction >= 0.9
