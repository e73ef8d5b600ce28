from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import market_learn.simulate as simulate
from market_learn.engine import BOUNDARY_BAND, quote_rows, solve_quotes
from market_learn.errors import InvalidBelief, NoConsistentPartition
from market_learn.model import (
    ACTIONS,
    Belief,
    SignalPartition,
    SignalSpace,
    SignalStructure,
    StateSpace,
    _raise_where,
    expectation,
    posterior_values,
)
from market_learn.presets import binary_symmetric, four_state_cascade, three_state_informative
from market_learn.scenario import load_scenario
from market_learn.simulate import ScenarioConfig, run_episodes, run_private_episode
from market_learn.verify import random_belief, random_structure
from reference import action_likelihood_vector, quote_core, reference_quotes, update_public_belief_on_action

SHIPPED_SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def enumeration_oracle(belief, structure, eta, band=BOUNDARY_BAND):
    """Independent reference: enumerate every subset as a candidate buy (and
    sell) set, solve the zero-profit equation for the quote as a linear
    equation, keep consistent subsets, and pick the lowest ask / highest bid.
    """
    w = belief.weights
    values = structure.states.values
    exp_val = float(values @ w)
    f_sig = w @ structure.likelihood
    v = ((values * w) @ structure.likelihood) / f_sig
    noise, informed = eta / 3.0, 1.0 - eta
    m = structure.n_signals

    best_ask, best_bid = None, None
    for mask in range(2 ** m):
        sel = [j for j in range(m) if mask >> j & 1]
        rest = [j for j in range(m) if not mask >> j & 1]
        # zero profit: noise*(q - E) = informed * sum_sel (v_s - q) f(s|H)
        mass = f_sig[sel].sum()
        payoff = float((v[sel] * f_sig[sel]).sum())
        q = (noise * exp_val + informed * payoff) / (noise + informed * mass)
        if all(v[j] - q > band for j in sel) and all(v[j] - q <= band for j in rest):
            if best_ask is None or q < best_ask[0]:
                best_ask = (q, tuple(sorted(sel)))
        if all(q - v[j] > band for j in sel) and all(q - v[j] <= band for j in rest):
            if best_bid is None or q > best_bid[0]:
                best_bid = (q, tuple(sorted(sel)))
    return best_ask, best_bid


def zero_profit_residual(belief, structure, eta, quote, signal_set):
    w = belief.weights
    values = structure.states.values
    exp_val = float(values @ w)
    f_sig = w @ structure.likelihood
    v = ((values * w) @ structure.likelihood) / f_sig
    informed_leg = sum((v[j] - quote) * f_sig[j] for j in signal_set)
    return (eta / 3.0) * (quote - exp_val) - (1.0 - eta) * informed_leg


# ---------------------------------------------------------------- decision rule

def test_informative_action_strict_inequalities():
    # informed traders buy strictly above the ask, sell strictly below the
    # bid and otherwise abstain; the partition solve_quotes returns encodes
    # exactly that rule
    structure = three_state_informative()
    quotes, partition = solve_quotes(Belief.uniform(3), structure, 0.5)
    values = posterior_values(Belief.uniform(3), structure)
    assert values[1] == pytest.approx(1.0, abs=1e-12)  # "m" leaves the expectation unchanged
    assert partition.assignment(structure.signals) == {"l": "S", "m": "NT", "h": "B"}
    assert values[0] < quotes.bid < values[1] < quotes.ask < values[2]

    rng = np.random.default_rng(4)
    for _ in range(100):
        structure = random_structure(rng)
        belief = random_belief(rng, structure.n_states)
        quotes, partition = solve_quotes(belief, structure, float(rng.uniform(0.05, 0.95)))
        values = posterior_values(belief, structure)
        assert all(values[j] > quotes.ask for j in partition.buy)
        assert all(values[j] < quotes.bid for j in partition.sell)
        for j in partition.no_trade:
            assert quotes.bid - BOUNDARY_BAND <= values[j] <= quotes.ask + BOUNDARY_BAND


# ---------------------------------------------------------------- quote solving

def test_binary_quotes_match_hand_solution():
    # enumeration over buy sets gives S^B={h} with ask = E[w|B] = 0.68 and
    # the mirror sell side at 0.32 (values are exact rationals: 24/75 etc.)
    structure = binary_symmetric(0.8)
    quotes, partition = solve_quotes(Belief.uniform(2), structure, 0.5)
    assert quotes.ask == pytest.approx(0.68, abs=1e-12)
    assert quotes.bid == pytest.approx(0.32, abs=1e-12)
    assert partition.assignment(structure.signals) == {"h": "B", "l": "S"}
    assert not partition.all_no_trade


def test_four_state_uniform_collapses_to_no_trade():
    structure = four_state_cascade()
    quotes, partition = solve_quotes(Belief.uniform(4), structure, 0.5)
    assert quotes.ask == pytest.approx(1.5, abs=1e-12)
    assert quotes.bid == pytest.approx(1.5, abs=1e-12)
    assert partition.all_no_trade


def test_quotes_pure_noise_collapse_to_expectation():
    structure = binary_symmetric(0.8)
    prior = Belief(np.array([0.3, 0.7]))
    quotes, partition = solve_quotes(prior, structure, 1.0)
    assert quotes.bid == quotes.ask == pytest.approx(0.7, abs=1e-12)
    assert partition.all_no_trade


def test_quotes_no_noise_shut_the_market():
    # without noise traders no nonempty side can break even; quotes move to
    # the extreme conditional values and nothing trades
    structure = binary_symmetric(0.8)
    quotes, partition = solve_quotes(Belief.uniform(2), structure, 0.0)
    assert partition.all_no_trade
    values = posterior_values(Belief.uniform(2), structure)
    assert quotes.ask == pytest.approx(values.max(), abs=1e-12)
    assert quotes.bid == pytest.approx(values.min(), abs=1e-12)


def test_zero_profit_residual_binary():
    structure = binary_symmetric(0.8)
    quotes, partition = solve_quotes(Belief.uniform(2), structure, 0.5)
    assert abs(zero_profit_residual(Belief.uniform(2), structure, 0.5, quotes.ask, partition.buy)) < 1e-12
    assert abs(zero_profit_residual(Belief.uniform(2), structure, 0.5, quotes.bid, partition.sell)) < 1e-12


def test_solver_matches_enumeration_oracle_on_random_scenarios():
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        rows = np.maximum(rng.dirichlet(np.ones(m), size=n), 1e-3)
        rows /= rows.sum(axis=1, keepdims=True)
        structure = SignalStructure(
            StateSpace(np.sort(rng.uniform(0, 3, size=n)) + np.arange(n) * 1e-6),
            SignalSpace(tuple(f"s{j}" for j in range(m))),
            rows,
        )
        belief = Belief.from_unnormalized(rng.dirichlet(np.ones(n)) + 1e-3)
        eta = float(rng.uniform(0.05, 0.95))
        quotes, partition = solve_quotes(belief, structure, eta)
        (oracle_ask, oracle_buy), (oracle_bid, oracle_sell) = enumeration_oracle(belief, structure, eta)
        assert tuple(sorted(partition.buy)) == oracle_buy
        assert tuple(sorted(partition.sell)) == oracle_sell
        assert quotes.ask == pytest.approx(oracle_ask, abs=1e-10)
        assert quotes.bid == pytest.approx(oracle_bid, abs=1e-10)
        assert abs(zero_profit_residual(belief, structure, eta, quotes.ask, partition.buy)) < 1e-10
        assert abs(zero_profit_residual(belief, structure, eta, quotes.bid, partition.sell)) < 1e-10


def test_price_bracket_and_strictness():
    rng = np.random.default_rng(6)
    structure = four_state_cascade()
    for _ in range(50):
        belief = Belief.from_unnormalized(rng.dirichlet(np.ones(4)) + 1e-3)
        eta = float(rng.uniform(0.05, 0.95))
        quotes, partition = solve_quotes(belief, structure, eta)
        exp_val = expectation(structure.states, belief)
        assert quotes.bid <= exp_val + 1e-12
        assert exp_val <= quotes.ask + 1e-12
        if partition.buy and partition.sell:
            assert quotes.bid < exp_val < quotes.ask


def test_resolving_is_bit_identical():
    structure = binary_symmetric(0.8)
    belief = Belief(np.array([0.37, 0.63]))
    q1, p1 = solve_quotes(belief, structure, 0.4)
    q2, p2 = solve_quotes(belief, structure, 0.4)
    assert (q1.bid, q1.ask) == (q2.bid, q2.ask)
    assert p1.buy == p2.buy and p1.sell == p2.sell


def test_quote_rows_match_quote_core_row_by_row():
    # the batched solver against the scalar oracle, bit for bit, on interior
    # beliefs and on near-vertex ones where the band decides the partition,
    # at an interior noise rate and at the closed-form ends eta 0 and 1, and
    # solve_quotes, which is the batched solver on one row, likewise; then
    # the same rows in stacked calls, each row with its own values, table and
    # interior noise rate: one call per (n, m) shape over all 40 structures,
    # and one per shape at each shared end rate
    rng = np.random.default_rng(404)
    stacks = {}
    for _ in range(40):
        structure = random_structure(rng)
        n, eta = structure.n_states, float(rng.uniform(0.05, 0.95))
        w = np.array([random_belief(rng, n).weights for _ in range(12)])
        w[:4] = np.eye(n)[rng.integers(n, size=4)] + 1e-9 * rng.random((4, n))
        w[:4] /= w[:4].sum(axis=1, keepdims=True)
        for e in (eta, 0.0, 1.0):
            bid, ask, buy, sell, like = quote_rows(w, structure.states.values, structure.likelihood, e)
            stacks.setdefault((structure.likelihood.shape, e if e in (0.0, 1.0) else None), []).extend(
                (w[r], structure.states.values, structure.likelihood, e, (bid[r], ask[r], buy[r], sell[r], like[r]))
                for r in range(len(w)))
            for r in range(len(w)):
                b, a, buy_r, sell_r = quote_core(w[r], structure, e)
                assert (bid[r], ask[r]) == (b, a)
                np.testing.assert_array_equal(np.flatnonzero(buy[r]), np.sort(buy_r))
                np.testing.assert_array_equal(np.flatnonzero(sell[r]), np.sort(sell_r))
                quotes, shipped = solve_quotes(Belief(w[r]), structure, e)
                assert (quotes.bid, quotes.ask) == (b, a)
                # the oracle's sets, listed in ascending index order
                assert shipped.buy == tuple(sorted(buy_r.tolist()))
                assert shipped.sell == tuple(sorted(sell_r.tolist()))
                partition = SignalPartition(structure.n_signals, buy=buy_r, sell=sell_r)
                for k, action in enumerate(ACTIONS):
                    np.testing.assert_array_equal(like[r, k],
                                                  action_likelihood_vector(structure, partition, e, action))
    for (_, end_rate), rows in stacks.items():
        w, values, table, e = (np.array([row[k] for row in rows]) for k in range(4))
        stacked = quote_rows(w, values, table, e if end_rate is None else end_rate)
        for r, row in enumerate(rows):
            for got, want in zip(stacked, row[4]):
                np.testing.assert_array_equal(got[r], want)


def test_quote_rows_reject_per_row_rates_at_the_ends():
    # the closed forms at eta 0 and 1 take one shared rate; a per-row
    # rate there would fall through to the prefix scan and mis-solve
    structure = binary_symmetric(0.8)
    w = np.array([[0.5, 0.5], [0.3, 0.7]])
    for e in ([0.0, 0.5], [0.5, 1.0], [0.5, np.nan]):
        with pytest.raises(InvalidBelief, match="per-row noise rate"):
            quote_rows(w, structure.states.values, structure.likelihood, np.array(e))


@pytest.mark.xfail(strict=True, reason="quote band fault: the prefix scan tests a signal against the "
                                       "quote before it joins, not the quote it returns")
def test_quote_members_clear_the_band_on_stepped_beliefs():
    # The band rule: every buy member's conditional value exceeds the ask,
    # and every sell member's falls short of the bid, by more than the band.
    # The first 10 episodes of the shipped three_state_informative scenario
    # step 5,156 beliefs; 207 break the rule near a vertex, the first at
    # episode 0, period 319, with v - ask = 8.6e-10.
    config = load_scenario(SHIPPED_SCENARIOS / "three_state_informative.json").with_overrides(episodes=10)
    structure = config.structure
    w = np.concatenate([result.belief_path[:result.cascade_time] for result in run_episodes(config)])
    bid, ask, buy, sell, _ = quote_rows(w, structure.states.values, structure.likelihood, config.eta)
    v = ((structure.states.values * w) @ structure.likelihood) / (w @ structure.likelihood)
    assert not (buy & (v - ask[:, None] <= BOUNDARY_BAND)).any()
    assert not (sell & (bid[:, None] - v <= BOUNDARY_BAND)).any()


# ---------------------------------------------------------------- stepping

State = namedtuple("State", "belief quotes partition")


def solved(belief, structure, eta):
    """A belief with the quotes and partition the scalar quote oracle gives it."""
    return State(belief, *reference_quotes(belief, structure, eta))


def reference_step(state, structure, eta, action, price):
    """One period from the scalar pieces: the trade prints at the ask on a
    buy, at the bid on a sell and at the previous price otherwise; then the
    public belief updates on the action and the quotes are solved afresh."""
    price = {"B": state.quotes.ask, "S": state.quotes.bid, "NT": price}[action]
    belief = update_public_belief_on_action(state.belief, structure, state.partition, eta, action)
    return solved(belief, structure, eta), price


def reference_episode(config, episode_index):
    """run_private_episode rebuilt from the scalar quote oracle, the Bayes
    update on actions and the price rule, with the draws of the documented
    contract."""
    structure = config.structure
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, episode_index)))
    if config.true_state is None:
        true_state = int(rng.choice(structure.n_states, p=config.prior.weights))
    else:
        true_state = config.true_state
    informative = rng.random(config.horizon) >= config.eta
    signals = rng.choice(structure.n_signals, size=config.horizon, p=structure.likelihood[true_state])
    noise_actions = rng.integers(0, 3, size=config.horizon)

    state = solved(config.prior, structure, config.eta)
    price = expectation(structure.states, config.prior)
    prices, beliefs = [price], [state.belief.weights]
    cascade_time = 0 if state.partition.all_no_trade else None
    for t in range(config.horizon):
        if cascade_time is None:
            if informative[t]:
                action = state.partition.action_of_index(int(signals[t]))
            else:
                action = ACTIONS[int(noise_actions[t])]
            state, price = reference_step(state, structure, config.eta, action, price)
            if state.partition.all_no_trade:
                cascade_time = t + 1
        prices.append(price)
        beliefs.append(state.belief.weights)
    return true_state, np.array(prices), np.array(beliefs), cascade_time


def test_step_on_buy_binary_example():
    structure = binary_symmetric(0.8)
    state = solved(Belief.uniform(2), structure, 0.5)
    next_state, price = reference_step(state, structure, 0.5, "B", expectation(structure.states, state.belief))
    assert price == pytest.approx(0.68, abs=1e-12)
    np.testing.assert_allclose(next_state.belief.weights, [0.32, 0.68], atol=1e-12)


def test_step_no_trade_with_empty_no_trade_set_is_inert():
    structure = binary_symmetric(0.8)
    state = solved(Belief.uniform(2), structure, 0.5)
    assert state.partition.no_trade == ()
    next_state, price = reference_step(state, structure, 0.5, "NT", 0.5)
    assert price == 0.5
    np.testing.assert_allclose(next_state.belief.weights, state.belief.weights, atol=1e-15)
    assert next_state.quotes.ask == pytest.approx(state.quotes.ask, abs=1e-12)
    assert next_state.quotes.bid == pytest.approx(state.quotes.bid, abs=1e-12)


def test_step_in_cascade_state_changes_nothing():
    structure = four_state_cascade()
    state = solved(Belief.uniform(4), structure, 0.5)
    for action in ("B", "S", "NT"):
        stepped, price = reference_step(state, structure, 0.5, action, 1.5)
        np.testing.assert_allclose(stepped.belief.weights, 0.25, atol=1e-14)
        assert stepped.quotes.ask == pytest.approx(1.5, abs=1e-12)
        assert price == pytest.approx(1.5, abs=1e-12)
        assert stepped.partition.all_no_trade


def test_transaction_price_rules():
    structure = binary_symmetric(0.8)
    state = solved(Belief(np.array([0.4, 0.6])), structure, 0.5)
    assert state.quotes.bid < state.quotes.ask
    for action, expected in (("B", state.quotes.ask), ("S", state.quotes.bid), ("NT", 0.55)):
        _, price = reference_step(state, structure, 0.5, action, 0.55)
        assert price == expected


def _assert_episode_matches_reference(config, result):
    true_state, prices, beliefs, cascade_time = reference_episode(config, result.episode)
    assert result.true_state == true_state
    np.testing.assert_array_equal(result.price_path, prices)
    np.testing.assert_array_equal(result.belief_path, beliefs)
    assert result.cascade_time == cascade_time
    assert result.final_belief_on_truth == beliefs[-1][true_state]


@pytest.mark.parametrize("preset", [binary_symmetric, three_state_informative, four_state_cascade])
def test_private_episode_matches_scalar_reference_on_presets(preset):
    structure = preset()
    config = ScenarioConfig(structure=structure, prior=Belief.uniform(structure.n_states), eta=0.5,
                            mode="private", horizon=400, episodes=3, seed=21)
    for i in range(config.episodes):
        _assert_episode_matches_reference(config, run_private_episode(config, i))


def test_private_episode_matches_scalar_reference_on_random_structures():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        structure = random_structure(rng)
        config = ScenarioConfig(structure=structure, prior=random_belief(rng, structure.n_states),
                                eta=float(rng.uniform(0.05, 0.95)), mode="private",
                                horizon=300, episodes=2, seed=int(rng.integers(1000)))
        # one batch per structure; batch == single is pinned in test_simulation
        for result in run_episodes(config):
            _assert_episode_matches_reference(config, result)


# Horizons on either side of one and two private-kernel blocks, plus one
# period and 40 periods.
BLOCK_HORIZONS = sorted({1, 40} | {j * simulate._BLOCK + d for j in (1, 2) for d in (-1, 0, 1)})


@pytest.mark.parametrize("horizon", BLOCK_HORIZONS)
@pytest.mark.parametrize("preset, eta, true_state", [
    (three_state_informative, 0.0, None), (three_state_informative, 1.0, None),
    (three_state_informative, 0.3, 2), (binary_symmetric, 0.3, None)])
def test_private_episode_matches_scalar_reference_at_block_edges(horizon, preset, eta, true_state):
    # binary_symmetric at eta 0.3 freezes rows within 40 periods, some of
    # them at the horizon; eta 0 and 1 freeze every row at period 0
    structure = preset()
    config = ScenarioConfig(structure=structure, prior=Belief.uniform(structure.n_states), eta=eta, mode="private",
                            horizon=horizon, episodes=8, seed=15, true_state=true_state)
    for result in run_episodes(config):
        _assert_episode_matches_reference(config, result)


def test_private_blocks_step_again_period_by_period_when_a_block_raises(monkeypatch):
    # A block also solves beliefs the period loop never reaches: those past
    # a row's first partition change, its freeze or its horizon.  A quote
    # solver that fails on every such belief must leave the run unchanged,
    # and one that fails on a belief the loop does reach must surface,
    # naming that belief.
    config = ScenarioConfig(structure=binary_symmetric(), prior=Belief.uniform(2), eta=0.3, mode="private",
                            horizon=40, episodes=8, seed=15)
    reached = {w.tobytes() for i in range(config.episodes) for w in reference_episode(config, i)[2]}
    failed = []

    def fails_off_the_path(w, values, table, e):
        off = np.array([row.tobytes() not in reached for row in w])
        failed.append(int(off.sum()))
        _raise_where(off, NoConsistentPartition, "off the period loop's path", w)
        return quote_rows(w, values, table, e)

    monkeypatch.setattr(simulate, "quote_rows", fails_off_the_path)
    for result in run_episodes(config):
        _assert_episode_matches_reference(config, result)
    assert sum(failed) > 0
    target = reference_episode(config, 0)[2][20]  # episode 0 trades until period 40
    reached.discard(target.tobytes())
    with pytest.raises(NoConsistentPartition, match="off the period loop's path") as raised:
        run_private_episode(config, 0)
    assert repr(target) in str(raised.value)


def test_one_step_price_martingale_on_random_states():
    # sum_a P(a|H) E[w|a,H] must equal E[w|H]; E[w|a,H] taken from the
    # stepped beliefs so the identity is the plain tower property
    rng = np.random.default_rng(11)
    structure = four_state_cascade()

    for _ in range(50):
        belief = Belief.from_unnormalized(rng.dirichlet(np.ones(4)) + 1e-3)
        eta = float(rng.uniform(0.05, 0.95))
        _, partition = solve_quotes(belief, structure, eta)
        exp_val = expectation(structure.states, belief)
        mixed = 0.0
        for action in ACTIONS:
            like = action_likelihood_vector(structure, partition, eta, action)
            prob = float(belief.weights @ like)
            stepped = update_public_belief_on_action(belief, structure, partition, eta, action)
            mixed += prob * expectation(structure.states, stepped)
        assert mixed == pytest.approx(exp_val, abs=1e-10)


def test_directional_quotes_binary():
    structure = binary_symmetric(0.8)
    quotes, _ = solve_quotes(Belief.uniform(2), structure, 0.5)
    assert quotes.bid < 0.5 < quotes.ask
