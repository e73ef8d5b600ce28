"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here; Monte Carlo criteria are finite-horizon
statistical surrogates with the thresholds stated inline, everything else is
exact up to floating point.
"""

import itertools
import time
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np
import pytest

from market_learn.conditions import (
    azc_audit,
    find_cascade_beliefs,
    is_mlrp,
    is_pairwise_informative,
)
from market_learn.engine import solve_quotes
from market_learn.model import (
    Belief,
    SignalSpace,
    SignalStructure,
    StateSpace,
    expectation,
    posterior_values,
)
from market_learn.presets import four_state_cascade, three_state_informative
from market_learn.simulate import (
    ScenarioConfig,
    run_episodes,
    run_monte_carlo,
    run_private_episode,
)
from market_learn.verify import random_structure, run_martingale_suite
from reference import bayes_posterior, random_mlrp_structure


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description} ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} runtime {elapsed:.2f}s exceeded the {budget_seconds}s budget"
    )
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s)")


def make_structure(states, rows, labels=None):
    rows = np.asarray(rows, dtype=float)
    labels = tuple(labels) if labels else tuple(f"s{j+1}" for j in range(rows.shape[1]))
    return SignalStructure(StateSpace(np.asarray(states, dtype=float)), SignalSpace(labels), rows)


def test_criterion_1_four_state_exact_reproduction():
    with criterion(1, "four-state example: exact posteriors, cascade, flat price path", 1.0):
        structure = four_state_cascade()
        uniform = Belief.uniform(4)

        expected_posteriors = {
            "s1": (0.3, 0.1, 0.4, 0.2),
            "s2": (0.2, 0.4, 0.1, 0.3),
            "s3": (0.2, 0.3, 0.3, 0.2),
            "s4": (0.3, 0.2, 0.2, 0.3),
        }
        for label, expected in expected_posteriors.items():
            post = bayes_posterior(uniform, structure, label)
            np.testing.assert_allclose(post.weights, expected, atol=1e-12)
            assert expectation(structure.states, post) == pytest.approx(1.5, abs=1e-12)
        assert expectation(structure.states, uniform) == pytest.approx(1.5, abs=1e-12)

        _, partition = solve_quotes(uniform, structure, 0.5)
        assert partition.all_no_trade

        for seed, horizon in ((0, 50), (123, 400), (9999, 1500)):
            config = ScenarioConfig(
                structure=structure, prior=uniform, eta=0.5, mode="private",
                horizon=horizon, episodes=1, seed=seed,
            )
            result = run_private_episode(config, 0)
            assert result.cascade_time == 0
            assert np.all(result.price_path == 1.5)


def test_criterion_2_condition_checker_verdicts():
    with criterion(2, "four-state verdicts: PI, strict-MLRP witness, movement audit", 1.0):
        structure = four_state_cascade()

        assert is_pairwise_informative(structure).holds

        report = is_mlrp(structure, strict=True)
        assert not report.holds
        np.testing.assert_allclose(sorted(report.witness["products"]), (0.01, 0.16), atol=1e-12)
        # agreement with an independent quadruple enumeration, including the
        # worst-margin witness
        table = structure.likelihood.tolist()
        worst = None
        for (iL, iH) in itertools.combinations(range(4), 2):
            for (jL, jH) in itertools.combinations(range(4), 2):
                margin = table[iL][jL] * table[iH][jH] - table[iH][jL] * table[iL][jH]
                if worst is None or margin < worst[0]:
                    worst = (margin, iL, iH, jL, jH)
        assert worst[0] < 0
        _, iL, iH, jL, jH = worst
        assert report.witness["states"] == (float(structure.states.values[iL]),
                                            float(structure.states.values[iH]))
        assert report.witness["signals"] == (structure.signals.labels[jL],
                                             structure.signals.labels[jH])

        audit = azc_audit(structure, delta=0.1)
        assert audit.verdict == "fail"
        assert audit.min_max_movement <= 1e-9
        np.testing.assert_allclose(audit.worst_belief.weights, 0.25, atol=1e-6)


def test_criterion_3_quote_solver_oracle_equivalence():
    with criterion(3, "quote solver vs exhaustive buy/sell-set enumeration on 200 scenarios", 30.0):
        from market_learn.engine import BOUNDARY_BAND

        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 6))
            rows = np.maximum(rng.dirichlet(np.ones(m), size=n), 1e-3)
            rows /= rows.sum(axis=1, keepdims=True)
            values = np.sort(rng.uniform(0.0, 3.0, size=n))
            while np.any(np.diff(values) <= 0):
                values = np.sort(rng.uniform(0.0, 3.0, size=n))
            structure = make_structure(values, rows)
            belief = Belief.from_unnormalized(rng.dirichlet(np.ones(n)) + 1e-3)
            eta = float(rng.uniform(0.05, 0.95))

            quotes, partition = solve_quotes(belief, structure, eta)

            # oracle: enumerate all 2^m candidate sets per side, solve the
            # zero-profit equation linearly, filter by consistency, pick the
            # lowest ask / highest bid
            w = belief.weights
            exp_val = float(values @ w)
            f_sig = w @ rows
            v = ((values * w) @ rows) / f_sig
            noise, informed = eta / 3.0, 1.0 - eta
            best_ask, best_bid = None, None
            for mask in range(2 ** m):
                sel = [j for j in range(m) if mask >> j & 1]
                rest = [j for j in range(m) if not mask >> j & 1]
                mass = f_sig[sel].sum()
                payoff = float((v[sel] * f_sig[sel]).sum())
                q = (noise * exp_val + informed * payoff) / (noise + informed * mass)
                if all(v[j] - q > BOUNDARY_BAND for j in sel) and all(
                    v[j] - q <= BOUNDARY_BAND for j in rest
                ):
                    if best_ask is None or q < best_ask[0]:
                        best_ask = (q, tuple(sorted(sel)))
                if all(q - v[j] > BOUNDARY_BAND for j in sel) and all(
                    q - v[j] <= BOUNDARY_BAND for j in rest
                ):
                    if best_bid is None or q > best_bid[0]:
                        best_bid = (q, tuple(sorted(sel)))

            assert best_ask is not None and best_bid is not None, f"trial {trial}"
            assert tuple(sorted(partition.buy)) == best_ask[1], f"trial {trial}"
            assert tuple(sorted(partition.sell)) == best_bid[1], f"trial {trial}"
            assert abs(quotes.ask - best_ask[0]) <= 1e-10
            assert abs(quotes.bid - best_bid[0]) <= 1e-10

            # zero-profit residuals of the solver's quotes
            for quote, side in ((quotes.ask, partition.buy), (quotes.bid, partition.sell)):
                residual = (eta / 3.0) * (quote - exp_val) - (1.0 - eta) * sum(
                    (v[j] - quote) * f_sig[j] for j in side
                )
                assert abs(residual) <= 1e-10


def test_criterion_4_martingale_suite_1000_states():
    with criterion(4, "belief/price/likelihood-ratio martingales + direction checks, 1000 states", 30.0):
        reports = run_martingale_suite(trials=1000, seed=314)
        assert len(reports) == 4
        for report in reports:
            assert report.tolerance == 1e-10
            assert report.passed, report.as_dict()


def test_criterion_5_public_mode_sufficiency_and_necessity():
    with criterion(5, "public mode: learning under PI; duplicate states never separate", 120.0):
        # (a) sufficiency: pairwise informative structure, 300 episodes x 3000
        # periods at eta = 0.5 -> belief on the true state above 0.99 in >= 95%
        config = ScenarioConfig(
            structure=four_state_cascade(),
            prior=Belief.uniform(4),
            eta=0.5,
            mode="public",
            horizon=3000,
            episodes=300,
            seed=501,
        )
        results = run_episodes(config)
        confident = sum(1 for r in results if r.final_belief_on_truth > 0.99)
        assert confident >= 0.95 * config.episodes, f"only {confident}/300 episodes above 0.99"

        # (b) necessity: two duplicated state rows keep their belief ratio at
        # the prior ratio to 1e-12 at every step of every episode
        duplicated = make_structure(
            [0.0, 1.0, 2.0],
            [[0.6, 0.4], [0.6, 0.4], [0.2, 0.8]],
            labels=("a", "b"),
        )
        dup_config = ScenarioConfig(
            structure=duplicated,
            prior=Belief(np.array([0.2, 0.5, 0.3])),
            eta=0.5,
            mode="public",
            horizon=3000,
            episodes=300,
            seed=502,
        )
        prior_ratio = 0.2 / 0.5
        for i, result in enumerate(run_episodes(dup_config)):
            ratios = result.belief_path[:, 0] / result.belief_path[:, 1]
            drift = float(np.abs(ratios - prior_ratio).max())
            assert drift <= 1e-12, f"episode {i}: ratio drift {drift:.3e}"


def test_criterion_6_private_mode_learning_and_counterexample():
    with criterion(6, "private mode: 3-state learning vs 4-state stuck price", 180.0):
        # 3-state pairwise informative structure learns
        config3 = ScenarioConfig(
            structure=three_state_informative(),
            prior=Belief.uniform(3),
            eta=0.5,
            mode="private",
            horizon=3000,
            episodes=300,
            seed=601,
            convergence_tol=0.1,
        )
        summary3 = run_monte_carlo(config3)
        assert summary3.learned_fraction >= 0.95, asdict(summary3)

        # the same harness on the 4-state example: price pinned at 1.5, so the
        # learned fraction equals the prior mass of states within the
        # convergence tolerance of 1.5 (analytically zero here)
        structure4 = four_state_cascade()
        prior4 = Belief.uniform(4)
        stuck_price = expectation(structure4.states, prior4)
        analytic_fraction = float(
            prior4.weights[np.abs(structure4.states.values - stuck_price) < 0.1].sum()
        )
        assert analytic_fraction == 0.0
        config4 = ScenarioConfig(
            structure=structure4,
            prior=prior4,
            eta=0.5,
            mode="private",
            horizon=3000,
            episodes=300,
            seed=602,
            convergence_tol=0.1,
        )
        summary4 = run_monte_carlo(config4)
        assert summary4.learned_fraction == analytic_fraction
        assert summary4.cascade_fraction == 1.0


def test_criterion_7_strict_mlrp_implies_pairwise_informative():
    with criterion(7, "strict MLRP implies pairwise informativeness, 1000 structures", 10.0):
        rng = np.random.default_rng(777)
        strict_holders = 0
        for trial in range(1000):
            if trial % 2 == 0:
                structure = random_mlrp_structure(rng)
            else:
                structure = random_structure(rng)
            if is_mlrp(structure, strict=True).holds:
                strict_holders += 1
                assert is_pairwise_informative(structure).holds, f"counterexample at trial {trial}"
        # the implication must not hold vacuously
        assert strict_holders >= 400, f"only {strict_holders} structures satisfied strict MLRP"


def test_criterion_8_cascade_belief_finder():
    with criterion(8, "cascade finder: uniform at c=1.5; no binary full-support cascades", 30.0):
        structure = four_state_cascade()
        found = find_cascade_beliefs(structure, 1.5)
        assert found.beliefs, "expected the uniform cascade belief at c = 1.5"
        matches = [
            b for b in found.beliefs if np.allclose(b.weights, 0.25, atol=1e-9)
        ]
        assert matches, f"uniform belief missing from {found.as_dict()}"
        residual = float(
            np.abs(posterior_values(matches[0], structure) - 1.5).max()
        )
        assert residual <= 1e-10

        rng = np.random.default_rng(808)
        checked = 0
        while checked < 100:
            m = int(rng.integers(2, 6))
            rows = np.maximum(rng.dirichlet(np.ones(m), size=2), 1e-3)
            rows /= rows.sum(axis=1, keepdims=True)
            binary = make_structure([0.0, 1.0], rows)
            if not is_pairwise_informative(binary).holds:
                continue
            checked += 1
            for c in np.linspace(0.0, 1.0, 50):
                result = find_cascade_beliefs(binary, float(c))
                assert result.beliefs == (), (
                    f"unexpected full-support cascade at c={c} for {rows!r}"
                )
