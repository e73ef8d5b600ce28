import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import null_space

import market_learn
import market_learn.conditions as conditions
from market_learn.cli import main
from market_learn.conditions import (
    FULL_SUPPORT_FLOOR,
    NULLSPACE_RCOND,
    _audit_targets,
    _null_space,
    azc_audit,
    find_cascade_beliefs,
    is_cascade_belief,
    is_mlrp,
    is_pairwise_informative,
    scan_cascades,
)
from market_learn.errors import OutOfHull, PreconditionFailed
from market_learn.model import Belief, SignalSpace, SignalStructure, StateSpace, posterior_values
from market_learn.presets import binary_symmetric, four_state_cascade, three_state_informative
from market_learn.verify import random_structure
from reference import (
    NotPairwiseInformative,
    find_crossing_signals,
    maxmin_support_lp,
    point_mass,
    random_mlrp_structure,
)


def make_structure(states, rows, labels=None):
    rows = np.asarray(rows, dtype=float)
    labels = tuple(labels) if labels else tuple(f"s{j+1}" for j in range(rows.shape[1]))
    return SignalStructure(StateSpace(np.asarray(states, dtype=float)), SignalSpace(labels), rows)


def mlrp_bruteforce(structure, strict):
    """Plain-Python quadruple loop, kept independent of the vectorized check."""
    table = structure.likelihood.tolist()
    n, m = structure.n_states, structure.n_signals
    for iL, iH in itertools.combinations(range(n), 2):
        for jL, jH in itertools.combinations(range(m), 2):
            lhs = table[iL][jL] * table[iH][jH]
            rhs = table[iH][jL] * table[iL][jH]
            if lhs < rhs or (strict and lhs == rhs):
                return False, (iL, iH, jL, jH)
    return True, None


DUPLICATED_ROWS = make_structure(
    [0, 1, 2],
    [[0.6, 0.4], [0.6, 0.4], [0.2, 0.8]],
)

# Three states, binary signals, f(h|w) = (0.2, 0.8, 0.5): pairwise
# informative, yet null(L^T) is spanned by (-1, -1, 2), so every c in (1, 2)
# carries the full-support cascade belief proportional to
# (1/c, 1/(c - 1), 2/(2 - c)); at c = 1.5 that is (0.1, 0.3, 0.6).
HILL_SHAPED = make_structure(
    [0, 1, 2],
    [[0.8, 0.2], [0.2, 0.8], [0.5, 0.5]],
    labels=("l", "h"),
)


# ---------------------------------------------------------------- pairwise informativeness

def test_pairwise_informative_four_state_example():
    assert is_pairwise_informative(four_state_cascade()).holds


def test_pairwise_informative_binary():
    assert is_pairwise_informative(binary_symmetric(0.8)).holds


def test_pairwise_informative_detects_duplicate_rows():
    report = is_pairwise_informative(DUPLICATED_ROWS)
    assert not report.holds
    assert report.witness["state_pair"] == (0, 1)


# ---------------------------------------------------------------- crossing signals

def test_crossing_signals_binary():
    structure = binary_symmetric(0.8)
    s_up, s_down = find_crossing_signals(structure, 1, 0)
    assert (s_up, s_down) == ("h", "l")


def test_crossing_signals_four_state():
    # row(0) - row(1) = (0.2, -0.2, -0.1, 0.1): dominance at s1, dominated at s2
    structure = four_state_cascade()
    assert find_crossing_signals(structure, 0, 1) == ("s1", "s2")


def test_crossing_signals_identical_rows_raise():
    with pytest.raises(NotPairwiseInformative):
        find_crossing_signals(DUPLICATED_ROWS, 0, 1)


def test_crossing_signals_rejects_equal_states():
    with pytest.raises(PreconditionFailed):
        find_crossing_signals(four_state_cascade(), 1, 1)


def test_crossing_exists_for_every_pair_when_pi_holds():
    for structure in (four_state_cascade(), three_state_informative(), binary_symmetric(0.7)):
        assert is_pairwise_informative(structure).holds
        n = structure.n_states
        for a, b in itertools.permutations(range(n), 2):
            s_up, s_down = find_crossing_signals(structure, a, b)
            ja, jb = structure.signals.index(s_up), structure.signals.index(s_down)
            assert structure.likelihood[a, ja] > structure.likelihood[b, ja]
            assert structure.likelihood[a, jb] < structure.likelihood[b, jb]


# ---------------------------------------------------------------- MLRP

def test_mlrp_binary_strict_holds():
    # single quadruple: 0.8*0.8 > 0.2*0.2
    report = is_mlrp(binary_symmetric(0.8), strict=True)
    assert report.holds


def test_mlrp_four_state_fails_with_worst_quadruple():
    report = is_mlrp(four_state_cascade(), strict=True)
    assert not report.holds
    assert report.witness["signals"] == ("s1", "s2")
    assert report.witness["states"] == (1.0, 2.0)
    np.testing.assert_allclose(report.witness["products"], (0.01, 0.16), atol=1e-12)
    # weak monotonicity fails as well (genuine strict reversals exist)
    assert not is_mlrp(four_state_cascade(), strict=False).holds


def test_mlrp_row_constant_weak_holds_strict_fails():
    structure = make_structure([0, 1], [[0.5, 0.5], [0.5, 0.5]])
    assert is_mlrp(structure, strict=False).holds
    assert not is_mlrp(structure, strict=True).holds


def test_mlrp_agrees_with_bruteforce_on_random_structures():
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        rows = np.maximum(rng.dirichlet(np.ones(m), size=n), 1e-3)
        rows /= rows.sum(axis=1, keepdims=True)
        structure = make_structure(np.arange(n, dtype=float), rows)
        for strict in (False, True):
            expected, _ = mlrp_bruteforce(structure, strict)
            assert is_mlrp(structure, strict=strict).holds == expected


# ---------------------------------------------------------------- cascade beliefs

def test_cascade_belief_uniform_four_state():
    assert is_cascade_belief(four_state_cascade(), Belief.uniform(4)).holds


def test_cascade_belief_binary_uniform_fails():
    # E[w|h] = 0.8 while E[w] = 0.5
    report = is_cascade_belief(binary_symmetric(0.8), Belief.uniform(2))
    assert not report.holds
    assert report.witness["movement"] == pytest.approx(0.3, abs=1e-12)


def test_cascade_belief_point_mass_always_holds():
    structure = four_state_cascade()
    for i in range(4):
        assert is_cascade_belief(structure, point_mass(4, i)).holds


def test_find_cascade_beliefs_four_state_returns_uniform():
    result = find_cascade_beliefs(four_state_cascade(), 1.5)
    assert result.basis_dimension == 1
    assert len(result.beliefs) == 1
    np.testing.assert_allclose(result.beliefs[0].weights, 0.25, atol=1e-9)


def test_four_state_cascade_curve_matches_analytic_solution():
    # the likelihood matrix has the left null combination -3r0 - r1 + r2 + 3r3 = 0,
    # so for any c in (1, 2) the vector (3/c, 1/(c-1), 1/(2-c), 3/(3-c)) normalizes
    # to a full-support cascade belief
    structure = four_state_cascade()
    for c in (1.2, 1.5, 1.8):
        analytic = np.array([3 / c, 1 / (c - 1), 1 / (2 - c), 3 / (3 - c)])
        analytic /= analytic.sum()
        result = find_cascade_beliefs(structure, c)
        assert result.beliefs, f"expected a full-support cascade belief at c={c}"
        np.testing.assert_allclose(result.beliefs[0].weights, analytic, atol=1e-9)
        assert is_cascade_belief(structure, result.beliefs[0], tol=1e-10).holds


def test_find_cascade_beliefs_binary_pi_structure_is_empty():
    structure = binary_symmetric(0.8)
    for c in np.linspace(0.0, 1.0, 21):
        result = find_cascade_beliefs(structure, float(c))
        assert result.beliefs == ()


def test_find_cascade_beliefs_hull_endpoint_only_degenerate():
    # expectation w_1 forces the degenerate belief, which is not full support
    structure = three_state_informative()
    result = find_cascade_beliefs(structure, 0.0)
    assert result.beliefs == ()
    assert result.basis_dimension >= 1


def test_find_cascade_beliefs_out_of_hull():
    with pytest.raises(OutOfHull):
        find_cascade_beliefs(binary_symmetric(), 1.5)


def test_emitted_cascade_beliefs_satisfy_cascade_check():
    structure = four_state_cascade()
    for entry in scan_cascades(structure):
        for belief in entry.beliefs:
            assert is_cascade_belief(structure, belief, tol=1e-9).holds


def test_scan_cascades_probes_the_state_values_and_the_midpoints():
    # the four-state table has rank 3, so the cascade null space is one
    # dimensional at every target and every probe is reported; the state
    # value 2.0 holds only the point mass on that state
    found = scan_cascades(four_state_cascade())
    targets = [entry.target_expectation for entry in found]
    assert targets == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    assert all(entry.basis_dimension == 1 for entry in found)
    assert [entry.target_expectation for entry in found if entry.beliefs] == [1.5]
    np.testing.assert_allclose(found[3].beliefs[0].weights, 0.25, atol=1e-12)


def test_hill_shaped_three_state_example_has_one_cascade():
    assert is_pairwise_informative(HILL_SHAPED).holds
    found = scan_cascades(HILL_SHAPED)
    cascades = [entry for entry in found if entry.beliefs]
    assert [entry.target_expectation for entry in cascades] == [1.5]
    (belief,) = cascades[0].beliefs
    np.testing.assert_allclose(belief.weights, (0.1, 0.3, 0.6), atol=1e-12)
    np.testing.assert_allclose(posterior_values(belief, HILL_SHAPED), 1.5, atol=1e-12)
    # in exact arithmetic both posterior expectations of (0.1, 0.3, 0.6) are 1.5
    mu = (Fraction(1, 10), Fraction(3, 10), Fraction(6, 10))
    for f in ((Fraction(4, 5), Fraction(1, 5), Fraction(1, 2)), (Fraction(1, 5), Fraction(4, 5), Fraction(1, 2))):
        joint = [fw * mw for fw, mw in zip(f, mu)]
        assert sum(w * p for w, p in zip((0, 1, 2), joint)) / sum(joint) == Fraction(3, 2)
    report = azc_audit(HILL_SHAPED, delta=0.1)
    assert report.verdict == "fail"
    np.testing.assert_allclose(report.worst_belief.weights, (0.1, 0.3, 0.6), atol=1e-12)


def _low_rank_table(rng, n, m, rank):
    """A strictly positive n x m likelihood table of the given rank: each
    row mixes ``rank`` shared signal distributions."""
    mix = rng.dirichlet(np.ones(rank), size=n)
    basis = rng.dirichlet(np.ones(m), size=rank) * 0.9 + 0.1 / m
    return mix @ basis


def _scan_structures(rng, extra_specs=()):
    """Random, strict-MLRP and low-rank structures, the last built so that
    some of them carry full-support cascade beliefs; ``extra_specs`` adds
    low-rank tables as (n, m, rank) triples."""
    structures = [random_structure(rng) for _ in range(15)]
    structures += [random_mlrp_structure(rng) for _ in range(10)]
    specs = [(3, 2, 2), (3, 3, 2), (4, 2, 2), (4, 3, 3), (4, 4, 2), (4, 5, 3)] * 3 + list(extra_specs)
    for n, m, rank in specs:
        values = np.cumsum(rng.uniform(0.3, 1.2, size=n))
        structures.append(make_structure(values, _low_rank_table(rng, n, m, rank)))
    return structures


def test_cascade_basis_dimension_is_the_rank_deficiency_off_the_state_values():
    # off the state values the cascade null space is diag(w - c)^-1 null(L^T),
    # so its dimension is n - rank(L) at every target
    rng = np.random.default_rng(97)
    deficiencies = set()
    for structure in _scan_structures(rng, extra_specs=[(4, 5, 1), (3, 5, 1)]):
        values = structure.states.values
        deficiency = structure.n_states - np.linalg.matrix_rank(structure.likelihood)
        deficiencies.add(deficiency)
        for c in np.linspace(values[0], values[-1], 23):
            if np.abs(values - c).min() < 1e-6:
                continue
            assert find_cascade_beliefs(structure, c).basis_dimension == deficiency, (structure, c)
    assert deficiencies == {0, 1, 2, 3}


def test_null_space_is_bitwise_scipy_at_the_probe_targets():
    # the numpy SVD and rank cut replace scipy.linalg.null_space, whose body
    # is the same computation; the structures cover rank deficiencies 0-3
    rng = np.random.default_rng(97)
    dims = set()
    for structure in _scan_structures(rng, extra_specs=[(4, 5, 1), (3, 5, 1)]):
        for c in _audit_targets(structure.states.values, 0.0):
            mat = conditions._cascade_matrix(structure, c)
            ours, theirs = _null_space(mat), null_space(mat, rcond=NULLSPACE_RCOND)
            assert ours.shape == theirs.shape and np.array_equal(ours, theirs), (structure, c)
            dims.add(ours.shape[1])
    assert {0, 1, 2, 3} <= dims


def _rank_two_four_state():
    # rows a_i p + (1 - a_i) q have rank 2, so null(L^T) = {x : sum x = 0,
    # a . x = 0} is two-dimensional; x = (-1, -1, 1, 1) lies in it, and
    # diag(w - 1.5)^-1 x is positive, so a full-support cascade belief exists
    p, q = np.array([0.6, 0.3, 0.1]), np.array([0.1, 0.3, 0.6])
    a = np.array([0.1, 0.9, 0.7, 0.3])
    return make_structure([0.0, 1.0, 2.0, 3.0], a[:, None] * p + (1 - a[:, None]) * q)


def test_two_dimensional_null_space_finds_a_full_support_belief():
    structure = _rank_two_four_state()
    assert is_pairwise_informative(structure).holds
    result = find_cascade_beliefs(structure, 1.5)
    assert result.basis_dimension == 2
    [belief] = result.beliefs
    assert belief.weights.min() > FULL_SUPPORT_FLOOR
    assert is_cascade_belief(structure, belief).holds


def test_cascade_decision_matches_the_lp_oracle_on_rank_deficient_tables():
    # a full-support cascade belief exists exactly when the largest smallest
    # coordinate over the cascade polytope clears the floor; tables of rank
    # at most n - 2 give null spaces of dimension 2 and more
    rng = np.random.default_rng(12)
    dims, with_beliefs = set(), 0
    for _ in range(40):
        n = int(rng.integers(3, 7))
        rank = int(rng.integers(1, n - 1))
        m = int(rng.integers(max(rank, 2), 6))
        values = np.cumsum(rng.uniform(0.3, 1.2, size=n))
        structure = make_structure(values, _low_rank_table(rng, n, m, rank))
        for c in _audit_targets(values, 0.0):
            result = find_cascade_beliefs(structure, c)
            _, t = maxmin_support_lp(conditions._cascade_matrix(structure, c))
            assert bool(result.beliefs) == (t is not None and t > FULL_SUPPORT_FLOOR), (structure, c, t)
            for belief in result.beliefs:
                assert is_cascade_belief(structure, belief).holds
            dims.add(result.basis_dimension)
            with_beliefs += bool(result.beliefs)
    assert {2, 3, 4} <= dims and with_beliefs > 0


def test_vertex_search_over_its_subset_budget_raises_before_enumerating(tmp_path):
    # n = 20 states and rank 10 leave a null space of dimension d = 10 off the
    # state values, so each target would enumerate C(20, 9) = 167,960 subsets
    rng = np.random.default_rng(20)
    values = np.arange(20.0)
    structure = make_structure(values, _low_rank_table(rng, 20, 12, 10))
    scenario = tmp_path / "wide.json"
    scenario.write_text(json.dumps({
        "structure": {"states": values.tolist(), "signals": list(structure.signals.labels),
                      "likelihood": structure.likelihood.tolist()},
        "prior": [0.05] * 20, "eta": 0.5, "mode": "private"}))
    start = time.perf_counter()
    with pytest.raises(PreconditionFailed, match=r"n = 20, d = 10 needs 167960 subsets, over the budget of 10000"):
        find_cascade_beliefs(structure, 0.5)
    with pytest.raises(PreconditionFailed, match="over the budget"):
        scan_cascades(structure)
    assert main(["cascade-scan", "--scenario", str(scenario)]) == 1
    assert time.perf_counter() - start < 1.0


def test_vertex_search_within_its_subset_budget_returns():
    # n = 14, d = 7: C(14, 6) = 3,003 subsets, under MAX_VERTEX_SUBSETS
    rng = np.random.default_rng(14)
    structure = make_structure(np.arange(14.0), _low_rank_table(rng, 14, 8, 7))
    assert find_cascade_beliefs(structure, 0.5).basis_dimension == 7


def test_scans_hold_the_subset_budget_over_all_their_targets():
    # each target of this table is under the budget (3,003 subsets at d = 7), but the 27 probes of a
    # scan need far more together; both checkers raise after the null spaces, before any enumeration
    rng = np.random.default_rng(14)
    structure = make_structure(np.arange(14.0), _low_rank_table(rng, 14, 8, 7))
    start = time.perf_counter()
    with pytest.raises(PreconditionFailed, match=r"n = 14, 27 targets of d up to \d+ needs \d+ subsets, over the"):
        scan_cascades(structure)
    with pytest.raises(PreconditionFailed, match="over the budget"):
        azc_audit(structure, delta=0.1)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("check", [scan_cascades, lambda s: azc_audit(s, delta=0.1)])
def test_scans_solve_each_target_null_space_once(monkeypatch, check):
    structure, solved = _rank_two_four_state(), []
    cascade_matrix = conditions._cascade_matrix

    def counting(structure, c):
        solved.append(c)
        return cascade_matrix(structure, c)

    monkeypatch.setattr(conditions, "_cascade_matrix", counting)
    check(structure)
    assert len(solved) == len(set(solved)) > 0


def test_cascade_checks_run_with_scipy_blocked():
    # the cascade decision at every null-space dimension is numpy only
    src = Path(market_learn.__file__).resolve().parents[1]
    table = _rank_two_four_state().likelihood.tolist()
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "import numpy as np\n"
        "from market_learn.conditions import azc_audit, scan_cascades\n"
        "from market_learn.model import SignalSpace, SignalStructure, StateSpace\n"
        "structure = SignalStructure(StateSpace(np.array([0.0, 1.0, 2.0, 3.0])),\n"
        f"    SignalSpace(('s1', 's2', 's3')), np.array({table!r}))\n"
        "found = [r for r in scan_cascades(structure) if r.beliefs]\n"
        "print(max(r.basis_dimension for r in found), azc_audit(structure, delta=0.1).verdict)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["2", "fail"]


def test_importing_the_package_does_not_import_scipy():
    # no runtime path imports scipy
    src = Path(market_learn.__file__).resolve().parents[1]
    code = ("import sys, market_learn, market_learn.cli, market_learn.conditions; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cascade_existence_is_constant_on_each_gap():
    # a full-support cascade belief at c is diag(w - c)^-1 x for some x in
    # null(L^T) that is negative below c and positive above it; the sign
    # pattern does not change between adjacent state values, so the midpoint
    # probe of scan_cascades decides the whole gap
    rng = np.random.default_rng(211)
    gaps_with_cascades = 0
    for structure in _scan_structures(rng):
        values = structure.states.values
        for lo, hi in zip(values[:-1], values[1:]):
            expected = bool(find_cascade_beliefs(structure, (lo + hi) / 2).beliefs)
            gaps_with_cascades += expected
            for t in (0.1, 0.3, 0.7, 0.9):
                c = lo + t * (hi - lo)
                assert bool(find_cascade_beliefs(structure, c).beliefs) == expected, (structure, c)
    assert gaps_with_cascades > 0


def test_strict_mlrp_and_pi_give_no_full_support_cascade():
    rng = np.random.default_rng(223)
    for _ in range(200):
        structure = random_mlrp_structure(rng)
        assert is_mlrp(structure, strict=True).holds
        assert is_pairwise_informative(structure).holds
        assert not any(entry.beliefs for entry in scan_cascades(structure)), structure


def test_full_rank_tables_give_no_full_support_cascade():
    # for full-support mu the vector diag(w - c) mu is nonzero, and a
    # full-rank table leaves it no room in null(L^T)
    rng = np.random.default_rng(227)
    full_rank = 0
    for _ in range(300):
        structure = random_structure(rng)
        if np.linalg.matrix_rank(structure.likelihood) < structure.n_states:
            continue
        full_rank += 1
        assert not any(entry.beliefs for entry in scan_cascades(structure)), structure
    assert full_rank > 100


def test_row_constant_structure_cascades_everywhere():
    structure = make_structure([0, 1], [[0.5, 0.5], [0.5, 0.5]])
    report = azc_audit(structure, delta=0.1)
    assert report.verdict == "fail"
    assert report.min_max_movement == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------- movement audit

def test_azc_audit_four_state_fails_at_uniform():
    report = azc_audit(four_state_cascade(), delta=0.1)
    assert report.verdict == "fail"
    assert report.min_max_movement <= 1e-12
    np.testing.assert_allclose(report.worst_belief.weights, 0.25, atol=1e-6)


def test_azc_audit_binary_passes_with_positive_floor():
    report = azc_audit(binary_symmetric(0.8), delta=0.1)
    assert report.verdict == "pass"
    assert report.min_max_movement == float("inf")
    assert report.worst_belief is None
    assert report.audited == 0


def test_azc_audit_flags_known_cascade_belief_even_off_grid():
    # no belief grid is audited: the midpoint probe of the gap (1, 2) alone
    # must locate the zero-movement uniform belief
    report = azc_audit(four_state_cascade(), delta=0.1)
    assert report.verdict == "fail"


@pytest.mark.parametrize("structure, delta, verdict", [
    # the four-state cascade curve spans the gap (1, 2) of the hull [0, 3]:
    # above delta = 1.5 only beliefs near c = 1 or c = 2 are mispriced enough,
    # and since the gap is open none reaches 2
    pytest.param(four_state_cascade(), 1.6, "fail", id="four_state-1.6"),
    pytest.param(four_state_cascade(), 1.99, "fail", id="four_state-1.99"),
    pytest.param(four_state_cascade(), 2.0, "pass", id="four_state-2.0"),
    # the hill-shaped curve spans (1, 2) of the hull [0, 2]
    pytest.param(HILL_SHAPED, 1.5, "fail", id="hill_shaped-1.5"),
    pytest.param(HILL_SHAPED, 1.9, "fail", id="hill_shaped-1.9"),
    pytest.param(HILL_SHAPED, 2.0, "pass", id="hill_shaped-2.0"),
])
def test_azc_audit_probes_the_mispriced_part_of_a_gap(structure, delta, verdict):
    report = azc_audit(structure, delta=delta)
    assert report.verdict == verdict
    if verdict == "fail":
        values = structure.states.values
        assert np.abs(report.worst_belief.weights @ values - values).max() > delta
        assert report.min_max_movement <= 1e-9


def test_azc_audit_fails_exactly_when_a_cascade_target_is_mispriced_beyond_delta():
    # cascade beliefs at c have expectation c, and on a gap (lo, hi) that
    # carries them c ranges over the whole open gap, so their mispricing
    # max(c - w_1, w_n - c) comes arbitrarily close to max(hi - w_1, w_n - lo)
    # without reaching it; at a state value it is that value's own mispricing
    rng = np.random.default_rng(229)
    beyond_the_midpoint = 0
    for structure in _scan_structures(rng):
        values = structure.states.values
        low, high = values[0], values[-1]
        reach, midpoint_reach = [], []
        for entry in scan_cascades(structure):
            if not entry.beliefs:
                continue
            c = entry.target_expectation
            k = int(np.searchsorted(values, c))
            if values[k] == c:
                reach.append(max(c - low, high - c))
            else:
                reach.append(max(values[k] - low, high - values[k - 1]))
            midpoint_reach.append(max(c - low, high - c))
        for fraction in (0.1, 0.45, 0.6, 0.8, 0.95):
            delta = fraction * (high - low)
            report = azc_audit(structure, delta=delta)
            assert report.verdict == ("fail" if any(r > delta for r in reach) else "pass"), (structure, delta)
            beyond_the_midpoint += report.verdict == "fail" and not any(r > delta for r in midpoint_reach)
    assert beyond_the_midpoint > 0


@pytest.mark.parametrize("kwargs", [
    {"delta": 0.0},
    {"delta": -0.1},
    # every mispricing comparison with NaN is false, so an unchecked NaN
    # would pass even the four-state table
    pytest.param({"structure": four_state_cascade(), "delta": float("nan")}, id="nan"),
    # an infinite delta would run the whole audit and then fail to serialise
    pytest.param({"structure": four_state_cascade(), "delta": float("inf")}, id="inf"),
])
def test_azc_audit_rejects_bad_parameters(kwargs):
    with pytest.raises(PreconditionFailed, match="delta"):
        azc_audit(**{"structure": binary_symmetric(), **kwargs})


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("check", [
    lambda tol: is_pairwise_informative(four_state_cascade(), tol=tol),
    lambda tol: find_crossing_signals(four_state_cascade(), 0, 1, tol=tol),
    lambda tol: is_cascade_belief(four_state_cascade(), Belief.uniform(4), tol=tol),
    lambda tol: find_cascade_beliefs(four_state_cascade(), 1.5, tol=tol),
    lambda tol: scan_cascades(four_state_cascade(), tol=tol),
    lambda tol: azc_audit(four_state_cascade(), delta=0.1, movement_tol=tol),
    # a delta this large leaves no target to probe
    lambda tol: azc_audit(four_state_cascade(), delta=10.0, movement_tol=tol),
], ids=["pi", "crossing", "cascade_belief", "find_cascades", "scan", "audit", "audit_no_targets"])
def test_condition_checkers_reject_a_negative_or_nan_tol(check, tol):
    # a negative tolerance makes every "within tol" test false: the
    # four-state uniform prior would stop being a cascade belief
    with pytest.raises(PreconditionFailed, match="tol"):
        check(tol)


def test_azc_audit_three_state_pi_passes():
    report = azc_audit(three_state_informative(), delta=0.1)
    assert report.verdict == "pass"
    assert report.min_max_movement == float("inf")


def test_strict_mlrp_implies_pairwise_informative_sample():
    rng = np.random.default_rng(31)
    strict_count = 0
    for _ in range(100):
        structure = random_mlrp_structure(rng) if rng.random() < 0.5 else random_structure(rng)
        if is_mlrp(structure, strict=True).holds:
            strict_count += 1
            assert is_pairwise_informative(structure).holds
    assert strict_count > 10
