import tracemalloc
from itertools import product

import numpy as np
import pytest

import market_learn.verify as verify
from market_learn.conditions import is_mlrp, is_pairwise_informative
from market_learn.errors import ConfigInvalid, DegenerateBelief, InvalidBelief, PreconditionFailed
from market_learn.model import (
    ACTIONS,
    Belief,
    SignalSpace,
    SignalStructure,
    StateSpace,
    _normalized_rows,
    expectation,
)
from market_learn.presets import binary_symmetric, four_state_cascade, three_state_informative
from market_learn.engine import solve_quotes
from market_learn.scenario import to_json
from market_learn.verify import (
    SUITE_BLOCK,
    check_limit_support_3state,
    one_step_reports,
    random_belief,
    random_structure,
    run_martingale_suite,
)
import reference
from reference import point_mass, random_mlrp_structure, update_public_belief_on_action

# two states, three signals, with an asymmetric middle signal: the no-trade
# region keeps state-dependent mass, so observing "no trade" is informative
ASYMMETRIC_MIDDLE = SignalStructure(
    StateSpace(np.array([0.0, 1.0])),
    SignalSpace(("l", "m", "h")),
    np.array([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]]),
)


def random_case(rng):
    """A random structure, noise rate and full-support belief, drawn in the
    order the martingale suite draws them."""
    structure = random_structure(rng)
    eta = float(rng.uniform(0.05, 0.95))
    return random_belief(rng, structure.n_states), structure, eta


# ---------------------------------------------------------------- belief martingale

def test_belief_martingale_cascade_state_is_exact():
    report = one_step_reports(Belief.uniform(4), four_state_cascade(), 0.5)["belief_martingale"]
    assert report.passed
    assert report.max_abs_deviation <= 1e-14


def test_belief_martingale_binary_state():
    report = one_step_reports(Belief.uniform(2), binary_symmetric(0.8), 0.5)["belief_martingale"]
    assert report.passed


def test_belief_martingale_random_states():
    rng = np.random.default_rng(41)
    for _ in range(100):
        belief, structure, eta = random_case(rng)
        assert one_step_reports(belief, structure, eta)["belief_martingale"].passed


# ---------------------------------------------------------------- price martingale

def test_price_martingale_binary_three_term_enumeration():
    # P(B) = P(S) = 0.5/3 + 0.5*0.5 = 5/12, P(NT) = 1/6;
    # 5/12*0.68 + 5/12*0.32 + 1/6*0.5 = 0.5
    report = one_step_reports(Belief.uniform(2), binary_symmetric(0.8), 0.5)["price_martingale"]
    assert report.passed
    assert report.witness["mixed"] == pytest.approx(0.5, abs=1e-12)


def test_price_martingale_pure_noise_and_cascade_states():
    noise = one_step_reports(Belief.uniform(2), binary_symmetric(0.8), 1.0)["price_martingale"]
    assert noise.max_abs_deviation <= 1e-14
    # at eta 0 buy and sell have probability 0 and only no trade is mixed
    shut = one_step_reports(Belief.uniform(2), binary_symmetric(0.8), 0.0, true_state=1)
    assert all(report.passed for report in shut.values())
    assert shut["price_martingale"].max_abs_deviation <= 1e-14
    assert set(shut["price_directions"].witness["conditional"]) == {"NT"}
    cascade = one_step_reports(Belief.uniform(4), four_state_cascade(), 0.5)["price_martingale"]
    assert cascade.max_abs_deviation <= 1e-14


def test_price_martingale_holds_with_informative_no_trade_region():
    _, partition = solve_quotes(Belief.uniform(2), ASYMMETRIC_MIDDLE, 0.5)
    assert partition.no_trade, "middle signal should sit inside the spread"
    report = one_step_reports(Belief.uniform(2), ASYMMETRIC_MIDDLE, 0.5)["price_martingale"]
    assert report.passed
    assert report.max_abs_deviation <= 1e-10


def test_price_martingale_random_states():
    rng = np.random.default_rng(43)
    for _ in range(100):
        belief, structure, eta = random_case(rng)
        assert one_step_reports(belief, structure, eta)["price_martingale"].passed


# ---------------------------------------------------------------- likelihood ratio martingale

def test_likelihood_ratio_martingale_point_mass_truth():
    structure = binary_symmetric(0.8)
    report = one_step_reports(point_mass(2, 1), structure, 0.5,
                              true_state=1)["likelihood_ratio_martingale"]
    assert report.passed
    assert report.witness["lambda"] == 0.0


def test_likelihood_ratio_martingale_binary():
    report = one_step_reports(Belief.uniform(2), binary_symmetric(0.8), 0.5,
                              true_state=1)["likelihood_ratio_martingale"]
    assert report.passed


def test_likelihood_ratio_martingale_degenerate_guard():
    structure = binary_symmetric(0.8)
    with pytest.raises(DegenerateBelief):
        one_step_reports(point_mass(2, 0), structure, 0.5, true_state=1)


def test_likelihood_ratio_martingale_random_states():
    rng = np.random.default_rng(47)
    for _ in range(100):
        belief, structure, eta = random_case(rng)
        true_state = int(rng.integers(0, structure.n_states))
        assert one_step_reports(belief, structure, eta, true_state)["likelihood_ratio_martingale"].passed


# ---------------------------------------------------------------- directional effects

def test_price_directions_binary():
    # conditional expectations straddle the current one: 0.68 > 0.5 > 0.32
    report = one_step_reports(Belief.uniform(2), binary_symmetric(0.8), 0.5)["price_directions"]
    assert report.passed
    assert report.witness["conditional"]["B"] == pytest.approx(0.68, abs=1e-12)
    assert report.witness["conditional"]["S"] == pytest.approx(0.32, abs=1e-12)


def test_price_directions_cascade_state_all_equal():
    report = one_step_reports(Belief.uniform(4), four_state_cascade(), 0.5)["price_directions"]
    assert report.passed
    conds = report.witness["conditional"]
    for action in ("B", "S", "NT"):
        assert conds[action] == pytest.approx(1.5, abs=1e-12)


def test_price_directions_informative_no_trade_region():
    # E[w | no-trade] genuinely differs from E[w] here; the direction check
    # must still pass because the equality claim applies only to
    # state-independent no-trade mass
    belief = Belief.uniform(2)
    _, partition = solve_quotes(belief, ASYMMETRIC_MIDDLE, 0.5)
    exp_val = expectation(ASYMMETRIC_MIDDLE.states, belief)
    nt_belief = update_public_belief_on_action(belief, ASYMMETRIC_MIDDLE, partition, 0.5, "NT")
    nt_cond = expectation(ASYMMETRIC_MIDDLE.states, nt_belief)
    assert abs(nt_cond - exp_val) > 1e-3
    report = one_step_reports(belief, ASYMMETRIC_MIDDLE, 0.5)["price_directions"]
    assert report.passed


def test_price_directions_random_states():
    rng = np.random.default_rng(53)
    for _ in range(200):
        belief, structure, eta = random_case(rng)
        assert one_step_reports(belief, structure, eta)["price_directions"].passed


# ---------------------------------------------------------------- long-run support check

def test_limit_support_guards():
    with pytest.raises(PreconditionFailed):
        check_limit_support_3state(four_state_cascade(), 0.5, trials=2, horizon=10)
    not_pi = SignalStructure(
        StateSpace(np.array([0.0, 1.0])),
        SignalSpace(("a", "b")),
        np.array([[0.5, 0.5], [0.5, 0.5]]),
    )
    with pytest.raises(PreconditionFailed):
        check_limit_support_3state(not_pi, 0.5, trials=2, horizon=10)
    with pytest.raises(PreconditionFailed):
        check_limit_support_3state(binary_symmetric(0.8), 0.5, trials=0, horizon=10)


def test_limit_support_binary():
    report = check_limit_support_3state(binary_symmetric(0.8), 0.5, trials=30, horizon=1500, seed=2)
    assert report.passed
    assert report.witness["trials"] == 30
    assert report.witness["slack"] == 0.05


def test_limit_support_three_state():
    report = check_limit_support_3state(three_state_informative(), 0.5, trials=25, horizon=2500, seed=4)
    assert report.passed


# ---------------------------------------------------------------- random generators

def test_random_structure_is_always_valid():
    rng = np.random.default_rng(59)
    for _ in range(200):
        structure = random_structure(rng)  # construction validates the table
        assert np.all(np.diff(structure.states.values) > 0)


def test_random_belief_full_support():
    rng = np.random.default_rng(61)
    for _ in range(50):
        belief = random_belief(rng, 4)
        assert belief.full_support
        assert belief.weights.min() >= 5e-4


def test_random_structures_are_the_dirichlet_draws_bit_for_bit():
    # the exponential draws scaled by 1 / their running sum are Generator.dirichlet at alpha = 1; every
    # (states, signals) shape appears, and both generators end in the same state
    shapes = set()
    for seed in range(200):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        structure = random_structure(ours)
        table = reference.draw_table(theirs)
        values = reference.draw_values(theirs, len(table))
        assert np.array_equal(structure.likelihood, table) and np.array_equal(structure.states.values, values)
        assert ours.bit_generator.state == theirs.bit_generator.state
        shapes.add(table.shape)
    assert shapes == set(product(range(2, 5), range(2, 6)))


@pytest.mark.parametrize("n", range(1, 7))
def test_random_beliefs_are_the_dirichlet_draws_bit_for_bit(n):
    for seed in range(20):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        want = Belief.from_unnormalized(reference.draw_belief(theirs, n))
        assert np.array_equal(random_belief(ours, n).weights, want.weights)
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_random_mlrp_structure_has_strict_mlrp_and_pi():
    rng = np.random.default_rng(67)
    for _ in range(50):
        structure = random_mlrp_structure(rng)
        assert is_mlrp(structure, strict=True).holds
        assert is_pairwise_informative(structure).holds


# ---------------------------------------------------------------- aggregated suite

def test_martingale_suite_small_run_passes():
    reports = run_martingale_suite(trials=50, seed=71)
    assert len(reports) == 4
    for report in reports:
        assert report.passed, report.as_dict()
        assert report.witness["trials"] == 50


@pytest.mark.parametrize("trials", [0, -3])
def test_martingale_suite_rejects_empty_runs(trials):
    with pytest.raises(PreconditionFailed):
        run_martingale_suite(trials=trials)


def test_martingale_suite_rejects_a_negative_seed():
    with pytest.raises(PreconditionFailed, match="seed"):
        run_martingale_suite(trials=5, seed=-1)


@pytest.mark.parametrize("kwargs, name", [({"trials": 2.5}, "trials"), ({"seed": 1.5}, "seed"),
                                          ({"trials": "10"}, "trials"), ({"seed": None}, "seed"),
                                          ({"trials": True}, "trials"), ({"seed": False}, "seed")])
def test_martingale_suite_rejects_a_count_or_seed_that_is_not_an_integer(kwargs, name):
    # a bool is an Integral to Python, but not a count or a seed
    with pytest.raises(PreconditionFailed, match=name):
        run_martingale_suite(**kwargs)


@pytest.mark.parametrize("eta", ["0.5", True])
def test_limit_support_check_rejects_a_noise_rate_that_is_not_a_number(eta):
    # the noise rate reaches ScenarioConfig as given, so it follows the config's rule
    with pytest.raises(ConfigInvalid, match="eta must be a number"):
        check_limit_support_3state(binary_symmetric(0.8), eta, trials=2, horizon=10)


def reference_suite(trials, seed, structure, eta):
    """The suite's (worst deviation, worst trial) per identity as the running
    maximum (latest trial on ties) of the scalar reference over the same
    randomized states, drawn as structure, eta, belief, true state."""
    rng = np.random.default_rng(seed)
    worst = {}
    for trial in range(trials):
        struct = structure if structure is not None else random_structure(rng)
        e = eta if eta is not None else float(rng.uniform(0.05, 0.95))
        belief = random_belief(rng, struct.n_states)
        true_state = int(rng.integers(0, struct.n_states))
        for report in reference.one_step_reports(belief, struct, e, true_state).values():
            if report.max_abs_deviation >= worst.get(report.check_name, (0.0, None))[0]:
                worst[report.check_name] = (report.max_abs_deviation, trial)
    return worst


def assert_suite_matches_reference(trials, seed, structure, eta):
    reports = run_martingale_suite(trials=trials, seed=seed, structure=structure, eta=eta)
    assert [r.check_name for r in reports] == list(verify.CHECKS)
    worst = reference_suite(trials, seed, structure, eta)
    for report in reports:
        assert (report.max_abs_deviation, report.witness["worst_trial"]) == worst[report.check_name]


@pytest.mark.parametrize("seed, structure, eta", [
    (3, None, None),
    (5, three_state_informative(), 0.5),
    (8, four_state_cascade(), None),
    (13, ASYMMETRIC_MIDDLE, 0.3),
])
def test_martingale_suite_matches_the_public_checks(seed, structure, eta):
    assert_suite_matches_reference(150, seed, structure, eta)


SUITE_STRUCTURES = {"random": None, "binary": binary_symmetric(0.8), "three_state": three_state_informative(),
                    "four_state": four_state_cascade(), "asymmetric_middle": ASYMMETRIC_MIDDLE}
SUITE_COUNTS = (1, SUITE_BLOCK - 1, SUITE_BLOCK, SUITE_BLOCK + 1)


@pytest.mark.parametrize("i, name, eta", [
    (i, name, eta) for i, (name, eta) in enumerate(product(SUITE_STRUCTURES, (None, 0.0, 1.0, 0.3)))
])
def test_blocked_suite_is_the_running_maximum_of_the_reference(i, name, eta):
    # every structure meets every noise rate once; the seeds and the trial
    # counts around the block size rotate so that each pairs with each rate
    seed, trials = (0, 1, 7)[i % 3], SUITE_COUNTS[(i + i // 4) % 4]
    assert_suite_matches_reference(trials, seed, SUITE_STRUCTURES[name], eta)


def expected_kernel_calls(trials, seed, structure, eta):
    """The arguments of each kernel call of the suite, drawn one trial at a
    time with the ``Generator.dirichlet`` oracles: per block, one call per
    (states, signals) shape in order of first appearance, its trials stacked
    in trial order."""
    rng, calls = np.random.default_rng(seed), []
    for first in range(0, trials, SUITE_BLOCK):
        groups = {}
        for _ in range(first, min(first + SUITE_BLOCK, trials)):
            table = structure.likelihood if structure is not None else reference.draw_table(rng)
            values = structure.states.values if structure is not None else reference.draw_values(rng, len(table))
            e = eta if eta is not None else float(rng.uniform(0.05, 0.95))
            raw = reference.draw_belief(rng, len(values))
            groups.setdefault(table.shape, []).append((values, table, e, raw, int(rng.integers(0, len(values)))))
        for group in groups.values():
            values, table, e, raw, true_state = map(np.array, zip(*group))
            calls.append((np.stack([r / r.sum() for r in raw]), values, table, e, true_state))
    return calls


@pytest.mark.parametrize("trials, seed, structure, eta", [
    (1000, 0, None, None),
    (SUITE_BLOCK + 5, 3, None, 0.3),
    (2 * SUITE_BLOCK + 1, 7, three_state_informative(), None),
    (40, 11, four_state_cascade(), 0.5),
])
def test_suite_draws_are_the_dirichlet_draws_bit_for_bit(monkeypatch, trials, seed, structure, eta):
    calls, kernel = [], verify._one_step_rows

    def recording(w, values, table, e, true_state):
        calls.append((w, values, table, e, true_state))
        return kernel(w, values, table, e, true_state)

    monkeypatch.setattr(verify, "_one_step_rows", recording)
    run_martingale_suite(trials=trials, seed=seed, structure=structure, eta=eta)
    want = expected_kernel_calls(trials, seed, structure, eta)
    assert len(calls) == len(want)
    for got, expected in zip(calls, want):
        w, values, table, e, true_state = got
        assert np.array_equal(w, expected[0]) and np.array_equal(true_state, expected[4])
        if structure is None:
            assert np.array_equal(values, expected[1]) and np.array_equal(table, expected[2])
        else:  # a given structure's arrays are shared, not stacked per trial
            assert values is structure.states.values and table is structure.likelihood
        assert e == eta if eta is not None else np.array_equal(e, expected[3])
    if trials == 1000:  # the CLI default is one block: one kernel call per shape
        assert len(calls) == 12


def test_one_step_reports_match_the_scalar_reference():
    cases = [(Belief.uniform(s.n_states), s, eta, t) for s in list(SUITE_STRUCTURES.values())[1:]
             for eta in (0.0, 0.5, 1.0) for t in (None, s.n_states - 1)]
    cases.append((point_mass(2, 1), binary_symmetric(0.8), 0.5, 1))
    rng = np.random.default_rng(89)
    for _ in range(100):
        belief, structure, eta = random_case(rng)
        cases.append((belief, structure, eta, int(rng.integers(0, structure.n_states))))
    for belief, structure, eta, true_state in cases:
        got = one_step_reports(belief, structure, eta, true_state)
        want = reference.one_step_reports(belief, structure, eta, true_state)
        assert [r.as_dict() for r in got.values()] == [r.as_dict() for r in want.values()]


def _per_action_loop(w, like):
    """The one-step updates as one checked update per action, in action order."""
    live = like.any(axis=2)
    for a in range(len(ACTIONS)):
        _normalized_rows(w * np.where(live[:, a, None], like[:, a], 1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("action", range(len(ACTIONS)))
@pytest.mark.parametrize("poison", [
    {(0, 0): [np.nan, 1.0]}, {(0, 0): [-1.0, 0.0]}, {(0, 0): [-1e-6, 1.0]},
    {(0, 0): [-1e-6, 1.0], (40, 0): [-1.0, 0.0]}, {(0, 0): [np.inf, 1.0], (40, 0): [-1e-6, 1.0]},
    {(40, 0): [-1e-6, 1.0], (0, 1): [-1e-6, 1.0]}, {(40, 0): [-1.0, 0.0], (0, 1): [np.nan, 1.0]},
])
def test_one_step_updates_raise_as_a_per_action_loop(monkeypatch, action, poison):
    # the three actions' updates are one checked update of action-major rows.
    # Poison likelihood rows after the quote solve, keyed by (row, actions
    # after ``action``), each that the batch has: the error is that of one
    # checked update per action, its first row that it cannot normalize,
    # else its first row that is not a belief, when the bad actions fail in
    # the same way (row 40 before row 0, action before action + 1)
    solve, step, seen, steps = verify.quote_rows, verify._normalized_rows, [], []

    def poisoned(w, values, table, e):
        *quotes, like = solve(w, values, table, e)
        like = like.copy()
        for (row, later), bad in poison.items():
            if row < len(w):
                like[row, (action + later) % len(ACTIONS)] = bad
        seen.append((w, like))
        return (*quotes, like)

    def counted(raw):
        steps.append(len(raw))
        return step(raw)

    monkeypatch.setattr(verify, "quote_rows", poisoned)
    monkeypatch.setattr(verify, "_normalized_rows", counted)
    structure = binary_symmetric(0.8)
    for run in (lambda: one_step_reports(Belief(np.array([0.3, 0.7])), structure, 0.5, 1),
                lambda: run_martingale_suite(trials=100, structure=structure, eta=0.5)):
        with pytest.raises(InvalidBelief) as batched:
            run()
        with pytest.raises(InvalidBelief) as looped:
            _per_action_loop(*seen[-1])
        assert "(belief" in str(batched.value) and str(batched.value) == str(looped.value)
    # one update call per kernel call, three rows per belief; the suite also normalizes its 100 beliefs
    assert steps == [3, 100, 300]


def test_suite_fails_a_non_finite_deviation_and_names_its_first_trial(monkeypatch):
    kernel = verify._one_step_rows

    def poisoned(*args):
        rows = kernel(*args)
        rows["price_martingale"][[2, 5]] = np.nan
        return rows

    monkeypatch.setattr(verify, "_one_step_rows", poisoned)
    reports = {r.check_name: r for r in run_martingale_suite(trials=10, structure=binary_symmetric(0.8), eta=0.5)}
    price = reports.pop("price_martingale")
    assert not price.passed
    assert price.witness["worst_trial"] == 2
    assert price.as_dict()["max_abs_deviation"] is None
    to_json(price.as_dict())  # strict JSON: null, not NaN
    assert all(report.passed for report in reports.values())


def test_suite_memory_does_not_grow_with_the_trial_count():
    structure = three_state_informative()
    run_martingale_suite(trials=SUITE_BLOCK, structure=structure)  # warm up one-time allocations
    peaks = []
    for blocks in (1, 8):
        tracemalloc.start()
        try:
            run_martingale_suite(trials=blocks * SUITE_BLOCK, structure=structure)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks
