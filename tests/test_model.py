import numpy as np
import pytest

import market_learn.simulate as simulate
from market_learn.errors import (
    DimensionMismatch,
    InvalidBelief,
    NonPositiveDensity,
    PreconditionFailed,
    RowSumInvalid,
    UnknownSignal,
)
from market_learn.model import (
    ACTIONS,
    Belief,
    SignalPartition,
    SignalSpace,
    SignalStructure,
    StateSpace,
    _row_products,
    expectation,
    posterior_values,
)
from market_learn.presets import binary_symmetric, four_state_cascade
from market_learn.verify import random_belief, random_structure
from reference import (
    EmptySignalSet,
    action_likelihood_vector,
    bayes_posterior,
    bayes_posterior_set,
    point_mass,
    update_public_belief_on_action,
)


def make_structure(states, rows, labels=None):
    rows = np.asarray(rows, dtype=float)
    labels = tuple(labels) if labels else tuple(f"s{j+1}" for j in range(rows.shape[1]))
    return SignalStructure(StateSpace(np.asarray(states, dtype=float)), SignalSpace(labels), rows)


# ---------------------------------------------------------------- spaces

def test_state_space_requires_strictly_increasing_values():
    with pytest.raises(DimensionMismatch):
        StateSpace(np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DimensionMismatch):
        StateSpace(np.array([1.0]))
    with pytest.raises(DimensionMismatch):
        StateSpace(np.array([0.0, np.inf]))


def test_signal_space_rejects_duplicates_and_keeps_order():
    with pytest.raises(DimensionMismatch):
        SignalSpace(("a", "a"))
    space = SignalSpace(("h", "l"))
    assert space.labels == ("h", "l")
    assert space.index("l") == 1
    with pytest.raises(UnknownSignal):
        space.index("x")


def test_structure_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        make_structure([0, 1], [[0.5, 0.5]])


# ---------------------------------------------------------------- validation

# SignalStructure validates itself at construction

def test_validate_accepts_four_state_example():
    structure = four_state_cascade()
    assert structure.likelihood.shape == (4, structure.n_signals)


def test_validate_rejects_bad_row_sum():
    with pytest.raises(RowSumInvalid) as err:
        make_structure([0, 1], [[0.5, 0.4], [0.2, 0.8]])
    assert err.value.state_index == 0


def test_validate_rejects_zero_density():
    with pytest.raises(NonPositiveDensity) as err:
        make_structure([0, 1], [[1.0, 0.0], [0.2, 0.8]])
    assert (err.value.state_index, err.value.signal_index) == (0, 1)


def test_validate_reports_the_first_bad_row_in_state_order():
    # row 0 sums wrong and row 1 has a zero: the row-by-row order names row 0
    with pytest.raises(RowSumInvalid) as err:
        make_structure([0, 1], [[0.5, 0.4], [1.0, 0.0]])
    assert err.value.state_index == 0
    # a bad entry in a row wins over that row's sum; the first bad entry is named
    with pytest.raises(NonPositiveDensity) as err:
        make_structure([0, 1], [[0.2, 0.8], [np.nan, -1.0]])
    assert (err.value.state_index, err.value.signal_index) == (1, 0)


@pytest.mark.parametrize("accuracy", [0.5, 1.0, float("nan")])
def test_binary_symmetric_rejects_an_uninformative_accuracy(accuracy):
    with pytest.raises(PreconditionFailed, match="accuracy"):
        binary_symmetric(accuracy)


# ---------------------------------------------------------------- beliefs

def test_belief_invariants():
    with pytest.raises(InvalidBelief):
        Belief(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(InvalidBelief):
        Belief(np.array([0.5, 0.4]))
    b = Belief.uniform(4)
    assert b.full_support
    assert not point_mass(3, 1).full_support
    assert np.allclose(Belief.from_unnormalized([2.0, 2.0]).weights, [0.5, 0.5])


def test_from_unnormalized_checks_the_belief_once(monkeypatch):
    import market_learn.model as model
    checked_rows, calls = model._checked_rows, []

    def counting(w):
        calls.append(w.shape)
        return checked_rows(w)

    monkeypatch.setattr(model, "_checked_rows", counting)
    assert np.allclose(Belief.from_unnormalized([1.0, 3.0]).weights, [0.25, 0.75])
    assert calls == [(1, 2)]
    # both checks still run, with their own messages
    with pytest.raises(InvalidBelief, match="cannot normalize weights"):
        Belief.from_unnormalized([0.0, 0.0])
    with pytest.raises(InvalidBelief, match="finite, nonnegative and sum to 1"):
        Belief.from_unnormalized([1.0, -0.5])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normalized_rows_match_the_row_by_row_checks():
    # the whole-array quotient is the row-by-row one bit for bit, and each
    # bad row raises the row-by-row error with its message
    import market_learn.model as model
    rng = np.random.default_rng(9)
    raw = rng.random((50, 4)) * 10.0 ** rng.integers(-300, 300, size=(50, 1))
    np.testing.assert_array_equal(model._normalized_rows(raw), model._checked_rows(model._divided_rows(raw)))
    for bad in ([0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0], [1.0, -0.5], [-1.0, -1.0]):
        rows = np.array([[0.5, 0.5], bad])
        with pytest.raises(InvalidBelief) as fused:
            model._normalized_rows(rows)
        with pytest.raises(InvalidBelief) as checked:
            model._checked_rows(model._divided_rows(rows))
        assert str(fused.value) == str(checked.value)

    # the kernels' unchecked stepper is a chained _normalized_rows loop bit
    # for bit on valid likelihoods, which _run's table check guarantees
    def update_loop(w, like):
        out = []
        for row in like:
            w = model._normalized_rows(w * row)
            out.append(w)
        return np.array(out)

    w = model._normalized_rows(rng.random((50, 4)))
    like = rng.random((6, 50, 4)) * 10.0 ** rng.integers(-100, 100, size=(6, 50, 1))
    np.testing.assert_array_equal(simulate._stepped_rows(w, like), update_loop(w, like))


def test_noise_rate_bounds():
    structure = binary_symmetric()
    partition = SignalPartition(2, buy=(1,), sell=(0,))
    action_likelihood_vector(structure, partition, 0.0, "B")
    action_likelihood_vector(structure, partition, 1.0, "B")
    for eta in (1.5, -0.1, float("nan")):
        with pytest.raises(InvalidBelief):
            action_likelihood_vector(structure, partition, eta, "B")


# ---------------------------------------------------------------- posterior updates

def test_posterior_four_state_uniform_reproduces_known_vectors():
    structure = four_state_cascade()
    uniform = Belief.uniform(4)
    expected = {
        "s1": (0.3, 0.1, 0.4, 0.2),
        "s2": (0.2, 0.4, 0.1, 0.3),
        "s3": (0.2, 0.3, 0.3, 0.2),
        "s4": (0.3, 0.2, 0.2, 0.3),
    }
    for label, vector in expected.items():
        post = bayes_posterior(uniform, structure, label)
        np.testing.assert_allclose(post.weights, vector, atol=1e-12)


def test_posterior_binary_hand_computed():
    # prior (0.5, 0.5), f(h|1)=0.8, f(h|0)=0.2:
    # posterior = (0.5*0.2, 0.5*0.8) / 0.5 = (0.2, 0.8)
    structure = binary_symmetric(0.8)
    post = bayes_posterior(Belief.uniform(2), structure, "h")
    np.testing.assert_allclose(post.weights, [0.2, 0.8], atol=1e-12)


def test_posterior_row_constant_structure_is_inert():
    structure = make_structure([0, 1, 2], [[0.7, 0.3]] * 3)
    prior = Belief(np.array([0.2, 0.5, 0.3]))
    post = bayes_posterior(prior, structure, "s1")
    np.testing.assert_allclose(post.weights, prior.weights, atol=1e-15)


def test_posterior_unknown_signal():
    with pytest.raises(UnknownSignal):
        bayes_posterior(Belief.uniform(2), binary_symmetric(), "x")


def test_posterior_preserves_support():
    structure = binary_symmetric(0.8)
    post = bayes_posterior(point_mass(2, 0), structure, "h")
    assert post.weights[0] > 0 and post.weights[1] == 0


def test_set_posterior_whole_space_is_identity():
    structure = four_state_cascade()
    prior = Belief(np.array([0.1, 0.2, 0.3, 0.4]))
    post = bayes_posterior_set(prior, structure, ["s1", "s2", "s3", "s4"])
    np.testing.assert_allclose(post.weights, prior.weights, atol=1e-14)


def test_set_posterior_balanced_pair_keeps_uniform():
    # column sums f({s1,s2}|w) computed directly from the table: equal across states
    structure = four_state_cascade()
    mass = structure.likelihood[:, [0, 1]].sum(axis=1)
    np.testing.assert_allclose(mass, 0.5, atol=1e-15)
    post = bayes_posterior_set(Belief.uniform(4), structure, ["s1", "s2"])
    np.testing.assert_allclose(post.weights, 0.25, atol=1e-14)


def test_set_posterior_singleton_matches_single_signal():
    structure = four_state_cascade()
    prior = Belief(np.array([0.4, 0.3, 0.2, 0.1]))
    a = bayes_posterior_set(prior, structure, ["s3"])
    b = bayes_posterior(prior, structure, "s3")
    np.testing.assert_array_equal(a.weights, b.weights)


def test_set_posterior_rejects_empty_set():
    with pytest.raises(EmptySignalSet):
        bayes_posterior_set(Belief.uniform(2), binary_symmetric(), [])


def test_set_posterior_equals_probability_weighted_mixture_over_cell():
    # P(.|s in cell)-weighted mixture of singleton posteriors equals the set update
    rng = np.random.default_rng(3)
    structure = four_state_cascade()
    for _ in range(20):
        prior = Belief.from_unnormalized(rng.dirichlet(np.ones(4)) + 1e-3)
        cell = ["s1", "s3"]
        set_post = bayes_posterior_set(prior, structure, cell)
        probs = np.array([float(prior.weights @ structure.likelihood[:, structure.signals.index(s)])
                          for s in cell])
        mixture = sum(
            p * bayes_posterior(prior, structure, s).weights for p, s in zip(probs, cell)
        ) / probs.sum()
        np.testing.assert_allclose(set_post.weights, mixture, atol=1e-12)


# ---------------------------------------------------------------- expectation

def test_expectation_values():
    structure = four_state_cascade()
    assert expectation(structure.states, Belief.uniform(4)) == pytest.approx(1.5, abs=1e-12)
    assert expectation(structure.states, point_mass(4, 2)) == 2.0
    binary = binary_symmetric()
    assert expectation(binary.states, Belief(np.array([0.2, 0.8]))) == pytest.approx(0.8, abs=1e-12)


# ---------------------------------------------------------------- action likelihoods

def test_action_likelihood_pure_noise_is_uniform():
    structure = binary_symmetric()
    partition = SignalPartition(2, buy=(1,), sell=(0,))
    for action in ACTIONS:
        for state in (0, 1):
            assert action_likelihood_vector(structure, partition, 1.0, action)[state] == pytest.approx(1 / 3)


def test_action_likelihood_mixed_arithmetic():
    # eta=0.5 and f(S^B|w)=0.8 gives 0.5/3 + 0.5*0.8
    structure = binary_symmetric(0.8)
    partition = SignalPartition(2, buy=(1,), sell=(0,))
    value = action_likelihood_vector(structure, partition, 0.5, "B")[1]
    assert value == pytest.approx(0.5 / 3 + 0.5 * 0.8, abs=1e-15)


def test_action_likelihood_informed_whole_space():
    structure = binary_symmetric()
    partition = SignalPartition(2, buy=(0, 1), sell=())
    assert action_likelihood_vector(structure, partition, 0.0, "B")[0] == pytest.approx(1.0)


def test_action_likelihoods_sum_to_one():
    rng = np.random.default_rng(9)
    structure = four_state_cascade()
    for _ in range(10):
        labels = rng.integers(0, 3, size=4)
        partition = SignalPartition(
            4,
            buy=tuple(np.flatnonzero(labels == 0)),
            sell=tuple(np.flatnonzero(labels == 1)),
        )
        eta = float(rng.uniform(0, 1))
        for state in range(4):
            total = sum(action_likelihood_vector(structure, partition, eta, a)[state] for a in ACTIONS)
            assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- belief update on actions

def test_update_on_action_pure_noise_is_inert():
    structure = binary_symmetric()
    partition = SignalPartition(2, buy=(1,), sell=(0,))
    prior = Belief(np.array([0.3, 0.7]))
    for action in ACTIONS:
        post = update_public_belief_on_action(prior, structure, partition, 1.0, action)
        np.testing.assert_allclose(post.weights, prior.weights, atol=1e-15)


def test_update_on_buy_binary_example():
    # mixed likelihood f(B|w): w=1 -> 1/6 + 0.4, w=0 -> 1/6 + 0.1;
    # posterior = (0.5*(1/6+0.1), 0.5*(1/6+0.4)) normalized = (0.32, 0.68)
    structure = binary_symmetric(0.8)
    partition = SignalPartition(2, buy=(1,), sell=(0,))
    post = update_public_belief_on_action(Belief.uniform(2), structure, partition, 0.5, "B")
    np.testing.assert_allclose(post.weights, [0.32, 0.68], atol=1e-12)


def test_update_on_empty_no_trade_set_is_inert():
    structure = binary_symmetric(0.8)
    partition = SignalPartition(2, buy=(1,), sell=(0,))
    prior = Belief(np.array([0.4, 0.6]))
    post = update_public_belief_on_action(prior, structure, partition, 0.5, "NT")
    np.testing.assert_allclose(post.weights, prior.weights, atol=1e-15)


def test_action_update_martingale_identity_random_partitions():
    # sum_a P(a) mu'(w|a) must reproduce mu(w) for any total partition
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 6))
        rows = rng.dirichlet(np.ones(m), size=n)
        rows = np.maximum(rows, 1e-3)
        rows /= rows.sum(axis=1, keepdims=True)
        structure = make_structure(np.arange(n, dtype=float), rows)
        belief = Belief.from_unnormalized(rng.dirichlet(np.ones(n)) + 1e-3)
        eta = float(rng.uniform(0.01, 0.99))
        labels = rng.integers(0, 3, size=m)
        partition = SignalPartition(
            m,
            buy=tuple(np.flatnonzero(labels == 0)),
            sell=tuple(np.flatnonzero(labels == 1)),
        )
        mixed = np.zeros(n)
        for action in ACTIONS:
            like = action_likelihood_vector(structure, partition, eta, action)
            prob = float(belief.weights @ like)
            mixed += prob * update_public_belief_on_action(belief, structure, partition, eta, action).weights
        np.testing.assert_allclose(mixed, belief.weights, atol=1e-10)


def test_scalar_values_round_as_the_kernels_row_products():
    # expectation and posterior_values compute through _row_products, as the
    # quote kernel and the market kernels do, so each equals its row of a
    # stacked batch and a batch of one bit for bit
    rng = np.random.default_rng(22)
    for _ in range(200):
        structure = random_structure(rng)
        values, table = structure.states.values, structure.likelihood
        beliefs = [random_belief(rng, structure.n_states) for _ in range(20)]
        w = np.array([belief.weights for belief in beliefs])
        exp_val = _row_products(w, values[:, None])[:, 0]
        post = _row_products(values * w, table) / _row_products(w, table)
        for r, belief in enumerate(beliefs):
            one = belief.weights[None]
            assert expectation(structure.states, belief) == exp_val[r] == _row_products(one, values[:, None])[0, 0]
            np.testing.assert_array_equal(posterior_values(belief, structure), post[r])
            np.testing.assert_array_equal(post[r], (_row_products(values * one, table) / _row_products(one, table))[0])
