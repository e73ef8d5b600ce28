import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from market_learn import presets
from market_learn.cli import _apply_overrides, build_parser
from market_learn.errors import ConfigInvalid, NonPositiveDensity
from market_learn.model import Belief, SignalStructure
from market_learn.presets import binary_symmetric
from market_learn.scenario import (
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    structure_from_dict,
    structure_to_dict,
    to_json,
)
from market_learn.simulate import ScenarioConfig
from reference import load_structure

SHIPPED_SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

STRUCTURE_DOC = {
    "states": [0.0, 1.0],
    "signals": ["l", "h"],
    "likelihood": [[0.8, 0.2], [0.2, 0.8]],
}

SCENARIO_DOC = {
    "structure": STRUCTURE_DOC,
    "prior": [0.5, 0.5],
    "eta": 0.5,
    "mode": "private",
    "horizon": 100,
    "episodes": 10,
    "seed": 42,
    "convergence_tol": 0.1,
    "true_state": None,
}


def test_structure_round_trip():
    structure = structure_from_dict(STRUCTURE_DOC)
    assert structure_to_dict(structure) == STRUCTURE_DOC
    np.testing.assert_allclose(structure.likelihood, binary_symmetric(0.8).likelihood, atol=1e-15)


def test_structure_unknown_key_rejected():
    doc = dict(STRUCTURE_DOC, extra=1)
    with pytest.raises(ConfigInvalid):
        structure_from_dict(doc)


def test_structure_missing_key_rejected():
    doc = {k: v for k, v in STRUCTURE_DOC.items() if k != "likelihood"}
    with pytest.raises(ConfigInvalid):
        structure_from_dict(doc)


def test_structure_invalid_probabilities_rejected():
    doc = dict(STRUCTURE_DOC, likelihood=[[1.0, 0.0], [0.2, 0.8]])
    with pytest.raises(NonPositiveDensity):
        structure_from_dict(doc)


# per ScenarioConfig field a value other than both SCENARIO_DOC's and the default
NON_DEFAULT = {
    "structure": binary_symmetric(0.7),
    "prior": Belief(np.array([0.3, 0.7])),
    "eta": 0.25,
    "mode": "public",
    "horizon": 37,
    "episodes": 3,
    "seed": 9,
    "convergence_tol": 0.05,
    "true_state": 1,
}


def _plain(value):
    """A field value in a form that compares with ==."""
    if isinstance(value, SignalStructure):
        return structure_to_dict(value)
    return value.weights.tolist() if isinstance(value, Belief) else value


def test_scenario_round_trip_through_files(tmp_path):
    config = scenario_from_dict(SCENARIO_DOC)
    path = tmp_path / "scenario.json"
    save_scenario(config, path)
    reloaded = load_scenario(path)
    assert scenario_to_dict(reloaded) == scenario_to_dict(config)
    # a second save is byte-identical
    path2 = tmp_path / "scenario2.json"
    save_scenario(reloaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    # the ScenarioConfig fields are the one scenario schema: every field
    # survives a save and a load, and a new field needs a NON_DEFAULT entry
    names = [f.name for f in fields(ScenarioConfig)]
    assert sorted(NON_DEFAULT) == sorted(names)
    for name in names:
        changed = config.with_overrides(**{name: NON_DEFAULT[name]})
        save_scenario(changed, path)
        assert sorted(json.loads(path.read_text())) == sorted(names)
        reloaded = load_scenario(path)
        assert _plain(getattr(reloaded, name)) != _plain(getattr(config, name)), name
        for f in names:
            assert _plain(getattr(reloaded, f)) == _plain(getattr(changed, f)), (name, f)
            assert type(getattr(reloaded, f)) is type(getattr(changed, f)), (name, f)


def test_a_flag_named_after_a_field_overrides_it():
    flags = {"episodes": 3, "horizon": 37, "eta": 0.25, "mode": "public", "seed": 9}
    argv = ["simulate", "--scenario", "unused.json"]
    for name, value in flags.items():
        argv += [f"--{name}", str(value)]
    base = scenario_from_dict(SCENARIO_DOC)
    config = _apply_overrides(base, build_parser().parse_args(argv))
    for f in fields(ScenarioConfig):
        expected = flags.get(f.name, getattr(base, f.name))
        assert _plain(getattr(config, f.name)) == _plain(expected), f.name


@pytest.mark.parametrize("name", ["binary_symmetric", "three_state_informative", "four_state_cascade"])
def test_shipped_scenario_holds_its_presets_structure(name):
    # the CLI and the benchmark read these files while most tests build the
    # presets; binary_symmetric(0.8) builds 1.0 - 0.8 = 0.19999999999999996
    # where the file says 0.2 (5.6e-17 apart), so the likelihood is compared
    # within 1e-15 and not exactly
    loaded = load_scenario(SHIPPED_SCENARIOS / f"{name}.json").structure
    preset = getattr(presets, name)()
    assert loaded.states.values.tolist() == preset.states.values.tolist()
    assert loaded.signals.labels == preset.signals.labels
    np.testing.assert_allclose(loaded.likelihood, preset.likelihood, rtol=0, atol=1e-15)


def test_scenario_defaults_applied():
    doc = {k: SCENARIO_DOC[k] for k in ("structure", "prior", "eta", "mode")}
    config = scenario_from_dict(doc)
    assert config.horizon == 1000
    assert config.episodes == 100
    assert config.seed == 0
    assert config.convergence_tol == 0.1
    assert config.true_state is None


def test_scenario_unknown_key_rejected():
    with pytest.raises(ConfigInvalid):
        scenario_from_dict(dict(SCENARIO_DOC, extra_key=1))


def test_scenario_missing_required_key_rejected():
    doc = {k: v for k, v in SCENARIO_DOC.items() if k != "eta"}
    with pytest.raises(ConfigInvalid):
        scenario_from_dict(doc)


def test_scenario_true_state_round_trip():
    doc = dict(SCENARIO_DOC, true_state=1)
    config = scenario_from_dict(doc)
    assert config.true_state == 1
    assert scenario_to_dict(config)["true_state"] == 1


def test_scenario_bad_prior_rejected():
    with pytest.raises(ConfigInvalid):
        scenario_from_dict(dict(SCENARIO_DOC, prior=[0.7, 0.7]))


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigInvalid):
        load_scenario(path)
    with pytest.raises(ConfigInvalid):
        load_structure(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigInvalid):
        load_scenario(tmp_path / "absent.json")


def test_structure_file_loading(tmp_path):
    path = tmp_path / "structure.json"
    path.write_text(json.dumps(STRUCTURE_DOC))
    structure = load_structure(path)
    assert structure.signals.labels == ("l", "h")


@pytest.mark.parametrize("key, value", [
    ("horizon", None),
    ("seed", None),
    ("eta", None),
    ("convergence_tol", None),
    ("episodes", [1]),
    ("signals", 5),
    ("signals", [[1], [2]]),
    ("horizon", 2.7),
    ("true_state", 1.5),
    ("seed", -1),
    ("convergence_tol", float("inf")),
])
def test_scenario_malformed_value_rejected_naming_the_key(key, value):
    if key == "signals":
        doc = dict(SCENARIO_DOC, structure=dict(STRUCTURE_DOC, signals=value))
    else:
        doc = dict(SCENARIO_DOC, **{key: value})
    with pytest.raises(ConfigInvalid, match=key):
        scenario_from_dict(doc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_to_json_rejects_non_finite_floats(value):
    # NaN and Infinity are not JSON; every output goes through to_json
    assert to_json({"b": [1.5], "a": None}) == '{\n  "a": null,\n  "b": [\n    1.5\n  ]\n}'
    with pytest.raises(ValueError):
        to_json({"summary": {"x": value}})


def test_scenario_integral_floats_load_as_integers():
    config = scenario_from_dict(dict(SCENARIO_DOC, horizon=100.0, seed=7.0, true_state=1.0))
    assert (config.horizon, config.seed, config.true_state) == (100, 7, 1)
    assert isinstance(config.horizon, int)


def test_a_config_holding_numpy_scalars_saves_as_the_one_with_python_numbers(tmp_path):
    # ScenarioConfig accepts numpy integers and floats, and keeps them as
    # Python numbers, so json can write them
    python = scenario_from_dict(dict(SCENARIO_DOC, convergence_tol=0.25, true_state=1))
    numpy = python.with_overrides(horizon=np.int64(100), episodes=np.int32(10), seed=np.uint8(42),
                                  eta=np.float32(0.5), convergence_tol=np.float32(0.25), true_state=np.int64(1))
    for config, name in ((python, "python.json"), (numpy, "numpy.json")):
        save_scenario(config, tmp_path / name)
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()
    assert [type(getattr(numpy, f.name)) for f in fields(ScenarioConfig)] == \
        [type(getattr(python, f.name)) for f in fields(ScenarioConfig)]
