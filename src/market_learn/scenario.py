"""JSON loading and saving for signal structures and scenario configs.

Structure document:
    {"states": [...], "signals": [...], "likelihood": [[row per state]]}
with rows in state order and columns in signal order.

Scenario document: one key per field of ScenarioConfig, which is the one
schema; "structure" holds a structure document, "prior" a list of weights
and every other field a number, except "mode" ("private" or "public") and
a "true_state" of null, which leaves it unset.  Unknown keys are rejected
outright, and a field with a default falls back to it when omitted.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import ConfigInvalid
from .model import Belief, SignalSpace, SignalStructure, StateSpace
from .simulate import ScenarioConfig

__all__ = [
    "structure_from_dict",
    "structure_to_dict",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
    "save_scenario",
    "to_json",
]

_STRUCTURE_KEYS = {"states", "signals", "likelihood"}
# the ScenarioConfig fields are the scenario schema: a field without a default is required
_SCENARIO_FIELDS = fields(ScenarioConfig)
_REQUIRED_SCENARIO_KEYS = {f.name for f in _SCENARIO_FIELDS if f.default is MISSING}


def _number(doc: dict, key: str, integer: bool = False):
    """``doc[key]`` as a float, or when ``integer`` as an int (100.0 too)."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, Real) or (integer and not float(value).is_integer()):
        raise ConfigInvalid(f"{key} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return int(value) if integer else float(value)


def _float_array(doc: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalid(f"{key} must be numeric: {exc}") from exc


def _check_keys(doc, kind: str, allowed: set, required: set) -> None:
    """``doc`` must be a dict with no key outside ``allowed`` and every key of ``required``."""
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"{kind} must be an object, got {type(doc).__name__}")
    for problem, keys in (("unknown", set(doc) - allowed), ("missing", required - set(doc))):
        if keys:
            raise ConfigInvalid(f"{problem} {kind} keys: {sorted(keys)}")


def structure_from_dict(doc: dict) -> SignalStructure:
    _check_keys(doc, "structure", _STRUCTURE_KEYS, _STRUCTURE_KEYS)
    labels = doc["signals"]
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise ConfigInvalid(f"signals must be a list of strings, got {labels!r}")
    return SignalStructure(StateSpace(_float_array(doc, "states")), SignalSpace(tuple(labels)),
                           _float_array(doc, "likelihood"))


def structure_to_dict(structure: SignalStructure) -> dict:
    return {
        "states": [float(v) for v in structure.states.values],
        "signals": list(structure.signals.labels),
        "likelihood": [[float(x) for x in row] for row in structure.likelihood],
    }


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    _check_keys(doc, "scenario", {f.name for f in _SCENARIO_FIELDS}, _REQUIRED_SCENARIO_KEYS)
    structure = structure_from_dict(doc["structure"])
    try:
        prior = Belief(np.asarray(doc["prior"], dtype=float))
    except Exception as exc:
        raise ConfigInvalid(f"invalid prior: {exc}") from exc
    # an optional field is an integer unless its default is a float; null leaves a None default unset
    optional = {f.name: _number(doc, f.name, integer=not isinstance(f.default, float)) for f in _SCENARIO_FIELDS
                if f.default is not MISSING and f.name in doc and not (doc[f.name] is None and f.default is None)}
    return ScenarioConfig(structure=structure, prior=prior, eta=_number(doc, "eta"), mode=str(doc["mode"]), **optional)


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return dict({f.name: getattr(config, f.name) for f in _SCENARIO_FIELDS},
                structure=structure_to_dict(config.structure),
                prior=[float(w) for w in config.prior.weights])


def to_json(doc, indent=2) -> str:
    """``doc`` as strict JSON text with sorted keys, the one writer of every
    JSON output: a NaN or infinite float raises ``ValueError`` instead of
    becoming the non-standard token ``NaN`` or ``Infinity``."""
    return json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False)


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"{path} is not valid JSON: {exc}") from exc


def load_scenario(path) -> ScenarioConfig:
    return scenario_from_dict(_load_json(path))


def save_scenario(config: ScenarioConfig, path) -> None:
    Path(path).write_text(to_json(scenario_to_dict(config)) + "\n")
