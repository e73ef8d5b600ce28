"""The benchmark's workloads: the operations one round runs, the scenario
files set-up loads, and the output checks run after the timed rounds.

Each operation is one CLI command, called in-process through
``market_learn.cli.main``, or one public library call.  Operations and
checks only see the program through its CLI and its public functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from pathlib import Path

SCENARIOS = ("binary_symmetric", "three_state_informative", "four_state_cascade")

# simulate-private: episodes per scenario, cut so that one round takes a few
# seconds while the seed-to-seed spread of stepped periods stays small.
SIMULATE_EPISODES = {"binary_symmetric": 60, "three_state_informative": 80, "four_state_cascade": 100}
PLOTTED = "binary_symmetric"
# compare-public: episodes of `compare` and of the duplicated-state batch.
COMPARE_EPISODES = 20
DUPLICATE_EPISODES = 20
DUPLICATE_HORIZON = 3000
# analysis: randomised market states per `verify` run.
VERIFY_TRIALS = 1000
# Episodes per scenario re-run outside the timed rounds for the path audits.
AUDITED_EPISODES = 5


class CliOp:
    """One `market-learn` command run in-process; its output is the captured
    standard output and the files of its output dir.  `episodes` is how many
    episodes the command asks for (the base of episodes_useful_ratio)."""

    def __init__(self, name, argv, out_dir=None, episodes=0):
        self.name, self.argv, self.out_dir, self.episodes = name, argv, out_dir, episodes

    def run(self, ml):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ml.cli.main(self.argv)
        if code != 0:
            raise RuntimeError(f"{self.name}: exit code {code}")
        return buf.getvalue()

    def digest(self, output) -> tuple:
        """(hash, bytes written) of everything the command emitted."""
        h = hashlib.sha256(output.encode())
        written = len(output.encode())
        if self.out_dir is not None:
            for path in sorted(Path(self.out_dir).iterdir()):
                data = path.read_bytes()
                h.update(path.name.encode() + b"\0" + data)
                written += len(data)
        return h.hexdigest(), written


class LibOp:
    """One library call returning episode results."""

    episodes = 0   # episodes_useful_ratio covers CLI commands only

    def __init__(self, name, call):
        self.name, self.call = name, call

    def run(self, ml):
        return self.call(ml)

    def digest(self, output) -> tuple:
        h = hashlib.sha256()
        for r in output:
            h.update(str(r.true_state).encode())
            h.update(r.price_path.tobytes())
            h.update(r.belief_path.tobytes())
        return h.hexdigest(), 0


def duplicated_state_doc(seed: int) -> dict:
    """The non-PI public-mode input: states 0 and 1 share a signal row."""
    return {
        "structure": {"states": [0.0, 1.0, 2.0], "signals": ["a", "b"],
                      "likelihood": [[0.6, 0.4], [0.6, 0.4], [0.2, 0.8]]},
        "prior": [0.2, 0.5, 0.3], "eta": 0.5, "mode": "public",
        "horizon": DUPLICATE_HORIZON, "episodes": DUPLICATE_EPISODES, "seed": seed,
    }


class Workload:
    """A named set of operations; `scenarios` are loaded during set-up."""

    name = ""
    scenarios = ()

    def __init__(self, root: Path, out: Path, seed: int):
        self.root, self.out, self.seed = root, out, seed
        self.notes = {}

    def scenario_path(self, name) -> str:
        return str(self.root / "scenarios" / f"{name}.json")

    def setup(self, ml) -> None:
        self.configs = {name: ml.scenario.load_scenario(self.scenario_path(name)) for name in self.scenarios}

    def cli(self, name, command, scenario=None, extra=(), out=False, episodes=0):
        argv = [command]
        if scenario is not None:
            argv += ["--scenario", self.scenario_path(scenario)]
        out_dir = None
        if out:
            out_dir = self.out / name
            argv += ["--output", str(out_dir)]
        argv += ["--seed", str(self.seed), *extra]
        return CliOp(name, argv, out_dir, episodes)


class SimulatePrivate(Workload):
    name = "simulate-private"
    scenarios = SCENARIOS

    def ops(self):
        return [
            self.cli(f"simulate_{s}", "simulate", s, out=True, episodes=e,
                     extra=["--mode", "private", "--episodes", str(e)] + (["--plots"] if s == PLOTTED else []))
            for s, e in SIMULATE_EPISODES.items()
        ]

    def checks(self, ml, outputs):
        for s, e in SIMULATE_EPISODES.items():
            op = f"simulate_{s}"
            yield op, lambda s=s, e=e, op=op: _check_simulate(self, ml, s, e, self.out / op)


class ComparePublic(Workload):
    name = "compare-public"
    scenarios = ("four_state_cascade",)

    def setup(self, ml):
        super().setup(ml)
        self.duplicated = ml.scenario.scenario_from_dict(duplicated_state_doc(self.seed))

    def ops(self):
        return [
            self.cli("compare_four_state_cascade", "compare", "four_state_cascade", out=True,
                     episodes=2 * COMPARE_EPISODES, extra=["--episodes", str(COMPARE_EPISODES)]),
            LibOp("public_duplicated_state", lambda ml: ml.simulate.run_episodes(self.duplicated)),
        ]

    def checks(self, ml, outputs):
        yield "compare_four_state_cascade", lambda: _check_compare(self, ml)
        yield "public_duplicated_state", lambda: _check_duplicated(self, outputs["public_duplicated_state"])


class Analysis(Workload):
    name = "analysis"
    scenarios = SCENARIOS

    def setup(self, ml):
        # The checkers are what this workload runs, so they (and scipy) are
        # part of its set-up even if the CLI stops importing them eagerly.
        importlib.import_module("market_learn.conditions")
        super().setup(ml)

    def ops(self):
        ops = []
        for s in SCENARIOS:
            ops.append(self.cli(f"check_{s}", "check", s, extra=["--azc-delta", "0.1"]))
            ops.append(self.cli(f"cascade_scan_{s}", "cascade-scan", s))
            ops.append(self.cli(f"quotes_{s}", "quotes", s))
        ops.append(self.cli("verify_random", "verify", extra=["--trials", str(VERIFY_TRIALS)]))
        ops.append(self.cli("verify_four_state_cascade", "verify", "four_state_cascade",
                            extra=["--trials", str(VERIFY_TRIALS)]))
        return ops

    def checks(self, ml, outputs):
        import checks as c
        for s in SCENARIOS:
            t = c.Table.from_file(self.scenario_path(s))
            yield f"check_{s}", lambda t=t, s=s: c.check_verdicts(
                t, json.loads(outputs[f"check_{s}"]), audit_passes=s != "four_state_cascade")
            yield f"cascade_scan_{s}", lambda t=t, s=s: c.check_cascade_scan(
                t, json.loads(outputs[f"cascade_scan_{s}"]),
                expect_uniform=s == "four_state_cascade", expect_none=s == "binary_symmetric")
            yield f"quotes_{s}", lambda t=t, s=s: _check_quotes(t, s, json.loads(outputs[f"quotes_{s}"]))
        for op in ("verify_random", "verify_four_state_cascade"):
            yield op, lambda op=op: c.check_verify(json.loads(outputs[op]))


WORKLOADS = {w.name: w for w in (SimulatePrivate, ComparePublic, Analysis)}


# --- checks that need the program to re-run episodes -------------------------

def _check_quotes(t, scenario, doc):
    import checks as c
    problems = c.check_quotes(t, doc)
    if scenario == "binary_symmetric" and not (abs(doc["ask"] - 0.68) <= 1e-12 and abs(doc["bid"] - 0.32) <= 1e-12):
        problems.append(f"binary quotes {doc['bid']}/{doc['ask']} are not 0.32/0.68")
    return problems


def _scenario_file_checks(doc, seed, episodes, mode=None) -> list:
    scenario = doc["scenario"]
    if scenario["seed"] != seed or scenario["episodes"] != episodes or (mode and scenario["mode"] != mode):
        return [f"run used seed {scenario['seed']}, {scenario['episodes']} episodes, mode {scenario['mode']}"]
    return []


def _check_simulate(w, ml, scenario, episodes, out_dir):
    import checks as c
    summary_doc = json.loads((out_dir / "summary.json").read_text())
    used = json.loads((out_dir / "scenario_used.json").read_text())
    rows = c.read_csv(out_dir / "episodes.csv")
    t = c.Table(summary_doc["scenario"])
    summary = summary_doc["summary"]
    problems = _scenario_file_checks(summary_doc, w.seed, episodes, "private")
    if used != summary_doc["scenario"]:
        problems.append("scenario_used.json differs from the scenario in summary.json")
    problems += c.check_summary_rows(t, summary, rows)
    if scenario == "four_state_cascade":
        problems += c.check_four_state_rows(t, rows)
    elif summary["learned_fraction"] < 0.95:
        problems.append(f"learned_fraction {summary['learned_fraction']} < 0.95 under PI")
    if scenario == PLOTTED:
        shown = min(episodes, 50)
        for svg, lines in (("price_paths.svg", shown), ("belief_on_truth.svg", shown), ("learned_fraction.svg", 1)):
            if (out_dir / svg).read_text().count("<polyline") != lines:
                problems.append(f"{svg} does not hold {lines} polylines")

    config = w.configs[scenario].with_overrides(mode="private", episodes=episodes, seed=w.seed)
    audited = skipped = 0
    for i in range(AUDITED_EPISODES):
        r = ml.simulate.run_private_episode(config, i)
        found, a, k = c.audit_private_path(t, r.price_path, r.belief_path, r.cascade_time)
        audited, skipped = audited + a, skipped + k
        problems += found
        problems += c.check_freeze(t, r.price_path, r.belief_path, r.cascade_time)
        problems += c.check_episode_row(rows[i], r.price_path, r.belief_path, r.cascade_time)
        if scenario == "four_state_cascade":
            problems += c.check_four_state_path(t, r.price_path, r.cascade_time)
    w.notes[f"{scenario}.audited_periods"] = audited
    w.notes[f"{scenario}.skipped_periods"] = skipped
    return problems


def _check_compare(w, ml):
    import checks as c
    out_dir = w.out / "compare_four_state_cascade"
    doc = json.loads((out_dir / "comparison.json").read_text())
    t = c.Table(doc["scenario"])
    comparison = doc["comparison"]
    problems = _scenario_file_checks(doc, w.seed, COMPARE_EPISODES)
    rows = {}
    for mode in ("private", "public"):
        rows[mode] = c.read_csv(out_dir / f"episodes_{mode}.csv")
        problems += c.check_summary_rows(t, comparison[mode], rows[mode])
    problems += c.check_four_state_rows(t, rows["private"])
    confident = sum(float(r["final_belief_on_truth"]) > 0.99 for r in rows["public"])
    if confident < 0.95 * len(rows["public"]):
        problems.append(f"public mode: only {confident}/{len(rows['public'])} episodes above 0.99 on the truth")
    if comparison["nesting_ok"] is not True:
        problems.append("nesting_ok is false")

    base = w.configs["four_state_cascade"].with_overrides(episodes=COMPARE_EPISODES, seed=w.seed)
    for i in range(AUDITED_EPISODES):
        r = ml.simulate.run_private_episode(base.with_overrides(mode="private"), i)
        problems += c.check_four_state_path(t, r.price_path, r.cascade_time)
        problems += c.check_freeze(t, r.price_path, r.belief_path, r.cascade_time)
        problems += c.check_episode_row(rows["private"][i], r.price_path, r.belief_path, r.cascade_time)
        r = ml.simulate.run_public_episode(base.with_overrides(mode="public"), i)
        problems += c.audit_public_path(t, r.price_path, r.belief_path)
        problems += c.check_episode_row(rows["public"][i], r.price_path, r.belief_path, None)
    return problems


def _check_duplicated(w, results):
    import checks as c
    doc = duplicated_state_doc(w.seed)
    t = c.Table(doc)
    if len(results) != DUPLICATE_EPISODES:
        return [f"{len(results)} duplicated-state episodes returned, {DUPLICATE_EPISODES} requested"]
    problems = []
    for r in results:
        if r.belief_path.shape != (DUPLICATE_HORIZON + 1, 3):
            problems.append(f"episode {r.episode}: belief path shape {r.belief_path.shape}")
            continue
        problems += c.check_duplicate_ratio(r.belief_path, 0, 1, doc["prior"][0] / doc["prior"][1])
        problems += c.audit_public_path(t, r.price_path, r.belief_path)
    return problems
