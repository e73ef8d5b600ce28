import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from market_learn.cli import build_parser, main
from market_learn.errors import MissingResults, PreconditionFailed
from market_learn.model import Belief
from market_learn import plots
from market_learn.plots import emit_plots, svg_line_chart
from market_learn.presets import binary_symmetric
from market_learn.scenario import load_scenario, to_json
from market_learn.simulate import ScenarioConfig, run_episodes
from market_learn.verify import run_martingale_suite
from reference import reference_quotes

SHIPPED_SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

FOUR_STATE_SCENARIO = {
    "structure": {
        "states": [0.0, 1.0, 2.0, 3.0],
        "signals": ["s1", "s2", "s3", "s4"],
        "likelihood": [
            [0.3, 0.2, 0.2, 0.3],
            [0.1, 0.4, 0.3, 0.2],
            [0.4, 0.1, 0.3, 0.2],
            [0.2, 0.3, 0.2, 0.3],
        ],
    },
    "prior": [0.25, 0.25, 0.25, 0.25],
    "eta": 0.5,
    "mode": "private",
    "horizon": 200,
    "episodes": 5,
    "seed": 7,
    "convergence_tol": 0.1,
}

BINARY_SCENARIO = {
    "structure": {
        "states": [0.0, 1.0],
        "signals": ["l", "h"],
        "likelihood": [[0.8, 0.2], [0.2, 0.8]],
    },
    "prior": [0.5, 0.5],
    "eta": 0.5,
    "mode": "private",
    "horizon": 300,
    "episodes": 6,
    "seed": 3,
    "convergence_tol": 0.1,
}


@pytest.fixture
def four_state_file(tmp_path):
    path = tmp_path / "four_state.json"
    path.write_text(json.dumps(FOUR_STATE_SCENARIO))
    return path


@pytest.fixture
def binary_file(tmp_path):
    path = tmp_path / "binary.json"
    path.write_text(json.dumps(BINARY_SCENARIO))
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- check

def test_check_reports_conditions(capsys, four_state_file):
    code, out, _ = run_cli(capsys, "check", "--scenario", str(four_state_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["pairwise_informative"]["holds"] is True
    assert doc["mlrp_strict"]["holds"] is False
    assert doc["cascade_at_prior"]["holds"] is True


def test_check_with_movement_audit(capsys, four_state_file):
    code, out, _ = run_cli(capsys, "check", "--scenario", str(four_state_file), "--azc-delta", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["movement_audit"]["verdict"] == "fail"
    np.testing.assert_allclose(doc["movement_audit"]["worst_belief"], 0.25, atol=1e-6)


def _strict_json(text):
    """Parse as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_passing_movement_audit_is_strict_json(capsys, binary_file):
    code, out, _ = run_cli(capsys, "check", "--scenario", str(binary_file), "--azc-delta", "0.1")
    assert code == 0
    audit = _strict_json(out)["movement_audit"]
    assert audit["verdict"] == "pass"
    assert audit["min_max_movement"] is None


def test_main_parses_with_one_parser_and_no_flag_carries_over(capsys, monkeypatch, four_state_file):
    # main reuses the parser built at import; a flag given to one call must
    # not reach the next call
    import market_learn.cli as cli
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main built a parser"))
    first = run_cli(capsys, "check", "--scenario", str(four_state_file), "--azc-delta", "0.1")
    second = run_cli(capsys, "check", "--scenario", str(four_state_file))
    assert first[0] == second[0] == 0
    assert "movement_audit" in json.loads(first[1])
    assert "movement_audit" not in json.loads(second[1])


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ("check",),
    ("check", "--azc-delta", "0.1"),
    ("cascade-scan",),
    ("cascade-scan", "--c", "1.5"),
])
def test_negative_or_nan_tol_exits_one(capsys, four_state_file, argv, tol):
    code, out, err = run_cli(capsys, *argv, "--scenario", str(four_state_file), f"--tol={tol}")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "tol" in err


# ---------------------------------------------------------------- quotes

def test_quotes_binary(capsys, binary_file):
    code, out, _ = run_cli(capsys, "quotes", "--scenario", str(binary_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["bid"] == pytest.approx(0.32, abs=1e-12)
    assert doc["ask"] == pytest.approx(0.68, abs=1e-12)
    assert doc["partition"] == {"h": "B", "l": "S"}
    assert doc["cascade"] is False


def test_quotes_eta_override_collapses_spread(capsys, binary_file):
    code, out, _ = run_cli(capsys, "quotes", "--scenario", str(binary_file), "--eta", "1.0")
    assert code == 0
    doc = json.loads(out)
    assert doc["bid"] == doc["ask"] == pytest.approx(0.5)
    assert doc["cascade"] is True


@pytest.mark.parametrize("eta", ["0", None, "1"])
@pytest.mark.parametrize("name", ["binary_symmetric", "three_state_informative", "four_state_cascade"])
def test_quotes_match_the_scalar_oracle_on_shipped_scenarios(capsys, name, eta):
    # the closed-form ends eta 0 and 1 and the scenario's own eta
    scenario = SHIPPED_SCENARIOS / f"{name}.json"
    code, out, _ = run_cli(capsys, "quotes", "--scenario", str(scenario), *(("--eta", eta) if eta else ()))
    assert code == 0
    config = load_scenario(scenario)
    quotes, partition = reference_quotes(config.prior, config.structure, config.eta if eta is None else float(eta))
    assert json.loads(out) == {"bid": quotes.bid, "ask": quotes.ask,
                               "partition": partition.assignment(config.structure.signals),
                               "cascade": partition.all_no_trade}


# ---------------------------------------------------------------- simulate

def test_simulate_writes_csv_and_summary(capsys, binary_file, tmp_path):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "simulate", "--scenario", str(binary_file), "--output", str(out_dir)
    )
    assert code == 0
    csv_path = out_dir / "episodes.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "episode,true_state,final_price,final_belief_on_truth,cascade_time,learned"
    assert len(lines) == 1 + BINARY_SCENARIO["episodes"]
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["summary"]["episodes"] == BINARY_SCENARIO["episodes"]
    assert (out_dir / "scenario_used.json").exists()


def test_simulate_csv_true_state_is_a_state_index(capsys, tmp_path):
    doc = json.loads(json.dumps(BINARY_SCENARIO))
    doc["structure"]["states"] = [10.0, 20.0]
    scenario = tmp_path / "shifted.json"
    scenario.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(capsys, "simulate", "--scenario", str(scenario), "--output", str(out_dir))
    assert code == 0
    rows = (out_dir / "episodes.csv").read_text().strip().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} <= {"0", "1"}


def test_simulate_outputs_are_byte_identical_across_runs(capsys, binary_file, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out_dir in dirs:
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", str(binary_file), "--output", str(out_dir), "--plots"
        )
        assert code == 0
    for name in ("episodes.csv", "summary.json", "price_paths.svg",
                 "belief_on_truth.svg", "learned_fraction.svg"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_simulate_override_flags(capsys, binary_file, tmp_path):
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "simulate", "--scenario", str(binary_file), "--output", str(out_dir),
        "--episodes", "2", "--horizon", "50", "--seed", "9", "--mode", "public",
    )
    assert code == 0
    lines = (out_dir / "episodes.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    used = json.loads((out_dir / "scenario_used.json").read_text())
    assert used["episodes"] == 2 and used["horizon"] == 50 and used["seed"] == 9
    assert used["mode"] == "public"


def test_simulate_four_state_flat_price(capsys, four_state_file, tmp_path):
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "simulate", "--scenario", str(four_state_file), "--output", str(out_dir)
    )
    assert code == 0
    lines = (out_dir / "episodes.csv").read_text().strip().splitlines()[1:]
    for line in lines:
        fields = line.split(",")
        assert float(fields[2]) == 1.5  # final_price pinned at the prior expectation
        assert fields[4] == "0"         # cascade_time
        assert fields[5] == "0"         # not learned


# ---------------------------------------------------------------- compare

def test_compare_writes_paired_outputs(capsys, binary_file, tmp_path):
    out_dir = tmp_path / "cmp"
    code, out, _ = run_cli(
        capsys, "compare", "--scenario", str(binary_file), "--output", str(out_dir),
        "--horizon", "100",
    )
    assert code == 0
    doc = json.loads((out_dir / "comparison.json").read_text())
    assert set(doc["comparison"]) == {"private", "public", "slack", "nesting_ok"}
    assert (out_dir / "episodes_private.csv").exists()
    assert (out_dir / "episodes_public.csv").exists()


# ---------------------------------------------------------------- cascade scan

def test_cascade_scan_four_state(capsys, four_state_file):
    code, out, _ = run_cli(capsys, "cascade-scan", "--scenario", str(four_state_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["full_support_cascades"] > 0
    targets = [entry["target_expectation"] for entry in doc["candidates"] if entry["beliefs"]]
    assert any(abs(t - 1.5) < 1e-9 for t in targets)


def test_cascade_scan_single_target(capsys, binary_file):
    code, out, _ = run_cli(capsys, "cascade-scan", "--scenario", str(binary_file), "--c", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["full_support_cascades"] == 0


# ---------------------------------------------------------------- verify

def test_verify_passes_quickly(capsys, binary_file):
    code, out, _ = run_cli(
        capsys, "verify", "--scenario", str(binary_file), "--trials", "40", "--horizon", "500"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["hard_checks"]) == 4
    assert len(doc["statistical_checks"]) == 1  # n = 2 and pairwise informative


def test_verify_without_scenario(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True


def test_verify_eta_without_a_scenario_fixes_the_suite_noise_rate(capsys):
    code, out, _ = run_cli(capsys, "verify", "--eta", "0", "--trials", "20")
    assert code == 0
    expected = [r.as_dict() for r in run_martingale_suite(trials=20, seed=0, eta=0.0)]
    assert json.loads(out)["hard_checks"] == json.loads(to_json(expected))


def test_verify_horizon_without_a_scenario_exits_one(capsys):
    # only the statistical check has a horizon, and it needs a scenario
    code, out, err = run_cli(capsys, "verify", "--horizon", "50", "--trials", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "horizon" in err


@pytest.mark.parametrize("extra, horizon", [((), 2000), (("--horizon", "500"), 500)])
def test_verify_statistical_check_runs_at_the_scenario_horizon(capsys, extra, horizon):
    scenario = SHIPPED_SCENARIOS / "binary_symmetric.json"
    code, out, _ = run_cli(capsys, "verify", "--scenario", str(scenario), "--trials", "5", *extra)
    assert code == 0
    [statistical] = json.loads(out)["statistical_checks"]
    assert statistical["witness"]["horizon"] == horizon


@pytest.mark.parametrize("extra, seed", [((), 21), (("--seed", "3"), 3)])
def test_verify_seeds_both_checks_with_the_scenario_seed(capsys, extra, seed):
    # the shipped three_state_informative.json says seed 21; --seed overrides it
    scenario = SHIPPED_SCENARIOS / "three_state_informative.json"
    code, out, _ = run_cli(capsys, "verify", "--scenario", str(scenario), "--trials", "5", "--horizon", "300", *extra)
    assert code == 0
    doc = json.loads(out)
    assert {check["witness"]["seed"] for check in doc["hard_checks"]} == {seed}
    [statistical] = doc["statistical_checks"]
    assert statistical["witness"]["seed"] == seed


# ---------------------------------------------------------------- flags

COMMON_FLAGS = {"--scenario", "--seed", "--json-errors"}
COMMAND_FLAGS = {
    "check": COMMON_FLAGS | {"--tol", "--azc-delta"},
    "quotes": COMMON_FLAGS | {"--eta"},
    "simulate": COMMON_FLAGS | {"--output", "--episodes", "--horizon", "--eta", "--mode", "--plots", "--thin"},
    "compare": COMMON_FLAGS | {"--output", "--episodes", "--horizon", "--eta", "--slack"},
    "cascade-scan": COMMON_FLAGS | {"--c", "--tol"},
    "verify": COMMON_FLAGS | {"--horizon", "--eta", "--trials"},
}
OVERRIDE_VALUES = {"--output": "out", "--episodes": "2", "--horizon": "50", "--eta": "0.3", "--mode": "public"}
# each (subcommand, override) pair whose handler would not read the override
DROPPED_FLAGS = [(command, flag) for command, flags in COMMAND_FLAGS.items()
                 for flag in OVERRIDE_VALUES if flag not in flags]


def test_each_subcommand_declares_only_the_flags_it_reads():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    declared = {
        name: {o for action in sub._actions for o in action.option_strings if o not in ("-h", "--help")}
        for name, sub in commands.items()
    }
    assert declared == COMMAND_FLAGS
    assert {name: len(flags) for name, flags in declared.items()} == {
        "check": 5, "quotes": 4, "simulate": 10, "compare": 8, "cascade-scan": 5, "verify": 6,
    }
    assert sum(map(len, declared.values())) == 38
    assert len(DROPPED_FLAGS) == 18


@pytest.mark.parametrize("command, flag", DROPPED_FLAGS)
def test_a_flag_the_subcommand_does_not_read_exits_one(capsys, monkeypatch, binary_file, tmp_path,
                                                        command, flag):
    monkeypatch.chdir(tmp_path)
    argv = [command, "--scenario", str(binary_file), flag, OVERRIDE_VALUES[flag]]
    if command == "compare":
        argv += ["--output", "cmp"]
    before = sorted(tmp_path.rglob("*"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err
    assert sorted(tmp_path.rglob("*")) == before


# ---------------------------------------------------------------- error handling

def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_missing_scenario_file_exits_one(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", "--scenario", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error" in err.lower() or err


def test_json_errors_flag(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(BINARY_SCENARIO, extra_key=1)))
    code, _, err = run_cli(capsys, "check", "--scenario", str(bad), "--json-errors")
    assert code == 1
    doc = json.loads(err)
    assert "extra_key" in doc["error"]


def test_invalid_structure_in_scenario_exits_one(capsys, tmp_path):
    doc = json.loads(json.dumps(BINARY_SCENARIO))
    doc["structure"]["likelihood"] = [[0.9, 0.2], [0.2, 0.8]]
    bad = tmp_path / "badrows.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check", "--scenario", str(bad))
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("verify", "--trials", "0"),
])
def test_empty_runs_exit_one(capsys, binary_file, argv):
    # a suite of no trials checks nothing, so it must not report success
    code, out, err = run_cli(capsys, *argv, "--scenario", str(binary_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_verify_rejects_a_negative_seed(capsys):
    # without a scenario the seed goes straight to the randomized suite
    code, out, err = run_cli(capsys, "verify", "--seed", "-1", "--trials", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "seed" in err


def test_simulate_of_a_run_too_large_to_allocate_exits_one(capsys, binary_file, tmp_path):
    # 10**18 periods is 888 PiB of period codes, more than any overcommit
    # policy maps, so the failing allocation reserves nothing
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(binary_file), "--output", str(tmp_path / "sim"),
                             "--episodes", "1", "--horizon", str(10**18))
    assert code == 1
    assert out == ""
    assert err == "error: a run of 1 episodes x 1000000000000000000 periods does not fit in memory\n"


@pytest.mark.parametrize("thin", ["-5", "0"])
def test_simulate_plots_with_a_nonpositive_thin_exits_one(capsys, binary_file, tmp_path, thin):
    out_dir = tmp_path / "sim"
    code, out, err = run_cli(capsys, "simulate", "--scenario", str(binary_file), "--output", str(out_dir),
                             "--plots", "--thin", thin)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "thin" in err
    # thin is checked before anything is simulated or written
    assert not list(out_dir.glob("*"))


def test_check_with_an_infinite_azc_delta_exits_one(capsys, four_state_file):
    code, out, err = run_cli(capsys, "check", "--scenario", str(four_state_file), "--azc-delta", "inf")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "delta" in err


@pytest.mark.parametrize("slack", ["nan", "inf", "-0.1"])
def test_compare_with_a_bad_slack_exits_one(capsys, binary_file, tmp_path, slack):
    out_dir = tmp_path / "cmp"
    code, out, err = run_cli(capsys, "compare", "--scenario", str(binary_file), "--output", str(out_dir),
                             f"--slack={slack}")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "slack" in err
    assert not list(out_dir.glob("*"))


def test_verify_at_eta_zero_passes(capsys, binary_file):
    # in the shut market buy and sell have probability 0 and are skipped
    code, out, _ = run_cli(capsys, "verify", "--scenario", str(binary_file), "--eta", "0",
                           "--trials", "30", "--horizon", "50")
    assert code == 0
    doc = _strict_json(out)
    assert doc["passed"]
    assert all(check["pass"] for check in doc["hard_checks"])


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


# ---------------------------------------------------------------- plots

def test_emit_plots_requires_results(tmp_path):
    with pytest.raises(MissingResults):
        emit_plots([], tmp_path)


def test_emit_plots_polyline_counts(tmp_path):
    config = ScenarioConfig(
        structure=binary_symmetric(0.8),
        prior=Belief.uniform(2),
        eta=0.5,
        mode="private",
        horizon=100,
        episodes=10,
        seed=1,
    )
    results = run_episodes(config)
    written = emit_plots(results, tmp_path, convergence_tol=0.1, thin=5)
    price_svg = written["price_paths"].read_text()
    assert price_svg.count("<polyline") == 10
    learned_svg = written["learned_fraction"].read_text()
    assert learned_svg.count("<polyline") == 1
    assert (tmp_path / "belief_on_truth.svg").exists()


@pytest.mark.parametrize("thin", [2.5, "x", float("nan"), True, 0, -3])
def test_checked_thin_rejects_a_thin_that_is_not_a_positive_integer(thin):
    with pytest.raises(PreconditionFailed, match="thin must be an integer"):
        plots.checked_thin(thin)
    assert plots.checked_thin(np.int64(3)) == 3


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -0.1])
def test_emit_plots_rejects_a_convergence_tol_that_is_not_finite_and_positive(tmp_path, tol):
    config = ScenarioConfig(structure=binary_symmetric(0.8), prior=Belief.uniform(2), eta=0.5, mode="private",
                            horizon=20, episodes=2, seed=1)
    with pytest.raises(PreconditionFailed, match="convergence_tol"):
        emit_plots(run_episodes(config), tmp_path / "plots", convergence_tol=tol)
    assert not (tmp_path / "plots").exists()  # checked before anything is written


def _per_point_polylines(series):
    """The polyline points of svg_line_chart, scaled and formatted one point
    at a time."""
    xs_all = np.concatenate([np.asarray(xs, dtype=float) for xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = plots._WIDTH - plots._MARGIN_L - plots._MARGIN_R
    plot_h = plots._HEIGHT - plots._MARGIN_T - plots._MARGIN_B
    return [
        " ".join(f"{plots._MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w:.2f},"
                 f"{plots._MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h:.2f}"
                 for x, y in zip(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)))
        for xs, ys in series
    ]


def _random_series(seed):
    rng = np.random.default_rng(seed)
    return [(np.arange(0, 301, 3), rng.normal(0.0, 10.0 ** rng.integers(-3, 4), 101)) for _ in range(4)]


@pytest.mark.parametrize("series", [
    _random_series(1),
    _random_series(2),
    [(np.arange(5), np.full(5, 0.25))],  # y_hi == y_lo
    [(np.full(3, 7.0), np.array([0.1, 0.9, 0.4]))],  # x_hi == x_lo
    [([2.0], [0.6])],
], ids=["random_1", "random_2", "constant_y", "constant_x", "single_point"])
def test_svg_polylines_match_the_per_point_formatter(tmp_path, series):
    text = svg_line_chart(series, tmp_path / "chart.svg").read_text()
    assert re.findall(r'<polyline points="([^"]*)"', text) == _per_point_polylines(series)
