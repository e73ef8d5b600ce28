"""Command-line front end: scenario loading, subcommand dispatch, and
CSV/JSON/SVG emission.

Exit codes: 0 on success, 1 on usage or validation problems, 2 when the
verification suite finds a hard-check failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .conditions import (azc_audit, find_cascade_beliefs, is_cascade_belief, is_mlrp, is_pairwise_informative,
                         scan_cascades)
from .engine import solve_quotes
from .errors import MarketLearnError, PreconditionFailed
from .plots import checked_thin, emit_plots
from .scenario import load_scenario, save_scenario, scenario_to_dict, to_json
from .simulate import compare_modes, run_episodes, summarize_episodes
from .verify import check_limit_support_3state, run_martingale_suite

__all__ = ["main", "entrypoint", "build_parser"]


_FLAGS = {
    "output": dict(default=".", help="directory for emitted files"),
    "episodes": dict(type=int, help="override episode count"),
    "horizon": dict(type=int, help="override horizon"),
    "eta": dict(type=float, help="override noise rate"),
    "mode": dict(choices=("private", "public"), help="override market mode"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="market-learn",
        description="Sequential-trade market simulator and learning-condition checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help, *flags, scenario_required=True):
        # each subcommand takes only the flags its handler reads
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--scenario", required=scenario_required, help="scenario JSON file")
        p.add_argument("--seed", type=int, help="override seed")
        p.add_argument("--json-errors", action="store_true", help="report errors as JSON on stderr")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        return p

    p_check = add_command("check", _cmd_check, "run the signal-structure condition checkers")
    p_check.add_argument("--tol", type=float, default=1e-9, help="equality tolerance for the checkers")
    p_check.add_argument("--azc-delta", type=float, default=None,
                         help="also run the movement audit with this mispricing delta")

    add_command("quotes", _cmd_quotes, "solve quotes and the signal partition at the prior", "eta")

    p_sim = add_command("simulate", _cmd_simulate, "run a Monte Carlo batch and emit CSV + summary JSON",
                        "output", "episodes", "horizon", "eta", "mode")
    p_sim.add_argument("--plots", action="store_true", help="emit SVG charts")
    p_sim.add_argument("--thin", type=int, default=10, help="plot every k-th period")

    p_cmp = add_command("compare", _cmd_compare, "run both market modes on shared draws",
                        "output", "episodes", "horizon", "eta")
    p_cmp.add_argument("--slack", type=float, default=0.05,
                       help="statistical slack for the learning containment check")

    p_scan = add_command("cascade-scan", _cmd_cascade_scan,
                         "locate cascade beliefs at each state value and gap midpoint")
    p_scan.add_argument("--c", type=float, default=None, help="probe a single target expectation")
    p_scan.add_argument("--tol", type=float, default=1e-9, help="cascade residual tolerance")

    p_verify = add_command("verify", _cmd_verify, "run the one-step identity suite (exit 2 on failure)",
                           "horizon", "eta", scenario_required=False)
    p_verify.add_argument("--trials", type=int, default=1000, help="randomized states per check")

    return parser


def _fail(message: str, json_errors: bool) -> int:
    if json_errors:
        print(to_json({"error": message}, indent=None), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)
    return 1


def _apply_overrides(config, args):
    """``config`` with every field that has a parsed flag of its name replaced by the flag's value."""
    overrides = {f.name: getattr(args, f.name, None) for f in fields(config)}
    return config.with_overrides(**{key: value for key, value in overrides.items() if value is not None})


def _write_episode_csv(run, config, path: Path) -> None:
    cascade = ["" if t < 0 else t for t in run.cascade_time.tolist()]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["episode", "true_state", "final_price", "final_belief_on_truth", "cascade_time", "learned"]
        )
        writer.writerows(zip(run.episode.tolist(), run.true_state.tolist(), run.final_price.tolist(),
                             run.final_belief_on_truth.tolist(), cascade,
                             run.learned(config.convergence_tol).astype(int).tolist()))


def _cmd_check(args, config) -> int:
    structure = config.structure
    report = {
        "pairwise_informative": asdict(is_pairwise_informative(structure, tol=args.tol)),
        "mlrp_weak": asdict(is_mlrp(structure, strict=False)),
        "mlrp_strict": asdict(is_mlrp(structure, strict=True)),
        "cascade_at_prior": asdict(is_cascade_belief(structure, config.prior, tol=args.tol)),
    }
    if args.azc_delta is not None:
        report["movement_audit"] = azc_audit(structure, delta=args.azc_delta,
                                             movement_tol=args.tol).as_dict()
    print(to_json(report))
    return 0


def _cmd_quotes(args, config) -> int:
    quotes, partition = solve_quotes(config.prior, config.structure, config.eta)
    print(to_json({
        "bid": quotes.bid,
        "ask": quotes.ask,
        "partition": partition.assignment(config.structure.signals),
        "cascade": partition.all_no_trade,
    }))
    return 0


def _cmd_simulate(args, config) -> int:
    thin = checked_thin(args.thin) if args.plots else None
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = run_episodes(config, paths=args.plots)
    summary = summarize_episodes(results, config)

    _write_episode_csv(results, config, out_dir / "episodes.csv")
    (out_dir / "summary.json").write_text(
        to_json({"scenario": scenario_to_dict(config), "summary": asdict(summary)}) + "\n")
    save_scenario(config, out_dir / "scenario_used.json")
    if args.plots:
        emit_plots(results, out_dir, convergence_tol=config.convergence_tol, thin=thin)

    print(f"{config.episodes} episodes ({config.mode}): learned_fraction={summary.learned_fraction:.4f} "
          f"cascade_fraction={summary.cascade_fraction:.4f} -> {out_dir}")
    return 0


def _cmd_compare(args, config) -> int:
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)

    comparison = compare_modes(config, slack=args.slack)
    _write_episode_csv(comparison.private_episodes, config, out_dir / "episodes_private.csv")
    _write_episode_csv(comparison.public_episodes, config, out_dir / "episodes_public.csv")
    (out_dir / "comparison.json").write_text(
        to_json({"scenario": scenario_to_dict(config), "comparison": comparison.as_dict()}) + "\n")

    print(f"private learned_fraction={comparison.private.learned_fraction:.4f} "
          f"public learned_fraction={comparison.public.learned_fraction:.4f} "
          f"nesting_ok={comparison.nesting_ok}")
    return 0


def _cmd_cascade_scan(args, config) -> int:
    if args.c is not None:
        found = [find_cascade_beliefs(config.structure, args.c, tol=args.tol)]
    else:
        found = scan_cascades(config.structure, tol=args.tol)
    print(to_json({
        "candidates": [entry.as_dict() for entry in found],
        "full_support_cascades": sum(1 for entry in found if entry.beliefs),
    }))
    return 0


def _cmd_verify(args, config) -> int:
    # without a scenario --eta fixes the random suite's noise rate, the seed
    # defaults to 0 and --horizon is rejected
    structure, eta, seed = None, args.eta, 0 if args.seed is None else args.seed
    if config is not None:
        structure, eta, seed = config.structure, config.eta, config.seed
    elif args.horizon is not None:
        raise PreconditionFailed("horizon applies only to the statistical check, which needs --scenario")

    reports = run_martingale_suite(trials=args.trials, seed=seed, structure=structure, eta=eta)
    hard_failure = any(not r.passed for r in reports)

    statistical = None
    if structure is not None and structure.n_states <= 3 and is_pairwise_informative(structure).holds:
        statistical = check_limit_support_3state(structure, eta, trials=50, horizon=config.horizon, seed=seed)

    doc = {
        "hard_checks": [r.as_dict() for r in reports],
        "statistical_checks": [] if statistical is None else [statistical.as_dict()],
        "passed": not hard_failure,
    }
    print(to_json(doc))
    return 2 if hard_failure else 0


_PARSER = build_parser()  # parse_args leaves a parser unchanged, so main builds it once per process


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; report those as validation errors
        return 0 if exc.code == 0 else 1

    try:
        config = None if args.scenario is None else _apply_overrides(load_scenario(args.scenario), args)
        return args.handler(args, config)
    except (MarketLearnError, ValueError) as exc:
        return _fail(str(exc), args.json_errors)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
