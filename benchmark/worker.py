"""One fresh interpreter running one workload; started by run.py.

Set-up is `import market_learn.cli` plus `load_scenario` of the workload's
scenario files, after which the worker prints READY.  With --setup-only it
stops there.  Otherwise it runs whole rounds of the workload's operations,
one at a time, until --seconds have passed, checks the outputs of the first
round and that every later round emitted the same bytes, and prints one
JSON line with the measurements.

With --trace 1 the first half of the time runs untraced and the second half
traced, which gives the per-module numbers and the tracing overhead.
Only the standard library is imported before READY, so set-up time is the
program's own.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def load_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import market_learn.cli
    import_s = time.perf_counter() - start
    import market_learn
    if Path(market_learn.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"market_learn was imported from {market_learn.__file__}, not from {src}")
    ml = SimpleNamespace(cli=market_learn.cli, scenario=market_learn.scenario, simulate=market_learn.simulate)
    return ml, import_s


def run_round(ops, ml, state) -> tuple:
    """Run every operation once; returns (wall s, cpu s, outputs)."""
    outputs = {}
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    for op in ops:
        state["attempted"] += 1
        try:
            outputs[op.name] = op.run(ml)
        except Exception:
            state["failed"] += 1
            outputs[op.name] = None
            traceback.print_exc()
    return time.perf_counter() - wall0, cpu_seconds() - cpu0, outputs


def per_layer(rounds, requested, written, import_s, load_s, overhead_pct) -> dict:
    """Per-module metrics, averaged per traced round."""
    n = len(rounds)
    stats, counters = {}, {}
    for r in rounds:
        for name, (calls, total, own) in r["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for key, value in r["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    zero = (0, 0.0, 0.0)

    def calls(name):
        return stats.get(name, zero)[0] / n

    def ms(name):
        return 1e3 * stats.get(name, zero)[1] / n

    def per(value, base, scale=1e6):
        return scale * value / base if base else 0.0

    def us_per_call(name, own=False):
        c, total, self_time = stats.get(name, zero)
        return per(self_time if own else total, c)

    private = stats.get("simulate.run_private_episode", zero)
    public = stats.get("simulate.run_public_episode", zero)
    cli_run = counters.get("cli_episodes_run", 0.0) / n
    return {
        "engine.solve_quotes.calls": calls("engine.solve_quotes"),
        "engine.solve_quotes.us_per_call": us_per_call("engine.solve_quotes"),
        "engine.step_market.self_us_per_call": us_per_call("engine.step_market", own=True),
        "model.update_public_belief_on_action.us_per_call": us_per_call("model.update_public_belief_on_action"),
        "model.bayes_posterior.calls": calls("model.bayes_posterior"),
        "model.bayes_posterior.us_per_call": us_per_call("model.bayes_posterior"),
        "model.expectation.calls": calls("model.expectation"),
        "simulate.private.us_per_period": per(private[1], counters.get("private.periods", 0)),
        "simulate.private.us_per_stepped_period": per(private[1], counters.get("private.stepped", 0)),
        "simulate.stepped_periods": counters.get("private.stepped", 0.0) / n,
        "simulate.public.us_per_period": per(public[1], counters.get("public.periods", 0)),
        "simulate.episodes_run": (private[0] + public[0]) / n,
        "simulate.episodes_useful_ratio": requested / cli_run if cli_run else 1.0,
        "simulate.summarize_episodes.ms": ms("simulate.summarize_episodes"),
        "simulate.path_mb": counters.get("path_bytes", 0.0) / n / 2 ** 20,
        "conditions.azc_audit.ms": ms("conditions.azc_audit"),
        "conditions.scan_cascades.ms": ms("conditions.scan_cascades"),
        "conditions.find_cascade_beliefs.calls": calls("conditions.find_cascade_beliefs"),
        "conditions.is_mlrp.us_per_call": us_per_call("conditions.is_mlrp"),
        "verify.run_martingale_suite.ms": ms("verify.run_martingale_suite"),
        "market_learn.import.ms": 1e3 * import_s,
        "scenario.load_scenario.ms": 1e3 * load_s,
        "cli.self.ms": 1e3 * stats.get("cli.main", zero)[2] / n,
        "cli.bytes_written": written,
        "plots.emit_plots.ms": ms("plots.emit_plots"),
        "trace.overhead_pct": overhead_pct,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    out = OUT / args.workload
    workload = WORKLOADS[args.workload](ROOT, out, args.seed)
    ml, import_s = load_program()
    start = time.perf_counter()
    workload.setup(ml)
    load_s = time.perf_counter() - start
    print("READY", flush=True)
    if args.setup_only:
        return 0

    from tracing import Tracer

    shutil.rmtree(out, ignore_errors=True)

    ops = workload.ops()
    state = {"attempted": 0, "failed": 0}
    problems, digests, first = [], None, None
    plain, traced = [], []
    tracer = Tracer() if args.trace else None
    begin = time.perf_counter()
    untraced_until = begin + (args.seconds / 2 if tracer else args.seconds)
    while True:
        tracing = tracer is not None and bool(plain) and time.perf_counter() >= untraced_until
        if tracing and not traced:
            tracer.install()
        wall, cpu, outputs = run_round(ops, ml, state)
        round_digests = {op.name: op.digest(outputs[op.name]) for op in ops if outputs[op.name] is not None}
        if first is None:
            first, digests = outputs, round_digests
        elif round_digests != digests:
            problems.append("a later round emitted different output than the first")
        if tracing:
            traced.append(dict(tracer.take_round(), wall=wall))
        else:
            plain.append({"wall": wall, "cpu": cpu})
        if time.perf_counter() - begin >= args.seconds and (tracer is None or traced):
            break
    rss = peak_rss_mb()
    if tracer:
        tracer.uninstall()
        out.mkdir(parents=True, exist_ok=True)
        tracer.write(out / "trace.json")

    for op_name, check in workload.checks(ml, first):
        if first.get(op_name) is None:
            continue  # the operation failed; it is counted in `failed`
        try:
            problems += [f"{op_name}: {p}" for p in check()]
        except Exception:
            problems.append(f"{op_name}: check raised {traceback.format_exc()}")
    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    if workload.notes:
        print(f"audit notes {json.dumps(workload.notes, sort_keys=True)}", file=sys.stderr)

    result = {
        "attempted": state["attempted"],
        "failed": state["failed"],
        "correct": not problems,
        "rounds": len(plain) + len(traced),
        "wall_s": statistics.median(r["wall"] for r in plain),
        "cpu_s": statistics.median(r["cpu"] for r in plain),
        "peak_rss_mb": rss,
    }
    if tracer:
        overhead = 100.0 * (statistics.median(r["wall"] for r in traced) / result["wall_s"] - 1.0)
        requested = sum(op.episodes for op in ops)
        written = sum(d[1] for d in digests.values())
        result["per_layer"] = per_layer(traced, requested, written, import_s, load_s, overhead)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
