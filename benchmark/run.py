"""market-learn benchmark: one workload, one run, one JSON result line.

    python3 benchmark/run.py --workload simulate-private --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  The program is imported from ./src and
its scenarios read from ./scenarios; nothing is installed.  Each run starts
fresh interpreters only: set-up is measured SETUP_SAMPLES times in separate
processes (after one warm-up that lets Python write its bytecode cache) and
reported as the median, then one worker process runs the workload for
--seconds in a closed loop, one operation at a time.  MARKET_LEARN_THREADS
is removed from the environment so the program's default worker count is
what gets measured.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-module
metrics from a traced run.  The last line of standard output is
{"correct", "attempted", "failed", "metrics"}.  Any failure to run exits
non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("MARKET_LEARN_THREADS", None)
    env.pop("PYTHONPATH", None)
    return env


def remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise RunFailed("run exceeded its deadline")
    return left


def communicate(proc, start):
    try:
        return proc.communicate(timeout=remaining(start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("worker exceeded the run deadline")


def setup_seconds(cmd, start) -> float:
    """Fresh interpreter to READY, in one new process."""
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - begin
    communicate(proc, start)
    if line.strip() != "READY" or proc.returncode != 0:
        raise RunFailed(f"set-up failed (exit {proc.returncode})")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for needed in ("BENCHMARK.json", "src/market_learn/cli.py", "scenarios/four_state_cascade.json"):
        if not (ROOT / needed).is_file():
            print(f"benchmark: {needed} is missing; run from a market-learn source tree", file=sys.stderr)
            return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    start = time.perf_counter()
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload]
    try:
        metrics = {}
        if not args.trace:
            setup_seconds(worker + ["--setup-only"], start)
            samples = [setup_seconds(worker + ["--setup-only"], start) for _ in range(SETUP_SAMPLES)]
            metrics["setup_s"] = statistics.median(samples)
        proc = subprocess.Popen(
            worker + ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
        out, _ = communicate(proc, start)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2 or lines[0] != "READY":
            raise RunFailed(f"worker failed (exit {proc.returncode})")
        result = json.loads(lines[-1])
    except RunFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3

    if args.trace:
        metrics, wanted = result["per_layer"], spec["per_layer"]
    else:
        metrics.update({k: result[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")})
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(f"benchmark: {args.workload} seed {args.seed}: {result['rounds']} rounds", file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
