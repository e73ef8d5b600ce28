"""Show that the benchmark's output checks bite.

    python3 benchmark/selftest.py

Produces a small set of real outputs from ./src, confirms that each check
passes on them, then corrupts one value at a time (a price in a path, a CSV
row, a quote, ...) and confirms that the matching check fails.  Exits 0 only
when every check passes on clean output and fails on every corruption.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks as c  # noqa: E402
from market_learn import (  # noqa: E402
    cli, load_scenario, run_private_episode, run_public_episode, scenario_from_dict,
)
from workloads import duplicated_state_doc  # noqa: E402

OUT = HERE / "_out" / "selftest"
SCENARIOS = ROOT / "scenarios"


def run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.main(argv) != 0:
            raise SystemExit(f"selftest: {argv} failed")
    return buf.getvalue()


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    cases = []   # (name, problems on clean output, problems on corrupted output)

    # A path price: one stepped transition gets a price no action explains.
    three = c.Table.from_file(SCENARIOS / "three_state_informative.json")
    r = run_private_episode(load_scenario(SCENARIOS / "three_state_informative.json"), 0)
    clean = c.audit_private_path(three, r.price_path, r.belief_path, r.cascade_time)[0]
    prices = r.price_path.copy()
    prices[10] += 1e-3
    cases.append(("private path price", clean,
                  c.audit_private_path(three, prices, r.belief_path, r.cascade_time)[0]))

    # The freeze: the path moves after the freeze period.
    clean = c.check_freeze(three, r.price_path, r.belief_path, r.cascade_time)
    prices = r.price_path.copy()
    prices[-1] += 1e-6
    cases.append(("path after freeze", clean, c.check_freeze(three, prices, r.belief_path, r.cascade_time)))

    # The four-state flat price.
    four = c.Table.from_file(SCENARIOS / "four_state_cascade.json")
    r4 = run_private_episode(load_scenario(SCENARIOS / "four_state_cascade.json"), 0)
    prices = r4.price_path.copy()
    prices[5] = 1.5 + 1e-12
    cases.append(("four-state flat price", c.check_four_state_path(four, r4.price_path, r4.cascade_time),
                  c.check_four_state_path(four, prices, r4.cascade_time)))

    # A CSV row: one final price edited in episodes.csv.
    out = OUT / "simulate"
    run_cli(["simulate", "--scenario", str(SCENARIOS / "binary_symmetric.json"), "--episodes", "20",
             "--seed", "3", "--output", str(out)])
    doc = json.loads((out / "summary.json").read_text())
    binary = c.Table(doc["scenario"])
    rows = c.read_csv(out / "episodes.csv")
    clean = c.check_summary_rows(binary, doc["summary"], rows)
    rows[4]["final_price"] = str(float(rows[4]["final_price"]) + 0.5)
    with open(out / "episodes.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    cases.append(("CSV row", clean, c.check_summary_rows(binary, doc["summary"], c.read_csv(out / "episodes.csv"))))

    # A quote: the ask printed by `quotes` moved by 1e-6.
    quotes = json.loads(run_cli(["quotes", "--scenario", str(SCENARIOS / "binary_symmetric.json")]))
    bad = dict(quotes, ask=quotes["ask"] + 1e-6)
    cases.append(("quote", c.check_quotes(binary, quotes), c.check_quotes(binary, bad)))

    # A public path: one belief coordinate of the duplicated-state run nudged.
    dup_doc = duplicated_state_doc(5)
    dup = c.Table(dup_doc)
    rp = run_public_episode(scenario_from_dict(dict(dup_doc, horizon=500)), 0)
    beliefs = rp.belief_path.copy()
    beliefs[200, 0] *= 1.0 + 1e-9
    cases.append(("duplicated-state ratio", c.check_duplicate_ratio(rp.belief_path, 0, 1, 0.4),
                  c.check_duplicate_ratio(beliefs, 0, 1, 0.4)))
    beliefs = rp.belief_path.copy()
    beliefs[3] = beliefs[2] * np.array([1.0, 1.0, 1.0 + 1e-6])
    beliefs[3] /= beliefs[3].sum()
    cases.append(("public path step", c.audit_public_path(dup, rp.price_path, rp.belief_path),
                  c.audit_public_path(dup, rp.price_path, beliefs)))

    # A verdict and a cascade belief from `check` and `cascade-scan`.
    scenario = str(SCENARIOS / "four_state_cascade.json")
    check = json.loads(run_cli(["check", "--scenario", scenario, "--azc-delta", "0.1"]))
    bad = copy.deepcopy(check)
    bad["mlrp_weak"]["holds"] = True
    cases.append(("MLRP verdict", c.check_verdicts(four, check, audit_passes=False),
                  c.check_verdicts(four, bad, audit_passes=False)))
    scan = json.loads(run_cli(["cascade-scan", "--scenario", scenario]))
    bad = copy.deepcopy(scan)
    entry = next(e for e in bad["candidates"] if e["beliefs"])
    weights = entry["beliefs"][0]
    weights[0], weights[1] = weights[0] + 1e-4, weights[1] - 1e-4
    cases.append(("cascade belief", c.check_cascade_scan(four, scan, True, False),
                  c.check_cascade_scan(four, bad, True, False)))

    failures = 0
    for name, clean, corrupted in cases:
        bites = not clean and bool(corrupted)
        failures += not bites
        print(f"{'ok  ' if bites else 'FAIL'} {name}: clean {len(clean)} problems, corrupted -> "
              f"{corrupted[0] if corrupted else 'no problem found'}")
    print(f"{len(cases) - failures}/{len(cases)} checks pass clean output and fail corrupted output")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
