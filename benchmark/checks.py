"""Output checks for the market-learn benchmark.

Nothing here imports ``market_learn``.  Each check either recomputes a result
from the scenario table with numpy alone (the quote oracle enumerates every
buy and sell set, the path audits replay the Bayes updates) or tests a
property the method must have.  Every check returns a list of problem
strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np

# The program's no-trade band around a quote: a signal trades only when its
# conditional value beats the quote by more than this.
BAND = 1e-9
# Private path audit: a period is skipped when a conditional value sits this
# close to a band edge (quote +/- BAND), where rounding could flip the side.
EDGE_TOL = 1e-12
# Belief transitions must match a replayed Bayes update to this (absolute).
BELIEF_TOL = 1e-12
# Quotes and transaction prices must match the oracle to this (absolute).
QUOTE_TOL = 1e-10
# At a freeze no signal may move the expectation by more than this.
FREEZE_TOL = 1e-8
# Duplicated-state belief ratio drift allowed at any step.
RATIO_TOL = 1e-12


class Table:
    """The parts of a scenario document the checks use, as arrays."""

    def __init__(self, doc: dict):
        structure = doc["structure"]
        self.values = np.asarray(structure["states"], dtype=float)
        self.labels = list(structure["signals"])
        self.likelihood = np.asarray(structure["likelihood"], dtype=float)
        self.prior = np.asarray(doc["prior"], dtype=float)
        self.eta = float(doc["eta"])
        self.tol = float(doc.get("convergence_tol", 0.1))

    @classmethod
    def from_file(cls, path) -> "Table":
        return cls(json.loads(Path(path).read_text()))


def conditional_values(t: Table, beliefs: np.ndarray):
    """E[w | s] for every signal and E[w], row by row."""
    b = np.atleast_2d(beliefs)
    joint = b @ t.likelihood
    return ((b * t.values) @ t.likelihood) / joint, b @ t.values


def oracle_quotes(t: Table, beliefs: np.ndarray, band: float = BAND) -> dict:
    """Zero-profit quotes by enumeration of all 2^m buy sets and sell sets.

    For a candidate set S the zero-profit quote is
    (eta/3 E[w] + (1-eta) sum_{s in S} E[w s]) / (eta/3 + (1-eta) f(S)).
    A set is consistent when every member beats the quote by more than the
    band and no other signal does; the lowest consistent ask and the highest
    consistent bid win.  Works row by row on a (T, n) belief array.
    """
    if not 0.0 < t.eta < 1.0:
        raise ValueError("the oracle covers 0 < eta < 1 only")
    b = np.atleast_2d(beliefs)
    m = t.likelihood.shape[1]
    mass_sig = b @ t.likelihood
    pay_sig = (b * t.values) @ t.likelihood
    v = pay_sig / mass_sig
    exp_val = b @ t.values
    masks = np.array([[(k >> j) & 1 for j in range(m)] for k in range(2 ** m)], dtype=bool)
    noise, informed = t.eta / 3.0, 1.0 - t.eta
    q = (noise * exp_val[:, None] + informed * (pay_sig @ masks.T)) / (
        noise + informed * (mass_sig @ masks.T))
    diff = v[:, None, :] - q[:, :, None]
    inc = masks[None, :, :]
    ask_ok = np.all(np.where(inc, diff > band, diff <= band), axis=2)
    bid_ok = np.all(np.where(inc, -diff > band, -diff <= band), axis=2)
    k_ask = np.argmin(np.where(ask_ok, q, np.inf), axis=1)
    k_bid = np.argmax(np.where(bid_ok, q, -np.inf), axis=1)
    rows = np.arange(b.shape[0])
    return {
        "ask": q[rows, k_ask],
        "bid": q[rows, k_bid],
        "buy": masks[k_ask],
        "sell": masks[k_bid],
        "found": ask_ok.any(axis=1) & bid_ok.any(axis=1),
        "values": v,
        "expectation": exp_val,
    }


# --- quotes -----------------------------------------------------------------

def check_quotes(t: Table, doc: dict) -> list:
    """`market-learn quotes` output against the oracle at the prior."""
    o = oracle_quotes(t, t.prior)
    problems = []
    if not o["found"][0]:
        return ["oracle found no consistent quote at the prior"]
    for key in ("ask", "bid"):
        if not abs(doc[key] - o[key][0]) <= QUOTE_TOL:
            problems.append(f"{key} {doc[key]!r} != oracle {o[key][0]!r}")
    expected = {
        label: "B" if o["buy"][0][j] else "S" if o["sell"][0][j] else "NT"
        for j, label in enumerate(t.labels)
    }
    if doc["partition"] != expected:
        problems.append(f"partition {doc['partition']} != oracle {expected}")
    cascade = not (o["buy"][0].any() or o["sell"][0].any())
    if doc["cascade"] != cascade:
        problems.append(f"cascade flag {doc['cascade']} != oracle {cascade}")
    return problems


# --- private and public paths ------------------------------------------------

def audit_private_path(t: Table, prices, beliefs, freeze) -> tuple:
    """Replay every stepped transition of a private-mode path.

    Before the freeze, each transition must equal one of the three Bayes
    action updates b'(w) ~ b(w) (eta/3 + (1-eta) f(S_a | w)) at the oracle's
    partition, with the price set to the ask on a buy, the bid on a sell and
    the previous price on no trade.  A period is skipped, and counted, when
    the oracle finds no partition that satisfies the band rule (near a
    vertex the program then returns one that breaks it) or when a
    conditional value lies within EDGE_TOL of a band edge.

    Returns (problems, audited, skipped).
    """
    prices = np.asarray(prices)
    beliefs = np.asarray(beliefs)
    stop = len(prices) - 1 if freeze is None else int(freeze)
    if stop == 0:
        return [], 0, 0
    b, nxt = beliefs[:stop], beliefs[1:stop + 1]
    o = oracle_quotes(t, b)
    v = o["values"]
    clear = o["found"] & np.all(
        (np.abs(v - o["ask"][:, None] - BAND) > EDGE_TOL)
        & (np.abs(o["bid"][:, None] - v - BAND) > EDGE_TOL), axis=1)
    no_trade = ~(o["buy"] | o["sell"])
    ok = np.zeros(stop, dtype=bool)
    for members, price in ((o["buy"], o["ask"]), (o["sell"], o["bid"]), (no_trade, prices[:stop])):
        like = t.eta / 3.0 + (1.0 - t.eta) * (members.astype(float) @ t.likelihood.T)
        cand = b * like
        cand /= cand.sum(axis=1, keepdims=True)
        belief_ok = np.max(np.abs(cand - nxt), axis=1) <= BELIEF_TOL
        price_ok = np.abs(prices[1:stop + 1] - price) <= QUOTE_TOL
        ok |= belief_ok & price_ok
    bad = np.flatnonzero(clear & ~ok)
    problems = [f"period {int(p)}: transition matches no action update" for p in bad[:5]]
    return problems, int(clear.sum()), int((~clear).sum())


def check_freeze(t: Table, prices, beliefs, freeze) -> list:
    """At the freeze no signal moves the expectation, and the path is
    constant from there on."""
    if freeze is None:
        return []
    freeze = int(freeze)
    prices = np.asarray(prices)
    beliefs = np.asarray(beliefs)
    v, e = conditional_values(t, beliefs[freeze])
    problems = []
    movement = float(np.max(np.abs(v - e[:, None])))
    if not movement <= FREEZE_TOL:
        problems.append(f"freeze at {freeze}: a signal moves the expectation by {movement:.3g}")
    if not (np.all(prices[freeze:] == prices[freeze]) and np.all(beliefs[freeze:] == beliefs[freeze])):
        problems.append(f"path moves after the freeze at {freeze}")
    return problems


def audit_public_path(t: Table, prices, beliefs) -> list:
    """Each public-mode step leaves the belief unchanged or applies one
    single-signal Bayes update, and the price is the expectation."""
    prices = np.asarray(prices)
    beliefs = np.asarray(beliefs)
    b, nxt = beliefs[:-1], beliefs[1:]
    same = np.all(b == nxt, axis=1)
    cand = b[:, None, :] * t.likelihood.T[None, :, :]
    cand /= cand.sum(axis=2, keepdims=True)
    updated = np.any(np.max(np.abs(cand - nxt[:, None, :]), axis=2) <= BELIEF_TOL, axis=1)
    problems = [f"period {int(p)}: belief step is no single-signal update"
                for p in np.flatnonzero(~(same | updated))[:5]]
    gap = np.abs(prices - beliefs @ t.values)
    if not np.all(gap <= QUOTE_TOL):
        problems.append(f"price differs from the expectation by {float(np.nanmax(gap)):.3g}")
    return problems


def check_duplicate_ratio(beliefs, i: int, j: int, prior_ratio: float) -> list:
    """Two states with identical rows keep their prior belief ratio."""
    beliefs = np.asarray(beliefs)
    with np.errstate(divide="ignore", invalid="ignore"):
        drift = np.abs(beliefs[:, i] / beliefs[:, j] - prior_ratio)
    if np.all(drift <= RATIO_TOL):
        return []
    return [f"duplicated-state ratio drifts by {float(np.nanmax(drift)):.3g} (or is NaN)"]


# --- analytic four-state result ---------------------------------------------

def four_state_expected(t: Table) -> dict:
    """From the table alone: every posterior expectation at the prior equals
    the prior expectation, so the market cascades at period 0, the price
    stays there and no state lies within the convergence tolerance of it."""
    v, e = conditional_values(t, t.prior)
    price = float(e[0])
    return {
        "cascade_at_prior": bool(np.all(v == price)),
        "price": price,
        "learned_fraction": float(t.prior[np.abs(t.values - price) < t.tol].sum()),
    }


def check_four_state_rows(t: Table, rows: list) -> list:
    want = four_state_expected(t)
    problems = []
    if not want["cascade_at_prior"] or want["price"] != 1.5 or want["learned_fraction"] != 0.0:
        problems.append(f"table does not give the analytic four-state result: {want}")
    for r in rows:
        if float(r["final_price"]) != want["price"] or r["cascade_time"] != "0" or r["learned"] != "0":
            problems.append(f"episode {r['episode']}: {r} breaks the analytic four-state result")
            break
    return problems


def check_four_state_path(t: Table, prices, freeze) -> list:
    want = four_state_expected(t)
    if freeze != 0 or not np.all(np.asarray(prices) == want["price"]):
        return [f"four-state path is not flat at {want['price']} from period 0"]
    return []


# --- summaries and CSV files ------------------------------------------------

def read_csv(path) -> list:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_summary_rows(t: Table, summary: dict, rows: list) -> list:
    """A summary block must follow from its episode CSV rows.

    The ``true_state`` column is read as a state index; on the shipped
    scenarios index and value coincide.
    """
    problems = []
    n = len(rows)
    if summary["episodes"] != n or [int(r["episode"]) for r in rows] != list(range(n)):
        return [f"summary counts {summary['episodes']} episodes, CSV has {n} rows"]
    state = np.array([int(float(r["true_state"])) for r in rows])
    price = np.array([float(r["final_price"]) for r in rows])
    learned = np.array([int(r["learned"]) for r in rows])
    cascaded = np.array([r["cascade_time"] != "" for r in rows])
    error = np.abs(price - t.values[state])
    if not np.array_equal(learned, (error < t.tol).astype(int)):
        problems.append("learned column disagrees with |final_price - value| < tol")
    expected = {
        "learned_fraction": learned.mean(),
        "cascade_fraction": cascaded.mean(),
        "mean_abs_price_error": error.mean(),
    }
    for key, value in expected.items():
        if not abs(summary[key] - value) <= 1e-12:
            problems.append(f"summary {key} {summary[key]!r} != {value!r} from the CSV")
    per_state = {}
    for i in range(len(t.values)):
        mask = state == i
        if mask.any():
            per_state[i] = (int(mask.sum()), learned[mask].mean(), cascaded[mask].mean(), error[mask].mean())
    got = {s["state_index"]: (s["episodes"], s["learned_fraction"], s["cascade_fraction"],
                              s["mean_abs_price_error"]) for s in summary["per_state"]}
    if set(got) != set(per_state) or any(
            got[i][0] != per_state[i][0] or max(abs(a - b) for a, b in zip(got[i][1:], per_state[i][1:])) > 1e-12
            for i in per_state):
        problems.append("per-state breakdown disagrees with the CSV")
    return problems


def check_episode_row(row: dict, price_path, belief_path, freeze) -> list:
    """A re-run episode must reproduce its CSV row (``true_state`` read as
    a state index)."""
    final_price = float(np.asarray(price_path)[-1])
    final_truth = float(np.asarray(belief_path)[-1][int(float(row["true_state"]))])
    cascade = "" if freeze is None else str(freeze)
    if (float(row["final_price"]) != final_price or float(row["final_belief_on_truth"]) != final_truth
            or row["cascade_time"] != cascade):
        return [f"episode {row['episode']}: CSV row {row} does not match the re-run episode"]
    return []


# --- condition verdicts and cascade scans -----------------------------------

def pairwise_informative(t: Table, tol: float = 1e-9) -> bool:
    rows = t.likelihood
    return all(np.abs(rows[i] - rows[j]).max() > tol
               for i, j in itertools.combinations(range(len(rows)), 2))


def mlrp(t: Table, strict: bool) -> bool:
    rows = t.likelihood.tolist()
    n, m = len(rows), len(rows[0])
    for (lo, hi) in itertools.combinations(range(n), 2):
        for (sl, sh) in itertools.combinations(range(m), 2):
            margin = rows[lo][sl] * rows[hi][sh] - rows[hi][sl] * rows[lo][sh]
            if margin < 0 or (strict and margin <= 0):
                return False
    return True


def check_verdicts(t: Table, doc: dict, audit_passes: bool) -> list:
    """`market-learn check --azc-delta` against the benchmark's own row and
    quadruple enumeration; the audit verdict is known per scenario."""
    problems = []
    mine = {
        "pairwise_informative": pairwise_informative(t),
        "mlrp_weak": mlrp(t, strict=False),
        "mlrp_strict": mlrp(t, strict=True),
    }
    v, e = conditional_values(t, t.prior)
    mine["cascade_at_prior"] = bool(np.max(np.abs(v - e[:, None])) <= 1e-9)
    for key, holds in mine.items():
        if doc[key]["holds"] != holds:
            problems.append(f"{key}: program says {doc[key]['holds']}, enumeration says {holds}")
    audit = doc["movement_audit"]
    if audit["verdict"] != ("pass" if audit_passes else "fail"):
        problems.append(f"movement audit verdict {audit['verdict']!r}")
    if not audit_passes:
        worst = np.asarray(audit["worst_belief"] or [np.nan])
        if audit["min_max_movement"] > 1e-9 or not np.allclose(worst, 1.0 / len(t.values), atol=1e-6):
            problems.append(f"failing audit's worst belief {audit['worst_belief']} is not near uniform")
    return problems


def check_cascade_scan(t: Table, doc: dict, expect_uniform: bool, expect_none: bool) -> list:
    """Every reported cascade belief has all posterior expectations at its
    target; the four-state table yields the uniform belief at 1.5 and the
    binary table yields no full-support cascade."""
    problems = []
    found = 0
    uniform_seen = False
    for entry in doc["candidates"]:
        c = entry["target_expectation"]
        for weights in entry["beliefs"]:
            b = np.asarray(weights)
            v, _ = conditional_values(t, b)
            if not (abs(b.sum() - 1.0) <= 1e-12 and np.all(b > 0) and np.all(np.abs(v - c) <= 1e-9)):
                problems.append(f"belief {weights} at c={c} is no full-support cascade belief")
            if abs(c - 1.5) <= 1e-9 and np.allclose(b, 1.0 / len(b), atol=1e-6):
                uniform_seen = True
        found += bool(entry["beliefs"])
    if doc["full_support_cascades"] != found:
        problems.append(f"full_support_cascades {doc['full_support_cascades']} != {found} listed")
    if expect_uniform and not uniform_seen:
        problems.append("uniform cascade belief at c = 1.5 missing")
    if expect_none and found:
        problems.append(f"{found} full-support cascades reported for a binary PI table")
    return problems


def check_verify(doc: dict) -> list:
    """The one-step identity suite: four hard checks, each within its
    tolerance.  The benchmark's inputs (no scenario, or n = 4) admit no
    statistical check."""
    problems = []
    names = sorted(c["check_name"] for c in doc["hard_checks"])
    if names != ["belief_martingale", "likelihood_ratio_martingale", "price_directions", "price_martingale"]:
        problems.append(f"unexpected hard checks {names}")
    for c in doc["hard_checks"]:
        if not (c["pass"] and c["max_abs_deviation"] <= c["tolerance"] <= 1e-10):
            problems.append(f"hard check {c['check_name']} failed: {c['max_abs_deviation']!r}")
    if doc["statistical_checks"] or doc["passed"] is not True:
        problems.append("verify report has the wrong statistical checks or verdict")
    return problems
