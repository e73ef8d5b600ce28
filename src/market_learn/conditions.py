"""Checkers for the learning conditions: pairwise informativeness, likelihood
ratio monotonicity, cascade beliefs, and a no-movement (Avery-Zemsky style)
audit.

The cascade machinery works at the belief level: a belief is a cascade point
for a structure when no signal moves the conditional expectation.  For a
target expectation ``c`` those beliefs are exactly the probability vectors in
the null space of the matrix ``M(c)[s, w] = f(s|w) (w - c)``, which is what
:func:`find_cascade_beliefs` solves.

The audit in :func:`azc_audit` is a numerical sweep, not a proof: it reports
the empirical floor of the expectation movement over a large audited belief
set.  A definition quantifying over *all* full-support beliefs cannot be
certified by finitely many evaluations; in particular the audit makes no
claim about a uniform lower bound epsilon, only about the beliefs it visited.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from .errors import NotPairwiseInformative, OutOfHull, PreconditionFailed
from .model import Belief, SignalStructure, expectation, posterior_values

__all__ = [
    "ConditionReport",
    "CascadeBeliefSet",
    "AzcAuditReport",
    "is_pairwise_informative",
    "find_crossing_signals",
    "is_mlrp",
    "is_cascade_belief",
    "find_cascade_beliefs",
    "scan_cascades",
    "azc_audit",
    "simplex_grid",
]

# Rank cutoff for the null-space extraction, relative to the largest
# singular value.
NULLSPACE_RCOND = 1e-10

# Weights below this floor are treated as boundary (not full support) when
# classifying numerically obtained cascade beliefs.
FULL_SUPPORT_FLOOR = 1e-9

# Above 4 states the movement audit replaces its simplex grid with a seeded
# Dirichlet sample of this many beliefs.
AUDIT_SAMPLE_COUNT = 100_000
AUDIT_SEED = 0


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of a yes/no condition check; ``witness`` carries the
    counterexample whenever ``holds`` is false."""

    holds: bool
    witness: Optional[dict] = None
    detail: str = ""

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("a failing report must carry a witness")

    def as_dict(self) -> dict:
        return {"holds": self.holds, "witness": self.witness, "detail": self.detail}


@dataclass(frozen=True)
class CascadeBeliefSet:
    """Solutions of the cascade system at one target expectation.

    ``beliefs`` holds representative *full-support* solutions (empty when the
    simplex intersection is empty or touches only the boundary);
    ``basis_dimension`` is the null-space dimension of the cascade matrix, an
    upper bound on the affine dimension of the full solution polytope.
    """

    target_expectation: float
    beliefs: tuple = ()
    basis_dimension: int = 0

    def as_dict(self) -> dict:
        return {
            "target_expectation": self.target_expectation,
            "beliefs": [list(map(float, b.weights)) for b in self.beliefs],
            "basis_dimension": self.basis_dimension,
        }


@dataclass(frozen=True)
class AzcAuditReport:
    delta: float
    grid_resolution: int
    worst_belief: Optional[Belief]
    min_max_movement: float
    verdict: str  # "pass" | "fail"
    audited: int = 0

    def as_dict(self) -> dict:
        return {
            "delta": self.delta,
            "grid_resolution": self.grid_resolution,
            "worst_belief": None if self.worst_belief is None else list(map(float, self.worst_belief.weights)),
            "min_max_movement": self.min_max_movement,
            "verdict": self.verdict,
            "audited": self.audited,
        }


def is_pairwise_informative(structure: SignalStructure, tol: float = 1e-9) -> ConditionReport:
    """Every pair of states must induce distinct signal distributions: the
    largest per-signal difference between the two rows must exceed ``tol``."""
    table = structure.likelihood
    values = structure.states.values
    for i, j in itertools.combinations(range(structure.n_states), 2):
        gap = float(np.abs(table[i] - table[j]).max())
        if gap <= tol:
            return ConditionReport(
                holds=False,
                witness={"state_pair": (i, j), "max_row_difference": gap},
                detail=(
                    f"states {values[i]} and {values[j]} generate signal distributions "
                    f"that agree within {tol}"
                ),
            )
    return ConditionReport(holds=True, detail="all state pairs have distinct signal distributions")


def find_crossing_signals(
    structure: SignalStructure,
    state_a: int,
    state_b: int,
    tol: float = 1e-9,
) -> tuple:
    """Signals on which the two state rows cross: returns labels ``(s1, s2)``
    with f(s1|a) > f(s1|b) and f(s2|a) < f(s2|b).

    Both directions exist whenever the rows differ at all, since each row
    sums to one.  Raises :class:`NotPairwiseInformative` when the rows agree
    within ``tol`` everywhere.
    """
    if state_a == state_b:
        raise PreconditionFailed(f"state indices must differ, got {state_a} twice")
    diff = structure.likelihood[state_a] - structure.likelihood[state_b]
    hi = int(np.argmax(diff))
    lo = int(np.argmin(diff))
    if diff[hi] <= tol or diff[lo] >= -tol:
        raise NotPairwiseInformative(state_a, state_b)
    labels = structure.signals.labels
    return labels[hi], labels[lo]


def is_mlrp(structure: SignalStructure, strict: bool = False) -> ConditionReport:
    """Monotone likelihood ratio check over all ordered quadruples.

    For signals sL < sH (space order) and states wL < wH the cross-product
    inequality f(sL|wL) f(sH|wH) >= f(sL|wH) f(sH|wL) must hold; in strict
    mode every inequality must be strict.  The witness is the quadruple with
    the largest margin violation.
    """
    table = structure.likelihood
    n, m = table.shape
    # margin[iL, iH, jL, jH] = f(sL|wL) f(sH|wH) - f(sL|wH) f(sH|wL)
    margin = (
        table[:, None, :, None] * table[None, :, None, :]
        - table[None, :, :, None] * table[:, None, None, :]
    )
    state_mask = np.tril(np.ones((n, n), dtype=bool), k=-1).T  # iL < iH
    signal_mask = np.tril(np.ones((m, m), dtype=bool), k=-1).T  # jL < jH
    mask = state_mask[:, :, None, None] & signal_mask[None, None, :, :]
    masked = np.where(mask, margin, np.inf)
    worst = float(masked.min())
    violated = worst < 0 or (strict and worst <= 0)
    if not violated:
        kind = "strict" if strict else "weak"
        return ConditionReport(holds=True, detail=f"{kind} likelihood-ratio monotonicity holds")

    iL, iH, jL, jH = np.unravel_index(int(np.argmin(masked)), masked.shape)
    labels = structure.signals.labels
    values = structure.states.values
    lhs = float(table[iL, jL] * table[iH, jH])
    rhs = float(table[iH, jL] * table[iL, jH])
    witness = {
        "signals": (labels[jL], labels[jH]),
        "states": (float(values[iL]), float(values[iH])),
        "products": (lhs, rhs),
    }
    op = "<" if lhs < rhs else "=="
    return ConditionReport(
        holds=False,
        witness=witness,
        detail=(
            f"f({labels[jL]}|{values[iL]}) f({labels[jH]}|{values[iH]}) = {lhs:.6g} "
            f"{op} {rhs:.6g} = f({labels[jL]}|{values[iH]}) f({labels[jH]}|{values[iL]})"
        ),
    )


def is_cascade_belief(structure: SignalStructure, belief: Belief, tol: float = 1e-9) -> ConditionReport:
    """A belief is a cascade point when no signal moves the conditional
    expectation by more than ``tol``."""
    exp_val = expectation(structure.states, belief)
    moves = np.abs(posterior_values(belief, structure) - exp_val)
    worst = int(np.argmax(moves))
    movement = float(moves[worst])
    if movement <= tol:
        return ConditionReport(holds=True, detail=f"max expectation movement {movement:.3g} <= {tol}")
    return ConditionReport(
        holds=False,
        witness={"signal": structure.signals.labels[worst], "movement": movement},
        detail=f"signal {structure.signals.labels[worst]!r} moves the expectation by {movement:.3g}",
    )


def _cascade_matrix(structure: SignalStructure, c: float) -> np.ndarray:
    # rows: signals, columns: states
    return (structure.likelihood * (structure.states.values - c)[:, None]).T


def _maxmin_support_lp(mat: np.ndarray):
    """Maximize the smallest coordinate over {x >= 0, sum x = 1, mat x = 0}.

    Returns (x, t) or (None, None) when the polytope is empty.
    """
    m, n = mat.shape
    cost = np.zeros(n + 1)
    cost[-1] = -1.0
    a_eq = np.zeros((m + 1, n + 1))
    a_eq[:m, :n] = mat
    a_eq[m, :n] = 1.0
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=np.zeros(n),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, 1.0)] * (n + 1),
        method="highs",
    )
    if not res.success:
        return None, None
    return res.x[:n], float(res.x[n])


def find_cascade_beliefs(
    structure: SignalStructure,
    c: float,
    tol: float = 1e-9,
) -> CascadeBeliefSet:
    """Full-support beliefs whose every posterior expectation equals ``c``.

    Solves the linear system sum_w (w - c) f(s|w) mu(w) = 0 for all signals:
    the null space of the cascade matrix is intersected with the probability
    simplex.  A one-dimensional null space either scales to a probability
    vector or misses the simplex entirely; higher dimensions are resolved
    with a small linear program that maximizes the minimum coordinate.

    Every returned belief is re-verified with :func:`is_cascade_belief` at
    the same ``tol``; beliefs touching the simplex boundary (any coordinate
    below the full-support floor) are not returned, though the reported
    ``basis_dimension`` still reflects them.
    """
    low, high = structure.states.low, structure.states.high
    if not (low <= c <= high):
        raise OutOfHull(f"target expectation {c} outside [{low}, {high}]")

    mat = _cascade_matrix(structure, c)
    kernel = null_space(mat, rcond=NULLSPACE_RCOND)
    dim = kernel.shape[1]
    if dim == 0:
        return CascadeBeliefSet(target_expectation=float(c))

    candidates = []
    if dim == 1:
        vec = kernel[:, 0]
        vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
        if np.all(vec >= -FULL_SUPPORT_FLOOR * np.abs(vec).max()):
            vec = np.clip(vec, 0.0, None)
            if vec.sum() > 0:
                candidates.append(vec / vec.sum())
    else:
        x, t = _maxmin_support_lp(mat)
        if x is not None and t is not None and t > FULL_SUPPORT_FLOOR:
            candidates.append(np.clip(x, 0.0, None) / x.sum())

    beliefs = []
    for raw in candidates:
        if np.any(raw <= FULL_SUPPORT_FLOOR):
            continue
        belief = Belief.from_unnormalized(raw)
        if is_cascade_belief(structure, belief, tol).holds:
            beliefs.append(belief)
    return CascadeBeliefSet(
        target_expectation=float(c),
        beliefs=tuple(beliefs),
        basis_dimension=dim,
    )


def _candidate_expectations(structure: SignalStructure, c_points: int) -> np.ndarray:
    """A hull grid plus the state values.  Off the state values the null
    space of the cascade matrix is ``diag(w - c)^-1 null(L^T)``, of dimension
    ``n - rank(L)`` at every such ``c``, so only at a state value can the
    dimension jump."""
    grid = np.linspace(structure.states.low, structure.states.high, c_points)
    return np.concatenate([grid, structure.states.values])


def scan_cascades(
    structure: SignalStructure,
    c_points: int = 201,
    tol: float = 1e-9,
) -> list[CascadeBeliefSet]:
    """Probe candidate target expectations across the hull and keep every
    one whose cascade system has a nontrivial solution space."""
    if c_points < 1:
        raise PreconditionFailed(f"the scan needs at least one grid point, got {c_points}")
    found = []
    seen = set()
    for c in _candidate_expectations(structure, c_points):
        key = round(float(c), 12)
        if key in seen:
            continue
        seen.add(key)
        result = find_cascade_beliefs(structure, float(c), tol=tol)
        if result.basis_dimension > 0:
            found.append(result)
    found.sort(key=lambda r: r.target_expectation)
    return found


def simplex_grid(n: int, resolution: int) -> np.ndarray:
    """All full-support lattice beliefs (k_1, ..., k_n)/resolution with
    integer k_i >= 1; shape (count, n)."""
    if resolution < n:
        raise PreconditionFailed(f"resolution {resolution} cannot place positive mass on {n} states")
    cuts = itertools.combinations(range(1, resolution), n - 1)
    rows = [np.diff((0,) + cut + (resolution,)) for cut in cuts]
    return np.asarray(rows, dtype=float) / resolution


def _entropy(weights: np.ndarray) -> float:
    pos = weights[weights > 0]
    return float(-(pos * np.log(pos)).sum())


def azc_audit(
    structure: SignalStructure,
    delta: float,
    grid_resolution: int = 50,
    movement_tol: float = 1e-9,
) -> AzcAuditReport:
    """Numerically audit the no-cascade movement condition.

    Audited beliefs are (a) a full-support simplex grid (a seeded Dirichlet
    sample of ``AUDIT_SAMPLE_COUNT`` beliefs replaces the grid above 4 states)
    and (b) every belief located by the cascade scan across candidate target
    expectations.  Among audited beliefs that are mispriced against at least
    one support state by more than ``delta``, the audit records the smallest
    value of the worst-case expectation movement max_s |E[w|s] - E[w]|.

    The verdict is ``fail`` exactly when that floor is at or below
    ``movement_tol``; ties are reported through the maximum-entropy belief
    achieving the floor.  Only full-support beliefs are audited: the cascade
    scan drops every boundary solution, so a cascade belief on the simplex
    boundary never reaches the audit and cannot make it fail.
    """
    if delta <= 0:
        raise PreconditionFailed("delta must be positive")
    if grid_resolution < 2:
        raise PreconditionFailed("grid_resolution must be at least 2")

    n = structure.n_states
    if n <= 4:
        beliefs = simplex_grid(n, grid_resolution)
    else:
        rng = np.random.default_rng(AUDIT_SEED)
        beliefs = rng.dirichlet(np.ones(n), size=AUDIT_SAMPLE_COUNT)
        beliefs = np.maximum(beliefs, 1e-12)
        beliefs /= beliefs.sum(axis=1, keepdims=True)

    cascade_rows = [
        b.weights
        for result in scan_cascades(structure, tol=movement_tol)
        for b in result.beliefs
    ]
    if cascade_rows:
        beliefs = np.vstack([beliefs, np.asarray(cascade_rows)])

    values = structure.states.values
    table = structure.likelihood
    exp_vals = beliefs @ values
    movement = np.zeros(len(beliefs))
    for j in range(structure.n_signals):
        joint = beliefs * table[:, j]
        post_exp = (joint @ values) / joint.sum(axis=1)
        np.maximum(movement, np.abs(post_exp - exp_vals), out=movement)

    support_gap = np.where(beliefs > 0, np.abs(exp_vals[:, None] - values[None, :]), 0.0)
    eligible = support_gap.max(axis=1) > delta

    if not eligible.any():
        return AzcAuditReport(
            delta=delta,
            grid_resolution=grid_resolution,
            worst_belief=None,
            min_max_movement=float("inf"),
            verdict="pass",
            audited=0,
        )

    eligible_movement = movement[eligible]
    eligible_beliefs = beliefs[eligible]
    floor = float(eligible_movement.min())
    tie_threshold = movement_tol if floor <= movement_tol else floor
    tied = np.flatnonzero(eligible_movement <= tie_threshold)
    worst_idx = max(tied, key=lambda i: _entropy(eligible_beliefs[i]))
    worst = Belief.from_unnormalized(eligible_beliefs[worst_idx])
    return AzcAuditReport(
        delta=delta,
        grid_resolution=grid_resolution,
        worst_belief=worst,
        min_max_movement=floor,
        verdict="fail" if floor <= movement_tol else "pass",
        audited=int(eligible.sum()),
    )
