"""Checkers for the learning conditions: pairwise informativeness, likelihood
ratio monotonicity, cascade beliefs, and a no-movement (Avery-Zemsky style)
audit.

The cascade machinery works at the belief level: a belief is a cascade point
for a structure when no signal moves the conditional expectation.  For a
target expectation ``c`` those beliefs are exactly the probability vectors in
the null space of the matrix ``M(c)[s, w] = f(s|w) (w - c)``, which is what
:func:`find_cascade_beliefs` solves.

Off the state values that null space is ``diag(w - c)^-1 null(L^T)``, and a
vector ``x`` of ``null(L^T)`` maps to a full-support belief exactly when it
is negative on the states below ``c`` and positive on those above.  That sign
pattern is the same for every ``c`` between two adjacent state values, so
whether a full-support cascade belief exists is constant on each such gap.
:func:`scan_cascades` therefore decides existence over the whole value hull
with one probe per state value and one per gap.  :func:`azc_audit` probes the
same way, but on each gap at a target whose mispricing exceeds its ``delta``
when the gap has one, since a cascade belief's expectation is its target.

The null space is a numpy SVD with a relative rank cut, and a full-support
belief in it is found from the vertices of its slice of the simplex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import OutOfHull, PreconditionFailed
from .model import Belief, SignalStructure, expectation, posterior_values

__all__ = [
    "ConditionReport",
    "CascadeBeliefSet",
    "AzcAuditReport",
    "is_pairwise_informative",
    "is_mlrp",
    "is_cascade_belief",
    "find_cascade_beliefs",
    "scan_cascades",
    "azc_audit",
]

# Rank cutoff for the null-space extraction, relative to the largest
# singular value.
NULLSPACE_RCOND = 1e-10

# Weights below this floor are treated as boundary (not full support) when
# classifying numerically obtained cascade beliefs.
FULL_SUPPORT_FLOOR = 1e-9

# Most (d - 1)-subsets of the states one cascade check enumerates over all its targets, one small SVD each: at
# about 64 us per subset (n = 14, d = 7: 3,003 subsets in 191 ms, 2 CPUs) a call stays under a second.
MAX_VERTEX_SUBSETS = 10_000


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


@dataclass(frozen=True)
class CascadeBeliefSet:
    """Solutions of the cascade system at one target expectation.

    ``beliefs`` holds at most one representative *full-support* solution
    (none when the simplex intersection is empty or touches only the boundary);
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
    worst_belief: Optional[Belief]
    min_max_movement: float
    verdict: str  # "pass" | "fail"
    audited: int = 0

    def as_dict(self) -> dict:
        return {
            "delta": self.delta,
            "worst_belief": None if self.worst_belief is None else list(map(float, self.worst_belief.weights)),
            "min_max_movement": None if np.isinf(self.min_max_movement) else self.min_max_movement,
            "verdict": self.verdict,
            "audited": self.audited,
        }


def _check_tol(tol: float, name: str = "tol") -> None:
    if not (0 <= tol < np.inf):  # also rejects NaN
        raise PreconditionFailed(f"{name} must be finite and nonnegative, got {tol}")


def is_pairwise_informative(structure: SignalStructure, tol: float = 1e-9) -> ConditionReport:
    """Every pair of states must induce distinct signal distributions: the
    largest per-signal difference between the two rows must exceed ``tol``."""
    _check_tol(tol)
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


def _movements(structure: SignalStructure, belief: Belief) -> np.ndarray:
    """|E[w|s] - E[w]| for every signal s."""
    return np.abs(posterior_values(belief, structure) - expectation(structure.states, belief))


def is_cascade_belief(structure: SignalStructure, belief: Belief, tol: float = 1e-9) -> ConditionReport:
    """A belief is a cascade point when no signal moves the conditional
    expectation by more than ``tol``."""
    _check_tol(tol)
    moves = _movements(structure, belief)
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


def _null_space(mat: np.ndarray) -> np.ndarray:
    """Orthonormal null-space basis of ``mat`` as columns: the right singular
    vectors past the singular values above ``NULLSPACE_RCOND`` times the
    largest, as ``scipy.linalg.null_space`` computes it."""
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    return vh[int(np.sum(s > np.max(s, initial=0.0) * NULLSPACE_RCOND)):].T


def find_cascade_beliefs(
    structure: SignalStructure,
    c: float,
    tol: float = 1e-9,
) -> CascadeBeliefSet:
    """Full-support beliefs whose every posterior expectation equals ``c``.

    Solves the linear system sum_w (w - c) f(s|w) mu(w) = 0 for all signals.
    Its solutions are K y for the null-space basis K of the cascade matrix,
    an SVD cut at ``NULLSPACE_RCOND`` times the largest singular value, and
    the beliefs among them form the polytope {K y >= 0, sum K y = 1} of
    dimension d - 1, d the number of columns of K.  Each vertex zeroes d - 1
    coordinates: for every such set Z whose rows K[Z] leave a one-dimensional
    null space, K times that null vector, scaled to sum 1, is a vertex when
    it is nonnegative up to the full-support floor.  The representative is
    the mean of these vertices, which has full support exactly when some
    point of the polytope has.  At d = 1 the only vertex is K itself scaled
    onto the simplex; the cost grows as C(n, d - 1) small SVDs, and more
    than ``MAX_VERTEX_SUBSETS`` of them, summed over all the targets of
    :func:`scan_cascades` and :func:`azc_audit`, raise before any is solved.

    The representative is re-verified with :func:`is_cascade_belief` at the
    same ``tol``; one touching the simplex boundary (any coordinate at or
    below the full-support floor) is not returned, though the reported
    ``basis_dimension`` still reflects it.
    """
    _check_tol(tol)
    low, high = structure.states.values[[0, -1]].tolist()
    if not (low <= c <= high):
        raise OutOfHull(f"target expectation {c} outside [{low}, {high}]")
    return _probe(structure, [c], tol)[0]


def _probe(structure: SignalStructure, targets: list, tol: float) -> list:
    """:func:`find_cascade_beliefs` at each target.  Every null space is
    solved first, and their vertex searches, C(n, d - 1) subsets each, must
    fit ``MAX_VERTEX_SUBSETS`` together, or :class:`PreconditionFailed`
    names n, d and the count before any subset is enumerated."""
    kernels = [_null_space(_cascade_matrix(structure, c)) for c in targets]
    n, dims = structure.n_states, [k.shape[1] for k in kernels if k.shape[1]]
    subsets = sum(math.comb(n, d - 1) for d in dims)
    if subsets > MAX_VERTEX_SUBSETS:
        where = f"d = {dims[0]}" if len(dims) == 1 else f"{len(dims)} targets of d up to {max(dims)}"
        raise PreconditionFailed(f"cascade vertex search at n = {n}, {where} needs {subsets} subsets, "
                                 f"over the budget of {MAX_VERTEX_SUBSETS}")
    return [_cascade_beliefs(structure, c, kernel, tol) for c, kernel in zip(targets, kernels)]


def _cascade_beliefs(structure: SignalStructure, c: float, kernel: np.ndarray, tol: float) -> CascadeBeliefSet:
    """:func:`find_cascade_beliefs` at ``c`` from its null-space basis ``kernel``."""
    n, dim = kernel.shape
    if dim == 0:
        return CascadeBeliefSet(target_expectation=float(c))
    vertices = []
    for zeros in itertools.combinations(range(n), dim - 1):
        null = _null_space(kernel[list(zeros)])
        if null.shape[1] != 1:
            continue
        x = kernel @ null[:, 0]
        total = x.sum()
        if total == 0:
            continue
        x = x / total
        if np.all(x >= -FULL_SUPPORT_FLOOR * np.abs(x).max()):
            vertices.append(x)

    beliefs = ()
    if vertices:
        raw = np.mean(vertices, axis=0)
        if np.all(raw > FULL_SUPPORT_FLOOR):
            belief = Belief.from_unnormalized(raw)
            if is_cascade_belief(structure, belief, tol).holds:
                beliefs = (belief,)
    return CascadeBeliefSet(target_expectation=float(c), beliefs=beliefs, basis_dimension=dim)


def scan_cascades(structure: SignalStructure, tol: float = 1e-9) -> list[CascadeBeliefSet]:
    """Probe every state value and every gap midpoint, the targets of
    :func:`_audit_targets` at ``delta = 0``, and keep each target whose
    cascade system has a nontrivial solution space."""
    _check_tol(tol)
    return [result for result in _probe(structure, _audit_targets(structure.states.values, 0.0), tol)
            if result.basis_dimension > 0]


def _entropy(weights: np.ndarray) -> float:
    pos = weights[weights > 0]
    return float(-(pos * np.log(pos)).sum())


def _audit_targets(values: np.ndarray, delta: float) -> list[float]:
    """One target per state value and per gap, in increasing order, whose
    mispricing max(c - w_1, w_n - c) exceeds ``delta``; values and gaps
    without such a target are skipped.

    A gap contributes its midpoint when that is mispriced enough.  Otherwise
    the midpoint lies in [w_n - delta, w_1 + delta], the part of the hull the
    convex mispricing keeps at or below ``delta``, and what is left of the
    gap is the open pieces (lo, w_n - delta) and (w_1 + delta, hi); the
    midpoint of the longer one is the target if that piece is not empty.
    At ``delta = 0`` every point of the hull is mispriced, so the targets
    are the state values and the gap midpoints.
    """
    low, high = values[0], values[-1]

    def mispriced(c):
        return max(c - low, high - c) > delta

    targets = []
    for k, value in enumerate(values):
        if k:
            lo, hi = values[k - 1], value
            mid = (lo + hi) / 2
            a, b = max([(lo, high - delta), (low + delta, hi)], key=lambda piece: piece[1] - piece[0])
            if mispriced(mid):
                targets.append(float(mid))
            elif a < b:
                targets.append(float((a + b) / 2))
        if mispriced(value):
            targets.append(float(value))
    return targets


def azc_audit(
    structure: SignalStructure,
    delta: float,
    movement_tol: float = 1e-9,
) -> AzcAuditReport:
    """Decide whether a full-support cascade belief violates the no-cascade
    movement condition.

    A belief is eligible when its expectation is mispriced against some
    state by more than ``delta``.  A cascade belief at target ``c`` has
    expectation ``c``, and whether a full-support one exists is constant on
    each open gap between adjacent state values, so the audit probes one
    target per state value and one per gap wherever the mispricing exceeds
    ``delta`` (see :func:`_audit_targets`) and audits the beliefs
    :func:`find_cascade_beliefs` returns there.  The verdict is ``fail``
    exactly when an eligible belief exists; the largest-entropy one among
    these audited witnesses is reported as ``worst_belief``, and
    ``min_max_movement`` is its own worst-case expectation movement
    max_s |E[w|s] - E[w]|, at most ``movement_tol``.  With no eligible belief
    the verdict is ``pass``, ``worst_belief`` is ``None`` and the movement is
    ``inf``.  Boundary cascade beliefs are never audited.
    """
    if not (0 < delta < np.inf):  # also rejects NaN
        raise PreconditionFailed(f"delta must be finite and positive, got {delta}")
    _check_tol(movement_tol, "movement_tol")

    values = structure.states.values
    eligible = [
        belief
        for result in _probe(structure, _audit_targets(values, delta), movement_tol)
        for belief in result.beliefs
        if np.abs(expectation(structure.states, belief) - values).max() > delta
    ]
    if not eligible:
        return AzcAuditReport(
            delta=delta,
            worst_belief=None,
            min_max_movement=float("inf"),
            verdict="pass",
            audited=0,
        )

    worst = max(eligible, key=lambda belief: _entropy(belief.weights))
    movement = float(_movements(structure, worst).max())
    return AzcAuditReport(
        delta=delta,
        worst_belief=worst,
        min_max_movement=movement,
        verdict="fail",
        audited=len(eligible),
    )
