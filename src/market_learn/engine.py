"""Zero-profit quote solving.

The market maker posts a bid and an ask such that expected profit is zero on
each side: the ``eta/3`` chance of a noise trade subsidizes the adverse
selection suffered against informed traders.  Rearranged, the zero-profit ask
is exactly the conditional expectation of the asset value given a buy, and
symmetrically for the bid, which is how the solver computes candidates.

:func:`quote_core` solves one plain weight array and :func:`solve_quotes`
wraps it in the value types: the scalar reference the tests pin against
exhaustive enumeration.  :func:`quote_rows` solves every row of a weight
array at once, bit for bit as :func:`quote_core` does at every noise rate,
and also returns the three action likelihoods; it accepts per-row
structures and noise rates, which the one-step suite stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidBelief, NoConsistentPartition
from .model import (
    BUY,
    SELL,
    Belief,
    SignalPartition,
    SignalStructure,
    _action_likelihood,
    _eta_value,
    _raise_where,
)

__all__ = [
    "BOUNDARY_BAND",
    "Quotes",
    "quote_core",
    "quote_rows",
    "solve_quotes",
]

# Signals whose conditional value sits within this band of a quote are
# treated as boundary cases and classified no-trade, mirroring the strict
# inequalities of the informed decision rule.  The band also keeps the
# partition well defined when a belief has numerically collapsed and all
# conditional values agree to ~1e-15.
BOUNDARY_BAND = 1e-9

# Residual tolerance for the zero-profit self-check run on every solve.
ZERO_PROFIT_TOL = 1e-10


@dataclass(frozen=True)
class Quotes:
    bid: float
    ask: float

    def __post_init__(self):
        if not (self.bid <= self.ask):
            raise NoConsistentPartition(f"bid {self.bid} above ask {self.ask}")


def _greedy_side(
    v: np.ndarray,
    order: np.ndarray,
    num_sig: np.ndarray,
    f_sig: np.ndarray,
    exp_val: float,
    eta: float,
    sense: int,
):
    """Grow one side of the partition while the next signal strictly beats
    the running quote by more than ``BOUNDARY_BAND``.

    The running quote is the conditional expectation of the value given the
    candidate set, which rises (falls) strictly below (above) each newly
    included signal's value; the scan therefore terminates at the largest
    self-consistent set, equivalently the tightest zero-profit quote.
    """
    noise = eta / 3.0
    informed = 1.0 - eta
    num = noise * exp_val
    den = noise
    quote = exp_val
    k = 0
    m = order.size
    while k < m and sense * (v[order[k]] - quote) > BOUNDARY_BAND:
        num += informed * num_sig[order[k]]
        den += informed * f_sig[order[k]]
        quote = num / den
        k += 1
    return k, float(quote)


_NO_SIGNALS = np.empty(0, dtype=np.intp)


def quote_core(w: np.ndarray, structure: SignalStructure, e: float):
    """Array core of :func:`solve_quotes` for belief weights ``w`` and a
    noise rate ``e`` already checked to lie in [0, 1].

    Returns ``(bid, ask, buy, sell)``: the quotes as floats and the buy and
    sell sets as signal index arrays, in descending (buy) and ascending
    (sell) order of conditional value.  Raises :class:`NoConsistentPartition`
    when the sets overlap, the bid is above the ask, or a quote fails the
    zero-profit self-check.
    """
    values = structure.states.values
    exp_val = float(values @ w)
    f_sig = w @ structure.likelihood
    num_sig = (values * w) @ structure.likelihood
    v = num_sig / f_sig

    if e >= 1.0:
        return exp_val, exp_val, _NO_SIGNALS, _NO_SIGNALS
    if e <= 0.0:
        return min(exp_val, float(v.min())), max(exp_val, float(v.max())), _NO_SIGNALS, _NO_SIGNALS

    order_desc = np.argsort(-v, kind="stable")
    order_asc = np.argsort(v, kind="stable")
    k_buy, ask = _greedy_side(v, order_desc, num_sig, f_sig, exp_val, e, +1)
    k_sell, bid = _greedy_side(v, order_asc, num_sig, f_sig, exp_val, e, -1)

    buy, sell = order_desc[:k_buy], order_asc[:k_sell]
    if set(buy.tolist()) & set(sell.tolist()):
        raise NoConsistentPartition(
            f"buy and sell sets overlap: {tuple(buy.tolist())} / {tuple(sell.tolist())} (belief {w!r})"
        )
    if not (bid <= ask):
        raise NoConsistentPartition(f"bid {bid} above ask {ask}")
    _check_zero_profit(w, structure, e, buy, ask, exp_val, BUY)
    _check_zero_profit(w, structure, e, sell, bid, exp_val, SELL)
    return bid, ask, buy, sell


def _check_zero_profit(w, structure, e, signals, quote, exp_val, action):
    """Verify, through the action-likelihood route, that the quote equals the
    conditional expectation given its own trade event."""
    like = _action_likelihood(structure, signals, e)
    mass = float(w @ like)
    cond = float((structure.states.values * w) @ like) / mass
    if abs(cond - quote) > ZERO_PROFIT_TOL * max(1.0, abs(quote)):
        raise NoConsistentPartition(
            f"{action} quote {quote} deviates from conditional expectation {cond}"
        )
    if not signals.size and abs(quote - exp_val) > ZERO_PROFIT_TOL * max(1.0, abs(exp_val)):
        raise NoConsistentPartition(
            f"empty {action} side must quote the expectation, got {quote} vs {exp_val}"
        )


def _row_products(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w[r] @ x`` for every row of ``w``, ``x`` shared or stacked per row.
    This stacked ``matmul`` rounds as the 1-D ``@`` does; ``w @ x``,
    ``einsum`` and ``(w * x).sum(1)`` do not in many rows."""
    return np.matmul(w[:, None, :], x)[:, 0]


def quote_rows(w: np.ndarray, structure, e):
    """:func:`quote_core` on every row of ``w``, with the same checks and
    errors.  ``structure`` is a structure or a pair ``(values, table)``, each
    shared or per row; ``e`` is one rate in [0, 1] or one per row in (0, 1).
    Returns ``(bid, ask, buy, sell, like)``: per row the quotes, the sets as
    signal masks, and the action likelihoods stacked as ``like[:, a]`` in
    :data:`~market_learn.model.ACTIONS` order.  For ``0 < e < 1`` each side
    is the longest sorted prefix :func:`_greedy_side` accepts, tested against
    the ``cumsum`` prefix quotes; set masses sum the members in sorted order,
    masking the rest to zero, which adds exactly."""
    values, table = structure if isinstance(structure, tuple) else (structure.states.values, structure.likelihood)
    (rows, n), m = w.shape, table.shape[-1]
    r = np.arange(rows)[:, None]
    exp_val = _row_products(w, values[..., None])[:, 0]
    f_sig = _row_products(w, table)
    num_sig = _row_products(values * w, table)
    v = num_sig / f_sig
    noise, informed = e / 3.0, 1.0 - e
    if isinstance(e, np.ndarray):  # the closed forms at the ends below take one shared rate
        _raise_where(~((0.0 < e) & (e < 1.0)), InvalidBelief, "a per-row noise rate must lie inside (0, 1)", w)
        noise, informed = noise[:, None], informed[:, None]

    if not isinstance(e, np.ndarray) and not 0.0 < e < 1.0:  # quote_core's closed forms: nobody trades on a signal
        none, like = np.zeros((rows, m), dtype=bool), np.full((rows, n), noise)
        ask, bid = (exp_val, exp_val) if e >= 1.0 else (np.maximum(exp_val, v.max(axis=1)),
                                                        np.minimum(exp_val, v.min(axis=1)))
        sides = [(ask, none, like), (bid, none, like)]
    else:
        sides = []
        for sense, action in ((+1, BUY), (-1, SELL)):
            order = np.argsort(-v if sense > 0 else v, axis=1, kind="stable")
            num = np.concatenate([noise * exp_val[:, None], informed * num_sig[r, order]], axis=1).cumsum(1)
            den = np.concatenate([np.full((rows, 1), noise), informed * f_sig[r, order]], axis=1).cumsum(1)
            quote = num / den
            # the empty prefix quotes the expectation itself, not (noise * exp_val) / noise
            quote[:, 0] = exp_val
            taken = np.logical_and.accumulate(sense * (v[r, order] - quote[:, :m]) > BOUNDARY_BAND, axis=1)
            size = taken.sum(axis=1)
            q = quote[r[:, 0], size]
            at = (r[:, :, None],) * (table.ndim == 3) + (np.arange(n)[:, None], order[:, None, :])  # per-row tables
            like = noise + informed * (table[at] * taken[:, None, :]).sum(axis=2)
            cond = _row_products(values * w, like[:, :, None])[:, 0] / _row_products(w, like[:, :, None])[:, 0]
            _raise_where(np.abs(cond - q) > ZERO_PROFIT_TOL * np.maximum(1.0, np.abs(q)), NoConsistentPartition,
                         f"{action} quote deviates from the conditional expectation of its trade", w)
            _raise_where((size == 0) & (np.abs(q - exp_val) > ZERO_PROFIT_TOL * np.maximum(1.0, np.abs(exp_val))),
                         NoConsistentPartition, f"empty {action} side must quote the expectation", w)
            members = np.zeros((rows, m), dtype=bool)
            members[r, order] = taken
            sides.append((q, members, like))

    (ask, buy, like_buy), (bid, sell, like_sell) = sides
    _raise_where((buy & sell).any(axis=1), NoConsistentPartition, "buy and sell sets overlap", w)
    _raise_where(~(bid <= ask), NoConsistentPartition, "bid above ask", w)
    like_nt = noise + informed * (table * ~(buy | sell)[:, None, :]).sum(axis=2)
    return bid, ask, buy, sell, np.stack([like_buy, like_sell, like_nt], axis=1)


def solve_quotes(
    belief: Belief,
    structure: SignalStructure,
    eta,
) -> tuple[Quotes, SignalPartition]:
    """Solve the jointly consistent zero-profit quotes and signal partition.

    Candidate buy sets are prefixes of the signals sorted by descending
    conditional value; the candidate ask for a set is E[w | buy] computed in
    closed form from the mixed action likelihood.  A set is consistent when
    every included signal's value exceeds the ask and every excluded one does
    not; among consistent sets the largest (lowest ask) wins, and the sell
    side mirrors this with the highest consistent bid.

    Degenerate noise rates are defined rather than rejected: at ``eta = 1``
    both quotes collapse to the current expectation, and at ``eta = 0`` the
    only zero-profit configuration is no trade, with the quotes placed at the
    extreme conditional values.

    Returns
    -------
    (Quotes, SignalPartition)
        The partition's buy/sell sets are exactly the signals strictly
        beyond the returned quotes (up to ``BOUNDARY_BAND``).
    """
    bid, ask, buy, sell = quote_core(belief.weights, structure, _eta_value(eta))
    return Quotes(bid=bid, ask=ask), SignalPartition(structure.n_signals, buy=buy, sell=sell)
