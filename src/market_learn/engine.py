"""Zero-profit quote solving.

The market maker posts a bid and an ask such that expected profit is zero on
each side: the ``eta/3`` chance of a noise trade subsidizes the adverse
selection suffered against informed traders.  Rearranged, the zero-profit ask
is exactly the conditional expectation of the asset value given a buy, and
symmetrically for the bid, which is how the solver computes candidates.

The rule for ``0 < eta < 1``: sort the signals by conditional value,
descending for the buy side and ascending for the sell side, and take the
longest prefix in which each signal beats the quote of the prefix before it
by more than ``BOUNDARY_BAND``.  A prefix quotes the conditional expectation
given a trade on it, so the empty prefix quotes the expectation itself.  At
``eta = 1`` both quotes are the expectation, and at ``eta = 0`` nobody
trades and the quotes sit at the extreme conditional values.

:func:`quote_rows` applies the rule to every row of a weight array at once,
with per-row structures and noise rates when asked, and also returns the
three action likelihoods.  :func:`solve_quotes` is that kernel on a batch of
one, returned as the value types.
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
    _eta_value,
    _raise_where,
)

__all__ = [
    "BOUNDARY_BAND",
    "Quotes",
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


def _row_products(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w[r] @ x`` for every row of ``w``, ``x`` shared or stacked per row.
    This stacked ``matmul`` rounds as the 1-D ``@`` does; ``w @ x``,
    ``einsum`` and ``(w * x).sum(1)`` do not in many rows."""
    return np.matmul(w[:, None, :], x)[:, 0]


def quote_rows(w: np.ndarray, structure, e):
    """The quote rule of this module on every row of ``w``.  ``structure``
    is a structure or a pair ``(values, table)``, each shared or per row;
    ``e`` is one rate in [0, 1] or one per row in (0, 1).  Returns ``(bid,
    ask, buy, sell, like)``: per row the quotes, the sets as signal masks,
    and the action likelihoods stacked as ``like[:, a]`` in
    :data:`~market_learn.model.ACTIONS` order.  For ``0 < e < 1`` each side
    is the longest sorted prefix whose every signal beats the ``cumsum``
    quote of the prefix before it; set masses sum the members in sorted
    order, masking the rest to zero, which adds exactly.  Every solve checks
    that each quote is the conditional expectation of its trade, that the
    sets do not overlap and that the bid is not above the ask, and raises
    :class:`NoConsistentPartition` naming the first row that fails."""
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

    if not isinstance(e, np.ndarray) and not 0.0 < e < 1.0:  # the closed forms: nobody trades on a signal
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

    This is :func:`quote_rows` on a batch of one.  Candidate buy sets are
    prefixes of the signals sorted by descending conditional value; the
    candidate ask for a set is E[w | buy] computed in closed form from the
    mixed action likelihood.  The buy set is the longest prefix whose every
    signal's value exceeds the ask of the prefix before it by more than
    ``BOUNDARY_BAND``, and the sell side mirrors this with the bid.

    Degenerate noise rates are defined rather than rejected: at ``eta = 1``
    both quotes collapse to the current expectation, and at ``eta = 0`` the
    only zero-profit configuration is no trade, with the quotes placed at the
    extreme conditional values.

    Returns
    -------
    (Quotes, SignalPartition)
        The partition's buy/sell sets list signal indices in ascending
        order.  A member sits beyond the quote of the set without it by more
        than ``BOUNDARY_BAND``, but can sit within the band of the returned
        quote, which includes it.
    """
    bid, ask, buy, sell, _ = quote_rows(belief.weights[None], structure, _eta_value(eta))
    return (Quotes(bid=float(bid[0]), ask=float(ask[0])),
            SignalPartition(structure.n_signals, buy=np.flatnonzero(buy[0]), sell=np.flatnonzero(sell[0])))
