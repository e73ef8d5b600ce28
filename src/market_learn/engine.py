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
with per-row value grids, tables and noise rates when asked, and also
returns the three action likelihoods.  It scans signal-major, one whole-array
step per sorted position until no row grows: the scalar greedy scan on every
row at once, its sums added in the scan's order.  :func:`solve_quotes` is that
kernel on a batch of one, returned as the value types.
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
    _row_products,
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


def quote_rows(w: np.ndarray, values: np.ndarray, table: np.ndarray, e):
    """The quote rule of this module on every row of ``w``, with the state
    ``values`` and the likelihood ``table`` each shared or per row; ``e``
    is one rate in [0, 1] or one per row in (0, 1).  Returns ``(bid,
    ask, buy, sell, like)``: per row the quotes, the sets as signal masks,
    and the action likelihoods stacked as ``like[:, a]`` in
    :data:`~market_learn.model.ACTIONS` order.  For ``0 < e < 1`` each side
    is the scalar greedy scan run signal-major on all rows, bit for bit: set
    masses add their members one at a time, in sorted order for a side and in
    index order for no trade.  Every solve checks that each quote is the
    conditional expectation of its trade, that the sets do not overlap and
    that the bid is not above the ask, and raises
    :class:`NoConsistentPartition` naming the first row that fails."""
    (rows, n), m = w.shape, table.shape[-1]
    r = np.arange(rows)
    exp_val = _row_products(w, values[..., None])[:, 0]
    f_sig = _row_products(w, table)
    num_sig = _row_products(values * w, table)
    v = num_sig / f_sig
    noise, informed = e / 3.0, 1.0 - e
    if isinstance(e, np.ndarray):  # the closed forms at the ends below take one shared rate
        _raise_where(~((0.0 < e) & (e < 1.0)), InvalidBelief, "a per-row noise rate must lie inside (0, 1)", w)
    # the scan runs rows last: numpy is many times slower on a short last axis
    cols = table[..., None] if table.ndim == 2 else table.transpose(1, 2, 0)  # [:, j]: signal j's column
    buy, sell, like, quotes = *np.zeros((2, m, rows), dtype=bool), np.empty((rows, 3, n)), []

    if not isinstance(e, np.ndarray) and not 0.0 < e < 1.0:  # the closed forms: nobody trades on a signal
        like[:, :2] = noise
        quotes = [exp_val, exp_val] if e >= 1.0 else [np.maximum(exp_val, v.max(axis=1)),
                                                      np.minimum(exp_val, v.min(axis=1))]
    else:
        for a, sense, action, members in ((0, +1, BUY, buy), (1, -1, SELL, sell)):
            order = np.argsort(-v.T if sense > 0 else v.T, axis=0, kind="stable")  # [k]: each row's k-th signal
            v_at, num_at, den_at = (np.take(x, r * m + order) for x in (v, num_sig, f_sig))
            col_at = np.take(table, order, axis=1) if table.ndim == 2 else np.take_along_axis(cols, order[None], axis=1)
            # the empty prefix quotes the expectation itself, not (noise * exp_val) / noise
            num, den, quote, mass = noise * exp_val, noise, exp_val, np.zeros((n, rows))
            for k in range(m):
                # sorted, so a row whose k-th signal fails to beat its quote grows no further
                grow = sense * (v_at[k] - quote) > BOUNDARY_BAND
                if not grow.any():
                    break
                num, den = num + informed * num_at[k], den + informed * den_at[k]
                quote = np.where(grow, num / den, quote)
                mass = mass + col_at[:, k] * grow
                members[order[k], r] = grow
            like[:, a] = (noise + informed * mass).T
            cond = _row_products(values * w, like[:, a, :, None])[:, 0] / _row_products(w, like[:, a, :, None])[:, 0]
            _raise_where(np.abs(cond - quote) > ZERO_PROFIT_TOL * np.maximum(1.0, np.abs(quote)), NoConsistentPartition,
                         f"{action} quote deviates from the conditional expectation of its trade", w)
            quotes.append(quote)

    ask, bid = quotes
    _raise_where((buy & sell).any(axis=0), NoConsistentPartition, "buy and sell sets overlap", w)
    _raise_where(~(bid <= ask), NoConsistentPartition, "bid above ask", w)
    like[:, 2] = (noise + informed * sum(cols[:, j] * idle for j, idle in enumerate(~(buy | sell)))).T  # index order
    return bid, ask, buy.T.copy(), sell.T.copy(), like


def solve_quotes(
    belief: Belief,
    structure: SignalStructure,
    eta,
) -> tuple[Quotes, SignalPartition]:
    """Solve the jointly consistent zero-profit quotes and signal partition.

    This is :func:`quote_rows` on a batch of one: the rule of this module,
    with each candidate quote E[w | trade] in closed form.

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
    bid, ask, buy, sell, _ = quote_rows(belief.weights[None], structure.states.values, structure.likelihood,
                                        _eta_value(eta))
    return (Quotes(bid=float(bid[0]), ask=float(ask[0])),
            SignalPartition(structure.n_signals, buy=np.flatnonzero(buy[0]), sell=np.flatnonzero(sell[0])))
