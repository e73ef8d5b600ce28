"""Minimal deterministic SVG line charts for simulation output.

Hand-rolled rather than pulled from a plotting library so identical inputs
produce byte-identical files: coordinates are formatted with fixed precision
and nothing time- or version-dependent is embedded.
"""

from __future__ import annotations

from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import MissingResults, PreconditionFailed

__all__ = ["svg_line_chart", "checked_thin", "emit_plots"]

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_WIDTH, _HEIGHT = 720, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 36, 44
_MAX_SERIES = 50


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, count: int = 5) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def svg_line_chart(series, path, title="", x_label="", y_label="") -> Path:
    """Write a line chart to ``path``.

    ``series`` is a list of (xs, ys) pairs; axes are shared and scaled to the
    union of the data.
    """
    if not series:
        raise MissingResults("no series to plot")

    xs_all = np.concatenate([np.asarray(xs, dtype=float) for xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, ys in series])
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all.min()), float(ys_all.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]

    for tick in _ticks(y_lo + pad, y_hi - pad):
        y = py(tick)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(y)}" x2="{_WIDTH - _MARGIN_R}" y2="{_fmt(y)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.3g}</text>'
        )
    for tick in _ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<text x="{_fmt(x)}" y="{_HEIGHT - _MARGIN_B + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.4g}</text>'
        )

    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )

    for idx, (xs, ys) in enumerate(series):
        xs, ys = px(np.asarray(xs, dtype=float)), py(np.asarray(ys, dtype=float))
        points = " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))
        color = _PALETTE[idx % len(_PALETTE)]
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )

    if x_label:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{_HEIGHT / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {_HEIGHT / 2:.0f})">{y_label}</text>'
        )

    parts.append("</svg>")
    out = Path(path)
    out.write_text("\n".join(parts) + "\n")
    return out


def checked_thin(thin) -> int:
    """``thin`` as an int, checked to be an integer of at least 1, so a caller
    can reject a bad value before it simulates anything."""
    if isinstance(thin, bool) or not isinstance(thin, Integral) or thin < 1:
        raise PreconditionFailed(f"thin must be an integer of at least 1, got {thin!r}")
    return int(thin)


def emit_plots(run, out_dir, convergence_tol: float = 0.1, thin: int = 10) -> dict:
    """Write the standard chart set for a :class:`~market_learn.simulate.RunResult`.

    Produces a price-path overlay, the belief-on-the-true-state trajectories,
    and the learned fraction as a function of the horizon.  Paths are thinned
    to every ``thin``-th period and overlays capped at the first
    ``_MAX_SERIES`` episodes to bound file sizes.
    """
    if not len(run):
        raise MissingResults("no episode results to plot")
    thin = checked_thin(thin)
    if not (0 < convergence_tol < np.inf):  # also rejects NaN
        raise PreconditionFailed(f"convergence_tol must be finite and positive, got {convergence_tol!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    horizon = run.price_path.shape[1] - 1
    ts = np.arange(0, horizon + 1, thin)

    shown = min(len(run), _MAX_SERIES)
    on_truth = run.belief_path[:shown, ::thin][np.arange(shown), :, run.true_state[:shown]]
    price_series = [(ts, ys) for ys in run.price_path[:shown, ::thin]]
    belief_series = [(ts, ys) for ys in on_truth]

    learned_by_t = (np.abs(run.price_path - run.true_value[:, None]) < convergence_tol).mean(axis=0)
    return {
        "price_paths": svg_line_chart(
            price_series, out / "price_paths.svg", x_label="period", y_label="price",
            title=f"Transaction price paths ({shown} of {len(run)} episodes)"),
        "belief_on_truth": svg_line_chart(
            belief_series, out / "belief_on_truth.svg", x_label="period", y_label="belief weight",
            title="Public belief on the true state"),
        "learned_fraction": svg_line_chart(
            [(np.arange(horizon + 1), learned_by_t)], out / "learned_fraction.svg", x_label="period",
            y_label="fraction", title=f"Fraction of episodes with |price - true value| < {convergence_tol:g}"),
    }
