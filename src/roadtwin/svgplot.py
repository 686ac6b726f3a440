"""Minimal static SVG line plots.

Hand-rolled rather than using a plotting library so the output is a
deterministic function of the data: no timestamps, random ids or
library-version drift.  Good enough for a daily profile with a spread
band.
"""
from __future__ import annotations

import numpy as np

from .output import fmt

WIDTH = 880
HEIGHT = 420
MARGIN_L = 64
MARGIN_R = 16
MARGIN_T = 28
MARGIN_B = 44


def _nice_ceiling(v: float) -> float:
    """Smallest 1/2/5 * 10^k value at or above v."""
    if v <= 0:
        return 1.0
    import math

    exp = math.floor(math.log10(v))
    for mult in (1.0, 2.0, 5.0, 10.0):
        cand = mult * 10.0**exp
        if cand >= v - 1e-12 * v:
            return cand
    return 10.0 ** (exp + 1)


def slot_label(slot: int, interval_min: int) -> str:
    """``HH:MM`` at the start of a day's ``slot``."""
    minutes = slot * interval_min
    return f"{minutes // 60:02d}:{minutes % 60:02d}"


def profile_svg(
    values,
    stdev,
    interval_min: int,
    title: str,
) -> str:
    """SVG line plot of a daily profile with a +-1 stdev band.

    ``title`` is plain text: its markup characters are escaped.
    """
    values = np.asarray(values, dtype=float)
    stdev = np.asarray(stdev, dtype=float)
    n = values.size
    upper = values + stdev
    lower = np.maximum(values - stdev, 0.0)
    ymax = _nice_ceiling(float(upper.max()) if n else 1.0)
    if ymax <= 0:
        ymax = 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(i: float) -> float:
        return MARGIN_L + plot_w * (i / max(n - 1, 1))

    def sy(v: float) -> float:
        return MARGIN_T + plot_h * (1.0 - v / ymax)

    band_pts = [f"{fmt(sx(i))},{fmt(sy(upper[i]))}" for i in range(n)]
    band_pts += [f"{fmt(sx(i))},{fmt(sy(lower[i]))}" for i in range(n - 1, -1, -1)]
    line_pts = [f"{fmt(sx(i))},{fmt(sy(values[i]))}" for i in range(n)]
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="18" font-family="sans-serif" font-size="13">{title}</text>',
    ]
    # y axis: 4 gridlines
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(ymax * frac)
        parts.append(
            f'<line x1="{MARGIN_L}" y1="{fmt(y)}" x2="{WIDTH - MARGIN_R}" y2="{fmt(y)}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{fmt(y + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{fmt(ymax * frac)}</text>'
        )
    # x axis: one label every 4 hours
    slots_per_label = max(1, (4 * 60) // interval_min)
    for i in range(0, n, slots_per_label):
        parts.append(
            f'<text x="{fmt(sx(i))}" y="{HEIGHT - MARGIN_B + 16}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{slot_label(i, interval_min)}</text>'
        )
    if n:
        parts.append(
            f'<polygon points="{" ".join(band_pts)}" fill="#9ecae1" fill-opacity="0.45" stroke="none"/>'
        )
        parts.append(
            f'<polyline points="{" ".join(line_pts)}" fill="none" stroke="#1f77b4" stroke-width="1.8"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
