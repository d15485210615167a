"""Minimal static SVG line charts, no dependencies.

Good enough for the two gain figures: a framed plot area, ticked axes,
one polyline per series, and a legend.  Styling is fixed; only the data,
titles, and axis labels vary.
"""

from __future__ import annotations

import math

__all__ = ["line_chart"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 720
_HEIGHT = 480
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 24
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 56
_TICK_TARGET = 6


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/5 step, about _TICK_TARGET."""
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / _TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    # A step below the float spacing at value stops moving it: end there.
    value, last = first, None
    while value <= hi + 1e-9 * step and value != last:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value, last = value + step, value
    return ticks


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def line_chart(series: list[tuple[str, list[tuple[float, float]]]],
               title: str, x_label: str, y_label: str) -> str:
    """Render labeled (x, y) series as one self-contained SVG document.

    series is a list of (label, points) pairs; every series must hold at
    least one point.  Axis ranges cover all data with a small pad.
    """
    if not series or any(not pts for _, pts in series):
        raise ValueError("every series needs at least one point")

    xs = [x for _, pts in series for x, _ in pts]
    ys = [y for _, pts in series for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo -= y_pad
    y_hi += y_pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + plot_w * (x - x_lo) / (x_hi - x_lo)

    def sy(y: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>',
    ]

    for x in _nice_ticks(x_lo, x_hi):
        px = sx(x)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_TOP}" x2="{px:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{_fmt(x)}</text>"
        )
    for y in _nice_ticks(y_lo, y_hi):
        py = sy(y)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{py:.2f}" '
            f'x2="{_MARGIN_LEFT + plot_w}" y2="{py:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(y)}</text>'
        )

    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"{_escape(x_label)}</text>"
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.1f})">'
        f"{_escape(y_label)}</text>"
    )

    for i, (label, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MARGIN_TOP + 14 + 16 * i
        lx = _MARGIN_LEFT + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_escape(label)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
