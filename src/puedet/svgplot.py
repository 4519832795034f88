"""Minimal deterministic SVG 1.1 line charts: axes, one polyline per series,
and a legend.  No external plotting dependency, so byte-identical output for
identical data.

A chart is checked and scaled when it is built and formatted when it is
written: `line_chart` refuses a bad series or an unscalable span at once and
returns a function that writes the document to a text file, formatting each
polyline then, so a caller can build every chart before it opens any file and
write a large one in another process."""

from __future__ import annotations

import html
import math

import numpy as np

from .errors import InvalidInputError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 24, 40, 56


def _escape(text: str) -> str:
    """Escape &, < and > for SVG text; quotes need no escape outside attributes."""
    return html.escape(text, quote=False)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def line_chart(
    series: list[tuple[str, list[float] | np.ndarray, list[float] | np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
):
    """The chart of (label, xs, ys) series, lists or arrays, as a function
    that writes its SVG document to a text file.  The series are checked and
    scaled here; the polylines are formatted when the chart is written.  The
    function's `values` counts the numbers its polylines format."""
    if not series:
        raise InvalidInputError("need at least one series")
    points = []
    for label, xs, ys in series:
        if len(xs) != len(ys) or not len(xs):
            raise InvalidInputError(f"series {label!r} needs equal-length non-empty x/y")
        try:
            xy = np.array([xs, ys], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"series {label!r} is not a float series: {exc}") from None
        if not np.isfinite(xy).all():
            raise InvalidInputError(f"series {label!r} contains absent or non-finite values")
        points.append(xy)

    x_lo, y_lo = np.min([xy.min(axis=1) for xy in points], axis=0).tolist()
    x_hi, y_hi = np.max([xy.max(axis=1) for xy in points], axis=0).tolist()
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if not (0.0 < x_hi - x_lo < math.inf and 0.0 < y_hi - y_lo < math.inf):
        raise InvalidInputError("the series' span cannot be scaled within the float range")

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    # Scalars for the ticks, arrays for the polylines: the same floats either way.
    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MT + (y_hi - v) / (y_hi - y_lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="22" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{_escape(title)}</text>',
    ]

    axis_style = 'stroke="black" stroke-width="1"'
    out.append(f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" y2="{_MT + plot_h}" {axis_style}/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" {axis_style}/>')

    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(f'<line x1="{_fmt(px)}" y1="{_MT + plot_h}" x2="{_fmt(px)}" y2="{_MT + plot_h + 5}" {axis_style}/>')
        out.append(
            f'<text x="{_fmt(px)}" y="{_MT + plot_h + 20}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{tx:.4g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        out.append(f'<line x1="{_ML - 5}" y1="{_fmt(py)}" x2="{_ML}" y2="{_fmt(py)}" {axis_style}/>')
        out.append(
            f'<text x="{_ML - 9}" y="{_fmt(py + 4)}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{ty:.4g}</text>'
        )

    out.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 14}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="18" y="{_MT + plot_h / 2:.1f}" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 18 {_MT + plot_h / 2:.1f})">{_escape(ylabel)}</text>'
    )

    polylines = [(PALETTE[i % len(PALETTE)], sx(xs), sy(ys)) for i, (xs, ys) in enumerate(points)]
    n_head = len(out)  # the polylines are written between head and legend

    lx, ly = _ML + plot_w - 170, _MT + 10
    out.append(
        f'<rect x="{lx - 8}" y="{ly - 14}" width="178" height="{18 * len(series) + 8}" '
        f'fill="white" stroke="#999999" stroke-width="0.5"/>'
    )
    for i, (label, _, _) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        y = ly + 18 * i
        out.append(f'<line x1="{lx}" y1="{y - 4}" x2="{lx + 26}" y2="{y - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(
            f'<text x="{lx + 32}" y="{y}" font-family="sans-serif" font-size="11">{_escape(label)}</text>'
        )

    out.append("</svg>")
    head, tail = "\n".join(out[:n_head]) + "\n", "\n".join(out[n_head:]) + "\n"

    def write(fh) -> None:
        fh.write(head)
        for color, px, py in polylines:
            # "%.2f" rounds exactly as _fmt does; one % over the interleaved x, y.
            coords = " ".join(["%.2f,%.2f"] * len(px)) % tuple(np.column_stack((px, py)).ravel().tolist())
            fh.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>\n')
        fh.write(tail)

    write.values = 2 * sum(len(px) for _, px, _ in polylines)
    return write
