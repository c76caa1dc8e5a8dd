"""Minimal self-contained SVG line plots.

No external plotting dependency: a plot is a background rect, two axes with
tick marks, one polyline per series, and a legend box.  All coordinates and
labels are formatted with a fixed precision so identical data produces
byte-identical files.
"""

from __future__ import annotations

import math

PALETTE = ["#1f6fb4", "#d95f02", "#2a9d53", "#c23b80", "#7a5195", "#8a6d1d", "#4b4b4b", "#0fa3a3"]

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62, 16, 34, 46
_WIDTH, _HEIGHT = 720, 460
_TICKS = 5  # about this many ticks per axis


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] with a 1/2/5 step."""
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / _TICKS
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= _TICKS + 1:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        value += step
    return ticks


def line_plot(
    series: list[tuple[str, list[float], list[float]]],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    path=None,
) -> str:
    """Render labelled (xs, ys) series as one SVG document string.

    Non-finite points are dropped.  When ``path`` is given the document is
    also written there.
    """
    cleaned = []
    for label, xs, ys in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
        cleaned.append((label, pts))
    all_pts = [p for _, pts in cleaned for p in pts]
    if all_pts:
        x_lo = min(p[0] for p in all_pts)
        x_hi = max(p[0] for p in all_pts)
        y_lo = min(p[1] for p in all_pts)
        y_hi = max(p[1] for p in all_pts)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    y_pad = 0.05 * (y_hi - y_lo)
    y_lo -= y_pad
    y_hi += y_pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>',
    ]
    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )
    for tx in _nice_ticks(x_lo, x_hi):
        x = px(tx)
        out.append(f'<line x1="{x:.2f}" y1="{_MARGIN_T + plot_h}" x2="{x:.2f}" '
                   f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{x:.2f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>')
    for ty in _nice_ticks(y_lo, y_hi):
        y = py(ty)
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" '
                   f'stroke="#333333" stroke-width="1"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>')
    if xlabel:
        out.append(f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{_escape(xlabel)}</text>')
    if ylabel:
        cy = _MARGIN_T + plot_h / 2
        out.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" font-family="sans-serif" '
                   f'font-size="12" transform="rotate(-90 16 {cy:.1f})">{_escape(ylabel)}</text>')

    for idx, (label, pts) in enumerate(cleaned):
        if not pts:
            continue
        color = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>')

    legend = [(idx, label) for idx, (label, pts) in enumerate(cleaned) if label]
    if legend:
        lx = _MARGIN_L + plot_w - 150
        ly = _MARGIN_T + 8
        box_h = 16 * len(legend) + 6
        out.append(f'<rect x="{lx - 6}" y="{ly - 4}" width="150" height="{box_h}" '
                   f'fill="#ffffff" fill-opacity="0.85" stroke="#999999" stroke-width="0.5"/>')
        for row, (idx, label) in enumerate(legend):
            color = PALETTE[idx % len(PALETTE)]
            y = ly + 8 + 16 * row
            out.append(f'<line x1="{lx}" y1="{y}" x2="{lx + 18}" y2="{y}" '
                       f'stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{lx + 24}" y="{y + 4}" font-family="sans-serif" '
                       f'font-size="11">{_escape(label)}</text>')
    out.append("</svg>")
    document = "\n".join(out) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(document)
    return document


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
