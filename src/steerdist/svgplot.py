"""Minimal self-contained SVG output: line charts and categorical heat maps.

CSV files are the canonical results; these renderers exist so sweeps can be
eyeballed without any plotting dependency.  Deterministic output: same data,
same bytes.
"""

from __future__ import annotations

import itertools
import math

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 46
_PLOT_W, _PLOT_H = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]

REGION_COLORS = {
    "two_way": "#4878cf",
    "one_way_a_to_b": "#e8c340",
    "one_way_b_to_a": "#e89440",
    "none": "#b0b0b0",
}


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    out, t = [], math.ceil(lo / step) * step
    while t <= hi + 1e-12:
        out.append(round(t, 12))
        t += step
    return out


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _write_frame(path, title: str, under: list, over: list, xlabel: str,
                 xlabel_y: float, ylabel: str) -> None:
    """Write one chart: the root tag, background and title, the ``under``
    elements, the plot frame, the ``over`` elements, both axis labels."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2:.1f}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>',
        *under,
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{_PLOT_W}" height="{_PLOT_H}" '
        f'fill="none" stroke="#444444"/>',
        *over,
        f'<text x="{WIDTH/2:.1f}" y="{xlabel_y}" text-anchor="middle">{_esc(xlabel)}</text>',
        f'<text x="16" y="{HEIGHT/2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {HEIGHT/2:.1f})">{_esc(ylabel)}</text>',
        "</svg>",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def line_chart(x, series: dict, path, title: str = "", xlabel: str = "",
               ylabel: str = "") -> None:
    """Write a line chart; ``series`` maps label -> list of y (None = gap)."""
    xs = [float(v) for v in x]
    ys_all = [v for ys in series.values() for v in ys if v is not None and math.isfinite(v)]
    if not xs or not ys_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(v):
        return MARGIN_L + _PLOT_W * (v - x_lo) / (x_hi - x_lo) if x_hi > x_lo else MARGIN_L

    def py(v):
        return MARGIN_T + _PLOT_H * (1.0 - (v - y_lo) / (y_hi - y_lo))

    grid = []
    for t in _ticks(x_lo, x_hi):
        xp = px(t)
        grid.append(f'<line x1="{xp:.1f}" y1="{MARGIN_T}" x2="{xp:.1f}" '
                    f'y2="{HEIGHT - MARGIN_B}" stroke="#eeeeee"/>')
        grid.append(f'<text x="{xp:.1f}" y="{HEIGHT - MARGIN_B + 16}" '
                    f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        yp = py(t)
        grid.append(f'<line x1="{MARGIN_L}" y1="{yp:.1f}" x2="{WIDTH - MARGIN_R}" '
                    f'y2="{yp:.1f}" stroke="#eeeeee"/>')
        grid.append(f'<text x="{MARGIN_L - 6}" y="{yp + 4:.1f}" '
                    f'text-anchor="end">{t:g}</text>')
    lines = []
    for k, (label, ys) in enumerate(series.items()):
        color = PALETTE[k % len(PALETTE)]
        points = [None if yv is None or not math.isfinite(yv) else f"{px(xv):.1f},{py(yv):.1f}"
                  for xv, yv in zip(xs, ys)]
        # one polyline per run of finite points
        for gap, seg in itertools.groupby(points, key=lambda p: p is None):
            if not gap:
                lines.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 14 + 15 * k
        lines.append(f'<line x1="{WIDTH - MARGIN_R - 150}" y1="{ly - 4}" '
                     f'x2="{WIDTH - MARGIN_R - 126}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        lines.append(f'<text x="{WIDTH - MARGIN_R - 120}" y="{ly}">{_esc(label)}</text>')
    _write_frame(path, title, grid, lines, xlabel, HEIGHT - 10, ylabel)


def region_map(g_values, loss_values, regions, path, title: str = "") -> None:
    """Categorical heat map; ``regions[i][j]`` labels (g_values[i], loss_values[j])."""
    gs, ls = [float(v) for v in g_values], [float(v) for v in loss_values]
    cw, chh = _PLOT_W / len(ls), _PLOT_H / len(gs)
    cells = []
    for i in range(len(gs)):
        for j in range(len(ls)):
            color = REGION_COLORS.get(regions[i][j], "#ffffff")
            x = MARGIN_L + j * cw
            y = MARGIN_T + _PLOT_H - (i + 1) * chh
            cells.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.5:.2f}" '
                         f'height="{chh + 0.5:.2f}" fill="{color}"/>')
    labels = []
    for j in range(0, len(ls), max(1, len(ls) // 6)):
        x = MARGIN_L + (j + 0.5) * cw
        labels.append(f'<text x="{x:.1f}" y="{HEIGHT - MARGIN_B + 16}" '
                      f'text-anchor="middle">{ls[j]:g}</text>')
    for i in range(0, len(gs), max(1, len(gs) // 6)):
        y = MARGIN_T + _PLOT_H - (i + 0.5) * chh
        labels.append(f'<text x="{MARGIN_L - 6}" y="{y + 4:.1f}" text-anchor="end">{gs[i]:g}</text>')
    for k, (label, color) in enumerate(REGION_COLORS.items()):
        lx = MARGIN_L + 140 * k
        labels.append(f'<rect x="{lx}" y="{HEIGHT - 14}" width="10" height="10" fill="{color}"/>')
        labels.append(f'<text x="{lx + 14}" y="{HEIGHT - 5}">{_esc(label)}</text>')
    _write_frame(path, title, cells, labels, "loss", HEIGHT - 26, "gain")
