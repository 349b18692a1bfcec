"""Minimal self-contained SVG output: line charts and categorical heat maps.

CSV files are the canonical results; these renderers exist so sweeps can be
eyeballed without any plotting dependency.  Deterministic output: same data,
same bytes.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 46

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
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12:
        out.append(round(t, 12))
        t += step
    return out


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def px(v):
        return MARGIN_L + pw * (v - x_lo) / (x_hi - x_lo) if x_hi > x_lo else MARGIN_L

    def py(v):
        return MARGIN_T + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2:.1f}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>',
    ]
    for t in _ticks(x_lo, x_hi):
        xp = px(t)
        parts.append(f'<line x1="{xp:.1f}" y1="{MARGIN_T}" x2="{xp:.1f}" '
                     f'y2="{HEIGHT - MARGIN_B}" stroke="#eeeeee"/>')
        parts.append(f'<text x="{xp:.1f}" y="{HEIGHT - MARGIN_B + 16}" '
                     f'text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        yp = py(t)
        parts.append(f'<line x1="{MARGIN_L}" y1="{yp:.1f}" x2="{WIDTH - MARGIN_R}" '
                     f'y2="{yp:.1f}" stroke="#eeeeee"/>')
        parts.append(f'<text x="{MARGIN_L - 6}" y="{yp + 4:.1f}" '
                     f'text-anchor="end">{t:g}</text>')
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#444444"/>')
    for k, (label, ys) in enumerate(series.items()):
        color = PALETTE[k % len(PALETTE)]
        segment = []
        chunks = []
        for xv, yv in zip(xs, ys):
            if yv is None or not math.isfinite(yv):
                if segment:
                    chunks.append(segment)
                segment = []
            else:
                segment.append(f"{px(xv):.1f},{py(yv):.1f}")
        if segment:
            chunks.append(segment)
        for seg in chunks:
            parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 14 + 15 * k
        parts.append(f'<line x1="{WIDTH - MARGIN_R - 150}" y1="{ly - 4}" '
                     f'x2="{WIDTH - MARGIN_R - 126}" y2="{ly - 4}" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{WIDTH - MARGIN_R - 120}" y="{ly}">{_esc(label)}</text>')
    parts.append(f'<text x="{WIDTH/2:.1f}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle">{_esc(xlabel)}</text>')
    parts.append(f'<text x="16" y="{HEIGHT/2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {HEIGHT/2:.1f})">{_esc(ylabel)}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def region_map(g_values, loss_values, regions, path, title: str = "") -> None:
    """Categorical heat map; ``regions[i][j]`` labels (g_values[i], loss_values[j])."""
    gs = [float(v) for v in g_values]
    ls = [float(v) for v in loss_values]
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B
    cw = pw / len(ls)
    chh = ph / len(gs)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2:.1f}" y="20" text-anchor="middle" font-size="14">{_esc(title)}</text>',
    ]
    for i in range(len(gs)):
        for j in range(len(ls)):
            color = REGION_COLORS.get(regions[i][j], "#ffffff")
            x = MARGIN_L + j * cw
            y = MARGIN_T + ph - (i + 1) * chh
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw + 0.5:.2f}" '
                         f'height="{chh + 0.5:.2f}" fill="{color}"/>')
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#444444"/>')
    for j in range(0, len(ls), max(1, len(ls) // 6)):
        x = MARGIN_L + (j + 0.5) * cw
        parts.append(f'<text x="{x:.1f}" y="{HEIGHT - MARGIN_B + 16}" '
                     f'text-anchor="middle">{ls[j]:g}</text>')
    for i in range(0, len(gs), max(1, len(gs) // 6)):
        y = MARGIN_T + ph - (i + 0.5) * chh
        parts.append(f'<text x="{MARGIN_L - 6}" y="{y + 4:.1f}" text-anchor="end">{gs[i]:g}</text>')
    for k, (label, color) in enumerate(REGION_COLORS.items()):
        lx = MARGIN_L + 140 * k
        parts.append(f'<rect x="{lx}" y="{HEIGHT - 14}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{lx + 14}" y="{HEIGHT - 5}">{_esc(label)}</text>')
    parts.append(f'<text x="{WIDTH/2:.1f}" y="{HEIGHT - 26}" text-anchor="middle">loss</text>')
    parts.append(f'<text x="16" y="{HEIGHT/2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {HEIGHT/2:.1f})">gain</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
