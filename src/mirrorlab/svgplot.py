"""Minimal self-contained SVG line plots (fixed 800x500 viewBox, no dependencies)."""

from __future__ import annotations

import math

WIDTH, HEIGHT = 800, 500
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf"]


def _ticks(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / 5  # about five ticks per axis
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-15 * step else t)
        t += step
    return out


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def line_plot(path, curves, title="", xlabel="", ylabel="", logy=False):
    """Write an SVG with one polyline per (label, xs, ys) curve."""
    data = []
    for label, xs, ys in curves:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y) and (not logy or y > 0)]
        if pts:
            data.append((label, pts))
    if not data:
        raise ValueError("nothing to plot")
    xs_all = [p[0] for _, pts in data for p in pts]
    ys_all = [math.log10(p[1]) if logy else p[1] for _, pts in data for p in pts]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + pw * (x - x_lo) / (x_hi - x_lo)

    def sy(y):
        y = math.log10(y) if logy else y
        return MARGIN_T + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2:.1f}" y="24" text-anchor="middle" font-size="16" font-family="sans-serif">{title}</text>',
    ]
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
                 'fill="none" stroke="#333" stroke-width="1"/>')
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        parts.append(f'<line x1="{x:.1f}" y1="{MARGIN_T+ph}" x2="{x:.1f}" y2="{MARGIN_T+ph+5}" stroke="#333"/>')
        parts.append(f'<text x="{x:.1f}" y="{MARGIN_T+ph+20}" text-anchor="middle" '
                     f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = MARGIN_T + ph * (1.0 - (t - y_lo) / (y_hi - y_lo))
        label = _fmt(10.0 ** t) if logy else _fmt(t)
        parts.append(f'<line x1="{MARGIN_L-5}" y1="{y:.1f}" x2="{MARGIN_L}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN_L-8}" y="{y+4:.1f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{label}</text>')
    parts.append(f'<text x="{MARGIN_L+pw/2:.1f}" y="{HEIGHT-10}" text-anchor="middle" '
                 f'font-size="13" font-family="sans-serif">{xlabel}</text>')
    parts.append(f'<text x="18" y="{MARGIN_T+ph/2:.1f}" text-anchor="middle" font-size="13" '
                 f'font-family="sans-serif" transform="rotate(-90 18 {MARGIN_T+ph/2:.1f})">{ylabel}</text>')
    for i, (label, pts) in enumerate(data):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN_T + 16 + 16 * i
        parts.append(f'<line x1="{MARGIN_L+pw-130}" y1="{ly-4}" x2="{MARGIN_L+pw-105}" y2="{ly-4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{MARGIN_L+pw-100}" y="{ly}" font-size="11" '
                     f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
    return path
