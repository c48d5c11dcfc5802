"""Minimal deterministic SVG emission for line plots and histograms.

Plots are self-contained: inline attributes only, generic font family,
no timestamps, and fixed float formatting, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 48
PALETTE = ("#1f6fb2", "#d0592a", "#3a8f3a", "#7b4fa6", "#8a8a8a")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, count: int = 5) -> np.ndarray:
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


class _Canvas:
    def __init__(self, xlim, ylim, title, xlabel, ylabel):
        self.xlim, self.ylim = xlim, ylim
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
            f'<text x="{WIDTH / 2:.1f}" y="22" font-family="sans-serif" '
            f'font-size="15" text-anchor="middle">{title}</text>',
        ]
        self._axes(xlabel, ylabel)

    def _x(self, v: float) -> float:
        lo, hi = self.xlim
        span = (hi - lo) or 1.0
        return MARGIN_L + (v - lo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def _y(self, v: float) -> float:
        lo, hi = self.ylim
        span = (hi - lo) or 1.0
        return HEIGHT - MARGIN_B - (v - lo) / span * (HEIGHT - MARGIN_T - MARGIN_B)

    def _axes(self, xlabel, ylabel):
        x0, x1 = MARGIN_L, WIDTH - MARGIN_R
        y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
        self.parts.append(
            f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
            f'fill="none" stroke="#404040" stroke-width="1"/>')
        for t in _ticks(*self.xlim):
            px = self._x(t)
            self.parts.append(
                f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" '
                f'stroke="#404040" stroke-width="1"/>')
            self.parts.append(
                f'<text x="{px:.2f}" y="{y0 + 18}" font-family="sans-serif" '
                f'font-size="11" text-anchor="middle">{_fmt(t)}</text>')
        for t in _ticks(*self.ylim):
            py = self._y(t)
            self.parts.append(
                f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" '
                f'stroke="#404040" stroke-width="1"/>')
            self.parts.append(
                f'<text x="{x0 - 8}" y="{py + 4:.2f}" font-family="sans-serif" '
                f'font-size="11" text-anchor="end">{_fmt(t)}</text>')
        self.parts.append(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 10}" '
            f'font-family="sans-serif" font-size="13" '
            f'text-anchor="middle">{xlabel}</text>')
        self.parts.append(
            f'<text x="16" y="{(y0 + y1) / 2:.1f}" font-family="sans-serif" '
            f'font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 16 {(y0 + y1) / 2:.1f})">{ylabel}</text>')

    def polyline(self, xs, ys, color: str, dash: str | None = None,
                 width: float = 1.5):
        # _x and _y map whole arrays with the scalar operations, elementwise.
        with np.errstate(invalid="ignore", over="ignore"):
            px = self._x(np.asarray(xs, dtype=float)).tolist()
            py = self._y(np.asarray(ys, dtype=float)).tolist()
        pts = " ".join([f"{x:.2f},{y:.2f}" for x, y in zip(px, py)])
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>')

    def bars(self, edges, heights, color: str):
        base = self._y(max(self.ylim[0], 0.0))
        for lo, hi, h in zip(edges[:-1], edges[1:], heights):
            x = self._x(lo)
            w = self._x(hi) - x
            y = self._y(h)
            self.parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" '
                f'height="{max(0.0, base - y):.2f}" fill="{color}" '
                f'fill-opacity="0.45" stroke="#606060" stroke-width="0.5"/>')

    def legend(self, entries):
        y = MARGIN_T + 14
        for label, color in entries:
            x = WIDTH - MARGIN_R - 170
            self.parts.append(
                f'<line x1="{x}" y1="{y - 4}" x2="{x + 24}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>')
            self.parts.append(
                f'<text x="{x + 30}" y="{y}" font-family="sans-serif" '
                f'font-size="12">{label}</text>')
            y += 16

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def _finite_limits(arrays) -> tuple[float, float]:
    vals = np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrays])
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return 0.0, 1.0
    lo, hi = float(vals.min()), float(vals.max())
    pad = 0.05 * ((hi - lo) or 1.0)
    return lo - pad, hi + pad


def line_plot(series, title: str, xlabel: str, ylabel: str) -> str:
    """Render labeled (x, y) series; ``series`` is a list of
    (xs, ys, label, dash) tuples."""
    xlim = _finite_limits([s[0] for s in series])
    ylim = _finite_limits([s[1] for s in series])
    canvas = _Canvas(xlim, ylim, title, xlabel, ylabel)
    entries = []
    for i, (xs, ys, label, dash) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        canvas.polyline(xs, ys, color, dash)
        entries.append((label, color))
    canvas.legend(entries)
    return canvas.render()


def histogram_plot(edges, densities, curves, title: str, xlabel: str,
                   ylabel: str) -> str:
    """Render histogram bars with overlaid reference curves.

    ``curves`` is a list of (xs, ys, label) tuples.
    """
    xlim = _finite_limits([edges] + [c[0] for c in curves])
    ylim = _finite_limits([densities, [0.0]] + [c[1] for c in curves])
    canvas = _Canvas(xlim, ylim, title, xlabel, ylabel)
    canvas.bars(edges, densities, "#9db8d2")
    entries = []
    for i, (xs, ys, label) in enumerate(curves):
        color = PALETTE[(i + 1) % len(PALETTE)]
        canvas.polyline(xs, ys, color)
        entries.append((label, color))
    canvas.legend(entries)
    return canvas.render()
