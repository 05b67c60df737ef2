"""Minimal self-contained SVG plots of simulation output.

No plotting stack: the files must be byte-stable across runs and
machines, embed no fonts, and need nothing at view time. Long
trajectories are decimated to at most 4000 vertices before rendering,
which is below visual resolution at 800x600.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .integrator import Trajectory

__all__ = ["line_plot", "trajectory_plots"]

_W, _H = 800, 600
_ML, _MR, _MT, _MB = 72, 24, 44, 58
_MAX_POINTS = 4000
_SQ2 = math.sqrt(2.0)
_SQ6 = math.sqrt(6.0)


def _fmt(v: float) -> str:
    out = f"{v:.6g}"
    return "0" if out == "-0" else out


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About six round tick values in [lo, hi], for lo < hi."""
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step)
    last = math.floor(hi / step + 1e-9)
    return [k * step for k in range(first, last + 1)]


def _decimate(n: int) -> np.ndarray:
    if n <= _MAX_POINTS:
        return np.arange(n)
    # the rounded grid steps by (n - 1)/3999 > 1, so it is strictly increasing
    return np.linspace(0, n - 1, _MAX_POINTS).round().astype(int)


def line_plot(x, y, title: str, xlabel: str, ylabel: str) -> str:
    """One polyline with framed axes, grid and tick labels, as SVG text."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ok = np.isfinite(x) & np.isfinite(y)
    x, y = x[ok], y[ok]
    if len(x) == 0:
        x = y = np.zeros(1)
    xmin, xmax = float(x.min()), float(x.max())
    ymin, ymax = float(y.min()), float(y.max())
    if xmax <= xmin:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax <= ymin:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    # pixel coordinates of a value or, elementwise, of an array
    def px(v):
        return _ML + (v - xmin) / (xmax - xmin) * pw

    def py(v):
        return _MT + (1.0 - (v - ymin) / (ymax - ymin)) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_W // 2}" y="26" font-family="sans-serif" font-size="16" '
        f'text-anchor="middle" fill="#222222">{title}</text>',
    ]
    for t in _nice_ticks(xmin, xmax):
        gx = px(t)
        parts.append(f'<line x1="{gx:.2f}" y1="{_MT}" x2="{gx:.2f}" y2="{_MT + ph}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{gx:.2f}" y="{_MT + ph + 18}" font-family="sans-serif" '
                     f'font-size="12" text-anchor="middle" fill="#444444">{_fmt(t)}</text>')
    for t in _nice_ticks(ymin, ymax):
        gy = py(t)
        parts.append(f'<line x1="{_ML}" y1="{gy:.2f}" x2="{_ML + pw}" y2="{gy:.2f}" '
                     f'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 6}" y="{gy + 4:.2f}" font-family="sans-serif" '
                     f'font-size="12" text-anchor="end" fill="#444444">{_fmt(t)}</text>')
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#444444" stroke-width="1"/>')
    pts = " ".join(map("{:.2f},{:.2f}".format, px(x).tolist(), py(y).tolist()))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f77b4" '
                 f'stroke-width="1.2" stroke-linejoin="round"/>')
    parts.append(f'<text x="{_ML + pw // 2}" y="{_H - 14}" font-family="sans-serif" '
                 f'font-size="14" text-anchor="middle" fill="#222222">{xlabel}</text>')
    parts.append(f'<text x="20" y="{_MT + ph // 2}" font-family="sans-serif" font-size="14" '
                 f'text-anchor="middle" fill="#222222" '
                 f'transform="rotate(-90 20 {_MT + ph // 2})">{ylabel}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def trajectory_plots(traj: Trajectory, out_dir) -> list[Path]:
    """Waveforms, the (u, v) orbit, and the orbit projected orthogonal
    to the diagonal (1,1,1); returns the five written paths."""
    out = Path(out_dir)
    idx = _decimate(len(traj.states))
    t = traj.step * idx
    u, v, w = (traj.states[idx, k] for k in range(3))
    figures = [(f"waveform_{name}", t, comp, f"{name}(t)", "t", name)
               for name, comp in (("u", u), ("v", v), ("w", w))]
    figures += [("phase_uv", u, v, "orbit in the (u, v) plane", "u", "v"),
                ("phase_uvw_projection", (u - v) / _SQ2, (u + v - 2.0 * w) / _SQ6,
                 "orbit projected orthogonal to (1, 1, 1)",
                 "(u - v)/sqrt(2)", "(u + v - 2w)/sqrt(6)")]
    written = []
    for name, x, y, title, xlabel, ylabel in figures:
        path = out / f"{name}.svg"
        path.write_text(line_plot(x, y, title, xlabel, ylabel), encoding="utf-8")
        written.append(path)
    return written
