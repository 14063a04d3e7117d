"""Hand-rolled SVG rendering of gate traces.

SVG is assembled from formatted strings, so output is byte-identical for
identical inputs (no timestamps, no library-injected ids).

Top panel: acoustic gate curve over the (normalized) energy curve, frames
whose energy falls below the trace mean shaded. Bottom panel: one heatmap
cell per textual token colored by gate value, negative-sentiment tokens
outlined.
"""

from __future__ import annotations

import numpy as np

from .analysis import GateTrace
from .atomic import atomic_write
from .errors import ConfigError

_W = 720
_PANEL_H = 160
_PAD = 40
_CELL_H = 48


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _polyline(xs, ys, color: str, width: float = 1.5) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{pts}"/>'


def _gate_color(g: float) -> str:
    # light -> dark blue ramp over [0, 1]
    v = int(round(235 - 180 * min(max(g, 0.0), 1.0)))
    return f"rgb({v},{v},235)"


def render_trace_svg(trace: GateTrace) -> str:
    na = len(trace.gates_a)
    nt = len(trace.gates_t)
    if na == 0 or nt == 0:
        raise ConfigError("trace has no valid positions to render")
    height = 2 * _PAD + _PANEL_H + _CELL_H + 60
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{height}" '
        f'viewBox="0 0 {_W} {height}">',
        f'<rect width="{_W}" height="{height}" fill="white"/>',
        f'<text x="{_PAD}" y="20" font-size="13" font-family="sans-serif">'
        f"sample {trace.sample.sample_id} (class {trace.sample.label}): acoustic gates"
        "</text>",
    ]

    # acoustic panel
    x0, y0 = _PAD, 30
    xs = x0 + (np.arange(na) / max(na - 1, 1)) * (_W - 2 * _PAD)
    energy = trace.sample.energy
    if energy is not None:
        lo, hi = energy.min(), energy.max()
        span = hi - lo if hi > lo else 1.0
        e_norm = (energy - lo) / span
        threshold = energy.mean()
        cell_w = (_W - 2 * _PAD) / na
        for i, e in enumerate(energy):
            if e < threshold:
                parts.append(
                    f'<rect x="{_fmt(x0 + i * cell_w)}" y="{y0}" width="{_fmt(cell_w)}" '
                    f'height="{_PANEL_H}" fill="#cfe2ff"/>'
                )
        parts.append(_polyline(xs, y0 + _PANEL_H * (1.0 - e_norm), "#888888", 1.0))
    parts.append(_polyline(xs, y0 + _PANEL_H * (1.0 - np.asarray(trace.gates_a)), "#d9480f", 1.8))
    parts.append(
        f'<rect x="{x0}" y="{y0}" width="{_W - 2 * _PAD}" height="{_PANEL_H}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )

    # textual heatmap
    y1 = y0 + _PANEL_H + 36
    parts.append(
        f'<text x="{_PAD}" y="{y1 - 8}" font-size="13" font-family="sans-serif">'
        "textual gates (outlined = negative-sentiment token)</text>"
    )
    cell_w = (_W - 2 * _PAD) / nt
    flags = trace.sample.negative_token_flags
    for j, g in enumerate(trace.gates_t):
        x = _PAD + j * cell_w
        parts.append(
            f'<rect x="{_fmt(x)}" y="{y1}" width="{_fmt(cell_w)}" height="{_CELL_H}" '
            f'fill="{_gate_color(float(g))}" stroke="#dddddd" stroke-width="0.5"/>'
        )
        if flags is not None and flags[j]:
            parts.append(
                f'<rect x="{_fmt(x + 1)}" y="{y1 + 1}" width="{_fmt(cell_w - 2)}" '
                f'height="{_CELL_H - 2}" fill="none" stroke="#c92a2a" stroke-width="2"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_trace_plot(trace: GateTrace, path: str) -> None:
    svg = render_trace_svg(trace)
    try:
        with atomic_write(path) as f:
            f.write(svg)
    except OSError as e:
        raise ConfigError(f"cannot write trace plot to {path}: {e}") from e
