"""Minimal ASCII line plots for terminal-rendered figures.

Good enough to eyeball the Fig. 4 panels in CI logs: multiple curves share
one canvas, each drawn with its own glyph, with axis ranges annotated.
"""

from __future__ import annotations


import numpy as np

from ..errors import AnalysisError
from .series import FigureData

__all__ = ["render_figure"]

_GLYPHS = "ox+*#@%&"
#: Canvas width in characters.
WIDTH = 72


def render_figure(figure: FigureData, height: int = 20) -> str:
    """Render a :class:`FigureData` to fixed-width text, :data:`WIDTH`
    characters wide."""
    if not figure.curves:
        raise AnalysisError(f"figure {figure.title!r} has no curves")
    if height < 6:
        raise AnalysisError("canvas too small")
    width = WIDTH

    x_min = min(float(c.x.min()) for c in figure.curves)
    x_max = max(float(c.x.max()) for c in figure.curves)
    y_min = min(float(c.y.min()) for c in figure.curves)
    y_max = max(float(c.y.max()) for c in figure.curves)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    canvas = [[" "] * width for _ in range(height)]

    def to_col(x: float) -> int:
        return int(round((x - x_min) / (x_max - x_min) * (width - 1)))

    def to_row(y: float) -> int:
        return (height - 1) - int(round((y - y_min) / (y_max - y_min) * (height - 1)))

    for ci, curve in enumerate(figure.curves):
        glyph = _GLYPHS[ci % len(_GLYPHS)]
        # Dense resampling so lines read as lines, not dots.
        xs = np.linspace(float(curve.x.min()), float(curve.x.max()), width * 2)
        ys = np.interp(xs, curve.x, curve.y)
        for xv, yv in zip(xs, ys):
            canvas[to_row(float(yv))][to_col(float(xv))] = glyph

    legend = "   ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]} {c.label}" for i, c in enumerate(figure.curves)
    )
    lines = [
        figure.title,
        f"y: {figure.ylabel}  [{y_min:.3g}, {y_max:.3g}]",
    ]
    lines += ["|" + "".join(row) + "|" for row in canvas]
    lines.append(
        f"x: {figure.xlabel}  [{x_min:.3g}, {x_max:.3g}]"
    )
    lines.append(legend)
    return "\n".join(lines)
