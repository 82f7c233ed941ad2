"""Text-mode structure snapshots — the "static visualization" of Section III.

Renders an (r, z) cross-section of the pore wall with the DNA beads
overlaid, the terminal stand-in for the paper's Fig. 1/Fig. 3 renderings.
The pore is axisymmetric, so the cross-section through the axis carries all
the structure; beads are projected to (|xy|, z).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import AnalysisError
from ..pore.geometry import PoreGeometry

__all__ = ["render_cross_section"]

#: Canvas size in characters (the width is even: the silhouette is
#: mirrored about the axis).
WIDTH = 64
HEIGHT = 30
#: Axial extent drawn beyond each pore mouth (A).
Z_MARGIN = 15.0


def render_cross_section(
    geometry: PoreGeometry,
    positions: Optional[np.ndarray] = None,
) -> str:
    """ASCII (r, z) cross-section: pore wall ``#``, membrane-ish exterior
    blank, DNA beads ``o`` (``O`` when two or more overlap a cell).

    The vertical axis is z (pore axis, top of the plot = +z); the horizontal
    axis is the cylindrical radius, mirrored about the axis for a familiar
    pore-silhouette look.
    """
    width, height = WIDTH, HEIGHT
    half = width // 2

    z_lo = geometry.z_bottom - Z_MARGIN
    z_hi = geometry.z_top + Z_MARGIN
    r_max = geometry.vestibule_radius * 1.4

    canvas = [[" "] * width for _ in range(height)]

    def to_row(z: float) -> int:
        frac = (z - z_lo) / (z_hi - z_lo)
        return int(round((1.0 - frac) * (height - 1)))

    def to_cols(r: float) -> tuple[int, int]:
        c = int(round(r / r_max * (half - 1)))
        c = min(c, half - 1)
        return half - 1 - c, half + c

    # Pore wall silhouette.
    for row in range(height):
        z = z_hi - (z_hi - z_lo) * row / (height - 1)
        if geometry.z_bottom <= z <= geometry.z_top:
            r = float(geometry.radius(z))
            left, right = to_cols(r)
            canvas[row][left] = "#"
            canvas[row][right] = "#"

    # Axis marker.
    for row in range(height):
        if canvas[row][half - 1] == " " and row % 4 == 0:
            canvas[row][half - 1] = "."

    # DNA beads.
    if positions is not None:
        pos = np.asarray(positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise AnalysisError("positions must be (n, 3)")
        for x, y, z in pos:
            if not (z_lo <= z <= z_hi):
                continue
            r = float(np.hypot(x, y))
            if r > r_max:
                continue
            row = to_row(float(z))
            # Place on the +r side (beads have no sign in the projection).
            _, col = to_cols(r)
            canvas[row][col] = "O" if canvas[row][col] in ("o", "O") else "o"

    lines = [f"z = {z_hi:+.0f} A".rjust(width)]
    lines += ["".join(row) for row in canvas]
    lines.append(f"z = {z_lo:+.0f} A".rjust(width))
    lines.append("legend: # pore wall   o DNA bead   . pore axis")
    return "\n".join(lines)
