"""Deterministic SVG picture of the mapped grid.

Draws the images under H of the horizontal and vertical grid lines of
the covered region, as polylines through the node samples, inside the
unit circle.  Output is plain text with no timestamps or randomness, so
identical maps render to identical bytes.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .geometry import DyadicGrid
from .mapping import ConformalMap

_HEADER = (
    '<svg xmlns="http://www.w3.org/2000/svg" '
    'viewBox="-1.05 -1.05 2.1 2.1" width="640" height="640">\n'
)


def _polyline_runs(grid: DyadicGrid, axis: int) -> List[np.ndarray]:
    """Maximal runs of consecutive node rows along one axis.

    axis 0 walks +x (arm slot E=1), axis 1 walks +y (arm slot N=3); a run
    extends only through arms, so lines never jump across gaps in the
    covered region.
    """
    arm = 1 if axis == 0 else 3
    next_row = grid.neighbors[:, arm]
    valid = next_row >= 0
    runs = []
    # run starts: nodes with an outgoing arm but no incoming one
    has_in = np.zeros(grid.node_count, dtype=bool)
    has_in[next_row[valid]] = True
    for start in np.where(valid & ~has_in)[0]:
        chain = [start]
        cur = start
        while next_row[cur] >= 0:
            cur = next_row[cur]
            chain.append(cur)
        runs.append(np.asarray(chain))
    return runs


def render_grid_image(
    m: ConformalMap,
    *,
    stroke: str = "#2060c0",
    circle_stroke: str = "#808080",
    stroke_width: float = 0.006,
) -> str:
    """SVG of the unit circle and the H-images of the map's grid lines.

    Polyline coordinates are the node samples of H verbatim (repr of the
    floats), wrapped in a y-flip so the mathematical orientation matches
    the screen.  Stroke-only: no fills, no text, no metadata.  The
    styling arguments are keyword-only.
    """
    parts = [_HEADER, '<g transform="matrix(1 0 0 -1 0 0)" fill="none">\n']
    parts.append(
        f'<circle cx="0" cy="0" r="1" stroke="{circle_stroke}" '
        f'stroke-width="{stroke_width!r}"/>\n'
    )
    vals = m.values
    for axis in (0, 1):
        for run in _polyline_runs(m.grid, axis):
            if len(run) < 2:
                continue
            pts = " ".join(
                f"{float(vals[i].real)!r},{float(vals[i].imag)!r}" for i in run
            )
            parts.append(
                f'<polyline points="{pts}" stroke="{stroke}" '
                f'stroke-width="{stroke_width!r}"/>\n'
            )
    parts.append("</g>\n</svg>\n")
    return "".join(parts)
