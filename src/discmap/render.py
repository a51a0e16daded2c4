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
    """Maximal runs of node rows joined by arms along one axis, by first row.

    axis 0 walks +x (arm slot E=1), axis 1 walks +y (arm slot N=3); a run
    extends only through arms, so lines never jump across gaps in the
    covered region.  Sorted along the walk, an arm leads to the next node;
    each node, a cell corner, has arms along both axes, so no run is single.
    """
    arm = 1 if axis == 0 else 3
    walk = np.lexsort((grid.nodes[:, axis], grid.nodes[:, 1 - axis]))
    breaks = np.flatnonzero(grid.neighbors[walk[:-1], arm] < 0) + 1
    runs = np.split(walk, breaks)
    runs.sort(key=lambda run: run[0])
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
    # each node's "re,im" text once; a polyline joins its nodes' texts
    text = map("{!r},{!r}".format, m.values.real.tolist(), m.values.imag.tolist())
    points = np.array(list(text), dtype=object)
    for axis in (0, 1):
        for run in _polyline_runs(m.grid, axis):
            pts = " ".join(points[run])
            parts.append(
                f'<polyline points="{pts}" stroke="{stroke}" '
                f'stroke-width="{stroke_width!r}"/>\n'
            )
    parts.append("</g>\n</svg>\n")
    return "".join(parts)
