"""Assembly of the disc map from the solved potential.

The potential g (harmonic with boundary data -ln|z|) determines a
conjugate gconj up to a constant; the map is H(z) = z * exp(g + i*gconj).
The conjugate is accumulated on the dual grid (cell centers) where the
loop-closure defect around each plaquette equals the discrete Laplacian
of g at the enclosed node, so closure holds to solver accuracy.  The
additive constant is fixed so the interpolated conjugate vanishes at the
origin, which makes H'(0) = exp(g(0)) real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dirichlet import DEFAULT_TOL, ScalarField, _node_table, boundary_data, solve_dirichlet
from .errors import ClosureFailure, OutsideGrid
from .geometry import Domain, DyadicGrid, build_grid, spanning_fill

Point = Tuple[float, float]


def _cell_gradients(grid: DyadicGrid, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Average x and y slopes of a node field over each cell."""
    h = grid.spacing
    c = grid.cell_corners  # SW, SE, NW, NE
    gx = (values[c[:, 1]] + values[c[:, 3]] - values[c[:, 0]] - values[c[:, 2]]) / (2.0 * h)
    gy = (values[c[:, 2]] + values[c[:, 3]] - values[c[:, 0]] - values[c[:, 1]]) / (2.0 * h)
    return gx, gy


def conjugate_on_cells(
    grid: DyadicGrid, values: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Accumulate the conjugate at cell centers by flux path-integration.

    Stepping east between horizontally adjacent cells adds the difference
    of the node field across the shared vertical edge with a minus sign,
    -(top - bottom); stepping north adds +(right - left) across the shared
    horizontal edge.  These are the midpoint-rule increments of the
    conjugate differential.  Returns (cell values, worst loop-closure
    defect over all adjacent pairs).  The cell whose center lies nearest
    the origin carries value 0.
    """
    c = grid.cell_corners
    # arms E, W, N, S; the first writer decides the spanning tree
    arms = grid.cell_neighbors(((1, 0), (-1, 0), (0, 1), (0, -1)))
    delta_e = -(values[c[:, 3]] - values[c[:, 1]])  # NE - SE across east edge
    delta_n = values[c[:, 3]] - values[c[:, 2]]  # NE - NW across north edge
    # the reverse arm negates the increment stored on the far cell
    increment = np.column_stack(
        [delta_e, -delta_e[arms[:, 1]], delta_n, -delta_n[arms[:, 3]]]
    )

    centers = grid.cell_centers()
    start = int(np.argmin(centers[:, 0] ** 2 + centers[:, 1] ** 2))
    return spanning_fill(arms, start, increment)


def harmonic_conjugate(grid: DyadicGrid, pot: ScalarField) -> ScalarField:
    """Conjugate of a solved potential, carried back to the grid nodes.

    Cell-center values come from ``conjugate_on_cells``.  Each node then
    averages, over its incident cells, the cell value plus a first-order
    correction along the conjugate's own gradient (-gy, gx); the
    correction makes the transport exact for affine fields, rim nodes
    included, where plain averaging of one or two cells is biased.  The
    returned field's ``residual`` holds the closure defect, and
    ``ClosureFailure`` is raised when it exceeds 1e-6 * (1 + max|g|).
    """
    g = pot.values
    conj, closure = conjugate_on_cells(grid, g)
    bound = 1e-6 * (1.0 + float(np.abs(g).max()))
    if closure > bound:
        raise ClosureFailure(
            f"conjugate loop defect {closure:.3e} exceeds {bound:.3e}; "
            "input field is not harmonic on this grid or the covered "
            "region is not simply connected"
        )

    gx, gy = _cell_gradients(grid, g)
    h = grid.spacing
    sums = np.zeros(grid.node_count)
    counts = np.zeros(grid.node_count)
    # corner offsets from the cell center, in corner-slot order SW SE NW NE
    offsets = ((-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5))
    for slot, (ox, oy) in enumerate(offsets):
        rows = grid.cell_corners[:, slot]
        contrib = conj + (ox * h) * (-gy) + (oy * h) * gx
        np.add.at(sums, rows, contrib)
        np.add.at(counts, rows, 1.0)
    node_conj = sums / counts
    return ScalarField(grid=grid, values=node_conj, residual=closure)


@dataclass
class ConformalMap:
    """Immutable bundle of the assembled disc map on one grid.

    ``values`` holds H at the nodes, ``factor`` the nonvanishing h with
    H = z * h.  ``slope_x``/``slope_y`` are node derivatives of g used by
    ``eval_derivative``; ``one_sided`` marks nodes where a rim-adjacent
    one-sided difference replaced the central one.
    """

    grid: DyadicGrid
    potential: ScalarField
    conjugate: ScalarField
    factor: np.ndarray  # complex h per node
    values: np.ndarray  # complex H per node
    closure_residual: float
    slope_x: np.ndarray
    slope_y: np.ndarray
    one_sided: np.ndarray  # bool per node
    tol: float = DEFAULT_TOL

    @property
    def domain(self) -> Domain:
        return self.grid.domain


def _node_slopes(grid: DyadicGrid, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node x/y slopes: central differences where both arms exist,
    one-sided otherwise, with a mask of the one-sided nodes."""
    h = grid.spacing
    nb = grid.neighbors  # W, E, S, N
    out = []
    fallback = np.zeros(grid.node_count, dtype=bool)
    for lo, hi in ((0, 1), (2, 3)):
        lo_rows, hi_rows = nb[:, lo], nb[:, hi]
        has_lo, has_hi = lo_rows >= 0, hi_rows >= 0
        slope = np.zeros(grid.node_count)
        both = has_lo & has_hi
        slope[both] = (values[hi_rows[both]] - values[lo_rows[both]]) / (2.0 * h)
        only_hi = has_hi & ~has_lo
        slope[only_hi] = (values[hi_rows[only_hi]] - values[only_hi.nonzero()[0]]) / h
        only_lo = has_lo & ~has_hi
        slope[only_lo] = (values[only_lo.nonzero()[0]] - values[lo_rows[only_lo]]) / h
        fallback |= ~both
        out.append(slope)
    return out[0], out[1], fallback


def assemble_map(
    grid: DyadicGrid,
    pot: ScalarField,
    conj: ScalarField,
    tol: float = DEFAULT_TOL,
) -> ConformalMap:
    """Combine potential and conjugate into H(z) = z * exp(g + i*gconj).

    The conjugate's additive constant is re-fixed so its interpolated
    value at the origin is zero; H'(0) = exp(g(0)) is then real positive.
    """
    origin = np.zeros((1, 2))
    conj_values = conj.values - _bilinear(grid, origin, conj.values)[1][0]
    factor = np.exp(pot.values + 1j * conj_values)
    pts = grid.node_points()
    z = pts[:, 0] + 1j * pts[:, 1]
    values = z * factor
    sx, sy, fallback = _node_slopes(grid, pot.values)
    return ConformalMap(
        grid=grid,
        potential=pot,
        conjugate=ScalarField(grid=grid, values=conj_values, residual=conj.residual),
        factor=factor,
        values=values,
        closure_residual=conj.residual,
        slope_x=sx,
        slope_y=sy,
        one_sided=fallback,
        tol=tol,
    )


def build_map(
    domain: Domain,
    level: int,
    shift: float = 0.0,
    tol: float = DEFAULT_TOL,
) -> ConformalMap:
    """Full pipeline: grid, Dirichlet solve, conjugate, assembly.

    The domain must already contain the origin in its interior (see
    ``normalize_origin``); the solve and closure error bounds propagate.
    """
    grid = build_grid(domain, level, shift)
    data = boundary_data(grid)
    pot = solve_dirichlet(grid, data, tol)
    conj = harmonic_conjugate(grid, pot)
    return assemble_map(grid, pot, conj, tol=tol)


def _bilinear(grid: DyadicGrid, points: np.ndarray, *fields: np.ndarray):
    """Bilinear interpolation of node fields at (M, 2) points, each point
    located once.  Returns the (M, 4) corner rows of the cells holding the
    points, then one (M,) array per field."""
    rows, u, v = grid.locate(points)
    if (rows < 0).any():
        x, y = points[rows < 0][0]
        raise OutsideGrid(f"point ({x}, {y}) is outside the covered region")
    c = grid.cell_corners[rows]
    w = ((1.0 - u) * (1.0 - v), u * (1.0 - v), (1.0 - u) * v, u * v)
    return c, *(
        w[0] * f[c[:, 0]] + w[1] * f[c[:, 1]] + w[2] * f[c[:, 2]] + w[3] * f[c[:, 3]]
        for f in fields
    )


def _as_points(z) -> Tuple[np.ndarray, bool]:
    arr = np.asarray(z, dtype=float)
    if arr.ndim == 1 and arr.shape == (2,):
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == 2:
        return arr, False
    raise ValueError("expected a point (x, y) or an (M, 2) array of points")


def eval_map(m: ConformalMap, z):
    """H at a point (or (M, 2) array of points) inside the covered region
    by bilinear interpolation of the node samples.  Raises OutsideGrid for
    points not covered."""
    pts, single = _as_points(z)
    _, out = _bilinear(m.grid, pts, m.values)
    return complex(out[0]) if single else out


def eval_derivative(m: ConformalMap, z, with_flag: bool = False):
    """H' at a point (or points): h * (1 + z * (g_x - i g_y)) with the
    fields bilinear-interpolated.  With ``with_flag`` the result pairs
    with a bool (per point) marking reliance on one-sided rim stencils."""
    pts, single = _as_points(z)
    c, g, conj, sx, sy = _bilinear(
        m.grid, pts, m.potential.values, m.conjugate.values, m.slope_x, m.slope_y
    )
    zc = pts[:, 0] + 1j * pts[:, 1]
    deriv = np.exp(g + 1j * conj) * (1.0 + zc * (sx - 1j * sy))
    if with_flag:
        flagged = m.one_sided[c].any(axis=1)
        if single:
            return complex(deriv[0]), bool(flagged[0])
        return deriv, flagged
    return complex(deriv[0]) if single else deriv


def map_csv(m: ConformalMap) -> str:
    """Node table ``x,y,g,gconj,reH,imH``, written as ``dirichlet.field_csv``
    writes ``x,y,value``; the ``x,y,g`` columns equal that file's."""
    cols = (m.potential.values, m.conjugate.values, m.values.real, m.values.imag)
    return _node_table(m.grid, "x,y,g,gconj,reH,imH", *cols)
