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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Tuple

import numpy as np

from .dirichlet import DEFAULT_TOL, ScalarField, _node_tables, boundary_data, solve_dirichlet
from .errors import ClosureFailure, OutsideGrid
from .geometry import Domain, DyadicGrid, build_grid, spanning_fill

Point = Tuple[float, float]

RIM_SAMPLES = 8
INDEX_CHUNK = 64  # most nodes per chunk of the nearest-node index
MAP_TABLE = ("x,y,g,gconj,reH,imH", 4)  # (header, value columns) of map.csv
ROOT_SLACK = 1e-12  # how far outside [0, 1] a cell coordinate may round


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
    counts = np.bincount(grid.cell_corners.ravel(), None, grid.node_count)
    # corner offsets from the cell center, in corner-slot order SW SE NW NE
    offsets = ((-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5))
    # a node is a corner at most once per slot, so adding slot by slot
    # keeps each node's order of summation; bincount would copy the
    # strided index column, so it is made contiguous here
    for slot, (ox, oy) in enumerate(offsets):
        rows = np.ascontiguousarray(grid.cell_corners[:, slot])
        contrib = conj + (ox * h) * (-gy) + (oy * h) * gx
        sums += np.bincount(rows, contrib, grid.node_count)
    node_conj = sums / counts
    return ScalarField(grid=grid, values=node_conj, residual=closure)


@dataclass
class ModulusReport:
    """Deviation of |H| from 1 along the covered region's rim.

    Node statistics cover the rim nodes, where the boundary data pins
    |H| = 1 exactly and only rounding remains.  Path statistics take
    RIM_SAMPLES + 1 evenly spaced points on each segment of the rim
    polygon, the exact image of the rim under the interpolated H; there
    the deviation is a real discretization error that shrinks under
    refinement, and the count preconditions use the path numbers for that
    reason.  With both segment ends on |H| = 1 the segment's least modulus
    is at its midpoint, which is one of the points taken.
    """

    node_max: float
    node_mean: float
    path_max: float
    path_mean: float
    path_min_modulus: float
    path_max_modulus: float

    @property
    def margin(self) -> float:
        return 2.0 * self.path_max


def _modulus_report(grid: DyadicGrid, values: np.ndarray) -> ModulusReport:
    """The rim-modulus report of the node values H on ``grid``."""
    node_dev = np.abs(np.abs(values[~grid.interior]) - 1.0)
    t = np.linspace(0.0, 1.0, RIM_SAMPLES + 1)
    a, b = values[grid.rim[:, 0]], values[grid.rim[:, 1]]
    path_mod = np.abs(a[:, None] * (1.0 - t) + b[:, None] * t).ravel()
    path_dev = np.abs(path_mod - 1.0)
    return ModulusReport(
        node_max=float(node_dev.max()),
        node_mean=float(node_dev.mean()),
        path_max=float(path_dev.max()),
        path_mean=float(path_dev.mean()),
        path_min_modulus=float(path_mod.min()),
        path_max_modulus=float(path_mod.max()),
    )


@dataclass
class NodeIndex:
    """Exact nearest-node lookup over the node values H of one map.

    Node rows, in (n2, n1) order, are cut into scanline chunks: at most
    INDEX_CHUNK consecutive rows, broken where n2 changes or n1 jumps, so
    each chunk is a short lattice segment and its H values stay close
    together.  Each chunk keeps the bounding box of its H values.
    """

    values: np.ndarray  # complex H per node
    starts: np.ndarray  # first row of each chunk
    sizes: np.ndarray  # rows per chunk
    re_lo: np.ndarray
    re_hi: np.ndarray
    im_lo: np.ndarray
    im_hi: np.ndarray

    @classmethod
    def build(cls, grid: DyadicGrid, values: np.ndarray) -> "NodeIndex":
        n1, n2 = grid.nodes.T
        run_start = np.ones(len(n1), dtype=bool)
        run_start[1:] = (np.diff(n2) != 0) | (np.diff(n1) != 1)
        first = np.flatnonzero(run_start)
        pos = np.arange(len(n1)) - first[np.cumsum(run_start) - 1]
        starts = np.flatnonzero(pos % INDEX_CHUNK == 0)
        sizes = np.diff(np.append(starts, len(n1)))
        re, im = values.real, values.imag
        return cls(
            values=values,
            starts=starts,
            sizes=sizes,
            re_lo=np.minimum.reduceat(re, starts),
            re_hi=np.maximum.reduceat(re, starts),
            im_lo=np.minimum.reduceat(im, starts),
            im_hi=np.maximum.reduceat(im, starts),
        )

    def nearest(self, w: complex) -> int:
        """Row of the node whose H lies nearest w, the lowest such row on
        a tie: the row ``np.argmin(np.abs(values - w))`` gives.

        The larger of the real and imaginary gaps from w to a chunk's box
        bounds |H - w| below over the chunk, and it is computed from the
        same rounded differences as |H - w|, so it never exceeds a node's
        computed distance.  The chunk of least bound is scanned for a true
        node distance d; only chunks whose bound is at most d can hold a
        node as near, and their rows, in ascending order, are scanned for
        the answer.
        """
        dx = np.maximum(np.maximum(self.re_lo - w.real, w.real - self.re_hi), 0.0)
        dy = np.maximum(np.maximum(self.im_lo - w.imag, w.imag - self.im_hi), 0.0)
        bound = np.maximum(dx, dy)
        k = int(np.argmin(bound))
        start = self.starts[k]
        d = np.abs(self.values[start : start + self.sizes[k]] - w).min()
        chunks = np.flatnonzero(bound <= d)
        sizes = self.sizes[chunks]
        rows = np.repeat(self.starts[chunks] - (np.cumsum(sizes) - sizes), sizes)
        rows += np.arange(len(rows))
        return int(rows[np.argmin(np.abs(self.values[rows] - w))])


@dataclass
class ConformalMap:
    """Immutable bundle of the assembled disc map on one grid.

    ``values`` holds H at the nodes, ``factor`` the nonvanishing h with
    H = z * h.  ``slope_x``/``slope_y`` are node derivatives of g used by
    ``eval_derivative``; ``one_sided`` marks nodes where a rim-adjacent
    one-sided difference replaced the central one.  ``modulus`` is the
    rim-modulus report, built once with the map; ``node_index`` is the
    nearest-node index, built on first use.
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
    modulus: ModulusReport
    tol: float = DEFAULT_TOL

    @property
    def domain(self) -> Domain:
        return self.grid.domain

    @cached_property
    def node_index(self) -> NodeIndex:
        return NodeIndex.build(self.grid, self.values)


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
    conj_values = conj.values - _bilinear_point(grid, 0.0, 0.0, conj.values)
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
        modulus=_modulus_report(grid, values),
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


def _bilinear_point(grid: DyadicGrid, x: float, y: float, f: np.ndarray):
    """``_bilinear`` of the one field f at the one point (x, y), in Python
    scalars, with the bits the array form gives."""
    row, u, v = grid.locate_point(x, y)
    if row < 0:
        raise OutsideGrid(f"point ({x}, {y}) is outside the covered region")
    c = grid.cell_corners[row].tolist()
    w = ((1.0 - u) * (1.0 - v), u * (1.0 - v), (1.0 - u) * v, u * v)
    return w[0] * f.item(c[0]) + w[1] * f.item(c[1]) + w[2] * f.item(c[2]) + w[3] * f.item(c[3])


def _preimages_at_node(
    grid: DyadicGrid, values: np.ndarray, node: int, w: complex
) -> Iterator[Point]:
    """Points (x, y), in Python floats, of the cells at node row ``node``
    where the bilinear interpolant of ``values`` is w.

    On a cell F = H_SW + u e + v f + u v g, so F = w makes d - u e, with
    d = w - H_SW, the real multiple v of f + u g.  Their cross product
    vanishes: a quadratic in u, solved without cancellation, and v is the
    ratio of the two.  A u or v within ROOT_SLACK of [0, 1] is clamped
    into it; a degenerate cell yields nothing.
    """
    n1, n2 = grid.nodes[node].tolist()
    pairs = [(n1 - 1, n2 - 1), (n1, n2 - 1), (n1 - 1, n2), (n1, n2)]
    for (c1, c2), row in zip(pairs, grid.cell_rows(pairs).tolist()):
        if row < 0:
            continue
        h0, h1, h2, h3 = map(values.item, grid.cell_corners[row].tolist())
        e, f, g, d = h1 - h0, h2 - h0, h3 - h2 - h1 + h0, w - h0
        a = (g.conjugate() * e).imag  # cross products, Im(conj(p) q)
        b = (d.conjugate() * g - e.conjugate() * f).imag
        c = (d.conjugate() * f).imag
        roots = [-c / b] if a == 0.0 and b != 0.0 else []
        disc = b * b - 4.0 * a * c
        if a != 0.0 and disc >= 0.0:
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            roots = [q / a, c / q] if q != 0.0 else [0.0]  # q = 0 only when b = c = 0
        for u in roots:
            if not -ROOT_SLACK <= u <= 1.0 + ROOT_SLACK:
                continue
            u = min(max(u, 0.0), 1.0)
            t = f + u * g
            v = ((d - u * e) / t).real if t else math.nan
            if -ROOT_SLACK <= v <= 1.0 + ROOT_SLACK:
                v = min(max(v, 0.0), 1.0)
                yield (c1 + u) * grid.spacing + grid.shift, (c2 + v) * grid.spacing + grid.shift


def _as_points(z) -> Tuple[np.ndarray, bool]:
    """A point (x, y) or (M, 2) points as an (M, 2) array, and whether it
    was the single point."""
    arr = np.asarray(z, dtype=float)
    if arr.shape != (2,) and not (arr.ndim == 2 and arr.shape[1] == 2):
        raise ValueError("expected a point (x, y) or an (M, 2) array of points")
    return arr.reshape(-1, 2), arr.shape == (2,)


def eval_map(m: ConformalMap, z):
    """H at a point (or (M, 2) array of points) inside the covered region
    by bilinear interpolation of the node samples.  Raises OutsideGrid for
    points not covered.  One point takes the scalar path
    (``DyadicGrid.locate_point``), an array the vectorised one
    (``DyadicGrid.locate``); both give the same bits."""
    pts, single = _as_points(z)
    if single:
        return _bilinear_point(m.grid, *pts[0].tolist(), m.values)
    return _bilinear(m.grid, pts, m.values)[1]


def eval_derivative(m: ConformalMap, z, with_flag: bool = False):
    """H' at a point (or (M, 2) array of points): h * (1 + z * (g_x - i g_y))
    with the fields bilinear-interpolated.  With ``with_flag`` the result
    pairs with a bool (per point) marking reliance on one-sided rim
    stencils.  A single point runs as a (1, 2) array and comes back as a
    Python complex and bool."""
    pts, single = _as_points(z)
    fields = (m.potential.values, m.conjugate.values, m.slope_x, m.slope_y)
    c, g, conj, sx, sy = _bilinear(m.grid, pts, *fields)
    zc = pts[:, 0] + 1j * pts[:, 1]
    deriv = np.exp(g + 1j * conj) * (1.0 + zc * (sx - 1j * sy))
    flag = m.one_sided[c].any(axis=1)
    if single:
        deriv, flag = complex(deriv[0]), bool(flag[0])
    return (deriv, flag) if with_flag else deriv


def node_tables(m: ConformalMap, *tables: Tuple[str, int]) -> Iterator[Tuple[str, ...]]:
    """Stream node tables of the map as ``dirichlet._node_tables`` does, over
    the columns g, gconj, reH, imH: ``MAP_TABLE`` is map.csv, and
    ``dirichlet.FIELD_TABLE`` is field.csv of the potential, since g is the
    first column."""
    cols = (m.potential.values, m.conjugate.values, m.values.real, m.values.imag)
    return _node_tables(m.grid, cols, *tables)


def map_csv(m: ConformalMap) -> str:
    """Node table ``x,y,g,gconj,reH,imH``, written as ``dirichlet.field_csv``
    writes ``x,y,value``; the ``x,y,g`` columns equal that file's."""
    return "".join(text for text, in node_tables(m, MAP_TABLE))
