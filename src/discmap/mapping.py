"""Assembly of the disc map from the solved potential.

The potential g (harmonic with boundary data -ln|z|) determines a
conjugate gconj up to a constant; the map is H(z) = z * exp(g + i*gconj).
The conjugate is accumulated on the dual grid (cell centers) where the
loop-closure defect around each plaquette equals the discrete Laplacian
of g at the enclosed node, so closure holds to solver accuracy.  The
additive constant is fixed so the interpolated conjugate vanishes at the
origin, which makes H'(0) = exp(g(0)) real and positive.

A ``ConformalMap`` stores only what it cannot cheaply derive.  The
factor h = H / z is recomputed on each read; the node slopes, the rim
table the winding count reads and the nearest-node index the inversion
starts from are built on first use and kept with the map, so building a
map, or solving with it, builds none of the probe tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Tuple

import numpy as np

from .dirichlet import (
    DEFAULT_TOL,
    ScalarField,
    _node_table_input,
    _node_tables,
    boundary_data,
    solve_dirichlet,
)
from .errors import ClosureFailure, OutsideGrid
from .geometry import Domain, DyadicGrid, build_grid, spanning_fill

Point = Tuple[float, float]

RIM_SAMPLES = 8
BUCKET_LOAD = 8  # nodes per bucket of the nearest-node index, on average
INDEX_SLACK = 1e-12  # relative rounding allowance of the index's stop test
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
class RimTable:
    """The rim polygon of one map as contiguous segment arrays.

    Segment e runs from a = H at ``grid.rim[e, 0]`` to b = H at
    ``grid.rim[e, 1]``, with d = b - a, its length |d|, |d|**2, and its
    reach 2|d|: a point within |d| of the segment lies within 2|d| of a.
    ``magnitude`` is the largest |a|, which scales the rounding of
    distances to the segments.
    """

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray
    length: np.ndarray
    length2: np.ndarray
    reach: np.ndarray
    magnitude: float

    @classmethod
    def build(cls, grid: DyadicGrid, values: np.ndarray) -> "RimTable":
        a = values[grid.rim[:, 0]]
        b = values[grid.rim[:, 1]]
        d = b - a
        length = np.abs(d)
        return cls(
            a=a,
            b=b,
            d=d,
            length=length,
            length2=length**2,
            reach=2.0 * length,
            magnitude=float(np.abs(a).max()),
        )


@dataclass
class NodeIndex:
    """Exact nearest-node lookup over the node values H of one map.

    The box of the H values is cut into a uniform grid of nx by ny
    buckets, about BUCKET_LOAD nodes each (Bentley, Weide & Yao, ACM TOMS
    6, 1980); the node count sets the grid.  ``order`` holds the node
    rows sorted by bucket, bucket (ix, iy) at key iy * nx + ix, and rows
    ascending within a bucket; bucket k holds ``order[starts[k]:
    starts[k + 1]]``.  ``build`` keeps a ``grid`` argument for callers
    but reads only the values.
    """

    values: np.ndarray  # complex H per node
    order: np.ndarray  # int32 node rows, by bucket
    starts: np.ndarray  # first position in order of each bucket, and the end
    nx: int
    ny: int
    re_lo: float
    im_lo: float
    bx: float  # bucket width
    by: float  # bucket height
    scale: float  # largest |Re H| or |Im H|, plus the box's width and height

    @classmethod
    def build(cls, grid: DyadicGrid, values: np.ndarray) -> "NodeIndex":
        re, im = values.real, values.imag
        re_lo, re_hi = float(re.min()), float(re.max())
        im_lo, im_hi = float(im.min()), float(im.max())
        wx, wy = re_hi - re_lo, im_hi - im_lo
        target = max(1, len(values) // BUCKET_LOAD)
        nx = ny = 1
        if wx > 0.0 and wy > 0.0:
            nx = max(1, round(math.sqrt(target * min(wx / wy, target))))
            ny = max(1, target // nx)
        elif wx > 0.0:
            nx = target
        elif wy > 0.0:
            ny = target
        bx = wx / nx if wx > 0.0 else 1.0
        by = wy / ny if wy > 0.0 else 1.0
        ix = np.minimum(((re - re_lo) / bx).astype(np.int64), nx - 1)
        iy = np.minimum(((im - im_lo) / by).astype(np.int64), ny - 1)
        key = iy * nx + ix
        # numpy sorts integers of at most 16 bits stably by radix, in O(V)
        order = np.argsort(key.astype(np.min_scalar_type(nx * ny - 1)), kind="stable").astype(np.int32)
        starts = np.zeros(nx * ny + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=nx * ny), out=starts[1:])
        scale = max(abs(re_lo), abs(re_hi), abs(im_lo), abs(im_hi)) + wx + wy
        return cls(values, order, starts, nx, ny, re_lo, im_lo, bx, by, scale)

    def nearest(self, w: complex) -> int:
        """Row of the node whose H lies nearest w, the lowest such row on
        a tie: the row ``np.argmin(np.abs(values - w))`` gives.

        A query centres on the bucket holding w, or on the nearest edge
        bucket for a w outside the box, and scans the 3 by 3 square of
        buckets around it, then wider squares, ring by ring or by as many
        rings as the best distance so far needs.  Distances are the same
        rounded |H - w| a full scan computes.  It stops only when the best
        distance is strictly below the distance from w to the buckets not
        yet scanned, less INDEX_SLACK times the scale of the values and w,
        which covers the rounding of the bucket bounds and of the
        distances.  A square that covers every bucket scans every node.
        """
        x, y = w.real, w.imag
        nx, ny = self.nx, self.ny
        # clamped into the box first, so a huge w gives no huge ratio
        cx = min(int(min(max(x - self.re_lo, 0.0), nx * self.bx) / self.bx), nx - 1)
        cy = min(int(min(max(y - self.im_lo, 0.0), ny * self.by) / self.by), ny - 1)
        slack = INDEX_SLACK * (self.scale + abs(x) + abs(y))
        order, starts = self.order, self.starts
        r = 1
        while True:
            x0, x1 = max(cx - r, 0), min(cx + r, nx - 1)
            y0, y1 = max(cy - r, 0), min(cy + r, ny - 1)
            if x0 == 0 and y0 == 0 and x1 == nx - 1 and y1 == ny - 1:
                return int(np.argmin(np.abs(self.values - w)))
            rows = np.concatenate(
                [order[starts[k + x0] : starts[k + x1 + 1]] for k in range(y0 * nx, y1 * nx + 1, nx)]
            )
            if len(rows) == 0:
                r += r // 2 + 1
                continue
            dist = np.abs(self.values[rows] - w)
            best = dist.min()
            gaps = []
            if x0 > 0:
                gaps.append(x - (self.re_lo + x0 * self.bx))
            if x1 < nx - 1:
                gaps.append(self.re_lo + (x1 + 1) * self.bx - x)
            if y0 > 0:
                gaps.append(y - (self.im_lo + y0 * self.by))
            if y1 < ny - 1:
                gaps.append(self.im_lo + (y1 + 1) * self.by - y)
            if best < min(gaps) - slack:
                return int(rows[dist == best].min())
            # a radius of nx + ny buckets covers them all, whatever the start
            side = min(self.bx, self.by)
            r = max(r + 1, math.ceil(min(best + slack, (nx + ny) * side) / side) + 1)


@dataclass
class ConformalMap:
    """Immutable bundle of the assembled disc map on one grid.

    ``values`` holds H at the nodes, and ``modulus`` the rim-modulus
    report, built once with the map.  The rest is derived and held only
    once read:
    - ``factor``, the nonvanishing h with H = z * h, is recomputed on
      each read, exp(g + i gconj), the expression that made ``values``;
    - ``slope_x``/``slope_y`` are node derivatives of g used by
      ``eval_derivative``, and ``one_sided`` marks nodes where a
      rim-adjacent one-sided difference replaced the central one; the
      three are computed together on first use and kept;
    - ``rim_table``, the rim segments the winding reads, and
      ``node_index``, the nearest-node index, are built on first use
      and kept.
    """

    grid: DyadicGrid
    potential: ScalarField
    conjugate: ScalarField
    values: np.ndarray  # complex H per node
    closure_residual: float
    modulus: ModulusReport
    tol: float = DEFAULT_TOL

    @property
    def domain(self) -> Domain:
        return self.grid.domain

    @property
    def factor(self) -> np.ndarray:
        return np.exp(self.potential.values + 1j * self.conjugate.values)

    @cached_property
    def _slopes(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _node_slopes(self.grid, self.potential.values)

    @property
    def slope_x(self) -> np.ndarray:
        return self._slopes[0]

    @property
    def slope_y(self) -> np.ndarray:
        return self._slopes[1]

    @property
    def one_sided(self) -> np.ndarray:  # bool per node
        return self._slopes[2]

    @cached_property
    def rim_table(self) -> RimTable:
        return RimTable.build(self.grid, self.values)

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
    pts = grid.node_points()
    z = pts[:, 0] + 1j * pts[:, 1]
    # factor is named, not a temporary: numpy may write a product into a
    # temporary operand's buffer, and that path can round differently
    factor = np.exp(pot.values + 1j * conj_values)
    values = z * factor
    return ConformalMap(
        grid=grid,
        potential=pot,
        conjugate=ScalarField(grid=grid, values=conj_values, residual=conj.residual),
        values=values,
        closure_residual=conj.residual,
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
    for c1, c2, row in grid.cells_at_node(node):
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


def _table_columns(m: ConformalMap) -> Tuple[np.ndarray, ...]:
    # views, no copies: reH and imH interleave in the complex values
    reim = np.ascontiguousarray(m.values).view(np.float64).reshape(-1, 2)
    return (m.potential.values[:, None], m.conjugate.values[:, None], reim)


def node_tables(m: ConformalMap, *tables: Tuple[str, int]) -> Iterator[Tuple[str, ...]]:
    """Stream node tables of the map as ``dirichlet._node_tables`` does, over
    the columns g, gconj, reH, imH: ``MAP_TABLE`` is map.csv, and
    ``dirichlet.FIELD_TABLE`` is field.csv of the potential, since g is the
    first column."""
    return _node_tables(m.grid, _table_columns(m), *tables)


def node_table_input(m: ConformalMap, blocks: range) -> Iterator[list]:
    """The input of a helper that formats the node blocks ``blocks`` of
    ``node_tables``, as ``dirichlet._node_table_input`` streams it."""
    return _node_table_input(m.grid, _table_columns(m), blocks)


def map_csv(m: ConformalMap) -> str:
    """Node table ``x,y,g,gconj,reH,imH``, written as ``dirichlet.field_csv``
    writes ``x,y,value``; the ``x,y,g`` columns equal that file's."""
    return "".join(text for text, in node_tables(m, MAP_TABLE))
