"""Discrete boundary-value solves on a dyadic grid.

The main entry point solves the five-point mean-value equations on
interior nodes with prescribed values elsewhere, by V-cycle-preconditioned
conjugate gradients on the associated positive definite system; the
V-cycle coarsens onto the even-lattice nodes, level by level.  A slow
monotone sweep (raise each value to its neighbor average) is kept as an
independent cross-check, together with the energy functional itself and
a max-principle diagnostic.  The pinned-node profile at the bottom shows
why a single puncture carries no weight in this discrete problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import LinearOperator, cg, splu

from . import geometry
from .errors import NoConvergence, OriginOnBoundary
from .geometry import DyadicGrid
from .tablerows import format_block, helper_input, lattice_labels

Node = Tuple[int, int]

DEFAULT_TOL = 1e-10
ITER_CAP_FACTOR = 50
COARSEST_SIZE = 400  # unknowns at or below which the V-cycle stops coarsening
JACOBI_DAMPING = 0.8  # 4/5: the best-smoothing Jacobi weight for the five-point stencil


@dataclass
class BoundaryData:
    """Prescribed node values, as two node arrays: ``fixed`` marks the nodes
    that get a value and ``values`` holds it, 0 at the other nodes.
    Construction checks that every non-interior node is fixed, then makes
    both arrays read-only so that the check keeps holding.

    Fixed interior nodes act as pins: the solver holds them fixed and they
    enter their neighbors' equations like rim values do.
    """

    grid: DyadicGrid
    fixed: np.ndarray  # (V,) bool
    values: np.ndarray  # (V,) float

    def __post_init__(self):
        missing = ~self.fixed & ~self.grid.interior
        if missing.any():
            raise ValueError(f"{int(missing.sum())} rim nodes have no prescribed value")
        self.fixed.flags.writeable = self.values.flags.writeable = False

    def range_span(self) -> float:
        vs = self.values[self.fixed]
        return float(vs.max() - vs.min())


def boundary_data(grid: DyadicGrid) -> BoundaryData:
    """Log-distance data: minus the log of each rim node's distance to 0.

    Requires the origin to be interior to the covered region, so that no
    rim node sits at the origin and the data stays finite.
    """
    if not grid.covers_point_interior((0.0, 0.0)):
        raise OriginOnBoundary(
            "origin is not strictly interior to the covered region; "
            "normalize the domain or refine the grid"
        )
    rim = ~grid.interior
    pts = grid.nodes[rim] * grid.spacing + grid.shift
    values = np.zeros(grid.node_count)
    values[rim] = -np.log(np.hypot(pts[:, 0], pts[:, 1]))
    return BoundaryData(grid, rim, values)


def boundary_data_from_function(
    grid: DyadicGrid,
    fn: Callable[[float, float], float],
    pins: Optional[Mapping[Node, float]] = None,
) -> BoundaryData:
    """Sample an arbitrary function on the rim, optionally pinning nodes."""
    fixed = ~grid.interior
    pts = grid.nodes[fixed] * grid.spacing + grid.shift
    values = np.zeros(grid.node_count)
    values[fixed] = [float(fn(x, y)) for x, y in pts]
    if pins:
        keys = np.array(list(pins), dtype=np.int64).reshape(-1, 2)
        rows = grid.node_rows(keys)
        if (rows < 0).any():
            n1, n2 = keys[rows < 0][0]
            raise ValueError(f"({n1}, {n2}) is not a node of this grid")
        fixed[rows] = True
        values[rows] = [float(v) for v in pins.values()]
    return BoundaryData(grid, fixed, values)


@dataclass
class ScalarField:
    """Node values on a grid plus the mean-value residual of the solve.

    ``constrained`` marks nodes whose values were prescribed rather than
    solved for (None when the field was built directly); ``iterations``
    counts the solver's conjugate-gradient steps (0 when none ran).
    """

    grid: DyadicGrid
    values: np.ndarray
    residual: float = 0.0
    constrained: Optional[np.ndarray] = None
    iterations: int = 0


def _mean_value_residual(
    grid: DyadicGrid, values: np.ndarray, free_rows: np.ndarray
) -> float:
    if len(free_rows) == 0:
        return 0.0
    nb = grid.neighbors[free_rows]
    avg = 0.25 * (
        values[nb[:, 0]] + values[nb[:, 1]] + values[nb[:, 2]] + values[nb[:, 3]]
    )
    return float(np.max(np.abs(values[free_rows] - avg)))


def _slot_matrix(cols: np.ndarray, values, width: int) -> csr_matrix:
    """CSR matrix whose row r holds ``values`` (broadcast to the shape of
    ``cols``) in column ``cols[r, k]`` for every slot k with
    ``cols[r, k] >= 0``; slots must come in ascending column order."""
    taken = cols >= 0
    counts = np.zeros(len(cols), dtype=np.int32)
    for k in range(cols.shape[1]):
        counts += taken[:, k]
    indptr = np.zeros(len(cols) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    data = np.broadcast_to(np.asarray(values, dtype=float), cols.shape)[taken]
    return csr_matrix((data, cols[taken], indptr), shape=(len(cols), width))


def _prolongation(coords: np.ndarray) -> Tuple[csr_matrix, np.ndarray]:
    """Bilinear interpolation onto the unknowns at the lattice ``coords``
    ((M, 2), sorted by (n2, n1)) from those whose two coordinates are both
    even, plus the coarse coordinates (halved).

    A node's parents sit at floor(coords / 2) plus 0 or 1 along each odd
    coordinate, each weighted 1/2 per odd coordinate.  Weights that would
    point at a pinned or absent node are dropped: the correction is zero
    there.
    """
    # whole columns: numpy reduces and shifts an (M, 2) array more slowly
    half1, half2 = coords[:, 0] >> 1, coords[:, 1] >> 1
    odd1, odd2 = coords[:, 0] & 1, coords[:, 1] & 1
    even = (odd1 | odd2) == 0
    lo1, lo2 = half1.min(), half2.min()
    stride = int(half2.max() - lo2) + 2
    key = (half1 - lo1) * stride + (half2 - lo2)
    table = np.full((int(half1.max() - lo1) + 2) * stride, -1, dtype=np.int32)
    table[key[even]] = np.arange(int(even.sum()), dtype=np.int32)
    cols = np.empty((len(coords), 4), dtype=np.int32)
    # parent steps in (n2, n1) order, so columns ascend along each row
    for slot, (d1, d2) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        reach = (odd1 >= d1) & (odd2 >= d2)
        cols[:, slot] = np.where(reach, table[key + d1 * stride + d2], -1)
    weights = np.array([1.0, 0.5, 0.25])[odd1 + odd2]
    coarse = np.column_stack([half1[even], half2[even]])
    return _slot_matrix(cols, weights[:, None], int(even.sum())), coarse


def _galerkin(a: csr_matrix, p: csr_matrix) -> csr_matrix:
    """The coarse operator P.T A P as CSR with sorted indices, from two CSR
    products, so that no operand changes format.  Its entries are dyadic
    rationals of a few bits, so the order of the products moves none."""
    coarse = p.T.tocsr() @ (a @ p)
    coarse.sort_indices()
    return coarse


def _v_cycle(a: csr_matrix, coords: np.ndarray) -> LinearOperator:
    """One symmetric V-cycle for ``a``, whose unknowns sit at the lattice
    ``coords``: damped Jacobi before and after each Galerkin coarse
    correction, ``splu`` on the coarsest level.  A system no larger than
    COARSEST_SIZE gets the exact ``splu`` solve alone.
    """
    n = a.shape[0]
    levels = []  # (A, omega / diag(A), P, P.T) per level above the coarsest
    while a.shape[0] > COARSEST_SIZE and ((coords[:, 0] | coords[:, 1]) & 1 == 0).any():
        p, coords = _prolongation(coords)
        r = p.T  # a CSC view sharing p's arrays, taken once
        levels.append((a, JACOBI_DAMPING / a.diagonal(), p, r))
        a = _galerkin(a, p)
    coarsest = splu(a.tocsc())

    # a down loop and an up loop, so the operator holds no reference cycle
    def apply(b):
        rhs, corr = [], []
        for a_l, dinv, _, r in levels:
            x = dinv * b
            rhs.append(b)
            corr.append(x)
            b = r @ (b - a_l @ x)
        x = coarsest.solve(b)
        for (a_l, dinv, p, _), b, x_l in zip(levels[::-1], rhs[::-1], corr[::-1]):
            x_l += p @ x
            x = x_l + dinv * (b - a_l @ x_l)
        return x

    return LinearOperator((n, n), matvec=apply, dtype=float)


def _assemble(
    grid: DyadicGrid, free: np.ndarray, vals: np.ndarray
) -> Tuple[csr_matrix, np.ndarray]:
    """4 v(p) minus the free neighbors' values at each free node p, and the
    right-hand side: the sum of its prescribed neighbors' values."""
    col_of = np.full(grid.node_count, -1, dtype=np.int32)
    col_of[free] = np.arange(len(free), dtype=np.int32)
    nb = grid.neighbors[free]  # interior nodes always have four arms
    # slots S W self E N: with rows in (n2, n1) order, ascending columns
    cols = np.empty((len(free), 5), dtype=np.int32)
    cols[:, 2] = col_of[free]
    rhs = np.zeros(len(free))
    for k, slot in enumerate((1, 3, 0, 4)):
        q = nb[:, k]
        cols[:, slot] = col_of[q]
        rhs += np.where(cols[:, slot] < 0, vals[q], 0.0)
    return _slot_matrix(cols, (-1.0, -1.0, 4.0, -1.0, -1.0), len(free)), rhs


def solve_dirichlet(
    grid: DyadicGrid, data: BoundaryData, tol: float = DEFAULT_TOL
) -> ScalarField:
    """Solve value(p) = mean of the four neighbors at every free node.

    V-cycle-preconditioned conjugate gradients on the positive definite
    form of the equations, zero initial guess, iteration cap 50 * node
    count.  The returned residual is the max-norm mean-value defect, held
    below tol * (data range + 1).
    """
    free = np.where(grid.interior & ~data.fixed)[0]
    target = tol * (data.range_span() + 1.0)
    if len(free) == 0:
        return ScalarField(grid, data.values.copy(), 0.0, data.fixed)

    a, rhs = _assemble(grid, free, data.values)
    iterations = 0

    def count(xk):
        nonlocal iterations
        iterations += 1

    # stop on the absolute 2-norm; it dominates the max-norm defect we owe
    x, info = cg(
        a, rhs, rtol=0.0, atol=2.0 * target,
        maxiter=ITER_CAP_FACTOR * grid.node_count,
        M=_v_cycle(a, grid.nodes[free]), callback=count,
    )
    if info != 0:
        raise NoConvergence(
            f"conjugate gradients stopped with status {info} before reaching "
            f"{2.0 * target:.3e}"
        )
    out = data.values.copy()
    out[free] = x
    res = _mean_value_residual(grid, out, free)
    if res > target:
        raise NoConvergence(
            f"mean-value residual {res:.3e} exceeds target {target:.3e}"
        )
    return ScalarField(grid, out, res, data.fixed, iterations)


def perron_iterate(
    grid: DyadicGrid, data: BoundaryData, sweeps: int
) -> ScalarField:
    """Monotone relaxation: raise each free value to its neighbor average.

    Start from the constant min of the data on free nodes; each sweep
    replaces every free value by max(current, neighbor average), using the
    previous sweep's values throughout so the result is order-free.  The
    iterates increase pointwise and stay discrete subsolutions; they climb
    toward the same limit the direct solve produces.  Stops early only at
    an exact fixed point.
    """
    free = np.where(grid.interior & ~data.fixed)[0]
    v = data.values.copy()
    if len(free) == 0:
        return ScalarField(grid, v, 0.0, data.fixed)
    v[free] = data.values[data.fixed].min()
    nb = grid.neighbors[free]
    for _ in range(sweeps):
        avg = 0.25 * (v[nb[:, 0]] + v[nb[:, 1]] + v[nb[:, 2]] + v[nb[:, 3]])
        new = np.maximum(v[free], avg)
        if np.array_equal(new, v[free]):
            break
        v[free] = new
    return ScalarField(grid, v, _mean_value_residual(grid, v, free), data.fixed)


def dirichlet_energy(
    grid: DyadicGrid, values: Union[ScalarField, np.ndarray]
) -> float:
    """Sum of squared differences across every distinct cell edge."""
    if isinstance(values, ScalarField):
        values = values.values
    pairs = grid.edge_pairs
    d = values[pairs[:, 0]] - values[pairs[:, 1]]
    return float(d @ d)


@dataclass
class MaxPrincipleReport:
    interior_min: float
    interior_max: float
    boundary_min: float
    boundary_max: float
    slack: float
    ok: bool


def check_max_principle(grid: DyadicGrid, fld: ScalarField) -> MaxPrincipleReport:
    """Interior range must sit inside the rim range, up to solver slack."""
    rim = ~grid.interior
    inner = grid.interior
    slack = 10.0 * fld.residual
    bmin = float(fld.values[rim].min())
    bmax = float(fld.values[rim].max())
    if inner.any():
        imin = float(fld.values[inner].min())
        imax = float(fld.values[inner].max())
    else:
        imin, imax = bmin, bmax
    ok = imin >= bmin - slack and imax <= bmax + slack
    return MaxPrincipleReport(imin, imax, bmin, bmax, slack, ok)


@dataclass
class PuncturedDiscProfile:
    """Solve on the unit disc with the origin pinned to 0 and rim data 1.

    The solution hugs (ln r - ln h) / (-ln h) with h the lattice spacing:
    as the grid refines, the profile climbs toward the constant 1 and the
    pin's influence evaporates, so no limit function can take both
    prescribed values.
    """

    level: int
    axis_radii: np.ndarray  # positive-axis node radii, ascending
    solved: np.ndarray
    predicted: np.ndarray
    value_at_half: float
    predicted_at_half: float

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "rim_value": 1.0,
            "pinned_value": 0.0,
            "axis": [
                {"radius": float(r), "solved": float(s), "predicted": float(p)}
                for r, s, p in zip(self.axis_radii, self.solved, self.predicted)
            ],
            "value_at_half": self.value_at_half,
            "predicted_at_half": self.predicted_at_half,
        }


def punctured_disc_profile(
    level: int, tol: float = DEFAULT_TOL
) -> PuncturedDiscProfile:
    from .geometry import Domain, build_grid

    grid = build_grid(Domain(kind="disc", center=(0.0, 0.0), radius=1.0), level)
    data = boundary_data_from_function(grid, lambda x, y: 1.0, pins={(0, 0): 0.0})
    fld = solve_dirichlet(grid, data, tol)

    on_axis = (grid.nodes[:, 1] == 0) & (grid.nodes[:, 0] > 0)
    order = np.argsort(grid.nodes[on_axis, 0])
    rows = np.where(on_axis)[0][order]
    radii = grid.node_points()[rows, 0]
    log_h = -level * math.log(2.0)
    predicted = (np.log(radii) - log_h) / (-log_h)

    half_row = rows[np.argmin(np.abs(radii - 0.5))]
    value_at_half = float(fld.values[half_row])
    x_half = grid.node_points()[half_row, 0]
    predicted_at_half = float((math.log(x_half) - log_h) / (-log_h))
    return PuncturedDiscProfile(
        level=level,
        axis_radii=radii,
        solved=fld.values[rows],
        predicted=predicted,
        value_at_half=value_at_half,
        predicted_at_half=predicted_at_half,
    )


FIELD_TABLE = ("x,y,value", 1)  # (header, value columns) of field.csv


def _lattice_lines(grid: DyadicGrid) -> List[Tuple[int, np.ndarray]]:
    """Per axis, the lowest lattice index of the grid's nodes and the
    coordinates of the lattice lines from there to the highest."""
    lo, hi = grid.nodes.min(axis=0).tolist(), grid.nodes.max(axis=0).tolist()
    return [(a, np.arange(a, b + 1) * grid.spacing + grid.shift) for a, b in zip(lo, hi)]


def _node_tables(
    grid: DyadicGrid, columns: Sequence[np.ndarray], *tables: Tuple[str, int]
) -> Iterator[Tuple[str, ...]]:
    """Stream CSV node tables that share their leading columns, in one pass.

    ``columns`` are (V, w) float arrays, w value columns each.  A table
    ``(header, k)`` has one row ``x,y`` plus the first k value columns per
    node, in grid order, every float as its ``repr``.  Each step yields one
    string per table: the header lines first, then the rows of
    ``geometry._BLOCK`` nodes at a time, as ``tablerows.format_block``
    formats them, once per float however many tables hold it.  The
    lattice-line coordinates are formatted once in all; beside them,
    memory holds the strings of one block at a time.
    ``_node_table_input`` hands any range of these blocks to a helper
    interpreter that formats them the same way.
    """
    (x0, xline), (y0, yline) = _lattice_lines(grid)
    xs, ys = lattice_labels(x0, xline.tolist()), lattice_labels(y0, yline.tolist())
    widths = [k for _, k in tables]
    yield tuple(header + "\n" for header, _ in tables)
    for start in range(0, grid.node_count, geometry._BLOCK):
        b = slice(start, start + geometry._BLOCK)
        nodes = memoryview(grid.nodes[b].reshape(-1))
        values = ((memoryview(c[b].reshape(-1)), c.shape[1]) for c in columns)
        yield format_block(xs, ys, nodes, values, widths)


def _node_table_input(
    grid: DyadicGrid, columns: Sequence[np.ndarray], blocks: range
) -> Iterator[List[memoryview]]:
    """The stdin of a ``tablerows`` helper that formats the node blocks
    ``blocks`` of ``_node_tables``."""
    return helper_input(_lattice_lines(grid), grid.nodes, columns, blocks, geometry._BLOCK)


def field_csv(fld: ScalarField) -> str:
    """CSV body ``x,y,value``, one row per node in grid order, (n2, n1), every
    float written as its Python ``repr`` (the shortest round-trip form); the
    columns equal the ``x,y,g`` columns of ``mapping.map_csv``."""
    columns = (fld.values[:, None],)
    return "".join(text for text, in _node_tables(fld.grid, columns, FIELD_TABLE))
