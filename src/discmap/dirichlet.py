"""Discrete boundary-value solves on a dyadic grid.

The main entry point solves the five-point mean-value equations on
interior nodes with prescribed values elsewhere, by conjugate-gradient
energy minimization on the associated positive definite system.  A slow
monotone sweep (raise each value to its neighbor average) is kept as an
independent cross-check, together with the energy functional itself and
a max-principle diagnostic.  The pinned-node profile at the bottom shows
why a single puncture carries no weight in this discrete problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import cg

from .errors import NoConvergence, OriginOnBoundary
from .geometry import DyadicGrid

Node = Tuple[int, int]

DEFAULT_TOL = 1e-10
ITER_CAP_FACTOR = 50


@dataclass
class BoundaryData:
    """Prescribed node values; every non-interior node must get one.

    Entries at interior nodes act as pins: the solver holds them fixed
    and they enter their neighbors' equations like rim values do.
    """

    grid: DyadicGrid
    values: Dict[Node, float]
    tag: str = "custom"

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(constrained mask, full-length value array, zeros elsewhere)."""
        grid = self.grid
        mask = np.zeros(grid.node_count, dtype=bool)
        vals = np.zeros(grid.node_count)
        keys = np.array(list(self.values), dtype=np.int64).reshape(-1, 2)
        rows = grid.node_rows(keys)
        if (rows < 0).any():
            n1, n2 = keys[rows < 0][0]
            raise ValueError(f"({n1}, {n2}) is not a node of this grid")
        mask[rows] = True
        vals[rows] = np.fromiter(self.values.values(), dtype=float, count=len(rows))
        missing = (~mask) & (~self.grid.interior)
        if missing.any():
            raise ValueError(
                f"{int(missing.sum())} rim nodes have no prescribed value"
            )
        return mask, vals

    def range_span(self) -> float:
        vs = list(self.values.values())
        return max(vs) - min(vs)


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
    pts = grid.node_points()[rim]
    radii = np.hypot(pts[:, 0], pts[:, 1])
    vals = -np.log(radii)
    entries = {
        (int(n1), int(n2)): float(v)
        for (n1, n2), v in zip(grid.nodes[rim], vals)
    }
    return BoundaryData(grid=grid, values=entries, tag="log_distance")


def boundary_data_from_function(
    grid: DyadicGrid,
    fn: Callable[[float, float], float],
    pins: Optional[Mapping[Node, float]] = None,
) -> BoundaryData:
    """Sample an arbitrary function on the rim, optionally pinning nodes."""
    rim = ~grid.interior
    entries: Dict[Node, float] = {}
    pts = grid.node_points()
    for row in np.where(rim)[0]:
        n1, n2 = grid.nodes[row]
        entries[(int(n1), int(n2))] = float(fn(pts[row, 0], pts[row, 1]))
    if pins:
        for node, v in pins.items():
            entries[node] = float(v)
    return BoundaryData(grid=grid, values=entries, tag="custom")


@dataclass
class ScalarField:
    """Node values on a grid plus the mean-value residual of the solve.

    ``constrained`` marks nodes whose values were prescribed rather than
    solved for (None when the field was built directly).
    """

    grid: DyadicGrid
    values: np.ndarray
    residual: float = 0.0
    constrained: Optional[np.ndarray] = None


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


def solve_dirichlet(
    grid: DyadicGrid, data: BoundaryData, tol: float = DEFAULT_TOL
) -> ScalarField:
    """Solve value(p) = mean of the four neighbors at every free node.

    Conjugate gradients on the positive definite form of the equations,
    zero initial guess, iteration cap 50 * node count.  The returned
    residual is the max-norm mean-value defect, held below
    tol * (data range + 1).
    """
    mask, vals = data.arrays()
    free = np.where(grid.interior & ~mask)[0]
    target = tol * (data.range_span() + 1.0)
    if len(free) == 0:
        return ScalarField(grid, vals, 0.0, mask)

    col_of = np.full(grid.node_count, -1, dtype=np.int64)
    col_of[free] = np.arange(len(free))
    nb = grid.neighbors[free]  # interior nodes always have four arms
    rows_i = [np.arange(len(free))]
    cols_j = [np.arange(len(free))]
    vals_a = [np.full(len(free), 4.0)]
    rhs = np.zeros(len(free))
    for k in range(4):
        q = nb[:, k]
        qcol = col_of[q]
        is_free = qcol >= 0
        rows_i.append(np.arange(len(free))[is_free])
        cols_j.append(qcol[is_free])
        vals_a.append(np.full(int(is_free.sum()), -1.0))
        pinned = ~is_free
        np.add.at(rhs, np.arange(len(free))[pinned], vals[q[pinned]])
    a = coo_matrix(
        (np.concatenate(vals_a), (np.concatenate(rows_i), np.concatenate(cols_j))),
        shape=(len(free), len(free)),
    ).tocsr()

    # stop on the absolute 2-norm; it dominates the max-norm defect we owe
    x, info = cg(a, rhs, rtol=0.0, atol=2.0 * target, maxiter=ITER_CAP_FACTOR * grid.node_count)
    if info != 0:
        raise NoConvergence(
            f"conjugate gradients stopped with status {info} before reaching "
            f"{2.0 * target:.3e}"
        )
    out = vals.copy()
    out[free] = x
    res = _mean_value_residual(grid, out, free)
    if res > target:
        raise NoConvergence(
            f"mean-value residual {res:.3e} exceeds target {target:.3e}"
        )
    return ScalarField(grid, out, res, mask)


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
    mask, vals = data.arrays()
    free = np.where(grid.interior & ~mask)[0]
    v = vals.copy()
    if len(free) == 0:
        return ScalarField(grid, v, 0.0, mask)
    v[free] = min(data.values.values())
    nb = grid.neighbors[free]
    for _ in range(sweeps):
        avg = 0.25 * (v[nb[:, 0]] + v[nb[:, 1]] + v[nb[:, 2]] + v[nb[:, 3]])
        new = np.maximum(v[free], avg)
        if np.array_equal(new, v[free]):
            break
        v[free] = new
    return ScalarField(grid, v, _mean_value_residual(grid, v, free), mask)


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


def field_csv(fld: ScalarField) -> str:
    """CSV body ``x,y,value`` with rows ordered by (n2, n1)."""
    pts = fld.grid.node_points()  # nodes are already sorted by (n2, n1)
    lines = ["x,y,value"]
    for (x, y), v in zip(pts, fld.values):
        lines.append(f"{float(x)!r},{float(y)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"
