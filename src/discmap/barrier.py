"""Weak barriers at boundary probe points.

For a probe q on the domain boundary, a single-valued branch of
log(z - q) exists on the covered grid region because q lies strictly
outside it: every straight lattice edge subtends an angle below pi at q,
so principal-log increments accumulate consistently around every cell.
From the branch L and a bound A on its real part, the field
u = Re(1 / (L - A - 1)) is harmonic on the region, negative everywhere,
and tends to 0 at q; those are the checkable barrier properties.  The
boundary-limit property of a strong barrier is not certified here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import MonodromyDetected, ProbeTooClose
from .geometry import Domain, DyadicGrid, spanning_fill

Point = Tuple[float, float]

CLOSURE_TOL = 1e-8


def distance_to_region(grid: DyadicGrid, point: Point) -> float:
    """Distance from a point to the union of closed grid squares."""
    h = grid.spacing
    lower = grid.cells * h + grid.shift
    dx = np.maximum(np.maximum(lower[:, 0] - point[0], point[0] - lower[:, 0] - h), 0.0)
    dy = np.maximum(np.maximum(lower[:, 1] - point[1], point[1] - lower[:, 1] - h), 0.0)
    return float(np.sqrt(np.min(dx * dx + dy * dy)))


@dataclass
class LogBranch:
    """Single-valued branch of log(z - probe) on the grid nodes.

    ``bound`` is the max of the real part over all nodes, so
    Re values <= bound everywhere.  ``closure_defect`` is the largest
    disagreement between the filled values and a principal-log increment
    across any node arm; it stays at rounding level when the branch is
    globally consistent.
    """

    grid: DyadicGrid
    probe: Point
    basepoint: Tuple[int, int]
    values: np.ndarray  # complex, per node
    bound: float
    closure_defect: float


def log_branch(
    grid: DyadicGrid, probe: Point, basepoint: Optional[Tuple[int, int]] = None
) -> LogBranch:
    """Build the branch by spanning-tree accumulation from the basepoint.

    The basepoint (default: node nearest the origin) carries the principal
    log.  Requires the probe strictly outside the covered region; the
    closure of every non-tree arm is then validated against CLOSURE_TOL.
    """
    dist = distance_to_region(grid, probe)
    if dist <= 0.0:
        raise ProbeTooClose(
            f"probe {probe} touches the covered region; refine the level "
            "or accept failure at this probe"
        )
    pts = grid.node_points()
    zq = pts[:, 0] + 1j * pts[:, 1] - complex(probe[0], probe[1])

    if basepoint is None:
        row0 = int(np.argmin(pts[:, 0] ** 2 + pts[:, 1] ** 2))
        basepoint = (int(grid.nodes[row0, 0]), int(grid.nodes[row0, 1]))
    else:
        row0 = int(grid.node_rows([basepoint])[0])
        if row0 < 0:
            raise ValueError(f"basepoint {basepoint} is not a grid node")

    # the fill starts from 0 at the basepoint, so adding the principal log
    # of the basepoint lifts the whole tree onto the intended branch
    nb = grid.neighbors
    values, closure = spanning_fill(nb, row0, np.log(zq[nb] / zq[:, None]))
    values += cmath.log(zq[row0])

    if closure > CLOSURE_TOL:
        raise MonodromyDetected(
            f"branch closure defect {closure:.3e} exceeds {CLOSURE_TOL:.1e}"
        )
    bound = float(values.real.max())
    return LogBranch(
        grid=grid,
        probe=(float(probe[0]), float(probe[1])),
        basepoint=basepoint,
        values=values,
        bound=bound,
        closure_defect=closure,
    )


@dataclass
class BarrierFunction:
    """u = Re(1 / (L - bound - 1)) built from a log branch at a probe.

    The reciprocal shift sends the half-plane Re w <= bound into the disc
    of radius 1/2 centered at -1/2, whose rim passes through 0; u is the
    real part of that image, hence negative, and tends to 0 exactly where
    Re L tends to -infinity, which happens only at the probe."""

    probe: Point
    values: np.ndarray  # real, per node
    bound: float
    branch: LogBranch

    def transport(self) -> dict:
        """Metadata describing the half-plane-to-disc transport used."""
        return {
            "kind": "reciprocal_shift",
            "shift": self.bound + 1.0,
            "image_circle_center": [-0.5, 0.0],
            "image_circle_radius": 0.5,
        }


def weak_barrier(grid: DyadicGrid, probe: Point) -> BarrierFunction:
    branch = log_branch(grid, probe)
    shifted = branch.values - (branch.bound + 1.0)  # real part <= -1
    u = np.real(1.0 / shifted)
    return BarrierFunction(
        probe=branch.probe, values=u, bound=branch.bound, branch=branch
    )


@dataclass
class BarrierReport:
    probe: Point
    bound: float
    subharmonic: bool
    negative: bool
    limit_zero: bool
    boundary_limits_certified: bool  # always False: weak barrier only
    max_mean_defect: float
    slack: float
    samples: List[dict]
    transport: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.subharmonic and self.negative and self.limit_zero

    def as_dict(self) -> dict:
        return {
            "q": [self.probe[0], self.probe[1]],
            "A": self.bound,
            "checks": {
                "subharmonic": self.subharmonic,
                "negative": self.negative,
                "limit_zero": self.limit_zero,
            },
            "boundary_limits_certified": self.boundary_limits_certified,
            "samples": self.samples,
            "transport": self.transport,
        }


def verify_barrier(
    grid: DyadicGrid,
    bf: BarrierFunction,
    sample_radius: float,
    slack: Optional[float] = None,
) -> BarrierReport:
    """Check the three observable barrier properties near the probe.

    (i) mean-value subharmonicity at interior nodes within sample_radius,
    with slack covering the five-point discretization error (default
    100 * 4**-level); (ii) strict negativity at nodes within the radius;
    (iii) the max over nodes within a shrinking dyadic ladder of radii
    dominates -1 / (bound + 1 - ln radius), an envelope that rises to 0,
    which pins the limit at the probe to 0.  The fourth property of a
    strong barrier (limits along the rest of the boundary) is reported as
    not certified.
    """
    if slack is None:
        slack = 100.0 * 4.0 ** (-grid.level)
    u = bf.values
    pts = grid.node_points()
    dist = np.hypot(pts[:, 0] - bf.probe[0], pts[:, 1] - bf.probe[1])
    near = dist <= sample_radius

    check_rows = np.where(near & grid.interior)[0]
    if len(check_rows):
        nb = grid.neighbors[check_rows]
        avg = 0.25 * (u[nb[:, 0]] + u[nb[:, 1]] + u[nb[:, 2]] + u[nb[:, 3]])
        defects = u[check_rows] - avg
        max_defect = float(defects.max())
        subharmonic = bool(max_defect <= slack)
    else:
        max_defect = 0.0
        subharmonic = True

    negative = bool(near.any()) and bool((u[near] < 0.0).all())

    samples: List[dict] = []
    limit_zero = bool(near.any())
    radius = sample_radius
    for _ in range(60):
        within = dist <= radius
        if not within.any():
            break
        m = float(u[within].max())
        # the node realizing the largest distance d in the ball satisfies
        # u >= -1/(bound + 1 - ln d), and d <= e^bound keeps this in [-1, 0)
        envelope = -1.0 / (bf.bound + 1.0 - math.log(float(dist[within].max())))
        samples.append({"radius": radius, "max_u": m, "envelope": envelope})
        if not m >= envelope - 1e-12:
            limit_zero = False
        radius *= 0.5
    if not samples:
        limit_zero = False

    return BarrierReport(
        probe=bf.probe,
        bound=bf.bound,
        subharmonic=subharmonic,
        negative=negative,
        limit_zero=limit_zero,
        boundary_limits_certified=False,
        max_mean_defect=max_defect,
        slack=slack,
        samples=samples,
        transport=bf.transport(),
    )


def boundary_probes(domain: Domain, count: int = 8) -> List[Point]:
    """Canonical probe set: polygon vertices and edge midpoints, or
    ``count`` equally spaced points on a disc rim."""
    if domain.kind == "polygon":
        verts = domain.vertices
        out: List[Point] = []
        n = len(verts)
        for i in range(n):
            x0, y0 = verts[i]
            x1, y1 = verts[(i + 1) % n]
            out.append((x0, y0))
            out.append(((x0 + x1) / 2.0, (y0 + y1) / 2.0))
        return out
    cx, cy = domain.center
    r = domain.radius
    return [
        (cx + r * math.cos(2.0 * math.pi * k / count),
         cy + r * math.sin(2.0 * math.pi * k / count))
        for k in range(count)
    ]
