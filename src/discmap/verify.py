"""Bijectivity verification for the assembled disc map.

The count of preimages of a value w inside the covered region equals the
winding number of the image of the region's rim around w.  H is linear
along every lattice edge under bilinear interpolation, so the rim image
is exactly the closed polygon through the rim node values, and its
winding is a sum of one principal angle per rim edge, with no sampling.
When some rim segment passes within its own length of w the whole
construction is redone on a shifted grid, since a preimage sitting on
the rim makes the count ill-defined; the final acceptance rule is
closeness of the raw winding to an integer.

Probes read two tables of the map, each built on first use: the rim
table of segment ends, differences and lengths (``ConformalMap.rim_table``)
and the bucketed nearest-node index (``ConformalMap.node_index``), so no
probe recomputes what belongs to the map.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import (
    IndeterminateWinding,
    NewtonStalled,
    OutsideGrid,
    TooCoarse,
)
# unused here, but bench/tracing.py wraps discmap.verify.boundary_edges
from .geometry import DyadicGrid, boundary_edges
from .mapping import (
    ConformalMap, ModulusReport, _cell_gradients, _preimages_at_node, build_map, eval_map
)
# unused here, but bench/tracing.py wraps discmap.verify.eval_derivative
from .mapping import eval_derivative

Point = Tuple[float, float]

MAX_SHIFT_ATTEMPTS = 5
INTEGER_SLACK = 0.1
REACH_SLACK = 1e-12  # relative rounding allowance of the hazard's reach test


def _own_grid(m: ConformalMap, grid: Optional[DyadicGrid]) -> DyadicGrid:
    """The map's grid; ``grid`` may only be None or that same grid, since
    node rows index ``m.values``."""
    if grid is not None and grid is not m.grid:
        raise ValueError("grid must be the map's own grid")
    return m.grid


def _finite(w) -> complex:
    """w as a complex number; ValueError when it is not finite."""
    w = complex(w)
    if not cmath.isfinite(w):
        raise ValueError(f"w = {w} is not finite")
    return w


def max_node_derivative(m: ConformalMap) -> float:
    pts = m.grid.node_points()
    z = pts[:, 0] + 1j * pts[:, 1]
    # a named array, as at assembly: numpy may write a product into a
    # temporary operand's buffer, and that path can round differently
    factor = m.factor
    deriv = factor * (1.0 + z * (m.slope_x - 1j * m.slope_y))
    return float(np.abs(deriv).max())


def _winding(m: ConformalMap, w: complex) -> Tuple[float, bool]:
    """Raw winding of the rim polygon about w, and the hazard flag.

    Segment e runs from a = H at ``m.grid.rim[e, 0]`` to b = H at
    ``m.grid.rim[e, 1]``; ``m.rim_table`` holds both, with d = b - a and
    its length, built on the map's first count.  A segment a->b that
    misses w subtends an angle below pi there, so its principal angle
    Arg((b - w)/(a - w)) is its exact contribution and segment order
    never matters.  The hazard fires when w lies closer to some segment
    than that segment's length |d|: the shifted lattices of the ladder
    move the rim by up to about one cell, and one rim cell's image there
    has side about |d|, so a w that close may change side under a shift
    and its count is not trusted without one.

    A segment within |d| of w has its start a within 2|d| of w, so the
    distance to the segment is computed only where |a - w| is below 2|d|
    plus a slack of REACH_SLACK * (1 + max|a| + |w|).  Each distance
    rounds by a few ulps of that scale, far below the slack, so the flag
    is the one the test over every segment gives.
    """
    rim = m.rim_table
    aw = rim.a - w
    raw = float(np.angle((rim.b - w) / aw).sum() / (2.0 * math.pi))
    slack = REACH_SLACK * (1.0 + rim.magnitude + abs(w))
    near = np.flatnonzero(np.abs(aw) < rim.reach + slack)
    if len(near) == 0:
        return raw, False
    a, d, length = rim.a[near], rim.d[near], rim.length[near]
    t = np.clip(((w - a) * d.conj()).real / rim.length2[near], 0.0, 1.0)
    return raw, bool((np.abs(a + t * d - w) < length).any())


def boundary_modulus_report(
    m: ConformalMap, grid: Optional[DyadicGrid] = None
) -> ModulusReport:
    """The map's rim-modulus report, built with the map."""
    _own_grid(m, grid)
    return m.modulus


@dataclass
class PreimageCount:
    w: complex
    count: int
    raw: float
    shift: float
    attempts: int
    hazard: bool  # w still within a rim segment's length on the final attempt
    distance: float  # |raw - count|


def _rebuild(m: ConformalMap, shift: float, cache: Optional[Dict[tuple, ConformalMap]]):
    key = (m.domain, m.grid.level, m.tol, shift)
    if cache is not None and key in cache:
        return cache[key]
    built = build_map(m.domain, m.grid.level, shift=shift, tol=m.tol)
    if cache is not None:
        cache[key] = built
    return built


def count_preimages(
    m: ConformalMap,
    grid: Optional[DyadicGrid],
    w: complex,
    cache: Optional[Dict[tuple, ConformalMap]] = None,
) -> PreimageCount:
    """Count the preimages of w inside the covered region.

    Preconditions (else TooCoarse): an inside probe needs |w| below
    1 - margin and below the least rim-path modulus by the margin, where
    margin doubles the worst rim-path modulus deviation; a probe at or
    beyond modulus 1 is admitted only when it exceeds every rim-path
    modulus, in which case the winding is still computed and comes out 0.

    The raw winding is that of the rim polygon about w.  A w closer to
    some rim segment than that segment's image length triggers the
    shifted-grid ladder: the construction is redone with the grid origin
    at (shift, shift), shift starting at spacing/16 and halving, at most
    MAX_SHIFT_ATTEMPTS times, stopping early once no segment is that
    close.  The accepted count is the rounded raw winding provided the raw
    value sits within INTEGER_SLACK of an integer; otherwise
    IndeterminateWinding.

    ``cache`` keeps the ladder's rebuilds, keyed by (domain, level, tol,
    shift), so one dict may serve several maps.  A w that is not finite
    raises ValueError.
    """
    grid = _own_grid(m, grid)
    w = _finite(w)
    mod = m.modulus
    margin = mod.margin
    aw = abs(w)
    if aw >= 1.0 - margin:
        if not aw > mod.path_max_modulus:
            raise TooCoarse(
                f"probe |w| = {aw:.4f} sits in the rim modulus band "
                f"[{mod.path_min_modulus:.4f}, {mod.path_max_modulus:.4f}] "
                "widened by margin; refine the level"
            )
    elif not mod.path_min_modulus - aw > margin:
        raise TooCoarse(
            f"probe |w| = {aw:.4f} is within the margin {margin:.4f} of the "
            f"least rim modulus {mod.path_min_modulus:.4f}; refine the level"
        )

    shift_used = grid.shift
    attempts = 0
    raw, hazard = _winding(m, w)
    next_shift = grid.spacing / 16.0
    while hazard and attempts < MAX_SHIFT_ATTEMPTS:
        attempts += 1
        shift_used = next_shift
        next_shift /= 2.0
        raw, hazard = _winding(_rebuild(m, shift_used, cache), w)

    count = int(round(raw))
    distance = abs(raw - count)
    if distance > INTEGER_SLACK:
        raise IndeterminateWinding(
            f"raw winding {raw:.4f} for w = {w} is {distance:.3f} from "
            f"an integer after {attempts} grid shifts"
        )
    return PreimageCount(
        w=w,
        count=count,
        raw=raw,
        shift=shift_used,
        attempts=attempts,
        hazard=hazard,
        distance=distance,
    )


def _count_all(
    m: ConformalMap, ws, cache: Dict[tuple, ConformalMap]
) -> Tuple[List[PreimageCount], List[Tuple[complex, str]]]:
    """Counts for each probe, with TooCoarse and IndeterminateWinding
    collected as (w, message) failures rather than raised."""
    results: List[PreimageCount] = []
    failures: List[Tuple[complex, str]] = []
    for w in ws:
        try:
            results.append(count_preimages(m, m.grid, w, cache=cache))
        except (TooCoarse, IndeterminateWinding) as exc:
            failures.append((complex(w), f"{type(exc).__name__}: {exc}"))
    return results, failures


def conformality_residual(m: ConformalMap, grid: Optional[DyadicGrid] = None) -> float:
    """Mean discrete Cauchy-Riemann defect of (Re H, Im H) over the interior
    cells (all four corners interior nodes), normalized by the largest node
    derivative magnitude.

    The mean is the statistic that converges under refinement.  Cells within
    a fixed lattice distance of the rim carry a staircase layer whose
    per-cell defect has a refinement-independent amplitude, so any max over
    a region touching the rim at fixed lattice depth stays flat, while the
    layer occupies an O(2^-N) fraction of the cells and the averaged defect
    halves per level on the disc.  Holomorphy violations injected globally
    (an anti-holomorphic field, say) still register at O(1)."""
    grid = _own_grid(m, grid)
    inner = grid.interior[grid.cell_corners].all(axis=1)
    if not inner.any():
        return 0.0
    rx, ry = _cell_gradients(grid, m.values.real)
    ix, iy = _cell_gradients(grid, m.values.imag)
    defect = (np.abs(rx - iy) + np.abs(ry + ix))[inner]
    scale = max_node_derivative(m)
    return float(defect.mean() / scale) if scale > 0 else float(defect.mean())


def inverse_map(m: ConformalMap, grid: Optional[DyadicGrid], w: complex) -> Point:
    """Preimage of w under the interpolated map, solved exactly on the
    cells at the node whose sample lies nearest w (the lowest row on a
    tie; ``ConformalMap.node_index``, built on the first inversion, finds
    it).  H is bilinear on each cell, so H(z) = w has a closed form there
    (``mapping._preimages_at_node``); the first z with |H(z) - w| <= 1e-6
    is returned.  When no cell at the node holds one, NewtonStalled
    carries the node's point and its |H - w|.  A w that is not finite
    raises ValueError.
    """
    grid = _own_grid(m, grid)
    w = _finite(w)
    start = m.node_index.nearest(w)
    for z in _preimages_at_node(grid, m.values, start, w):
        try:
            if abs(eval_map(m, z) - w) <= 1e-6:
                return z
        except OutsideGrid:  # a point within rounding of the rim
            continue
    resid = abs(m.values.item(start) - w)
    raise NewtonStalled(
        f"no cell at the node nearest {w} holds a preimage to 1e-6 "
        f"(residual {resid:.3e} at that node)",
        best=tuple((grid.nodes[start] * grid.spacing + grid.shift).tolist()),
        residual=resid,
    )


@dataclass
class SweepSummary:
    radius: float
    probes: int
    seed: int
    ok_fraction: float
    results: List[PreimageCount]
    failures: List[Tuple[complex, str]]
    onto_points: List[Point]

    def as_dict(self) -> dict:
        return {
            "r": self.radius,
            "K": self.probes,
            "seed": self.seed,
            "ok_fraction": self.ok_fraction,
            "failures": [[w.real, w.imag, msg] for w, msg in self.failures],
        }


def bijectivity_sweep(
    m: ConformalMap,
    grid: Optional[DyadicGrid] = None,
    radius: float = 0.7,
    probes: int = 20,
    seed: int = 0,
    cache: Optional[Dict[tuple, ConformalMap]] = None,
) -> SweepSummary:
    """Count preimages for seeded uniform probes in |w| <= radius.

    Per-probe errors are collected, not raised.  ``cache`` keeps the shift
    ladder's rebuilds as in ``count_preimages``; one dict may serve several
    maps.  As an onto-ness witness, eight deterministic probes on
    |w| = radius are inverted by ``inverse_map``; their preimages (inside
    the covered region by construction) are reported alongside the sweep.
    """
    grid = _own_grid(m, grid)
    rng = np.random.default_rng(seed)
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, probes))
    ang = rng.uniform(0.0, 2.0 * math.pi, probes)
    ws = rad * np.exp(1j * ang)
    results, failures = _count_all(m, ws, {} if cache is None else cache)
    good = sum(res.count == 1 for res in results)
    angles = [2.0 * math.pi * k / 8 for k in range(8)]
    onto = [inverse_map(m, grid, radius * complex(math.cos(a), math.sin(a))) for a in angles]
    return SweepSummary(
        radius=radius,
        probes=probes,
        seed=seed,
        ok_fraction=good / probes if probes else 0.0,
        results=results,
        failures=failures,
        onto_points=onto,
    )


@dataclass
class VerificationReport:
    domain: dict
    level: int
    shift: float
    probe_results: List[PreimageCount]
    probe_failures: List[Tuple[complex, str]]
    modulus: ModulusReport
    cr_residual: float
    cr_constant: float
    sweep: Optional[SweepSummary] = None

    def as_dict(self) -> dict:
        out = {
            "domain": self.domain,
            "N": self.level,
            "lambda": self.shift,
            "probes": [
                {
                    "w": [p.w.real, p.w.imag],
                    "count": p.count,
                    "raw": p.raw,
                    "shifted": p.attempts > 0,
                    "attempts": p.attempts,
                    "hazard": p.hazard,
                }
                for p in self.probe_results
            ]
            + [
                {"w": [w.real, w.imag], "error": msg}
                for w, msg in self.probe_failures
            ],
            "boundary_modulus": {
                "max": self.modulus.node_max,
                "mean": self.modulus.node_mean,
                "path_max": self.modulus.path_max,
                "path_mean": self.modulus.path_mean,
            },
            "cr_residual": self.cr_residual,
            "cr_constant": self.cr_constant,
        }
        if self.sweep is not None:
            out["sweep"] = self.sweep.as_dict()
        return out


def verification_report(
    m: ConformalMap,
    probes: Optional[List[complex]] = None,
    radius: float = 0.7,
    sweep_probes: int = 20,
    seed: int = 0,
) -> VerificationReport:
    """Full verification bundle: explicit probes, modulus and conformality
    diagnostics, and the seeded bijectivity sweep."""
    grid = m.grid
    cache: Dict[tuple, ConformalMap] = {}
    results, failures = _count_all(m, probes or [], cache)
    cr = conformality_residual(m)
    sweep = bijectivity_sweep(
        m, grid, radius=radius, probes=sweep_probes, seed=seed, cache=cache
    )
    return VerificationReport(
        domain=m.domain.describe(),
        level=grid.level,
        shift=grid.shift,
        probe_results=results,
        probe_failures=failures,
        modulus=boundary_modulus_report(m),
        cr_residual=cr,
        cr_constant=cr * 2.0**grid.level,
        sweep=sweep,
    )
