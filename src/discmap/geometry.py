"""Plane domains and the dyadic-square grids that cover them.

A Domain is an open set: either a simple polygon or a disc.  Polygon
vertices may arrive in either order and are stored counterclockwise.
``build_grid`` collects every closed axis-aligned square of side 2**-N
(optionally shifted by a small lambda along both axes) that fits inside
the domain, in time that grows with the lattice plus the polygon's
edges, not with their product: an even-odd scanline fill classifies
every corner and edge-midpoint lattice point from each row's edge
crossings, and each polygon edge is then tested only against the squares
in its overlap window, those whose boxes meet the edge's bounding box.
The squares, their corner nodes, the arms between nodes and the oriented
rim edges of the covered region are the combinatorial data the rest of
the package computes on; ``spanning_fill`` integrates increments over
them.  All of it follows from one corner-cell rule: each lattice point
sees the four cells around it, a point is a node when one of them is
present, and a lattice segment is a cell edge when one of the two cells
flanking it is present.  Lattice coordinates are kept as integers;
floats appear only when a node is evaluated at n * 2**-N + shift.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateGeometry,
    DomainParseError,
    EmptyGrid,
    EmptyInterior,
    OutsideGrid,
)

Point = Tuple[float, float]

_SCAN_LEVEL_MAX = 8
_CANDIDATE_CAP = 20_000_000  # refuse absurd bbox/level combinations
_BLOCK = 1 << 14  # pairs tested at once; bounds the temporaries' memory


@dataclass(frozen=True)
class Domain:
    """Open polygon or disc, plus the translation applied so far.

    ``translation`` is the offset already added to the original
    coordinates (see ``normalize_origin``); reports can undo it.
    """

    kind: str
    vertices: Optional[Tuple[Point, ...]] = None
    center: Optional[Point] = None
    radius: Optional[float] = None
    translation: Point = (0.0, 0.0)

    def bounding_box(self) -> Tuple[float, float, float, float]:
        if self.kind == "polygon":
            xs = [v[0] for v in self.vertices]
            ys = [v[1] for v in self.vertices]
            return min(xs), max(xs), min(ys), max(ys)
        cx, cy = self.center
        r = self.radius
        return cx - r, cx + r, cy - r, cy + r

    def describe(self) -> dict:
        """JSON-ready description in the normalized coordinates."""
        if self.kind == "polygon":
            body = {"type": "polygon", "vertices": [list(v) for v in self.vertices]}
        else:
            body = {"type": "disc", "center": list(self.center), "radius": self.radius}
        body["translation"] = list(self.translation)
        return body


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainParseError(msg)


def _as_point(obj, what: str) -> Point:
    _require(
        isinstance(obj, (list, tuple)) and len(obj) == 2,
        f"{what} must be a pair [x, y]",
    )
    x, y = obj
    _require(
        isinstance(x, (int, float)) and isinstance(y, (int, float)),
        f"{what} coordinates must be numbers",
    )
    x, y = float(x), float(y)
    _require(math.isfinite(x) and math.isfinite(y), f"{what} must be finite")
    return (x, y)


def load_domain(spec: Mapping) -> Domain:
    """Validate a parsed domain description and build a Domain from it."""
    _require(isinstance(spec, Mapping), "domain description must be an object")
    kind = spec.get("type")
    if kind == "polygon":
        verts = spec.get("vertices")
        _require(isinstance(verts, Sequence), "polygon needs a 'vertices' list")
        pts = tuple(_as_point(v, "vertex") for v in verts)
        _require(len(pts) >= 3, "polygon needs at least 3 vertices")
        _validate_polygon(pts)
        if _polygon_area2(pts) < 0.0:
            pts = pts[:1] + pts[:0:-1]  # clockwise: reverse, vertex 0 first
        return Domain(kind="polygon", vertices=pts)
    if kind == "disc":
        center = _as_point(spec.get("center"), "disc center")
        r = spec.get("radius")
        _require(isinstance(r, (int, float)), "disc needs a numeric 'radius'")
        r = float(r)
        if not (math.isfinite(r) and r > 0.0):
            raise DegenerateGeometry("disc radius must be positive and finite")
        return Domain(kind="disc", center=center, radius=r)
    raise DomainParseError(f"unknown domain type: {kind!r}")


def load_domain_file(path) -> Domain:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainParseError(f"not valid JSON: {exc}") from exc
    return load_domain(spec)


def _orient(a: Point, b: Point, c: Point) -> float:
    """Cross product (b - a) x (c - a); sign gives turn direction.

    Coordinates may be numpy arrays, which broadcast elementwise.
    """
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _within_bbox(a: Point, b: Point, c: Point) -> np.ndarray:
    return (
        (np.minimum(a[0], b[0]) <= c[0])
        & (c[0] <= np.maximum(a[0], b[0]))
        & (np.minimum(a[1], b[1]) <= c[1])
        & (c[1] <= np.maximum(a[1], b[1]))
    )


def _segments_intersect(p1: Point, p2: Point, p3: Point, p4: Point) -> np.ndarray:
    """Closed-segment intersection test, exact for the arithmetic used.

    Elementwise over points whose coordinates broadcast together.
    """
    d1 = _orient(p3, p4, p1)
    d2 = _orient(p3, p4, p2)
    d3 = _orient(p1, p2, p3)
    d4 = _orient(p1, p2, p4)
    proper = (((d1 > 0) & (d2 < 0)) | ((d1 < 0) & (d2 > 0))) & (
        ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    )
    return (
        proper
        | ((d1 == 0) & _within_bbox(p3, p4, p1))
        | ((d2 == 0) & _within_bbox(p3, p4, p2))
        | ((d3 == 0) & _within_bbox(p1, p2, p3))
        | ((d4 == 0) & _within_bbox(p1, p2, p4))
    )


def _polygon_area2(verts: Sequence[Point]) -> float:
    """Twice the signed area (positive for counterclockwise order)."""
    total = 0.0
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


def _polygon_centroid(verts: Sequence[Point]) -> Point:
    a2 = _polygon_area2(verts)
    cx = cy = 0.0
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        w = x0 * y1 - x1 * y0
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    return (cx / (3.0 * a2), cy / (3.0 * a2))


def _edge_ends(verts: Sequence[Point]) -> Tuple[np.ndarray, ...]:
    """Polygon edges as arrays ax, ay, bx, by; edge i runs from vertex i
    to vertex i + 1 (mod n)."""
    a = np.asarray(verts, dtype=float)
    b = np.roll(a, -1, axis=0)
    return a[:, 0], a[:, 1], b[:, 0], b[:, 1]


def _validate_polygon(verts: Tuple[Point, ...]) -> None:
    """Raise DegenerateGeometry naming the first defect found.

    Every pair i < j of non-adjacent edges is tested, in blocks of rows i;
    the first intersecting pair in (i, j) order is the one reported.
    """
    n = len(verts)
    ax, ay, bx, by = _edge_ends(verts)
    repeated = np.flatnonzero((ax == bx) & (ay == by))
    if len(repeated):
        raise DegenerateGeometry(f"repeated vertex at index {repeated[0]}")
    if _polygon_area2(verts) == 0.0:
        raise DegenerateGeometry("polygon encloses zero area")
    rows = max(1, _BLOCK // n)
    for start in range(0, n, rows):
        i = np.arange(start, min(start + rows, n))[:, None]
        j = np.arange(start + 2, n)[None, :]
        hit = (j > i + 1) & ~((i == 0) & (j == n - 1))  # adjacent edges share a vertex
        hit &= _segments_intersect((ax[i], ay[i]), (bx[i], by[i]), (ax[j], ay[j]), (bx[j], by[j]))
        if hit.any():
            bi, bj = np.unravel_index(np.argmax(hit), hit.shape)  # first in (i, j) order
            raise DegenerateGeometry(
                f"edges {start + bi} and {start + 2 + bj} intersect; polygon must be simple"
            )
    # vertex i sits between edges i - 1 and i; a straight fold-back (spike)
    # has collinear edges pointing oppositely
    a = (np.roll(ax, 1), np.roll(ay, 1))
    b = (ax, ay)
    c = (bx, by)
    spike = (_orient(a, b, c) == 0.0) & (
        (b[0] - a[0]) * (c[0] - b[0]) + (b[1] - a[1]) * (c[1] - b[1]) < 0.0
    )
    if spike.any():
        raise DegenerateGeometry(f"spike at vertex {np.argmax(spike)}")


def _inside_many(domain: Domain, pts: np.ndarray) -> np.ndarray:
    """Strict-interior test for an (M, 2) array of points.

    Polygon: even-odd ray casting with the half-open edge rule; points
    exactly on an edge report False.  Disc: strict radius comparison.
    """
    px = pts[:, 0]
    py = pts[:, 1]
    if domain.kind == "disc":
        cx, cy = domain.center
        return (px - cx) ** 2 + (py - cy) ** 2 < domain.radius**2
    inside = np.zeros(len(pts), dtype=bool)
    on_edge = np.zeros(len(pts), dtype=bool)
    verts = domain.vertices
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % n]
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        on_edge |= (
            (cross == 0.0)
            & (px >= min(ax, bx))
            & (px <= max(ax, bx))
            & (py >= min(ay, by))
            & (py <= max(ay, by))
        )
        cond = (ay > py) != (by > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = ax + (py - ay) * (bx - ax) / (by - ay)
        inside ^= cond & (px < xint)
    return inside & ~on_edge


def contains(domain: Domain, point: Point) -> bool:
    """True when the point lies strictly inside the open domain."""
    pts = np.array([[point[0], point[1]]], dtype=float)
    return bool(_inside_many(domain, pts)[0])


def _translated(domain: Domain, offset: Point) -> Domain:
    dx, dy = offset
    tx, ty = domain.translation
    if domain.kind == "polygon":
        verts = tuple((x + dx, y + dy) for x, y in domain.vertices)
        return replace(domain, vertices=verts, translation=(tx + dx, ty + dy))
    cx, cy = domain.center
    return replace(domain, center=(cx + dx, cy + dy), translation=(tx + dx, ty + dy))


def _scan_interior_point(domain: Domain) -> Point:
    """Center of the first fully contained square found, coarse to fine."""
    for level in range(1, _SCAN_LEVEL_MAX + 1):
        ok, n1lo, n2lo = _contained_cells(domain, level, 0.0)
        if not ok.any():
            continue
        h = 2.0**-level
        idx = np.argwhere(ok.T)  # lexicographic in (n2, n1)
        i2, i1 = idx[0]
        return ((n1lo + i1 + 0.5) * h, (n2lo + i2 + 0.5) * h)
    raise EmptyInterior(
        f"no interior point found scanning up to level {_SCAN_LEVEL_MAX}"
    )


def normalize_origin(domain: Domain) -> Domain:
    """Translate the domain so that the origin is strictly interior.

    Already-interior domains come back unchanged.  The first candidate is
    the polygon centroid (disc center); if that is not interior the domain
    is scanned for any fully contained coarse square.
    """
    if contains(domain, (0.0, 0.0)):
        return domain
    if domain.kind == "polygon":
        cand = _polygon_centroid(domain.vertices)
    else:
        cand = domain.center
    if not contains(domain, cand):
        cand = _scan_interior_point(domain)
    return _translated(domain, (-cand[0], -cand[1]))


def _spans(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten the ranges [lo[k], hi[k]) into (k, index) pairs, in order."""
    counts = np.maximum(hi - lo, 0)
    k = np.repeat(np.arange(len(lo)), counts)
    offset = np.cumsum(counts) - counts
    return k, lo[k] + np.arange(len(k)) - offset[k]


def _inside_lattice(domain: Domain, xq: np.ndarray, yq: np.ndarray) -> np.ndarray:
    """``_inside_many`` at every point (xq[i], yq[j]), as a (len(xq),
    len(yq)) mask; xq and yq are ascending lattice coordinates.

    A polygon is filled by even-odd scanlines.  Each edge lists the rows
    it crosses under ``_inside_many``'s half-open rule, with the same float
    crossing ``xint``; a point's parity counts the crossings right of it
    in its row.  A point exactly on an edge is not interior, and there the
    exact cross == 0 and bounding-box test of ``_inside_many`` is run only
    on the columns next to each row's crossing and along horizontal edges.
    That is exact: any other point of a row lies at least a lattice step h
    from the edge's line along the row, so the true cross product is at
    least h * |dy|, while its rounding error is about 1e-16 * |dy| times
    the edge's length, which ``_CANDIDATE_CAP`` keeps below 1e8 * h.
    """
    if domain.kind == "disc":
        cx, cy = domain.center
        return (xq[:, None] - cx) ** 2 + (yq[None, :] - cy) ** 2 < domain.radius**2
    ax, ay, bx, by = _edge_ends(domain.vertices)
    ylo = np.minimum(ay, by)
    yhi = np.maximum(ay, by)
    nx, ny = len(xq), len(yq)
    # rows inside each edge's closed y-range; only these can hold points
    # on the edge
    e, r = _spans(np.searchsorted(yq, ylo, "left"), np.searchsorted(yq, yhi, "right"))
    flat = ay[e] == by[e]
    # a horizontal edge has cross == 0 at every point of its row
    fe, fr = e[flat], r[flat]
    run = np.zeros((ny, nx + 1), dtype=np.int64)
    np.add.at(run, (fr, np.searchsorted(xq, np.minimum(ax, bx)[fe], "left")), 1)
    np.add.at(run, (fr, np.searchsorted(xq, np.maximum(ax, bx)[fe], "right")), -1)
    on_edge = np.cumsum(run, axis=1)[:, :nx] > 0

    e, r = e[~flat], r[~flat]
    py = yq[r]
    xint = ax[e] + (py - ay[e]) * (bx[e] - ax[e]) / (by[e] - ay[e])
    # (ay > py) != (by > py) exactly when ylo <= py < yhi
    crossing = py < yhi[e]
    k = np.searchsorted(xq, xint[crossing], "left")  # columns c < k have px < xint
    count = np.bincount(r[crossing] * (nx + 1) + k, minlength=ny * (nx + 1))
    count = count.reshape(ny, nx + 1)
    inside = (np.cumsum(count[:, :0:-1], axis=1)[:, ::-1] & 1).astype(bool)

    # the two columns each side of every other edge's crossing
    near = np.searchsorted(xq, xint)[:, None] + np.arange(-2, 2)
    c = np.clip(near, 0, nx - 1).ravel()
    e = np.repeat(e, near.shape[1])
    r = np.repeat(r, near.shape[1])
    px, py = xq[c], yq[r]
    a_x, a_y, b_x, b_y = ax[e], ay[e], bx[e], by[e]
    cross = (b_x - a_x) * (py - a_y) - (b_y - a_y) * (px - a_x)
    hit = (
        (cross == 0.0)
        & (px >= np.minimum(a_x, b_x))
        & (px <= np.maximum(a_x, b_x))
        & (py >= np.minimum(a_y, b_y))
        & (py <= np.maximum(a_y, b_y))
    )
    on_edge[r[hit], c[hit]] = True
    return (inside & ~on_edge).T


def _clear_squares_on_edges(
    ok: np.ndarray, verts: Sequence[Point], x0: np.ndarray, y0: np.ndarray, h: float
) -> None:
    """Clear ``ok`` at every square that a polygon edge may touch.

    Square [i, j] is the closed box [x0[i], x0[i] + h] x [y0[j], y0[j] + h].
    Only squares whose box meets an edge's bounding box are candidates for
    that edge; a candidate is blocked unless its four corners lie strictly
    on one side of the edge's line.  Edges are taken in groups of about
    ``_BLOCK`` (edge, square) pairs.
    """
    ax, ay, bx, by = _edge_ends(verts)
    x1 = x0 + h
    y1 = y0 + h
    ilo = np.searchsorted(x1, np.minimum(ax, bx), "left")
    ihi = np.searchsorted(x0, np.maximum(ax, bx), "right")
    jlo = np.searchsorted(y1, np.minimum(ay, by), "left")
    jhi = np.searchsorted(y0, np.maximum(ay, by), "right")
    area = np.cumsum(np.maximum(ihi - ilo, 0) * np.maximum(jhi - jlo, 0))
    cuts = np.flatnonzero(np.diff(area // _BLOCK)) + 1
    for group in np.split(np.arange(len(ax)), cuts):
        p, i = _spans(ilo[group], ihi[group])  # (edge, column)
        q, j = _spans(jlo[group][p], jhi[group][p])  # (edge and column, row)
        e, i = group[p[q]], i[q]
        live = ok[i, j]  # squares already cleared need no test
        e, i, j = e[live], i[live], j[live]
        dx = bx[e] - ax[e]
        dy = by[e] - ay[e]
        s00 = dx * (y0[j] - ay[e]) - dy * (x0[i] - ax[e])
        s10 = dx * (y0[j] - ay[e]) - dy * (x1[i] - ax[e])
        s01 = dx * (y1[j] - ay[e]) - dy * (x0[i] - ax[e])
        s11 = dx * (y1[j] - ay[e]) - dy * (x1[i] - ax[e])
        all_pos = (s00 > 0) & (s10 > 0) & (s01 > 0) & (s11 > 0)
        all_neg = (s00 < 0) & (s10 < 0) & (s01 < 0) & (s11 < 0)
        blocked = ~(all_pos | all_neg)
        ok[i[blocked], j[blocked]] = False


def _contained_cells(
    domain: Domain, level: int, shift: float
) -> Tuple[np.ndarray, int, int]:
    """Boolean mask of lattice squares whose closed square fits inside.

    Entry [i1, i2] covers the square with lower corner at
    ((n1lo + i1) * h + shift, (n2lo + i2) * h + shift).
    """
    h = 2.0**-level
    xmin, xmax, ymin, ymax = domain.bounding_box()
    n1lo = math.floor((xmin - shift) / h) - 1
    n1hi = math.ceil((xmax - shift) / h) + 1
    n2lo = math.floor((ymin - shift) / h) - 1
    n2hi = math.ceil((ymax - shift) / h) + 1
    nx = n1hi - n1lo + 1
    ny = n2hi - n2lo + 1
    if nx * ny > _CANDIDATE_CAP:
        raise ValueError(
            f"level {level} over this bounding box needs {nx * ny} candidate "
            "squares; refusing"
        )

    xs = (np.arange(n1lo, n1hi + 2) * h + shift)  # node lattice, one past hi
    ys = (np.arange(n2lo, n2hi + 2) * h + shift)
    xm = xs[:-1] + 0.5 * h  # midpoints along x
    ym = ys[:-1] + 0.5 * h

    corner = _inside_lattice(domain, xs, ys)  # (nx+1, ny+1)
    mid_x = _inside_lattice(domain, xm, ys)  # bottom/top edge midpoints
    mid_y = _inside_lattice(domain, xs, ym)  # left/right edge midpoints

    ok = (
        corner[:-1, :-1]
        & corner[1:, :-1]
        & corner[:-1, 1:]
        & corner[1:, 1:]
        & mid_x[:, :-1]
        & mid_x[:, 1:]
        & mid_y[:-1, :]
        & mid_y[1:, :]
    )
    if domain.kind == "polygon":
        _clear_squares_on_edges(ok, domain.vertices, xs[:-1], ys[:-1], h)
    return ok, n1lo, n2lo


def _corner_cells(occ: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The cells around every lattice point, as four node-window masks.

    ``occ`` is a cell window; the node window is one wider, and its entry
    (a, b) is the lower-left corner of cell (a, b).  Masks sw, se, nw and
    ne tell whether the cell south-west, south-east, north-west or
    north-east of node (a, b) is present: cell (a-1, b-1), (a, b-1),
    (a-1, b) or (a, b).  Outside the cell window no cell is present.
    """
    p = np.zeros((occ.shape[0] + 2, occ.shape[1] + 2), dtype=bool)
    p[1:-1, 1:-1] = occ
    return p[:-1, :-1], p[1:, :-1], p[:-1, 1:], p[1:, 1:]


def _window_index(mask: np.ndarray) -> np.ndarray:
    """Window table numbering the entries of ``mask`` 0, 1, ... in (n2, n1)
    order, which is the C order of ``mask.T``; -1 where mask is False."""
    table = np.full(mask.shape, -1, dtype=np.int64)
    table.T[mask.T] = np.arange(np.count_nonzero(mask))
    return table


def _window_rows(table: np.ndarray, offset: Tuple[int, int], pairs) -> np.ndarray:
    """Look up lattice pairs in a window table; -1 outside the window."""
    idx = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    i1 = idx[:, 0] - offset[0]
    i2 = idx[:, 1] - offset[1]
    inside = (i1 >= 0) & (i1 < table.shape[0]) & (i2 >= 0) & (i2 < table.shape[1])
    rows = np.full(len(idx), -1, dtype=np.int64)
    rows[inside] = table[i1[inside], i2[inside]]
    return rows


@dataclass
class DyadicGrid:
    """Covered region at one refinement level; immutable after construction.

    ``cells`` and ``nodes`` hold integer lattice coordinates sorted
    lexicographically by (n2, n1).  ``cell_rows`` and ``node_rows`` turn
    lattice coordinates back into rows; the window tables behind them are
    offset by (n1lo, n2lo) and private to this module.  A node is a corner
    of one to four cells, and its arm toward a neighbor exists when one of
    the two cells flanking that lattice segment is present; a node is
    interior when all four cells are.  An arm is a rim edge when exactly
    one of its flanking cells is present; ``rim`` lists each as node rows
    [start, end], run so that cell lies on its left, sorted by start row
    and then end row, which is (start n2, start n1, end n2, end n1) order.
    """

    domain: Domain
    level: int
    shift: float
    cells: np.ndarray  # (C, 2) int64
    nodes: np.ndarray  # (V, 2) int64
    interior: np.ndarray  # (V,) bool, corner of four cells
    neighbors: np.ndarray  # (V, 4) int64 rows W, E, S, N; -1 when absent
    cell_corners: np.ndarray  # (C, 4) int64 node rows SW, SE, NW, NE
    rim: np.ndarray  # (E, 2) int64 node rows [start, end] of the rim edges
    _cell_row: np.ndarray  # cell window, -1 where no cell
    _node_row: np.ndarray  # node window, one wider; -1 where no node
    _n1lo: int
    _n2lo: int

    @property
    def spacing(self) -> float:
        return 2.0**-self.level

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def node_points(self) -> np.ndarray:
        """Float coordinates of every node, (V, 2)."""
        return self.nodes * self.spacing + self.shift

    def cell_centers(self) -> np.ndarray:
        return (self.cells + 0.5) * self.spacing + self.shift

    def cell_rows(self, pairs) -> np.ndarray:
        """Rows of the cells whose lower-left corners are the (M, 2)
        lattice pairs; -1 where no such cell exists."""
        return _window_rows(self._cell_row, (self._n1lo, self._n2lo), pairs)

    def cell_neighbors(self, steps) -> np.ndarray:
        """Rows of the cells one lattice step (d1, d2), each in {-1, 0, 1},
        from every cell, one column per step; -1 where no such cell exists.
        No cell lies on the window's outer ring, where ``np.roll`` wraps."""
        row = self._cell_row
        return np.column_stack([np.roll(row, (-d1, -d2), (0, 1)).T[row.T >= 0] for d1, d2 in steps])

    def node_rows(self, pairs) -> np.ndarray:
        """Rows of the nodes at the (M, 2) lattice pairs; -1 where no such
        node exists."""
        return _window_rows(self._node_row, (self._n1lo, self._n2lo), pairs)

    def covers_point_interior(self, point: Point) -> bool:
        """True when the point is interior to the union of closed cells.

        A point is interior exactly when every lattice square containing
        it is a cell of the grid (1, 2 or 4 squares depending on whether
        the point sits inside a square, on an edge or on a node).
        """
        h = self.spacing
        t1 = (point[0] - self.shift) / h
        t2 = (point[1] - self.shift) / h
        i1 = math.floor(t1)
        i2 = math.floor(t2)
        xs = [i1 - 1, i1] if t1 == i1 else [i1]
        ys = [i2 - 1, i2] if t2 == i2 else [i2]
        return bool((self.cell_rows([(a, b) for a in xs for b in ys]) >= 0).all())

    def locate(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Map (M, 2) float points to (cell rows, u, v) local coordinates.

        Points on shared cell edges may sit in several closed squares; any
        containing cell is equivalent for interpolation because bilinear
        values agree along shared edges.  Rows are -1 for points outside
        every cell.
        """
        h = self.spacing
        t1 = (points[:, 0] - self.shift) / h
        t2 = (points[:, 1] - self.shift) / h
        b1 = np.floor(t1).astype(np.int64)
        b2 = np.floor(t2).astype(np.int64)
        exact1 = t1 == b1
        exact2 = t2 == b2
        rows = self.cell_rows(np.column_stack([b1, b2]))
        # a point missed by its floor square but lying on one of that
        # square's lower faces may still sit in the neighbor across it
        for d1, d2, on_face in ((-1, 0, exact1), (0, -1, exact2), (-1, -1, exact1 & exact2)):
            todo = np.nonzero((rows < 0) & on_face)[0]
            if len(todo):
                rows[todo] = self.cell_rows(np.column_stack([b1[todo] + d1, b2[todo] + d2]))
        found = rows >= 0
        corner = self.cells[rows[found]]
        u = np.zeros(len(points))
        v = np.zeros(len(points))
        u[found] = t1[found] - corner[:, 0]
        v[found] = t2[found] - corner[:, 1]
        return rows, u, v

    @cached_property
    def edge_pairs(self) -> np.ndarray:
        """Node-row pairs of every distinct cell edge, (E, 2): the east
        arms, then the north arms, each in window (n1, n2) order."""
        row = self._node_row
        order = row[row >= 0]  # node rows in (n1, n2) order
        pairs = []
        for k in (1, 3):  # east and north arms
            far = self.neighbors[order, k]
            pairs.append(np.column_stack([order[far >= 0], far[far >= 0]]))
        out = np.concatenate(pairs, axis=0)
        assert (out >= 0).all()  # a cell edge always joins two grid nodes
        return out


def build_grid(domain: Domain, level: int, shift: float = 0.0) -> DyadicGrid:
    """Collect the closed squares of side 2**-level contained in the domain.

    ``shift`` slides the whole lattice by (shift, shift); it must satisfy
    0 <= shift < 2**-level.  Containment is decided by strict interiority
    of the four corners and four edge midpoints plus, for polygons, the
    absence of any polygon edge meeting the closed square.

    Interiority of polygon points comes from a scanline fill: each lattice
    row's edge crossings are computed once and a point's parity counts the
    crossings to its right.  A point exactly on an edge is not interior;
    the exact cross == 0 test runs next to each crossing and along
    horizontal edges, and that covers every such point because anywhere
    else the cross product exceeds its rounding error by a factor of about
    h / (1e-16 * edge length).  Each polygon edge is then tested only
    against the squares whose closed boxes meet its bounding box.  The
    result equals the point-by-point, edge-by-edge test bit for bit.

    The tables follow from the four cells around each lattice point
    (``_corner_cells``), under the corner-cell rule of ``DyadicGrid``.
    Rows are numbered in (n2, n1) order, the C order of a transposed
    window, so every per-node or per-cell table is a slice of the node
    window read at the nodes or cells, with no per-row lookups.  ``rim``
    takes the arms with one flanking cell, run with that cell on the left
    and sorted by start row, then end row.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    h = 2.0**-level
    if not (0.0 <= shift < h):
        raise ValueError(f"shift must lie in [0, {h})")
    ok, n1lo, n2lo = _contained_cells(domain, level, shift)
    if not ok.any():
        raise EmptyGrid(f"no square of side 2**-{level} fits inside the domain")

    sw, se, nw, ne = _corner_cells(ok)
    nocc = sw | se | nw | ne  # nodes: corners of any cell
    cell_row = _window_index(ok)
    node_row = _window_index(nocc)
    i2, i1 = np.nonzero(ok.T)
    cells = np.column_stack([i1 + n1lo, i2 + n2lo])
    i2, i1 = np.nonzero(nocc.T)
    nodes = np.column_stack([i1 + n1lo, i2 + n2lo])
    interior = (sw & se & nw & ne).T[nocc.T]
    # neighbor rows W, E, S, N: an arm exists when one of the two cells
    # flanking it is present, so rows that np.roll wraps around the window
    # land only where no arm exists
    arms = ((nw | sw, 1, 0), (ne | se, -1, 0), (sw | se, 1, 1), (nw | ne, -1, 1))
    neighbors = np.column_stack(
        [np.where(arm, np.roll(node_row, step, axis), -1).T[nocc.T] for arm, step, axis in arms]
    )
    # corner rows SW, SE, NW, NE of each cell
    corners = (node_row[:-1, :-1], node_row[1:, :-1], node_row[:-1, 1:], node_row[1:, 1:])
    cell_corners = np.column_stack([w.T[ok.T] for w in corners])
    # rim edges: the arm from a node one step east (north) is on the rim
    # when one flanking cell is present, and runs forward when that cell
    # is the one north (west) of it; k indexes the flattened node window
    rim = []
    for owner, other, step in ((ne, se, node_row.shape[1]), (nw, ne, 1)):
        k = np.flatnonzero(owner ^ other)
        pair = np.column_stack([node_row.flat[k], node_row.flat[k + step]])
        rim.append(np.where(owner.flat[k][:, None], pair, pair[:, ::-1]))
    rim = np.concatenate(rim)
    rim = rim[np.lexsort((rim[:, 1], rim[:, 0]))]

    return DyadicGrid(
        domain=domain,
        level=level,
        shift=shift,
        cells=cells,
        nodes=nodes,
        interior=interior,
        neighbors=neighbors,
        cell_corners=cell_corners,
        rim=rim,
        _cell_row=cell_row,
        _node_row=node_row,
        _n1lo=n1lo,
        _n2lo=n2lo,
    )


def boundary_edges(grid: DyadicGrid) -> np.ndarray:
    """Rim edges of the covered region as an (E, 2, 2) int64 array.

    Entry [e] is [start, end], two lattice pairs (n1, n2): the nodes of
    ``grid.rim``, in its order.  Each edge is owned by exactly one cell and
    runs counterclockwise around it, so the covered region stays on the
    left.  Opposite orientations of shared edges cancel, so what survives
    are closed counterclockwise cycles; the sum of (end - start) over the
    array is zero.
    """
    return grid.nodes[grid.rim]


def spanning_fill(
    neighbors: np.ndarray, start: int, increment: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Integrate per-arm increments over a graph along a spanning tree.

    Row r's arm k leads to row ``neighbors[r, k]`` (-1 when absent), and
    stepping along it adds ``increment[r, k]``; entries at absent arms are
    ignored.  ``start`` carries 0 and values spread breadth first.  Arms
    are tried in column order and a row reached twice in one sweep keeps
    its first writer, so the tree, and every value, is deterministic.
    Returns the values and the closure: the worst
    |value[dst] - value[src] - increment| over all arms, which stays at
    rounding level exactly when the increments around every cycle sum to
    zero.  Raises ValueError when some row cannot be reached.
    """
    values = np.zeros(len(neighbors), dtype=increment.dtype)
    seen = np.zeros(len(neighbors), dtype=bool)
    seen[start] = True
    frontier = np.array([start], dtype=np.int64)
    while len(frontier):
        nxt = []
        for k in range(neighbors.shape[1]):
            dst = neighbors[frontier, k]
            fresh = dst >= 0
            fresh[fresh] = ~seen[dst[fresh]]
            if not fresh.any():
                continue
            dst, first = np.unique(dst[fresh], return_index=True)
            src = frontier[fresh][first]
            values[dst] = values[src] + increment[src, k]
            seen[dst] = True
            nxt.append(dst)
        frontier = np.concatenate(nxt) if nxt else frontier[:0]
    if not seen.all():
        raise ValueError("graph is not connected at this level; refine the grid")
    closure = 0.0
    for k in range(neighbors.shape[1]):
        src = np.nonzero(neighbors[:, k] >= 0)[0]
        if len(src):
            defect = np.abs(values[neighbors[src, k]] - values[src] - increment[src, k])
            closure = max(closure, float(defect.max()))
    return values, closure
