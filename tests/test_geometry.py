"""Domain parsing and dyadic grid construction."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from discmap import (
    DegenerateGeometry,
    DomainParseError,
    EmptyGrid,
    boundary_edges,
    build_grid,
    build_map,
    contains,
    load_domain,
    map_csv,
    normalize_origin,
)
from discmap import geometry
from discmap.geometry import _contained_cells, _inside_lattice, _inside_many, spanning_fill

from conftest import PINCH

DISC = {"type": "disc", "center": [0.0, 0.0], "radius": 1.0}
SQUARE = {
    "type": "polygon",
    "vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]],
}


def test_load_domain_disc_fields():
    d = load_domain(DISC)
    assert d.kind == "disc"
    assert d.center == (0.0, 0.0)
    assert d.radius == 1.0
    assert d.translation == (0.0, 0.0)


def test_load_domain_polygon_fields():
    d = load_domain(SQUARE)
    assert d.kind == "polygon"
    assert len(d.vertices) == 4


def test_load_domain_rejects_unknown_type():
    with pytest.raises(DomainParseError):
        load_domain({"type": "banana"})


def test_load_domain_rejects_missing_type():
    with pytest.raises(DomainParseError):
        load_domain({"vertices": [[0, 0], [1, 0], [0, 1]]})


def test_load_domain_rejects_two_vertices():
    with pytest.raises(DomainParseError):
        load_domain({"type": "polygon", "vertices": [[0, 0], [1, 0]]})


def test_load_domain_rejects_nonnumeric_vertex():
    with pytest.raises(DomainParseError):
        load_domain({"type": "polygon", "vertices": [[0, 0], [1, 0], ["a", 1]]})


def test_load_domain_rejects_zero_radius():
    with pytest.raises(DegenerateGeometry):
        load_domain({"type": "disc", "center": [0, 0], "radius": 0.0})


def test_load_domain_rejects_self_intersection():
    bowtie = {"type": "polygon", "vertices": [[0, 0], [1, 1], [1, 0], [0, 1]]}
    with pytest.raises(DegenerateGeometry, match="^polygon encloses zero area$"):
        load_domain(bowtie)


def test_load_domain_rejects_repeated_vertex():
    spec = {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 0], [0, 1]]}
    with pytest.raises(DegenerateGeometry, match="^repeated vertex at index 1$"):
        load_domain(spec)


def test_load_domain_accepts_clockwise_polygon():
    ccw = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
    cw = [ccw[0]] + ccw[:0:-1]
    specs = [{"type": "polygon", "vertices": v} for v in (ccw, cw)]
    assert load_domain(specs[1]) == load_domain(specs[0])
    csvs = [map_csv(build_map(normalize_origin(load_domain(s)), 5)) for s in specs]
    assert csvs[1] == csvs[0]
    with pytest.raises(DegenerateGeometry, match="^polygon encloses zero area$"):
        load_domain({"type": "polygon", "vertices": [[0, 0], [1, 0], [2, 0]]})


@pytest.mark.parametrize(
    "vertices, message",
    [
        # pairs (1, 5) and (2, 4) cross; the first in (i, j) order is named
        (
            [[0, 3], [1, 0], [2, 3], [3, 0], [3, 1], [2, 0]],
            "edges 1 and 5 intersect; polygon must be simple",
        ),
        # the spike 3 -> 4 folds back inside edge 2, whose span holds vertex 4
        (
            [[0, 0], [4, 0], [4, 3], [1, 3], [3, 3]],
            "edges 2 and 4 intersect; polygon must be simple",
        ),
    ],
)
def test_load_domain_rejection_messages(vertices, message):
    with pytest.raises(DegenerateGeometry, match=f"^{message}$"):
        load_domain({"type": "polygon", "vertices": vertices})


def test_intersection_found_in_a_later_block():
    # 600 edges take several row blocks; swapping two vertices makes edge
    # 299 the first to cross another
    t = np.arange(600) * (2.0 * math.pi / 600)
    verts = np.column_stack([np.cos(t), np.sin(t)])
    verts[[300, 450]] = verts[[450, 300]]
    with pytest.raises(DegenerateGeometry, match="^edges 299 and 450 intersect"):
        load_domain({"type": "polygon", "vertices": verts.tolist()})


def test_contains_disc_points():
    d = load_domain(DISC)
    assert contains(d, (0.5, 0.0))
    assert not contains(d, (1.5, 0.0))
    assert not contains(d, (1.0, 0.0))  # rim is not interior


def test_contains_nonconvex_polygon():
    ell = load_domain(
        {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}
    )
    assert contains(ell, (0.5, 0.5))
    assert contains(ell, (1.5, 0.5))
    assert not contains(ell, (1.5, 1.5))  # the notch


def test_normalize_origin_translates_ell():
    ell = load_domain(
        {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}
    )
    moved = normalize_origin(ell)
    assert contains(moved, (0.0, 0.0))
    tx, ty = moved.translation
    assert (tx, ty) != (0.0, 0.0)
    # translation recorded so the original coordinates can be recovered
    assert moved.vertices[0] == (tx, ty)


def test_normalize_origin_keeps_offset_disc():
    d = load_domain({"type": "disc", "center": [0.3, 0.0], "radius": 1.0})
    moved = normalize_origin(d)
    assert moved.translation == (0.0, 0.0)
    assert moved.center == (0.3, 0.0)


def test_grid_counts_frozen_disc():
    g3 = build_grid(load_domain(DISC), 3)
    assert (g3.cell_count, g3.node_count) == (164, 193)
    g4 = build_grid(load_domain(DISC), 4)
    assert (g4.cell_count, g4.node_count) == (732, 793)


def test_grid_square_counts_exact():
    # side 0.6 at level 2: exactly the four cells around the origin fit
    sq = load_domain(
        {"type": "polygon", "vertices": [[-0.3, -0.3], [0.3, -0.3], [0.3, 0.3], [-0.3, 0.3]]}
    )
    g = build_grid(sq, 2)
    assert g.cell_count == 4
    assert g.node_count == 9
    assert int(g.interior.sum()) == 1


def test_grid_spacing_and_cell_corner_coordinates():
    g = build_grid(load_domain(DISC), 3)
    h = g.spacing
    assert h == 2.0**-3
    pts = g.node_points()
    for row in range(0, g.cell_count, 17):
        sw, se, nw, ne = g.cell_corners[row]
        assert pts[se, 0] - pts[sw, 0] == pytest.approx(h)
        assert pts[nw, 1] - pts[sw, 1] == pytest.approx(h)
        assert pts[ne, 0] == pytest.approx(pts[nw, 0] + h)
        assert pts[ne, 1] == pytest.approx(pts[se, 1] + h)


def test_grid_neighbor_arms_are_symmetric():
    g = build_grid(load_domain(DISC), 4)
    nb = g.neighbors
    rows = np.arange(g.node_count)
    for k, opp in ((0, 1), (1, 0), (2, 3), (3, 2)):
        have = nb[:, k] >= 0
        assert (nb[nb[have, k], opp] == rows[have]).all()


def test_grid_interior_nodes_have_four_arms():
    g = build_grid(load_domain(DISC), 4)
    assert (g.neighbors[g.interior] >= 0).all()


def test_grid_cells_inside_domain():
    d = load_domain(DISC)
    g = build_grid(d, 4)
    h = g.spacing
    centers = g.cell_centers()
    r = np.hypot(centers[:, 0], centers[:, 1])
    # center of a contained cell is at least half a diagonal from the rim
    assert (r <= 1.0 - h / 2).all()


def test_grid_shift_moves_lattice():
    d = load_domain(DISC)
    lam = 2.0**-4 / 4
    g0 = build_grid(d, 4)
    g1 = build_grid(d, 4, shift=lam)
    assert g1.shift == lam
    p0 = g0.node_points()
    p1 = g1.node_points()
    frac0 = np.unique(np.round((p0 - p0.min()) % g0.spacing, 12))
    frac1 = np.unique(np.round((p1 - lam) % g1.spacing, 12))
    assert set(frac0.tolist()) <= {0.0, g0.spacing}
    assert set(frac1.tolist()) <= {0.0, g1.spacing}


def test_grid_shift_out_of_range():
    d = load_domain(DISC)
    with pytest.raises(ValueError):
        build_grid(d, 4, shift=2.0**-4)
    with pytest.raises(ValueError):
        build_grid(d, 4, shift=-0.01)


def test_grid_rejects_level_zero():
    with pytest.raises(ValueError):
        build_grid(load_domain(DISC), 0)


def test_grid_empty_when_domain_too_small():
    tiny = load_domain({"type": "disc", "center": [0.0, 0.0], "radius": 0.01})
    with pytest.raises(EmptyGrid):
        build_grid(tiny, 2)


def test_boundary_edges_form_closed_cycles():
    for spec in (DISC, SQUARE):
        g = build_grid(load_domain(spec), 3)
        edges = boundary_edges(g)
        assert edges.shape[1:] == (2, 2)
        edges = [(tuple(start), tuple(end)) for start, end in edges.tolist()]
        starts = {}
        for start, end in edges:
            assert start != end
            starts.setdefault(start, 0)
            starts[start] += 1
        ends = {}
        for start, end in edges:
            ends.setdefault(end, 0)
            ends[end] += 1
        assert starts == ends  # every cycle closes


def test_boundary_edges_keep_region_on_left():
    g = build_grid(load_domain(SQUARE), 3)
    for (a1, a2), (b1, b2) in boundary_edges(g).tolist():
        d1, d2 = b1 - a1, b2 - a2
        # the owning cell sits to the left of the traversal direction
        if d2 == 0:
            left1, left2 = min(a1, b1), (a2 if d1 == 1 else a2 - 1)
        else:
            left1, left2 = (a1 - 1 if d2 == 1 else a1), min(a2, b2)
        assert g.cell_rows([(left1, left2)])[0] >= 0


def test_boundary_edges_wind_once_around_origin():
    # the rim cycles together wind once counterclockwise around an
    # interior point; exact per-edge angle increments sum to 2 pi
    for spec in (SQUARE, DISC):
        g = build_grid(load_domain(spec), 3)
        total = 0.0
        for start, end in boundary_edges(g).tolist():
            a = complex(*start)
            b = complex(*end)
            total += cmath.phase(b / a)
        assert total / (2.0 * math.pi) == pytest.approx(1.0, abs=1e-12)


def test_locate_and_covers_point():
    g = build_grid(load_domain(DISC), 3)
    h = g.spacing
    assert g.covers_point_interior((0.0, 0.0))
    assert not g.covers_point_interior((2.0, 0.0))
    for far in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (1e308, 0.0), (0.0, -1e308)):
        assert g.covers_point_interior(far) is False
    rows, u, v = g.locate(np.array([[h / 3, h / 3], [2.0, 0.0]]))
    assert rows[0] == g.cell_rows([(0, 0)])[0]
    assert rows[1] == -1
    assert u[0] == pytest.approx(1.0 / 3.0)
    assert v[0] == pytest.approx(1.0 / 3.0)


def test_describe_roundtrip():
    d = load_domain(SQUARE)
    desc = d.describe()
    again = load_domain(desc)
    assert again.vertices == d.vertices


def test_cell_and_node_rows_match_brute_force():
    ell = {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}
    g = build_grid(normalize_origin(load_domain(ell)), 4, shift=2.0**-4 / 3)
    for lookup, coords in ((g.cell_rows, g.cells), (g.node_rows, g.nodes)):
        table = {tuple(p): row for row, p in enumerate(coords.tolist())}
        # a box reaching past the lattice window on all four sides
        lo = coords.min(axis=0) - 6
        hi = coords.max(axis=0) + 6
        a, b = np.meshgrid(np.arange(lo[0], hi[0] + 1), np.arange(lo[1], hi[1] + 1))
        pairs = np.column_stack([a.ravel(), b.ravel()])
        expected = [table.get(tuple(p), -1) for p in pairs.tolist()]
        assert lookup(pairs).tolist() == expected
        mid = (lo + hi) // 2
        far = [
            (lo[0] - 1000, mid[1]),
            (hi[0] + 1000, mid[1]),
            (mid[0], lo[1] - 1000),
            (mid[0], hi[1] + 1000),
        ]
        assert lookup(far).tolist() == [-1, -1, -1, -1]


def test_cells_at_node_lists_the_cells_with_that_corner():
    ell = {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}
    g = build_grid(normalize_origin(load_domain(ell)), 4, shift=2.0**-4 / 3)
    expected = [[] for _ in range(g.node_count)]
    # a node is the NE (slot 3) corner of the cell SW of it, and so on
    for slot in (3, 2, 1, 0):
        for row, node in enumerate(g.cell_corners[:, slot].tolist()):
            expected[node].append((*g.cells[row].tolist(), row))
    assert [g.cells_at_node(node) for node in range(g.node_count)] == expected


def test_spanning_fill_rejects_disconnected_graph():
    two_pairs = np.array([[1, -1], [0, -1], [3, -1], [2, -1]])
    with pytest.raises(ValueError):
        spanning_fill(two_pairs, 0, np.ones((4, 2)))


def test_spanning_fill_reports_cycle_defect():
    ring = np.array([[1, 3], [2, 0], [3, 1], [0, 2]])  # arms: next, previous
    potential = np.array([0.0, 1.5, -2.0, 4.0])
    values, closure = spanning_fill(ring, 2, potential[ring] - potential[:, None])
    assert values.tolist() == (potential - potential[2]).tolist()
    assert closure == 0.0
    # +1 per step around the ring sums to 4, not 0; the tree from row 0
    # leaves the arms between rows 2 and 3 off by exactly 4
    values, closure = spanning_fill(ring, 0, np.array([[1.0, -1.0]] * 4))
    assert values.tolist() == [0.0, 1.0, 2.0, -1.0]
    assert closure == 4.0


@pytest.mark.parametrize("start", [-1, 4, 2**40])
def test_spanning_fill_rejects_start_outside_rows(start):
    ring = np.array([[1, 3], [2, 0], [3, 1], [0, 2]])
    with pytest.raises(ValueError, match="is not a row"):
        spanning_fill(ring, start, np.ones((4, 2)))


def test_spanning_fill_tree_takes_lowest_arm_one_level_up():
    # rows 1 and 2 sit one level below 0; row 3 is reached from 2 by arm
    # 0 and from 1 by arm 1, and keeps arm 0 whatever the row order
    nb = np.array([[1, 2], [-1, 3], [3, -1], [-1, -1]])
    values, _ = spanning_fill(nb, 0, np.array([[1.0, 2.0], [0.0, 10.0], [100.0, 0.0], [0.0, 0.0]]))
    assert values.tolist() == [0.0, 1.0, 2.0, 102.0]


def test_spanning_fill_rejects_arm_reaching_a_row_twice():
    # rows 1 and 2 both reach row 3 by arm 0, so no arm decides the tree
    nb = np.array([[1, 2], [3, -1], [3, -1], [-1, -1]])
    with pytest.raises(ValueError, match="by arm 0"):
        spanning_fill(nb, 0, np.ones((4, 2)))


def _inside_reference(domain, xv, yv):
    gx, gy = np.meshgrid(xv, yv, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return _inside_many(domain, pts).reshape(len(xv), len(yv))


def _clear_squares_reference(ok, domain, xs, ys):
    """Every polygon edge tested against the whole window of squares, whose
    corners are the node points xs, ys."""
    nx, ny = ok.shape
    x0 = xs[:-1][:, None] + np.zeros((1, ny))
    y0 = ys[:-1][None, :] + np.zeros((nx, 1))
    x1 = xs[1:][:, None] + np.zeros((1, ny))
    y1 = ys[1:][None, :] + np.zeros((nx, 1))
    verts = domain.vertices
    m = len(verts)
    for i in range(m):
        px_, py_ = verts[i]
        qx_, qy_ = verts[(i + 1) % m]
        overlap = (
            (np.maximum(px_, qx_) >= x0)
            & (np.minimum(px_, qx_) <= x1)
            & (np.maximum(py_, qy_) >= y0)
            & (np.minimum(py_, qy_) <= y1)
        )
        dx = qx_ - px_
        dy = qy_ - py_
        s00 = dx * (y0 - py_) - dy * (x0 - px_)
        s10 = dx * (y0 - py_) - dy * (x1 - px_)
        s01 = dx * (y1 - py_) - dy * (x0 - px_)
        s11 = dx * (y1 - py_) - dy * (x1 - px_)
        all_pos = (s00 > 0) & (s10 > 0) & (s01 > 0) & (s11 > 0)
        all_neg = (s00 < 0) & (s10 < 0) & (s01 < 0) & (s11 < 0)
        ok &= ~(overlap & ~(all_pos | all_neg))


def _star(seed, n):
    rng = np.random.default_rng(seed)
    t = np.arange(n) * (2.0 * math.pi / n)
    modes = rng.choice(np.arange(2, 9), size=3, replace=False)
    amps = rng.uniform(0.02, 0.06, 3)[:, None]
    r = 1.0 + (amps * np.cos(np.outer(modes, t) + rng.uniform(0, 2 * math.pi, 3)[:, None])).sum(0)
    verts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    return normalize_origin(load_domain({"type": "polygon", "vertices": verts.tolist()}))


STARS = {"star96": (0, 96), "star240": (1, 240), "star384": (2, 384)}
STARS.update({f"star32_{seed}": (seed, 32) for seed in (3, 4, 5)})
LATTICE_DOMAINS = {
    # edges on lattice lines, and a diagonal through lattice nodes
    "ell": {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]},
    "square": SQUARE,
    "triangle": {"type": "polygon", "vertices": [[-1, -1], [1, -1], [-1, 1]]},
    "offset_disc": {"type": "disc", "center": [0.3, 0.0], "radius": 1.0},
    # thin notches that miss every corner and midpoint at level 5: one tip
    # lies inside a square, the other touches a square's lower side
    "notches": {
        "type": "polygon",
        "vertices": [
            [-1, -1], [-0.45, -1], [-0.4, 0], [-0.35, -1], [1, -1],
            [1, 0.05], [0.1, 0.06], [1, 0.07], [1, 1], [-1, 1],
        ],
    },
}


def _on_edge(domain, xv, yv):
    """Lattice points lying on a polygon edge, edge by edge: exact
    cross == 0 at every lattice point in the edge's bounding box."""
    out = np.zeros((len(xv), len(yv)), dtype=bool)
    if domain.kind == "disc":
        return out
    verts = domain.vertices
    for (px_, py_), (qx_, qy_) in zip(verts, verts[1:] + verts[:1]):
        i = slice(np.searchsorted(xv, min(px_, qx_)), np.searchsorted(xv, max(px_, qx_), "right"))
        j = slice(np.searchsorted(yv, min(py_, qy_)), np.searchsorted(yv, max(py_, qy_), "right"))
        cross = (qx_ - px_) * (yv[None, j] - py_) - (qy_ - py_) * (xv[i, None] - px_)
        out[i, j] |= cross == 0.0
    return out


@pytest.mark.parametrize(
    "name, level, sixteenths",
    [("star96", 7, 0), ("star96", 7, 1), ("star240", 6, 0), ("star384", 6, 1)]
    + [(name, 5, 0) for name in LATTICE_DOMAINS]
    + [("triangle", 6, 0), ("triangle", 6, 1)]
    # seeded stars at shifts 0, h/16 and h/3
    + [(f"star32_{seed}", level, k) for seed in (3, 4, 5) for level in (5, 6) for k in (0, 1, 16 / 3)],
)
def test_scanline_containment_matches_reference(monkeypatch, name, level, sixteenths):
    if name in STARS:
        domain = _star(*STARS[name])
    else:
        domain = load_domain(LATTICE_DOMAINS[name])
    h = 2.0**-level
    shift = sixteenths * h / 16
    ok, n1lo, n2lo = _contained_cells(domain, level, shift)
    xs = np.arange(n1lo, n1lo + ok.shape[0] + 1) * h + shift
    ys = np.arange(n2lo, n2lo + ok.shape[1] + 1) * h + shift
    xm = xs[:-1] + 0.5 * h
    ym = ys[:-1] + 0.5 * h
    masks = []
    for xv, yv in ((xs, ys), (xm, ys), (xs, ym)):
        expected = _inside_reference(domain, xv, yv)
        # the fill is _inside_many's parity at every point on no edge
        off = ~_on_edge(domain, xv, yv)
        assert np.array_equal(_inside_lattice(domain, xv, yv)[off], expected[off])
        masks.append(expected)
    corner, mid_x, mid_y = masks
    # a corner on an edge may read inside, and the edge clearance still
    # rejects every square at it
    on = _on_edge(domain, xs, ys)
    assert not ok[on[:-1, :-1] | on[1:, :-1] | on[:-1, 1:] | on[1:, 1:]].any()
    if name in LATTICE_DOMAINS and domain.kind == "polygon" and sixteenths == 0:
        assert (_inside_lattice(domain, xs, ys) & on).any()
    if name == "triangle" and sixteenths == 0:
        on_diagonal = xs[:, None] + ys[None, :] == 0.0
        assert on_diagonal[1:-1, 1:-1].any() and not corner[on_diagonal].any()
    ref = (
        corner[:-1, :-1] & corner[1:, :-1] & corner[:-1, 1:] & corner[1:, 1:]
        & mid_x[:, :-1] & mid_x[:, 1:] & mid_y[:-1, :] & mid_y[1:, :]
    )
    if domain.kind == "polygon":
        _clear_squares_reference(ref, domain, xs, ys)
    assert np.array_equal(ok, ref)

    grid = build_grid(domain, level, shift)
    monkeypatch.setattr(geometry, "_contained_cells", lambda *args: (ref, n1lo, n2lo))
    expected = build_grid(domain, level, shift)
    for field in ("cells", "nodes", "interior", "neighbors", "cell_corners"):
        assert np.array_equal(getattr(grid, field), getattr(expected, field)), field


def test_clearance_tests_the_square_at_its_node_points():
    # at level 2 and shift h/3, y0 + h falls one ulp below the node
    # coordinate y1 of square (-10, 1); the kite's edge passes between the
    # two, so the square's north-west node lies outside the open kite
    h = 0.25
    s = h / 3
    x, y = -4 * h + s, s
    kite = load_domain(
        {"type": "polygon", "vertices": [[x - 4 * h, y - 4 * h], [x, y], [x - 4 * h, y + 4 * h], [x - 8 * h, y]]}
    )
    x0, y0, y1 = -10 * h + s, h + s, 2 * h + s
    assert y0 + h != y1
    (ax, ay), (bx, by) = kite.vertices[2], kite.vertices[3]
    ax, ay, bx, by, x0, y1 = map(Fraction, (ax, ay, bx, by, x0, y1))
    assert (bx - ax) * (y1 - ay) - (by - ay) * (x0 - ax) < 0
    assert build_grid(kite, 2, s).cell_rows([(-10, 1)]).tolist() == [-1]


ELL = {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}


def _around(n1, n2):
    """Cells SW, SE, NW, NE of a lattice point."""
    return (n1 - 1, n2 - 1), (n1, n2 - 1), (n1 - 1, n2), (n1, n2)


def _corners(a, b):
    """Corners SW, SE, NW, NE of a cell."""
    return (a, b), (a + 1, b), (a, b + 1), (a + 1, b + 1)


# the cell arms E, W, N, S that the conjugate transport walks
CELL_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _tables_from_cells(cells):
    """Every grid table rebuilt from the cell list with sets and dicts."""
    have = set(cells)
    nodes = sorted({p for c in cells for p in _corners(*c)}, key=lambda p: (p[1], p[0]))
    row = {p: r for r, p in enumerate(nodes)}
    interior = [all(c in have for c in _around(*p)) for p in nodes]
    neighbors = []
    for n1, n2 in nodes:
        sw, se, nw, ne = (c in have for c in _around(n1, n2))
        arms = (
            ((n1 - 1, n2), nw or sw),
            ((n1 + 1, n2), ne or se),
            ((n1, n2 - 1), sw or se),
            ((n1, n2 + 1), nw or ne),
        )
        neighbors.append([row[q] if flank else -1 for q, flank in arms])
    cell_corners = [[row[p] for p in _corners(*c)] for c in cells]
    cell_row = {c: r for r, c in enumerate(cells)}
    cell_neighbors = [
        [cell_row.get((a + d1, b + d2), -1) for d1, d2 in CELL_STEPS] for a, b in cells
    ]
    edge_pairs = []
    for k, step in ((1, (1, 0)), (3, (0, 1))):  # east arms, then north arms
        for p in sorted(nodes):  # (n1, n2) order
            if neighbors[row[p]][k] >= 0:
                edge_pairs.append([row[p], row[(p[0] + step[0], p[1] + step[1])]])
    rim = []
    for a, b in cells:
        # counterclockwise around the cell, each with the cell across it
        for start, end, across in (
            ((a, b), (a + 1, b), (a, b - 1)),
            ((a + 1, b), (a + 1, b + 1), (a + 1, b)),
            ((a + 1, b + 1), (a, b + 1), (a, b + 1)),
            ((a, b + 1), (a, b), (a - 1, b)),
        ):
            if across not in have:
                rim.append([list(start), list(end)])
    rim.sort(key=lambda e: (e[0][1], e[0][0], e[1][1], e[1][0]))
    return {
        "nodes": [list(p) for p in nodes],
        "interior": interior,
        "neighbors": neighbors,
        "cell_corners": cell_corners,
        "cell_neighbors": cell_neighbors,
        "edge_pairs": edge_pairs,
        "boundary_edges": rim,
        "rim": [[row[tuple(start)], row[tuple(end)]] for start, end in rim],
    }


@pytest.mark.parametrize(
    "name, level, sixteenths",
    [(name, 4, k) for name in ("ell", "star") for k in (0, 1)]
    + [("pinch", level, k) for level in range(2, 6) for k in (0, 1)],
)
def test_grid_tables_match_brute_force(name, level, sixteenths):
    if name == "star":
        from bench.workloads import star_polygons  # the benchmark's generator

        spec = star_polygons(0, 1)[0][0]
    else:
        spec = {"ell": ELL, "pinch": PINCH}[name]
    domain = normalize_origin(load_domain(spec))  # the pinch already holds 0
    g = build_grid(domain, level, sixteenths * 2.0**-level / 16)
    cells = [tuple(c) for c in g.cells.tolist()]
    assert cells == sorted(set(cells), key=lambda c: (c[1], c[0]))
    expected = _tables_from_cells(cells)
    got = {field: getattr(g, field, None) for field in expected}
    got.update(boundary_edges=boundary_edges(g), cell_neighbors=g.cell_neighbors(CELL_STEPS))
    for field in expected:
        assert got[field].tolist() == expected[field], field
    if name == "pinch":
        present = g.cell_rows([(-1, -1), (0, -1), (-1, 0), (0, 0)]) >= 0
        assert present.tolist() == [True, False, False, True]
        origin = g.node_rows([(0, 0)])[0]
        assert not g.interior[origin]
        assert (g.neighbors[origin] >= 0).all()
