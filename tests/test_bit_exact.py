"""Whole-array code against the loops and expressions it replaced, kept
here as references: the spanning fill and containment test (equal bits,
equal closures), the node transport of the conjugate, and the V-cycle's
prolongation and coarse operators.  The one-point evaluators are checked
the other way round, against the array path they stand beside."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from discmap import barrier, contains, dirichlet, geometry, load_domain, mapping, normalize_origin
from discmap.barrier import boundary_probes
from discmap.errors import OutsideGrid
from discmap.geometry import _inside_many, spanning_fill

from conftest import DOMAIN_NAMES, DOMAIN_SPECS
from test_geometry import LATTICE_DOMAINS


def _frontier_fill(neighbors, start, increment):
    """One round of numpy calls per BFS level; arms are tried in column
    order and a row reached twice in one sweep keeps its first writer."""
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


def _inside_per_edge(domain, pts):
    """Even-odd ray casting one polygon edge at a time."""
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


@pytest.fixture
def fills(monkeypatch):
    """Route both callers of spanning_fill through a check against the
    frontier sweep; yields the list of checked graph sizes."""
    checked = []

    def check(neighbors, start, increment):
        values, closure = spanning_fill(neighbors, start, increment)
        ref_values, ref_closure = _frontier_fill(neighbors, start, increment)
        assert values.dtype == ref_values.dtype
        assert values.tobytes() == ref_values.tobytes()
        assert closure == ref_closure
        checked.append(len(neighbors))
        return values, closure

    monkeypatch.setattr(mapping, "spanning_fill", check)
    monkeypatch.setattr(barrier, "spanning_fill", check)
    return checked


def _noise(grid, seed):
    """Node values far from harmonic, so that any other tree moves the
    filled values by O(1), not by rounding."""
    return np.random.default_rng(seed).standard_normal(grid.node_count)


@pytest.mark.parametrize("level", [3, 4, 5, 6])
@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_cell_fill_matches_frontier_sweep(fills, grid_for, name, level):
    for shift in (0.0, 2.0**-level / 16):
        grid = grid_for(name, level, shift)
        mapping.conjugate_on_cells(grid, _noise(grid, level))
    assert len(fills) == 2


@pytest.mark.parametrize("level", [4, 5, 6])
def test_star_pool_fill_matches_frontier_sweep(fills, level):
    from bench.workloads import star_polygons  # the benchmark's generator

    for i, spec in enumerate(star_polygons(0, 32)[0]):
        grid = geometry.build_grid(normalize_origin(load_domain(spec)), level)
        mapping.conjugate_on_cells(grid, _noise(grid, i))
    assert len(fills) == 32


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_barrier_node_fill_matches_frontier_sweep(fills, domains, grid_for, name):
    """The node graph, arms W, E, S, N, with complex log increments."""
    for level in (4, 6):
        grid = grid_for(name, level)
        for probe in boundary_probes(domains[name], 3)[:3]:
            branch = barrier.log_branch(grid, probe)
            assert branch.values.dtype == np.complex128
    assert len(fills) == 6


def _probe_points(domain, seed):
    """Seeded points over the box, every vertex (rim points of a disc),
    edge midpoints, and points at each vertex's height: on it, left and
    right of it."""
    disc = domain.kind == "disc"
    verts = np.asarray(boundary_probes(domain, 16) if disc else domain.vertices)
    xmin, xmax, ymin, ymax = domain.bounding_box()
    rng = np.random.default_rng(seed)
    box = rng.uniform((xmin - 0.1, ymin - 0.1), (xmax + 0.1, ymax + 0.1), (5000, 2))
    mids = 0.5 * (verts + np.roll(verts, -1, axis=0))
    x = rng.uniform(xmin - 0.1, xmax + 0.1, (len(verts), 3))
    x[:, 1] = verts[:, 0]
    level = np.column_stack([x.ravel(), np.repeat(verts[:, 1], 3)])
    return np.concatenate([box, verts, mids, level])


@pytest.mark.parametrize("name", ["ell", "square", "triangle", "notches", "offset_disc", "star"])
def test_inside_many_matches_per_edge_reference(name):
    if name == "star":
        from bench.workloads import star_polygons

        spec = star_polygons(0, 1)[0][0]
    else:
        spec = LATTICE_DOMAINS[name]
    domain = load_domain(spec)
    pts = _probe_points(domain, len(name))
    expected = _inside_per_edge(domain, pts)
    assert expected.any() and not expected.all()
    assert np.array_equal(_inside_many(domain, pts), expected)
    if domain.kind == "polygon":
        # Domain stores counterclockwise vertices; the test must not care
        clockwise = replace(domain, vertices=domain.vertices[::-1])
        assert np.array_equal(_inside_many(clockwise, pts), _inside_per_edge(clockwise, pts))


def test_inside_many_counts_horizontal_edges_and_vertex_heights():
    ell = load_domain(LATTICE_DOMAINS["ell"])  # horizontal edges at y = 0, 1, 2
    pts = np.array(
        [[0.5, 0.0], [1.5, 1.0], [0.5, 2.0], [0.5, 1.0], [1.5, 0.5], [-1.0, 1.0], [3.0, 0.0]]
    )
    assert _inside_many(ell, pts).tolist() == [False, False, False, True, True, False, False]
    assert np.array_equal(_inside_many(ell, pts), _inside_per_edge(ell, pts))


@pytest.mark.parametrize("name", ["square", "ell"])
def test_contains_raises_no_runtime_warning(name):
    domain = load_domain(DOMAIN_SPECS[name])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in domain.vertices + ((0.0, 0.0), (0.25, 0.5), (0.25, -0.5), (5.0, 5.0)):
            contains(domain, point)


def test_normalize_origin_matches_per_edge_reference(monkeypatch):
    from bench.workloads import star_polygons

    specs = star_polygons(0, 32)[0] + list(LATTICE_DOMAINS.values())
    # moved away from the origin, a star takes the centroid branch
    specs += [
        {"type": "polygon", "vertices": [[x + 3.0, y - 2.0] for x, y in spec["vertices"]]}
        for spec in specs[:4]
    ]
    domains = [load_domain(spec) for spec in specs]
    got = [normalize_origin(d) for d in domains]
    monkeypatch.setattr(geometry, "_inside_many", _inside_per_edge)
    assert got == [normalize_origin(d) for d in domains]
    assert sum(g.translation != (0.0, 0.0) for g in got) >= 5


def _node_transport_add_at(grid, pot):
    """harmonic_conjugate's node values with one ``np.add.at`` scatter per
    corner slot, for the sums and for the counts."""
    conj, _ = mapping.conjugate_on_cells(grid, pot.values)
    gx, gy = mapping._cell_gradients(grid, pot.values)
    h = grid.spacing
    sums = np.zeros(grid.node_count)
    counts = np.zeros(grid.node_count)
    offsets = ((-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5))
    for slot, (ox, oy) in enumerate(offsets):
        rows = grid.cell_corners[:, slot]
        contrib = conj + (ox * h) * (-gy) + (oy * h) * gx
        np.add.at(sums, rows, contrib)
        np.add.at(counts, rows, 1.0)
    return sums / counts


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_harmonic_conjugate_matches_add_at_transport(map_for, name):
    for level in (3, 6):
        for shift in (0.0, 2.0**-level / 16):
            m = map_for(name, level, shift)
            got = mapping.harmonic_conjugate(m.grid, m.potential).values
            assert got.tobytes() == _node_transport_add_at(m.grid, m.potential).tobytes()


def _prolongation_divmod(coords):
    """``dirichlet._prolongation`` with ``np.divmod`` and 0.5 ** (odd count)."""
    half, odd = np.divmod(coords, 2)
    even = ~odd.any(axis=1)
    lo = half.min(axis=0)
    stride = int(half[:, 1].max() - lo[1]) + 2
    key = (half[:, 0] - lo[0]) * stride + (half[:, 1] - lo[1])
    table = np.full((int(half[:, 0].max() - lo[0]) + 2) * stride, -1, dtype=np.int32)
    table[key[even]] = np.arange(int(even.sum()), dtype=np.int32)
    cols = np.empty((len(coords), 4), dtype=np.int32)
    for slot, (d1, d2) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        reach = (odd[:, 0] >= d1) & (odd[:, 1] >= d2)
        cols[:, slot] = np.where(reach, table[key + d1 * stride + d2], -1)
    weights = 0.5 ** odd.sum(axis=1)
    return dirichlet._slot_matrix(cols, weights[:, None], int(even.sum())), half[even]


def _assert_same_csr(got, want):
    assert got.format == want.format == "csr" and got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_prolongation_matches_divmod_reference(grid_for, name):
    # every level of the hierarchy, down to a single coarse node, with the
    # coarse operators of the five-point matrix on the interior nodes
    for shift in (0.0, 2.0**-6 / 16):
        grid = grid_for(name, 6, shift)
        free = np.flatnonzero(grid.interior)
        a, _ = dirichlet._assemble(grid, free, np.zeros(grid.node_count))
        coords = grid.nodes[free]
        while len(coords) > 1 and (coords % 2 == 0).all(axis=1).any():
            p, coarse = dirichlet._prolongation(coords)
            ref, ref_coarse = _prolongation_divmod(coords)
            _assert_same_csr(p, ref)
            assert np.array_equal(coarse, ref_coarse)
            # the Galerkin product as it was formed before: CSC view first
            ref_a = (p.T @ a @ p).tocsr()
            a = dirichlet._galerkin(a, p)
            _assert_same_csr(a, ref_a)
            coords = coarse


def _lattice_points(grid, seed):
    """Seeded points over the grid's box and a margin, every node, and a
    point on the east face of every other cell and on the north face of the
    rest.  On a rim cell's east face, the point's floor square is missing
    and the lookup across that square's west face fires; north faces fire
    the south lookup, and nodes at convex north-east corners the
    south-west one."""
    rng = np.random.default_rng(seed)
    lo, hi = grid.nodes.min(axis=0) - 2, grid.nodes.max(axis=0) + 2
    face = rng.uniform(0.0, 1.0, (len(grid.cells), 2))
    face[::2, 0] = 1.0  # east faces
    face[1::2, 1] = 1.0  # north faces
    lattice = np.concatenate([rng.uniform(lo, hi, (100, 2)), grid.nodes, grid.cells + face])
    return lattice * grid.spacing + grid.shift


def _outside_message(fn, point):
    with pytest.raises(OutsideGrid) as info:
        fn(point)
    return str(info.value)


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_one_point_path_matches_array_path(map_for, name):
    fired = set()
    for shift in (0.0, 2.0**-4 / 16, 0.001):
        m = map_for(name, 4, shift)
        g = m.grid
        pts = _lattice_points(g, 4)
        rows, u, v = g.locate(pts)
        one = [g.locate_point(x, y) for x, y in pts.tolist()]
        assert [row for row, _, _ in one] == rows.tolist()
        assert np.array([uv for _, *uv in one]).tobytes() == np.column_stack([u, v]).tobytes()
        inside = rows >= 0
        assert inside.any() and not inside.all()
        floor = np.floor((pts[inside] - shift) / g.spacing)
        fired.update(map(tuple, (floor - g.cells[rows[inside]]).tolist()))

        # a 2-tuple, and a row of an array, which has shape (2,)
        pts_in = pts[inside]
        h = [mapping.eval_map(m, p) for p in map(tuple, pts_in.tolist())]
        assert np.array(h).tobytes() == mapping.eval_map(m, pts_in).tobytes()
        # one point of eval_derivative runs as a (1, 2) array, so a
        # sample of the points checks that
        d, flag = zip(*(mapping.eval_derivative(m, p, with_flag=True) for p in pts_in[::13]))
        d_arr, flag_arr = mapping.eval_derivative(m, pts_in[::13], with_flag=True)
        assert np.array(d).tobytes() == d_arr.tobytes()
        assert list(flag) == flag_arr.tolist()

        # eval_derivative raises from the same lookup; ten points check it
        for k, (x, y) in enumerate(pts[~inside].tolist()):
            for fn in (mapping.eval_map, mapping.eval_derivative)[: 2 if k < 10 else 1]:
                want = _outside_message(lambda p: fn(m, p), np.array([[x, y]]))
                assert _outside_message(lambda p: fn(m, p), (x, y)) == want
    # the floor square, then the west, south and south-west fallbacks
    assert fired == {(0, 0), (1, 0), (0, 1), (1, 1)}
