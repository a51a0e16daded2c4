"""The whole-array spanning fill and containment test against the loops
they replaced, kept here as references: equal bits, equal closures."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from discmap import barrier, contains, geometry, load_domain, mapping, normalize_origin
from discmap.barrier import boundary_probes
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
