"""Discrete boundary-value solver, energy, and the monotone iteration."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import spsolve

from discmap import (
    BoundaryData,
    NoConvergence,
    OriginOnBoundary,
    boundary_data,
    boundary_data_from_function,
    build_grid,
    check_max_principle,
    dirichlet_energy,
    load_domain,
    normalize_origin,
    perron_iterate,
    punctured_disc_profile,
    solve_dirichlet,
)
from discmap import dirichlet
from discmap.dirichlet import DEFAULT_TOL, field_csv

TINY_SQUARE = {
    "type": "polygon",
    "vertices": [[-0.3, -0.3], [0.3, -0.3], [0.3, 0.3], [-0.3, 0.3]],
}


def _tiny_grid():
    # exactly four cells around the origin, one interior node
    return build_grid(load_domain(TINY_SQUARE), 2)


def test_single_free_node_closed_form():
    # rim data -ln|z|: four side nodes at radius 1/4, four corners at
    # sqrt(2)/4; the lone interior value is the mean of its four arms
    g = _tiny_grid()
    fld = solve_dirichlet(g, boundary_data(g))
    center = g.node_rows([(0, 0)])[0]
    assert fld.values[center] == pytest.approx(2.0 * math.log(2.0), abs=1e-12)


def test_single_free_node_energy_closed_form():
    # spokes contribute zero, the eight rim edges (ln 4 - 1.5 ln 2)^2 each
    g = _tiny_grid()
    fld = solve_dirichlet(g, boundary_data(g))
    assert dirichlet_energy(g, fld) == pytest.approx(
        2.0 * math.log(2.0) ** 2, abs=1e-12
    )


def test_solver_residual_under_tolerance():
    g = build_grid(load_domain({"type": "disc", "center": [0, 0], "radius": 1.0}), 4)
    data = boundary_data(g)
    fld = solve_dirichlet(g, data, tol=1e-10)
    assert fld.residual <= 1e-10 * (data.range_span() + 1.0)


def test_solver_keeps_prescribed_values_exact():
    g = build_grid(load_domain({"type": "disc", "center": [0, 0], "radius": 1.0}), 4)
    data = boundary_data(g)
    fld = solve_dirichlet(g, data)
    for (n1, n2), v in zip(g.nodes[data.fixed], data.values[data.fixed]):
        assert fld.values[g.node_rows([(n1, n2)])[0]] == v


def test_discrete_harmonic_data_reproduced_exactly():
    # x^2 - y^2 and x*y satisfy the five-point mean-value identity, so
    # the interior solve must reproduce them to solver tolerance
    g = build_grid(load_domain(TINY_SQUARE), 4)
    pts = g.node_points()
    for fn in (lambda x, y: x * x - y * y, lambda x, y: x * y):
        data = boundary_data_from_function(g, fn)
        fld = solve_dirichlet(g, data, tol=1e-12)
        exact = fn(pts[:, 0], pts[:, 1])
        assert np.abs(fld.values - exact).max() <= 1e-10


def test_max_principle_on_log_data():
    g = build_grid(load_domain({"type": "disc", "center": [0, 0], "radius": 1.0}), 4)
    fld = solve_dirichlet(g, boundary_data(g))
    rep = check_max_principle(g, fld)
    assert rep.ok
    assert rep.boundary_min - rep.slack <= rep.interior_min
    assert rep.interior_max <= rep.boundary_max + rep.slack


def test_boundary_data_is_log_distance():
    g = build_grid(load_domain({"type": "disc", "center": [0, 0], "radius": 1.0}), 3)
    data = boundary_data(g)
    h = g.spacing
    assert np.array_equal(data.fixed, ~g.interior)
    assert not data.values[~data.fixed].any()
    for (n1, n2), v in zip(g.nodes[data.fixed], data.values[data.fixed]):
        x, y = n1 * h, n2 * h
        assert v == pytest.approx(-math.log(math.hypot(x, y)), abs=1e-14)


def test_boundary_data_requires_origin_inside():
    # a domain normalized away from the origin leaves the rim data undefined
    far = load_domain({"type": "disc", "center": [3.0, 0.0], "radius": 1.0})
    g = build_grid(far, 3)
    with pytest.raises(OriginOnBoundary):
        boundary_data(g)


def test_boundary_data_missing_rim_value_rejected():
    g = _tiny_grid()
    data = boundary_data(g)
    fixed = data.fixed.copy()
    fixed[np.flatnonzero(~g.interior)[0]] = False
    with pytest.raises(ValueError, match="^1 rim nodes have no prescribed value$"):
        BoundaryData(g, fixed, data.values)
    # nor can a rim node lose its value once the data are built
    with pytest.raises(ValueError, match="read-only"):
        data.fixed[np.flatnonzero(~g.interior)[0]] = False


def test_pinned_interior_node_held_fixed():
    g = build_grid(load_domain({"type": "disc", "center": [0, 0], "radius": 1.0}), 3)
    data = boundary_data_from_function(g, lambda x, y: 1.0, pins={(0, 0): 0.0})
    fld = solve_dirichlet(g, data)
    row = g.node_rows([(0, 0)])[0]
    assert fld.values[row] == 0.0
    assert fld.constrained[row]


def test_energy_of_constant_field_is_zero():
    g = _tiny_grid()
    assert dirichlet_energy(g, np.ones(g.node_count) * 3.7) == 0.0


def test_solution_minimizes_energy_among_perturbations():
    g = build_grid(load_domain({"type": "disc", "center": [0, 0], "radius": 1.0}), 4)
    data = boundary_data(g)
    fld = solve_dirichlet(g, data)
    e0 = dirichlet_energy(g, fld)
    free = g.interior & ~fld.constrained
    rng = np.random.default_rng(7)
    for _ in range(5):
        d = np.zeros(g.node_count)
        d[free] = rng.normal(0.0, 0.05, int(free.sum()))
        assert dirichlet_energy(g, fld.values + d) > e0


def test_perturbation_energy_splits_exactly():
    # for the minimizer, E(g + d) - E(g) equals E(d) for zero-rim d;
    # the cross term vanishes because the interior defect is zero
    g = build_grid(load_domain(TINY_SQUARE), 4)
    data = boundary_data(g)
    fld = solve_dirichlet(g, data, tol=1e-12)
    e0 = dirichlet_energy(g, fld)
    free = g.interior & ~fld.constrained
    rng = np.random.default_rng(3)
    d = np.zeros(g.node_count)
    d[free] = rng.normal(0.0, 0.1, int(free.sum()))
    gain = dirichlet_energy(g, fld.values + d) - e0
    assert gain == pytest.approx(dirichlet_energy(g, d), rel=1e-6)


def test_perron_iterates_are_nondecreasing():
    g = build_grid(load_domain(TINY_SQUARE), 4)
    data = boundary_data(g)
    prev = perron_iterate(g, data, 1).values
    for sweeps in (2, 4, 8, 16, 64):
        cur = perron_iterate(g, data, sweeps).values
        assert (cur >= prev - 1e-15).all()
        prev = cur


def test_perron_limit_matches_direct_solve():
    g = build_grid(load_domain(TINY_SQUARE), 4)
    data = boundary_data(g)
    direct = solve_dirichlet(g, data)
    relaxed = perron_iterate(g, data, 200000)
    assert np.abs(relaxed.values - direct.values).max() <= 10.0 * DEFAULT_TOL


def test_perron_stays_below_solution():
    # iterates climb from below: each sweep output is a subsolution
    g = build_grid(load_domain(TINY_SQUARE), 4)
    data = boundary_data(g)
    direct = solve_dirichlet(g, data, tol=1e-12)
    part = perron_iterate(g, data, 25)
    assert (part.values <= direct.values + 1e-9).all()


def test_punctured_disc_profile_tracks_prediction():
    p = punctured_disc_profile(5)
    assert p.level == 5
    assert p.value_at_half == pytest.approx(p.predicted_at_half, abs=0.07)
    # axis profile: solved values are sandwiched between the prediction
    # and the rim value, and increase with radius
    assert (np.diff(p.solved) >= -1e-12).all()
    assert p.solved.max() <= 1.0 + 1e-12


def test_punctured_disc_profile_climbs_with_level():
    values = [punctured_disc_profile(n).value_at_half for n in (3, 4, 5)]
    assert values[0] < values[1] < values[2]


def test_field_csv_shape_and_content():
    g = _tiny_grid()
    fld = solve_dirichlet(g, boundary_data(g))
    text = field_csv(fld)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,value"
    assert len(lines) == g.node_count + 1
    x, y, v = (float(t) for t in lines[1].split(","))
    row = int(np.argmin(np.abs(g.node_points()[:, 0] - x) + np.abs(g.node_points()[:, 1] - y)))
    assert v == fld.values[row]
    assert "np.float64" not in text


# the preconditioned solve on systems large enough for a real hierarchy

DISC = {"type": "disc", "center": [0.0, 0.0], "radius": 1.0}
ELL = {"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}


def _pcg_case(name):
    if name == "punctured":
        g = build_grid(load_domain(DISC), 6)
        return g, boundary_data_from_function(g, lambda x, y: 1.0, pins={(0, 0): 0.0})
    spec, shift = {
        "disc": (DISC, 0.0),
        "disc_shifted": (DISC, 2.0**-6 / 16),
        "ell": (ELL, 0.0),
        "ell_shifted": (ELL, 2.0**-6 / 16),
    }[name]
    g = build_grid(normalize_origin(load_domain(spec)), 6, shift)
    return g, boundary_data(g)


def _reference_system(g, mask, vals):
    # the five-point equations at free nodes, built edge by edge
    free = np.flatnonzero(g.interior & ~mask)
    col = {int(r): i for i, r in enumerate(free)}
    entries = []  # (row, column, coefficient)
    rhs = np.zeros(len(free))
    for i, r in enumerate(free):
        entries.append((i, i, 4.0))
        for q in g.neighbors[r]:
            if int(q) in col:
                entries.append((i, col[int(q)], -1.0))
            else:
                rhs[i] += vals[q]
    rows, cols, coef = zip(*entries)
    a = csc_matrix((coef, (rows, cols)), shape=(len(free), len(free)))
    return free, a, rhs


PCG_CASES = ("disc", "disc_shifted", "ell", "ell_shifted", "punctured")


@pytest.mark.parametrize("name", PCG_CASES)
def test_preconditioned_solve_matches_direct_solve(name):
    g, data = _pcg_case(name)
    fld = solve_dirichlet(g, data)
    free, a, rhs = _reference_system(g, data.fixed, data.values)
    assert len(free) > 16 * dirichlet.COARSEST_SIZE  # two levels or more
    assert np.abs(fld.values[free] - spsolve(a, rhs)).max() <= 1e-9
    assert 1 <= fld.iterations <= 20


@pytest.mark.parametrize("name", PCG_CASES)
def test_v_cycle_is_symmetric_positive_definite(name):
    g, data = _pcg_case(name)
    free = np.flatnonzero(g.interior & ~data.fixed)
    a, _ = dirichlet._assemble(g, free, data.values)
    v_cycle = dirichlet._v_cycle(a, g.nodes[free])
    rng = np.random.default_rng(11)
    for _ in range(3):
        u, v = rng.normal(size=(2, len(free)))
        vu, vv = v_cycle.matvec(u), v_cycle.matvec(v)
        assert abs(u @ vv - v @ vu) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(vv)
        assert u @ vu > 0.0


def test_small_system_is_one_exact_step():
    # below the coarsest size the V-cycle is the splu solve itself
    g = build_grid(load_domain(DISC), 3)
    assert int(g.interior.sum()) <= dirichlet.COARSEST_SIZE
    assert solve_dirichlet(g, boundary_data(g)).iterations == 1


def _stub_cg(info):
    # stands in for scipy's cg: always hands back x = 0 with this status
    def fake(a, b, **kwargs):
        return np.zeros_like(b), info

    return fake


def test_no_convergence_on_cg_status(monkeypatch):
    g = build_grid(load_domain(DISC), 4)
    monkeypatch.setattr(dirichlet, "cg", _stub_cg(1))
    with pytest.raises(NoConvergence, match="status 1"):
        solve_dirichlet(g, boundary_data(g))


def test_no_convergence_on_residual_gate(monkeypatch):
    # cg claims success but hands back a wrong solution
    g = build_grid(load_domain(DISC), 4)
    monkeypatch.setattr(dirichlet, "cg", _stub_cg(0))
    with pytest.raises(NoConvergence, match="mean-value residual"):
        solve_dirichlet(g, boundary_data(g))


# the lattice-keyed dict that boundary data used to be, and the conversion
# to node arrays that every solve used to run, kept as references


def _reference_log_entries(g):
    rim = ~g.interior
    pts = g.node_points()[rim]
    vals = -np.log(np.hypot(pts[:, 0], pts[:, 1]))
    return {(int(n1), int(n2)): float(v) for (n1, n2), v in zip(g.nodes[rim], vals)}


def _reference_function_entries(g, fn, pins):
    pts = g.node_points()
    entries = {}
    for row in np.where(~g.interior)[0]:
        n1, n2 = g.nodes[row]
        entries[(int(n1), int(n2))] = float(fn(pts[row, 0], pts[row, 1]))
    for node, v in pins.items():
        entries[node] = float(v)
    return entries


def _reference_arrays(g, entries):
    mask = np.zeros(g.node_count, dtype=bool)
    vals = np.zeros(g.node_count)
    keys = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
    rows = g.node_rows(keys)
    assert (rows >= 0).all()
    mask[rows] = True
    vals[rows] = np.fromiter(entries.values(), dtype=float, count=len(rows))
    return mask, vals


def _parity_case(name):
    """(grid, boundary data, the same data as a reference dict)."""
    if name in ("log_disc", "log_ell_shifted"):
        spec, shift = (DISC, 0.0) if name == "log_disc" else (ELL, 2.0**-6 / 16)
        g = build_grid(normalize_origin(load_domain(spec)), 6, shift)
        return g, boundary_data(g), _reference_log_entries(g)
    if name == "tiny_square":
        g, fn, pins = build_grid(load_domain(TINY_SQUARE), 4), (lambda x, y: x * y), {}
    else:  # the punctured disc: rim value 1, origin pinned to 0
        g, fn, pins = build_grid(load_domain(DISC), 6), (lambda x, y: 1.0), {(0, 0): 0.0}
    return g, boundary_data_from_function(g, fn, pins=pins), _reference_function_entries(g, fn, pins)


@pytest.mark.parametrize("name", ("log_disc", "log_ell_shifted", "tiny_square", "punctured"))
def test_array_data_solves_bit_identically_to_dict_form(name):
    g, data, entries = _parity_case(name)
    mask, vals = _reference_arrays(g, entries)
    assert np.array_equal(data.fixed, mask)
    assert np.array_equal(data.values, vals)
    assert data.range_span() == max(entries.values()) - min(entries.values())
    fld = solve_dirichlet(g, data)
    ref = solve_dirichlet(g, BoundaryData(g, mask, vals))
    assert np.array_equal(fld.values, ref.values)
    assert fld.residual == ref.residual
    assert fld.iterations == ref.iterations
    assert np.array_equal(fld.constrained, ref.constrained)


def test_pin_off_the_grid_rejected():
    g = _tiny_grid()
    with pytest.raises(ValueError, match=r"^\(9, 9\) is not a node of this grid$"):
        boundary_data_from_function(g, lambda x, y: 1.0, pins={(9, 9): 0.0})
