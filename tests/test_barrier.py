"""Log branches and weak barriers at boundary probes."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from discmap import (
    ProbeTooClose,
    boundary_probes,
    build_grid,
    distance_to_region,
    load_domain,
    log_branch,
    verify_barrier,
    weak_barrier,
)

DISC = {"type": "disc", "center": [0.0, 0.0], "radius": 1.0}
SQUARE = {
    "type": "polygon",
    "vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]],
}


@pytest.fixture(scope="module")
def disc_grid():
    return build_grid(load_domain(DISC), 5)


@pytest.fixture(scope="module")
def square_grid():
    return build_grid(load_domain(SQUARE), 5)


def test_distance_to_region_square_cover():
    g = build_grid(load_domain(SQUARE), 3)
    # covered cells fill [-0.5, 0.5]^2 minus nothing at this level? no:
    # only cells strictly inside, so the cover is [-0.375, 0.375]^2
    assert distance_to_region(g, (0.0, 0.0)) == 0.0
    assert distance_to_region(g, (1.375, 0.0)) == pytest.approx(1.0)
    assert distance_to_region(g, (0.375 + 3.0, 0.375 + 4.0)) == pytest.approx(5.0)


def test_distance_positive_at_rim_probes(square_grid):
    dom = load_domain(SQUARE)
    for q in boundary_probes(dom):
        assert distance_to_region(square_grid, q) > 0.0


def test_log_branch_principal_value_at_origin(disc_grid):
    # probe (1, 0): the branch at the origin node is log(-1) = i pi
    br = log_branch(disc_grid, (1.0, 0.0))
    row = disc_grid.node_rows([(0, 0)])[0]
    assert br.values[row] == 1j * math.pi
    assert br.closure_defect <= 1e-12


def test_log_branch_exponentiates_back(disc_grid):
    # exp recovers z - q at every node regardless of branch bookkeeping
    br = log_branch(disc_grid, (1.0, 0.0))
    pts = disc_grid.node_points()
    z = pts[:, 0] + 1j * pts[:, 1]
    assert np.abs(np.exp(br.values) - (z - 1.0)).max() <= 1e-8


def test_log_branch_real_part_is_log_distance(disc_grid):
    br = log_branch(disc_grid, (1.0, 0.0))
    pts = disc_grid.node_points()
    z = pts[:, 0] + 1j * pts[:, 1]
    assert np.abs(br.values.real - np.log(np.abs(z - 1.0))).max() <= 1e-10
    assert br.bound == pytest.approx(float(np.log(np.abs(z - 1.0)).max()))


def test_log_branch_is_injective_on_nodes(disc_grid):
    br = log_branch(disc_grid, (1.0, 0.0))
    rng = np.random.default_rng(19)
    n = disc_grid.node_count
    a = rng.integers(0, n, 200)
    b = rng.integers(0, n, 200)
    distinct = a != b
    assert (
        np.abs(br.values[a[distinct]] - br.values[b[distinct]]) > 1e-12
    ).all()


def test_log_branch_rejects_interior_probe(disc_grid):
    with pytest.raises(ProbeTooClose):
        log_branch(disc_grid, (0.0, 0.0))
    with pytest.raises(ProbeTooClose):
        log_branch(disc_grid, (0.5, 0.25))


def test_log_branch_custom_basepoint(disc_grid):
    br = log_branch(disc_grid, (1.0, 0.0), basepoint=(0, 0))
    assert br.basepoint == (0, 0)
    with pytest.raises(ValueError):
        log_branch(disc_grid, (1.0, 0.0), basepoint=(999, 999))


def test_weak_barrier_negative_everywhere(disc_grid):
    bf = weak_barrier(disc_grid, (1.0, 0.0))
    assert (bf.values < 0.0).all()


def test_weak_barrier_closed_form_at_origin(disc_grid):
    # L(origin) = i pi, so u(origin) = Re 1/(i pi - (A+1))
    bf = weak_barrier(disc_grid, (1.0, 0.0))
    row = disc_grid.node_rows([(0, 0)])[0]
    a1 = bf.bound + 1.0
    assert bf.values[row] == pytest.approx(-a1 / (a1 * a1 + math.pi**2), abs=1e-14)


def test_weak_barrier_axis_closed_form(disc_grid):
    # on the positive axis L = ln(1-x) + i pi, so with s = A+1-ln(1-x)
    # the barrier is exactly u = -s/(s^2 + pi^2): it dips until s = pi
    # and then climbs to 0 at the probe
    bf = weak_barrier(disc_grid, (1.0, 0.0))
    pts = disc_grid.node_points()
    on_axis = (pts[:, 1] == 0.0) & (pts[:, 0] >= 0.0)
    order = np.argsort(pts[on_axis, 0])
    rows = np.where(on_axis)[0][order]
    x = pts[rows, 0]
    s = bf.bound + 1.0 - np.log(1.0 - x)
    expected = -s / (s * s + math.pi**2)
    assert np.abs(bf.values[rows] - expected).max() <= 1e-12
    diffs = np.diff(bf.values[rows])
    turn = int(np.argmin(bf.values[rows]))
    assert 0 < turn < len(rows) - 1
    assert (diffs[:turn] < 0.0).all()
    assert (diffs[turn:] > 0.0).all()


def test_verify_barrier_passes_on_disc(disc_grid):
    bf = weak_barrier(disc_grid, (1.0, 0.0))
    rep = verify_barrier(disc_grid, bf, sample_radius=1.0)
    assert rep.ok
    assert rep.subharmonic and rep.negative and rep.limit_zero
    assert not rep.boundary_limits_certified
    assert rep.max_mean_defect <= rep.slack
    assert len(rep.samples) >= 3
    radii = [s["radius"] for s in rep.samples]
    assert all(radii[i + 1] == radii[i] / 2.0 for i in range(len(radii) - 1))


def test_verify_barrier_envelope_rises_to_zero(disc_grid):
    bf = weak_barrier(disc_grid, (1.0, 0.0))
    rep = verify_barrier(disc_grid, bf, sample_radius=1.0)
    envs = [s["envelope"] for s in rep.samples]
    assert all(-1.0 <= e < 0.0 for e in envs)
    assert all(envs[i + 1] >= envs[i] for i in range(len(envs) - 1))
    assert all(s["max_u"] >= s["envelope"] - 1e-12 for s in rep.samples)


def test_verify_barrier_all_disc_probes(disc_grid):
    for q in boundary_probes(load_domain(DISC)):
        rep = verify_barrier(disc_grid, weak_barrier(disc_grid, q), 1.0)
        assert rep.ok, f"barrier checks failed at {q}"


def test_verify_barrier_all_square_probes(square_grid):
    for q in boundary_probes(load_domain(SQUARE)):
        rep = verify_barrier(square_grid, weak_barrier(square_grid, q), 0.5)
        assert rep.ok, f"barrier checks failed at {q}"


def test_verify_barrier_rejects_negated_field(disc_grid):
    bf = weak_barrier(disc_grid, (1.0, 0.0))
    flipped = replace(bf, values=-bf.values)
    rep = verify_barrier(disc_grid, flipped, sample_radius=1.0)
    assert not rep.ok
    assert not rep.negative


def test_verify_barrier_rejects_constant_field(disc_grid):
    bf = weak_barrier(disc_grid, (1.0, 0.0))
    flat = replace(bf, values=np.full(disc_grid.node_count, -1.0))
    rep = verify_barrier(disc_grid, flat, sample_radius=1.0)
    # negativity and subharmonicity hold trivially, but the value cannot
    # rise along the ladder, so the limit check fails
    assert rep.negative and rep.subharmonic
    assert not rep.limit_zero
    assert not rep.ok


def test_barrier_transport_metadata(disc_grid):
    bf = weak_barrier(disc_grid, (1.0, 0.0))
    t = bf.transport()
    assert t["kind"] == "reciprocal_shift"
    assert t["shift"] == bf.bound + 1.0
    assert t["image_circle_center"] == [-0.5, 0.0]
    assert t["image_circle_radius"] == 0.5
    rep = verify_barrier(disc_grid, bf, sample_radius=1.0)
    d = rep.as_dict()
    assert set(d) == {
        "q",
        "A",
        "checks",
        "boundary_limits_certified",
        "samples",
        "transport",
    }
    assert d["transport"]["kind"] == "reciprocal_shift"


def test_boundary_probes_square_vertices_and_midpoints():
    pts = boundary_probes(load_domain(SQUARE))
    assert len(pts) == 8
    assert (0.5, 0.5) in pts
    assert (0.0, -0.5) in pts and (0.5, 0.0) in pts


def test_boundary_probes_disc_equally_spaced():
    pts = boundary_probes(load_domain(DISC), count=8)
    assert len(pts) == 8
    for x, y in pts:
        assert math.hypot(x, y) == pytest.approx(1.0)
    angles = sorted(math.atan2(y, x) % (2 * math.pi) for x, y in pts)
    gaps = np.diff(angles)
    assert np.allclose(gaps, math.pi / 4)
