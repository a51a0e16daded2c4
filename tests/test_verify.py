"""Winding counts, boundary modulus, and the bijectivity sweep."""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from conftest import DOMAIN_NAMES
from discmap import (
    ModulusReport,
    NewtonStalled,
    OutsideGrid,
    ScalarField,
    TooCoarse,
    assemble_map,
    bijectivity_sweep,
    boundary_edges,
    boundary_modulus_report,
    conformality_residual,
    count_preimages,
    inverse_map,
    verification_report,
)
from discmap import build_map, load_domain, mapping, normalize_origin
from discmap.dirichlet import DEFAULT_TOL
from discmap.mapping import NodeIndex, eval_map
from discmap.verify import _winding, max_node_derivative

CLI_PROBES = (0j, 1.1 + 0j, -1.1 + 0j, 1.1j, -1.1j)


def _rim_segments(m):
    edges = boundary_edges(m.grid)
    return m.values[m.grid.node_rows(edges[:, 0])], m.values[m.grid.node_rows(edges[:, 1])]


def test_boundary_modulus_node_values_pinned(map_for):
    # |H| = |z| exp(-ln|z|) = 1 identically at rim nodes; only floating
    # point rounding remains, at every level
    for name in ("disc", "square", "ell"):
        rep = boundary_modulus_report(map_for(name, 4))
        assert rep.node_max <= 1e-12
        assert rep.node_mean <= rep.node_max


def test_boundary_modulus_path_deviation_real(map_for):
    # between rim nodes the interpolated modulus genuinely deviates and
    # the deviation shrinks under refinement
    r4 = boundary_modulus_report(map_for("disc", 4))
    r5 = boundary_modulus_report(map_for("disc", 5))
    assert r4.path_max > 100.0 * r4.node_max
    assert r5.path_max < r4.path_max
    assert r5.path_mean < r4.path_mean
    assert r4.path_min_modulus <= 1.0 <= r4.path_max_modulus + r4.margin


def _reference_modulus_report(m):
    # the report as count_preimages used to build it on every call, with
    # 8 + 1 points on each rim segment
    a, b = m.values[m.grid.rim[:, 0]], m.values[m.grid.rim[:, 1]]
    node_dev = np.abs(np.abs(m.values[~m.grid.interior]) - 1.0)
    t = np.linspace(0.0, 1.0, 9)
    path_mod = np.abs(a[:, None] * (1.0 - t) + b[:, None] * t).ravel()
    path_dev = np.abs(path_mod - 1.0)
    return ModulusReport(
        node_max=float(node_dev.max()),
        node_mean=float(node_dev.mean()),
        path_max=float(path_dev.max()),
        path_mean=float(path_dev.mean()),
        path_min_modulus=float(path_mod.min()),
        path_max_modulus=float(path_mod.max()),
    )


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_map_modulus_report_matches_per_call_reference(map_for, name):
    for level in (4, 5, 6):
        for shift in (0.0, 2.0**-level / 16):
            m = map_for(name, level, shift)
            assert astuple(m.modulus) == astuple(_reference_modulus_report(m))


def test_probes_build_no_modulus_report(map_for, monkeypatch):
    m = map_for("disc", 5)

    def refuse(*args):
        raise AssertionError("rim-modulus report rebuilt for a probe")

    monkeypatch.setattr(mapping, "_modulus_report", refuse)
    assert boundary_modulus_report(m) is m.modulus
    assert count_preimages(m, None, 0.3 + 0.1j).count == 1
    with pytest.raises(TooCoarse):
        count_preimages(m, None, 1.0 - m.modulus.margin / 2.0)
    sweep = bijectivity_sweep(m, probes=10, seed=3)
    assert sweep.ok_fraction == 1.0
    # a ladder rebuild is a new map, which builds its own report
    assert not any(res.attempts for res in sweep.results)


def test_count_center_of_each_domain(map_for):
    for name in ("disc", "offset_disc", "square", "ell"):
        res = count_preimages(map_for(name, 4), None, 0j)
        assert res.count == 1
        assert res.distance <= 1e-9


def test_count_far_value_is_zero(map_for):
    for name in ("disc", "square"):
        res = count_preimages(map_for(name, 4), None, 1.1 + 0j)
        assert res.count == 0
        res = count_preimages(map_for(name, 4), None, -2.0 + 1.0j)
        assert res.count == 0


def test_count_generic_interior_values(map_for):
    m = map_for("disc", 4)
    for w in (0.3 + 0.1j, -0.2 - 0.4j, 0.55j):
        assert count_preimages(m, None, w).count == 1


def test_count_stable_across_levels_and_shift(map_for):
    for w in (0j, 0.3 + 0.1j, -0.2 - 0.4j):
        counts = {
            count_preimages(map_for("disc", 4), None, w).count,
            count_preimages(map_for("disc", 5), None, w).count,
            count_preimages(map_for("disc", 5, 2.0**-5 / 8.0), None, w).count,
        }
        assert counts == {1}


def test_count_rejects_rim_band_probe(map_for):
    m = map_for("disc", 4)
    rep = boundary_modulus_report(m)
    inside_band = complex(1.0 - rep.margin / 2.0, 0.0)
    with pytest.raises(TooCoarse):
        count_preimages(m, None, inside_band)
    below_band = complex(rep.path_min_modulus - rep.margin / 2.0, 0.0)
    with pytest.raises(TooCoarse):
        count_preimages(m, None, below_band)
    # a w on the rim polygon itself never reaches the winding
    a, b = _rim_segments(m)
    with pytest.raises(TooCoarse):
        count_preimages(m, None, complex((a[0] + b[0]) / 2.0))


def test_count_band_narrows_under_refinement(map_for):
    # a probe the coarse grid rejects is countable after refining
    m4 = map_for("disc", 4)
    m5 = map_for("disc", 5)
    rep4 = boundary_modulus_report(m4)
    rep5 = boundary_modulus_report(m5)
    assert rep5.margin < rep4.margin
    w = complex(1.0 - 1.5 * rep4.margin, 0.0)
    assert rep5.path_min_modulus - abs(w) > rep5.margin
    assert count_preimages(m5, None, w).count == 1


def test_preimage_count_reports_ladder_metadata(map_for):
    m = map_for("disc", 4)
    res = count_preimages(m, None, 0.62 + 0.0j)
    assert res.count == 1
    assert res.attempts <= 5
    assert res.shift >= 0.0
    assert res.raw == pytest.approx(res.count, abs=res.distance + 1e-15)


@pytest.mark.parametrize("level", (6, 7))
@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_cli_probes_count_without_ladder(map_for, name, level):
    # each probe lies farther from every rim segment than the segment's
    # length (tightest: the ell at N=6, ratio 1.058), so nothing is rebuilt
    cache = {}
    results = [count_preimages(map_for(name, level), None, w, cache=cache) for w in CLI_PROBES]
    assert [r.count for r in results] == [1, 0, 0, 0, 0]
    assert [(r.attempts, r.hazard) for r in results] == [(0, False)] * 5
    assert not cache


def _near_segment_probe(m):
    """Half a segment length inside the longest rim segment's image."""
    a, b = _rim_segments(m)
    k = int(np.argmax(np.abs(b - a)))
    mid = (a[k] + b[k]) / 2.0
    return complex(mid - 0.5 * abs(b[k] - a[k]) * mid / abs(mid))


def test_ladder_fires_near_a_rim_segment(map_for):
    # on the ell |w| is about 0.83, clear of the modulus band, yet the
    # hazard fires
    m = map_for("ell", 6)
    res = count_preimages(m, None, _near_segment_probe(m))
    assert res.attempts >= 1
    assert res.count == 1


def test_ladder_cache_may_serve_several_maps(map_for):
    # the square's ladder leaves its own rebuilds in the dict, at the same
    # shifts the ell's ladder asks for; the ell must not be handed them
    ell, square = map_for("ell", 6), map_for("square", 6)
    cache = {}
    assert count_preimages(square, None, _near_segment_probe(square), cache=cache).attempts == 5
    w = _near_segment_probe(ell)
    alone = count_preimages(ell, None, w)
    shared = count_preimages(ell, None, w, cache=cache)
    assert (shared.attempts, shared.hazard, shared.raw) == (alone.attempts, alone.hazard, alone.raw)
    assert (alone.attempts, alone.hazard) == (5, True)
    assert len(cache) == 10


def test_rim_report_needs_no_point_location(map_for):
    # under this shift a point placed on a rim edge by its coordinates can
    # round outside the covered region, so rim statistics must not locate
    # points
    m = map_for("offset_disc", 6, 0.3 * 2.0**-6)
    assert boundary_modulus_report(m).path_max < 0.01
    assert count_preimages(m, None, 0j).count == 1


def test_shift_ladder_rebuild_cache_shared(map_for):
    m = map_for("ell", 4)
    cache = {}
    for w in (0j, 0.1 + 0.2j, -0.3 + 0.1j):
        count_preimages(m, None, w, cache=cache)
    # at most the five ladder shifts are ever built, however many probes
    assert len(cache) <= 5


def test_conformality_residual_halves_on_disc(map_for):
    crs = [conformality_residual(map_for("disc", n)) for n in (4, 5, 6)]
    assert crs[0] > crs[1] > crs[2]
    for a, b in zip(crs, crs[1:]):
        assert 0.35 <= b / a <= 0.65  # one halving per level, within 30%
    assert crs[2] <= 0.05


def test_conformality_residual_zero_for_exact_identity(map_for):
    g = map_for("disc", 4).grid
    zero = ScalarField(g, np.zeros(g.node_count))
    ident = assemble_map(g, zero, zero, DEFAULT_TOL)
    assert conformality_residual(ident) == 0.0


def test_conformality_residual_flags_orientation_flip(map_for):
    # conjugating H is anti-holomorphic: the defect jumps to order one
    m = map_for("disc", 4)
    broken = replace(m, values=np.conj(m.values))
    assert conformality_residual(broken) > 100.0 * conformality_residual(m)
    assert conformality_residual(broken) > 0.5


def test_max_node_derivative_near_one_on_disc(map_for):
    d = max_node_derivative(map_for("disc", 5))
    assert 0.9 <= d <= 1.6


def test_inverse_map_round_trip(map_for):
    m = map_for("disc", 4)
    for w in (0.3 + 0.2j, -0.5 + 0.1j, 0.62j, 0j):
        z = inverse_map(m, None, w)
        assert abs(eval_map(m, z) - w) <= 1e-6


def test_inverse_map_matches_identity_inner(map_for):
    # on the disc H is close to the identity, so preimages land near w
    m = map_for("disc", 5)
    for w in (0.25 + 0.25j, -0.4j):
        z = inverse_map(m, None, w)
        assert abs(complex(*z) - w) <= 0.02


def test_inverse_map_stalls_outside_range(map_for):
    m = map_for("disc", 4)
    with pytest.raises(NewtonStalled) as err:
        inverse_map(m, None, 5.0 + 0.0j)
    assert err.value.residual > 1.0
    x, y = err.value.best
    assert isinstance(x, float) and isinstance(y, float)


NON_FINITE = (complex(math.nan, 0.0), complex(math.inf, 0.0), complex(0.0, -math.inf))


def test_non_finite_w_is_rejected_before_any_work(map_for):
    m = map_for("disc", 4)
    for w in NON_FINITE:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^w = .* is not finite$"):
                count_preimages(m, None, w)
            with pytest.raises(ValueError, match=r"^w = .* is not finite$"):
                inverse_map(m, None, w)


def _index_probes(m, seed):
    """Seeded w in |w| <= 1.2, midpoints of adjacent rim node values
    (near ties), w = 0 and w = 5."""
    rng = np.random.default_rng(seed)
    seeded = 1.2 * np.sqrt(rng.uniform(0.0, 1.0, 24)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 24))
    a, b = m.values[m.grid.rim[::max(1, len(m.grid.rim) // 16)]].T
    return [complex(w) for w in (*seeded, *((a + b) / 2.0), 0.0, 5.0)]


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_node_index_start_is_the_argmin_node(map_for, name):
    nodes4 = map_for("disc", 4).values
    for level in (4, 5, 6, 7):
        for shift in (0.0, 2.0**-level / 16):
            m = map_for(name, level, shift)
            probes = _index_probes(m, level)
            if level == 4:
                probes += [complex(w) for w in nodes4]  # exact hits on the disc
            for w in probes:
                assert m.node_index.nearest(w) == np.argmin(np.abs(m.values - w))


def test_node_index_resolves_ties_to_the_lowest_row(map_for):
    # node values snapped to a coarse lattice: most nodes tie with others
    m = map_for("ell", 5)
    coarse = np.round(m.values * 8.0) / 8.0
    index = NodeIndex.build(m.grid, coarse)
    for w in (0j, 0.0625 + 0.0625j, 0.3 - 0.2j, *coarse[::97]):
        assert index.nearest(complex(w)) == np.argmin(np.abs(coarse - w))


def _uniform_in_disc(rng, radius, count):
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, count))
    return (rad * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))).tolist()


def _cell_solutions(m, w):
    """Every solution of H(z) = w over the whole map, by solving each
    cell's quadratic at once: the cell rows, and u, v in [0, 1]."""
    corner = m.values[m.grid.cell_corners]  # SW, SE, NW, NE
    e, f = corner[:, 1] - corner[:, 0], corner[:, 2] - corner[:, 0]
    g = corner[:, 3] - corner[:, 2] - corner[:, 1] + corner[:, 0]
    d = w - corner[:, 0]
    a, b, c = (np.conj(g) * e).imag, (np.conj(d) * g - np.conj(e) * f).imag, (np.conj(d) * f).imag
    disc = b * b - 4.0 * a * c
    quad, linear = (a != 0.0) & (disc >= 0.0), (a == 0.0) & (b != 0.0)
    q = -0.5 * (b + np.copysign(np.sqrt(np.where(quad, disc, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        first = np.where(quad, q / a, np.where(linear, -c / b, np.nan))
        second = np.where(quad & (q != 0.0), c / q, np.nan)
        u = np.concatenate([first, second])
        keep = (u >= 0.0) & (u <= 1.0)
        rows, u = np.tile(np.arange(len(a)), 2)[keep], u[keep]
        v = ((d[rows] - u * e[rows]) / (f[rows] + u * g[rows])).real
    inside = (v >= 0.0) & (v <= 1.0)
    return rows[inside], u[inside], v[inside]


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_inverse_map_succeeds_exactly_when_a_cell_holds_w(map_for, name):
    for level in (4, 6):
        for shift in (0.0, 2.0**-level / 16):
            m = map_for(name, level, shift)
            for w in _uniform_in_disc(np.random.default_rng(level), 1.05, 100):
                rows, u, v = _cell_solutions(m, w)
                try:
                    z = inverse_map(m, None, w)
                except NewtonStalled:
                    assert len(rows) == 0
                    continue
                assert len(rows) > 0
                assert abs(eval_map(m, z) - w) <= 1e-12
                # the point is one of the reference's solutions
                ref = (m.grid.cells[rows] + np.column_stack([u, v])) * m.grid.spacing + shift
                assert np.abs(ref - z).max(axis=1).min() <= 1e-9


def test_inverse_map_on_the_coarse_ell(map_for):
    # the witnesses of `discmap verify` at level 3, where damped Newton
    # stalled at 0.7 with residual 6.9e-6
    m = map_for("ell", 3)
    for w in (0.7, 0.7j):
        z = inverse_map(m, None, w)
        assert abs(eval_map(m, z) - w) <= 1e-12
        assert len(_cell_solutions(m, w)[0]) == 1


def test_inverse_map_returns_no_point_outside_the_region(map_for):
    # at a shift that is not dyadic some rim node points round outside
    # every cell; a rim node value whose cell solutions all land on such
    # a point stalls, where Newton returned the node point unevaluated
    m = map_for("offset_disc", 4, 1.0 / 30)
    stalled = 0
    for node in np.flatnonzero(~m.grid.interior).tolist():
        w = m.values.item(node)
        try:
            z = inverse_map(m, None, w)
        except NewtonStalled:
            stalled += 1
            with pytest.raises(OutsideGrid):
                eval_map(m, tuple(m.grid.node_points()[node]))
            continue
        assert abs(eval_map(m, z) - w) <= 1e-12
    assert stalled > 0


def _star_maps():
    from bench.workloads import star_polygons  # the benchmark's generator

    specs, _ = star_polygons(0, 32)
    return [build_map(normalize_origin(load_domain(spec)), 5) for spec in specs[:3]]


def test_cell_count_matches_winding_count(map_for):
    # two independent preimage counts of the interpolated map: solutions
    # of the cell quadratics, and the winding of the rim polygon
    maps = [map_for(name, level) for name in DOMAIN_NAMES for level in (4, 5)] + _star_maps()
    rng = np.random.default_rng(11)
    counted = 0
    for m in maps:
        cache = {}
        for w in _uniform_in_disc(rng, 1.1, 40):
            try:
                count = count_preimages(m, None, w, cache=cache).count
            except TooCoarse:
                continue
            assert len(_cell_solutions(m, w)[0]) == count
            counted += 1
    assert counted > 0.8 * 40 * len(maps)


def test_node_index_is_built_on_first_inversion(domains):
    m = build_map(domains["square"], 4)
    assert count_preimages(m, None, 0.2 + 0.1j).count == 1
    assert "node_index" not in vars(m)
    inverse_map(m, None, 0.2 + 0.1j)
    index = vars(m)["node_index"]
    inverse_map(m, None, -0.3j)
    assert m.node_index is index


def test_bijectivity_sweep_all_ones(map_for):
    for name in ("disc", "offset_disc", "square", "ell"):
        sw = bijectivity_sweep(map_for(name, 4), probes=10, seed=0)
        assert sw.ok_fraction == 1.0
        assert not sw.failures
        assert len(sw.onto_points) == 8
        for z in sw.onto_points:
            assert abs(eval_map(map_for(name, 4), z)) == pytest.approx(
                0.7, abs=1e-6
            )


def test_bijectivity_sweep_deterministic(map_for):
    m = map_for("disc", 4)
    a = bijectivity_sweep(m, probes=8, seed=3)
    b = bijectivity_sweep(m, probes=8, seed=3)
    assert [r.w for r in a.results] == [r.w for r in b.results]
    c = bijectivity_sweep(m, probes=8, seed=4)
    assert [r.w for r in a.results] != [r.w for r in c.results]


def test_bijectivity_sweep_respects_radius(map_for):
    m = map_for("disc", 4)
    sw = bijectivity_sweep(m, radius=0.3, probes=12, seed=1)
    assert sw.ok_fraction == 1.0
    assert all(abs(r.w) <= 0.3 + 1e-12 for r in sw.results)


def test_verification_report_shape(map_for):
    m = map_for("square", 4)
    rep = verification_report(m, probes=[0j, 1.1 + 0j], sweep_probes=6, seed=0)
    d = rep.as_dict()
    assert set(d) == {
        "domain",
        "N",
        "lambda",
        "probes",
        "boundary_modulus",
        "cr_residual",
        "cr_constant",
        "sweep",
    }
    assert d["N"] == 4
    assert d["lambda"] == 0.0
    assert d["sweep"]["ok_fraction"] == 1.0
    counts = {tuple(p["w"]): p["count"] for p in d["probes"] if "count" in p}
    assert counts[(0.0, 0.0)] == 1
    assert counts[(1.1, 0.0)] == 0
    assert d["cr_constant"] == pytest.approx(d["cr_residual"] * 16.0)


def test_verification_report_collects_probe_failures(map_for):
    m = map_for("disc", 4)
    rep = boundary_modulus_report(m)
    bad = complex(1.0 - rep.margin / 2.0, 0.0)
    out = verification_report(m, probes=[bad], sweep_probes=4, seed=0)
    assert not out.probe_results
    assert len(out.probe_failures) == 1
    w, msg = out.probe_failures[0]
    assert w == bad
    assert "TooCoarse" in msg


def test_foreign_grid_is_rejected(map_for):
    # node rows of another grid do not index this map's values
    m5, m4 = map_for("disc", 5), map_for("disc", 4)
    calls = (
        lambda: count_preimages(m5, m4.grid, 0j),
        lambda: boundary_modulus_report(m5, m4.grid),
        lambda: conformality_residual(m5, m4.grid),
        lambda: inverse_map(m5, m4.grid, 0.3),
        lambda: bijectivity_sweep(m5, m4.grid, probes=1),
    )
    for call in calls:
        with pytest.raises(ValueError, match="^grid must be the map's own grid$"):
            call()
    assert count_preimages(m5, m5.grid, 0j).count == 1
    assert count_preimages(m5, None, 0j).count == 1


def _winding_over_every_segment(m, w):
    """The raw winding and hazard flag with the hazard test run on every
    rim segment, gathered from ``m.values``: the reference for the rim
    table's filtered test."""
    a, b = m.values[m.grid.rim].T
    raw = float(np.angle((b - w) / (a - w)).sum() / (2.0 * math.pi))
    d = b - a
    length = np.abs(d)
    t = np.clip(((w - a) * d.conj()).real / length**2, 0.0, 1.0)
    return raw, bool((np.abs(a + t * d - w) < length).any())


def _near_rim_probes(m, seed, count):
    """Seeded w on rim segments (ends excluded) and 1e-15 to 1e-3 off
    them, plus w on, beside and just inside or outside the reach of the
    map's shortest segments."""
    rng = np.random.default_rng(seed)
    a, b = m.values[m.grid.rim].T
    e = rng.integers(0, len(a), count)
    on = a[e] + rng.uniform(0.01, 0.99, count) * (b[e] - a[e])
    off = 10.0 ** rng.uniform(-15.0, -3.0, count) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, count))
    ws = [*on, *(on + off)]
    for k in np.argsort(np.abs(b - a), kind="stable")[:8].tolist():
        d = b[k] - a[k]
        normal = 1j * d / abs(d)
        for t in (0.25, 0.5, 0.75):
            p = a[k] + t * d
            ws += [p, p + 1e-15 * normal]
            ws += [p + s * abs(d) * normal * f for s in (1, -1) for f in (0.999999, 1.0, 1.000001)]
        ws += [a[k] - 2.0 * d * f for f in (0.999999, 1.000001)]
    return [complex(w) for w in ws]


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_filtered_hazard_matches_every_segment_test(map_for, name):
    for level, shift in ((4, 0.0), (6, 2.0**-6 / 16)):
        m = map_for(name, level, shift)
        fired = 0
        for w in _near_rim_probes(m, level, 300):
            got = _winding(m, w)
            assert got == _winding_over_every_segment(m, w)
            fired += got[1]
        assert fired > 0


def test_rim_table_and_node_index_follow_the_map_values(map_for):
    m = map_for("offset_disc", 5)
    count_preimages(m, None, 0.1j)
    inverse_map(m, None, 0.1j)
    assert {"rim_table", "node_index"} <= set(vars(m))
    flipped = replace(m, values=np.conj(m.values))
    assert not {"rim_table", "node_index"} & set(vars(flipped))
    rng = np.random.default_rng(3)
    ws = 0.5 * np.sqrt(rng.uniform(0.0, 1.0, 40)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 40))
    for w in map(complex, ws):
        raw, hazard = _winding_over_every_segment(flipped, w)
        res = count_preimages(flipped, None, w)
        assert (res.raw, res.hazard, res.count) == (raw, hazard, -1)
        assert flipped.node_index.nearest(w) == np.argmin(np.abs(flipped.values - w))
    assert flipped.rim_table is not m.rim_table
    assert flipped.node_index is not m.node_index


@pytest.mark.parametrize("name", ("disc", "square", "ell"))
def test_node_index_outside_the_box_and_in_empty_buckets(map_for, name):
    m = map_for(name, 5)
    index = NodeIndex.build(m.grid, m.values)
    re, im = m.values.real, m.values.imag
    lo = complex(re.min(), im.min())
    hi = complex(re.max(), im.max())
    outside = [
        hi + 1e-12, lo - 1e-12j, hi + (0.3 + 0.3j), lo - 0.3, complex(hi.real + 1e6, 0.0),
        complex(0.0, lo.imag - 2.0), complex(lo.real - 1e-3, hi.imag + 1e-3), -1e300 + 1e300j,
    ]
    empty = np.flatnonzero(np.diff(index.starts) == 0)
    assert len(empty) > 0
    iy, ix = np.divmod(empty, index.nx)
    centers = index.re_lo + (ix + 0.5) * index.bx + 1j * (index.im_lo + (iy + 0.5) * index.by)
    for w in [*outside, *centers.tolist()]:
        assert index.nearest(complex(w)) == np.argmin(np.abs(m.values - w))
