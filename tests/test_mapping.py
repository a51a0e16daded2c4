"""Conjugate construction and map assembly."""

from __future__ import annotations

import math
import os
import warnings

import numpy as np
import pytest

from discmap import (
    OutsideGrid,
    ScalarField,
    assemble_map,
    boundary_data,
    build_grid,
    build_map,
    eval_derivative,
    eval_map,
    field_csv,
    harmonic_conjugate,
    load_domain,
    map_csv,
    solve_dirichlet,
)
from discmap import geometry
from discmap.cli import _write_tables
from discmap.dirichlet import DEFAULT_TOL

from conftest import DOMAIN_NAMES

DISC = {"type": "disc", "center": [0.0, 0.0], "radius": 1.0}
SQUARE = {
    "type": "polygon",
    "vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]],
}


def _zero_field(grid):
    return ScalarField(grid, np.zeros(grid.node_count))


def test_conjugate_of_constant_is_constant():
    g = build_grid(load_domain(SQUARE), 4)
    fld = ScalarField(g, np.full(g.node_count, 2.5))
    conj = harmonic_conjugate(g, fld)
    assert np.abs(conj.values - conj.values[0]).max() <= 1e-13
    assert conj.residual <= 1e-13


def test_conjugate_of_affine_field_exact():
    # the pair of a x + b y is a y - b x up to an additive constant; the
    # transport must get it exactly right at every node, rim included
    g = build_grid(load_domain(SQUARE), 4)
    pts = g.node_points()
    for a, b in ((1.0, 0.0), (0.0, 1.0), (0.7, -1.3)):
        fld = ScalarField(g, a * pts[:, 0] + b * pts[:, 1])
        conj = harmonic_conjugate(g, fld)
        expected = a * pts[:, 1] - b * pts[:, 0]
        delta = conj.values - expected
        assert np.abs(delta - delta.mean()).max() <= 1e-12


def test_conjugate_pairs_saddle_fields():
    # x^2 - y^2 and 2xy are conjugates; both are five-point harmonic, so
    # the cell-center transport is exact.  At a node surrounded by all
    # four cells the corner extrapolation errors cancel by symmetry; rim
    # nodes keep the one-cell Taylor remainder h^2/2 of the quadratic.
    g = build_grid(load_domain(SQUARE), 5)
    h = g.spacing
    pts = g.node_points()
    x, y = pts[:, 0], pts[:, 1]
    fld = ScalarField(g, x * x - y * y)
    conj = harmonic_conjugate(g, fld)
    delta = conj.values - 2.0 * x * y
    inner = g.interior
    delta -= delta[inner].mean()
    assert np.abs(delta[inner]).max() <= 1e-12
    assert np.abs(delta[~inner]).max() <= h * h


def test_conjugate_matches_analytic_log_branch():
    # real part of log(q - z) for a distant q: the imaginary part is the
    # unique conjugate up to a constant; discrete closure stays tiny
    g = build_grid(load_domain(SQUARE), 5)
    pts = g.node_points()
    z = pts[:, 0] + 1j * pts[:, 1]
    f = np.log((10.0 + 7.0j) - z)
    conj = harmonic_conjugate(g, ScalarField(g, f.real.copy()))
    delta = conj.values - f.imag
    delta -= delta.mean()
    assert np.abs(delta).max() <= 1e-6
    assert conj.residual <= 1e-9


def test_conjugate_closure_is_exact_for_solved_field():
    # plaquette closure around an interior node equals its five-point
    # defect, which the solver drives to the tolerance target
    g = build_grid(load_domain(DISC), 4)
    fld = solve_dirichlet(g, boundary_data(g))
    conj = harmonic_conjugate(g, fld)
    assert conj.residual <= 1e-6 * (1.0 + float(np.abs(fld.values).max()))


def test_assemble_identity_from_zero_fields():
    g = build_grid(load_domain(DISC), 4)
    m = assemble_map(g, _zero_field(g), _zero_field(g), DEFAULT_TOL)
    pts = g.node_points()
    z = pts[:, 0] + 1j * pts[:, 1]
    assert np.abs(m.values - z).max() == 0.0
    # interpolation reproduces the identity off nodes as well
    for p in ((0.11, 0.07), (-0.33, 0.21), (0.0, 0.0)):
        assert eval_map(m, p) == pytest.approx(complex(*p), abs=1e-15)


def test_map_fixes_origin(map_for):
    for name in ("disc", "square"):
        m = map_for(name, 4)
        assert eval_map(m, (0.0, 0.0)) == 0.0


def test_map_value_at_node_is_sample(map_for):
    m = map_for("disc", 4)
    pts = m.grid.node_points()
    for row in (0, 51, 200):
        got = eval_map(m, (pts[row, 0], pts[row, 1]))
        assert got == pytest.approx(m.values[row], abs=1e-14)


def test_eval_outside_raises(map_for):
    m = map_for("disc", 4)
    with pytest.raises(OutsideGrid):
        eval_map(m, (2.0, 2.0))
    with pytest.raises(OutsideGrid):
        eval_derivative(m, (2.0, 2.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e300, -1e300, 1.7e308])
def test_eval_non_finite_or_huge_point_raises_outside_grid(map_for, bad):
    # casting such a value to an integer warns, and math.floor raises
    # ValueError or OverflowError on it: neither may reach the caller
    m = map_for("disc", 4)
    points = [(bad, 0.1), (0.1, bad), np.array([bad, bad]), np.array([[0.0, 0.0], [bad, 0.1]])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in points:
            for fn in (eval_map, eval_derivative):
                with pytest.raises(OutsideGrid, match="outside the covered region"):
                    fn(m, p)
        assert m.grid.locate_point(bad, 0.0)[0] == -1
        assert m.grid.locate(np.array([[bad, 0.0], [0.0, bad]]))[0].tolist() == [-1, -1]


def test_eval_vectorized_matches_scalar(map_for):
    m = map_for("disc", 4)
    pts = np.array([[0.1, 0.2], [-0.3, 0.01], [0.25, -0.125]])
    vec = eval_map(m, pts)
    for k in range(len(pts)):
        assert vec[k] == eval_map(m, (pts[k, 0], pts[k, 1]))


def test_bilinear_continuity_across_cells(map_for):
    # along a shared edge the interpolant depends only on the two shared
    # nodes, so values agree when approached from either side
    m = map_for("disc", 4)
    h = m.grid.spacing
    for (x, y) in ((h, h / 3), (0.0, h / 2), (-h, -h / 4)):
        left = eval_map(m, (x - 1e-12, y))
        right = eval_map(m, (x + 1e-12, y))
        assert abs(left - right) <= 1e-9


def _bilinear_one_field(grid, values, points):
    """Interpolation as the evaluators did it before they shared one
    point location across fields: one ``locate`` per field."""
    rows, u, v = grid.locate(points)
    if (rows < 0).any():
        raise OutsideGrid("outside")
    c = grid.cell_corners[rows]
    return (
        (1.0 - u) * (1.0 - v) * values[c[:, 0]]
        + u * (1.0 - v) * values[c[:, 1]]
        + (1.0 - u) * v * values[c[:, 2]]
        + u * v * values[c[:, 3]]
    )


def _derivative_one_field(m, pts):
    g = _bilinear_one_field(m.grid, m.potential.values, pts)
    conj = _bilinear_one_field(m.grid, m.conjugate.values, pts)
    sx = _bilinear_one_field(m.grid, m.slope_x, pts)
    sy = _bilinear_one_field(m.grid, m.slope_y, pts)
    zc = pts[:, 0] + 1j * pts[:, 1]
    deriv = np.exp(g + 1j * conj) * (1.0 + zc * (sx - 1j * sy))
    rows, _, _ = m.grid.locate(pts)
    return deriv, m.one_sided[m.grid.cell_corners[rows]].any(axis=1)


@pytest.mark.parametrize("name", DOMAIN_NAMES)
@pytest.mark.parametrize("shift", ["zero", "sixteenth", "0.001"])
def test_evaluators_match_per_field_interpolation(map_for, name, shift):
    level = 5
    shift = {"zero": 0.0, "sixteenth": 2.0**-level / 16, "0.001": 0.001}[shift]
    m = map_for(name, level, shift)
    g = m.grid
    rng = np.random.default_rng(7)
    uv = rng.uniform(0.0, 1.0, (len(g.cells), 2))
    face = uv.copy()
    face[::2, 0] = 0.0  # west faces
    face[1::2, 1] = 0.0  # south faces
    pts = np.concatenate([(g.cells + uv) * g.spacing + shift, (g.cells + face) * g.spacing + shift])
    pts = np.concatenate([pts, g.node_points()])
    # a rim point that rounds outside every cell is left out; both raise there
    pts = pts[g.locate(pts)[0] >= 0]
    assert len(pts) > 2 * len(g.cells)
    want = _bilinear_one_field(g, m.values, pts)
    assert eval_map(m, pts).tobytes() == want.tobytes()
    deriv, flag = _derivative_one_field(m, pts)
    assert eval_derivative(m, pts).tobytes() == deriv.tobytes()
    got, got_flag = eval_derivative(m, pts, with_flag=True)
    assert got.tobytes() == deriv.tobytes()
    assert np.array_equal(got_flag, flag)
    for k in range(0, len(pts), 97):
        p = (pts[k, 0], pts[k, 1])
        assert eval_map(m, p) == complex(want[k])
        assert eval_derivative(m, p, with_flag=True) == (complex(deriv[k]), bool(flag[k]))
    with pytest.raises(OutsideGrid):
        eval_derivative(m, np.array([[0.0, 0.0], [5.0, 5.0]]))


def test_identity_recovery_inner_disc(map_for):
    m = map_for("disc", 5)
    pts = m.grid.node_points()
    z = pts[:, 0] + 1j * pts[:, 1]
    inner = np.abs(z) <= 0.5
    assert np.abs(m.values[inner] - z[inner]).max() <= 0.02


def test_mobius_oracle_at_half(map_for):
    # the disc at center 0.3 maps by z / (0.91 + 0.3 z); the node at 0.5
    # lands within the discretization error of the true value 0.4717
    m = map_for("offset_disc", 5)
    pts = m.grid.node_points()
    row = int(np.argmin((pts[:, 0] - 0.5) ** 2 + pts[:, 1] ** 2))
    z0 = complex(pts[row, 0], pts[row, 1])
    assert z0 == 0.5 + 0.0j
    exact = z0 / (0.91 + 0.3 * z0)
    assert exact.real == pytest.approx(0.4716981, abs=1e-6)
    assert abs(m.values[row] - exact) <= 0.03


def test_derivative_at_origin_positive_real(map_for):
    for name in ("disc", "offset_disc"):
        m = map_for(name, 5)
        d = eval_derivative(m, (0.0, 0.0))
        assert d.real > 0.0
        assert abs(d.imag) <= 0.01 * d.real


def test_derivative_flag_marks_one_sided_slopes(map_for):
    m = map_for("disc", 4)
    _, flag_center = eval_derivative(m, (0.0, 0.0), with_flag=True)
    assert not flag_center
    # a cell hugging the rim uses one-sided slopes at its outer corners
    pts = m.grid.node_points()
    rim_rows = np.where(~m.grid.interior)[0]
    target = pts[rim_rows[0]]
    probe = (target[0] * 0.97, target[1] * 0.97)
    _, flag_rim = eval_derivative(m, probe, with_flag=True)
    assert flag_rim


def test_derivative_approximates_identity(map_for):
    m = map_for("disc", 5)
    for p in ((0.2, 0.1), (-0.3, 0.3), (0.05, -0.4)):
        d = eval_derivative(m, p)
        assert abs(d - 1.0) <= 0.1


def test_boundary_factor_has_unit_modulus(map_for):
    # |H| = |z| exp(g) = 1 holds identically at rim nodes because the
    # data is exactly minus log |z|
    m = map_for("square", 4)
    rim = ~m.grid.interior
    assert np.abs(np.abs(m.values[rim]) - 1.0).max() <= 1e-12


def test_map_csv_round_trip(map_for):
    m = map_for("disc", 4)
    text = map_csv(m)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,g,gconj,reH,imH"
    assert len(lines) == m.grid.node_count + 1
    assert "np.float64" not in text
    x, y, g, gc, re, im = (float(t) for t in lines[5].split(","))
    pts = m.grid.node_points()
    assert (x, y) == (pts[4, 0], pts[4, 1])
    assert complex(re, im) == m.values[4]


def _field_csv_reference(fld):
    """The per-row writer ``field_csv`` replaced, kept as its reference."""
    pts = fld.grid.node_points()
    lines = ["x,y,value"]
    for (x, y), v in zip(pts, fld.values):
        lines.append(f"{float(x)!r},{float(y)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def _map_csv_reference(m):
    """The per-row writer ``map_csv`` replaced, kept as its reference."""
    pts = m.grid.node_points()
    lines = ["x,y,g,gconj,reH,imH"]
    g = m.potential.values
    conj = m.conjugate.values
    for i in range(m.grid.node_count):
        lines.append(
            f"{float(pts[i, 0])!r},{float(pts[i, 1])!r},"
            f"{float(g[i])!r},{float(conj[i])!r},"
            f"{float(m.values[i].real)!r},{float(m.values[i].imag)!r}"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", DOMAIN_NAMES)
@pytest.mark.parametrize("level", [4, 5, 6])
def test_node_tables_match_per_row_writers(
    map_for, monkeypatch, table_helpers, tmp_path, name, level
):
    # shifts: none, a dyadic one, and one whose coordinates are not
    # lattice-exact; a block of 7 rows puts block seams inside every table.
    # The one-pass writer of `discmap solve` must write the same bytes.
    # One CPU keeps it in this process, set per shift since undo() below
    # clears it; the next test splits the tables over CPUs
    for shift in (0.0, 2.0**-level / 16, 0.001):
        table_helpers.cpus(1)
        m = map_for(name, level, shift)
        field_ref, map_ref = _field_csv_reference(m.potential), _map_csv_reference(m)
        for block in (geometry._BLOCK, 7):
            monkeypatch.setattr(geometry, "_BLOCK", block)
            field_text, map_text = field_csv(m.potential), map_csv(m)
            assert field_text == field_ref
            assert map_text == map_ref
            assert _write_tables(m, str(tmp_path)) == ["field.csv", "map.csv"]
            assert (tmp_path / "field.csv").read_bytes() == field_ref.encode()
            assert (tmp_path / "map.csv").read_bytes() == map_ref.encode()
        monkeypatch.undo()
        field_rows = field_text.splitlines()[1:]
        map_rows = map_text.splitlines()[1:]
        assert len(field_rows) == len(map_rows) == m.grid.node_count
        for f_row, m_row in zip(field_rows, map_rows):
            assert ",".join(m_row.split(",")[:3]) == f_row


def test_node_tables_match_per_row_writers_in_parts(map_for, monkeypatch, table_helpers, tmp_path):
    # at 1, 2 and 3 CPUs the writer splits the node blocks into as many
    # ranges, at most one per block: this process formats the first and a
    # helper interpreter each other.  Blocks of 7 rows give every count;
    # at level 4 the default block holds the grid, so that is one range.
    # One domain: each helper takes about 11 ms to start
    level = 4
    for shift in (0.0, 2.0**-level / 16, 0.001):
        m = map_for("ell", level, shift)
        refs = [_field_csv_reference(m.potential).encode(), _map_csv_reference(m).encode()]
        for block in (geometry._BLOCK, 7):
            monkeypatch.setattr(geometry, "_BLOCK", block)
            blocks = -(-m.grid.node_count // block)
            for cpus in (1, 2, 3):
                table_helpers.cpus(cpus)
                started = len(table_helpers.procs)
                assert _write_tables(m, str(tmp_path)) == ["field.csv", "map.csv"]
                assert len(table_helpers.procs) - started == min(cpus, blocks) - 1
                assert sorted(os.listdir(tmp_path)) == ["field.csv", "map.csv"]
                assert [(tmp_path / n).read_bytes() for n in ("field.csv", "map.csv")] == refs
    assert all(proc.returncode == 0 for proc in table_helpers.procs)


def test_build_map_accepts_shift():
    # with a lattice shift the origin is no longer a node, so H(0) = 0
    # holds only to interpolation accuracy
    dom = load_domain(DISC)
    lam = 2.0**-4 / 8.0
    m = build_map(dom, 4, shift=lam)
    assert m.grid.shift == lam
    assert abs(eval_map(m, (0.0, 0.0))) <= 1e-5


def test_closure_residual_recorded(map_for):
    m = map_for("disc", 4)
    assert m.closure_residual >= 0.0
    g = np.abs(m.potential.values).max()
    assert m.closure_residual <= 1e-6 * (1.0 + g)


def _held_bytes(*objs) -> int:
    """Bytes of the ndarrays the objects hold as attributes, each buffer
    counted once, at its full size when an attribute is a view."""
    buffers = {}
    for obj in objs:
        for value in vars(obj).values():
            if isinstance(value, np.ndarray):
                base = value.base if isinstance(value.base, np.ndarray) else value
                buffers[id(base)] = base.nbytes
    return sum(buffers.values())


@pytest.mark.parametrize("name", DOMAIN_NAMES)
def test_built_map_holds_at_most_130_bytes_per_node(domains, name):
    # what the map cannot cheaply derive: the grid's tables, g, gconj and H
    m = build_map(domains[name], 6)
    held = _held_bytes(m, m.grid, m.potential, m.conjugate)
    assert held <= 130 * m.grid.node_count


def test_built_map_holds_no_derived_tables(domains):
    m = build_map(domains["ell"], 4)
    assert not {"rim_table", "node_index", "_slopes", "factor"} & set(vars(m))
    assert "cells" not in vars(m.grid)
    # factor is recomputed on each read, with the bits that made H = z * h
    pts = m.grid.node_points()
    z = pts[:, 0] + 1j * pts[:, 1]
    factor = m.factor
    assert np.array_equal(z * factor, m.values)
    assert "factor" not in vars(m)
    # the slopes are computed once, on first read
    slopes = m.slope_x, m.slope_y, m.one_sided
    assert "_slopes" in vars(m)
    assert all(a is b for a, b in zip(slopes, (m.slope_x, m.slope_y, m.one_sided)))
