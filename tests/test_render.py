"""SVG rendering of the mapped grid."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from discmap import build_grid, load_domain, render_grid_image

from conftest import DOMAIN_NAMES, PINCH


def _emitted_points(svg: str):
    pts = []
    for line in svg.splitlines():
        line = line.strip()
        if line.startswith("<polyline"):
            coords = line.split('points="')[1].split('"')[0].split()
            pts.extend(complex(*map(float, c.split(","))) for c in coords)
    return pts


def test_svg_structure(map_for):
    svg = render_grid_image(map_for("disc", 4))
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert 'viewBox="-1.05 -1.05 2.1 2.1"' in svg
    assert '<circle cx="0" cy="0" r="1"' in svg
    assert svg.count("<polyline") > 20
    assert "fill=" not in svg.replace('fill="none"', "")  # stroke only
    assert "np.float64" not in svg


def test_svg_deterministic(map_for):
    m = map_for("disc", 4)
    assert render_grid_image(m) == render_grid_image(m)


def test_svg_points_are_exact_node_samples(map_for):
    m = map_for("square", 4)
    reprs = {
        f"{float(v.real)!r},{float(v.imag)!r}" for v in m.values
    }
    svg = render_grid_image(m)
    for line in svg.splitlines():
        line = line.strip()
        if line.startswith("<polyline"):
            for c in line.split('points="')[1].split('"')[0].split():
                assert c in reprs


def test_svg_points_inside_unit_circle_margin(map_for):
    m = map_for("disc", 4)
    herr = float(np.abs(np.abs(m.values) - 1.0).max())
    pts = _emitted_points(render_grid_image(m))
    assert pts
    assert max(abs(p) for p in pts) <= 1.0 + herr + 1e-12


def test_svg_covers_every_node(map_for):
    # each grid node lies on at least one grid line, so every node's
    # image appears among the polyline points
    m = map_for("disc", 3)
    emitted = set(_emitted_points(render_grid_image(m)))
    for v in m.values:
        assert complex(float(v.real), float(v.imag)) in emitted


def test_svg_style_overrides(map_for):
    svg = render_grid_image(map_for("disc", 3), stroke="#ff0000", stroke_width=0.01)
    assert 'stroke="#ff0000"' in svg
    assert 'stroke-width="0.01"' in svg


def test_grid_is_the_maps_own(map_for):
    # a second positional argument can be neither a grid nor a stroke
    with pytest.raises(TypeError):
        render_grid_image(map_for("disc", 5), map_for("disc", 4).grid)


def _runs_reference(grid, axis):
    """The node-by-node run walk ``render`` replaced, kept as its reference."""
    arm = 1 if axis == 0 else 3
    next_row = grid.neighbors[:, arm]
    valid = next_row >= 0
    has_in = np.zeros(grid.node_count, dtype=bool)
    has_in[next_row[valid]] = True
    runs = []
    for start in np.where(valid & ~has_in)[0]:
        chain = [start]
        while next_row[chain[-1]] >= 0:
            chain.append(next_row[chain[-1]])
        runs.append(chain)
    return runs


def _svg_reference(m):
    """The per-point renderer ``render_grid_image`` replaced, with its
    default styling, kept as its reference."""
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="-1.05 -1.05 2.1 2.1" width="640" height="640">\n',
        '<g transform="matrix(1 0 0 -1 0 0)" fill="none">\n',
        '<circle cx="0" cy="0" r="1" stroke="#808080" stroke-width="0.006"/>\n',
    ]
    vals = m.values
    for axis in (0, 1):
        for run in _runs_reference(m.grid, axis):
            if len(run) < 2:
                continue
            pts = " ".join(f"{float(vals[i].real)!r},{float(vals[i].imag)!r}" for i in run)
            parts.append(f'<polyline points="{pts}" stroke="#2060c0" stroke-width="0.006"/>\n')
    parts.append("</g>\n</svg>\n")
    return "".join(parts)


@pytest.mark.parametrize("name", DOMAIN_NAMES)
@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_svg_matches_per_point_renderer(map_for, name, level):
    m = map_for(name, level)
    assert render_grid_image(m) == _svg_reference(m)


@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize("sixteenths", [0, 1])
def test_svg_matches_per_point_renderer_at_a_pinch(level, sixteenths):
    # the origin is a rim node of the pinch, so no map can be built there;
    # the renderer reads only the grid and the node values
    g = build_grid(load_domain(PINCH), level, sixteenths * 2.0**-level / 16)
    pts = g.node_points()
    z = pts[:, 0] + 1j * pts[:, 1]
    m = SimpleNamespace(grid=g, values=z * np.exp(1j * z) / 1.7)
    svg = render_grid_image(m)
    assert svg == _svg_reference(m)
    assert svg.count("<polyline") > 4
