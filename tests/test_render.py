"""SVG rendering of the mapped grid."""

from __future__ import annotations

import numpy as np
import pytest

from discmap import render_grid_image


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
