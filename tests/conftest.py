"""Shared fixtures: the four reference domains and a build cache.

Maps are expensive enough at level 6 that tests share them through a
session-scoped cache keyed by (domain name, level, shift).
"""

from __future__ import annotations

import os
import sys

import pytest

from discmap import build_grid, build_map, cli, load_domain, normalize_origin, tablerows

DOMAIN_SPECS = {
    "disc": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
    "offset_disc": {"type": "disc", "center": [0.3, 0.0], "radius": 1.0},
    "square": {
        "type": "polygon",
        "vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]],
    },
    "ell": {
        "type": "polygon",
        "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]],
    },
}

DOMAIN_NAMES = tuple(DOMAIN_SPECS)

# two squares meeting only around the origin: at N=2..5 node (0, 0) is a
# corner of cells (-1, -1) and (0, 0) alone
PINCH = {
    "type": "polygon",
    "vertices": [
        [-0.6, -0.6], [0.02, -0.6], [0.02, -0.02], [0.6, -0.02],
        [0.6, 0.6], [-0.02, 0.6], [-0.02, 0.02], [-0.6, 0.02],
    ],
}


@pytest.fixture(scope="session")
def domains():
    return {
        name: normalize_origin(load_domain(spec))
        for name, spec in DOMAIN_SPECS.items()
    }


@pytest.fixture(scope="session")
def grid_for(domains):
    cache = {}

    def get(name, level, shift=0.0):
        key = (name, level, shift)
        if key not in cache:
            cache[key] = build_grid(domains[name], level, shift)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def map_for(domains):
    cache = {}

    def get(name, level, shift=0.0):
        key = (name, level, shift)
        if key not in cache:
            cache[key] = build_map(domains[name], level, shift=shift)
        return cache[key]

    return get


class TableHelpers:
    """Sets the CPU count that the table writer of ``discmap solve`` reads
    and records the helper interpreters it starts, in ``procs``."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.procs = []
        init = cli._TableHelper.__init__

        def record(helper, *args):
            init(helper, *args)
            self.procs.append(helper.proc)

        monkeypatch.setattr(cli._TableHelper, "__init__", record)

    def cpus(self, n):
        cpus = set(range(n))
        self.monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)

    def script(self, path):
        """Run ``path`` in place of the helper script."""
        self.monkeypatch.setattr(tablerows, "command", lambda widths, fds: [sys.executable, path])


@pytest.fixture
def table_helpers(monkeypatch):
    return TableHelpers(monkeypatch)
