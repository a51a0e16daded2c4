"""The four benchmark workloads, their seeded inputs and output checks.

Each workload is a closed loop: one caller issues one op at a time.  A
workload object has ``setup()`` (everything before the first op can run;
timed as setup_s), ``prepare_checks()`` (reference data the checks need,
not timed), ``op(i)`` (the timed call into discmap) and ``check(i, raw)``
(verifies the op's outputs and returns an ``Outcome``).  Inputs are a pure
function of (seed, op index), so two runs with one seed do identical work;
``cycle`` is the number of ops after which the input mix repeats, and a
run always stops on a cycle boundary so every run sees the same mix.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from discmap import cli
from discmap import geometry as G
from discmap import mapping as M
from discmap import verify as V

TOL = 1e-10
RIM_TOL = 1e-12  # |H| = 1 at rim nodes, to rounding
NEWTON_TOL = 1e-6  # inverse_map's own acceptance target

# the reference domains of tests/conftest.py
REFERENCE = {
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

# the fixed probes `discmap verify` counts before its sweep, and their counts
VERIFY_PROBES = ((0.0, 1), (1.1, 0), (-1.1, 0), (1.1j, 0), (-1.1j, 0))


@dataclass
class Outcome:
    """What the checks found for one op."""

    errors: list = field(default_factory=list)
    probes: int = 0  # probes counted
    probes_ok: int = 0  # probes counted as expected
    path_max: float = 0.0  # worst rim-path ||H| - 1|
    cr_constant: Optional[float] = None
    bytes_written: int = 0
    digest: str = ""

    @property
    def ok(self):
        return not self.errors


def _rng(seed, stream, index=None):
    key = [seed, stream] if index is None else [seed, stream, index]
    return np.random.default_rng(key)


def star_polygons(seed, count, vmin=96, vmax=384, terms=4, amp=(0.05, 0.2)):
    """Smooth counterclockwise star polygons r(t) = 1 + sum a_j cos(m_j t + p_j).

    Vertex counts and total amplitudes are stratified over their ranges
    and shuffled, so every seed does the same amount of work; the seed
    draws the order, the modes (2..8), the split of the amplitude and the
    phases.  r stays within [1 - amp[1], 1 + amp[1]], so the polygon is
    simple.
    """
    rng = _rng(seed, 1)
    sizes = rng.permutation(np.linspace(vmin, vmax, count).round().astype(int))
    amps = rng.permutation(np.linspace(amp[0], amp[1], count))
    specs = []
    for n, total in zip(sizes, amps):
        modes = rng.choice(np.arange(2, 9), size=terms, replace=False)
        weights = rng.dirichlet(np.ones(terms))
        phases = rng.uniform(0.0, 2.0 * math.pi, terms)
        t = np.arange(n) * (2.0 * math.pi / n)
        r = 1.0 + (total * weights[:, None] * np.cos(np.outer(modes, t) + phases[:, None])).sum(0)
        verts = np.column_stack([r * np.cos(t), r * np.sin(t)])
        specs.append({"type": "polygon", "vertices": verts.tolist()})
    params = {
        "count": count,
        "vertices": [vmin, vmax],
        "terms": terms,
        "modes": [2, 8],
        "amplitude": list(amp),
    }
    return specs, params


def probe_point(seed, index, radius):
    """Uniform probe in |w| <= radius, a pure function of (seed, index)."""
    u, a = _rng(seed, 2, index).uniform(0.0, 1.0, 2)
    return radius * math.sqrt(u) * complex(math.cos(2.0 * math.pi * a), math.sin(2.0 * math.pi * a))


def sweep_seed(seed, index):
    return int(_rng(seed, 3, index).integers(0, 2**31))


def mean_value_residual(values, rows, nb):
    """Max-norm defect of value = mean of the four neighbours (W, E, S, N)."""
    avg = 0.25 * (values[nb[:, 0]] + values[nb[:, 1]] + values[nb[:, 2]] + values[nb[:, 3]])
    return float(np.max(np.abs(values[rows] - avg)))


def check_field(out, g, interior, nb, closure):
    """Solver residual, recomputed, and the closure gate, on node values g."""
    rim = g[~interior]
    target = TOL * (float(rim.max() - rim.min()) + 1.0)
    res = mean_value_residual(g, np.flatnonzero(interior), nb)
    if not res <= target:
        out.errors.append(f"solver residual {res:.3e} > {target:.3e}")
    bound = 1e-6 * (1.0 + float(np.abs(g).max()))
    if not closure <= bound:
        out.errors.append(f"closure residual {closure:.3e} > {bound:.3e}")


def check_rim(out, dev):
    """``dev`` is the worst ||H| - 1| over the rim nodes."""
    if not dev <= RIM_TOL:
        out.errors.append(f"rim |H| deviates from 1 by {dev:.3e}")


def rim_deviation(values):
    return float(np.max(np.abs(np.abs(values) - 1.0)))


def check_map(out, m):
    """All map-level checks on an in-process ConformalMap."""
    grid = m.grid
    interior = grid.interior
    check_field(out, m.potential.values, interior, grid.neighbors[interior], m.closure_residual)
    check_rim(out, rim_deviation(m.values[~interior]))
    out.path_max = max(out.path_max, V.boundary_modulus_report(m).path_max)


def _expect_count(out, res, expected):
    out.probes += 1
    if res.count == expected:
        out.probes_ok += 1
    else:
        out.errors.append(f"w={res.w}: count {res.count}, expected {expected}")


class Workload:
    name = ""
    cycle = 1
    probes_per_op = 0

    def __init__(self, seed, workdir, scale=None):
        self.seed = seed
        self.workdir = workdir
        self.level = self.levels[scale or "full"]

    def setup(self):
        pass

    def prepare_checks(self):
        """Checks made once per run; returns an Outcome."""
        return Outcome()

    def params(self):
        return {"level": self.level}


class CliWorkload(Workload):
    """Ops are in-process calls of ``discmap.cli.main`` writing into a fresh
    output directory inside the checkout, removed after the op is checked.
    A fresh directory never renames over an existing artifact, which on
    ext4 forces a flush and would time the disk, not discmap."""

    def setup(self):
        self.domain_files = {}
        for name in self.domains:
            path = os.path.join(self.workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(REFERENCE[name], fh)
            self.domain_files[name] = path

    def op(self, i):
        out = tempfile.mkdtemp(dir=self.workdir, prefix="op")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(self.argv(i, out))
        return rc, out, sink.getvalue()

    def check(self, i, raw):
        rc, out_dir, log = raw
        out = Outcome()
        try:
            if rc != 0:
                out.errors.append(f"exit code {rc}: {log.strip()[-300:]}")
                return out
            names = sorted(os.listdir(out_dir))
            if names != sorted(self.artifacts):
                out.errors.append(f"artifacts {names}, expected {sorted(self.artifacts)}")
                return out
            blobs = {}
            for name in names:
                with open(os.path.join(out_dir, name), "rb") as fh:
                    blobs[name] = fh.read()
            out.bytes_written = sum(len(b) for b in blobs.values())
            out.digest = hashlib.sha256(b"".join(blobs[n] for n in names)).hexdigest()
            self.check_artifacts(i, blobs, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            out.errors.append(f"artifacts do not parse: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return out


class SolveRef(CliWorkload):
    """`discmap solve` at N=8 cycling over the four reference domains; the
    seed only rotates where the cycle starts, since the domains are fixed."""

    name = "solve_ref"
    domains = ("disc", "offset_disc", "square", "ell")
    cycle = len(domains)
    artifacts = ("field.csv", "map.csv", "summary.json")
    levels = {"full": 8, "tiny": 5}

    def domain_of(self, i):
        return self.domains[(self.seed + i) % len(self.domains)]

    def argv(self, i, out):
        return [
            "solve",
            "--domain", self.domain_files[self.domain_of(i)],
            "--level", str(self.level),
            "--tol", repr(TOL),
            "--out", out,
        ]

    def prepare_checks(self):
        # node order and neighbour structure the artifacts are checked against
        self.refs = {}
        for name in self.domains:
            grid = G.build_grid(G.normalize_origin(G.load_domain(REFERENCE[name])), self.level)
            self.refs[name] = (grid.node_points(), grid.interior, grid.neighbors[grid.interior])
        return Outcome()

    def check_artifacts(self, i, blobs, out):
        points, interior, nb = self.refs[self.domain_of(i)]
        field_tab = np.loadtxt(io.BytesIO(blobs["field.csv"]), delimiter=",", skiprows=1)
        map_tab = np.loadtxt(io.BytesIO(blobs["map.csv"]), delimiter=",", skiprows=1)
        summary = json.loads(blobs["summary.json"])
        if field_tab.shape != (len(points), 3) or map_tab.shape != (len(points), 6):
            out.errors.append(f"tables {field_tab.shape}/{map_tab.shape} for {len(points)} nodes")
            return
        if not (np.array_equal(field_tab[:, :2], points) and np.array_equal(map_tab[:, :2], points)):
            out.errors.append("node coordinates differ from the grid")
        g = field_tab[:, 2]
        if not np.array_equal(map_tab[:, 2], g):
            out.errors.append("map.csv g differs from field.csv")
        check_field(out, g, interior, nb, summary["closure_residual"])
        rim = ~interior
        check_rim(out, rim_deviation(map_tab[rim, 4] + 1j * map_tab[rim, 5]))
        out.path_max = float(summary["boundary_modulus"]["path_max"])


class VerifyLadder(CliWorkload):
    """`discmap verify` on the ell at N=7: 5 fixed probes plus a K=20 sweep
    whose --seed is drawn from the benchmark seed and the op index."""

    name = "verify_ladder"
    domains = ("ell",)
    artifacts = ("verify.json",)
    sweep = 20
    probes_per_op = len(VERIFY_PROBES) + sweep
    levels = {"full": 7, "tiny": 6}

    def argv(self, i, out):
        return [
            "verify",
            "--domain", self.domain_files["ell"],
            "--level", str(self.level),
            "--tol", repr(TOL),
            "--probes", str(self.sweep),
            "--seed", str(sweep_seed(self.seed, i)),
            "--out", out,
        ]

    def params(self):
        return {"level": self.level, "sweep_probes": self.sweep, "radius": 0.7}

    def check_artifacts(self, i, blobs, out):
        report = json.loads(blobs["verify.json"])
        probes = report["probes"]
        out.probes = self.probes_per_op
        for entry, (w, expected) in zip(probes, VERIFY_PROBES):
            if entry.get("count") == expected and entry["w"] == [w.real, w.imag]:
                out.probes_ok += 1
            else:
                out.errors.append(f"probe {w}: {entry}, expected count {expected}")
        if len(probes) != len(VERIFY_PROBES):
            out.errors.append(f"{len(probes)} probe entries, expected {len(VERIFY_PROBES)}")
        sweep = report["sweep"]
        good = round(sweep["ok_fraction"] * sweep["K"])
        out.probes_ok += good
        if sweep["K"] != self.sweep or good != self.sweep or sweep["failures"]:
            out.errors.append(f"sweep: {sweep}")
        check_rim(out, float(report["boundary_modulus"]["max"]))
        out.path_max = float(report["boundary_modulus"]["path_max"])
        out.cr_constant = float(report["cr_constant"])


class ProbeBatch(Workload):
    """Seeded probes |w| <= 0.7 against disc, offset_disc and square maps
    built in setup; an op counts preimages, inverts by Newton and
    re-checks the witness."""

    name = "probe_batch"
    domains = ("disc", "offset_disc", "square")
    cycle = len(domains)
    probes_per_op = 1
    radius = 0.7
    levels = {"full": 8, "tiny": 6}

    def setup(self):
        self.maps = [
            M.build_map(G.normalize_origin(G.load_domain(REFERENCE[n])), self.level, tol=TOL)
            for n in self.domains
        ]
        self.caches = [{} for _ in self.maps]  # one rebuild cache per map

    def prepare_checks(self):
        out = Outcome()
        for m in self.maps:
            check_map(out, m)
        return out

    def params(self):
        return {"level": self.level, "radius": self.radius, "domains": list(self.domains)}

    def op(self, i):
        k = i % len(self.maps)
        m = self.maps[k]
        w = probe_point(self.seed, i, self.radius)
        res = V.count_preimages(m, None, w, cache=self.caches[k])
        z = V.inverse_map(m, None, w)
        return res, z, abs(M.eval_map(m, z) - w)

    def check(self, i, raw):
        res, z, resid = raw
        out = Outcome()
        _expect_count(out, res, 1)
        if not resid <= NEWTON_TOL:
            out.errors.append(f"witness |H(z) - w| = {resid:.3e}")
        out.digest = repr((res.count, res.raw, res.attempts, z))
        return out


class GenPoly(Workload):
    """Generated star polygons: load, normalize, build at N=6, count w=0."""

    name = "gen_poly"
    pool = 32
    cycle = pool
    probes_per_op = 1
    levels = {"full": 6, "tiny": 4}

    def setup(self):
        self.specs, self.gen_params = star_polygons(self.seed, self.pool)

    def params(self):
        return {"level": self.level, "polygons": self.gen_params}

    def op(self, i):
        domain = G.normalize_origin(G.load_domain(self.specs[i % self.pool]))
        m = M.build_map(domain, self.level, tol=TOL)
        return m, V.count_preimages(m, None, 0j)

    def check(self, i, raw):
        m, res = raw
        out = Outcome()
        check_map(out, m)
        _expect_count(out, res, 1)
        h = hashlib.sha256(m.values.tobytes())
        h.update(repr((res.count, res.raw)).encode())
        out.digest = h.hexdigest()
        return out


WORKLOADS = {w.name: w for w in (SolveRef, VerifyLadder, ProbeBatch, GenPoly)}
