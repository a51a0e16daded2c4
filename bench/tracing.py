"""Span tracing of discmap from outside the package.

A ``Tracer`` replaces public functions where each consumer module has
bound them (``discmap.verify.build_map``, ``discmap.mapping.solve_dirichlet``,
``discmap.dirichlet.cg`` ...) with wrappers that record one span per
call: name, start, end, parent span and op id.  Spans stay in memory and
are summarised (inclusive time, calls, self time per layer) or written
out when the run ends.  Outside an op the wrappers call straight through,
so the benchmark's own output checks never show up as program time.

The program is single-threaded and has no queues, so spans carry no wait
time.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name): one row per binding a consumer holds
SPANS = (
    ("geometry", "load_domain", "geometry.load_domain"),
    ("geometry", "normalize_origin", "geometry.normalize_origin"),
    ("cli", "load_domain_file", "geometry.load_domain_file"),
    ("cli", "normalize_origin", "geometry.normalize_origin"),
    ("mapping", "build_grid", "geometry.build_grid"),
    ("verify", "boundary_edges", "geometry.boundary_edges"),
    ("mapping", "boundary_data", "dirichlet.boundary_data"),
    ("mapping", "solve_dirichlet", "dirichlet.solve"),
    ("dirichlet", "cg", "dirichlet.cg"),
    ("cli", "field_csv", "dirichlet.field_csv"),
    ("cli", "dirichlet_energy", "dirichlet.energy"),
    ("mapping", "build_map", "mapping.build_map"),
    ("cli", "build_map", "mapping.build_map"),
    ("verify", "build_map", "mapping.build_map"),
    ("mapping", "harmonic_conjugate", "mapping.conjugate"),
    ("mapping", "assemble_map", "mapping.assemble"),
    ("cli", "map_csv", "mapping.map_csv"),
    ("mapping", "eval_map", "mapping.eval"),
    ("verify", "eval_map", "mapping.eval"),
    ("cli", "eval_derivative", "mapping.eval_derivative"),
    ("verify", "eval_derivative", "mapping.eval_derivative"),
    ("verify", "count_preimages", "verify.count"),
    ("verify", "boundary_modulus_report", "verify.modulus_report"),
    ("cli", "boundary_modulus_report", "verify.modulus_report"),
    ("verify", "conformality_residual", "verify.conformality"),
    ("verify", "inverse_map", "verify.inverse"),
    ("verify", "bijectivity_sweep", "verify.sweep"),
    ("cli", "verification_report", "verify.report"),
    ("cli", "main", "cli.command"),
)

LAYERS = ("geometry", "dirichlet", "mapping", "verify", "cli", "bench")

# reported as <span>.s (inclusive seconds per op) and, where listed, <span>.calls
TIMED = (
    "geometry.load_domain",
    "geometry.build_grid",
    "geometry.boundary_edges",
    "dirichlet.boundary_data",
    "dirichlet.solve",
    "dirichlet.cg",
    "dirichlet.field_csv",
    "mapping.build_map",
    "mapping.conjugate",
    "mapping.assemble",
    "mapping.map_csv",
    "mapping.eval",
    "verify.count",
    "verify.modulus_report",
    "verify.conformality",
    "verify.report",
    "verify.inverse",
    "cli.command",
)
CALLED = (
    "geometry.build_grid",
    "geometry.boundary_edges",
    "dirichlet.solve",
    "mapping.build_map",
    "mapping.eval",
    "verify.count",
    "verify.modulus_report",
    "verify.inverse",
)

# per-layer metric name -> (unit, better); the traced run reports all of them
PER_LAYER = {
    **{f"{n}.s": ("s/op", "lower") for n in TIMED},
    **{f"{n}.calls": ("calls/op", "lower") for n in CALLED},
    **{f"{layer}.self.s": ("s/op", "lower") for layer in LAYERS},
    "geometry.nodes": ("nodes/op", "lower"),
    "dirichlet.cg_iters": ("iters/op", "lower"),
    "dirichlet.residual_ratio": ("ratio", "lower"),
    "mapping.closure_ratio": ("ratio", "lower"),
    "verify.ladder_attempts": ("attempts/op", "lower"),
    "verify.ladder_rebuilds": ("builds/op", "lower"),
    "verify.ladder_fired": ("probes/op", "lower"),
    "verify.hazard_final": ("probes/op", "lower"),
    "verify.ladder_cleared_frac": ("ratio", "higher"),
    "cli.bytes_written": ("bytes/op", "lower"),
    "bench.untraced_ops_per_s": ("1/s", "higher"),
    "bench.traced_ops_per_s": ("1/s", "higher"),
    "bench.trace_overhead": ("ratio", "lower"),
}


def _after_grid(tracer, args, kwargs, grid):
    tracer.counts["geometry.nodes"] += grid.node_count


def _after_solve(tracer, args, kwargs, fld):
    # the program's own target: tol * (range of the prescribed data + 1)
    tol = args[2] if len(args) > 2 else kwargs["tol"]
    fixed = fld.values[fld.constrained]
    target = tol * (float(fixed.max() - fixed.min()) + 1.0)
    tracer.worst("dirichlet.residual_ratio", fld.residual / target)


def _after_conjugate(tracer, args, kwargs, fld):
    pot = args[1]
    bound = 1e-6 * (1.0 + float(np.abs(pot.values).max()))
    tracer.worst("mapping.closure_ratio", fld.residual / bound)


def _after_count(tracer, args, kwargs, res):
    c = tracer.counts
    c["verify.ladder_attempts"] += res.attempts
    c["verify.hazard_final"] += res.hazard
    if res.attempts:
        c["verify.ladder_fired"] += 1
        c["verify.ladder_cleared"] += not res.hazard


def _after_rebuild(tracer, args, kwargs, m):
    tracer.counts["verify.ladder_rebuilds"] += 1


AFTER = {
    ("mapping", "build_grid"): _after_grid,
    ("mapping", "solve_dirichlet"): _after_solve,
    ("mapping", "harmonic_conjugate"): _after_conjugate,
    ("verify", "count_preimages"): _after_count,
    ("verify", "build_map"): _after_rebuild,
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []
        self._op = None
        self._restore = []

    def worst(self, name, value):
        self.maxima[name] = max(self.maxima[name], value)

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """Root span of one op; wrappers record only inside it."""
        self._op = op_id
        idx = self._open("bench.op")
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    def _replace(self, module, attr, fn):
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def _wrap(self, module, attr, name, after):
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        self._replace(module, attr, traced)

    def install(self, modules):
        """Wrap every binding in SPANS; ``modules`` maps short names to the
        imported discmap modules."""
        cg = modules["dirichlet"].cg

        @functools.wraps(cg)
        def counting_cg(*args, callback=None, **kwargs):
            def step(xk):
                self.counts["dirichlet.cg_iters"] += 1
                if callback is not None:
                    callback(xk)

            return cg(*args, callback=step, **kwargs)

        self._replace(modules["dirichlet"], "cg", counting_cg)
        for mod, attr, name in SPANS:
            self._wrap(modules[mod], attr, name, AFTER.get((mod, attr)))

    def uninstall(self):
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    def layer_metrics(self, ops):
        """Per-op inclusive times and calls, self time per layer, counts."""
        incl = defaultdict(float)
        calls = defaultdict(int)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            incl[name] += end - start
            calls[name] += 1
            if parent >= 0:
                covered[parent] += end - start
        self_time = defaultdict(float)
        for (name, start, end, _, _), cov in zip(self.spans, covered):
            self_time[name.split(".")[0]] += end - start - cov
        per = max(ops, 1)
        out = {f"{n}.s": incl[n] / per for n in TIMED}
        out.update({f"{n}.calls": calls[n] / per for n in CALLED})
        out.update({f"{layer}.self.s": self_time[layer] / per for layer in LAYERS})
        for key in (
            "geometry.nodes",
            "dirichlet.cg_iters",
            "verify.ladder_attempts",
            "verify.ladder_rebuilds",
            "verify.ladder_fired",
            "verify.hazard_final",
        ):
            out[key] = self.counts[key] / per
        for key in ("dirichlet.residual_ratio", "mapping.closure_ratio"):
            out[key] = self.maxima[key]
        fired = self.counts["verify.ladder_fired"]
        # base is the probes the ladder fired on; 0 when it never fired
        out["verify.ladder_cleared_frac"] = (
            self.counts["verify.ladder_cleared"] / fired if fired else 0.0
        )
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                fh,
            )
