"""Command-line front end.

One binary with subcommands; every run reads a domain description from
JSON, builds the requested artifacts into the output directory, and
reports a one-line summary per artifact on stdout.  Outputs carry no
timestamps and derive any randomness from the seed flag, so a fixed
configuration produces byte-identical files.  Artifacts are written to a
temporary file first and renamed into place, never left half-written.
``solve`` streams its two node tables, split over the CPUs the process
may run on: it formats the first range of node blocks itself, and helper
interpreters that run ``tablerows.py`` without numpy format the others.
It renames the tables and summary.json into place together, only once
every range is complete.

Exit codes: 0 success; 2 input or configuration error; 3 numerical
failure (solver non-convergence, conjugate closure failure, branch
monodromy); 4 verification indeterminate (probe too close, coarse-grid
precondition, non-integer winding, stalled inversion).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from . import geometry, tablerows
from .barrier import boundary_probes, verify_barrier, weak_barrier
# field_csv and map_csv stay bound here though solve streams its tables:
# bench/tracing.py wraps both by name
from .dirichlet import FIELD_TABLE, dirichlet_energy, field_csv, punctured_disc_profile
from .errors import (
    ClosureFailure,
    DiscmapError,
    DomainParseError,
    DegenerateGeometry,
    EmptyGrid,
    EmptyInterior,
    IndeterminateWinding,
    MonodromyDetected,
    NewtonStalled,
    NoConvergence,
    OriginOnBoundary,
    OutsideGrid,
    ProbeTooClose,
    TooCoarse,
)
from .geometry import build_grid, load_domain_file, normalize_origin
from .mapping import MAP_TABLE, build_map, eval_derivative, map_csv, node_table_input, node_tables
from .render import render_grid_image
from .verify import boundary_modulus_report, verification_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_INDETERMINATE = 4

_INPUT_ERRORS = (
    DomainParseError,
    DegenerateGeometry,
    EmptyInterior,
    EmptyGrid,
    OriginOnBoundary,
    OSError,
    ValueError,
)
_NUMERICAL_ERRORS = (NoConvergence, ClosureFailure, MonodromyDetected, OutsideGrid)
_INDETERMINATE_ERRORS = (TooCoarse, IndeterminateWinding, NewtonStalled, ProbeTooClose)

_COPY_CHARS = 1 << 16  # characters of a helper's table appended at a time


@dataclass
class RunConfig:
    domain_path: str
    level: int = 6
    shift: Optional[float] = None
    tol: float = 1e-10
    radius: float = 0.7
    probes: int = 20
    seed: int = 0
    out_dir: str = "."

    def validate(self) -> None:
        if not 1 <= self.level <= 10:
            raise ValueError(f"level must be within [1, 10], got {self.level}")
        if not 0.0 < self.radius < 1.0:
            raise ValueError(f"radius must be in (0, 1), got {self.radius}")
        if self.probes < 1:
            raise ValueError(f"probe count must be at least 1, got {self.probes}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tol}")
        if self.shift is not None and not 0.0 <= self.shift < 2.0**-self.level:
            raise ValueError(
                f"grid shift must lie in [0, {2.0 ** -self.level!r}), "
                f"got {self.shift}"
            )


def _write_texts(paths: Sequence[str], chunks: Iterable[Sequence[str]]) -> None:
    """Stream text into several files at once: the i-th string of each item
    of ``chunks`` is appended to ``paths[i]``, and an item may end early.
    Each file goes to a temporary file beside it, and the temporary files
    are renamed into place only once all of them are complete, so a failure
    while writing changes none of the files and leaves no temporary file
    behind."""
    tmps = []
    try:
        with ExitStack() as stack:
            files = []
            for path in paths:
                directory = os.path.dirname(path) or "."
                os.makedirs(directory, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
                tmps.append(tmp)
                files.append(stack.enter_context(os.fdopen(fd, "w", encoding="utf-8")))
            for texts in chunks:
                for fh, text in zip(files, texts):
                    fh.write(text)
                # drop the block before the next is built: holding two at
                # once raised the peak RSS of an N=8 solve by about 30 MB
                texts = text = None
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _write_text(path: str, text: str) -> None:
    _write_texts([path], [[text]])


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_json(path: str, obj) -> None:
    _write_text(path, _json_text(obj))


def _load_normalized(cfg: RunConfig):
    domain = load_domain_file(cfg.domain_path)
    return normalize_origin(domain)


def _build(cfg: RunConfig):
    domain = _load_normalized(cfg)
    return build_map(domain, cfg.level, shift=cfg.shift or 0.0, tol=cfg.tol)


def _cmd_solve(cfg: RunConfig) -> List[str]:
    m = _build(cfg)
    mod = boundary_modulus_report(m)
    deriv0 = eval_derivative(m, (0.0, 0.0))
    summary = {
        "domain": m.domain.describe(),
        "N": m.grid.level,
        "lambda": m.grid.shift,
        "tol": cfg.tol,
        "cells": m.grid.cell_count,
        "nodes": m.grid.node_count,
        "solver_residual": m.potential.residual,
        "solver_iterations": m.potential.iterations,
        "closure_residual": m.closure_residual,
        "energy": dirichlet_energy(m.grid, m.potential),
        "boundary_modulus": {
            "max": mod.node_max,
            "mean": mod.node_mean,
            "path_max": mod.path_max,
            "path_mean": mod.path_mean,
        },
        "derivative_at_origin": [deriv0.real, deriv0.imag],
    }
    return _write_tables(m, cfg.out_dir, summary)


def _write_tables(m, out: str, summary: Optional[dict] = None) -> List[str]:
    """Write field.csv and map.csv in one pass over the node blocks, which
    formats each x, y and g once for both files, split over the CPUs this
    process may run on: the node blocks fall into one contiguous range per
    CPU, at most one per block.  This process formats the first range,
    after the headers; a ``_TableHelper`` formats each other range, and its
    rows are appended in order.  The tables appear together, with
    summary.json when ``summary`` is given, and only once every range is
    complete."""
    names = ["field.csv", "map.csv"]
    tables = (FIELD_TABLE, MAP_TABLE)
    lead = []
    if summary is not None:  # a third file, written whole in a first chunk
        names.append("summary.json")
        lead.append(("", "", _json_text(summary)))
    directory = out or "."
    os.makedirs(directory, exist_ok=True)
    blocks = -(-m.grid.node_count // geometry._BLOCK)
    parts = _table_parts(blocks)
    cuts = [blocks * i // parts for i in range(parts + 1)]
    widths = [k for _, k in tables]
    with ExitStack() as stack:
        helpers = [
            _TableHelper(stack, directory, widths, node_table_input(m, range(a, b)))
            for a, b in zip(cuts[1:], cuts[2:])
        ]
        first = islice(node_tables(m, *tables), 1 + cuts[1])
        rest = (texts for helper in helpers for texts in helper.chunks())
        _write_texts([os.path.join(out, name) for name in names], chain(lead, first, rest))
    return names


def _table_parts(blocks: int) -> int:
    """One part per CPU in this process's affinity mask, at most one per
    block; one part where no helper interpreter can be started."""
    if not (sys.executable and hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), blocks)


class _TableHelper:
    """A helper interpreter, ``python -I -S tablerows.py``, that formats one
    range of node blocks without importing numpy.  A thread streams it the
    range's raw input, and it writes its rows to anonymous temporary files
    beside the tables, so none is left behind whatever happens.  Closing
    ``stack`` kills the helper if it still runs, then reaps it."""

    def __init__(self, stack: ExitStack, directory: str, widths: List[int], data) -> None:
        self.files = [
            stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8", dir=directory))
            for _ in widths
        ]
        fds = [fh.fileno() for fh in self.files]
        self.error: Optional[BaseException] = None
        self.feeder = threading.Thread(target=self._feed, args=(data,), daemon=True)
        self.proc = subprocess.Popen(
            tablerows.command(widths, fds),
            stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            pass_fds=fds,
        )
        stack.callback(self._stop)
        self.feeder.start()

    def _feed(self, data) -> None:
        # one writev per block, so the thread waits for the GIL, which the
        # formatting in this process holds, once a block, not once an array
        try:
            with self.proc.stdin as pipe:
                for views in data:
                    while views:
                        done = os.writev(pipe.fileno(), views)
                        while views and done >= len(views[0]):
                            done -= len(views.pop(0))
                        if views:
                            views[0] = views[0][done:]
        except BaseException as exc:  # raised by chunks(), after the helper's status
            self.error = exc

    def chunks(self) -> Iterator[Tuple[str, ...]]:
        """Wait for the helper, then stream its tables as ``_write_texts``
        chunks; a helper that exits non-zero raises OSError with its status
        and stderr."""
        self.feeder.join()
        err = self.proc.stderr.read().decode(errors="replace").strip()
        status = self.proc.wait()
        if status != 0:
            raise OSError(f"node table helper exited with status {status}: {err}") from self.error
        if self.error is not None:
            raise self.error
        for fh in self.files:
            fh.seek(0)
        while True:
            texts = tuple(fh.read(_COPY_CHARS) for fh in self.files)
            if not any(texts):
                return
            yield texts

    def _stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        if self.feeder.ident is not None:
            self.feeder.join()
        self.proc.wait()
        self.proc.stderr.close()


def _cmd_verify(cfg: RunConfig) -> List[str]:
    m = _build(cfg)
    probes = [0j, 1.1 + 0j, -1.1 + 0j, 1.1j, -1.1j]
    report = verification_report(
        m,
        probes=probes,
        radius=cfg.radius,
        sweep_probes=cfg.probes,
        seed=cfg.seed,
    )
    _write_json(os.path.join(cfg.out_dir, "verify.json"), report.as_dict())
    return ["verify.json"]


def _cmd_barrier(cfg: RunConfig) -> List[str]:
    domain = _load_normalized(cfg)
    grid = build_grid(domain, cfg.level, cfg.shift or 0.0)
    pts = grid.node_points()
    span = float(
        max(pts[:, 0].max() - pts[:, 0].min(), pts[:, 1].max() - pts[:, 1].min())
    )
    reports = []
    for probe in boundary_probes(domain):
        bf = weak_barrier(grid, probe)
        rep = verify_barrier(grid, bf, sample_radius=0.5 * span)
        reports.append(rep.as_dict())
    _write_json(os.path.join(cfg.out_dir, "barrier.json"), {"probes": reports})
    return ["barrier.json"]


def _cmd_plot(cfg: RunConfig) -> List[str]:
    m = _build(cfg)
    _write_text(os.path.join(cfg.out_dir, "plot.svg"), render_grid_image(m))
    return ["plot.svg"]


def _cmd_counterexample(cfg: RunConfig) -> List[str]:
    profile = punctured_disc_profile(cfg.level, tol=cfg.tol)
    _write_json(os.path.join(cfg.out_dir, "counterexample.json"), profile.as_dict())
    return ["counterexample.json"]


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "barrier": _cmd_barrier,
    "plot": _cmd_plot,
    "counterexample": _cmd_counterexample,
}


def run(command: str, cfg: RunConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        cfg.validate()
        if command != "counterexample" and cfg.domain_path is None:
            raise ValueError("a domain file is required for this command")
        artifacts = _COMMANDS[command](cfg)
    except _INDETERMINATE_ERRORS as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DiscmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    for name in artifacts:
        print(os.path.join(cfg.out_dir, name))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discmap",
        description="Disc-mapping engine: solve, verify, barrier, plot, "
        "counterexample.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve the boundary problem and write field/map tables"),
        ("verify", "count preimages and write the verification report"),
        ("barrier", "build and check weak barriers at rim probes"),
        ("plot", "render the mapped grid as SVG"),
        ("counterexample", "reproduce the punctured-disc profile"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--domain",
            default=None,
            help="path to a JSON domain description"
            + (" (ignored)" if name == "counterexample" else ""),
        )
        p.add_argument("--level", type=int, default=RunConfig.level, help="refinement level N")
        p.add_argument(
            "--lambda",
            dest="shift",
            type=float,
            default=RunConfig.shift,
            help="grid shift in [0, 2^-N)",
        )
        p.add_argument("--tol", type=float, default=RunConfig.tol, help="solver tolerance")
        p.add_argument("--radius", type=float, default=RunConfig.radius, help="sweep radius")
        p.add_argument("--probes", type=int, default=RunConfig.probes, help="sweep probe count")
        p.add_argument("--seed", type=int, default=RunConfig.seed, help="sweep RNG seed")
        p.add_argument("--out", default=RunConfig.out_dir, help="output directory")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        domain_path=args.domain,
        level=args.level,
        shift=args.shift,
        tol=args.tol,
        radius=args.radius,
        probes=args.probes,
        seed=args.seed,
        out_dir=args.out,
    )
    return run(args.command, cfg)


if __name__ == "__main__":
    sys.exit(main())
