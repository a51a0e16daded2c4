"""Command-line front end.

One binary with subcommands; every run reads a domain description from
JSON, builds the requested artifacts into the output directory, and
reports a one-line summary per artifact on stdout.  Outputs carry no
timestamps and derive any randomness from the seed flag, so a fixed
configuration produces byte-identical files.  Artifacts are written to a
temporary file first and renamed into place, never left half-written.

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
import sys
import tempfile
from dataclasses import dataclass
from typing import List, Optional

from .barrier import boundary_probes, verify_barrier, weak_barrier
from .dirichlet import dirichlet_energy, field_csv, punctured_disc_profile
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
from .mapping import build_map, eval_derivative, map_csv
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
        if self.tol <= 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tol}")
        if self.shift is not None and not 0.0 <= self.shift < 2.0**-self.level:
            raise ValueError(
                f"grid shift must lie in [0, {2.0 ** -self.level!r}), "
                f"got {self.shift}"
            )


def _write_text(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


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
    out = cfg.out_dir
    _write_text(os.path.join(out, "field.csv"), field_csv(m.potential))
    _write_text(os.path.join(out, "map.csv"), map_csv(m))
    _write_json(os.path.join(out, "summary.json"), summary)
    return ["field.csv", "map.csv", "summary.json"]


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
        p.add_argument("--level", type=int, default=6, help="refinement level N")
        p.add_argument(
            "--lambda",
            dest="shift",
            type=float,
            default=None,
            help="grid shift in [0, 2^-N)",
        )
        p.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")
        p.add_argument("--radius", type=float, default=0.7, help="sweep radius")
        p.add_argument("--probes", type=int, default=20, help="sweep probe count")
        p.add_argument("--seed", type=int, default=0, help="sweep RNG seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command != "counterexample" and args.domain is None:
        print("input error: --domain is required", file=sys.stderr)
        return EXIT_INPUT
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
