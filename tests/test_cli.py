"""Command-line interface: artifacts, determinism, exit codes."""

from __future__ import annotations

import json
import os
import signal
import tracemalloc

import numpy as np
import pytest

from discmap import cli, dirichlet, geometry, mapping
from discmap.cli import _write_tables, main

DISC = '{"type": "disc", "center": [0.0, 0.0], "radius": 1.0}'
SQUARE = (
    '{"type": "polygon", "vertices":'
    " [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}"
)
ELL = '{"type": "polygon", "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]}'


@pytest.fixture
def disc_file(tmp_path):
    p = tmp_path / "disc.json"
    p.write_text(DISC)
    return str(p)


@pytest.fixture
def square_file(tmp_path):
    p = tmp_path / "square.json"
    p.write_text(SQUARE)
    return str(p)


def _run(*argv):
    return main(list(argv))


def test_solve_writes_three_artifacts(disc_file, tmp_path):
    out = str(tmp_path / "out")
    assert _run("solve", "--domain", disc_file, "--level", "3", "--out", out) == 0
    assert sorted(os.listdir(out)) == ["field.csv", "map.csv", "summary.json"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["N"] == 3
    assert summary["boundary_modulus"]["max"] <= 0.1
    assert summary["cells"] > 0
    assert summary["domain"]["type"] == "disc"


def test_solve_rerun_byte_identical(disc_file, tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for out in (a, b):
        assert _run("solve", "--domain", disc_file, "--level", "3", "--out", out) == 0
    for name in ("field.csv", "map.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


class Abort(BaseException):
    """Stands for KeyboardInterrupt or SystemExit, which no handler catches."""


def _assert_reaped(procs):
    for proc in procs:
        assert proc.returncode is not None
        with pytest.raises(ChildProcessError):
            os.waitpid(proc.pid, os.WNOHANG)


def _fail_after_first_block(monkeypatch, exc):
    node_tables = mapping._node_tables

    def fail_after_first_block(*args):
        chunks = node_tables(*args)
        yield next(chunks)  # the header lines
        yield next(chunks)
        raise exc("table writer failed")

    monkeypatch.setattr(geometry, "_BLOCK", 7)
    monkeypatch.setattr(mapping, "_node_tables", fail_after_first_block)


def test_failed_table_write_keeps_older_tables(disc_file, tmp_path, monkeypatch, table_helpers):
    _check_failed_table_write(disc_file, tmp_path, monkeypatch, table_helpers, RuntimeError)


def test_interrupted_table_write_keeps_older_tables(
    disc_file, tmp_path, monkeypatch, table_helpers
):
    _check_failed_table_write(disc_file, tmp_path, monkeypatch, table_helpers, Abort)


def _check_failed_table_write(disc_file, tmp_path, monkeypatch, table_helpers, exc):
    out = tmp_path / "out"
    assert _run("solve", "--domain", disc_file, "--level", "3", "--out", str(out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    # three parts: this process fails inside the first, two helpers format the rest
    table_helpers.cpus(3)
    _fail_after_first_block(monkeypatch, exc)
    with pytest.raises(exc, match="table writer failed"):
        _run("solve", "--domain", disc_file, "--level", "4", "--out", str(out))
    # same names, so no temporary or helper file is left; same bytes in each file
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert len(table_helpers.procs) == 2
    _assert_reaped(table_helpers.procs)


@pytest.mark.parametrize("exc", [RuntimeError, Abort])
def test_failed_table_write_kills_running_helpers(
    disc_file, tmp_path, monkeypatch, table_helpers, exc
):
    out = tmp_path / "out"
    assert _run("solve", "--domain", disc_file, "--level", "3", "--out", str(out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    hang = tmp_path / "hang.py"
    hang.write_text("import time\ntime.sleep(60)\n")
    table_helpers.script(hang)
    table_helpers.cpus(3)
    _fail_after_first_block(monkeypatch, exc)
    with pytest.raises(exc, match="table writer failed"):
        _run("solve", "--domain", disc_file, "--level", "4", "--out", str(out))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [proc.returncode for proc in table_helpers.procs] == [-signal.SIGKILL] * 2
    _assert_reaped(table_helpers.procs)


def test_failed_table_helper_keeps_older_tables(
    disc_file, tmp_path, monkeypatch, table_helpers, capsys
):
    out = tmp_path / "out"
    assert _run("solve", "--domain", disc_file, "--level", "3", "--out", str(out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    broken = tmp_path / "broken.py"
    broken.write_text("import sys\nsys.stderr.write('helper broke\\n')\nsys.exit(3)\n")
    table_helpers.script(broken)
    table_helpers.cpus(2)
    monkeypatch.setattr(geometry, "_BLOCK", 7)
    capsys.readouterr()
    # an OSError, so solve exits as on any failed write
    assert _run("solve", "--domain", disc_file, "--level", "4", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "exited with status 3" in err and "helper broke" in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert len(table_helpers.procs) == 1
    _assert_reaped(table_helpers.procs)


def test_failed_summary_write_keeps_older_artifacts(disc_file, tmp_path, monkeypatch):
    # summary.json is renamed into place with the tables, so a failure
    # while it is written leaves no newer table beside the older summary
    out = tmp_path / "out"
    assert _run("solve", "--domain", disc_file, "--level", "3", "--out", str(out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def fail(*args, **kwargs):
        raise OSError("summary write failed")

    monkeypatch.setattr(cli.json, "dumps", fail)
    assert _run("solve", "--domain", disc_file, "--level", "4", "--out", str(out)) == 2
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_table_writer_holds_one_block_at_a_time(map_for, tmp_path, monkeypatch):
    m = map_for("ell", 7)
    monkeypatch.setattr(geometry, "_BLOCK", 1024)
    tracemalloc.start()
    try:
        _write_tables(m, str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (tmp_path / "map.csv").stat().st_size / 2


def test_solve_builds_no_probe_tables(disc_file, tmp_path, monkeypatch):
    # solve counts no preimages and inverts nothing, so it builds neither
    # the rim table nor the nearest-node index
    built = []

    def build_and_keep(*args, **kwargs):
        built.append(mapping.build_map(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_map", build_and_keep)
    assert _run("solve", "--domain", disc_file, "--level", "4", "--out", str(tmp_path / "out")) == 0
    assert len(built) == 1
    assert not {"rim_table", "node_index"} & set(vars(built[0]))


def test_verify_writes_report(square_file, tmp_path):
    out = str(tmp_path / "v")
    code = _run(
        "verify",
        "--domain",
        square_file,
        "--level",
        "4",
        "--probes",
        "6",
        "--seed",
        "0",
        "--out",
        out,
    )
    assert code == 0
    rep = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert rep["sweep"]["ok_fraction"] == 1.0
    assert rep["boundary_modulus"]["max"] <= 0.1
    counts = {tuple(p["w"]): p.get("count") for p in rep["probes"]}
    assert counts[(0.0, 0.0)] == 1
    assert counts[(1.1, 0.0)] == 0
    for p in rep["probes"]:
        assert isinstance(p["attempts"], int)
        assert isinstance(p["hazard"], bool)
        assert p["shifted"] == (p["attempts"] > 0)


@pytest.mark.parametrize("extra", [(), ("--level", "4", "--radius", "0.9")])
def test_verify_inverts_its_witnesses_on_the_coarse_ell(tmp_path, extra):
    # damped Newton stalled on a witness of each run and exited 4: at
    # w = 0.7 on level 3 (residual 6.9e-6), and at w = 0.9 on level 4
    ell = tmp_path / "ell.json"
    ell.write_text(ELL)
    out = tmp_path / "v"
    assert _run("verify", "--domain", str(ell), "--level", "3", *extra, "--out", str(out)) == 0
    assert json.loads((out / "verify.json").read_text())["sweep"]["K"] == 20


def test_verify_rerun_byte_identical(square_file, tmp_path):
    outs = []
    for k, seed in enumerate(("0", "0")):
        out = tmp_path / f"s{k}"
        _run(
            "verify",
            "--domain",
            square_file,
            "--level",
            "3",
            "--probes",
            "4",
            "--seed",
            seed,
            "--out",
            str(out),
        )
        outs.append((out / "verify.json").read_bytes())
    assert outs[0] == outs[1]


def test_barrier_report(square_file, tmp_path):
    out = str(tmp_path / "b")
    assert _run("barrier", "--domain", square_file, "--level", "4", "--out", out) == 0
    rep = json.loads((tmp_path / "b" / "barrier.json").read_text())
    assert len(rep["probes"]) == 8
    for probe in rep["probes"]:
        assert probe["checks"] == {
            "subharmonic": True,
            "negative": True,
            "limit_zero": True,
        }
        assert probe["boundary_limits_certified"] is False


def test_plot_svg(disc_file, tmp_path):
    out = str(tmp_path / "p")
    assert _run("plot", "--domain", disc_file, "--level", "3", "--out", out) == 0
    svg = (tmp_path / "p" / "plot.svg").read_text()
    assert svg.startswith("<svg")
    assert "<polyline" in svg


def test_counterexample_profile(tmp_path):
    out = str(tmp_path / "c")
    assert _run("counterexample", "--level", "4", "--out", out) == 0
    rep = json.loads((tmp_path / "c" / "counterexample.json").read_text())
    assert rep["level"] == 4
    assert rep["rim_value"] == 1.0
    assert rep["pinned_value"] == 0.0
    assert abs(rep["value_at_half"] - rep["predicted_at_half"]) <= 0.15
    radii = [row["radius"] for row in rep["axis"]]
    assert radii == sorted(radii)


def test_exit_two_on_config_guards(disc_file, tmp_path):
    out = str(tmp_path / "x")
    assert _run("solve", "--domain", disc_file, "--level", "0", "--out", out) == 2
    assert _run("solve", "--domain", disc_file, "--level", "11", "--out", out) == 2
    assert _run("verify", "--domain", disc_file, "--radius", "1.5", "--out", out) == 2
    assert _run("verify", "--domain", disc_file, "--probes", "0", "--out", out) == 2
    assert _run("solve", "--domain", disc_file, "--tol", "0", "--out", out) == 2
    assert _run("solve", "--domain", disc_file, "--tol", "nan", "--out", out) == 2
    assert _run("solve", "--domain", disc_file, "--tol", "inf", "--out", out) == 2
    assert not os.path.exists(out)


def test_exit_two_on_bad_input(tmp_path, capsys):
    out = str(tmp_path / "x")
    missing = str(tmp_path / "nope.json")
    assert _run("solve", "--domain", missing, "--out", out) == 2
    assert capsys.readouterr().err.startswith("input error: [Errno 2] No such file")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run("solve", "--domain", str(bad), "--out", out) == 2
    assert capsys.readouterr().err.startswith("input error: not valid JSON: ")
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"type": "sphere"}')
    assert _run("solve", "--domain", str(unknown), "--out", out) == 2
    assert capsys.readouterr().err == "input error: unknown domain type: 'sphere'\n"
    assert _run("solve", "--out", out) == 2  # --domain required
    assert capsys.readouterr().err == "input error: a domain file is required for this command\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "text, message",
    [
        # an integer too large for a float is not a finite coordinate
        ('{"type": "disc", "center": [1%s, 0], "radius": 1}' % ("0" * 400),
         "disc center must be finite"),
        ("[" * 100_000, "not valid JSON: maximum recursion depth exceeded"),
        # JSON booleans are not numbers, though Python counts bool as int
        ('{"type": "disc", "center": [true, false], "radius": true}',
         "disc center coordinates must be numbers"),
        ('{"type": "disc", "center": [0, 0], "radius": true}',
         "disc needs a numeric 'radius'"),
        ('{"type": "polygon", "vertices": [[0, 0], [1, 0], [false, 1]]}',
         "vertex coordinates must be numbers"),
    ],
    ids=["huge-integer", "deep-nesting", "boolean-center", "boolean-radius", "boolean-vertex"],
)
def test_exit_two_on_malformed_domain_values(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = str(tmp_path / "x")
    assert _run("solve", "--domain", str(bad), "--level", "3", "--out", out) == 2
    assert capsys.readouterr().err.startswith(f"input error: {message}")
    assert not os.path.exists(out)


def test_exit_three_when_solver_result_fails_gate(disc_file, tmp_path, monkeypatch):
    # cg reports success with a wrong solution; the residual gate catches it
    monkeypatch.setattr(dirichlet, "cg", lambda a, b, **kwargs: (np.zeros_like(b), 0))
    out = str(tmp_path / "x")
    assert _run("solve", "--domain", disc_file, "--level", "4", "--out", out) == 3
    assert not os.path.exists(out)


def test_summary_records_solver_iterations(disc_file, tmp_path):
    out = tmp_path / "iters"
    assert _run("solve", "--domain", disc_file, "--level", "6", "--out", str(out)) == 0
    iterations = json.loads((out / "summary.json").read_text())["solver_iterations"]
    assert isinstance(iterations, int) and 1 <= iterations <= 20


def test_exit_two_when_grid_empty(tmp_path):
    tiny = tmp_path / "tiny.json"
    tiny.write_text('{"type": "disc", "center": [0, 0], "radius": 0.01}')
    assert _run("solve", "--domain", str(tiny), "--level", "2", "--out", str(tmp_path / "x")) == 2


def test_no_temp_files_left(disc_file, tmp_path):
    out = tmp_path / "clean"
    assert _run("solve", "--domain", disc_file, "--level", "3", "--out", str(out)) == 0
    leftovers = [p for p in out.iterdir() if p.suffix == ".tmp"]
    assert not leftovers


def test_json_keys_sorted(disc_file, tmp_path):
    out = str(tmp_path / "sorted")
    _run("solve", "--domain", disc_file, "--level", "3", "--out", out)
    text = (tmp_path / "sorted" / "summary.json").read_text()
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_lambda_flag_threads_through(disc_file, tmp_path):
    out = str(tmp_path / "lam")
    lam = 2.0**-3 / 4.0
    assert (
        _run(
            "solve",
            "--domain",
            disc_file,
            "--level",
            "3",
            "--lambda",
            repr(lam),
            "--out",
            out,
        )
        == 0
    )
    summary = json.loads((tmp_path / "lam" / "summary.json").read_text())
    assert summary["lambda"] == lam
    bad = _run(
        "solve", "--domain", disc_file, "--level", "3", "--lambda", "0.2", "--out", out
    )
    assert bad == 2  # 0.2 >= 2^-3
