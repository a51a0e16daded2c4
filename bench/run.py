"""discmap benchmark: closed-loop workloads over solve, verify, probing and
generated domains.

    python3 bench/run.py --workload solve_ref --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 1
    python3 bench/run.py --self-test

Run from a source checkout: discmap is imported from ./src next to this
directory, never from an installed copy.  One workload runs per process
(``all`` starts one child per workload).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` measures the same loop untraced and then
traced, and reports per-layer metrics plus the tracing overhead.  The last
stdout line is one JSON object {correct, attempted, failed, metrics}; the
line before it, ``record: {...}``, holds every metric (n/a ones as null),
sample counts, the generator parameters and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"  # per-run scratch: domain files, CLI output dirs
TRACES = BENCH / "_traces"  # span dumps of traced runs

WORKLOAD_NAMES = ("solve_ref", "verify_ladder", "probe_batch", "gen_poly")
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100  # p90 only with at least ten samples beyond it
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# discmap is single-threaded; a second BLAS thread only splits CG's vector
# ops, doubling CPU time for no wall-time gain and a wider spread
BLAS_THREADS = 1

# end-to-end metric -> unit; the gated subset is listed in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "fail_frac": "ratio",
    "peak_rss_mb": "MB",
    "rim_path_max": "1",
    "cr_constant": "1",
    "count_ok_frac": "ratio",
}
GATED = ("setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")


def environment():
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_op(wl, i, tracer=None):
    """One timed op and its checks; returns (latency, outcome)."""
    from workloads import Outcome

    t0 = perf_counter()
    try:
        if tracer is None:
            raw = wl.op(i)
        else:
            with tracer.op(i):
                raw = wl.op(i)
        elapsed = perf_counter() - t0
        return elapsed, wl.check(i, raw)
    except Exception as exc:  # any failure of an op counts against it
        elapsed = perf_counter() - t0
        return elapsed, Outcome(errors=[f"{type(exc).__name__}: {exc}"], probes=wl.probes_per_op)


def run_phase(wl, seconds, tracer=None):
    """Closed loop from op 0 for at least ``seconds``, ending on a whole
    input cycle; returns (per-op latencies, outcomes)."""
    lat, outcomes = [], []
    start = perf_counter()
    i = 0
    while i == 0 or i % wl.cycle or perf_counter() - start < seconds:
        elapsed, out = run_op(wl, i, tracer)
        lat.append(elapsed)
        outcomes.append(out)
        i += 1
    return lat, outcomes


def summarize(lat, outcomes, cycle):
    """End-to-end metrics of one untraced phase (None where n/a).

    op_p50_ms takes, for each position in the input cycle, the median
    latency of its ops and averages these over the cycle; with a one-op
    cycle it is the plain median.  A plain median over a cycle of unlike
    inputs (the four solve_ref domains) sits in the gap between two of
    them and jumps with noise.
    """
    ok = [t for t, o in zip(lat, outcomes) if o.ok]
    by_input = [
        [t for t, o in zip(lat[k::cycle], outcomes[k::cycle]) if o.ok] for k in range(cycle)
    ]
    medians = [statistics.median(ts) for ts in by_input if ts]
    probes = sum(o.probes for o in outcomes)
    cr = [o.cr_constant for o in outcomes if o.cr_constant is not None]
    return {
        "ops_per_s": len(ok) / sum(lat),
        "op_p50_ms": 1e3 * statistics.fmean(medians) if medians else None,
        "op_p90_ms": (
            1e3 * statistics.quantiles(ok, n=10)[8] if len(ok) >= P90_MIN_SAMPLES else None
        ),
        "fail_frac": (len(lat) - len(ok)) / len(lat),
        "rim_path_max": max(o.path_max for o in outcomes),
        "cr_constant": max(cr) if cr else None,
        "count_ok_frac": sum(o.probes_ok for o in outcomes) / probes if probes else None,
    }


def setup_probe(name, seed):
    """Seconds from starting a fresh interpreter on this workload until its
    setup is done and the first op could run."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed), "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(150.0, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe for {name} failed (exit {proc.returncode})")
    return elapsed


def run_workload(name, seed, seconds, trace, scale=None, setup_repeats=SETUP_REPEATS):
    """One workload in this process; returns (result line, record)."""
    from tracing import Tracer
    from workloads import WORKLOADS

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK, prefix=f"{name}-")
    try:
        wl = WORKLOADS[name](seed, workdir, scale)
        wl.setup()
        setup_runs = [] if trace else [setup_probe(name, seed) for _ in range(setup_repeats)]
        base = wl.prepare_checks()
        _, warm = run_op(wl, 0)  # lazy set-up; reference digest for the rerun
        lat, outcomes = run_phase(wl, seconds)
        errors = base.errors + [f"warm-up op: {e}" for e in warm.errors]
        if outcomes[0].digest != warm.digest:
            errors.append("repeated op 0 did not reproduce its outputs byte for byte")
        metrics = summarize(lat, outcomes, wl.cycle)
        metrics["rim_path_max"] = max(metrics["rim_path_max"], base.path_max)
        metrics["setup_s"] = statistics.median(setup_runs) if setup_runs else None
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "inputs": wl.params(),
            "ops": len(lat),
            "setup_samples": setup_runs,
            "end_to_end": {k: metrics[k] for k in END_TO_END},
            "units": END_TO_END,
            "wait_time": "n/a: single-threaded, no queues",
            "env": environment(),
        }
        attempted, failed = len(lat), sum(not o.ok for o in outcomes)
        if trace:
            from discmap import cli, dirichlet, geometry, mapping, verify

            tracer = Tracer()
            tracer.install(
                {"cli": cli, "dirichlet": dirichlet, "geometry": geometry, "mapping": mapping, "verify": verify}
            )
            try:
                t_lat, t_out = run_phase(wl, seconds, tracer)
            finally:
                tracer.uninstall()
            layer = tracer.layer_metrics(len(t_lat))
            bytes_op = [o.bytes_written for o in t_out]
            layer["cli.bytes_written"] = sum(bytes_op) / len(bytes_op)
            traced_rate = summarize(t_lat, t_out, wl.cycle)["ops_per_s"]
            layer["bench.untraced_ops_per_s"] = metrics["ops_per_s"]
            layer["bench.traced_ops_per_s"] = traced_rate
            untraced_rate = metrics["ops_per_s"] or math.inf  # 0 only when every op failed
            layer["bench.trace_overhead"] = 1.0 - traced_rate / untraced_rate
            TRACES.mkdir(exist_ok=True)
            tracer.dump(TRACES / f"{name}-seed{seed}.json")
            record["traced_ops"] = len(t_lat)
            record["per_layer"] = layer
            attempted += len(t_lat)
            failed += sum(not o.ok for o in t_out)
            outcomes = outcomes + t_out
        first_errors = [e for o in outcomes for e in o.errors][:5]
        record["errors"] = errors + first_errors
        result = {
            "correct": failed == 0 and not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": _result_metrics(record, trace),
        }
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _result_metrics(record, trace):
    from tracing import PER_LAYER

    if trace:
        return {k: {"value": record["per_layer"][k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    e2e = record["end_to_end"]
    return {k: {"value": e2e[k], "unit": END_TO_END[k]} for k in GATED}


def print_table(record):
    print(f"== {record['workload']}  seed={record['seed']}  ops={record['ops']}  "
          f"inputs={json.dumps(record['inputs'], sort_keys=True)[:160]}")
    for k, v in record["end_to_end"].items():
        shown = "n/a" if v is None else f"{v:.6g}"
        note = f"  ({len(record['setup_samples'])} set-ups)" if k == "setup_s" and v else ""
        note += f"  (n={record['ops']})" if k.startswith("op_p") and v else ""
        print(f"  {k:<28} {shown:>14} {END_TO_END[k]}{note}")
    if "per_layer" in record:
        from tracing import PER_LAYER

        print(f"  -- per layer (traced, n={record['traced_ops']}; wait time n/a)")
        for k, v in record["per_layer"].items():
            print(f"  {k:<28} {v:>14.6g} {PER_LAYER[k][0]}")
    for e in record["errors"]:
        print(f"  ERROR {e}")


def run_all(args):
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    records = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"== {name}: failed (exit {proc.returncode})")
            combined["correct"] = False
            continue
        print("\n".join(lines[:-2]))
        records.append(json.loads(lines[-2][len("record: "):]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print("record: " + json.dumps({"workloads": records}))
    print(json.dumps(combined))
    return 0 if len(records) == len(WORKLOAD_NAMES) else 1


def self_test():
    """Tiny sizes: every workload runs clean and prints every metric named
    in BENCHMARK.json with its unit; a perturbed map trips the rim check."""
    import dataclasses

    import numpy as np
    from discmap import build_map, load_domain
    from tracing import PER_LAYER
    from workloads import REFERENCE, Outcome, check_map

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            result, record = run_workload(name, 0, 0.0, trace, scale="tiny", setup_repeats=1)
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: {record['errors']}")
            for m in wanted[trace]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], float):
                    problems.append(f"{name} trace={trace}: metric {m['name']} missing: {got}")
    declared = {m["name"] for m in spec["per_layer"]}
    if declared != set(PER_LAYER):
        problems.append(f"per_layer differs from the tracer: {sorted(declared ^ set(PER_LAYER))}")
    m = build_map(load_domain(REFERENCE["disc"]), 4)
    clean, bent = Outcome(), Outcome()
    check_map(clean, m)
    rim = np.flatnonzero(~m.grid.interior)[0]
    values = m.values.copy()
    values[rim] *= 1.0 + 1e-9
    check_map(bent, dataclasses.replace(m, values=values))
    if clean.errors or not any("rim" in e for e in bent.errors):
        problems.append(f"rim check: clean {clean.errors}, perturbed {bent.errors}")
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "discmap" / "__init__.py").is_file():
        print(f"error: no discmap sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import discmap

    if Path(discmap.__file__).resolve().parent != SRC / "discmap":
        print(f"error: imported discmap from {discmap.__file__}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        from workloads import WORKLOADS

        WORK.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(dir=WORK, prefix="probe-")
        try:
            WORKLOADS[args.workload](args.seed, workdir).setup()
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_table(record)
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
