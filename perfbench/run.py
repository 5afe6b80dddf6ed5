"""The nilgo benchmark: one seeded workload per run, through ``nilgo.cli.main``.

    python3 perfbench/run.py --workload certify-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from a checkout: the library is imported from ``src/`` next to this
directory, never from an installed copy.  A run generates the workload's
documents from the seed, warms up, then repeats whole passes over the
workload's fixed batch of operations until ``--seconds`` would be
exceeded (at least one pass), checking every output.  ``--trace 0``
reports the end-to-end metrics and prints the median and tail latency and
the failure ratio beside them; ``--trace 1`` runs every operation of the
batch once untraced and once traced and reports the per-layer metrics and
the tracing overhead, failing any operation whose traced output differs
from its untraced output.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 3  # fresh processes timed per run; setup_s is their median
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("certify-sweep", "refute-exact", "geodesic-orbit")
E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """At most one BLAS thread per available CPU; must run before numpy loads."""
    n = cpu_count()
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, n))
        except ValueError:
            wanted = n
        os.environ[var] = str(max(1, min(wanted, n)))


def require_sources() -> None:
    if not (SRC / "nilgo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no nilgo sources under {SRC}")


def import_library() -> None:
    """Import nilgo from the checkout's ``src/``, never an installed copy."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import nilgo

    if Path(nilgo.__file__).resolve().parent != (SRC / "nilgo").resolve():
        raise SystemExit(f"perfbench: nilgo was imported from {nilgo.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": cpu_count(),
    }


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    rc: object  # exit code, or a description of how the call ended
    seconds: float
    out: str
    err: str


def run_cli(argv) -> Outcome:
    from nilgo import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejected the arguments
        rc = f"SystemExit({e.code})"
    except Exception:  # counted as a failed operation, with its traceback
        rc = "exception"
        err.write(traceback.format_exc())
    return Outcome(rc, time.perf_counter() - start, out.getvalue(), err.getvalue())


@dataclass
class Pass:
    schedule: list  # operation indices, in the order run
    outcomes: list
    wall_s: float
    failures: list = field(default_factory=list)  # (label, problem)


def run_pass(wl, schedule, tracer=None) -> Pass:
    outcomes = []
    start = time.perf_counter()
    for i in schedule:
        if tracer is not None:
            tracer.op = i
        outcomes.append(run_cli(wl.ops[i].argv))
    p = Pass(schedule, outcomes, time.perf_counter() - start)
    check_pass(wl, p)
    return p


def check_pass(wl, p: Pass) -> None:
    parsed = []
    for i, o in zip(p.schedule, p.outcomes):
        op = wl.ops[i]
        problems = op.problems(o.rc, o.out)
        if o.err.strip() and o.rc not in (0, 1):
            problems.append(o.err.strip().splitlines()[-1])
        if problems:
            p.failures.append((op.label, "; ".join(problems)))
        else:
            parsed.append((op, json.loads(o.out)))
    for check in wl.pass_checks:
        for problem in check(parsed):
            p.failures.append(("pass check", problem))


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, workdir: Path):
    """Everything before the first timed operation: imports, documents, warm-up."""
    import_library()
    import workloads

    wl = workloads.build(workload, seed, str(workdir))
    for argv in wl.warmup:
        run_cli(argv)
    return wl


@contextlib.contextmanager
def work_dir(tag: str):
    path = OUT_DIR / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure_setup(workload: str, seed: int, probes: int) -> list:
    """Seconds from starting a fresh process to its first timed operation."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--setup-probe"]
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter() - start
                proc.stdout.read()
                proc.wait(timeout=120)
            finally:
                if proc.poll() is None:
                    proc.kill()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"perfbench: setup probe exited {proc.returncode}")
        times.append(ready)
    return times


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least 10 operations beyond
    it, and that percentile; the maximum when there are 10 or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    notes: list
    failures: list


def end_to_end(wl, seconds: float, setup_times: list) -> Result:
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        p = run_pass(wl, wl.schedule)
        passes.append(p)
        if time.perf_counter() - start + p.wall_s > seconds:
            break
    latencies = [o.seconds for p in passes for o in p.outcomes]
    n = len(latencies)
    wall = sum(p.wall_s for p in passes)
    failures = [f for p in passes for f in p.failures]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": n / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        f"setup_s      median of {len(setup_times)} fresh processes: "
        + ", ".join(f"{t:.3f}" for t in setup_times),
        f"ops_per_s    {n} operations ({len(passes)} x {len(wl.schedule)}, {len(wl.ops)} distinct) in {wall:.3f} s",
        f"op_p50_s     {statistics.median(latencies):.6g} s, median of {n} latencies",
        f"op_tail_s    {tail_s:.6g} s, p{tail_pct:.1f} of {n} latencies ({min(10, n - 1)} beyond it)",
        f"fail_ratio   {len(failures) / n:.4g} ({len(failures)} of {n})",
        "peak_rss_mb  peak resident set of the workload process",
    ]
    return Result(metrics, n, len(failures), notes, failures)


def traced(wl, workload: str, seed: int) -> Result:
    from tracer import Tracer

    once = list(dict.fromkeys(wl.schedule))  # every operation once, in schedule order
    base = run_pass(wl, once)
    tracer = Tracer()
    with tracer.installed():
        trace = run_pass(wl, once, tracer)
    failures = list(base.failures) + list(trace.failures)
    for i, a, b in zip(once, base.outcomes, trace.outcomes):
        if (a.rc, a.out) != (b.rc, b.out):
            failures.append((wl.ops[i].label, "traced output differs from the untraced output"))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = trace.wall_s - base.wall_s
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    tracer.dump(str(path), [op.label for op in wl.ops])
    notes = [
        f"traced pass {trace.wall_s:.3f} s, untraced pass {base.wall_s:.3f} s, "
        f"overhead {metrics['trace.overhead_s']:.3f} s over {len(wl.ops)} operations",
        f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}",
    ]
    return Result(metrics, 2 * len(wl.ops), len(failures), notes, failures)


def run_workload(args) -> dict:
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, SETUP_PROBES)
    with work_dir(args.workload) as wd:
        wl = setup(args.workload, args.seed, wd)
        env = environment()
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
              + " ".join(f"{k}={v}" for k, v in env.items()))
        result = traced(wl, args.workload, args.seed) if args.trace else end_to_end(wl, args.seconds, setup_times)
    if args.trace:
        from tracer import layer_metric_units

        units = layer_metric_units()
    else:
        units = E2E_UNITS
    for label, problem in result.failures:
        print(f"FAIL {label}: {problem}")
    for note in result.notes:
        print(f"  {note}")
    for name, value in result.metrics.items():
        print(f"  {name:<48} {value:.6g} {units[name]}")
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result.metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process; one table and one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: {workload} exited {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
        row = {name: m["value"] for name, m in res["metrics"].items()}
        # the latency figures are printed beside the metrics, not part of the result
        row.update((k, float(v)) for k, v in re.findall(r"^\s+(op_p50_s|op_tail_s)\s+(\S+) s,", proc.stdout, re.M))
        row["fail_ratio"] = res["failed"] / res["attempted"]
        rows.append((workload, row))
    if not args.trace:
        columns = ["setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "fail_ratio"]
        print(f"{'workload':<16}" + "".join(f"{c:>13}" for c in columns))
        for workload, row in rows:
            print(f"{workload:<16}" + "".join(f"{row[c]:>13.5g}" for c in columns))
    return combined


def self_test() -> int:
    """Each workload's operation kinds once: the gate passes them, fails a
    deliberately wrong expectation, and every metric in BENCHMARK.json is
    emitted with tracing off and on."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    problems = []
    for workload in WORKLOAD_NAMES:
        with work_dir(f"selftest-{workload}") as wd:
            wl = setup(workload, 0, wd)
            kinds = {}
            for op in wl.ops:
                kinds.setdefault(op.kind, op)
            wl.ops = list(kinds.values())
            wl.schedule = list(range(len(wl.ops)))
            runs = {0: end_to_end(wl, 0.0, measure_setup(workload, 0, 1)), 1: traced(wl, workload, 0)}
            for trace, res in runs.items():
                problems += [f"{workload} trace={trace}: {label}: {p}" for label, p in res.failures]
                missing = want[trace] - set(res.metrics)
                if missing:
                    problems.append(f"{workload} trace={trace}: metrics not emitted: {sorted(missing)}")
            wrong = replace(wl.ops[0], rc=2)
            caught = run_pass(replace(wl, ops=[wrong], pass_checks=[]), [0]).failures
            if len(caught) != 1:
                problems.append(f"{workload}: a wrong expected exit code gave {len(caught)} failures, not 1")
        print(f"self-test {workload}: {len(wl.ops)} operation kinds: {', '.join(kinds)}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check the harness itself")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    limit_blas_threads()
    require_sources()
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        with work_dir(f"probe-{args.workload}") as wd:
            setup(args.workload, args.seed, wd)
            print("ready", flush=True)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
