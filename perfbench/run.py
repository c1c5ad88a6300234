"""Benchmark of the cvgeo package: one workload, one seed, one run.

    python3 perfbench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` a fixed, seeded set of inputs runs as a closed loop,
repeated in cycles for `--seconds`, and the end-to-end metrics are
reported.  With `--trace 1` a fixed, seeded set of operations runs twice
untraced and twice traced (spans around the public
functions of every module), and the per-layer metrics are reported.  Every
operation is checked against the package's own gates; failing inputs are
listed on `fail:` lines.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = ROOT / "tests"  # the ensemble takes its horizon rule from tests/battery.py
OUT = Path(__file__).resolve().parent / "out"

# Numeric libraries in this process and every child run on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPS = 11
# One set-up sample per this many seconds of the timed loop, taken between
# cycles, plus one before and one after it.
SETUP_EVERY_S = 1.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
IMPORT_PROBE = "import cvgeo.cli, sys; sys.stdout.write(cvgeo.cli.__file__)"
TIMED_IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import cvgeo.cli, sys; "
                      "t1 = time.perf_counter(); sys.stdout.write(repr(t1 - t0) + ' ' + cvgeo.cli.__file__)")

# (name, unit, better); every workload reports all of them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _python_child(code: str, workloads) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.child_env(),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"child import failed: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def _check_origin(path: str) -> None:
    if not Path(path.split()[-1]).resolve().is_relative_to(SRC):
        raise BenchError(f"cvgeo imported from {path!r}, not from {SRC}")


def measure_setup(workloads) -> float:
    """Wall time of one fresh interpreter importing cvgeo.cli."""
    t0 = time.perf_counter()
    out = _python_child(IMPORT_PROBE, workloads)
    elapsed = time.perf_counter() - t0
    _check_origin(out)
    return elapsed


def measure_import_ms(workloads) -> float:
    """Median in-child time of `import cvgeo.cli`, interpreter start excluded."""
    times = []
    for _ in range(SETUP_REPS):
        out = _python_child(TIMED_IMPORT_PROBE, workloads)
        _check_origin(out)
        times.append(float(out.split()[0]) * 1e3)
    return statistics.median(times)


def tail(latencies):
    """(value, percentile): the highest of TAIL_PERCENTILES with at least ten
    samples beyond it, by nearest rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            return ordered[math.ceil(n * pct / 100.0) - 1], pct
    raise BenchError(f"{n} samples leave no percentile with ten beyond it")


def environment() -> str:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ",".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"env: python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} {threads}")


def run_op(run, inp):
    """(OpResult or None, failure reasons) for one operation."""
    try:
        res = run(inp)
    except Exception as exc:  # a failing operation is counted, not fatal
        return None, [f"{type(exc).__name__}: {exc}"]
    return res, res.failures


def cycle_order(n: int, seed: int):
    """Endless cycle indices: 0..n-1 in order, then a new seeded permutation
    per pass, so that a slow spell of the machine does not fall on the same
    inputs in every pass."""
    rng = random.Random(seed)
    order = list(range(n))
    while True:
        yield from order
        rng.shuffle(order)


def timed_run(wl, seed: int, seconds: float, workloads) -> dict:
    """Time a fixed, seeded set of inputs, repeated in cycles for `seconds`.

    `attempted` and `failed` count the set's distinct inputs, so that they
    depend on the seed alone and not on how many repetitions fit in the
    time.  An input fails if any of its repetitions misses a gate; one that
    passes on one repetition and fails on another is listed as unstable.
    The latency of an input is its fastest repetition.
    """
    cycles = list(itertools.islice(wl.cycles(seed), wl.set_cycles))
    for cycle in cycles[:wl.warmup_cycles]:
        for inp in cycle:
            run_op(wl.run, inp)

    # set-up is sampled between cycles all through the timed loop, so that
    # its median spans the run rather than one moment of it
    setup_times = [measure_setup(workloads)]
    latencies, outcomes, unstable, malformed = {}, {}, set(), {}
    start = last_probe = time.perf_counter()
    for n, ci in enumerate(cycle_order(len(cycles), seed), 1):
        for k, inp in enumerate(cycles[ci]):
            t0 = time.perf_counter()
            res, failures = run_op(wl.run, inp)
            latencies.setdefault((ci, k), []).append(time.perf_counter() - t0)
            first = outcomes.setdefault((ci, k), failures)
            if bool(first) != bool(failures):
                unstable.add((ci, k))
            if res is not None and res.malformed:
                malformed[ci, k] = f"{inp.describe()} :: {'; '.join(res.malformed)}"
        now = time.perf_counter()
        if now - last_probe >= SETUP_EVERY_S:
            setup_times.append(measure_setup(workloads))
            last_probe = time.perf_counter()
        if n >= len(cycles) and now - start >= seconds:
            break
    setup_times.append(measure_setup(workloads))

    for (ci, k), failures in outcomes.items():
        if (ci, k) in unstable:
            print(f"unstable: {cycles[ci][k].describe()} :: passes on some repetitions, fails on others")
        elif failures:
            print(f"fail: {cycles[ci][k].describe()} :: {'; '.join(failures)}")
    for line in malformed.values():
        print(f"malformed: {line}")

    who = resource.RUSAGE_CHILDREN if wl.name == "trace_cli" else resource.RUSAGE_SELF
    per_input = [min(times) for times in latencies.values()]
    ops = sum(len(times) for times in latencies.values())
    tail_s, tail_pct = tail(per_input)
    print(f"{len(per_input)} inputs, {ops} operations, {len(setup_times)} set-up samples; "
          f"latency_tail_ms is p{tail_pct:g} of the {len(per_input)} inputs' fastest repetitions")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops / sum(sum(times) for times in latencies.values()),
        "latency_p50_ms": statistics.median(per_input) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return {
        "correct": not malformed,
        "attempted": len(outcomes),
        "failed": sum(1 for key, failures in outcomes.items() if failures or key in unstable),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in END_TO_END},
    }


def _untraced_pass(wl, ops) -> float:
    t0 = time.perf_counter()
    for inp in ops:
        run_op(wl.run_traced, inp)
    return time.perf_counter() - t0


def _traced_pass(wl, ops, tracer_mod):
    """One traced pass: (tracer, per-op failures, counts, op-result sums, self-check problems, wall s)."""
    tracer = tracer_mod.Tracer()
    failing, totals, problems, done = [], Counter(), [], []
    op_span = tracer.span("bench.op", wl.run_traced)
    with tracer.installed():
        t0 = time.perf_counter()
        for i, inp in enumerate(ops, 1):
            tracer.op = i
            tracer.counts.clear()
            res, failures = run_op(op_span, inp)
            if failures:
                failing.append(f"{inp.describe()} :: {'; '.join(failures)}")
            if res is not None:
                problems += [f"op {i}: {p}" for p in tracer_mod.op_invariants(tracer.counts, res)]
                problems += [f"op {i} malformed: {p}" for p in res.malformed]
                done.append(res)
            totals.update(tracer.counts)
        wall_s = time.perf_counter() - t0
    sums = {
        "momentum_drift_max": max((r.momentum_drift for r in done if r.momentum_drift is not None), default=0.0),
        "rows_out": sum(r.rows_out for r in done),
        "stdout_bytes": sum(r.stdout_bytes for r in done),
        "fail_ratio": len(failing) / len(ops),
    }
    return tracer, failing, totals, sums, problems, wall_s


def traced_run(wl, seed: int, workloads, tracer_mod) -> dict:
    cycles = wl.cycles(seed)
    ops = [inp for _ in range(wl.traced_cycles) for inp in next(cycles)]
    run_op(wl.run_traced, ops[0])  # warm-up
    untraced_s = min(_untraced_pass(wl, ops) for _ in range(2))
    passes = [_traced_pass(wl, ops, tracer_mod) for _ in range(2)]
    # overhead: the faster of two traced passes minus the faster of two untraced
    overhead_s = min(p[-1] for p in passes) - untraced_s
    import_ms = measure_import_ms(workloads) if wl.name == "trace_cli" else 0.0
    (tracer, failing, *_), metrics = passes[0], []
    problems = passes[0][4] + passes[1][4]
    for t, _, totals, sums, _, _ in passes:
        extra = dict(sums, cli_import_ms=import_ms, trace_overhead_s=overhead_s)
        metrics.append(tracer_mod.layer_metrics(*t.span_times(), totals, len(ops), extra))

    for name, unit, _ in tracer_mod.PER_LAYER:
        if unit in tracer_mod.EXACT_UNITS and metrics[0][name] != metrics[1][name]:
            problems.append(f"{name} differs between traced passes: {metrics[0][name]!r} != {metrics[1][name]!r}")
    if passes[0][1] != passes[1][1]:
        problems.append("failing operations differ between traced passes")
    for name in tracer_mod.EXPECT_NONZERO[wl.name]:
        if not metrics[0][name] > 0.0:
            problems.append(f"{name} is zero on a workload that exercises it")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.csv.gz"
    spans_path.unlink(missing_ok=True)
    for label, p in zip(("pass1", "pass2"), passes):
        p[0].write_spans(spans_path, label)

    for line in failing:
        print(f"fail: {line}")
    for line in problems:
        print(f"benchmark bug: {line}")
    for line in tracer_mod.reference_lines(metrics[0]):
        print(line)
    print(f"traced {len(ops)} operations: untraced {untraced_s:.3f} s, traced overhead {overhead_s:.3f} s; "
          f"{len(tracer.spans)} spans per pass in {spans_path.name}")
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failing),
        "metrics": {name: {"value": metrics[0][name], "unit": unit} for name, unit, _ in tracer_mod.PER_LAYER},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ensemble", "trace_cli", "surface_audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")

    for need in (SRC / "cvgeo" / "__init__.py", TESTS / "battery.py"):
        if not need.is_file():
            print(f"run.py: no {need}; run from a checkout", file=sys.stderr)
            return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # in process and in every child, the CLI runs at its default tolerance
    os.environ.pop("CVGEO_TOL", None)
    sys.path[:0] = [str(SRC), str(TESTS)]

    import workloads
    import tracer

    try:
        _check_origin(workloads.cli.__file__)
        print(environment())
        wl = workloads.WORKLOADS[args.workload]
        print(f"workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        if args.trace:
            result = traced_run(wl, args.seed, workloads, tracer)
        else:
            result = timed_run(wl, args.seed, args.seconds, workloads)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
