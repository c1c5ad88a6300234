"""Guards of the repository's tooling that run with the tests."""

import importlib
import importlib.util
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_traced_benchmark_targets_resolve(tracer):
    # the traced benchmark patches these bindings; a renamed or deleted one
    # fails here rather than at benchmark time
    assert tracer.TARGETS
    for module, name in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)


# Metrics of EXPECT_NONZERO that one in-process operation does not produce:
# the import time is measured in fresh interpreters.
NOT_PER_OP = {"cli.import_ms"}


@pytest.mark.parametrize(
    "workload, run",
    [("ensemble", "run_geodesic"), ("trace_cli", "run_cli_in_process"), ("surface_audit", "run_surface")],
)
def test_one_traced_operation_keeps_the_tracer_contract(tracer, workloads, workload, run):
    # the benchmark's self-checks, on one operation: the rhs closure is owned
    # by a module the tracer knows, one first_integrals call per annotated
    # row, and every layer the workload must exercise is nonzero
    cycles = {"ensemble": workloads.ensemble_cycles, "trace_cli": workloads.cli_cycles,
              "surface_audit": workloads.surface_cycles}[workload]
    inp = next(itertools.chain.from_iterable(cycles(1)))
    trace = tracer.Tracer()
    with trace.installed():
        res = getattr(workloads, run)(inp)
    assert res.failures == [] and res.malformed == []
    assert tracer.op_invariants(trace.counts, res) == []
    extra = {
        "momentum_drift_max": res.momentum_drift if res.momentum_drift is not None else 0.0,
        "rows_out": res.rows_out,
        "stdout_bytes": res.stdout_bytes,
        "fail_ratio": 0.0,
        "cli_import_ms": 0.0,
        "trace_overhead_s": 0.0,
    }
    metrics = tracer.layer_metrics(*trace.span_times(), trace.counts, 1, extra)
    for name in tracer.EXPECT_NONZERO[workload]:
        if name not in NOT_PER_OP:
            assert metrics[name] > 0.0, name


def test_traced_surface_guard_rejections_match_an_independent_count(tracer, workloads, monkeypatch):
    # the first seed-1 surface_audit operation's geodesic leaves its profile
    # domain.  A counter between the tracer and the stepper sees every state
    # the guard is asked about and every stage the rhs refuses; it counts a
    # state as rejected where its room is negative, whatever the guard
    # returns, so a guard that returned the room itself (a truthy negative)
    # would leave the tracer's count short and fail here
    from cvgeo import _rk

    inp = next(itertools.chain.from_iterable(workloads.surface_cycles(1)))
    stepper = _rk.rk45
    rejections = 0

    def counting_rk45(rhs, y0, t_max, tol, *, guard, guard_error, room, **kwargs):
        def counted_rhs(y):
            nonlocal rejections
            try:
                return rhs(y)
            except guard_error:
                rejections += 1
                raise

        def counted_guard(y):
            nonlocal rejections
            rejections += room(y) < 0.0
            return guard(y)

        return stepper(counted_rhs, y0, t_max, tol, guard=counted_guard, guard_error=guard_error, room=room,
                       **kwargs)

    monkeypatch.setattr(_rk, "rk45", counting_rk45)  # the tracer wraps the counter
    trace = tracer.Tracer()
    with trace.installed():
        res = workloads.run_surface(inp)
    assert res.failures == [] and res.malformed == []
    assert trace.counts["rk.surface.steps"] > 0 and trace.counts["rk.geodesic.steps"] == 0
    assert rejections > 0
    assert trace.counts["rk.surface.guard_rejects"] == rejections


def test_the_cli_runs_without_scipy():
    # scipy is installed for the tests, but the package depends on numpy
    # alone: a geodesic run in a fresh interpreter must not load it
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import contextlib, io, sys\n"
        "from cvgeo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['geodesic', '--l', '1', '--m', '1', '--u', '1', '--v', '0', '--w', '1',\n"
        "                 '--method', 'both', '--t-max', '3', '--samples', '21'])\n"
        "print(code, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "CVGEO_TOL"}
    env["PYTHONPATH"] = str(src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "0 []\n", out
