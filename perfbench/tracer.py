"""Spans and counts around the package's public functions, from outside it.

`Tracer.installed()` replaces every `cvgeo.*` module binding of each target
function with a wrapper and puts the originals back on exit; the library's
code is not changed.  A wrapper records one span per call

    (span id, parent span id, operation id, name, start ns, end ns)

in memory, and counts calls and the work visible in arguments and results
(accepted steps, guard rejections, dense-output rows, closed-form points).
Self time is a span's duration minus the durations of its direct children;
calls are strictly nested, so children never overlap.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import itertools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (defining module, function); every cvgeo module that binds the same object
# under any name is patched too.
TARGETS = (
    ("cvgeo._rk", "rk45"),
    ("cvgeo._rk", "hermite_sample"),
    ("cvgeo.connection", "integrate_geodesic"),
    ("cvgeo.connection", "christoffel"),
    ("cvgeo.connection", "curvature_tensor"),
    ("cvgeo.connection", "state_speed"),
    ("cvgeo.symmetry", "first_integrals"),
    ("cvgeo.symmetry", "killing_defect"),
    ("cvgeo.closed_forms", "closed_form_geodesic"),
    ("cvgeo.space", "metric_tensor"),
    ("cvgeo.surfaces", "second_fundamental_form"),
    ("cvgeo.surfaces", "surface_geodesic_integrate"),
    ("cvgeo.surfaces", "meridian_is_geodesic"),
    ("cvgeo.surfaces", "parallel_is_geodesic"),
    ("cvgeo.audits", "run_suite"),
    ("cvgeo.profiles", "random_profile"),
    ("cvgeo.cli", "main"),
)

# The module whose closure is handed to rk45 as rhs names the integration.
RHS_OWNERS = {"cvgeo.connection": ("geodesic", "connection"), "cvgeo.surfaces": ("surface", "surfaces")}


def _layer(module: str) -> str:
    return module.removeprefix("cvgeo.").lstrip("_")


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = 0
        self.counts = Counter()  # current operation; the caller resets it
        self._stack = [0]
        self._ids = itertools.count(1)
        self._patches = []

    def span(self, name: str, fn):
        """`fn` wrapped to record a span and count a call under `name`."""
        spans, stack, ids, counts, clock = self.spans, self._stack, self._ids, self.counts, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            counts[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, tracer.op, name, t0, t1))

        traced.__wrapped__ = fn
        traced._perfbench_traced = True
        return traced

    # ------------------------------------------------------------ wrappers

    def _wrap_rk45(self, orig):
        counts = self.counts
        by_kind = {kind: self.span(f"rk.{kind}", orig) for kind, _ in RHS_OWNERS.values()}

        def rk45(rhs, y0, t_max, tol, *args, guard=None, guard_error=(), **kwargs):
            kind, layer = RHS_OWNERS[rhs.__module__]
            traced_rhs = self.span(f"{layer}.rhs", rhs)

            def counted_rhs(y):
                try:
                    return traced_rhs(y)
                except guard_error:
                    counts[f"rk.{kind}.guard_rejects"] += 1
                    raise

            counted_guard = None
            if guard is not None:
                traced_guard = self.span(f"{layer}.guard", guard)

                def counted_guard(y):
                    ok = traced_guard(y)
                    if not ok:
                        counts[f"rk.{kind}.guard_rejects"] += 1
                    return ok

            out = by_kind[kind](counted_rhs, y0, t_max, tol, *args,
                                guard=counted_guard, guard_error=guard_error, **kwargs)
            counts[f"rk.{kind}.steps"] += len(out[0]) - 1
            return out

        return rk45

    def _wrap_hermite_sample(self, orig):
        counts, traced = self.counts, self.span("rk.hermite_sample", orig)

        def hermite_sample(ts, ys, fs, t_query):
            counts["rk.hermite_sample.rows"] += np.size(t_query)
            counts["rk.hermite_sample.knot_intervals"] += len(ts) - 1
            return traced(ts, ys, fs, t_query)

        return hermite_sample

    def _wrap_closed_form_geodesic(self, orig):
        counts, traced = self.counts, self.span("closed_forms.closed_form_geodesic", orig)

        def closed_form_geodesic(*args, **kwargs):
            cf = traced(*args, **kwargs)
            position = self.span("closed_forms.position", cf.position)

            def counted_position(t):
                counts["closed_forms.position.points"] += np.size(t)
                return position(t)

            # the dataclass is frozen; an instance attribute shadows the method
            object.__setattr__(cf, "position", counted_position)
            return cf

        return closed_form_geodesic

    def _wrap_run_suite(self, orig):
        counts, by_suite = self.counts, {}

        def run_suite(name, seed, count):
            if name not in by_suite:
                by_suite[name] = self.span(f"audits.{name}", orig)
            records = by_suite[name](name, seed, count)
            counts[f"audits.{name}.records"] += len(records)
            return records

        return run_suite

    def _wrap_random_profile(self, orig):
        def random_profile(*args, **kwargs):
            prof = orig(*args, **kwargs)
            return dataclasses.replace(prof, g=self.span("profiles.height", prof.g))

        return random_profile

    def _wrapper(self, module: str, name: str, orig):
        special = getattr(self, f"_wrap_{name}", None)
        if special is not None:
            wrapper = special(orig)
            wrapper._perfbench_traced = True
            return wrapper
        return self.span(f"{_layer(module)}.{name}", orig)

    # ------------------------------------------------------------ patching

    @contextlib.contextmanager
    def installed(self):
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == "cvgeo" or key.startswith("cvgeo."))]
        try:
            for module, name in TARGETS:
                orig = getattr(sys.modules[module], name)
                wrapper = self._wrapper(module, name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            self._patches.append((mod, key, orig))
            yield self
        finally:
            for mod, key, orig in reversed(self._patches):
                setattr(mod, key, orig)
            self._patches.clear()
            left = [f"{mod.__name__}.{key}" for mod in modules for key, value in vars(mod).items()
                    if getattr(value, "_perfbench_traced", False)]
            if left:
                raise RuntimeError(f"bindings left traced: {left}")

    # ------------------------------------------------------------ reading

    def span_times(self):
        """Per span name: (calls, inclusive ns, self ns)."""
        child_ns = defaultdict(int)
        for _, parent, _, _, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
        calls, incl, own = Counter(), Counter(), Counter()
        for sid, _, _, name, t0, t1 in self.spans:
            calls[name] += 1
            incl[name] += t1 - t0
            own[name] += t1 - t0 - child_ns[sid]
        return calls, incl, own

    def write_spans(self, path, label: str) -> None:
        with gzip.open(path, "at", compresslevel=1) as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(f"{label},{sid},{parent},{op},{name},{t0},{t1}\n")


# --------------------------------------------------------------- per layer

# (name, unit, better).  Counts are per operation and repeat exactly for a
# fixed seed; `us`/`ms` are inclusive time per call unless named `self_`.
PER_LAYER = (
    ("connection.rhs.evals", "count", "lower"),
    ("connection.rhs.us", "us", "lower"),
    ("rk.geodesic.accepted_steps", "count", "lower"),
    ("rk.geodesic.evals_per_step", "count", "lower"),
    ("rk.geodesic.self_us_per_step", "us", "lower"),
    ("rk.surface.accepted_steps", "count", "lower"),
    ("rk.surface.evals_per_step", "count", "lower"),
    ("rk.surface.guard_rejects", "count", "lower"),
    ("surfaces.rhs.evals", "count", "lower"),
    ("surfaces.rhs.us", "us", "lower"),
    ("rk.hermite_sample.rows", "count", "lower"),
    ("rk.hermite_sample.us", "us", "lower"),
    ("symmetry.first_integrals.calls", "count", "lower"),
    ("symmetry.first_integrals.us", "us", "lower"),
    ("connection.state_speed.calls", "count", "lower"),
    ("connection.state_speed.us", "us", "lower"),
    ("connection.integrate_geodesic.self_ms", "ms", "lower"),
    ("closed_forms.position.points", "count", "lower"),
    ("closed_forms.position.us_per_point", "us", "lower"),
    ("space.metric_tensor.calls", "count", "lower"),
    ("space.metric_tensor.us", "us", "lower"),
    ("connection.christoffel.calls", "count", "lower"),
    ("connection.christoffel.us", "us", "lower"),
    ("surfaces.second_fundamental_form.calls", "count", "lower"),
    ("surfaces.second_fundamental_form.us", "us", "lower"),
    ("profiles.height.evals", "count", "lower"),
    ("profiles.height.us", "us", "lower"),
    ("surfaces.surface_geodesic_integrate.self_ms", "ms", "lower"),
    ("surfaces.momentum_drift_max", "ratio", "lower"),
    ("surfaces.meridian_is_geodesic.us", "us", "lower"),
    ("surfaces.parallel_is_geodesic.us", "us", "lower"),
    ("connection.curvature_tensor.calls", "count", "lower"),
    ("connection.curvature_tensor.us", "us", "lower"),
    ("symmetry.killing_defect.us", "us", "lower"),
    ("audits.curvature.ms_per_record", "ms", "lower"),
    ("audits.killing.ms_per_record", "ms", "lower"),
    ("audits.frobenius.ms_per_record", "ms", "lower"),
    ("audits.surfaces.ms_per_record", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("cli.rows_out", "count", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("bench.fail_ratio", "ratio", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)

# Metrics that must repeat exactly between two traced passes of one seed.
EXACT_UNITS = ("count", "bytes", "ratio")


def layer_metrics(calls, incl, own, counts, n_ops: int, extra: dict) -> dict:
    """Every PER_LAYER metric from span times, counts and the op results."""

    def per_op(x):
        return x / n_ops

    def us(name):
        return incl[name] / calls[name] / 1e3 if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    geo_steps, srf_steps = counts["rk.geodesic.steps"], counts["rk.surface.steps"]
    m = {
        "connection.rhs.evals": per_op(calls["connection.rhs"]),
        "connection.rhs.us": us("connection.rhs"),
        "rk.geodesic.accepted_steps": per_op(geo_steps),
        "rk.geodesic.evals_per_step": ratio(calls["connection.rhs"], geo_steps),
        "rk.geodesic.self_us_per_step": ratio(own["rk.geodesic"], geo_steps) / 1e3,
        "rk.surface.accepted_steps": per_op(srf_steps),
        "rk.surface.evals_per_step": ratio(calls["surfaces.rhs"], srf_steps),
        "rk.surface.guard_rejects": per_op(counts["rk.surface.guard_rejects"]),
        "surfaces.rhs.evals": per_op(calls["surfaces.rhs"]),
        "surfaces.rhs.us": us("surfaces.rhs"),
        "rk.hermite_sample.rows": per_op(counts["rk.hermite_sample.rows"]),
        "rk.hermite_sample.us": us("rk.hermite_sample"),
        "symmetry.first_integrals.calls": per_op(calls["symmetry.first_integrals"]),
        "symmetry.first_integrals.us": us("symmetry.first_integrals"),
        "connection.state_speed.calls": per_op(calls["connection.state_speed"]),
        "connection.state_speed.us": us("connection.state_speed"),
        "connection.integrate_geodesic.self_ms":
            ratio(own["connection.integrate_geodesic"], calls["connection.integrate_geodesic"]) / 1e6,
        "closed_forms.position.points": per_op(counts["closed_forms.position.points"]),
        "closed_forms.position.us_per_point":
            ratio(incl["closed_forms.position"], counts["closed_forms.position.points"]) / 1e3,
        "space.metric_tensor.calls": per_op(calls["space.metric_tensor"]),
        "space.metric_tensor.us": us("space.metric_tensor"),
        "connection.christoffel.calls": per_op(calls["connection.christoffel"]),
        "connection.christoffel.us": us("connection.christoffel"),
        "surfaces.second_fundamental_form.calls": per_op(calls["surfaces.second_fundamental_form"]),
        "surfaces.second_fundamental_form.us": us("surfaces.second_fundamental_form"),
        "profiles.height.evals": per_op(calls["profiles.height"]),
        "profiles.height.us": us("profiles.height"),
        "surfaces.surface_geodesic_integrate.self_ms":
            ratio(own["surfaces.surface_geodesic_integrate"], calls["surfaces.surface_geodesic_integrate"]) / 1e6,
        "surfaces.momentum_drift_max": extra["momentum_drift_max"],
        "surfaces.meridian_is_geodesic.us": us("surfaces.meridian_is_geodesic"),
        "surfaces.parallel_is_geodesic.us": us("surfaces.parallel_is_geodesic"),
        "connection.curvature_tensor.calls": per_op(calls["connection.curvature_tensor"]),
        "connection.curvature_tensor.us": us("connection.curvature_tensor"),
        "symmetry.killing_defect.us": us("symmetry.killing_defect"),
        "cli.import_ms": extra["cli_import_ms"],
        "cli.main.self_ms": ratio(own["cli.main"], calls["cli.main"]) / 1e6,
        "cli.rows_out": per_op(extra["rows_out"]),
        "cli.stdout_bytes": per_op(extra["stdout_bytes"]),
        "bench.fail_ratio": extra["fail_ratio"],
        "bench.trace_overhead_s": extra["trace_overhead_s"],
    }
    for suite in ("curvature", "killing", "frobenius", "surfaces"):
        m[f"audits.{suite}.ms_per_record"] = ratio(incl[f"audits.{suite}"], counts[f"audits.{suite}.records"]) / 1e6
    return m


# Layer metrics each workload exercises on every seed; a zero there means a
# binding was missed.
EXPECT_NONZERO = {
    "ensemble": (
        "connection.rhs.evals", "rk.geodesic.accepted_steps", "symmetry.first_integrals.calls",
        "connection.state_speed.calls", "connection.integrate_geodesic.self_ms",
        "closed_forms.position.points", "space.metric_tensor.calls",
    ),
    "trace_cli": (
        "connection.rhs.evals", "rk.geodesic.accepted_steps", "rk.hermite_sample.rows",
        "symmetry.first_integrals.calls", "connection.state_speed.calls",
        "connection.integrate_geodesic.self_ms", "closed_forms.position.points",
        "space.metric_tensor.calls", "cli.import_ms", "cli.main.self_ms", "cli.rows_out", "cli.stdout_bytes",
    ),
    "surface_audit": (
        "rk.surface.accepted_steps", "surfaces.rhs.evals", "rk.hermite_sample.rows",
        "space.metric_tensor.calls", "connection.christoffel.calls",
        "surfaces.second_fundamental_form.calls", "profiles.height.evals",
        "surfaces.surface_geodesic_integrate.self_ms", "surfaces.momentum_drift_max",
        "surfaces.meridian_is_geodesic.us", "surfaces.parallel_is_geodesic.us",
        "connection.curvature_tensor.calls", "symmetry.killing_defect.us",
        "audits.curvature.ms_per_record", "audits.killing.ms_per_record",
        "audits.frobenius.ms_per_record", "audits.surfaces.ms_per_record",
    ),
}


def op_invariants(counts, res) -> list:
    """Self-checks of one traced operation against what its caller saw."""
    bad = []
    steps = counts["rk.geodesic.steps"] + counts["rk.surface.steps"]
    rk_calls = counts["rk.geodesic"] + counts["rk.surface"]
    if rk_calls != res.integrations:
        bad.append(f"{rk_calls} rk45 calls for {res.integrations} integrations")
    if res.knots is not None and steps != res.knots - 1:
        bad.append(f"{steps} accepted steps for {res.knots} knots")
    if counts["rk.hermite_sample.rows"] != res.dense_rows:
        bad.append(f"{counts['rk.hermite_sample.rows']} dense rows for {res.dense_rows} requested")
    if res.dense_rows and steps != counts["rk.hermite_sample.knot_intervals"]:
        bad.append(f"{steps} accepted steps for {counts['rk.hermite_sample.knot_intervals']} knot intervals")
    if counts["symmetry.first_integrals"] != res.rows_annotated:
        bad.append(f"{counts['symmetry.first_integrals']} first_integrals calls for "
                   f"{res.rows_annotated} rows annotated")
    return bad


# Scratch measurements of ROADMAP item 1 and those taken when this benchmark
# was planned, in their own units: (label, metrics summed, factor to that
# unit, reference).  The traced run flags a value outside 2x either way.
REFERENCES = (
    ("_rhs_entries ~16 us/eval", ("connection.rhs.us",), 1.0, 16.0),
    ("rk45 self ~25 us/accepted step", ("rk.geodesic.self_us_per_step",), 1.0, 25.0),
    ("battery 6.0 rhs evals/accepted step", ("rk.geodesic.evals_per_step",), 1.0, 6.0),
    ("surface geodesic ~11 rhs evals/accepted step", ("rk.surface.evals_per_step",), 1.0, 11.0),
    ("closed form 0.06 ms/1000 points", ("closed_forms.position.us_per_point",), 1.0, 0.06),
    ("_annotate 3 ms/255 rows", ("symmetry.first_integrals.us", "connection.state_speed.us"), 0.255, 3.0),
    ("curvature_tensor ~97 us", ("connection.curvature_tensor.us",), 1.0, 97.0),
    ("second_fundamental_form 346 us/point, random profile", ("surfaces.second_fundamental_form.us",), 1.0, 346.0),
    ("totally_geodesic_defect 25 ms/80-point grid", ("surfaces.second_fundamental_form.us",), 0.08, 25.0),
)


def reference_lines(metrics: dict) -> list:
    lines = []
    for label, names, factor, ref in REFERENCES:
        value = factor * sum(metrics[name] for name in names)
        if value == 0.0:
            continue
        flag = "within 2x" if ref / 2.0 <= value <= ref * 2.0 else "FLAG outside 2x"
        lines.append(f"reference: {label}: measured {value:.4g} from {' + '.join(names)} ({flag})")
    return lines
