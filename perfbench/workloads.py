"""Seeded inputs, single operations and their gates for the three workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Inputs come only from the seed.  The
gates are the package's own acceptance thresholds; nothing here adds a new
accuracy requirement.

    ensemble       one origin geodesic per operation, in process
    trace_cli      one `python -m cvgeo.cli geodesic ...` process per operation
    surface_audit  one random-profile surface plus four audit batches per
                   operation, in process
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cvgeo import audits, cli, closed_forms, connection, profiles, surfaces
from cvgeo.closed_forms import CaseKind
from cvgeo.connection import GeodesicState
from cvgeo.space import MetricParams, Point3, SpaceClass, classify
from cvgeo.surfaces import SurfaceGeodesicState

from battery import _horizon as battery_horizon

ROOT = Path(__file__).resolve().parents[1]

# Gates, as asserted by tests/test_acceptance.py (criteria 1 and 2).
ORACLE_TOL = 1e-10
DEVIATION_GATE = 1e-6
DRIFT_GATE = 1e-8
# Gates of the audit records that the surface checks reuse (cvgeo.audits).
PARALLEL_GATE = 1e-10
MERIDIAN_GATE = 1e-8
# Exit codes the CLI documents for a geodesic that ran: ok and domain-exit.
CLI_OK_CODES = (0, 3)

CLI_T_MAX = "30"
CLI_SAMPLES = 2001
SURFACE_T_MAX = 5.0
SURFACE_SAMPLES = 201
SURFACE_GRID_NU = 10  # default_grid(nu=10, nv=8): 80 points
PARALLEL_SCAN = 64  # the CLI's default `surface --action parallels` grid
AUDIT_SUITES = ("curvature", "killing", "frobenius", "surfaces")
AUDIT_COUNT = 12  # a whole period of every suite's check rotation (3 and 4)


@dataclass
class OpResult:
    """What one operation did, as seen from outside the library.

    `failures` lists gate misses; an empty list is a pass.  The other fields
    feed the traced run's self-checks: integrations started, rows the
    library annotated with first integrals, knots of a knot-output
    trajectory, rows of dense output requested.
    """

    failures: list = field(default_factory=list)
    malformed: list = field(default_factory=list)
    integrations: int = 0
    rows_annotated: int = 0
    knots: int | None = None
    dense_rows: int = 0
    momentum_drift: float | None = None
    rows_out: int = 0
    stdout_bytes: int = 0


# ------------------------------------------------------------------ ensemble

KINDS = tuple(CaseKind)
# Horizons longer than this are redrawn, so that one operation stays short.
MAX_HORIZON = 15.0
# m < 0 paths must stay within this share of the squared disk radius: the
# most the battery's horizon rule reaches (planar and product kinds, 0.929).
DISK_SHARE = 0.93
MAX_DRAWS = 10_000


@dataclass(frozen=True)
class GeodesicInput:
    l: float
    m: float
    v0: tuple
    kind: CaseKind
    horizon: float

    def describe(self) -> str:
        u, v, w = self.v0
        return (f"kind={self.kind.value} l={self.l!r} m={self.m!r} "
                f"v0=({u!r}, {v!r}, {w!r}) t_max={self.horizon!r}")


def _sign(rng) -> float:
    return 1.0 if rng.random() < 0.5 else -1.0


def _candidate(kind: CaseKind, rng):
    th = rng.uniform(0.0, 2.0 * math.pi)
    b = rng.uniform(0.3, 1.3)
    u, v = b * math.cos(th), b * math.sin(th)
    if kind is CaseKind.TRIG_TWISTED:
        l, m, w = _sign(rng) * rng.uniform(0.5, 2.2), rng.uniform(-1.0, 2.0), _sign(rng) * rng.uniform(0.5, 2.0)
    elif kind is CaseKind.HYP_TWISTED:
        l, m, w = _sign(rng) * rng.uniform(0.6, 2.0), -rng.uniform(0.4, 2.0), _sign(rng) * rng.uniform(0.2, 0.9)
    elif kind is CaseKind.PARABOLIC_TWISTED:
        l, m = _sign(rng) * rng.uniform(0.6, 2.5), -rng.uniform(0.25, 1.6)
        w = _sign(rng) * 2.0 * b * math.sqrt(-m) / abs(l)
    elif kind is CaseKind.HEISENBERG_VERTICAL:
        l, m, w = _sign(rng) * rng.uniform(0.5, 2.0), 0.0, _sign(rng) * rng.uniform(0.5, 1.2)
    elif kind is CaseKind.PLANAR_RADIAL:
        l = 0.0 if rng.random() < 1.0 / 3.0 else rng.uniform(-2.0, 2.0)
        m = 0.0 if rng.random() < 0.25 else rng.uniform(-2.0, 2.5)
        w = 0.0
    else:
        l, m = 0.0, (0.0 if rng.random() < 1.0 / 6.0 else rng.uniform(-2.0, 2.0))
        w = _sign(rng) * rng.uniform(0.4, 1.2)
    return float(l), float(m), (float(u), float(v), float(w))


def _acceptable(l: float, m: float, v0, kind: CaseKind, t_max: float) -> bool:
    """Kind as drawn, a short horizon, and for m < 0 a path inside the disk."""
    if closed_forms.dispatch_case(MetricParams(l, m), v0).kind is not kind:
        return False
    if not (0.0 < t_max <= MAX_HORIZON):
        return False
    if m >= 0.0:
        return True
    cf = closed_forms.closed_form_geodesic(MetricParams(l, m), v0)
    pos = cf.position(np.linspace(0.0, t_max, 65))
    rho2 = pos[:, 0] ** 2 + pos[:, 1] ** 2
    return bool(np.max(rho2) <= DISK_SHARE * (-1.0 / m))


def ensemble_cycles(seed: int):
    """Endless cycles of six inputs, one per closed-form kind, from the seed."""
    rng = np.random.default_rng([seed, 1])
    while True:
        cycle = []
        for kind in KINDS:
            for _ in range(MAX_DRAWS):
                l, m, v0 = _candidate(kind, rng)
                try:
                    t_max = battery_horizon(l, m, v0, kind)
                except (ValueError, ZeroDivisionError):
                    continue
                if _acceptable(l, m, v0, kind, t_max):
                    break
            else:
                raise RuntimeError(f"no acceptable {kind.value} input in {MAX_DRAWS} draws")
            cycle.append(GeodesicInput(l, m, v0, kind, t_max))
        yield cycle


def run_geodesic(inp: GeodesicInput) -> OpResult:
    """Integrate to the knots, then compare with the closed form there."""
    params = MetricParams(inp.l, inp.m)
    traj = connection.integrate_geodesic(
        params, GeodesicState(Point3(0.0, 0.0, 0.0), np.array(inp.v0)), inp.horizon, tol=ORACLE_TOL
    )
    cf = closed_forms.closed_form_geodesic(params, inp.v0)
    dev = float(np.max(np.abs(cf.position(traj.ts) - traj.positions())))
    i0 = traj.integrals[0]
    scale = max(float(np.max(np.abs(i0))), float(traj.speeds[0]))
    drift = float(np.max(np.abs(traj.integrals - i0))) / scale
    sdrift = float(np.max(np.abs(traj.speeds - traj.speeds[0]))) / float(traj.speeds[0])
    res = OpResult(integrations=1, rows_annotated=len(traj.ts), knots=len(traj.ts))
    for name, value, gate in (("deviation", dev, DEVIATION_GATE),
                              ("integral-drift", drift, DRIFT_GATE),
                              ("speed-drift", sdrift, DRIFT_GATE)):
        if not value < gate:
            res.failures.append(f"{name} {value!r} >= {gate!r}")
    return res


# ----------------------------------------------------------------- trace_cli

CLASSES = tuple(SpaceClass)


@dataclass(frozen=True)
class CliInput:
    space_class: SpaceClass
    argv: tuple

    def describe(self) -> str:
        return f"class={self.space_class.value} cvgeo {' '.join(self.argv)}"


def _even_points(rng, dims: int):
    """Endless points of [0, 1)^dims: the R_d low-discrepancy sequence under a
    seeded shift, so that every seed covers the box about equally well."""
    phi = 2.0
    for _ in range(64):  # the root of x^(dims+1) = x + 1 by fixed-point iteration
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    alpha = np.array([phi ** -(k + 1) for k in range(dims)]) % 1.0
    point = rng.random(dims)
    while True:
        yield point
        point = (point + alpha) % 1.0


def _class_params(cls: SpaceClass, q):
    """(l, m) for the class from q[0:3] in [0, 1); the caller redraws any
    pair that `classify` puts in another class."""
    sign = 1.0 if q[2] < 0.5 else -1.0
    if cls is SpaceClass.EUCLIDEAN_FLAT:
        return 0.0, 0.0
    if cls is SpaceClass.PRODUCT_SPHERE:
        return 0.0, 0.2 + 1.8 * q[1]
    if cls is SpaceClass.PRODUCT_HYPERBOLIC:
        return 0.0, -0.2 - 1.8 * q[1]
    if cls is SpaceClass.HEISENBERG:
        return sign * (0.3 + 1.7 * q[0]), 0.0
    if cls is SpaceClass.CONSTANT_POSITIVE:
        l = sign * (0.5 + 1.5 * q[0])
        return l, 0.25 * l * l
    if cls is SpaceClass.SU2:
        return sign * (0.3 + 1.7 * q[0]), 0.2 + 1.8 * q[1]
    return sign * (0.3 + 1.7 * q[0]), -0.2 - 1.8 * q[1]


def cli_cycles(seed: int):
    """Endless cycles over the seven space classes.

    Per class, (l, m) and the direction of a unit-speed v0 come from that
    class's seeded low-discrepancy sequence.
    """
    rng = np.random.default_rng([seed, 2])
    points = {cls: _even_points(rng, 5) for cls in CLASSES}
    while True:
        cycle = []
        for cls in CLASSES:
            for _ in range(MAX_DRAWS):
                q = [float(c) for c in next(points[cls])]
                l, m = _class_params(cls, q)
                if classify(MetricParams(l, m)) is cls:
                    break
            else:
                raise RuntimeError(f"no {cls.value} parameters in {MAX_DRAWS} draws")
            z, az = 2.0 * q[3] - 1.0, 2.0 * math.pi * q[4]
            r = math.sqrt(1.0 - z * z)
            v0 = (r * math.cos(az), r * math.sin(az), z)
            argv = ("geodesic", "--l", repr(l), "--m", repr(m), "--u", repr(v0[0]),
                    "--v", repr(v0[1]), "--w", repr(v0[2]), "--method", "both",
                    "--t-max", CLI_T_MAX, "--samples", str(CLI_SAMPLES))
            cycle.append(CliInput(cls, argv))
        yield cycle


def child_env() -> dict:
    """Environment of every child: this one (run.py pins the thread counts
    and drops CVGEO_TOL) with the checkout's sources first on the path."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _check_cli_output(code: int, out: str, err: str, res: OpResult) -> None:
    res.stdout_bytes = len(out.encode())
    if code not in CLI_OK_CODES or "Traceback" in err:
        tail = err.strip().splitlines()[-1] if err.strip() else ""
        res.failures.append(f"exit {code}: {tail}")
    lines = out.splitlines()
    if not lines:
        if code in CLI_OK_CODES:
            res.malformed.append("no output")
        return
    if lines[0] != cli.TRACE_HEADER:
        res.malformed.append(f"header {lines[0][:60]!r}")
    rows = lines[1:]
    res.rows_out = res.rows_annotated = len(rows)
    if len(rows) != CLI_SAMPLES:
        res.malformed.append(f"{len(rows)} rows, expected {CLI_SAMPLES}")
    if any(row.count(",") != 11 for row in rows):
        res.malformed.append("row without 12 fields")


def run_cli_process(inp: CliInput) -> OpResult:
    """One fresh interpreter running the CLI; the workload's timed path."""
    proc = subprocess.run(
        [sys.executable, "-m", "cvgeo.cli", *inp.argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=150,
    )
    res = OpResult(integrations=1, dense_rows=CLI_SAMPLES)
    _check_cli_output(proc.returncode, proc.stdout, proc.stderr, res)
    return res


def run_cli_in_process(inp: CliInput) -> OpResult:
    """`cli.main` on the same argv, inside this process; the traced path."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(inp.argv))
    res = OpResult(integrations=1, dense_rows=CLI_SAMPLES)
    _check_cli_output(code, out.getvalue(), err.getvalue(), res)
    return res


# ------------------------------------------------------------- surface_audit


@dataclass(frozen=True)
class SurfaceInput:
    l: float
    m: float
    profile_seed: int
    s0: tuple
    audit_seed: int

    def describe(self) -> str:
        return (f"l={self.l!r} m={self.m!r} profile_seed={self.profile_seed} "
                f"s0={self.s0} audit_seed={self.audit_seed}")


def surface_cycles(seed: int):
    """Endless one-input cycles of seeded (l, m), profile, start and audit seed."""
    rng = np.random.default_rng([seed, 3])
    while True:
        l, m = (float(c) for c in rng.uniform(-2.0, 2.0, 2))
        profile_seed = int(rng.integers(2**31))
        s0 = (float(rng.uniform(-0.8, 0.8)), 0.0, float(rng.uniform(-1.0, 1.0)),
              _sign(rng) * float(rng.uniform(0.5, 1.5)))
        yield [SurfaceInput(l, m, profile_seed, s0, int(rng.integers(2**31)))]


def _critical_radii(prof) -> list:
    """Parameters u in the domain where f' = 0, for f = a + b sin(om u + phi)."""
    om, phi = prof.args["om"], prof.args["phi"]
    lo, hi = prof.u_domain
    base = (0.5 * math.pi - phi) / om
    step = math.pi / om
    k_lo = math.ceil((lo - base) / step)
    k_hi = math.floor((hi - base) / step)
    return [base + k * step for k in range(k_lo, k_hi + 1)]


def run_surface(inp: SurfaceInput) -> OpResult:
    params = MetricParams(inp.l, inp.m)
    prof = profiles.random_profile(params, np.random.default_rng(inp.profile_seed))
    res = OpResult(integrations=1, dense_rows=SURFACE_SAMPLES)

    grid = surfaces.default_grid(prof, nu=SURFACE_GRID_NU, nv=8)
    defects = (surfaces.totally_geodesic_defect(params, prof, grid),
               surfaces.umbilic_defect(params, prof, grid))
    if not all(math.isfinite(d) for d in defects):
        res.malformed.append(f"non-finite surface defect {defects}")

    lo, hi = prof.u_domain
    for u in np.linspace(lo, hi, PARALLEL_SCAN):
        surfaces.parallel_is_geodesic(params, prof, float(u))
    for u_star in _critical_radii(prof):
        ok, r = surfaces.parallel_is_geodesic(params, prof, u_star)
        if not ok:
            res.failures.append(f"parallel-critical-radius u={u_star!r} residual {r!r} >= {PARALLEL_GATE!r}")

    _, dev = surfaces.meridian_is_geodesic(MetricParams(0.0, inp.m), prof)
    if not dev <= MERIDIAN_GATE:
        res.failures.append(f"meridian-product-constancy {dev!r} > {MERIDIAN_GATE!r}")

    traj = surfaces.surface_geodesic_integrate(
        params, prof, SurfaceGeodesicState(*inp.s0), SURFACE_T_MAX, samples=SURFACE_SAMPLES
    )
    scale = max(abs(float(traj.momenta[0])), float(traj.speeds[0]))
    res.momentum_drift = float(np.max(np.abs(traj.momenta - traj.momenta[0]))) / scale

    for i, name in enumerate(AUDIT_SUITES):
        records = audits.run_suite(name, inp.audit_seed + i, AUDIT_COUNT)
        for rec in records:
            if rec["status"] != "pass":
                res.failures.append(f"audit {name} {rec['check']} residual {rec['residual']!r} "
                                    f"> {rec['tolerance']!r} params {rec['params']}")
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    cycles: object  # seed -> iterator of input lists
    run: object  # input -> OpResult, on the timed path
    run_traced: object  # input -> OpResult, on the traced path
    set_cycles: int  # cycles in the timed run's input set
    warmup_cycles: int
    traced_cycles: int


WORKLOADS = {
    "ensemble": Workload("ensemble", ensemble_cycles, run_geodesic, run_geodesic, 100, 1, 10),
    "trace_cli": Workload("trace_cli", cli_cycles, run_cli_process, run_cli_in_process, 15, 0, 2),
    "surface_audit": Workload("surface_audit", surface_cycles, run_surface, run_surface, 100, 2, 24),
}
