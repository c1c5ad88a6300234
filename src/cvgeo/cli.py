"""Command-line surface: classify | geodesic | audit | surface.

Exit codes: 0 success, 1 audit failure, closed/numeric mismatch or a
closed output pipe, 3 domain-exit partial result (for --method closed:
the closed form reached the m < 0 stop shell), 64 usage error,
65 invalid input.  A float flag that is not a finite number and a --grid
that is not an integer in [1, 1000000] are usage errors (64).
--samples must be in [2, 1000000], --count in [1, 1000000] and --seed
must not be negative (else 65).  Inputs that the library rejects are
invalid (65): values outside a profile or the m < 0 disk, a start past
the integration domain's edge, a profile domain without u-min < u-max,
values whose evaluation overflows or whose output is not finite, and
integrations whose step underflows or that exhaust their step budget;
each prints one line to stderr.  The environment variable CVGEO_TOL
overrides the default integrator tolerance (1e-10); it must be a finite
positive float, else the run is a usage error.  Output is deterministic
for fixed flags and seed; floats are printed in shortest round-trip form.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

# `audit` and `surface` import their modules when they run, so that a
# geodesic run loads only what it calls
from ._rk import IntegrationError, StepSizeUnderflow
from .closed_forms import closed_form_geodesic
from .connection import (
    DEFAULT_TOL,
    GeodesicState,
    annotate_states,
    integrate_geodesic,
    stop_shell_rho2,
)
from .space import MetricParams, Point3, SpaceClass, classify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARTIAL = 3
EXIT_USAGE = 64
EXIT_INVALID = 65

# Upper bound of --samples, --count and --grid.
MAX_COUNT = 1_000_000

TRACE_HEADER = "t,x,y,z,vx,vy,vz,I1,I2,I3,I4,speed"

# the --suite choices: the names of `audits.SUITES`
AUDIT_SUITES = ("curvature", "frobenius", "integrals", "killing", "surfaces")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


def _fmt_plain(x: float) -> str:
    """Like _fmt but drops a trailing '.0' on integral values."""
    s = _fmt(x)
    return s[:-2] if s.endswith(".0") else s


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r} is not finite")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an integer in [1, MAX_COUNT]."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r} is not positive")
    if value > MAX_COUNT:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r} exceeds {MAX_COUNT}")
    return value


def _env_tol() -> float:
    """Integrator tolerance: CVGEO_TOL if set, else the default."""
    text = os.environ.get("CVGEO_TOL")
    if text is None:
        return DEFAULT_TOL
    tol = _finite_float(text)
    if not tol > 0.0:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r} is not positive")
    return tol


def cmd_classify(args) -> int:
    params = MetricParams(args.l, args.m)
    cls = classify(params)
    if cls in (SpaceClass.PRODUCT_SPHERE, SpaceClass.PRODUCT_HYPERBOLIC):
        print(f"{cls.value} (factor curvature {_fmt_plain(4.0 * args.m)})")
    else:
        print(cls.value)
    return EXIT_OK


def _print_rows(header: str, rows) -> None:
    """CSV header and rows; a value that is not finite is an input out of range."""
    rows = np.asarray(rows, dtype=float)
    if not np.isfinite(rows).all():
        raise FloatingPointError("the output has a value that is not finite")
    # repr of a float from tolist() is _fmt of it; one write for all rows
    print("\n".join([header, *(",".join(map(repr, row)) for row in rows.tolist())]))


def _shell_exit_time(closed, rho2_stop, ts, pos):
    """The time at which the closed form reaches the stop shell x^2+y^2 =
    rho2_stop of `stop_shell_rho2`, where the numeric path stops, bisected
    between the first sample at or beyond it and the sample before; the
    returned time is the last one found inside.  None if no sample reaches
    the shell, or if there is none (rho2_stop None, for m >= 0)."""
    if rho2_stop is None:
        return None
    beyond = np.flatnonzero(pos[:, 0] ** 2 + pos[:, 1] ** 2 >= rho2_stop)
    if beyond.size == 0:
        return None
    lo, hi = float(ts[beyond[0] - 1]), float(ts[beyond[0]])  # ts[0] = 0 is the origin
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        x, y, _ = closed.position(np.array([mid]))[0]
        if x * x + y * y < rho2_stop:
            lo = mid
        else:
            hi = mid
    return lo


def cmd_geodesic(args) -> int:
    v0 = np.array([args.u, args.v, args.w], dtype=float)
    if not np.any(v0):
        raise ValueError("initial velocity must be nonzero")
    if args.t_max <= 0.0 or not 2 <= args.samples <= MAX_COUNT:
        raise ValueError(f"need t-max > 0 and 2 <= samples <= {MAX_COUNT}")
    params = MetricParams(args.l, args.m)
    closed = None
    if args.method in ("closed", "both"):
        if (args.x0, args.y0, args.z0) != (0.0, 0.0, 0.0):
            raise ValueError(
                "closed forms are defined from the origin only; "
                "use --method numeric for other base points"
            )
        closed = closed_form_geodesic(params, tuple(v0))

    if args.method == "closed":
        rho2_stop = stop_shell_rho2(params) if params.m < 0.0 else None
        ts = np.linspace(0.0, args.t_max, args.samples)
        pos = closed.position(ts)
        t_stop = _shell_exit_time(closed, rho2_stop, ts, pos)
        if t_stop is not None:
            ts = np.linspace(0.0, t_stop, args.samples)
            pos = closed.position(ts)
        states = np.hstack([pos, closed.velocity(ts)])
        _print_rows(TRACE_HEADER, np.column_stack([ts, states, *annotate_states(params, states)]))
        return EXIT_OK if t_stop is None else EXIT_PARTIAL

    traj = integrate_geodesic(
        params,
        GeodesicState(Point3(args.x0, args.y0, args.z0), v0),
        args.t_max,
        tol=args.tol,
        samples=args.samples,
    )
    _print_rows(TRACE_HEADER, np.column_stack([traj.ts, traj.states, traj.integrals, traj.speeds]))

    if args.method == "both":
        disc = float(np.max(np.abs(closed.position(traj.ts) - traj.positions())))
        print(f"max closed-vs-numeric discrepancy: {_fmt(disc)}", file=sys.stderr)
        if disc > 1e-5:
            return EXIT_FAIL
    return EXIT_OK if traj.complete else EXIT_PARTIAL


def cmd_audit(args) -> int:
    import json

    from . import audits

    if not 1 <= args.count <= MAX_COUNT:
        raise ValueError(f"count must be in [1, {MAX_COUNT}]")
    if args.seed < 0:
        raise ValueError("seed must not be negative")
    records = audits.run_suite(args.suite, args.seed, args.count)
    ok = True
    for rec in records:
        print(json.dumps(rec))
        ok = ok and rec["status"] == "pass"
    return EXIT_OK if ok else EXIT_FAIL


# the --profile choices: each builds its profile from the `cvgeo.profiles`
# module it is given, the flags and m
_PROFILE_BUILDERS = {
    "cylinder": lambda pr, args, m: pr.cylinder(args.a, (args.u_min, args.u_max)),
    "cone": lambda pr, args, m: pr.cone(args.k, (args.u_min, args.u_max)),
    "slice": lambda pr, args, m: pr.slice_profile(args.z0, (args.u_min, args.u_max)),
    "tan": lambda pr, args, m: pr.tan_profile(m, args.c, (args.u_min, args.u_max)),
    "tanh": lambda pr, args, m: pr.tanh_profile(m, args.c, (args.u_min, args.u_max)),
}


def cmd_surface(args) -> int:
    import json

    from . import profiles, surfaces

    params = MetricParams(args.l, args.m)
    profile = _PROFILE_BUILDERS[args.profile](profiles, args, params.m)
    profiles.validate_profile(params, profile)

    if args.action == "forms":
        grid = surfaces.default_grid(profile, nu=args.grid, nv=8)
        # A value that overflows reaches _print_rows' check as inf or nan,
        # as it did through scalar arithmetic.
        with np.errstate(over="ignore", invalid="ignore"):
            forms = surfaces.second_fundamental_form(params, profile, grid)
        a, b = forms.first, forms.second
        _print_rows("u,v,E,F,G,B_uu,B_uv,B_vv", np.column_stack(
            [grid, a[:, 0, 0], a[:, 0, 1], a[:, 1, 1], b[:, 0, 0], b[:, 0, 1], b[:, 1, 1]]))
        return EXIT_OK

    if args.action == "parallels":
        print("u0")
        for r in surfaces.parallel_geodesic_radii(params, profile, args.grid):
            print(_fmt(r))
        return EXIT_OK

    if args.action == "meridians":
        ok, dev = surfaces.meridian_is_geodesic(params, profile)
        print(json.dumps({"geodesic": ok, "max_deviation": dev}, allow_nan=False))
        return EXIT_OK

    # the geodesic action
    if not 2 <= args.samples <= MAX_COUNT:
        raise ValueError(f"need 2 <= samples <= {MAX_COUNT}")
    s0 = surfaces.SurfaceGeodesicState(args.su, args.sv, args.sdu, args.sdv)
    traj = surfaces.surface_geodesic_integrate(
        params, profile, s0, args.t_max, tol=args.tol, samples=args.samples
    )
    _print_rows("t,u,v,du,dv,p_v,speed",
                np.column_stack([traj.ts, traj.states, traj.momenta, traj.speeds]))
    return EXIT_OK if traj.complete else EXIT_PARTIAL


def build_parser() -> _Parser:
    parser = _Parser(prog="cvgeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_cls = sub.add_parser("classify", help="name the geometry of (l, m)")
    p_cls.add_argument("--l", type=_finite_float, required=True)
    p_cls.add_argument("--m", type=_finite_float, required=True)
    p_cls.set_defaults(func=cmd_classify)

    p_geo = sub.add_parser("geodesic", help="trace a geodesic as CSV")
    p_geo.add_argument("--l", type=_finite_float, required=True)
    p_geo.add_argument("--m", type=_finite_float, required=True)
    p_geo.add_argument("--u", type=_finite_float, required=True)
    p_geo.add_argument("--v", type=_finite_float, required=True)
    p_geo.add_argument("--w", type=_finite_float, required=True)
    p_geo.add_argument("--t-max", type=_finite_float, default=1.0, dest="t_max")
    p_geo.add_argument("--samples", type=int, default=101)
    p_geo.add_argument("--method", choices=("closed", "numeric", "both"), default="numeric")
    p_geo.add_argument("--x0", type=_finite_float, default=0.0)
    p_geo.add_argument("--y0", type=_finite_float, default=0.0)
    p_geo.add_argument("--z0", type=_finite_float, default=0.0)
    p_geo.set_defaults(func=cmd_geodesic)

    p_aud = sub.add_parser("audit", help="run a seeded invariant audit (JSON lines)")
    p_aud.add_argument("--suite", choices=AUDIT_SUITES, required=True)
    p_aud.add_argument("--seed", type=int, default=0)
    p_aud.add_argument("--count", type=int, default=20)
    p_aud.set_defaults(func=cmd_audit)

    p_sur = sub.add_parser("surface", help="analyse a surface of revolution")
    p_sur.add_argument("--l", type=_finite_float, required=True)
    p_sur.add_argument("--m", type=_finite_float, required=True)
    p_sur.add_argument("--profile", choices=sorted(_PROFILE_BUILDERS), required=True)
    p_sur.add_argument("--action", choices=("forms", "parallels", "meridians", "geodesic"),
                       required=True)
    p_sur.add_argument("--a", type=_finite_float, default=1.0, help="cylinder radius")
    p_sur.add_argument("--k", type=_finite_float, default=0.5, help="cone slope")
    p_sur.add_argument("--z0", type=_finite_float, default=0.0, help="slice height")
    p_sur.add_argument("--c", type=_finite_float, default=0.3, help="tan/tanh profile shift")
    p_sur.add_argument("--u-min", type=_finite_float, default=0.2, dest="u_min")
    p_sur.add_argument("--u-max", type=_finite_float, default=1.0, dest="u_max")
    p_sur.add_argument("--grid", type=_positive_int, default=64)
    p_sur.add_argument("--su", type=_finite_float, default=0.5, help="surface geodesic u0")
    p_sur.add_argument("--sv", type=_finite_float, default=0.0, help="surface geodesic v0")
    p_sur.add_argument("--sdu", type=_finite_float, default=0.0, help="surface geodesic u'0")
    p_sur.add_argument("--sdv", type=_finite_float, default=1.0, help="surface geodesic v'0")
    p_sur.add_argument("--t-max", type=_finite_float, default=5.0, dest="t_max")
    p_sur.add_argument("--samples", type=int, default=101)
    p_sur.set_defaults(func=cmd_surface)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        args.tol = _env_tol()
    except argparse.ArgumentTypeError as exc:
        print(f"{parser.prog}: error: CVGEO_TOL: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # overflow raises here, so that a huge input is reported, not warned about
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: send the rest of the buffered output nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except ArithmeticError as exc:  # FloatingPointError, OverflowError
        # a Python-float ** overflow carries (errno, text) as its args
        text = exc.args[-1] if exc.args else exc
        print(f"{args.command}: input out of range: {text}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, StepSizeUnderflow, IntegrationError) as exc:
        # ValueError: invalid input, DomainError included
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return code


if __name__ == "__main__":
    sys.exit(main())
