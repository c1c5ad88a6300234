"""Command-line surface: classify | geodesic | audit | surface.

Exit codes: 0 success, 1 audit failure or closed/numeric mismatch,
3 domain-exit partial result, 64 usage error, 65 invalid input.
The environment variable CVGEO_TOL overrides the default integrator
tolerance (1e-10).  Output is deterministic for fixed flags and seed;
floats are printed in shortest round-trip form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .audits import SUITES, run_suite
from .closed_forms import (
    BranchDomainError,
    closed_form_geodesic,
    numeric_velocity,
)
from .connection import DEFAULT_TOL, GeodesicState, annotate_states, integrate_geodesic
from .profiles import cone, cylinder, slice_profile, tan_profile, tanh_profile, validate_profile
from .space import DomainError, MetricParams, Point3, SpaceClass, classify
from .surfaces import (
    SurfaceGeodesicState,
    default_grid,
    meridian_is_geodesic,
    parallel_geodesic_radii,
    second_fundamental_form,
    surface_geodesic_integrate,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARTIAL = 3
EXIT_USAGE = 64
EXIT_INVALID = 65

TRACE_HEADER = "t,x,y,z,vx,vy,vz,I1,I2,I3,I4,speed"


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


def _tol() -> float:
    return float(os.environ.get("CVGEO_TOL", str(DEFAULT_TOL)))


def cmd_classify(args) -> int:
    params = MetricParams(args.l, args.m)
    cls = classify(params)
    if cls in (SpaceClass.PRODUCT_SPHERE, SpaceClass.PRODUCT_HYPERBOLIC):
        print(f"{cls.value} (factor curvature {_fmt_plain(4.0 * args.m)})")
    else:
        print(cls.value)
    return EXIT_OK


def _print_trace(ts, states, integrals, speeds) -> None:
    print(TRACE_HEADER)
    for t, s, ints, spd in zip(ts, states, integrals, speeds):
        print(",".join(_fmt(v) for v in (t, *s, *ints, spd)))


def cmd_geodesic(args) -> int:
    v0 = np.array([args.u, args.v, args.w], dtype=float)
    if not np.any(v0):
        print("geodesic: initial velocity must be nonzero", file=sys.stderr)
        return EXIT_INVALID
    if args.t_max <= 0.0 or args.samples < 2:
        print("geodesic: need t-max > 0 and samples >= 2", file=sys.stderr)
        return EXIT_INVALID
    params = MetricParams(args.l, args.m)
    base = Point3(args.x0, args.y0, args.z0)
    from_origin = args.x0 == 0.0 and args.y0 == 0.0 and args.z0 == 0.0
    if args.method in ("closed", "both") and not from_origin:
        print(
            "geodesic: closed forms are defined from the origin only; "
            "use --method numeric for other base points",
            file=sys.stderr,
        )
        return EXIT_INVALID

    exit_code = EXIT_OK
    closed = None
    if args.method in ("closed", "both"):
        try:
            closed = closed_form_geodesic(params, tuple(v0))
        except ValueError as exc:
            print(f"geodesic: {exc}", file=sys.stderr)
            return EXIT_INVALID

    if args.method == "closed":
        ts = np.linspace(0.0, args.t_max, args.samples)
        try:
            states = np.hstack([closed.position(ts), numeric_velocity(closed.position, ts)])
        except BranchDomainError as exc:
            print(f"geodesic: {exc}", file=sys.stderr)
            return EXIT_INVALID
        _print_trace(ts, states, *annotate_states(params, states))
        return EXIT_OK

    try:
        traj = integrate_geodesic(
            params,
            GeodesicState(base, v0),
            args.t_max,
            tol=_tol(),
            samples=args.samples,
        )
    except DomainError as exc:
        print(f"geodesic: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not traj.complete:
        exit_code = EXIT_PARTIAL

    _print_trace(traj.ts, traj.states, traj.integrals, traj.speeds)

    if args.method == "both":
        try:
            pos_closed = closed.position(traj.ts)
        except BranchDomainError as exc:
            print(f"geodesic: {exc}", file=sys.stderr)
            return EXIT_INVALID
        disc = float(np.max(np.abs(pos_closed - traj.positions())))
        print(f"max closed-vs-numeric discrepancy: {_fmt(disc)}", file=sys.stderr)
        if disc > 1e-5:
            return EXIT_FAIL
    return exit_code


def cmd_audit(args) -> int:
    if args.count < 1:
        print("audit: count must be at least 1", file=sys.stderr)
        return EXIT_INVALID
    records = run_suite(args.suite, args.seed, args.count)
    ok = True
    for rec in records:
        print(json.dumps(rec))
        ok = ok and rec["status"] == "pass"
    return EXIT_OK if ok else EXIT_FAIL


_PROFILE_BUILDERS = {
    "cylinder": lambda args, m: cylinder(args.a, (args.u_min, args.u_max)),
    "cone": lambda args, m: cone(args.k, (args.u_min, args.u_max)),
    "slice": lambda args, m: slice_profile(args.z0, (args.u_min, args.u_max)),
    "tan": lambda args, m: tan_profile(m, args.c, (args.u_min, args.u_max)),
    "tanh": lambda args, m: tanh_profile(m, args.c, (args.u_min, args.u_max)),
}


def _build_profile(args, params):
    builder = _PROFILE_BUILDERS[args.profile]
    return builder(args, params.m)


def cmd_surface(args) -> int:
    params = MetricParams(args.l, args.m)
    try:
        profile = _build_profile(args, params)
        validate_profile(params, profile)
    except ValueError as exc:
        print(f"surface: {exc}", file=sys.stderr)
        return EXIT_INVALID

    try:
        if args.action == "forms":
            print("u,v,E,F,G,B_uu,B_uv,B_vv")
            for (u, v) in default_grid(profile, nu=args.grid, nv=8):
                forms = second_fundamental_form(params, profile, (u, v))
                e, f = forms.first[0, 0], forms.first[0, 1]
                g = forms.first[1, 1]
                b = forms.second
                vals = [u, v, e, f, g, b[0, 0], b[0, 1], b[1, 1]]
                print(",".join(_fmt(x) for x in vals))
            return EXIT_OK

        if args.action == "parallels":
            print("u0")
            for r in parallel_geodesic_radii(params, profile, args.grid):
                print(_fmt(r))
            return EXIT_OK

        if args.action == "meridians":
            ok, dev = meridian_is_geodesic(params, profile)
            print(json.dumps({"geodesic": ok, "max_deviation": dev}))
            return EXIT_OK

        if args.action == "geodesic":
            s0 = SurfaceGeodesicState(args.su, args.sv, args.sdu, args.sdv)
            traj = surface_geodesic_integrate(
                params, profile, s0, args.t_max, tol=_tol(), samples=args.samples
            )
            print("t,u,v,du,dv,p_v,speed")
            for i, t in enumerate(traj.ts):
                u, v, du, dv = traj.states[i]
                vals = [t, u, v, du, dv, traj.momenta[i], traj.speeds[i]]
                print(",".join(_fmt(x) for x in vals))
            return EXIT_OK if traj.complete else EXIT_PARTIAL
    except (DomainError, ValueError) as exc:
        print(f"surface: {exc}", file=sys.stderr)
        return EXIT_INVALID
    raise AssertionError(f"unhandled action {args.action!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="cvgeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_cls = sub.add_parser("classify", help="name the geometry of (l, m)")
    p_cls.add_argument("--l", type=float, required=True)
    p_cls.add_argument("--m", type=float, required=True)
    p_cls.set_defaults(func=cmd_classify)

    p_geo = sub.add_parser("geodesic", help="trace a geodesic as CSV")
    p_geo.add_argument("--l", type=float, required=True)
    p_geo.add_argument("--m", type=float, required=True)
    p_geo.add_argument("--u", type=float, required=True)
    p_geo.add_argument("--v", type=float, required=True)
    p_geo.add_argument("--w", type=float, required=True)
    p_geo.add_argument("--t-max", type=float, default=1.0, dest="t_max")
    p_geo.add_argument("--samples", type=int, default=101)
    p_geo.add_argument("--method", choices=("closed", "numeric", "both"), default="numeric")
    p_geo.add_argument("--x0", type=float, default=0.0)
    p_geo.add_argument("--y0", type=float, default=0.0)
    p_geo.add_argument("--z0", type=float, default=0.0)
    p_geo.set_defaults(func=cmd_geodesic)

    p_aud = sub.add_parser("audit", help="run a seeded invariant audit (JSON lines)")
    p_aud.add_argument("--suite", choices=sorted(SUITES), required=True)
    p_aud.add_argument("--seed", type=int, default=0)
    p_aud.add_argument("--count", type=int, default=20)
    p_aud.set_defaults(func=cmd_audit)

    p_sur = sub.add_parser("surface", help="analyse a surface of revolution")
    p_sur.add_argument("--l", type=float, required=True)
    p_sur.add_argument("--m", type=float, required=True)
    p_sur.add_argument("--profile", choices=sorted(_PROFILE_BUILDERS), required=True)
    p_sur.add_argument("--action", choices=("forms", "parallels", "meridians", "geodesic"),
                       required=True)
    p_sur.add_argument("--a", type=float, default=1.0, help="cylinder radius")
    p_sur.add_argument("--k", type=float, default=0.5, help="cone slope")
    p_sur.add_argument("--z0", type=float, default=0.0, help="slice height")
    p_sur.add_argument("--c", type=float, default=0.3, help="tan/tanh profile shift")
    p_sur.add_argument("--u-min", type=float, default=0.2, dest="u_min")
    p_sur.add_argument("--u-max", type=float, default=1.0, dest="u_max")
    p_sur.add_argument("--grid", type=int, default=64)
    p_sur.add_argument("--su", type=float, default=0.5, help="surface geodesic u0")
    p_sur.add_argument("--sv", type=float, default=0.0, help="surface geodesic v0")
    p_sur.add_argument("--sdu", type=float, default=0.0, help="surface geodesic u'0")
    p_sur.add_argument("--sdv", type=float, default=1.0, help="surface geodesic v'0")
    p_sur.add_argument("--t-max", type=float, default=5.0, dest="t_max")
    p_sur.add_argument("--samples", type=int, default=101)
    p_sur.set_defaults(func=cmd_surface)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
