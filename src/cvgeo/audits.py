"""Seeded invariant-audit suites behind the `audit` CLI command.

Each suite returns machine-readable records:

    {"check": ..., "status": "pass"|"fail", "residual": float,
     "tolerance": float, "params": {...}}

A record passes iff residual <= tolerance.  Records are produced
deterministically from the seed.
"""

from __future__ import annotations

import math

import numpy as np

from .connection import GeodesicState, frame_sectional, integrate_geodesic
from .profiles import cylinder, random_profile
from .space import MetricParams, Point3
from .surfaces import (
    first_fundamental_form,
    frobenius_scalar,
    meridian_is_geodesic,
    parallel_is_geodesic,
    reference_form_coefficients,
)
from .symmetry import KILLING_NAMES, killing_defect

__all__ = ["SUITES", "run_suite", "random_point", "random_params"]

RHO_MAX = 1.5
Z_MAX = 1.5


def random_params(rng: np.random.Generator) -> MetricParams:
    l, m = rng.uniform(-2.0, 2.0, 2)
    return MetricParams(float(l), float(m))


def random_point(params: MetricParams, rng: np.random.Generator) -> Point3:
    """Uniform-in-disk point, capped inside the m < 0 boundary."""
    cap = RHO_MAX
    if params.m < 0.0:
        cap = min(cap, 0.7 / math.sqrt(-params.m))
    r = cap * math.sqrt(rng.uniform())
    th = rng.uniform(0.0, 2.0 * math.pi)
    return Point3(r * math.cos(th), r * math.sin(th), rng.uniform(-Z_MAX, Z_MAX))


def _record(check: str, residual: float, tolerance: float, params: dict) -> dict:
    return {
        "check": check,
        "status": "pass" if residual <= tolerance else "fail",
        "residual": float(residual),
        "tolerance": float(tolerance),
        "params": params,
    }


def suite_killing(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        params = random_params(rng)
        p = random_point(params, rng)
        which = KILLING_NAMES[i % 4]
        res = killing_defect(params, which, p)
        out.append(
            _record(
                "killing-defect",
                res,
                1e-8,
                {"l": params.l, "m": params.m, "field": which,
                 "point": [p.x, p.y, p.z]},
            )
        )
    return out


def suite_integrals(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        params = random_params(rng)
        v0 = rng.uniform(-1.0, 1.0, 3)
        while np.linalg.norm(v0) < 0.2:
            v0 = rng.uniform(-1.0, 1.0, 3)
        t_max = 1.0
        if params.m < 0.0:
            t_max = min(t_max, 1.2 / (math.sqrt(-params.m) * float(np.linalg.norm(v0))))
        traj = integrate_geodesic(
            params, GeodesicState(Point3(0.0, 0.0, 0.0), v0), t_max, tol=1e-10
        )
        scale = max(float(np.max(np.abs(traj.integrals[0]))), traj.speeds[0])
        drift = float(np.max(np.abs(traj.integrals - traj.integrals[0]))) / scale
        sdrift = float(np.max(np.abs(traj.speeds - traj.speeds[0]))) / traj.speeds[0]
        out.append(
            _record(
                "first-integral-drift",
                max(drift, sdrift),
                1e-8,
                {"l": params.l, "m": params.m, "v0": [float(c) for c in v0],
                 "t_max": t_max},
            )
        )
    return out


def suite_curvature(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        which = i % 3
        if which == 0:
            # product case: K(E1, E2) = 4m, mixed planes flat
            m = float(rng.uniform(-2.0, 2.0))
            params = MetricParams(0.0, m)
            p = random_point(params, rng)
            k12, k13 = frame_sectional(params, p)
            res = max(abs(k12 - 4.0 * m), abs(k13))
            out.append(
                _record("product-sectional", res, 1e-8,
                        {"l": 0.0, "m": m, "point": [p.x, p.y, p.z]})
            )
        elif which == 1:
            # constant-curvature case 4m = l^2: plane independence
            l = float(rng.uniform(0.5, 2.0))
            params = MetricParams(l, 0.25 * l * l)
            p = random_point(params, rng)
            k12, k13 = frame_sectional(params, p)
            out.append(
                _record("const-curvature-spread", abs(k12 - k13), 1e-8,
                        {"l": l, "m": params.m, "point": [p.x, p.y, p.z]})
            )
        else:
            # flat case: every sectional curvature vanishes
            params = MetricParams(0.0, 0.0)
            p = random_point(params, rng)
            k12, k13 = frame_sectional(params, p)
            out.append(
                _record("flat-sectional", max(abs(k12), abs(k13)), 1e-9,
                        {"l": 0.0, "m": 0.0, "point": [p.x, p.y, p.z]})
            )
    return out


def suite_frobenius(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        params = random_params(rng)
        p = random_point(params, rng)
        res = abs(frobenius_scalar(params, (p.x, p.y, p.z)) - params.l)
        out.append(
            _record("frobenius-scalar", res, 1e-8,
                    {"l": params.l, "m": params.m, "point": [p.x, p.y, p.z]})
        )
    return out


def suite_surfaces(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        params = random_params(rng)
        prof = random_profile(params, rng)
        lo, hi = prof.u_domain
        u = float(rng.uniform(lo, hi))
        v = float(rng.uniform(0.0, 2.0 * math.pi))
        kind = i % 3
        if kind == 0:
            form = first_fundamental_form(params, prof, (u, v))
            e, f, g = reference_form_coefficients(params, prof, u)
            res = max(
                abs(form[0, 0] - e), abs(form[0, 1] - f), abs(form[1, 1] - g)
            )
            out.append(
                _record("pullback-coefficients", res, 1e-10,
                        {"l": params.l, "m": params.m, "u": u, "v": v,
                         "profile": prof.args})
            )
        elif kind == 1:
            # the parallel criterion must accept every critical radius
            om, phi = prof.args["om"], prof.args["phi"]
            base = (0.5 * math.pi - phi) / om
            step = math.pi / om
            u_star = base + round((u - base) / step) * step
            ok, res = parallel_is_geodesic(params, prof, u_star)
            out.append(
                _record("parallel-critical-radius", 0.0 if ok else abs(res), 1e-10,
                        {"l": params.l, "m": params.m, "u0": u_star,
                         "profile": prof.args})
            )
        else:
            if params.l == 0.0 or rng.uniform() < 0.5:
                # every meridian of a product-space surface is a geodesic
                params0 = MetricParams(0.0, params.m)
                okm, dev = meridian_is_geodesic(params0, prof)
                out.append(
                    _record("meridian-product-constancy", dev, 1e-8,
                            {"l": 0.0, "m": params.m, "verdict": okm,
                             "profile": prof.args})
                )
            else:
                # with twist, cylinders keep all meridians geodesic
                a = prof.f(0.5 * (lo + hi))
                okm, dev = meridian_is_geodesic(params, cylinder(a, (lo, hi)))
                out.append(
                    _record("meridian-cylinder-constancy", dev, 1e-8,
                            {"l": params.l, "m": params.m, "a": a,
                             "verdict": okm})
                )
    return out


SUITES = {
    "killing": suite_killing,
    "integrals": suite_integrals,
    "curvature": suite_curvature,
    "frobenius": suite_frobenius,
    "surfaces": suite_surfaces,
}


def run_suite(name: str, seed: int, count: int) -> list[dict]:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed, count)
