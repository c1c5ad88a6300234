"""Seeded invariant-audit suites behind the `audit` CLI command.

A suite is a per-record check: check(rng, i) draws record i's inputs from
the suite's one generator and returns (check, residual, tolerance, params).
`run_suite` seeds the generator, runs the check `count` times and makes
each machine-readable record:

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


def _killing(rng: np.random.Generator, i: int):
    params = random_params(rng)
    p = random_point(params, rng)
    which = KILLING_NAMES[i % 4]
    return ("killing-defect", killing_defect(params, which, p), 1e-8,
            {"l": params.l, "m": params.m, "field": which, "point": [p.x, p.y, p.z]})


def _integrals(rng: np.random.Generator, i: int):
    params = random_params(rng)
    v0 = rng.uniform(-1.0, 1.0, 3)
    while np.linalg.norm(v0) < 0.2:
        v0 = rng.uniform(-1.0, 1.0, 3)
    t_max = 1.0
    if params.m < 0.0:
        t_max = min(t_max, 1.2 / (math.sqrt(-params.m) * float(np.linalg.norm(v0))))
    traj = integrate_geodesic(params, GeodesicState(Point3(0.0, 0.0, 0.0), v0), t_max, tol=1e-10)
    scale = max(float(np.max(np.abs(traj.integrals[0]))), traj.speeds[0])
    drift = float(np.max(np.abs(traj.integrals - traj.integrals[0]))) / scale
    sdrift = float(np.max(np.abs(traj.speeds - traj.speeds[0]))) / traj.speeds[0]
    return ("first-integral-drift", max(drift, sdrift), 1e-8,
            {"l": params.l, "m": params.m, "v0": [float(c) for c in v0], "t_max": t_max})


def _curvature(rng: np.random.Generator, i: int):
    which = i % 3
    if which == 0:
        # product case: K(E1, E2) = 4m, mixed planes flat
        m = float(rng.uniform(-2.0, 2.0))
        params = MetricParams(0.0, m)
        p = random_point(params, rng)
        k12, k13 = frame_sectional(params, p)
        return ("product-sectional", max(abs(k12 - 4.0 * m), abs(k13)), 1e-8,
                {"l": 0.0, "m": m, "point": [p.x, p.y, p.z]})
    if which == 1:
        # constant-curvature case 4m = l^2: plane independence
        l = float(rng.uniform(0.5, 2.0))
        params = MetricParams(l, 0.25 * l * l)
        p = random_point(params, rng)
        k12, k13 = frame_sectional(params, p)
        return ("const-curvature-spread", abs(k12 - k13), 1e-8,
                {"l": l, "m": params.m, "point": [p.x, p.y, p.z]})
    # flat case: every sectional curvature vanishes
    params = MetricParams(0.0, 0.0)
    p = random_point(params, rng)
    k12, k13 = frame_sectional(params, p)
    return ("flat-sectional", max(abs(k12), abs(k13)), 1e-9,
            {"l": 0.0, "m": 0.0, "point": [p.x, p.y, p.z]})


def _frobenius(rng: np.random.Generator, i: int):
    params = random_params(rng)
    p = random_point(params, rng)
    return ("frobenius-scalar", abs(frobenius_scalar(params, (p.x, p.y, p.z)) - params.l), 1e-8,
            {"l": params.l, "m": params.m, "point": [p.x, p.y, p.z]})


def _surfaces(rng: np.random.Generator, i: int):
    params = random_params(rng)
    prof = random_profile(params, rng)
    lo, hi = prof.u_domain
    u = float(rng.uniform(lo, hi))
    v = float(rng.uniform(0.0, 2.0 * math.pi))
    kind = i % 3
    if kind == 0:
        form = first_fundamental_form(params, prof, (u, v))
        e, f, g = reference_form_coefficients(params, prof, u)
        res = max(abs(form[0, 0] - e), abs(form[0, 1] - f), abs(form[1, 1] - g))
        return ("pullback-coefficients", res, 1e-10,
                {"l": params.l, "m": params.m, "u": u, "v": v, "profile": prof.args})
    if kind == 1:
        # the parallel criterion must accept every critical radius
        om, phi = prof.args["om"], prof.args["phi"]
        base = (0.5 * math.pi - phi) / om
        step = math.pi / om
        u_star = base + round((u - base) / step) * step
        ok, res = parallel_is_geodesic(params, prof, u_star)
        return ("parallel-critical-radius", 0.0 if ok else abs(res), 1e-10,
                {"l": params.l, "m": params.m, "u0": u_star, "profile": prof.args})
    if params.l == 0.0 or rng.uniform() < 0.5:
        # every meridian of a product-space surface is a geodesic
        okm, dev = meridian_is_geodesic(MetricParams(0.0, params.m), prof)
        return ("meridian-product-constancy", dev, 1e-8,
                {"l": 0.0, "m": params.m, "verdict": okm, "profile": prof.args})
    # with twist, cylinders keep all meridians geodesic
    a = prof.f(0.5 * (lo + hi))
    okm, dev = meridian_is_geodesic(params, cylinder(a, (lo, hi)))
    return ("meridian-cylinder-constancy", dev, 1e-8,
            {"l": params.l, "m": params.m, "a": a, "verdict": okm})


# suite name -> check(rng, i) -> (check, residual, tolerance, params) of record i
SUITES = {
    "killing": _killing,
    "integrals": _integrals,
    "curvature": _curvature,
    "frobenius": _frobenius,
    "surfaces": _surfaces,
}


def run_suite(name: str, seed: int, count: int) -> list[dict]:
    """The first `count` records of suite `name` from `seed`; KeyError for an
    unknown suite."""
    check = SUITES[name]
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        name_i, residual, tolerance, params = check(rng, i)
        out.append({
            "check": name_i,
            "status": "pass" if residual <= tolerance else "fail",
            "residual": float(residual),
            "tolerance": float(tolerance),
            "params": params,
        })
    return out
