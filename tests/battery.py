"""The 60-case closed-form-vs-oracle battery shared by the test modules.

Each case fixes parameters, an initial velocity and a horizon chosen so
that periodic families cover at least one full period and boundary-bound
families stop while the integrator is still comfortably accurate.
`dense_states` is the dense output between the knots of a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from cvgeo import _rk
from cvgeo.closed_forms import CaseKind, closed_form_geodesic, discriminant
from cvgeo.connection import GeodesicState, _geodesic_rhs, integrate_geodesic
from cvgeo.space import MetricParams, Point3

ORACLE_TOL = 1e-10


@dataclass(frozen=True)
class Case:
    l: float
    m: float
    v0: tuple[float, float, float]
    kind: CaseKind
    horizon: float

    @property
    def params(self) -> MetricParams:
        return MetricParams(self.l, self.m)


def _parabolic_w(l, m, u, v, sign=1.0):
    return sign * 2.0 * math.hypot(u, v) * math.sqrt(-m) / abs(l)


def build_cases() -> list[Case]:
    raw: list[tuple[float, float, tuple, CaseKind]] = []

    trig = [
        (1.0, 1.0, (1.0, 0.0, 1.0)),
        (2.0, 1.0, (1.0, 0.0, 1.0)),          # 4m = l^2, round case
        (2.0, 1.0, (1.0, 0.5, 0.7)),          # 4m = l^2
        (0.5, 0.0625, (1.0, 0.0, 1.0)),       # 4m = l^2
        (1.0, 0.25, (0.8, -0.5, 1.2)),
        (-1.5, 0.6, (0.5, 0.4, -0.9)),
        (1.5, 2.0, (0.0, 0.0, 1.3)),          # vertical axis
        (2.0, -1.0, (1.0, 0.0, math.sqrt(2.0))),  # m < 0 with positive discriminant
        (1.2, -0.3, (0.4, 0.3, 1.5)),
        (0.7, 0.9, (1.1, -0.2, 0.6)),
        (-2.0, 1.5, (0.3, 0.8, 0.5)),
        (1.0, 1.0, (0.2, -1.1, 0.8)),
        (2.2, 0.4, (-0.6, 0.9, 1.0)),
        (1.4, -0.2, (0.5, 0.0, 2.0)),
    ]
    raw += [(l, m, v0, CaseKind.TRIG_TWISTED) for l, m, v0 in trig]

    hyp = [
        (1.0, -1.0, (1.0, 0.0, 0.5)),
        (2.0, -1.5, (0.8, 0.3, 0.4)),
        (-1.0, -0.8, (0.9, -0.3, 0.6)),
        (0.8, -2.0, (1.0, 0.2, 0.3)),
        (1.5, -0.5, (1.2, 0.0, 0.7)),
        (1.0, -1.0, (0.5, 0.5, 0.9)),
        (-2.0, -0.4, (1.3, 0.0, 0.5)),
        (0.6, -1.2, (0.7, 0.7, 0.2)),
    ]
    raw += [(l, m, v0, CaseKind.HYP_TWISTED) for l, m, v0 in hyp]

    para_specs = [
        (2.0, -1.0, 1.0, 0.0, 1.0),
        (1.0, -1.0, 0.5, 0.0, 1.0),
        (-1.0, -0.25, 1.0, 0.0, 1.0),
        (1.5, -0.5, 0.6, 0.3, 1.0),
        (0.8, -0.9, 0.4, -0.2, 1.0),
        (2.5, -1.6, 0.3, 0.3, -1.0),
    ]
    for l, m, u, v, sign in para_specs:
        w = _parabolic_w(l, m, u, v, sign)
        raw.append((l, m, (u, v, w), CaseKind.PARABOLIC_TWISTED))

    heis = [
        (1.0, (1.0, 0.0, 1.0)),
        (-2.0, (0.5, 0.5, 0.8)),
        (1.4, (1.2, -0.3, -0.6)),
        (1.0, (0.0, 0.0, 1.0)),
        (1.5, (0.9, 0.1, 0.8)),
        (-1.1, (0.3, -0.8, 1.1)),
        (2.0, (1.0, 0.0, 0.5)),
        (1.0, (0.4, 0.7, -0.9)),
    ]
    raw += [(l, 0.0, v0, CaseKind.HEISENBERG_VERTICAL) for l, v0 in heis]

    planar = [
        (1.0, 1.0, (1.0, 0.0, 0.0)),
        (0.0, 1.0, (1.0, 2.0, 0.0)),
        (0.0, 2.5, (0.5, -0.5, 0.0)),
        (2.0, 0.5, (0.8, 0.6, 0.0)),
        (2.0, 0.0, (0.5, 0.5, 0.0)),
        (0.0, 0.0, (1.0, 2.0, 0.0)),
        (-1.3, 0.0, (0.7, -0.4, 0.0)),
        (1.0, 0.0, (-1.0, 0.0, 0.0)),
        (0.0, -1.0, (1.0, 0.3, 0.0)),
        (1.3, -0.6, (0.4, -0.8, 0.0)),
        (0.0, -2.0, (0.6, 0.0, 0.0)),
        (-0.8, -1.5, (0.5, 0.5, 0.0)),
    ]
    raw += [(l, m, v0, CaseKind.PLANAR_RADIAL) for l, m, v0 in planar]

    product = [
        (1.0, (1.0, 0.0, 1.0)),
        (0.5, (0.7, 0.3, -0.8)),
        (2.0, (0.6, -0.4, 1.1)),
        (1.5, (0.0, 0.0, 1.0)),
        (0.25, (1.2, 0.0, 0.5)),
        (-1.0, (1.0, 0.0, 1.0)),
        (-0.5, (0.8, 0.4, 0.6)),
        (-2.0, (0.4, -0.3, -0.9)),
        (-1.2, (0.9, 0.2, 0.4)),
        (-0.7, (0.0, 0.0, -1.2)),
        (0.0, (1.0, 2.0, 3.0)),
        (0.0, (0.3, -0.5, 0.8)),
    ]
    raw += [(0.0, m, v0, CaseKind.PRODUCT_VERTICAL) for m, v0 in product]

    cases = []
    for l, m, v0, kind in raw:
        cases.append(Case(l, m, v0, kind, _horizon(l, m, v0, kind)))
    assert len(cases) == 60
    return cases


def _horizon(l, m, v0, kind) -> float:
    u, v, w = v0
    b = math.hypot(u, v)
    params = MetricParams(l, m)
    a_sq = discriminant(params, v0)
    if kind is CaseKind.TRIG_TWISTED:
        return 1.1 * 2.0 * math.pi / math.sqrt(a_sq)
    if kind is CaseKind.HYP_TWISTED:
        return 3.0 / math.sqrt(-a_sq)
    if kind is CaseKind.PARABOLIC_TWISTED:
        return 6.0 / abs(l * w)
    if kind is CaseKind.HEISENBERG_VERTICAL:
        return 2.2 * math.pi / abs(l * w)
    if kind is CaseKind.PLANAR_RADIAL:
        if m > 0.0:
            return 0.375 * math.pi / (math.sqrt(m) * b)
        if m == 0.0:
            return 2.0
        return 2.0 / (math.sqrt(-m) * b)
    # product vertical
    if b == 0.0:
        return 2.0
    if m > 0.0:
        return 0.375 * math.pi / (math.sqrt(m) * b)
    if m == 0.0:
        return 2.0
    return 2.0 / (math.sqrt(-m) * b)


def nearest_radius_extremum(profile) -> float:
    """u with f'(u) = 0 closest to zero, for f = a + b sin(om u + phi).

    Extrema sit at om u + phi = pi/2 + k pi.
    """
    om, phi = profile.args["om"], profile.args["phi"]
    base = (0.5 * math.pi - phi) / om
    step = math.pi / om
    k = round(-base / step)
    return base + k * step


def dense_states(traj, t_query) -> np.ndarray:
    """States of a knot-output geodesic trajectory at t_query: the Hermite
    interpolant of `_rk.hermite_sample` on its knots, with the rhs values
    there recomputed by the rhs that made them, so that a query on the grid
    of `integrate_geodesic(..., samples=n)` gives its rows bit for bit."""
    rhs = _geodesic_rhs(float(traj.params.l), float(traj.params.m))
    return _rk.hermite_sample(traj.ts, traj.states, [rhs(y) for y in traj.states.tolist()], t_query)


def run_case(case: Case, tol: float = ORACLE_TOL) -> dict:
    """Integrate the oracle at accepted steps and compare the closed form.

    Returns the trajectory, the closed form, the sup-norm deviations over
    the knots and over 401 dense-output samples, relative first-integral
    and speed drifts, and the containment residual along the oracle path.
    """
    params = case.params
    v0 = np.array(case.v0, dtype=float)
    traj = integrate_geodesic(params, GeodesicState(Point3(0.0, 0.0, 0.0), v0), case.horizon, tol=tol)
    cf = closed_form_geodesic(params, case.v0)
    dev = float(np.max(np.abs(cf.position(traj.ts) - traj.positions())))
    t_dense = np.linspace(0.0, traj.ts[-1], 401)
    dense_dev = float(np.max(np.abs(cf.position(t_dense) - dense_states(traj, t_dense)[:, :3])))

    i0 = traj.integrals[0]
    scale = max(float(np.max(np.abs(i0))), float(traj.speeds[0]))
    integral_drift = float(np.max(np.abs(traj.integrals - i0))) / scale
    speed_drift = float(np.max(np.abs(traj.speeds - traj.speeds[0]))) / float(traj.speeds[0])

    pos = traj.positions()
    rho2 = pos[:, 0] ** 2 + pos[:, 1] ** 2
    u, v, w = case.v0
    if case.l != 0.0 and w != 0.0:
        containment = float(np.max(np.abs(case.l * w * rho2 + 2.0 * v * pos[:, 0] - 2.0 * u * pos[:, 1])))
        plane = None
    else:
        containment = float(np.max(np.abs(v * pos[:, 0] - u * pos[:, 1])))
        plane = containment
    return {
        "case": case,
        "trajectory": traj,
        "closed": cf,
        "deviation": dev,
        "dense_deviation": dense_dev,
        "integral_drift": integral_drift,
        "speed_drift": speed_drift,
        "containment": containment,
        "plane": plane,
    }
