"""Killing vector fields, their Killing-equation defects and first integrals.

The isometry algebra of the metric family contains the four fields (frame
components converted to coordinates)

    X = (2 m x y,      D - 2 m x^2,  -l x / 2)
    Y = (D - 2 m y^2,  2 m x y,       l y / 2)
    Z = (0, 0, 1)
    R = (-y, x, 0)                    rotation about the z axis

with D = 1 + m (x^2 + y^2).  Each one pairs with the velocity of any
geodesic to a conserved quantity g(v, K); from the origin with velocity
(u, v, w) the four constants are (v, u, w, 0).

The vanishing rotational integral confines every origin geodesic to a
surface: a circular cylinder l w (x^2+y^2) + 2 v x - 2 u y = 0 when both l
and w are nonzero, else the vertical plane v x - u y = 0.  The tests
validate these containment surfaces against the integrator; see
docs/geodesic_atlas.md for the sign conventions.
"""

from __future__ import annotations

import numpy as np

from .connection import GeodesicState, christoffel
from .space import MetricParams, _xyz, metric_tensor, require_in_domain

__all__ = [
    "KILLING_NAMES",
    "killing_eval",
    "killing_defect",
    "field_killing_defect",
    "first_integrals",
]

KILLING_NAMES = ("X", "Y", "Z", "R")


def killing_eval(params: MetricParams, which: str, p) -> np.ndarray:
    """Coordinate components of the named Killing field at p."""
    require_in_domain(params, p)
    x, y, _ = _xyz(p)
    l, m = params.l, params.m
    if which == "X":
        d = 1.0 + m * (x * x + y * y)
        return np.array([2.0 * m * x * y, d - 2.0 * m * x * x, -0.5 * l * x])
    if which == "Y":
        d = 1.0 + m * (x * x + y * y)
        return np.array([d - 2.0 * m * y * y, 2.0 * m * x * y, 0.5 * l * y])
    if which == "Z":
        return np.array([0.0, 0.0, 1.0])
    if which == "R":
        return np.array([-y, x, 0.0])
    raise ValueError(f"unknown Killing field {which!r}; expected one of {KILLING_NAMES}")


def field_killing_defect(params: MetricParams, field, p) -> float:
    """Max-norm of nabla_i K_j + nabla_j K_i for an arbitrary field.

    The field's metric-lowered components are differentiated by central
    differences (step 1e-6); the connection term uses analytic Christoffels.
    Zero (to discretisation error) exactly for Killing fields.
    """
    x, y, z = _xyz(p)
    h = 1e-6

    def lowered(q):
        return metric_tensor(params, q) @ np.asarray(field(q), dtype=float)

    dW = np.zeros((3, 3))
    for a, (dx, dy, dz) in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        wp = lowered((x + h * dx, y + h * dy, z + h * dz))
        wm = lowered((x - h * dx, y - h * dy, z - h * dz))
        dW[a] = (wp - wm) / (2.0 * h)
    w0 = lowered((x, y, z))
    gam = christoffel(params, p)
    nabla = dW - np.einsum("kij,k->ij", gam, w0)
    return float(np.max(np.abs(nabla + nabla.T)))


def killing_defect(params: MetricParams, which: str, p) -> float:
    """Killing-equation defect of the named basis field at p."""
    return field_killing_defect(params, lambda q: killing_eval(params, which, q), p)


def first_integrals(params: MetricParams, state: GeodesicState) -> np.ndarray:
    """(g(v, X), g(v, Y), g(v, Z), g(v, R)) at the state.

    Constant along geodesics; from the origin with velocity (u, v, w) the
    values are (v, u, w, 0).  The lowered velocity is
    g v = (vx/D^2 + alpha w3, vy/D^2 + beta w3, w3) with w3 = omega^3(v),
    and each field is paired with it inline.
    """
    p = state.point
    require_in_domain(params, p)
    x, y, _ = _xyz(p)
    vx, vy, vz = map(float, state.velocity)
    l, m = params.l, params.m
    D = 1.0 + m * (x * x + y * y)
    al = 0.5 * l * y / D
    be = -0.5 * l * x / D
    w3 = al * vx + be * vy + vz
    q = 1.0 / (D * D)
    gx = q * vx + al * w3
    gy = q * vy + be * w3
    mxy = 2.0 * m * x * y
    ints = np.array(
        [
            mxy * gx + (D - 2.0 * m * x * x) * gy - 0.5 * l * x * w3,
            (D - 2.0 * m * y * y) * gx + mxy * gy + 0.5 * l * y * w3,
            w3,
            x * gy - y * gx,
        ]
    )
    return ints + 0.0  # a zero integral is +0.0, never -0.0
