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

from .connection import christoffel
from .space import MetricParams, _metric_scalars, _xyz, metric_tensor, require_in_domain

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
    x, y, _ = require_in_domain(params, p)
    l, m = params.l, params.m
    d = _metric_scalars(params, x, y)[0]
    if which == "X":
        return np.array([2.0 * m * x * y, d - 2.0 * m * x * x, -0.5 * l * x])
    if which == "Y":
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
    # the stencil p + h e_a, p - h e_a for a = 0, 1, 2, then p itself: one
    # rows metric call and one stacked product lower the field at all seven
    pts = []
    for dx, dy, dz in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        pts.append((x + h * dx, y + h * dy, z + h * dz))
        pts.append((x - h * dx, y - h * dy, z - h * dz))
    pts.append((x, y, z))
    g = metric_tensor(params, np.array(pts))
    k = np.array([field(q) for q in pts], dtype=float)
    w = (g @ k[:, :, None])[:, :, 0]
    dW = (w[0:6:2] - w[1:6:2]) / (2.0 * h)
    w0 = w[6]
    gam = christoffel(params, p)
    nabla = dW - np.einsum("kij,k->ij", gam, w0)
    return float(np.max(np.abs(nabla + nabla.T)))


def killing_defect(params: MetricParams, which: str, p) -> float:
    """Killing-equation defect of the named basis field at p."""
    return field_killing_defect(params, lambda q: killing_eval(params, which, q), p)


def first_integrals(params: MetricParams, point, velocity) -> np.ndarray:
    """(g(v, X), g(v, Y), g(v, Z), g(v, R)) of a velocity at a point, a
    Point3 or a length-3 sequence, as `state_speed` takes one.

    Constant along geodesics; from the origin with velocity (u, v, w) the
    values are (v, u, w, 0).  The lowered velocity is
    g v = (vx/D^2 + alpha w3, vy/D^2 + beta w3, w3) with w3 = omega^3(v),
    and each field is paired with it inline.
    """
    x, y, _ = require_in_domain(params, point)
    vx, vy, vz = map(float, velocity)
    l, m = params.l, params.m
    D, al, be = _metric_scalars(params, x, y)
    w3 = al * vx + be * vy + vz
    q = 1.0 / (D * D)
    gx = q * vx + al * w3
    gy = q * vy + be * w3
    mxy = 2.0 * m * x * y
    # + 0.0 makes a zero integral +0.0, never -0.0
    return np.array(
        [
            mxy * gx + (D - 2.0 * m * x * x) * gy - 0.5 * l * x * w3 + 0.0,
            (D - 2.0 * m * y * y) * gx + mxy * gy + 0.5 * l * y * w3 + 0.0,
            w3 + 0.0,
            x * gy - y * gx + 0.0,
        ]
    )
