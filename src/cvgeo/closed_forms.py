"""Closed-form geodesics through the origin, one formula for every case.

For the initial velocity (u, v, w) and parameters (l, m) write
b^2 = u^2 + v^2, L = l w, mu = 4 m b^2 and the discriminant
A^2 = L^2 + mu.  Time enters through a pair (s, c), fixed up to a common
positive factor:

    A^2 > 0:   (sin(A t / 2) / A, cos(A t / 2))
    A^2 < 0:   (tanh(C t / 2) / C, 1),  C^2 = -A^2
    A^2 = 0:   (t / 2, 1)

and then

    x + i y   = 2 (u + i v) s / (c - i L s)
    vx + i vy = (u + i v) (c^2 + A^2 s^2) / (c - i L s)^2
    vz        = w + (l^2 w / 4) (x^2 + y^2)
    z         = w t + 2 l b^2 sign(L) H      (z = w t when L = 0)

where H = (T - |L| t / 2) / mu and T is the continuous arg(c + i |L| s).
H is evaluated without cancellation: for A^2 > 0,
H = t / (2 (A + |L|)) + arctan(mu Y) / mu with
Y = -s c / ((A + |L|) (c^2 + |L| A s^2)) (H = Y at mu = 0); for A^2 <= 0,
H = (arctan(|L| s / c) - |L| t / 2) / mu, where mu <= -L^2 < 0.

At m = 0 this is the Heisenberg circle, at w = 0 the planar ray and at
l = 0 the product geodesic; for m > 0 the last two pass through chart
infinity (the antipode) and re-enter from the opposite side.  The
velocity is the exact t-derivative of the position.  The case kinds of
`dispatch_case` name the families (trigonometric, hyperbolic and
parabolic twisted, Heisenberg, planar radial, product vertical);
evaluation does not read them.  Every formula here is validated against
the Runge-Kutta oracle in `connection`; the adjudication record for the
variants that failed validation lives in docs/geodesic_atlas.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .space import MetricParams

__all__ = [
    "CaseKind",
    "GeodesicCase",
    "discriminant",
    "dispatch_case",
    "ClosedFormGeodesic",
    "closed_form_geodesic",
]

# Relative tolerance within which `dispatch_case` names A^2 = 0 (parabolic);
# evaluation branches on the exact sign of A^2, continuously across it.
PARABOLIC_RTOL = 1e-12


class CaseKind(Enum):
    TRIG_TWISTED = "TrigTwisted"
    HYP_TWISTED = "HypTwisted"
    PARABOLIC_TWISTED = "ParabolicTwisted"
    HEISENBERG_VERTICAL = "HeisenbergVertical"
    PLANAR_RADIAL = "PlanarRadial"
    PRODUCT_VERTICAL = "ProductVertical"


@dataclass(frozen=True)
class GeodesicCase:
    kind: CaseKind
    a_sq: float


def discriminant(params: MetricParams, v0) -> float:
    """A^2 = l^2 w^2 + 4 m (u^2 + v^2)."""
    u, v, w = (float(c) for c in v0)
    return params.l ** 2 * w * w + 4.0 * params.m * (u * u + v * v)


def dispatch_case(params: MetricParams, v0) -> GeodesicCase:
    """Total case classification over nonzero initial velocities."""
    u, v, w = (float(c) for c in v0)
    if u == 0.0 and v == 0.0 and w == 0.0:
        raise ValueError("initial velocity must be nonzero")
    l, m = params.l, params.m
    a_sq = discriminant(params, v0)
    if l == 0.0 and w != 0.0:
        return GeodesicCase(CaseKind.PRODUCT_VERTICAL, a_sq)
    if w == 0.0:
        return GeodesicCase(CaseKind.PLANAR_RADIAL, a_sq)
    if m == 0.0:
        return GeodesicCase(CaseKind.HEISENBERG_VERTICAL, a_sq)
    scale = max(l * l * w * w, 4.0 * abs(m) * (u * u + v * v))
    if abs(a_sq) <= PARABOLIC_RTOL * scale:
        return GeodesicCase(CaseKind.PARABOLIC_TWISTED, a_sq)
    kind = CaseKind.TRIG_TWISTED if a_sq > 0.0 else CaseKind.HYP_TWISTED
    return GeodesicCase(kind, a_sq)


@dataclass(frozen=True)
class ClosedFormGeodesic:
    """Origin geodesic: position and velocity from the one closed form."""

    params: MetricParams
    v0: tuple[float, float, float]

    def _pair(self, t):
        """t as an array, L, mu, A^2 and the pair (s, c)."""
        t = np.asarray(t, dtype=float)
        u, v, w = self.v0
        L, mu = self.params.l * w, 4.0 * self.params.m * (u * u + v * v)
        a_sq = L * L + mu
        if a_sq > 0.0:
            A = math.sqrt(a_sq)
            return t, L, mu, a_sq, np.sin(0.5 * A * t) / A, np.cos(0.5 * A * t)
        if a_sq < 0.0:
            C = math.sqrt(-a_sq)
            return t, L, mu, a_sq, np.tanh(0.5 * C * t) / C, 1.0
        return t, L, mu, a_sq, 0.5 * t, 1.0

    def position(self, t) -> np.ndarray:
        """Coordinates at time(s) t; shape (..., 3)."""
        t, L, mu, a_sq, s, c = self._pair(t)
        u, v, w = self.v0
        # 2 s / (c - i L s) = 2 (s c + i L s^2) / (c^2 + L^2 s^2)
        k = 2.0 / (c * c + L * L * s * s)
        re, im = k * s * c, k * L * s * s
        z = w * t
        if L != 0.0:
            aL, b2 = abs(L), u * u + v * v
            if a_sq > 0.0:
                A = math.sqrt(a_sq)
                Y = -s * c / ((A + aL) * (c * c + aL * A * s * s))
                H = t / (2.0 * (A + aL)) + (np.arctan(mu * Y) / mu if mu != 0.0 else Y)
            else:
                H = (np.arctan(aL * s / c) - 0.5 * aL * t) / mu
            z = z + (2.0 * self.params.l * b2 if L > 0.0 else -2.0 * self.params.l * b2) * H
        return np.stack([u * re - v * im, v * re + u * im, z], axis=-1)

    def velocity(self, t) -> np.ndarray:
        """Exact t-derivative of `position` at time(s) t; shape (..., 3)."""
        t, L, _, a_sq, s, c = self._pair(t)
        u, v, w = self.v0
        l = self.params.l
        # (c^2 + A^2 s^2) / (c - i L s)^2 = k (c^2 - L^2 s^2 + 2 i L s c)
        den = c * c + L * L * s * s
        k = (c * c + a_sq * s * s) / (den * den)
        re, im = k * (c * c - L * L * s * s), k * 2.0 * L * s * c
        # x^2 + y^2 = 4 b^2 s^2 / den
        vz = w + (l * l * w) * (u * u + v * v) * s * s / den
        return np.stack([u * re - v * im, v * re + u * im, vz], axis=-1)


def closed_form_geodesic(params: MetricParams, v0) -> ClosedFormGeodesic:
    u, v, w = (float(c) for c in v0)
    if u == 0.0 and v == 0.0 and w == 0.0:
        raise ValueError("initial velocity must be nonzero")
    return ClosedFormGeodesic(params=params, v0=(u, v, w))
