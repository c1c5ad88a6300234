"""Closed-form geodesics through the origin, for every parameter case.

Case dispatch for initial velocity (u, v, w) and parameters (l, m), on the
discriminant A^2 = l^2 w^2 + 4 m (u^2 + v^2):

    l = 0, w != 0            product-vertical   (planar factor geodesic + z = w t)
    w = 0 (any l)            planar-radial      (straight ray in the conformal disk)
    m = 0, l != 0, w != 0    heisenberg         (horizontal circle + vertical drift)
    otherwise  A^2 > 0       trig-twisted       (SU(2), SL(2,R)~, round-sphere cases)
               A^2 < 0       hyp-twisted        (SL(2,R)~ only)
               A^2 = 0       parabolic-twisted  (SL(2,R)~ borderline)

The twisted families share the shape

    x + i y = r(t) * exp(i (theta0 + T(t))) ,   (u, v) = b (cos theta0, sin theta0),

    trig:      r = 2 sin(A t / 2) / sqrt(A^2 cos^2(A t/2) + l^2 w^2 sin^2(A t/2))
    hyp:       r = 2 tanh(C t / 2) / sqrt(C^2 + l^2 w^2 tanh^2(C t / 2)),  C^2 = -A^2
    parabolic: r = 2 t / sqrt(4 + l^2 w^2 t^2)

    z = w t - (l^2 w / 4 m) t + (l / 2 m) T

with the rotation angle T = arctan(l w tan(A t / 2) / A) continued through
the tangent poles (`unwrap_T`), T = arctan(l w tanh(C t / 2) / C), and
T = arctan(l w t / 2) respectively.  Each family computes only (r, T); the
rotation and the height z are evaluated once, in a tail the three share,
and the planar-radial and product-vertical cases share one tan/linear/tanh
conformal radius.  Every formula here is validated against the Runge-Kutta
oracle in `connection`; the adjudication record for the variants that
failed validation lives in docs/geodesic_atlas.md.
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
    "BranchDomainError",
    "discriminant",
    "dispatch_case",
    "unwrap_T",
    "eval_trig_twisted",
    "eval_hyp_twisted",
    "eval_parabolic_twisted",
    "eval_heisenberg",
    "eval_planar_radial",
    "eval_product_vertical",
    "ClosedFormGeodesic",
    "closed_form_geodesic",
    "numeric_velocity",
]

# Relative tolerance deciding A^2 = 0 (parabolic) against its two terms.
PARABOLIC_RTOL = 1e-12


class BranchDomainError(ValueError):
    """Evaluation time leaves the principal branch of the closed form."""


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
    """Total case dispatch over nonzero initial velocities."""
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


def unwrap_T(A: float, lw: float, t) -> np.ndarray:
    """Continuous-in-t branch of arctan(lw * tan(A t / 2) / A), T(0) = 0.

    The principal value jumps by -pi * sign(lw) at each pole of the
    tangent; adding pi * sign(lw) * round(A t / (2 pi)) restores
    continuity.
    """
    if A <= 0.0:
        raise ValueError("A must be positive")
    t = np.asarray(t, dtype=float)
    principal = np.arctan(lw * np.tan(0.5 * A * t) / A)
    return principal + math.pi * np.sign(lw) * np.floor(A * t / (2.0 * math.pi) + 0.5)


def _twisted(params: MetricParams, v0, t, radius_angle) -> np.ndarray:
    """Twisted-family position from the family's `radius_angle(a_sq, lw, t)`,
    which returns (r, T): (u, v) rotated by T and scaled by r, plus the height."""
    u, v, w = (float(c) for c in v0)
    l, m = params.l, params.m
    if m == 0.0:
        raise ValueError("m = 0 belongs to the heisenberg case")
    t = np.asarray(t, dtype=float)
    r, T = radius_angle(discriminant(params, v0), l * w, t)
    cT, sT = np.cos(T), np.sin(T)
    z = w * t - (l * l * w / (4.0 * m)) * t + (l / (2.0 * m)) * T
    return np.stack([r * (u * cT - v * sT), r * (v * cT + u * sT), z], axis=-1)


def eval_trig_twisted(params: MetricParams, v0, t) -> np.ndarray:
    """Twisted geodesic for l != 0, m != 0, w != 0 and A^2 > 0."""

    def radius_angle(a_sq, lw, t):
        A = math.sqrt(a_sq)
        phi = 0.5 * A * t
        s, c = np.sin(phi), np.cos(phi)
        return 2.0 * s / np.sqrt(A * A * c * c + lw * lw * s * s), unwrap_T(A, lw, t)

    return _twisted(params, v0, t, radius_angle)


def eval_hyp_twisted(params: MetricParams, v0, t) -> np.ndarray:
    """Twisted geodesic for A^2 < 0 (forces m < 0)."""

    def radius_angle(a_sq, lw, t):
        if not a_sq < 0.0:
            raise ValueError(f"hyp-twisted case requires A^2 < 0, got {a_sq!r}")
        C = math.sqrt(-a_sq)
        th = np.tanh(0.5 * C * t)
        return 2.0 * th / np.sqrt(C * C + lw * lw * th * th), np.arctan(lw * th / C)

    return _twisted(params, v0, t, radius_angle)


def eval_parabolic_twisted(params: MetricParams, v0, t) -> np.ndarray:
    """Twisted geodesic for A^2 = 0 (forces m < 0)."""

    def radius_angle(a_sq, lw, t):
        return 2.0 * t / np.sqrt(4.0 + lw * lw * t * t), np.arctan(0.5 * lw * t)

    return _twisted(params, v0, t, radius_angle)


def eval_heisenberg(params: MetricParams, v0, t) -> np.ndarray:
    """Heisenberg geodesic (m = 0, l != 0, w != 0).

    The horizontal projection is the circle through the origin of radius
    sqrt(u^2 + v^2) / |l w|; the height is
    z = w t + (b^2 / 2 w) t - (b^2 / (2 l w^2)) sin(l w t),  b^2 = u^2 + v^2.
    """
    u, v, w = (float(c) for c in v0)
    l = params.l
    if l == 0.0 or w == 0.0:
        raise ValueError("heisenberg case requires l != 0 and w != 0")
    t = np.asarray(t, dtype=float)
    lw = l * w
    s, c = np.sin(lw * t), np.cos(lw * t)
    b2 = u * u + v * v
    x = (v * c + u * s - v) / lw
    y = (v * s - u * c + u) / lw
    z = w * t + (0.5 * b2 / w) * t - (0.5 * b2 / (lw * w)) * s
    return np.stack([x, y, z], axis=-1)


def _ray(m: float, u: float, v: float, b: float, t):
    """(x, y) on the ray of direction (u, v)/b, b = |(u, v)| > 0, with the
    conformal radius tan for m > 0, linear for m = 0, tanh for m < 0."""
    if m > 0.0:
        sm = math.sqrt(m)
        r = np.tan(sm * b * t) / sm
    elif m == 0.0:
        r = b * t
    else:
        sm = math.sqrt(-m)
        r = np.tanh(sm * b * t) / sm
    return u * r / b, v * r / b


def eval_planar_radial(params: MetricParams, v0, t) -> np.ndarray:
    """Radial geodesic in the z = 0 slice (w = 0, any l).

    The direction is fixed at (u, v)/b and the conformal radius follows
    tan for m > 0, linear for m = 0, tanh for m < 0 (b^2 = u^2 + v^2).
    For m > 0 the curve passes through chart infinity (the antipode) at
    sqrt(m) b t = pi/2 and re-enters from the opposite side.
    """
    u, v, _ = (float(c) for c in v0)
    b = math.hypot(u, v)
    if b == 0.0:
        raise ValueError("planar case requires a nonzero horizontal velocity")
    t = np.asarray(t, dtype=float)
    x, y = _ray(params.m, u, v, b, t)
    return np.stack([x, y, np.zeros_like(x)], axis=-1)


def eval_product_vertical(params: MetricParams, v0, t) -> np.ndarray:
    """Product-space geodesic (l = 0, w != 0): factor geodesic plus z = w t.

    For m > 0 evaluation is restricted to the principal branch
    |sqrt(m) b t| < pi/2 (equivalently |z| < pi |w| / (2 sqrt(m) b));
    beyond it a BranchDomainError is raised.
    """
    u, v, w = (float(c) for c in v0)
    m = params.m
    if w == 0.0:
        raise ValueError("product-vertical case requires w != 0")
    t = np.asarray(t, dtype=float)
    b = math.hypot(u, v)
    z = w * t
    if b == 0.0:
        x = np.zeros_like(t)
        return np.stack([x, x, z], axis=-1)
    if m > 0.0 and np.max(np.abs(math.sqrt(m) * b * t)) >= 0.5 * math.pi:
        raise BranchDomainError("time leaves the principal branch |sqrt(m) b t| < pi/2")
    x, y = _ray(m, u, v, b, t)
    return np.stack([x, y, z], axis=-1)


_EVALUATORS = {
    CaseKind.TRIG_TWISTED: eval_trig_twisted,
    CaseKind.HYP_TWISTED: eval_hyp_twisted,
    CaseKind.PARABOLIC_TWISTED: eval_parabolic_twisted,
    CaseKind.HEISENBERG_VERTICAL: eval_heisenberg,
    CaseKind.PLANAR_RADIAL: eval_planar_radial,
    CaseKind.PRODUCT_VERTICAL: eval_product_vertical,
}


@dataclass(frozen=True)
class ClosedFormGeodesic:
    """Origin geodesic with case-dispatched closed-form evaluation."""

    params: MetricParams
    v0: tuple[float, float, float]
    case: GeodesicCase

    def position(self, t) -> np.ndarray:
        """Coordinates at time(s) t; shape (..., 3)."""
        return _EVALUATORS[self.case.kind](self.params, self.v0, t)

    def __call__(self, t) -> np.ndarray:
        return self.position(t)


def closed_form_geodesic(params: MetricParams, v0) -> ClosedFormGeodesic:
    u, v, w = (float(c) for c in v0)
    case = dispatch_case(params, (u, v, w))
    return ClosedFormGeodesic(params=params, v0=(u, v, w), case=case)


def numeric_velocity(position_fn, t, h: float = 1e-6) -> np.ndarray:
    """Central-difference velocity of a closed-form position map."""
    t = np.asarray(t, dtype=float)
    return (position_fn(t + h) - position_fn(t - h)) / (2.0 * h)
