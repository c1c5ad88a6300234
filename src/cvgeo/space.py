"""Pointwise geometry of the Cartan-Vranceanu metric family.

The two-parameter family of Riemannian metrics on (a subset of) R^3 is

    ds^2 = (dx^2 + dy^2) / D^2  +  (dz + (l/2) (y dx - x dy) / D)^2,
    D    = 1 + m (x^2 + y^2),

with real parameters l (twist) and m (curvature).  It contains the product
spaces S^2 x R and H^2 x R, the Heisenberg group Nil3, SU(2), the universal
cover of SL(2,R) and the flat / round constant-curvature geometries.

Coordinates are global Cartesian (x, y, z).  For m >= 0 the underlying
manifold is all of R^3; for m < 0 it is the open solid cylinder
x^2 + y^2 < -1/m, on whose boundary the metric degenerates.

Everything in this module is a pure function of its arguments.  The metric
is stated once: `_metric_scalars` gives D and the coframe coefficients
alpha, beta at one point or at arrays of points, and the metric tensor, the
frame, the Killing fields and the first integrals read them.
`require_in_domain` returns a point's float coordinates once its disk test
passes; `_rows_in_domain` is the same test on arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DomainError",
    "MetricParams",
    "Point3",
    "Frame",
    "SpaceClass",
    "classify",
    "require_in_domain",
    "metric_tensor",
    "frame",
]

# Relative tolerance for the constant-curvature branch test 4m = l^2.
CLASS_EQ_RTOL = 1e-12


class DomainError(ValueError):
    """A point lies outside the manifold (m < 0 disk violated)."""


@dataclass(frozen=True)
class MetricParams:
    """Parameter pair selecting one member of the metric family."""

    l: float
    m: float

    def __post_init__(self):
        if not (math.isfinite(self.l) and math.isfinite(self.m)):
            raise ValueError("metric parameters must be finite")


@dataclass(frozen=True)
class Point3:
    """A point of the underlying manifold, in Cartesian coordinates."""

    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


class SpaceClass(Enum):
    """Which homogeneous geometry a parameter pair realises."""

    EUCLIDEAN_FLAT = "EuclideanFlat"
    PRODUCT_SPHERE = "ProductSphere"
    PRODUCT_HYPERBOLIC = "ProductHyperbolic"
    HEISENBERG = "Heisenberg"
    CONSTANT_POSITIVE = "ConstantPositive"
    SU2 = "SU2"
    SL2R = "SL2R"


@dataclass(frozen=True)
class Frame:
    """Orthonormal frame E1, E2, E3 at a point, in coordinate components."""

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray


def _xyz(p) -> tuple[float, float, float]:
    """Coerce a Point3 or a length-3 sequence to coordinate floats."""
    if isinstance(p, Point3):
        return p.x, p.y, p.z
    x, y, z = p
    return float(x), float(y), float(z)


def require_in_domain(params: MetricParams, p) -> tuple[float, float, float]:
    """The float coordinates (x, y, z) of the point p, a Point3 or a length-3
    sequence; raises DomainError where it lies outside the m < 0 disk."""
    x, y, z = _xyz(p)
    _point_in_domain(params, x, y)
    return x, y, z


def _point_in_domain(params: MetricParams, x: float, y: float) -> None:
    """The disk test of one point on Python floats, where an overflowing
    x^2 + y^2 reads inf rather than a numpy overflow."""
    if params.m < 0.0 and not x * x + y * y < -1.0 / params.m:
        raise _outside_disk(params, x * x + y * y)


def _outside_disk(params: MetricParams, rho2) -> DomainError:
    return DomainError(
        f"point with x^2+y^2 = {float(rho2)!r} outside the disk "
        f"x^2+y^2 < {-1.0 / params.m!r} (m = {params.m!r})"
    )


def classify(params: MetricParams) -> SpaceClass:
    """Map (l, m) to the geometry it realises.

    The branch 4m = l^2 is decided with relative tolerance CLASS_EQ_RTOL so
    that decimal inputs meant to hit the constant-curvature case do.
    """
    l, m = params.l, params.m
    if l == 0.0:
        if m == 0.0:
            return SpaceClass.EUCLIDEAN_FLAT
        return SpaceClass.PRODUCT_SPHERE if m > 0.0 else SpaceClass.PRODUCT_HYPERBOLIC
    if m == 0.0:
        return SpaceClass.HEISENBERG
    scale = max(abs(4.0 * m), l * l)
    if abs(4.0 * m - l * l) <= CLASS_EQ_RTOL * scale:
        return SpaceClass.CONSTANT_POSITIVE
    return SpaceClass.SU2 if m > 0.0 else SpaceClass.SL2R


def _metric_scalars(params: MetricParams, x: float, y: float):
    """D and the coframe coefficients alpha, beta of omega^3 = alpha dx + beta dy + dz."""
    D = 1.0 + params.m * (x * x + y * y)
    half_l = 0.5 * params.l
    return D, half_l * y / D, -half_l * x / D


def _is_rows(p) -> bool:
    """Whether p is an (..., 3) array of points rather than one point."""
    return isinstance(p, np.ndarray) and p.ndim > 1


def _rows_in_domain(params: MetricParams, x, y) -> None:
    """The disk test of arrays of x and y, which broadcast together: raises
    DomainError for the first point, in row order, outside the m < 0 disk."""
    if params.m < 0.0:
        rho2 = x * x + y * y
        outside = ~(rho2 < -1.0 / params.m)
        if outside.any():
            raise _outside_disk(params, rho2[outside][0])


def metric_tensor(params: MetricParams, p) -> np.ndarray:
    """Coordinate components g_ij at p (symmetric positive definite 3x3).

    p is one point, or an (..., 3) array of points for an (..., 3, 3)
    result; both fill the entries from `_metric_scalars` by one body, so a
    row's entries are the one-point call's, bit for bit.
    """
    if _is_rows(p):
        x, y = p[..., 0], p[..., 1]
        _rows_in_domain(params, x, y)
    else:
        x, y, _ = require_in_domain(params, p)
    D, al, be = _metric_scalars(params, x, y)
    q = 1.0 / (D * D)
    g = np.empty(np.shape(x) + (3, 3))
    g[..., 0, 0] = q + al * al
    g[..., 1, 1] = q + be * be
    g[..., 2, 2] = 1.0
    g[..., 0, 1] = g[..., 1, 0] = al * be
    g[..., 0, 2] = g[..., 2, 0] = al
    g[..., 1, 2] = g[..., 2, 1] = be
    return g


def frame(params: MetricParams, p) -> Frame:
    """Orthonormal frame dual to the coframe (dx/D, dy/D, omega^3).

    E1 = D d/dx - (l/2) y d/dz,  E2 = D d/dy + (l/2) x d/dz,  E3 = d/dz.
    """
    x, y, _ = require_in_domain(params, p)
    D = _metric_scalars(params, x, y)[0]
    return Frame(
        e1=np.array([D, 0.0, -0.5 * params.l * y]),
        e2=np.array([0.0, D, 0.5 * params.l * x]),
        e3=np.array([0.0, 0.0, 1.0]),
    )
