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

Everything in this module is a pure function of its arguments.
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
    "in_domain",
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

    @property
    def matrix(self) -> np.ndarray:
        """Rows are the frame vectors."""
        return np.stack([self.e1, self.e2, self.e3])


def _xyz(p) -> tuple[float, float, float]:
    """Coerce a Point3 or a length-3 sequence to coordinate floats."""
    if isinstance(p, Point3):
        return p.x, p.y, p.z
    x, y, z = p
    return float(x), float(y), float(z)


def in_domain(params: MetricParams, p) -> bool:
    if params.m >= 0.0:
        return True
    x, y, _ = _xyz(p)
    return x * x + y * y < -1.0 / params.m


def require_in_domain(params: MetricParams, p) -> None:
    if not in_domain(params, p):
        x, y, _ = _xyz(p)
        raise DomainError(
            f"point with x^2+y^2 = {float(x * x + y * y)!r} outside the disk "
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


def _rows_in_domain(params: MetricParams, p: np.ndarray):
    """x and y of an (..., 3) array of points; raises `require_in_domain`'s
    DomainError for the first point, in row order, outside the m < 0 disk."""
    x, y = p[..., 0], p[..., 1]
    if params.m < 0.0:
        outside = ~(x * x + y * y < -1.0 / params.m)
        if outside.any():
            require_in_domain(params, p[outside][0])
    return x, y


def metric_tensor(params: MetricParams, p) -> np.ndarray:
    """Coordinate components g_ij at p (symmetric positive definite 3x3).

    p is one point, or an (..., 3) array of points for an (..., 3, 3)
    result whose entries are those of the one-point calls, bit for bit.
    """
    if _is_rows(p):
        x, y = _rows_in_domain(params, p)
        D, al, be = _metric_scalars(params, x, y)
        q = 1.0 / (D * D)
        g = np.empty(p.shape[:-1] + (3, 3))
        g[..., 0, 0] = q + al * al
        g[..., 1, 1] = q + be * be
        g[..., 2, 2] = 1.0
        g[..., 0, 1] = g[..., 1, 0] = al * be
        g[..., 0, 2] = g[..., 2, 0] = al
        g[..., 1, 2] = g[..., 2, 1] = be
        return g
    require_in_domain(params, p)
    x, y, _ = _xyz(p)
    D, al, be = _metric_scalars(params, x, y)
    q = 1.0 / (D * D)
    return np.array(
        [
            [q + al * al, al * be, al],
            [al * be, q + be * be, be],
            [al, be, 1.0],
        ]
    )


def frame(params: MetricParams, p) -> Frame:
    """Orthonormal frame dual to the coframe (dx/D, dy/D, omega^3).

    E1 = D d/dx - (l/2) y d/dz,  E2 = D d/dy + (l/2) x d/dz,  E3 = d/dz.
    """
    require_in_domain(params, p)
    x, y, _ = _xyz(p)
    l = params.l
    D = 1.0 + params.m * (x * x + y * y)
    return Frame(
        e1=np.array([D, 0.0, -0.5 * l * y]),
        e2=np.array([0.0, D, 0.5 * l * x]),
        e3=np.array([0.0, 0.0, 1.0]),
    )
