"""Geometry of the Cartan-Vranceanu family of homogeneous 3-manifolds."""

from .space import (
    DomainError,
    Frame,
    MetricParams,
    Point3,
    SpaceClass,
    classify,
    frame,
    metric_tensor,
)
from .connection import (
    GeodesicState,
    Trajectory,
    christoffel,
    integrate_geodesic,
    sectional_curvature,
)
from .symmetry import first_integrals, killing_defect, killing_eval
from .closed_forms import ClosedFormGeodesic, closed_form_geodesic, dispatch_case

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "Frame",
    "MetricParams",
    "Point3",
    "SpaceClass",
    "classify",
    "frame",
    "metric_tensor",
    "GeodesicState",
    "Trajectory",
    "christoffel",
    "integrate_geodesic",
    "sectional_curvature",
    "first_integrals",
    "killing_defect",
    "killing_eval",
    "ClosedFormGeodesic",
    "closed_form_geodesic",
    "dispatch_case",
    "__version__",
]
