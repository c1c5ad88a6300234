"""Independent cross-checks of library quantities; used by the tests only.

`christoffel_fd` rebuilds the Christoffel symbols from finite differences
of the metric and a numeric inverse, independent of the analytic partials
of `cvgeo.connection`.  `meridian_profile_ode_residual` is the radius
equation of the profiles whose meridians are geodesics, against which
`cvgeo.surfaces.meridian_is_geodesic` is checked.
"""

from __future__ import annotations

import numpy as np

from cvgeo.profiles import RevolutionProfile
from cvgeo.space import MetricParams, _xyz, metric_tensor


def christoffel_fd(params: MetricParams, p, h: float = 1e-5) -> np.ndarray:
    """Finite-difference Koszul oracle for `christoffel`.

    Metric partials by central differences of `metric_tensor` (step h) and
    the inverse by linear solve; independent of the analytic partials.
    """
    x, y, z = _xyz(p)
    dg = np.zeros((3, 3, 3))
    for a, (dx, dy, dz) in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
        gp = metric_tensor(params, (x + h * dx, y + h * dy, z + h * dz))
        gm = metric_tensor(params, (x - h * dx, y - h * dy, z - h * dz))
        dg[a] = (gp - gm) / (2.0 * h)
    ginv = np.linalg.inv(metric_tensor(params, p))
    brack = dg + np.einsum("jil->ijl", dg) - np.einsum("lij->ijl", dg)
    return 0.5 * np.einsum("kl,ijl->kij", ginv, brack)


def meridian_profile_ode_residual(params: MetricParams, profile: RevolutionProfile, u: float) -> float:
    """Residual of the radius equation characterising meridian-geodesic
    profiles (beyond cylinders and the tan/tanh/linear solutions):

    2 f' + 4 m f^2 f' + 2 m^2 f^4 f' - 2 f'^3 + 2 m f^2 f'^3
        - f f' f'' - m f^3 f' f''.
    """
    m = params.m
    fv, fpv, fppv = profile.f(u), profile.fp(u), profile.fpp(u)
    return (
        2.0 * fpv
        + 4.0 * m * fv * fv * fpv
        + 2.0 * m * m * fv ** 4 * fpv
        - 2.0 * fpv ** 3
        + 2.0 * m * fv * fv * fpv ** 3
        - fv * fpv * fppv
        - m * fv ** 3 * fpv * fppv
    )
