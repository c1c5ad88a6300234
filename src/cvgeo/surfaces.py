"""Immersed rotational surfaces: fundamental forms, geodesic criteria,
surface geodesics and the integrability obstruction of the horizontal
distribution.

A surface of revolution is the image of

    X(u, v) = (f(u) cos v, f(u) sin v, g(u)),        0 <= v < 2 pi,

with a `RevolutionProfile` supplying f, g and derivatives.  Rotations
about the z axis are isometries, so every invariant of the surface is a
function of u alone.  The closed-form induced metric (E, F, G) of
`reference_form_coefficients` is the one first form: the second form, in
closed form in f, f', f'', g' and g'', is built on it, surface geodesics
solve its Euler-Lagrange equations, with the rotational momentum
p_v = 2 G v' + 2 F u' they conserve as the independent check, a parallel
u = u0 is a geodesic exactly where G'(u0) = 0, and the meridians are
geodesics exactly where F / sqrt(E) is constant, for any immersed profile,
at unit speed or not.  `first_fundamental_form`, the pullback J^T g J of
the ambient metric, is the independent route that the audits check (E, F,
G) against.  Both forms take one point (u, v) or an (N, 2) grid, with one
array call of each profile callable and the height g once per call, at
the largest u (the metric does not depend on z; for unit-speed profiles
that quadrature of g' is the unit-compatibility check).  The criteria and
the dense-output annotations evaluate the profile in one array call per
function as well; only the surface-geodesic rhs calls it on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rk
from .profiles import RevolutionProfile, _on_array
from .space import (
    DomainError,
    MetricParams,
    _metric_scalars,
    _point_in_domain,
    _rows_in_domain,
    metric_tensor,
    require_in_domain,
)

__all__ = [
    "FundamentalForms",
    "SurfaceGeodesicState",
    "SurfaceTrajectory",
    "first_fundamental_form",
    "reference_form_coefficients",
    "second_fundamental_form",
    "totally_geodesic_defect",
    "umbilic_defect",
    "frobenius_scalar",
    "surface_geodesic_integrate",
    "parallel_is_geodesic",
    "parallel_geodesic_radii",
    "meridian_is_geodesic",
    "default_grid",
]

PARALLEL_TOL = 1e-10
MERIDIAN_TOL = 1e-8
SURFACE_DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class FundamentalForms:
    """First and second fundamental forms, at one point or stacked over the
    N points of a grid."""

    first: np.ndarray
    second: np.ndarray


@dataclass(frozen=True)
class SurfaceGeodesicState:
    u: float
    v: float
    du: float
    dv: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.du, self.dv], dtype=float)


def _profile_values(u: np.ndarray, *fns) -> list[np.ndarray]:
    """Each profile callable at the array u, one call each, as arrays of u's
    shape."""
    return [_on_array(fn, u) for fn in fns]


def _profile_rows(params: MetricParams, profile: RevolutionProfile, q, *derivs):
    """q, a point (u, v) or an (N, 2) grid, read as rows: whether q was one
    point, the v column, and f, f', g' and each of derivs at every row.

    Each profile callable runs once, on all rows.  The height g runs once, at
    the largest u: no form needs it, and for a unit-speed profile its
    quadrature of g' over [u_lo, max u] is the unit-compatibility check.  The
    m < 0 disk bounds the radius f only (`space._rows_in_domain`).
    """
    q = np.asarray(q, dtype=float)
    u, v = q.reshape(-1, 2).T
    profile.g(float(u.max()))
    values = _profile_values(u, profile.f, profile.fp, profile.gp, *derivs)
    _rows_in_domain(params, values[0], 0.0)
    return q.ndim == 1, v, values


def first_fundamental_form(params: MetricParams, profile: RevolutionProfile, q) -> np.ndarray:
    """Pullback J^T g J of the ambient metric through the embedding, at a
    point q = (u, v) (shape (2, 2)) or an (N, 2) grid (shape (N, 2, 2)).

    The route is independent of the closed-form (E, F, G), which the
    `pullback-coefficients` audit checks against it: the Jacobian columns
    X_u = (f' cos v, f' sin v, g') and X_v = (-f sin v, f cos v, 0) and
    one `metric_tensor` call at the points (f cos v, f sin v, 0) for all
    rows (the metric does not depend on z).
    """
    single, v, (fv, fpv, gpv) = _profile_rows(params, profile, q)
    cv, sv = np.cos(v), np.sin(v)
    point = np.zeros((len(v), 3))
    point[:, 0] = fv * cv
    point[:, 1] = fv * sv
    jac = np.zeros((len(v), 3, 2))
    jac[:, 0, 0] = fpv * cv
    jac[:, 1, 0] = fpv * sv
    jac[:, 2, 0] = gpv
    jac[:, 0, 1] = -point[:, 1]
    jac[:, 1, 1] = point[:, 0]
    first = np.swapaxes(jac, 1, 2) @ metric_tensor(params, point) @ jac
    if (first[:, 0, 0] * first[:, 1, 1] - first[:, 0, 1] * first[:, 1, 0] <= 0.0).any():
        raise ValueError("degenerate surface Jacobian")
    return first[0] if single else first


def reference_form_coefficients(params: MetricParams, profile: RevolutionProfile, u: float):
    """Closed-form induced-metric coefficients (E, F, G) at u.

    Independent of the pullback route, which they cross-check; they also
    give the first form of `second_fundamental_form` and drive the
    surface-geodesic equations, their p_v/speed annotations and both
    geodesic criteria:
        E = f'^2 / (1 + m f^2)^2 + g'^2
        F = -l f^2 g' / (2 (1 + m f^2))
        G = f^2 (4 + l^2 f^2) / (4 (1 + m f^2)^2)
    """
    return _form_coefficients(params, profile.f(u), profile.fp(u), profile.gp(u))


def _form_coefficients(params: MetricParams, fv, fpv, gpv):
    """(E, F, G) of `reference_form_coefficients` from f, f' and g', floats
    or arrays alike, by the same IEEE operations."""
    l, m = params.l, params.m
    f2 = fv * fv
    d = 1.0 + m * f2
    e = fpv * fpv / (d * d) + gpv * gpv
    fcoef = -0.5 * l * f2 * gpv / d
    gcoef = f2 * (4.0 + l * l * f2) / (4.0 * d * d)
    return e, fcoef, gcoef


def _g_prime(params: MetricParams, fv, fpv):
    """dG/du = f f' (2 + (l^2 - 2 m) f^2) / (1 + m f^2)^3, floats or arrays."""
    l, m = params.l, params.m
    f2 = fv * fv
    return fv * fpv * (2.0 + (l * l - 2.0 * m) * f2) / (1.0 + m * f2) ** 3


def second_fundamental_form(params: MetricParams, profile: RevolutionProfile, q) -> FundamentalForms:
    """First and second fundamental forms at a point q = (u, v), each of
    shape (2, 2), or at an (N, 2) grid, each of shape (N, 2, 2).

    Rotations about the z axis are isometries, so both forms depend on u
    only, in closed form in f, f', f'', g' and g''.  With d = 1 + m f^2,
    k = 4m - l^2 and W = E G - F^2 (E, F, G of `_form_coefficients`):
        B_uu = s f (2 d (f' g'' - f'' g') + k f f'^2 g') / (2 d^3 sqrt(W))
        B_uv = -s l f^2 (4 d^2 g'^2 + k f^2 f'^2) / (8 d^4 sqrt(W))
        B_vv = s f^2 g' (2 + (l^2 - 2m) f^2) / (2 d^3 sqrt(W))
    For a z-slice B_uv = -s l k f^4 / (8 d^4 sqrt(W)) is the only entry:
    it vanishes iff l = 0 or 4m = l^2.  B is taken against the unit normal
    xi with the frame components s (-2 d g', l f f', 2 f') / r, r =
    sqrt(4 d^2 g'^2 + (4 + l^2 f^2) f'^2), at v = 0, whose (omega^1,
    omega^2) turn with v.  The orientation s = sign(omega^3(xi)) = sign(f')
    where |2 f' / r| > 1e-10; elsewhere xi points outward, s = -sign(g'),
    at every v alike.  No metric, connection or cross product is evaluated;
    W <= 0 raises.
    """
    single, _, (fv, fpv, gpv, fppv, gppv) = _profile_rows(params, profile, q, profile.fpp, profile.gpp)
    l, m = params.l, params.m
    e, f, g = _form_coefficients(params, fv, fpv, gpv)
    w = e * g - f * f
    if (w <= 0.0).any():
        raise ValueError("degenerate surface Jacobian")
    f2 = fv * fv
    d = 1.0 + m * f2
    k = 4.0 * m - l * l
    r = np.sqrt(4.0 * d * d * gpv * gpv + (4.0 + l * l * f2) * fpv * fpv)
    s = np.where(np.abs(2.0 * fpv / r) > 1e-10, np.sign(fpv), -np.sign(gpv))
    sw = s / np.sqrt(w)
    b_uu = sw * fv * (2.0 * d * (fpv * gppv - fppv * gpv) + k * fv * fpv * fpv * gpv) / (2.0 * d ** 3)
    b_uv = -sw * l * f2 * (4.0 * d * d * gpv * gpv + k * f2 * fpv * fpv) / (8.0 * d ** 4)
    b_vv = sw * f2 * gpv * (2.0 + (l * l - 2.0 * m) * f2) / (2.0 * d ** 3)
    # + 0.0 turns a -0.0 entry (l = 0 or g' = 0) into 0.0
    first = np.stack([e, f, f, g], -1).reshape(-1, 2, 2) + 0.0
    second = np.stack([b_uu, b_uv, b_uv, b_vv], -1).reshape(-1, 2, 2) + 0.0
    if single:
        return FundamentalForms(first=first[0], second=second[0])
    return FundamentalForms(first=first, second=second)


def default_grid(profile: RevolutionProfile, nu: int = 10, nv: int = 8) -> np.ndarray:
    """(nu nv, 2) array of (u, v) rows covering the profile domain, less 2%
    at each end; u-major, nv rows per u."""
    lo, hi = profile.u_domain
    pad = 0.02 * (hi - lo)
    us = np.linspace(lo + pad, hi - pad, nu)
    vs = np.linspace(0.0, 2.0 * math.pi, nv, endpoint=False)
    return np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1).reshape(-1, 2)


def totally_geodesic_defect(params: MetricParams, profile: RevolutionProfile, sample_grid) -> float:
    """Max over the grid of the max-norm of the second fundamental form."""
    forms = second_fundamental_form(params, profile, np.reshape(sample_grid, (-1, 2)))
    return float(np.max(np.abs(forms.second)))


def umbilic_defect(params: MetricParams, profile: RevolutionProfile, sample_grid) -> float:
    """Max over the grid of || B - (tr_g B / 2) I || (max-norm).

    Zero exactly on umbilical surfaces; the trace is taken with the
    inverse of the first fundamental form, in closed 2x2 form:
    tr_g B = (G B_uu - 2 F B_uv + E B_vv) / (E G - F^2).
    """
    forms = second_fundamental_form(params, profile, np.reshape(sample_grid, (-1, 2)))
    a, b = forms.first, forms.second
    e, f, g = a[:, 0, 0], a[:, 0, 1], a[:, 1, 1]
    trace = (g * b[:, 0, 0] - 2.0 * f * b[:, 0, 1] + e * b[:, 1, 1]) / (e * g - f * f)
    return float(np.max(np.abs(b - 0.5 * trace[:, None, None] * a)))


def frobenius_scalar(params: MetricParams, p=None) -> float:
    """Integrability obstruction of the distribution orthogonal to E3.

    The vertical coframe element omega^3 = alpha dx + beta dy + dz of the
    metric (`space._metric_scalars`) has alpha = l y / (2 D) and beta =
    -l x / (2 D), D = 1 + m (x^2 + y^2), neither depending on z, so
    omega ^ d(omega) = (d_x beta - d_y alpha) dx ^ dy ^ dz.  Those two
    derivatives are central differences (step 1e-6), and the 3-form is
    normalised against the metric volume form (oriented so the twist
    parameter comes out with its sign): the result equals l, at every
    point, and vanishes exactly when the distribution is integrable.
    """
    if p is None:
        if params.m < 0.0:
            s = 0.3 / math.sqrt(-params.m)
        else:
            s = 0.5
        p = (0.617 * s, -0.459 * s, 0.2)
    x, y, _ = require_in_domain(params, p)
    h = 1e-6
    dx_beta = (_metric_scalars(params, x + h, y)[2] - _metric_scalars(params, x - h, y)[2]) / (2.0 * h)
    dy_alpha = (_metric_scalars(params, x, y + h)[1] - _metric_scalars(params, x, y - h)[1]) / (2.0 * h)
    d0 = _metric_scalars(params, x, y)[0]
    return -d0 * d0 * (dx_beta - dy_alpha)


def _surface_rhs(params: MetricParams, profile: RevolutionProfile):
    """rhs(y4) -> (u', v', u'', v''), the surface-geodesic rhs at (u, v, u',
    v'), a list of Python floats, as a tuple of them.

    The Euler-Lagrange equations of E u'^2 + 2 F u' v' + G v'^2, whose
    coefficients depend on u only:
        E u'' + F v'' = (G' v'^2 - E' u'^2) / 2
        F u'' + G v'' = -(F' u'^2 + G' u' v')
    numpy's errstate does not watch Python floats, so an acceleration that
    is not finite raises FloatingPointError.
    """

    def rhs(y4):
        u, _, du, dv = y4
        if not profile.contains(u):
            raise DomainError(f"u = {u!r} outside the profile domain")
        fv = profile.f(u)
        _point_in_domain(params, fv, 0.0)  # the disk bounds the radius only
        fpv, fppv, gpv, gppv = profile.fp(u), profile.fpp(u), profile.gp(u), profile.gpp(u)
        e0, f0, g0 = _form_coefficients(params, fv, fpv, gpv)
        # exact u derivatives, with d = 1 + m f^2 and d' = 2 m f f'
        d = 1.0 + params.m * fv * fv
        dp = 2.0 * params.m * fv * fpv
        de = 2.0 * fpv * (fppv * d - fpv * dp) / d ** 3 + 2.0 * gpv * gppv
        df = -0.5 * params.l * fv * (fv * gppv + 2.0 * fpv * gpv - fv * gpv * dp / d) / d
        dg = _g_prime(params, fv, fpv)

        r_u = 0.5 * (dg * dv * dv - de * du * du)
        r_v = -(df * du + dg * dv) * du
        det = e0 * g0 - f0 * f0
        acc_u = (g0 * r_u - f0 * r_v) / det
        acc_v = (e0 * r_v - f0 * r_u) / det
        if not (math.isfinite(acc_u) and math.isfinite(acc_v)):
            raise FloatingPointError("overflow encountered in the surface rhs")
        return du, dv, acc_u, acc_v

    return rhs


@dataclass
class SurfaceTrajectory:
    """Sampled surface geodesic with conserved-quantity annotations."""

    params: MetricParams
    profile: RevolutionProfile
    ts: np.ndarray
    states: np.ndarray  # rows (u, v, du, dv)
    momenta: np.ndarray  # p_v = 2 G v' + 2 F u'
    speeds: np.ndarray  # induced-metric speed
    exit_reason: str

    @property
    def complete(self) -> bool:
        return self.exit_reason == "complete"


def surface_geodesic_integrate(
    params: MetricParams,
    profile: RevolutionProfile,
    s0: SurfaceGeodesicState,
    t_max: float,
    tol: float = SURFACE_DEFAULT_TOL,
    samples: int | None = None,
) -> SurfaceTrajectory:
    """Integrate the geodesic equations of the induced metric by `_rk.solve`.

    Conserves the induced speed and the rotational momentum
    p_v = 2 G v' + 2 F u' to integrator accuracy.  Leaving the profile
    domain, less 2e-6 of its length at each end, ends the run with the
    partial trajectory ("domain-exit").  With `samples` (at least 2) given,
    the rows sit on a uniform time grid.
    """
    lo, hi = profile.u_domain
    if not profile.contains(s0.u):
        raise ValueError(f"u0 = {s0.u!r} outside the profile domain [{lo!r}, {hi!r}]")

    margin = 2e-6 * (hi - lo)
    u_lo, u_hi = lo + margin, hi - margin

    def room(y4):
        return min(y4[0] - u_lo, u_hi - y4[0])

    y0 = s0.as_array()
    if not room(y0) >= 0.0:
        raise ValueError(f"u0 = {s0.u!r} outside the integration domain [{u_lo!r}, {u_hi!r}], "
                         "the profile domain less 2e-6 of its length at each end")
    t_out, y_out, exit_reason = _rk.solve(
        _surface_rhs(params, profile), y0, t_max, tol, pair=_rk.FEHLBERG45, room=room, samples=samples
    )
    e0, f0, g0 = _form_coefficients(
        params, *_profile_values(y_out[:, 0], profile.f, profile.fp, profile.gp)
    )
    du, dv = y_out[:, 2], y_out[:, 3]
    momenta = 2.0 * g0 * dv + 2.0 * f0 * du
    speeds = np.sqrt(np.maximum(e0 * du * du + 2.0 * f0 * du * dv + g0 * dv * dv, 0.0))
    return SurfaceTrajectory(
        params=params,
        profile=profile,
        ts=np.asarray(t_out, dtype=float),
        states=np.asarray(y_out, dtype=float),
        momenta=momenta,
        speeds=speeds,
        exit_reason=exit_reason,
    )


def parallel_is_geodesic(
    params: MetricParams, profile: RevolutionProfile, u0: float
) -> tuple[bool, float]:
    """Whether the parallel u = u0 is a surface geodesic, and the residual
    G'(u0) = f f' (2 + (l^2 - 2 m) f^2) / (1 + m f^2)^3.

    A parallel is a geodesic exactly where G is critical (Gamma^u_vv is
    proportional to G'), for any immersed profile.
    """
    residual = _g_prime(params, profile.f(u0), profile.fp(u0))
    return abs(residual) < PARALLEL_TOL, residual


def parallel_geodesic_radii(
    params: MetricParams, profile: RevolutionProfile, n: int
) -> list[float]:
    """Parameters u0 of the geodesic parallels: the points of an n-point grid
    that pass `parallel_is_geodesic`'s gate, with the residuals of the grid
    in one array call, and a root bisected 80 times (one point at a time)
    in each sign change of the residual between grid neighbours."""
    lo, hi = profile.u_domain
    us = np.linspace(lo, hi, n)
    residuals = _g_prime(params, *_profile_values(us, profile.f, profile.fp))
    roots = []
    prev_u = prev_r = None
    for u, r in zip(us.tolist(), residuals.tolist()):
        if abs(r) < PARALLEL_TOL:
            roots.append(u)
        elif prev_r is not None and prev_r * r < 0.0:
            a, b, ra = prev_u, u, prev_r
            for _ in range(80):
                c = 0.5 * (a + b)
                _, rc = parallel_is_geodesic(params, profile, c)
                if ra * rc <= 0.0:
                    b = c
                else:
                    a, ra = c, rc
            roots.append(0.5 * (a + b))
        prev_u, prev_r = u, r
    return roots


def meridian_is_geodesic(params: MetricParams, profile: RevolutionProfile) -> tuple[bool, float]:
    """Whether the meridians v = const are surface geodesics, and the spread
    max - min of -2 F / sqrt(E) over a 256-point grid of the domain.

    The meridians are geodesics exactly when Gamma^v_uu = (E F' - F E'/2) / det
    vanishes on the domain, i.e. when F / sqrt(E) is constant in u, for any
    immersed profile; -2 F / sqrt(E) is the rotational momentum of a
    meridian run at unit speed.
    """
    fvals = _profile_values(profile.grid(256), profile.f, profile.fp, profile.gp)
    e, f, _ = _form_coefficients(params, *fvals)
    vals = -2.0 * f / np.sqrt(e)
    deviation = float(np.max(vals) - np.min(vals))
    return deviation < MERIDIAN_TOL, deviation
