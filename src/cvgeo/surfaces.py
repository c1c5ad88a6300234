"""Immersed rotational surfaces: fundamental forms, geodesic criteria,
surface geodesics and the integrability obstruction of the horizontal
distribution.

A surface of revolution is the image of

    X(u, v) = (f(u) cos v, f(u) sin v, g(u)),        0 <= v < 2 pi,

with a `RevolutionProfile` supplying f, g and derivatives.  The first
fundamental form is the pullback of the ambient metric through the
Jacobian of X; the second uses the metric unit normal and ambient
covariant derivatives of the coordinate tangents.  Each point is embedded
once and its metric built once; the finite-difference stencils of the
tangents need only the Jacobian, which needs no height g (for unit-speed
profiles a quadrature of g').  Surface geodesics are
integrated from the closed-form coefficients (E, F, G) of
`reference_form_coefficients`, which depend on u only (finite-difference
u derivatives); the rotational momentum p_v = 2 G v' + 2 F u' they
conserve is the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rk
from .connection import christoffel
from .profiles import RevolutionProfile, _unit_radicand
from .space import DomainError, MetricParams, coframe_values, metric_tensor, require_in_domain

__all__ = [
    "FundamentalForms",
    "SurfaceGeodesicState",
    "SurfaceTrajectory",
    "embed",
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
    "meridian_profile_ode_residual",
    "default_grid",
]

PARALLEL_TOL = 1e-10
MERIDIAN_TOL = 1e-8
SURFACE_DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class FundamentalForms:
    """First and second fundamental forms and the oriented unit normal."""

    first: np.ndarray
    second: np.ndarray
    normal: np.ndarray
    second_asymmetry: float = 0.0


@dataclass(frozen=True)
class SurfaceGeodesicState:
    u: float
    v: float
    du: float
    dv: float

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.du, self.dv], dtype=float)


def _jacobian(profile: RevolutionProfile, u: float, v: float) -> np.ndarray:
    """3x2 Jacobian (columns X_u, X_v) at (u, v), from f, f' and g' only."""
    fv, fpv, gpv = profile.f(u), profile.fp(u), profile.gp(u)
    cv, sv = math.cos(v), math.sin(v)
    return np.array(
        [
            [fpv * cv, -fv * sv],
            [fpv * sv, fv * cv],
            [gpv, 0.0],
        ]
    )


def embed(profile: RevolutionProfile, q) -> tuple[np.ndarray, np.ndarray]:
    """Ambient point and 3x2 Jacobian (columns X_u, X_v) at q = (u, v).

    The one place the height g(u) is evaluated; the Jacobian needs none.
    """
    u, v = float(q[0]), float(q[1])
    gv = profile.g(u)
    jac = _jacobian(profile, u, v)
    # (f cos v, f sin v) is X_v = (-f sin v, f cos v) turned back a quarter
    point = np.array([jac[1, 1], -jac[0, 1], gv])
    return point, jac


def _pullback(jac: np.ndarray, g: np.ndarray) -> np.ndarray:
    """J^T g J, rejecting a degenerate Jacobian."""
    form = jac.T @ g @ jac
    det = form[0, 0] * form[1, 1] - form[0, 1] * form[1, 0]
    if det <= 0.0:
        raise ValueError("degenerate surface Jacobian")
    return form


def first_fundamental_form(params: MetricParams, profile: RevolutionProfile, q) -> np.ndarray:
    """Pullback J^T g J of the ambient metric through the embedding."""
    point, jac = embed(profile, q)
    return _pullback(jac, metric_tensor(params, point))


def reference_form_coefficients(params: MetricParams, profile: RevolutionProfile, u: float):
    """Closed-form induced-metric coefficients (E, F, G).

    Independent of the pullback route, which they cross-check; they also
    drive the surface-geodesic equations and their p_v/speed annotations:
        E = f'^2 / (1 + m f^2)^2 + g'^2
        F = -l f^2 g' / (2 (1 + m f^2))
        G = (4 f^2 + l^2 f^4) / (4 (1 + m f^2)^2)
    """
    l, m = params.l, params.m
    fv, fpv, gpv = profile.f(u), profile.fp(u), profile.gp(u)
    d = 1.0 + m * fv * fv
    e = fpv * fpv / (d * d) + gpv * gpv
    fcoef = -0.5 * l * fv * fv * gpv / d
    gcoef = (4.0 * fv * fv + l * l * fv ** 4) / (4.0 * d * d)
    return e, fcoef, gcoef


def _unit_normal(params: MetricParams, g: np.ndarray, point, jac) -> np.ndarray:
    """Metric unit normal for the metric g at point, oriented by the sign
    of its omega^3 value (falling back to omega^1 then omega^2 where
    earlier ones vanish)."""
    r1 = g @ jac[:, 0]
    r2 = g @ jac[:, 1]
    n = np.cross(r1, r2)
    norm2 = float(n @ g @ n)
    if norm2 <= 1e-28:
        raise ValueError("degenerate tangent plane")
    n = n / math.sqrt(norm2)
    w = coframe_values(params, point, n)
    for comp in (w[2], w[0], w[1]):
        if abs(comp) > 1e-10:
            if comp < 0.0:
                n = -n
            break
    return n


def second_fundamental_form(
    params: MetricParams, profile: RevolutionProfile, q, h: float = 1e-6
) -> FundamentalForms:
    """Second fundamental form against the oriented metric unit normal.

    B_ab = g(nabla_{X_a} X_b, xi) with ambient Christoffels and central
    finite differences of the analytic tangent vectors for the coordinate
    second derivatives.  The point is embedded once (one height
    evaluation) and its metric built once, for the first form and the
    normal alike; the four stencil Jacobians need no height.
    """
    u, v = float(q[0]), float(q[1])
    point, jac = embed(profile, (u, v))
    g = metric_tensor(params, point)
    first = _pullback(jac, g)
    xi = _unit_normal(params, g, point, jac)
    gxi = g @ xi
    gam = christoffel(params, point)

    d_u = (_jacobian(profile, u + h, v) - _jacobian(profile, u - h, v)) / (2.0 * h)  # X_uu, X_vu
    d_v = (_jacobian(profile, u, v + h) - _jacobian(profile, u, v - h)) / (2.0 * h)  # X_uv, X_vv
    second_derivs = {
        (0, 0): d_u[:, 0],
        (0, 1): d_v[:, 0],
        (1, 0): d_u[:, 1],
        (1, 1): d_v[:, 1],
    }

    b = np.empty((2, 2))
    for (a, c), dd in second_derivs.items():
        cov = dd + np.einsum("kij,i,j->k", gam, jac[:, a], jac[:, c])
        b[a, c] = float(cov @ gxi)
    asym = abs(b[0, 1] - b[1, 0])
    b_sym = 0.5 * (b + b.T)
    return FundamentalForms(first=first, second=b_sym, normal=xi, second_asymmetry=asym)


def default_grid(profile: RevolutionProfile, nu: int = 10, nv: int = 8, margin: float = 0.02):
    """(u, v) sample pairs covering the profile domain."""
    lo, hi = profile.u_domain
    pad = margin * (hi - lo)
    us = np.linspace(lo + pad, hi - pad, nu)
    vs = np.linspace(0.0, 2.0 * math.pi, nv, endpoint=False)
    return [(u, v) for u in us for v in vs]


def totally_geodesic_defect(params: MetricParams, profile: RevolutionProfile, sample_grid) -> float:
    """Max over the grid of the max-norm of the second fundamental form."""
    worst = 0.0
    for q in sample_grid:
        forms = second_fundamental_form(params, profile, q)
        worst = max(worst, float(np.max(np.abs(forms.second))))
    return worst


def umbilic_defect(params: MetricParams, profile: RevolutionProfile, sample_grid) -> float:
    """Max over the grid of || B - (tr_g B / 2) I || (max-norm).

    Zero exactly on umbilical surfaces; the trace is taken with the
    inverse of the first fundamental form.
    """
    worst = 0.0
    for q in sample_grid:
        forms = second_fundamental_form(params, profile, q)
        first_inv = np.linalg.inv(forms.first)
        lam = 0.5 * float(np.trace(first_inv @ forms.second))
        dev = forms.second - lam * forms.first
        worst = max(worst, float(np.max(np.abs(dev))))
    return worst


def frobenius_scalar(params: MetricParams, p=None, h: float = 1e-6) -> float:
    """Integrability obstruction of the distribution orthogonal to E3.

    Computes the 3-form omega ^ d(omega) for the vertical coframe element
    omega = omega^3 by finite-difference exterior derivative, and
    normalises against the metric volume form (oriented so the twist
    parameter comes out with its sign): the result equals l, at every
    point, and vanishes exactly when the distribution is integrable.
    """
    if p is None:
        if params.m < 0.0:
            s = 0.3 / math.sqrt(-params.m)
        else:
            s = 0.5
        p = (0.617 * s, -0.459 * s, 0.2)
    require_in_domain(params, p)
    x, y, z = (float(c) for c in p)

    def omega(q):
        # covector components of omega^3: (alpha, beta, 1)
        d = 1.0 + params.m * (q[0] * q[0] + q[1] * q[1])
        return np.array([0.5 * params.l * q[1] / d, -0.5 * params.l * q[0] / d, 1.0])

    dw = np.zeros((3, 3))
    base = (x, y, z)
    for a in range(3):
        qp = list(base)
        qm = list(base)
        qp[a] += h
        qm[a] -= h
        dw[a] = (omega(qp) - omega(qm)) / (2.0 * h)
    f_xy = dw[0][1] - dw[1][0]
    f_yz = dw[1][2] - dw[2][1]
    f_zx = dw[2][0] - dw[0][2]
    w0 = omega(base)
    coeff = w0[0] * f_yz + w0[1] * f_zx + w0[2] * f_xy
    d0 = 1.0 + params.m * (x * x + y * y)
    return -d0 * d0 * coeff


def _surface_rhs(params: MetricParams, profile: RevolutionProfile, y4, h: float = 1e-6):
    u, _, du, dv = y4
    if not profile.contains(u):
        raise DomainError(f"u = {u!r} outside the profile domain")
    require_in_domain(params, (profile.f(u), 0.0, 0.0))  # the disk bounds the radius only
    e0, f0, g0 = reference_form_coefficients(params, profile, u)
    lo, hi = profile.u_domain
    if u - h < lo or u + h > hi:
        # one-sided shift keeps the stencil inside the domain
        uc = min(max(u, lo + h), hi - h)
    else:
        uc = u
    ep, fp_, gp_ = reference_form_coefficients(params, profile, uc + h)
    em, fm, gm = reference_form_coefficients(params, profile, uc - h)
    de = (ep - em) / (2.0 * h)
    df = (fp_ - fm) / (2.0 * h)
    dg = (gp_ - gm) / (2.0 * h)

    det = e0 * g0 - f0 * f0
    # Lowered symbols [ab, c] = (d_a h_bc + d_b h_ac - d_c h_ab)/2 with the
    # induced metric depending on u only ([uv, u] = [vv, v] = 0):
    l_uu_u = 0.5 * de
    l_uu_v = df
    l_uv_v = 0.5 * dg
    l_vv_u = -0.5 * dg

    # raise the first index with the inverse of [[e, f], [f, g]]
    h_uu = g0 / det
    h_uv = -f0 / det
    h_vv = e0 / det

    g_u_uu = h_uu * l_uu_u + h_uv * l_uu_v
    g_v_uu = h_uv * l_uu_u + h_vv * l_uu_v
    g_u_uv = h_uv * l_uv_v
    g_v_uv = h_vv * l_uv_v
    g_u_vv = h_uu * l_vv_u
    g_v_vv = h_uv * l_vv_u

    acc_u = -(g_u_uu * du * du + 2.0 * g_u_uv * du * dv + g_u_vv * dv * dv)
    acc_v = -(g_v_uu * du * du + 2.0 * g_v_uv * du * dv + g_v_vv * dv * dv)
    return np.array([du, dv, acc_u, acc_v])


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
    """Integrate the geodesic equations of the induced metric.

    Conserves the induced speed and the rotational momentum
    p_v = 2 G v' + 2 F u' to integrator accuracy.  Leaving the profile
    domain ends the run with the partial trajectory ("domain-exit").
    """
    lo, hi = profile.u_domain
    if not profile.contains(s0.u):
        raise ValueError(f"u0 = {s0.u!r} outside the profile domain [{lo!r}, {hi!r}]")

    def rhs(y4):
        return _surface_rhs(params, profile, y4)

    margin = 2e-6 * (hi - lo)

    def guard(y4):
        return lo + margin <= y4[0] <= hi - margin

    ts, ys, fs, exit_reason = _rk.rk45(
        rhs, s0.as_array(), t_max, tol, guard=guard, guard_error=DomainError
    )
    if samples is not None:
        t_out = np.linspace(0.0, ts[-1], samples)
        y_out = _rk.hermite_sample(ts, ys, fs, t_out)
    else:
        t_out, y_out = ts, ys

    n = len(t_out)
    momenta = np.empty(n)
    speeds = np.empty(n)
    for i in range(n):
        u, _, du, dv = y_out[i]
        e0, f0, g0 = reference_form_coefficients(params, profile, u)
        momenta[i] = 2.0 * g0 * dv + 2.0 * f0 * du
        speeds[i] = math.sqrt(max(e0 * du * du + 2.0 * f0 * du * dv + g0 * dv * dv, 0.0))
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
    """Whether the parallel u = u0 is a surface geodesic.

    Residual: f'(u0) (2 + l^2 f^2 - 2 m f^2) / (1 + m f^2)^3, zero exactly
    when the rotational momentum is critical at u0.
    """
    l, m = params.l, params.m
    fv, fpv = profile.f(u0), profile.fp(u0)
    d = 1.0 + m * fv * fv
    residual = fpv * (2.0 + l * l * fv * fv - 2.0 * m * fv * fv) / d ** 3
    return abs(residual) < PARALLEL_TOL, residual


def parallel_geodesic_radii(
    params: MetricParams, profile: RevolutionProfile, n: int
) -> list[float]:
    """Parameters u0 of the geodesic parallels: the points of an n-point grid
    that pass `parallel_is_geodesic`, and a root bisected 80 times in each
    sign change of its residual between grid neighbours."""
    lo, hi = profile.u_domain
    roots = []
    prev_u = prev_r = None
    for u in np.linspace(lo, hi, n):
        u = float(u)
        ok, r = parallel_is_geodesic(params, profile, u)
        if ok:
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


def meridian_is_geodesic(
    params: MetricParams, profile: RevolutionProfile, n: int = 256
) -> tuple[bool, float]:
    """Whether the meridians v = const are surface geodesics.

    The quantity l f^2 sqrt((1 + m f^2)^2 - f'^2) / (1 + m f^2)^2 (the
    rotational momentum of a unit-speed meridian) must be constant in u;
    returns (verdict, max - min over an n-point grid).  Requires the
    profile to satisfy the arc-length normalisation, i.e. a nonnegative
    radicand.
    """
    l, m = params.l, params.m
    vals = np.empty(n)
    for i, u in enumerate(profile.grid(n)):
        fv, fpv = profile.f(u), profile.fp(u)
        d = 1.0 + m * fv * fv
        vals[i] = l * fv * fv * math.sqrt(_unit_radicand(d * d, fpv * fpv, u)) / (d * d)
    deviation = float(np.max(vals) - np.min(vals))
    return deviation < MERIDIAN_TOL, deviation


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
