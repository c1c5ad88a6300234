"""Independent cross-checks of library quantities; used by the tests only.

`koszul_christoffel_entries` assembles the Christoffel symbols by the
Koszul formula from analytic partials of the metric and the exact inverse
metric, and `christoffel_fd` from finite differences of the metric and a
numeric inverse: the oracles of `cvgeo.connection.christoffel`, the
polarised geodesic acceleration.
`conformal_factor` and `coframe_values` are D and the coframe at a point,
and `containment_surfaces` the cylinder or plane that holds an origin
geodesic, for the tests of the metric, the frame and the Killing
integrals.  `koszul_rhs` is the geodesic rhs from the Koszul
symbols and `killing_pairings` the first integrals from the metric matrix
and the Killing fields: the oracles of the closed-form rhs and of the
fused first integrals.  `curvature_fd` takes by finite differences of the
Christoffel symbols what the library computes in closed form, and
`surface_rhs_fd` the u derivatives of the induced metric.  The closed-form
second fundamental form of `cvgeo.surfaces` has two oracles, both one
point at a time, with `embed`, `_unit_normal` (a cross product in the
metric) and the Koszul symbols: `second_fundamental_form_koszul` takes
the exact second derivatives of the embedding from f'' and g'', and
`second_fundamental_form_fd` finite differences of its tangents.
`meridian_profile_ode_residual` is
the radius equation of the profiles whose meridians are geodesics,
against which `cvgeo.surfaces.meridian_is_geodesic` is checked.  `annotate_rows` is
the row-at-a-time annotation, one `first_integrals` call and the norm of
the coframe on Python floats per row, against which the array speeds of
`cvgeo.connection.annotate_states` are checked.  `rk45_matrix` is the
embedded Runge-Kutta stepper with the stages as rows of one (s, d) array,
each stage state one matrix product, and the DOP853 coefficients taken
from scipy, against which the Python-float stages of `cvgeo._rk.rk45` are
checked for both of its pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scipy.integrate._ivp import dop853_coefficients as _dop853

from cvgeo import _rk
from cvgeo.connection import GeodesicState, christoffel, integrate_geodesic
from cvgeo.profiles import RevolutionProfile
from cvgeo.space import (
    DomainError,
    MetricParams,
    Point3,
    _metric_scalars,
    _xyz,
    metric_tensor,
    require_in_domain,
)
from cvgeo.surfaces import reference_form_coefficients
from cvgeo.symmetry import KILLING_NAMES, first_integrals, killing_eval


def conformal_factor(params: MetricParams, p) -> float:
    """D = 1 + m (x^2 + y^2); strictly positive on the domain."""
    x, y, _ = require_in_domain(params, p)
    return 1.0 + params.m * (x * x + y * y)


def coframe_values(params: MetricParams, p, v) -> np.ndarray:
    """(omega^1(v), omega^2(v), omega^3(v)) for a coordinate vector v."""
    x, y, _ = require_in_domain(params, p)
    vx, vy, vz = (float(c) for c in v)
    D, al, be = _metric_scalars(params, x, y)
    return np.array([vx / D, vy / D, al * vx + be * vy + vz])


@dataclass(frozen=True)
class ContainmentSurfaces:
    """First containment surface of an origin geodesic, plus the profile
    (radius, z) samples whose revolution about the z axis gives the second.

    kind "cylinder": residual  quad * (x^2 + y^2) + cx * x + cy * y
    kind "plane":    residual  cx * x + cy * y
    """

    kind: str
    quad: float
    cx: float
    cy: float
    profile: np.ndarray

    def residual(self, p) -> float:
        x, y, _ = _xyz(p)
        r = self.cx * x + self.cy * y
        if self.kind == "cylinder":
            r += self.quad * (x * x + y * y)
        return r

    def max_residual(self, points) -> float:
        pts = np.asarray(points, dtype=float)
        r = self.cx * pts[:, 0] + self.cy * pts[:, 1]
        if self.kind == "cylinder":
            r = r + self.quad * (pts[:, 0] ** 2 + pts[:, 1] ** 2)
        return float(np.max(np.abs(r)))


def containment_surfaces(
    params: MetricParams,
    v0,
    t_span: float = 2.0,
    n_profile: int = 65,
) -> ContainmentSurfaces:
    """Containment surfaces for the origin geodesic with velocity v0 = (u, v, w)."""
    u, v, w = (float(c) for c in v0)
    if u == 0.0 and v == 0.0 and w == 0.0:
        raise ValueError("initial velocity must be nonzero")
    l = params.l
    if l != 0.0 and w != 0.0:
        kind, quad, cx, cy = "cylinder", l * w, 2.0 * v, -2.0 * u
    else:
        kind, quad, cx, cy = "plane", 0.0, v, -u
    traj = integrate_geodesic(
        params,
        GeodesicState(Point3(0.0, 0.0, 0.0), np.array([u, v, w])),
        t_span,
        samples=n_profile,
    )
    pos = traj.positions()
    profile = np.column_stack([np.hypot(pos[:, 0], pos[:, 1]), pos[:, 2]])
    return ContainmentSurfaces(kind=kind, quad=quad, cx=cx, cy=cy, profile=profile)

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


def koszul_christoffel_entries(l: float, m: float, x: float, y: float):
    """Gamma^k_ij as nested lists, from analytic metric partials through the
    Koszul formula; the oracle of `connection.christoffel`.

    Metric components: g = [[Q + a^2, a b, a], [a b, Q + b^2, b], [a, b, 1]]
    with Q = 1/D^2, a = l y / (2D), b = -l x / (2D), D = 1 + m (x^2 + y^2).
    """
    rho2 = x * x + y * y
    D = 1.0 + m * rho2
    if isinstance(D, np.ndarray):  # arrays of x and y: the first degenerate point
        bad = D[D <= 0.0]
        if bad.size:
            raise DomainError(f"metric degenerate: D = {float(bad[0])!r}")
    elif D <= 0.0:
        raise DomainError(f"metric degenerate: D = {D!r}")
    D2 = D * D
    al = 0.5 * l * y / D
    be = -0.5 * l * x / D
    iD2 = 1.0 / D2
    iD3 = iD2 / D
    qx = -4.0 * m * x * iD3
    qy = -4.0 * m * y * iD3
    ax = -l * m * x * y * iD2
    ay = 0.5 * l * (D - 2.0 * m * y * y) * iD2
    bx = -0.5 * l * (D - 2.0 * m * x * x) * iD2
    by = l * m * x * y * iD2

    gxy_x = ax * be + al * bx
    gxy_y = ay * be + al * by
    dgx = (
        (qx + 2.0 * al * ax, gxy_x, ax),
        (gxy_x, qx + 2.0 * be * bx, bx),
        (ax, bx, 0.0),
    )
    dgy = (
        (qy + 2.0 * al * ay, gxy_y, ay),
        (gxy_y, qy + 2.0 * be * by, by),
        (ay, by, 0.0),
    )
    zero3 = (0.0, 0.0, 0.0)
    dg = (dgx, dgy, (zero3, zero3, zero3))

    gi = (
        (D2, 0.0, -0.5 * D * l * y),
        (0.0, D2, 0.5 * D * l * x),
        (-0.5 * D * l * y, 0.5 * D * l * x, 1.0 + 0.25 * l * l * rho2),
    )

    gam = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        gik = gi[k]
        for i in range(3):
            dgi = dg[i]
            for j in range(i, 3):
                dgj = dg[j]
                s = 0.0
                for a in range(3):
                    s += gik[a] * (dgi[j][a] + dgj[i][a] - dg[a][i][j])
                s *= 0.5
                gam[k][i][j] = s
                gam[k][j][i] = s
    return gam


def koszul_rhs(l: float, m: float, y6) -> np.ndarray:
    """Geodesic rhs (v, -Gamma^k_ij v^i v^j) from the Koszul Christoffel
    symbols; the oracle of the closed-form `connection._geodesic_rhs`."""
    x, yy = y6[0], y6[1]
    vx, vy, vz = y6[3], y6[4], y6[5]
    gam = koszul_christoffel_entries(l, m, x, yy)
    acc = [0.0, 0.0, 0.0]
    for k in range(3):
        gk = gam[k]
        acc[k] = -(
            gk[0][0] * vx * vx
            + gk[1][1] * vy * vy
            + gk[2][2] * vz * vz
            + 2.0 * (gk[0][1] * vx * vy + gk[0][2] * vx * vz + gk[1][2] * vy * vz)
        )
    return np.array([vx, vy, vz, acc[0], acc[1], acc[2]])


def killing_pairings(params: MetricParams, state) -> np.ndarray:
    """g(v, K) for K = X, Y, Z, R as killing_eval(K) @ metric_tensor @ v;
    the oracle of the fused `cvgeo.symmetry.first_integrals`."""
    p = state.point
    gv = metric_tensor(params, p) @ np.asarray(state.velocity, dtype=float)
    return np.array([float(killing_eval(params, k, p) @ gv) for k in KILLING_NAMES])


def annotate_rows(params: MetricParams, states) -> tuple[np.ndarray, np.ndarray]:
    """Killing pairings (n, 4) and speeds (n,) of (x, y, z, vx, vy, vz) rows,
    one row at a time; the oracle of `cvgeo.connection.annotate_states`.
    The speed is the norm of the coframe, on Python floats:
    sqrt((vx^2 + vy^2)/D^2 + w3^2) with w3 = omega^3(v) = alpha vx + beta vy + vz,
    alpha = l y/(2D) and beta = -l x/(2D)."""
    n = len(states)
    integrals = np.empty((n, 4))
    speeds = np.empty(n)
    half_l = 0.5 * params.l
    for i, (x, y, z, vx, vy, vz) in enumerate(states.tolist()):
        integrals[i] = first_integrals(params, (x, y, z), (vx, vy, vz))
        D = conformal_factor(params, (x, y, z))
        w3 = half_l * y / D * vx - half_l * x / D * vy + vz
        speeds[i] = math.sqrt((vx * vx + vy * vy) / (D * D) + w3 * w3)
    return integrals, speeds


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


def curvature_fd(params: MetricParams, p) -> np.ndarray:
    """Coordinate curvature R[i, j, k, l] = g(R(d_i, d_j) d_k, d_l).

    Built from the closed-form Christoffels with fourth-order central
    differences of the symbols at step 1e-4 (the symbols do not depend on
    z, so the z derivative is zero).  Its truncation error grows like
    (1e-4 / r)^4 with r the distance to the m < 0 disk boundary.
    """
    x, y, z = require_in_domain(params, p)
    gam = christoffel(params, p)
    h = 1e-4

    def d4(chris_at):
        return (
            -chris_at(2.0 * h) + 8.0 * chris_at(h) - 8.0 * chris_at(-h) + chris_at(-2.0 * h)
        ) / (12.0 * h)

    dgam = np.zeros((3, 3, 3, 3))
    dgam[0] = d4(lambda s: christoffel(params, (x + s, y, z)))
    dgam[1] = d4(lambda s: christoffel(params, (x, y + s, z)))
    # R^l_{.ijk}: coefficient of d_l in R(d_i, d_j) d_k
    rup = (
        np.einsum("iljk->lijk", dgam)
        - np.einsum("jlik->lijk", dgam)
        + np.einsum("lim,mjk->lijk", gam, gam)
        - np.einsum("ljm,mik->lijk", gam, gam)
    )
    g = metric_tensor(params, p)
    return np.einsum("ls,sijk->ijkl", g, rup)


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
    """Ambient point (with its height g(u)) and 3x2 Jacobian (columns X_u,
    X_v) at q = (u, v), one point at a time."""
    u, v = float(q[0]), float(q[1])
    fv = profile.f(u)
    return np.array([fv * math.cos(v), fv * math.sin(v), profile.g(u)]), _jacobian(profile, u, v)


def _unit_normal(params: MetricParams, g: np.ndarray, point, jac) -> np.ndarray:
    """Metric unit normal for the metric g at point, oriented by the sign
    of its omega^3 value, or outward (by the sign of x xi^x + y xi^y) where
    that vanishes."""
    n = np.cross(g @ jac[:, 0], g @ jac[:, 1])
    norm2 = float(n @ g @ n)
    if norm2 <= 1e-28:
        raise ValueError("degenerate tangent plane")
    n = n / math.sqrt(norm2)
    w3 = coframe_values(params, point, n)[2]
    comp = w3 if abs(w3) > 1e-10 else point[0] * n[0] + point[1] * n[1]
    return -n if comp < 0.0 else n


def second_fundamental_form_koszul(params: MetricParams, profile: RevolutionProfile, q) -> np.ndarray:
    """B_ab = g(X_ab + Gamma^k_ij X_a^i X_b^j, xi) at one point q = (u, v),
    with the exact second derivatives X_uu = (f'' cos v, f'' sin v, g''),
    X_uv = (-f' sin v, f' cos v, 0) and X_vv = (-f cos v, -f sin v, 0), the
    Koszul symbols of `koszul_christoffel_entries` and `_unit_normal`."""
    u, v = float(q[0]), float(q[1])
    point, jac = embed(profile, (u, v))
    g = metric_tensor(params, point)
    gxi = g @ _unit_normal(params, g, point, jac)
    gam = np.array(koszul_christoffel_entries(params.l, params.m, point[0], point[1]))
    fppv = profile.fpp(u)
    x_ab = (
        ((0, 0), (fppv * math.cos(v), fppv * math.sin(v), profile.gpp(u))),
        ((0, 1), (-jac[1, 0], jac[0, 0], 0.0)),
        ((1, 1), (-point[0], -point[1], 0.0)),
    )
    b = np.empty((2, 2))
    for (a, c), dd in x_ab:
        b[a, c] = b[c, a] = float((dd + np.einsum("kij,i,j->k", gam, jac[:, a], jac[:, c])) @ gxi)
    return b


def second_fundamental_form_fd(params: MetricParams, profile: RevolutionProfile, q) -> np.ndarray:
    """Symmetrised second fundamental form B_ab = g(nabla_{X_a} X_b, xi),
    with central finite differences (step 1e-6) of the analytic tangent
    vectors for the coordinate second derivatives and the Koszul symbols of
    `koszul_christoffel_entries`."""
    u, v = float(q[0]), float(q[1])
    point, jac = embed(profile, (u, v))
    g = metric_tensor(params, point)
    xi = _unit_normal(params, g, point, jac)
    gxi = g @ xi
    gam = np.array(koszul_christoffel_entries(params.l, params.m, point[0], point[1]))

    h = 1e-6
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
    return 0.5 * (b + b.T)


def surface_rhs_fd(params: MetricParams, profile: RevolutionProfile, y4):
    """Surface-geodesic rhs (u', v', u'', v'') with central differences
    (step 1e-6, shifted one-sided at the domain ends) of E, F and G."""
    u, _, du, dv = y4
    h = 1e-6
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


# Fehlberg tableau as numpy arrays, written out apart from `cvgeo._rk`
_F45_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.25, 0.0, 0.0, 0.0, 0.0],
        [3.0 / 32.0, 9.0 / 32.0, 0.0, 0.0, 0.0],
        [1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0, 0.0, 0.0],
        [439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0, 0.0],
        [-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0],
    ]
)
_F45_B5 = np.array([16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0])
_F45_B4 = np.array([25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0])
_F45_E = _F45_B5 - _F45_B4


def _fehlberg_norm(k, h, scale):
    """RMS of the scaled b5 - b4 estimate."""
    r = ((h * _F45_E) @ k) / scale
    return math.sqrt(np.add.reduce(r * r) / len(r))


def _dop853_norm(k, h, scale):
    """Hairer's combined estimate, as scipy's DOP853 computes it."""
    e5 = (_dop853.E5[:-1] @ k) / scale
    e3 = (_dop853.E3[:-1] @ k) / scale
    s5 = np.add.reduce(e5 * e5)
    s3 = np.add.reduce(e3 * e3)
    if s5 == 0.0 and s3 == 0.0:
        return 0.0
    return h * s5 / math.sqrt((s5 + 0.01 * s3) * len(scale))


# Each pair of `cvgeo._rk`: the stage weights (row i for stage i),
# the solution weights and the error norm.  The DOP853 coefficients are
# scipy's arrays.
_MATRIX_PAIRS = {
    _rk.FEHLBERG45: (_F45_A, _F45_B5, _fehlberg_norm),
    _rk.DOP853: (_dop853.A[:_dop853.N_STAGES, :_dop853.N_STAGES - 1], _dop853.B, _dop853_norm),
}


def rk45_matrix(rhs, y0, t_max: float, tol: float, *, guard, guard_error, pair, room):
    """`cvgeo._rk.rk45` with numpy stages: the same controller, guards, budgets
    and exits, but each stage state and the new state are one matrix product
    of an h-scaled tableau row with the stages, so they round as the BLAS
    build does, and the error norm is that pair's estimator over numpy
    arrays.  rhs gets each state as a list of floats, as in `rk45`."""
    a, b, error_norm = _MATRIX_PAIRS[pair]
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    y = np.asarray(y0, dtype=float).copy()
    if not guard(y):
        raise ValueError("initial state rejected by the domain guard")
    t = 0.0
    f = np.asarray(rhs(y.tolist()), dtype=float)
    ts, ys, fs = [0.0], [y], [f]

    def result(exit_reason):
        return np.array(ts), np.array(ys), np.array(fs), exit_reason

    exponent = -1.0 / (pair.error_order + 1)
    h_max = max(t_max / 8.0, 1e-8)
    h = min(1e-2, t_max / 100.0, h_max)
    k = np.empty((len(b), len(y)))
    k[0] = f
    guard_budget = _rk.GUARD_BUDGET
    for _ in range(_rk.MAX_EVALS // pair.stages):
        if t >= t_max - 1e-14 * max(1.0, t_max):
            return result("complete")
        h = min(h, t_max - t)
        if h < 1e-14 * max(1.0, abs(t)):
            if guard_budget < _rk.GUARD_BUDGET:
                return result("domain-exit")
            raise _rk.StepSizeUnderflow(f"step size underflow at t = {t!r}")

        ha = h * a
        try:
            for i in range(1, len(b)):
                k[i] = rhs((y + ha[i, :i] @ k[:i]).tolist())
        except guard_error:
            target, cap = y + h * f, 0.25
        else:
            y_new = y + (h * b) @ k
            err_norm = error_norm(k, h, tol + tol * np.maximum(np.abs(y), np.abs(y_new)))
            if not np.isfinite(err_norm):
                h *= 0.25
                continue
            if err_norm == 0.0:
                factor = _rk._MAX_FACTOR
            else:
                factor = min(_rk._MAX_FACTOR, max(_rk._MIN_FACTOR, _rk._SAFETY * err_norm ** exponent))
            if err_norm > 1.0:
                h *= factor
                continue
            try:
                f_new = np.asarray(rhs(y_new.tolist()), dtype=float) if guard(y_new) else None
            except guard_error:
                f_new = None
            if f_new is not None:
                t += h
                y = y_new
                f = f_new
                k[0] = f
                ts.append(t)
                ys.append(y)
                fs.append(f)
                h = min(h * factor, h_max)
                continue
            target, cap = y_new, 0.5
        guard_budget -= 1
        if guard_budget <= 0 or h < 1e-13 * max(1.0, abs(t)):
            return result("domain-exit")
        h *= _rk._secant(room(y.tolist()), room(target.tolist()), cap)
    raise _rk.IntegrationError(f"step budget exhausted at t = {t!r} < t_max = {t_max!r}")
