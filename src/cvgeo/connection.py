"""Levi-Civita connection, curvature and the numeric geodesic integrator.

The connection has one formulation: the frame connection of the
E(kappa, tau) spaces (kappa = 4m, tau = l/2) written back in coordinates
as the geodesic acceleration A(v) = -Gamma(v, v) of the rhs that
`_geodesic_rhs` builds, a few scalar operations per evaluation.
`christoffel`, the table Gamma(e_i, e_j) at one point that the Killing
defects read, is its polarisation.  The curvature tensor is the closed
form of the E(kappa, tau) spaces.  The Koszul symbols, the rhs from them
and finite differences of the metric and of the symbols are the oracles
of these closed forms; they live with the tests (`tests/oracles.py`).

The geodesic integrator is the adaptive stepper of `_rk` with the
Dormand-Prince 8(5,3) pair, default tolerance 1e-10, with degree-7
Hermite dense output.  It is the independent oracle against which every
closed-form geodesic of this package is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rk
from .space import (
    DomainError,
    MetricParams,
    Point3,
    _is_rows,
    frame,
    metric_tensor,
    require_in_domain,
)

__all__ = [
    "GeodesicState",
    "Trajectory",
    "christoffel",
    "integrate_geodesic",
    "curvature_tensor",
    "frame_sectional",
    "state_speed",
    "annotate_states",
]

DEFAULT_TOL = 1e-10

# Margin at which integration stops before the m < 0 disk boundary.
BOUNDARY_MARGIN = 1e-9

# Coordinate bound beyond which integration stops: for m > 0 the chart
# misses one vertical fiber (the antipodal axis) and geodesics aimed at it
# leave every bounded region in finite time.
CHART_BOUND = 1e6


@dataclass(frozen=True)
class GeodesicState:
    """A base point together with a coordinate velocity vector."""

    point: Point3
    velocity: np.ndarray

    def as_array(self) -> np.ndarray:
        return np.concatenate([self.point.as_array(), np.asarray(self.velocity, dtype=float)])


def _geodesic_rhs(l: float, m: float):
    """rhs(y6) -> (v, a), the geodesic rhs of the floats l and m in closed
    form: the E(kappa, tau) frame connection written back in coordinates by
    the chain rule.

    With D = 1 + m rho^2, c = (y vx - x vy)/D, r = (x vx + y vy)/D and
    K = l (vz + l c/2) - 2 m c (vz + l c/2 is omega^3(v)):
        ax = 2 m r vx - K vy,  ay = 2 m r vy + K vx,  az = (l/2) K r.
    The state is a list of Python floats and the result a tuple of them.
    numpy's errstate does not watch Python floats, so a D or an
    acceleration that is not finite raises FloatingPointError; from a
    finite state only an overflow makes one.
    """

    def rhs(y6):
        x, yy, _, vx, vy, vz = y6
        D = 1.0 + m * (x * x + yy * yy)
        if not math.isfinite(D):
            raise FloatingPointError("overflow encountered in the geodesic rhs")
        if D <= 0.0:
            raise DomainError(f"metric degenerate: D = {D!r}")
        c = (yy * vx - x * vy) / D
        r = (x * vx + yy * vy) / D
        K = l * (vz + 0.5 * l * c) - 2.0 * m * c
        mr2 = 2.0 * m * r
        ax = mr2 * vx - K * vy
        ay = mr2 * vy + K * vx
        az = 0.5 * l * K * r
        if not (math.isfinite(ax) and math.isfinite(ay) and math.isfinite(az)):
            raise FloatingPointError("overflow encountered in the geodesic rhs")
        return vx, vy, vz, ax, ay, az

    return rhs


def christoffel(params: MetricParams, p) -> np.ndarray:
    """Gamma^k_ij of the Levi-Civita connection at one point, shape (3, 3, 3).

    The acceleration A(v) = -Gamma(v, v) of `_geodesic_rhs`, polarised:
    Gamma(e_i, e_i) = -A(e_i) and Gamma(e_i, e_j) = (A(e_i) + A(e_j) -
    A(e_i + e_j)) / 2, from six rhs calls; each Gamma^k_ij with i != j is
    computed once, so the table is symmetric in (i, j) bit for bit.  An
    acceleration that overflows raises FloatingPointError.
    """
    x, y, _ = require_in_domain(params, p)
    rhs = _geodesic_rhs(float(params.l), float(params.m))
    # A at e_i, then at e_i + e_j, for each pair (i, j)
    pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    vels = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0))
    acc = [rhs([x, y, 0.0, *v])[3:] for v in vels]
    gam = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for k, gk in enumerate(gam):
        for (i, j), a in zip(pairs, acc):
            gk[i][j] = gk[j][i] = -a[k] if i == j else 0.5 * (acc[i][k] + acc[j][k] - a[k])
    return np.array(gam)


def state_speed(params: MetricParams, point, velocity):
    """Metric norm |v|_g of a velocity at a point.

    point and velocity are (n, 3) arrays of points and velocities, for an
    (n,) array, or one point and one vector, which is one row, for a float:
    one `metric_tensor` call and one stacked v g v contraction serve both.
    """
    g = metric_tensor(params, point)
    v = np.asarray(velocity, dtype=float)
    sq = (v[..., None, :] @ g @ v[..., :, None])[..., 0, 0]
    speed = np.sqrt(np.where(sq < 0.0, 0.0, sq))  # max(sq, 0.0), elementwise
    return speed if _is_rows(point) else float(speed)


@dataclass(frozen=True)
class Trajectory:
    """A time-sampled geodesic with conserved-quantity annotations.

    `states` rows are (x, y, z, vx, vy, vz); `integrals` rows hold the four
    Killing-field pairings g(v, X), g(v, Y), g(v, Z), g(v, R); `speeds` the
    metric norm of the velocity.  `exit_reason` is "complete" or
    "domain-exit": the m < 0 disk boundary was approached, or the path left
    the chart (m > 0 geodesics through the antipodal fiber), and
    integration stopped with the partial trajectory.

    Conservation caveat: in the m < 0 stop shell the conformal factor
    collapses (D ~ 1e-9) and the metric entries reach ~1/D^2, so the
    integral and speed annotations there are ill-conditioned in the state;
    they are reported as computed.  Away from the shell (D bounded below)
    they are constant to integrator accuracy.  A "complete" m < 0 run can
    end inside the shell too, and there its integrals are rounding noise.
    """

    params: MetricParams
    ts: np.ndarray
    states: np.ndarray
    integrals: np.ndarray
    speeds: np.ndarray
    exit_reason: str

    @property
    def complete(self) -> bool:
        return self.exit_reason == "complete"

    def positions(self) -> np.ndarray:
        return self.states[:, :3]


def annotate_states(params: MetricParams, states) -> tuple[np.ndarray, np.ndarray]:
    """Killing pairings (n, 4) and metric speeds (n,) of (x, y, z, vx, vy, vz) rows.

    The pairings take one `first_integrals` call per row, the speeds one
    `state_speed` call for all rows.
    """
    from .symmetry import first_integrals  # deferred: symmetry imports this module

    integrals = np.empty((len(states), 4))
    for i, row in enumerate(states.tolist()):
        integrals[i] = first_integrals(params, row[:3], row[3:])
    return integrals, state_speed(params, states[:, :3], states[:, 3:])


def stop_shell_rho2(params: MetricParams) -> float:
    """rho^2 = -1/m - BOUNDARY_MARGIN of the m < 0 stop shell, where geodesic
    runs end.  For m <= -1/BOUNDARY_MARGIN it is not positive: the shell lies
    at or past the origin, and DomainError is raised."""
    rho2 = -1.0 / params.m - BOUNDARY_MARGIN
    if not rho2 > 0.0:
        raise DomainError(f"the stop shell x^2+y^2 = {rho2!r} of m = {params.m!r} is at or past the origin")
    return rho2


def integrate_geodesic(
    params: MetricParams,
    s0: GeodesicState,
    t_max: float,
    tol: float = DEFAULT_TOL,
    samples: int | None = None,
) -> Trajectory:
    """Integrate the geodesic from s0 over [0, t_max] by `_rk.solve`.

    With `samples` given, the trajectory rows sit on a uniform time grid
    (degree-7 Hermite dense output); otherwise the accepted integration steps
    are returned.  The run stops with exit_reason "domain-exit" where its
    room runs out: for m < 0 at `stop_shell_rho2`, and otherwise at
    CHART_BOUND.  A shell at or past the origin, or a start past the edge,
    raises DomainError.
    """
    x, y, z = require_in_domain(params, s0.point)
    m = float(params.m)
    rhs = _geodesic_rhs(float(params.l), m)  # the rhs runs on Python floats

    # the signed room to the domain's edge: the stop shell, or the chart bound
    if m < 0.0:

        def room(y6, _lim=stop_shell_rho2(params)):
            return _lim - (y6[0] * y6[0] + y6[1] * y6[1])

    else:

        def room(y6):
            return CHART_BOUND - max(abs(y6[0]), abs(y6[1]), abs(y6[2]))

    y0 = s0.as_array()
    if not room(y0) >= 0.0:
        if m < 0.0:
            edge = f"x^2+y^2 = {x * x + y * y!r} past the stop shell x^2+y^2 = {stop_shell_rho2(params)!r}"
        else:
            edge = f"(x, y, z) = ({x!r}, {y!r}, {z!r}) past the chart bound max(|x|, |y|, |z|) = {CHART_BOUND!r}"
        raise DomainError(f"start point with {edge} (m = {m!r})")
    t_out, y_out, exit_reason = _rk.solve(rhs, y0, t_max, tol, pair=_rk.DOP853, room=room, samples=samples)
    integrals, speeds = annotate_states(params, y_out)
    return Trajectory(
        params=params,
        ts=np.asarray(t_out, dtype=float),
        states=np.asarray(y_out, dtype=float),
        integrals=integrals,
        speeds=speeds,
        exit_reason=exit_reason,
    )


def curvature_tensor(params: MetricParams, p) -> np.ndarray:
    """Coordinate curvature R[i, j, k, l] = g(R(d_i, d_j) d_k, d_l).

    Closed form of the E(kappa, tau) spaces with kappa = 4m and tau = l/2
    (B. Daniel, Comment. Math. Helv. 82, 2007): the Kulkarni-Nomizu product
    g (.) S with S = (2m - 3 l^2/8) g - (4m - l^2) eta (x) eta, where
    eta = g[2] is omega^3 lowered.  Hence K(E1, E2) = 4m - 3 l^2/4 and
    K(E1, E3) = K(E2, E3) = l^2/4.  The tests check it against a
    finite-difference curvature of the analytic Christoffel symbols.
    """
    g = metric_tensor(params, p)
    l, m = params.l, params.m
    eta = g[2]
    s = (2.0 * m - 0.375 * l * l) * g - (4.0 * m - l * l) * np.outer(eta, eta)
    gs = np.einsum("il,jk->ijkl", g, s) + np.einsum("il,jk->ijkl", s, g)
    return gs - gs.transpose(0, 1, 3, 2)


def _sectional(g, r, u, v) -> float:
    """Sectional curvature of the plane of u, v from the metric g and the
    curvature tensor r at one point."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gram = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    scale = max(float(u @ u) * float(v @ v), 1e-300)
    if gram <= 1e-12 * scale:
        raise ValueError("degenerate plane: u, v are metrically collinear")
    num = float(np.einsum("ijkl,i,j,k,l->", r, u, v, v, u))
    return num / float(gram)


def frame_sectional(params: MetricParams, p) -> tuple[float, float]:
    """Sectional curvatures of the (E1, E2) and (E1, E3) frame planes."""
    fr = frame(params, p)
    g, r = metric_tensor(params, p), curvature_tensor(params, p)
    return _sectional(g, r, fr.e1, fr.e2), _sectional(g, r, fr.e1, fr.e3)
