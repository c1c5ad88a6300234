"""Levi-Civita connection, curvature and the numeric geodesic integrator.

The connection has one formulation: the frame connection of the
E(kappa, tau) spaces (kappa = 4m, tau = l/2) written back in coordinates
as the geodesic acceleration A(v) = -Gamma(v, v) of `_rhs_entries`, a few
scalar operations per evaluation.  `christoffel`, the table Gamma(e_i, e_j)
at one point that the Killing defects read, is its polarisation.  The
curvature tensor is the closed form of the E(kappa, tau) spaces.  The
Koszul symbols, the rhs from them and finite differences of the metric
and of the symbols are the oracles of these closed forms; they live with
the tests (`tests/oracles.py`).

The geodesic integrator is the adaptive stepper of `_rk` with the
Dormand-Prince 8(5,3) pair, default tolerance 1e-10, with degree-7
Hermite dense output.  It is the independent oracle against which every
closed-form geodesic of this package is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _rk
from .space import (
    DomainError,
    MetricParams,
    Point3,
    _is_rows,
    _xyz,
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
    "sectional_curvature",
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


def _rhs_entries(l: float, m: float, y6) -> tuple:
    """Geodesic rhs (v, a) in closed form: the E(kappa, tau) frame connection
    written back in coordinates by the chain rule.

    With D = 1 + m rho^2, c = (y vx - x vy)/D, r = (x vx + y vy)/D and
    K = l (vz + l c/2) - 2 m c (vz + l c/2 is omega^3(v)):
        ax = 2 m r vx - K vy,  ay = 2 m r vy + K vx,  az = (l/2) K r.
    The state is a list of Python floats and the result a tuple of them.
    numpy's errstate does not watch Python floats, so a D or an
    acceleration that is not finite raises FloatingPointError; from a
    finite state only an overflow makes one.
    """
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


def christoffel(params: MetricParams, p) -> np.ndarray:
    """Gamma^k_ij of the Levi-Civita connection at one point, shape (3, 3, 3).

    The acceleration A(v) = -Gamma(v, v) of `_rhs_entries`, polarised:
    Gamma(e_i, e_i) = -A(e_i) and Gamma(e_i, e_j) = (A(e_i) + A(e_j) -
    A(e_i + e_j)) / 2, from six rhs calls; each Gamma^k_ij with i != j is
    computed once, so the table is symmetric in (i, j) bit for bit.  An
    acceleration that overflows raises FloatingPointError.
    """
    require_in_domain(params, p)
    x, y, _ = _xyz(p)
    l, m = float(params.l), float(params.m)
    # A at e_i, then at e_i + e_j, for each pair (i, j)
    pairs = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
    vels = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0))
    acc = [_rhs_entries(l, m, [x, y, 0.0, *v])[3:] for v in vels]
    gam = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for k, gk in enumerate(gam):
        for (i, j), a in zip(pairs, acc):
            gk[i][j] = gk[j][i] = -a[k] if i == j else 0.5 * (acc[i][k] + acc[j][k] - a[k])
    return np.array(gam)


def state_speed(params: MetricParams, point, velocity):
    """Metric norm |v|_g of a velocity at a point.

    point and velocity are one point and one vector, for a float, or (n, 3)
    arrays of points and velocities, for an (n,) array: one `metric_tensor`
    call and one stacked v g v product serve every row, and each entry is the
    one-point call's, bit for bit.
    """
    g = metric_tensor(params, point)
    v = np.asarray(velocity, dtype=float)
    if _is_rows(point):
        sq = (v[..., None, :] @ g @ v[..., :, None])[..., 0, 0]
        return np.sqrt(np.where(sq < 0.0, 0.0, sq))  # max(sq, 0.0), elementwise
    return math.sqrt(max(float(v @ g @ v), 0.0))


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
    _knots_t: np.ndarray = field(repr=False)
    _knots_y: np.ndarray = field(repr=False)
    _knots_f: np.ndarray = field(repr=False)

    @property
    def complete(self) -> bool:
        return self.exit_reason == "complete"

    @property
    def t_end(self) -> float:
        return float(self.ts[-1])

    def sample(self, t_query) -> np.ndarray:
        """Interpolated (n, 6) states at the requested times."""
        return _rk.hermite_sample(self._knots_t, self._knots_y, self._knots_f, t_query)

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
        integrals[i] = first_integrals(params, GeodesicState(Point3(*row[:3]), row[3:]))
    return integrals, state_speed(params, states[:, :3], states[:, 3:])


def integrate_geodesic(
    params: MetricParams,
    s0: GeodesicState,
    t_max: float,
    tol: float = DEFAULT_TOL,
    samples: int | None = None,
) -> Trajectory:
    """Integrate the geodesic from s0 over [0, t_max].

    With `samples` given, the trajectory rows sit on a uniform time grid
    (degree-7 Hermite dense output); otherwise the accepted integration steps
    are returned.  For m < 0 the run stops with exit_reason "domain-exit"
    when the path comes within BOUNDARY_MARGIN of the disk boundary.
    """
    require_in_domain(params, s0.point)
    if samples is not None and samples < 2:
        raise ValueError("samples must be at least 2")
    l, m = float(params.l), float(params.m)  # the rhs runs on Python floats

    def rhs(y6):
        return _rhs_entries(l, m, y6)

    # the signed room to the domain's edge: the m < 0 stop shell, or the
    # chart bound.  The guard is room > 0, the same test on every float, inf
    # and nan as rho^2 < the shell's rho^2 and max |coordinate| < CHART_BOUND
    if m < 0.0:
        rho2_stop = -1.0 / m - BOUNDARY_MARGIN

        def room(y6, _lim=rho2_stop):
            return _lim - (y6[0] * y6[0] + y6[1] * y6[1])

    else:

        def room(y6):
            return CHART_BOUND - max(abs(y6[0]), abs(y6[1]), abs(y6[2]))

    def guard(y6):
        return room(y6) > 0.0

    ts, ys, fs, exit_reason = _rk.rk45(
        rhs, s0.as_array(), t_max, tol,
        guard=guard, guard_error=DomainError, pair=_rk.DOP853, room=room,
    )
    if samples is None:
        t_out, y_out = ts, ys
    else:
        t_out = np.linspace(0.0, ts[-1], samples)
        y_out = _rk.hermite_sample(ts, ys, fs, t_out)
    integrals, speeds = annotate_states(params, y_out)
    return Trajectory(
        params=params,
        ts=np.asarray(t_out, dtype=float),
        states=np.asarray(y_out, dtype=float),
        integrals=integrals,
        speeds=speeds,
        exit_reason=exit_reason,
        _knots_t=ts,
        _knots_y=ys,
        _knots_f=fs,
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


def sectional_curvature(params: MetricParams, p, u, v) -> float:
    """Sectional curvature of the plane spanned by coordinate vectors u, v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    g = metric_tensor(params, p)
    gram = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
    scale = max(float(u @ u) * float(v @ v), 1e-300)
    if gram <= 1e-12 * scale:
        raise ValueError("degenerate plane: u, v are metrically collinear")
    r = curvature_tensor(params, p)
    num = float(np.einsum("ijkl,i,j,k,l->", r, u, v, v, u))
    return num / float(gram)


def frame_sectional(params: MetricParams, p) -> tuple[float, float]:
    """Sectional curvatures of the (E1, E2) and (E1, E3) frame planes."""
    fr = frame(params, p)
    return (
        sectional_curvature(params, p, fr.e1, fr.e2),
        sectional_curvature(params, p, fr.e1, fr.e3),
    )
