"""Adaptive embedded Runge-Kutta stepper with Hermite dense output.

`rk45` runs one step-size controller over an embedded pair.  Two pairs are
defined: the classic six-stage Fehlberg 4(5) pair (`FEHLBERG45`) and the
twelve-stage Dormand-Prince 8(5,3) pair of Hairer (`DOP853`; Hairer,
Norsett and Wanner, Solving ODEs I, sections II.5 and II.10), with its
combined fifth- and third-order error estimate.  The higher-order solution
is propagated (local extrapolation).  Both pairs make an attempt in one
form: the coefficients are unpacked once when the pair is bound, the state
and the stages are lists of Python floats, each stage state and the new
state is yj + h * (sum of the weighted stages), summed left to right in
IEEE double arithmetic, and the error norm is summed in the same loop as
the new state, so the knots do not depend on a BLAS build.  Dense output
between accepted steps is the Hermite interpolant on (y, f) at the four
knots around each interval.

The stepper is generic over the state dimension; the geodesic integrators
in `connection` (DOP853) and `surfaces` (Fehlberg) both run on it.  Each
gives it the signed room to its domain's edge, which is required, and a
guard derived from that room, so that a step that lands outside is retried
at the secant of the room rather than at half its length.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "StepSizeUnderflow",
    "IntegrationError",
    "Pair",
    "FEHLBERG45",
    "DOP853",
    "rk45",
    "hermite_sample",
]

# Fehlberg tableau: row i of _F45_A holds the weights of stages 0..i-1 in stage i
_F45_A = (
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_F45_B = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
# b5 - b4, for the local error estimate of the fourth-order solution
_F45_E = (
    16.0 / 135.0 - 25.0 / 216.0,
    0.0,
    6656.0 / 12825.0 - 1408.0 / 2565.0,
    28561.0 / 56430.0 - 2197.0 / 4104.0,
    -9.0 / 50.0 + 1.0 / 5.0,
    2.0 / 55.0,
)

# Hairer's DOP853 coefficients as doubles, as scipy's dop853_coefficients
# states them: row i of _DOP853_A holds the weights of stages 0..i-1 in
# stage i, _DOP853_B the eighth-order weights, and _DOP853_E5 and
# _DOP853_E3 = b - bhh the weights of the fifth- and third-order error
# estimates.  The weight of f(y_new) in both estimates is zero, so it is
# left out.
_DOP853_A = (
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
)
_DOP853_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
             -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
             0.04471061572777259)
_DOP853_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
              1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
              -0.022355307863886294)
_DOP853_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
              -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
              0.02265179219836082)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# hermite_sample skips knots beyond a step this many times shorter than the
# interval; the controller grows h by at most _MAX_FACTOR per step, so a
# shorter neighbour follows a rejection, a guard cut or the final step
_SHORT_STEP = 8.0


# rhs evaluations one integration may spend, charged per attempt at the
# count of an accepted step (6 Fehlberg, 12 DOP853); a module constant, so
# tests can lower it.
MAX_EVALS = 3_000_000
# Guard rejections (failed guard or guard_error stage) allowed in one run.
GUARD_BUDGET = 256
# The secant retry after a guard rejection aims this fraction of the way to
# the guard's boundary: aimed at the boundary itself, it lands on either
# side by rounding, and a landing just outside would only halve the step.
_SECANT_AIM = 0.999


class StepSizeUnderflow(RuntimeError):
    """The controller drove the step below the resolvable size."""


class IntegrationError(RuntimeError):
    """The step budget was exhausted before reaching t_max."""


class Pair(NamedTuple):
    """An embedded Runge-Kutta pair as `rk45` runs it.

    `bind(rhs, tol)` returns attempt(y, k0, h) -> (y_new, err_norm): the
    stages of one step of size h from y, whose rhs value is k0, the new
    state and the error norm, scaled so that 1 is the tolerance.  A stage
    outside the domain raises from inside the attempt.  `error_order` is
    the order of the error estimate, which sets the step exponent, and
    `stages` the rhs evaluations of an accepted step, f(y_new) included.
    """

    error_order: int
    stages: int
    bind: Callable


def _bind_fehlberg(rhs, tol):
    # the zero weights of stage 1 in the solution and error weights are left out
    ((a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), (a50, a51, a52, a53, a54)) = _F45_A
    b0, _, b2, b3, b4, b5 = _F45_B
    e0, _, e2, e3, e4, e5 = _F45_E

    def attempt(y, k0, h):
        k1 = rhs([yj + h * (a10 * p0) for yj, p0 in zip(y, k0)])
        k2 = rhs([yj + h * (a20 * p0 + a21 * p1) for yj, p0, p1 in zip(y, k0, k1)])
        k3 = rhs([yj + h * (a30 * p0 + a31 * p1 + a32 * p2) for yj, p0, p1, p2 in zip(y, k0, k1, k2)])
        k4 = rhs([yj + h * (a40 * p0 + a41 * p1 + a42 * p2 + a43 * p3)
                  for yj, p0, p1, p2, p3 in zip(y, k0, k1, k2, k3)])
        k5 = rhs([yj + h * (a50 * p0 + a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
                  for yj, p0, p1, p2, p3, p4 in zip(y, k0, k1, k2, k3, k4)])
        # the RMS of h err / (tol + tol max(|y|, |y_new|)), summed in order:
        # numpy's add.reduce over the same terms.  Python's max skips a nan
        # in y_new where numpy's maximum keeps it; the error is nan there as
        # well, since the error weights are nonzero wherever the solution
        # weights are, so the norm is nan either way
        y_new = []
        s = 0.0
        for yj, p0, p2, p3, p4, p5 in zip(y, k0, k2, k3, k4, k5):
            yn = yj + h * (b0 * p0 + b2 * p2 + b3 * p3 + b4 * p4 + b5 * p5)
            y_new.append(yn)
            sc = tol + tol * max(abs(yj), abs(yn))
            q = h * (e0 * p0 + e2 * p2 + e3 * p3 + e4 * p4 + e5 * p5) / sc
            s += q * q
        return y_new, math.sqrt(s / len(y))

    return attempt


def _bind_dop853(rhs, tol):
    # the zero weights (stages 1-2 from stage 3 on, stages 1-4 in the
    # solution and error weights) are left out
    ((a10,), (a20, a21), (a30, _, a32), (a40, _, a42, a43), (a50, _, _, a53, a54),
     (a60, _, _, a63, a64, a65), (a70, _, _, a73, a74, a75, a76),
     (a80, _, _, a83, a84, a85, a86, a87), (a90, _, _, a93, a94, a95, a96, a97, a98),
     (a100, _, _, a103, a104, a105, a106, a107, a108, a109),
     (a110, _, _, a113, a114, a115, a116, a117, a118, a119, a1110)) = _DOP853_A
    b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11 = _DOP853_B
    e0, _, _, _, _, e5, e6, e7, e8, e9, e10, e11 = _DOP853_E5
    d0, _, _, _, _, d5, d6, d7, d8, d9, d10, d11 = _DOP853_E3

    def attempt(y, k0, h):
        k1 = rhs([yj + h * (a10 * p0) for yj, p0 in zip(y, k0)])
        k2 = rhs([yj + h * (a20 * p0 + a21 * p1) for yj, p0, p1 in zip(y, k0, k1)])
        k3 = rhs([yj + h * (a30 * p0 + a32 * p2) for yj, p0, p2 in zip(y, k0, k2)])
        k4 = rhs([yj + h * (a40 * p0 + a42 * p2 + a43 * p3) for yj, p0, p2, p3 in zip(y, k0, k2, k3)])
        k5 = rhs([yj + h * (a50 * p0 + a53 * p3 + a54 * p4) for yj, p0, p3, p4 in zip(y, k0, k3, k4)])
        k6 = rhs([yj + h * (a60 * p0 + a63 * p3 + a64 * p4 + a65 * p5)
                  for yj, p0, p3, p4, p5 in zip(y, k0, k3, k4, k5)])
        k7 = rhs([yj + h * (a70 * p0 + a73 * p3 + a74 * p4 + a75 * p5 + a76 * p6)
                  for yj, p0, p3, p4, p5, p6 in zip(y, k0, k3, k4, k5, k6)])
        k8 = rhs([yj + h * (a80 * p0 + a83 * p3 + a84 * p4 + a85 * p5 + a86 * p6 + a87 * p7)
                  for yj, p0, p3, p4, p5, p6, p7 in zip(y, k0, k3, k4, k5, k6, k7)])
        k9 = rhs([yj + h * (a90 * p0 + a93 * p3 + a94 * p4 + a95 * p5 + a96 * p6 + a97 * p7 + a98 * p8)
                  for yj, p0, p3, p4, p5, p6, p7, p8 in zip(y, k0, k3, k4, k5, k6, k7, k8)])
        k10 = rhs([yj + h * (a100 * p0 + a103 * p3 + a104 * p4 + a105 * p5 + a106 * p6 + a107 * p7
                             + a108 * p8 + a109 * p9)
                   for yj, p0, p3, p4, p5, p6, p7, p8, p9 in zip(y, k0, k3, k4, k5, k6, k7, k8, k9)])
        k11 = rhs([yj + h * (a110 * p0 + a113 * p3 + a114 * p4 + a115 * p5 + a116 * p6 + a117 * p7
                             + a118 * p8 + a119 * p9 + a1110 * p10)
                   for yj, p0, p3, p4, p5, p6, p7, p8, p9, p10
                   in zip(y, k0, k3, k4, k5, k6, k7, k8, k9, k10)])
        # Hairer's error norm: h |err5|^2 / sqrt(n (|err5|^2 + 0.01 |err3|^2)),
        # each component scaled by tol + tol max(|y|, |y_new|)
        y_new = []
        s5 = s3 = 0.0
        for yj, p0, p5, p6, p7, p8, p9, p10, p11 in zip(y, k0, k5, k6, k7, k8, k9, k10, k11):
            yn = yj + h * (b0 * p0 + b5 * p5 + b6 * p6 + b7 * p7 + b8 * p8 + b9 * p9 + b10 * p10
                           + b11 * p11)
            y_new.append(yn)
            sc = tol + tol * max(abs(yj), abs(yn))
            q5 = (e0 * p0 + e5 * p5 + e6 * p6 + e7 * p7 + e8 * p8 + e9 * p9 + e10 * p10 + e11 * p11) / sc
            q3 = (d0 * p0 + d5 * p5 + d6 * p6 + d7 * p7 + d8 * p8 + d9 * p9 + d10 * p10 + d11 * p11) / sc
            s5 += q5 * q5
            s3 += q3 * q3
        if s5 == 0.0 and s3 == 0.0:
            return y_new, 0.0
        return y_new, h * s5 / math.sqrt((s5 + 0.01 * s3) * len(y))

    return attempt


FEHLBERG45 = Pair(4, 6, _bind_fehlberg)
DOP853 = Pair(7, 12, _bind_dop853)


def rk45(rhs, y0, t_max: float, tol: float, *, guard, guard_error, pair: Pair, room):
    """Integrate y' = rhs(y) from t=0 to t_max with local error <= tol.

    The state is a list of floats: rhs(y) takes one and returns a sequence
    of floats (a tuple, for the integrators of this package); the knots
    keep both uncopied until the run ends.  `room(y) -> float` is the
    signed distance to the edge of the domain, and guard(y) -> bool marks
    the states that are still acceptable, with guard(y) false wherever
    room(y) < 0 (each integrator of this package derives its guard from
    its room).  A step landing on a rejected state is retried with a
    smaller h, and if h underflows near the obstruction the partial
    solution is returned with exit reason "domain-exit".  `guard_error` is
    the exception type the rhs may raise for out-of-domain stage
    evaluations; it is handled the same way.  `pair` is the embedded pair
    that makes each attempt (`FEHLBERG45` or `DOP853`).

    A step that passes the error test but lands where room(y_new) < 0 is
    retried at the secant step _SECANT_AIM h room(y) / (room(y) -
    room(y_new)), just short of where the room vanishes, capped at h / 2;
    any other rejection of a landing halves h (Shampine and Thompson,
    Event location for ordinary differential equations, 2000).

    Returns (ts, ys, fs, exit_reason) with the accepted knots as arrays and
    the rhs values there; exit_reason is "complete" or "domain-exit".
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if t_max <= 0.0:
        raise ValueError("t_max must be positive")
    y = np.asarray(y0, dtype=float).tolist()
    if not guard(y):
        raise ValueError("initial state rejected by the domain guard")
    t = 0.0
    k0 = rhs(y)
    ts, ys, fs = [0.0], [y], [k0]

    def result(exit_reason):
        return np.array(ts), np.array(ys, dtype=float), np.array(fs, dtype=float), exit_reason

    attempt = pair.bind(rhs, tol)
    exponent = -1.0 / (pair.error_order + 1)
    h_max = max(t_max / 8.0, 1e-8)
    h = min(1e-2, t_max / 100.0, h_max)

    # While the guard keeps rejecting, h must not regrow, or the run creeps
    # forever toward an asymptotic obstruction; a clean acceptance (no
    # rejection since the previous accepted step) lifts the suppression so
    # paths that merely graze the boundary recover full step sizes.  A hard
    # budget of rejections ends runs whose state advances only at float
    # resolution against the obstruction (boundary-asymptotic geodesics).
    guard_hit = False
    guard_budget = GUARD_BUDGET
    for _ in range(MAX_EVALS // pair.stages):
        if t >= t_max - 1e-14 * max(1.0, t_max):
            return result("complete")
        h = min(h, t_max - t)
        if h < 1e-14 * max(1.0, abs(t)):
            if guard_budget < GUARD_BUDGET:
                return result("domain-exit")
            raise StepSizeUnderflow(f"step size underflow at t = {t!r}")

        try:
            y_new, err_norm = attempt(y, k0, h)
        except guard_error:
            # a stage left the domain: a guard rejection that shrinks h
            guard_hit = True
            guard_budget -= 1
            if guard_budget <= 0:
                return result("domain-exit")
            h *= 0.25
            continue

        if err_norm <= 1.0:
            rejected = not guard(y_new)
            if not rejected:
                try:
                    f_new = rhs(y_new)
                except guard_error:
                    rejected = True
            if rejected:
                guard_hit = True
                guard_budget -= 1
                if guard_budget <= 0 or h < 1e-13 * max(1.0, abs(t)) or h <= 1e-15:
                    return result("domain-exit")
                r_new = room(y_new)
                if r_new < 0.0:
                    r = room(y)
                    h *= min(0.5, _SECANT_AIM * r / (r - r_new))
                else:
                    h *= 0.5
                continue
            t += h
            y = y_new
            k0 = f_new
            ts.append(t)
            ys.append(y)
            fs.append(k0)
            if guard_hit:
                # accepted while skirting the guard: hold h steady and
                # lift the suppression only after a clean acceptance
                guard_hit = False
                h = min(h, h_max)
                continue
            if err_norm == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** exponent))
            h = min(h * factor, h_max)
        elif not math.isfinite(err_norm):
            h *= 0.25
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** exponent)
    raise IntegrationError(f"step budget exhausted at t = {t!r} < t_max = {t_max!r}")


def hermite_sample(ts, ys, fs, t_query) -> np.ndarray:
    """Hermite interpolation of the accepted knots at times t_query.

    On each interval the interpolant matches y and f = y' at its two ends
    and at two more knots: the nearest one on each side, or the nearest two
    on one side in the first and last intervals.  That is degree 7, or
    degree 5 or 3 when the run has three knots or two.  A knot beyond a step
    shorter than 1/_SHORT_STEP of the interval is not used, and the next
    knot out is taken in its place, since such a step would amplify the
    rounding of the knots by up to the cube of that ratio; where none is
    left the degree drops to 5 or 3.  A query at a knot time returns that
    knot's state.  Query times must lie inside [ts[0], ts[-1]].
    """
    ts = np.asarray(ts)
    ys = np.asarray(ys)
    fs = np.asarray(fs)
    tq = np.atleast_1d(np.asarray(t_query, dtype=float))
    if tq.min() < ts[0] - 1e-12 or tq.max() > ts[-1] + 1e-12:
        raise ValueError("query time outside the integrated span")
    n = len(ts)
    if n == 1:
        out = np.broadcast_to(ys[0], (len(tq),) + ys[0].shape).copy()
        return out if np.ndim(t_query) else out[0]
    tq = np.clip(tq, ts[0], ts[-1])
    # the intervals queried, and each query's place among them
    i, pos = np.unique(np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, n - 2),
                       return_inverse=True)
    # the outer knots of interval i: the first two usable of i-1, i+2, i-2
    # and i+3, where a knot is usable if it exists and no short step lies
    # between it and the interval
    hp = np.concatenate(([0.0, 0.0], np.diff(ts), [0.0, 0.0]))  # hp[j + 2] = h[j], 0 outside
    short = hp[i + 2] * (1.0 / _SHORT_STEP)
    near_l = hp[i + 1] >= short
    near_r = hp[i + 3] >= short
    used = np.stack([near_l | near_r,
                     np.where(near_l, near_r | (hp[i] >= short), near_r & (hp[i + 4] >= short))])
    outer = np.stack([np.where(near_l, i - 1, i + 2),
                      np.where(near_l, np.where(near_r, i + 2, i - 2), i + 3)])
    knots = np.stack([i, i + 1, *np.where(used, outer, i)]).repeat(2, axis=0)
    # Newton divided differences on the doubled knot times, the interval's
    # ends first: after the pass of order o, c[k] = [z_{k-o}, ..., z_k] for
    # k >= o, so c[k] ends as the k-th Newton coefficient.  An unused outer
    # knot repeats knot i; its coefficients are not finite and are dropped.
    z = ts[knots]
    c = ys[knots]
    with np.errstate(divide="ignore", invalid="ignore"):
        for order in range(1, 8):
            c[order:] = (c[order:] - c[order - 1:-1]) / (z[order:] - z[:-order])[..., None]
            if order == 1:
                c[1::2] = fs[knots[1::2]]  # [z, z] = f at a doubled knot
    c[4:] = np.where(used.repeat(2, axis=0)[..., None], c[4:], 0.0)
    c = c[:, pos]
    dt = tq - z[::2, pos]
    out = c[7]
    for k in range(6, -1, -1):
        out = c[k] + dt[k // 2][:, None] * out
    at = np.searchsorted(ts, tq)
    hit = ts[at] == tq
    out[hit] = ys[at[hit]]
    return out if np.ndim(t_query) else out[0]
