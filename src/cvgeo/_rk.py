"""Adaptive embedded Runge-Kutta stepper with Hermite dense output.

`rk45` runs one step-size controller over an embedded pair.  Two pairs are
defined: the classic six-stage Fehlberg 4(5) pair (`FEHLBERG45`) and the
twelve-stage Dormand-Prince 8(5,3) pair of Hairer (`DOP853`; Hairer,
Norsett and Wanner, Solving ODEs I, sections II.5 and II.10), with its
combined fifth- and third-order error estimate.  The higher-order solution
is propagated (local extrapolation).  Both pairs make an attempt through
one generator: on first use for a (pair, state dimension) it writes the
attempt as straight-line Python with the state and the stages in locals and
the coefficients as float literals, and compiles it once for the process.
Each stage state and the new state is yj + h * (sum of the nonzero weighted
stages), summed left to right in IEEE double arithmetic, and the error norm
is the pair's own over the components in order, so the knots do not depend
on a BLAS build.  Dense output between accepted steps is the Hermite
interpolant on (y, f) at the four knots around each interval.

The stepper is generic over the state dimension; the geodesic integrators
in `connection` (DOP853) and `surfaces` (Fehlberg) both run on it through
`solve`, which holds their one domain rule: a state is inside where its
signed room to the domain's edge is >= 0.  A step that leaves the domain
is retried at the secant of the room rather than at a fixed fraction.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .space import DomainError

__all__ = [
    "StepSizeUnderflow",
    "IntegrationError",
    "Pair",
    "FEHLBERG45",
    "DOP853",
    "rk45",
    "solve",
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

    Row i of `a` holds the weights of stages 0..i-1 in stage i, `b` the
    solution weights and `e` the weights of the error estimate.  With `e3`
    None the error norm is the RMS of h e / sc (Fehlberg); otherwise `e` and
    `e3` are the fifth- and third-order estimates of Hairer's combined norm
    (DOP853).  `error_order` is the order of the error estimate, which sets
    the step exponent.
    """

    error_order: int
    a: tuple
    b: tuple
    e: tuple
    e3: tuple | None = None

    @property
    def stages(self) -> int:
        """The rhs evaluations of an accepted step, f(y_new) included."""
        return len(self.b)

    def bind(self, rhs, tol, n):
        """attempt(y, k0, h) -> (y_new, err_norm) for states of dimension n.

        The stages of one step of size h from y, whose rhs value is k0, the
        new state and the error norm, scaled so that 1 is the tolerance.  A
        stage outside the domain raises from inside the attempt.  The
        attempt is compiled once per (pair, n) and kept for the process.
        """
        kernel = _KERNELS.get((self, n))
        if kernel is None:
            kernel = _KERNELS[self, n] = _compile_kernel(self, n)
        return kernel(rhs, tol)


FEHLBERG45 = Pair(4, _F45_A, _F45_B, _F45_E)
DOP853 = Pair(7, _DOP853_A, _DOP853_B, _DOP853_E5, _DOP853_E3)

# (pair, n) -> kernel(rhs, tol) -> attempt, filled on first use
_KERNELS: dict = {}


def _weighted(weights, j):
    """The source of sum_i w_i k_i[j] over the nonzero weights, left to right;
    a float's repr reads back as the same double."""
    return " + ".join(f"{float(w)!r} * k{i}_{j}" for i, w in enumerate(weights) if w != 0.0)


def _compile_kernel(pair: Pair, n: int):
    """kernel(rhs, tol) -> attempt for states of dimension n, as straight-line
    Python: the state and each stage unpacked into locals, each stage state
    and the new state yj + h * (the weighted stages) with the coefficients as
    float literals and the zero weights left out, summed left to right, and
    the pair's error norm over components 0..n-1 in order.  `max(|yj|,
    |y_new j|)` is written out as Python's max picks it: |y_new j| where it
    is the greater, so a nan there is skipped (the error is nan as well)."""
    comps = range(n)

    def state(names):
        return ", ".join(names) + ("," if n == 1 else "")

    lines = ["def kernel(rhs, tol):", "    def attempt(y, k0, h):",
             f"        {state(f'y{j}' for j in comps)} = y",
             f"        {state(f'k0_{j}' for j in comps)} = k0"]
    for i, row in enumerate(pair.a, start=1):
        args = ", ".join(f"y{j} + h * ({_weighted(row, j)})" for j in comps)
        lines.append(f"        {state(f'k{i}_{j}' for j in comps)} = rhs([{args}])")
    for j in comps:
        lines += [f"        z{j} = y{j} + h * ({_weighted(pair.b, j)})",
                  f"        a = abs(y{j})",
                  f"        s = abs(z{j})",
                  f"        sc = tol + tol * (s if s > a else a)"]
        if pair.e3 is None:
            lines.append(f"        q{j} = h * ({_weighted(pair.e, j)}) / sc")
        else:
            lines += [f"        q{j} = ({_weighted(pair.e, j)}) / sc",
                      f"        r{j} = ({_weighted(pair.e3, j)}) / sc"]
    y_new = "[" + ", ".join(f"z{j}" for j in comps) + "]"
    if pair.e3 is None:
        # the RMS of h err / sc, summed in order as numpy's add.reduce would
        lines.append(f"        return {y_new}, sqrt(({' + '.join(f'q{j} * q{j}' for j in comps)}) / {float(n)!r})")
    else:
        # Hairer's norm: h |err5|^2 / sqrt(n (|err5|^2 + 0.01 |err3|^2))
        lines += [f"        s5 = {' + '.join(f'q{j} * q{j}' for j in comps)}",
                  f"        s3 = {' + '.join(f'r{j} * r{j}' for j in comps)}",
                  "        if s5 == 0.0 and s3 == 0.0:",
                  f"            return {y_new}, 0.0",
                  f"        return {y_new}, h * s5 / sqrt((s5 + 0.01 * s3) * {float(n)!r})"]
    lines.append("    return attempt")
    namespace = {"sqrt": math.sqrt}
    exec(compile("\n".join(lines) + "\n", f"<rk kernel {pair.error_order} {n}>", "exec"), namespace)
    return namespace["kernel"]


def _secant(r: float, r_out: float, cap: float) -> float:
    """The factor on h of a retry from a state of room r toward one of room
    r_out: _SECANT_AIM of the way to where the secant of the room vanishes,
    capped at cap, where r_out < 0 < r; cap otherwise."""
    if r_out < 0.0 < r:
        return min(cap, _SECANT_AIM * r / (r - r_out))
    return cap


def rk45(rhs, y0, t_max: float, tol: float, *, guard, guard_error, pair: Pair, room):
    """Integrate y' = rhs(y) from t=0 to t_max with local error <= tol.

    The state is a list of floats: rhs(y) takes one and returns a sequence
    of floats (a tuple, for the integrators of this package); the knots
    keep both uncopied until the run ends.  `room(y) -> float` is the
    signed distance to the edge of the domain, and guard(y) -> bool marks
    the states that are still acceptable, with guard(y) false wherever
    room(y) < 0 (`solve` passes room(y) >= 0).  `guard_error` is the
    exception type the rhs raises for a state outside the domain.  `pair`
    is the embedded pair that makes each attempt (`FEHLBERG45` or
    `DOP853`).

    One rule handles both kinds of guard rejection, a stage outside the
    domain and a landing y_new that fails the guard or whose rhs raises:
    it spends one of GUARD_BUDGET rejections and retries at the `_secant`
    of the room, just short of where it vanishes (Shampine and Thompson,
    Event location for ordinary differential equations, 2000), toward the
    Euler state y + h rhs(y) at most h / 4 for a stage and toward y_new at
    most h / 2 for a landing; where that state has no negative room, the
    retry takes the cap.  The run returns its partial solution with exit
    reason "domain-exit" once the budget is spent or h falls below
    1e-13 max(1, |t|) at a rejection.  An accepted step grows h by the
    error-based factor, capped at max(t_max / 8, 1e-8).

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

    attempt = pair.bind(rhs, tol, len(y))
    exponent = -1.0 / (pair.error_order + 1)
    h_max = max(t_max / 8.0, 1e-8)
    h = min(1e-2, t_max / 100.0, h_max)

    # A budget of guard rejections ends runs whose state advances only at
    # float resolution against the edge (boundary-asymptotic geodesics).
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
            # a stage left the domain: retry toward the Euler state y + h k0
            target, cap = [yj + h * fj for yj, fj in zip(y, k0)], 0.25
        else:
            if not math.isfinite(err_norm):
                h *= 0.25
                continue
            if err_norm == 0.0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** exponent))
            if err_norm > 1.0:
                h *= factor
                continue
            try:
                f_new = rhs(y_new) if guard(y_new) else None
            except guard_error:
                f_new = None
            if f_new is not None:
                t += h
                y = y_new
                k0 = f_new
                ts.append(t)
                ys.append(y)
                fs.append(k0)
                h = min(h * factor, h_max)
                continue
            # the landing is rejected: retry toward it
            target, cap = y_new, 0.5
        guard_budget -= 1
        if guard_budget <= 0 or h < 1e-13 * max(1.0, abs(t)):
            return result("domain-exit")
        h *= _secant(room(y), room(target), cap)
    raise IntegrationError(f"step budget exhausted at t = {t!r} < t_max = {t_max!r}")


def solve(rhs, y0, t_max: float, tol: float, *, pair: Pair, room, samples: int | None = None):
    """`rk45` (looked up when called) on the domain room(y) >= 0, false on nan,
    with the rhs raising `DomainError` outside it: the one domain rule of
    both integrators of this package.  Returns (t_out, y_out, exit_reason):
    with `samples` (at least 2) given, the Hermite interpolant of the knots
    on a uniform grid of [0, ts[-1]]; otherwise the knots.
    """
    if samples is not None and samples < 2:
        raise ValueError("samples must be at least 2")

    def guard(y):
        return room(y) >= 0.0

    ts, ys, fs, exit_reason = rk45(
        rhs, y0, t_max, tol, guard=guard, guard_error=DomainError, pair=pair, room=room
    )
    if samples is None:
        return ts, ys, exit_reason
    t_out = np.linspace(0.0, ts[-1], samples)
    return t_out, hermite_sample(ts, ys, fs, t_out), exit_reason


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
    # each query's last knot at or before it, and the interval it lies in;
    # the Newton coefficients are built for every interval i
    at = np.searchsorted(ts, tq, side="right") - 1
    pos = np.minimum(at, n - 2)
    i = np.arange(n - 1)
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
    hit = ts[at] == tq
    out[hit] = ys[at[hit]]
    return out if np.ndim(t_query) else out[0]
