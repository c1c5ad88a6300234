"""Adaptive embedded Runge-Kutta 4(5) stepper with Hermite dense output.

Classic six-stage Fehlberg 4(5) pair.  The fifth-order solution is
propagated (local extrapolation) and the pair difference drives the step
controller.  The state and the stages are lists of Python floats.  The
tableau is scaled by h once per attempt; each stage state, the new state
and the error estimate are built component by component as the state plus
the weighted stages before it, summed left to right in IEEE double
arithmetic, so the knots do not depend on a BLAS build.  Dense output
between accepted steps is cubic Hermite on (y, f) at both ends.

The stepper is generic over the state dimension; the geodesic integrators
in `connection` and `surfaces` both run on it.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["StepSizeUnderflow", "IntegrationError", "rk45", "hermite_sample"]

# Fehlberg tableau: row i of _A holds the weights of stages 0..i-1 in stage i
_A = (
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)
# b5 - b4, for the local error estimate of the fourth-order solution
_E = (
    16.0 / 135.0 - 25.0 / 216.0,
    0.0,
    6656.0 / 12825.0 - 1408.0 / 2565.0,
    28561.0 / 56430.0 - 2197.0 / 4104.0,
    -9.0 / 50.0 + 1.0 / 5.0,
    2.0 / 55.0,
)
# _A row by row, then _B5 and _E: the coefficients rk45 scales by h per attempt
_TABLEAU = (*(c for row in _A for c in row), *_B5, *_E)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


# Step budget of one integration; a module constant, so tests can lower it.
MAX_STEPS = 500_000
# Guard rejections (failed guard or guard_error stage) allowed in one run.
GUARD_BUDGET = 256


class StepSizeUnderflow(RuntimeError):
    """The controller drove the step below the resolvable size."""


class IntegrationError(RuntimeError):
    """The step budget was exhausted before reaching t_max."""


def _rms_norm(y, y_new, err, tol: float) -> float:
    """RMS of err / (tol + tol max(|y|, |y_new|)) over lists of floats,
    summed in order: the value of numpy's add.reduce over the same terms.

    Python's max skips a nan in y_new where numpy's maximum keeps it; err is
    nan there as well, since _E is nonzero wherever _B5 is, so the norm is
    nan either way.
    """
    s = 0.0
    for a, b, e in zip(y, y_new, err):
        q = e / (tol + tol * max(abs(a), abs(b)))
        s += q * q
    return math.sqrt(s / len(y))


def rk45(rhs, y0, t_max: float, tol: float, *, guard, guard_error):
    """Integrate y' = rhs(y) from t=0 to t_max with local error <= tol.

    The state is a list of floats: rhs(y) takes one and returns a sequence
    of floats (a tuple, for the integrators of this package); the knots
    keep both uncopied until the run ends.  guard(y) -> bool marks states
    that are still acceptable; a step landing on a rejected state is
    retried with a smaller h, and if h underflows near the obstruction the
    partial solution is returned with exit reason "domain-exit".
    `guard_error` is the exception type the rhs may raise for out-of-domain
    stage evaluations; it is handled the same way.

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
    for _ in range(MAX_STEPS):
        if t >= t_max - 1e-14 * max(1.0, t_max):
            return result("complete")
        h = min(h, t_max - t)
        if h < 1e-14 * max(1.0, abs(t)):
            if guard_budget < GUARD_BUDGET:
                return result("domain-exit")
            raise StepSizeUnderflow(f"step size underflow at t = {t!r}")

        (a10, a20, a21, a30, a31, a32, a40, a41, a42, a43, a50, a51, a52, a53, a54,
         b0, _, b2, b3, b4, b5, e0, _, e2, e3, e4, e5) = [h * c for c in _TABLEAU]
        # each stage state is y + (the weighted stages before it), summed
        # left to right; the zero weights of stage 1 in _B5 and _E are left out
        try:
            k1 = rhs([yj + a10 * p0 for yj, p0 in zip(y, k0)])
            k2 = rhs([yj + (a20 * p0 + a21 * p1) for yj, p0, p1 in zip(y, k0, k1)])
            k3 = rhs([yj + (a30 * p0 + a31 * p1 + a32 * p2) for yj, p0, p1, p2 in zip(y, k0, k1, k2)])
            k4 = rhs([yj + (a40 * p0 + a41 * p1 + a42 * p2 + a43 * p3)
                      for yj, p0, p1, p2, p3 in zip(y, k0, k1, k2, k3)])
            k5 = rhs([yj + (a50 * p0 + a51 * p1 + a52 * p2 + a53 * p3 + a54 * p4)
                      for yj, p0, p1, p2, p3, p4 in zip(y, k0, k1, k2, k3, k4)])
        except guard_error:
            # a stage left the domain: a guard rejection that shrinks h
            guard_hit = True
            guard_budget -= 1
            if guard_budget <= 0:
                return result("domain-exit")
            h *= 0.25
            continue

        y_new = [yj + (b0 * p0 + b2 * p2 + b3 * p3 + b4 * p4 + b5 * p5)
                 for yj, p0, p2, p3, p4, p5 in zip(y, k0, k2, k3, k4, k5)]
        err = [e0 * p0 + e2 * p2 + e3 * p3 + e4 * p4 + e5 * p5
               for p0, p2, p3, p4, p5 in zip(k0, k2, k3, k4, k5)]
        err_norm = _rms_norm(y, y_new, err, tol)

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
                factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2))
            h = min(h * factor, h_max)
        elif not math.isfinite(err_norm):
            h *= 0.25
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)
    raise IntegrationError(f"step budget exhausted at t = {t!r} < t_max = {t_max!r}")


def hermite_sample(ts, ys, fs, t_query) -> np.ndarray:
    """Cubic Hermite interpolation of the accepted knots at times t_query.

    Query times must lie inside [ts[0], ts[-1]].
    """
    ts = np.asarray(ts)
    ys = np.asarray(ys)
    fs = np.asarray(fs)
    tq = np.atleast_1d(np.asarray(t_query, dtype=float))
    if tq.min() < ts[0] - 1e-12 or tq.max() > ts[-1] + 1e-12:
        raise ValueError("query time outside the integrated span")
    if len(ts) == 1:
        out = np.broadcast_to(ys[0], (len(tq),) + ys[0].shape).copy()
        return out if np.ndim(t_query) else out[0]
    idx = np.clip(np.searchsorted(ts, tq, side="right") - 1, 0, len(ts) - 2)
    t0 = ts[idx]
    h = ts[idx + 1] - t0
    s = np.clip((tq - t0) / h, 0.0, 1.0)[:, None]
    h_col = h[:, None]
    y0 = ys[idx]
    y1 = ys[idx + 1]
    f0 = fs[idx]
    f1 = fs[idx + 1]
    s2 = s * s
    s3 = s2 * s
    out = (
        (2.0 * s3 - 3.0 * s2 + 1.0) * y0
        + (s3 - 2.0 * s2 + s) * h_col * f0
        + (-2.0 * s3 + 3.0 * s2) * y1
        + (s3 - s2) * h_col * f1
    )
    return out if np.ndim(t_query) else out[0]
