"""Each exit of the `rk45` stepper for both pairs, on one-dimensional
problems, the stepper against its numpy-stage oracle on geodesics and
surface geodesics, the knots of the seeded `ensemble` geodesics, and the
Hermite dense output."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from oracles import rk45_matrix
from cvgeo import _rk
from cvgeo._rk import IntegrationError, StepSizeUnderflow, rk45
from cvgeo.closed_forms import CaseKind
from cvgeo.connection import GeodesicState, integrate_geodesic
from cvgeo.profiles import random_profile
from cvgeo.space import MetricParams, Point3
from cvgeo.surfaces import SurfaceGeodesicState, surface_geodesic_integrate


class OutOfDomain(ValueError):
    pass


def always(y):
    return True


def unbounded(y):
    return math.inf


def no_room(y):
    # a room that tells the stepper nothing: a rejected landing halves h
    return 0.0


def decay(y):
    return [-v for v in y]


PAIRS = (_rk.FEHLBERG45, _rk.DOP853)


def test_complete_decay():
    for pair in PAIRS:
        ts, ys, fs, reason = rk45(decay, [1.0], 1.0, 1e-10, guard=always, guard_error=(), pair=pair,
                                  room=unbounded)
        assert reason == "complete"
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(1.0, abs=1e-13)
        assert np.all(np.diff(ts) > 0.0)
        assert abs(ys[-1, 0] - math.exp(-1.0)) < 1e-9
        assert np.array_equal(fs, -ys)


def test_domain_exit_from_guard():
    for pair in PAIRS:
        ts, ys, _, reason = rk45(
            lambda y: [1.0], [0.0], 1.0, 1e-10, guard=lambda y: y[0] < 0.5, guard_error=(), pair=pair,
            room=no_room,
        )
        assert reason == "domain-exit"
        assert np.all(ys[:, 0] < 0.5)
        assert ts[-1] == pytest.approx(0.5, abs=1e-9)


def test_room_locates_the_guard_exit_by_a_secant():
    # y' = 1 leaves y < 0.5 at t = 0.5: the secant of the room 0.5 - y is
    # exact here, so the retries close in on the exit in far fewer
    # evaluations than halving, and end at the same time
    for pair in PAIRS:
        evals = []
        for room in (no_room, lambda y: 0.5 - y[0]):
            calls = 0

            def rhs(y):
                nonlocal calls
                calls += 1
                return [1.0]

            ts, ys, _, reason = rk45(rhs, [0.0], 1.0, 1e-10, guard=lambda y: y[0] < 0.5, guard_error=(),
                                     pair=pair, room=room)
            assert reason == "domain-exit"
            assert np.all(ys[:, 0] < 0.5)
            assert ts[-1] == pytest.approx(0.5, abs=1e-12)
            evals.append(calls)
        assert evals[1] < evals[0] / 2, evals


def test_domain_exit_from_guard_error_in_a_stage():
    def rhs(y):
        if y[0] >= 0.5:
            raise OutOfDomain(f"y = {y[0]!r}")
        return [1.0]

    for pair in PAIRS:
        ts, ys, _, reason = rk45(rhs, [0.0], 1.0, 1e-10, guard=always, guard_error=OutOfDomain, pair=pair,
                                 room=unbounded)
        assert reason == "domain-exit"
        assert np.all(ys[:, 0] < 0.5)
        assert ts[-1] == pytest.approx(0.5, abs=1e-9)


def test_room_locates_a_stage_exit_by_the_euler_secant():
    # the stages leave y < 0.5 where y' = 1 does, at t = 0.5: a failed
    # attempt retries at the secant of the room 0.5 - y toward the Euler
    # state y + h k0, in far fewer evaluations than quartering h, and ends
    # at the same time
    def rhs(y):
        nonlocal calls
        calls += 1
        if y[0] >= 0.5:
            raise OutOfDomain(f"y = {y[0]!r}")
        return [1.0]

    for pair in PAIRS:
        evals = []
        for room in (unbounded, lambda y: 0.5 - y[0]):
            calls = 0
            ts, ys, _, reason = rk45(rhs, [0.0], 1.0, 1e-10, guard=always, guard_error=OutOfDomain, pair=pair,
                                     room=room)
            assert reason == "domain-exit"
            assert np.all(ys[:, 0] < 0.5)
            assert ts[-1] == pytest.approx(0.5, abs=1e-12)
            evals.append(calls)
        assert evals[1] < evals[0] / 2, evals


def test_the_secant_takes_its_cap_unless_the_room_turns_negative():
    # one rule for both retries: the capped secant where r_out < 0 < r, the
    # cap where the room does not change sign (nan included)
    aim = _rk._SECANT_AIM
    assert _rk._secant(1.0, -3.0, 0.5) == aim / 4.0
    assert _rk._secant(1.0, -3.0, 0.25) == aim / 4.0
    assert _rk._secant(1.0, -1.0, 0.5) == aim / 2.0
    assert _rk._secant(1.0, -1.0, 0.25) == 0.25
    for r, r_out in ((1.0, 0.0), (1.0, -0.0), (1.0, 2.0), (1.0, math.nan), (0.0, -1.0), (-1.0, -2.0),
                     (math.nan, -1.0)):
        for cap in (0.25, 0.5):
            assert _rk._secant(r, r_out, cap) == cap, (r, r_out, cap)


def test_a_start_with_no_room_is_inside_for_both_flows():
    # solve's one rule is room(y) >= 0: a geodesic from the chart bound,
    # where CHART_BOUND - 1e6 = 0, and a surface geodesic from the margin's
    # edge both run
    s0 = GeodesicState(Point3(1e6, 0.0, 0.0), (-1.0, 0.0, 0.0))
    traj = integrate_geodesic(MetricParams(0.0, 0.0), s0, 1.0)
    assert traj.exit_reason == "complete"
    assert traj.states[-1, 0] == pytest.approx(1e6 - 1.0, abs=1e-6)
    params = MetricParams(0.5, 0.3)
    prof = random_profile(params, np.random.default_rng(7))
    lo, hi = prof.u_domain
    u0 = lo + 2e-6 * (hi - lo)
    traj = surface_geodesic_integrate(params, prof, SurfaceGeodesicState(u0, 0.0, 1.0, 0.5), 0.5)
    assert traj.states[0, 0] == u0 and traj.ts[-1] > 0.0


def test_guard_error_of_another_type_propagates():
    def rhs(y):
        if y[0] >= 0.5:
            raise OutOfDomain("out")
        return [1.0]

    for pair in PAIRS:
        with pytest.raises(OutOfDomain):
            rk45(rhs, [0.0], 1.0, 1e-10, guard=always, guard_error=(), pair=pair, room=unbounded)


def test_a_landing_whose_rhs_raises_halves_the_step():
    # the guard passes the first landing (h = 0.01), but the rhs there
    # raises the guard error: a rejection with no room to aim at, so the
    # retry runs at h / 2 and is accepted
    for pair in PAIRS:
        calls = 0

        def rhs(y):
            nonlocal calls
            calls += 1
            if calls == pair.stages + 1:  # f(y_new) of the first attempt
                raise OutOfDomain("landing")
            return decay(y)

        ts, _, _, reason = rk45(rhs, [1.0], 1.0, 1e-10, guard=always, guard_error=OutOfDomain, pair=pair,
                                room=unbounded)
        assert reason == "complete"
        assert ts[1] == 0.005


def test_stage_failures_alone_use_up_the_guard_budget(monkeypatch):
    # every stage after the initial state is outside: each attempt fails at
    # its first stage and quarters h, so a budget of 5 ends the run on its
    # fifth attempt, long before h underflows
    monkeypatch.setattr(_rk, "GUARD_BUDGET", 5)
    for pair in PAIRS:
        calls = 0

        def rhs(y):
            nonlocal calls
            calls += 1
            if calls > 1:
                raise OutOfDomain("stage")
            return [1.0]

        ts, _, _, reason = rk45(rhs, [0.0], 1.0, 1e-10, guard=always, guard_error=OutOfDomain, pair=pair,
                                room=unbounded)
        assert (reason, ts.tolist(), calls) == ("domain-exit", [0.0], 6)


def test_step_size_underflow_at_blow_up():
    # y' = y^2, y(0) = 1 blows up at t = 1, before t_max
    for pair in PAIRS:
        with pytest.raises(StepSizeUnderflow, match="step size underflow"):
            rk45(lambda y: [v * v for v in y], [1.0], 2.0, 1e-6, guard=always, guard_error=(), pair=pair,
                 room=unbounded)


def test_step_budget_exhausted(monkeypatch):
    # 120 evaluations: 20 Fehlberg attempts, 10 DOP853 attempts
    monkeypatch.setattr(_rk, "MAX_EVALS", 120)
    for pair in PAIRS:
        with pytest.raises(IntegrationError, match="step budget exhausted"):
            rk45(lambda y: [math.cos(v) for v in y], [0.0], 100.0, 1e-10, guard=always, guard_error=(),
                 pair=pair, room=unbounded)


def test_initial_state_rejected():
    with pytest.raises(ValueError, match="initial state"):
        rk45(decay, [1.0], 1.0, 1e-10, guard=lambda y: False, guard_error=(), pair=_rk.DOP853, room=no_room)


def test_guard_is_required():
    with pytest.raises(TypeError):
        rk45(decay, [1.0], 1.0, 1e-10, pair=_rk.DOP853, room=unbounded)
    with pytest.raises(TypeError):  # and so is the pair
        rk45(decay, [1.0], 1.0, 1e-10, guard=always, guard_error=(), room=unbounded)
    with pytest.raises(TypeError):  # and so is the room
        rk45(decay, [1.0], 1.0, 1e-10, guard=always, guard_error=(), pair=_rk.DOP853)


@pytest.mark.parametrize(
    "pair, degree, bound",
    [(_rk.FEHLBERG45, 4, 1e-13), (_rk.DOP853, 7, 1e-12)],
    ids=["fehlberg45", "dop853"],
)
def test_solution_weights_integrate_their_degree_exactly(pair, degree, bound):
    # y' = (1, y0^degree): the stages see y0 = t + c_i h, and the solution
    # weights of a pair of order p = degree + 1 integrate t^degree exactly,
    # so y1 = t^p / p at every knot to rounding (y1 reaches 6.4 and 32); a
    # stage combined with the wrong tableau row or weights misses it, and
    # so does y0^p
    def run(power):
        ts, ys, _, reason = rk45(lambda y: [1.0, y[0] ** power], [0.0, 0.0], 2.0, 1e-8,
                                 guard=always, guard_error=(), pair=pair, room=unbounded)
        assert reason == "complete"
        assert len(ts) > 10
        assert np.max(np.abs(ys[:, 0] - ts)) < 1e-14
        return np.max(np.abs(ys[:, 1] - ts ** (power + 1) / (power + 1)))

    assert run(degree) < bound
    assert run(degree + 1) > 10.0 * bound


def test_dop853_coefficients_are_scipys():
    # the float literals of `_rk` are Hairer's coefficients as scipy's
    # DOP853 states them, and neither error estimate weighs f(y_new)
    from scipy.integrate._ivp import dop853_coefficients as ref

    for i, row in enumerate(_rk._DOP853_A, start=1):
        assert row == tuple(ref.A[i, :i]), i
    assert _rk._DOP853_B == tuple(ref.B)
    assert _rk._DOP853_E5 == tuple(ref.E5[:-1]) and ref.E5[-1] == 0.0
    assert _rk._DOP853_E3 == tuple(ref.E3[:-1]) and ref.E3[-1] == 0.0
    assert _rk.DOP853.stages == len(ref.B) == ref.N_STAGES


def test_error_weights_are_nonzero_wherever_the_solution_weights_are():
    # so the error estimate is nan wherever the new state is: a stage that
    # is not finite can never be accepted
    for err, sol in ((_rk._F45_E, _rk._F45_B), (_rk._DOP853_E5, _rk._DOP853_B), (_rk._DOP853_E3, _rk._DOP853_B)):
        assert all(e != 0.0 or b == 0.0 for e, b in zip(err, sol, strict=True))


def test_a_nan_stage_quarters_the_step():
    # the first attempt (h = 0.01) gets nan in one component at stage 3;
    # its error norm is nan, so the retry runs at h / 4 and is accepted
    for pair in PAIRS:
        calls = 0

        def rhs(y):
            nonlocal calls
            calls += 1
            out = decay(y)
            if calls == 3:
                out[1] = math.nan
            return out

        ts, ys, _, reason = rk45(rhs, [1.0, 2.0], 1.0, 1e-10, guard=always, guard_error=(), pair=pair,
                                 room=unbounded)
        assert reason == "complete"
        assert ts[1] == 0.0025
        assert np.all(np.isfinite(ys))
        clean, _, _, _ = rk45(decay, [1.0, 2.0], 1.0, 1e-10, guard=always, guard_error=(), pair=pair,
                              room=unbounded)
        assert clean[1] == 0.01


def _controller_knots(rng, n, t_end):
    """n knots on [0, t_end] whose neighbouring steps differ by less than
    e^2, under the factor at which `hermite_sample` skips a knot."""
    h = np.exp(rng.uniform(-1.0, 1.0, n - 1))
    return np.concatenate(([0.0], np.cumsum(h))) * (t_end / h.sum())


@pytest.mark.parametrize("n, degree", [(9, 7), (4, 7), (3, 5), (2, 3)])
def test_hermite_sample_reproduces_a_polynomial_of_its_degree(n, degree):
    rng = np.random.default_rng(degree * 10 + n)
    for _ in range(10):
        ts = _controller_knots(rng, n, 2.0)
        polys = [np.polynomial.Polynomial(rng.normal(size=degree + 1)) for _ in range(2)]
        ys = np.stack([p(ts) for p in polys], axis=1)
        fs = np.stack([p.deriv()(ts) for p in polys], axis=1)
        tq = np.linspace(0.0, ts[-1], 501)
        ref = np.stack([p(tq) for p in polys], axis=1)
        out = _rk.hermite_sample(ts, ys, fs, tq)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_hermite_sample_returns_the_knots_at_the_knot_times():
    rng = np.random.default_rng(7)
    ts = _controller_knots(rng, 30, 5.0)
    ys = rng.normal(size=(30, 6))
    fs = rng.normal(size=(30, 6))
    assert np.array_equal(_rk.hermite_sample(ts, ys, fs, ts), ys)
    assert np.array_equal(_rk.hermite_sample(ts, ys, fs, ts[17]), ys[17])


def test_hermite_sample_rejects_a_query_outside_the_span():
    ts, ys, fs = np.array([0.0, 0.5, 1.0]), np.zeros((3, 2)), np.zeros((3, 2))
    for t_query in (1.0 + 1e-9, [-1e-9, 0.5]):
        with pytest.raises(ValueError, match="query time outside the integrated span"):
            _rk.hermite_sample(ts, ys, fs, t_query)


def _sin_knots(steps):
    ts = np.concatenate(([0.0], np.cumsum(steps)))
    return ts, np.sin(ts)[:, None], np.cos(ts)[:, None]


def test_hermite_sample_follows_steps_that_halve_toward_the_end():
    # ten steps of 0.1, then steps halving 40 times, as a guard cascade
    # into a domain exit leaves them; queried on a grid and inside each step
    ts, ys, fs = _sin_knots(np.concatenate((np.full(10, 0.1), 0.1 * 0.5 ** np.arange(1, 41))))
    tq = np.sort(np.concatenate((np.linspace(0.0, ts[-1], 2001), ts[:-1] + np.diff(ts) / 3.0)))
    assert np.max(np.abs(_rk.hermite_sample(ts, ys, fs, tq)[:, 0] - np.sin(tq))) < 1e-9


@pytest.mark.parametrize(
    "steps, bound",
    [
        # a last step 1e-8 of the one before: interpolating through its knot
        # would amplify the rounding of sin there by ~(5e7)^3; the steps of
        # 0.5 alone give sin to ~1e-7
        ((0.5,) * 6 + (5e-9,), 1e-6),
        # a step between two short ones, as guard cuts leave them: its
        # interpolant is the cubic on its own ends, ~2e-4 for a step of 0.5
        ((0.5, 0.5, 1e-9, 0.5, 1e-9, 0.5, 0.5), 1e-3),
    ],
    ids=["short-last-step", "short-steps-on-both-sides"],
)
def test_hermite_sample_skips_a_knot_beyond_a_short_step(steps, bound):
    ts, ys, fs = _sin_knots(np.array(steps))
    tq = np.linspace(0.0, ts[-1], 2001)
    assert np.max(np.abs(_rk.hermite_sample(ts, ys, fs, tq)[:, 0] - np.sin(tq))) < bound


def _numpy_attempt(pair, y, k, tol, h):
    """The stage states, the new state and the error norm of one attempt
    from the stages k, as numpy array operations over the pair's nonzero
    weights, summed in order."""
    def weighted(weights):
        terms = [w * k[i] for i, w in enumerate(weights) if w != 0.0]
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total

    stage_states = [y + h * weighted(row) for row in pair.a]
    y_new = y + h * weighted(pair.b)
    sc = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
    if pair.e3 is None:
        r = h * weighted(pair.e) / sc
        return stage_states, y_new, math.sqrt(np.add.reduce(r * r) / len(y))
    q5, q3 = weighted(pair.e) / sc, weighted(pair.e3) / sc
    s5, s3 = np.add.reduce(q5 * q5), np.add.reduce(q3 * q3)
    if s5 == 0.0 and s3 == 0.0:
        return stage_states, y_new, 0.0
    return stage_states, y_new, h * s5 / math.sqrt((s5 + 0.01 * s3) * len(y))


def test_each_attempt_is_numpys_bit_for_bit():
    # one attempt of each pair from preset stages, state dimensions 1 to 6,
    # magnitudes over 40 decades, a nan or an infinity in one stage
    # component now and then, and now and then all stages zero (DOP853's
    # zero-norm branch): the stage states, the new state and the error norm
    # (Fehlberg's RMS, Hairer's combined norm) equal the same weighted sums
    # as numpy array operations, the norm summed by numpy's add.reduce
    rng = np.random.default_rng(61)
    for pair in PAIRS:
        s = pair.stages
        for i in range(6000):
            d = 1 + i % 6
            y = rng.normal(size=d) * 10.0 ** rng.uniform(-20, 20, d)
            k = rng.normal(size=(s, d)) * 10.0 ** rng.uniform(-20, 20, (s, d))
            if i % 50 == 0:
                k[rng.integers(s), rng.integers(d)] = rng.choice([np.nan, np.inf])
            if i % 97 == 0:
                k[:] = 0.0
            tol = 10.0 ** rng.uniform(-14, -2)
            h = 10.0 ** rng.uniform(-6, 0)
            stages = iter(k[1:].tolist())
            seen = []

            def rhs(state):
                seen.append(state)
                return next(stages)

            y_new, norm = pair.bind(rhs, tol, d)(y.tolist(), k[0].tolist(), h)
            with np.errstate(over="ignore", invalid="ignore"):
                ref_stages, ref_y, ref = _numpy_attempt(pair, y, k, tol, h)
            assert np.array_equal(seen, ref_stages, equal_nan=True), (pair.error_order, y, k, tol, h)
            assert np.array_equal(y_new, ref_y, equal_nan=True), (pair.error_order, y, k, tol, h)
            assert norm == ref or (math.isnan(norm) and math.isnan(ref)), (pair.error_order, y, k, tol, h)


def test_float_stages_match_the_matrix_oracle(monkeypatch, bench_workloads):
    # the benchmark's seed-1 inputs: five origin geodesics of each
    # closed-form kind and 20 random-profile surface geodesics.  Only the
    # rounding of the stage sums differs, so the exits, and on complete runs
    # the step counts, are the same and the end states agree to ~1e-14
    geodesics = list(itertools.chain.from_iterable(itertools.islice(bench_workloads.ensemble_cycles(1), 5)))
    assert {inp.kind for inp in geodesics} == set(CaseKind)
    surface_inputs = [inp for (inp,) in itertools.islice(bench_workloads.surface_cycles(1), 20)]

    def runs():
        for inp in geodesics:
            s0 = GeodesicState(Point3(0.0, 0.0, 0.0), np.array(inp.v0))
            traj = integrate_geodesic(MetricParams(inp.l, inp.m), s0, inp.horizon)
            yield traj.exit_reason, traj.states
        for inp in surface_inputs:
            params = MetricParams(inp.l, inp.m)
            prof = random_profile(params, np.random.default_rng(inp.profile_seed))
            traj = surface_geodesic_integrate(params, prof, SurfaceGeodesicState(*inp.s0), 5.0)
            yield traj.exit_reason, traj.states

    floats = list(runs())
    monkeypatch.setattr(_rk, "rk45", rk45_matrix)
    complete = 0
    for (reason, ys), (reason0, ys0) in zip(floats, runs(), strict=True):
        assert reason == reason0
        if reason == "complete":
            complete += 1
            assert len(ys) == len(ys0)
            assert np.max(np.abs(ys[-1] - ys0[-1])) <= 1e-12 * np.max(np.abs(ys0[-1]))
    assert complete > len(geodesics)  # some surface runs complete too


# sha256 over ts, states and integrals of the 600 seed-1 `ensemble`
# trajectories, in input order.  Their knots are Python-float arithmetic in
# a fixed order, but the step factor goes through libm's pow, so another
# libm may change them.  The speeds go through the stacked v g v matmul of
# `state_speed` and so round as the BLAS kernel does; they are left out.
ENSEMBLE_KNOT_DIGEST = "6a957beb5c326b8a82f8840b42dd8d461aef9ad57728a906be4f5059c07a25c8"


def test_ensemble_knots_are_golden(bench_workloads):
    digest = hashlib.sha256()
    for inp in itertools.chain.from_iterable(itertools.islice(bench_workloads.ensemble_cycles(1), 100)):
        s0 = GeodesicState(Point3(0.0, 0.0, 0.0), np.array(inp.v0))
        traj = integrate_geodesic(MetricParams(inp.l, inp.m), s0, inp.horizon, tol=bench_workloads.ORACLE_TOL)
        assert traj.exit_reason == "complete"
        for a in (traj.ts, traj.states, traj.integrals):
            digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == ENSEMBLE_KNOT_DIGEST


def test_a_surface_domain_exit_spends_few_evaluations_after_its_first_rejection(monkeypatch):
    # the first seed-1 surface_audit input leaves its profile domain.  The
    # run that halved h against the guard ended at t = 1.864452871179161
    # after 333 rhs evaluations, 287 of them after its first guard
    # rejection (a guard failure or a stage outside the domain); the secant
    # retries, of landings and of stages toward the Euler state, spend 69
    # of 115, and end at the same time to rounding
    params = MetricParams(-1.9437254448921353, -1.4535671977130735)
    prof = random_profile(params, np.random.default_rng(1541141206))
    s0 = SurfaceGeodesicState(0.6592211532931436, 0.0, 0.6736427867467205, 1.0026541044779285)
    count = {"evals": 0, "after": None}

    def rejected():
        if count["after"] is None:
            count["after"] = 0

    def counting_rk45(rhs, y0, t_max, tol, *, guard, guard_error, **kwargs):
        def counted_rhs(y):
            count["evals"] += 1
            if count["after"] is not None:
                count["after"] += 1
            try:
                return rhs(y)
            except guard_error:
                rejected()
                raise

        def counted_guard(y):
            ok = guard(y)
            if not ok:
                rejected()
            return ok

        return rk45(counted_rhs, y0, t_max, tol, guard=counted_guard, guard_error=guard_error, **kwargs)

    monkeypatch.setattr(_rk, "rk45", counting_rk45)
    traj = surface_geodesic_integrate(params, prof, s0, 5.0, samples=201)
    assert traj.exit_reason == "domain-exit"
    assert abs(traj.ts[-1] - 1.864452871179161) <= 1e-12
    assert count["after"] is not None and count["after"] <= 150, count


def test_a_stop_shell_exit_spends_few_evaluations(monkeypatch):
    # the first seed-1 ProductHyperbolic trace_cli input approaches the
    # m < 0 stop shell until its guard budget runs out.  While an accepted
    # step after a guard rejection held h instead of growing it, the run
    # spent 5742 rhs evaluations on 242 knots to t = 8.083334695; growing h
    # by the error factor after every acceptance spends 4926 on 174 knots to
    # t = 8.083332920
    params = MetricParams(0.0, -1.9782568888944283)
    s0 = GeodesicState(Point3(0.0, 0.0, 0.0), (0.37494910095945677, 0.8645353419690653, -0.33465178047655186))
    count = {"evals": 0}

    def counting_rk45(rhs, *args, **kwargs):
        def counted_rhs(y):
            count["evals"] += 1
            return rhs(y)

        return rk45(counted_rhs, *args, **kwargs)

    monkeypatch.setattr(_rk, "rk45", counting_rk45)
    traj = integrate_geodesic(params, s0, 30.0)
    assert traj.exit_reason == "domain-exit"
    assert abs(traj.ts[-1] - 8.08333) <= 1e-5
    assert count["evals"] <= 5000, count
