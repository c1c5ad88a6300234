"""Each exit of the `rk45` stepper, on one-dimensional problems, and the
stepper against its numpy-stage oracle on geodesics and surface geodesics."""

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


def decay(y):
    return [-v for v in y]


def test_complete_decay():
    ts, ys, fs, reason = rk45(decay, [1.0], 1.0, 1e-10, guard=always, guard_error=())
    assert reason == "complete"
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(1.0, abs=1e-13)
    assert np.all(np.diff(ts) > 0.0)
    assert abs(ys[-1, 0] - math.exp(-1.0)) < 1e-9
    assert np.array_equal(fs, -ys)


def test_domain_exit_from_guard():
    ts, ys, _, reason = rk45(
        lambda y: [1.0], [0.0], 1.0, 1e-10, guard=lambda y: y[0] < 0.5, guard_error=()
    )
    assert reason == "domain-exit"
    assert np.all(ys[:, 0] < 0.5)
    assert ts[-1] == pytest.approx(0.5, abs=1e-9)


def test_domain_exit_from_guard_error_in_a_stage():
    def rhs(y):
        if y[0] >= 0.5:
            raise OutOfDomain(f"y = {y[0]!r}")
        return [1.0]

    ts, ys, _, reason = rk45(rhs, [0.0], 1.0, 1e-10, guard=always, guard_error=OutOfDomain)
    assert reason == "domain-exit"
    assert np.all(ys[:, 0] < 0.5)
    assert ts[-1] == pytest.approx(0.5, abs=1e-9)


def test_guard_error_of_another_type_propagates():
    def rhs(y):
        if y[0] >= 0.5:
            raise OutOfDomain("out")
        return [1.0]

    with pytest.raises(OutOfDomain):
        rk45(rhs, [0.0], 1.0, 1e-10, guard=always, guard_error=())


def test_step_size_underflow_at_blow_up():
    # y' = y^2, y(0) = 1 blows up at t = 1, before t_max
    with pytest.raises(StepSizeUnderflow, match="step size underflow"):
        rk45(lambda y: [v * v for v in y], [1.0], 2.0, 1e-6, guard=always, guard_error=())


def test_step_budget_exhausted(monkeypatch):
    monkeypatch.setattr(_rk, "MAX_STEPS", 20)
    with pytest.raises(IntegrationError, match="step budget exhausted"):
        rk45(lambda y: [math.cos(v) for v in y], [0.0], 100.0, 1e-10, guard=always, guard_error=())


def test_initial_state_rejected():
    with pytest.raises(ValueError, match="initial state"):
        rk45(decay, [1.0], 1.0, 1e-10, guard=lambda y: False, guard_error=())


def test_guard_is_required():
    with pytest.raises(TypeError):
        rk45(decay, [1.0], 1.0, 1e-10)


def test_fifth_order_solution_integrates_a_quartic_exactly():
    # y' = (1, y0^4): the stages see y0 = t + c_i h, and the fifth-order
    # weights integrate t^4 exactly, so y1 = t^5/5 at every knot to rounding;
    # a stage combined with the wrong tableau row or weights misses it
    ts, ys, _, reason = rk45(
        lambda y: [1.0, y[0] ** 4], [0.0, 0.0], 2.0, 1e-8, guard=always, guard_error=()
    )
    assert reason == "complete"
    assert len(ts) > 10
    assert np.max(np.abs(ys[:, 0] - ts)) < 1e-14
    assert np.max(np.abs(ys[:, 1] - ts**5 / 5.0)) < 1e-13


def test_error_weights_are_nonzero_wherever_the_solution_weights_are():
    # so the error estimate is nan wherever the new state is: a stage that
    # is not finite can never be accepted
    assert all(e != 0.0 or b == 0.0 for e, b in zip(_rk._E, _rk._B5, strict=True))


def test_a_nan_stage_quarters_the_step():
    # the first attempt (h = 0.01) gets nan in one component at stage 3;
    # its error norm is nan, so the retry runs at h / 4 and is accepted
    calls = 0

    def rhs(y):
        nonlocal calls
        calls += 1
        out = decay(y)
        if calls == 3:
            out[1] = math.nan
        return out

    ts, ys, _, reason = rk45(rhs, [1.0, 2.0], 1.0, 1e-10, guard=always, guard_error=())
    assert reason == "complete"
    assert ts[1] == 0.0025
    assert np.all(np.isfinite(ys))
    clean, _, _, _ = rk45(decay, [1.0, 2.0], 1.0, 1e-10, guard=always, guard_error=())
    assert clean[1] == 0.01


def _numpy_norm(y, y_new, err, tol):
    """The error norm as numpy array operations; the reference of `_rms_norm`."""
    r = err / (tol + tol * np.maximum(np.abs(y), np.abs(y_new)))
    return math.sqrt(np.add.reduce(r * r) / len(r))


def test_rms_norm_is_numpys_bit_for_bit():
    # state dimensions 4 (surface) and 6 (geodesic), magnitudes over 40
    # decades, and a nan or an infinity in one component now and then
    rng = np.random.default_rng(61)
    for i in range(10000):
        d = 4 if i % 2 else 6
        y, y_new, err = (rng.normal(size=d) * 10.0 ** rng.uniform(-20, 20, d) for _ in range(3))
        if i % 50 == 0:
            j = int(rng.integers(d))
            y_new[j] = err[j] = rng.choice([np.nan, np.inf])
        tol = 10.0 ** rng.uniform(-14, -2)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _numpy_norm(y, y_new, err, tol)
        norm = _rk._rms_norm(y.tolist(), y_new.tolist(), err.tolist(), tol)
        assert norm == ref or (math.isnan(norm) and math.isnan(ref)), (y, y_new, err, tol)



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
