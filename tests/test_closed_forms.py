import math

import numpy as np
import pytest

from cvgeo.closed_forms import (
    BranchDomainError,
    CaseKind,
    closed_form_geodesic,
    dispatch_case,
    eval_heisenberg,
    eval_hyp_twisted,
    eval_parabolic_twisted,
    eval_planar_radial,
    eval_product_vertical,
    eval_trig_twisted,
    numeric_velocity,
    unwrap_T,
)
from cvgeo.connection import GeodesicState, integrate_geodesic, state_speed
from cvgeo.space import MetricParams, Point3
from cvgeo.symmetry import containment_surfaces


def oracle(l, m, v0, t_max, tol=1e-10, samples=None):
    return integrate_geodesic(
        MetricParams(l, m), GeodesicState(Point3(0, 0, 0), np.array(v0, float)), t_max,
        tol=tol, samples=samples,
    )


# ---------------------------------------------------------------- dispatch

def test_dispatch_trig():
    case = dispatch_case(MetricParams(1, 1), (1, 0, 1))
    assert case.kind is CaseKind.TRIG_TWISTED
    assert case.a_sq == pytest.approx(5.0)


def test_dispatch_hyp():
    case = dispatch_case(MetricParams(1, -1), (1, 0, 1))
    assert case.kind is CaseKind.HYP_TWISTED
    assert case.a_sq == pytest.approx(-3.0)


def test_dispatch_trig_with_negative_m():
    case = dispatch_case(MetricParams(2, -1), (1, 0, math.sqrt(2)))
    assert case.kind is CaseKind.TRIG_TWISTED
    assert case.a_sq == pytest.approx(4.0)


def test_dispatch_parabolic_relative_tolerance():
    case = dispatch_case(MetricParams(2, -1), (1, 0, 1))
    assert case.kind is CaseKind.PARABOLIC_TWISTED


def test_dispatch_heisenberg_planar_product():
    assert dispatch_case(MetricParams(1, 0), (1, 0, 1)).kind is CaseKind.HEISENBERG_VERTICAL
    assert dispatch_case(MetricParams(1, 1), (1, 0, 0)).kind is CaseKind.PLANAR_RADIAL
    assert dispatch_case(MetricParams(0, 1), (1, 0, 0)).kind is CaseKind.PLANAR_RADIAL
    assert dispatch_case(MetricParams(0, 1), (1, 0, 1)).kind is CaseKind.PRODUCT_VERTICAL
    assert dispatch_case(MetricParams(0, 0), (1, 1, 1)).kind is CaseKind.PRODUCT_VERTICAL


def test_dispatch_zero_velocity_rejected():
    with pytest.raises(ValueError):
        dispatch_case(MetricParams(1, 1), (0, 0, 0))


# ----------------------------------------------------------------- unwrap

def test_unwrap_zero_at_zero():
    assert unwrap_T(2.0, 1.5, 0.0) == 0.0


def test_unwrap_equal_coefficients_linear():
    t = np.linspace(-7, 7, 113)
    assert np.max(np.abs(unwrap_T(2.0, 2.0, t) - t)) < 1e-12


def test_unwrap_continuous_across_pole():
    A, lw = math.sqrt(5), 1.0
    tpole = math.pi / A
    h = 1e-6
    jump = abs(float(unwrap_T(A, lw, tpole + h)) - float(unwrap_T(A, lw, tpole - h)))
    assert jump < 10 * h * abs(lw) * 10


# -------------------------------------------------------------- evaluators

CASES = [
    (1.0, 1.0, (1.0, 0.0, 1.0)),
    (2.0, 1.0, (1.0, 0.0, 1.0)),
    (1.0, -1.0, (1.0, 0.0, 0.5)),
    (2.0, -1.0, (1.0, 0.0, 1.0)),
    (1.0, 0.0, (1.0, 0.0, 1.0)),
    (1.0, 1.0, (1.0, 0.0, 0.0)),
    (0.0, 1.0, (1.0, 0.0, 1.0)),
    (0.0, -1.0, (1.0, 0.0, 1.0)),
]


@pytest.mark.parametrize("l,m,v0", CASES)
def test_starts_at_origin_with_given_velocity(l, m, v0):
    cf = closed_form_geodesic(MetricParams(l, m), v0)
    assert np.array_equal(cf.position(0.0), np.zeros(3))
    vel = numeric_velocity(cf.position, 0.0)
    assert np.max(np.abs(vel - np.array(v0))) < 1e-6


def test_trig_round_sphere_case_matches_oracle():
    # 4m = l^2 with l = 2, m = 1
    traj = oracle(2, 1, (1, 0, 1), 0.3)
    cf = closed_form_geodesic(MetricParams(2, 1), (1, 0, 1))
    assert np.max(np.abs(cf.position(traj.ts) - traj.positions())) < 1e-6


def test_trig_unwrapping_stress_two_periods():
    l, m, v0 = 1.0, 1.0, (1.0, 0.0, 1.0)
    A = math.sqrt(5.0)
    traj = oracle(l, m, v0, 4 * math.pi / A)
    cf = closed_form_geodesic(MetricParams(l, m), v0)
    assert np.max(np.abs(cf.position(traj.ts) - traj.positions())) < 1e-6


def test_trig_rejects_m_zero():
    with pytest.raises(ValueError):
        eval_trig_twisted(MetricParams(1.0, 0.0), (1, 0, 1), 0.5)


def test_hyp_matches_oracle():
    # horizon [0, 3] rides far toward the disk boundary (rho -> 0.994)
    traj = oracle(1, -1, (1, 0, 0.5), 3.0)
    cf = closed_form_geodesic(MetricParams(1, -1), (1, 0, 0.5))
    assert traj.complete
    assert np.max(np.abs(cf.position(traj.ts) - traj.positions())) < 1e-6


def test_hyp_rotation_angle_bounded():
    l, m, v0 = 1.0, -1.0, (1.0, 0.0, 0.5)
    c = math.sqrt(3.75)
    lw = l * v0[2]
    bound = math.atan(abs(lw) / c) + 1e-12
    for t in (0.5, 2.0, 10.0, 50.0):
        th = math.tanh(0.5 * c * t)
        assert abs(math.atan(lw * th / c)) <= bound


def test_parabolic_matches_oracle():
    traj = oracle(2, -1, (1, 0, 1), 2.0)
    cf = closed_form_geodesic(MetricParams(2, -1), (1, 0, 1))
    assert cf.case.kind is CaseKind.PARABOLIC_TWISTED
    assert np.max(np.abs(cf.position(traj.ts) - traj.positions())) < 1e-6


def test_trig_converges_to_parabolic():
    # trig evaluation with A^2 = 1e-8 agrees pointwise with the parabolic
    l, u, w = 2.0, 1.0, 1.0
    m = (1e-8 - l * l * w * w) / 4.0
    params = MetricParams(l, m)
    t = np.linspace(0.0, 2.0, 21)
    trig = eval_trig_twisted(params, (u, 0.0, w), t)
    para = eval_parabolic_twisted(params, (u, 0.0, w), t)
    assert np.max(np.abs(trig - para)) < 1e-6


def test_hyp_converges_to_parabolic():
    l, u, w = 2.0, 1.0, 1.0
    m = (-1e-8 - l * l * w * w) / 4.0
    params = MetricParams(l, m)
    t = np.linspace(0.0, 2.0, 21)
    hyp = eval_hyp_twisted(params, (u, 0.0, w), t)
    para = eval_parabolic_twisted(params, (u, 0.0, w), t)
    assert np.max(np.abs(hyp - para)) < 1e-6


@pytest.mark.parametrize(
    "params, v0",
    [(MetricParams(0.0, 1.0), (0.0, 0.0, 0.2)), (MetricParams(1.0, 1.0), (1.0, 0.0, 1.0))],
)
def test_hyp_rejects_nonnegative_discriminant(params, v0):
    # A^2 = 0 would divide 0/0 into NaN positions; A^2 > 0 is the trig family
    with pytest.raises(ValueError, match="A\\^2 < 0"):
        eval_hyp_twisted(params, v0, np.linspace(0.0, 1.0, 5))


def test_heisenberg_printed_horizontal_circle():
    # l = 1, w = 1, u = 1, v = 0: x = sin t, y = 1 - cos t
    t = np.linspace(0, 4 * math.pi, 65)
    pos = eval_heisenberg(MetricParams(1, 0), (1, 0, 1), t)
    assert np.max(np.abs(pos[:, 0] - np.sin(t))) < 1e-14
    assert np.max(np.abs(pos[:, 1] - (1 - np.cos(t)))) < 1e-14


def test_heisenberg_matches_oracle_full_turns():
    traj = oracle(1, 0, (1, 0, 1), 4 * math.pi)
    cf = closed_form_geodesic(MetricParams(1, 0), (1, 0, 1))
    assert np.max(np.abs(cf.position(traj.ts) - traj.positions())) < 1e-6


def test_planar_lines_when_m_zero():
    t = np.linspace(0, 3, 7)
    pos = eval_planar_radial(MetricParams(1.5, 0.0), (1, 2, 0), t)
    assert np.allclose(pos, np.stack([t, 2 * t, 0 * t], axis=-1))


def test_planar_tan_value():
    pos = eval_planar_radial(MetricParams(1, 1), (1, 0, 0), 0.5)
    assert pos[0] == pytest.approx(math.tan(0.5), abs=1e-14)
    assert pos[1] == 0.0 and pos[2] == 0.0


def test_planar_stays_inside_disk():
    pos = eval_planar_radial(MetricParams(1, -1), (1, 0, 0), np.array([5.0, 18.0]))
    assert np.all(pos[:, 0] < 1.0)
    assert pos[-1, 0] == pytest.approx(1.0, abs=1e-9)


def test_product_vertical_axis():
    t = np.linspace(0, 2, 5)
    pos = eval_product_vertical(MetricParams(0, 1.5), (0, 0, 1), t)
    assert np.allclose(pos, np.stack([0 * t, 0 * t, t], axis=-1))


def test_product_vertical_matches_oracle():
    traj = oracle(0, 1, (1, 0, 1), 0.7)
    cf = closed_form_geodesic(MetricParams(0, 1), (1, 0, 1))
    assert np.max(np.abs(cf.position(traj.ts) - traj.positions())) < 1e-6


def test_product_vertical_hyperbolic_implicit_relation():
    # x^2 + y^2 = -(1/m) tanh^2(sqrt(-m (u^2+v^2)) z / w) along the oracle
    l, m, v0 = 0.0, -1.0, (1.0, 0.0, 1.0)
    traj = oracle(l, m, v0, 1.5)
    pos = traj.positions()
    b = 1.0
    k = math.sqrt(-m) * b / v0[2]
    target = np.tanh(k * pos[:, 2]) ** 2 / (-m)
    assert np.max(np.abs(pos[:, 0] ** 2 + pos[:, 1] ** 2 - target)) < 1e-8


def test_product_vertical_principal_branch_error():
    with pytest.raises(BranchDomainError):
        eval_product_vertical(MetricParams(0, 1), (1, 0, 1), math.pi)


def test_initial_conditions_across_all_battery_cases():
    # evaluation(0) is exactly the origin and the numeric derivative at 0
    # recovers the initial velocity, for all 60 grid cases
    from battery import build_cases

    for case in build_cases():
        cf = closed_form_geodesic(case.params, case.v0)
        assert np.array_equal(cf.position(0.0), np.zeros(3))
        vel = numeric_velocity(cf.position, 0.0)
        assert np.max(np.abs(vel - np.array(case.v0))) < 1e-6


def test_closed_forms_have_constant_speed():
    for l, m, v0 in CASES:
        params = MetricParams(l, m)
        cf = closed_form_geodesic(params, v0)
        tmax = 0.6 if m >= 0 else 0.9
        ts = np.linspace(0.05, tmax, 9)
        pos = cf.position(ts)
        vel = numeric_velocity(cf.position, ts)
        speeds = [state_speed(params, pos[i], vel[i]) for i in range(len(ts))]
        assert max(speeds) - min(speeds) < 1e-6


def test_closed_forms_satisfy_containment():
    for l, m, v0 in CASES:
        params = MetricParams(l, m)
        cf = closed_form_geodesic(params, v0)
        cs = containment_surfaces(params, v0, t_span=0.5)
        tmax = 0.6 if m >= 0 else 0.9
        pos = cf.position(np.linspace(0, tmax, 33))
        assert cs.max_residual(pos) < 1e-9
