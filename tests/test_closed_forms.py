import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import containment_surfaces
from cvgeo.closed_forms import CaseKind, closed_form_geodesic, dispatch_case
from cvgeo.connection import GeodesicState, integrate_geodesic, state_speed
from cvgeo.space import MetricParams, Point3
from cvgeo.symmetry import first_integrals


def oracle(l, m, v0, t_max, tol=1e-10, samples=None):
    return integrate_geodesic(
        MetricParams(l, m), GeodesicState(Point3(0, 0, 0), np.array(v0, float)), t_max,
        tol=tol, samples=samples,
    )


def position(l, m, v0, t):
    return closed_form_geodesic(MetricParams(l, m), v0).position(t)


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


# ------------------------------------------------------------ closed form

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
    assert np.array_equal(cf.velocity(0.0), np.array(v0))


def test_trig_round_sphere_case_matches_oracle():
    # 4m = l^2 with l = 2, m = 1
    traj = oracle(2, 1, (1, 0, 1), 0.3)
    cf = closed_form_geodesic(MetricParams(2, 1), (1, 0, 1))
    assert np.max(np.abs(cf.position(traj.ts) - traj.positions())) < 1e-6


def test_trig_unwrapping_stress_two_periods():
    # two periods: the rotation angle stays continuous through the poles of tan(A t / 2)
    l, m, v0 = 1.0, 1.0, (1.0, 0.0, 1.0)
    A = math.sqrt(5.0)
    traj = oracle(l, m, v0, 4 * math.pi / A)
    cf = closed_form_geodesic(MetricParams(l, m), v0)
    assert np.max(np.abs(cf.position(traj.ts) - traj.positions())) < 1e-6


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
    assert dispatch_case(MetricParams(2, -1), (1, 0, 1)).kind is CaseKind.PARABOLIC_TWISTED
    assert np.max(np.abs(cf.position(traj.ts) - traj.positions())) < 1e-6


def test_trig_converges_to_parabolic():
    # A^2 = 1e-8 agrees pointwise with A^2 = 0 (l = 2, m = -1, v0 = (1, 0, 1))
    l, u, w = 2.0, 1.0, 1.0
    m = (1e-8 - l * l * w * w) / 4.0
    t = np.linspace(0.0, 2.0, 21)
    trig = position(l, m, (u, 0.0, w), t)
    para = position(l, -1.0, (u, 0.0, w), t)
    assert np.max(np.abs(trig - para)) < 1e-6


def test_hyp_converges_to_parabolic():
    l, u, w = 2.0, 1.0, 1.0
    m = (-1e-8 - l * l * w * w) / 4.0
    t = np.linspace(0.0, 2.0, 21)
    hyp = position(l, m, (u, 0.0, w), t)
    para = position(l, -1.0, (u, 0.0, w), t)
    assert np.max(np.abs(hyp - para)) < 1e-6


def test_heisenberg_printed_horizontal_circle():
    # l = 1, w = 1, u = 1, v = 0: x = sin t, y = 1 - cos t
    t = np.linspace(0, 4 * math.pi, 65)
    pos = position(1, 0, (1, 0, 1), t)
    assert np.max(np.abs(pos[:, 0] - np.sin(t))) < 1e-14
    assert np.max(np.abs(pos[:, 1] - (1 - np.cos(t)))) < 1e-14


def test_heisenberg_matches_oracle_full_turns():
    traj = oracle(1, 0, (1, 0, 1), 4 * math.pi)
    cf = closed_form_geodesic(MetricParams(1, 0), (1, 0, 1))
    assert np.max(np.abs(cf.position(traj.ts) - traj.positions())) < 1e-6


def test_planar_lines_when_m_zero():
    t = np.linspace(0, 3, 7)
    pos = position(1.5, 0.0, (1, 2, 0), t)
    assert np.allclose(pos, np.stack([t, 2 * t, 0 * t], axis=-1))


def test_planar_tan_value():
    pos = position(1, 1, (1, 0, 0), 0.5)
    assert pos[0] == pytest.approx(math.tan(0.5), abs=1e-14)
    assert pos[1] == 0.0 and pos[2] == 0.0


def test_planar_stays_inside_disk():
    pos = position(1, -1, (1, 0, 0), np.array([5.0, 18.0]))
    assert np.all(pos[:, 0] < 1.0)
    assert pos[-1, 0] == pytest.approx(1.0, abs=1e-9)


def test_product_vertical_axis():
    t = np.linspace(0, 2, 5)
    pos = position(0, 1.5, (0, 0, 1), t)
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


def test_product_crosses_the_antipode_like_the_planar_ray():
    # m > 0 past sqrt(m) b t = pi/2: the product (x, y) is the w = 0 planar
    # ray's, bit for bit, and z = w t
    t = np.linspace(0.0, 3.0 * math.pi, 61)
    product = position(0, 1, (1, 0.5, 1.3), t)
    planar = position(1.7, 1, (1, 0.5, 0), t)
    assert np.array_equal(product[:, :2], planar[:, :2])
    assert np.array_equal(product[:, 2], 1.3 * t)
    # it re-entered the chart from the opposite side of the antipode
    assert np.min(product[:, 0]) < 0.0 < np.max(product[:, 0])


def test_initial_conditions_across_all_battery_cases():
    # position(0) is exactly the origin and velocity(0) exactly the initial
    # velocity, for all 60 grid cases
    from battery import build_cases

    for case in build_cases():
        cf = closed_form_geodesic(case.params, case.v0)
        assert np.array_equal(cf.position(0.0), np.zeros(3))
        assert np.array_equal(cf.velocity(0.0), np.array(case.v0))


def test_closed_forms_have_constant_speed():
    for l, m, v0 in CASES:
        params = MetricParams(l, m)
        cf = closed_form_geodesic(params, v0)
        tmax = 0.6 if m >= 0 else 0.9
        ts = np.linspace(0.05, tmax, 9)
        speeds = state_speed(params, cf.position(ts), cf.velocity(ts))
        assert np.max(np.abs(speeds - np.linalg.norm(v0))) < 1e-12


def test_closed_forms_satisfy_containment():
    for l, m, v0 in CASES:
        params = MetricParams(l, m)
        cf = closed_form_geodesic(params, v0)
        cs = containment_surfaces(params, v0, t_span=0.5)
        tmax = 0.6 if m >= 0 else 0.9
        pos = cf.position(np.linspace(0, tmax, 33))
        assert cs.max_residual(pos) < 1e-9


@pytest.mark.parametrize(
    "l, m0, v0",
    [(2.0, -1.0, (1.0, 0.0, 1.0)),     # A^2 = 0 at m0
     (1.0, 0.0, (1.0, 0.0, 1.0)),      # m = 0, the Heisenberg form
     (0.0, 0.0, (0.6, -0.8, 0.5)),     # m = 0, the flat product
     (1.3, 0.0, (0.6, -0.8, 0.0))],    # m = 0, the flat planar ray
)
def test_continuous_across_the_case_boundaries(l, m0, v0):
    # one formula on both sides of A^2 = 0 and of m = 0: m0 +- 1e-14 moves
    # position and velocity by O(1e-14), not by a change of branch
    t = np.linspace(0.0, 3.0, 31)
    at = closed_form_geodesic(MetricParams(l, m0), v0)
    for dm in (-1e-14, 1e-14):
        near = closed_form_geodesic(MetricParams(l, m0 + dm), v0)
        assert np.max(np.abs(near.position(t) - at.position(t))) < 1e-12
        assert np.max(np.abs(near.velocity(t) - at.velocity(t))) < 1e-12


# m is 0 or +-10^e up to m = 2; l, w and b are 0 or 10^e up to 1, so that
# every case boundary (m -> 0, A^2 -> 0, w -> 0, l -> 0, b -> 0) is probed
SIGN = st.sampled_from([-1.0, 1.0])
SWEEP_M = st.one_of(st.just(0.0), st.builds(lambda sg, e: sg * 10.0 ** e, SIGN,
                                             st.floats(-14.0, math.log10(2.0))))
SWEEP_SIZE = st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m=SWEEP_M, l=SWEEP_SIZE, w=SWEEP_SIZE, b=SWEEP_SIZE, sl=SIGN, sw=SIGN,
       angle=st.floats(0.0, 2.0 * math.pi))
def test_boundary_sweep_against_the_oracle(m, l, w, b, sl, sw, angle):
    assume(b > 0.0 or w > 0.0)
    params = MetricParams(sl * l, m)
    v0 = (b * math.cos(angle), b * math.sin(angle), sw * w)
    speed0 = math.sqrt(b * b + w * w)
    cf = closed_form_geodesic(params, v0)
    # t <= 2, and |m| rho^2 <= 0.9: inside 0.9 of the m < 0 disk, and for
    # m > 0 well short of the antipode, where the chart coordinates blow up
    ts = np.linspace(0.0, 2.0, 201)
    pos = cf.position(ts)
    leaves = np.flatnonzero(abs(m) * (pos[:, 0] ** 2 + pos[:, 1] ** 2) > 0.9)
    t_max = float(ts[leaves[0] - 1]) if leaves.size else 2.0
    traj = oracle(params.l, m, v0, t_max, tol=1e-11)
    assert traj.complete
    pos, vel = cf.position(traj.ts), cf.velocity(traj.ts)
    assert np.max(np.abs(pos - traj.positions())) < 1e-6
    assert np.max(np.abs(state_speed(params, pos, vel) - speed0)) <= 1e-12 * speed0
    omega3 = [first_integrals(params, GeodesicState(Point3(*p), q))[2] for p, q in zip(pos, vel)]
    assert np.max(np.abs(np.array(omega3) - v0[2])) <= 1e-12 * speed0
