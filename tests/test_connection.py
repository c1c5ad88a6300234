import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from battery import dense_states
from oracles import (
    annotate_rows,
    christoffel_fd,
    curvature_fd,
    koszul_christoffel_entries,
    koszul_rhs,
)
from cvgeo.audits import random_params, random_point
from cvgeo.closed_forms import closed_form_geodesic
from cvgeo.connection import (
    BOUNDARY_MARGIN,
    GeodesicState,
    _geodesic_rhs,
    annotate_states,
    christoffel,
    curvature_tensor,
    _sectional,
    frame_sectional,
    integrate_geodesic,
    state_speed,
)
from cvgeo.space import DomainError, MetricParams, Point3, SpaceClass, classify, metric_tensor


def state(x, y, z, vx, vy, vz):
    return GeodesicState(Point3(x, y, z), np.array([vx, vy, vz], dtype=float))


def test_christoffel_flat_vanishes():
    params = MetricParams(0.0, 0.0)
    for p in (Point3(0, 0, 0), Point3(2, -1, 4)):
        assert np.array_equal(christoffel(params, p), np.zeros((3, 3, 3)))


def test_christoffel_symmetric_lower_indices():
    rng = np.random.default_rng(10)
    for _ in range(30):
        params = random_params(rng)
        p = random_point(params, rng)
        gam = christoffel(params, p)
        assert np.max(np.abs(gam - gam.transpose(0, 2, 1))) == 0.0


def test_christoffel_matches_finite_difference_koszul():
    params = MetricParams(1.0, 0.25)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_point(params, rng)
        diff = christoffel(params, p) - christoffel_fd(params, p)
        assert np.max(np.abs(diff)) < 1e-7


def test_christoffel_fd_oracle_random_params():
    rng = np.random.default_rng(12)
    for _ in range(20):
        params = random_params(rng)
        p = random_point(params, rng)
        assert np.max(np.abs(christoffel(params, p) - christoffel_fd(params, p))) < 1e-7


def test_metric_compatibility():
    # numeric covariant derivative of the metric vanishes
    rng = np.random.default_rng(13)
    h = 1e-5
    for _ in range(15):
        params = random_params(rng)
        p = random_point(params, rng)
        gam = christoffel(params, p)
        x, y, z = p.x, p.y, p.z
        for a, step in enumerate(((h, 0, 0), (0, h, 0), (0, 0, h))):
            gp = metric_tensor(params, (x + step[0], y + step[1], z + step[2]))
            gm = metric_tensor(params, (x - step[0], y - step[1], z - step[2]))
            dg = (gp - gm) / (2 * h)
            g0 = metric_tensor(params, p)
            # nabla_a g_ij = d_a g_ij - Gamma^k_ai g_kj - Gamma^k_aj g_ik
            nabla = dg - np.einsum("ki,kj->ij", gam[:, a, :], g0) - np.einsum("kj,ik->ij", gam[:, a, :], g0)
            assert np.max(np.abs(nabla)) < 1e-7


def test_geodesic_rhs_flat():
    params = MetricParams(0.0, 0.0)
    rhs = np.array(_geodesic_rhs(params.l, params.m)(state(1, 2, 3, -1, 0.5, 2).as_array().tolist()))
    assert np.allclose(rhs, [-1, 0.5, 2, 0, 0, 0])


def test_geodesic_rhs_matches_koszul_oracle():
    # every fifth state on the constant-curvature line 4m = l^2, and every
    # third m < 0 state at rho^2 = 0.999/|m|, where D = 1e-3
    rng = np.random.default_rng(41)
    n_hyperbolic = 0
    for i in range(2000):
        l = rng.uniform(-2.5, 2.5)
        m = 0.25 * l * l if i % 5 == 0 else rng.uniform(-2.0, 2.0)
        if m < 0.0:
            n_hyperbolic += 1
            share = 0.999 if n_hyperbolic % 3 == 0 else rng.uniform(0.0, 0.999)
            rho = math.sqrt(share / -m)
        else:
            rho = rng.uniform(0.0, 3.0)
        th = rng.uniform(0.0, 2.0 * math.pi)
        vel = rng.normal(size=3) * rng.uniform(0.1, 3.0)
        y6 = np.array([rho * math.cos(th), rho * math.sin(th), rng.uniform(-3.0, 3.0), *vel])
        exact = np.array(_geodesic_rhs(l, m)(y6.tolist()))
        oracle = koszul_rhs(l, m, y6)
        scale = max(float(np.max(np.abs(oracle))), 1.0)
        assert np.max(np.abs(exact - oracle)) <= 1e-12 * scale, (l, m, y6)
        # the symbols against the Koszul ones, and contracted with v against the rhs
        gam = christoffel(MetricParams(l, m), y6[:3])
        gam_oracle = np.array(koszul_christoffel_entries(l, m, y6[0], y6[1]))
        scale = max(float(np.max(np.abs(gam_oracle))), 1.0)
        assert np.max(np.abs(gam - gam_oracle)) <= 1e-12 * scale, (l, m, y6)
        acc = -np.einsum("kij,i,j->k", gam, vel, vel)
        scale = max(float(np.max(np.abs(exact[3:]))), 1.0)
        assert np.max(np.abs(acc - exact[3:])) <= 1e-12 * scale, (l, m, y6)
    assert n_hyperbolic > 300


def test_geodesic_rhs_raises_where_metric_degenerates():
    with pytest.raises(DomainError):
        _geodesic_rhs(1.0, -1.0)([1.0, 0.0, 0.0, 0.3, 0.2, 0.1])


def _rhs_numpy_scalars(l, m, y6):
    """The closed-form rhs read as numpy scalars, whose overflow numpy's
    errstate sees; the reference of the non-finite contract of `_geodesic_rhs`."""
    x, yy = y6[0], y6[1]
    vx, vy, vz = y6[3], y6[4], y6[5]
    D = 1.0 + m * (x * x + yy * yy)
    if D <= 0.0:
        raise DomainError(f"metric degenerate: D = {D!r}")
    c = (yy * vx - x * vy) / D
    r = (x * vx + yy * vy) / D
    K = l * (vz + 0.5 * l * c) - 2.0 * m * c
    mr2 = 2.0 * m * r
    return np.array([vx, vy, vz, mr2 * vx - K * vy, mr2 * vy + K * vx, 0.5 * l * K * r])


@pytest.mark.parametrize("errstate", [{}, {"over": "raise"}])
@pytest.mark.parametrize("y6", [
    [0.0, 0.0, 0.0, 1e200, 1e200, 1e200],  # the accelerations overflow
    [1e200, 0.0, 0.0, 0.3, 0.2, 0.1],  # x^2 and D overflow
    [1e-10, 0.0, 0.0, 1e160, 0.0, 1e160],  # K overflows, vy = 0 makes ax nan
])
def test_geodesic_rhs_overflow_raises(errstate, y6):
    with np.errstate(**errstate), pytest.raises(FloatingPointError, match="overflow"):
        _geodesic_rhs(1.0, 1.0)(y6)


def test_geodesic_rhs_huge_finite_result_does_not_raise():
    y6 = [0.0, 0.0, 0.0, 1e300, -1e300, 1e300]
    assert np.array_equal(np.array(_geodesic_rhs(0.0, 0.0)(y6)), [1e300, -1e300, 1e300, 0.0, 0.0, 0.0])
    y6 = [0.5, -0.25, 0.0, 1e150, 1e150, -1e150]
    assert np.all(np.isfinite(np.array(_geodesic_rhs(1.5, 0.75)(y6))))


def test_geodesic_rhs_raises_where_the_numpy_scalar_form_overflows():
    # each value boundary-sized one time in four: where numpy scalars raise
    # under errstate the float form raises FloatingPointError too
    # (DomainError where they raise that), and elsewhere both give the same
    # rhs bit for bit
    rng = np.random.default_rng(47)
    mags = np.array([0.0, 1e-300, 1e8, 1e77, 1e150, 1e154, 1e160, 1e200, 1e300])
    raised = {FloatingPointError: 0, DomainError: 0}
    for _ in range(4000):
        values = np.where(rng.random(8) < 0.25, rng.choice(mags, 8), rng.uniform(0.0, 2.0, 8))
        l, m, x, yy, z, vx, vy, vz = (values * rng.choice([-1.0, 1.0], 8)).tolist()
        y6 = np.array([x, yy, z, vx, vy, vz])
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                ref = _rhs_numpy_scalars(l, m, y6)
        except (FloatingPointError, DomainError) as exc:
            raised[type(exc)] += 1
            with pytest.raises(type(exc)):
                _geodesic_rhs(l, m)(y6.tolist())
            continue
        got = np.array(_geodesic_rhs(l, m)(y6.tolist()))
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), (l, m, y6)
    assert all(200 < n < 2000 for n in raised.values()), raised


def test_geodesic_rhs_velocity_homogeneity():
    params = MetricParams(1.3, -0.4)
    s1 = state(0.3, 0.1, 0.0, 0.4, -0.2, 0.7)
    s2 = state(0.3, 0.1, 0.0, 0.8, -0.4, 1.4)
    a1 = np.array(_geodesic_rhs(params.l, params.m)(s1.as_array().tolist()))[3:]
    a2 = np.array(_geodesic_rhs(params.l, params.m)(s2.as_array().tolist()))[3:]
    assert np.max(np.abs(a2 - 4.0 * a1)) < 1e-12


def test_geodesic_rhs_matches_second_difference_of_trajectory():
    params = MetricParams(1.2, 0.6)
    traj = integrate_geodesic(params, state(0, 0, 0, 0.7, -0.3, 0.5), 0.5, tol=1e-12, samples=201)
    i = 100
    dt = traj.ts[1] - traj.ts[0]
    pos = traj.positions()
    acc_fd = (pos[i + 1] - 2 * pos[i] + pos[i - 1]) / dt**2
    acc = np.array(_geodesic_rhs(params.l, params.m)(traj.states[i].tolist()))[3:]
    assert np.max(np.abs(acc_fd - acc)) < 1e-4


def test_integrate_flat_straight_line():
    params = MetricParams(0.0, 0.0)
    traj = integrate_geodesic(params, state(0, 0, 0, 0.3, -1.0, 0.7), 2.0, samples=9)
    expected = np.outer(traj.ts, [0.3, -1.0, 0.7])
    assert np.max(np.abs(traj.positions() - expected)) < 1e-12


def test_integrate_heisenberg_horizontal_line():
    # w = 0 in the Heisenberg group gives a straight horizontal line
    params = MetricParams(1.5, 0.0)
    traj = integrate_geodesic(params, state(0, 0, 0, 0.8, 0.6, 0.0), 2.0, samples=9)
    expected = np.outer(traj.ts, [0.8, 0.6, 0.0])
    assert np.max(np.abs(traj.positions() - expected)) < 1e-10


def test_integrate_endpoint_matches_closed_form():
    params = MetricParams(1.0, 1.0)
    traj = integrate_geodesic(params, state(0, 0, 0, 1, 0, 1), 1.0)
    cf = closed_form_geodesic(params, (1.0, 0.0, 1.0))
    assert np.max(np.abs(traj.positions()[-1] - cf.position(traj.ts[-1]))) < 1e-6


def test_speed_conserved():
    rng = np.random.default_rng(14)
    for _ in range(5):
        params = random_params(rng)
        v0 = rng.uniform(-1, 1, 3)
        tol = 1e-10
        t_max = 1.0 if params.m >= 0 else min(1.0, 0.9 / (math.sqrt(-params.m) * np.linalg.norm(v0)))
        traj = integrate_geodesic(params, GeodesicState(Point3(0, 0, 0), v0), t_max, tol=tol)
        drift = np.max(np.abs(traj.speeds - traj.speeds[0])) / traj.speeds[0]
        assert drift < 10 * tol


def test_trajectory_monotone_times_and_sampling():
    params = MetricParams(0.7, 0.2)
    traj = integrate_geodesic(params, state(0, 0, 0, 1, 0, 0.5), 1.5)
    assert np.all(np.diff(traj.ts) > 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        traj.exit_reason = "complete"
    # the knots' interpolant is the library's dense output, bit for bit
    sampled = integrate_geodesic(params, state(0, 0, 0, 1, 0, 0.5), 1.5, samples=16)
    assert np.array_equal(dense_states(traj, sampled.ts), sampled.states)
    mid = dense_states(traj, 0.7)
    assert mid.shape == (6,)
    cf = closed_form_geodesic(params, (1.0, 0.0, 0.5))
    assert np.max(np.abs(mid[:3] - cf.position(0.7))) < 1e-6


def test_domain_exit_gives_partial_trajectory():
    params = MetricParams(0.0, -1.0)
    traj = integrate_geodesic(params, state(0, 0, 0, 1, 0, 0), 14.0)
    assert not traj.complete
    assert traj.exit_reason == "domain-exit"
    assert traj.ts[-1] < 14.0
    p = traj.positions()[-1]
    assert p[0] ** 2 + p[1] ** 2 < 1.0


def test_integrate_rejects_out_of_domain_start():
    params = MetricParams(0.0, -1.0)
    with pytest.raises(Exception):
        integrate_geodesic(params, state(2, 0, 0, 1, 0, 0), 1.0)


def test_integrate_rejects_fewer_than_two_samples():
    with pytest.raises(ValueError, match="samples must be at least 2"):
        integrate_geodesic(MetricParams(1.0, 0.5), state(0, 0, 0, 1, 0, 0), 1.0, samples=1)


def test_curvature_symmetries_and_bianchi():
    rng = np.random.default_rng(15)
    for _ in range(10):
        params = random_params(rng)
        p = random_point(params, rng)
        r = curvature_tensor(params, p)
        assert np.max(np.abs(r + r.transpose(1, 0, 2, 3))) < 1e-9
        assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) < 1e-9
        assert np.max(np.abs(r - r.transpose(2, 3, 0, 1))) < 1e-9
        # first Bianchi: cyclic sum over the first three slots
        bianchi = r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)
        assert np.max(np.abs(bianchi)) < 1e-9


def test_curvature_matches_fd_oracle():
    # every fifth pair on the constant-curvature class 4m = l^2; for m < 0
    # every third point on the shell rho^2 = 0.95/|m|, where D = 0.05.  The
    # oracle's fourth-order truncation error at step 1e-4 grows like
    # (1e-4 / r)^4, r the distance to the disk boundary: on the shell it
    # reaches 3.8e-9 (m = -1.96) and falls 16-fold per halving of the
    # step, so the bound there is 1e-8.  The scale is at least 1, as the
    # oracle's rounding does not shrink with the curvature (l, m -> 0).
    rng = np.random.default_rng(18)
    for i in range(300):
        params = random_params(rng)
        if i % 5 == 0:
            params = MetricParams(params.l, 0.25 * params.l * params.l)
        p = random_point(params, rng)
        shell = params.m < 0.0 and i % 3 == 0
        if shell:
            s = math.sqrt(0.95 / -params.m) / math.hypot(p.x, p.y)
            p = Point3(s * p.x, s * p.y, p.z)
        exact, oracle = curvature_tensor(params, p), curvature_fd(params, p)
        rel = np.max(np.abs(exact - oracle)) / max(np.max(np.abs(oracle)), 1.0)
        assert rel < (1e-8 if shell else 1e-10), (params, p, rel)


def test_flat_curvature_vanishes():
    params = MetricParams(0.0, 0.0)
    r = curvature_tensor(params, Point3(0.3, -0.7, 2.0))
    assert np.max(np.abs(r)) < 1e-9


def test_sectional_product_case():
    rng = np.random.default_rng(16)
    for _ in range(20):
        m = float(rng.uniform(-2, 2))
        params = MetricParams(0.0, m)
        p = random_point(params, rng)
        k12, k13 = frame_sectional(params, p)
        assert abs(k12 - 4.0 * m) < 1e-8
        assert abs(k13) < 1e-8


def test_sectional_constant_curvature_case():
    # 4m = l^2: the same value for every plane at every point
    params = MetricParams(2.0, 1.0)
    rng = np.random.default_rng(17)
    vals = []
    for _ in range(40):
        p = random_point(params, rng)
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        vals.append(_sectional(metric_tensor(params, p), curvature_tensor(params, p), u, v))
    assert max(vals) - min(vals) < 1e-8


def test_sectional_degenerate_plane_raises():
    params, p = MetricParams(1.0, 0.5), Point3(0.1, 0.2, 0.0)
    with pytest.raises(ValueError):
        _sectional(metric_tensor(params, p), curvature_tensor(params, p), (1, 0, 0), (2, 0, 0))


def test_state_speed_at_origin_is_euclidean():
    params = MetricParams(1.0, -0.5)
    assert state_speed(params, Point3(0, 0, 0), (3, 4, 0)) == pytest.approx(5.0, abs=1e-14)


def test_array_points_match_one_point_calls():
    # 20 parameter pairs x 100 points, among them l = 0, 4m = l^2 and m < 0
    # with every fifth point at rho^2 = 0.999/|m|; an (..., 3) array gives
    # each point's one-point metric bit for bit
    rng = np.random.default_rng(43)
    pairs = [(0.0, 0.8), (0.0, -0.6), (1.4, 0.49), (-0.9, 0.2025), (1.1, -0.7), (-1.7, -1.3)]
    pairs += [tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(14)]
    for l, m in pairs:
        params = MetricParams(l, m)
        if m < 0.0:
            rho2 = rng.uniform(0.0, 0.999, 100) / -m
            rho2[::5] = 0.999 / -m
        else:
            rho2 = rng.uniform(0.0, 9.0, 100)
        th = rng.uniform(0.0, 2.0 * math.pi, 100)
        pts = np.stack([np.sqrt(rho2) * np.cos(th), np.sqrt(rho2) * np.sin(th), rng.uniform(-3, 3, 100)], axis=-1)
        pts = pts.reshape(4, 25, 3)
        g = metric_tensor(params, pts)
        assert g.shape == (4, 25, 3, 3)
        for idx in np.ndindex(4, 25):
            assert np.array_equal(g[idx], metric_tensor(params, pts[idx])), (l, m, idx)


@pytest.mark.parametrize("fn", [metric_tensor])
def test_array_points_outside_the_disk_raise_for_the_first(fn):
    params = MetricParams(0.5, -1.0)
    pts = np.array([[0.1, 0.2, 0.0], [0.6, 0.9, 1.0], [0.3, 0.3, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(DomainError) as one:
        fn(params, pts[1])
    with pytest.raises(DomainError) as rows:
        fn(params, pts)
    assert str(rows.value) == str(one.value)


def test_state_speed_rows_match_one_point_calls():
    rng = np.random.default_rng(53)
    for _ in range(20):
        params = random_params(rng)
        pts = np.array([random_point(params, rng).as_array() for _ in range(50)])
        vel = rng.normal(size=(50, 3)) * rng.uniform(0.01, 10.0, (50, 1))
        speeds = state_speed(params, pts, vel)
        assert speeds.shape == (50,)
        one = [state_speed(params, pts[i], vel[i]) for i in range(50)]
        assert np.array_equal(speeds, one), params


def _stepped(value, k):
    """value moved k float steps, down for k < 0."""
    for _ in range(abs(k)):
        value = math.nextafter(value, math.copysign(math.inf, k))
    return value


def _edge_point(m, k, theta, z):
    """A point whose x^2 + y^2 lies about k float steps from -1/m: on the
    x axis (theta None) with x stepped from sqrt(-1/m), or at the angle
    theta with x^2 + y^2 stepped from -1/m."""
    if theta is None:
        return (_stepped(math.sqrt(-1.0 / m), k), 0.0, z)
    r = math.sqrt(_stepped(-1.0 / m, k))
    return (r * math.cos(theta), r * math.sin(theta), z)


EDGE_POINTS = st.one_of(
    st.tuples(st.integers(-3, 3), st.none() | st.floats(0.0, 2.0 * math.pi), st.floats(-5.0, 5.0)),
    st.tuples(st.sampled_from([1e200, -1e200, 1e155, 1.5e154]), st.sampled_from([0.0, 1e200, -3.0])),
)


def _outcome(fn, *args):
    """fn's value, or the message of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(
    l=st.floats(-3.0, 3.0),
    m=st.floats(-1e6, -1e-6),
    draws=st.lists(st.tuples(EDGE_POINTS, st.tuples(*[st.floats(-10.0, 10.0)] * 3)), min_size=1, max_size=8),
)
def test_one_point_and_rows_agree_at_the_disk_edge(l, m, draws):
    # points k float steps inside, on or outside the m < 0 disk edge, and
    # points whose x^2 + y^2 overflows: a point, its one-row array and the
    # rows of all points raise the DomainError of the first point outside,
    # or agree bit for bit, in the metric and the speed.  The rows run
    # numpy, whose overflow the CLI reports as such; it is silenced here so
    # that both report the disk.
    params = MetricParams(l, m)
    pts = np.array([_edge_point(m, *pt) if len(pt) == 3 else (*pt, 0.0) for pt, _ in draws])
    vel = np.array([v for _, v in draws])
    for rows in [slice(i, i + 1) for i in range(len(pts))] + [slice(None)]:
        ones = [_outcome(fn, params, *args) for p, v in zip(pts[rows], vel[rows])
                for fn, args in ((metric_tensor, (p,)), (state_speed, (p, v)))]
        with np.errstate(over="ignore"):
            g = _outcome(metric_tensor, params, pts[rows])
            speeds = _outcome(state_speed, params, pts[rows], vel[rows])
        outside = [one for one in ones if isinstance(one, str)]
        if outside:
            assert g == speeds == outside[0]
            continue
        for i, (one_g, one_speed) in enumerate(zip(ones[::2], ones[1::2])):
            assert np.array_equal(g[i], one_g)
            assert type(one_speed) is float and speeds[i] == one_speed


# One (l, m) per space class: l = 0 (m = 0, m > 0, m < 0), m = 0, 4m = l^2,
# m > 0 and m < 0.
CLASS_PARAMS = {
    SpaceClass.EUCLIDEAN_FLAT: (0.0, 0.0),
    SpaceClass.PRODUCT_SPHERE: (0.0, 0.7),
    SpaceClass.PRODUCT_HYPERBOLIC: (0.0, -0.6),
    SpaceClass.HEISENBERG: (1.3, 0.0),
    SpaceClass.CONSTANT_POSITIVE: (1.2, 0.36),
    SpaceClass.SU2: (1.3, 0.7),
    SpaceClass.SL2R: (0.8, -0.6),
}


def test_a_stop_shell_at_or_past_the_origin_is_refused():
    # m = -1/BOUNDARY_MARGIN puts the shell at the origin and a smaller m
    # past it; a start there would have no room, or a negative one
    for m in (-1.0 / BOUNDARY_MARGIN, -2e9, -1e154):
        with pytest.raises(DomainError, match="stop shell .* at or past the origin"):
            integrate_geodesic(MetricParams(1.0, m), state(0, 0, 0, 1e-9, 0.0, 1.0), 1.0)
    traj = integrate_geodesic(MetricParams(1.0, -0.9e9), state(0, 0, 0, 1e-9, 0.0, 1.0), 1.0)
    assert traj.states[0, 2] == 0.0


def test_annotate_states_refuses_a_row_outside_the_disk():
    # the DomainError of the first row outside, its numbers as plain floats
    states = np.array([[0.1, 0.2, 0.0, 1.0, 0.0, 0.0], [1.0, 0.5, 0.0, 0.0, 1.0, 0.0], [2.0, 0.0, 0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(DomainError) as exc:
        annotate_states(MetricParams(1.0, -1.0), states)
    assert str(exc.value) == "point with x^2+y^2 = 1.25 outside the disk x^2+y^2 < 1.0 (m = -1.0)"


@pytest.mark.parametrize("cls", list(SpaceClass))
def test_annotate_states_matches_the_row_oracle(cls):
    # the knots and dense rows of three geodesics, one of them from off the
    # origin, and for m < 0 the knots of one that ends in the stop shell,
    # where D ~ 1e-9
    l, m = CLASS_PARAMS[cls]
    params = MetricParams(l, m)
    assert classify(params) is cls
    rng = np.random.default_rng(59)
    rows = []
    for start in ((0.0, 0.0, 0.0), (0.3, -0.2, 0.5), (0.0, 0.0, 0.0)):
        v0 = rng.normal(size=3)
        traj = integrate_geodesic(params, GeodesicState(Point3(*start), v0), 20.0)
        rows += [traj.states, dense_states(traj, np.linspace(0.0, traj.ts[-1], 101))]
    if m < 0.0:
        radial = integrate_geodesic(params, state(0, 0, 0, 1.0, 0.5, 0.2), 30.0)
        assert radial.exit_reason == "domain-exit"
        rows.append(radial.states)
        shell = radial.states[-1, :2] @ radial.states[-1, :2]
        assert 1.0 + m * shell < 10.0 * BOUNDARY_MARGIN
    states = np.concatenate(rows)
    integrals, speeds = annotate_states(params, states)
    ref_integrals, ref_speeds = annotate_rows(params, states)
    assert np.array_equal(integrals, ref_integrals)
    # the oracle's in-order float sums round unlike the stacked v g v product
    assert np.all(np.abs(speeds - ref_speeds) <= 4.0 * np.finfo(float).eps * ref_speeds)
