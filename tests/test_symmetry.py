import numpy as np
import pytest

from oracles import conformal_factor, containment_surfaces, killing_pairings
from cvgeo.audits import random_params, random_point
from cvgeo.connection import GeodesicState, integrate_geodesic
from cvgeo.space import MetricParams, Point3
from cvgeo.symmetry import (
    KILLING_NAMES,
    field_killing_defect,
    first_integrals,
    killing_defect,
    killing_eval,
)


def state(vx, vy, vz, p=None):
    return GeodesicState(p or Point3(0, 0, 0), np.array([vx, vy, vz], dtype=float))


def test_killing_z_is_vertical():
    rng = np.random.default_rng(20)
    for _ in range(10):
        params = random_params(rng)
        p = random_point(params, rng)
        assert np.array_equal(killing_eval(params, "Z", p), [0.0, 0.0, 1.0])


def test_killing_r_vanishes_at_origin():
    assert np.array_equal(killing_eval(MetricParams(1.3, -0.7), "R", Point3(0, 0, 0)), np.zeros(3))


def test_killing_r_is_coordinate_rotation():
    # horizontal part (-y, x); the vertical component is identically zero
    rng = np.random.default_rng(21)
    for _ in range(20):
        params = random_params(rng)
        p = random_point(params, rng)
        r = killing_eval(params, "R", p)
        assert np.allclose(r[:2], [-p.y, p.x], atol=1e-14)
        assert abs(r[2]) < 1e-14


def test_killing_xy_frame_reconstruction():
    # coordinate components must agree with the frame-component expansion
    rng = np.random.default_rng(22)
    from cvgeo.space import frame

    for _ in range(20):
        params = random_params(rng)
        p = random_point(params, rng)
        d = conformal_factor(params, p)
        fr = frame(params, p)
        x, y = p.x, p.y
        m, l = params.m, params.l
        expect_x = (2 * m * x * y / d) * fr.e1 + (1 - 2 * m * x * x / d) * fr.e2 - (l * x / d) * fr.e3
        expect_y = (1 - 2 * m * y * y / d) * fr.e1 + (2 * m * x * y / d) * fr.e2 + (l * y / d) * fr.e3
        assert np.max(np.abs(killing_eval(params, "X", p) - expect_x)) < 1e-12
        assert np.max(np.abs(killing_eval(params, "Y", p) - expect_y)) < 1e-12


def test_killing_unknown_name():
    with pytest.raises(ValueError):
        killing_eval(MetricParams(1, 1), "Q", Point3(0, 0, 0))


def test_killing_defect_z_small():
    rng = np.random.default_rng(23)
    for _ in range(20):
        params = random_params(rng)
        p = random_point(params, rng)
        assert killing_defect(params, "Z", p) < 1e-8


def test_killing_defect_all_fields_sweep():
    rng = np.random.default_rng(24)
    for _ in range(10):
        params = random_params(rng)
        for _ in range(10):
            p = random_point(params, rng)
            for name in KILLING_NAMES:
                assert killing_defect(params, name, p) < 1e-8


def test_killing_defect_x_at_spec_params():
    params = MetricParams(1.0, 0.25)
    rng = np.random.default_rng(25)
    for _ in range(100):
        p = random_point(params, rng)
        assert killing_defect(params, "X", p) < 1e-8


def test_killing_defect_detects_non_killing_field():
    params = MetricParams(1.0, 0.25)
    eps = 1e-2

    def perturbed(q):
        x = q.x if isinstance(q, Point3) else q[0]
        return killing_eval(params, "X", q) + np.array([0.0, 0.0, eps * x])

    assert field_killing_defect(params, perturbed, Point3(0.4, 0.2, 0.1)) > 1e-3


def test_r_is_combination_of_translations():
    # R = -x/(m rho^2 - 1) X + y/(m rho^2 - 1) Y
    #     - l rho^2 / (2 (m rho^2 - 1)) Z, away from m rho^2 = 1
    rng = np.random.default_rng(26)
    checked = 0
    while checked < 50:
        params = random_params(rng)
        p = random_point(params, rng)
        rho2 = p.x**2 + p.y**2
        den = params.m * rho2 - 1.0
        if abs(den) < 0.05:
            continue
        combo = (
            (-p.x / den) * killing_eval(params, "X", p)
            + (p.y / den) * killing_eval(params, "Y", p)
            - (params.l * rho2 / (2 * den)) * killing_eval(params, "Z", p)
        )
        assert np.max(np.abs(combo - killing_eval(params, "R", p))) < 1e-10
        checked += 1


def test_first_integrals_origin_values_exact():
    rng = np.random.default_rng(27)
    for _ in range(50):
        params = random_params(rng)
        u, v, w = rng.uniform(-2, 2, 3)
        vals = first_integrals(params, Point3(0, 0, 0), (u, v, w))
        assert vals[0] == v and vals[1] == u and vals[2] == w and vals[3] == 0.0


def test_first_integrals_match_pairing_oracle():
    rng = np.random.default_rng(29)
    for _ in range(300):
        params = random_params(rng)
        st = GeodesicState(random_point(params, rng), rng.normal(size=3) * rng.uniform(0.1, 3.0))
        oracle = killing_pairings(params, st)
        scale = max(float(np.max(np.abs(oracle))), 1.0)
        assert np.max(np.abs(first_integrals(params, st.point, st.velocity) - oracle)) <= 1e-12 * scale


def test_first_integrals_vertical_start():
    vals = first_integrals(MetricParams(1.7, -0.3), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert np.array_equal(vals, [0.0, 0.0, 1.0, 0.0])


def test_first_integrals_constant_along_trajectory():
    params = MetricParams(1.0, 0.5)
    traj = integrate_geodesic(params, state(0.8, -0.4, 0.6), 3.0, tol=1e-10)
    drift = np.max(np.abs(traj.integrals - traj.integrals[0]))
    assert drift < 1e-8


def test_containment_plane_product_case():
    cs = containment_surfaces(MetricParams(0.0, 0.5), (1.0, 2.0, 3.0))
    assert cs.kind == "plane"
    # v x - u y = 2 x - y
    assert cs.residual(Point3(1.0, 2.0, 7.0)) == pytest.approx(0.0, abs=1e-15)
    assert cs.residual(Point3(1.0, 0.0, 0.0)) == pytest.approx(2.0)


def test_containment_plane_w_zero_branch():
    cs = containment_surfaces(MetricParams(1.0, 0.3), (1.0, 0.0, 0.0))
    assert cs.kind == "plane"
    assert cs.residual(Point3(0.5, 0.0, 0.0)) == 0.0
    assert cs.residual(Point3(0.0, 1.0, 0.0)) == pytest.approx(-1.0)


def test_containment_cylinder_residual_along_geodesic():
    params = MetricParams(1.0, 0.0)
    v0 = (1.0, 0.0, 1.0)
    cs = containment_surfaces(params, v0)
    assert cs.kind == "cylinder"
    traj = integrate_geodesic(params, state(*v0), 2.0, tol=1e-10)
    assert cs.max_residual(traj.positions()) < 1e-8


def test_containment_origin_exact():
    cs = containment_surfaces(MetricParams(1.3, 0.4), (0.5, -0.2, 0.9))
    assert cs.residual(Point3(0, 0, 0)) == 0.0


def test_containment_profile_samples_radius_height():
    cs = containment_surfaces(MetricParams(1.0, 1.0), (1.0, 0.0, 1.0), t_span=1.0, n_profile=33)
    assert cs.profile.shape == (33, 1 + 1)
    assert np.all(cs.profile[:, 0] >= 0.0)
    assert cs.profile[0, 0] == 0.0 and cs.profile[0, 1] == 0.0


def test_containment_zero_velocity_rejected():
    with pytest.raises(ValueError):
        containment_surfaces(MetricParams(1.0, 1.0), (0.0, 0.0, 0.0))
