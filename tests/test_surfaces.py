import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from battery import nearest_radius_extremum
import cvgeo.surfaces
from cvgeo.audits import random_params, run_suite
from cvgeo.connection import GeodesicState, integrate_geodesic
from cvgeo.profiles import (
    cone,
    cylinder,
    random_profile,
    slice_profile,
    tan_profile,
    tanh_profile,
    unit_speed_profile,
    validate_profile,
)
from cvgeo.space import DomainError, MetricParams, Point3, metric_dot, metric_norm
from cvgeo.surfaces import (
    SurfaceGeodesicState,
    default_grid,
    embed,
    first_fundamental_form,
    frobenius_scalar,
    meridian_is_geodesic,
    meridian_profile_ode_residual,
    parallel_geodesic_radii,
    parallel_is_geodesic,
    reference_form_coefficients,
    second_fundamental_form,
    surface_geodesic_integrate,
    totally_geodesic_defect,
    umbilic_defect,
)

RNG = np.random.default_rng


# ------------------------------------------------------------------- embed

def test_embed_cylinder_point_and_tangents():
    prof = cylinder(2.0)
    point, jac = embed(prof, (0.0, 0.0))
    assert np.allclose(point, [2.0, 0.0, 0.0])
    assert np.allclose(jac[:, 0], [0.0, 0.0, 1.0])
    assert np.allclose(jac[:, 1], [0.0, 2.0, 0.0])


def test_embed_rotational_tangent_is_horizontal():
    prof = random_profile(MetricParams(1.0, 0.5), RNG(30))
    for u, v in ((0.0, 0.3), (1.0, 2.0), (-0.5, 4.4)):
        _, jac = embed(prof, (u, v))
        assert jac[2, 1] == 0.0


def test_embed_slice_quarter_turn():
    point, _ = embed(slice_profile(0.0, (0.2, 2.0)), (1.0, math.pi / 2))
    assert np.allclose(point, [0.0, 1.0, 0.0], atol=1e-15)


# ----------------------------------------------------- first fundamental form

def test_first_form_euclidean_cylinder():
    form = first_fundamental_form(MetricParams(0, 0), cylinder(1.5), (0.3, 1.0))
    assert np.allclose(form, np.diag([1.0, 2.25]), atol=1e-15)


def test_first_form_twisted_cylinder():
    form = first_fundamental_form(MetricParams(2, 0), cylinder(1.0), (0.1, 0.7))
    assert form[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert form[0, 1] == pytest.approx(-1.0, abs=1e-14)
    assert form[1, 1] == pytest.approx(2.0, abs=1e-14)


def test_first_form_euclidean_cone():
    k = 0.5
    form = first_fundamental_form(MetricParams(0, 0), cone(k), (0.8, 0.3))
    assert form[0, 0] == pytest.approx(1 + k * k, abs=1e-14)
    assert form[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert form[1, 1] == pytest.approx(0.64, abs=1e-14)


def test_first_form_degenerate_jacobian_rejected():
    from cvgeo.profiles import RevolutionProfile

    flat = RevolutionProfile(
        f=lambda u: 1.0, fp=lambda u: 0.0, fpp=lambda u: 0.0,
        g=lambda u: 0.0, gp=lambda u: 0.0, u_domain=(0.0, 1.0),
    )
    with pytest.raises(ValueError):
        first_fundamental_form(MetricParams(0, 0), flat, (0.5, 0.2))


def test_first_form_matches_reference_coefficients():
    rng = RNG(31)
    for _ in range(50):
        params = random_params(rng)
        prof = random_profile(params, rng)
        u = float(rng.uniform(*prof.u_domain))
        v = float(rng.uniform(0, 2 * math.pi))
        form = first_fundamental_form(params, prof, (u, v))
        e, f, g = reference_form_coefficients(params, prof, u)
        assert abs(form[0, 0] - e) < 1e-10
        assert abs(form[0, 1] - f) < 1e-10
        assert abs(form[1, 1] - g) < 1e-10


# ---------------------------------------------------- second fundamental form

def test_normal_is_metric_unit_and_orthogonal():
    rng = RNG(32)
    for _ in range(20):
        params = random_params(rng)
        prof = random_profile(params, rng)
        u = float(rng.uniform(*prof.u_domain))
        v = float(rng.uniform(0, 2 * math.pi))
        forms = second_fundamental_form(params, prof, (u, v))
        point, jac = embed(prof, (u, v))
        assert metric_norm(params, point, forms.normal) == pytest.approx(1.0, abs=1e-10)
        assert abs(metric_dot(params, point, forms.normal, jac[:, 0])) < 1e-10
        assert abs(metric_dot(params, point, forms.normal, jac[:, 1])) < 1e-10


def test_second_form_symmetric():
    rng = RNG(33)
    for _ in range(20):
        params = random_params(rng)
        prof = random_profile(params, rng)
        u = float(rng.uniform(*prof.u_domain))
        v = float(rng.uniform(0, 2 * math.pi))
        forms = second_fundamental_form(params, prof, (u, v))
        assert forms.second_asymmetry < 1e-8


def test_second_form_embeds_and_builds_metric_once(monkeypatch):
    params = MetricParams(0.8, 0.3)
    prof = random_profile(params, RNG(11))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    prof = dataclasses.replace(prof, g=counted("g", prof.g))
    monkeypatch.setattr(cvgeo.surfaces, "metric_tensor", counted("metric_tensor", cvgeo.surfaces.metric_tensor))
    second_fundamental_form(params, prof, (0.3, 1.1))
    assert calls == {"g": 1, "metric_tensor": 1}


def test_second_form_keeps_height_unit_compatibility_check():
    # f' = 1 - u: the radicand 1 - f'^2 is negative on [lo, 0) only, so g'
    # is fine at u = 1 and its stencil while the height quadrature is not
    prof = unit_speed_profile(
        lambda u: 2.0 + u - 0.5 * u * u, lambda u: 1.0 - u, lambda u: -1.0, 0.0, (-1.0, 1.5)
    )
    assert prof.gp(1.0) == 1.0
    with pytest.raises(ValueError, match="not unit-compatible"):
        second_fundamental_form(MetricParams(1.0, 0.0), prof, (1.0, 0.0))


def test_product_slice_is_totally_geodesic():
    params = MetricParams(0.0, 1.0)
    prof = slice_profile(0.0, (0.2, 1.8))
    assert totally_geodesic_defect(params, prof, default_grid(prof)) < 1e-7


def test_product_equator_cylinder_is_totally_geodesic():
    # the vertical cylinder over the factor geodesic circle rho = 1/sqrt(m)
    m = 1.3
    params = MetricParams(0.0, m)
    prof = cylinder(1.0 / math.sqrt(m), (-1.0, 1.0))
    assert totally_geodesic_defect(params, prof, default_grid(prof)) < 1e-7


def test_product_non_geodesic_cylinder_has_defect():
    params = MetricParams(0.0, 1.0)
    prof = cylinder(0.6, (-1.0, 1.0))
    assert totally_geodesic_defect(params, prof, default_grid(prof, 4, 4)) > 1e-3


def test_heisenberg_plane_is_not_totally_geodesic():
    params = MetricParams(1.0, 0.0)
    prof = slice_profile(0.0, (0.2, 1.8))
    assert totally_geodesic_defect(params, prof, default_grid(prof)) > 0.1


def test_euclidean_cylinder_second_form_principal_value():
    # principal curvatures 0 and 1/a against the inward-pointing data
    a = 1.5
    params = MetricParams(0.0, 0.0)
    forms = second_fundamental_form(params, cylinder(a, (-1, 1)), (0.2, 0.8))
    shape_eigs = np.sort(np.abs(np.linalg.eigvals(np.linalg.inv(forms.first) @ forms.second)))
    assert shape_eigs[0] == pytest.approx(0.0, abs=1e-9)
    assert shape_eigs[1] == pytest.approx(1.0 / a, abs=1e-9)


def test_umbilic_defect_values():
    params = MetricParams(0.0, 1.0)
    sl = slice_profile(0.0, (0.2, 1.8))
    assert umbilic_defect(params, sl, default_grid(sl)) < 1e-7
    euc = MetricParams(0.0, 0.0)
    cy = cylinder(1.0, (-1, 1))
    assert umbilic_defect(euc, cy, default_grid(cy, 4, 4)) > 1e-3
    heis = MetricParams(1.0, 0.0)
    assert umbilic_defect(heis, sl, default_grid(sl, 4, 4)) > 1e-3


# ------------------------------------------------------------------ frobenius

def test_frobenius_zero_for_products():
    assert abs(frobenius_scalar(MetricParams(0.0, 1.0))) < 1e-8
    assert abs(frobenius_scalar(MetricParams(0.0, -0.5))) < 1e-8


def test_frobenius_recovers_twist():
    assert frobenius_scalar(MetricParams(3.0, 0.5)) == pytest.approx(3.0, abs=1e-8)
    assert frobenius_scalar(MetricParams(-1.2, -0.8)) == pytest.approx(-1.2, abs=1e-8)


def test_frobenius_point_independent():
    params = MetricParams(1.7, 0.9)
    a = frobenius_scalar(params, (0.3, -0.2, 0.5))
    b = frobenius_scalar(params, (-0.8, 0.6, -1.0))
    assert abs(a - b) < 1e-8


# ----------------------------------------------------------- geodesic criteria

def test_parallel_criterion_flat_radius():
    # f' = 0 always qualifies
    ok, res = parallel_is_geodesic(MetricParams(1.0, 1.0), cylinder(2.0), 0.4)
    assert ok and res == 0.0


def test_parallel_criterion_product_equator():
    params = MetricParams(0.0, 1.0)
    prof = slice_profile(0.0, (0.2, 1.8))
    ok, _ = parallel_is_geodesic(params, prof, 1.0)
    assert ok
    ok2, res2 = parallel_is_geodesic(params, prof, 0.7)
    assert not ok2 and abs(res2) > 1e-3


def test_parallel_criterion_su2_special_radius():
    # 2 m - l^2 = 1 at l = 1, m = 1: critical radius sqrt 2 with f' != 0
    params = MetricParams(1.0, 1.0)
    prof = slice_profile(0.0, (0.2, 1.8))
    ok, _ = parallel_is_geodesic(params, prof, math.sqrt(2.0))
    assert ok


def test_parallel_geodesic_radii_product_equator():
    # l = 0, m = 1 slice: the equator u = 1 is the only geodesic parallel
    roots = parallel_geodesic_radii(MetricParams(0.0, 1.0), slice_profile(0.0, (0.2, 1.8)), 33)
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) < 1e-9


def test_meridian_criterion_product_always():
    rng = RNG(34)
    for m in (0.5, -0.5, 0.0):
        params = MetricParams(0.0, m)
        ok, dev = meridian_is_geodesic(params, random_profile(params, rng))
        assert ok and dev == 0.0


def test_meridian_criterion_cylinders_always():
    ok, dev = meridian_is_geodesic(MetricParams(1.3, 0.8), cylinder(1.1))
    assert ok and dev == 0.0


def test_meridian_criterion_tan_tanh_profiles():
    ok, _ = meridian_is_geodesic(MetricParams(1.0, 1.0), tan_profile(1.0, 0.3, (0.05, 0.9)))
    assert ok
    ok2, _ = meridian_is_geodesic(MetricParams(1.0, -1.0), tanh_profile(-1.0, 0.5, (0.1, 1.5)))
    assert ok2


def test_meridian_criterion_generic_fails():
    params = MetricParams(1.0, 0.5)
    prof = random_profile(params, RNG(35))
    ok, dev = meridian_is_geodesic(params, prof)
    assert not ok and dev > 1e-4


def test_meridian_negative_radicand_rejected():
    # f' exceeds the conformal factor: not unit-compatible
    from cvgeo.profiles import RevolutionProfile

    steep = RevolutionProfile(
        f=lambda u: 3.0 * u, fp=lambda u: 3.0, fpp=lambda u: 0.0,
        g=lambda u: 0.0, gp=lambda u: 0.0, u_domain=(0.2, 1.0),
    )
    with pytest.raises(ValueError):
        meridian_is_geodesic(MetricParams(1.0, 0.0), steep)


def test_unit_speed_profile_rejects_steep_radius():
    with pytest.raises(ValueError):
        prof = unit_speed_profile(
            lambda u: 3.0 * u, lambda u: 3.0, lambda u: 0.0, 0.0, (0.2, 1.0)
        )
        prof.gp(0.5)


def test_height_quadrature_matches_float64_reference():
    # the rule runs on Python floats: the same IEEE operations, in the same
    # order, as the composite rule on np.float64 nodes, weights and edges
    nodes, weights = np.polynomial.legendre.leggauss(24)

    def reference(fn, a, b):
        edges = np.linspace(a, b, max(1, math.ceil(abs(b - a) / 1.5)) + 1)
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
            total += half * float(sum(w * fn(mid + half * x) for x, w in zip(nodes, weights)))
        return total

    params = MetricParams(0.7, 0.4)
    prof = random_profile(params, RNG(3))
    lo, hi = prof.u_domain
    for u in np.linspace(lo + 0.1, hi, 7):
        assert prof.g(float(u)) == reference(prof.gp, lo, float(u))


def test_meridian_ode_residual_solutions():
    # constants solve it trivially; f(u) = u solves it for m = 0;
    # tan and tanh profiles solve it for m = +-1
    assert meridian_profile_ode_residual(MetricParams(1, 0.7), cylinder(1.4), 0.3) == 0.0
    assert meridian_profile_ode_residual(MetricParams(1, 0.0), slice_profile(0, (0.2, 2)), 0.8) == 0.0
    for u in (0.4, 0.9, 1.2):
        r = meridian_profile_ode_residual(MetricParams(1, 1.0), tan_profile(1.0, 0.0, (0.3, 1.3)), u)
        assert abs(r) < 1e-8
        r2 = meridian_profile_ode_residual(MetricParams(1, -1.0), tanh_profile(-1.0, 0.4, (0.2, 1.4)), u)
        assert abs(r2) < 1e-8


def test_meridian_ode_residual_nonsolution():
    # f(u) = u for m != 0 is not a solution
    r = meridian_profile_ode_residual(MetricParams(1, 1.0), slice_profile(0, (0.2, 2)), 0.8)
    assert abs(r) > 1e-3


# ------------------------------------------------------------ surface geodesics

def test_meridian_start_keeps_v_constant_for_products():
    params = MetricParams(0.0, 0.7)
    prof = random_profile(params, RNG(36), u_domain=(-6.0, 6.0))
    traj = surface_geodesic_integrate(params, prof, SurfaceGeodesicState(0.0, 1.0, 1.0, 0.0), 4.0)
    assert np.max(np.abs(traj.states[:, 1] - 1.0)) < 1e-10


def test_cylinder_geodesics_are_helices():
    params = MetricParams(1.0, 0.5)
    prof = cylinder(1.2, (-8.0, 8.0))
    traj = surface_geodesic_integrate(params, prof, SurfaceGeodesicState(0.0, 0.0, 0.6, 0.4), 10.0)
    a = prof.args["a"]
    cu = np.polyfit(traj.ts, traj.states[:, 0], 1)
    cv = np.polyfit(traj.ts, traj.states[:, 1], 1)
    u_fit = np.polyval(cu, traj.ts)
    v_fit = np.polyval(cv, traj.ts)
    ambient = np.stack([a * np.cos(v_fit), a * np.sin(v_fit), u_fit], axis=-1)
    actual = np.stack(
        [a * np.cos(traj.states[:, 1]), a * np.sin(traj.states[:, 1]), traj.states[:, 0]], axis=-1
    )
    assert np.max(np.abs(ambient - actual)) < 1e-6


def test_surface_momentum_and_speed_conserved():
    rng = RNG(37)
    for _ in range(5):
        params = random_params(rng)
        prof = random_profile(params, rng, u_domain=(-8.0, 8.0))
        s0 = SurfaceGeodesicState(0.3, 0.5, float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        traj = surface_geodesic_integrate(params, prof, s0, 6.0, tol=1e-9)
        assert np.max(np.abs(traj.momenta - traj.momenta[0])) < 1e-8
        assert np.max(np.abs(traj.speeds - traj.speeds[0])) < 1e-8


def test_parallel_criterion_duality_true_and_false():
    params = MetricParams(1.0, 0.5)
    rng = RNG(38)
    prof = random_profile(params, rng, u_domain=(-13.0, 13.0))
    u_star = nearest_radius_extremum(prof)
    ok, _ = parallel_is_geodesic(params, prof, u_star)
    assert ok
    form = first_fundamental_form(params, prof, (u_star, 0.0))
    traj = surface_geodesic_integrate(
        params, prof, SurfaceGeodesicState(u_star, 0.0, 0.0, 1.0 / math.sqrt(form[1, 1])), 10.0
    )
    assert np.max(np.abs(traj.states[:, 0] - u_star)) < 1e-6

    u_bad = u_star + 0.5
    ok_bad, res_bad = parallel_is_geodesic(params, prof, u_bad)
    assert not ok_bad and abs(res_bad) > 1e-4
    form_bad = first_fundamental_form(params, prof, (u_bad, 0.0))
    traj_bad = surface_geodesic_integrate(
        params, prof, SurfaceGeodesicState(u_bad, 0.0, 0.0, 1.0 / math.sqrt(form_bad[1, 1])), 10.0
    )
    assert np.max(np.abs(traj_bad.states[:, 0] - u_bad)) > 1e-6


def test_meridian_criterion_duality():
    params = MetricParams(1.2, 0.4)
    prof = random_profile(params, RNG(39), u_domain=(-13.0, 13.0))
    ok, dev = meridian_is_geodesic(params, prof)
    assert not ok and dev > 1e-4
    traj = surface_geodesic_integrate(params, prof, SurfaceGeodesicState(0.0, 0.7, 1.0, 0.0), 10.0)
    assert np.max(np.abs(traj.states[:, 1] - 0.7)) > 1e-6

    params0 = MetricParams(0.0, 0.4)
    prof0 = random_profile(params0, RNG(40), u_domain=(-13.0, 13.0))
    ok0, _ = meridian_is_geodesic(params0, prof0)
    assert ok0
    traj0 = surface_geodesic_integrate(params0, prof0, SurfaceGeodesicState(0.0, 0.7, 1.0, 0.0), 10.0)
    assert np.max(np.abs(traj0.states[:, 1] - 0.7)) < 1e-6


def test_surface_geodesic_exits_domain_partially():
    params = MetricParams(1.0, 0.3)
    prof = cylinder(1.0, (-1.0, 1.0))
    traj = surface_geodesic_integrate(params, prof, SurfaceGeodesicState(0.0, 0.0, 1.0, 0.0), 5.0)
    assert not traj.complete
    assert traj.states[-1, 0] <= 1.0


def test_surface_geodesic_rejects_radius_outside_disk():
    # f(1.2) = 1.2 lies outside the m = -1 disk f^2 < 1
    with pytest.raises(DomainError):
        surface_geodesic_integrate(
            MetricParams(0.5, -1.0), slice_profile(0.0, (0.2, 1.5)),
            SurfaceGeodesicState(1.2, 0.0, 0.3, 0.5), 1.0,
        )


@pytest.mark.parametrize("seed", [182626098, 1754699702, 329634437])
def test_surfaces_audit_small_negative_m(seed):
    # these seeds draw m in (-0.0178, 0), where an uncapped random_profile
    # baseline made the unit-speed radicand negative
    records = run_suite("surfaces", seed, 12)
    assert all(rec["status"] == "pass" for rec in records)


def test_slice_surface_geodesics_match_ambient():
    # totally geodesic slice: induced geodesics are ambient geodesics
    params = MetricParams(0.0, 1.0)
    prof = slice_profile(0.0, (0.2, 1.8))
    u0, v0, du, dv = 1.0, 0.4, 0.3, 0.9
    straj = surface_geodesic_integrate(params, prof, SurfaceGeodesicState(u0, v0, du, dv), 1.2, tol=1e-10)
    point, jac = embed(prof, (u0, v0))
    vel = jac @ np.array([du, dv])
    atraj = integrate_geodesic(params, GeodesicState(Point3(*point), vel), 1.2, tol=1e-10)
    ambient_end = atraj.positions()[-1]
    s_end = straj.states[-1]
    surf_end, _ = embed(prof, (s_end[0], s_end[1]))
    assert straj.complete and atraj.complete
    assert np.max(np.abs(surf_end - ambient_end)) < 1e-6


def test_validate_profile_domain_checks():
    with pytest.raises(ValueError):
        validate_profile(MetricParams(0, -1.0), cylinder(2.0))
    validate_profile(MetricParams(0, -1.0), cylinder(0.5))
