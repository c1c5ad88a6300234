import dataclasses
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from battery import nearest_radius_extremum
from oracles import embed, meridian_profile_ode_residual, second_fundamental_form_fd, surface_rhs_fd
import cvgeo.connection
import cvgeo.space
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
from cvgeo.space import DomainError, MetricParams, Point3, metric_tensor
from cvgeo.surfaces import (
    SurfaceGeodesicState,
    default_grid,
    first_fundamental_form,
    frobenius_scalar,
    meridian_is_geodesic,
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
        g=lambda u: 0.0, gp=lambda u: 0.0, gpp=lambda u: 0.0, u_domain=(0.0, 1.0),
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
        n, g = forms.normal, metric_tensor(params, point)
        assert math.sqrt(n @ g @ n) == pytest.approx(1.0, abs=1e-10)
        assert abs(n @ g @ jac[:, 0]) < 1e-10
        assert abs(n @ g @ jac[:, 1]) < 1e-10


def test_second_form_matches_fd_oracle():
    rng = RNG(33)
    for _ in range(10):
        params = random_params(rng)
        prof = random_profile(params, rng)
        for q in default_grid(prof):
            second = second_fundamental_form(params, prof, q).second
            assert second[0, 1] == second[1, 0]
            assert np.max(np.abs(second - second_fundamental_form_fd(params, prof, q))) < 1e-8


def test_second_form_reads_each_profile_function_once_per_call(monkeypatch):
    params = MetricParams(0.8, 0.3)
    prof = random_profile(params, RNG(11))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    names = ("f", "fp", "fpp", "g", "gp", "gpp")
    prof = dataclasses.replace(prof, **{name: counted(name, getattr(prof, name)) for name in names})
    # the forms are closed in u: no metric, no Christoffel table and no cross
    # product, through whichever cvgeo module binds them
    for fn in (cvgeo.space.metric_tensor, cvgeo.connection.christoffel):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "cvgeo" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted(fn.__name__, fn))
    monkeypatch.setattr(np, "cross", counted("cross", np.cross))
    second_fundamental_form(params, prof, (0.3, 1.1))
    assert calls == dict.fromkeys(names, 1)
    calls.clear()
    forms = second_fundamental_form(params, prof, default_grid(prof, 2, 8))
    assert forms.second.shape == (16, 2, 2)
    # one array call per function for the whole grid, g at the largest u
    assert calls == dict.fromkeys(names, 1)


def test_cylinder_forms_do_not_flip_around_the_parallel():
    # f' = 0, so omega^3 of the normal vanishes: it points outward at every v
    prof = cylinder(1.0)
    grid = default_grid(prof, 2, 8)
    forms = second_fundamental_form(MetricParams(0.5, 0.3), prof, grid)
    assert np.all(forms.second == forms.second[0])
    outward = forms.normal[:, 0] * np.cos(grid[:, 1]) + forms.normal[:, 1] * np.sin(grid[:, 1])
    assert np.all(outward > 0.0)


def test_second_form_keeps_height_unit_compatibility_check():
    # f' = 1 - u: the radicand 1 - f'^2 is negative on [lo, 0) only, so g'
    # and g'' are fine at u = 1 while the height quadrature is not
    prof = unit_speed_profile(
        lambda u: 2.0 + u - 0.5 * u * u, lambda u: 1.0 - u, lambda u: -1.0, 0.0, (-1.0, 1.5)
    )
    assert prof.gp(1.0) == 1.0
    with pytest.raises(ValueError, match="not unit-compatible"):
        second_fundamental_form(MetricParams(1.0, 0.0), prof, (1.0, 0.0))
    # a grid quadratures [lo, max u] once
    with pytest.raises(ValueError, match="not unit-compatible"):
        second_fundamental_form(MetricParams(1.0, 0.0), prof, [(0.5, 0.0), (1.0, 0.3)])


def test_grid_forms_raise_for_the_first_point_outside_the_disk():
    # f = u: the rows u = 1.1 and 1.3 leave the m = -1 disk f^2 < 1
    params, prof = MetricParams(0.5, -1.0), slice_profile(0.0, (0.2, 1.5))
    grid = [(0.5, 0.0), (1.1, 0.7), (0.6, 1.0), (1.3, 2.0)]
    with pytest.raises(DomainError) as one:
        second_fundamental_form(params, prof, grid[1])
    for form in (second_fundamental_form, first_fundamental_form):
        with pytest.raises(DomainError) as rows:
            form(params, prof, grid)
        assert str(rows.value) == str(one.value)


def test_grid_forms_reject_a_degenerate_jacobian():
    from cvgeo.profiles import RevolutionProfile

    # f' = g' = 0 at u >= 0.5 only
    kink = RevolutionProfile(
        f=lambda u: 1.0, fp=lambda u: 0.0, fpp=lambda u: 0.0, g=lambda u: 0.0,
        gp=lambda u: np.maximum(0.5 - u, 0.0), gpp=lambda u: 0.0, u_domain=(0.0, 1.0),
    )
    grid = [(0.2, 0.0), (0.7, 1.0)]
    assert second_fundamental_form(MetricParams(0, 0), kink, grid[0]).second.shape == (2, 2)
    for form in (second_fundamental_form, first_fundamental_form):
        with pytest.raises(ValueError, match="degenerate surface Jacobian"):
            form(MetricParams(0, 0), kink, grid)


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


def test_meridian_criterion_steep_profile():
    # f' exceeds the conformal factor, so no unit-speed reparametrisation
    # exists; the criterion reads (E, F, G) and needs none: with g' = 0,
    # F = 0 and every meridian is a geodesic
    from cvgeo.profiles import RevolutionProfile

    steep = RevolutionProfile(
        f=lambda u: 3.0 * u, fp=lambda u: 3.0, fpp=lambda u: 0.0,
        g=lambda u: 0.0, gp=lambda u: 0.0, gpp=lambda u: 0.0, u_domain=(0.2, 1.0),
    )
    params = MetricParams(1.0, 0.0)
    assert meridian_is_geodesic(params, steep) == (True, 0.0)
    traj = surface_geodesic_integrate(params, steep, SurfaceGeodesicState(0.3, 0.7, 1.0, 0.0), 0.5)
    assert len(traj.ts) > 2
    assert np.max(np.abs(traj.states[:, 1] - 0.7)) < 1e-10


def test_meridian_criterion_reparametrised_cylinder():
    # g = u + 0.3 u^2: E = g'^2 varies and F is proportional to g', so
    # F / sqrt(E) is constant and the meridians stay geodesics
    from cvgeo.profiles import RevolutionProfile

    prof = RevolutionProfile(
        f=lambda u: 0.8, fp=lambda u: 0.0, fpp=lambda u: 0.0,
        g=lambda u: u + 0.3 * u * u, gp=lambda u: 1.0 + 0.6 * u, gpp=lambda u: 0.6, u_domain=(0.0, 2.0),
    )
    params = MetricParams(1.3, -0.4)
    ok, dev = meridian_is_geodesic(params, prof)
    assert ok and dev < 1e-14
    traj = surface_geodesic_integrate(params, prof, SurfaceGeodesicState(0.5, 0.7, 0.4, 0.0), 2.0)
    assert len(traj.ts) > 2
    assert np.max(np.abs(traj.states[:, 1] - 0.7)) < 1e-10


def test_unit_speed_profile_rejects_steep_radius():
    with pytest.raises(ValueError):
        prof = unit_speed_profile(
            lambda u: 3.0 * u, lambda u: 3.0, lambda u: 0.0, 0.0, (0.2, 1.0)
        )
        prof.gp(0.5)


def test_unit_speed_gpp_matches_central_difference():
    rng = RNG(42)
    for _ in range(20):
        params = random_params(rng)
        prof = random_profile(params, rng)
        lo, hi = prof.u_domain
        for u in np.linspace(lo + 1e-3, hi - 1e-3, 9):
            u, h = float(u), 1e-5
            central = (prof.gp(u + h) - prof.gp(u - h)) / (2.0 * h)
            assert abs(prof.gpp(u) - central) < 1e-9


def test_unit_speed_gpp_rejects_vanishing_radicand():
    # f' = 1 = 1 + m f^2 at m = 0: g' = 0 and g'' is singular
    prof = unit_speed_profile(lambda u: u, lambda u: 1.0, lambda u: 0.0, 0.0, (0.2, 1.0))
    assert prof.gp(0.5) == 0.0
    with pytest.raises(ValueError, match="singular"):
        prof.gpp(0.5)


def test_height_quadrature_matches_float64_reference():
    # the rule calls g' once, on the nodes of every panel; the reference
    # calls it on one float node at a time (math, not numpy) and sums as the
    # rule does: each panel's weighted values by np.sum, then the panels
    nodes, weights = np.polynomial.legendre.leggauss(24)

    def reference(fn, a, b):
        edges = np.linspace(a, b, max(1, math.ceil(abs(b - a) / 1.5)) + 1).tolist()
        panels = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
            values = np.array([fn(mid + half * x) for x in nodes.tolist()])
            panels.append(half * np.sum(values * weights))
        return float(np.sum(panels))

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


# m = 0 and |m| log-swept from 1e-12 to 2, either sign
SWEPT_M = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
              st.floats(-12.0, math.log10(2.0))),
)


def _cli_profiles(m):
    """The five profile kinds of `cvgeo surface` inside the m < 0 disk; tan
    for m > 0 and tanh for m < 0 only, unshifted so that f -> u as m -> 0."""
    r = 1.0 if m >= -1.0 else 1.0 / math.sqrt(-m)
    profs = [cylinder(0.6 * r), cone(0.5, (0.2 * r, 0.9 * r)), slice_profile(0.0, (0.2 * r, 0.9 * r))]
    if m > 0.0:
        profs.append(tan_profile(m, 0.0))
    elif m < 0.0:
        profs.append(tanh_profile(m, 0.0))
    return profs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(l=st.floats(-2.0, 2.0), m=SWEPT_M, seed=st.integers(0, 2**32 - 1))
def test_surface_rhs_matches_fd_oracle(l, m, seed):
    # the oracle's rounding error is ~1e-16 E/1e-6 on each coefficient
    # derivative, so the bounds are relative to the size of the rhs and of G'
    params = MetricParams(l, m)
    rng = RNG(seed)
    h = 1e-6
    for prof in [random_profile(params, rng), *_cli_profiles(m)]:
        lo, hi = prof.u_domain
        for u in np.linspace(lo + 1e-3, hi - 1e-3, 9).tolist():
            y4 = (u, 0.3, float(rng.uniform(-1, 1)), float(rng.uniform(-1.5, 1.5)))
            exact = cvgeo.surfaces._surface_rhs(params, prof, y4)
            scale = max(1.0, np.max(np.abs(exact)))
            assert np.max(np.abs(exact - surface_rhs_fd(params, prof, y4))) < 1e-7 * scale
            _, residual = parallel_is_geodesic(params, prof, u)
            g_hi = reference_form_coefficients(params, prof, u + h)[2]
            g_lo = reference_form_coefficients(params, prof, u - h)[2]
            assert abs(residual - (g_hi - g_lo) / (2.0 * h)) < 1e-7 * max(1.0, abs(residual))


@pytest.mark.parametrize("errstate", [{}, {"over": "raise"}])
@pytest.mark.parametrize("y4", [
    [1.0, 0.0, 1e200, 0.5],  # u'^2 overflows
    [1.0, 0.0, 0.5, 1e200],  # v'^2 overflows
    [1.0, 0.0, 1e160, 1e160],  # u' v' overflows
])
def test_surface_rhs_overflow_raises(errstate, y4):
    # the state is Python floats, which errstate does not watch
    prof = cone(0.5, (0.2, 2.0))
    with np.errstate(**errstate), pytest.raises(FloatingPointError, match="overflow encountered in the surface rhs"):
        cvgeo.surfaces._surface_rhs(MetricParams(1.0, 0.5), prof, y4)


def test_surface_geodesics_match_fd_oracle_rhs(monkeypatch, bench_workloads):
    # the 100 surface geodesics of the benchmark's surface_audit workload, seed 1
    cycles = bench_workloads.surface_cycles(1)
    cases = []
    for _ in range(100):
        (inp,) = next(cycles)
        params = MetricParams(inp.l, inp.m)
        cases.append((params, random_profile(params, RNG(inp.profile_seed)), SurfaceGeodesicState(*inp.s0)))
    runs = [surface_geodesic_integrate(*case, 5.0, samples=201) for case in cases]
    monkeypatch.setattr(cvgeo.surfaces, "_surface_rhs", surface_rhs_fd)
    for run, case in zip(runs, cases):
        oracle = surface_geodesic_integrate(*case, 5.0, samples=201)
        assert run.exit_reason == oracle.exit_reason
        assert np.max(np.abs(run.states[-1] - oracle.states[-1])) < 1e-7


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


def test_surface_geodesic_rejects_a_start_outside_the_profile_domain():
    with pytest.raises(ValueError, match=r"u0 = 2\.5 outside the profile domain \[-2\.0, 2\.0\]"):
        surface_geodesic_integrate(
            MetricParams(1.0, 0.3), cylinder(1.0), SurfaceGeodesicState(2.5, 0.0, 0.3, 0.5), 1.0,
        )


@pytest.mark.parametrize("samples", [1, 0])
def test_surface_geodesic_rejects_fewer_than_two_samples(samples):
    # as integrate_geodesic does: one sample would be the t = 0 row alone
    with pytest.raises(ValueError, match="samples must be at least 2"):
        surface_geodesic_integrate(
            MetricParams(1.0, 0.3), cylinder(1.0), SurfaceGeodesicState(0.0, 0.0, 0.3, 0.5), 1.0,
            samples=samples,
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
