"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured
residuals; the test names state the criterion.  The closed-form battery
(60 cases over all six geodesic families) is shared through the
session-scoped `battery_results` fixture.
"""

import itertools
import math
from pathlib import Path

import numpy as np

from battery import nearest_radius_extremum
from cvgeo.audits import random_params, random_point
from cvgeo.closed_forms import CaseKind
from cvgeo.connection import (
    GeodesicState,
    curvature_tensor,
    frame_sectional,
    sectional_curvature,
)
from cvgeo.profiles import (
    RevolutionProfile,
    cone,
    cylinder,
    random_profile,
    slice_profile,
    tan_profile,
    tanh_profile,
)
from cvgeo.space import MetricParams, Point3
from cvgeo.surfaces import (
    SurfaceGeodesicState,
    default_grid,
    first_fundamental_form,
    frobenius_scalar,
    meridian_is_geodesic,
    parallel_is_geodesic,
    reference_form_coefficients,
    surface_geodesic_integrate,
    totally_geodesic_defect,
    umbilic_defect,
)
from cvgeo.symmetry import KILLING_NAMES, first_integrals, killing_defect


def verdict(name, ok, detail):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------------------- criterion 1

def test_criterion_01_closed_form_vs_oracle(battery_results):
    # on the accepted knots and on 401 dense-output samples per case
    worst = max(r["deviation"] for r in battery_results)
    worst_dense = max(r["dense_deviation"] for r in battery_results)
    kinds = {r["case"].kind for r in battery_results}
    assert kinds == set(CaseKind)
    assert len(battery_results) == 60
    verdict(
        "C1 closed form vs oracle, 60 cases",
        worst < 1e-6 and worst_dense < 1e-6,
        f"sup dev {worst:.3e} on knots, {worst_dense:.3e} on dense samples < 1e-6",
    )


# --------------------------------------------------------------- criterion 2

def test_criterion_02_first_integral_conservation(battery_results):
    worst_i = max(r["integral_drift"] for r in battery_results)
    worst_s = max(r["speed_drift"] for r in battery_results)
    ok = worst_i < 1e-8 and worst_s < 1e-8
    verdict(
        "C2 first-integral and speed conservation",
        ok,
        f"integral drift {worst_i:.3e}, speed drift {worst_s:.3e} < 1e-8 rel",
    )


# --------------------------------------------------------------- criterion 3

def test_criterion_03_origin_integral_values():
    rng = np.random.default_rng(100)
    exact = True
    for _ in range(50):
        params = random_params(rng)
        u, v, w = (float(c) for c in rng.uniform(-2, 2, 3))
        vals = first_integrals(params, GeodesicState(Point3(0, 0, 0), np.array([u, v, w])))
        exact = exact and vals[0] == v and vals[1] == u and vals[2] == w and vals[3] == 0.0
    verdict("C3 origin first integrals equal (v, u, w, 0)", exact, "exact equality, 50 random velocities")


# --------------------------------------------------------------- criterion 4

def test_criterion_04_containment(battery_results):
    worst_cyl = 0.0
    worst_plane = 0.0
    for r in battery_results:
        case = r["case"]
        if case.l != 0.0 and case.v0[2] != 0.0:
            worst_cyl = max(worst_cyl, r["containment"])
        else:
            worst_plane = max(worst_plane, r["containment"])
    ok = worst_cyl < 1e-8 and worst_plane < 1e-8
    verdict(
        "C4 containment surfaces along all 60 trajectories",
        ok,
        f"cylinder residual {worst_cyl:.3e}, plane residual {worst_plane:.3e} < 1e-8",
    )


# --------------------------------------------------------------- criterion 5

def test_criterion_05_killing_defects():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        params = random_params(rng)
        for _ in range(100):
            p = random_point(params, rng)
            for name in KILLING_NAMES:
                worst = max(worst, killing_defect(params, name, p))
    verdict("C5 Killing defects, 10 params x 100 points x 4 fields", worst < 1e-8, f"max defect {worst:.3e} < 1e-8")


# --------------------------------------------------------------- criterion 6

def test_criterion_06_curvature():
    rng = np.random.default_rng(102)
    worst_prod = 0.0
    for _ in range(100):
        m = float(rng.uniform(-2, 2))
        params = MetricParams(0.0, m)
        p = random_point(params, rng)
        k12, k13 = frame_sectional(params, p)
        worst_prod = max(worst_prod, abs(k12 - 4 * m), abs(k13))

    spread_raw = 0.0
    for l in (1.0, 2.0):
        params = MetricParams(l, 0.25 * l * l)
        ks = []
        for _ in range(50):
            p = random_point(params, rng)
            ks.append(sectional_curvature(params, p, rng.standard_normal(3), rng.standard_normal(3)))
        spread_raw = max(spread_raw, max(ks) - min(ks))

    flat = MetricParams(0.0, 0.0)
    worst_flat = 0.0
    for _ in range(10):
        p = random_point(flat, rng)
        worst_flat = max(worst_flat, float(np.max(np.abs(curvature_tensor(flat, p)))))

    ok = worst_prod < 1e-8 and spread_raw < 1e-8 and worst_flat < 1e-9
    verdict(
        "C6 curvature identities",
        ok,
        f"product K - 4m {worst_prod:.3e} < 1e-8; const-curvature spread {spread_raw:.3e} < 1e-8; "
        f"flat components {worst_flat:.3e} < 1e-9",
    )


# --------------------------------------------------------------- criterion 7

def test_criterion_07_frobenius():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        params = random_params(rng)
        p = random_point(params, rng)
        worst = max(worst, abs(frobenius_scalar(params, (p.x, p.y, p.z)) - params.l))
    verdict("C7 Frobenius scalar equals twist parameter", worst < 1e-8, f"max |scalar - l| {worst:.3e} < 1e-8")


# --------------------------------------------------------------- criterion 8

def test_criterion_08_totally_geodesic_classification():
    geodesic_group = [
        (MetricParams(0.0, 1.0), slice_profile(0.0, (0.2, 1.8)), "slice in S2xR"),
        (MetricParams(0.0, -1.0), slice_profile(0.0, (0.1, 0.8)), "slice in H2xR"),
        (MetricParams(0.0, 1.3), cylinder(1.0 / math.sqrt(1.3), (-1.0, 1.0)), "equator cylinder in S2xR"),
        (MetricParams(2.0, 1.0), slice_profile(0.0, (0.2, 1.8)), "slice in the round sphere, l = 2"),
        (MetricParams(1.0, 0.25), slice_profile(0.0, (0.2, 1.8)), "slice in the round sphere, l = 1"),
    ]
    worst_good = 0.0
    for params, prof, _ in geodesic_group:
        worst_good = max(worst_good, totally_geodesic_defect(params, prof, default_grid(prof)))

    curved_group = [
        (MetricParams(1.0, 0.0), slice_profile(0.0, (0.2, 1.8)), "plane in Heisenberg"),
        (MetricParams(1.0, 1.0), slice_profile(0.0, (0.2, 1.5)), "slice in SU2"),
        (MetricParams(1.0, -1.0), slice_profile(0.0, (0.1, 0.8)), "slice in SL2R"),
    ]
    least_bad = math.inf
    for params, prof, _ in curved_group:
        least_bad = min(least_bad, totally_geodesic_defect(params, prof, default_grid(prof, 6, 6)))

    # for l != 0 a z-slice is totally geodesic iff 4m = l^2 (Souam-Toubiana)
    ok = worst_good < 1e-7 and least_bad > 1e-3
    verdict(
        "C8 totally geodesic classification",
        ok,
        f"product and round-sphere (4m = l^2) surfaces defect {worst_good:.3e} < 1e-7; "
        f"witnesses with l != 0 and 4m != l^2 {least_bad:.3e} > 1e-3",
    )


# --------------------------------------------------------------- criterion 9

def _umbilic_sphere(m, c):
    """Rotational umbilic surface of S^2 x R (l = 0, m > 0), for c < 2 sqrt(m):
    f = tan(sqrt(m) u) / sqrt(m), so u is arc length from the pole of the
    S^2 factor and sn = sin(2 sqrt(m) u) / (2 sqrt(m)) the radius of its
    parallel, and g' = c sn / sqrt(1 - c^2 sn^2), whose integral is
    g = -asinh(c cos(2 sqrt(m) u) / sqrt(4m - c^2)) / (2 sqrt(m))."""
    sm = math.sqrt(m)
    k = 2.0 * sm

    def sn(u):
        return np.sin(k * u) / k

    return RevolutionProfile(
        f=lambda u: np.tan(sm * u) / sm,
        fp=lambda u: 1.0 / np.cos(sm * u) ** 2,
        fpp=lambda u: 2.0 * sm * np.tan(sm * u) / np.cos(sm * u) ** 2,
        g=lambda u: -np.arcsinh(c * np.cos(k * u) / math.sqrt(k * k - c * c)) / k,
        gp=lambda u: c * sn(u) / np.sqrt(1.0 - c * c * sn(u) ** 2),
        gpp=lambda u: c * np.cos(k * u) / (1.0 - c * c * sn(u) ** 2) ** 1.5,
        u_domain=(0.2 / sm, 1.3 / sm),
        name="umbilic",
        args={"m": m, "c": c},
    )


def test_criterion_09_umbilical_classification():
    worst_good = 0.0
    for params, prof in (
        (MetricParams(0.0, 1.0), slice_profile(0.0, (0.2, 1.8))),
        (MetricParams(0.0, -1.0), slice_profile(0.0, (0.1, 0.8))),
        (MetricParams(0.0, 1.3), cylinder(1.0 / math.sqrt(1.3), (-1.0, 1.0))),
    ):
        worst_good = max(worst_good, umbilic_defect(params, prof, default_grid(prof)))

    # umbilic but not totally geodesic: the rotational spheres of S^2 x R
    worst_sphere, least_curved = 0.0, math.inf
    for m, c in itertools.product((0.25, 1.0, 1.7), (0.3, 0.8, 1.5)):
        if c < 2.0 * math.sqrt(m):
            prof = _umbilic_sphere(m, c)
            grid = default_grid(prof)
            worst_sphere = max(worst_sphere, umbilic_defect(MetricParams(0.0, m), prof, grid))
            least_curved = min(least_curved, totally_geodesic_defect(MetricParams(0.0, m), prof, grid))

    euc_cyl = umbilic_defect(MetricParams(0.0, 0.0), cylinder(1.0, (-1, 1)), default_grid(cylinder(1.0, (-1, 1)), 4, 6))
    heis_plane = umbilic_defect(MetricParams(1.0, 0.0), slice_profile(0.0, (0.2, 1.8)), default_grid(slice_profile(0.0, (0.2, 1.8)), 4, 6))
    ok = (worst_good < 1e-7 and euc_cyl > 1e-3 and heis_plane > 1e-3
          and worst_sphere < 1e-7 and least_curved > 0.1)
    verdict(
        "C9 umbilical classification: totally geodesic surfaces are umbilic, and S^2 x R also has "
        "umbilic rotational spheres that are not totally geodesic (Souam-Toubiana, Comment. Math. "
        "Helv. 84, 2009)",
        ok,
        f"geodesic-group umbilic defect {worst_good:.3e} < 1e-7; "
        f"S^2 x R spheres umbilic defect {worst_sphere:.3e} < 1e-7, second form {least_curved:.3e} > 0.1; "
        f"round cylinder {euc_cyl:.3e}, twisted plane {heis_plane:.3e} > 1e-3",
    )


# -------------------------------------------------------------- criterion 10

def _parallel_drift(params, prof, u0, horizon=10.0):
    form = first_fundamental_form(params, prof, (u0, 0.0))
    s0 = SurfaceGeodesicState(u0, 0.0, 0.0, 1.0 / math.sqrt(form[1, 1]))
    traj = surface_geodesic_integrate(params, prof, s0, horizon, tol=1e-9)
    return float(np.max(np.abs(traj.states[:, 0] - u0)))


def _meridian_drift(params, prof, u0, v0=0.4, horizon=10.0):
    form = first_fundamental_form(params, prof, (u0, v0))
    s0 = SurfaceGeodesicState(u0, v0, 1.0 / math.sqrt(form[0, 0]), 0.0)
    traj = surface_geodesic_integrate(params, prof, s0, horizon, tol=1e-9)
    return float(np.max(np.abs(traj.states[:, 1] - v0)))


def test_criterion_10_surface_criteria_duality():
    rng = np.random.default_rng(104)
    checks = 0
    agreements = 0
    records = []

    def check(name, criterion_true, drift):
        nonlocal checks, agreements
        checks += 1
        agree = criterion_true == (drift < 1e-6)
        agreements += agree
        if not agree:
            records.append((name, criterion_true, drift))

    # class 1: cylinders (parallels and meridians always geodesics)
    for _ in range(10):
        l, m = float(rng.uniform(0.3, 2.0)), float(rng.uniform(-0.8, 1.5))
        a_max = 0.8 / math.sqrt(-m) if m < 0 else 2.0
        a = float(rng.uniform(0.4, a_max))
        params = MetricParams(l, m)
        prof = cylinder(a, (-12.0, 12.0))
        u0 = float(rng.uniform(-1, 1))
        ok_p, _ = parallel_is_geodesic(params, prof, u0)
        check("cylinder parallel", ok_p, _parallel_drift(params, prof, u0))
        ok_m, _ = meridian_is_geodesic(params, prof)
        check("cylinder meridian", ok_m, _meridian_drift(params, prof, u0))

    # class 2: unit-speed slices (tan for m > 0, tanh for m < 0)
    for i in range(10):
        if i % 2 == 0:
            l = float(rng.uniform(0.3, 0.9))
            m = float(rng.uniform(0.8, 1.5))
            params = MetricParams(l, m)
            f_root = math.sqrt(2.0 / (2.0 * m - l * l))
            theta_root = math.atan(math.sqrt(m) * f_root)
            c = 0.2
            u_root = (theta_root - c) / math.sqrt(m)
            lo = max(0.02, u_root - 0.5)
            hi = min(u_root + 0.5, (0.5 * math.pi - c - 0.03) / math.sqrt(m))
            prof = tan_profile(m, c, (lo, hi))
            ok_p, _ = parallel_is_geodesic(params, prof, u_root)
            check("tan-slice critical parallel", ok_p, _parallel_drift(params, prof, u_root))
            u_bad = u_root + 0.25 * (hi - u_root)
            ok_b, res_b = parallel_is_geodesic(params, prof, u_bad)
            assert not ok_b and abs(res_b) > 1e-4
            check("tan-slice generic parallel", ok_b, _parallel_drift(params, prof, u_bad))
            ok_m, _ = meridian_is_geodesic(params, prof)
            check("tan-slice meridian", ok_m, _meridian_drift(params, prof, 0.5 * (lo + hi)))
        else:
            l = float(rng.uniform(0.3, 2.0))
            m = float(rng.uniform(-1.5, -0.5))
            params = MetricParams(l, m)
            prof = tanh_profile(m, 0.5, (0.1, 1.5))
            u_bad = float(rng.uniform(0.3, 1.2))
            ok_b, res_b = parallel_is_geodesic(params, prof, u_bad)
            assert not ok_b and abs(res_b) > 1e-4
            check("tanh-slice generic parallel", ok_b, _parallel_drift(params, prof, u_bad))
            ok_m, _ = meridian_is_geodesic(params, prof)
            check("tanh-slice meridian", ok_m, _meridian_drift(params, prof, 0.7))

    # class 3: generic unit-speed profiles with twist (meridians fail)
    for _ in range(10):
        l = float(rng.uniform(0.5, 2.0)) * (1 if rng.uniform() < 0.5 else -1)
        m = float(rng.uniform(-1.0, 1.0))
        params = MetricParams(l, m)
        prof = random_profile(params, rng, u_domain=(-13.0, 13.0))
        u_star = nearest_radius_extremum(prof)
        ok_p, _ = parallel_is_geodesic(params, prof, u_star)
        check("generic twisted parallel (critical)", ok_p, _parallel_drift(params, prof, u_star))
        u_bad = u_star + 0.45
        ok_b, res_b = parallel_is_geodesic(params, prof, u_bad)
        if abs(res_b) > 1e-4:
            check("generic twisted parallel (generic)", ok_b, _parallel_drift(params, prof, u_bad))
        ok_m, dev_m = meridian_is_geodesic(params, prof)
        if not ok_m and dev_m > 1e-4:
            check("generic twisted meridian", ok_m, _meridian_drift(params, prof, u_star))

    # class 4: generic unit-speed profiles in the product spaces
    for _ in range(10):
        m = float(rng.uniform(-1.0, 1.2))
        params = MetricParams(0.0, m)
        prof = random_profile(params, rng, u_domain=(-13.0, 13.0))
        u_star = nearest_radius_extremum(prof)
        ok_p, _ = parallel_is_geodesic(params, prof, u_star)
        check("product parallel (critical)", ok_p, _parallel_drift(params, prof, u_star))
        ok_m, _ = meridian_is_geodesic(params, prof)
        check("product meridian", ok_m, _meridian_drift(params, prof, u_star))

    # class 5: twisted cones and slices f = u, not at unit speed (E != 1);
    # for m > 0 the parallel f^2 = 2 / (2 m - l^2) is critical, for m < 0
    # none is; slice meridians are geodesics (F = 0), cone meridians not
    for i in range(12):
        l = float(rng.uniform(0.3, 0.9)) * (1 if rng.uniform() < 0.5 else -1)
        if i % 2 == 0:
            m = float(rng.uniform(0.8, 1.5))
            hi = 2.0
        else:
            m = float(rng.uniform(-1.5, -0.5))
            hi = 0.9 / math.sqrt(-m)
        params = MetricParams(l, m)
        k = float(rng.uniform(0.3, 1.5)) * (1 if rng.uniform() < 0.5 else -1)
        for prof in (cone(k, (0.2, hi)), slice_profile(0.0, (0.2, hi))):
            name = f"{prof.name} m {'>' if m > 0 else '<'} 0"
            if m > 0:
                u_root = math.sqrt(2.0 / (2.0 * m - l * l))
                ok_p, _ = parallel_is_geodesic(params, prof, u_root)
                check(f"{name} critical parallel", ok_p, _parallel_drift(params, prof, u_root))
                u_bad = 0.5 * u_root
            else:
                u_bad = float(rng.uniform(0.3, 0.6 * hi))
            ok_b, res_b = parallel_is_geodesic(params, prof, u_bad)
            assert not ok_b and abs(res_b) > 1e-4
            check(f"{name} generic parallel", ok_b, _parallel_drift(params, prof, u_bad))
            ok_m, _ = meridian_is_geodesic(params, prof)
            check(f"{name} meridian", ok_m, _meridian_drift(params, prof, 0.5 * (0.2 + hi)))

    # cylinder geodesics are helices
    params = MetricParams(1.0, 0.5)
    prof = cylinder(1.2, (-12.0, 12.0))
    traj = surface_geodesic_integrate(params, prof, SurfaceGeodesicState(0.0, 0.0, 0.6, 0.4), 10.0, tol=1e-9)
    a = 1.2
    cu = np.polyfit(traj.ts, traj.states[:, 0], 1)
    cv = np.polyfit(traj.ts, traj.states[:, 1], 1)
    helix = np.stack(
        [a * np.cos(np.polyval(cv, traj.ts)), a * np.sin(np.polyval(cv, traj.ts)), np.polyval(cu, traj.ts)],
        axis=-1,
    )
    actual = np.stack(
        [a * np.cos(traj.states[:, 1]), a * np.sin(traj.states[:, 1]), traj.states[:, 0]], axis=-1
    )
    helix_residual = float(np.max(np.abs(helix - actual)))

    ok = agreements == checks and checks >= 60 and helix_residual < 1e-6
    verdict(
        "C10 parallel/meridian criteria vs 10-unit integration",
        ok,
        f"{agreements}/{checks} agreements; disagreements {records}; helix residual {helix_residual:.3e}",
    )


# -------------------------------------------------------------- criterion 11

def test_criterion_11_pullback_coefficients():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        params = random_params(rng)
        prof = random_profile(params, rng)
        u = float(rng.uniform(*prof.u_domain))
        v = float(rng.uniform(0, 2 * math.pi))
        form = first_fundamental_form(params, prof, (u, v))
        e, f, g = reference_form_coefficients(params, prof, u)
        worst = max(worst, abs(form[0, 0] - e), abs(form[0, 1] - f), abs(form[1, 1] - g))
    verdict("C11 pullback matches induced-form coefficients", worst < 1e-10, f"max dev {worst:.3e} < 1e-10")


# -------------------------------------------------------------- criterion 12

def test_criterion_12_adjudication_artifacts(battery_results):
    atlas = Path(__file__).resolve().parent.parent / "docs" / "geodesic_atlas.md"
    ok_exists = atlas.is_file()
    text = atlas.read_text() if ok_exists else ""
    needed = [
        "Height of the twisted families",
        "Height of the Heisenberg geodesics",
        "Squared horizontal radius",
        "containment cylinder",
        "shipped - oracle",
        "variant - oracle",
    ]
    ok_sections = all(s in text for s in needed)
    worst = max(r["deviation"] for r in battery_results)
    ok = ok_exists and ok_sections and worst < 1e-6
    verdict(
        "C12 adjudication record shipped and consistent",
        ok,
        f"atlas present: {ok_exists}, sections: {ok_sections}, shipped forms meet C1 ({worst:.3e} < 1e-6)",
    )
