import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvgeo
from cvgeo import _rk, cli, profiles
from cvgeo.audits import SUITES
from cvgeo.cli import TRACE_HEADER, main
from cvgeo.closed_forms import closed_form_geodesic
from cvgeo.connection import BOUNDARY_MARGIN, annotate_states
from cvgeo.space import MetricParams, SpaceClass, classify


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    lines = [ln for ln in out.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows)


# ------------------------------------------------------------------ classify

def test_classify_heisenberg(capsys):
    code, out, _ = run_cli(capsys, "classify", "--l", "1", "--m", "0")
    assert code == 0 and out.strip() == "Heisenberg"


def test_classify_product_sphere_reports_factor_curvature(capsys):
    code, out, _ = run_cli(capsys, "classify", "--l", "0", "--m", "0.25")
    assert code == 0 and out.strip() == "ProductSphere (factor curvature 1)"


def test_classify_flat(capsys):
    code, out, _ = run_cli(capsys, "classify", "--l", "0", "--m", "0")
    assert code == 0 and out.strip() == "EuclideanFlat"


def test_classify_usage_error_on_non_numeric(capsys):
    code, _, err = run_cli(capsys, "classify", "--l", "abc", "--m", "0")
    assert code == 64
    assert "invalid float" in err


def test_unknown_suite_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "audit", "--suite", "nope")
    assert code == 64


# ------------------------------------------------------------------ geodesic

def test_geodesic_flat_line(capsys):
    code, out, _ = run_cli(
        capsys, "geodesic", "--l", "0", "--m", "0", "--u", "1", "--v", "0", "--w", "0",
        "--t-max", "1", "--samples", "3",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "x", "y", "z", "vx", "vy", "vz", "I1", "I2", "I3", "I4", "speed"]
    assert rows.shape == (3, 12)
    assert np.allclose(rows[:, 0], [0, 0.5, 1.0])
    assert np.allclose(rows[:, 1], rows[:, 0], atol=1e-12)  # x = t


def test_geodesic_both_method_agreement(capsys):
    code, out, err = run_cli(
        capsys, "geodesic", "--l", "1", "--m", "1", "--u", "1", "--v", "0", "--w", "1",
        "--method", "both", "--t-max", "2", "--samples", "21",
    )
    assert code == 0
    assert "discrepancy" in err
    disc = float(err.strip().rsplit(" ", 1)[-1])
    assert disc < 1e-5


def test_geodesic_i4_column_zero_for_origin_starts(capsys):
    code, out, _ = run_cli(
        capsys, "geodesic", "--l", "1.3", "--m", "0.7", "--u", "0.4", "--v", "-0.8",
        "--w", "0.6", "--t-max", "2", "--samples", "33",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0, 10] == 0.0
    # dense-output interpolation wobbles at a few 1e-8; the knot-sample
    # conservation contract is tested on Trajectory objects directly
    assert np.max(np.abs(rows[:, 10])) < 5e-8


def test_geodesic_closed_stops_at_the_shell_for_m_negative(capsys):
    # the closed form runs toward the disk boundary; it stops where the
    # numeric path stops, at rho^2 = -1/m - BOUNDARY_MARGIN, with exit 3
    m = -0.9567369188852526
    code, out, _ = run_cli(
        capsys, "geodesic", "--l", "-1.5866815441845719", "--m", repr(m),
        "--u", "0.5275017691605485", "--v", "-0.8089805053118738", "--w", "0.2594078363462382",
        "--method", "closed", "--t-max", "30", "--samples", "2001",
    )
    assert code == 3
    _, rows = parse_csv(out)
    assert len(rows) == 2001
    assert 0.0 < rows[-1, 0] < 30.0
    assert np.all(rows[:, 1] ** 2 + rows[:, 2] ** 2 < -1.0 / m - BOUNDARY_MARGIN)


SHELL_PAST_ORIGIN = ("--l", "1", "--m=-1.5e9", "--u", "1e-9", "--v", "0", "--w", "1", "--t-max", "1", "--samples", "3")


@pytest.mark.parametrize(
    "argv, message",
    [
        *(((*SHELL_PAST_ORIGIN, "--method", method),
           "the stop shell x^2+y^2 = -3.333333333333334e-10 of m = -1500000000.0 is at or past the origin")
          for method in ("numeric", "both", "closed")),
        (("--l=5e-324", "--m=-1e154", "--u=1", "--v=-1", "--w=-1e300", "--method", "closed",
          "--t-max", "1", "--samples", "21"),
         "the stop shell x^2+y^2 = -1e-09 of m = -1e+154 is at or past the origin"),
    ],
    ids=["numeric", "both", "closed", "closed-m-1e154"],
)
def test_geodesic_refuses_a_stop_shell_past_the_origin(capsys, argv, message):
    # for m <= -1/BOUNDARY_MARGIN the shell -1/m - BOUNDARY_MARGIN is not
    # positive: every method refuses m, naming the stop shell in plain floats
    code, out, err = run_cli(capsys, "geodesic", *argv)
    assert (code, out) == (65, "")
    assert err == f"geodesic: {message}\n"


def test_geodesic_closed_inside_the_shell_is_unchanged(capsys):
    # an m < 0 path that stays inside: the rows on [0, t-max], exit 0
    params = MetricParams(0.8, -0.6)
    code, out, _ = run_cli(
        capsys, "geodesic", "--l", "0.8", "--m", "-0.6", "--u", "0.5", "--v", "-0.3", "--w", "0.4",
        "--method", "closed", "--t-max", "3", "--samples", "41",
    )
    assert code == 0
    cf = closed_form_geodesic(params, (0.5, -0.3, 0.4))
    ts = np.linspace(0.0, 3.0, 41)
    states = np.hstack([cf.position(ts), cf.velocity(ts)])
    rows = np.column_stack([ts, states, *annotate_states(params, states)])
    expected = [TRACE_HEADER] + [",".join(repr(float(v)) for v in row) for row in rows]
    assert out == "\n".join(expected) + "\n"


def test_geodesic_both_agrees_as_m_tends_to_zero(capsys):
    # the twisted height must not cancel as m -> 0 (a 1/m form reads 1.9e-4 here)
    code, _, err = run_cli(
        capsys, "geodesic", "--l", "1", "--m", "1e-12", "--u", "1", "--v", "0", "--w", "1",
        "--t-max", "3", "--method", "both",
    )
    assert code == 0
    assert float(err.strip().rsplit(" ", 1)[-1]) < 1e-8


def test_geodesic_closed_speed_and_i3_are_exact_near_m_zero(capsys):
    # exact velocities: speed 1 and I3 = w = 0.8 on every row, where a
    # central difference of the positions reads 0.83-1.30 and 0.57-1.15
    code, out, _ = run_cli(
        capsys, "geodesic", "--l", "1", "--m", "1e-10", "--u", "0.6", "--v", "0", "--w", "0.8",
        "--method", "closed", "--t-max", "3", "--samples", "5",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert np.max(np.abs(rows[:, 11] - 1.0)) < 1e-12
    assert np.max(np.abs(rows[:, 9] - 0.8)) < 1e-12


def test_geodesic_closed_speed_holds_into_the_shell(capsys):
    # the closed form's last rows crawl into the m < 0 stop shell, where a
    # central difference of the positions is off in speed by up to 0.149
    v0 = (0.5275017691605485, -0.8089805053118738, 0.2594078363462382)
    code, out, _ = run_cli(
        capsys, "geodesic", "--l", "-1.5866815441845719", "--m", "-0.9567369188852526",
        "--u", repr(v0[0]), "--v", repr(v0[1]), "--w", repr(v0[2]),
        "--method", "closed", "--t-max", "30", "--samples", "2001",
    )
    assert code == 3
    _, rows = parse_csv(out)
    assert np.max(np.abs(rows[:, 11] - np.linalg.norm(v0))) < 1e-6


def test_geodesic_domain_exit_partial(capsys):
    code, out, _ = run_cli(
        capsys, "geodesic", "--l", "0", "--m", "-1", "--u", "1", "--v", "0", "--w", "0",
        "--t-max", "14", "--samples", "5",
    )
    assert code == 3
    _, rows = parse_csv(out)
    assert rows[-1, 0] < 14.0
    assert rows[-1, 1] ** 2 + rows[-1, 2] ** 2 < 1.0


def test_geodesic_closed_rejects_non_origin_start(capsys):
    code, _, err = run_cli(
        capsys, "geodesic", "--l", "1", "--m", "1", "--u", "1", "--v", "0", "--w", "1",
        "--method", "closed", "--x0", "0.5",
    )
    assert code == 65
    assert "origin" in err


def test_geodesic_zero_velocity_invalid(capsys):
    code, _, _ = run_cli(
        capsys, "geodesic", "--l", "1", "--m", "1", "--u", "0", "--v", "0", "--w", "0",
    )
    assert code == 65


def test_geodesic_closed_matches_numeric_rows(capsys):
    args = ["geodesic", "--l", "1", "--m", "0", "--u", "1", "--v", "0", "--w", "1",
            "--t-max", "3", "--samples", "7"]
    code1, out1, _ = run_cli(capsys, *args, "--method", "closed")
    code2, out2, _ = run_cli(capsys, *args, "--method", "numeric")
    assert code1 == 0 and code2 == 0
    _, rows1 = parse_csv(out1)
    _, rows2 = parse_csv(out2)
    assert np.max(np.abs(rows1[:, 1:4] - rows2[:, 1:4])) < 1e-6


def test_geodesic_deterministic_output(capsys):
    args = ["geodesic", "--l", "1", "--m", "1", "--u", "1", "--v", "0.3", "--w", "0.5",
            "--t-max", "1.5", "--samples", "11"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


# --------------------------------------------------------------------- audit

def test_audit_frobenius_passes(capsys):
    code, out, _ = run_cli(capsys, "audit", "--suite", "frobenius", "--seed", "7", "--count", "20")
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(records) == 20
    assert all(r["status"] == "pass" for r in records)
    assert all(r["residual"] <= r["tolerance"] for r in records)


def test_audit_killing_passes(capsys):
    code, out, _ = run_cli(capsys, "audit", "--suite", "killing", "--seed", "1", "--count", "100")
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(records) == 100
    assert all(r["residual"] < 1e-8 for r in records)


def test_audit_curvature_product_records(capsys):
    code, out, _ = run_cli(capsys, "audit", "--suite", "curvature", "--seed", "2", "--count", "9")
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert any(r["check"] == "product-sectional" for r in records)
    assert any(r["check"] == "const-curvature-spread" for r in records)


def test_audit_deterministic(capsys):
    args = ["audit", "--suite", "integrals", "--seed", "5", "--count", "4"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_audit_count_must_be_positive(capsys):
    code, _, _ = run_cli(capsys, "audit", "--suite", "killing", "--count", "0")
    assert code == 65


# ------------------------------------------------------------------- surface

def test_surface_forms_csv(capsys):
    code, out, _ = run_cli(
        capsys, "surface", "--l", "0", "--m", "1", "--profile", "slice",
        "--action", "forms", "--u-min", "0.2", "--u-max", "1.8", "--grid", "4",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["u", "v", "E", "F", "G", "B_uu", "B_uv", "B_vv"]
    assert np.max(np.abs(rows[:, 5:])) < 1e-7  # totally geodesic slice
    assert "-0.0" not in out.replace("\n", ",").split(",")  # l = 0 and g' = 0 make signed zeros


def test_surface_forms_cylinder_rows_share_one_second_form(capsys):
    # f' = 0: every row of the parallel orients its normal outward
    code, out, err = run_cli(
        capsys, "surface", "--l", "0.5", "--m", "0.3", "--profile", "cylinder",
        "--action", "forms", "--grid", "1",
    )
    assert (code, err) == (0, "")
    rows = [line.split(",")[5:] for line in out.splitlines()[1:]]
    assert len(rows) == 8 and all(row == rows[0] for row in rows)


def test_surface_parallels_equator_root(capsys):
    code, out, _ = run_cli(
        capsys, "surface", "--l", "0", "--m", "1", "--profile", "slice",
        "--action", "parallels", "--u-min", "0.2", "--u-max", "1.8", "--grid", "33",
    )
    assert code == 0
    roots = [float(x) for x in out.strip().splitlines()[1:]]
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) < 1e-9
    # grids whose points miss the root, which is then bisected between two
    # of them: the slice's u = 1, and tan(u + 0.3) = sqrt(2) on the tan
    # profile, where G' = f f' (2 - f^2) / (1 + f^2)^3 vanishes
    for flags, root in (
        (("--l", "0", "--m", "1", "--profile", "slice", "--u-min", "0.2", "--u-max", "1.8", "--grid", "64"),
         1.0),
        (("--l", "1", "--m", "1", "--profile", "tan", "--c", "0.3", "--u-min", "0.1", "--u-max", "0.7"),
         math.atan(math.sqrt(2.0)) - 0.3),
    ):
        assert run_cli(capsys, "surface", *flags, "--action", "parallels") == (0, f"u0\n{root!r}\n", "")


def test_surface_meridians_cylinder_true(capsys):
    code, out, _ = run_cli(
        capsys, "surface", "--l", "1", "--m", "0", "--profile", "cylinder", "--a", "2",
        "--action", "meridians",
    )
    assert code == 0
    verdict = json.loads(out.strip())
    assert verdict["geodesic"] is True


def test_surface_meridians_tan_true(capsys):
    code, out, _ = run_cli(
        capsys, "surface", "--l", "1", "--m", "1", "--profile", "tan",
        "--action", "meridians", "--u-min", "0.05", "--u-max", "0.9",
    )
    assert code == 0
    assert json.loads(out.strip())["geodesic"] is True


@pytest.mark.parametrize(
    "flags, geodesic",
    [
        (("--l", "1", "--m", "0", "--profile", "cone"), False),
        (("--l", "1", "--m", "0.5", "--profile", "slice"), True),
        (("--l", "1", "--m", "-0.5", "--profile", "slice"), True),
    ],
    ids=["cone", "slice-m-positive", "slice-m-negative"],
)
def test_surface_meridians_verdict_matches_meridian_start(capsys, flags, geodesic):
    # none of these profiles is at unit speed; the verdict must agree with
    # the v drift of the geodesic started along the meridian v = 0
    code, out, err = run_cli(capsys, "surface", *flags, "--action", "meridians")
    assert (code, err) == (0, "")
    assert json.loads(out)["geodesic"] is geodesic
    code, out, _ = run_cli(
        capsys, "surface", *flags, "--action", "geodesic",
        "--su", "0.5", "--sdu", "1", "--sdv", "0", "--t-max", "0.3", "--samples", "31",
    )
    assert code == 0
    header, rows = parse_csv(out)
    drift = float(np.max(np.abs(rows[:, header.index("v")])))
    assert drift < 1e-10 if geodesic else drift > 1e-3


def test_surface_geodesic_csv_momentum_column(capsys):
    code, out, _ = run_cli(
        capsys, "surface", "--l", "1", "--m", "0.5", "--profile", "cylinder", "--a", "1.2",
        "--u-min", "-8", "--u-max", "8", "--action", "geodesic",
        "--su", "0", "--sv", "0", "--sdu", "0.6", "--sdv", "0.4", "--t-max", "5",
        "--samples", "21",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["t", "u", "v", "du", "dv", "p_v", "speed"]
    assert np.max(np.abs(rows[:, 5] - rows[0, 5])) < 1e-8
    assert np.max(np.abs(rows[:, 6] - rows[0, 6])) < 1e-8


def test_surface_profile_domain_violation(capsys):
    code, _, err = run_cli(
        capsys, "surface", "--l", "0", "--m", "-1", "--profile", "cylinder", "--a", "2",
        "--action", "forms",
    )
    assert code == 65
    assert "disk" in err


def test_surface_deterministic(capsys):
    args = ["surface", "--l", "1", "--m", "1", "--profile", "tan", "--action", "forms",
            "--u-min", "0.05", "--u-max", "0.9", "--grid", "5"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ("classify", "--l", "nan", "--m", "0"),
        ("geodesic", "--l", "1", "--m", "1", "--u", "1", "--v", "0", "--w", "inf"),
        ("surface", "--l", "0", "--m", "0", "--profile", "cylinder", "--action", "forms", "--grid", "0"),
    ],
    ids=["classify-l-nan", "geodesic-w-inf", "surface-grid-0"],
)
def test_out_of_range_flag_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 64 and out == ""
    assert "error: argument" in err.splitlines()[-1]


@pytest.mark.parametrize("tol, reason", [("abc", ""), ("-1", " is not positive")])
def test_bad_tol_env_is_usage_error(capsys, monkeypatch, tol, reason):
    monkeypatch.setenv("CVGEO_TOL", tol)
    code, out, err = run_cli(
        capsys, "geodesic", "--l", "1", "--m", "1", "--u", "1", "--v", "0", "--w", "1",
    )
    assert code == 64 and out == ""
    assert err.splitlines() == [f"cvgeo: error: CVGEO_TOL: invalid float value: {tol!r}{reason}"]


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("CVGEO_TOL", "1e-6")
    code, out, _ = run_cli(
        capsys, "geodesic", "--l", "1", "--m", "1", "--u", "1", "--v", "0", "--w", "1",
        "--t-max", "1", "--samples", "5",
    )
    assert code == 0
    monkeypatch.delenv("CVGEO_TOL")


# ---------------------------------------------------- integrator failures

GEODESIC = ("geodesic", "--l", "1", "--m", "1", "--v", "0", "--w", "1")


@pytest.mark.parametrize(
    "u, message",
    [("1e200", "geodesic: input out of range: overflow"), ("1e10", "geodesic: step size underflow")],
    ids=["overflow", "underflow"],
)
def test_geodesic_integrator_failure_is_invalid_input(capsys, u, message):
    code, out, err = run_cli(capsys, *GEODESIC, "--u", u)
    assert code == 65 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith(message)


def test_geodesic_step_budget_is_invalid_input(capsys, monkeypatch):
    monkeypatch.setattr(_rk, "MAX_EVALS", 120)
    code, out, err = run_cli(capsys, *GEODESIC, "--u", "1", "--t-max", "1e9")
    assert code == 65 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("geodesic: step budget exhausted")


def test_surface_geodesic_step_budget_is_invalid_input(capsys, monkeypatch):
    monkeypatch.setattr(_rk, "MAX_EVALS", 120)
    code, out, err = run_cli(
        capsys, "surface", "--l", "1", "--m", "0.5", "--profile", "cylinder",
        "--u-min", "-8", "--u-max", "8", "--action", "geodesic", "--t-max", "1e9",
    )
    assert code == 65 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("surface: step budget exhausted")


# ------------------------------------------------------------- golden bytes

# `geodesic --method both --t-max 10 --samples 201` for one (l, m, u, v, w)
# per space class: the sha256 of stdout, the exit code and stderr.  The
# knots, states and integrals are Python-float arithmetic in a fixed order,
# but the speed column goes through the stacked v g v matmul of
# `state_speed`, which rounds unlike an in-order sum on about a third of
# random rows: another BLAS kernel may change those bytes.  ProductSphere
# exits 1 because the gate compares coordinates near the antipodal fiber
# (ROADMAP item 1).
GOLDEN = {
    "EuclideanFlat": (("0", "0", "0.6", "-0.8", "0.5"), 0,
                      "4e96c525ff4de6c25e980b7fa64d7904d228661f3eddc949ce6528d0feb85e2a",
                      "5.329070518200751e-15"),
    "ProductSphere": (("0", "0.7", "0.6", "0.3", "0.8"), 1,
                      "224c187301152b3c8ccde9046abccc4f20ac19b5263aa551785c585515046fe0",
                      "24.396798879723065"),
    "ProductHyperbolic": (("0", "-0.6", "0.5", "-0.4", "0.7"), 0,
                          "7640c56d3a30205b62dd56c121fbbef1435b7e1d67b241f5bb729cfeeb3d9d50",
                          "5.566922589572698e-09"),
    "Heisenberg": (("1.3", "0", "0.4", "-0.8", "0.6"), 0,
                   "4e299564992f532f0262eae9958785d0d13eb0c3925a0ae4db7a84d894a78ce4",
                   "3.331624531810462e-09"),
    "ConstantPositive": (("1.2", "0.36", "0.7", "0.2", "-0.5"), 0,
                         "0b52a422d398dc6843754908d33280b307fb006de8e871b9116550b2f08fa806",
                         "1.0004211681291508e-08"),
    "SU2": (("1.3", "0.7", "0.4", "-0.8", "0.6"), 0,
            "5ef57a412057727f039cac96a077385535d78c252435bf266ab281668340f7e0",
            "9.41879862992323e-09"),
    "SL2R": (("0.8", "-0.6", "0.5", "-0.3", "0.4"), 0,
             "191b05c8911e6c684e251fb7e31282be07753e5629723256201d2a8d3d550bb1",
             "7.303580462636461e-09"),
}


def test_golden_covers_every_space_class():
    assert set(GOLDEN) == {cls.value for cls in SpaceClass}
    for name, ((l, m, *_), *_) in GOLDEN.items():
        assert classify(MetricParams(float(l), float(m))).value == name


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_geodesic_output_is_golden(capsys, monkeypatch, name):
    (l, m, u, v, w), code, digest, disc = GOLDEN[name]
    monkeypatch.delenv("CVGEO_TOL", raising=False)
    got, out, err = run_cli(
        capsys, "geodesic", "--l", l, "--m", m, "--u", u, "--v", v, "--w", w,
        "--method", "both", "--t-max", "10", "--samples", "201",
    )
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
    assert err == f"max closed-vs-numeric discrepancy: {disc}\n"


# `audit --suite S --seed 0 --count 60`: the sha256 of stdout per suite.  The
# records go through numpy matrix products (the speeds of `state_speed`, the
# metric contractions of the Killing and curvature checks), so, as for
# GOLDEN, another BLAS kernel may change these bytes.
AUDIT_GOLDEN = {
    "curvature": "b8d0eab212f70bac2424b508a837e47f31d6b9f096e68e4371098c7673dbf276",
    "frobenius": "6814297865b6a3d403365414ea74488b82c5c9119982c64e005520064f517fab",
    "integrals": "10f1b11b3f4f5de2d5e06da050d211b3766465c0896ab3b4068f111b804f3a31",
    "killing": "bd3aa1c110216579c5cd711cb269b353d64348efe26dced2a0092ead7718fb27",
    "surfaces": "b4e828eaa5e9e7156eeebab433c71e1c87f3c4d64462b6ee24bf08defd1376cc",
}


def test_audit_golden_covers_every_suite():
    assert set(AUDIT_GOLDEN) == set(SUITES)


@pytest.mark.parametrize("suite", sorted(AUDIT_GOLDEN))
def test_audit_output_is_golden(capsys, suite):
    code, out, err = run_cli(capsys, "audit", "--suite", suite, "--seed", "0", "--count", "60")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_GOLDEN[suite]


# `surface --action forms` at the default flags of each built-in profile:
# (l, m) and the sha256 of stdout.  The rows are elementwise array
# arithmetic in closed form, so the whole grid in one call prints the bytes
# of a call per u.
FORMS_GOLDEN = {
    "cylinder": (("0.8", "-0.6"), "28895404cba7ba5099bf4270465f9c09258c18f003c3423fb26488ec65dceb6a"),
    "cone": (("1.3", "0.7"), "ca79aa64f37b9ecf9d93f6d7212c2599c2d4ad95112fd0051e57b754b91abc0b"),
    "slice": (("1.3", "0.7"), "42094c74de9ba3643d0f042719eb47958b3051736218184aa95666843f21e248"),
    "tan": (("1.3", "0.7"), "0f117aeccbca8e74d6ca57e0f7dcd26c5540ffced55c7f289daffff833e3e304"),
    "tanh": (("0.8", "-0.6"), "6e7fe967d62cfba61444943909368c82eb1d463d1862da76d96b39301acc4d57"),
}


@pytest.mark.parametrize("profile", sorted(FORMS_GOLDEN))
def test_surface_forms_output_is_golden(capsys, profile):
    (l, m), digest = FORMS_GOLDEN[profile]
    code, out, err = run_cli(capsys, "surface", "--l", l, "--m", m, "--profile", profile, "--action", "forms")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------------------------ input ranges

@pytest.mark.parametrize(
    "argv, message",
    [
        ((*GEODESIC, "--u", "1", "--samples", "100000000000"), "samples <= 1000000"),
        (("surface", "--l", "0", "--m", "0", "--profile", "cylinder", "--action", "geodesic",
          "--samples", "100000000000"), "samples <= 1000000"),
        (("surface", "--l", "0", "--m", "0", "--profile", "cylinder", "--action", "geodesic",
          "--samples", "1"), "surface: need 2 <= samples <= 1000000"),
        (("audit", "--suite", "killing", "--count", "100000000000"), "count must be in [1, 1000000]"),
        (("audit", "--suite", "killing", "--seed", "-1"), "seed must not be negative"),
        (("surface", "--l", "0", "--m", "0", "--profile", "cylinder", "--action", "forms",
          "--u-min", "1", "--u-max", "0.2", "--grid", "2"), "u_min < u_max"),
        (("surface", "--l", "0", "--m", "0", "--profile", "cylinder", "--action", "forms",
          "--a", "1e300", "--grid", "2"), "input out of range: the output has a value that is not finite"),
        (("surface", "--l", "1", "--m", "0.5", "--profile", "cone", "--u-min", "0.2", "--u-max", "2",
          "--su", "1", "--sdu", "1e200", "--action", "geodesic"),
         "surface: input out of range: overflow encountered in the surface rhs"),
        (("geodesic", "--l", "1", "--m", "-1", "--u", "1", "--v", "0", "--w", "0", "--x0", "1e200"),
         "geodesic: point with x^2+y^2 = inf outside the disk x^2+y^2 < 1.0 (m = -1.0)"),
        # no Python-float ** runs on this path: the numeric run's rhs overflows
        (("geodesic", "--l=1e300", "--m=1", "--u=1", "--v=-0.5", "--w=-1.3", "--t-max=1", "--samples=21",
          "--method=both"),
         "geodesic: input out of range: overflow encountered in the geodesic rhs"),
        (("surface", "--l=2", "--m=1e308", "--profile=slice", "--action=geodesic", "--su=0.3",
          "--sdu=-1e300", "--sdv=0.3", "--t-max=1", "--samples=21"),
         "surface: input out of range: Numerical result out of range"),
        # starts inside the manifold but past the integration domain's edge
        (("geodesic", "--l", "1", "--m", "-1", "--u", "1", "--v", "0", "--w", "0", "--x0", "0.99999999999"),
         "geodesic: start point with x^2+y^2 = 0.99999999998 past the stop shell x^2+y^2 = 0.999999999 "
         "(m = -1.0)"),
        (("geodesic", "--l", "1", "--m", "1", "--u", "1", "--v", "0", "--w", "0", "--x0", "2e6"),
         "geodesic: start point with (x, y, z) = (2000000.0, 0.0, 0.0) past the chart bound "
         "max(|x|, |y|, |z|) = 1000000.0 (m = 1.0)"),
        # tanh's domain is [0.2, 1.0], less 2e-6 of its length at each end
        (("surface", "--l", "1", "--m", "-1", "--profile", "tanh", "--action", "geodesic", "--su", "0.2",
          "--c", "0.3"),
         "surface: u0 = 0.2 outside the integration domain [0.2000016, 0.9999984], "
         "the profile domain less 2e-6 of its length at each end"),
    ],
    ids=["geodesic-samples", "surface-samples", "surface-samples-one", "audit-count", "audit-seed",
         "surface-u-order", "surface-forms-not-finite", "surface-geodesic-overflow",
         "domain-error-plain-float", "geodesic-power-overflow", "surface-power-overflow",
         "geodesic-start-past-stop-shell", "geodesic-start-past-chart-bound", "surface-start-in-end-margin"],
)
def test_out_of_range_input_is_invalid(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 65 and out == ""
    assert len(err.splitlines()) == 1 and message in err


def test_grid_above_bound_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "surface", "--l", "0", "--m", "0", "--profile", "cylinder", "--action", "forms",
        "--grid", "1000001",
    )
    assert code == 64 and out == ""
    assert "exceeds 1000000" in err


# ------------------------------------------------------------- broken pipe

def test_closed_pipe_exits_1_without_traceback():
    src = Path(cvgeo.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cvgeo.cli", "audit", "--suite", "frobenius", "--count", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert json.loads(first)["check"] == "frobenius-scalar"
    assert "Traceback" not in err and "Error" not in err


# ------------------------------------------------------- subcommand imports

def test_the_choices_name_the_suites_and_the_profile_builders():
    # the parser states the --suite and --profile choices without importing
    # the modules that hold them
    assert cli.AUDIT_SUITES == tuple(sorted(SUITES))
    assert set(cli._PROFILE_BUILDERS) == set(FORMS_GOLDEN)
    for name, build in cli._PROFILE_BUILDERS.items():
        (l, m), _ = FORMS_GOLDEN[name]
        args = cli.build_parser().parse_args(
            ["surface", "--l", l, "--m", m, "--profile", name, "--action", "forms"])
        assert build(profiles, args, float(m)).name == name


def test_a_geodesic_run_loads_no_audit_or_surface_module():
    # `audit` and `surface` import their modules when they run: a geodesic
    # run in a fresh interpreter loads none of them, nor numpy.polynomial
    src = Path(cvgeo.__file__).resolve().parents[1]
    code = (
        "import contextlib, io, sys\n"
        "from cvgeo.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['geodesic', '--l', '1', '--m', '1', '--u', '1', '--v', '0', '--w', '1',\n"
        "                 '--method', 'both', '--t-max', '3', '--samples', '21'])\n"
        "names = ('cvgeo.profiles', 'cvgeo.surfaces', 'cvgeo.audits', 'numpy.polynomial')\n"
        "print(code, sorted(m for m in sys.modules if m.startswith(names)))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "CVGEO_TOL"}
    env["PYTHONPATH"] = str(src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "0 []\n", out
