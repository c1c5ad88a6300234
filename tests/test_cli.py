import json

import numpy as np
import pytest

from cvgeo.cli import main


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


def test_surface_parallels_equator_root(capsys):
    code, out, _ = run_cli(
        capsys, "surface", "--l", "0", "--m", "1", "--profile", "slice",
        "--action", "parallels", "--u-min", "0.2", "--u-max", "1.8", "--grid", "33",
    )
    assert code == 0
    roots = [float(x) for x in out.strip().splitlines()[1:]]
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) < 1e-9


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
