import math

import numpy as np
import pytest

from oracles import coframe_values, conformal_factor
from cvgeo.audits import random_params, random_point
from cvgeo.space import (
    DomainError,
    MetricParams,
    Point3,
    SpaceClass,
    classify,
    frame,
    metric_tensor,
)


def test_conformal_factor_m_zero_is_one():
    params = MetricParams(1.7, 0.0)
    for p in (Point3(0, 0, 0), Point3(3, -4, 9), Point3(-0.2, 0.1, -5)):
        assert conformal_factor(params, p) == 1.0


def test_conformal_factor_substitution():
    assert conformal_factor(MetricParams(0.0, 1.0), Point3(1, 1, 5)) == 3.0


def test_conformal_factor_boundary_is_domain_error():
    with pytest.raises(DomainError):
        conformal_factor(MetricParams(0.0, -1.0), Point3(1, 0, 0))
    # strictly inside is fine
    assert conformal_factor(MetricParams(0.0, -1.0), Point3(0.9, 0, 0)) > 0.0


@pytest.mark.parametrize(
    "l,m,expected",
    [
        (0.0, 0.0, SpaceClass.EUCLIDEAN_FLAT),
        (0.0, 0.7, SpaceClass.PRODUCT_SPHERE),
        (0.0, -0.7, SpaceClass.PRODUCT_HYPERBOLIC),
        (1.0, 0.0, SpaceClass.HEISENBERG),
        (2.0, 1.0, SpaceClass.CONSTANT_POSITIVE),
        (1.0, 1.0, SpaceClass.SU2),
        (1.0, -1.0, SpaceClass.SL2R),
    ],
)
def test_classify_branches(l, m, expected):
    assert classify(MetricParams(l, m)) is expected


def test_classify_const_curvature_tolerates_decimal_input():
    # 4m = l^2 hit through decimals that do not land exactly
    l = 1.1
    m = (l * l) / 4.0
    assert classify(MetricParams(l, m)) is SpaceClass.CONSTANT_POSITIVE
    assert classify(MetricParams(l, m * (1 + 1e-6))) is SpaceClass.SU2


def test_classify_total():
    rng = np.random.default_rng(0)
    for _ in range(200):
        params = random_params(rng)
        assert isinstance(classify(params), SpaceClass)


def test_params_must_be_finite():
    with pytest.raises(ValueError):
        MetricParams(math.inf, 0.0)
    with pytest.raises(ValueError):
        MetricParams(0.0, math.nan)


def test_metric_identity_at_origin():
    rng = np.random.default_rng(1)
    for _ in range(10):
        params = random_params(rng)
        assert np.array_equal(metric_tensor(params, Point3(0, 0, 0)), np.eye(3))


def test_metric_frozen_example():
    # expansion of the coframe at (1, 0, 0) for l = 2, m = 0, checked by
    # hand and against the coframe reconstruction below
    g = metric_tensor(MetricParams(2.0, 0.0), Point3(1, 0, 0))
    expected = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert np.allclose(g, expected, atol=1e-15)


def test_metric_product_case_diagonal():
    params = MetricParams(0.0, 0.8)
    p = Point3(0.4, -0.3, 2.0)
    d = conformal_factor(params, p)
    g = metric_tensor(params, p)
    assert np.allclose(g, np.diag([1 / d**2, 1 / d**2, 1.0]), atol=1e-15)


def test_metric_positive_definite_and_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(50):
        params = random_params(rng)
        p = random_point(params, rng)
        g = metric_tensor(params, p)
        assert np.array_equal(g, g.T)
        assert np.all(np.linalg.eigvalsh(g) > 0)


def test_frame_at_origin_and_substitution():
    fr = frame(MetricParams(1.0, 1.0), Point3(0, 0, 0))
    assert np.allclose(np.stack([fr.e1, fr.e2, fr.e3]), np.eye(3))
    fr2 = frame(MetricParams(2.0, 0.0), Point3(0, 1, 0))
    assert np.allclose(fr2.e1, [1.0, 0.0, -1.0])


def test_frame_gram_matrix_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(100):
        params = random_params(rng)
        p = random_point(params, rng)
        fr = frame(params, p)
        rows = np.stack([fr.e1, fr.e2, fr.e3])
        gram = rows @ metric_tensor(params, p) @ rows.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_coframe_trivial_values():
    params = MetricParams(1.0, 0.5)
    assert np.allclose(coframe_values(params, Point3(0, 0, 0), (1, 0, 0)), [1, 0, 0])
    vals = coframe_values(MetricParams(2.0, 0.0), Point3(1, 0, 0), (0, 1, 0))
    assert np.allclose(vals, [0.0, 1.0, -1.0])


def test_coframe_frame_duality():
    rng = np.random.default_rng(5)
    for _ in range(100):
        params = random_params(rng)
        p = random_point(params, rng)
        fr = frame(params, p)
        dual = np.array([coframe_values(params, p, e) for e in (fr.e1, fr.e2, fr.e3)])
        assert np.max(np.abs(dual - np.eye(3))) < 1e-12


def test_metric_reconstructed_from_coframe():
    # ds^2 = sum_i omega^i (x) omega^i, componentwise
    rng = np.random.default_rng(6)
    for _ in range(100):
        params = random_params(rng)
        p = random_point(params, rng)
        om = np.array([coframe_values(params, p, e) for e in np.eye(3)])
        assert np.max(np.abs(om @ om.T - metric_tensor(params, p))) < 1e-12
