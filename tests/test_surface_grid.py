"""Property test of the grid forms: one call over an (N, 2) grid gives the
one-point calls' forms, rows at equal u carry the same forms, and they
match the exact Koszul oracle closely and the finite-difference one."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import second_fundamental_form_fd, second_fundamental_form_koszul  # noqa: E402
from cvgeo.profiles import random_profile  # noqa: E402
from cvgeo.space import MetricParams  # noqa: E402
from cvgeo.surfaces import default_grid, second_fundamental_form  # noqa: E402


@st.composite
def surfaces(draw):
    """(l, m) generic, on l = 0, on 4m = l^2 or with m < 0, and a random profile."""
    l = draw(st.floats(-2.0, 2.0))
    kind = draw(st.sampled_from(("generic", "l0", "const", "m<0")))
    if kind == "l0":
        l, m = 0.0, draw(st.floats(-2.0, 2.0))
    elif kind == "const":
        m = 0.25 * l * l
    elif kind == "m<0":
        m = draw(st.floats(-2.0, -1e-3))
    else:
        m = draw(st.floats(-2.0, 2.0))
    params = MetricParams(l, m)
    return params, random_profile(params, np.random.default_rng(draw(st.integers(0, 2**31))))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(surface=surfaces(), nu=st.integers(1, 4), nv=st.integers(1, 6))
def test_grid_forms_match_one_point_calls_and_the_fd_oracle(surface, nu, nv):
    params, prof = surface
    grid = default_grid(prof, nu, nv)
    forms = second_fundamental_form(params, prof, grid)
    assert forms.first.shape == forms.second.shape == (nu * nv, 2, 2)
    assert forms.normal.shape == (nu * nv, 3)
    for i, q in enumerate(grid):
        one = second_fundamental_form(params, prof, q)
        for rows, point in ((forms.first, one.first), (forms.second, one.second), (forms.normal, one.normal)):
            assert np.all(np.abs(rows[i] - point) <= 1e-14 * np.maximum(np.abs(point), 1.0))
        assert forms.second[i, 0, 1] == forms.second[i, 1, 0]
        first_row = i - i % nv  # the row at the same u and v = 0
        assert np.array_equal(forms.first[i], forms.first[first_row])
        assert np.array_equal(forms.second[i], forms.second[first_row])
        koszul = second_fundamental_form_koszul(params, prof, q)
        assert np.max(np.abs(forms.second[i] - koszul)) <= 1e-12 * max(np.max(np.abs(koszul)), 1.0)
        assert np.max(np.abs(forms.second[i] - second_fundamental_form_fd(params, prof, q))) < 1e-8
