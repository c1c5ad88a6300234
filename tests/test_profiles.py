"""Profile callables on floats and on arrays: one call on an array gives
what a loop of float calls gives, values and errors alike."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from cvgeo.profiles import (  # noqa: E402
    cone,
    cylinder,
    random_profile,
    slice_profile,
    tan_profile,
    tanh_profile,
    unit_speed_profile,
    validate_profile,
)
from cvgeo.space import MetricParams  # noqa: E402

NAMES = ("f", "fp", "fpp", "g", "gp", "gpp")
# numpy's tan is within 1 ulp of libm's and its tanh within 3 (its own
# SIMD kernel); f' and f'' compound them with cos^2 or cosh^2 and a
# quotient.  Measured over 10^6 draws: tan-built <= 3 ulp, tanh-built f,
# f', f'' <= 4, 6 and 8 ulp.
ULPS = {"tan": 4, "tanh": 12}


@st.composite
def profiles(draw):
    """(kind, profile): a built-in profile on a drawn domain."""
    kind = draw(st.sampled_from(("cylinder", "cone", "slice", "tan", "tanh", "random")))
    lo = draw(st.floats(-1.0, 1.0))
    hi = lo + draw(st.floats(0.05, 2.5))
    if kind == "cylinder":
        return kind, cylinder(draw(st.floats(0.01, 5.0)), (lo, hi))
    if kind == "cone":
        return kind, cone(draw(st.floats(-3.0, 3.0)), (lo, hi))
    if kind == "slice":
        return kind, slice_profile(draw(st.floats(-3.0, 3.0)), (lo, hi))
    m = 10.0 ** draw(st.floats(-4.0, 1.3))
    sm = math.sqrt(m)
    if kind == "tan":
        assume(sm * (hi - lo) < 0.99 * math.pi)
        # c places sm u + c inside (-pi/2, pi/2), up to 0.1% of the slack from either end
        c_lo, c_hi = -0.5 * math.pi - sm * lo, 0.5 * math.pi - sm * hi
        return kind, tan_profile(m, c_lo + draw(st.floats(1e-3, 1.0 - 1e-3)) * (c_hi - c_lo), (lo, hi))
    if kind == "tanh":
        return kind, tanh_profile(-m, -sm * lo + draw(st.floats(1e-3, 4.0)), (lo, hi))
    params = MetricParams(draw(st.floats(-2.0, 2.0)), draw(st.sampled_from((-1.0, 1.0))) * m)
    return kind, random_profile(params, np.random.default_rng(draw(st.integers(0, 2**31))), (lo, hi))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(profile=profiles(), data=st.data())
def test_array_calls_match_float_calls(profile, data):
    kind, prof = profile
    lo, hi = prof.u_domain
    us = [lo, hi, *data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=30))]
    grid = np.array(us)
    for name in NAMES:
        fn = getattr(prof, name)
        scalar = np.array([fn(u) for u in us])
        array = np.broadcast_to(fn(grid), grid.shape)
        if kind in ULPS and name in ("f", "fp", "fpp"):
            assert np.all(np.abs(array - scalar) <= ULPS[kind] * np.spacing(np.abs(scalar))), name
        else:
            assert np.array_equal(array, scalar), name
        # a built-in returns an array of u's shape, and floats for a float
        assert type(fn(grid)) is np.ndarray and fn(grid).shape == grid.shape, name
        assert type(fn(lo)) is float, name


def _first_error(fn, us):
    """The message a loop of float calls stops at, or None."""
    for u in us:
        try:
            fn(u)
        except ValueError as exc:
            return str(exc)
    return None


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(m=st.floats(-0.05, 0.2),
       us=st.lists(st.one_of(st.floats(-1.0, 3.0), st.sampled_from((0.0, 2.0))), min_size=1, max_size=20))
def test_radicand_checks_name_the_first_bad_u_of_a_loop(m, us):
    # f = 2 + u - u^2/2 and f' = 1 - u: at m = 0 the radicand 1 - f'^2 =
    # u (2 - u) is negative outside [0, 2] and zero at its ends, where g''
    # is singular; f'' = -1 comes back as a scalar for an array u
    prof = unit_speed_profile(lambda u: 2.0 + u - 0.5 * u * u, lambda u: 1.0 - u, lambda u: -1.0, m, (-1.0, 3.0))
    grid = np.array(us)
    for fn in (prof.gp, prof.gpp):
        expected = _first_error(fn, us)
        if expected is None:
            assert np.array_equal(fn(grid), np.array([fn(u) for u in us]))
        else:
            with pytest.raises(ValueError) as exc:
                fn(grid)
            assert str(exc.value) == expected


def test_validate_profile_names_the_first_bad_grid_point():
    # one array call of f on the 64-point grid; the error names the first
    # grid point that fails, as the loop over the grid did, whichever of
    # the two checks it fails
    params = MetricParams(0.0, -1.0)
    grid = np.linspace(0.2, 2.0, 64)
    u = float(grid[np.argmax(grid * grid >= 1.0)])
    with pytest.raises(ValueError) as exc:
        validate_profile(params, slice_profile(0.0, (0.2, 2.0)))
    assert str(exc.value) == f"profile leaves the m < 0 disk: f({u!r})^2 = {u * u!r} >= 1.0"
    # f = u - 1/2 is negative at u = 0, then leaves the disk at u >= 3/2;
    # f = 3/2 - u is outside the disk at u = 0, then negative at u > 3/2
    falling = unit_speed_profile(lambda u: 1.5 - u, lambda u: -1.0, lambda u: 0.0, 0.0, (0.0, 2.0))
    rising = unit_speed_profile(lambda u: u - 0.5, lambda u: 1.0, lambda u: 0.0, 0.0, (0.0, 2.0))
    with pytest.raises(ValueError) as exc:
        validate_profile(params, rising)
    assert str(exc.value) == "profile radius must be positive; f(0.0) = -0.5"
    with pytest.raises(ValueError) as exc:
        validate_profile(params, falling)
    assert str(exc.value) == "profile leaves the m < 0 disk: f(0.0)^2 = 2.25 >= 1.0"
