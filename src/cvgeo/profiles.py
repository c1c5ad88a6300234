"""Generating profiles (f, g) of rotational surfaces about the z axis.

A profile provides smooth callables for the radius f > 0 and the height g
together with the derivatives f', f'', g' and g''.
The built-ins are two families.  The affine profiles f = f0 + f1 u,
g = g0 + g1 u:

    cylinder(a)          f = a,        g = u
    cone(k)              f = u,        g = k u
    slice_profile(z0)    f = u,        g = z0           (a z = const slice)

and the z = 0 slices at unit radial speed, f = T(s u + c) / s with
f' = 1 / C(s u + c)^2 and f'' = 2 s T / C^2 (tan) or -2 s T / C^2 (tanh),
written once for the pairs (T, C) = (tan, cos) and (tanh, cosh):

    tan_profile(m, c)    f = tan(sqrt(m) u + c)/sqrt(m),   g = 0, m > 0
    tanh_profile(m, c)   f = tanh(sqrt(-m) u + c)/sqrt(-m), g = 0, m < 0

The tan/tanh profiles are the z = const slices reparametrised at unit
radial speed in the induced metric; with them, and with any profile built
by `unit_speed_profile` or `random_profile`, the arc-length normalisation

    f'^2 / (1 + m f^2)^2 + g'^2 = 1

holds.  The geodesic criteria of `cvgeo.surfaces` do not need it: they
read the induced metric (E, F, G) of any immersed profile.  The height of
a unit-speed profile is recovered by Gauss-Legendre quadrature of g' when
it is actually needed (the ambient metric never depends on z).

Every profile callable takes a float or an ndarray of u.  A float runs on
`math`, so the surface-geodesic rhs, which calls the profile once per
evaluation, keeps the bits and the cost of scalar arithmetic; an ndarray
runs on numpy in one call, which is how the surface grids, the criteria
and the dense-output annotations evaluate a profile.  An array call
returns an array of u's shape, or a scalar where the function is constant
(`cvgeo.surfaces` broadcasts it).  The checks of a unit-speed profile name
the first offending u in array order, as a loop over the entries would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .space import MetricParams

__all__ = [
    "RevolutionProfile",
    "cylinder",
    "cone",
    "slice_profile",
    "tan_profile",
    "tanh_profile",
    "unit_speed_profile",
    "random_profile",
    "validate_profile",
]


@dataclass(frozen=True)
class RevolutionProfile:
    """Generating curve u -> (f(u), g(u)) of a surface of revolution."""

    f: Callable
    fp: Callable
    fpp: Callable
    g: Callable
    gp: Callable
    gpp: Callable
    u_domain: tuple[float, float]
    name: str = "profile"
    args: dict = field(default_factory=dict)

    def contains(self, u: float) -> bool:
        lo, hi = self.u_domain
        return lo <= u <= hi

    def grid(self, n: int = 256) -> np.ndarray:
        lo, hi = self.u_domain
        return np.linspace(lo, hi, n)


# A profile callable runs on numpy where `type(u) is _ND` and on math
# otherwise, so a float keeps the bits and nearly the cost of scalar
# arithmetic (an inline type test costs less than a call to a helper).
_ND = np.ndarray


def _on_array(fn: Callable, u: np.ndarray) -> np.ndarray:
    """fn(u) as an array of u's shape: a constant callable may return a
    scalar for an array u."""
    val = fn(u)
    return val if type(val) is _ND and val.shape == u.shape else np.broadcast_to(val, u.shape)


def validate_profile(params: MetricParams, profile: RevolutionProfile) -> None:
    """Check u_min < u_max, and f > 0 and, for m < 0, f^2 < -1/m on a
    64-point grid of the domain, with one array call of f; the error names
    the first grid point that fails."""
    lo, hi = profile.u_domain
    if not lo < hi:
        raise ValueError(f"profile domain needs u_min < u_max; got [{lo!r}, {hi!r}]")
    us = profile.grid(64)
    fv = _on_array(profile.f, us)
    nonpositive = ~(fv > 0.0)
    with np.errstate(over="ignore"):  # an f^2 that overflows is outside the disk
        f2 = fv * fv
    bad = nonpositive | (f2 >= -1.0 / params.m) if params.m < 0.0 else nonpositive
    if bad.any():
        i = int(bad.argmax())
        u = float(us[i])
        if nonpositive[i]:
            raise ValueError(f"profile radius must be positive; f({u!r}) = {float(fv[i])!r}")
        raise ValueError(
            f"profile leaves the m < 0 disk: f({u!r})^2 = {float(f2[i])!r} >= {-1.0 / params.m!r}"
        )


def _const(c: float) -> Callable:
    """The constant c as a profile callable: c for a float u, an array of c
    shaped like an array u."""
    return lambda u: np.full(u.shape, c) if type(u) is _ND else c


def _affine(f0: float, f1: float, g0: float, g1: float, u_domain, name: str,
            args: dict) -> RevolutionProfile:
    """The profile f = f0 + f1 u, g = g0 + g1 u."""
    return RevolutionProfile(
        f=lambda u: f0 + f1 * u,
        fp=_const(f1),
        fpp=_const(0.0),
        g=lambda u: g0 + g1 * u,
        gp=_const(g1),
        gpp=_const(0.0),
        u_domain=tuple(u_domain),
        name=name,
        args=args,
    )


def cylinder(a: float, u_domain=(-2.0, 2.0)) -> RevolutionProfile:
    if a <= 0.0:
        raise ValueError("cylinder radius must be positive")
    return _affine(a, 0.0, 0.0, 1.0, u_domain, "cylinder", {"a": a})


def cone(k: float, u_domain=(0.2, 2.0)) -> RevolutionProfile:
    return _affine(0.0, 1.0, 0.0, k, u_domain, "cone", {"k": k})


def slice_profile(z0: float = 0.0, u_domain=(0.2, 2.0)) -> RevolutionProfile:
    """The z = z0 slice, radially parametrised by the coordinate radius."""
    return _affine(0.0, 1.0, z0, 0.0, u_domain, "slice", {"z0": z0})


def _unit_slice(T, C, sign: float, sm: float, c: float, u_domain, name: str,
                m: float) -> RevolutionProfile:
    """The z = 0 slice at unit radial speed: f = T(x) / sm, f' = 1 / C(x)^2
    and f'' = sign 2 sm T(x) / C(x)^2 with x = sm u + c, where (T, C) is
    (tan, cos) or (tanh, cosh), each given as its (math, numpy) pair."""
    k = sign * 2.0 * sm

    def f(u):
        return T[type(u) is _ND](sm * u + c) / sm

    def fp(u):
        return 1.0 / C[type(u) is _ND](sm * u + c) ** 2

    def fpp(u):
        nd = type(u) is _ND
        return k * T[nd](sm * u + c) / C[nd](sm * u + c) ** 2

    return RevolutionProfile(
        f=f,
        fp=fp,
        fpp=fpp,
        g=_const(0.0),
        gp=_const(0.0),
        gpp=_const(0.0),
        u_domain=tuple(u_domain),
        name=name,
        args={"m": m, "c": c},
    )


def tan_profile(m: float, c: float = 0.0, u_domain=(0.1, 1.0)) -> RevolutionProfile:
    """Slice profile at unit radial speed for m > 0: f = tan(sqrt(m) u + c)/sqrt(m)."""
    if m <= 0.0:
        raise ValueError("tan profile requires m > 0")
    sm = math.sqrt(m)
    lo, hi = u_domain
    if not (-0.5 * math.pi < sm * lo + c and sm * hi + c < 0.5 * math.pi):
        raise ValueError("tan profile domain must stay inside one tangent branch")
    return _unit_slice((math.tan, np.tan), (math.cos, np.cos), 1.0, sm, c, u_domain, "tan", m)


def tanh_profile(m: float, c: float = 0.5, u_domain=(0.1, 1.5)) -> RevolutionProfile:
    """Slice profile at unit radial speed for m < 0: f = tanh(sqrt(-m) u + c)/sqrt(-m)."""
    if m >= 0.0:
        raise ValueError("tanh profile requires m < 0")
    sm = math.sqrt(-m)
    lo, _ = u_domain
    if sm * lo + c <= 0.0:
        raise ValueError("tanh profile needs sqrt(-m) u + c > 0 on the domain")
    return _unit_slice((math.tanh, np.tanh), (math.cosh, np.cosh), -1.0, sm, c, u_domain, "tanh", m)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _quad(fn, a: float, b: float) -> float:
    """Composite Gauss-Legendre quadrature, panels of width <= 1.5, with one
    array call of fn at the nodes of every panel (panel by panel, each in
    ascending order)."""
    if a == b:
        return 0.0
    n_panels = max(1, int(math.ceil(abs(b - a) / 1.5)))
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = 0.5 * (edges[:-1] + edges[1:])[:, None] + half[:, None] * _GL_NODES
    panels = np.sum(_on_array(fn, nodes) * _GL_WEIGHTS, axis=1)
    return float(np.sum(half * panels))


_NEGATIVE_RADICAND = "negative radicand at u = {!r}: profile is not unit-compatible"
_SINGULAR_GPP = "g'' is singular at u = {!r}: f'^2 = (1 + m f^2)^2 there"


def _unit_radicand(d2, fp2, u, nonzero: bool = False):
    """Arc-length radicand d2 - fp2 at u, from d2 = (1 + m f^2)^2 and
    fp2 = f'^2, floats or arrays.  Raises ValueError where it is negative
    beyond rounding; within rounding of zero (tan/tanh slices) it is 0.0, as
    its square root would amplify the cancellation noise to ~1e-8, and with
    `nonzero` a radicand of 0.0 raises as well (g'' is singular there).  An
    array u raises at its first such entry, in array order."""
    rad = d2 - fp2
    scale = d2 + fp2
    if type(u) is _ND:
        negative = np.less(rad, -1e-12 * scale)
        rad = np.where(rad < 1e-13 * scale, 0.0, rad)
        bad = negative | (rad == 0.0) if nonzero else negative
        if bad.any():
            i = np.broadcast_to(bad, u.shape).argmax()
            message = _NEGATIVE_RADICAND if np.broadcast_to(negative, u.shape).flat[i] else _SINGULAR_GPP
            raise ValueError(message.format(float(u.flat[i])))
        return rad
    if rad < -1e-12 * scale:
        raise ValueError(_NEGATIVE_RADICAND.format(u))
    if rad < 1e-13 * scale:
        rad = 0.0
    if nonzero and rad == 0.0:
        raise ValueError(_SINGULAR_GPP.format(u))
    return rad


def unit_speed_profile(
    f, fp, fpp, m: float, u_domain, name: str = "unit", args: dict | None = None
) -> RevolutionProfile:
    """Profile with the height derived from the arc-length normalisation.

    g' = sqrt(R) / d >= 0 with d = 1 + m f^2 and R = d^2 - f'^2, g(u_lo) = 0,
    and g'' = (d d' - f' f'') / (sqrt(R) d) - sqrt(R) d' / d^2 with
    d' = 2 m f f'; the radicand R must stay nonnegative on the domain, and
    g'' raises ValueError where R vanishes, as it is singular there.  f, f'
    and f'' must take a float or an ndarray, as every profile callable does.
    """

    def gp(u):
        d = 1.0 + m * f(u) ** 2
        return (np if type(u) is _ND else math).sqrt(_unit_radicand(d * d, fp(u) ** 2, u)) / d

    def gpp(u):
        fv, fpv = f(u), fp(u)
        d = 1.0 + m * fv * fv
        sr = (np if type(u) is _ND else math).sqrt(_unit_radicand(d * d, fpv * fpv, u, True))
        dp = 2.0 * m * fv * fpv
        return (d * dp - fpv * fpp(u)) / (sr * d) - sr * dp / (d * d)

    lo = u_domain[0]

    def g(u):
        if type(u) is _ND:
            return np.array([_quad(gp, lo, x) for x in u.ravel().tolist()]).reshape(u.shape)
        return _quad(gp, lo, u)

    return RevolutionProfile(
        f=f,
        fp=fp,
        fpp=fpp,
        g=g,
        gp=gp,
        gpp=gpp,
        u_domain=tuple(u_domain),
        name=name,
        args=dict(args or {}),
    )


def random_profile(
    params: MetricParams, rng: np.random.Generator, u_domain=(-2.0, 2.0)
) -> RevolutionProfile:
    """Random unit-speed profile f = a + b sin(om u + phi) with mild wiggles.

    Amplitude, frequency and baseline are kept small enough that f stays
    positive, the unit-compatibility radicand stays positive, and for
    m < 0 the surface stays inside the disk; the bounds hold on any
    u_domain.
    """
    m = params.m
    if m < 0.0:
        # f' grows with a; uncapped as m -> 0-, f'^2 would pass (1 + m f^2)^2.
        # With the cap, f' <= 0.58 while 1 + m f^2 >= 0.66.
        cap = min(0.8 / math.sqrt(-m), 6.0)
        a = rng.uniform(0.35, 0.6) * cap
        b = rng.uniform(0.05, 0.2) * a
    else:
        scale = 1.0 / math.sqrt(1.0 + m)
        a = rng.uniform(0.8, 1.4) * scale
        b = rng.uniform(0.05, 0.15) * a
    om = rng.uniform(0.4, 0.8)
    phi = rng.uniform(0.0, 2.0 * math.pi)

    def f(u):
        return a + b * (np if type(u) is _ND else math).sin(om * u + phi)

    def fp(u):
        return b * om * (np if type(u) is _ND else math).cos(om * u + phi)

    def fpp(u):
        return -b * om * om * (np if type(u) is _ND else math).sin(om * u + phi)

    return unit_speed_profile(
        f, fp, fpp, m, u_domain, name="random", args={"a": a, "b": b, "om": om, "phi": phi}
    )
