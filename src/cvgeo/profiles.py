"""Generating profiles (f, g) of rotational surfaces about the z axis.

A profile provides smooth callables for the radius f > 0 and the height g
together with the derivatives f', f'', g' and g''.
Built-ins:

    cylinder(a)          f = a,        g = u
    cone(k)              f = u,        g = k u
    slice_profile(z0)    f = u,        g = z0           (a z = const slice)
    tan_profile(m, c)    f = tan(sqrt(m) u + c)/sqrt(m),   g = const, m > 0
    tanh_profile(m, c)   f = tanh(sqrt(-m) u + c)/sqrt(-m), g = const, m < 0

The tan/tanh profiles are the z = const slices reparametrised at unit
radial speed in the induced metric; with them, and with any profile built
by `unit_speed_profile` or `random_profile`, the arc-length normalisation

    f'^2 / (1 + m f^2)^2 + g'^2 = 1

holds.  The geodesic criteria of `cvgeo.surfaces` do not need it: they
read the induced metric (E, F, G) of any immersed profile.  The height of
a unit-speed profile is recovered by Gauss-Legendre quadrature of g' when
it is actually needed (the ambient metric never depends on z).
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

    f: Callable[[float], float]
    fp: Callable[[float], float]
    fpp: Callable[[float], float]
    g: Callable[[float], float]
    gp: Callable[[float], float]
    gpp: Callable[[float], float]
    u_domain: tuple[float, float]
    name: str = "profile"
    args: dict = field(default_factory=dict)

    def contains(self, u: float) -> bool:
        lo, hi = self.u_domain
        return lo <= u <= hi

    def grid(self, n: int = 256) -> np.ndarray:
        lo, hi = self.u_domain
        return np.linspace(lo, hi, n)


def validate_profile(params: MetricParams, profile: RevolutionProfile) -> None:
    """Check u_min < u_max, and f > 0 and, for m < 0, f^2 < -1/m on a
    64-point grid of the domain."""
    lo, hi = profile.u_domain
    if not lo < hi:
        raise ValueError(f"profile domain needs u_min < u_max; got [{lo!r}, {hi!r}]")
    for u in profile.grid(64):
        u = float(u)
        fv = float(profile.f(u))
        if not fv > 0.0:
            raise ValueError(f"profile radius must be positive; f({u!r}) = {fv!r}")
        if params.m < 0.0 and fv * fv >= -1.0 / params.m:
            raise ValueError(
                f"profile leaves the m < 0 disk: f({u!r})^2 = {fv * fv!r} >= {-1.0 / params.m!r}"
            )


def cylinder(a: float, u_domain=(-2.0, 2.0)) -> RevolutionProfile:
    if a <= 0.0:
        raise ValueError("cylinder radius must be positive")
    return RevolutionProfile(
        f=lambda u: a,
        fp=lambda u: 0.0,
        fpp=lambda u: 0.0,
        g=lambda u: u,
        gp=lambda u: 1.0,
        gpp=lambda u: 0.0,
        u_domain=tuple(u_domain),
        name="cylinder",
        args={"a": a},
    )


def cone(k: float, u_domain=(0.2, 2.0)) -> RevolutionProfile:
    return RevolutionProfile(
        f=lambda u: u,
        fp=lambda u: 1.0,
        fpp=lambda u: 0.0,
        g=lambda u: k * u,
        gp=lambda u: k,
        gpp=lambda u: 0.0,
        u_domain=tuple(u_domain),
        name="cone",
        args={"k": k},
    )


def slice_profile(z0: float = 0.0, u_domain=(0.2, 2.0)) -> RevolutionProfile:
    """The z = z0 slice, radially parametrised by the coordinate radius."""
    return RevolutionProfile(
        f=lambda u: u,
        fp=lambda u: 1.0,
        fpp=lambda u: 0.0,
        g=lambda u: z0,
        gp=lambda u: 0.0,
        gpp=lambda u: 0.0,
        u_domain=tuple(u_domain),
        name="slice",
        args={"z0": z0},
    )


def tan_profile(m: float, c: float = 0.0, u_domain=(0.1, 1.0)) -> RevolutionProfile:
    """Slice profile at unit radial speed for m > 0: f = tan(sqrt(m) u + c)/sqrt(m)."""
    if m <= 0.0:
        raise ValueError("tan profile requires m > 0")
    sm = math.sqrt(m)
    lo, hi = u_domain
    if not (-0.5 * math.pi < sm * lo + c and sm * hi + c < 0.5 * math.pi):
        raise ValueError("tan profile domain must stay inside one tangent branch")
    return RevolutionProfile(
        f=lambda u: math.tan(sm * u + c) / sm,
        fp=lambda u: 1.0 / math.cos(sm * u + c) ** 2,
        fpp=lambda u: 2.0 * sm * math.tan(sm * u + c) / math.cos(sm * u + c) ** 2,
        g=lambda u: 0.0,
        gp=lambda u: 0.0,
        gpp=lambda u: 0.0,
        u_domain=tuple(u_domain),
        name="tan",
        args={"m": m, "c": c},
    )


def tanh_profile(m: float, c: float = 0.5, u_domain=(0.1, 1.5)) -> RevolutionProfile:
    """Slice profile at unit radial speed for m < 0: f = tanh(sqrt(-m) u + c)/sqrt(-m)."""
    if m >= 0.0:
        raise ValueError("tanh profile requires m < 0")
    sm = math.sqrt(-m)
    lo, _ = u_domain
    if sm * lo + c <= 0.0:
        raise ValueError("tanh profile needs sqrt(-m) u + c > 0 on the domain")
    return RevolutionProfile(
        f=lambda u: math.tanh(sm * u + c) / sm,
        fp=lambda u: 1.0 / math.cosh(sm * u + c) ** 2,
        fpp=lambda u: -2.0 * sm * math.tanh(sm * u + c) / math.cosh(sm * u + c) ** 2,
        g=lambda u: 0.0,
        gp=lambda u: 0.0,
        gpp=lambda u: 0.0,
        u_domain=tuple(u_domain),
        name="tanh",
        args={"m": m, "c": c},
    )


# Held as Python floats, so the profile callables run on float, not np.float64.
_GL_RULE = list(zip(*(c.tolist() for c in np.polynomial.legendre.leggauss(24))))


def _quad(fn, a: float, b: float) -> float:
    """Composite Gauss-Legendre quadrature, panels of width <= 1.5."""
    if a == b:
        return 0.0
    n_panels = max(1, int(math.ceil(abs(b - a) / 1.5)))
    edges = np.linspace(a, b, n_panels + 1).tolist()
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        panel = 0.0
        for x, w in _GL_RULE:
            panel += w * fn(mid + half * x)
        total += half * panel
    return total


def _unit_radicand(d2: float, fp2: float, u: float) -> float:
    """Arc-length radicand d2 - fp2 at u, from d2 = (1 + m f^2)^2 and
    fp2 = f'^2.  Raises ValueError where it is negative beyond rounding;
    within rounding of zero (tan/tanh slices) it is 0.0, as its square root
    would amplify the cancellation noise to ~1e-8."""
    rad = d2 - fp2
    scale = d2 + fp2
    if rad < -1e-12 * scale:
        raise ValueError(f"negative radicand at u = {u!r}: profile is not unit-compatible")
    return 0.0 if rad < 1e-13 * scale else rad


def unit_speed_profile(
    f, fp, fpp, m: float, u_domain, name: str = "unit", args: dict | None = None
) -> RevolutionProfile:
    """Profile with the height derived from the arc-length normalisation.

    g' = sqrt(R) / d >= 0 with d = 1 + m f^2 and R = d^2 - f'^2, g(u_lo) = 0,
    and g'' = (d d' - f' f'') / (sqrt(R) d) - sqrt(R) d' / d^2 with
    d' = 2 m f f'; the radicand R must stay nonnegative on the domain, and
    g'' raises ValueError where R vanishes, as it is singular there.
    """

    def gp(u: float) -> float:
        d = 1.0 + m * f(u) ** 2
        return math.sqrt(_unit_radicand(d * d, fp(u) ** 2, u)) / d

    def gpp(u: float) -> float:
        fv, fpv = f(u), fp(u)
        d = 1.0 + m * fv * fv
        rad = _unit_radicand(d * d, fpv * fpv, u)
        if rad == 0.0:
            raise ValueError(f"g'' is singular at u = {u!r}: f'^2 = (1 + m f^2)^2 there")
        sr = math.sqrt(rad)
        dp = 2.0 * m * fv * fpv
        return (d * dp - fpv * fpp(u)) / (sr * d) - sr * dp / (d * d)

    lo = u_domain[0]

    def g(u: float) -> float:
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

    def f(u: float) -> float:
        return a + b * math.sin(om * u + phi)

    def fp(u: float) -> float:
        return b * om * math.cos(om * u + phi)

    def fpp(u: float) -> float:
        return -b * om * om * math.sin(om * u + phi)

    return unit_speed_profile(
        f, fp, fpp, m, u_domain, name="random", args={"a": a, "b": b, "om": om, "phi": phi}
    )
