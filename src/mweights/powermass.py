"""Integrals of |x|^a over intervals, balls, rectangles, and rect/ball caps.

Everything here is exact up to floating point for n = 1 and for balls in any
dimension. Planar rectangles (with or without a ball cap) are reduced to
piecewise-analytic one-dimensional polar integrals and evaluated with adaptive
Gauss quadrature; origin-touching pieces use the exact radial antiderivative,
so the singularity of |x|^a never meets a quadrature node.

The array forms serve whole lattices: :func:`interval_masses` is the closed
form over many intervals at once, and :func:`rect_gauss_masses` a fixed
tensor Gauss-Legendre rule for planar rectangles away from the origin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "Interval",
    "Ball",
    "Rect",
    "RectInBall",
    "depth_cap_hits",
    "interval_masses",
    "power_mass",
    "rect_gauss_masses",
    "unit_sphere_area",
]

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(32)
_MAX_DEPTH = 48
# panels that stopped at _MAX_DEPTH without meeting their tolerance
_depth_cap_hits = 0

# tensor rule for rectangles away from the origin, evaluated in row blocks of
# at most _RULE_BLOCK node values so the temporaries stay a fixed size
_RULE_NODES, _RULE_WEIGHTS = np.polynomial.legendre.leggauss(12)
_RULE_BLOCK = 1 << 17


@dataclass(frozen=True)
class Interval:
    """One-dimensional interval [lo, hi]."""

    lo: float
    hi: float


@dataclass(frozen=True)
class Ball:
    """Euclidean ball of the given radius centered at the origin."""

    radius: float
    n: int


@dataclass(frozen=True)
class Rect:
    """Axis-aligned box given by opposite corners."""

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]


@dataclass(frozen=True)
class RectInBall:
    """Intersection of an axis-aligned box with a ball at the origin."""

    lo: Tuple[float, ...]
    hi: Tuple[float, ...]
    radius: float


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2 for n=1, 2*pi for n=2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _power_diff(base: float, top: float, s: float) -> float:
    """(top^s - base^s)/s for 0 <= base < top, stable for tiny s.

    s == 0 returns log(top/base). base == 0 requires s > 0.
    """
    if base == 0.0:
        if s <= 0.0:
            raise ValueError(f"exponent {s - 1.0!r} is not integrable at the origin")
        return top**s / s
    if s == 0.0:
        return math.log(top / base)
    return base**s * math.expm1(s * math.log(top / base)) / s


def _power_diffs(base: np.ndarray, top: np.ndarray, s: float) -> np.ndarray:
    """Elementwise :func:`_power_diff` for 0 <= base < top, with numpy."""
    zero = base == 0.0
    if s <= 0.0 and np.any(zero):
        raise ValueError(f"exponent {s - 1.0!r} is not integrable at the origin")
    if s == 0.0:
        return np.log(top / base)
    with np.errstate(divide="ignore"):
        logr = np.where(zero, 0.0, np.log(top / np.where(zero, 1.0, base)))
    return np.where(zero, top**s / s, base**s * np.expm1(s * logr) / s)


def interval_masses(a: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of |x|^a over every interval [lo[k], hi[k]]; 0 where hi <= lo.

    Each interval is split at the origin and its negative part reflected, so
    both parts take the closed form of :func:`_power_diff` on whole arrays.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    out = np.zeros(lo.shape)
    for base, top in ((np.maximum(lo, 0.0), hi), (np.maximum(-hi, 0.0), -lo)):
        keep = top > base
        if np.any(keep):
            out[keep] += _power_diffs(base[keep], top[keep], a + 1.0)
    return out


def rect_gauss_masses(a: float, x0, x1, y0, y1) -> np.ndarray:
    """Integral of |x|^a over every rectangle [x0[i], x1[i]] x [y0[j], y1[j]].

    A 12 x 12 tensor Gauss-Legendre rule, accurate to a few ulps on
    rectangles whose distance from the origin is at least their longest
    side. Nearer rectangles need :func:`power_mass`.
    """
    x0, x1, y0, y1 = (np.asarray(v, dtype=float) for v in (x0, x1, y0, y1))
    xs = 0.5 * (x0 + x1)[:, None] + 0.5 * (x1 - x0)[:, None] * _RULE_NODES
    ys = 0.5 * (y0 + y1)[:, None] + 0.5 * (y1 - y0)[:, None] * _RULE_NODES
    ysq = (ys * ys).reshape(-1)
    out = np.empty((len(x0), len(y0)))
    rows = max(1, _RULE_BLOCK // (len(_RULE_NODES) * max(ysq.size, 1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(0, len(x0), rows):
            r2 = (xs[i : i + rows] ** 2)[:, :, None] + ysq
            np.power(r2, 0.5 * a, out=r2)
            by_y = r2.reshape(r2.shape[0], len(_RULE_NODES), len(y0), -1) @ _RULE_WEIGHTS
            out[i : i + rows] = _RULE_WEIGHTS @ by_y
        return out * (0.25 * (x1 - x0))[:, None] * (y1 - y0)


def _interval_mass(a: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    if lo >= 0.0:
        return _power_diff(lo, hi, a + 1.0)
    if hi <= 0.0:
        return _power_diff(-hi, -lo, a + 1.0)
    if a <= -1.0:
        raise ValueError(f"|x|^{a} is not integrable across the origin in n=1")
    return _power_diff(0.0, -lo, a + 1.0) + _power_diff(0.0, hi, a + 1.0)


def _ball_mass(a: float, radius: float, n: int) -> float:
    if radius < 0.0:
        raise ValueError("ball radius must be nonnegative")
    if radius == 0.0:
        return 0.0
    s = a + n
    if s <= 0.0:
        raise ValueError(f"|x|^{a} is not integrable on a ball in n={n}")
    return unit_sphere_area(n) * radius**s / s


def _radial_span(t: np.ndarray, x0, x1, y0, y1):
    """Entry/exit radii of rays at angles t through the first-quadrant rect."""
    c = np.cos(t)
    s = np.sin(t)
    near_x = np.where(x0 > 0.0, x0 / np.maximum(c, 1e-300), 0.0)
    near_y = np.where(y0 > 0.0, y0 / np.maximum(s, 1e-300), 0.0)
    far_x = x1 / np.maximum(c, 1e-300)
    far_y = y1 / np.maximum(s, 1e-300)
    return np.maximum(near_x, near_y), np.minimum(far_x, far_y)


def _quadrant_integrand(t: np.ndarray, a, x0, x1, y0, y1, radius) -> np.ndarray:
    s = a + 2.0
    near, far = _radial_span(t, x0, x1, y0, y1)
    far = np.minimum(far, radius)
    out = np.zeros_like(t)
    ok = far > near
    if np.any(ok):
        out[ok] = _power_diffs(near[ok], far[ok], s)
    return out


def _gauss_panel(f, lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(np.dot(_GAUSS_WEIGHTS, f(mid + half * _GAUSS_NODES)))


def depth_cap_hits() -> int:
    """Adaptive panels, since import, that stopped at the depth cap unconverged.

    Callers read it before and after a run; the difference is the run's count.
    """
    return _depth_cap_hits


def _adaptive(f, lo: float, hi: float, tol: float, depth: int = 0) -> float:
    global _depth_cap_hits
    whole = _gauss_panel(f, lo, hi)
    mid = 0.5 * (lo + hi)
    left = _gauss_panel(f, lo, mid)
    right = _gauss_panel(f, mid, hi)
    if abs(left + right - whole) <= tol:
        return left + right
    if depth >= _MAX_DEPTH:
        _depth_cap_hits += 1
        return left + right
    return _adaptive(f, lo, mid, tol / 2.0, depth + 1) + _adaptive(
        f, mid, hi, tol / 2.0, depth + 1
    )


def _quadrant_mass(a, x0, x1, y0, y1, radius, rel_tol) -> float:
    """Mass of |x|^a over [x0,x1]x[y0,y1] cap B(0,radius), first quadrant."""
    if x1 <= x0 or y1 <= y0:
        return 0.0
    if x0 * x0 + y0 * y0 >= radius * radius:
        return 0.0
    if x0 == 0.0 and y0 == 0.0 and a + 2.0 <= 0.0:
        raise ValueError(f"|x|^{a} is not integrable at the origin in n=2")
    t_lo = math.atan2(y0, x1)
    t_hi = math.atan2(y1, x0) if x0 > 0.0 or y1 == 0.0 else 0.5 * math.pi
    cuts = {t_lo, t_hi}
    for xx in (x0, x1):
        if 0.0 < xx < radius:
            cuts.add(math.acos(xx / radius))
        cuts.add(math.atan2(y0, xx) if xx > 0.0 else 0.5 * math.pi)
        cuts.add(math.atan2(y1, xx) if xx > 0.0 else 0.5 * math.pi)
    for yy in (y0, y1):
        if 0.0 < yy < radius:
            cuts.add(math.asin(yy / radius))
        if yy > 0.0:
            cuts.add(math.atan2(yy, x0))
            cuts.add(math.atan2(yy, x1))
    angles = sorted(t for t in cuts if t_lo <= t <= t_hi)
    if not angles or angles[0] > t_lo:
        angles.insert(0, t_lo)
    if angles[-1] < t_hi:
        angles.append(t_hi)

    def f(t):
        return _quadrant_integrand(np.asarray(t), a, x0, x1, y0, y1, radius)

    rough = sum(abs(_gauss_panel(f, u, v)) for u, v in zip(angles, angles[1:]))
    tol = max(rel_tol * max(rough, 1e-300), 1e-300)
    total = 0.0
    for u, v in zip(angles, angles[1:]):
        if v - u > 1e-15:
            total += _adaptive(f, u, v, tol * (v - u) / max(t_hi - t_lo, 1e-300))
    return total


def _axis_segments(lo: float, hi: float):
    """Split [lo, hi] at 0 and reflect to nonnegative segments."""
    segs = []
    if lo < 0.0:
        segs.append((max(0.0, -hi), -lo))
    if hi > 0.0:
        segs.append((max(0.0, lo), hi))
    return [(u, v) for u, v in segs if v > u]


def _rect2_mass(a, lo, hi, radius, rel_tol) -> float:
    total = 0.0
    for x0, x1 in _axis_segments(lo[0], hi[0]):
        for y0, y1 in _axis_segments(lo[1], hi[1]):
            total += _quadrant_mass(a, x0, x1, y0, y1, radius, rel_tol)
    return total


def power_mass(a: float, region, rel_tol: float = 1e-12) -> float:
    """Integral of |x|^a over the region.

    Closed forms for intervals and balls; adaptive piecewise-polar quadrature
    for planar rectangles. Raises ValueError when |x|^a is not integrable on
    the region (exponent a <= -n with the origin inside).
    """
    if isinstance(region, Interval):
        return _interval_mass(a, region.lo, region.hi)
    if isinstance(region, Ball):
        return _ball_mass(a, region.radius, region.n)
    if isinstance(region, Rect):
        n = len(region.lo)
        if n == 1:
            return _interval_mass(a, region.lo[0], region.hi[0])
        if n == 2:
            return _rect2_mass(a, region.lo, region.hi, math.inf, rel_tol)
        raise NotImplementedError("rectangle masses are implemented for n <= 2")
    if isinstance(region, RectInBall):
        n = len(region.lo)
        if n == 1:
            lo = max(region.lo[0], -region.radius)
            hi = min(region.hi[0], region.radius)
            return _interval_mass(a, lo, hi) if hi > lo else 0.0
        if n == 2:
            return _rect2_mass(a, region.lo, region.hi, region.radius, rel_tol)
        raise NotImplementedError("ball-capped rectangles are implemented for n <= 2")
    raise TypeError(f"unsupported region type: {type(region).__name__}")
