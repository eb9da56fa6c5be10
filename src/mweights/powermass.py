"""Integrals of |x|^a over intervals, balls, rectangles, and rect/ball caps.

Everything here is exact up to floating point for n = 1 and for balls in any
dimension. Planar rectangles (with or without a ball cap) are reduced to
piecewise-analytic one-dimensional polar integrals and evaluated with a fixed
graded Gauss rule (:func:`quadrant_masses`); the radial integral is in closed
form, so the singularity of |x|^a at the origin never meets a quadrature node.

Every form works on whole arrays: :func:`interval_masses` is the closed form
over many intervals at once, :func:`planar_masses` the polar rule over many
rectangles, and :func:`rect_gauss_masses` a cheaper fixed tensor
Gauss-Legendre rule for planar rectangles away from the origin.
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
    "interval_masses",
    "planar_masses",
    "power_mass",
    "quadrant_masses",
    "rect_gauss_masses",
    "unit_sphere_area",
]

# rule for each graded piece of the polar integrals
_POLAR_NODES, _POLAR_WEIGHTS = np.polynomial.legendre.leggauss(16)

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


def _power_diffs(base: np.ndarray, top: np.ndarray, s: float) -> np.ndarray:
    """(top^s - base^s)/s for 0 <= base < top, elementwise and stable for tiny s
    and for thin intervals away from the origin.

    s == 0 gives log(top/base), taken as log1p((top - base)/base). base == 0
    requires s > 0.
    """
    if s <= 0.0 and np.any(base == 0.0):
        raise ValueError(f"exponent {s - 1.0!r} is not integrable at the origin")
    return _ray_masses(s, base, top - base)


def interval_masses(a: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of |x|^a over every interval [lo[k], hi[k]]; 0 where hi <= lo.

    Each interval is split at the origin and its negative part reflected, so
    both parts take the closed form of :func:`_power_diffs` on whole arrays.
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
    side. Nearer rectangles need :func:`planar_masses`.
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


def _ball_mass(a: float, radius: float, n: int) -> float:
    if radius < 0.0:
        raise ValueError("ball radius must be nonnegative")
    if radius == 0.0:
        return 0.0
    s = a + n
    if s <= 0.0:
        raise ValueError(f"|x|^{a} is not integrable on a ball in n={n}")
    return unit_sphere_area(n) * radius**s / s


def _ray_masses(s: float, near: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """(far^s - near^s)/s for far = near + gap, 0 <= near, 0 < gap.

    Stable for thin gaps and tiny s; near == 0 requires s > 0.
    """
    zero = near == 0.0
    logr = np.log1p(gap / np.where(zero, 1.0, near))
    if s == 0.0:
        return logr
    return np.where(zero, gap**s / s, near**s * np.expm1(s * logr) / s)


def _octant_masses(s: float, x0, x1, y0, y1, radius) -> np.ndarray:
    """Polar integral of (far^s - near^s)/s over the angles t <= pi/4 of
    each first-quadrant rectangle capped by its ball.

    On [0, pi/4] the angular integrand is analytic between the breakpoints
    below (corner angles and circle crossings); its nearest singularity is
    t = 0, from y/sin t. Each piece [u, v] is therefore graded geometrically
    toward 0, into ceil(log2(v/u)) sub-pieces no longer than their distance
    from 0, and every sub-piece takes one 16-point Gauss rule. A piece that
    starts at 0 is regular there and stays whole.
    """
    lo = np.arctan2(y0, x1)
    hi = np.minimum(np.arctan2(y1, x0), 0.25 * math.pi)
    cuts = np.stack(
        [
            lo,
            hi,
            np.arctan2(y0, x0),
            np.arctan2(y1, x1),
            np.arccos(np.minimum(x0 / radius, 1.0)),
            np.arccos(np.minimum(x1 / radius, 1.0)),
            np.arcsin(np.minimum(y0 / radius, 1.0)),
            np.arcsin(np.minimum(y1 / radius, 1.0)),
        ],
        axis=1,
    )
    cuts = np.sort(np.clip(cuts, lo[:, None], hi[:, None]), axis=1)
    u, v = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    rect = np.repeat(np.arange(len(lo)), cuts.shape[1] - 1)
    live = v > u
    u, v, rect = u[live], v[live], rect[live]

    graded = u > 0.0
    ratio = v / np.where(graded, u, 1.0)
    m = np.where(graded, np.maximum(np.ceil(np.log2(ratio)), 1.0), 1.0).astype(np.intp)
    piece = np.repeat(np.arange(len(u)), m)
    k = np.arange(len(piece)) - np.repeat(np.cumsum(m) - m, m)
    step = ratio[piece] ** (1.0 / m[piece])
    t0 = np.where(k == 0, u[piece], u[piece] * step**k)
    t1 = np.where(k + 1 == m[piece], v[piece], u[piece] * step ** (k + 1))

    rect = rect[piece]
    half = 0.5 * (t1 - t0)
    t = (0.5 * (t0 + t1))[:, None] + half[:, None] * _POLAR_NODES
    cos, sin = np.cos(t), np.sin(t)
    near_x, near_y = x0[rect, None] / cos, y0[rect, None] / sin
    far_x, far_y = x1[rect, None] / cos, y1[rect, None] / sin
    near = np.maximum(near_x, near_y)
    far = np.minimum(np.minimum(far_x, far_y), radius[rect, None])
    # between two parallel edges take the gap from the edges' difference, not
    # the difference of the two radii, which cancels on thin rectangles
    gap = np.where(
        (far == far_x) & (near == near_x),
        (x1 - x0)[rect, None] / cos,
        np.where((far == far_y) & (near == near_y), (y1 - y0)[rect, None] / sin, far - near),
    )
    vals = np.zeros(t.shape)
    ok = far > near
    vals[ok] = _ray_masses(s, near[ok], gap[ok])
    # add each piece's weighted nodes in one fixed order: a matrix-vector
    # product may order them by the piece's row, and a cell's bits would
    # then depend on the other cells of the call
    vals *= _POLAR_WEIGHTS
    total = vals[:, 0].copy()
    for k in range(1, vals.shape[1]):
        total += vals[:, k]
    return np.bincount(rect, weights=total * half, minlength=len(lo))


def quadrant_masses(a: float, x0, x1, y0, y1, radius=math.inf) -> np.ndarray:
    """Integral of |x|^a over every [x0, x1] x [y0, y1] cap B(0, radius).

    The rectangles lie in the closed first quadrant (0 <= x0, 0 <= y0); empty
    ones, and ones outside the ball, have mass 0. The part of a rectangle
    above the diagonal is the part below it of the mirrored rectangle
    [y0, y1] x [x0, x1], so both halves go through one polar rule on
    [0, pi/4] (:func:`_octant_masses`). Raises ValueError when a rectangle
    has a corner at the origin and a <= -2.
    """
    x0, x1, y0, y1, radius = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x0, x1, y0, y1, radius))
    )
    out = np.zeros(x0.shape)
    keep = (x1 > x0) & (y1 > y0) & (np.hypot(x0, y0) < radius)
    if not np.any(keep):
        return out
    x0, x1, y0, y1, radius = (v[keep] for v in (x0, x1, y0, y1, radius))
    if a + 2.0 <= 0.0 and np.any((x0 == 0.0) & (y0 == 0.0)):
        raise ValueError(f"|x|^{a} is not integrable at the origin in n=2")
    below_and_mirrored = ((x0, y0), (x1, y1), (y0, x0), (y1, x1), (radius, radius))
    halves = _octant_masses(a + 2.0, *(np.concatenate(pair) for pair in below_and_mirrored))
    out[keep] = halves[: len(x0)] + halves[len(x0) :]
    return out


def planar_masses(a: float, x0, x1, y0, y1, radius=math.inf) -> np.ndarray:
    """Integral of |x|^a over every [x0, x1] x [y0, y1] cap B(0, radius).

    Each rectangle is split at the axes and its four parts reflected into
    the first quadrant, stacked on a leading axis for one
    :func:`quadrant_masses` call, and added in the order (+x, +y),
    (+x, -y), (-x, +y), (-x, -y).
    """
    x0, x1, y0, y1, radius = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x0, x1, y0, y1, radius))
    )
    xs = [(np.maximum(x0, 0.0), np.maximum(x1, 0.0)), (np.maximum(-x1, 0.0), np.maximum(-x0, 0.0))]
    ys = [(np.maximum(y0, 0.0), np.maximum(y1, 0.0)), (np.maximum(-y1, 0.0), np.maximum(-y0, 0.0))]
    parts = [(*xx, *yy) for xx in xs for yy in ys]
    q = quadrant_masses(a, *(np.stack(edge) for edge in zip(*parts)), np.stack([radius] * 4))
    return ((q[0] + q[1]) + q[2]) + q[3]


def power_mass(a: float, region) -> float:
    """Integral of |x|^a over the region.

    Closed forms for intervals and balls; the graded polar rule of
    :func:`planar_masses` for planar rectangles. Raises ValueError when
    |x|^a is not integrable on the region (exponent a <= -n with the origin
    inside).
    """
    if isinstance(region, Ball):
        return _ball_mass(a, region.radius, region.n)
    if isinstance(region, Interval):
        lo, hi, radius = (region.lo,), (region.hi,), math.inf
    elif isinstance(region, Rect):
        lo, hi, radius = region.lo, region.hi, math.inf
    elif isinstance(region, RectInBall):
        lo, hi, radius = region.lo, region.hi, region.radius
    else:
        raise TypeError(f"unsupported region type: {type(region).__name__}")
    if len(lo) == 1:
        return float(interval_masses(a, max(lo[0], -radius), min(hi[0], radius)))
    if len(lo) == 2:
        return float(planar_masses(a, lo[0], hi[0], lo[1], hi[1], radius))
    raise NotImplementedError("rectangle masses are implemented for n <= 2")
