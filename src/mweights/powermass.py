"""Integrals of |x|^a over intervals, balls, rectangles, and rect/ball caps.

Everything here is exact up to floating point for n = 1 and for balls in any
dimension. Planar rectangles (with or without a ball cap) are reduced to
piecewise-analytic one-dimensional polar integrals and evaluated with a fixed
graded Gauss rule (:class:`PlanarPlan`); the radial integral is in closed
form, so the singularity of |x|^a at the origin never meets a quadrature node.

Every form works on whole arrays, in two steps. A plan holds the
exponent-free geometry of fixed regions: :class:`IntervalPlan` the origin
split of many intervals and each part's log ratio, :class:`PlanarPlan` the
axis split of many rectangles and their graded polar pieces and rays, and
:class:`RectRulePlan` the nodes of a cheaper fixed tensor Gauss-Legendre
rule for planar rectangles away from the origin. Its ``masses`` method then
runs only the exponent step, once per exponent; :func:`power_mass` is the
one-region case. Every rule adds its nodes in one fixed order, so a
region's mass has the same bits whichever other regions share its call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "Interval",
    "IntervalPlan",
    "Ball",
    "PlanarPlan",
    "Rect",
    "RectRulePlan",
    "power_mass",
    "unit_sphere_area",
]

# rule for each graded piece of the polar integrals
_POLAR_NODES, _POLAR_WEIGHTS = np.polynomial.legendre.leggauss(16)

# tensor rule for rectangles away from the origin, evaluated in blocks of
# rectangles of at most _RULE_BLOCK node values so the temporaries stay a
# fixed size
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


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n (2 for n=1, 2*pi for n=2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


class _Rays:
    """The exponent-free part of (far^s - near^s)/s for far = near + gap,
    0 <= near, 0 < gap: log(far/near), taken as log1p(gap/near) so that thin
    gaps stay exact, and where near == 0."""

    def __init__(self, near: np.ndarray, gap: np.ndarray):
        zero = near == 0.0
        self.near, self.gap, self.zero = near, gap, np.flatnonzero(zero)
        self.logr = np.log1p(gap / np.where(zero, 1.0, near))

    def masses(self, s: float) -> np.ndarray:
        """(far^s - near^s)/s, stable for tiny s; near == 0 requires s > 0."""
        if s == 0.0:
            return self.logr
        out = self.near**s * np.expm1(s * self.logr) / s
        out[self.zero] = self.gap[self.zero] ** s / s
        return out


class IntervalPlan:
    """The integral of |x|^a over fixed intervals [lo, hi], 0 where
    hi <= lo: the plan holds the exponent-free part, and :meth:`masses`
    takes one exponent.

    Each interval is split at the origin and its negative part reflected;
    :meth:`masses` then takes the closed form on the kept parts of both
    halves as one array, and adds each interval's negative part to its
    positive one.
    """

    def __init__(self, lo, hi):
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        self.shape, parts = lo.shape, []
        for base, top in ((np.maximum(lo, 0.0), hi), (np.maximum(-hi, 0.0), -lo)):
            keep = (top > base).ravel()
            parts.append((np.flatnonzero(keep), base.ravel()[keep], top.ravel()[keep]))
        (self.pos, b0, t0), (self.neg, b1, t1) = parts
        self.rays = _Rays(np.concatenate([b0, b1]), np.concatenate([t0 - b0, t1 - b1]))

    def masses(self, a: float) -> np.ndarray:
        s = a + 1.0
        if s <= 0.0 and self.rays.zero.size:
            raise ValueError(f"exponent {s - 1.0!r} is not integrable at the origin")
        parts = self.rays.masses(s)
        out = np.zeros(self.shape)
        flat = out.reshape(-1)
        flat[self.pos] = parts[: len(self.pos)]
        flat[self.neg] += parts[len(self.pos) :]
        return out


def _node_sum(v: np.ndarray) -> np.ndarray:
    """sum_k w_k v[k] over the 12 tensor-rule nodes on the leading axis of v,
    in place and in one fixed order, so each entry's bits depend on its own
    nodes only (a matrix-vector product may order them by the entry's row).
    The weights are symmetric: mirrored nodes are added before one product
    weights both, and the six weighted planes are then added by halves."""
    n = len(v) // 2
    v[:n] += v[: n - 1 : -1]
    v = v[:n]
    v *= _RULE_WEIGHTS[:n].reshape((n,) + (1,) * (v.ndim - 1))
    while n > 1:
        v[: n // 2] += v[n - n // 2 : n]
        n -= n // 2
    return v[0]


class RectRulePlan:
    """A 12 x 12 tensor Gauss-Legendre rule for the integral of |x|^a over
    the rectangles [x0[i], x1[i]] x [y0[j], y1[j]]; the plan holds the
    squared nodes along each axis and the areas.

    The rule is accurate to a few ulps on rectangles whose distance from the
    origin is at least their longest side; nearer rectangles need
    :class:`PlanarPlan`. A rectangle's value does not depend on the others
    of the call.
    """

    def __init__(self, x0, x1, y0, y1):
        x0, x1, y0, y1 = (np.asarray(v, dtype=float) for v in (x0, x1, y0, y1))
        self.xsq, self.ysq = (
            (0.5 * (lo + hi) + 0.5 * (hi - lo) * _RULE_NODES[:, None]) ** 2
            for lo, hi in ((x0, x1), (y0, y1))
        )
        self.sx, self.sy = 0.25 * (x1 - x0), y1 - y0

    def masses(self, a: float, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The rule on the rectangles (i[k], j[k]) only, in blocks of at most
        _RULE_BLOCK node values."""
        out = np.empty(len(i))
        cells = max(1, _RULE_BLOCK // len(_RULE_NODES) ** 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            for c in range(0, len(i), cells):
                # r2[l, k, cell] = |(x node k, y node l)|^2: the sums add planes
                r2 = self.xsq.take(i[c : c + cells], axis=1)
                r2 = r2 + self.ysq.take(j[c : c + cells], axis=1)[:, None]
                np.power(r2, 0.5 * a, out=r2)
                out[c : c + cells] = _node_sum(_node_sum(r2))
        return out * self.sx[i] * self.sy[j]


def _ball_mass(a: float, radius: float, n: int) -> float:
    if radius < 0.0:
        raise ValueError("ball radius must be nonnegative")
    if radius == 0.0:
        return 0.0
    s = a + n
    if s <= 0.0:
        raise ValueError(f"|x|^{a} is not integrable on a ball in n={n}")
    return unit_sphere_area(n) * radius**s / s


def _octant_pieces(x0, x1, y0, y1, radius):
    """The exponent-free part of the polar integral of (far^s - near^s)/s
    over the angles t <= pi/4 of each first-quadrant rectangle capped by its
    ball: every graded piece's rectangle and half width, and the rays at its
    nodes that meet the rectangle.

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
    ok = far > near
    return rect, half, ok, _Rays(near[ok], gap[ok])


class PlanarPlan:
    """The integral of |x|^a over fixed rectangles [x0, x1] x [y0, y1]
    capped by B(0, radius): the plan holds the exponent-free part, and
    :meth:`masses` takes one exponent.

    Each rectangle is split at the axes and its four parts reflected into
    the first quadrant. Empty parts, and parts outside the ball, have mass
    0. The part of a kept one above the diagonal is the part below it of the
    mirrored rectangle [y0, y1] x [x0, x1], so both halves go through one
    polar rule on [0, pi/4] (:func:`_octant_pieces`). :meth:`masses` adds
    the four parts in the order (+x, +y), (+x, -y), (-x, +y), (-x, -y).
    """

    def __init__(self, x0, x1, y0, y1, radius=math.inf):
        x0, x1, y0, y1, radius = np.broadcast_arrays(
            *(np.asarray(v, dtype=float) for v in (x0, x1, y0, y1, radius))
        )
        xs, ys = (
            [(np.maximum(u, 0.0), np.maximum(v, 0.0)), (np.maximum(-v, 0.0), np.maximum(-u, 0.0))]
            for u, v in ((x0, x1), (y0, y1))
        )
        parts = [(*xx, *yy) for xx in xs for yy in ys]
        x0, x1, y0, y1 = (np.stack(edge) for edge in zip(*parts))
        radius = np.stack([radius] * 4)
        self.keep = (x1 > x0) & (y1 > y0) & (np.hypot(x0, y0) < radius)
        self.kept = int(np.count_nonzero(self.keep))
        if self.kept:
            x0, x1, y0, y1, radius = (v[self.keep] for v in (x0, x1, y0, y1, radius))
            self.origin = bool(np.any((x0 == 0.0) & (y0 == 0.0)))
            below_and_mirrored = ((x0, y0), (x1, y1), (y0, x0), (y1, x1), (radius, radius))
            pieces = _octant_pieces(*(np.concatenate(pair) for pair in below_and_mirrored))
            self.rect, self.half, self.ok, self.rays = pieces

    def masses(self, a: float) -> np.ndarray:
        """Raises ValueError when a part has a corner at the origin and a <= -2."""
        q = np.zeros(self.keep.shape)
        if self.kept:
            if a + 2.0 <= 0.0 and self.origin:
                raise ValueError(f"|x|^{a} is not integrable at the origin in n=2")
            vals = np.zeros(self.ok.shape)
            vals[self.ok] = self.rays.masses(a + 2.0)
            # add each piece's weighted nodes in one fixed order: a
            # matrix-vector product may order them by the piece's row, and a
            # cell's bits would then depend on the other cells of the call
            vals *= _POLAR_WEIGHTS
            total = vals[:, 0].copy()
            for k in range(1, vals.shape[1]):
                total += vals[:, k]
            halves = np.bincount(self.rect, weights=total * self.half, minlength=2 * self.kept)
            q[self.keep] = halves[: self.kept] + halves[self.kept :]
        return ((q[0] + q[1]) + q[2]) + q[3]


def power_mass(a: float, region) -> float:
    """Integral of |x|^a over the region.

    Closed forms for intervals and balls; the graded polar rule of
    :class:`PlanarPlan` for planar rectangles. Raises ValueError when
    |x|^a is not integrable on the region (exponent a <= -n with the origin
    inside).
    """
    if isinstance(region, Ball):
        return _ball_mass(a, region.radius, region.n)
    if isinstance(region, Interval):
        lo, hi = (region.lo,), (region.hi,)
    elif isinstance(region, Rect):
        lo, hi = region.lo, region.hi
    else:
        raise TypeError(f"unsupported region type: {type(region).__name__}")
    if len(lo) == 1:
        return float(IntervalPlan(lo[0], hi[0]).masses(a))
    if len(lo) == 2:
        return float(PlanarPlan(lo[0], hi[0], lo[1], hi[1]).masses(a))
    raise NotImplementedError("rectangle masses are implemented for n <= 2")
