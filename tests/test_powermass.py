"""Oracle tests for exact power-law masses.

Expected values are frozen from closed forms computed independently of the
implementation (antiderivatives, polar integrals), plus a midpoint-rule
quadrature oracle for origin-free regions, and a 20-digit mpmath oracle for
the whole-lattice masses of ``Lattice.power_masses``.
"""
import functools
import math
import tracemalloc

import numpy as np
import pytest

from mweights.grid import Lattice, default_box
from mweights.powermass import (
    Ball,
    Interval,
    IntervalPlan,
    PlanarPlan,
    Rect,
    RectRulePlan,
    power_mass,
)


def rect_in_ball(a, lo, hi, radius):
    """The mass of |x|^a on the rectangle [lo, hi] cap B(0, radius), by the
    plan that ``Lattice.power_masses`` builds for a ``Ball`` support."""
    return float(PlanarPlan(lo[0], hi[0], lo[1], hi[1], radius).masses(a))


def midpoint_1d(a, lo, hi, cells=400_001):
    xs = np.linspace(lo, hi, cells + 1)
    mids = 0.5 * (xs[:-1] + xs[1:])
    return float(np.sum(np.abs(mids) ** a) * (hi - lo) / cells)


def midpoint_2d(a, lo, hi, cells=1201):
    xs = np.linspace(lo[0], hi[0], cells + 1)
    ys = np.linspace(lo[1], hi[1], cells + 1)
    mx = 0.5 * (xs[:-1] + xs[1:])
    my = 0.5 * (ys[:-1] + ys[1:])
    rr = np.hypot(mx[:, None], my[None, :])
    area = (hi[0] - lo[0]) * (hi[1] - lo[1]) / cells**2
    return float(np.sum(rr**a) * area)


def test_interval_frozen_values():
    # int_0^1 x^(eps-1) dx = 1/eps at eps = 1/4
    assert power_mass(-0.75, Interval(0.0, 1.0)) == pytest.approx(4.0, rel=1e-14)
    # int_0^1 x^(1/2) = 2/3
    assert power_mass(0.5, Interval(0.0, 1.0)) == pytest.approx(2.0 / 3.0, rel=1e-14)
    # int_1^4 x^(-1/2) = 2
    assert power_mass(-0.5, Interval(1.0, 4.0)) == pytest.approx(2.0, rel=1e-14)
    # logarithmic exponent
    assert power_mass(-1.0, Interval(1.0, math.e)) == pytest.approx(1.0, rel=1e-14)
    # interval crossing the origin: int_-1^2 |x|^(1/2) = (1 + 2^(3/2)) * 2/3
    want = (1.0 + 2.0**1.5) * 2.0 / 3.0
    assert power_mass(0.5, Interval(-1.0, 2.0)) == pytest.approx(want, rel=1e-14)
    # mirrored negative interval
    assert power_mass(-0.5, Interval(-4.0, -1.0)) == pytest.approx(2.0, rel=1e-14)


def test_interval_small_exponent_stability():
    # s = a+1 = 1e-12: naive b^s - a^s cancels catastrophically
    a = -1.0 + 1e-12
    got = power_mass(a, Interval(1.0, 4.0))
    # int_1^4 x^(s-1) dx = (4^s - 1)/s = log(4) + O(s)
    want = math.expm1(1e-12 * math.log(4.0)) / 1e-12
    assert got == pytest.approx(want, rel=1e-13)


def test_ball_frozen_values():
    assert power_mass(0.0, Ball(1.0, 2)) == pytest.approx(math.pi, rel=1e-14)
    assert power_mass(1.0, Ball(1.0, 2)) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-14)
    assert power_mass(-1.0, Ball(1.0, 2)) == pytest.approx(2.0 * math.pi, rel=1e-14)
    # n=1 ball is the symmetric interval
    assert power_mass(0.5, Ball(1.0, 1)) == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert power_mass(0.0, Ball(2.0, 3)) == pytest.approx(4.0 / 3.0 * math.pi * 8.0, rel=1e-14)


def test_non_integrable_rejected():
    with pytest.raises(ValueError):
        power_mass(-1.0, Interval(0.0, 1.0))
    with pytest.raises(ValueError):
        power_mass(-1.5, Interval(-1.0, 2.0))
    with pytest.raises(ValueError):
        power_mass(-2.0, Ball(1.0, 2))
    with pytest.raises(ValueError):
        power_mass(-2.5, Rect((0.0, 0.0), (1.0, 1.0)))


def test_rect_frozen_values():
    assert power_mass(0.0, Rect((0.0, 0.0), (2.0, 3.0))) == pytest.approx(6.0, rel=1e-12)
    # int_[0,1]^2 (x^2+y^2) = 2/3
    assert power_mass(2.0, Rect((0.0, 0.0), (1.0, 1.0))) == pytest.approx(2.0 / 3.0, rel=1e-12)
    # int_[0,1]^2 1/|x| = 2 log(1+sqrt(2))
    want = 2.0 * math.log(1.0 + math.sqrt(2.0))
    assert power_mass(-1.0, Rect((0.0, 0.0), (1.0, 1.0))) == pytest.approx(want, rel=1e-11)
    # origin interior: [-1,1]^2 is four reflected copies of the unit square
    assert power_mass(-1.0, Rect((-1.0, -1.0), (1.0, 1.0))) == pytest.approx(4.0 * want, rel=1e-11)


def test_rect_scaling_law():
    # mass(s * R) = s^(a+n) mass(R) exactly for power integrands
    for a in (-1.5, -0.5, 0.7, 2.0):
        base = power_mass(a, Rect((0.0, 0.0), (1.0, 2.0)))
        scaled = power_mass(a, Rect((0.0, 0.0), (0.25, 0.5)))
        assert scaled == pytest.approx(base * 0.25 ** (a + 2.0), rel=1e-10)


def test_rect_additivity():
    a = -1.7
    whole = power_mass(a, Rect((0.0, 0.0), (1.0, 1.0)))
    parts = (
        power_mass(a, Rect((0.0, 0.0), (0.5, 0.5)))
        + power_mass(a, Rect((0.5, 0.0), (1.0, 0.5)))
        + power_mass(a, Rect((0.0, 0.5), (0.5, 1.0)))
        + power_mass(a, Rect((0.5, 0.5), (1.0, 1.0)))
    )
    assert parts == pytest.approx(whole, rel=1e-10)


def test_rect_against_midpoint_oracle():
    # origin-free rects, agreement to 1e-8
    cases = [
        (-0.5, (0.5, 0.25), (1.5, 2.0)),
        (1.3, (1.0, 1.0), (2.0, 3.0)),
        (-2.5, (0.25, 0.5), (0.75, 1.25)),
    ]
    for a, lo, hi in cases:
        got = power_mass(a, Rect(lo, hi))
        want = midpoint_2d(a, lo, hi, cells=2401)
        assert got == pytest.approx(want, rel=1e-6)


def test_interval_against_midpoint_oracle():
    got = power_mass(-0.5, Interval(0.25, 1.75))
    want = midpoint_1d(-0.5, 0.25, 1.75)
    assert got == pytest.approx(want, rel=1e-8)


def test_rect_in_ball_frozen_values():
    # quarter disc: int 1/|x| over [0,1]^2 cap B(0,1) = pi/2
    got = rect_in_ball(-1.0, (0.0, 0.0), (1.0, 1.0), 1.0)
    assert got == pytest.approx(math.pi / 2.0, rel=1e-11)
    # a=0: area of the quarter disc
    got = rect_in_ball(0.0, (0.0, 0.0), (1.0, 1.0), 1.0)
    assert got == pytest.approx(math.pi / 4.0, rel=1e-11)
    # rect fully inside the ball reduces to the plain rect mass
    inside = rect_in_ball(-0.5, (0.1, 0.1), (0.3, 0.2), 5.0)
    plain = power_mass(-0.5, Rect((0.1, 0.1), (0.3, 0.2)))
    assert inside == pytest.approx(plain, rel=1e-12)
    # rect fully outside
    assert rect_in_ball(1.0, (2.0, 2.0), (3.0, 3.0), 1.0) == 0.0


def test_rect_in_ball_against_midpoint_oracle():
    a, lo, hi, r = -0.5, (0.25, -0.5), (1.25, 0.75), 1.1
    xs = np.linspace(lo[0], hi[0], 4001 + 1)
    ys = np.linspace(lo[1], hi[1], 4001 + 1)
    mx = 0.5 * (xs[:-1] + xs[1:])
    my = 0.5 * (ys[:-1] + ys[1:])
    rr = np.hypot(mx[:, None], my[None, :])
    area = (hi[0] - lo[0]) * (hi[1] - lo[1]) / 4001**2
    want = float(np.sum(np.where(rr <= r, rr**a, 0.0)) * area)
    got = rect_in_ball(a, lo, hi, r)
    assert got == pytest.approx(want, rel=2e-4)


def test_interval_in_ball_one_dim():
    # n=1: a Ball support clips each cell to [-r, r]; the cells of
    # [-2, 0.5] at L = 3 then hold the mass of [-1, 0.5]
    masses = Lattice(default_box(1), 3).power_masses(0.5, Ball(1.0, 1))
    got = float(np.sum(masses[:5]))
    want = power_mass(0.5, Interval(-1.0, 0.5))
    assert got == pytest.approx(want, rel=1e-14)


# ------------------------------------------------- 20-digit mpmath oracle
#
# A naive nested mpmath.quad cannot resolve the singularity at the origin
# cells or the kinks where the circle of a ball support crosses a cell, so
# the oracle avoids both: origin cells go through the one-dimensional polar
# form, and elsewhere the outer integral is split at R and wherever the
# circle crosses a cell edge, with the inner integral in closed form (a
# hypergeometric function).

CELL_RTOL = 1e-13


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(20):
        yield mpmath


def _segments(lo, hi):
    """[lo, hi] split at 0 and reflected to nonnegative segments."""
    segs = []
    if lo < 0.0:
        segs.append((max(0.0, -hi), -lo))
    if hi > 0.0:
        segs.append((max(0.0, lo), hi))
    return [(u, v) for u, v in segs if v > u]


@functools.lru_cache(maxsize=None)
def _mp_quadrant(mp, a, x0, x1, y0, y1, R):
    """Integral of |x|^a over [x0, x1] x [y0, y1] cap B(0, R), x0, y0 >= 0."""
    if (y0, y1) > (x0, x1):
        # the integrand and the ball are symmetric in x and y: integrate
        # over the axis that stays further from the origin on the outside
        return _mp_quadrant(mp, a, y0, y1, x0, x1, R)
    a, R = mp.mpf(a), mp.mpf(R)
    x0, x1, y0, y1 = (mp.mpf(v) for v in (x0, x1, y0, y1))
    if x0 == 0:
        # both lower edges are 0: polar, where the ray at angle t leaves the
        # cell at min(x1/cos t, y1/sin t) and the ball at R
        s = a + 2
        corner = mp.atan2(y1, x1)
        pts = {mp.mpf(0), corner, mp.pi / 2}
        if x1 < R:  # where x1/cos t meets the circle
            pts.add(mp.acos(x1 / R))
        if y1 < R:  # where y1/sin t meets the circle
            pts.add(mp.asin(y1 / R))

        def ray(t):
            edge = x1 / mp.cos(t) if t <= corner else y1 / mp.sin(t)
            return min(edge, R) ** s / s

        return mp.quad(ray, sorted(pts))

    def below(x, y):
        # integral of (x^2 + t^2)^(a/2) over 0 <= t <= y
        if y == 0:
            return mp.mpf(0)
        return y * x**a * mp.hyp2f1(-a / 2, 0.5, 1.5, -((y / x) ** 2))

    def outer(x):
        top = y1 if x * x + y1 * y1 <= R * R else mp.sqrt(max(R * R - x * x, 0))
        return below(x, top) - below(x, y0) if top > y0 else mp.mpf(0)

    pts = {x0, x1}
    if R != mp.inf:
        pts |= {c for c in (R, *(mp.sqrt(R * R - y * y) for y in (y0, y1) if y < R)) if x0 < c < x1}
    return mp.quad(outer, sorted(pts))


def _mp_cell_mass(mp, a, lo, hi, support):
    """Integral of |x|^a over the cell [lo, hi] cap ``support``, at 20 digits."""
    R = math.inf
    if isinstance(support, Ball):
        R = support.radius
        if len(lo) == 1:
            support = Interval(-support.radius, support.radius)
    if isinstance(support, Interval):
        support = Rect((support.lo,), (support.hi,))
    if isinstance(support, Rect):
        lo = [max(u, v) for u, v in zip(lo, support.lo)]
        hi = [min(u, v) for u, v in zip(hi, support.hi)]
    if len(lo) == 1:
        s = mp.mpf(a) + 1
        return sum((mp.mpf(v) ** s - mp.mpf(u) ** s) / s for u, v in _segments(lo[0], hi[0]))
    return sum(
        _mp_quadrant(mp, a, x0, x1, y0, y1, R)
        for x0, x1 in _segments(lo[0], hi[0])
        for y0, y1 in _segments(lo[1], hi[1])
    )


def _check_cells(mp, lat, a, support, cells):
    got = lat.power_masses(a, support)
    for idx in cells:
        lo, hi = lat.cell_bounds(idx)
        want = _mp_cell_mass(mp, a, lo.tolist(), hi.tolist(), support)
        if want == 0:
            assert got[idx] == 0.0, idx
        else:
            rel = abs((mp.mpf(got[idx]) - want) / want)
            assert rel <= CELL_RTOL, (idx, float(got[idx]), want, float(rel))


@pytest.mark.parametrize("a", [-1.0 + 2.0**-9, -0.5, 0.7])
@pytest.mark.parametrize(
    "support",
    [None, Ball(1.0, 1), Interval(0.0, 1.0), Interval(-0.3, 0.7)],
    ids=["none", "ball", "interval", "odd-interval"],
)
def test_interval_cell_masses_match_mpmath(mp, a, support):
    lat = Lattice(default_box(1), 6)
    _check_cells(mp, lat, a, support, [(k,) for k in range(lat.cells_per_axis)])


PLANAR_SUPPORTS = [
    None,
    Ball(1.0, 2),
    Rect((0.0, 0.0), (1.0, 1.0)),
    Rect((-0.3, 0.2), (1.5, 1.7)),
]
PLANAR_IDS = ["none", "ball", "rect", "odd-rect"]


@pytest.mark.parametrize("a", [-2.0 + 2.0**-9, -1.0, 0.7])
@pytest.mark.parametrize("support", PLANAR_SUPPORTS, ids=PLANAR_IDS)
def test_planar_cell_masses_match_mpmath(mp, a, support):
    lat = Lattice(default_box(2), 2)
    _check_cells(mp, lat, a, support, list(np.ndindex(*lat.shape)))


@pytest.mark.parametrize("a", [-2.0 + 2.0**-9, -1.0, 0.7])
@pytest.mark.parametrize("support", PLANAR_SUPPORTS, ids=PLANAR_IDS)
def test_sampled_fine_planar_cells_match_mpmath(mp, a, support):
    # the middle 8x8 cells of L=4 hold the origin cells and the ball-cut ones
    lat = Lattice(default_box(2), 4)
    rng = np.random.default_rng(4)
    cells = [tuple(int(i) for i in rng.integers(4, 12, size=2)) for _ in range(8)]
    _check_cells(mp, lat, a, support, cells)


def test_rect_support_masses_sum_to_the_rect_mass():
    lat = Lattice(default_box(2), 3)
    for a in (-1.5, -0.5, 0.7):
        total = float(np.sum(lat.power_masses(a, Rect((0.0, 0.0), (1.0, 1.0)))))
        assert total == pytest.approx(power_mass(a, Rect((0.0, 0.0), (1.0, 1.0))), rel=1e-13)


@pytest.mark.parametrize(
    "a, lo, hi",
    [
        (-0.5, 1.3, 1.3 + 1e-6),
        (-1.5, 0.7, 0.7001),
        (-1.0, 1.3, 1.3 + 1e-6),
        (0.7, -0.9, -0.9 + 1e-7),
    ],
)
def test_thin_intervals_match_mpmath(mp, a, lo, hi):
    # a thin interval away from the origin needs log1p of its relative width;
    # log(hi/lo) lost up to 1e-10 here.  a = -1 takes the logarithmic branch
    got = float(IntervalPlan(lo, hi).masses(a))
    with mp.workdps(40):
        u, v = sorted(abs(mp.mpf(x)) for x in (lo, hi))
        want = mp.log(v / u) if a == -1.0 else (v ** (a + 1) - u ** (a + 1)) / (a + 1)
        assert abs((mp.mpf(got) - want) / want) <= CELL_RTOL


@pytest.mark.parametrize(
    "a, lo, hi",
    [
        (0.7, (-0.39, -0.01), (0.41, 0.25)),
        (-0.3, (-0.34, -0.63), (0.63, 0.02)),
        (-1.5, (-0.05, -0.8), (0.9, 0.001)),
        (-1.0, (-0.89757, -1.4807), (-0.89745, -0.5059)),
        (0.0, (0.95934, 0.47573), (0.95935, 0.5272)),
    ],
)
def test_thin_rects_match_mpmath(mp, a, lo, hi):
    # a strip beside an axis puts the pole of y/sin t (or x/cos t) just
    # outside a long angular piece, which only the graded rule resolves; a
    # strip between two close parallel edges needs the gap between its radii
    # from the edges' difference
    got = power_mass(a, Rect(lo, hi))
    want = _mp_cell_mass(mp, a, list(lo), list(hi), None)
    assert abs((mp.mpf(got) - want) / want) <= CELL_RTOL


@pytest.mark.parametrize("a", [-1.5, 0.7])
def test_sampled_ball_cut_cells_at_l8_match_mpmath(mp, a):
    # cell (69, 100) is a sliver: the unit circle clips it to under 1e-3 of its mass
    lat = Lattice(default_box(2), 8)
    edge = -2.0 + lat.h * np.arange(lat.cells_per_axis)
    near = np.maximum(np.maximum(edge, -edge - lat.h), 0.0)
    far = np.maximum(-edge, edge + lat.h)
    cut = np.argwhere((np.hypot.outer(near, near) < 1.0) & (np.hypot.outer(far, far) > 1.0))
    rng = np.random.default_rng(8)
    cells = [tuple(int(i) for i in c) for c in rng.choice(cut, 60, replace=False)]
    _check_cells(mp, lat, a, Ball(1.0, 2), [(69, 100), *cells])


@pytest.mark.parametrize("support", [None, Ball(1.0, 2)], ids=["none", "ball"])
def test_planar_cell_masses_peak_memory_stays_bounded(support):
    a = -2.0 + 2.0**-9
    lat = Lattice(default_box(2), 8)
    tracemalloc.start()
    try:
        got = lat.power_masses(a, support)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    if support is not None:
        assert float(np.sum(got)) == pytest.approx(2.0 * math.pi / (a + 2.0), rel=1e-13)


@pytest.mark.parametrize("L", [4, 6])
@pytest.mark.parametrize("a", [-1.5, 0.7])
def test_planar_cell_masses_do_not_depend_on_the_batch(L, a):
    # a cell's mass has the same bits whichever other cells share its call:
    # every cell of the box capped by the unit ball (so the four origin
    # cells, the cut cells, and cells inside and outside) against the four
    # origin cells alone, the cut cells alone, a shuffled subset, and single
    # cells, with and without the cap
    lat = Lattice(default_box(2), L)
    N = lat.cells_per_axis
    edge = -2.0 + lat.h * np.arange(N)
    i, j = (c.ravel() for c in np.meshgrid(np.arange(N), np.arange(N), indexing="ij"))
    x0, x1, y0, y1 = edge[i], edge[i] + lat.h, edge[j], edge[j] + lat.h
    near = np.hypot(np.maximum(np.maximum(x0, -x1), 0.0), np.maximum(np.maximum(y0, -y1), 0.0))
    far = np.hypot(np.maximum(-x0, x1), np.maximum(-y0, y1))
    origin = np.flatnonzero(near == 0.0)
    cut = np.flatnonzero((near < 1.0) & (far > 1.0))
    assert origin.size == 4 and cut.size > 0
    rng = np.random.default_rng(L)
    subsets = [
        origin,
        cut,
        rng.permutation(i.size)[: i.size // 3],
        *[[k] for k in rng.choice(cut, 5, replace=False)],
        *[[k] for k in origin],
    ]
    for radius in (1.0, math.inf):
        full = PlanarPlan(x0, x1, y0, y1, radius).masses(a)
        for sub in subsets:
            got = PlanarPlan(x0[sub], x1[sub], y0[sub], y1[sub], radius).masses(a)
            assert np.array_equal(got, full[sub])


def tensor_rule(a, x0, x1, y0, y1):
    """The tensor rule on every rectangle [x0[i], x1[i]] x [y0[j], y1[j]]."""
    plan = RectRulePlan(x0, x1, y0, y1)
    shape = (x0.size, y0.size)
    return plan.masses(a, *np.indices(shape).reshape(2, -1)).reshape(shape)


@pytest.mark.parametrize("L", [4, 6])
@pytest.mark.parametrize("a", [-1.5, 0.7, -0.875])
def test_tensor_rule_cell_masses_do_not_depend_on_the_batch(L, a):
    # the tensor rule's rectangle (i, j) has the same bits whichever rows
    # and columns share its call: random row and column subsets, shuffled,
    # and single cells, against one call over the whole lattice
    lat = Lattice(default_box(2), L)
    N = lat.cells_per_axis
    x0 = -2.0 + lat.h * np.arange(N)
    x1 = x0 + lat.h
    full = tensor_rule(a, x0, x1, x0, x1)
    # the fixed order changes only the last bits of the plain weighted sum
    nodes, weights = np.polynomial.legendre.leggauss(12)
    xs = 0.5 * (x0 + x1)[:, None] + 0.5 * lat.h * nodes
    r = np.hypot(xs[:, :, None, None], xs[None, None, :, :])
    plain = np.einsum("k,l,ikjl->ij", weights, weights, r**a) * (0.25 * lat.h**2)
    np.testing.assert_allclose(full, plain, rtol=4e-15, atol=0.0)
    rng = np.random.default_rng(L)
    for _ in range(20):
        rows = rng.choice(N, int(rng.integers(1, N + 1)), replace=False)
        cols = rng.choice(N, int(rng.integers(1, N + 1)), replace=False)
        got = tensor_rule(a, x0[rows], x1[rows], x0[cols], x1[cols])
        assert np.array_equal(got, full[np.ix_(rows, cols)])


MASS_SUPPORTS = {
    1: [None, Ball(1.0, 1), Interval(-1.0, 0.0), Interval(-0.3, 0.7)],
    2: [None, Ball(1.0, 2), Rect((0.0, 0.0), (1.0, 1.0)), Rect((-0.3, 0.2), (1.5, 1.7))],
}


@pytest.mark.parametrize("n, L", [(1, 10), (2, 4), (2, 5)])
def test_reused_mass_plans_give_a_fresh_lattices_bits(n, L):
    # one lattice keeps a plan per support; calls in a shuffled exponent and
    # support order must give the bits of a fresh lattice's first call
    calls = [(a, s) for a in (-0.875, 0.7, 0.0, -0.5, 2.0) for s in MASS_SUPPORTS[n]]
    order = np.random.default_rng(n + L).permutation(len(calls))
    lat = Lattice(default_box(n), L)
    for k in np.concatenate([order, order[::-1]]):
        a, support = calls[k]
        got = lat.power_masses(a, support)
        assert np.array_equal(got, Lattice(default_box(n), L).power_masses(a, support))
    assert set(lat._mass_plans) == set(MASS_SUPPORTS[n])


@pytest.mark.parametrize(
    "n, support, a, message",
    [
        (1, Ball(1.0, 1), -1.0, "exponent -1.0 is not integrable at the origin"),
        (1, None, -1.5, "exponent -1.5 is not integrable at the origin"),
        (2, None, -2.0, "|x|^-2.0 is not integrable at the origin in n=2"),
        (2, Ball(1.0, 2), -2.5, "|x|^-2.5 is not integrable at the origin in n=2"),
    ],
)
def test_a_plan_built_by_an_integrable_exponent_still_refuses_others(n, support, a, message):
    lat = Lattice(default_box(n), 4)
    before = lat.power_masses(-0.5, support)
    with pytest.raises(ValueError) as err:
        lat.power_masses(a, support)
    assert str(err.value) == message
    with pytest.raises(ValueError) as fresh:
        Lattice(default_box(n), 4).power_masses(a, support)
    assert str(fresh.value) == message
    assert np.array_equal(lat.power_masses(-0.5, support), before)


def test_kept_mass_plans_stay_small():
    # a plan keeps the geometry, not the tensor rule's node values
    tracemalloc.start()
    try:
        lat = Lattice(default_box(2), 8)
        for support in (None, Ball(1.0, 2)):
            for a in (-1.5, 0.7):
                lat.power_masses(a, support)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(lat._mass_plans) == 2
    assert current < 2 * 2**20
