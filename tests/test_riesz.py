"""Oracle tests for the bilinear Riesz transform quadrature."""
import numpy as np
import pytest

from mweights.grid import GridFunction, Lattice, default_box
from mweights.operators import (
    adjoint_kernel, bilinear_riesz, bilinear_riesz_rows, direct_kernel
)
from mweights.powermass import Interval


def lattice(L):
    return Lattice(default_box(1), L)


def test_direct_kernel_formula():
    # ((x-y1)+(x-y2)) / ((x-y1)^2+(x-y2)^2)^{3/2}
    x, y1, y2 = 0.5, -0.25, -0.125
    num = (x - y1) + (x - y2)
    den = ((x - y1) ** 2 + (x - y2) ** 2) ** 1.5
    assert direct_kernel(x, y1, y2) == pytest.approx(num / den, rel=1e-14)


def test_adjoint_kernel_is_direct_with_slots_swapped():
    # evaluating the adjoint at x is integrating the direct kernel with its
    # output variable moved to the first input slot
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y1, y2 = rng.uniform(-2, 2, size=3)
        assert adjoint_kernel(x, y1, y2) == pytest.approx(
            direct_kernel(y1, x, y2), rel=1e-13
        )


def test_direct_kernel_lower_bound_on_cone_geometry():
    # x > 0 with y_1, y_2 in [-x, 0]: numerator >= 2x and the squared
    # distances are each at most (2x)^2, so the kernel is at least
    # 2^{-7/2} x^{-2}
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = rng.uniform(1e-3, 1.0)
        y1 = -rng.uniform(0.0, x)
        y2 = -rng.uniform(0.0, x)
        assert direct_kernel(x, y1, y2) >= 2.0 ** (-3.5) * x ** (-2.0)


def test_odd_symmetry_at_origin():
    lat = lattice(5)
    f = GridFunction.indicator(lat, Interval(-1.0, 1.0))
    res = bilinear_riesz(f, f, np.array([0.0]))
    assert res.values.shape == (1,)
    assert abs(res.values[0]) <= 1e-9
    # x = 0 sits inside both supports, so the answer is p.v.-approximate
    assert bool(res.pv_approximate[0])


def test_disjoint_supports_are_not_flagged():
    lat = lattice(5)
    f1 = GridFunction.indicator(lat, Interval(-1.0, 0.0))
    f2 = GridFunction.indicator(lat, Interval(-1.0, 0.0))
    pts = np.array([0.25, 0.5, 1.0])
    res = bilinear_riesz(f1, f2, pts)
    assert not res.pv_approximate.any()
    assert np.all(res.values > 0.0)


def test_direct_quadrature_against_exact_integral():
    # f_1 = f_2 = indicator of [-1,-1/2]; at x = 1 the kernel is smooth on
    # the support, so the quadrature must converge to the true double
    # integral (computed here by very fine midpoint summation)
    f_lo, f_hi = -1.0, -0.5
    x = 1.0
    K = 4096
    step = (f_hi - f_lo) / K
    ys = f_lo + (np.arange(K) + 0.5) * step
    num = (x - ys)[:, None] + (x - ys)[None, :]
    den = ((x - ys)[:, None] ** 2 + (x - ys)[None, :] ** 2) ** 1.5
    exact = float(np.sum(num / den)) * step * step
    vals = []
    for L in (6, 8):
        lat = lattice(L)
        f = GridFunction.indicator(lat, Interval(f_lo, f_hi))
        res = bilinear_riesz(f, f, np.array([x]))
        vals.append(res.values[0])
    assert vals[1] == pytest.approx(exact, rel=2e-4)
    assert abs(vals[1] - exact) < abs(vals[0] - exact)


def test_singular_cone_profile_uniform_in_eps():
    # f_1 = |y|^{eps-1} chi_V, f_2 = |y|^{(eps-1)/2} chi_V, V = [-1,0]:
    # for x in (0,1] the output times eps * x^{-(a1+a2)} stays above a
    # positive constant, uniformly in eps, and the quadrature dominates the
    # cell-restricted cone bound with constant 2^{-7/2}
    lat = lattice(8)
    h = lat.h
    V = Interval(-1.0, 0.0)
    for eps in (0.25, 0.0625):
        a1 = eps - 1.0
        a2 = (eps - 1.0) / 2.0
        f1 = GridFunction.from_power(lat, a1, V)
        f2 = GridFunction.from_power(lat, a2, V)
        mids = -2.0 + (np.arange(128, 192) + 0.5) * h  # cells of (0,1)
        res = bilinear_riesz(f1, f2, mids)
        assert not res.pv_approximate.any()
        ratio = res.values * eps * mids ** (-(a1 + a2))
        assert np.all(ratio[mids >= 8 * h] >= 0.1)
        # rigorous cone minorant, shrunk to whole cells inside [-x, 0]
        sel = mids >= 8 * h
        xs = mids[sel]
        floor_x = np.floor(xs / h) * h
        lower = (
            2.0 ** (-3.5)
            * xs ** (-2.0)
            * (floor_x ** (a1 + 1.0) / (a1 + 1.0))
            * (floor_x ** (a2 + 1.0) / (a2 + 1.0))
        )
        assert np.all(res.values[sel] >= lower * (1 - 1e-9))


def test_adjoint_pairing_identity():
    # sum_x R(f,g2)(mid_x) h(x) mass_x == sum_t R*(h,g2)(mid_t) f(t) mass_t:
    # both sides enumerate the same triple sum in different orders
    lat = lattice(6)
    rng = np.random.default_rng(11)
    f = GridFunction(lat, rng.random(64) * (rng.random(64) < 0.6))
    g2 = GridFunction(lat, rng.random(64) * (rng.random(64) < 0.6))
    hfun = GridFunction(lat, rng.random(64) * (rng.random(64) < 0.6))
    mids = -2.0 + (np.arange(64) + 0.5) * lat.h
    vol = lat.cell_volume
    direct_vals = bilinear_riesz(f, g2, mids, variant="direct").values
    adj_vals = bilinear_riesz(hfun, g2, mids, variant="adjoint_slot1").values
    lhs = float(np.sum(direct_vals * hfun.values)) * vol
    rhs = float(np.sum(adj_vals * f.values)) * vol
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_adjoint_cone_lower_bound():
    # adjoint geometry: f_1 on [0,1], f_2 on [-1,0], eval x in [-1,0):
    # kernel >= 2^{-9/2} |x|^{-2} when |y_j| <= |x|
    rng = np.random.default_rng(13)
    for _ in range(500):
        x = -rng.uniform(1e-3, 1.0)
        y1 = rng.uniform(0.0, -x)
        y2 = -rng.uniform(0.0, -x)
        assert adjoint_kernel(x, y1, y2) >= 2.0 ** (-4.5) * x ** (-2.0)


def test_variant_validation():
    lat = lattice(4)
    f = GridFunction.indicator(lat, Interval(-1.0, 0.0))
    with pytest.raises(ValueError, match="variant"):
        bilinear_riesz(f, f, np.array([0.5]), variant="sideways")


def test_rejects_2d_lattice():
    lat = Lattice(default_box(2), 3)
    f = GridFunction(lat, np.ones((8, 8)))
    with pytest.raises(ValueError, match="one-dimensional"):
        bilinear_riesz(f, f, np.array([0.5]))


def brute_riesz(f1, f2, points, variant):
    """Plain double sum over every pair of cells with mass, one point at a time."""
    lat = f1.lattice
    h = lat.h
    mids = lat.box.lo[0] + (np.arange(lat.cells_per_axis) + 0.5) * h
    kernel = direct_kernel if variant == "direct" else adjoint_kernel
    values, flags = [], []
    for x in points:
        total, omitted = 0.0, False
        for i in np.nonzero(f1.values > 0.0)[0]:
            for j in np.nonzero(f2.values > 0.0)[0]:
                if abs(mids[i] - x) <= h / 2 and abs(mids[j] - x) <= h / 2:
                    omitted = True
                    continue
                total += kernel(x, mids[i], mids[j]) * f1.values[i] * f2.values[j] * h * h
        values.append(total)
        flags.append(omitted)
    return np.array(values), np.array(flags)


def _oracle_points(lat, rng):
    h = lat.h
    lo = lat.box.lo[0]
    hi = lo + lat.box.side
    N = lat.cells_per_axis
    mids = lo + (rng.choice(N, size=12, replace=False) + 0.5) * h
    edges = lo + rng.choice(N + 1, size=12, replace=False) * h
    inside = rng.uniform(lo, hi, size=12)
    outside = np.array([lo - 0.3, lo - 5 * h, hi + 0.5 * h, hi + 2.7])
    return np.concatenate([mids, edges, [0.0, lo, hi], inside, outside])


@pytest.mark.parametrize("variant", ["direct", "adjoint_slot1"])
@pytest.mark.parametrize("L", [4, 7])
def test_quadrature_matches_brute_force_double_sum(variant, L):
    # supports with gaps, sizes that are not multiples of a tile, and at
    # L = 7 enough points and cells to span several tiles
    lat = lattice(L)
    N = lat.cells_per_axis
    rng = np.random.default_rng(100 + L)
    f1 = GridFunction(lat, rng.random(N) * (rng.random(N) < 0.7))
    f2 = GridFunction(lat, rng.random(N) * (rng.random(N) < 0.5))
    pts = _oracle_points(lat, rng)
    if L == 7:
        h = lat.h
        run = lat.box.lo[0] + (np.arange(3, 3 + 77) + 0.5) * h  # 77 midpoints in a row
        pts = np.concatenate([pts, run])
    res = bilinear_riesz(f1, f2, pts, variant=variant)
    want, flags = brute_riesz(f1, f2, pts, variant)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(res.values - want)) <= 1e-12 * scale
    assert np.array_equal(res.pv_approximate, flags)
    assert flags.any() and not flags.all()


@pytest.mark.parametrize("variant", ["direct", "adjoint_slot1"])
def test_quadrature_skips_empty_cell_blocks_and_keeps_point_order(variant):
    # f1 vanishes on a whole run of 64 cells; points repeat and come unsorted
    lat = lattice(8)
    N = lat.cells_per_axis
    rng = np.random.default_rng(7)
    v1 = rng.random(N) * (rng.random(N) < 0.3)
    v1[64:128] = 0.0
    f1 = GridFunction(lat, v1)
    f2 = GridFunction(lat, rng.random(N) * (rng.random(N) < 0.3))
    h = lat.h
    pts = np.array([0.5 + 0.5 * h, -1.0, 0.0, 0.5 + 0.5 * h, -0.7 + 0.25 * h, -1.0])
    res = bilinear_riesz(f1, f2, pts, variant=variant)
    want, flags = brute_riesz(f1, f2, pts, variant)
    assert np.max(np.abs(res.values - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(res.pv_approximate, flags)
    assert res.values[3] == res.values[0] and res.values[5] == res.values[1]
    assert np.array_equal(res.points, pts)


@pytest.mark.parametrize("variant", ["direct", "adjoint_slot1"])
def test_quadrature_memory_stays_tiled(variant):
    # full supports on all 1024 midpoints at L = 10: an untiled kernel
    # table or per-point pair matrix needs tens of MiB
    import tracemalloc

    lat = lattice(10)
    N = lat.cells_per_axis
    f = GridFunction(lat, np.linspace(1.0, 2.0, N))
    mids = lat.box.lo[0] + (np.arange(N) + 0.5) * lat.h
    tracemalloc.start()
    try:
        res = bilinear_riesz(f, f, mids, variant=variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(res.values)) and res.pv_approximate.all()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("variant", ["direct", "adjoint_slot1"])
def test_nonfinite_points_give_nan_without_flag(variant):
    lat = lattice(4)
    f = GridFunction.indicator(lat, Interval(-1.0, 1.0))
    res = bilinear_riesz(f, f, np.array([np.nan, 0.3, np.inf]), variant=variant)
    assert np.isnan(res.values[0]) and np.isnan(res.values[2])
    assert np.isfinite(res.values[1])
    assert not res.pv_approximate[0] and not res.pv_approximate[2]
    # with a zero input every finite point reads 0, and the others still NaN
    zero = GridFunction.zeros(lat)
    for f1, f2 in ((zero, f), (f, zero)):
        res = bilinear_riesz(f1, f2, np.array([np.nan, 0.3, np.inf]), variant=variant)
        assert np.isnan(res.values[0]) and np.isnan(res.values[2])
        assert res.values[1] == 0.0
        assert not res.pv_approximate.any()


def count_kernel_evaluations(monkeypatch):
    """Wrap the quadrature's kernel table so that its entries are counted."""
    from mweights.operators import riesz

    table = riesz._kernel_table
    count = [0]

    def counted(*args, **kwargs):
        out = table(*args, **kwargs)
        count[0] += out.size
        return out

    monkeypatch.setattr(riesz, "_kernel_table", counted)
    return count


@pytest.mark.parametrize("variant", ["direct", "adjoint_slot1"])
def test_each_offset_pair_is_evaluated_once_per_point_tile(variant, monkeypatch):
    # a criterion-7 sweep row at L = 10: 256 midpoints, 256-cell supports.
    # A tile of points whose cells span s touches (s + f1 span - 1) x
    # (s + f2 span - 1) offset pairs; tiling f1 as well evaluated the
    # overlapping offsets again, 648,208 of them per row
    from mweights import riesz_problem
    from mweights.operators import riesz

    lat = lattice(10)
    P = (2.0, 2.0) if variant == "direct" else (4.0, 4.0)
    prob = riesz_problem(P, 2.0**-5, lat, variant=variant)
    cells = np.nonzero(prob.region.mask)[0]
    assert cells.size == 256 and np.all(np.diff(cells) == 1)
    spans = []
    for f in prob.fs:
        idx = np.nonzero(f.values)[0]
        spans.append(int(idx[-1] - idx[0] + 1))
    assert spans == [256, 256]
    count = count_kernel_evaluations(monkeypatch)
    res = bilinear_riesz(*prob.fs, lat.box.lo[0] + (cells + 0.5) * lat.h, variant=variant)
    tiles = [min(riesz._TILE, cells.size - k) for k in range(0, cells.size, riesz._TILE)]
    bound = sum((s + spans[0] - 1) * (s + spans[1] - 1) for s in tiles)
    assert 0 < count[0] <= bound
    assert count[0] <= 300_000
    assert np.all(res.values > 0.0)


@pytest.mark.parametrize("variant", ["direct", "adjoint_slot1"])
def test_quadrature_over_several_point_tiles_and_an_empty_f1_strip(variant, monkeypatch):
    # two θ classes (midpoints and quarter points), a run of midpoints
    # longer than one point tile, and f1 empty on 200 cells, so that some
    # strips of table rows meet no f1 mass and are never evaluated
    from mweights.operators import riesz

    lat = lattice(9)
    N = lat.cells_per_axis
    h = lat.h
    lo = lat.box.lo[0]
    rng = np.random.default_rng(17)
    v1 = rng.random(N) * (rng.random(N) < 0.15)
    v1[200:400] = 0.0
    v2 = rng.random(N) * (rng.random(N) < 0.05)
    f1, f2 = GridFunction(lat, v1), GridFunction(lat, v2)
    run = np.arange(150, 150 + riesz._TILE + 5)
    quarters = np.arange(300, 310)
    pts = np.concatenate([lo + (run + 0.5) * h, lo + (quarters + 0.75) * h, [lo + 4.0 + h]])
    count = count_kernel_evaluations(monkeypatch)
    res = bilinear_riesz(f1, f2, pts, variant=variant)
    want, flags = brute_riesz(f1, f2, pts, variant)
    assert np.max(np.abs(res.values - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.array_equal(res.pv_approximate, flags)
    assert flags.any() and not flags.all()
    # every table row the tiles span, had none been skipped
    spans = [int(np.ptp(np.nonzero(v)[0])) + 1 for v in (v1, v2)]
    tiles = [riesz._TILE, run.size - riesz._TILE, quarters.size, 1]
    full = sum((s + spans[0] - 1) * (s + spans[1] - 1) for s in tiles)
    assert 0 < count[0] < full


def _stack_pairs(lat, rng, rows):
    """``rows`` input pairs with supports of their own; row 1 has a zero f1."""
    N = lat.cells_per_axis
    pairs = []
    for q in range(rows):
        a, b = np.sort(rng.choice(N, size=2, replace=False))
        v1 = rng.random(N) * (rng.random(N) < 0.6)
        v2 = rng.random(N) * (rng.random(N) < 0.6)
        v1[:a] = 0.0
        v2[b + 1 :] = 0.0
        if q == 1:
            v1[:] = 0.0
        pairs.append((GridFunction(lat, v1), GridFunction(lat, v2)))
    return pairs


@pytest.mark.parametrize("variant", ["direct", "adjoint_slot1"])
@pytest.mark.parametrize("L", [4, 6, 8, 10])
@pytest.mark.parametrize("rows", [1, 2, 5, 6])
def test_stacked_rows_equal_one_pair_calls(variant, L, rows):
    # midpoints, edges, random, repeated, outside and non-finite points;
    # the stack's tiles hold fewer points than one pair's, so the values
    # may differ from the one-pair calls in rounding only
    lat = lattice(L)
    rng = np.random.default_rng(1000 * L + rows)
    pairs = _stack_pairs(lat, rng, rows)
    pts = _oracle_points(lat, rng)
    pts = np.concatenate([pts, pts[:5], [np.nan, np.inf, -np.inf]])
    stacked = bilinear_riesz_rows(pairs, pts, variant)
    assert len(stacked) == rows
    for (f1, f2), rv in zip(pairs, stacked):
        alone = bilinear_riesz(f1, f2, pts, variant=variant)
        assert np.array_equal(rv.points, pts, equal_nan=True) and rv.variant == variant
        assert np.array_equal(rv.pv_approximate, alone.pv_approximate)
        assert np.array_equal(np.isnan(rv.values), np.isnan(alone.values))
        assert np.array_equal(np.isnan(alone.values), ~np.isfinite(pts))
        scale = np.nanmax(np.abs(alone.values))
        assert np.nanmax(np.abs(rv.values - alone.values)) <= 2e-15 * scale
    if rows > 1:
        assert np.all(stacked[1].values[np.isfinite(pts)] == 0.0)
        assert not stacked[1].pv_approximate.any()


def test_stacked_rows_validate_their_inputs():
    lat = lattice(4)
    f = GridFunction.indicator(lat, Interval(-1.0, 0.0))
    g = GridFunction.indicator(lattice(5), Interval(-1.0, 0.0))
    assert bilinear_riesz_rows([], np.array([0.5])) == []
    with pytest.raises(ValueError, match="variant"):
        bilinear_riesz_rows([(f, f)], np.array([0.5]), variant="sideways")
    with pytest.raises(ValueError, match="one lattice"):
        bilinear_riesz_rows([(f, f), (f, g)], np.array([0.5]))


def _sweep_stack(variant):
    """The six pairs and 256 midpoints of an L = 10 criterion-7 sweep."""
    from mweights import riesz_problem

    lat = lattice(10)
    P = (2.0, 2.0) if variant == "direct" else (4.0, 4.0)
    probs = [riesz_problem(P, 2.0**-k, lat, variant=variant) for k in range(2, 8)]
    cells = np.nonzero(probs[0].region.mask)[0]
    return [prob.fs for prob in probs], cells, lat.box.lo[0] + (cells + 0.5) * lat.h


def record_kernel_calls(monkeypatch):
    """Wrap the quadrature's kernel table so that each call's offset pairs,
    as keys ``a * 2**20 + b``, and the shape of the buffer it writes into
    are recorded, in call order."""
    from mweights.operators import riesz

    table = riesz._kernel_table
    calls = []

    def recorded(a, b, theta, variant, out):
        buffer = out if out.base is None else out.base
        calls.append((_keys(a, b), buffer.shape))
        return table(a, b, theta, variant, out)

    monkeypatch.setattr(riesz, "_kernel_table", recorded)
    return calls


def _keys(a, b):
    return (np.asarray(a)[:, None] * 2**20 + np.asarray(b)[None, :]).ravel()


def tile_reads(cells, f1_cells, i1, j1, n1, n2):
    """The offset pairs a tile of points at ``cells`` reads, as sorted keys.

    Its block is the offsets ``a`` from ``m0 - i1`` and ``b`` from ``m0 - j1``
    over ``s + n1`` rows and ``s + n2`` columns, ``m0`` its first cell and
    ``s`` their span.  Row ``a`` meets f1 mass where a point ``m`` has mass
    at cell ``m - a``; the tile reads every column of the strips of 32 rows,
    counted from the block's first, that meet some.
    """
    m = np.sort(cells)
    s = m[-1] - m[0]
    a = m[0] - i1 + np.arange(s + n1)
    b = m[0] - j1 + np.arange(s + n2)
    live = np.isin(m[None, :] - a[:, None], f1_cells).any(axis=1)
    strips = np.logical_or.reduceat(live, np.arange(0, a.size, 32))
    return np.unique(_keys(a[np.repeat(strips, 32)[: a.size]], b))


def check_tiles_evaluate(calls, expected):
    """Split the calls, in order, into one group per expected set of keys, and
    check that each group evaluates exactly its set, each key once."""
    calls = list(calls)
    for want in expected:
        got = []
        while sum(map(len, got)) < want.size:
            got.append(calls.pop(0)[0])
        got = np.concatenate(got)
        assert got.size == want.size and np.array_equal(np.sort(got), want)
    assert not calls


@pytest.mark.parametrize("variant", ["direct", "adjoint_slot1"])
def test_a_sweep_stack_evaluates_fewer_kernel_entries_in_less_memory(variant, monkeypatch):
    # the six rows of an L = 10 criterion-7 sweep share one stacked call:
    # together they evaluate fewer kernel entries than six one-pair calls,
    # in a smaller working set.  Their 13 tiles of at most 21 points read
    # blocks of 276 x 276 offsets 21 apart (the last, of 4 points, 259 x
    # 259), and each evaluates only what the last tile's block did not
    # hold: 76,176 entries for the first, 11,151 for each of the next 11
    # and 2,056 for the last, 200,893 per variant.  A table over the whole
    # class (511 x 511, 2 MiB) filled before the first product evaluates as
    # many, with a tracemalloc peak of 3.23 MiB
    import tracemalloc

    pairs, cells, pts = _sweep_stack(variant)
    count = count_kernel_evaluations(monkeypatch)
    bilinear_riesz(*pairs[0], pts, variant=variant)
    one_pair = count[0]
    count[0] = 0
    bilinear_riesz_rows(pairs, pts, variant)
    stacked = count[0]
    assert 0 < stacked < 6 * one_pair
    assert stacked == 200_893
    peaks = []
    for call in (
        lambda: bilinear_riesz(*pairs[0], pts, variant=variant),
        lambda: bilinear_riesz_rows(pairs, pts, variant),
    ):
        tracemalloc.start()
        try:
            rvs = call()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]
    assert peaks[1] < 2 * 2**20
    assert all(np.all(rv.values > 0.0) for rv in rvs)


@pytest.mark.parametrize("variant", ["direct", "adjoint_slot1"])
def test_a_sweep_stack_slides_one_block_along_its_tiles(variant, monkeypatch):
    # the θ class of an L = 10 criterion-7 stack: every call writes into one
    # buffer of one tile's block (276 x 276 entries, within _TABLE), and
    # each tile evaluates exactly its block minus the last tile's: the
    # first tile its whole block in one call, every later one its new
    # bottom rows and the new columns of the rows the two blocks share, in
    # two calls.  Every row meets f1 mass, so a tile reads its whole block
    from mweights.operators import riesz

    pairs, cells, pts = _sweep_stack(variant)
    n = cells.size  # points, and cells of each support
    assert n == 256
    f1_cells, f2_cells = (
        np.unique(np.concatenate([np.nonzero(pair[k].values)[0] for pair in pairs])) for k in (0, 1)
    )
    assert f1_cells.size == f2_cells.size == n
    reads = [
        tile_reads(cells[k : k + 21], f1_cells, f1_cells[-1], f2_cells[-1], n, n)
        for k in range(0, n, 21)
    ]
    assert [r.size for r in reads] == [276 * 276] * 12 + [259 * 259]
    expected = [reads[0]] + [np.setdiff1d(r, q) for q, r in zip(reads, reads[1:])]
    calls = record_kernel_calls(monkeypatch)
    rvs = bilinear_riesz_rows(pairs, pts, variant)
    assert {shape for _, shape in calls} == {(276, 276)} and 276 * 276 <= riesz._TABLE
    assert len(calls) == 1 + 2 * 12
    check_tiles_evaluate(calls, expected)
    assert sum(e.size for e in expected) == 200_893
    assert all(np.all(rv.values > 0.0) for rv in rvs)


@pytest.mark.parametrize("variant", ["direct", "adjoint_slot1"])
def test_a_tall_table_is_contracted_in_bounded_products(variant):
    # f1 on all 16,384 cells at L = 14, f2 on one cell, and 128 copies of one
    # point: the table, 16,384 x 1 entries, fits the budget, but one product
    # over all its rows for 128 columns, and the T1 rows it is summed
    # against, would take 16 MiB each
    import tracemalloc

    from mweights.operators import riesz

    lat = lattice(14)
    N = lat.cells_per_axis
    h = lat.h
    mids = lat.box.lo[0] + (np.arange(N) + 0.5) * h
    v2 = np.zeros(N)
    v2[N // 4] = 1.0
    f1, f2 = GridFunction(lat, np.linspace(1.0, 2.0, N)), GridFunction(lat, v2)
    pts = np.full(riesz._TILE, mids[N // 2] + 0.25 * h)
    tracemalloc.start()
    try:
        res = bilinear_riesz(f1, f2, pts, variant=variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    kernel = direct_kernel if variant == "direct" else adjoint_kernel
    want = np.sum(kernel(pts[0], mids, mids[N // 4]) * f1.values) * h * h
    assert np.all(res.values == res.values[0]) and not res.pv_approximate.any()
    assert abs(res.values[0] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("variant", ["direct", "adjoint_slot1"])
def test_tiles_slide_one_block_within_the_budget(variant, monkeypatch):
    # six rows, so a tile holds at most 21 points.  f1 is empty on 100
    # cells, so some strips of every block meet no f1 mass and are never
    # evaluated.  With the budget cut to 15,000 entries, the blocks of the
    # repeated midpoints (two tiles 2 cells apart, each over 3 cells) and of
    # the repeated quarter points (two tiles over 3 and 2 cells) fit it, and
    # each of a θ class's blocks slides into the last one's buffer,
    # evaluating only what that block did not hold in the rows it reads.
    # The block of the run of 21 midpoints, of the same θ as the repeated
    # ones, is over the budget and is read through a strip buffer
    from mweights.operators import riesz

    lat = lattice(8)
    N = lat.cells_per_axis
    h = lat.h
    lo = lat.box.lo[0]
    rng = np.random.default_rng(23)
    pairs = []
    for q in range(6):
        v1 = np.zeros(N)
        v2 = np.zeros(N)
        v1[10:200] = rng.random(190) * (rng.random(190) < 0.5)
        v1[40:140] = 0.0
        v2[50:120] = rng.random(70) * (rng.random(70) < 0.5)
        v1[[10, 199]] = v2[[50, 119]] = 1.0
        pairs.append((GridFunction(lat, v1), GridFunction(lat, v2)))
    n1, n2 = 190, 70
    f1_cells = np.unique(np.concatenate([np.nonzero(f1.values)[0] for f1, _ in pairs]))
    cells = np.concatenate([np.repeat(np.arange(120, 125), 8), np.arange(150, 171)])
    quarters = np.repeat(np.arange(60, 64), 8)
    pts = np.concatenate([lo + (cells + 0.5) * h, lo + (quarters + 0.75) * h])
    default = bilinear_riesz_rows(pairs, pts, variant)

    class_sums = riesz._class_sums
    classes = {}

    def recorded(w1, i1, w2, j1, m_all, tiles, theta, *args):
        classes[budget].append((float(theta), [len(tile) for tile in tiles]))
        return class_sums(w1, i1, w2, j1, m_all, tiles, theta, *args)

    calls = record_kernel_calls(monkeypatch)
    monkeypatch.setattr(riesz, "_class_sums", recorded)
    counts, buffers = {}, {}
    # budget 0 reads every block through a strip buffer, tile by tile
    for budget in (0, 15_000):
        classes[budget] = []
        monkeypatch.setattr(riesz, "_TABLE", budget)
        res = bilinear_riesz_rows(pairs, pts, variant)
        tiles = [cells[:21], cells[21:40], cells[40:], quarters[:21], quarters[21:]]
        reads = [tile_reads(t, f1_cells, 199, 119, n1, n2) for t in tiles]
        if budget:
            # each θ class's tiles, in order; a block that follows a block
            # in its buffer evaluates the reads the last one did not hold
            expected = [reads[0], np.setdiff1d(reads[1], reads[0]), reads[2],
                        reads[3], np.setdiff1d(reads[4], reads[3])]
        else:
            expected = reads
        check_tiles_evaluate(calls, expected)
        counts[budget] = sum(k.size for k, _ in calls)
        buffers[budget] = {shape for _, shape in calls}
        calls.clear()
        for (f1, f2), rv, dv in zip(pairs, res, default):
            want, flags = brute_riesz(f1, f2, pts, variant)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(rv.values - want)) <= 1e-12 * scale
            assert np.max(np.abs(rv.values - dv.values)) <= 2e-15 * scale
            assert np.array_equal(rv.pv_approximate, flags)
    # each θ class is walked whole, its tiles in order of cell
    assert classes[0] == classes[15_000] == [(0.0, [21, 19, 21]), (0.25, [21, 11])]
    # one block buffer per class, as wide as its widest block in the budget
    # (3 cells), and the strip buffer of the 21-cell run
    assert buffers[15_000] == {(3 + n1 - 1, 3 + n2 - 1), (riesz._STRIP, 21 + n2 - 1)}
    assert (3 + n1 - 1) * (3 + n2 - 1) <= 15_000 < (21 + n1 - 1) * (21 + n2 - 1)
    # every block entry, one tile at a time, had no strip been skipped
    spans = [3, 3, 21, 3, 2]
    full = sum((s + n1 - 1) * (s + n2 - 1) for s in spans)
    assert 0 < counts[15_000] < counts[0] < full


@pytest.mark.parametrize("variant", ["direct", "adjoint_slot1"])
@pytest.mark.parametrize("layout", ["clusters", "repeats", "random"])
def test_a_chunk_evaluates_no_more_entries_than_its_tiles_alone(variant, layout, monkeypatch):
    # "clusters": f2 on one cell and two clusters of 64 midpoints 200 cells
    # apart, so two tiles whose tables fit one budget read columns 136 apart
    # in the rows they share, and a table over the chunk would evaluate the
    # columns between them, which neither tile reads.  "repeats": the same
    # masses at two midpoints 130 times each, so the last tile reads only
    # rows that earlier tiles of its chunk evaluated.  "random": sparse
    # masses on 150 and 130 cells in a stack of three pairs, at random points
    # of two θ classes
    from mweights.operators import riesz

    lat = lattice(9)
    N = lat.cells_per_axis
    h = lat.h
    lo = lat.box.lo[0]
    rng = np.random.default_rng(29)
    if layout in ("clusters", "repeats"):
        v1 = np.zeros(N)
        v1[100:300] = rng.random(200) + 0.5
        v2 = np.zeros(N)
        if layout == "clusters":
            v2[150] = 1.0
            cells = np.concatenate([np.arange(100, 164), np.arange(300, 364)])
        else:
            v2[120:220] = rng.random(100) + 0.5
            cells = np.repeat([100, 101], 130)
        pairs = [(GridFunction(lat, v1), GridFunction(lat, v2))]
        pts = lo + (cells + 0.5) * h
    else:
        pairs = []
        for _ in range(3):
            v1, v2 = np.zeros(N), np.zeros(N)
            v1[150:300] = rng.random(150) * (rng.random(150) < 0.3)
            v2[200:330] = rng.random(130) * (rng.random(130) < 0.3)
            pairs.append((GridFunction(lat, v1), GridFunction(lat, v2)))
        cells = np.sort(rng.choice(N, size=150, replace=False))
        pts = lo + (cells + rng.choice([0.5, 0.25], size=cells.size)) * h
    table = riesz._kernel_table
    counts, values = {}, {}

    def counted(*args, **kwargs):
        out = table(*args, **kwargs)
        counts[budget] += out.size
        return out

    monkeypatch.setattr(riesz, "_kernel_table", counted)
    for budget in (0, riesz._TABLE):
        counts[budget] = 0
        monkeypatch.setattr(riesz, "_TABLE", budget)
        values[budget] = np.array([rv.values for rv in bilinear_riesz_rows(pairs, pts, variant)])
    assert 0 < counts[riesz._TABLE] <= counts[0]
    scale = np.max(np.abs(values[0]))
    assert np.max(np.abs(values[riesz._TABLE] - values[0])) <= 2e-15 * scale


@pytest.mark.parametrize("seed", range(12))
def test_points_are_tiled_in_the_order_of_lexsort_by_theta_then_cell(seed, monkeypatch):
    # θ classes with ties in cell and -0.0 among the zeros, in stacks of 1
    # to 200 rows (at most 128 down to 1 point per tile); each class is
    # cut where np.searchsorted would cut it, and carries the θ of its
    # first point
    from mweights.operators import riesz

    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 400))
    m_all = rng.integers(-20, int(rng.integers(1, 300)), k)
    theta_all = rng.choice([-0.5, -0.25, -0.0, 0.0, 0.125, 0.25, 0.5], k)
    rows = int(rng.choice([1, 2, 3, 6, 50, 200]))
    per_tile = max(1, riesz._TILE // rows)
    order = np.lexsort((m_all, theta_all))
    want = []
    for cls in np.split(order, np.flatnonzero(np.diff(theta_all[order])) + 1):
        ms, tiles, start = m_all[cls], [], 0
        while start < cls.size:
            stop = start + int(np.searchsorted(ms[start : start + per_tile], ms[start] + per_tile))
            tiles.append(cls[start:stop].tolist())
            start = stop
        want.append((theta_all[cls[0]].tobytes(), tiles))
    got = []

    def recorded(w1, i1, w2, j1, m, tiles, theta, variant, sums):
        got.append((np.float64(theta).tobytes(), [list(tile) for tile in tiles]))

    monkeypatch.setattr(riesz, "_class_sums", recorded)
    w = np.ones((rows, 1))
    riesz._stacked_sums(w, 0, w, 0, m_all, theta_all, "direct")
    assert got == want
