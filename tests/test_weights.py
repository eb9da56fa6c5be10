"""Oracle tests for exponent tuples, weights, the joint-weight constant,
and the slot-duality transform."""
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest

from oracles import cell_bounds
from mweights.grid import Box, DyadicCube, Lattice, ShiftedGridFamily, cell_average, default_box
from mweights.weights import (
    ApReport,
    CubeFamily,
    ExponentTuple,
    Weight,
    WeightVector,
    ap_constant,
    dualize,
    per_cube_ap,
)


# ---------------------------------------------------------------- exponents
def test_exponent_tuple_basics():
    P = ExponentTuple((2.0, 2.0))
    assert P.m == 2
    assert P.p == pytest.approx(1.0, abs=1e-15)
    assert P.conjugates == pytest.approx((2.0, 2.0))

    P2 = ExponentTuple((4.0, 4.0 / 3.0))
    assert P2.p == pytest.approx(1.0, abs=1e-12)
    assert P2.conjugates[0] == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert P2.conjugates[1] == pytest.approx(4.0, rel=1e-14)

    P3 = ExponentTuple((4.0, 4.0))
    assert P3.p == pytest.approx(2.0, rel=1e-15)
    assert P3.p_conj == pytest.approx(2.0, rel=1e-15)

    P1 = ExponentTuple((3.0,))
    assert P1.m == 1
    assert P1.p == pytest.approx(3.0)
    assert P1.p_conj == pytest.approx(1.5)


def test_exponent_tuple_rejects_out_of_range():
    with pytest.raises(ValueError):
        ExponentTuple((1.0, 2.0))
    with pytest.raises(ValueError):
        ExponentTuple((0.5,))
    with pytest.raises(ValueError):
        ExponentTuple(())


def test_exponent_tuple_dual_gap():
    # max(1, p_i'/p) == 1 exactly when p >= every conjugate
    P = ExponentTuple((4.0, 4.0))  # p = 2 >= 4/3
    assert max(1.0, *(c / P.p for c in P.conjugates)) == 1.0
    Q = ExponentTuple((2.0, 2.0))  # p = 1 < 2
    assert max(1.0, *(c / Q.p for c in Q.conjugates)) == 2.0


# ------------------------------------------------------------------ weights
def test_power_weight_average():
    lat = Lattice(default_box(1), 3)
    w = Weight.power(lat, 0.5)
    # cube [0,4) clipped to [0,2): mass = (2/3)*2^(3/2), |Q| = 2
    cube = DyadicCube.aligned((4,), 8)
    want = (2.0 / 3.0) * 2.0**1.5 / 4.0
    assert cell_average(w.density(), cube) == pytest.approx(want, rel=1e-13)
    inside = DyadicCube.aligned((4,), 4)  # [0,2)
    want = (2.0 / 3.0) * 2.0**1.5 / 2.0
    assert cell_average(w.density(), inside) == pytest.approx(want, rel=1e-13)


def test_power_weight_rejects_nonintegrable():
    lat = Lattice(default_box(1), 3)
    with pytest.raises(ValueError):
        Weight.power(lat, -1.0)
    lat2 = Lattice(default_box(2), 2)
    with pytest.raises(ValueError):
        Weight.power(lat2, -2.0)


def test_grid_weight_requires_positive():
    lat = Lattice(default_box(1), 3)
    vals = np.ones(8)
    vals[2] = 0.0
    with pytest.raises(ValueError):
        Weight.from_values(lat, vals)


def test_weight_algebra_power_and_product():
    lat = Lattice(default_box(1), 4)
    rng = np.random.default_rng(7)
    g = Weight.from_values(lat, rng.random(16) + 0.5)
    w = Weight.power(lat, 0.5)
    prod = w * g
    assert prod.exponent == 0.5
    sq = prod**2.0
    assert sq.exponent == 1.0
    cube = DyadicCube.aligned((3,), 5)
    # oracle: masses of w*g per cell are g_value * integral of |x|^0.5
    direct = 0.0
    for c in range(3, 8):
        lo, hi = cell_bounds(lat, (c,))
        mass = math.copysign(abs(hi[0]) ** 1.5 / 1.5, hi[0]) - math.copysign(
            abs(lo[0]) ** 1.5 / 1.5, lo[0]
        )
        direct += g.values[c] * mass
    assert cell_average(prod.density(), cube) == pytest.approx(direct / (5 * lat.h), rel=1e-12)


# ------------------------------------------------------------ weight vector
def test_weight_vector_joint_and_duals_grid_weights():
    lat = Lattice(default_box(1), 5)
    rng = np.random.default_rng(3)
    P = ExponentTuple((2.0, 3.0, 6.0))
    ws = [Weight.from_values(lat, rng.random(32) + 0.2) for _ in range(3)]
    wv = WeightVector(ws, P)
    joint = wv.joint
    want = np.ones(32)
    for w, p_i in zip(ws, P.exponents):
        want *= w.values ** (P.p / p_i)
    assert np.allclose(joint.values, want, rtol=1e-10)
    for i in range(3):
        sig = wv.sigma(i)
        assert np.allclose(sig.values, ws[i].values ** (1.0 - P.conjugates[i]), rtol=1e-10)


def test_weight_vector_power_exponent_arithmetic():
    lat = Lattice(default_box(1), 4)
    P = ExponentTuple((2.0, 2.0))
    wv = WeightVector([Weight.power(lat, 0.5), Weight.power(lat, -0.25)], P)
    assert wv.joint.exponent == 0.5 * 0.5 + (-0.25) * 0.5  # exact float arithmetic
    assert wv.sigma(0).exponent == 0.5 * (1.0 - 2.0)


def test_weight_vector_length_mismatch():
    lat = Lattice(default_box(1), 3)
    with pytest.raises(ValueError):
        WeightVector([Weight.constant(lat)], ExponentTuple((2.0, 2.0)))


# -------------------------------------------------------------- per-cube ap
def test_per_cube_ap_frozen_power_value():
    # m=1, p=2, w=|x|^(1/2) on Q=[0,1): averages (2/3) and 2, product 4/3
    lat = Lattice(default_box(1), 4)
    wv = WeightVector([Weight.power(lat, 0.5)], ExponentTuple((2.0,)))
    Q = DyadicCube.aligned((8,), 4)  # [0,1)
    assert per_cube_ap(wv, Q) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_per_cube_ap_constant_weights_is_one():
    lat = Lattice(default_box(1), 5)
    P = ExponentTuple((2.0, 3.0, 6.0))
    wv = WeightVector(
        [Weight.constant(lat, 2.0), Weight.constant(lat, 5.0), Weight.constant(lat, 0.1)], P
    )
    for cube in (DyadicCube.aligned((0,), 32), DyadicCube.aligned((7,), 3)):
        assert per_cube_ap(wv, cube) == pytest.approx(1.0, rel=1e-13)


def test_per_cube_ap_scale_invariance():
    lat = Lattice(default_box(1), 6)
    rng = np.random.default_rng(11)
    P = ExponentTuple((2.0, 2.0))
    w1 = Weight.from_values(lat, rng.random(64) + 0.1)
    w2 = Weight.power(lat, 0.25)
    base = WeightVector([w1, w2], P)
    scaled = WeightVector([w1 * Weight.constant(lat, 3.0), w2], P)
    for _ in range(20):
        start = int(rng.integers(-8, 60))
        size = int(rng.integers(1, 70))
        if start + size <= 0 or start >= 64:
            continue
        Q = DyadicCube.aligned((start,), size)
        assert per_cube_ap(scaled, Q) == pytest.approx(per_cube_ap(base, Q), rel=1e-12)


def test_per_cube_ap_degenerate_underflow_returns_zero(caplog):
    # subnormal positive values underflow to zero cell mass: logged, result 0
    lat = Lattice(default_box(1), 4)
    tiny = np.full(16, 5e-324)
    wv = WeightVector([Weight.from_values(lat, tiny)], ExponentTuple((2.0,)))
    Q = DyadicCube.aligned((9,), 1)  # [0.25, 0.5)
    with caplog.at_level(logging.DEBUG, logger="mweights.weights"):
        assert per_cube_ap(wv, Q) == 0.0
    assert any("degenerate" in r.message for r in caplog.records)
    # the scan counts every such cube instead of logging each one
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="mweights.weights"):
        report = ap_constant(wv, CubeFamily(lat))
    assert report.constant == 0.0
    assert report.degenerate == report.scanned > 0
    assert report.to_json()["degenerate"] == report.scanned
    assert sum("degenerate" in r.message for r in caplog.records) == 1


# -------------------------------------------------------------- ap constant
def test_ap_constant_ones_is_one():
    lat = Lattice(default_box(1), 5)
    P = ExponentTuple((2.0, 2.0))
    wv = WeightVector([Weight.constant(lat), Weight.constant(lat)], P)
    report = ap_constant(wv, CubeFamily(lat))
    assert report.constant == pytest.approx(1.0, rel=1e-13)
    assert report.scanned > 0
    assert report.argmax is not None


def test_ap_constant_monotone_in_family():
    lat = Lattice(default_box(1), 6)
    wv = WeightVector([Weight.power(lat, 0.5)], ExponentTuple((2.0,)))
    small = ap_constant(wv, CubeFamily(lat, g_min=0)).constant
    big = ap_constant(wv, CubeFamily(lat, g_min=-2)).constant
    assert big >= small


def test_ap_constant_brute_force_cross_check():
    # family with aligned cubes matches the brute-force sup over all
    # cell-aligned intervals to 1%; dyadic-only family is close behind
    lat = Lattice(default_box(1), 8)
    wv = WeightVector([Weight.power(lat, 0.5)], ExponentTuple((2.0,)))
    brute = ap_constant(wv, CubeFamily(lat, kind="aligned")).constant
    both = ap_constant(wv, CubeFamily(lat, kind="both")).constant
    assert both == pytest.approx(brute, rel=1e-2)
    dyadic = ap_constant(wv, CubeFamily(lat, kind="shifted")).constant
    assert dyadic <= both + 1e-12
    assert dyadic >= 0.85 * brute


def test_ap_constant_classical_cross_check():
    # m=1 specialization agrees with an independent classical routine
    lat = Lattice(default_box(1), 6)
    rng = np.random.default_rng(19)
    w = Weight.from_values(lat, rng.random(64) + 0.3)
    p = 3.0
    wv = WeightVector([w], ExponentTuple((p,)))
    fam = CubeFamily(lat)
    report = ap_constant(wv, fam)

    # independent path: avg(w) * avg(w^(1-p'))^(p-1) from raw cell masses
    masses = w.cell_masses()
    dual_masses = (w.values ** (1.0 - p / (p - 1.0))) * lat.cell_volume
    best = 0.0
    for cube in fam.cubes():
        N = lat.cells_per_axis
        a = max(0, cube.start[0])
        b = min(N, cube.start[0] + cube.size)
        vol = cube.size * lat.h
        avg_w = masses[a:b].sum() / vol
        avg_s = dual_masses[a:b].sum() / vol
        best = max(best, avg_w * avg_s ** (p - 1.0))
    assert report.constant == pytest.approx(best, rel=1e-12)


@pytest.mark.parametrize("weights", ["constant", "power"])
@pytest.mark.parametrize("kind", ["shifted", "aligned", "both"])
@pytest.mark.parametrize("n, L", [(1, 5), (2, 3)])
def test_ap_constant_argmax_is_first_strict_maximizer(n, L, kind, weights):
    # the batched scan must agree with a plain cube-by-cube loop in scan
    # order: same count, same value, and ties broken toward the first cube
    lat = Lattice(default_box(n), L)
    if weights == "constant":
        ws = [Weight.constant(lat), Weight.constant(lat)]
    else:
        ws = [Weight.power(lat, 0.5), Weight.power(lat, -0.25)]
    wv = WeightVector(ws, ExponentTuple((2.0, 3.0)))
    family = CubeFamily(lat, kind=kind)
    best, arg, scanned, ties = float("-inf"), None, 0, 0
    for cube in family.cubes():
        scanned += 1
        val = per_cube_ap(wv, cube)
        ties = ties + 1 if val == best else ties
        if val > best:
            best, arg, ties = val, cube, 1
    report = ap_constant(wv, family)
    assert report.scanned == scanned
    assert report.constant == best
    key = lambda c: (c.grid_id, c.g, c.j, c.start, c.size)  # noqa: E731
    assert key(report.argmax) == key(arg)
    if weights == "constant":
        assert best == 1.0 and ties > 1


def per_cube_scan(wv, family):
    """The scan one cube at a time through per_cube_ap, in scan order: the
    first strict maximizer, and the cubes whose supremand is 0 because an
    average underflowed."""
    best, arg, scanned, degenerate = float("-inf"), None, 0, 0
    for cube in family.cubes():
        val = per_cube_ap(wv, cube)
        scanned += 1
        degenerate += any(
            cell_average(w.density(), cube) == 0.0
            for w in (wv.joint,) + tuple(wv.sigma(i) for i in range(wv.m))
        )
        if val > best:
            best, arg = val, cube
    return best, arg, scanned, degenerate


@pytest.mark.parametrize("seed", [1, 7, 100, 1 << 14])
@pytest.mark.parametrize("kind", ["shifted", "aligned", "both"])
@pytest.mark.parametrize("n, L", [(1, 5), (2, 4)])
def test_ap_constant_in_blocks_matches_a_per_layout_scan(n, L, kind, seed):
    # the scan, a grid's generations or an aligned size at a time, finds
    # what per_cube_ap finds cube by cube, to the bit.  The step weight's
    # dual w^(1-p') = w^-100 underflows to zero on a 2-cell-wide block of
    # large values, drawn at random, so the cubes inside it are degenerate;
    # it is 1 elsewhere, so the aligned cubes' prefix sums do not cancel
    lat = Lattice(default_box(n), L)
    rng = np.random.default_rng(seed)
    values = np.ones(lat.shape)
    corner = rng.integers(0, lat.cells_per_axis - 1, size=n)
    values[tuple(slice(c, c + 2) for c in corner)] = 1e5
    wv = WeightVector([Weight.from_values(lat, values), Weight.power(lat, 0.25)],
                      ExponentTuple((1.01, 3.0)))
    family = CubeFamily(lat, kind=kind)
    best, arg, scanned, degenerate = per_cube_scan(wv, family)
    report = ap_constant(wv, family)
    assert report.constant == best
    assert report.argmax == arg
    assert (report.scanned, report.degenerate) == (scanned, degenerate)
    assert degenerate > 0


def step_probe():
    """n=2, L=4: two step weights 2^k, k drawn from [-3, 3], at
    P = (1.01, 3), so the first dual w^-100 spans 2^600."""
    lat = Lattice(default_box(2), 4)
    rng = np.random.default_rng(0)
    ws = [Weight.from_values(lat, 2.0 ** rng.integers(-3, 4, size=lat.shape).astype(float))
          for _ in range(2)]
    return WeightVector(ws, ExponentTuple((1.01, 3.0)))


def fsum_supremand(wv, cube):
    """per_cube_ap from math.fsum over the cube's cells inside the box."""
    lat = wv.lattice
    N = lat.cells_per_axis
    block = tuple(slice(max(s, 0), min(s + cube.size, N)) for s in cube.start)
    volume = (cube.size * lat.h) ** lat.n

    def average(w):
        return math.fsum(w.cell_masses()[block].ravel().tolist()) / volume

    P = wv.exponents
    out = average(wv.joint)
    for i in range(P.m):
        out *= average(wv.sigma(i)) ** (P.p / P.conjugates[i])
    return out


@pytest.mark.parametrize("kind", ["shifted", "aligned", "both"])
def test_ap_constant_on_a_wide_dual_matches_fsum(kind):
    # prefix differences cancelled on this probe: 999 of the dual's 1,453
    # grid-cube sums came out 0 and 8 negative, and the scan returned -inf;
    # the aligned cubes' gave NaN supremands.  Child sums and doubled runs
    # add nonnegative terms only
    wv = step_probe()
    family = CubeFamily(wv.lattice, kind=kind)
    report = ap_constant(wv, family)
    want = max(fsum_supremand(wv, cube) for cube in family.cubes())
    assert report.constant == pytest.approx(want, rel=1e-13)
    assert report.constant == 20.970989981328195
    assert report.degenerate == 0
    assert per_cube_ap(wv, report.argmax) == report.constant


def test_ap_constant_rejects_nan_supremands(monkeypatch):
    # a NaN supremand is reported by count instead of passed over: one is
    # injected into the first cube of each grid's pass
    from mweights import weights

    supremand = weights._supremand

    def first_cube_nan(P, averages):
        vals, degenerate = supremand(P, averages)
        vals[0] = np.nan
        return vals, degenerate

    monkeypatch.setattr(weights, "_supremand", first_cube_nan)
    wv = step_probe()
    with pytest.raises(ValueError, match=r"^4 of 1453 cubes .* NaN supremand"):
        ap_constant(wv, CubeFamily(wv.lattice))


def test_ap_constant_rejects_a_family_on_another_lattice():
    # an L=6 family on L=8 weights scanned 268 of the 1,037 cubes, and
    # reported them as the L=6 family
    lat = Lattice(default_box(1), 8)
    wv = WeightVector([Weight.power(lat, 0.5)], ExponentTuple((2.0,)))
    for other in (Lattice(default_box(1), 6), Lattice(Box((-1.0,), 4.0), 8)):
        with pytest.raises(ValueError, match="not on the weights' lattice"):
            ap_constant(wv, CubeFamily(other))
    assert ap_constant(wv, CubeFamily(lat)).scanned == 1037


@pytest.mark.parametrize("kind", ["shifted", "aligned", "both"])
def test_ap_report_counts_cubes_per_generation(kind):
    lat = Lattice(default_box(2), 3)
    wv = WeightVector([Weight.power(lat, 0.5)], ExponentTuple((2.0,)))
    family = CubeFamily(lat, kind=kind)
    report = ap_constant(wv, family)
    want = {}
    for layout in family.layouts():
        want[layout.g] = want.get(layout.g, 0) + math.prod(layout.shape)
    assert report.scanned_per_generation == want
    assert list(report.scanned_per_generation) == list(want)  # scan order
    assert sum(report.scanned_per_generation.values()) == report.scanned
    blob = report.to_json()["scanned_per_generation"]
    assert blob == {"aligned" if g is None else str(g): k for g, k in want.items()}
    if kind != "aligned":
        assert list(want)[:-1 if kind == "both" else None] == list(range(-2, 4))


def test_ap_constant_scan_stays_small_on_a_large_family():
    # n=2, L=8: 350,577 cubes.  The grid-by-grid scan peaks at about
    # 4.7 MiB over the densities it reads; one flat pass over the whole
    # family peaks at about 49 MiB
    lat = Lattice(default_box(2), 8)
    rng = np.random.default_rng(2)
    steps = Weight.from_values(lat, 2.0 ** rng.integers(-3, 4, size=lat.shape).astype(float))
    wv = WeightVector([steps, Weight.power(lat, 0.3)], ExponentTuple((2.0, 2.0)))
    for weight in (wv.joint, wv.sigma(0), wv.sigma(1)):
        weight.density()
    family = CubeFamily(lat)
    tracemalloc.start()
    try:
        report = ap_constant(wv, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.scanned == 350577
    assert peak < 8 * 2**20


def test_ap_constant_rejects_empty_family():
    lat = Lattice(default_box(1), 3)
    wv = WeightVector([Weight.constant(lat)], ExponentTuple((2.0,)))
    # the family itself refuses a generation finer than the lattice
    with pytest.raises(ValueError, match="finer than the lattice resolution L=3"):
        ap_constant(wv, CubeFamily(lat, g_min=4))


def test_ap_report_json():
    lat = Lattice(default_box(1), 4)
    wv = WeightVector([Weight.power(lat, 0.5)], ExponentTuple((2.0,)))
    report = ap_constant(wv, CubeFamily(lat))
    blob = json.loads(json.dumps(report.to_json()))
    assert set(blob) >= {"constant", "argmax", "scanned", "family"}
    assert blob["constant"] == report.constant
    assert set(blob["argmax"]) >= {"grid", "g", "j"}


def test_ap_report_json_keys_keep_the_field_order():
    lat = Lattice(default_box(1), 4)
    wv = WeightVector([Weight.power(lat, 0.5)], ExponentTuple((2.0,)))
    blob = ap_constant(wv, CubeFamily(lat, kind="both")).to_json()
    assert list(blob) == [
        "constant",
        "argmax",
        "scanned",
        "family",
        "degenerate",
        "scanned_per_generation",
    ]
    assert list(blob["argmax"]) == ["grid", "g", "j", "start", "size"]
    assert list(blob["scanned_per_generation"])[-1] == "aligned"


# ------------------------------------------------------------------ duality
def test_dualize_per_cube_identity_power_weights():
    lat = Lattice(default_box(1), 6)
    P = ExponentTuple((4.0, 4.0))
    wv = WeightVector([Weight.power(lat, 0.5), Weight.constant(lat)], P)
    rng = np.random.default_rng(23)
    dual = dualize(wv, 0)
    assert dual.exponents.exponents[0] == pytest.approx(P.p_conj)
    for _ in range(30):
        start = int(rng.integers(-10, 63))
        size = int(rng.integers(1, 80))
        if start + size <= 0 or start >= 64:
            continue
        Q = DyadicCube.aligned((start,), size)
        lhs = per_cube_ap(dual, Q)
        rhs = per_cube_ap(wv, Q) ** (P.conjugates[0] / P.p)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_dualize_per_cube_identity_grid_weights_all_slots():
    lat = Lattice(default_box(1), 5)
    rng = np.random.default_rng(31)
    P = ExponentTuple((4.0, 4.0, 4.0))  # p = 4/3 > 1
    ws = [Weight.from_values(lat, rng.random(32) + 0.2) for _ in range(3)]
    wv = WeightVector(ws, P)
    for i in range(3):
        dual = dualize(wv, i)
        for _ in range(10):
            start = int(rng.integers(0, 28))
            size = int(rng.integers(1, 32 - start))
            Q = DyadicCube.aligned((start,), size)
            lhs = per_cube_ap(dual, Q)
            rhs = per_cube_ap(wv, Q) ** (P.conjugates[i] / P.p)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_dualize_power_exponent_transform():
    lat = Lattice(default_box(1), 4)
    P = ExponentTuple((4.0, 4.0))
    wv = WeightVector([Weight.power(lat, 0.5), Weight.power(lat, -0.25)], P)
    dual = dualize(wv, 0)
    joint_exp = 0.5 * 0.5 + (-0.25) * 0.5
    assert dual.weights[0].exponent == (1.0 - P.p_conj) * joint_exp
    assert dual.weights[1].exponent == -0.25


def test_dualize_family_identity():
    lat = Lattice(default_box(1), 5)
    P = ExponentTuple((3.0, 3.0))  # p = 1.5
    rng = np.random.default_rng(5)
    ws = [Weight.from_values(lat, rng.random(32) + 0.4) for _ in range(2)]
    wv = WeightVector(ws, P)
    fam = CubeFamily(lat)
    base = ap_constant(wv, fam).constant
    for i in range(2):
        dual_const = ap_constant(dualize(wv, i), fam).constant
        assert dual_const == pytest.approx(base ** (P.conjugates[i] / P.p), rel=1e-12)


def test_dualize_rejects_p_at_most_one():
    lat = Lattice(default_box(1), 3)
    wv = WeightVector([Weight.constant(lat), Weight.constant(lat)], ExponentTuple((2.0, 2.0)))
    with pytest.raises(ValueError):
        dualize(wv, 0)



# ------------------------------------------------------------ stacked rows
def _stack_rows(lat, rng):
    """Weight vectors at P = (2, 4/3) on one lattice: random weights, a
    power pair, a row whose second dual w^-3 underflows to zero on the
    cells where w = 1e120 (some cubes degenerate), and a row whose joint
    underflows to zero mass on every cell (every cube degenerate)."""
    from mweights.weights import random_weight

    P = ExponentTuple((2.0, 4.0 / 3.0))
    rows = [
        WeightVector([random_weight(rng, lat, p) for p in P.exponents], P) for _ in range(3)
    ]
    rows.append(WeightVector([Weight.power(lat, 0.5), Weight.power(lat, -0.2)], P))
    huge = np.where(rng.random(lat.shape) < 0.3, 1e120, 1.0)
    rows.append(WeightVector([Weight.constant(lat), Weight.from_values(lat, huge)], P))
    tiny = np.full(lat.shape, 5e-324)
    rows.append(WeightVector([Weight.from_values(lat, tiny)] * 2, P))
    return rows


@pytest.mark.parametrize("kind", ["shifted", "aligned", "both"])
@pytest.mark.parametrize("n, L", [(1, 8), (2, 4)])
def test_ap_constant_rows_equal_one_row_calls(n, L, kind):
    # every field of every row's report has the bits of its own call
    from mweights.weights import ap_constant_rows

    lat = Lattice(default_box(n), L)
    rows = _stack_rows(lat, np.random.default_rng(100 * n + L))
    family = CubeFamily(lat, kind=kind)
    stacked = ap_constant_rows(rows, family)
    assert len(stacked) == len(rows)
    for wv, report in zip(rows, stacked):
        alone = ap_constant(wv, family)
        assert report.constant == alone.constant
        assert report.argmax == alone.argmax
        assert report.scanned == alone.scanned
        assert report.degenerate == alone.degenerate
        assert report.scanned_per_generation == alone.scanned_per_generation
        assert report == alone
    assert 0 < stacked[-2].degenerate < stacked[-2].scanned
    assert stacked[-1].degenerate == stacked[-1].scanned
    assert stacked[-1].constant == 0.0


def test_ap_constant_rows_validate_the_stack(monkeypatch):
    from mweights import weights
    from mweights.weights import ap_constant_rows

    lat = Lattice(default_box(1), 4)
    family = CubeFamily(lat)
    assert ap_constant_rows([], family) == []
    w = Weight.power(lat, 0.5)
    two, three = ExponentTuple((2.0,)), ExponentTuple((3.0,))
    with pytest.raises(ValueError, match="one lattice"):
        ap_constant_rows(
            [WeightVector([w], two), WeightVector([Weight.constant(Lattice(default_box(1), 5))], two)],
            family,
        )
    with pytest.raises(ValueError, match="one exponent tuple"):
        ap_constant_rows([WeightVector([w], two), WeightVector([w], three)], family)
    # a NaN supremand in a later row is refused with that row's count
    supremand = weights._supremand

    def last_cube_nan(P, averages):
        vals, degenerate = supremand(P, averages)
        vals[-1] = np.nan
        return vals, degenerate

    monkeypatch.setattr(weights, "_supremand", last_cube_nan)
    rows = [WeightVector([w], two), WeightVector([Weight.constant(lat)], two)]
    with pytest.raises(ValueError, match=r"^2 of 73 cubes .* NaN supremand in row 1$"):
        ap_constant_rows(rows, family)


def test_ap_constant_rows_log_degenerate_cubes_once(caplog):
    from mweights.weights import ap_constant_rows

    lat = Lattice(default_box(1), 4)
    tiny = WeightVector([Weight.from_values(lat, np.full(16, 5e-324))], ExponentTuple((2.0,)))
    with caplog.at_level(logging.DEBUG, logger="mweights.weights"):
        reports = ap_constant_rows([tiny, tiny, tiny], CubeFamily(lat))
    assert [r.degenerate for r in reports] == [reports[0].scanned] * 3
    assert sum("degenerate" in r.message for r in caplog.records) == 1
