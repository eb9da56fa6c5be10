"""Oracle tests for the dyadic, multilinear, and weighted maximal operators."""
import numpy as np
import pytest

from mweights.grid import (
    DyadicCube,
    GridFunction,
    Lattice,
    ShiftedGridFamily,
    cell_average,
    default_box,
)
from mweights.operators import (
    dyadic_maximal,
    multilinear_maximal,
    multilinear_maximal_rows,
    weighted_dyadic_maximal,
)
from mweights.powermass import Interval
from mweights.selftest import brute_multilinear
from mweights.weights import Weight


def indicator_interval(lat, lo, hi):
    return GridFunction.indicator(lat, Interval(lo, hi))


def test_dyadic_maximal_matches_ancestor_chain_1d():
    lat = Lattice(default_box(1), 4)
    rng = np.random.default_rng(2)
    fs = [GridFunction(lat, rng.random(16)) for _ in range(2)]
    grid = ShiftedGridFamily(lat).grids[1]
    out = dyadic_maximal(fs, grid)
    for c in range(16):
        best = 0.0
        for g in range(-2, lat.L + 1):
            Q = grid.cube_containing_cell((c,), g)
            prod = 1.0
            for f in fs:
                prod *= cell_average(f, Q)
            best = max(best, prod)
        assert out.values[c] == pytest.approx(best, rel=1e-12)


def test_dyadic_maximal_matches_ancestor_chain_2d():
    lat = Lattice(default_box(2), 3)
    rng = np.random.default_rng(4)
    fs = [GridFunction(lat, rng.random((8, 8)))]
    fam = ShiftedGridFamily(lat)
    for grid in fam.grids:
        out = dyadic_maximal(fs, grid)
        for c0 in range(8):
            for c1 in range(8):
                best = 0.0
                for g in range(-2, lat.L + 1):
                    Q = grid.cube_containing_cell((c0, c1), g)
                    best = max(best, cell_average(fs[0], Q))
                assert out.values[c0, c1] == pytest.approx(best, rel=1e-12)


def test_dyadic_maximal_indicator_frozen_values():
    lat = Lattice(default_box(1), 4)
    f = indicator_interval(lat, 0.0, 1.0)
    std = ShiftedGridFamily(lat).standard
    out = dyadic_maximal([f], std)
    # x in [1,2): best standard ancestor is [0,2) with average 1/2
    for c in range(12, 16):
        assert out.values[c] == pytest.approx(0.5, rel=1e-13)
    # x in [-1,0): no standard ancestor meets [0,1)
    for c in range(4, 8):
        assert out.values[c] == 0.0
    # x in [0,1): the cube [0,1) itself
    for c in range(8, 12):
        assert out.values[c] == pytest.approx(1.0, rel=1e-13)


def test_multilinear_maximal_indicator_frozen():
    lat = Lattice(default_box(1), 4)
    f = indicator_interval(lat, 0.0, 1.0)
    lower, upper = multilinear_maximal([f, f])
    assert np.all(lower.values[8:12] == pytest.approx(1.0, rel=1e-13))
    # near the right box edge the best aligned cube is [0,2): product 1/4,
    # attained by a standard dyadic cube, so lower == brute force there
    brute = brute_multilinear([f, f])
    assert brute[15] == pytest.approx(0.25, rel=1e-13)
    assert lower.values[15] == pytest.approx(0.25, rel=1e-13)
    assert upper.values[15] >= 0.25


def test_multilinear_maximal_brackets_brute_force_1d():
    lat = Lattice(default_box(1), 5)
    rng = np.random.default_rng(7)
    fs = [GridFunction(lat, rng.random(32)) for _ in range(2)]
    lower, upper = multilinear_maximal(fs)
    brute = brute_multilinear(fs)
    assert np.all(lower.values <= brute * (1 + 1e-12))
    assert np.all(brute <= upper.values * (1 + 1e-12))


def test_multilinear_maximal_brackets_brute_force_2d():
    lat = Lattice(default_box(2), 3)
    rng = np.random.default_rng(9)
    fs = [GridFunction(lat, rng.random((8, 8))) for _ in range(2)]
    lower, upper = multilinear_maximal(fs)
    brute = brute_multilinear(fs)
    assert np.all(lower.values <= brute * (1 + 1e-12))
    assert np.all(brute <= upper.values * (1 + 1e-12))


def test_multilinear_maximal_homogeneity():
    lat = Lattice(default_box(1), 4)
    rng = np.random.default_rng(11)
    fs = [GridFunction(lat, rng.random(16)) for _ in range(2)]
    scaled = [GridFunction(lat, 2.0 * fs[0].values), GridFunction(lat, 4.0 * fs[1].values)]
    lo1, up1 = multilinear_maximal(fs)
    lo2, up2 = multilinear_maximal(scaled)
    assert np.allclose(lo2.values, 8.0 * lo1.values, rtol=1e-13)
    assert np.allclose(up2.values, 8.0 * up1.values, rtol=1e-13)


def test_multilinear_maximal_monotone():
    lat = Lattice(default_box(1), 4)
    rng = np.random.default_rng(13)
    f = GridFunction(lat, rng.random(16))
    g = GridFunction(lat, f.values + rng.random(16))
    lo_f, up_f = multilinear_maximal([f])
    lo_g, up_g = multilinear_maximal([g])
    assert np.all(lo_f.values <= lo_g.values * (1 + 1e-12))
    assert np.all(up_f.values <= up_g.values * (1 + 1e-12))


def test_weighted_maximal_constant_function():
    lat = Lattice(default_box(1), 5)
    rng = np.random.default_rng(17)
    f = GridFunction(lat, np.ones(32))
    w = Weight.from_values(lat, rng.random(32) + 0.2)
    grid = ShiftedGridFamily(lat).standard
    out = weighted_dyadic_maximal(f, w, grid)
    assert np.allclose(out.values, 1.0, rtol=1e-12)


def test_weighted_maximal_unit_weight_matches_unweighted_inside():
    # with w == 1 and supports inside a root cube scanned from its own
    # generation, weighted averages and plain averages coincide cube by cube
    lat = Lattice(default_box(1), 5)
    rng = np.random.default_rng(19)
    vals = np.zeros(32)
    vals[16:32] = rng.random(16)  # support in [0,2)
    f = GridFunction(lat, vals)
    grid = ShiftedGridFamily(lat).standard
    w = Weight.constant(lat)
    weighted = weighted_dyadic_maximal(f, w, grid, g_min=1)
    plain = dyadic_maximal([f], grid, g_min=1)
    assert np.allclose(weighted.values[16:32], plain.values[16:32], rtol=1e-12)


def test_weighted_maximal_conjugate_exponent_bound():
    # the classical bound: ||M_w f||_{L^p(w)} <= p' ||f||_{L^p(w)}
    lat = Lattice(default_box(1), 10)
    rng = np.random.default_rng(23)
    grid = ShiftedGridFamily(lat).standard
    for p in (1.5, 2.0, 3.0):
        p_conj = p / (p - 1.0)
        for _ in range(5):
            f = GridFunction(lat, rng.random(1024))
            w = Weight.from_values(lat, rng.random(1024) + 0.05)
            out = weighted_dyadic_maximal(f, w, grid)
            wm = w.cell_masses()
            lhs = float(np.sum(out.values**p * wm)) ** (1.0 / p)
            rhs = float(np.sum(f.values**p * wm)) ** (1.0 / p)
            assert lhs <= p_conj * rhs * (1 + 1e-12)


def test_weighted_maximal_dominates_f():
    # M_w f >= f cellwise (the cell itself is in the chain)
    lat = Lattice(default_box(1), 6)
    rng = np.random.default_rng(29)
    f = GridFunction(lat, rng.random(64))
    w = Weight.power(lat, 0.5)
    grid = ShiftedGridFamily(lat).grids[1]
    out = weighted_dyadic_maximal(f, w, grid)
    assert np.all(out.values >= f.values * (1 - 1e-12))


@pytest.mark.parametrize("g_min", [-2, 1])
@pytest.mark.parametrize("n, L", [(1, 8), (2, 4)])
def test_multilinear_maximal_rows_equal_one_row_calls(n, L, g_min):
    # a stack of rows gives every row the bits of its own call, zero rows
    # and rows of spikes among them
    lat = Lattice(default_box(n), L)
    rng = np.random.default_rng(10 * n + L)
    rows = [[GridFunction(lat, rng.lognormal(0.0, 2.0, lat.shape)) for _ in range(2)]
            for _ in range(4)]
    rows.append([GridFunction.zeros(lat), rows[0][1]])
    stacked = multilinear_maximal_rows(rows, g_min=g_min)
    assert len(stacked) == len(rows)
    for fs, (lower, upper) in zip(rows, stacked):
        alone_lower, alone_upper = multilinear_maximal(fs, g_min=g_min)
        assert np.array_equal(lower.values, alone_lower.values)
        assert np.array_equal(upper.values, alone_upper.values)
    assert not stacked[-1][0].values.any()


def test_multilinear_maximal_rows_validate_the_stack():
    lat = Lattice(default_box(1), 4)
    f = indicator_interval(lat, -1.0, 0.0)
    g = indicator_interval(Lattice(default_box(1), 5), -1.0, 0.0)
    assert multilinear_maximal_rows([]) == []
    with pytest.raises(ValueError, match="one lattice"):
        multilinear_maximal_rows([[f, f], [g, g]])
    with pytest.raises(ValueError, match="same number of inputs"):
        multilinear_maximal_rows([[f, f], [f]])
