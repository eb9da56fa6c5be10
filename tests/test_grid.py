"""Dyadic lattice, shifted grid families, grid functions.

Frozen values come from hand geometry on the default box [-2,2)^n: cube
averages of indicators, the origin-anchored standard grid, and the one-third
shift pattern realized on the cell lattice.
"""
import itertools
import math

import numpy as np
import pytest

from oracles import cell_bounds
from mweights.grid import (
    Box,
    CellRegion,
    DyadicCube,
    GridFunction,
    Lattice,
    PowerDescriptor,
    ShiftedGridFamily,
    aligned_window_sums,
    cell_average,
    common_lattice,
    cube_averages,
    cube_levels,
    default_box,
    third_offset,
    window_sums,
)
from mweights.powermass import Ball, Interval, Rect
from mweights.weights import CubeFamily


def make_lattice(n=1, L=3):
    return Lattice(default_box(n), L)


def cube_lo(lat, cube):
    """Oracle: the lower corner of a cube in box coordinates."""
    return np.asarray(lat.box.lo) + lat.h * np.asarray(cube.start, dtype=float)


def total_mass(f):
    """Oracle: the integral of a grid function over the box."""
    return float(np.sum(f.values)) * f.lattice.cell_volume


def test_lattice_geometry():
    lat = make_lattice(1, 3)
    assert lat.cells_per_axis == 8
    assert lat.h == 0.5
    assert lat.cell_volume == 0.5
    lo, hi = cell_bounds(lat, (4,))
    assert lo[0] == 0.0 and hi[0] == 0.5
    lat2 = make_lattice(2, 2)
    assert lat2.cell_volume == 1.0
    lo, hi = cell_bounds(lat2, (0, 3))
    assert tuple(lo) == (-2.0, 1.0) and tuple(hi) == (-1.0, 2.0)


def test_third_offset_pattern():
    # offsets truncate the base-2 expansion of 1/3 with the alternating parity
    for L in (3, 4, 7, 12):
        prev = 0
        for M in range(1, L + 3):
            t = third_offset(M, L)
            assert 0 <= t < 2**M
            # nesting: child offsets refine parent offsets
            assert t % 2 ** (M - 1) == prev % 2 ** (M - 1) or M == 1
            target = 2**M / 3.0 if (L - M) % 2 == 0 else 2.0 * 2**M / 3.0
            assert abs(t - target) <= 1.0
            prev = t


def test_standard_grid_is_origin_anchored():
    # x = 0 is a cube boundary of the standard grid at every generation
    lat = make_lattice(1, 5)
    fam = ShiftedGridFamily(lat)
    std = fam.standard
    mid = 2**4
    for g in range(-2, 6):
        cube = std.cube_containing_cell((mid,), g)
        assert cube_lo(lat, cube)[0] == 0.0


def test_partition_and_nesting():
    for n, L in ((1, 5), (2, 3)):
        lat = make_lattice(n, L)
        fam = ShiftedGridFamily(lat)
        assert len(fam.grids) == 2**n
        N = lat.cells_per_axis
        for grid in fam.grids:
            for g in range(-2, L + 1):
                paint = np.zeros((N,) * n, dtype=int)
                for cube in grid.layout(g).cubes():
                    sl = tuple(
                        slice(max(0, s), min(N, s + cube.size)) for s in cube.start
                    )
                    paint[sl] += 1
                assert np.all(paint == 1), (grid.grid_id, g)
        # nesting: the cube of a cell at generation g+1 sits inside the one at g
        rng = np.random.default_rng(7)
        for grid in fam.grids:
            for _ in range(50):
                cell = tuple(rng.integers(0, N, size=n))
                for g in range(-1, L):
                    big = grid.cube_containing_cell(cell, g)
                    small = grid.cube_containing_cell(cell, g + 1)
                    for ax in range(n):
                        assert big.start[ax] <= small.start[ax]
                        assert small.start[ax] + small.size <= big.start[ax] + big.size


def test_cube_index_roundtrip():
    lat = make_lattice(2, 4)
    fam = ShiftedGridFamily(lat)
    for grid in fam.grids:
        for g in (-2, 0, 2, 4):
            for cube in grid.layout(g).cubes():
                again = grid.cube(g, cube.j)
                assert again.start == cube.start and again.size == cube.size


def test_containment_six_times():
    # every cell-aligned cube sits inside a family cube at most 6x wider
    rng = np.random.default_rng(123)
    for n, L in ((1, 7), (2, 5)):
        lat = make_lattice(n, L)
        fam = ShiftedGridFamily(lat)
        N = lat.cells_per_axis
        for _ in range(1000 if n == 1 else 400):
            size = int(2 ** (rng.uniform(0.0, math.log2(N))))
            start = tuple(int(rng.integers(0, N - size + 1)) for _ in range(n))
            cover = fam.cover(start, size)
            assert cover.size <= 6 * size
            assert cover.g >= -2
            assert cover.contains(DyadicCube.aligned(start, size))


def test_cover_is_the_smallest_family_cube_then_the_first_grid():
    # brute scan of the shifted family: among the cubes containing the
    # aligned cube, the smallest; of those, the one of the first grid
    for n, L in ((1, 3), (1, 5), (2, 3)):
        lat = make_lattice(n, L)
        fam = ShiftedGridFamily(lat)
        family = [
            (cube.size, layout.grid.beta, cube)
            for layout in CubeFamily(lat).layouts()
            for cube in layout.cubes()
        ]
        N = lat.cells_per_axis
        for size in range(1, N + 1):
            for start in itertools.product(range(N - size + 1), repeat=n):
                aligned = DyadicCube.aligned(start, size)
                want = min(
                    (entry for entry in family if entry[2].contains(aligned)),
                    key=lambda entry: entry[:2],
                )[2]
                assert want.size <= 6 * size
                assert fam.cover(start, size) == want, (start, size)


@pytest.mark.parametrize(
    "start, size, cells, holds",
    [
        ((2, 2), 4, ((2, 6), (2, 6)), True),
        ((0, 4), 4, ((0, 4), (4, 8)), True),
        ((-2, 3), 4, ((0, 2), (3, 7)), False),  # out of the low end of axis 0
        ((6, 3), 4, ((6, 8), (3, 7)), False),  # out of the high end of axis 0
        ((3, -1), 4, ((3, 7), (0, 3)), False),  # out of the low end of axis 1
        ((3, 6), 4, ((3, 7), (6, 8)), False),  # out of the high end of axis 1
        ((-4, -4), 16, ((0, 8), (0, 8)), False),  # out of every side
    ],
)
def test_cube_cells_and_holds(start, size, cells, holds):
    lat = make_lattice(2, 3)
    cube = DyadicCube.aligned(start, size)
    assert lat.cube_cells(cube) == tuple(slice(lo, hi) for lo, hi in cells)
    assert lat.holds(cube) is holds
    # the slices pick exactly the cells of the cube inside the box
    index = np.indices(lat.shape)
    inside = np.all([(i >= s) & (i < s + size) for i, s in zip(index, start)], axis=0)
    mask = np.zeros(lat.shape, dtype=bool)
    mask[lat.cube_cells(cube)] = True
    assert np.array_equal(mask, inside)
    # the box is lat.holds(box cube); containment does not look at the box
    box = DyadicCube.aligned((0, 0), lat.cells_per_axis)
    assert box.contains(cube) is holds
    assert cube.contains(cube)
    assert DyadicCube.aligned((-4, -4), 16).contains(cube)


@pytest.mark.parametrize(
    "outer, inner, contains",
    [
        (((0,), 4), ((0,), 4), True),
        (((0,), 4), ((1,), 3), True),
        (((0,), 4), ((1,), 4), False),  # one cell past the high end
        (((0,), 4), ((-1,), 2), False),  # one cell past the low end
        (((-8, 0), 8), ((-8, 7), 1), True),  # outside the box, inside the cube
        (((0, 0), 4), ((2, 2), 4), False),
    ],
)
def test_cube_contains(outer, inner, contains):
    assert DyadicCube.aligned(*outer).contains(DyadicCube.aligned(*inner)) is contains


def _mismatched_calls():
    from mweights.experiments import analytic_power_norm
    from mweights.operators import (
        bilinear_riesz_rows,
        build_sparse_family,
        dyadic_maximal,
        multilinear_maximal,
        sparse_operator,
        weighted_dyadic_maximal,
    )
    from mweights.weights import ExponentTuple, Weight, WeightVector

    coarse, fine = make_lattice(1, 4), make_lattice(1, 5)
    f = GridFunction.indicator(coarse, Interval(0.0, 1.0))
    g = GridFunction.indicator(fine, Interval(0.0, 1.0))
    grid = ShiftedGridFamily(coarse).standard
    fine_grid = ShiftedGridFamily(fine).standard
    fam = build_sparse_family([f], grid, root=grid.cube_containing_cell((8,), 2))
    return {
        "dyadic_maximal": lambda: dyadic_maximal([f], fine_grid),
        "multilinear_maximal": lambda: multilinear_maximal([f, g]),
        "weighted_dyadic_maximal": lambda: weighted_dyadic_maximal(
            f, Weight.constant(fine), grid
        ),
        "build_sparse_family": lambda: build_sparse_family([f, g], grid, root=fam.root),
        "sparse_operator": lambda: sparse_operator(fam, [g]),
        "bilinear_riesz_rows": lambda: bilinear_riesz_rows([(f, g)], np.array([0.5])),
        "WeightVector": lambda: WeightVector(
            [Weight.constant(coarse), Weight.constant(fine)], ExponentTuple((2.0, 2.0))
        ),
        "analytic_power_norm": lambda: analytic_power_norm(f, 2.0, Weight.constant(fine)),
    }


@pytest.mark.parametrize("entry", sorted(_mismatched_calls()))
def test_entry_points_refuse_inputs_on_two_lattices(entry):
    with pytest.raises(ValueError, match="share one lattice"):
        _mismatched_calls()[entry]()


def test_common_lattice():
    lat = make_lattice(1, 3)
    f = GridFunction.zeros(lat)
    assert common_lattice([f, ShiftedGridFamily(lat).standard, CubeFamily(lat)]) == lat
    with pytest.raises(ValueError, match="need at least one grid function"):
        common_lattice([])
    with pytest.raises(ValueError, match="share one lattice"):
        common_lattice([f, GridFunction.zeros(make_lattice(1, 4))])


def test_cell_average_frozen_indicator():
    lat = make_lattice(1, 3)
    f = GridFunction.indicator(lat, Interval(0.0, 1.0))
    fam = ShiftedGridFamily(lat)
    std = fam.standard
    # [0,1) = cells 4,5 at generation 2
    q_01 = std.cube_containing_cell((4,), 2)
    assert cube_lo(lat, q_01)[0] == 0.0
    assert cell_average(f, q_01) == pytest.approx(1.0)
    # [0,2) at generation 1
    q_02 = std.cube_containing_cell((4,), 1)
    assert cell_average(f, q_02) == pytest.approx(0.5)
    # the root box is cell-aligned but not a standard-grid cube; use an aligned cube
    q_box = DyadicCube.aligned((0,), 8)
    assert cell_average(f, q_box) == pytest.approx(0.25)
    # cube partially outside the box: zero extension, normalize by full |Q|
    q_neg = std.cube_containing_cell((0,), 0)  # [-4, 0) clipped to box
    assert cell_average(f, q_neg) == pytest.approx(0.0)
    f2 = GridFunction.indicator(lat, Interval(-2.0, 0.0))
    assert cell_average(f2, q_neg) == pytest.approx(0.5)


def test_cell_average_rejects_fine_cubes():
    lat = make_lattice(1, 3)
    fam = ShiftedGridFamily(lat)
    with pytest.raises(ValueError):
        fam.standard.cube_containing_cell((0,), lat.L + 1)
    f = GridFunction.indicator(lat, Interval(0.0, 1.0))
    outside = DyadicCube.aligned((100,), 4)
    with pytest.raises(ValueError):
        cell_average(f, outside)


def test_cube_averages_reject_a_grid_cube_of_another_lattice():
    # the first cube of an L=6 family (b0, g=-2, start -224, size 256) was
    # read on L=8 weights as the cells [-224, 32): per_cube_ap gave 0.01565
    from mweights.weights import ExponentTuple, Weight, WeightVector, per_cube_ap

    lat = make_lattice(1, 8)
    f = GridFunction.from_power(lat, -0.5, None)
    wv = WeightVector([Weight.power(lat, 0.5)], ExponentTuple((2.0,)))
    other = next(CubeFamily(make_lattice(1, 6)).cubes())
    assert (other.grid_id, other.g, other.start, other.size) == ("b0", -2, (-224,), 256)
    for read in (cube_averages, cell_average, lambda _, q: per_cube_ap(wv, q)):
        with pytest.raises(ValueError, match="is not on the lattice"):
            read(f, other)
    own = ShiftedGridFamily(lat).by_id["b1"].cube(3, (1,))
    assert cell_average(f, own) > 0.0
    moved = DyadicCube(own.grid_id, own.g, own.j, (own.start[0] + 1,), own.size)
    with pytest.raises(ValueError, match="is not on the lattice"):
        cell_average(f, moved)
    for bad_id in ("x1", "b2", "b01"):
        with pytest.raises(ValueError):
            cell_average(f, DyadicCube(bad_id, own.g, own.j, own.start, own.size))


def test_from_power_values_are_exact_cell_averages():
    lat = Lattice(default_box(1), 6)
    eps = 0.25
    f = GridFunction.from_power(lat, eps - 1.0, Ball(1.0, 1))
    # oracle: midpoint quadrature on cells away from 0, closed form at 0
    for idx in ((40,), (20,), (0,)):
        lo, hi = cell_bounds(lat, idx)
        xs = np.linspace(lo[0], hi[0], 200_001)
        mids = 0.5 * (xs[:-1] + xs[1:])
        vals = np.where(np.abs(mids) <= 1.0, np.abs(mids) ** (eps - 1.0), 0.0)
        want = float(np.mean(vals))
        assert f.values[idx] == pytest.approx(want, rel=2e-4)
    # cell [0, h) touches the singularity: average is h^(eps-1)/eps exactly
    assert f.values[(32,)] == pytest.approx(lat.h ** (eps - 1.0) / eps, rel=1e-12)
    # total mass: int_{-1}^{1} |x|^(eps-1) = 2/eps
    assert total_mass(f) == pytest.approx(2.0 / eps, rel=1e-12)


def test_from_power_disc_support_2d():
    lat = Lattice(default_box(2), 4)
    f = GridFunction.from_power(lat, 1.0, Ball(1.0, 2))
    # total mass: int_B |x| = 2*pi/3
    assert total_mass(f) == pytest.approx(2.0 * math.pi / 3.0, rel=1e-9)


def test_serialization_bit_exact(tmp_path):
    rng = np.random.default_rng(42)
    lat = Lattice(default_box(1), 5)
    vals = rng.random(32) * np.pi
    vals[3] = 1.0 / 3.0
    vals[7] = 0.0
    f = GridFunction(lat, vals, PowerDescriptor(-0.5, Ball(1.0, 1), coeff=2.0))
    path = tmp_path / "f.gridfn"
    f.save(path)
    g = GridFunction.load(path)
    assert g.lattice == lat
    assert np.array_equal(g.values, f.values)
    assert g.descriptor == f.descriptor
    # and without a descriptor, 2d
    lat2 = Lattice(default_box(2), 3)
    vals2 = rng.random((8, 8))
    f2 = GridFunction(lat2, vals2)
    p2 = tmp_path / "f2.gridfn"
    f2.save(p2)
    g2 = GridFunction.load(p2)
    assert np.array_equal(g2.values, f2.values) and g2.descriptor is None


def test_serialization_keeps_a_rect_support(tmp_path):
    lat = Lattice(default_box(2), 3)
    f = GridFunction.from_power(lat, -0.5, Rect((0.0, 0.0), (1.0, 1.0)))
    path = tmp_path / "f.gridfn"
    f.save(path)
    g = GridFunction.load(path)
    assert g.descriptor == f.descriptor
    assert np.array_equal(g.values, f.values)


def test_serialization_refuses_an_unknown_support(tmp_path):
    f = GridFunction(
        Lattice(default_box(2), 2),
        np.ones((4, 4)),
        PowerDescriptor(-0.5, "quarter disc"),
    )
    with pytest.raises(ValueError, match="cannot serialize"):
        f.save(tmp_path / "f.gridfn")


def test_cell_region():
    lat = make_lattice(1, 3)
    mask = np.zeros(8, dtype=bool)
    mask[2:5] = True
    reg = CellRegion(lat, mask)
    assert reg.count == 3
    assert reg.measure == pytest.approx(1.5)


def test_gridfunction_rejects_negative_values():
    lat = make_lattice(1, 3)
    with pytest.raises(ValueError):
        GridFunction(lat, -np.ones(8))


def _write_gridfn(path, L, rows):
    header = '{"n": 1, "L": %d, "box": {"lo": [-2.0], "side": 4.0}, "descriptor": null}' % L
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def test_load_rejects_negative_index(tmp_path):
    rows = [f"{i},1.0" for i in range(7)] + ["-1,5.0"]
    with pytest.raises(ValueError, match="outside"):
        GridFunction.load(_write_gridfn(tmp_path / "f.gridfn", 3, rows))


def test_load_rejects_index_past_the_lattice(tmp_path):
    rows = [f"{i},1.0" for i in range(8)] + ["8,1.0"]
    with pytest.raises(ValueError, match="outside"):
        GridFunction.load(_write_gridfn(tmp_path / "f.gridfn", 3, rows))


def test_load_rejects_repeated_index(tmp_path):
    rows = [f"{i},1.0" for i in range(8)] + ["3,2.0"]
    with pytest.raises(ValueError, match="twice"):
        GridFunction.load(_write_gridfn(tmp_path / "f.gridfn", 3, rows))


def test_load_rejects_missing_rows(tmp_path):
    with pytest.raises(ValueError, match="7 of 8 cells"):
        GridFunction.load(_write_gridfn(tmp_path / "f.gridfn", 3, ["0,1.0"]))


# ------------------------------------------------------- the box-sum kernels
def pairwise(blocks, axis):
    """Oracle: each block's sum along ``axis``, whose length is a power of
    two, as the sum of its two halves' sums, adding neighbours level by level."""
    while blocks.shape[axis] > 1:
        width = blocks.shape[axis]
        blocks = blocks.take(range(0, width, 2), axis=axis) + blocks.take(range(1, width, 2), axis=axis)
    return blocks.squeeze(axis)


def per_axis_window_sums(values, size):
    """Oracle for aligned cubes: along each axis in turn, every run of
    ``size`` cells as the pairwise sums of its binary-digit pieces, lowest
    first, added left to right."""
    for axis in range(values.ndim):
        runs = np.lib.stride_tricks.sliding_window_view(values, size, axis=axis)
        total, offset = None, 0
        for bit in range(size.bit_length()):
            if size >> bit & 1:
                piece = pairwise(runs[..., offset : offset + 2**bit], -1)
                total = piece if total is None else total + piece
                offset += 2**bit
        values = total
    return values


def per_axis_grid_sums(values, layout):
    """Oracle for grid cubes: the cells zero-padded to the layout's cubes,
    then level by level each pair of children added along each axis in turn
    (an exact zero adds nothing, as a child outside the box adds nothing)."""
    N = values.shape[0]
    lo = [int(s[0]) for s in layout.starts]
    padded = np.zeros(tuple(len(s) * layout.size for s in layout.starts))
    padded[tuple(slice(max(0, -a), N - a) for a in lo)] = values[
        tuple(slice(max(0, a), a + len(s) * layout.size) for a, s in zip(lo, layout.starts))
    ]
    while padded.shape[0] > len(layout.starts[0]):
        for axis in range(padded.ndim):
            pairs = padded.shape[:axis] + (-1, 2) + padded.shape[axis + 1 :]
            padded = pairwise(padded.reshape(pairs), axis + 1)
    return padded


def family_layouts(lat, kind):
    return list(CubeFamily(lat, kind=kind).layouts())


@pytest.mark.parametrize("seed", [7, 8192])
@pytest.mark.parametrize("kind", ["shifted", "aligned", "both"])
@pytest.mark.parametrize(
    "box, L",
    [(Box((-2.0,), 4.0), 6), (Box((-1.0,), 3.0), 5), (Box((-2.0, -2.0), 4.0), 4),
     (Box((-1.0, -2.0), 3.0), 3)],
)
def test_box_sums_match_a_per_axis_oracle_bitwise(box, L, kind, seed):
    # every layout's sums as the scan reads them, the grid pyramid's level
    # or the lattice's window sums, give the oracle's bits, cubes sticking
    # out of the box (the coarse shifted generations) included
    lat = Lattice(box, L)
    N = lat.cells_per_axis
    rng = np.random.default_rng(seed)
    values = rng.lognormal(0.0, 2.0, lat.shape)
    layouts = family_layouts(lat, kind)
    pyramids = {grid.grid_id: grid.pyramid(values, -2) for grid in ShiftedGridFamily(lat).grids}
    for layout in layouts:
        if layout.grid is None:
            sums = window_sums(values, (layout.size,) * lat.n)
            assert np.array_equal(sums, per_axis_window_sums(values, layout.size))
        else:
            sums = pyramids[layout.grid.grid_id][L - layout.g]
            assert np.array_equal(sums, per_axis_grid_sums(values, layout))
        assert sums.shape == layout.shape
    sticking_out = [layout for layout in layouts
                    if any(np.any(s < 0) or np.any(s + layout.size > N) for s in layout.starts)]
    assert bool(sticking_out) == (kind != "aligned")


@pytest.mark.parametrize("n, L", [(1, 10), (2, 6)])
def test_window_sums_match_fsum_on_the_extremal_dual(n, L):
    # prefix differences lost up to 4.9e-11 (n=1) and 2.6e-10 (n=2) of a
    # sampled cube's sum on the dual |x|^-(n - 2^-9); the doubled runs hold
    # 1e-15.  A cube's own cells give its entry to the bit, a leading axis
    # is carried along, and a run longer than the lattice is refused
    lat = Lattice(default_box(n), L)
    N = lat.cells_per_axis
    values = lat.power_masses(-(n - 2.0**-9))
    rng = np.random.default_rng(n)
    worst = 0.0
    for size in sorted(rng.choice(np.arange(1, N + 1), 16, replace=False)):
        size = int(size)
        sums = window_sums(values, (size,) * n)
        assert sums.shape == (N - size + 1,) * n
        for _ in range(12):
            start = tuple(int(s) for s in rng.integers(0, N - size + 1, size=n))
            block = values[tuple(slice(s, s + size) for s in start)]
            want = math.fsum(block.ravel().tolist())
            worst = max(worst, abs(sums[start] - want) / want)
            assert window_sums(block, block.shape).flat[0] == sums[start]
    assert worst <= 1e-15
    stacked = np.stack([values, 2.0 * values])
    assert np.array_equal(window_sums(stacked, (3,) * n)[1], window_sums(2.0 * values, (3,) * n))
    with pytest.raises(ValueError, match="run of"):
        window_sums(values, (N + 1,) * n)


@pytest.mark.parametrize("n, L", [(1, 7), (2, 4)])
def test_aligned_window_sums_match_window_sums_bitwise(n, L):
    # the doubled runs along the first cell axis are built once for every
    # size; each size's sums keep the bits of window_sums, leading axis too
    lat = Lattice(default_box(n), L)
    values = np.random.default_rng(L).lognormal(0.0, 3.0, (3,) + lat.shape)
    sizes = []
    for size, sums in aligned_window_sums(values, n):
        assert np.array_equal(sums, window_sums(values, (size,) * n))
        sizes.append(size)
    assert sizes == list(range(1, lat.cells_per_axis + 1))


# -------------------------------------------------- the child-sum pyramid
@pytest.mark.parametrize("n, L", [(1, 12), (2, 8)])
def test_grid_pyramid_sums_match_fsum_on_the_extremal_dual(n, L):
    # the extremal's dual density |x|^-(n - 2^-9) spans many orders of
    # magnitude; prefix differences lose up to 2.3e-10 (n=1) and 1.3e-8
    # (n=2) of a cube's sum on it, pairwise child sums nothing near 1e-15.
    # Every cube of the coarse generations is checked, and 48 drawn at
    # random from each of the others
    lat = Lattice(default_box(n), L)
    N = lat.cells_per_axis
    values = lat.power_masses(-(n - 2.0**-9))
    rng = np.random.default_rng(n)
    worst = 0.0
    for shifted in ShiftedGridFamily(lat).grids:
        levels = shifted.pyramid(values, -2)
        for g in range(-2, L + 1):
            layout = shifted.layout(g)
            sums = levels[L - g]
            assert sums.shape == layout.shape
            count = sums.size
            picks = range(count) if count <= 48 else rng.choice(count, 48, replace=False)
            for k in picks:
                index = np.unravel_index(k, layout.shape)
                cube = layout.cube(index)
                block = values[tuple(slice(max(s, 0), min(s + cube.size, N)) for s in cube.start)]
                want = math.fsum(block.ravel().tolist())
                worst = max(worst, abs(sums[index] - want) / want)
    assert worst <= 1e-15


@pytest.mark.parametrize("box, L", [(Box((-1.0,), 3.0), 5), (Box((-1.0, -2.0), 3.0), 3)])
def test_subtree_sums_match_the_grid_pyramid_bitwise(box, L):
    # a cube's own subtree, clipped to the box and padded only to each
    # level's parity, gives the bits of its grid-pyramid entry at every
    # level, for cubes sticking out of the box too, and cell_average reads it
    lat = Lattice(box, L)
    N = lat.cells_per_axis
    rng = np.random.default_rng(L)
    f = GridFunction(lat, rng.lognormal(0.0, 2.0, lat.shape))
    outside = 0
    for shifted in ShiftedGridFamily(lat).grids:
        levels = shifted.pyramid(f.values, -2)
        for g in range(-2, L + 1):
            layout = shifted.layout(g)
            for index in np.ndindex(*layout.shape):
                cube = layout.cube(index)
                outside += any(s < 0 or s + cube.size > N for s in cube.start)
                subtree = cube_levels(f.values, lat, cube)
                assert len(subtree) == L - g + 1
                assert subtree[-1].shape == (1,) * lat.n
                assert subtree[-1].flat[0] == levels[L - g][index]
                for k, sums in enumerate(subtree):
                    # sub-cubes of 2^k cells meeting the box, in C order
                    j0 = shifted.layout(L - k).j0
                    first = [max(0, -s // 2**k) for s in cube.start]
                    for sub in np.ndindex(*sums.shape):
                        cell = [s + (i + c) * 2**k for s, i, c in zip(cube.start, first, sub)]
                        j = shifted.cube_containing_cell(cell, L - k).j
                        assert sums[sub] == levels[k][tuple(a - b for a, b in zip(j, j0))]
                average = levels[L - g][index] * lat.cell_volume / lat.cube_volume(cube.size)
                assert cell_average(f, cube) == average
    assert outside > 0


def test_pyramid_carries_leading_axes_and_stops_at_g_min():
    lat = Lattice(default_box(2), 4)
    rng = np.random.default_rng(3)
    stacked = rng.lognormal(0.0, 1.0, (3,) + lat.shape)
    shifted = ShiftedGridFamily(lat).grids[3]
    levels = shifted.pyramid(stacked, 1)
    assert len(levels) == 4
    for k in range(3):
        alone = shifted.pyramid(stacked[k], 1)
        assert all(np.array_equal(a, b[k]) for a, b in zip(alone, levels))
    assert levels[-1].shape == (3,) + shifted.layout(1).shape
    # the walk pairs every generation, coarse to fine, with its layout
    walk = list(shifted.generations(stacked, 1))
    assert [layout.g for layout, _ in walk] == [1, 2, 3, 4]
    for layout, sums in walk:
        want = shifted.layout(layout.g)
        assert layout.size == want.size and layout.grid is shifted
        assert all(np.array_equal(a, b) for a, b in zip(layout.starts, want.starts))
        assert np.array_equal(sums, levels[lat.L - layout.g])
