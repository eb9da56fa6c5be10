"""Oracle tests for sparse family construction and sparse operators."""
import json
import re
import tracemalloc

import numpy as np
import pytest

from mweights.grid import (
    CellRegion,
    DyadicCube,
    GridFunction,
    Lattice,
    ShiftedGridFamily,
    cell_average,
    default_box,
)
from mweights.operators import (
    SparseFamily,
    SparsenessError,
    build_sparse_family,
    dyadic_maximal,
    sparse_operator,
    sparse_operator_rows,
)
from mweights.operators import sparse
from mweights.powermass import Interval
from mweights.selftest import matches_oracle, stopping_edge_cases, stopping_oracle
from mweights.weights import ExponentTuple, Weight, WeightVector


def lattice(L, n=1):
    return Lattice(default_box(n), L)


def std_grid(lat):
    return ShiftedGridFamily(lat).standard


def cube_for(grid, start, size):
    lat = grid.lattice
    M = size.bit_length() - 1
    j = tuple((s - b) // size for s, b in zip(start, grid.base(M)))
    return grid.cube(lat.L - M, j)


def test_constant_input_gives_root_only_family():
    lat = lattice(6)
    grid = std_grid(lat)
    root = cube_for(grid, (32,), 16)  # [0,1)
    vals = np.zeros(64)
    vals[32:48] = 1.0
    g = GridFunction(lat, vals)
    fam = build_sparse_family([g], grid, root=root)
    assert len(fam.cubes) == 1
    assert fam.cubes[0].key() == root.key()
    assert fam.regions[0].count == 16
    assert fam.lambda0 == pytest.approx(1.0)


def test_constant_bilinear_input_gives_root_only_family():
    lat = lattice(6)
    grid = std_grid(lat)
    root = cube_for(grid, (32,), 16)
    vals = np.zeros(64)
    vals[32:48] = 1.0
    g = GridFunction(lat, vals)
    fam = build_sparse_family([g, g], grid, root=root)
    assert len(fam.cubes) == 1
    assert fam.a == 16.0  # default 2^(mn+2) for m=2, n=1


def test_single_cell_spike_frozen_hand_run():
    # g = indicator of [0, 1/16) on root [0,1) at L=6, default a=8:
    # lambda_0 = 1/16, first threshold 1/2; the only qualifying cube is the
    # spike cell itself (average 1; the size-2 cube averages exactly 1/2,
    # not strictly above).  S = {root, spike}.
    lat = lattice(6)
    grid = std_grid(lat)
    root = cube_for(grid, (32,), 16)
    vals = np.zeros(64)
    vals[32] = 1.0
    g = GridFunction(lat, vals)
    fam = build_sparse_family([g], grid, root=root)
    keys = {c.key() for c in fam.cubes}
    assert len(fam.cubes) == 2
    assert cube_for(grid, (32,), 1).key() in keys
    assert fam.lambda0 == pytest.approx(1.0 / 16.0)
    by_key = {c.key(): r for c, r in zip(fam.cubes, fam.regions)}
    root_region = by_key[root.key()]
    spike_region = by_key[cube_for(grid, (32,), 1).key()]
    assert spike_region.count == 1
    assert root_region.count == 15
    assert not root_region.mask[32]


def test_stacked_levels_violate_half_sparseness_with_small_ratio():
    # Engineered input: the selected quarter cube loses 3/4 of its cells to
    # deeper selected cubes when a = 2.2, so verification must fail loudly.
    lat = lattice(7)
    grid = std_grid(lat)
    root = cube_for(grid, (64,), 32)  # [0,1)
    vals = np.zeros(128)
    vals[64:70] = 9.3
    vals[70] = 5.0
    vals[80:96] = 0.04
    g = GridFunction(lat, vals)
    with pytest.raises(SparsenessError, match="larger"):
        build_sparse_family([g], grid, a=2.2, root=root)
    # the same input is fine at the default ratio
    fam = build_sparse_family([g], grid, root=root)
    assert len(fam.cubes) == 1


def test_stacked_levels_fail_where_the_oracle_keeps_a_thin_region():
    # the depth-first oracle finds the same thin kept region that makes the
    # generation walk raise, and agrees with it at the default ratio
    lat = lattice(7)
    grid = std_grid(lat)
    root = cube_for(grid, (64,), 32)
    vals = np.zeros(128)
    vals[64:70] = 9.3
    vals[70] = 5.0
    vals[80:96] = 0.04
    gs = [GridFunction(lat, vals)]
    thin = [c for c, mask in stopping_oracle(gs, grid, 2.2, root) if mask.sum() < c.size / 2.0]
    first = min(thin, key=lambda c: (-c.size, c.j))
    with pytest.raises(SparsenessError, match=re.escape(f"cube {first.key()} keeps")):
        build_sparse_family(gs, grid, a=2.2, root=root)
    assert matches_oracle(build_sparse_family(gs, grid, root=root), gs, grid)


def build_each_way(rows, grid, root, a=None):
    """Per row, the family (or the SparsenessError message) built from the
    row's stacked walk, and the one built by a call on the row alone."""
    walks = sparse._stopping_walks(rows, grid, a, root=root)
    assert len(walks) == len(rows)
    out = []
    for fs, walk in zip(rows, walks):
        pair = []
        for kwargs in ({"_walk": walk}, {}):
            try:
                pair.append(build_sparse_family(fs, grid, a, root=root, **kwargs))
            except SparsenessError as err:
                pair.append(str(err))
        out.append(pair)
    return out


def assert_same_family(walked, alone):
    assert type(walked) is type(alone)
    if isinstance(alone, str):
        assert walked == alone
        return
    key = [(c.grid_id, c.g, c.j, c.start, c.size) for c in alone.cubes]
    assert [(c.grid_id, c.g, c.j, c.start, c.size) for c in walked.cubes] == key
    assert walked.owner.dtype == alone.owner.dtype
    assert np.array_equal(walked.owner, alone.owner)
    assert np.float64(walked.lambda0).tobytes() == np.float64(alone.lambda0).tobytes()
    assert walked.a == alone.a


@pytest.mark.parametrize("n,L,shifted", [(1, 8, False), (1, 8, True), (2, 6, False), (2, 6, True)])
def test_stacked_walks_build_the_families_of_one_row_walks_bitwise(n, L, shifted):
    # log-normal rows give families of several lengths; the third row's
    # second input is zero, so its root product is zero and its family is
    # the root alone
    lat = lattice(L, n)
    grids = ShiftedGridFamily(lat).grids
    grid = grids[-1] if shifted else grids[0]
    assert (grid.grid_id != "b" + "0" * n) == shifted
    root = [c for c in grid.layout(1).cubes() if lat.holds(c)][-1]
    support = np.zeros(lat.shape, dtype=bool)
    support[lat.cube_cells(root)] = True
    rng = np.random.default_rng(L + n)
    rows = [
        [GridFunction(lat, rng.lognormal(0.0, 2.5, lat.shape) * support) for _ in range(2)]
        for _ in range(5)
    ]
    rows.insert(2, [rows[0][0], GridFunction(lat, np.zeros(lat.shape))])
    built = build_each_way(rows, grid, root)
    for walked, alone in built:
        assert_same_family(walked, alone)
    lengths = [len(alone) for _, alone in built]
    assert lengths[2] == 1 and built[2][1].lambda0 == 0.0
    assert max(lengths) > 2 and len(set(lengths)) > 2


def test_a_stacked_row_that_misses_sparseness_raises_alone_between_rows_that_build():
    # the engineered thin region of the tests above, between two log-normal
    # rows and a constant one that build at a = 2.2
    lat = lattice(7)
    grid = std_grid(lat)
    root = cube_for(grid, (64,), 32)
    support = np.zeros(128, dtype=bool)
    support[64:96] = True
    thin = np.zeros(128)
    thin[64:70] = 9.3
    thin[70] = 5.0
    thin[80:96] = 0.04
    rng = np.random.default_rng(5)
    rows = [
        [GridFunction(lat, rng.lognormal(0.0, 1.0, 128) * support)],
        [GridFunction(lat, thin)],
        [GridFunction(lat, rng.lognormal(0.0, 1.0, 128) * support)],
        [GridFunction(lat, 1.0 * support)],
    ]
    built = build_each_way(rows, grid, root, a=2.2)
    for walked, alone in built:
        assert_same_family(walked, alone)
    assert "keeps only" in built[1][0]
    assert [len(built[k][1]) > 2 for k in (0, 2)] == [True, True]
    assert len(built[3][1]) == 1


def test_a_walk_is_assembled_only_at_its_own_ratio():
    # the default ratio has one home, shared by the walk and the build
    lat = lattice(6)
    grid = std_grid(lat)
    root = cube_for(grid, (32,), 32)
    vals = np.zeros(64)
    vals[32:] = np.arange(1.0, 33.0) ** 4
    gs = [GridFunction(lat, vals)] * 2
    (walk,) = sparse._stopping_walks([gs], grid, root=root)
    assert walk.a == sparse._stopping_ratio(None, 2, 1) == 16.0
    assert build_sparse_family(gs, grid, root=root, _walk=walk).a == 16.0
    with pytest.raises(ValueError, match="the walk ran at a=16"):
        build_sparse_family(gs, grid, a=32.0, root=root, _walk=walk)
    with pytest.raises(ValueError, match="ratio"):
        sparse._stopping_walks([gs], grid, a=4.0, root=root)


def test_stopping_edge_cases_select_the_hand_derived_cubes():
    # spike: cubes of 32 and 4 cells reach indices 1 and 2 strictly, while
    # those of 64, 8 and 1 cells only tie; chain: the 32-cell cube reaches
    # index 1 and the four-cell cube index 2, and nothing under it is new
    grid, root, inputs = stopping_edge_cases()
    want = [root, cube_for(grid, root.start, 32), cube_for(grid, root.start, 4)]
    for gs in inputs:
        fam = build_sparse_family(gs, grid, a=8.0, root=root)
        assert list(fam.cubes) == want
        assert [c for c, _ in stopping_oracle(gs, grid, 8.0, root)] == want
        assert matches_oracle(fam, gs, grid)


@pytest.mark.parametrize("n,L,trials", [(1, 10, 20), (2, 6, 20), (2, 8, 3)])
def test_generation_walk_matches_depth_first_oracle(n, L, trials):
    # log-normal inputs give families of many sizes; the walk must select the
    # oracle's cubes with the oracle's kept cells, list them coarse to fine,
    # and its operator must equal, bit for bit, the one summed in the
    # oracle's depth-first order
    lat = lattice(L, n)
    grid = std_grid(lat)
    root = grid.cube(1, (0,) * n)
    support = np.zeros(lat.shape, dtype=bool)
    support[tuple(slice(s, s + root.size) for s in root.start)] = True
    rng = np.random.default_rng(L)
    largest = 0
    for _ in range(trials):
        gs = [GridFunction(lat, rng.lognormal(0.0, 2.0, lat.shape) * support) for _ in range(2)]
        fam = build_sparse_family(gs, grid, root=root)
        largest = max(largest, len(fam))
        assert matches_oracle(fam, gs, grid)
        assert fam.cubes[0] == root
        assert [c.g for c in fam.cubes] == sorted(c.g for c in fam.cubes)
        for g in {c.g for c in fam.cubes}:
            js = [c.j for c in fam.cubes if c.g == g]
            assert js == sorted(js)
        oracle = stopping_oracle(gs, grid, fam.a, root)
        owner = np.full(lat.shape, -1)
        for k, (_, mask) in enumerate(oracle):
            owner[mask] = k
        depth_first = SparseFamily(
            cubes=tuple(c for c, _ in oracle),
            lattice=lat,
            owner=owner,
            a=fam.a,
            lambda0=fam.lambda0,
            root=root,
        )
        assert np.array_equal(
            sparse_operator(fam, gs).values, sparse_operator(depth_first, gs).values
        )
    assert largest > 2


def test_ratio_precondition():
    lat = lattice(5)
    grid = std_grid(lat)
    root = cube_for(grid, (16,), 16)
    vals = np.zeros(32)
    vals[16:32] = 1.0
    g = GridFunction(lat, vals)
    with pytest.raises(ValueError, match="ratio"):
        build_sparse_family([g], grid, a=2.0, root=root)


def test_support_containment_precondition():
    lat = lattice(5)
    grid = std_grid(lat)
    root = cube_for(grid, (16,), 8)
    g = GridFunction(lat, np.ones(32))
    with pytest.raises(ValueError, match="support"):
        build_sparse_family([g], grid, root=root)


def test_random_trials_sparse_and_dominated():
    lat = lattice(8)
    grid = std_grid(lat)
    root = cube_for(grid, (128,), 128)  # [0,2)
    rng = np.random.default_rng(31)
    inside = slice(128, 256)
    for _ in range(10):
        gs = []
        for _ in range(2):
            vals = np.zeros(256)
            vals[inside] = rng.random(128) * (rng.random(128) < 0.8)
            gs.append(GridFunction(lat, vals))
        fam = build_sparse_family(gs, grid, root=root)
        # re-verify the invariants independently of the constructor
        seen = np.zeros(256, dtype=bool)
        for Q, region in zip(fam.cubes, fam.regions):
            size = Q.size
            assert region.count >= size / 2.0
            lo, hi = Q.start[0], Q.start[0] + size
            assert not region.mask[:lo].any() and not region.mask[hi:].any()
            assert not (seen & region.mask).any()
            seen |= region.mask
        assert seen[inside].all() and not seen[:128].any()
        # pointwise domination on the root cube
        md = dyadic_maximal(gs, grid)
        asp = sparse_operator(fam, gs)
        lhs = md.values[inside]
        rhs = fam.a * asp.values[inside]
        assert np.all(lhs <= rhs * (1 + 1e-9) + 1e-300)


def test_sparse_operator_root_only():
    lat = lattice(5)
    grid = std_grid(lat)
    root = cube_for(grid, (16,), 8)  # [0,1)
    vals = np.zeros(32)
    vals[16:24] = 1.0
    f = GridFunction(lat, vals)
    fam = build_sparse_family([f], grid, root=root)
    out = sparse_operator(fam, [f])
    assert np.allclose(out.values[16:24], 1.0)
    assert np.all(out.values[:16] == 0.0) and np.all(out.values[24:] == 0.0)


def test_sparse_operator_rejects_functions_on_another_lattice():
    # an L=6 family applied to L=8 functions gave a 256-cell output with the
    # family's cubes read as cells of the finer lattice, and no error
    lat = lattice(6)
    grid = std_grid(lat)
    root = cube_for(grid, (32,), 16)
    vals = np.zeros(64)
    vals[32:48] = np.arange(1.0, 17.0)
    fam = build_sparse_family([GridFunction(lat, vals)], grid, root=root)
    fine = GridFunction(lattice(8), np.ones(256))
    with pytest.raises(ValueError, match="share one lattice"):
        sparse_operator(fam, [fine])
    with pytest.raises(ValueError, match="share one lattice"):
        sparse_operator(fam, [GridFunction(lat, vals), fine])


def test_sparse_operator_two_cube_hand_sum():
    # S = {[0,1), [0,1/2)} with f = indicator of [0,1): the average is 1 on
    # both cubes, so the output is 1 on [1/2,1) and 2 on [0,1/2).
    lat = lattice(5)
    grid = std_grid(lat)
    q_big = cube_for(grid, (16,), 8)
    q_small = cube_for(grid, (16,), 4)
    owner = np.full(32, -1)
    owner[20:24] = 0
    owner[16:20] = 1
    fam = SparseFamily(
        cubes=(q_big, q_small),
        lattice=lat,
        owner=owner,
        a=4.0,
        lambda0=1.0,
        root=q_big,
    )
    vals = np.zeros(32)
    vals[16:24] = 1.0
    f = GridFunction(lat, vals)
    out = sparse_operator(fam, [f])
    assert np.allclose(out.values[16:20], 2.0)
    assert np.allclose(out.values[20:24], 1.0)


@pytest.mark.parametrize("n,L,seed", [(1, 8, 1), (2, 6, 2)])
def test_sparse_operator_matches_per_cube_averages_bitwise(n, L, seed):
    # three power spikes give families with several cubes of one size and
    # cubes of three sizes; the batched operator must equal a plain loop
    # over cell_average exactly
    lat = lattice(L, n)
    grid = std_grid(lat)
    N = lat.cells_per_axis
    root = cube_for(grid, (N // 2,) * n, N // 2)
    rng = np.random.default_rng(seed)
    mids = np.indices((N // 2,) * n) + N // 2 + 0.5
    spikes = sum(
        np.sqrt(sum((mids[k] - c[k]) ** 2 for k in range(n))) ** (-0.95 * n)
        for c in rng.integers(N // 2, N, size=(3, n))
    )
    gs = [
        GridFunction(lat, np.pad(spikes * rng.uniform(0.5, 1.0, spikes.shape), [(N // 2, 0)] * n))
        for _ in range(2)
    ]
    fam = build_sparse_family(gs, grid, root=root)
    sizes = [cube.size for cube in fam.cubes]
    assert len(set(sizes)) >= 3 and len(set(sizes)) < len(sizes)
    want = np.zeros(lat.shape)
    for cube in fam.cubes:
        prod = 1.0
        for g in gs:
            prod *= cell_average(g, cube)
        want[tuple(slice(s, s + cube.size) for s in cube.start)] += prod
    assert np.array_equal(sparse_operator(fam, gs).values, want)


@pytest.mark.parametrize("n,L,seed", [(1, 8, 3), (2, 5, 5)])
def test_sparse_operator_rows_match_each_family_alone_bitwise(n, L, seed):
    # log-normal inputs under one root give families of different lengths;
    # every row of the stack must have the bits of its own call and of a
    # plain loop over cell_average, which adds each cell's cubes in family
    # order (at n = 1, adding them fine to coarse changes a row's bits)
    lat = lattice(L, n)
    grid = std_grid(lat)
    N = lat.cells_per_axis
    root = cube_for(grid, (N // 2,) * n, N // 2)
    support = np.zeros(lat.shape, dtype=bool)
    support[lat.cube_cells(root)] = True
    rng = np.random.default_rng(seed)
    rows = [
        [GridFunction(lat, rng.lognormal(0.0, 2.0, lat.shape) * support) for _ in range(2)]
        for _ in range(6)
    ]
    fams = [build_sparse_family(fs, grid, root=root) for fs in rows]
    assert len({len(fam) for fam in fams}) > 1 and max(len(fam) for fam in fams) > 2
    stacked = sparse_operator_rows(fams, rows)
    assert len(stacked) == len(rows)
    for fam, gs, out in zip(fams, rows, stacked):
        assert np.array_equal(out.values, sparse_operator(fam, gs).values)
        want = np.zeros(lat.shape)
        for cube in fam.cubes:
            prod = 1.0
            for g in gs:
                prod *= cell_average(g, cube)
            want[tuple(slice(s, s + cube.size) for s in cube.start)] += prod
        assert np.array_equal(out.values, want)


def test_sparse_operator_rows_reject_other_roots_and_lattices():
    lat = lattice(6)
    grid = std_grid(lat)
    right, left = cube_for(grid, (32,), 32), cube_for(grid, (0,), 32)
    vals = np.zeros(64)
    vals[32:] = np.arange(1.0, 33.0)
    f_right, f_left = GridFunction(lat, vals), GridFunction(lat, vals[::-1].copy())
    fam_right = build_sparse_family([f_right], grid, root=right)
    fam_left = build_sparse_family([f_left], grid, root=left)
    with pytest.raises(ValueError, match="share one root"):
        sparse_operator_rows([fam_right, fam_left], [[f_right], [f_left]])
    coarse = lattice(5)
    coarse_vals = np.zeros(32)
    coarse_vals[16:] = np.arange(1.0, 17.0)
    f_coarse = GridFunction(coarse, coarse_vals)
    coarse_grid = std_grid(coarse)
    fam_coarse = build_sparse_family([f_coarse], coarse_grid, root=cube_for(coarse_grid, (16,), 16))
    with pytest.raises(ValueError, match="share one lattice"):
        sparse_operator_rows([fam_right, fam_coarse], [[f_right], [f_coarse]])
    with pytest.raises(ValueError, match="share one lattice"):
        sparse_operator_rows([fam_right, fam_right], [[f_right], [f_coarse]])
    with pytest.raises(ValueError, match="1 sparse families for 2 rows"):
        sparse_operator_rows([fam_right], [[f_right], [f_right]])
    assert sparse_operator_rows([], []) == []


def test_sparse_family_validation_rejects_thin_region():
    lat = lattice(5)
    grid = std_grid(lat)
    q = cube_for(grid, (16,), 8)
    thin = np.full(32, -1)
    thin[16] = 0
    with pytest.raises(SparsenessError):
        SparseFamily(
            cubes=(q,),
            lattice=lat,
            owner=thin,
            a=4.0,
            lambda0=1.0,
            root=q,
        )


def _short_owner(cube, owner):
    return cube, owner[:16]


def _float_owner(cube, owner):
    return cube, owner.astype(float)


def _owner_past_the_last_cube(cube, owner):
    owner[16] = 1
    return cube, owner


def _owner_below_minus_one(cube, owner):
    owner[0] = -2
    return cube, owner


def _kept_cell_outside_its_cube(cube, owner):
    owner[30] = 0
    return cube, owner


def _cube_out_of_the_box(cube, owner):
    # cells 16..48 of a 32-cell box, keeping the 16 inside it: half its cells
    owner[16:32] = 0
    return DyadicCube.aligned((16,), 32), owner


_MALFORMED = [
    (_short_owner, "lattice's shape"),
    (_float_owner, "integer array"),
    (_owner_past_the_last_cube, "outside 0..0"),
    (_owner_below_minus_one, "outside 0..0"),
    (_kept_cell_outside_its_cube, "leaves its cube"),
    (_cube_out_of_the_box, "sticks out of the box"),
]


@pytest.mark.parametrize(
    "fault, match", _MALFORMED, ids=[fault.__name__.lstrip("_") for fault, _ in _MALFORMED]
)
def test_sparse_family_validation_rejects_malformed_owner(fault, match):
    # each fault breaks one invariant of a valid one-cube family keeping
    # its eight cells
    lat = lattice(5)
    grid = std_grid(lat)
    q = cube_for(grid, (16,), 8)
    owner = np.full(32, -1)
    owner[16:24] = 0
    cube, owner = fault(q, owner)
    with pytest.raises(ValueError, match=re.escape(match)):
        SparseFamily(
            cubes=(cube,),
            lattice=lat,
            owner=owner,
            a=4.0,
            lambda0=1.0,
            root=cube,
        )


def test_built_family_retains_one_owner_array():
    # the kept regions of a 42-cube family live in one int64 owner array
    # over the 256 x 256 lattice (512 KiB), not in one 64 KiB mask per cube;
    # measured 0.52 MiB retained, where per-cube masks retain 2.65 MiB
    lat = lattice(8, 2)
    grid = std_grid(lat)
    root = grid.cube(1, (0, 0))
    support = np.zeros(lat.shape, dtype=bool)
    support[tuple(slice(s, s + root.size) for s in root.start)] = True
    rng = np.random.default_rng(10)
    gs = [GridFunction(lat, rng.lognormal(0.0, 2.0, lat.shape) * support) for _ in range(2)]
    tracemalloc.start()
    try:
        fam = build_sparse_family(gs, grid, root=root)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(fam) >= 30
    assert retained < 8 * 256**2 + 2**16


def test_sparse_operator_multilinearity():
    lat = lattice(6)
    grid = std_grid(lat)
    root = cube_for(grid, (32,), 32)
    rng = np.random.default_rng(37)
    gs = []
    for _ in range(2):
        vals = np.zeros(64)
        vals[32:64] = rng.random(32)
        gs.append(GridFunction(lat, vals))
    fam = build_sparse_family(gs, grid, root=root)
    base = sparse_operator(fam, gs)
    scaled = sparse_operator(fam, [GridFunction(lat, 2.0 * gs[0].values), gs[1]])
    assert np.allclose(scaled.values, 2.0 * base.values, rtol=1e-13)


def test_sparse_operator_self_adjoint_every_slot():
    lat = lattice(6)
    grid = std_grid(lat)
    root = cube_for(grid, (32,), 32)
    rng = np.random.default_rng(41)

    def rand_fn():
        vals = np.zeros(64)
        vals[32:64] = rng.random(32)
        return GridFunction(lat, vals)

    f1, f2, g = rand_fn(), rand_fn(), rand_fn()
    fam = build_sparse_family([f1, f2], grid, root=root)
    vol = lat.cell_volume

    def pair(u, v):
        return float(np.sum(u.values * v.values)) * vol

    lhs = pair(sparse_operator(fam, [f1, f2]), g)
    slot0 = pair(sparse_operator(fam, [g, f2]), f1)
    slot1 = pair(sparse_operator(fam, [f1, g]), f2)
    assert lhs == pytest.approx(slot0, rel=1e-12)
    assert lhs == pytest.approx(slot1, rel=1e-12)


def test_sparse_family_json_round_trip_keys():
    lat = lattice(6)
    grid = std_grid(lat)
    root = cube_for(grid, (32,), 16)
    vals = np.zeros(64)
    vals[32] = 1.0
    fam = build_sparse_family([GridFunction(lat, vals)], grid, root=root)
    blob = json.loads(json.dumps(fam.to_json()))
    assert isinstance(blob, list) and len(blob) == 2
    for entry in blob:
        assert set(entry) == {"grid", "g", "j", "eq_cells"}
        assert entry["grid"] == grid.grid_id


def test_a_family_reports_the_grid_of_its_root():
    # the grid id is read from the root, so a family cannot name another grid
    lat = lattice(6)
    grid = ShiftedGridFamily(lat).grids[1]
    vals = np.zeros(64)
    vals[32] = 1.0
    root = grid.cube_containing_cell((30,), 1)
    assert lat.holds(root)
    fam = build_sparse_family([GridFunction(lat, vals)], grid, root=root)
    assert len(fam) > 1 and grid.grid_id != std_grid(lat).grid_id
    assert fam.grid_id == fam.root.grid_id == grid.grid_id
    assert {entry["grid"] for entry in fam.to_json()} == {grid.grid_id}
    with pytest.raises(TypeError):
        SparseFamily(
            grid_id=std_grid(lat).grid_id,
            cubes=fam.cubes,
            lattice=lat,
            owner=fam.owner,
            a=fam.a,
            lambda0=fam.lambda0,
            root=fam.root,
        )


def test_holder_step_on_random_cell_regions():
    # |E| <= v(E)^(1/(mp)) * prod_i sigma_i(E)^(1/(m p_i'))
    lat = lattice(6)
    rng = np.random.default_rng(43)
    vectors = []
    for P in [(2.0, 2.0), (4.0, 4.0 / 3.0), (1.5, 2.5, 5.0)]:
        et = ExponentTuple(P)
        ws = []
        for k in range(len(P)):
            if k % 2 == 0:
                ws.append(Weight.power(lat, 0.3 - 0.2 * k))
            else:
                ws.append(Weight.from_values(lat, rng.random(64) + 0.1))
        vectors.append(WeightVector(tuple(ws), et))
    for wv in vectors:
        et = wv.exponents
        m, p = et.m, et.p
        for _ in range(40):
            mask = rng.random(64) < rng.uniform(0.05, 0.9)
            region = CellRegion(lat, mask)
            size = region.measure
            rhs = wv.joint.mass_on(region) ** (1.0 / (m * p))
            for i in range(m):
                rhs *= wv.sigma(i).mass_on(region) ** (1.0 / (m * et.conjugates[i]))
            assert size <= rhs * (1 + 1e-9)
