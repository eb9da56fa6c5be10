"""The invariant battery: one check per identity or bound the library rests on.

Each check takes a seed and its sizes, applies its own bound, and returns its
name, a pass flag, and a one-line detail; a check never raises on a failed
invariant, so every check always reports.  The defaults are small enough for
the ``selftest`` subcommand to run the whole battery in well under a second;
acceptance criteria 3-6, 8 and 9 run the same checks at full scale.
"""
from __future__ import annotations

import math
import tempfile
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .grid import (
    CellRegion,
    DyadicCube,
    GridFunction,
    Lattice,
    ShiftedGridFamily,
    default_box,
)
from .operators import (
    SparsenessError,
    bilinear_riesz,
    build_sparse_family,
    dyadic_maximal,
    multilinear_maximal,
    sparse_operator,
    weighted_dyadic_maximal,
)
from .weights import (
    CubeFamily,
    ExponentTuple,
    Weight,
    WeightVector,
    ap_constant,
    dualize,
    per_cube_ap,
    random_weight,
)
from .experiments import (
    SweepRow,
    fit_exponent,
    grid_lp_norm,
    maximal_problem,
    run_sweep,
    write_sweep_csv,
)

CheckResult = Tuple[str, bool, str]


def _rel_err(got: float, expected: float) -> float:
    return abs(got - expected) / max(abs(expected), 1e-300)


def check_duality_identity(
    seed: int, L: int = 5, vectors: int = 2, cubes: int = 20
) -> CheckResult:
    """Dualizing slot i raises the per-cube and family constants to the power p_i'/p."""
    rng = np.random.default_rng(seed)
    lattice = Lattice(default_box(1), L)
    shifted = ShiftedGridFamily(lattice)
    family = CubeFamily(lattice, kind="shifted")
    worst_cube = 0.0
    worst_family = 0.0
    checked = 0
    # the slot-dual construction needs the combined exponent p above 1
    for exps in ((2.0, 3.0), (4.0, 5.0, 6.0)):
        et = ExponentTuple(exps)
        powers = [c / et.p for c in et.conjugates]
        for _ in range(vectors):
            wv = WeightVector([random_weight(rng, lattice, p) for p in et.exponents], et)
            duals = [dualize(wv, i) for i in range(et.m)]
            for _ in range(cubes):
                Q = shifted.random_cube(rng)
                base = per_cube_ap(wv, Q)
                checked += 1
                if base <= 0.0:
                    continue
                for dual, s in zip(duals, powers):
                    worst_cube = max(worst_cube, _rel_err(per_cube_ap(dual, Q), base**s))
            base_const = ap_constant(wv, family).constant
            for dual, s in zip(duals, powers):
                got = ap_constant(dual, family).constant
                worst_family = max(worst_family, _rel_err(got, base_const**s))
    ok = worst_cube <= 1e-10 and worst_family <= 1e-10
    return (
        "duality identity",
        ok,
        f"{checked} cubes, worst relative error {worst_cube:.3e} <= 1e-10; "
        f"family-level worst {worst_family:.3e} <= 1e-10",
    )


def check_holder_step(seed: int, L: int = 6, regions: int = 30) -> CheckResult:
    """|E| <= v(E)^(1/(mp)) * prod sigma_i(E)^(1/(m p_i')) on random regions."""
    rng = np.random.default_rng(seed)
    lattice = Lattice(default_box(1), L)
    tuples = [
        ExponentTuple(t)
        for t in (
            (2.0, 2.0), (2.0, 3.0), (4.0, 4.0 / 3.0), (4.0, 5.0, 6.0), (1.5, 2.5, 5.0)
        )
    ]
    worst = 0.0
    checked = 0
    while checked < regions:
        mask = rng.random(lattice.shape) < rng.uniform(0.05, 0.6)
        if not mask.any():
            continue
        region = CellRegion(lattice, mask)
        et = tuples[int(rng.integers(len(tuples)))]
        wv = WeightVector(
            [
                Weight.power(lattice, rng.uniform(-0.4, min(1.5, 0.9 * (p_i - 1.0))))
                for p_i in et.exponents
            ],
            et,
        )
        size = region.count * lattice.cell_volume
        bound = wv.joint.mass_on(region) ** (1.0 / (et.m * et.p))
        for i in range(et.m):
            bound *= wv.sigma(i).mass_on(region) ** (1.0 / (et.m * et.conjugates[i]))
        worst = max(worst, size / bound)
        checked += 1
    ok = worst <= 1.0 + 1e-9
    return (
        "holder step",
        ok,
        f"{checked} random regions/power vectors, worst |E|/bound "
        f"{worst:.12f} <= 1 + 1e-9",
    )


def check_weighted_maximal_ceiling(seed: int, L: int = 6, trials: int = 8) -> CheckResult:
    """The weighted dyadic maximal norm never exceeds the conjugate exponent."""
    rng = np.random.default_rng(seed)
    lattice = Lattice(default_box(1), L)
    grid = ShiftedGridFamily(lattice).standard
    worst = 0.0
    for _ in range(trials):
        values = rng.uniform(0.01, 1.0, lattice.shape)
        spikes = rng.integers(0, lattice.shape[0], size=3)
        values[spikes] *= rng.uniform(1.0, 100.0, size=3)
        f = GridFunction(lattice, values)
        w = random_weight(rng, lattice, 2.0)
        mf = weighted_dyadic_maximal(f, w, grid).values
        for p in (1.5, 2.0, 3.0):
            p_conj = p / (p - 1.0)
            ratio = grid_lp_norm(mf, p, w) / grid_lp_norm(f.values, p, w)
            worst = max(worst, ratio / p_conj)
    ok = worst <= 1.0 + 1e-12
    return (
        "weighted maximal ceiling",
        ok,
        f"{trials} random (f,w) trials at p in {{1.5, 2, 3}}, worst "
        f"ratio/p' {worst:.12f} <= 1 + 1e-12",
    )


def _direct_product(fs: Sequence[GridFunction], start, size: int) -> Tuple[float, tuple]:
    """Product of the inputs' averages over one in-box cube, each summed
    directly from the cell values, and the cube's slices."""
    sl = tuple(slice(s, s + size) for s in start)
    prod = 1.0
    for f in fs:
        prod *= f.values[sl].sum() / size**f.lattice.n
    return prod, sl


def _direct_sparse_operator(fam, fs: Sequence[GridFunction]) -> np.ndarray:
    """Sum over the family's cubes of the directly summed average product."""
    out = np.zeros(fs[0].lattice.shape)
    for cube in fam.cubes:
        prod, sl = _direct_product(fs, cube.start, cube.size)
        out[sl] += prod
    return out


def stopping_oracle(
    fs: Sequence[GridFunction], grid, a: float, root
) -> List[Tuple[DyadicCube, np.ndarray]]:
    """The stopping-time family under ``root``, by a depth-first walk.

    Products of averages come from each size's block sums of the root's
    cells (a reshape and a ``sum``, independent of the child-sum pyramid
    the builder reads) divided by the cube volume; a cube is selected when it
    exceeds a threshold index ``k`` (value above ``a**k * lambda0``) that no
    ancestor exceeded, and zero cubes end their subtree.  Returns ``(cube, kept cells)`` pairs in depth-first order,
    without the half-volume check.
    """
    lat = fs[0].lattice
    n = lat.n
    blocks = [f.values[tuple(slice(s, s + root.size) for s in root.start)] for f in fs]
    tables = {}
    size = root.size
    while size >= 1:
        split = (root.size // size, size) * n
        table = 1.0
        for block in blocks:
            sums = block.reshape(split).sum(axis=tuple(range(1, 2 * n, 2)))
            table = table * (sums / float(size) ** n)
        tables[size] = table
        size //= 2
    lambda0 = float(tables[root.size].flat[0])
    owner = np.full(lat.shape, -1, dtype=np.int64)
    cubes = [root]
    owner[tuple(slice(s, s + root.size) for s in root.start)] = 0
    # (start, size, env): env is the largest threshold index any ancestor exceeded
    stack = [(root.start, root.size, 0)] if lambda0 != 0.0 else []
    while stack:
        start, size, env = stack.pop()
        if size == 1:
            continue
        half = size // 2
        for offsets in np.ndindex(*(2,) * n):
            cstart = tuple(s + o * half for s, o in zip(start, offsets))
            offset = tuple((s - r) // half for s, r in zip(cstart, root.start))
            val = float(tables[half][offset])
            if val == 0.0:
                continue
            exceed = 0
            tau = a * lambda0
            while val > tau:
                exceed += 1
                tau *= a
            if exceed > env:
                M = half.bit_length() - 1
                j = tuple((s - b) // half for s, b in zip(cstart, grid.base(M)))
                cube = grid.cube(lat.L - M, j)
                owner[tuple(slice(s, s + half) for s in cube.start)] = len(cubes)
                cubes.append(cube)
            stack.append((cstart, half, max(env, exceed)))
    return [(cube, owner == k) for k, cube in enumerate(cubes)]


def matches_oracle(fam, fs: Sequence[GridFunction], grid) -> bool:
    """The family holds the oracle's cubes, each with the oracle's kept cells."""
    want = stopping_oracle(fs, grid, fam.a, fam.root)
    index = {cube: k for k, cube in enumerate(fam.cubes)}
    return len(fam.cubes) == len(want) and all(
        cube in index and np.array_equal(fam.owner == index[cube], mask) for cube, mask in want
    )


def stopping_edge_cases():
    """Single-input families on which a wrong stopping rule selects other cubes.

    On a 1-D lattice at L=10 with the root of generation 1 (512 cells from
    cell 512) and a = 8:

    - a one-cell spike: lambda0 = 2^-9, so the cubes of 64, 8 and 1 cells
      average exactly a, a^2 and a^3 times lambda0, ties that a non-strict
      threshold test would select;
    - a chain [96, 0, 128, 128] on the root's first four cells with 0.625
      on its second half, so lambda0 = 1: the four-cell cube reaches index
      2, its left half only index 1, and the cell of 96 index 2 again, which
      is selected if the rule reads the parent's index in place of the
      largest of all its ancestors'.

    Pruning zero cubes cannot change a family: inputs are nonnegative, so a
    zero cube's descendants are zero and never exceed a threshold.

    Returns the grid, the root and the input tuples.
    """
    lattice = Lattice(default_box(1), 10)
    grid = ShiftedGridFamily(lattice).standard
    root = grid.cube(1, (0,))
    first, half = root.start[0], root.size // 2
    spike, chain = np.zeros(lattice.shape), np.zeros(lattice.shape)
    spike[first] = 1.0
    chain[first : first + 4] = (96.0, 0.0, 128.0, 128.0)
    chain[first + half : first + root.size] = 0.625
    inputs = [(GridFunction(lattice, v),) for v in (spike, chain)]
    return grid, root, inputs


def check_sparse_domination(seed: int, L: int = 6, families: int = 8) -> CheckResult:
    """Stopping-time families match the depth-first oracle, are sparse, and
    a times their operator dominates the dyadic maximal.

    Inputs are log-normal, heavy-tailed enough for the stopping walk to
    select cubes below the root; a run in which every family is the root
    alone never exercises sparseness and fails.  The edge cases of
    :func:`stopping_edge_cases` are compared with the oracle only.
    """
    rng = np.random.default_rng(seed)
    lattice = Lattice(default_box(1), L)
    grid = ShiftedGridFamily(lattice).standard
    root = grid.cube(1, (0,))
    support = np.zeros(lattice.shape, dtype=bool)
    support[root.start[0] : root.start[0] + root.size] = True
    worst_quot = 0.0
    worst_oracle = 0.0
    built = 0
    faults = 0
    mismatched = 0
    largest = 0
    for m in (1, 2):
        a = 2.0 ** (m * lattice.n + 2)
        for _ in range(families):
            fs = tuple(
                GridFunction(lattice, rng.lognormal(0.0, 2.0, lattice.shape) * support)
                for _ in range(m)
            )
            try:
                fam = build_sparse_family(fs, grid, a=a, root=root)
            except (SparsenessError, ValueError):
                # the inputs are valid, so the family refused a thin or
                # overlapping kept region
                faults += 1
                continue
            built += 1
            largest = max(largest, len(fam))
            if not matches_oracle(fam, fs, grid):
                mismatched += 1
            # sparseness, re-verified from the returned family's owner array,
            # whose format makes the kept regions disjoint: each cube keeps at
            # least half of its cells, and no cell outside it
            owner = fam.owner
            kept = np.bincount(owner.ravel() + 1, minlength=len(fam) + 1)[1:]
            for k, cube in enumerate(fam.cubes):
                inside = np.count_nonzero(owner[cube.start[0] : cube.start[0] + cube.size] == k)
                if inside < cube.size**lattice.n / 2.0 or inside != kept[k]:
                    faults += 1
            sparse = sparse_operator(fam, fs).values
            direct = _direct_sparse_operator(fam, fs)
            err = float(np.max(np.abs(sparse - direct)) / np.max(direct))
            worst_oracle = max(worst_oracle, err)
            dominated = dyadic_maximal(fs, grid, g_min=root.g).values
            with np.errstate(divide="ignore", invalid="ignore"):
                quot = np.where(dominated > 0.0, dominated / (a * sparse), 0.0)
            worst_quot = max(worst_quot, float(np.max(quot)))
    edge_grid, edge_root, edge_inputs = stopping_edge_cases()
    for fs in edge_inputs:
        try:
            fam = build_sparse_family(fs, edge_grid, a=8.0, root=edge_root)
        except (SparsenessError, ValueError):
            faults += 1
            continue
        if not matches_oracle(fam, fs, edge_grid):
            mismatched += 1
    ok = (
        faults == 0
        and mismatched == 0
        and largest > 1
        and worst_oracle <= 1e-12
        and worst_quot <= 1.0 + 1e-9
    )
    return (
        "sparse domination",
        ok,
        f"{built} sparse families at a=2^(mn+2), largest {largest} cubes, {faults} "
        f"half-volume or disjointness faults, {mismatched} differ from the depth-first "
        f"oracle (with {len(edge_inputs)} edge cases); sparse operator vs direct sums {worst_oracle:.1e} "
        f"<= 1e-12; worst maximal/(a*sparse) = {worst_quot:.9f} <= 1 + 1e-9",
    )


def brute_multilinear(fs: Sequence[GridFunction]) -> np.ndarray:
    """Cellwise max over every cell-aligned cube inside the box of the product
    of averages, each summed directly from the cell values."""
    lat = fs[0].lattice
    N = lat.cells_per_axis
    out = np.zeros(lat.shape)
    for size in range(1, N + 1):
        for start in np.ndindex(*(N - size + 1,) * lat.n):
            prod, sl = _direct_product(fs, start, size)
            out[sl] = np.maximum(out[sl], prod)
    return out


def check_maximal_bracket(
    seed: int, cases: Tuple[Tuple[int, int, int], ...] = ((1, 4, 1), (1, 4, 2), (2, 3, 2))
) -> CheckResult:
    """The brute-force oracle sits inside the bracket, whose width lies in
    [6^(mn), 6^(mn) 2^n]; each case is a (dimension n, lattice L, slots m)."""
    rng = np.random.default_rng(seed)
    worst_ratio_margin = 0.0
    narrowest = math.inf
    ok = True
    details = []
    for n, L, m in cases:
        lattice = Lattice(default_box(n), L)
        fs = tuple(
            GridFunction(lattice, rng.uniform(0.05, 1.0, lattice.shape))
            for _ in range(m)
        )
        lower, upper = multilinear_maximal(fs)
        brute = brute_multilinear(fs)
        sandwiched = bool(
            np.all(lower.values <= brute * (1.0 + 1e-12))
            and np.all(brute <= upper.values * (1.0 + 1e-12))
        )
        floor = 6.0 ** (m * n)
        cap = floor * 2.0**n
        width = upper.values / lower.values
        ratio = float(np.max(width))
        ok = (
            ok
            and sandwiched
            and ratio <= cap * (1.0 + 1e-12)
            and float(np.min(width)) >= floor * (1.0 - 1e-12)
        )
        worst_ratio_margin = max(worst_ratio_margin, ratio / cap)
        narrowest = min(narrowest, float(np.min(width)) / floor)
        details.append(f"n={n},m={m}: bracket {'ok' if sandwiched else 'VIOLATED'}")
    return (
        "maximal bracket",
        ok,
        f"{'; '.join(details)}; worst upper/lower vs 6^(mn)*2^n cap: "
        f"{worst_ratio_margin:.4f} <= 1; narrowest vs 6^(mn): {narrowest:.4f} >= 1",
    )


def check_riesz_symmetry_and_pairing(seed: int) -> CheckResult:
    """Odd symmetry at the center and the exact adjoint pairing identity."""
    rng = np.random.default_rng(seed)
    lattice = Lattice(default_box(1), 6)
    N = lattice.cells_per_axis
    vals = np.zeros(lattice.shape)
    vals[N // 4 : 3 * N // 4] = 1.0
    f_sym = GridFunction(lattice, vals)
    center = bilinear_riesz(f_sym, f_sym, np.array([0.0]))
    sym_err = abs(float(center.values[0]))

    g1 = GridFunction(lattice, rng.uniform(0.0, 1.0, lattice.shape))
    g2 = GridFunction(lattice, rng.uniform(0.0, 1.0, lattice.shape))
    g3 = GridFunction(lattice, rng.uniform(0.0, 1.0, lattice.shape))
    mids = lattice.box.lo[0] + (np.arange(N) + 0.5) * lattice.h
    direct = bilinear_riesz(g1, g2, mids, variant="direct")
    adjoint = bilinear_riesz(g3, g2, mids, variant="adjoint_slot1")
    lhs = float(np.sum(direct.values * g3.values) * lattice.h)
    rhs = float(np.sum(adjoint.values * g1.values) * lattice.h)
    pair_err = abs(lhs - rhs) / max(abs(lhs), 1e-300)
    ok = sym_err <= 1e-9 and pair_err <= 1e-10
    return (
        "riesz symmetry and pairing",
        ok,
        f"center value {sym_err:.3e}, pairing relative error {pair_err:.3e}",
    )


def check_sweep_determinism(seed: int, L: int = 5, strengths: int = 4) -> CheckResult:
    """Two serial runs of one sweep write byte-identical CSVs, and the fit is
    exact on a line; sweeps draw no random numbers, so ``seed`` is unused."""
    eps = [2.0**-k for k in range(2, 2 + strengths)]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"sweep-{k}.csv" for k in (1, 2)]
        for path in paths:
            write_sweep_csv(run_sweep(maximal_problem, (2.0, 2.0), eps, L=L), path)
        first, second = (path.read_bytes() for path in paths)
    same = first == second
    synth = [
        SweepRow(
            eps=2.0**-k,
            ap_const=2.0**k,
            lhs_norm=1.0,
            rhs_norms=(1.0,),
            rhs_norm_product=1.0,
            ratio=7.0 * 2.0 ** (2 * k),
            L=5,
            ms=0.0,
            finite=True,
        )
        for k in range(2, 8)
    ]
    fit = fit_exponent(synth)
    fit_ok = abs(fit.slope - 2.0) < 1e-9 and abs(fit.intercept - math.log(7.0)) < 1e-9
    return (
        "sweep determinism and fit",
        same and fit_ok,
        f"two serial runs give byte-identical CSVs: {same} ({len(first)} bytes "
        f"each); fitted slope on an exact line {fit.slope:.12f}",
    )


def check_extremal_norms(seed: int) -> CheckResult:
    """Closed-form input norms of the extremal family at a fixed strength."""
    lattice = Lattice(default_box(1), 5)
    prob = maximal_problem((2.0, 2.0), 0.25, lattice)
    expected = math.sqrt(8.0)
    errs = [abs(r - expected) / expected for r in prob.rhs_norms]
    ap = ap_constant(prob.weight_vector, CubeFamily(lattice, kind="shifted"))
    ok = max(errs) <= 1e-12 and ap.constant > 1.0
    return (
        "extremal closed-form norms",
        ok,
        f"worst norm error {max(errs):.3e}, weight constant {ap.constant:.3f}",
    )


ALL_CHECKS: Tuple[Callable[[int], CheckResult], ...] = (
    check_duality_identity,
    check_holder_step,
    check_weighted_maximal_ceiling,
    check_sparse_domination,
    check_maximal_bracket,
    check_riesz_symmetry_and_pairing,
    check_sweep_determinism,
    check_extremal_norms,
)


def run_selftest(seed: int = 0) -> List[CheckResult]:
    """Run every check; returns one (name, passed, detail) triple per check."""
    return [check(seed) for check in ALL_CHECKS]
