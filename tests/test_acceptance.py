"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the toolkit at its stated
tolerance and records a one-line verdict; the scoreboard is printed after
the run by the conftest terminal-summary hook.  Tolerances are part of the
package contract and are asserted exactly as documented in the README.
"""
import math
import time

import numpy as np
import pytest

from mweights.grid import (
    CellRegion,
    GridFunction,
    Lattice,
    ShiftedGridFamily,
    default_box,
)
from mweights.weights import (
    CubeFamily,
    ExponentTuple,
    Weight,
    WeightVector,
    ap_constant,
    dualize,
    per_cube_ap,
    random_weight,
)
from mweights.operators import (
    build_sparse_family,
    dyadic_maximal,
    multilinear_maximal,
    sparse_operator,
    weighted_dyadic_maximal,
)
from mweights.experiments import (
    fit_exponent,
    grid_lp_norm,
    maximal_problem,
    riesz_problem,
    run_sweep,
    write_sweep_csv,
)

# one "criterion N: PASS/FAIL" line per test, printed in the terminal summary
ACCEPTANCE_LINES = []

EPS_MAXIMAL = [2.0**-k for k in range(2, 10)]
EPS_RIESZ = [2.0**-k for k in range(2, 8)]
MAXIMAL_L = 12
RIESZ_L = 9


def _record(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


# --- shared sweeps (criteria 1, 2, and 9 reuse the same L=12 run) ----------


@pytest.fixture(scope="module")
def maximal_sweep_2_2():
    t0 = time.perf_counter()
    rows = run_sweep(maximal_problem, (2.0, 2.0), EPS_MAXIMAL, L=MAXIMAL_L)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def maximal_sweep_4_43():
    return run_sweep(maximal_problem, (4.0, 4.0 / 3.0), EPS_MAXIMAL, L=MAXIMAL_L)


def test_criterion_1_maximal_sharpness(maximal_sweep_2_2, maximal_sweep_4_43):
    """Fitted maximal-operator growth matches the sharp exponent max(p_i'/p)."""
    rows, seconds = maximal_sweep_2_2
    fit = fit_exponent(rows)
    fit2 = fit_exponent(maximal_sweep_4_43)
    # (2,2): p = 1, both conjugates 2 -> exponent 2, window [1.7, 2.3];
    # (4, 4/3): p = 1, conjugates (4/3, 4) -> exponent 4, window +/-20%.
    ok = (
        1.7 <= fit.slope <= 2.3
        and 0.8 * 4.0 <= fit2.slope <= 1.2 * 4.0
        and seconds < 120.0
    )
    _record(
        1,
        ok,
        f"maximal slope (2,2): {fit.slope:.4f} in [1.7, 2.3]; "
        f"(4,4/3): {fit2.slope:.4f} in [3.2, 4.8]; sweep took {seconds:.1f}s < 120s",
    )
    assert ok


def test_criterion_2_weight_constant_asymptotics(maximal_sweep_2_2, maximal_sweep_4_43):
    """The weight constant itself grows like eps^(-p/p_1')."""
    results = []
    ok = True
    for rows, target in ((maximal_sweep_2_2[0], 0.5), (maximal_sweep_4_43, 0.25)):
        xs = np.log([1.0 / r.eps for r in rows])
        ys = np.log([r.ap_const for r in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
        ok = ok and (0.9 * target <= slope <= 1.1 * target)
        results.append(f"{slope:.4f} vs {target} (within 10%)")
    _record(2, ok, f"constant-growth slopes: (2,2) {results[0]}; (4,4/3) {results[1]}")
    assert ok


def test_criterion_3_slot_duality_identity():
    """Dualizing slot i raises the per-cube constant to the power p_i'/p."""
    rng = np.random.default_rng(31)
    lattice = Lattice(default_box(1), 8)
    family = CubeFamily(lattice, kind="shifted")
    worst_cube = 0.0
    worst_family = 0.0
    cubes_checked = 0
    for exps in ((2.0, 3.0), (4.0, 5.0, 6.0)):
        et = ExponentTuple(exps)
        for _ in range(10):
            wv = WeightVector([random_weight(rng, lattice, p) for p in et.exponents], et)
            duals = [dualize(wv, i) for i in range(et.m)]
            for _ in range(50):
                Q = ShiftedGridFamily(lattice).random_cube(rng)
                base = per_cube_ap(wv, Q)
                cubes_checked += 1
                if base <= 0.0:
                    continue
                for i in range(et.m):
                    expected = base ** (et.conjugates[i] / et.p)
                    got = per_cube_ap(duals[i], Q)
                    rel = abs(got - expected) / max(abs(expected), 1e-300)
                    worst_cube = max(worst_cube, rel)
            base_const = ap_constant(wv, family).constant
            for i in range(et.m):
                expected = base_const ** (et.conjugates[i] / et.p)
                got = ap_constant(duals[i], family).constant
                rel = abs(got - expected) / max(abs(expected), 1e-300)
                worst_family = max(worst_family, rel)
    ok = worst_cube <= 1e-10 and worst_family <= 1e-10 and cubes_checked == 1000
    _record(
        3,
        ok,
        f"duality identity on {cubes_checked} cubes: worst rel err {worst_cube:.3e} "
        f"<= 1e-10; family-level worst {worst_family:.3e} <= 1e-10",
    )
    assert ok


def test_criterion_4_weighted_maximal_ceiling():
    """The weighted dyadic maximal norm never exceeds the conjugate exponent."""
    rng = np.random.default_rng(41)
    lattice = Lattice(default_box(1), 9)
    grid = ShiftedGridFamily(lattice).standard
    worst = 0.0
    trials = 100
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
    _record(
        4,
        ok,
        f"{trials} random (f,w) trials at p in {{1.5, 2, 3}}: worst "
        f"ratio/p' = {worst:.12f} <= 1 + 1e-12",
    )
    assert ok


def test_criterion_5_sparse_machinery():
    """Stopping-time families are sparse and dominate the dyadic maximal."""
    rng = np.random.default_rng(51)
    lattice = Lattice(default_box(1), 6)
    grid = ShiftedGridFamily(lattice).standard
    root = grid.cube(1, (0,))
    support = np.zeros(lattice.shape, dtype=bool)
    support[root.start[0] : root.start[0] + root.size] = True
    worst_quot = 0.0
    built = 0
    for m in (1, 2):
        a = 2.0 ** (m * lattice.n + 2)
        for _ in range(25):
            fs = tuple(
                GridFunction(lattice, rng.uniform(0.0, 1.0, lattice.shape) * support)
                for _ in range(m)
            )
            fam = build_sparse_family(fs, grid, a=a, root=root)
            built += 1
            # sparseness, re-verified from the returned family itself
            taken = np.zeros(lattice.shape, dtype=bool)
            for cube, region in zip(fam.cubes, fam.regions):
                assert region.count >= cube.size**lattice.n / 2.0
                assert not np.any(taken & region.mask)
                taken |= region.mask
            dominated = dyadic_maximal(fs, grid, g_min=root.g).values
            dominating = a * sparse_operator(fam, fs).values
            with np.errstate(divide="ignore", invalid="ignore"):
                quot = np.where(dominated > 0.0, dominated / dominating, 0.0)
            worst_quot = max(worst_quot, float(np.max(quot)))
    ok = built == 50 and worst_quot <= 1.0 + 1e-9
    _record(
        5,
        ok,
        f"{built} sparse families at a=2^(mn+2): half-volume and disjointness "
        f"verified; worst maximal/(a*sparse) = {worst_quot:.9f} <= 1 + 1e-9",
    )
    assert ok


def test_criterion_6_holder_step():
    """|E| <= v(E)^(1/(mp)) * prod sigma_i(E)^(1/(m p_i')) on random regions."""
    rng = np.random.default_rng(61)
    lattice = Lattice(default_box(1), 8)
    tuples = [
        ExponentTuple(t)
        for t in ((2.0, 2.0), (2.0, 3.0), (4.0, 4.0 / 3.0), (4.0, 5.0, 6.0), (1.5, 2.5, 5.0))
    ]
    worst = 0.0
    checked = 0
    while checked < 1000:
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
            bound *= wv.sigma(i).mass_on(region) ** (
                1.0 / (et.m * et.conjugates[i])
            )
        worst = max(worst, size / bound)
        checked += 1
    ok = worst <= 1.0 + 1e-9
    _record(
        6,
        ok,
        f"{checked} random regions/power vectors: worst |E|/bound = "
        f"{worst:.12f} <= 1 + 1e-9",
    )
    assert ok


def test_criterion_7_riesz_sharpness():
    """Riesz-transform growth exponents at desk scale, both variants."""
    t0 = time.perf_counter()
    direct = fit_exponent(
        run_sweep(riesz_problem, (2.0, 2.0), EPS_RIESZ, L=RIESZ_L, variant="direct")
    )
    adjoint = fit_exponent(
        run_sweep(
            riesz_problem, (4.0, 4.0), EPS_RIESZ, L=RIESZ_L, variant="adjoint_slot1"
        )
    )
    seconds = time.perf_counter() - t0
    # direct (2,2): exponent max(1, p_i'/p) = 2; adjoint (4,4): p = 2 > p_i',
    # exponent 1.  (3,3) sits on the regime boundary p = p_i', so the interior
    # point (4,4) carries the adjoint check.
    ok = (
        1.6 <= direct.slope <= 2.4
        and 0.7 <= adjoint.slope <= 1.3
        and seconds < 600.0
    )
    _record(
        7,
        ok,
        f"riesz slopes: direct (2,2) {direct.slope:.4f} in [1.6, 2.4]; "
        f"adjoint (4,4) {adjoint.slope:.4f} in [0.7, 1.3]; took {seconds:.1f}s < 600s",
    )
    assert ok


def _brute_aligned_maximal(fs, lattice: Lattice) -> np.ndarray:
    """Sup over every cell-aligned cube of the product of plain averages."""
    n = lattice.n
    out = np.zeros(lattice.shape)
    if n == 1:
        (N,) = lattice.shape
        prefixes = [np.concatenate([[0.0], np.cumsum(f.values)]) for f in fs]
        for i in range(N):
            for j in range(i + 1, N + 1):
                val = 1.0
                for pref in prefixes:
                    val *= (pref[j] - pref[i]) / (j - i)
                seg = out[i:j]
                np.maximum(seg, val, out=seg)
        return out
    assert n == 2
    N0, N1 = lattice.shape
    prefixes = []
    for f in fs:
        pref = np.zeros((N0 + 1, N1 + 1))
        pref[1:, 1:] = np.cumsum(np.cumsum(f.values, axis=0), axis=1)
        prefixes.append(pref)
    for s in range(1, min(N0, N1) + 1):
        for r in range(N0 - s + 1):
            for c in range(N1 - s + 1):
                val = 1.0
                for pref in prefixes:
                    box = (
                        pref[r + s, c + s]
                        - pref[r, c + s]
                        - pref[r + s, c]
                        + pref[r, c]
                    )
                    val *= box / float(s * s)
                block = out[r : r + s, c : c + s]
                np.maximum(block, val, out=block)
    return out


def test_criterion_8_maximal_oracle_equivalence():
    """Brute-force cube scans sit inside the certified bracket on every cell."""
    rng = np.random.default_rng(81)
    worst_ratio_margin = 0.0
    ok = True
    details = []
    for n, L, m in ((1, 6, 1), (1, 6, 2), (2, 4, 2)):
        lattice = Lattice(default_box(n), L)
        fs = tuple(
            GridFunction(lattice, rng.uniform(0.05, 1.0, lattice.shape))
            for _ in range(m)
        )
        lower, upper = multilinear_maximal(fs)
        brute = _brute_aligned_maximal(fs, lattice)
        sandwiched = bool(
            np.all(lower.values <= brute * (1.0 + 1e-9))
            and np.all(brute <= upper.values * (1.0 + 1e-9))
        )
        cap = 6.0 ** (m * n) * 2.0**n
        ratio = float(np.max(upper.values / lower.values))
        ok = ok and sandwiched and ratio <= cap * (1.0 + 1e-9)
        worst_ratio_margin = max(worst_ratio_margin, ratio / cap)
        details.append(f"n={n},m={m}: bracket {'ok' if sandwiched else 'VIOLATED'}")
    _record(
        8,
        ok,
        f"{'; '.join(details)}; worst upper/lower vs 6^(mn)*2^n cap: "
        f"{worst_ratio_margin:.4f} <= 1",
    )
    assert ok


def test_criterion_9_determinism(maximal_sweep_2_2, tmp_path):
    """Two serial runs of the same sweep produce byte-identical CSVs."""
    first, _ = maximal_sweep_2_2
    second = run_sweep(maximal_problem, (2.0, 2.0), EPS_MAXIMAL, L=MAXIMAL_L)
    path1 = tmp_path / "sweep-first.csv"
    path2 = tmp_path / "sweep-second.csv"
    write_sweep_csv(first, path1)
    write_sweep_csv(second, path2)
    ok = path1.read_bytes() == path2.read_bytes()
    _record(
        9,
        ok,
        f"two serial runs give byte-identical CSVs: {ok} "
        f"({path1.stat().st_size} bytes each)",
    )
    assert ok
