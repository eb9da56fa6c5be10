"""Fast self-contained invariant battery behind the ``selftest`` subcommand.

Each check exercises one mathematical identity or bound the library is built
on, at a scale small enough to run in seconds.  A check returns its name, a
pass flag, and a one-line detail; the battery never raises on a failed
invariant, so every check always reports.
"""
from __future__ import annotations

import math
from typing import Callable, List, Tuple

import numpy as np

from .grid import CellRegion, GridFunction, Lattice, ShiftedGridFamily, default_box
from .operators import (
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
    maximal_problem,
    run_sweep,
)

CheckResult = Tuple[str, bool, str]


def check_duality_identity(seed: int) -> CheckResult:
    """Per-cube constants of the slot-dual vector are the p_i'/p power."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    # the slot-dual construction needs the combined exponent p above 1
    for exps in ((2.0, 3.0), (4.0, 5.0, 6.0)):
        lattice = Lattice(default_box(1), 5)
        et = ExponentTuple(exps)
        m = et.m
        for _ in range(40):
            wv = WeightVector([random_weight(rng, lattice, p) for p in et.exponents], et)
            Q = ShiftedGridFamily(lattice).random_cube(rng)
            base = per_cube_ap(wv, Q)
            if base <= 0.0:
                continue
            for i in range(m):
                dual = per_cube_ap(dualize(wv, i), Q)
                expected = base ** (et.conjugates[i] / et.p)
                rel = abs(dual - expected) / max(abs(expected), 1e-300)
                worst = max(worst, rel)
    ok = worst <= 1e-10
    return ("duality identity", ok, f"worst relative error {worst:.3e}")


def check_holder_step(seed: int) -> CheckResult:
    """|E| never exceeds the split product of weight masses on E."""
    rng = np.random.default_rng(seed)
    lattice = Lattice(default_box(1), 6)
    worst = 0.0
    for exps in ((2.0, 2.0), (4.0, 4.0 / 3.0), (1.5, 2.5, 5.0)):
        et = ExponentTuple(exps)
        for _ in range(60):
            wv = WeightVector([random_weight(rng, lattice, p) for p in et.exponents], et)
            mask = rng.random(lattice.shape) < 0.3
            if not mask.any():
                continue
            region = CellRegion(lattice, mask)
            m, p = et.m, et.p
            bound = wv.joint.mass_on(region) ** (1.0 / (m * p))
            for i in range(m):
                bound *= wv.sigma(i).mass_on(region) ** (
                    1.0 / (m * et.conjugates[i])
                )
            worst = max(worst, region.measure / bound)
    ok = worst <= 1.0 + 1e-9
    return ("holder step", ok, f"worst measure/bound quotient {worst:.12f}")


def check_weighted_maximal_ceiling(seed: int) -> CheckResult:
    """Weighted dyadic maximal operator norm stays below the conjugate."""
    rng = np.random.default_rng(seed)
    lattice = Lattice(default_box(1), 8)
    grid = ShiftedGridFamily(lattice).standard
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        p_conj = p / (p - 1.0)
        for _ in range(4):
            f = GridFunction(lattice, rng.uniform(0.0, 1.0, lattice.shape))
            w = Weight.from_values(
                lattice, 2.0 ** rng.integers(-3, 4, size=lattice.shape).astype(float)
            )
            out = weighted_dyadic_maximal(f, w, grid)
            wm = w.cell_masses()
            lhs = float(np.sum(out.values**p * wm)) ** (1.0 / p)
            rhs = float(np.sum(f.values**p * wm)) ** (1.0 / p)
            if rhs > 0:
                worst = max(worst, lhs / (p_conj * rhs))
    ok = worst <= 1.0 + 1e-12
    return ("weighted maximal ceiling", ok, f"worst ratio/p' {worst:.12f}")


def check_sparse_domination(seed: int) -> CheckResult:
    """Build sparse families and verify the pointwise domination."""
    rng = np.random.default_rng(seed)
    lattice = Lattice(default_box(1), 6)
    grid = ShiftedGridFamily(lattice).standard
    root = grid.cube(1, (0,))
    support = np.zeros(lattice.shape, dtype=bool)
    support[root.start[0] : root.start[0] + root.size] = True
    worst = 0.0
    for m in (1, 2):
        a = 2.0 ** (m * lattice.n + 2)
        for _ in range(8):
            fs = tuple(
                GridFunction(lattice, rng.uniform(0.0, 1.0, lattice.shape) * support)
                for _ in range(m)
            )
            fam = build_sparse_family(fs, grid, root=root)
            dominated = dyadic_maximal(fs, grid, g_min=root.g).values
            dominating = a * sparse_operator(fam, fs).values
            with np.errstate(divide="ignore", invalid="ignore"):
                quot = np.where(dominated > 0.0, dominated / dominating, 0.0)
            worst = max(worst, float(np.max(quot)))
    ok = worst <= 1.0 + 1e-9
    return ("sparse domination", ok, f"worst dominated/dominating {worst:.12f}")


def check_maximal_bracket(seed: int) -> CheckResult:
    """Lower envelope sits below the upper envelope within the fixed factor."""
    rng = np.random.default_rng(seed)
    lattice = Lattice(default_box(1), 5)
    worst = float("inf")
    ok = True
    for m in (1, 2):
        fs = tuple(
            GridFunction(lattice, rng.uniform(0.0, 1.0, lattice.shape))
            for _ in range(m)
        )
        lower, upper = multilinear_maximal(fs)
        if np.any(lower.values > upper.values * (1.0 + 1e-12)):
            ok = False
        cap = 6.0 ** (m * lattice.n) * 2.0**lattice.n
        pos = lower.values > 0.0
        if pos.any():
            ratio = float(np.max(upper.values[pos] / lower.values[pos]))
            worst = min(worst, cap / ratio)
            if ratio > cap * (1.0 + 1e-12):
                ok = False
    return ("maximal bracket", ok, f"smallest cap/ratio margin {worst:.3f}")


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


def check_sweep_determinism(seed: int) -> CheckResult:
    """Two runs give bitwise-identical sweep rows, and the fit is exact on a line."""
    eps = [2.0**-k for k in range(2, 6)]
    rows1 = run_sweep(maximal_problem, (2.0, 2.0), eps, L=5)
    rows2 = run_sweep(maximal_problem, (2.0, 2.0), eps, L=5)
    bitwise = all(
        a.ratio == b.ratio and a.ap_const == b.ap_const
        for a, b in zip(rows1, rows2)
    )
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
    ok = bitwise and fit_ok
    return (
        "sweep determinism and fit",
        ok,
        f"bitwise={bitwise}, fitted slope {fit.slope:.12f}",
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
