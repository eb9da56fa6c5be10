"""Tests for sweep execution, exponent fitting, CSV output, and audits."""
import dataclasses
import json
import math
import os
from collections import Counter

import numpy as np
import pytest

from mweights.experiments import (
    AuditError,
    FitResult,
    SweepRow,
    fit_exponent,
    maximal_problem,
    riesz_problem,
    run_sweep,
    upper_bound_audit,
    write_fit_json,
    write_gnuplot,
    write_sweep_csv,
)
from mweights.experiments import Minorant, grid_lp_norm, hybrid_lower_norm, sweeps
from mweights.grid import DyadicGrid, GridFunction, Lattice, ShiftedGridFamily, default_box
from mweights.powermass import Interval, power_mass
from mweights.operators import (
    SparsenessError,
    build_sparse_family,
    multilinear_maximal,
    sparse,
    sparse_operator,
)
from mweights.weights import (
    CubeFamily,
    ExponentTuple,
    Weight,
    WeightVector,
    ap_constant,
    random_weight,
)


def synthetic_row(eps, ap, ratio):
    return SweepRow(
        eps=eps,
        ap_const=ap,
        lhs_norm=ratio,
        rhs_norms=(1.0,),
        rhs_norm_product=1.0,
        ratio=ratio,
        L=6,
        ms=1.0,
        finite=True,
    )


def test_fit_exponent_recovers_exact_power_law():
    rows = [synthetic_row(2.0**-k, 2.0**k, 3.0 * (2.0**k) ** 2) for k in range(2, 8)]
    fit = fit_exponent(rows)
    assert fit.slope == pytest.approx(2.0, rel=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), rel=1e-10)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    assert fit.eps_min == pytest.approx(2.0**-7)
    assert fit.eps_max == pytest.approx(2.0**-2)


def test_fit_exponent_needs_four_finite_rows():
    rows = [synthetic_row(2.0**-k, 2.0**k, 2.0**k) for k in range(2, 5)]
    with pytest.raises(ValueError, match="4"):
        fit_exponent(rows)
    rows.append(
        SweepRow(
            eps=2.0**-5,
            ap_const=float("nan"),
            lhs_norm=1.0,
            rhs_norms=(1.0,),
            rhs_norm_product=1.0,
            ratio=float("nan"),
            L=6,
            ms=0.0,
            finite=False,
        )
    )
    with pytest.raises(ValueError, match="4"):
        fit_exponent(rows)


def test_fit_exponent_rejects_constant_abscissa():
    rows = [synthetic_row(2.0**-k, 5.0, 2.0**k) for k in range(2, 8)]
    with pytest.raises(ValueError, match="degenerate"):
        fit_exponent(rows)


def _norm_inputs():
    """Values with zeros, a weight g |x|^0.5 with a random step g, and a
    minorant 0.3 |x|^-0.4 on the cells of [-1, 1], at n = 1, L = 4."""
    lat = Lattice(default_box(1), 4)
    rng = np.random.default_rng(61)
    values = rng.random(16) * 2.0
    values[[3, 7, 12]] = 0.0
    w = Weight.power(lat, 0.5) * Weight.from_values(lat, rng.random(16) + 0.5)
    mask = np.zeros(16, dtype=bool)
    mask[4:12] = True
    return lat, values, w, Minorant(coeff=0.3, exponent=-0.4, mask=mask)


def test_hybrid_lower_norm_takes_the_cellwise_max_on_the_minorant_mask():
    lat, values, w, minorant = _norm_inputs()
    p = 1.5
    edges = lat.box.lo[0] + lat.h * np.arange(17)
    lattice_term = values**p * w.cell_masses()
    # the minorant's exact integral against the weight, cell by cell
    minor_term = np.array([
        minorant.coeff**p * w.values[k] * power_mass(-0.4 * p + 0.5, Interval(lo, hi))
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))
    ])
    mask = minorant.mask
    assert np.any(mask & (lattice_term > minor_term)) and np.any(mask & (minor_term > lattice_term))
    assert np.any(~mask & (minor_term > lattice_term))
    want = np.sum(np.where(mask, np.maximum(lattice_term, minor_term), lattice_term)) ** (1 / p)
    assert hybrid_lower_norm(values, p, w, minorant) == pytest.approx(want, rel=1e-13)
    # the minorant counts only on its mask: with none of its cells, the
    # lattice norm is left alone
    off = Minorant(minorant.coeff, minorant.exponent, np.zeros_like(mask))
    assert hybrid_lower_norm(values, p, w, off) == grid_lp_norm(values, p, w)


def test_hybrid_lower_norm_without_a_minorant_is_the_lattice_norm():
    _, values, w, minorant = _norm_inputs()
    for p in (0.5, 1.0, 1.5, 3.0):
        assert hybrid_lower_norm(values, p, w) == grid_lp_norm(values, p, w)
    for p in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            hybrid_lower_norm(values, p, w, minorant)


def test_run_sweep_rows_ordered_and_finite():
    eps_list = [2.0**-4, 2.0**-2, 2.0**-3, 2.0**-5]
    rows = run_sweep(maximal_problem, (2.0, 2.0), eps_list, L=7)
    assert [r.eps for r in rows] == sorted(eps_list, reverse=True)
    for r in rows:
        assert r.finite
        assert r.ratio > 0 and np.isfinite(r.ratio)
        assert r.L == 7
        assert r.ms >= 0.0
    # the weight constant grows as eps shrinks
    aps = [r.ap_const for r in rows]
    assert all(b > a for a, b in zip(aps, aps[1:]))


def test_run_sweep_maximal_slope_sane_at_low_resolution():
    eps_list = [2.0**-k for k in range(2, 7)]
    rows = run_sweep(maximal_problem, (2.0, 2.0), eps_list, L=9)
    fit = fit_exponent(rows)
    assert 1.2 <= fit.slope <= 2.8


def test_run_sweep_deterministic_across_runs(tmp_path):
    eps_list = [2.0**-k for k in range(2, 6)]
    rows1 = run_sweep(maximal_problem, (2.0, 2.0), eps_list, L=6)
    rows2 = run_sweep(maximal_problem, (2.0, 2.0), eps_list, L=6)
    for a, b in zip(rows1, rows2):
        assert a.eps == b.eps
        assert a.ratio == b.ratio  # bitwise
        assert a.ap_const == b.ap_const
    p1 = tmp_path / "first.csv"
    p2 = tmp_path / "second.csv"
    write_sweep_csv(rows1, p1)
    write_sweep_csv(rows2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_run_sweep_riesz_direct_small():
    eps_list = [2.0**-k for k in range(2, 6)]
    rows = run_sweep(riesz_problem, (2.0, 2.0), eps_list, L=7, variant="direct")
    assert all(r.finite for r in rows)
    fit = fit_exponent(rows)
    assert fit.slope > 1.0


RIESZ_SWEEPS = [((2.0, 2.0), "direct"), ((4.0, 4.0), "adjoint_slot1")]


@pytest.mark.parametrize("exponents,variant", RIESZ_SWEEPS)
def test_riesz_rows_need_quadrature_above_cone_minorant(monkeypatch, exponents, variant):
    # criterion 7 reads the quadrature: a kernel that comes out 1000 times
    # too small falls below the cone minorant, so no row is finite and the
    # fit refuses the sweep
    import dataclasses

    from mweights.experiments import sweeps

    eps_list = [2.0**-k for k in range(2, 6)]
    rows = run_sweep(riesz_problem, exponents, eps_list, L=7, variant=variant)
    assert all(r.finite for r in rows)
    real = sweeps.bilinear_riesz_rows

    def shrunk(*args, **kwargs):
        return [dataclasses.replace(rv, values=rv.values * 1e-3) for rv in real(*args, **kwargs)]

    monkeypatch.setattr(sweeps, "bilinear_riesz_rows", shrunk)
    bad = run_sweep(riesz_problem, exponents, eps_list, L=7, variant=variant)
    assert not any(r.finite for r in bad)
    with pytest.raises(ValueError, match="finite rows"):
        fit_exponent(bad)


@pytest.mark.parametrize("exponents,variant", RIESZ_SWEEPS)
@pytest.mark.parametrize("shrunk_row", [0, 2])
def test_each_riesz_row_reads_its_own_quadrature(monkeypatch, exponents, variant, shrunk_row):
    # the sweep's rows share one stacked quadrature call: shrinking one row
    # of the stack refuses exactly the row of that eps, so rows cannot be
    # mixed up across the stack
    import dataclasses

    from mweights.experiments import sweeps

    real = sweeps.bilinear_riesz_rows
    calls = []

    def one_row_shrunk(pairs, points, variant):
        out = real(pairs, points, variant)
        calls.append(len(out))
        rv = out[shrunk_row]
        out[shrunk_row] = dataclasses.replace(rv, values=rv.values * 1e-3)
        return out

    monkeypatch.setattr(sweeps, "bilinear_riesz_rows", one_row_shrunk)
    eps_list = [2.0**-k for k in range(2, 6)]
    rows = run_sweep(riesz_problem, exponents, eps_list, L=7, variant=variant)
    assert calls == [len(eps_list)]
    assert [r.finite for r in rows] == [k != shrunk_row for k in range(len(eps_list))]
    assert rows[shrunk_row].quad_min_ratio < 1.0 <= min(
        r.quad_min_ratio for r in rows if r.finite
    )


@pytest.mark.parametrize("exponents,variant", RIESZ_SWEEPS)
def test_stacked_riesz_rows_match_rows_evaluated_alone(exponents, variant):
    # the stacked sweep and one evaluate_problem per row give the same
    # rows, timings aside
    from mweights.experiments import evaluate_problem

    eps_list = [2.0**-k for k in range(2, 6)]
    rows = run_sweep(riesz_problem, exponents, eps_list, L=7, variant=variant)
    lat = Lattice(default_box(1), 7)
    for row in rows:
        alone = evaluate_problem(riesz_problem(exponents, row.eps, lat, variant=variant))
        assert row.ms > 0.0
        assert (row.eps, row.ap_const, row.lhs_norm, row.ratio, row.finite) == (
            alone.eps, alone.ap_const, alone.lhs_norm, alone.ratio, alone.finite
        )
        assert row.quad_min_ratio == pytest.approx(alone.quad_min_ratio, rel=1e-13)
        assert row.pv_points == alone.pv_points == 0
        assert row.quad_min_ratio >= 1.0


@pytest.mark.parametrize(
    "exponents, L, n", [((2.0, 2.0), 7, 1), ((4.0, 4.0 / 3.0), 7, 1), ((2.0, 2.0), 4, 2)]
)
def test_stacked_maximal_rows_match_rows_evaluated_alone(exponents, L, n):
    # the sweep runs its rows as one stack through the maximal operator and
    # the weight-constant scan; every field but the timing has the bits of
    # one evaluate_problem per row
    import dataclasses

    from mweights.experiments import evaluate_problem

    eps_list = [2.0**-k for k in range(2, 7)]
    rows = run_sweep(maximal_problem, exponents, eps_list, L=L, n=n)
    lat = Lattice(default_box(n), L)
    for row in rows:
        alone = evaluate_problem(maximal_problem(exponents, row.eps, lat))
        assert row.ms > 0.0
        assert dataclasses.replace(row, ms=0.0) == dataclasses.replace(alone, ms=0.0)


def test_a_stack_of_two_kinds_is_refused():
    lat = Lattice(default_box(1), 5)
    problems = [maximal_problem((2.0, 2.0), 0.25, lat), riesz_problem((2.0, 2.0), 0.25, lat)]
    with pytest.raises(ValueError, match="one kind"):
        sweeps._evaluate_rows(problems)


def test_a_riesz_stack_with_different_minorant_cells_is_refused():
    # the stack's one quadrature call runs at the first problem's cells
    lat = Lattice(default_box(1), 5)
    first, second = (riesz_problem((2.0, 2.0), eps, lat) for eps in (0.25, 0.125))
    fewer = first.region.mask.copy()
    fewer[np.nonzero(fewer)[0][-1]] = False
    second = dataclasses.replace(second, region=dataclasses.replace(second.region, mask=fewer))
    with pytest.raises(ValueError, match="minorant cells"):
        sweeps._evaluate_rows([first, second])


def test_run_sweep_grid_convergence():
    # raising the resolution by one moves the ratio only modestly
    eps = [2.0**-3, 2.0**-2, 2.0**-4, 2.0**-5]
    coarse = run_sweep(maximal_problem, (2.0, 2.0), eps, L=8)
    fine = run_sweep(maximal_problem, (2.0, 2.0), eps, L=9)
    for a, b in zip(coarse, fine):
        assert abs(math.log(b.ratio / a.ratio)) < 0.15


def test_row_ratio_invariant_under_input_rescaling():
    # scaling one input by a positive constant scales the operator output
    # and that input's norm alike, so the ratio is unchanged
    import dataclasses

    from mweights.experiments import evaluate_problem

    lat = Lattice(default_box(1), 6)
    prob = maximal_problem((2.0, 2.0), 0.25, lat)
    scaled_fs = (GridFunction(lat, 4.0 * prob.fs[0].values), prob.fs[1])
    scaled = dataclasses.replace(
        prob,
        fs=scaled_fs,
        rhs_norms=(4.0 * prob.rhs_norms[0], prob.rhs_norms[1]),
        minorant=dataclasses.replace(prob.minorant, coeff=4.0 * prob.minorant.coeff),
    )
    base_row = evaluate_problem(prob)
    scaled_row = evaluate_problem(scaled)
    assert scaled_row.ratio == pytest.approx(base_row.ratio, rel=1e-12)
    assert scaled_row.lhs_norm == pytest.approx(4.0 * base_row.lhs_norm, rel=1e-12)


def test_sweep_csv_format(tmp_path):
    rows = [synthetic_row(0.25, 2.0, 8.0), synthetic_row(0.125, 4.0, 32.0)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "eps,ap_const,lhs_norm,rhs_norm_product,ratio,L,ms"
    first = lines[1].split(",")
    assert float(first[0]) == 0.25
    assert first[5] == "6"
    assert first[6] == "0"


def test_fit_json_round_trip(tmp_path):
    fit = FitResult(slope=2.0, intercept=1.1, residual=0.01, eps_min=0.01, eps_max=0.25)
    path = tmp_path / "fit.json"
    write_fit_json(fit, path)
    blob = json.loads(path.read_text())
    assert set(blob) == {"slope", "intercept", "residual", "eps_min", "eps_max"}
    assert blob["slope"] == 2.0


def test_gnuplot_script_emission(tmp_path):
    rows = [synthetic_row(2.0**-k, 2.0**k, 2.0 ** (2 * k)) for k in range(2, 6)]
    csv_path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, csv_path)
    fit = fit_exponent(rows)
    gp = tmp_path / "sweep.gp"
    write_gnuplot(csv_path, gp, fit=fit)
    text = gp.read_text()
    assert "logscale" in text
    assert "sweep.csv" in text


def test_audit_deterministic_and_bounded():
    rep1 = upper_bound_audit((2.0, 2.0), L=6, trials=6, seed=11, operator="sparse")
    rep2 = upper_bound_audit((2.0, 2.0), L=6, trials=6, seed=11, operator="sparse")
    assert rep1.quotients == rep2.quotients
    assert rep1.max_quotient == max(rep1.quotients)
    assert np.isfinite(rep1.max_quotient) and rep1.max_quotient > 0
    assert rep1.trials == 6 and rep1.skipped == 0


def test_audit_maximal_operator_kind():
    rep = upper_bound_audit((2.0, 2.0), L=6, trials=4, seed=3, operator="maximal")
    assert rep.operator == "maximal"
    assert rep.target_exponent == pytest.approx(2.0)  # max p_i'/p with p=1
    assert all(q > 0 for q in rep.quotients)


def test_audit_sparse_target_exponent_floor():
    # P = (4,4): p = 2 > p_i' = 4/3, the sparse target is floored at 1
    rep = upper_bound_audit((4.0, 4.0), L=6, trials=3, seed=5, operator="sparse")
    assert rep.target_exponent == pytest.approx(1.0)


def test_audit_constant_weights_reduce_to_plain_ratio():
    rep = upper_bound_audit(
        (2.0, 2.0), L=6, trials=3, seed=9, operator="maximal", weight_kind="constant"
    )
    # with w == 1 the weight constant is 1, so quotient == plain ratio
    assert all(np.isfinite(q) and q > 0 for q in rep.quotients)
    blob = rep.to_json()
    assert blob["operator"] == "maximal"
    assert blob["max_quotient"] == rep.max_quotient


def test_audit_reports_largest_family():
    rep = upper_bound_audit((2.0, 2.0), L=6, trials=6, seed=11, operator="sparse")
    blob = rep.to_json()
    assert blob["largest_family"] == rep.largest_family > 1


def test_audit_family_generations_add_up_to_the_family_cubes(monkeypatch):
    built = []
    real = sweeps.build_sparse_family

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(sweeps, "build_sparse_family", recording)
    rep = upper_bound_audit((2.0, 2.0), L=6, trials=6, seed=11, operator="sparse")
    assert len(built) == 6
    assert sum(rep.family_generations.values()) == sum(len(fam) for fam in built)
    assert rep.family_generations[1] == 6  # every family holds its root
    assert len(rep.family_generations) > 1
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["family_generations"] == {str(g): k for g, k in rep.family_generations.items()}
    maximal = upper_bound_audit((2.0, 2.0), L=6, trials=2, seed=3, operator="maximal")
    assert maximal.family_generations == {} and maximal.to_json()["family_generations"] == {}


def test_audit_fails_when_every_family_is_the_root(monkeypatch):
    # inputs capped at 1 are too flat for the stopping walk to select a cube
    # below the root
    monkeypatch.setattr(
        sweeps,
        "GridFunction",
        lambda lattice, values: GridFunction(lattice, np.minimum(values, 1.0)),
    )
    with pytest.raises(AuditError, match="root alone"):
        upper_bound_audit((2.0, 2.0), L=6, trials=6, seed=11, operator="sparse")


def test_planar_sparse_audit_runs_at_tier_one_size():
    rep = upper_bound_audit((2.0, 2.0), L=6, trials=3, seed=3, operator="sparse", n=2)
    assert rep.skipped == 0 and len(rep.quotients) == 3
    assert rep.largest_family > 1


@pytest.mark.parametrize(
    "exponents, largest", [((1.5, 1.5), 4), ((2.0, 2.0, 2.0), 2), ((1.2, 3.0), 4)]
)
def test_sparse_audit_below_p_one_and_at_three_slots(exponents, largest):
    # p = 0.75, 0.667 and 0.857: the regime below p = 1 the paper's bound
    # covers, with three dual densities in the m = 3 weight scan
    rep = upper_bound_audit(exponents, L=8, trials=10, seed=3, operator="sparse")
    assert rep.skipped == 0 and len(rep.quotients) == 10
    assert all(np.isfinite(q) and q > 0.0 for q in rep.quotients)
    assert rep.largest_family == largest > 1


def test_audit_rejects_unknown_operator():
    with pytest.raises(ValueError, match="operator"):
        upper_bound_audit((2.0, 2.0), L=5, trials=2, seed=1, operator="fourier")


@pytest.mark.parametrize("trials", [0, -3])
def test_audit_refuses_fewer_than_one_trial(trials):
    with pytest.raises(ValueError, match=f"trials={trials} must be at least 1"):
        upper_bound_audit((2.0, 2.0), L=5, trials=trials, seed=1)


def test_report_json_keys_keep_the_field_order():
    fit = FitResult(slope=2.0, intercept=1.1, residual=0.01, eps_min=0.01, eps_max=0.25)
    assert list(fit.to_json()) == ["slope", "intercept", "residual", "eps_min", "eps_max"]
    rep = upper_bound_audit((2.0, 2.0), L=6, trials=2, seed=11)
    blob = rep.to_json()
    assert list(blob) == [
        "operator",
        "target_exponent",
        "trials",
        "skipped",
        "skipped_by_reason",
        "quotients",
        "max_quotient",
        "weight_kind",
        "L",
        "seed",
        "largest_family",
        "family_generations",
        "degenerate_cubes",
    ]
    assert blob["quotients"] == list(rep.quotients)
    assert list(blob["family_generations"]) == [str(g) for g in rep.family_generations]


def audit_one_trial_at_a_time(
    exponents, L, trials, seed, target, operator="sparse", n=1, weight_kind="mixed"
):
    """Oracle: the audit with every trial run alone, start to end, through
    ``build_sparse_family``, ``sparse_operator`` (or ``multilinear_maximal``)
    and ``ap_constant``, with the draws in the audit's order.  Returns the
    quotients, the skips by reason, the largest family, the cubes per
    generation and the degenerate cubes of the counted trials."""
    et = ExponentTuple(exponents)
    lattice = Lattice(default_box(n), L)
    grid = ShiftedGridFamily(lattice).standard
    root = grid.cube(1, (0,) * n)
    support = np.zeros(lattice.shape, dtype=bool)
    support[lattice.cube_cells(root)] = True
    family = CubeFamily(lattice, kind="shifted")
    rng = np.random.default_rng(seed)
    quotients, skips, largest, generations, degenerate = [], Counter(), 0, Counter(), 0
    for _ in range(trials):
        fs = tuple(
            GridFunction(lattice, rng.lognormal(0.0, 2.0, lattice.shape) * support)
            for _ in range(et.m)
        )
        if weight_kind == "constant":
            ws = tuple(Weight.constant(lattice) for _ in range(et.m))
        else:
            ws = tuple(random_weight(rng, lattice, p_i) for p_i in et.exponents)
        wv = WeightVector(ws, et)
        rhs = float(np.prod([grid_lp_norm(f.values, p, w) for f, p, w in zip(fs, exponents, ws)]))
        if not (rhs > 0.0 and np.isfinite(rhs)):
            skips["input_norms"] += 1
            continue
        if operator == "sparse":
            try:
                fam = build_sparse_family(fs, grid, root=root)
            except SparsenessError:
                skips["sparseness"] += 1
                continue
            largest = max(largest, len(fam))
            generations.update(cube.g for cube in fam.cubes)
            out = sparse_operator(fam, fs)
        else:
            out = multilinear_maximal(fs)[0]
        lhs = grid_lp_norm(out.values, et.p, wv.joint)
        report = ap_constant(wv, family)
        ap = report.constant
        if not (lhs > 0.0 and np.isfinite(lhs) and np.isfinite(ap) and ap > 0.0):
            skips["degenerate_lhs_ap"] += 1
            continue
        quotients.append((lhs / rhs) / ap**target)
        degenerate += report.degenerate
    return quotients, dict(skips), largest, dict(sorted(generations.items())), degenerate


@pytest.mark.parametrize(
    "exponents, L, trials, seed, operator, n, weight_kind",
    [
        ((2.0, 2.0), 8, 8, 3, "sparse", 1, "mixed"),
        ((1.5, 1.5), 8, 10, 3, "sparse", 1, "mixed"),
        ((2.0, 2.0, 2.0), 8, 10, 3, "sparse", 1, "mixed"),
        ((2.0, 2.0), 5, 4, 3, "sparse", 2, "mixed"),
        ((2.0, 2.0), 7, 6, 3, "maximal", 1, "mixed"),
        ((2.0, 2.0), 8, 6, 11, "sparse", 1, "constant"),
    ],
)
def test_stacked_audit_matches_trials_run_one_at_a_time(
    exponents, L, trials, seed, operator, n, weight_kind
):
    rep = upper_bound_audit(
        exponents, L=L, trials=trials, seed=seed, operator=operator, n=n, weight_kind=weight_kind
    )
    quotients, skips, largest, generations, degenerate = audit_one_trial_at_a_time(
        exponents, L, trials, seed, rep.target_exponent, operator, n, weight_kind
    )
    assert rep.quotients == tuple(quotients)  # bit for bit
    assert rep.skipped == sum(skips.values())
    assert {k: v for k, v in rep.skipped_by_reason.items() if v} == skips
    assert rep.largest_family == largest
    assert rep.family_generations == generations
    assert rep.degenerate_cubes == degenerate


def test_audit_runs_one_weight_constant_scan_and_one_sparse_apply(monkeypatch):
    # the trials share one pyramid per shifted grid in the weight-constant
    # scan and one pyramid of the root's subtree in the sparse operator;
    # every sparse build reads its own
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    counting(DyadicGrid, "pyramid")
    counting(sparse, "cube_levels")
    counting(sweeps, "build_sparse_family")
    rep = upper_bound_audit((2.0, 2.0), L=7, trials=6, seed=11, operator="sparse")
    assert len(rep.quotients) == 6
    assert calls["pyramid"] == 2  # the two shifted grids at n = 1
    assert calls["build_sparse_family"] == 6
    assert calls["cube_levels"] == calls["build_sparse_family"] + 1


@pytest.mark.parametrize("operator", ["sparse", "maximal"])
def test_an_audit_in_several_stacks_matches_trials_run_one_at_a_time(monkeypatch, operator):
    # three L = 8 trials to a stack: ten trials run as 3 + 3 + 3 + 1
    monkeypatch.setattr(sweeps, "_AUDIT_STACK_CELLS", 3 * 256 + 255)
    scans = Counter()
    real_scan = sweeps._scan_rows

    def scan(P, densities, family):
        scans[len(densities) // (1 + P.m)] += 1
        return real_scan(P, densities, family)

    monkeypatch.setattr(sweeps, "_scan_rows", scan)
    rep = upper_bound_audit((2.0, 2.0), L=8, trials=10, seed=3, operator=operator)
    quotients, skips, largest, generations, degenerate = audit_one_trial_at_a_time(
        (2.0, 2.0), 8, 10, 3, rep.target_exponent, operator
    )
    assert not skips and scans == {3: 3, 1: 1}
    assert rep.quotients == tuple(quotients)  # bit for bit
    assert rep.largest_family == largest
    assert rep.family_generations == generations
    assert rep.degenerate_cubes == degenerate


def test_an_audit_runs_the_kept_trials_of_each_block_of_draws_as_one_stack(monkeypatch):
    # three L = 8 draws to a block; the first family misses sparseness, so
    # the ten draws run as stacks of 2 + 3 + 3 + 1
    monkeypatch.setattr(sweeps, "_AUDIT_STACK_CELLS", 3 * 256 + 255)
    builds, scans = Counter(), Counter()
    real_build, real_scan = sweeps.build_sparse_family, sweeps._scan_rows

    def build(*args, **kwargs):
        builds["n"] += 1
        if builds["n"] == 1:
            raise SparsenessError("kept region below one half")
        return real_build(*args, **kwargs)

    def scan(P, densities, family):
        scans[len(densities) // (1 + P.m)] += 1
        return real_scan(P, densities, family)

    monkeypatch.setattr(sweeps, "build_sparse_family", build)
    monkeypatch.setattr(sweeps, "_scan_rows", scan)
    rep = upper_bound_audit((2.0, 2.0), L=8, trials=10, seed=3, operator="sparse")
    quotients, skips, _, _, _ = audit_one_trial_at_a_time(
        (2.0, 2.0), 8, 10, 3, rep.target_exponent, "sparse"
    )
    assert not skips and rep.skipped_by_reason["sparseness"] == rep.skipped == 1
    assert scans == {2: 1, 3: 2, 1: 1}
    # the skipped draw consumed its random numbers, so the other nine keep theirs
    assert rep.quotients == tuple(quotients[1:])  # bit for bit


def test_a_planar_audit_holds_no_more_than_a_small_stack_at_once():
    # a 20-trial stack at n = 2, L = 7 peaks at about 30 MiB; one trial at
    # a time, at about 4.6 MiB
    import tracemalloc

    tracemalloc.start()
    try:
        rep = upper_bound_audit((2.0, 2.0), L=7, trials=20, seed=3, n=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep.quotients) == 20
    assert peak < 8 * 2**20


def test_audit_skips_add_up_by_reason(monkeypatch):
    # trial 0's input norms vanish, the second build misses sparseness and
    # the first output norm of the stack vanishes: one skip of each reason
    norms, builds, lhs_calls = Counter(), Counter(), Counter()
    real_norm, real_build = sweeps.grid_lp_norm, sweeps.build_sparse_family
    real_lp = sweeps._lp_norm

    def norm(*args):
        norms["n"] += 1
        return 0.0 if norms["n"] <= 2 else real_norm(*args)

    def build(*args, **kwargs):
        builds["n"] += 1
        if builds["n"] == 2:
            raise SparsenessError("kept region below one half")
        return real_build(*args, **kwargs)

    def lp(*args):
        lhs_calls["n"] += 1
        return 0.0 if lhs_calls["n"] == 1 else real_lp(*args)

    monkeypatch.setattr(sweeps, "grid_lp_norm", norm)
    monkeypatch.setattr(sweeps, "build_sparse_family", build)
    monkeypatch.setattr(sweeps, "_lp_norm", lp)
    rep = upper_bound_audit((2.0, 2.0), L=7, trials=8, seed=11, operator="sparse")
    assert rep.skipped_by_reason == {"input_norms": 1, "sparseness": 1, "degenerate_lhs_ap": 1}
    assert rep.skipped == sum(rep.skipped_by_reason.values()) == 3
    assert len(rep.quotients) == rep.trials - rep.skipped == 5
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["skipped_by_reason"] == rep.skipped_by_reason
    assert blob["degenerate_cubes"] == rep.degenerate_cubes


def test_every_skip_for_vanishing_input_norms_reads_as_input_norms(monkeypatch):
    monkeypatch.setattr(sweeps, "grid_lp_norm", lambda *args: 0.0)
    with pytest.raises(AuditError, match=r"every audit trial was skipped \(3 input_norms\)"):
        upper_bound_audit((2.0, 2.0), L=5, trials=3, seed=1, operator="sparse")


def test_audit_degenerate_cubes_sum_over_the_counted_trials(monkeypatch):
    # the first trial of the stack is skipped for its output norm; its
    # degenerate cubes must not count
    real_scan, real_lp = sweeps._scan_rows, sweeps._lp_norm
    lhs_calls = Counter()

    def scan(*args):
        reports = real_scan(*args)
        return [dataclasses.replace(r, degenerate=10 + k) for k, r in enumerate(reports)]

    def lp(*args):
        lhs_calls["n"] += 1
        return 0.0 if lhs_calls["n"] == 1 else real_lp(*args)

    monkeypatch.setattr(sweeps, "_scan_rows", scan)
    monkeypatch.setattr(sweeps, "_lp_norm", lp)
    rep = upper_bound_audit((2.0, 2.0), L=7, trials=4, seed=11, operator="sparse")
    assert rep.skipped_by_reason["degenerate_lhs_ap"] == 1
    assert rep.degenerate_cubes == 11 + 12 + 13
