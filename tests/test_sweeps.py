"""Tests for sweep execution, exponent fitting, CSV output, and audits."""
import json
import math
import os

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
from mweights.experiments import sweeps
from mweights.grid import GridFunction, Lattice, default_box
from mweights.weights import Weight, WeightVector, ExponentTuple


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
