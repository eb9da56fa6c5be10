"""End-to-end acceptance suite.

Each test exercises one advertised guarantee of the toolkit at its stated
tolerance and records a one-line verdict; the scoreboard is printed after
the run by the conftest terminal-summary hook.  Tolerances are part of the
package contract and are asserted exactly as documented in the README.
Criteria 3-6, 8 and 9 run the ``mweights.selftest`` checks at full scale.
"""
import time

import numpy as np
import pytest

from mweights.experiments import fit_exponent, maximal_problem, riesz_problem, run_sweep
from mweights.selftest import (
    check_duality_identity,
    check_holder_step,
    check_maximal_bracket,
    check_sparse_domination,
    check_sweep_determinism,
    check_weighted_maximal_ceiling,
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


# --- shared sweeps (criteria 1 and 2 reuse the same L=12 run) ---------------


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
    name, ok, detail = check_duality_identity(31, L=8, vectors=10, cubes=50)
    _record(3, ok, f"{name}: {detail}")
    assert ok


def test_criterion_4_weighted_maximal_ceiling():
    """The weighted dyadic maximal norm never exceeds the conjugate exponent."""
    name, ok, detail = check_weighted_maximal_ceiling(41, L=9, trials=100)
    _record(4, ok, f"{name}: {detail}")
    assert ok


def test_criterion_5_sparse_machinery():
    """Stopping-time families are sparse and dominate the dyadic maximal."""
    name, ok, detail = check_sparse_domination(51, L=6, families=25)
    _record(5, ok, f"{name}: {detail}")
    assert ok


def test_criterion_6_holder_step():
    """|E| <= v(E)^(1/(mp)) * prod sigma_i(E)^(1/(m p_i')) on random regions."""
    name, ok, detail = check_holder_step(61, L=8, regions=1000)
    _record(6, ok, f"{name}: {detail}")
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


def test_criterion_8_maximal_oracle_equivalence():
    """Brute-force cube scans sit inside the certified bracket on every cell."""
    name, ok, detail = check_maximal_bracket(81, cases=((1, 6, 1), (1, 6, 2), (2, 4, 2)))
    _record(8, ok, f"{name}: {detail}")
    assert ok


def test_criterion_9_determinism():
    """Two serial runs of the same sweep produce byte-identical CSVs."""
    name, ok, detail = check_sweep_determinism(0, L=MAXIMAL_L, strengths=len(EPS_MAXIMAL))
    _record(9, ok, f"{name}: {detail}")
    assert ok
