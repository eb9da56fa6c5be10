"""Each shared invariant check reports a failure when the operator it names breaks."""
import dataclasses

import numpy as np
import pytest

from mweights import selftest
from mweights.grid import GridFunction
from mweights.weights import Weight


def _dualize_returns_input(mp):
    mp.setattr(selftest, "dualize", lambda wv, i: wv)


def _weighted_maximal_scaled(mp):
    real = selftest.weighted_dyadic_maximal

    def scaled(f, w, grid, g_min=-2):
        out = real(f, w, grid, g_min=g_min)
        return GridFunction(out.lattice, 2.0 * 3.0 * out.values)  # 2p' at p = 3/2

    mp.setattr(selftest, "weighted_dyadic_maximal", scaled)


def _sparse_operator_halved(mp):
    real = selftest.sparse_operator
    mp.setattr(
        selftest,
        "sparse_operator",
        lambda fam, fs: GridFunction(fs[0].lattice, 0.5 * real(fam, fs).values),
    )


def _family_at_a_lower_ratio(mp):
    # selects at three quarters of the stated ratio: still sparse and still
    # dominating, so only the oracle comparison sees the wrong rule
    real = selftest.build_sparse_family

    def lowered(fs, grid, a=None, root=None):
        return dataclasses.replace(real(fs, grid, a=0.75 * a, root=root), a=a)

    mp.setattr(selftest, "build_sparse_family", lowered)


def _mass_on_scaled(mp):
    real = Weight.mass_on
    mp.setattr(Weight, "mass_on", lambda self, region: 1e-3 * real(self, region))


def _upper_envelope_halved(mp):
    real = selftest.multilinear_maximal

    def halved(fs, g_min=-2):
        lower, upper = real(fs, g_min=g_min)
        return lower, GridFunction(upper.lattice, 0.5 * upper.values)

    mp.setattr(selftest, "multilinear_maximal", halved)


def _second_sweep_differs(mp):
    real = selftest.run_sweep
    runs = []

    def drifting(*args, **kwargs):
        rows = real(*args, **kwargs)
        runs.append(rows)
        if len(runs) > 1:
            rows = [dataclasses.replace(r, ratio=r.ratio * (1 + 2.0**-40)) for r in rows]
        return rows

    mp.setattr(selftest, "run_sweep", drifting)


@pytest.mark.parametrize(
    "check, mutate",
    [
        (selftest.check_duality_identity, _dualize_returns_input),
        (selftest.check_weighted_maximal_ceiling, _weighted_maximal_scaled),
        (selftest.check_sparse_domination, _sparse_operator_halved),
        (selftest.check_sparse_domination, _family_at_a_lower_ratio),
        (selftest.check_holder_step, _mass_on_scaled),
        (selftest.check_maximal_bracket, _upper_envelope_halved),
        (selftest.check_sweep_determinism, _second_sweep_differs),
    ],
    ids=lambda fn: fn.__name__.strip("_"),
)
def test_check_fails_when_its_operator_breaks(check, mutate, monkeypatch):
    name, ok, detail = check(0)
    assert ok, f"{name}: {detail}"
    mutate(monkeypatch)
    name, ok, detail = check(0)
    assert not ok, f"{name} passed a broken operator: {detail}"


def test_sparse_check_fails_when_no_family_leaves_the_root(monkeypatch):
    # inputs capped at 1 are too flat for the stopping walk to select a cube
    # below the root; every other part of the check still passes on them
    monkeypatch.setattr(
        selftest,
        "GridFunction",
        lambda lattice, values: GridFunction(lattice, np.minimum(values, 1.0)),
    )
    name, ok, detail = selftest.check_sparse_domination(0)
    assert not ok
    assert "largest 1 cubes, 0 half-volume" in detail


def test_sparse_check_fails_on_a_wrong_selection_rule_alone(monkeypatch):
    _family_at_a_lower_ratio(monkeypatch)
    name, ok, detail = selftest.check_sparse_domination(0)
    assert not ok
    assert " 0 half-volume or disjointness faults, 0 differ" not in detail
    assert " 0 half-volume or disjointness faults, " in detail
    quotient = float(detail.rsplit("= ", 1)[1].split()[0])
    assert quotient <= 1.0
