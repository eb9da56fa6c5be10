"""The four benchmark workloads: their inputs, the timed calls, the checks.

Every check compares the program's output with a closed form, with an
independent numpy or scipy recomputation written here, or with a property
the method must have.  None compares with a stored copy of earlier output.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Sweep:
    """One sharpness sweep: an extremal family over an eps ladder."""

    label: str
    family: str  # "maximal" or "riesz"
    n: int
    L: int
    exponents: Tuple[float, ...]
    ks: Tuple[int, ...]  # eps = 2^-k
    window: Optional[Tuple[float, float]]  # acceptance window of the fitted slope
    variant: Optional[str] = None

    @property
    def eps(self):
        return [2.0**-k for k in self.ks]


@dataclass(frozen=True)
class Workload:
    sweeps: Tuple[Sweep, ...] = ()
    trials: int = 0  # audit trials; 0 for a sweep workload
    n: int = 1  # the audit's dimension and level
    L: int = 10

    @property
    def shapes(self):
        """The ``(n, L)`` of every lattice the workload runs on."""
        if self.trials:
            return [(self.n, self.L)]
        return sorted({(sw.n, sw.L) for sw in self.sweeps})


MAXIMAL_KS = tuple(range(2, 10))
RIESZ_KS = tuple(range(2, 8))

WORKLOADS = {
    "sweeps": Workload(
        sweeps=(
            # criterion 1: slope max p_i'/p, 2 for (2,2) and 4 for (4,4/3)
            Sweep("maximal-2-2", "maximal", 1, 10, (2.0, 2.0), MAXIMAL_KS, (1.7, 2.3)),
            Sweep("maximal-4-43", "maximal", 1, 10, (4.0, 4.0 / 3.0), MAXIMAL_KS, (3.2, 4.8)),
            # in two dimensions the operator slope is not gated: there is no minorant
            Sweep("maximal-2-2-n2", "maximal", 2, 4, (2.0, 2.0), tuple(range(2, 6)), None),
            # criterion 7: direct slope 2 for (2,2), first-slot adjoint slope 1 for (4,4)
            Sweep("riesz-direct-2-2", "riesz", 1, 10, (2.0, 2.0), RIESZ_KS, (1.6, 2.4), "direct"),
            Sweep(
                "riesz-adjoint-4-4",
                "riesz",
                1,
                10,
                (4.0, 4.0),
                RIESZ_KS,
                (0.7, 1.3),
                "adjoint_slot1",
            ),
        ),
    ),
    "audit-sparse": Workload(n=1, L=10, trials=20),
}

AUDIT_EXPONENTS = (2.0, 2.0)
REL_TOL = 1e-9


def run(mw, name, seed):
    """The timed part of a round: every sweep row and its fit, or the audit.

    Returns ``(attempted, failed, result)``.  A sweep row fails when it is
    not finite; an audit trial fails when the audit skips it.
    """
    wl = WORKLOADS[name]
    if wl.trials:
        report = mw.upper_bound_audit(
            AUDIT_EXPONENTS, L=wl.L, trials=wl.trials, seed=seed, operator="sparse", n=wl.n
        )
        return wl.trials, report.skipped, report
    attempted = failed = 0
    result = {}
    for sw in wl.sweeps:
        builder = mw.maximal_problem if sw.family == "maximal" else mw.riesz_problem
        kwargs = {"variant": sw.variant} if sw.variant else {}
        rows = mw.run_sweep(builder, sw.exponents, sw.eps, L=sw.L, n=sw.n, **kwargs)
        fit = mw.fit_exponent(rows)
        attempted += len(rows)
        failed += sum(1 for r in rows if not r.finite)
        result[sw.label] = (rows, fit)
    return attempted, failed, result


def csv_digests(mw, result, out_dir):
    """SHA-256 of each sweep's ``write_sweep_csv`` file."""
    digests = {}
    for label, (rows, _) in result.items():
        path = out_dir / f"{label}.csv"
        mw.write_sweep_csv(rows, path)
        digests[label] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# --------------------------------------------------------------- checks


def _close(got, want, what, failures, rtol=REL_TOL):
    if not abs(got - want) <= rtol * abs(want):
        failures.append(f"{what}: {got!r} != {want!r} (rtol {rtol:g})")


def _box_power_mass(n, b):
    """Closed form of the integral of |x|^b over the box [-2, 2)^n."""
    if n == 1:
        return 2.0 ** (b + 2) / (b + 1)
    from scipy import integrate

    # eight octant triangles of the square, each in polar coordinates
    val, _ = integrate.quad(
        lambda t: (2.0 / math.cos(t)) ** (b + 2) / (b + 2),
        0.0,
        math.pi / 4,
        epsabs=0.0,
        epsrel=1e-13,
    )
    return 8.0 * val


def _unit_ball_power_mass(n, a):
    """Closed form of the integral of |x|^a over the unit ball."""
    return 2.0 / (a + 1) if n == 1 else 2.0 * math.pi / (a + 2)


def _growth_slope(rows):
    xs = np.log([1.0 / r.eps for r in rows])
    ys = np.log([r.ap_const for r in rows])
    return float(np.polyfit(xs, ys, 1)[0])


def _check_sweep_common(sw, rows, fit, failures):
    if sw.window is not None and not sw.window[0] <= fit.slope <= sw.window[1]:
        lo, hi = sw.window
        failures.append(f"{sw.label}: fitted slope {fit.slope:.4f} outside [{lo}, {hi}]")
    if not all(r.finite and r.ratio > 0.0 and r.ap_const > 0.0 for r in rows):
        failures.append(f"{sw.label}: a row is not finite and positive")


def _check_masses(mw, lattice, sw, eps, failures):
    """Input and weight cell masses against closed forms."""
    fs, wv = mw.maximal_extremal(sw.exponents, eps, lattice)
    vol = lattice.cell_volume
    for i, f in enumerate(fs):
        want = _unit_ball_power_mass(sw.n, f.descriptor.exponent)
        got = float(np.sum(f.values)) * vol
        _close(got, want, f"{sw.label} eps={eps:g} input {i} mass", failures)
    for what, w in (("w_1", wv.weights[0]), ("sigma_1", wv.sigma(0)), ("joint", wv.joint)):
        got = float(np.sum(w.cell_masses()))
        want = float(w.values.flat[0]) * _box_power_mass(sw.n, w.exponent)
        _close(got, want, f"{sw.label} eps={eps:g} {what} mass", failures)
    return fs, wv


def _check_ap_constant(mw, lattice, sw, row, wv, rng, failures, samples=64):
    """ap_constant is a maximum: attained at its argmax, above sampled cubes."""
    report = mw.ap_constant(wv, mw.CubeFamily(lattice, kind="shifted"))
    best = report.constant
    if best != row.ap_const:
        failures.append(f"{sw.label}: ap_constant {best!r} != sweep row {row.ap_const!r}")
    at_arg = mw.per_cube_ap(wv, report.argmax)
    if at_arg != best:
        failures.append(f"{sw.label}: per_cube_ap at the argmax {at_arg!r} != {best!r}")
    grids = mw.ShiftedGridFamily(lattice).grids
    N = lattice.cells_per_axis
    for _ in range(samples):
        grid = grids[int(rng.integers(len(grids)))]
        g = int(rng.integers(-2, lattice.L + 1))
        size = 2 ** (lattice.L - g)
        j = []
        for b in grid.base(lattice.L - g):
            # j * size + b must land in (-size, N) for the cube to meet the box
            j_lo = -((size + b - 1) // size)
            j_hi = (N - 1 - b) // size
            j.append(int(rng.integers(j_lo, j_hi + 1)))
        cube = grid.cube(g, j)
        val = mw.per_cube_ap(wv, cube)
        if not val <= best:
            failures.append(f"{sw.label}: per_cube_ap {val!r} on {cube} above the constant")
            return


def _riesz_reference(lattice, f1, f2, points, variant):
    """Midpoint double sum of the bilinear Riesz kernel, written out plainly.

    K(x, y1, y2) = ((x-y1) + (x-y2)) / ((x-y1)^2 + (x-y2)^2)^(3/2); the
    first-slot adjoint evaluates K(y1, x, y2).  Pairs of cells whose
    midpoints both lie within half a cell of x are left out.
    """
    h = lattice.h
    mids = lattice.box.lo[0] + (np.arange(lattice.cells_per_axis) + 0.5) * h
    m1, m2 = f1.values * h, f2.values * h
    keep1, keep2 = m1 > 0.0, m2 > 0.0
    y1, w1 = mids[keep1][:, None], m1[keep1][:, None]
    y2, w2 = mids[keep2][None, :], m2[keep2][None, :]
    out = []
    for x in points:
        if variant == "direct":
            u, v = x - y1, x - y2
        else:
            u, v = y1 - x, y1 - y2
        near = (np.abs(y1 - x) <= h / 2) & (np.abs(y2 - x) <= h / 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = (u + v) / (u * u + v * v) ** 1.5 * (w1 * w2)
        out.append(float(np.sum(np.where(near, 0.0, terms))))
    return np.array(out)


def _check_riesz(mw, lattice, sw, rng, failures, samples=8):
    for eps in sw.eps:
        prob = mw.riesz_problem(sw.exponents, eps, lattice, variant=sw.variant)
        cells = np.nonzero(prob.region.mask)[0]
        pick = np.sort(rng.choice(cells, size=min(samples, cells.size), replace=False))
        points = lattice.box.lo[0] + (pick + 0.5) * lattice.h
        got = mw.bilinear_riesz(prob.fs[0], prob.fs[1], points, variant=sw.variant).values
        want = _riesz_reference(lattice, prob.fs[0], prob.fs[1], points, sw.variant)
        for x, g, w in zip(points, got, want):
            _close(g, w, f"{sw.label} eps={eps:g} riesz value at x={x:g}", failures)
        cone = prob.minorant.coeff * np.abs(points) ** prob.minorant.exponent
        if not np.all(got > 0.0) or not np.all(got >= cone):
            worst = float(np.min(got / cone))
            failures.append(
                f"{sw.label} eps={eps:g}: quadrature below the cone minorant "
                f"(min ratio {worst:.4g})"
            )


def check(mw, name, seed, lattices, result, failures):
    """Every check of the workload's timed output; failures are appended.

    ``lattices`` maps each ``(n, L)`` of ``Workload.shapes`` to its lattice.
    """
    wl = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    if wl.trials:
        report = result
        q = np.array(report.quotients)
        if report.skipped or q.size != wl.trials:
            failures.append(f"audit skipped {report.skipped} of {wl.trials} trials")
        if not np.all(np.isfinite(q) & (q > 0.0)):
            failures.append("audit quotient not finite and positive")
        return
    for sw in wl.sweeps:
        rows, fit = result[sw.label]
        lattice = lattices[sw.n, sw.L]
        _check_sweep_common(sw, rows, fit, failures)
        if sw.family == "riesz":
            _check_riesz(mw, lattice, sw, rng, failures)
            continue
        etp = mw.ExponentTuple(sw.exponents)
        target = etp.p / max(etp.conjugates)
        slope = _growth_slope(rows)
        if not 0.9 * target <= slope <= 1.1 * target:
            failures.append(
                f"{sw.label}: constant-growth slope {slope:.4f} not within 10% of {target}"
            )
        k = int(rng.integers(len(rows)))
        fs, wv = _check_masses(mw, lattice, sw, rows[k].eps, failures)
        if sw.n == 1:
            _check_ap_constant(mw, lattice, sw, rows[k], wv, rng, failures)
        else:
            lower, upper = mw.multilinear_maximal(fs)
            if not np.all(lower.values <= upper.values):
                failures.append(f"{sw.label}: maximal bracket has lower > upper")


def check_families(mw, families, failures):
    """Sparse domination and sparseness on the families a traced audit built."""
    if not families:
        failures.append("the traced audit built no sparse family")
    for fs, grid, fam in families:
        lat = fs[0].lattice
        for cube, region in zip(fam.cubes, fam.regions):
            if region.count < cube.size**lat.n / 2.0:
                failures.append(f"kept region of {cube} holds under half its cube")
        dominated = mw.dyadic_maximal(fs, grid, g_min=fam.root.g).values
        dominating = fam.a * mw.sparse_operator(fam, fs).values
        if not np.all(dominated <= dominating * (1.0 + 1e-9)):
            failures.append("dyadic_maximal exceeds a * sparse_operator on some cell")
