"""Sweep execution, power-law fitting, result files, and upper-bound audits.

A sweep evaluates one extremal family at a decreasing sequence of spike
strengths, records the weight constant and the operator-to-input norm ratio
for each, and fits ``log(ratio)`` against ``log(weight constant)``.  The
fitted slope is the measured growth exponent; the sharpness experiments
compare it with the predicted one.  Audits run the complementary direction:
random inputs and weights, checking that ratios never outrun the predicted
power of the weight constant.

Both run as stacks.  A sweep's rows are of one kind and run through each
layer (the operator, the weight-constant scan) in one call; an audit's
trials run that way one block of draws at a time, so its memory does not
grow with the number of trials.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .._log import debug
from ..grid import GridFunction, Lattice, default_box, ShiftedGridFamily
from ..operators import (
    RieszValues,
    SparseFamily,
    SparsenessError,
    bilinear_riesz_rows,
    build_sparse_family,
    multilinear_maximal_rows,
    sparse_operator_rows,
)
from ..operators.sparse import _stopping_walks
from ..weights import (
    ApReport,
    CubeFamily,
    ExponentTuple,
    Weight,
    WeightVector,
    _densities,
    _scan_rows,
    ap_constant_rows,
    random_weight,
)
from .extremals import ExtremalProblem, _as_exponents
from .norms import _lp_norm, grid_lp_norm, hybrid_lower_norm

__all__ = [
    "AuditError",
    "AuditReport",
    "FitResult",
    "SweepRow",
    "evaluate_problem",
    "fit_exponent",
    "run_sweep",
    "upper_bound_audit",
    "write_fit_json",
    "write_gnuplot",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: weight constant, norms, and their quotient."""

    eps: float
    ap_const: float
    lhs_norm: float
    rhs_norms: Tuple[float, ...]
    rhs_norm_product: float
    ratio: float
    L: int
    ms: float
    finite: bool
    # Riesz rows only, never written to the CSV: the smallest ratio of the
    # quadrature to the cone minorant over the evaluation points, and the
    # number of points whose value is principal-value approximate
    quad_min_ratio: Optional[float] = None
    pv_points: Optional[int] = None


@dataclass(frozen=True)
class FitResult:
    """Least-squares line through ``(log ap_const, log ratio)``."""

    slope: float
    intercept: float
    residual: float
    eps_min: float
    eps_max: float

    def to_json(self) -> dict:
        return asdict(self)


def _assemble_row(
    prob: ExtremalProblem,
    out_values: np.ndarray,
    rv: Optional[RieszValues],
    report: ApReport,
    started: float,
) -> SweepRow:
    """Run the norms of one sweep point and assemble its row.

    ``out_values`` is the operator's lower envelope on the lattice, ``rv``
    the quadrature of a Riesz problem (``None`` for any other kind),
    ``report`` the weight constant, and ``started`` the
    ``time.perf_counter()`` reading that the row's ``ms`` counts from.
    """
    lat = prob.fs[0].lattice
    quad_ok = True
    quad_min_ratio = pv_points = None
    if rv is not None:
        cone = prob.minorant.coeff * np.abs(rv.points) ** prob.minorant.exponent
        quad_ok = bool(np.all(np.isfinite(rv.values)) and np.all(rv.values >= cone))
        quad_min_ratio = float(np.min(rv.values / cone))
        pv_points = int(np.count_nonzero(rv.pv_approximate))
    lhs = hybrid_lower_norm(out_values, prob.lhs_exponent, prob.lhs_weight, minorant=prob.minorant)
    ap = float(report.constant)
    rhs_product = float(np.prod(prob.rhs_norms))
    ratio = lhs / rhs_product if rhs_product > 0 else float("nan")
    finite = bool(
        quad_ok and np.isfinite(ratio) and ratio > 0.0 and np.isfinite(ap) and ap > 0.0
    )
    ms = (time.perf_counter() - started) * 1e3
    return SweepRow(
        eps=float(prob.eps),
        ap_const=ap,
        lhs_norm=float(lhs),
        rhs_norms=tuple(float(r) for r in prob.rhs_norms),
        rhs_norm_product=rhs_product,
        ratio=float(ratio),
        L=lat.L,
        ms=ms,
        finite=finite,
        quad_min_ratio=quad_min_ratio,
        pv_points=pv_points,
    )


def _evaluate_rows(problems: Sequence[ExtremalProblem]) -> List[SweepRow]:
    """Rows of problems of one kind on one lattice with one exponent tuple,
    each layer run once for all of them as a stack.

    Maximal problems make one :func:`multilinear_maximal_rows` call; Riesz
    problems make one :func:`bilinear_riesz_rows` call at the midpoints of
    their minorant's cells, which must be the same cells for every problem;
    and every problem's weights share one :func:`ap_constant_rows` call.
    Each row's ``ms`` includes its share of the stacked calls.  A stack of
    more than one kind, or of Riesz problems with different minorant cells,
    raises ``ValueError``.
    """
    started = time.perf_counter()
    first = problems[0]
    lat = first.fs[0].lattice
    kinds = {prob.kind for prob in problems}
    if len(kinds) > 1:
        raise ValueError(f"a stack holds problems of one kind, not {sorted(kinds)}")
    stack = [prob.fs for prob in problems]
    rvs: Sequence[Optional[RieszValues]] = [None] * len(problems)
    if first.kind == "maximal":
        out_values = [lower.values for lower, _ in multilinear_maximal_rows(stack)]
    elif first.kind.startswith("riesz:"):
        # A midpoint quadrature value cannot see mass below the cell scale,
        # and the share of the output norm sitting below that scale grows
        # as the spike sharpens, so mixing quadrature cells into the norm
        # lets the measurement's bias drift with the spike strength and
        # flattens the fitted growth.  The cone minorant integrates the
        # singularity exactly with a uniform constant; measuring the output
        # norm by it alone keeps the bias constant, so the fit reflects the
        # operator rather than the mesh.  The quadrature checks the minorant
        # instead: the row counts only if the quadrature is finite and at
        # least the minorant at every evaluation point, so a wrong kernel or
        # wrong cone constant makes criterion 7 refuse the sweep.
        mask = first.region.mask
        if any(not np.array_equal(prob.region.mask, mask) for prob in problems):
            raise ValueError("the Riesz problems of a stack must share their minorant cells")
        points = lat.box.lo[0] + (np.nonzero(mask)[0] + 0.5) * lat.h
        rvs = bilinear_riesz_rows(stack, points, first.kind.split(":", 1)[1])
        out_values = [np.zeros(lat.shape)] * len(problems)
    else:
        raise ValueError(f"unknown problem kind {first.kind!r}")
    reports = ap_constant_rows(
        [prob.weight_vector for prob in problems], CubeFamily(lat, kind="shifted")
    )
    share = (time.perf_counter() - started) / len(problems)
    return [
        _assemble_row(prob, out, rv, report, time.perf_counter() - share)
        for prob, out, rv, report in zip(problems, out_values, rvs, reports)
    ]


def evaluate_problem(prob: ExtremalProblem) -> SweepRow:
    """Run the operator for one sweep point and assemble the row: the
    one-row case of the stack that :func:`run_sweep` evaluates."""
    return _evaluate_rows([prob])[0]


def run_sweep(
    builder: Callable[..., ExtremalProblem],
    exponents: Union[ExponentTuple, Sequence[float]],
    eps_list: Sequence[float],
    L: int,
    n: int = 1,
    **builder_kwargs,
) -> List[SweepRow]:
    """Evaluate one extremal family over a strength sequence.

    Rows come back ordered by decreasing ``eps`` (mildest spike first);
    repeated runs give identical rows.  The sweep's problems are built
    first, and then its rows run as one stack through the operator and the
    weight-constant scan (:func:`_evaluate_rows`), with the bits that one
    :func:`evaluate_problem` call per row gives.
    """
    eps_sorted = sorted({float(e) for e in eps_list}, reverse=True)
    if not eps_sorted:
        raise ValueError("eps_list must be nonempty")
    lattice = Lattice(default_box(n), L)
    return _evaluate_rows(
        [builder(exponents, eps, lattice, **builder_kwargs) for eps in eps_sorted]
    )


def fit_exponent(rows: Sequence[SweepRow]) -> FitResult:
    """Fit ``log(ratio) = slope * log(ap_const) + intercept``.

    The least-squares line is taken in closed form on centered sums:
    ``slope = Σ dx (y - ȳ) / Σ dx²`` with ``dx = x - x̄``, and ``intercept =
    ȳ - slope x̄``.  It agrees with ``np.polyfit(x, y, 1)`` to rounding, but
    a two-parameter line needs no LAPACK solve: ``polyfit`` goes through
    ``np.linalg.lstsq``, which pages in the LAPACK code of numpy's bundled
    OpenBLAS for these few sums alone.
    """
    usable = [
        r
        for r in rows
        if r.finite
        and np.isfinite(r.ratio)
        and r.ratio > 0.0
        and np.isfinite(r.ap_const)
        and r.ap_const > 0.0
    ]
    if len(usable) < 4:
        raise ValueError(
            f"exponent fit needs at least 4 finite rows, got {len(usable)}"
        )
    x = np.array([math.log(r.ap_const) for r in usable])
    y = np.array([math.log(r.ratio) for r in usable])
    if float(np.ptp(x)) < 1e-9:
        raise ValueError("degenerate abscissa: weight constants do not vary")
    x_mean, y_mean = x.mean(), y.mean()
    dx = x - x_mean
    slope = (dx @ (y - y_mean)) / (dx @ dx)
    intercept = y_mean - slope * x_mean
    resid = y - (slope * x + intercept)
    residual = float(np.sqrt(np.mean(resid**2)))
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        residual=residual,
        eps_min=min(r.eps for r in usable),
        eps_max=max(r.eps for r in usable),
    )


CSV_HEADER = "eps,ap_const,lhs_norm,rhs_norm_product,ratio,L,ms"


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """Write rows as CSV with full-precision floats.

    The elapsed-time column is written as 0 so that files from repeated
    runs compare byte-for-byte; timings stay available on the row objects.
    """
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{float(r.eps)!r},{float(r.ap_const)!r},{float(r.lhs_norm)!r},"
            f"{float(r.rhs_norm_product)!r},{float(r.ratio)!r},{int(r.L)},0"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_fit_json(fit: FitResult, path) -> None:
    """Write the fit as JSON."""
    import json

    Path(path).write_text(json.dumps(fit.to_json(), indent=2) + "\n")


def write_gnuplot(csv_path, gp_path, fit: Optional[FitResult] = None) -> None:
    """Emit a gnuplot script plotting ratio against the weight constant."""
    csv_name = Path(csv_path).name
    lines = [
        "set datafile separator ','",
        "set logscale xy",
        "set xlabel 'weight constant'",
        "set ylabel 'norm ratio'",
        "set key left top",
    ]
    plot = f"plot '{csv_name}' every ::1 using 2:5 with points pt 7 title 'measured'"
    if fit is not None:
        plot += (
            f", exp({fit.intercept!r}) * x**({fit.slope!r}) "
            f"with lines title 'fit, slope {fit.slope:.3f}'"
        )
    lines.append(plot)
    Path(gp_path).write_text("\n".join(lines) + "\n")


class AuditError(RuntimeError):
    """An audit produced no evidence: every trial was skipped, or every
    sparse family was the root alone."""


# why an audit trial was skipped, in the order the audit checks
SKIP_REASONS = ("input_norms", "sparseness", "degenerate_lhs_ap")

# lattice cells of the draws in one audit block: 32 trials at n = 1,
# L = 10, and two at n = 2, L = 7, so the stacks do not grow with trials
_AUDIT_STACK_CELLS = 1 << 15


@dataclass(frozen=True)
class AuditReport:
    """Random-input check that ratios respect the predicted power.

    ``largest_family`` is the most cubes in one sparse family (0 for the
    maximal operator); ``family_generations`` maps each generation to the
    number of sparse family cubes selected in it, summed over the trials
    (empty for the maximal operator).  ``skipped_by_reason`` splits
    ``skipped`` by :data:`SKIP_REASONS`: a zero or non-finite product of
    input norms, a family that missed the half-volume guarantee, and a
    zero or non-finite output norm or weight constant.
    ``degenerate_cubes`` sums :attr:`ApReport.degenerate` over the trials
    that gave a quotient.
    """

    operator: str
    target_exponent: float
    trials: int
    skipped: int
    skipped_by_reason: Dict[str, int]
    quotients: Tuple[float, ...]
    max_quotient: float
    weight_kind: str
    L: int
    seed: int
    largest_family: int
    family_generations: Dict[int, int]
    degenerate_cubes: int

    def to_json(self) -> dict:
        blob = asdict(self)
        blob["quotients"] = list(self.quotients)
        blob["family_generations"] = {str(g): k for g, k in self.family_generations.items()}
        return blob


def upper_bound_audit(
    exponents: Union[ExponentTuple, Sequence[float]],
    L: int,
    trials: int,
    seed: int,
    operator: str = "sparse",
    n: int = 1,
    weight_kind: str = "mixed",
) -> AuditReport:
    """Check random inputs against the predicted weight-constant power.

    For each trial, draws random nonnegative inputs supported on the right
    half of the box together with random weights, evaluates the operator,
    and records ``(lhs / prod rhs) / ap_const**target``.  Bounded quotients
    across trials are evidence the predicted exponent is not undershooting.
    The inputs are log-normal, heavy-tailed enough for the stopping walk to
    select cubes below the root; a sparse audit in which every family is the
    root alone never runs that walk and raises :class:`AuditError`, as does
    an audit whose every trial was skipped.  Every draw comes from one
    ``Draws(seed)`` (``mweights._draws``), Python's MT19937 filling numpy
    arrays, so one seed gives one report and the audit never imports
    :mod:`numpy.random`; a negative seed raises :class:`ValueError`.

    The draws run in blocks of as many trials as fit in
    ``_AUDIT_STACK_CELLS`` lattice cells (at least one), so memory does not
    grow with ``trials``; a 20-trial audit at n = 1, L = 10 is one block.
    Each trial of a block is drawn and its input norms checked on its own,
    and no weight vector outlives the trial.  After the block's draws, the
    trials that passed run their sparse stopping walks as one stack, and
    each becomes its family through its own :func:`build_sparse_family`
    call, in trial order; a trial whose family misses sparseness is
    skipped.  The block's kept trials then run as one stack: one
    :func:`sparse_operator_rows` call (or one
    :func:`multilinear_maximal_rows` call), their output norms and one
    weight-constant scan, and become quotients.  Every step works
    elementwise along the trial axis, so every quotient has the bits of a
    trial run alone.
    """
    if operator not in ("sparse", "maximal"):
        raise ValueError(f"unknown operator {operator!r}: use 'sparse' or 'maximal'")
    if weight_kind not in ("mixed", "constant"):
        raise ValueError(f"unknown weight_kind {weight_kind!r}")
    if trials < 1:
        raise ValueError(f"trials={trials} must be at least 1")
    et = _as_exponents(exponents)
    conj_over_p = max(c / et.p for c in et.conjugates)
    target = max(1.0, conj_over_p) if operator == "sparse" else conj_over_p
    lattice = Lattice(default_box(n), L)
    grid = ShiftedGridFamily(lattice).standard
    root = grid.cube(1, (0,) * n)
    support = np.zeros(lattice.shape, dtype=bool)
    support[lattice.cube_cells(root)] = True

    family = CubeFamily(lattice, kind="shifted")
    from .._draws import Draws  # here, so that only an audit loads it

    rng = Draws(seed)
    size = min(trials, max(1, _AUDIT_STACK_CELLS // math.prod(lattice.shape)))
    densities = np.empty((1 + et.m, size) + lattice.shape)
    skipped_by_reason = dict.fromkeys(SKIP_REASONS, 0)
    quotients: List[float] = []
    largest = degenerate = 0
    generations: Counter = Counter()
    for block in range(0, trials, size):
        inputs: List[Tuple[GridFunction, ...]] = []
        joint_masses: List[np.ndarray] = []
        families: List[SparseFamily] = []
        rhs_products: List[float] = []
        for _ in range(min(size, trials - block)):
            fs = tuple(
                GridFunction(lattice, rng.lognormal(0.0, 2.0, lattice.shape) * support)
                for _ in range(et.m)
            )
            if weight_kind == "constant":
                ws = tuple(Weight.constant(lattice) for _ in range(et.m))
            else:
                ws = tuple(random_weight(rng, lattice, p_i) for p_i in et.exponents)
            wv = WeightVector(ws, et)
            rhs = [
                grid_lp_norm(f.values, p_i, w_i)
                for f, p_i, w_i in zip(fs, et.exponents, ws)
            ]
            rhs_product = float(np.prod(rhs))
            if rhs_product <= 0.0 or not np.isfinite(rhs_product):
                skipped_by_reason["input_norms"] += 1
                debug(__name__, "audit trial skipped: degenerate input norms %s", rhs)
                continue
            rhs_products.append(rhs_product)
            densities[:, len(inputs)] = _densities([wv], lambda f: f.values)
            inputs.append(fs)
            joint_masses.append(wv.joint.cell_masses())
        if operator == "sparse" and inputs:
            keep = []
            # the walks go with the loop, so that only the families hold
            # their owner arrays, and the scan below holds none
            for k, (fs, walk) in enumerate(zip(inputs, _stopping_walks(inputs, grid, root=root))):
                try:
                    fam = build_sparse_family(fs, grid, root=root, _walk=walk)
                except SparsenessError as err:
                    skipped_by_reason["sparseness"] += 1
                    debug(__name__, "audit trial skipped: %s", err)
                    continue
                largest = max(largest, len(fam))
                generations.update(cube.g for cube in fam.cubes)
                families.append(fam)
                keep.append(k)
            if len(keep) < len(inputs):
                densities[:, : len(keep)] = densities[:, keep]
                inputs, joint_masses, rhs_products = (
                    [rows[k] for k in keep] for rows in (inputs, joint_masses, rhs_products)
                )
        kept = len(inputs)
        if not kept:
            continue
        if operator == "sparse":
            outs = sparse_operator_rows(families, inputs)
        else:
            outs = [lower for lower, _ in multilinear_maximal_rows(inputs)]
        lhs_norms = [_lp_norm(out.values, et.p, masses) for out, masses in zip(outs, joint_masses)]
        del outs, inputs, joint_masses, families  # before the scan's pyramids
        reports = _scan_rows(et, densities[:, :kept].reshape((-1,) + lattice.shape), family)
        for lhs, rhs_product, report in zip(lhs_norms, rhs_products, reports):
            ap = float(report.constant)
            if lhs <= 0.0 or not np.isfinite(lhs) or not np.isfinite(ap) or ap <= 0.0:
                skipped_by_reason["degenerate_lhs_ap"] += 1
                debug(__name__, "audit trial skipped: degenerate lhs=%s ap=%s", lhs, ap)
                continue
            quotients.append((lhs / rhs_product) / ap**target)
            degenerate += report.degenerate
    if not quotients:
        reasons = ", ".join(f"{k} {reason}" for reason, k in skipped_by_reason.items() if k)
        raise AuditError(f"every audit trial was skipped ({reasons}); nothing to report")
    if operator == "sparse" and largest == 1:
        raise AuditError("every sparse family is the root alone; the stopping walk never ran")
    return AuditReport(
        operator=operator,
        target_exponent=target,
        trials=trials,
        skipped=sum(skipped_by_reason.values()),
        skipped_by_reason=skipped_by_reason,
        quotients=tuple(quotients),
        max_quotient=max(quotients),
        weight_kind=weight_kind,
        L=L,
        seed=seed,
        largest_family=largest,
        family_generations=dict(sorted(generations.items())),
        degenerate_cubes=degenerate,
    )
