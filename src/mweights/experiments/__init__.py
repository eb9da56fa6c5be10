"""Sharpness experiments: extremal families, norms, sweeps, and audits."""
from .extremals import (
    ExtremalProblem,
    maximal_extremal,
    maximal_problem,
    riesz_extremal,
    riesz_problem,
)
from .norms import Minorant, analytic_power_norm, grid_lp_norm, hybrid_lower_norm
from .sweeps import (
    CSV_HEADER,
    AuditError,
    AuditReport,
    FitResult,
    SweepRow,
    evaluate_problem,
    fit_exponent,
    run_sweep,
    upper_bound_audit,
    write_fit_json,
    write_gnuplot,
    write_sweep_csv,
)

__all__ = [
    "AuditError",
    "AuditReport",
    "CSV_HEADER",
    "ExtremalProblem",
    "FitResult",
    "Minorant",
    "SweepRow",
    "analytic_power_norm",
    "evaluate_problem",
    "fit_exponent",
    "grid_lp_norm",
    "hybrid_lower_norm",
    "maximal_extremal",
    "maximal_problem",
    "riesz_extremal",
    "riesz_problem",
    "run_sweep",
    "upper_bound_audit",
    "write_fit_json",
    "write_gnuplot",
    "write_sweep_csv",
]
