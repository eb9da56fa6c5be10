"""Dyadic-grid toolkit for multilinear Muckenhoupt weights and sharp-bound experiments.

The package is organized in four layers:

- :mod:`mweights.grid` / :mod:`mweights.powermass` — dyadic lattices,
  shifted cube families, grid functions with analytic power descriptors,
  and exact power-integral geometry.
- :mod:`mweights.weights` — exponent tuples, power/tabulated weights,
  weight vectors, per-cube and family-level multilinear weight constants,
  and the slot-duality transform.
- :mod:`mweights.operators` — multilinear and weighted dyadic maximal
  operators, stopping-time sparse families, sparse operators, and the
  bilinear Riesz-transform quadrature.
- :mod:`mweights.experiments` — extremal spike families, sweep harnesses,
  log-log exponent fits, and randomized upper-bound audits.

``mweights.cli`` exposes the same functionality as a command-line tool.
``mweights.selftest`` is the invariant battery: the ``selftest`` subcommand
runs its checks at small sizes, and acceptance criteria 3-6, 8 and 9 run the
same checks at full scale.
"""

from .grid import (
    Box,
    CellRegion,
    DyadicCube,
    DyadicGrid,
    GridFunction,
    Lattice,
    PowerDescriptor,
    ShiftedGridFamily,
    cell_average,
    default_box,
    third_offset,
)
from .powermass import Ball, Interval, Rect, power_mass, unit_sphere_area
from .weights import (
    ApReport,
    CubeFamily,
    ExponentTuple,
    Weight,
    WeightVector,
    ap_constant,
    ap_constant_rows,
    dualize,
    per_cube_ap,
)
from .operators import (
    RieszValues,
    SparseFamily,
    SparsenessError,
    bilinear_riesz,
    bilinear_riesz_rows,
    build_sparse_family,
    dyadic_maximal,
    multilinear_maximal,
    multilinear_maximal_rows,
    sparse_operator,
    sparse_operator_rows,
    weighted_dyadic_maximal,
)
from .experiments import (
    AuditError,
    AuditReport,
    ExtremalProblem,
    FitResult,
    Minorant,
    SweepRow,
    analytic_power_norm,
    evaluate_problem,
    fit_exponent,
    grid_lp_norm,
    hybrid_lower_norm,
    maximal_extremal,
    maximal_problem,
    riesz_extremal,
    riesz_problem,
    run_sweep,
    upper_bound_audit,
    write_fit_json,
    write_gnuplot,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ApReport",
    "AuditError",
    "AuditReport",
    "Ball",
    "Box",
    "CellRegion",
    "CubeFamily",
    "DyadicCube",
    "DyadicGrid",
    "ExponentTuple",
    "ExtremalProblem",
    "FitResult",
    "GridFunction",
    "Interval",
    "Lattice",
    "Minorant",
    "PowerDescriptor",
    "Rect",
    "RieszValues",
    "ShiftedGridFamily",
    "SparseFamily",
    "SparsenessError",
    "SweepRow",
    "Weight",
    "WeightVector",
    "analytic_power_norm",
    "ap_constant",
    "ap_constant_rows",
    "bilinear_riesz",
    "bilinear_riesz_rows",
    "build_sparse_family",
    "cell_average",
    "default_box",
    "dualize",
    "dyadic_maximal",
    "evaluate_problem",
    "fit_exponent",
    "grid_lp_norm",
    "hybrid_lower_norm",
    "maximal_extremal",
    "maximal_problem",
    "multilinear_maximal",
    "multilinear_maximal_rows",
    "per_cube_ap",
    "power_mass",
    "riesz_extremal",
    "riesz_problem",
    "run_sweep",
    "sparse_operator",
    "sparse_operator_rows",
    "third_offset",
    "unit_sphere_area",
    "upper_bound_audit",
    "weighted_dyadic_maximal",
    "write_fit_json",
    "write_gnuplot",
    "write_sweep_csv",
    "__version__",
]
