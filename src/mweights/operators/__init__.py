"""Maximal operators, sparse families, and singular-integral quadrature.

The operators act on cell-averaged grid functions.  Dyadic scans walk the
generations of one shifted grid; the multilinear bracket combines all
shifted grids of a lattice into a certified lower/upper envelope pair.
"""

from .maximal import (
    dyadic_maximal, multilinear_maximal, multilinear_maximal_rows, weighted_dyadic_maximal
)
from .riesz import (
    RieszValues, adjoint_kernel, bilinear_riesz, bilinear_riesz_rows, direct_kernel
)
from .sparse import (
    SparseFamily, SparsenessError, build_sparse_family, sparse_operator, sparse_operator_rows
)

__all__ = [
    "RieszValues",
    "SparseFamily",
    "SparsenessError",
    "adjoint_kernel",
    "bilinear_riesz",
    "bilinear_riesz_rows",
    "build_sparse_family",
    "direct_kernel",
    "dyadic_maximal",
    "multilinear_maximal",
    "multilinear_maximal_rows",
    "sparse_operator",
    "sparse_operator_rows",
    "weighted_dyadic_maximal",
]
