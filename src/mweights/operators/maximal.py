"""Dyadic and multilinear maximal operators over shifted grids.

Every scan walks whole generations at once: the sums over all cubes of a
grid meeting the box, with the layout of each generation, come from the
grid's walk (:meth:`grid.DyadicGrid.generations`) over one child-sum
pyramid per grid for all the inputs of every row of a stack, and each
generation's averages are then scattered back onto the cells they cover.
Averages always divide by the full cube volume, so cubes sticking out of
the box are diluted by the mass they miss; this keeps the lower/upper
bracket of ``multilinear_maximal`` valid.  The weighted variant instead
divides by the weight mass actually inside the box, which is the natural
normalization for a weight living on the box alone.
"""
from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from .._log import debug
from ..grid import G_MIN, CubeLayout, DyadicGrid, GridFunction, ShiftedGridFamily, common_lattice
from ..weights import Weight

__all__ = [
    "dyadic_maximal",
    "multilinear_maximal",
    "multilinear_maximal_rows",
    "weighted_dyadic_maximal",
]


def _chain_max(
    grid: DyadicGrid,
    stacked: np.ndarray,
    g_min: int,
    per_cube: Callable[[np.ndarray, CubeLayout], np.ndarray],
) -> np.ndarray:
    """Cellwise max over one grid's cube chain, generations ``g_min..L``, of
    ``per_cube(sums, layout)``: the value of every cube of a generation from
    the sums of the ``stacked`` cell values over them, as
    :meth:`grid.DyadicGrid.generations` yields them.  ``per_cube`` folds the
    axis just before the cells away; axes ahead of it, one per row, are kept."""
    lat = grid.lattice
    out = np.zeros(stacked.shape[: -lat.n - 1] + lat.shape)
    for layout, sums in grid.generations(stacked, g_min):
        vals = per_cube(sums, layout)
        np.maximum(out, vals[(Ellipsis,) + np.ix_(*layout.cell_slots())], out=out)
    return out


def _product_max(grid: DyadicGrid, stacked: np.ndarray, g_min: int) -> np.ndarray:
    """:func:`_chain_max` of the product of full-volume averages of the
    inputs, which ``stacked`` holds on the axis just before the cells."""
    lat = grid.lattice

    def products(sums: np.ndarray, layout: CubeLayout) -> np.ndarray:
        return (sums * lat.cell_volume / lat.cube_volume(layout.size)).prod(axis=-lat.n - 1)

    return _chain_max(grid, stacked, g_min, products)


def dyadic_maximal(
    fs: Sequence[GridFunction], grid: DyadicGrid, g_min: int = G_MIN
) -> GridFunction:
    """Cellwise sup over one grid's cube chain of the product of averages.

    For each cell the scan takes every generation ``g_min..L`` cube of
    ``grid`` containing it and records the largest product of full-volume
    averages of the inputs.
    """
    lat = common_lattice([*fs, grid])
    return GridFunction(lat, _product_max(grid, np.stack([f.values for f in fs]), g_min))


def multilinear_maximal_rows(
    rows: Sequence[Sequence[GridFunction]], g_min: int = G_MIN
) -> List[Tuple[GridFunction, GridFunction]]:
    """:func:`multilinear_maximal` of every tuple of inputs ("row").

    The rows share the lattice and the number of inputs, and run as one
    stack: each shifted grid's child-sum pyramid carries every row's
    inputs, and is dropped before the next grid's is built.  Sums and
    products work elementwise, so every row's bracket has the bits of its
    own :func:`multilinear_maximal` call.
    """
    rows = [tuple(fs) for fs in rows]
    if not rows:
        return []
    lat = common_lattice([f for fs in rows for f in fs])
    m = len(rows[0])
    if any(len(fs) != m for fs in rows[1:]):
        raise ValueError("the rows of a stack must have the same number of inputs")
    stacked = np.stack([[f.values for f in fs] for fs in rows])
    lower = total = None
    for grid in ShiftedGridFamily(lat).grids:
        vals = _product_max(grid, stacked, g_min)
        if lower is None:
            lower, total = vals, vals.copy()
        else:
            np.maximum(lower, vals, out=lower)
            total += vals
    total *= 6.0 ** (m * lat.n)
    return [(GridFunction(lat, lo), GridFunction(lat, up)) for lo, up in zip(lower, total)]


def multilinear_maximal(
    fs: Sequence[GridFunction], g_min: int = G_MIN
) -> Tuple[GridFunction, GridFunction]:
    """Certified bracket for the maximal product of averages over all cubes.

    Returns ``(lower, upper)``: ``lower`` is the cellwise max of the dyadic
    scans over every shifted grid, a true lower bound for the sup over all
    axis-parallel cubes; ``upper`` multiplies the sum of those scans by
    ``6**(m*n)``, which covers any cube by a dyadic one of comparable size.
    This is the one-row case of :func:`multilinear_maximal_rows`.
    """
    return multilinear_maximal_rows([fs], g_min)[0]


def weighted_dyadic_maximal(
    f: GridFunction, w: Weight, grid: DyadicGrid, g_min: int = G_MIN
) -> GridFunction:
    """Cellwise sup of weighted averages ``∫_Q f w / w(Q)`` over one grid.

    Both integrals run over the part of the cube inside the box, so the
    normalization is the weight mass actually present; a cube whose inside
    weight mass underflows to zero contributes zero and is logged.
    """
    common_lattice([f, w, grid])

    def ratios(sums: np.ndarray, layout: CubeLayout) -> np.ndarray:
        num, den = sums
        empty = den <= 0.0
        if np.any(empty):
            debug(
                __name__,
                "generation %d: %d cubes carry zero weight mass; treated as zero",
                layout.g,
                int(np.count_nonzero(empty)),
            )
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(empty, 0.0, num / np.where(empty, 1.0, den))

    wm = w.cell_masses()
    return GridFunction(f.lattice, _chain_max(grid, np.stack([f.values * wm, wm]), g_min, ratios))
