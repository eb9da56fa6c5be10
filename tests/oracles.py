"""Geometry and scan oracles shared by the test modules."""
import numpy as np


def cell_bounds(lat, idx):
    """The corners (lo, hi) of the lattice cell with index ``idx``, from the
    box corner and the cell width alone."""
    lo = np.asarray(lat.box.lo) + lat.h * np.asarray(idx, dtype=float)
    return lo, lo + lat.h


def cell_slots(layout):
    """Per axis, the index of the cube of a grid layout holding each cell."""
    cells = np.arange(layout.lattice.cells_per_axis)
    return tuple((cells - s[0]) // layout.size for s in layout.starts)


def scattered_chain_max(grid, stacked, g_min, per_cube):
    """The cellwise max over one grid's cube chain, each generation's cube
    values scattered onto every cell they cover: the oracle of
    ``maximal._chain_max``, with its signature."""
    lat = grid.lattice
    out = np.zeros(stacked.shape[: -lat.n - 1] + lat.shape)
    for layout, sums in grid.generations(stacked, g_min):
        vals = per_cube(sums, layout)
        np.maximum(out, vals[(Ellipsis,) + np.ix_(*cell_slots(layout))], out=out)
    return out


def polyfit_line(rows):
    """``(slope, intercept, residual)`` of the least-squares line through
    the rows' ``(log ap_const, log ratio)``, by ``np.polyfit``; the residual
    is the root mean square of the misfits."""
    x = np.log([r.ap_const for r in rows])
    y = np.log([r.ratio for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    return slope, intercept, float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
