"""Geometry oracles shared by the test modules."""
import numpy as np


def cell_bounds(lat, idx):
    """The corners (lo, hi) of the lattice cell with index ``idx``, from the
    box corner and the cell width alone."""
    lo = np.asarray(lat.box.lo) + lat.h * np.asarray(idx, dtype=float)
    return lo, lo + lat.h
