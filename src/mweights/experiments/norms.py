"""Weighted norms for sweeps: exact power integrals and hybrid lower norms.

Input norms of the singular extremal families are integrated in closed form
from their power descriptors, so the blow-up near the origin enters exactly.
Operator outputs are discrete, and their norm uses a per-cell maximum of the
lattice value and an analytic pointwise minorant of the true operator: both
competitors are true lower bounds, and the analytic term keeps the singular
cells from flattening the measured growth.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..grid import CellRegion, GridFunction, common_lattice
from ..powermass import power_mass
from ..weights import Weight

__all__ = ["Minorant", "analytic_power_norm", "grid_lp_norm", "hybrid_lower_norm"]


@dataclass(frozen=True)
class Minorant:
    """Pointwise lower bound ``coeff * |x|**exponent`` valid on masked cells."""

    coeff: float
    exponent: float
    mask: np.ndarray


def analytic_power_norm(f: GridFunction, p: float, w: Weight) -> float:
    """``||f||_{L^p(w)}`` in closed form from a power descriptor.

    Requires ``f`` to carry a descriptor and ``w`` to be a pure power weight
    (constant value array), so the integral is a single power mass.
    """
    d = f.descriptor
    if d is None:
        raise ValueError("grid function carries no analytic descriptor")
    common_lattice([f, w])
    scale = float(w.values.flat[0])
    if np.any(w.values != scale):
        raise ValueError("analytic norms need a pure power weight")
    if p <= 0:
        raise ValueError("norm exponent must be positive")
    total = scale * abs(d.coeff) ** p * power_mass(d.exponent * p + w.exponent, d.support)
    return float(total) ** (1.0 / p)


def grid_lp_norm(values: np.ndarray, p: float, w: Weight) -> float:
    """Discrete ``L^p(w)`` norm of cell values."""
    return _lp_norm(values, p, w.cell_masses())


def _lp_norm(values: np.ndarray, p: float, masses: np.ndarray) -> float:
    """:func:`grid_lp_norm` against a weight's cell ``masses``."""
    if p <= 0:
        raise ValueError("norm exponent must be positive")
    return float(np.sum(np.abs(values) ** p * masses)) ** (1.0 / p)


def hybrid_lower_norm(
    values: np.ndarray,
    p: float,
    w: Weight,
    minorant: Optional[Minorant] = None,
    region: Optional[CellRegion] = None,
) -> float:
    """Cellwise max of the lattice term and the minorant's exact integral.

    The lattice term is ``|value|^p`` times the weight's cell mass; on cells
    where the minorant applies it competes with the exact integral of
    ``(coeff |x|^exponent)^p`` against the weight.  Both are lower bounds
    for the true operator's norm contribution, so their max still is.
    """
    if p <= 0:
        raise ValueError("norm exponent must be positive")
    lat_term = np.abs(values) ** p * w.cell_masses()
    if region is not None:
        lat_term = np.where(region.mask, lat_term, 0.0)
    if minorant is not None:
        combined = Weight(w.lattice, exponent=minorant.exponent * p + w.exponent)
        minor_term = abs(minorant.coeff) ** p * w.values * combined.cell_masses()
        minor_term = np.where(minorant.mask, minor_term, 0.0)
        lat_term = np.maximum(lat_term, minor_term)
    return float(np.sum(lat_term)) ** (1.0 / p)
