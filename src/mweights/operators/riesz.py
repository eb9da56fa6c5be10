"""Bilinear Riesz transform quadrature on one-dimensional lattices.

Values are double sums over cell midpoints weighted by exact cell masses.
The kernel blows up only where both integration variables meet the
evaluation point, so the quadrature omits the cell pairs whose midpoints
both fall within half a cell of the point — a symmetric principal-value
cutoff — and flags the result whenever such an omission removed actual
mass.

On the lattice the kernel depends on integer cell offsets and one
fractional offset per point.  Write a point as ``x = lo + (m + 1/2 + θ) h``
with ``m`` an integer and ``|θ| <= 1/2``; in cell units

* direct: ``x - y1 = (m - i + θ) h`` and ``x - y2 = (m - j + θ) h``, so the
  kernel is a table ``G[a, b]`` over ``a = m - i`` and ``b = m - j``;
* adjoint: ``y1 - x = (i - m - θ) h`` and ``y1 - y2 = (i - j) h``, a table
  over ``a = i - m`` and ``c = i - j``.

The omitted pairs are a function of the offsets and ``θ`` alone: ``|a + θ|``
and ``|b + θ|`` both at most 1/2 (direct), or ``|a - θ|`` and
``|a - θ - c|`` both at most 1/2 (adjoint), so they are zeroed in the
table.  Points sharing one ``θ`` are evaluated together in tiles of at
most ``_TILE`` points by ``_TILE`` consecutive cells of ``f1``: each tile
builds the table over just the offsets it touches, contracts it with the
``f2`` masses through one banded Toeplitz matrix in a single matrix
product, and gathers the ``f1`` offsets.  The tiles bound the working set
whatever the number of points and the support sizes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..grid import GridFunction

__all__ = ["RieszValues", "adjoint_kernel", "bilinear_riesz", "direct_kernel"]

# points and f1 cells per tile; the tile table has fewer than 2 * _TILE rows
_TILE = 64


def direct_kernel(x, y1, y2):
    """((x-y1)+(x-y2)) / ((x-y1)^2+(x-y2)^2)^(3/2), the bilinear kernel."""
    dx1 = x - y1
    dx2 = x - y2
    return (dx1 + dx2) / (dx1 * dx1 + dx2 * dx2) ** 1.5


def adjoint_kernel(x, y1, y2):
    """Direct kernel with the evaluation point moved into the first slot."""
    return direct_kernel(y1, x, y2)


@dataclass(frozen=True)
class RieszValues:
    """Quadrature output: one value and one principal-value flag per point."""

    points: np.ndarray
    values: np.ndarray
    pv_approximate: np.ndarray
    variant: str


def _near(offset):
    """Whether a midpoint at ``offset`` cells from the point is omitted."""
    return np.abs(offset) <= 0.5


def _kernel_table(u, v):
    """``(u_r + v_c) / (u_r^2 + v_c^2)^(3/2)`` for offsets in cell units."""
    den = np.add.outer(u * u, v * v)
    den *= np.sqrt(den)
    table = np.add.outer(u, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        table /= den
    return table


def _toeplitz(w, shifts):
    """Columns ``w`` reversed and moved down by each shift, over all rows used.

    Column ``k`` holds ``w[len(w) - 1 - (r - shifts[k])]`` in row ``r`` and
    zero outside; there are ``max(shifts) + len(w)`` rows.
    """
    pad = np.zeros(int(shifts[-1]))
    z = np.concatenate([pad, w[::-1], pad])
    windows = sliding_window_view(z, pad.size + w.size)
    return windows[pad.size - shifts].T


def _pv_flags(w1, w2, m, theta, variant):
    """Points whose omitted cell pairs carry mass in both inputs.

    Candidates are the cells next to the point; the offsets are formed
    exactly as in the tile tables, so the flags match the zeroed entries.
    """
    N = w1.size

    def has_mass(w, idx):
        inside = (idx >= 0) & (idx < N)
        return inside & (w[np.clip(idx, 0, N - 1)] > 0.0)

    if variant == "direct":
        rows = [_near(a + theta) & has_mass(w1, m - a) for a in (-1, 0, 1)]
        cols = [_near(b + theta) & has_mass(w2, m - b) for b in (-1, 0, 1)]
        return np.logical_or.reduce(rows) & np.logical_or.reduce(cols)
    flags = np.zeros(m.shape, dtype=bool)
    for a in (-1, 0, 1):
        u = a - theta
        row = _near(u) & has_mass(w1, m + a)
        for c in (-1, 0, 1):
            flags |= row & _near(u - c) & has_mass(w2, m + a - c)
    return flags


def _tile_values(w1, i, w2, j0, m, theta, variant):
    """Quadrature sums (unit cell scale) at points ``m`` over f1 cells ``i``.

    ``m`` and ``i`` are sorted and each spans fewer than ``_TILE`` cells;
    ``w2`` holds the f2 masses of cells ``j0, j0 + 1, ...``.
    """
    j1 = j0 + w2.size - 1
    if variant == "direct":
        a = np.arange(m[0] - i[-1], m[-1] - i[0] + 1)
        b = np.arange(m[0] - j1, m[-1] - j0 + 1)
        u, v = a + theta, b + theta
        table = _kernel_table(u, v)
        table[np.ix_(_near(u), _near(v))] = 0.0
        partial = table @ _toeplitz(w2, m - m[0])
        terms = partial[m[:, None] - i[None, :] - a[0], np.arange(m.size)[:, None]]
    else:
        a = np.arange(i[0] - m[-1], i[-1] - m[0] + 1)
        c = np.arange(i[0] - j1, i[-1] - j0 + 1)
        u, v = a - theta, c.astype(float)
        table = _kernel_table(u, v)
        for r in np.nonzero(_near(u))[0]:
            table[r, _near(u[r] - v)] = 0.0
        partial = table @ _toeplitz(w2, i - i[0])
        terms = partial[i[None, :] - m[:, None] - a[0], np.arange(i.size)[None, :]]
    return terms @ w1[i]


def bilinear_riesz(
    f1: GridFunction,
    f2: GridFunction,
    points: Union[np.ndarray, list],
    variant: str = "direct",
) -> RieszValues:
    """Evaluate the bilinear Riesz transform of ``(f1, f2)`` at ``points``.

    ``variant="direct"`` integrates the kernel against both inputs;
    ``variant="adjoint_slot1"`` integrates with the evaluation point moved
    into the kernel's first input slot, which realizes the first-slot
    adjoint of the direct form.
    """
    if variant not in ("direct", "adjoint_slot1"):
        raise ValueError(f"unknown variant {variant!r}")
    lat = f1.lattice
    if f2.lattice != lat:
        raise ValueError("both grid functions must share one lattice")
    if lat.n != 1:
        raise ValueError("quadrature is restricted to one-dimensional lattices")
    pts = np.asarray(points, dtype=float).ravel()
    h = lat.h
    w1 = f1.values * h
    w2 = f2.values * h
    idx1 = np.nonzero(w1)[0]
    idx2 = np.nonzero(w2)[0]
    values = np.zeros(pts.shape)
    flags = np.zeros(pts.shape, dtype=bool)
    if idx1.size == 0 or idx2.size == 0:
        return RieszValues(pts, values, flags, variant)
    finite = np.isfinite(pts)
    values[~finite] = np.nan
    t = (pts[finite] - lat.box.lo[0]) / h - 0.5
    m_all = np.rint(t)
    theta_all = t - m_all
    m_all = m_all.astype(np.int64)
    flags[finite] = _pv_flags(w1, w2, m_all, theta_all, variant)

    j0 = int(idx2[0])
    w2_span = w2[j0 : idx2[-1] + 1]
    # a tile is a run of at most _TILE points with one θ whose cells span
    # fewer than _TILE indices; f1 is cut into the runs of its support that
    # fall in one aligned block of _TILE cells
    blocks = np.split(idx1, np.nonzero(np.diff(idx1 // _TILE))[0] + 1)
    order = np.lexsort((m_all, theta_all))
    sums = np.zeros(order.size)
    start = 0
    while start < order.size:
        theta = theta_all[order[start]]
        stop = min(start + _TILE, order.size)
        stop = start + int(np.searchsorted(theta_all[order[start:stop]], theta, "right"))
        ms = m_all[order[start:stop]]
        stop = start + int(np.searchsorted(ms, ms[0] + _TILE))
        tile = order[start:stop]
        for i in blocks:
            sums[tile] += _tile_values(w1, i, w2_span, j0, m_all[tile], theta, variant)
        start = stop
    # the tables are in cell units, and the kernel is homogeneous of degree -2
    values[finite] = sums / (h * h)
    return RieszValues(pts, values, flags, variant)
