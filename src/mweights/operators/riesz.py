"""Bilinear Riesz transform quadrature on one-dimensional lattices.

Values are double sums over cell midpoints weighted by exact cell masses.
The kernel blows up only where both integration variables meet the
evaluation point, so the quadrature omits the cell pairs whose midpoints
both fall within half a cell of the point — a symmetric principal-value
cutoff — and flags the result whenever such an omission removed actual
mass.

On the lattice the kernel depends on integer cell offsets and one
fractional offset per point.  Write a point as ``x = lo + (m + 1/2 + θ) h``
with ``m`` an integer and ``|θ| <= 1/2``, and the input cells' offsets from
it as ``a = m - i`` (``f1``) and ``b = m - j`` (``f2``), with ``u = a + θ``
and ``v = b + θ``.  Then ``x - y1 = u h``, ``x - y2 = v h`` and
``y1 - y2 = (b - a) h``, so in cell units both variants are one table over
``(a, b)``:

* direct: ``K(u, v)``;
* adjoint: ``K(-u, b - a)``.

In both, the omitted pairs are those with ``|u|`` and ``|v|`` at most 1/2,
zeroed in the table.  Points sharing one ``θ`` are evaluated together in
tiles of at most ``_TILE`` points spanning fewer than ``_TILE`` cells.  A
tile contracts the table with the ``f2`` masses through one Toeplitz
window, ``T2[b, k] = w2[m_k - b]``, and with the ``f1`` masses through
another, ``T1[a, k] = w1[m_k - a]``: in strips of ``_STRIP`` rows ``a``,
each strip's table is evaluated once, multiplied by ``T2`` and summed
against its own rows of ``T1``, and a strip whose ``T1`` rows are all zero
is skipped.  So every offset pair a tile touches is evaluated at most once,
and the strips bound the working set whatever the number of points and
the support sizes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..grid import GridFunction

__all__ = ["RieszValues", "adjoint_kernel", "bilinear_riesz", "direct_kernel"]

# points per tile, and table rows per strip: a strip's table stays under
# about 128 KiB at the sweeps' supports
_TILE = 128
_STRIP = 32


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


def _kernel_table(a, b, theta, variant):
    """The kernel over offsets ``a`` (rows) and ``b`` (columns) in cell
    units, with the omitted pairs zeroed."""
    u = a + theta
    v = b + theta
    if variant == "direct":
        s, t = u[:, None], v[None, :]
    else:
        s, t = -u[:, None], b[None, :] - a[:, None].astype(float)
    den = s * s + t * t
    den *= np.sqrt(den)
    with np.errstate(divide="ignore", invalid="ignore"):
        table = (s + t) / den
    table[np.ix_(_near(u), _near(v))] = 0.0
    return table


def _toeplitz(w, shifts, rows=slice(None)):
    """Rows ``rows`` of the matrix whose columns are ``w`` reversed and moved
    down by each shift.

    Column ``k`` holds ``w[len(w) - 1 - (r - shifts[k])]`` in row ``r`` and
    zero outside; there are ``max(shifts) + len(w)`` rows.
    """
    pad = np.zeros(int(shifts[-1]))
    z = np.concatenate([pad, w[::-1], pad])
    windows = sliding_window_view(z, pad.size + w.size)
    return windows[pad.size - shifts, rows].T


def _pv_flags(w1, w2, m, theta):
    """Points whose omitted cell pairs carry mass in both inputs.

    Candidates are the cells next to the point; the offsets are formed
    exactly as in the tables, so the flags match the zeroed entries.
    """
    N = w1.size

    def near_mass(w):
        hits = []
        for a in (-1, 0, 1):
            idx = m - a
            inside = (idx >= 0) & (idx < N)
            hits.append(_near(a + theta) & inside & (w[np.clip(idx, 0, N - 1)] > 0.0))
        return np.logical_or.reduce(hits)

    return near_mass(w1) & near_mass(w2)


def _tile_values(w1, i1, w2, j1, m, theta, variant):
    """Quadrature sums (unit cell scale) at the sorted points ``m`` of one θ.

    ``w1`` and ``w2`` hold the masses of consecutive cells ending at cells
    ``i1`` and ``j1``, so row ``r`` of ``T1`` is offset ``a = m[0] - i1 + r``
    and row ``r`` of ``T2`` is offset ``b = m[0] - j1 + r``.
    """
    shifts = m - m[0]
    t2 = _toeplitz(w2, shifts)
    b = np.arange(t2.shape[0]) + (m[0] - j1)
    sums = np.zeros(m.size)
    for r in range(0, shifts[-1] + w1.size, _STRIP):
        t1 = _toeplitz(w1, shifts, slice(r, r + _STRIP))
        if t1.any():
            a = np.arange(r, r + t1.shape[0]) + (m[0] - i1)
            sums += ((_kernel_table(a, b, theta, variant) @ t2) * t1).sum(axis=0)
    return sums


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
    finite = np.isfinite(pts)
    values = np.where(finite, 0.0, np.nan)
    flags = np.zeros(pts.shape, dtype=bool)
    if idx1.size == 0 or idx2.size == 0:
        return RieszValues(pts, values, flags, variant)
    t = (pts[finite] - lat.box.lo[0]) / h - 0.5
    m_all = np.rint(t)
    theta_all = t - m_all
    m_all = m_all.astype(np.int64)
    flags[finite] = _pv_flags(w1, w2, m_all, theta_all)

    i1, j1 = int(idx1[-1]), int(idx2[-1])
    w1_span = w1[idx1[0] : i1 + 1]
    w2_span = w2[idx2[0] : j1 + 1]
    # a tile is a run of at most _TILE points with one θ whose cells span
    # fewer than _TILE indices
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
        sums[tile] = _tile_values(w1_span, i1, w2_span, j1, m_all[tile], theta, variant)
        start = stop
    # the tables are in cell units, and the kernel is homogeneous of degree -2
    values[finite] = sums / (h * h)
    return RieszValues(pts, values, flags, variant)
