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
zeroed in the table.  The table does not depend on the masses, so
:func:`bilinear_riesz_rows` evaluates several input pairs ("rows") at one
set of points through one table: the rows' masses are stacked over the
union of their supports, and :func:`bilinear_riesz` is the one-row case.

Points sharing one ``θ`` are evaluated together in tiles.  ``_TILE`` is a
column budget: a tile of ``R`` rows holds at most ``max(1, _TILE // R)``
points, spanning fewer cells than that, so its stacked windows have at
most ``_TILE`` columns, one per (row, point).  A tile contracts the table
with the ``f2`` masses through one Toeplitz window per row,
``T2[b, k] = w2[m_k - b]``, copied once into one matrix, and with the
``f1`` masses through another, ``T1[a, k] = w1[m_k - a]``, read from one
sliding window per tile: in strips of ``_STRIP`` rows ``a``, each strip's
table is evaluated once, multiplied by ``T2`` for every row at once and
summed against the strip's rows of ``T1``, and a strip where no row has
``f1`` mass is skipped.  So every offset pair a tile touches is evaluated
at most once for all rows, and the strips bound the working set whatever
the number of points and the support sizes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..grid import GridFunction, common_lattice

__all__ = [
    "RieszValues",
    "adjoint_kernel",
    "bilinear_riesz",
    "bilinear_riesz_rows",
    "direct_kernel",
]

# columns (rows x points) per tile, and table rows per strip: a strip's
# table stays under about 128 KiB at the sweeps' supports
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


def _windows(w, shifts):
    """Sliding windows over each row of ``w`` reversed and padded, and the
    index that picks every row's window of each shift.

    The window of shift ``shifts[k]`` in row ``q`` holds
    ``w[q, len - 1 - (r - shifts[k])]`` at position ``r`` and zero outside,
    ``len`` being the row length of ``w``; a window is ``max(shifts) + len``
    long.  The index gives C-ordered (rows, shifts, window) copies.
    """
    pad = np.zeros((w.shape[0], int(shifts[-1])))
    z = np.concatenate([pad, w[:, ::-1], pad], axis=1)
    windows = sliding_window_view(z, pad.shape[1] + w.shape[1], axis=1)
    return windows, (np.arange(w.shape[0])[:, None], pad.shape[1] - shifts)


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
    """Quadrature sums (unit cell scale) of every row at the sorted points
    ``m`` of one θ, as a (rows, points) array.

    Rows of ``w1`` and ``w2`` hold the masses of consecutive cells ending
    at cells ``i1`` and ``j1``, so row ``r`` of ``T1`` is offset
    ``a = m[0] - i1 + r`` and row ``r`` of ``T2`` is offset
    ``b = m[0] - j1 + r``.  Column ``q * len(m) + k`` of both belongs to
    input row ``q`` and point ``k``.
    """
    shifts = m - m[0]
    cols = w1.shape[0] * m.size
    win1, pick = _windows(w1, shifts)
    win2, _ = _windows(w2, shifts)
    t2 = win2[pick].reshape(cols, -1).T
    b = np.arange(t2.shape[0]) + (m[0] - j1)
    sums = np.zeros(cols)
    for r in range(0, win1.shape[-1], _STRIP):
        t1 = win1[(*pick, slice(r, r + _STRIP))].reshape(cols, -1).T
        if t1.any():
            a = np.arange(r, r + t1.shape[0]) + (m[0] - i1)
            sums += ((_kernel_table(a, b, theta, variant) @ t2) * t1).sum(axis=0)
    return sums.reshape(w1.shape[0], m.size)


def _stacked_sums(w1, i1, w2, j1, m_all, theta_all, variant):
    """Quadrature sums (unit cell scale) of every row of the stacked masses
    at the points ``(m_all, theta_all)``, as a (rows, points) array."""
    # a tile is a run of at most `per_tile` points with one θ whose cells span
    # fewer than `per_tile` indices; with one row, at most _TILE of each
    per_tile = max(1, _TILE // w1.shape[0])
    order = np.lexsort((m_all, theta_all))
    sums = np.zeros((w1.shape[0], order.size))
    start = 0
    while start < order.size:
        theta = theta_all[order[start]]
        stop = min(start + per_tile, order.size)
        stop = start + int(np.searchsorted(theta_all[order[start:stop]], theta, "right"))
        ms = m_all[order[start:stop]]
        stop = start + int(np.searchsorted(ms, ms[0] + per_tile))
        tile = order[start:stop]
        sums[:, tile] = _tile_values(w1, i1, w2, j1, m_all[tile], theta, variant)
        start = stop
    return sums


def bilinear_riesz_rows(
    pairs: Sequence[Tuple[GridFunction, GridFunction]],
    points: Union[np.ndarray, list],
    variant: str = "direct",
) -> List[RieszValues]:
    """Evaluate the bilinear Riesz transform of each pair ``(f1, f2)`` at
    the same ``points``, one :class:`RieszValues` per pair.

    The pairs share each tile's kernel table, so a stack of pairs costs
    far fewer kernel evaluations than one :func:`bilinear_riesz` call per
    pair; the values agree with those calls to rounding.
    """
    if variant not in ("direct", "adjoint_slot1"):
        raise ValueError(f"unknown variant {variant!r}")
    pairs = [tuple(pair) for pair in pairs]
    if not pairs:
        return []
    lat = common_lattice([f for pair in pairs for f in pair])
    if lat.n != 1:
        raise ValueError("quadrature is restricted to one-dimensional lattices")
    pts = np.asarray(points, dtype=float).ravel()
    h = lat.h
    finite = np.isfinite(pts)
    values = np.tile(np.where(finite, 0.0, np.nan), (len(pairs), 1))
    flags = np.zeros(values.shape, dtype=bool)
    t = (pts[finite] - lat.box.lo[0]) / h - 0.5
    m_all = np.rint(t)
    theta_all = t - m_all
    m_all = m_all.astype(np.int64)
    live, bounds = [], []
    for q, (f1, f2) in enumerate(pairs):
        w1 = f1.values * h
        w2 = f2.values * h
        idx1 = np.nonzero(w1)[0]
        idx2 = np.nonzero(w2)[0]
        if idx1.size and idx2.size:
            flags[q, finite] = _pv_flags(w1, w2, m_all, theta_all)
            live.append(q)
            bounds.append((idx1[0], idx1[-1], idx2[0], idx2[-1]))
    if live:
        # stack the live rows' masses over the union of their supports
        lo1, hi1, lo2, hi2 = np.array(bounds).T
        i0, i1, j0, j1 = int(lo1.min()), int(hi1.max()), int(lo2.min()), int(hi2.max())
        w1 = np.stack([pairs[q][0].values[i0 : i1 + 1] * h for q in live])
        w2 = np.stack([pairs[q][1].values[j0 : j1 + 1] * h for q in live])
        sums = _stacked_sums(w1, i1, w2, j1, m_all, theta_all, variant)
        # the tables are in cell units, and the kernel is homogeneous of degree -2
        values[np.ix_(live, np.nonzero(finite)[0])] = sums / (h * h)
    return [RieszValues(pts, v, f, variant) for v, f in zip(values, flags)]


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
    return bilinear_riesz_rows([(f1, f2)], points, variant)[0]
