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
``f1`` masses through another, ``T1[a, k] = w1[m_k - a]``, read from
sliding windows.  Its table rows ``a`` come in strips of ``_STRIP``; a
strip where no row has ``f1`` mass is skipped, and each run of the other
strips is one product with ``T2`` for every row at once, summed against
the run's rows of ``T1``.

Consecutive tiles of one ``θ`` overlap in most of their offsets.  So
when a ``θ`` class's table holds at most ``_TABLE`` entries and its points
span fewer cells than ``f2``, all its tiles are one chunk: they read their
strips from one table over the class's offsets, and their windows from one
set.  Otherwise each tile of the class is a chunk of its own.  The whole
``θ`` class of an L = 10 criterion-7 sweep is one chunk.  The table is
filled before any product: each row is evaluated from the first column of
the first tile that reads it to the last column of the last, and runs of
rows with one column range are evaluated together, at most ``_FILL`` rows
at a time.  So every offset pair is evaluated at most once per chunk, and
only where some tile alone would evaluate it.  A tile whose own table is
over ``_TABLE`` evaluates its strips one at a time into a strip buffer,
each just before its product, so the working set stays bounded whatever
the number of points and the support sizes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from ..grid import GridFunction, common_lattice

__all__ = [
    "RieszValues",
    "adjoint_kernel",
    "bilinear_riesz",
    "bilinear_riesz_rows",
    "direct_kernel",
]

# columns (rows x points) per tile, table rows per strip, table rows per
# kernel call, and kernel entries in one chunk's table (2 MiB): a whole θ
# class of an L = 10 criterion-7 sweep (511 x 511 entries) is one table
_TILE = 128
_STRIP = 32
_FILL = 64
_TABLE = 2**18


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


def _kernel_table(a, b, theta, variant, out):
    """Write the kernel over the consecutive offsets ``a`` (rows) and ``b``
    (columns) in cell units into ``out``, with the omitted pairs zeroed, and
    return ``out``.

    Every entry gets the bits of ``(s + t) / (den * sqrt(den))`` with
    ``den = s*s + t*t``, in five passes over ``out`` and one temporary.
    """
    u = a + theta
    v = b + theta
    if variant == "direct":
        s, t, tt = u[:, None], v[None, :], (v * v)[None, :]
    else:
        # t = b - a is constant along diagonals: read it, and its square,
        # from one vector, row i starting a.size - 1 - i entries in
        g = np.arange(b[0] - a[-1], b[-1] - a[0] + 1, dtype=float)
        s = -u[:, None]
        t, tt = (
            as_strided(x[a.size - 1 :], (a.size, b.size), (-x.itemsize, x.itemsize))
            for x in (g, g * g)
        )
    np.add(s * s, tt, out=out)
    tmp = np.sqrt(out)
    out *= tmp
    np.add(s, t, out=tmp)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(tmp, out, out=out)
    near_u, near_v = _near(u), _near(v)
    if near_u.any() and near_v.any():
        out[np.ix_(near_u, near_v)] = 0.0
    return out


def _windows(w, span):
    """Sliding windows over each row of ``w`` reversed and padded by ``span``
    zeros on each side.

    The window of shift ``σ`` (index ``span - σ``) in row ``q`` holds
    ``w[q, len - 1 - (r - σ)]`` at position ``r`` and zero outside, ``len``
    being the row length of ``w``; a window is ``span + len`` long.
    Indexing with rows and shifts gives C-ordered (rows, shifts, window)
    copies.
    """
    pad = np.zeros((w.shape[0], int(span)))
    z = np.concatenate([pad, w[:, ::-1], pad], axis=1)
    return sliding_window_view(z, pad.shape[1] + w.shape[1], axis=1)


def _pv_flags(w1, i0, w2, j0, m, theta):
    """Points whose omitted cell pairs carry mass in both inputs, as a
    (rows, points) array over the stacked masses ``w1`` (cells ``i0`` on)
    and ``w2`` (cells ``j0`` on).

    Candidates are the cells next to the point; the offsets are formed
    exactly as in the tables, so the flags match the zeroed entries.  A cell
    outside a stack's cells carries no mass in any of its rows.
    """

    def near_mass(w, lo):
        N = w.shape[1]
        hits = []
        for a in (-1, 0, 1):
            idx = m - a - lo
            inside = (idx >= 0) & (idx < N)
            hits.append(_near(a + theta) & inside & (w[:, np.clip(idx, 0, N - 1)] > 0.0))
        return np.logical_or.reduce(hits)

    return near_mass(w1, i0) & near_mass(w2, j0)


def _chunks(m_all, theta_all, per_tile, n1, n2):
    """The points' tiles as index arrays, in order of θ and then of cell,
    grouped into chunks.

    A tile is a run of at most ``per_tile`` points with one θ whose cells
    span fewer than ``per_tile`` indices; with one row, at most _TILE of
    each.  Points whose cells span ``s`` indices touch
    ``(s + n1 - 1) x (s + n2 - 1)`` offset pairs.  All the tiles of one θ
    are one chunk when that table fits _TABLE and their points span fewer
    cells than ``f2`` (``n2`` cells); otherwise each tile is a chunk.
    """
    order = np.lexsort((m_all, theta_all))
    classes = np.split(order, np.flatnonzero(np.diff(theta_all[order])) + 1) if order.size else []
    chunks = []
    for cls in classes:
        ms, tiles, start = m_all[cls], [], 0
        while start < cls.size:
            stop = start + int(np.searchsorted(ms[start : start + per_tile], ms[start] + per_tile))
            tiles.append(cls[start:stop])
            start = stop
        span = ms[-1] - ms[0]
        fits = span < n2 and (span + n1) * (span + n2) <= _TABLE
        chunks.extend([tiles] if fits else ([tile] for tile in tiles))
    return chunks


def _chunk_sums(w1, i1, w2, j1, m_all, tiles, theta, variant, sums):
    """Write the quadrature sums (unit cell scale) of every row at the points
    of one chunk of tiles with one θ into the columns ``tiles`` of ``sums``.

    Rows of ``w1`` and ``w2`` hold the masses of consecutive cells ending
    at cells ``i1`` and ``j1``.  Row ``ρ`` and column ``c`` of the chunk's
    table are the offsets ``a = m0 - i1 + ρ`` and ``b = m0 - j1 + c``, ``m0``
    the chunk's first point, so a tile whose first point is ``m0 + d`` reads
    its table from row and column ``d`` on: row ``r`` of its ``T1`` and of
    its ``T2`` are table row and column ``d + r``.  Column ``q * len(m) + k``
    of both belongs to input row ``q`` and point ``k``.

    A tile reads the table rows of its strips with ``f1`` mass.  Every row
    that some tile reads is evaluated before any product, from its first
    reader's first column to its last reader's last column, so each entry
    that some tile reads is evaluated once in the chunk.  The points of a
    chunk span fewer cells than ``f2``, so the columns of the tiles that
    read a row overlap, and no entry is evaluated that no tile reads.  A
    tile then makes one product per run of its live strips,
    ``T2ᵀ @ table[run, columns]ᵀ``, and adds the row sums of the product
    times the run's ``T1ᵀ``; a run is cut where its product would pass
    _TABLE entries.  When one tile's table is over _TABLE, the table is a
    strip buffer: each run is one strip, evaluated into it just before its
    product.
    """
    m0 = m_all[tiles[0][0]]
    span = m_all[tiles[-1][-1]] - m0
    shape = (span + w1.shape[1], span + w2.shape[1])
    whole = shape[0] * shape[1] <= _TABLE
    table = np.empty(shape if whole else (_STRIP, shape[1]))
    a = np.arange(shape[0]) + (m0 - i1)
    b = np.arange(shape[1]) + (m0 - j1)
    # mass1[c] marks f1 mass at c cells from the support's end, as the
    # windows read it, so row r of a tile's T1 has mass when r - c is the
    # shift of one of its points for some marked c
    mass1 = (w1 != 0.0).any(axis=0)[::-1].astype(float)
    # each tile's runs of table rows, and each row's first and last column
    # read (0 where no tile reads it); the tiles come in order of their
    # first column and of their last
    runs = []
    first = np.zeros(shape[0], dtype=np.int64)
    last = np.zeros(shape[0], dtype=np.int64)
    for tile in tiles:
        m = m_all[tile]
        d = m[0] - m0
        hits = np.zeros(m[-1] - m[0] + 1)
        hits[m - m[0]] = 1.0
        rows = np.convolve(hits, mass1) > 0.0
        live = np.zeros(-(-rows.size // _STRIP) + 2, dtype=bool)
        live[1:-1] = np.logical_or.reduceat(rows, np.arange(0, rows.size, _STRIP))
        read = np.repeat(live[1:-1], _STRIP)[: rows.size]
        first[d : d + rows.size][read & (last[d : d + rows.size] == 0)] = d
        last[d : d + rows.size][read] = d + m[-1] - m[0] + w2.shape[1]
        # runs of live strips, cut so that a product holds at most _TABLE
        # entries; in a strip buffer, each strip is a run
        most = max(1, _TABLE // (_STRIP * w1.shape[0] * m.size)) if whole else 1
        edges = np.flatnonzero(live[1:] != live[:-1]).tolist()
        runs.append([
            (d + j * _STRIP, d + min((j + most) * _STRIP, stop * _STRIP, rows.size))
            for start, stop in zip(edges[::2], edges[1::2])
            for j in range(start, stop, most)
        ])
    if whole:
        # runs of consecutive rows with one column range, at most _FILL rows
        # to a call
        rows = np.flatnonzero(last)
        cuts = (np.diff(rows) != 1) | (np.diff(first[rows]) != 0) | (np.diff(last[rows]) != 0)
        edges = [0, *(np.flatnonzero(cuts) + 1).tolist(), rows.size]
        for lo, hi in zip(edges, edges[1:]):
            for top in range(rows[lo], rows[hi - 1] + 1, _FILL):
                stop = min(top + _FILL, rows[hi - 1] + 1)
                c = slice(first[top], last[top])
                _kernel_table(a[top:stop], b[c], theta, variant, table[top:stop, c])
    # windows of every shift from m0; a tile reads its points' windows
    win1 = _windows(w1, span)
    win2 = _windows(w2, span)
    for tile, tile_runs in zip(tiles, runs):
        m = m_all[tile]
        d = m[0] - m0
        end = d + m[-1] - m[0] + w2.shape[1]  # end of the tile's table columns
        cols = w1.shape[0] * m.size
        pick = (np.arange(w1.shape[0])[:, None], span - (m - m0))
        # T2 and T1 are held transposed: row q * len(m) + k of each is
        # input row q at point k
        t2 = win2[(*pick, slice(d, end))].reshape(cols, -1)
        tile_sums = np.zeros(cols)
        for top, stop in tile_runs:
            base = 0 if whole else top  # chunk row of the table's first row
            if not whole:
                # the strip, over the tile's columns
                _kernel_table(a[top:stop], b[d:end], theta, variant, table[: stop - top, d:end])
            t1 = win1[(*pick, slice(top, stop))].reshape(cols, -1)
            prod = t2 @ table[top - base : stop - base, d:end].T
            tile_sums += np.einsum("ij,ij->i", prod, t1)
        sums[:, tile] = tile_sums.reshape(w1.shape[0], m.size)
        # let go of this tile's T2 before the next tile copies its own
        del t2


def _stacked_sums(w1, i1, w2, j1, m_all, theta_all, variant):
    """Quadrature sums (unit cell scale) of every row of the stacked masses
    at the points ``(m_all, theta_all)``, as a (rows, points) array."""
    sums = np.zeros((w1.shape[0], m_all.size))
    per_tile = max(1, _TILE // w1.shape[0])
    for chunk in _chunks(m_all, theta_all, per_tile, w1.shape[1], w2.shape[1]):
        _chunk_sums(w1, i1, w2, j1, m_all, chunk, theta_all[chunk[0][0]], variant, sums)
    return sums


def bilinear_riesz_rows(
    pairs: Sequence[Tuple[GridFunction, GridFunction]],
    points: Union[np.ndarray, list],
    variant: str = "direct",
) -> List[RieszValues]:
    """Evaluate the bilinear Riesz transform of each pair ``(f1, f2)`` at
    the same ``points``, one :class:`RieszValues` per pair.

    The pairs share each kernel table, and so do the consecutive tiles of
    points that one table covers, so a stack of pairs costs far fewer
    kernel evaluations than one :func:`bilinear_riesz` call per pair; the
    values agree with those calls to rounding.
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
        idx1 = np.nonzero(f1.values * h)[0]
        idx2 = np.nonzero(f2.values * h)[0]
        if idx1.size and idx2.size:
            live.append(q)
            bounds.append((idx1[0], idx1[-1], idx2[0], idx2[-1]))
    if live:
        # stack the live rows' masses over the union of their supports
        lo1, hi1, lo2, hi2 = np.array(bounds).T
        i0, i1, j0, j1 = int(lo1.min()), int(hi1.max()), int(lo2.min()), int(hi2.max())
        w1 = np.stack([pairs[q][0].values[i0 : i1 + 1] * h for q in live])
        w2 = np.stack([pairs[q][1].values[j0 : j1 + 1] * h for q in live])
        at = np.ix_(live, np.nonzero(finite)[0])
        flags[at] = _pv_flags(w1, i0, w2, j0, m_all, theta_all)
        sums = _stacked_sums(w1, i1, w2, j1, m_all, theta_all, variant)
        # the tables are in cell units, and the kernel is homogeneous of degree -2
        values[at] = sums / (h * h)
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
