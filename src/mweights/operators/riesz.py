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

Consecutive tiles of one ``θ`` overlap in most of their offsets.  A tile
whose points span ``s`` cells reads a block of ``(s + len f1) x (s + len
f2)`` offsets.  When that block holds at most ``_TABLE`` entries it is
held in one buffer per ``θ`` class: the class's tiles are walked in order
of cell, and each shifts the rows it shares with the last tile's block up
and left by its step, then evaluates only its new bottom rows and the new
right columns of the shared rows, in the strips it reads.  So each offset
pair is evaluated once while the blocks that read it follow one another,
and the buffer never holds more than one block: 276 x 276 entries for a
tile of an L = 10 criterion-7 sweep.  A tile whose block is over
``_TABLE`` evaluates its strips one at a time into a strip buffer, each
just before its product, so the working set stays bounded whatever the
number of points and the support sizes.
"""
from __future__ import annotations

import bisect
import itertools
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

# columns (rows x points) per tile, block rows per strip, and kernel
# entries in one block buffer or product (2 MiB): a tile of an L = 10
# criterion-7 sweep reads a block of 276 x 276 entries
_TILE = 128
_STRIP = 32
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


def _class_sums(w1, i1, w2, j1, m_all, tiles, theta, variant, sums):
    """Write the quadrature sums (unit cell scale) of every row at the points
    of one θ class's tiles, in order of cell, into the columns ``tiles`` of
    ``sums``.

    Rows of ``w1`` and ``w2`` hold the masses of consecutive cells ending
    at cells ``i1`` and ``j1``.  A tile whose points start at cell ``m0``
    and span ``s`` cells reads a block of ``R = s + len(f1)`` rows and
    ``C = s + len(f2)`` columns: row ``r`` and column ``c`` are the offsets
    ``a = m0 - i1 + r`` and ``b = m0 - j1 + c``, and row ``r`` of its
    ``T1`` and of its ``T2`` are block row and column ``r``.  Column
    ``q * len(m) + k`` of both belongs to input row ``q`` and point ``k``.

    A tile reads the block rows of its strips with ``f1`` mass, and makes
    one product per run of those strips, ``T2ᵀ @ block[run]ᵀ``, adding the
    row sums of the product times the run's ``T1ᵀ``; a run is cut where its
    product would pass _TABLE entries.  A block of at most _TABLE entries
    sits at the top left of one buffer that the class's tiles share.  A
    tile that starts ``step`` cells after the last one ends no earlier, so
    its block row ``r`` is the last block's row ``r + step``, and up to the
    last block's end its column ``c`` is the last one's ``c + step``:
    shifted up and left by ``step`` in place, a row that both tiles read
    lacks only its columns past the last block's.  A tile whose block is
    over _TABLE evaluates each run, one strip, into a strip buffer just
    before its product.
    """
    n1, n2 = w1.shape[1], w2.shape[1]
    spans = [m_all[tile[-1]] - m_all[tile[0]] for tile in tiles]
    fit = [(s + n1) * (s + n2) <= _TABLE for s in spans]
    # one buffer for the widest block that fits _TABLE, and one strip
    # buffer for the widest that does not
    if any(fit):
        widest = max(s for s, fits in zip(spans, fit) if fits)
        block = np.empty((widest + n1, widest + n2))
        flat, W = block.reshape(-1), block.shape[1]
    if not all(fit):
        strip = np.empty((_STRIP, max(spans) + n2))
    # mass1[c] marks f1 mass at c cells from the support's end, as the
    # windows read it, so row r of a tile's T1 has mass when r - c is the
    # shift of one of its points for some marked c
    mass1 = (w1 != 0.0).any(axis=0)[::-1].astype(float)
    # windows of every shift up to the widest tile's span; a tile reads
    # its points' shifts from its first
    P = max(spans)
    win1, win2 = _windows(w1, P), _windows(w2, P)
    last = None  # the buffer's block: its first cell, R, C and rows read
    for tile, s, fits in zip(tiles, spans, fit):
        m = m_all[tile]
        R, C = s + n1, s + n2
        a = np.arange(R) + (m[0] - i1)
        b = np.arange(C) + (m[0] - j1)
        cols = w1.shape[0] * m.size
        hits = np.zeros(s + 1)
        hits[m - m[0]] = 1.0
        rows = np.convolve(hits, mass1) > 0.0
        live = np.zeros(-(-R // _STRIP) + 2, dtype=bool)
        live[1:-1] = np.logical_or.reduceat(rows, np.arange(0, R, _STRIP))
        # runs of live strips, cut so that a product holds at most _TABLE
        # entries; in a strip buffer, each strip is a run
        most = max(1, _TABLE // (_STRIP * cols)) if fits else 1
        edges = np.flatnonzero(live[1:] != live[:-1]).tolist()
        runs = [
            (j * _STRIP, min((j + most) * _STRIP, stop * _STRIP, R))
            for start, stop in zip(edges[::2], edges[1::2])
            for j in range(start, stop, most)
        ]
        if fits:
            # todo marks the rows read: 2 where the last block held the
            # first K columns, 1 where the row is evaluated whole
            read = np.repeat(live[1:-1], _STRIP)[:R]
            todo = read.astype(np.int64)
            K = 0
            if last is not None:
                step = m[0] - last[0]
                keep, K = last[1] - step, last[2] - step
                if keep > 0 and K > 0:
                    todo[:keep] += last[3][step:] & read[:keep]
                    if step:
                        # one copy along the buffer's diagonal, in place;
                        # what it moves past column K of a row is evaluated
                        # anew or never read
                        n = (keep - 1) * W + K
                        flat[:n] = flat[step * (W + 1) : step * (W + 1) + n]
            cuts = (np.flatnonzero(todo[1:] != todo[:-1]) + 1).tolist()
            for lo, hi in zip([0, *cuts], [*cuts, R]):
                c0 = K if todo[lo] == 2 else 0
                if todo[lo] and c0 < C:
                    _kernel_table(a[lo:hi], b[c0:], theta, variant, block[lo:hi, c0:C])
            last = (m[0], R, C, read)
        else:
            last = None
        pick = (np.arange(w1.shape[0])[:, None], P - (m - m[0]))
        # T2 and T1 are held transposed: row q * len(m) + k of each is
        # input row q at point k
        t2 = win2[(*pick, slice(0, C))].reshape(cols, C)
        tile_sums = np.zeros(cols)
        for top, stop in runs:
            part = block[top:stop, :C] if fits else _kernel_table(
                a[top:stop], b, theta, variant, strip[: stop - top, :C]
            )
            t1 = win1[(*pick, slice(top, stop))].reshape(cols, -1)
            tile_sums += np.einsum("ij,ij->i", t2 @ part.T, t1)
        sums[:, tile] = tile_sums.reshape(w1.shape[0], m.size)
        # let go of this tile's T2 before the next tile copies its own
        del t2


def _stacked_sums(w1, i1, w2, j1, m_all, theta_all, variant):
    """Quadrature sums (unit cell scale) of every row of the stacked masses
    at the points ``(m_all, theta_all)``, as a (rows, points) array.

    The points are taken one θ class at a time, in tiles in order of cell:
    runs of at most ``per_tile`` points whose cells span fewer than
    ``per_tile`` indices; with one row, at most _TILE of each.  The points
    are ordered by ``(θ, m)`` with Python's stable sort, and each class is
    cut into tiles by bisection, in the order and tiles that
    ``np.lexsort((m, θ))`` and ``np.searchsorted`` give; a sweep's stack
    has a few hundred points, and numpy's sort and search code would be
    paged in for them alone.  ``-0.0`` and ``0.0`` compare equal, so they
    share a class, whose θ is that of its first point.
    """
    sums = np.zeros((w1.shape[0], m_all.size))
    per_tile = max(1, _TILE // w1.shape[0])
    ms, thetas = m_all.tolist(), theta_all.tolist()
    order = sorted(range(len(ms)), key=lambda k: (thetas[k], ms[k]))
    for theta, cls in itertools.groupby(order, key=thetas.__getitem__):
        cls = list(cls)
        keys, tiles, start = [ms[k] for k in cls], [], 0
        while start < len(cls):
            stop = bisect.bisect_left(
                keys, keys[start] + per_tile, start, min(start + per_tile, len(cls))
            )
            tiles.append(cls[start:stop])
            start = stop
        _class_sums(w1, i1, w2, j1, m_all, tiles, theta, variant, sums)
    return sums


def bilinear_riesz_rows(
    pairs: Sequence[Tuple[GridFunction, GridFunction]],
    points: Union[np.ndarray, list],
    variant: str = "direct",
) -> List[RieszValues]:
    """Evaluate the bilinear Riesz transform of each pair ``(f1, f2)`` at
    the same ``points``, one :class:`RieszValues` per pair.

    The pairs share each kernel block, and the consecutive tiles of points
    of one θ share what their blocks overlap in, so a stack of pairs costs
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
