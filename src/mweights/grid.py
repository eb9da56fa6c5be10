"""Cell lattices, shifted dyadic grids, and cell-averaged grid functions.

The root box (default [-2,2)^n) is tiled by 2^(nL) cells. Dyadic cubes are
anchored at the origin: x = 0 is a cube boundary of the standard grid at every
generation. The shifted companion grids realize the one-third translation
trick on the cell lattice: the per-generation offset is the truncated base-2
expansion of 1/3 (respectively 2/3, alternating with generation parity), which
keeps every grid nested and keeps every cube a union of lattice cells. The
classical covering property, each cell-aligned cube sits inside some family
cube at most six times as wide, is exercised by the test suite rather than
assumed.

Because the grids nest, a grid cube's sum is the sum of its 2^n children's:
every sum over grid cubes is read from a child-sum pyramid, a whole grid's
(:meth:`DyadicGrid.pyramid`) or one cube's subtree (:func:`cube_levels`),
whose terms are nonnegative and cannot cancel.  Cell-aligned cubes do not
nest; their sums add doubled runs of cells (:func:`window_sums`), which
cannot cancel either.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .powermass import (
    Ball,
    Interval,
    IntervalPlan,
    PlanarPlan,
    Rect,
    RectRulePlan,
)

if TYPE_CHECKING:
    from ._draws import Draws

__all__ = [
    "Box",
    "default_box",
    "Lattice",
    "third_offset",
    "DyadicCube",
    "DyadicGrid",
    "ShiftedGridFamily",
    "PowerDescriptor",
    "GridFunction",
    "CellRegion",
    "CubeLayout",
    "G_MIN",
    "aligned_window_sums",
    "cell_average",
    "common_lattice",
    "cube_averages",
    "cube_levels",
    "window_sums",
]

# the coarsest generation scanned by default: cubes four times the root box
G_MIN = -2
# cubes of at most 2^_M_MAX cells per axis keep a layout's cells, from its
# first cube's start to its last cube's end, inside int64
_M_MAX = 60


@dataclass(frozen=True)
class Box:
    """Axis-aligned cube [lo, lo+side)^n serving as the root domain."""

    lo: Tuple[float, ...]
    side: float

    @property
    def n(self) -> int:
        return len(self.lo)


def default_box(n: int) -> Box:
    return Box((-2.0,) * n, 4.0)


@dataclass(frozen=True)
class Lattice:
    """The root box split into 2^L cells per axis.

    The derived sizes are computed once per lattice: the scans read them
    for every cube size of every call."""

    box: Box
    L: int

    @functools.cached_property
    def n(self) -> int:
        return self.box.n

    @functools.cached_property
    def cells_per_axis(self) -> int:
        return 2**self.L

    @functools.cached_property
    def shape(self) -> Tuple[int, ...]:
        return (self.cells_per_axis,) * self.n

    @functools.cached_property
    def h(self) -> float:
        return self.box.side / self.cells_per_axis

    @functools.cached_property
    def cell_volume(self) -> float:
        return self.h**self.n

    def cube_volume(self, size: int) -> float:
        """Volume of a cube of ``size`` cells per axis, inside the box or not."""
        return (size * self.h) ** self.n

    def cube_cells(self, cube: "DyadicCube") -> Tuple[slice, ...]:
        """Per axis, the slice of the cube's cells inside the box."""
        N = self.cells_per_axis
        return tuple(slice(max(s, 0), min(s + cube.size, N)) for s in cube.start)

    def holds(self, cube: "DyadicCube") -> bool:
        """Whether the whole cube lies inside the box."""
        N = self.cells_per_axis
        return all(0 <= s and s + cube.size <= N for s in cube.start)

    def _clipped_edges(self, support):
        """Per axis, every cell's edges clipped to an ``Interval`` or ``Rect``
        support; a ``Ball`` clips only in one dimension, as [-r, r]."""
        if isinstance(support, Ball) and self.n == 1:
            support = Interval(-support.radius, support.radius)
        if isinstance(support, Interval) and self.n == 1:
            support = Rect((support.lo,), (support.hi,))
        if support is None or isinstance(support, Ball):
            bounds = [(-math.inf, math.inf)] * self.n
        elif isinstance(support, Rect) and len(support.lo) == self.n:
            bounds = zip(support.lo, support.hi)
        else:
            raise TypeError("unsupported support type")
        edges = []
        for lo, (s_lo, s_hi) in zip(self.box.lo, bounds):
            e0 = lo + self.h * np.arange(self.cells_per_axis, dtype=float)
            edges.append((np.maximum(e0, s_lo), np.minimum(e0 + self.h, s_hi)))
        return edges

    @functools.cached_property
    def _mass_plans(self) -> dict:
        return {}

    def power_masses(self, exponent: float, support=None) -> np.ndarray:
        """Exact integral of |x|^exponent over every cell, clipped to ``support``.

        n=1 is the closed form of :class:`IntervalPlan` on whole arrays.
        n=2 uses the 12x12 tensor Gauss-Legendre rule of
        :class:`RectRulePlan` on the cells inside the support whose distance
        from the origin is at least their longest side, and on those only;
        the cells nearer the origin (on the default box, the four that touch
        it) and the cells a ``Ball`` cuts take the graded polar rule of one
        :class:`PlanarPlan`.

        For n=2, an axis whose clipped cell edges are symmetric about 0 (on
        the default box with support None or a ``Ball``, both axes) is
        folded: the plans hold only its cells right of 0, and the masses of
        the cells left of it are theirs mirrored, which are the bits the
        rules give those cells.

        These plans (for n=2 with the tensor-rule cells) are built on the
        first call for each support and kept with the lattice, so a call
        runs only their exponent step, with a fresh lattice's bits.
        """
        plan = self._mass_plans.get(support)
        if plan is None:
            plan = self._mass_plans[support] = self._mass_plan(support)
        return plan(exponent)

    def _mass_plan(self, support):
        """The exponent-free part of :meth:`power_masses` on ``support``, as
        a function of the exponent."""
        edges = self._clipped_edges(support)
        if self.n == 1:
            return IntervalPlan(*edges[0]).masses
        if self.n != 2:
            raise NotImplementedError("cell masses are implemented for n <= 2")
        # an axis whose clipped edges are symmetric about 0 has mirrored
        # masses, bit for bit (the rules' nodes are antisymmetric and their
        # mirrored nodes are added first): keep its cells right of 0 only
        folded = [len(lo) % 2 == 0 and np.array_equal(lo, -hi[::-1]) for lo, hi in edges]
        edges = [
            (lo[len(lo) // 2 :], hi[len(hi) // 2 :]) if fold else (lo, hi)
            for (lo, hi), fold in zip(edges, folded)
        ]
        (x0, x1), (y0, y1) = edges
        dx, dy = (np.maximum(np.maximum(lo, -hi), 0.0) for lo, hi in edges)
        inside = (x1 > x0)[:, None] & (y1 > y0)[None, :]
        cut = np.zeros(inside.shape, dtype=bool)
        if isinstance(support, Ball):
            # the edges are unclipped: a cell is inside when its farthest
            # corner is, and cut when its nearest point is inside but not all
            fx, fy = (np.maximum(np.abs(lo), np.abs(hi)) for lo, hi in edges)
            inside = np.hypot(fx[:, None], fy[None, :]) <= support.radius
            cut = ~inside & (np.hypot(dx[:, None], dy[None, :]) < support.radius)
        side = np.maximum((x1 - x0)[:, None], (y1 - y0)[None, :])
        near_origin = inside & (dx[:, None] ** 2 + dy[None, :] ** 2 < side**2)
        rule = inside & ~near_origin
        i, j = np.nonzero(cut | near_origin)
        radius = support.radius if isinstance(support, Ball) else math.inf
        polar = PlanarPlan(x0[i], x1[i], y0[j], y1[j], radius)
        tensor = RectRulePlan(x0, x1, y0, y1)

        def masses(exponent):
            out = np.zeros(rule.shape)
            ri, rj = np.nonzero(rule)
            out[ri, rj] = tensor.masses(exponent, ri, rj)
            out[i, j] = polar.masses(exponent)
            for axis, fold in enumerate(folded):
                if fold:
                    out = np.concatenate([np.flip(out, axis), out], axis=axis)
            return out

        return masses


def common_lattice(items: Sequence) -> Lattice:
    """The one lattice that every item (grid functions, weights, grids,
    families: anything with a ``lattice``) lives on."""
    if not items:
        raise ValueError("need at least one grid function")
    lat = items[0].lattice
    if any(item.lattice != lat for item in items[1:]):
        raise ValueError("grid functions, weights, grids and families must share one lattice")
    return lat


def third_offset(M: int, L: int) -> int:
    """Offset (in cells) of the one-third shifted grid at cube size 2^M cells.

    Bit k-1 is set when L-k is odd, so t(M)/2^M tends to 1/3 when L-M is even
    and to 2/3 when L-M is odd, matching the alternating-sign shift while
    keeping t(M) == t(M-1) (mod 2^(M-1)), which is exactly grid nesting.
    """
    # bits M-1, M-3, ... when L-M is odd, and M-2, M-4, ... when it is even
    return (1 << (M + (L - M) % 2)) // 3


def _doubled_runs(values: np.ndarray, axis: int, size: int) -> List[np.ndarray]:
    """Sums over every run of 1, 2, 4, ... cells along ``axis``, up to the
    highest binary digit of ``size``; a run of 2w cells is the pairwise sum
    of two runs of w cells, ``run[i] + run[i + w]``."""
    head = (slice(None),) * axis
    runs, width = [values], 1
    while 2 * width <= size:
        run = runs[-1]
        runs.append(run[head + (slice(None, -width),)] + run[head + (slice(width, None),)])
        width *= 2
    return runs


def _digit_runs(runs: List[np.ndarray], axis: int, size: int) -> np.ndarray:
    """Sums over every run of ``size`` cells along ``axis``: the doubled
    runs (:func:`_doubled_runs`) for the binary digits of ``size``, lowest
    first, each starting where the previous one ended."""
    head = (slice(None),) * axis
    count = runs[0].shape[axis] - size + 1
    total, offset = None, 0
    for k, run in enumerate(runs):
        if size >> k & 1:
            piece = run[head + (slice(offset, offset + count),)]
            total = piece if total is None else total + piece
            offset += 1 << k
    return total


def window_sums(values: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Sums over every box of ``sizes[0] x sizes[1] x ...`` consecutive
    cells, in C order of the box's first cell.

    ``values`` holds the cells on its last ``len(sizes)`` axes; leading
    axes, one per function, are carried along.  The runs are summed along
    each of those axes in turn, the first one first.  A run of 2w cells is
    the pairwise sum of two runs of w cells, ``run[i] + run[i + w]``, and a
    run of ``size`` cells adds the doubled runs for the binary digits of
    ``size``, lowest first, each starting where the previous one ended.
    Nothing is subtracted, so nothing cancels, and a box's sum has the
    same bits whether it is read from the whole array or from its own
    cells alone.  When every size is 1 the result is ``values`` itself.
    """
    out = values
    for axis, size in enumerate(sizes, start=values.ndim - len(sizes)):
        if not 1 <= size <= out.shape[axis]:
            raise ValueError(f"run of {size} cells on an axis of {out.shape[axis]}")
        out = _digit_runs(_doubled_runs(out, axis, size), axis, size)
    return out


def aligned_window_sums(values: np.ndarray, n: int) -> Iterator[Tuple[int, np.ndarray]]:
    """``(size, window_sums(values, (size,) * n))`` for every cube size from
    1 to the side of the last ``n`` axes, with the same bits.  The doubled
    runs along the first cell axis are built once for all sizes, which
    holds about log2(side) arrays of the size of ``values``."""
    axis = values.ndim - n
    side = values.shape[axis]
    runs = _doubled_runs(values, axis, side)
    for size in range(1, side + 1):
        yield size, window_sums(_digit_runs(runs, axis, size), (size,) * (n - 1))


def _pyramid(
    values: np.ndarray, lattice: "Lattice", starts: Sequence[int], size: int, counts: Sequence[int]
) -> List[np.ndarray]:
    """The child-sum pyramid of ``counts[a]`` consecutive cubes of one grid
    along each axis a, of ``size`` cells from cell ``starts[a]``, each
    meeting the box.

    ``values`` holds the cells on its last n axes; leading axes, one per
    function, are carried along.  Level k holds the sums over the sub-cubes
    of 2^k cells that meet the box, in C order, from the cells (k = 0) up to
    the cubes themselves; only cells inside the box are read.  The grids
    nest, so each level adds the 2^n children of every cube pairwise, along
    the first axis, then the second, and so on.  A child that misses the
    box is not stored: at most the first and the last cube along an axis
    lose one that way, and their other child passes up unchanged, as if
    added to an exact zero.  Every term is nonnegative, so nothing cancels,
    and a cube's sum has the same bits in every pyramid that holds it.
    """
    N = lattice.cells_per_axis
    ends = [min(s + size * c, N) for s, c in zip(starts, counts)]
    lead = values.ndim - len(starts)
    heads = [(slice(None),) * axis for axis in range(lead, values.ndim)]
    # per axis, the index of the first sub-cube of the current width meeting the box
    firsts = [max(0, -s) for s in starts]
    sums = values[(Ellipsis,) + tuple(slice(s + f, e) for s, f, e in zip(starts, firsts, ends))]
    levels = [sums]
    width = 2
    while width <= size:
        for a, (head, s, e) in enumerate(zip(heads, starts, ends)):
            first = max(0, -s // width)
            count = -((s - e) // width) - first
            front = firsts[a] - 2 * first  # 1 when the first parent's first child misses the box
            firsts[a] = first
            have = sums.shape[lead + a]
            back = 2 * count - front - have
            lo = sums[head + (slice(front, have - back, 2),)]
            hi = sums[head + (slice(front + 1, have - back, 2),)]
            out = np.empty(sums.shape[: lead + a] + (count,) + sums.shape[lead + a + 1 :])
            np.add(lo, hi, out=out[head + (slice(front, count - back),)])
            if front:
                out[head + (0,)] = sums[head + (0,)]
            if back:
                out[head + (-1,)] = sums[head + (-1,)]
            sums = out
        levels.append(sums)
        width *= 2
    return levels


def cube_levels(values: np.ndarray, lattice: "Lattice", cube: "DyadicCube") -> List[np.ndarray]:
    """The child-sum pyramid (:func:`_pyramid`) of one grid cube's subtree:
    level k holds the sums over its sub-cubes of 2^k cells per axis that
    meet the box, the last level the cube itself.  A cube of 1024^2 cells
    sticking out of a 256^2 lattice reads the lattice's cells alone."""
    return _pyramid(values, lattice, cube.start, cube.size, (1,) * lattice.n)


@dataclass(frozen=True)
class DyadicCube:
    """A cube on the cell lattice: start cell per axis plus size in cells.

    Cubes from a dyadic grid carry generation g and index j; brute-force
    cell-aligned cubes carry grid_id "aligned" with g = j = None.
    """

    grid_id: str
    g: Optional[int]
    j: Optional[Tuple[int, ...]]
    start: Tuple[int, ...]
    size: int

    @classmethod
    def aligned(cls, start: Sequence[int], size: int) -> "DyadicCube":
        return cls("aligned", None, None, tuple(int(s) for s in start), int(size))

    def key(self) -> Tuple:
        return (self.start, self.size)

    def contains(self, other: "DyadicCube") -> bool:
        """Whether ``other`` lies inside this cube, wherever the box is."""
        return all(
            s <= o and o + other.size <= s + self.size for s, o in zip(self.start, other.start)
        )


@dataclass(frozen=True, eq=False)
class CubeLayout:
    """Cubes of one size starting at ``starts[0] x starts[1] x ...``, in C order.

    A grid's layout also carries the grid, the generation and the index
    ``j0`` of its first cube; aligned layouts carry none of them.
    """

    lattice: Lattice
    size: int
    starts: Tuple[np.ndarray, ...]
    grid: Optional["DyadicGrid"] = None
    g: Optional[int] = None
    j0: Tuple[int, ...] = ()

    @classmethod
    def aligned(cls, lattice: Lattice, size: int) -> "CubeLayout":
        """Every cell-aligned cube of ``size`` cells inside the box, in the
        order of their :func:`window_sums`."""
        starts = np.arange(lattice.cells_per_axis - size + 1)
        return cls(lattice, size, (starts,) * lattice.n)

    @functools.cached_property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.starts)

    def cube(self, index: Sequence[int]) -> DyadicCube:
        if self.grid is None:
            return DyadicCube.aligned([s[i] for s, i in zip(self.starts, index)], self.size)
        return self.grid.cube(self.g, [j + int(i) for j, i in zip(self.j0, index)])

    def cubes(self) -> Iterator[DyadicCube]:
        for index in np.ndindex(*self.shape):
            yield self.cube(index)


class DyadicGrid:
    """One dyadic grid over the lattice, shifted by beta per axis."""

    def __init__(self, lattice: Lattice, beta: Tuple[int, ...]):
        if len(beta) != lattice.n or any(b not in (0, 1) for b in beta):
            raise ValueError("beta must be a 0/1 tuple of length n")
        self.lattice = lattice
        self.beta = beta
        self.grid_id = "b" + "".join(str(b) for b in beta)

    def base(self, M: int) -> List[int]:
        """Unreduced start-cell representative per axis for size-2^M cubes."""
        L = self.lattice.L
        t = third_offset(M, L)
        return [2 ** (L - 1) + b * t for b in self.beta]

    def _check_generation(self, g: int) -> int:
        """The size exponent ``M = L - g`` of generation ``g``, which must
        lie in ``0.._M_MAX``."""
        L = self.lattice.L
        if g > L:
            raise ValueError(f"generation {g} is finer than the lattice resolution L={L}")
        if L - g > _M_MAX:
            raise ValueError(f"generation {g} is coarser than {L - _M_MAX}, the coarsest at L={L}")
        return L - g

    def cube(self, g: int, j: Sequence[int]) -> DyadicCube:
        M = self._check_generation(g)
        base = self.base(M)
        start = tuple(int(jj) * 2**M + b for jj, b in zip(j, base))
        return DyadicCube(self.grid_id, g, tuple(int(jj) for jj in j), start, 2**M)

    def cube_containing_cell(self, cell: Sequence[int], g: int) -> DyadicCube:
        M = self._check_generation(g)
        base = self.base(M)
        j = tuple((int(c) - b) // 2**M for c, b in zip(cell, base))
        return self.cube(g, j)

    def layout(self, g: int) -> "CubeLayout":
        """Every generation-``g`` cube meeting the box, in C order of ``j``."""
        M = self._check_generation(g)
        size = 2**M
        N = self.lattice.cells_per_axis
        j0, starts = [], []
        for b in self.base(M):
            j_min = -((size + b - 1) // size)
            j_max = (N - 1 - b) // size
            j0.append(j_min)
            starts.append(np.arange(j_min, j_max + 1) * size + b)
        return CubeLayout(self.lattice, size, tuple(starts), self, g, tuple(j0))

    def pyramid(self, values: np.ndarray, g_min: int) -> List[np.ndarray]:
        """The grid's child-sum pyramid (:func:`_pyramid`) over every cube of
        generations L, L-1, ..., ``g_min``: level ``L - g`` holds the sums
        over generation g, in the shape and C order of :meth:`layout`."""
        top = self.layout(g_min)
        return _pyramid(values, self.lattice, [s[0] for s in top.starts], top.size, top.shape)

    def generations(
        self, values: np.ndarray, g_min: int
    ) -> Iterator[Tuple["CubeLayout", np.ndarray]]:
        """``(layout(g), sums)`` for generations ``g_min..L``, coarse to fine,
        the sums in the layout's shape and C order, from one :meth:`pyramid`."""
        levels = self.pyramid(values, g_min)
        for g in range(g_min, self.lattice.L + 1):
            yield self.layout(g), levels[self.lattice.L - g]


class ShiftedGridFamily:
    """The 2^n shifted dyadic grids over a lattice (standard grid first)."""

    def __init__(self, lattice: Lattice):
        self.lattice = lattice
        betas = list(itertools.product((0, 1), repeat=lattice.n))
        self.grids: Tuple[DyadicGrid, ...] = tuple(DyadicGrid(lattice, b) for b in betas)
        self.by_id = {g.grid_id: g for g in self.grids}

    @property
    def standard(self) -> DyadicGrid:
        return self.grids[0]

    def random_cube(self, rng: Draws) -> DyadicCube:
        """A random grid, then a random generation in [G_MIN, L], then a
        random cube of that generation meeting the box, drawn with
        ``rng.integers``."""
        grid = self.grids[int(rng.integers(len(self.grids)))]
        layout = grid.layout(int(rng.integers(G_MIN, self.lattice.L + 1)))
        k = int(rng.integers(math.prod(layout.shape)))
        return layout.cube(np.unravel_index(k, layout.shape))

    def cover(self, start: Sequence[int], size: int) -> DyadicCube:
        """The smallest family cube containing the aligned cube, at most 6x as
        wide; of those, the one of the first grid."""
        L = self.lattice.L
        last = [int(s) + size - 1 for s in start]
        M_lo = max(0, int(size - 1).bit_length())
        M_hi = min(L - G_MIN, (6 * size).bit_length() - 1)
        for M in range(M_lo, M_hi + 1):
            for grid in self.grids:
                cube = grid.cube_containing_cell(start, L - M)
                if cube == grid.cube_containing_cell(last, L - M):
                    return cube
        raise AssertionError(
            f"no covering cube within factor 6 for start={tuple(start)} size={size}"
        )


@dataclass(frozen=True)
class PowerDescriptor:
    """Analytic form coeff * |x|^exponent restricted to a support set."""

    exponent: float
    support: object
    coeff: float = 1.0


def _support_to_json(support) -> dict:
    if isinstance(support, Interval):
        return {"kind": "interval", "lo": support.lo, "hi": support.hi}
    if isinstance(support, Ball):
        return {"kind": "ball", "radius": support.radius, "n": support.n}
    if isinstance(support, Rect):
        return {"kind": "rect", "lo": list(support.lo), "hi": list(support.hi)}
    raise ValueError(f"cannot serialize support {support!r}")


def _support_from_json(d: dict):
    if d["kind"] == "interval":
        return Interval(d["lo"], d["hi"])
    if d["kind"] == "ball":
        return Ball(d["radius"], d["n"])
    if d["kind"] == "rect":
        return Rect(tuple(d["lo"]), tuple(d["hi"]))
    raise ValueError(f"unknown support kind {d['kind']!r}")


def _header_lattice(header) -> Lattice:
    """The lattice a grid file's header names; ValueError unless ``L`` is a
    nonnegative int, ``box.lo`` one number per axis (``n``) and
    ``box.side`` finite and positive."""
    try:
        L, n, lo, side = header["L"], header["n"], header["box"]["lo"], header["box"]["side"]
    except TypeError:
        raise ValueError("the header is not a JSON object holding a box object") from None
    if type(L) is not int or L < 0:
        raise ValueError(f"L = {L!r} is not a nonnegative integer")
    if not (type(lo) is list and len(lo) == n and all(type(x) in (int, float) for x in lo)):
        raise ValueError(f"box.lo = {lo!r} does not hold one number per axis (n = {n!r})")
    if not (type(side) in (int, float) and 0 < side < math.inf):
        raise ValueError(f"box.side = {side!r} is not a positive number")
    return Lattice(Box(tuple(lo), side), L)


class GridFunction:
    """Nonnegative function stored as one cell average per lattice cell.

    Values are treated as read-only after construction. When an analytic
    descriptor is attached, the stored values are the exact cell averages of
    the descriptor, so cube averages computed from cell masses are exact.
    """

    def __init__(
        self,
        lattice: Lattice,
        values: np.ndarray,
        descriptor: Optional[PowerDescriptor] = None,
    ):
        values = np.asarray(values, dtype=float)
        if values.shape != lattice.shape:
            raise ValueError(f"values shape {values.shape} != lattice shape {lattice.shape}")
        if not np.isfinite(values).all():
            raise ValueError("grid function values must be finite")
        if (values < 0.0).any():
            raise ValueError("grid function values must be nonnegative")
        self.lattice = lattice
        self.values = values
        self.descriptor = descriptor

    @classmethod
    def from_power(
        cls, lattice: Lattice, exponent: float, support, coeff: float = 1.0
    ) -> "GridFunction":
        values = coeff * lattice.power_masses(exponent, support) / lattice.cell_volume
        return cls(lattice, values, PowerDescriptor(exponent, support, coeff))

    @classmethod
    def indicator(cls, lattice: Lattice, region) -> "GridFunction":
        if isinstance(region, np.ndarray):
            return cls(lattice, region.astype(float))
        return cls.from_power(lattice, 0.0, region)

    @classmethod
    def zeros(cls, lattice: Lattice) -> "GridFunction":
        return cls(lattice, np.zeros(lattice.shape))

    def save(self, path) -> None:
        header = {
            "n": self.lattice.n,
            "L": self.lattice.L,
            "box": {"lo": list(self.lattice.box.lo), "side": self.lattice.box.side},
            "descriptor": None
            if self.descriptor is None
            else {
                "exponent": self.descriptor.exponent,
                "coeff": self.descriptor.coeff,
                "support": _support_to_json(self.descriptor.support),
            },
        }
        flat = self.values.reshape(-1)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, v in enumerate(flat.tolist()):
                fh.write(f"{i},{v!r}\n")

    @classmethod
    def load(cls, path) -> "GridFunction":
        with open(path) as fh:
            header = json.loads(fh.readline())
            lattice = _header_lattice(header)
            count = lattice.cells_per_axis**lattice.n
            if fh.seekable():  # a stream is read once, as it comes
                body = fh.tell()
                rows = sum(1 for line in fh if line.strip())
                if rows < count:  # checked before allocating cells, which a header may make huge
                    raise ValueError(f"at least {count - rows} of {count} cells have no row")
                fh.seek(body)
            flat = np.zeros(count)
            seen = np.zeros(count, dtype=bool)
            for line in fh:
                if not line.strip():
                    continue
                idx, val = line.split(",", 1)
                i = int(idx)
                if not 0 <= i < count:
                    raise ValueError(f"cell index {i} outside 0..{count - 1}")
                if seen[i]:
                    raise ValueError(f"cell index {i} appears twice")
                seen[i] = True
                flat[i] = float(val)
        if not seen.all():
            raise ValueError(f"{count - int(seen.sum())} of {count} cells have no row")
        desc = None
        if header["descriptor"] is not None:
            d = header["descriptor"]
            desc = PowerDescriptor(d["exponent"], _support_from_json(d["support"]), d["coeff"])
        return cls(lattice, flat.reshape(lattice.shape), desc)


@dataclass
class CellRegion:
    """A set of lattice cells (boolean mask)."""

    lattice: Lattice
    mask: np.ndarray

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def measure(self) -> float:
        return self.count * self.lattice.cell_volume


def _check_grid_cube(lattice: Lattice, cube: DyadicCube) -> None:
    """Raise ``ValueError`` unless ``cube`` is the cube that its grid,
    generation and index give on ``lattice``: a cube of another lattice
    would be read as the wrong cells."""
    beta = cube.grid_id[1:]
    if not (cube.grid_id.startswith("b") and beta.isdigit() and cube.j is not None):
        raise ValueError(f"cube {cube} names no dyadic grid cube")
    want = DyadicGrid(lattice, tuple(int(b) for b in beta)).cube(cube.g, cube.j)
    if want.key() != cube.key():
        raise ValueError(
            f"cube {cube.grid_id} g={cube.g} j={cube.j} (start={cube.start} size={cube.size}) "
            f"is not on the lattice {lattice}, where it starts at {want.start} "
            f"with size {want.size}"
        )


def cube_averages(f: GridFunction, cube: DyadicCube) -> np.ndarray:
    """Average of ``f`` over one cube, as an array of shape (1,)*n,
    normalizing by the full cube volume.

    A grid cube's sum is the top of its subtree's child-sum pyramid
    (:func:`cube_levels`), so it has the bits of the cube's entry in its
    grid's pyramid; a cell-aligned cube's is :func:`window_sums` of its own
    cells, with the bits of its entry in the whole lattice's window sums.
    Cells outside the root box contribute zero.  The cube must intersect
    the box and must not be finer than the lattice, and a grid cube must be
    the one its grid, generation and index give on ``f``'s lattice.
    """
    lat = f.lattice
    if cube.g is not None:
        _check_grid_cube(lat, cube)
    if cube.size < 1:
        raise ValueError("cube is finer than the lattice resolution")
    cells = lat.cube_cells(cube)
    if any(c.start >= c.stop for c in cells):
        raise ValueError(f"cube start={cube.start} size={cube.size} misses the root box")
    if cube.g is None:
        block = f.values[cells]
        sums = window_sums(block, block.shape)
    else:
        sums = cube_levels(f.values, lat, cube)[-1]
    return sums * lat.cell_volume / lat.cube_volume(cube.size)


def cell_average(f: GridFunction, cube: DyadicCube) -> float:
    """Average of f over the cube (:func:`cube_averages`) as a float."""
    return float(cube_averages(f, cube).flat[0])
