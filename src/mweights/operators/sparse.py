"""Sparse cube families via level-set stopping, and the operators they carry.

The construction scans one grid's cube tree under a root cube, one
generation at a time as array passes: a cube is selected when its product
of averages first exceeds ``a**k`` times the root level for some new
threshold index ``k``.  Each selected cube keeps the cells not claimed by
any deeper selected cube.  A family stores its kept regions as one owner
array over the lattice, so they are pairwise disjoint by their format; the
half-volume guarantee on them is verified, never assumed.

Families that share a root are walked and applied as stacks, with the bits
one call per family gives.  :func:`_stopping_walks` reads one child-sum
pyramid of the root's subtree for every row of inputs and walks every row's
generation at once; :func:`build_sparse_family` assembles and verifies one
row's family, from its own one-row walk or from a row of a stack walked
beforehand.  :func:`sparse_operator_rows` reads one pyramid for every
family's inputs and adds each cube size's products in one pass, coarse to
fine.  The upper-bound audit walks and applies its trials' families that
way, a stack of at most 2^15 lattice cells at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .._log import debug
from ..grid import (
    CellRegion, DyadicCube, DyadicGrid, GridFunction, Lattice, common_lattice, cube_levels
)

__all__ = [
    "SparseFamily",
    "SparsenessError",
    "build_sparse_family",
    "sparse_operator",
    "sparse_operator_rows",
]


class SparsenessError(RuntimeError):
    """A constructed family missed the half-volume guarantee."""


@dataclass(frozen=True)
class SparseFamily:
    """Selected cubes with their pairwise-disjoint kept regions.

    ``owner`` is an integer array of the lattice's shape giving each cell
    the index in ``cubes`` of the cube that keeps it, or -1 where no cube
    does, so every cell belongs to at most one kept region.  Invariants,
    checked at construction cube by cube in family order: the first cube is
    the root, every cube lies inside the box and is a cube of the root's
    grid inside the root, every kept cell lies inside its cube, and each
    cube keeps at least half of its cells.

    A built family lists its cubes coarse to fine: the root first, then each
    generation's selected cubes in C order of their index ``j``.
    """

    cubes: Tuple[DyadicCube, ...]
    lattice: Lattice
    owner: np.ndarray
    a: float
    lambda0: float
    root: DyadicCube

    def __post_init__(self):
        if not self.cubes:
            raise ValueError("a sparse family holds at least the root cube")
        lat, owner = self.lattice, self.owner
        if owner.shape != lat.shape or not np.issubdtype(owner.dtype, np.integer):
            raise ValueError(f"owner must be an integer array of the lattice's shape {lat.shape}")
        if owner.min() < -1 or owner.max() >= len(self.cubes):
            raise ValueError(f"owner names a cube outside 0..{len(self.cubes) - 1} or -1")
        if self.cubes[0] != self.root:
            raise ValueError("the first cube of a sparse family must be its root")
        kept = self.kept
        for k, cube in enumerate(self.cubes):
            if not lat.holds(cube):
                raise ValueError(f"cube {cube.key()} sticks out of the box")
            if cube.grid_id != self.root.grid_id or not self.root.contains(cube):
                raise ValueError(f"cube {cube.key()} is not a cube of the root's subtree")
            if np.count_nonzero(owner[lat.cube_cells(cube)] == k) != kept[k]:
                raise ValueError(f"kept region of {cube.key()} leaves its cube")
            total = cube.size**lat.n
            if kept[k] < total / 2.0:
                raise SparsenessError(
                    f"cube {cube.key()} keeps only {kept[k]} of {total} cells; "
                    f"the stopping ratio a={self.a:g} is too small for these "
                    f"inputs — retry with a larger ratio (for example "
                    f"a={4 * self.a:g})"
                )

    def __len__(self) -> int:
        return len(self.cubes)

    @property
    def grid_id(self) -> str:
        """The id of the root's grid, which holds every cube of the family."""
        return self.root.grid_id

    @property
    def kept(self) -> np.ndarray:
        """The number of cells each cube keeps, in family order."""
        return np.bincount(self.owner.ravel() + 1, minlength=len(self.cubes) + 1)[1:]

    @property
    def regions(self) -> Tuple[CellRegion, ...]:
        """Each cube's kept cells as a lattice mask, in family order."""
        return tuple(CellRegion(self.lattice, self.owner == k) for k in range(len(self.cubes)))

    def to_json(self) -> List[dict]:
        return [
            {
                "grid": self.grid_id,
                "g": cube.g,
                "j": None if cube.j is None else list(cube.j),
                "eq_cells": int(count),
            }
            for cube, count in zip(self.cubes, self.kept)
        ]


def _products(lat: Lattice, sums: np.ndarray, size: int) -> np.ndarray:
    """Products over the inputs (the leading axis of ``sums``) of their
    averages over cubes of ``size`` cells, from their sums.  The inputs
    multiply in order, as ``prod(axis=0)`` does, with one average made at a
    time."""
    out = None
    for s in sums:
        average = s * lat.cell_volume
        average /= lat.cube_volume(size)
        if out is None:
            out = average
        else:
            out *= average
    return out


def _stopping_ratio(a: Optional[float], m: int, n: int) -> float:
    """The stopping ratio for ``m`` inputs in ``n`` dimensions: ``a``, or
    2^(m n + 2) when it is None.  It must exceed 2^(m n)."""
    floor = 2.0 ** (m * n)
    if a is None:
        a = 2.0 ** (m * n + 2)
    if not a > floor:
        raise ValueError(f"stopping ratio a={a} must exceed 2^(m n) = {floor:g}")
    return float(a)


class _Walk(NamedTuple):
    """One row's stopping walk: the ratio it ran at, its cubes in family
    order, the owner array of their kept cells and the root level."""

    a: float
    cubes: Tuple[DyadicCube, ...]
    owner: np.ndarray
    lambda0: float


def _stopping_walks(
    rows: Sequence[Sequence[GridFunction]],
    grid: DyadicGrid,
    a: Optional[float] = None,
    *,
    root: DyadicCube,
) -> List[_Walk]:
    """The level-set stopping walk under ``root`` of every tuple of inputs
    ("row"), as one stack.

    One child-sum pyramid of the root's subtree (:func:`grid.cube_levels`)
    carries every row's inputs; each level becomes every row's products of
    averages and is dropped.  Row r's thresholds are ``a * lambda0``,
    ``a * (a * lambda0)``, ... up to the first that no value of the row
    exceeds, and a value's threshold index is the number of its row's
    thresholds below it.  Then one pass per generation, coarse to fine,
    selects in every row the cubes whose index exceeds the largest one any
    ancestor reached, and paints their family index over their ancestors'.
    Every step works elementwise along the row axis, with the scalar
    arithmetic of one row, so each row has the bits of a walk on it alone.
    """
    rows = [tuple(fs) for fs in rows]
    lat = common_lattice([*(f for fs in rows for f in fs), grid])
    if root.grid_id != grid.grid_id:
        raise ValueError("root must be a cube of the same grid")
    if not lat.holds(root):
        raise ValueError("root cube must lie inside the box")
    if any(len(fs) != len(rows[0]) for fs in rows[1:]):
        raise ValueError("the rows of a stack must have the same number of inputs")
    a = _stopping_ratio(a, len(rows[0]), lat.n)
    R, n = len(rows), lat.n
    # the pyramid of the root's cells alone, cut out so that the stack holds
    # no other cell and read as a cube at their origin; the root lies inside
    # the box, so this pairs the cells the root's own pyramid pairs
    cells = lat.cube_cells(root)
    stack = np.stack([[f.values[cells] for f in fs] for fs in rows])
    levels = cube_levels(stack, lat, DyadicCube.aligned((0,) * n, root.size))
    del stack
    # level k's products, (row, offsets...) for every cube of 2^k cells, and
    # each row's largest product; the pyramid goes level by level
    tables, top = [], np.zeros(R)
    for k in range(len(levels)):
        table = _products(lat, levels[k].swapaxes(0, 1), 2**k)
        levels[k] = None
        np.maximum(top, table.reshape(R, -1).max(axis=1), out=top)
        tables.append(table)
    del levels
    lambda0 = tables[-1].reshape(R)
    if not lambda0.all():
        debug(
            __name__,
            "root product average is zero in %d of %d rows; their families are the root alone",
            R - np.count_nonzero(lambda0),
            R,
        )
    # every row's thresholds as a scalar loop makes them; a row whose root
    # level is zero gets none below infinity, and a row that stops early
    # gets more, each above all its values, which no index counts
    taus = [np.where(lambda0 != 0.0, a * lambda0, np.inf)]
    while (top > taus[-1]).any():
        taus.append(taus[-1] * a)
    taus = np.stack(taus, axis=1)
    # every row's thresholds in one sorted array.  A threshold lies below a
    # value exactly when fewer of the array's entries lie below it than
    # below the value, so each row's thresholds below a value are counted
    # by one search of these ranks, offset by row into one sorted array.
    # Python sorts these few numbers: numpy's sort would page in about
    # 0.15 MiB of its own code in a process that sorts nothing else
    merged = np.array(sorted(taus.ravel().tolist()))
    stride = np.arange(R).reshape((R,) + (1,) * n)
    row_keys, firsts = stride * (merged.size + 1), stride * taus.shape[1]
    keys = (merged.searchsorted(taus) + row_keys.reshape(R, 1)).ravel()
    # env: the largest threshold index any ancestor exceeded; label: the
    # family index of the cube that keeps each cell so far.  A zero cube has
    # index 0, so it is never selected, and inputs are nonnegative, so
    # neither are its descendants: they are zero too
    env = np.zeros((R,) + (1,) * n, dtype=np.int64)
    label = np.zeros_like(env)
    cubes: List[List[DyadicCube]] = [[root] for _ in range(R)]
    for k in range(len(tables) - 2, -1, -1):
        size = 2**k
        g = lat.L - k
        base = grid.base(k)
        for axis in range(1, n + 1):
            env = env.repeat(2, axis=axis)
            label = label.repeat(2, axis=axis)
        exceed = merged.searchsorted(tables[k])
        tables[k] = None
        exceed += row_keys
        exceed = keys.searchsorted(exceed)
        exceed -= firsts
        r, *index = (exceed > env).nonzero()
        if r.size:
            # each cube's index j from its start, in Python integers: in the
            # audit, numpy's integer division would page in 64 KiB of its
            # code for these few cubes
            starts = zip(*((s + i * size).tolist() for s, i in zip(root.start, index)))
            paint = []
            for q, start in zip(r.tolist(), starts):
                j = tuple((c - b) // size for c, b in zip(start, base))
                paint.append(len(cubes[q]))
                cubes[q].append(DyadicCube(grid.grid_id, g, j, start, size))
            label[(r, *index)] = paint
        env = np.maximum(env, exceed, out=exceed)
    walks = []
    for cs, row_label, level in zip(cubes, label, lambda0):
        owner = np.full(lat.shape, -1, dtype=np.int64)
        owner[cells] = row_label
        walks.append(_Walk(a, tuple(cs), owner, float(level)))
    return walks


def build_sparse_family(
    gs: Sequence[GridFunction],
    grid: DyadicGrid,
    a: Optional[float] = None,
    *,
    root: DyadicCube,
    _walk: Optional[_Walk] = None,
) -> SparseFamily:
    """Level-set stopping construction under ``root``.

    The base level is the product of root averages; threshold ``k`` is
    ``a**k`` times that.  Selected cubes are the maximal ones exceeding a
    threshold no ancestor reached, plus the root itself.  Raises
    :class:`SparsenessError` if any kept region drops below half of its
    cube.

    The walk is :func:`_stopping_walks` on ``gs`` alone, unless ``_walk``
    passes this row's walk from a stack of rows run beforehand under the
    same root, at the same ratio; the family has the same bits either way,
    and is assembled and verified here.
    """
    gs = tuple(gs)
    lat = common_lattice([*gs, grid])
    if _walk is None:
        _walk = _stopping_walks([gs], grid, a, root=root)[0]
    elif _walk.a != _stopping_ratio(a, len(gs), lat.n):
        raise ValueError(f"the walk ran at a={_walk.a:g}, not at the family's ratio")
    # a nonzero cell outside the root makes the lattice hold more nonzero
    # cells than the root does
    cells = lat.cube_cells(root)
    for g in gs:
        if np.count_nonzero(g.values) != np.count_nonzero(g.values[cells]):
            raise ValueError("root cube must contain the joint support")
    return SparseFamily(
        cubes=_walk.cubes,
        lattice=lat,
        owner=_walk.owner,
        a=_walk.a,
        lambda0=_walk.lambda0,
        root=root,
    )


def sparse_operator_rows(
    families: Sequence[SparseFamily], rows: Sequence[Sequence[GridFunction]]
) -> List[GridFunction]:
    """:func:`sparse_operator` of every family on its own tuple of inputs
    ("row").

    The families share one root, so the rows run as one stack: one
    child-sum pyramid of the root's subtree (:func:`grid.cube_levels`)
    carries every row's inputs, level k holding every cube of 2^k cells by
    its offset from the root's start.  Then each cube size, coarse to fine,
    reads the averages of every row's cubes of that size in one gather and
    adds their products onto the cubes' cells in one pass.  Sums and
    products work elementwise, and each cell adds its cubes coarse to fine,
    which is the family order of a built family, so every row has the bits
    of its own :func:`sparse_operator` call.
    """
    families, rows = list(families), [tuple(fs) for fs in rows]
    if len(families) != len(rows):
        raise ValueError(f"{len(families)} sparse families for {len(rows)} rows of inputs")
    if not rows:
        return []
    lat = common_lattice([*families, *(f for fs in rows for f in fs)])
    root = families[0].root
    if any(fam.root != root for fam in families[1:]):
        raise ValueError("the sparse families of a stack must share one root")
    if any(len(fs) != len(rows[0]) for fs in rows[1:]):
        raise ValueError("the rows of a stack must have the same number of inputs")
    levels = cube_levels(np.stack([[f.values for f in fs] for fs in rows]), lat, root)
    # per cube size, the row and the offset from the root of each cube
    by_size: Dict[int, List[Tuple[int, ...]]] = {}
    for r, fam in enumerate(families):
        for cube in fam.cubes:
            offset = tuple((s - q) // cube.size for s, q in zip(cube.start, root.start))
            by_size.setdefault(cube.size, []).append((r,) + offset)
    out = np.zeros((len(rows),) + lat.shape)
    # the root lies inside the box: its cells, and each size's blocks of them
    # as (row, offsets..., cells...)
    under = out[(slice(None),) + lat.cube_cells(root)]
    order = (0, *range(1, 2 * lat.n, 2), *range(2, 2 * lat.n + 1, 2))
    for size in sorted(by_size, reverse=True):
        index = tuple(np.array(by_size[size]).T)
        sums = levels[size.bit_length() - 1][index[:1] + (slice(None),) + index[1:]]
        blocks = under.reshape((len(rows),) + (root.size // size, size) * lat.n).transpose(order)
        products = _products(lat, sums.T, size)
        np.add.at(blocks, index, products.reshape(products.shape + (1,) * lat.n))
    return [GridFunction(lat, values) for values in out]


def sparse_operator(fam: SparseFamily, fs: Sequence[GridFunction]) -> GridFunction:
    """Sum over selected cubes of the product of averages times the cube.

    Every cube lies under the family's root, so the averages come from the
    root's child-sum pyramid (:func:`grid.cube_levels`).  This is the
    one-row case of :func:`sparse_operator_rows`.
    """
    return sparse_operator_rows([fam], [fs])[0]
