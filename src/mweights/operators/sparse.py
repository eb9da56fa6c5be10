"""Sparse cube families via level-set stopping, and the operators they carry.

The construction scans one grid's cube tree under a root cube, one
generation at a time as array passes: a cube is selected when its product
of averages first exceeds ``a**k`` times the root level for some new
threshold index ``k``.  Each selected cube keeps the cells not claimed by
any deeper selected cube.  A family stores its kept regions as one owner
array over the lattice, so they are pairwise disjoint by their format; the
half-volume guarantee on them is verified, never assumed.

Each family is built on its own, but families that share a root apply as
one stack: :func:`sparse_operator_rows` reads one child-sum pyramid of the
root's subtree for every family's inputs and adds each cube size's products
in one pass, coarse to fine, with the bits one :func:`sparse_operator` call
per family gives.  The upper-bound audit applies its trials' families that
way, a stack of at most 2^15 lattice cells at a time.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    averages over cubes of ``size`` cells, from their sums."""
    return (sums * lat.cell_volume / lat.cube_volume(size)).prod(axis=0)


def build_sparse_family(
    gs: Sequence[GridFunction],
    grid: DyadicGrid,
    a: Optional[float] = None,
    *,
    root: DyadicCube,
) -> SparseFamily:
    """Level-set stopping construction under ``root``.

    The base level is the product of root averages; threshold ``k`` is
    ``a**k`` times that.  Selected cubes are the maximal ones exceeding a
    threshold no ancestor reached, plus the root itself.  Raises
    :class:`SparsenessError` if any kept region drops below half of its
    cube.
    """
    lat = common_lattice([*gs, grid])
    if root.grid_id != grid.grid_id:
        raise ValueError("root must be a cube of the same grid")
    if not lat.holds(root):
        raise ValueError("root cube must lie inside the box")
    m = len(gs)
    floor = 2.0 ** (m * lat.n)
    if a is None:
        a = 2.0 ** (m * lat.n + 2)
    if not a > floor:
        raise ValueError(
            f"stopping ratio a={a} must exceed 2^(m n) = {floor:g}"
        )

    outside = np.ones(lat.shape, dtype=bool)
    outside[lat.cube_cells(root)] = False
    for g in gs:
        if (g.values[outside] != 0.0).any():
            raise ValueError("root cube must contain the joint support")

    levels = cube_levels(np.stack([g.values for g in gs]), lat, root)
    tables = {2**k: _products(lat, sums, 2**k) for k, sums in enumerate(levels)}
    lambda0 = float(tables[root.size].flat[0])
    owner = np.full(lat.shape, -1, dtype=np.int64)
    cubes: List[DyadicCube] = [root]
    owner[lat.cube_cells(root)] = 0

    if lambda0 == 0.0:
        debug(__name__, "root product average is zero; family is the root alone")
    else:
        # the thresholds tau = a*lambda0, a*(a*lambda0), ... as a scalar loop
        # makes them, up to the first one no value exceeds; a value's
        # threshold index is the number of thresholds below it
        top = max(float(t.max()) for t in tables.values())
        taus = [a * lambda0]
        while top > taus[-1]:
            taus.append(taus[-1] * a)
        taus = np.array(taus)
        # one pass per generation, coarse to fine, painting the owner of
        # each selected cube's cells over its ancestors'.  env is the largest
        # threshold index any ancestor exceeded.  A zero cube has index 0, so
        # it is never selected, and inputs are nonnegative, so neither are
        # its descendants: they are zero too
        env = np.zeros((1,) * lat.n, dtype=np.int64)
        size = root.size // 2
        while size >= 1:
            for axis in range(lat.n):
                env = env.repeat(2, axis=axis)
            exceed = taus.searchsorted(tables[size])
            for index in zip(*(exceed > env).nonzero()):
                start = [s + int(k) * size for s, k in zip(root.start, index)]
                cube = grid.cube_containing_cell(start, lat.L - size.bit_length() + 1)
                owner[lat.cube_cells(cube)] = len(cubes)
                cubes.append(cube)
            env = np.maximum(env, exceed)
            size //= 2

    return SparseFamily(
        cubes=tuple(cubes),
        lattice=lat,
        owner=owner,
        a=float(a),
        lambda0=float(lambda0),
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
