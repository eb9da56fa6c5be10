"""Exponent tuples, weights, the joint Muckenhoupt-type constant, and the
slot-duality transform.

A weight is modeled as a density ``values[cell] * |x|^exponent``: the values
array is cellwise constant and strictly positive, and the power factor is
integrated in closed form on every cell. This hybrid form is closed under the
pointwise powers and products the theory needs (joint weights, duals, the
slot-duality transform), so every cube average below is an exact mass ratio
rather than a quadrature.

Averages over a cube always divide by the full cube volume; mass outside the
root box is zero. Cube families may include cubes sticking out of the box,
whose supremand values are diluted accordingly and never dominate.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ._log import debug
from .grid import (
    CellRegion,
    CubeLayout,
    DyadicCube,
    DyadicGrid,
    G_MIN,
    GridFunction,
    Lattice,
    ShiftedGridFamily,
    aligned_window_sums,
    common_lattice,
    cube_averages,
)

if TYPE_CHECKING:
    from ._draws import Draws

__all__ = [
    "ExponentTuple",
    "Weight",
    "WeightVector",
    "ApReport",
    "CubeFamily",
    "per_cube_ap",
    "ap_constant",
    "ap_constant_rows",
    "dualize",
    "random_weight",
]

# treat p within this distance of 1 as p == 1 (dual exponent undefined)
_P_ONE_TOL = 1e-9


class ExponentTuple:
    """An m-tuple of Lebesgue exponents, each in (1, infinity).

    The harmonic combination p with 1/p = sum(1/p_i) and the per-slot
    conjugates p_i' = p_i/(p_i - 1) are derived on construction. The conjugate
    of p itself is only defined when p > 1.
    """

    def __init__(self, exponents: Sequence[float]):
        exps = tuple(float(p) for p in exponents)
        if len(exps) == 0:
            raise ValueError("exponent tuple must be nonempty")
        for p in exps:
            if not (1.0 < p < float("inf")):
                raise ValueError(f"exponent {p} is outside (1, inf)")
        self.exponents = exps
        self.m = len(exps)
        self.p = 1.0 / sum(1.0 / p for p in exps)
        self.conjugates = tuple(p / (p - 1.0) for p in exps)

    @property
    def p_conj(self) -> float:
        """Conjugate of the combined exponent p; requires p > 1."""
        if self.p <= 1.0 + _P_ONE_TOL:
            raise ValueError(f"p = {self.p} has no finite conjugate (need p > 1)")
        return self.p / (self.p - 1.0)

    def __repr__(self) -> str:
        return f"ExponentTuple({self.exponents})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ExponentTuple) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)


def _power_cell_masses(lattice: Lattice, exponent: float) -> np.ndarray:
    """Exact integral of |x|^exponent over every lattice cell."""
    if exponent == 0.0:
        return np.full(lattice.shape, lattice.cell_volume)
    return lattice.power_masses(exponent)


class Weight:
    """Positive density values[cell] * |x|^exponent on a lattice.

    Construct with :meth:`power` (pure power weight, requires exponent > -n
    for local integrability), :meth:`from_values` (cellwise-constant weight),
    or :meth:`constant`. Products and pointwise powers stay in this class
    with exact exponent arithmetic; derived weights may leave the integrable
    range, in which case evaluating cell masses raises ValueError.
    """

    def __init__(
        self,
        lattice: Lattice,
        exponent: float = 0.0,
        values: Optional[np.ndarray] = None,
        _validate: bool = True,
    ):
        self.lattice = lattice
        self.exponent = float(exponent)
        if values is None:
            values = np.ones(lattice.shape)
        else:
            values = np.asarray(values, dtype=float)
        if _validate:
            if values.shape != lattice.shape:
                raise ValueError(
                    f"values shape {values.shape} != lattice shape {lattice.shape}"
                )
            if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
                raise ValueError("weight values must be finite and strictly positive")
        self.values = values
        self._masses: Optional[np.ndarray] = None
        self._density: Optional[GridFunction] = None

    # ---------------------------------------------------------- constructors
    @classmethod
    def power(cls, lattice: Lattice, a: float) -> "Weight":
        if not a > -lattice.n:
            raise ValueError(
                f"power weight |x|^{a} is not locally integrable in dimension {lattice.n}"
            )
        return cls(lattice, a)

    @classmethod
    def from_values(cls, lattice: Lattice, values: np.ndarray) -> "Weight":
        return cls(lattice, 0.0, values)

    @classmethod
    def constant(cls, lattice: Lattice, c: float = 1.0) -> "Weight":
        if not c > 0.0:
            raise ValueError("constant weight must be positive")
        return cls(lattice, 0.0, np.full(lattice.shape, float(c)))

    # --------------------------------------------------------------- algebra
    def __pow__(self, s: float) -> "Weight":
        s = float(s)
        return Weight(self.lattice, self.exponent * s, self.values**s, _validate=False)

    def __mul__(self, other: "Weight") -> "Weight":
        return Weight(
            common_lattice([self, other]),
            self.exponent + other.exponent,
            self.values * other.values,
            _validate=False,
        )

    # ------------------------------------------------------------ evaluation
    def cell_masses(self) -> np.ndarray:
        if self._masses is None:
            self._masses = self.values * _power_cell_masses(self.lattice, self.exponent)
        return self._masses

    def density(self) -> GridFunction:
        """Cell-averaged density (masses / cell volume)."""
        if self._density is None:
            self._density = GridFunction(
                self.lattice, self.cell_masses() / self.lattice.cell_volume
            )
        return self._density

    def mass_on(self, region: CellRegion) -> float:
        return float(np.sum(self.cell_masses()[region.mask]))


class WeightVector:
    """Weights (w_1, ..., w_m) tied to an exponent tuple.

    Caches the joint weight prod w_i^(p/p_i) and the slot duals
    sigma_i = w_i^(1 - p_i').
    """

    def __init__(self, weights: Sequence[Weight], exponents: ExponentTuple):
        weights = tuple(weights)
        if len(weights) != exponents.m:
            raise ValueError(
                f"{len(weights)} weights for {exponents.m} exponents"
            )
        self.weights = weights
        self.exponents = exponents
        self.lattice = common_lattice(weights)
        self._joint: Optional[Weight] = None
        self._sigmas: dict = {}

    @property
    def m(self) -> int:
        return self.exponents.m

    @property
    def joint(self) -> Weight:
        if self._joint is None:
            P = self.exponents
            out = self.weights[0] ** (P.p / P.exponents[0])
            for w, p_i in zip(self.weights[1:], P.exponents[1:]):
                out = out * w ** (P.p / p_i)
            self._joint = out
        return self._joint

    def sigma(self, i: int) -> Weight:
        if i not in self._sigmas:
            self._sigmas[i] = self.weights[i] ** (1.0 - self.exponents.conjugates[i])
        return self._sigmas[i]


def _supremand(P: ExponentTuple, averages: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """avg_Q(joint) * prod_i avg_Q(sigma_i)^(p/p_i') on every cube, from the
    averages of the joint weight and then of each dual stacked on a leading
    axis, and the mask of cubes where an average has zero mass (through
    underflow of extreme exponents) and the supremand is set to 0.  Works
    in place: the supremand is ``averages[0]``.
    """
    out = averages[0]
    degenerate = out == 0.0
    for i, avg_sig in enumerate(averages[1:]):
        degenerate |= avg_sig == 0.0
        out *= np.power(avg_sig, P.p / P.conjugates[i], out=avg_sig)
    out[degenerate] = 0.0
    return out, degenerate


def _densities(
    wvs: Sequence[WeightVector], averages: Callable[[GridFunction], np.ndarray]
) -> np.ndarray:
    """``averages`` of every row's joint weight density, then of every
    row's first dual's, and so on, stacked on one leading axis of
    ``(1 + m) * rows`` entries.  A row whose joint averages are all zero
    makes every cube degenerate; its duals, which may not be finite, are
    not evaluated and read as zeros."""
    joints = [averages(wv.joint.density()) for wv in wvs]
    out = list(joints)
    for i in range(wvs[0].m):
        out += [
            averages(wv.sigma(i).density()) if joint.any() else np.zeros_like(joint)
            for wv, joint in zip(wvs, joints)
        ]
    return np.stack(out)


def per_cube_ap(wv: WeightVector, Q: DyadicCube) -> float:
    """Supremand of the joint-weight condition on one cube:
    avg_Q(joint) * prod_i avg_Q(sigma_i)^(p/p_i').

    Runs the array kernel of :func:`ap_constant` on the cube's averages
    (:func:`grid.cube_averages`), which have the bits the scan read, so it
    returns the very value the scan saw for ``Q``.  Returns 0 (and logs) when
    an average degenerates to zero mass.
    """
    vals, degenerate = _supremand(wv.exponents, _densities([wv], lambda f: cube_averages(f, Q)))
    if degenerate.any():
        debug(__name__, "degenerate zero-mass average on %s; returning 0", Q)
    return float(vals.flat[0])


@dataclass(frozen=True)
class CubeFamily:
    """Enumerable cube family over a lattice.

    kind "shifted": all cubes of the 2^n shifted dyadic grids with generation
    in [g_min, L] that intersect the root box,
    including cubes sticking out of it. kind "aligned": every cell-aligned
    cube fully inside the box, any integer size (brute force; small lattices
    only). kind "both": union of the two.  A family with grid cubes checks
    ``g_min`` when it is built, as every grid does
    (:meth:`grid.DyadicGrid.layout`), so it is never empty.

    Scan order is grid by grid (the standard grid first), each grid's
    generations coarse to fine and each generation in C order of ``j``; then
    the aligned cubes by size.  The grid cubes' sums come from each grid's
    walk (:meth:`grid.DyadicGrid.generations`) over one child-sum pyramid;
    cell-aligned cubes do not nest, and take the doubled runs of :func:`grid.window_sums`.
    Neither can cancel.
    """

    lattice: Lattice
    kind: str = "shifted"
    g_min: int = G_MIN

    def __post_init__(self):
        if self.kind not in ("shifted", "aligned", "both"):
            raise ValueError(f"unknown cube family kind {self.kind!r}")
        if self.grids:
            self.grids[0]._check_generation(self.g_min)

    @functools.cached_property
    def grids(self) -> Tuple[DyadicGrid, ...]:
        """The shifted grids of the grid cubes, standard first; none for "aligned"."""
        return ShiftedGridFamily(self.lattice).grids if self.kind != "aligned" else ()

    def layouts(self) -> Iterator[CubeLayout]:
        """The family in scan order: one layout per (grid, generation), then
        one per cube size for "aligned"."""
        for grid in self.grids:
            for g in range(self.g_min, self.lattice.L + 1):
                yield grid.layout(g)
        if self.kind in ("aligned", "both"):
            for size in range(1, self.lattice.cells_per_axis + 1):
                yield CubeLayout.aligned(self.lattice, size)

    def cubes(self) -> Iterator[DyadicCube]:
        """Every cube one at a time, in scan order."""
        for layout in self.layouts():
            yield from layout.cubes()

    @property
    def describe(self) -> str:
        return f"{self.kind}:g[{self.g_min},{self.lattice.L}]:L{self.lattice.L}"


@dataclass(frozen=True)
class ApReport:
    """Result of maximizing the per-cube supremand over a cube family.

    ``scanned_per_generation`` counts the cubes scanned per generation,
    summed over the grids, in scan order; aligned cubes, which have no
    generation, are counted under ``None`` (``"aligned"`` in JSON).
    """

    constant: float
    argmax: Optional[DyadicCube]
    scanned: int
    family: str
    degenerate: int  # cubes whose supremand was set to 0 for zero mass
    scanned_per_generation: Dict[Optional[int], int]

    def to_json(self) -> dict:
        blob = asdict(self)
        arg = self.argmax
        blob["argmax"] = None if arg is None else {
            "grid": arg.grid_id,
            "g": arg.g,
            "j": None if arg.j is None else list(arg.j),
            "start": list(arg.start),
            "size": arg.size,
        }
        blob["scanned_per_generation"] = {
            "aligned" if g is None else str(g): k for g, k in self.scanned_per_generation.items()
        }
        return blob


def _cube_at(layouts: Sequence[CubeLayout], k: int) -> DyadicCube:
    """The cube at flat index ``k`` of the layouts' cubes, one after the other."""
    for layout in layouts:
        count = math.prod(layout.shape)
        if k < count:
            break
        k -= count
    return layout.cube(np.unravel_index(k, layout.shape))


def ap_constant_rows(wvs: Sequence[WeightVector], family: CubeFamily) -> List[ApReport]:
    """:func:`ap_constant` of every weight vector ("row") over one family.

    The rows share the lattice and the exponent tuple, and run as one
    stack: each grid's child-sum pyramid and each aligned size's doubled
    runs carry every row's densities, and :func:`_supremand` reads the rows
    one after the other along its cube axis.  Sums, products and powers
    work elementwise, so every row's report has the bits of its own
    :func:`ap_constant` call.  A NaN supremand in any row is refused, with
    its count in the first such row.
    """
    wvs = list(wvs)
    if not wvs:
        return []
    lat, P = common_lattice(wvs), wvs[0].exponents
    if any(wv.exponents != P for wv in wvs[1:]):
        raise ValueError("the rows of a stack must share one exponent tuple")
    if family.lattice != lat:
        raise ValueError(f"cube family {family.describe} is not on the weights' lattice {lat}")
    return _scan_rows(P, _densities(wvs, lambda f: f.values), family)


def _scan_rows(P: ExponentTuple, densities: np.ndarray, family: CubeFamily) -> List[ApReport]:
    """The scan of :func:`ap_constant_rows` over the stacked cell densities
    of :func:`_densities` (``(1 + m) * rows`` entries on the family's
    lattice): one report per row, the NaN supremand refused.  Each block of
    cubes is named by its layouts, and a row's argmax by ``(layouts, k)``."""
    lat = family.lattice
    rows = len(densities) // (1 + P.m)
    if not rows:
        return []
    best = [float("-inf")] * rows
    args: List[Optional[Tuple[Sequence[CubeLayout], int]]] = [None] * rows
    degenerate = np.zeros(rows, dtype=np.int64)
    nans = [0] * rows
    scanned = 0
    per_generation: Counter = Counter()

    def scan(averages: np.ndarray, layouts: Sequence[CubeLayout]) -> None:
        nonlocal scanned
        # rows stacked onto the cube axis: (1 + m, rows * cubes)
        vals, degen = _supremand(P, averages.reshape(1 + P.m, -1))
        vals = vals.reshape(rows, -1)
        scanned += vals.shape[1]
        per_generation.update({layout.g: math.prod(layout.shape) for layout in layouts})
        if degen.any():
            degenerate[:] += degen.reshape(rows, -1).sum(axis=1)
        for r, row in enumerate(vals):
            # argmax stops at the row's first NaN, so the top is NaN
            # exactly when the row holds one
            k = int(row.argmax())
            top = float(row[k])
            if top > best[r]:
                best[r], args[r] = top, (layouts, k)
            elif math.isnan(top):
                nans[r] += int(np.count_nonzero(np.isnan(row)))

    for grid in family.grids:
        layouts, sums = zip(*grid.generations(densities, family.g_min))
        averages = np.concatenate([s.reshape(len(densities), -1) for s in sums], axis=1)
        del sums
        averages *= lat.cell_volume
        counts = [math.prod(layout.shape) for layout in layouts]
        averages /= np.repeat([lat.cube_volume(layout.size) for layout in layouts], counts)
        scan(averages, layouts)
        del averages  # before the next grid's pyramid
    if family.kind in ("aligned", "both"):
        for size, sums in aligned_window_sums(densities, lat.n):
            scan(sums * lat.cell_volume / lat.cube_volume(size), [CubeLayout.aligned(lat, size)])
    for r, count in enumerate(nans):
        if count:
            where = f" in row {r}" if rows > 1 else ""
            raise ValueError(
                f"{count} of {scanned} cubes of {family.describe} have a NaN supremand{where}"
            )
    if degenerate.any():
        debug(
            __name__,
            "%d of %d cubes degenerate to zero mass; their supremand is 0",
            int(degenerate.sum()),
            scanned * rows,
        )
    return [
        ApReport(b, arg and _cube_at(*arg), scanned, family.describe, int(d), dict(per_generation))
        for b, arg, d in zip(best, args, degenerate)
    ]


def ap_constant(wv: WeightVector, family: CubeFamily) -> ApReport:
    """Maximum of per_cube_ap over the family, with the argmax recorded.

    Scans the family in its scan order (:meth:`CubeFamily.layouts`), one
    pass per grid and one per aligned cube size, over the stacked densities
    of the joint weight and its duals.  A grid's cubes, every generation
    coarse to fine, come from its walk over one child-sum pyramid
    (:meth:`grid.DyadicGrid.generations`); each size of aligned cubes from
    :func:`grid.aligned_window_sums`, which builds the doubled runs along
    the first cell axis once for every size.  Deterministic: ties keep the
    first maximizer.
    A family on another lattice than the weights' is rejected, and so is a
    NaN supremand, with the number of cubes that gave one, instead of being
    passed over.  This is the one-row case of :func:`ap_constant_rows`.
    """
    return ap_constant_rows([wv], family)[0]


def dualize(wv: WeightVector, i: int) -> WeightVector:
    """Slot-duality transform: replace slot i by the joint weight raised to
    1 - p' and exponent p_i by p'.

    The per-cube supremand of the transformed vector equals that of the
    original raised to p_i'/p, cube by cube; this is an exact algebraic
    identity on averages and is what makes one-slot dual bounds equivalent to
    the primal ones. Requires p > 1.
    """
    P = wv.exponents
    if not 0 <= i < P.m:
        raise ValueError(f"slot {i} out of range for m={P.m}")
    p_conj = P.p_conj  # raises for p <= 1
    new_weights = list(wv.weights)
    new_weights[i] = wv.joint ** (1.0 - p_conj)
    new_exps = list(P.exponents)
    new_exps[i] = p_conj
    return WeightVector(new_weights, ExponentTuple(new_exps))


def random_weight(rng: Draws, lattice: Lattice, p_i: float) -> Weight:
    """A random admissible weight for slot exponent ``p_i``: a power law or
    dyadic steps, with even odds, drawn from ``rng``, a :class:`Draws` (or
    anything with its ``random``, ``uniform`` and ``integers``).

    Power exponents stay in (-0.4, min(1.5, 0.9 (p_i - 1))), where both the
    weight and its slot dual are locally integrable with margin.
    """
    if rng.random() < 0.5:
        hi = min(1.5, 0.9 * (p_i - 1.0))
        return Weight.power(lattice, float(rng.uniform(-0.4, hi)))
    steps = 2.0 ** rng.integers(-3, 4, size=lattice.shape).astype(float)
    return Weight.from_values(lattice, steps)
