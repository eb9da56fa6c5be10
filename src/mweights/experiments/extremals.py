"""Singular extremal input families that drive the sharpness sweeps.

Each family concentrates a power-law spike of strength ``eps`` at the
origin, together with power weights tuned so that the weight constant, the
input norms, and the operator's output all blow up at rates whose quotient
exposes the sharp exponent.  Slots are permuted so the slot with the
largest conjugate exponent always comes first; the ratio is symmetric under
the permutation, and the first-slot formulas below assume it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..grid import CellRegion, GridFunction, Lattice, default_box
from ..powermass import Ball, Interval
from ..weights import ExponentTuple, Weight, WeightVector
from .norms import Minorant, analytic_power_norm

__all__ = [
    "ExtremalProblem",
    "maximal_extremal",
    "maximal_problem",
    "riesz_extremal",
    "riesz_problem",
]

# kernel cone bounds on the evaluation side: numerator and squared-distance
# estimates for |y_j| <= |x| give these uniform constants in one dimension
_DIRECT_CONE_CONSTANT = 2.0**-3.5
_ADJOINT_CONE_CONSTANT = 2.0**-4.5


@dataclass(frozen=True)
class ExtremalProblem:
    """One sweep point: inputs, weights, exact norms, and norm instructions."""

    eps: float
    fs: Tuple[GridFunction, ...]
    weight_vector: WeightVector
    rhs_norms: Tuple[float, ...]
    lhs_exponent: float
    lhs_weight: Weight
    region: Optional[CellRegion]
    minorant: Optional[Minorant]
    kind: str


def _as_exponents(exponents: Union[ExponentTuple, Sequence[float]]) -> ExponentTuple:
    if isinstance(exponents, ExponentTuple):
        return exponents
    return ExponentTuple(tuple(exponents))


def _check_eps(eps: float) -> float:
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    return float(eps)


def _check_box(lattice: Lattice) -> None:
    if lattice.box != default_box(lattice.n):
        raise ValueError("extremal families are built on the default box")


def _permute_leading_conjugate(et: ExponentTuple) -> ExponentTuple:
    order = sorted(range(et.m), key=lambda i: (-et.conjugates[i], i))
    return ExponentTuple(tuple(et.exponents[i] for i in order))


def _interval_cells(lattice: Lattice, lo: float, hi: float) -> np.ndarray:
    """Mask of cells fully contained in [lo, hi]."""
    N = lattice.cells_per_axis
    h = lattice.h
    left = lattice.box.lo[0]
    starts = left + np.arange(N) * h
    return (starts >= lo - 1e-12) & (starts + h <= hi + 1e-12)


def maximal_extremal(
    exponents: Union[ExponentTuple, Sequence[float]], eps: float, lattice: Lattice
) -> Tuple[Tuple[GridFunction, ...], WeightVector]:
    """Power spikes on the unit ball with the first-slot weight tuned.

    First slot: ``f_1 = |x|^{eps-n}`` with weight ``|x|^{(n-eps)(p_1-1)}``;
    remaining slots: ``f_j = |x|^{(eps-n)/p_j}`` with unit weights.  The
    joint weight then has exponent ``(n-eps) p/p_1'``.
    """
    et = _as_exponents(exponents)
    eps = _check_eps(eps)
    _check_box(lattice)
    etp = _permute_leading_conjugate(et)
    n = lattice.n
    ball = Ball(1.0, n)
    fs = [GridFunction.from_power(lattice, eps - n, ball)]
    for p_j in etp.exponents[1:]:
        fs.append(GridFunction.from_power(lattice, (eps - n) / p_j, ball))
    ws = [Weight.power(lattice, (n - eps) * (etp.exponents[0] - 1.0))]
    ws.extend(Weight.constant(lattice) for _ in range(etp.m - 1))
    return tuple(fs), WeightVector(tuple(ws), etp)


def maximal_problem(
    exponents: Union[ExponentTuple, Sequence[float]], eps: float, lattice: Lattice
) -> ExtremalProblem:
    """Full sweep bundle for the maximal-operator family."""
    fs, wv = maximal_extremal(exponents, eps, lattice)
    etp = wv.exponents
    rhs = tuple(
        analytic_power_norm(f, p_i, w_i)
        for f, p_i, w_i in zip(fs, etp.exponents, wv.weights)
    )
    minorant = None
    if lattice.n == 1:
        # averaging each input over the centered interval [-|x|, |x|] gives
        # the pointwise bound prod_i |x|^{a_i}/(a_i+1) inside the ball
        coeff = 1.0
        exponent = 0.0
        for f in fs:
            a = f.descriptor.exponent
            coeff /= a + 1.0
            exponent += a
        minorant = Minorant(
            coeff=coeff,
            exponent=exponent,
            mask=_interval_cells(lattice, -1.0, 1.0),
        )
    return ExtremalProblem(
        eps=eps,
        fs=fs,
        weight_vector=wv,
        rhs_norms=rhs,
        lhs_exponent=etp.p,
        lhs_weight=wv.joint,
        region=None,
        minorant=minorant,
        kind="maximal",
    )


def _riesz_checks(
    exponents: Union[ExponentTuple, Sequence[float]],
    eps: float,
    lattice: Lattice,
    variant: str,
) -> ExponentTuple:
    et = _as_exponents(exponents)
    eps = _check_eps(eps)
    _check_box(lattice)
    if lattice.n != 1:
        raise ValueError("the singular-integral families live on one-dimensional lattices")
    if et.m != 2:
        raise ValueError("the singular-integral families are bilinear (m = 2)")
    if variant not in ("direct", "adjoint_slot1"):
        raise ValueError(f"unknown variant {variant!r}")
    etp = _permute_leading_conjugate(et)
    p = etp.p
    cmax = etp.conjugates[0]
    tol = 1e-9
    if variant == "direct":
        if not (p >= 1.0 - tol and cmax >= p - tol):
            raise ValueError(
                f"direct variant needs p >= 1 and max conjugate >= p; "
                f"P={et.exponents} has p={p:g}, max p_i'={cmax:g} — "
                f"exponents with p above every conjugate belong to the "
                f"adjoint_slot1 regime"
            )
    else:
        if not p > cmax + tol:
            raise ValueError(
                f"adjoint_slot1 variant needs p strictly above every "
                f"conjugate exponent; P={et.exponents} has p={p:g}, "
                f"max p_i'={cmax:g} — these exponents belong to the "
                f"direct regime"
            )
    return etp


def riesz_extremal(
    exponents: Union[ExponentTuple, Sequence[float]],
    eps: float,
    lattice: Lattice,
    variant: str = "direct",
) -> Tuple[Tuple[GridFunction, ...], WeightVector, CellRegion]:
    """Cone-supported power spikes with the evaluation region.

    Direct: both inputs live on [-1, 0] and evaluation runs over (0, 1].
    Adjoint: the first input moves to [0, 1], the second stays on [-1, 0],
    and evaluation runs over [-1, 0); the first-slot weight is
    ``|x|^{(eps-n) p_1/p}``, which is deliberately allowed to be
    non-integrable — only its dual and the joint weight are ever integrated.
    """
    etp = _riesz_checks(exponents, eps, lattice, variant)
    eps = float(eps)
    n = 1
    p1, p2 = etp.exponents
    neg = Interval(-1.0, 0.0)
    pos = Interval(0.0, 1.0)
    if variant == "direct":
        f1 = GridFunction.from_power(lattice, eps - n, neg)
        f2 = GridFunction.from_power(lattice, (eps - n) / p2, neg)
        w1 = Weight.power(lattice, (n - eps) * (p1 - 1.0))
        region = CellRegion(lattice, _interval_cells(lattice, 0.0, 1.0))
    else:
        f1 = GridFunction.from_power(lattice, eps - n, pos)
        f2 = GridFunction.from_power(lattice, (eps - n) / p2, neg)
        w1 = Weight(lattice, exponent=(eps - n) * p1 / etp.p)
        region = CellRegion(lattice, _interval_cells(lattice, -1.0, 0.0))
    w2 = Weight.constant(lattice)
    wv = WeightVector((w1, w2), etp)
    return (f1, f2), wv, region


def riesz_problem(
    exponents: Union[ExponentTuple, Sequence[float]],
    eps: float,
    lattice: Lattice,
    variant: str = "direct",
) -> ExtremalProblem:
    """Full sweep bundle for the singular-integral families."""
    fs, wv, region = riesz_extremal(exponents, eps, lattice, variant)
    etp = wv.exponents
    p = etp.p
    a1 = fs[0].descriptor.exponent
    a2 = fs[1].descriptor.exponent
    if variant == "direct":
        rhs = tuple(
            analytic_power_norm(f, p_i, w_i)
            for f, p_i, w_i in zip(fs, etp.exponents, wv.weights)
        )
        lhs_exponent = p
        lhs_weight = wv.joint
        cone = _DIRECT_CONE_CONSTANT
    else:
        p_conj = etp.p_conj
        dual_joint = Weight(lattice, exponent=(1.0 - eps) * (p_conj - 1.0))
        rhs = (
            analytic_power_norm(fs[0], p_conj, dual_joint),
            analytic_power_norm(fs[1], etp.exponents[1], wv.weights[1]),
        )
        lhs_exponent = etp.conjugates[0]
        lhs_weight = Weight(lattice, exponent=(1.0 - eps) * etp.conjugates[0] / p)
        cone = _ADJOINT_CONE_CONSTANT
    minorant = Minorant(
        coeff=cone / ((a1 + 1.0) * (a2 + 1.0)),
        exponent=a1 + a2,
        mask=region.mask.copy(),
    )
    return ExtremalProblem(
        eps=eps,
        fs=fs,
        weight_vector=wv,
        rhs_norms=rhs,
        lhs_exponent=lhs_exponent,
        lhs_weight=lhs_weight,
        region=region,
        minorant=minorant,
        kind=f"riesz:{variant}",
    )
