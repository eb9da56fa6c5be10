"""Maximal operators: certified brackets and the weighted ceiling.

The multilinear maximal function takes the sup, over all cubes containing a
point, of the product of the m input averages.  Scanning every cube is not
tractable, so the toolkit scans the dyadic cubes of a small family of
shifted grids and returns a certified bracket: a lower envelope (a real sup
over scanned cubes) and an upper envelope (the shift-covering bound).  The
true sup over all cubes sits in between.

The weighted dyadic maximal function replaces plain averages by w-averages;
its L^p(w) operator norm never exceeds the conjugate exponent p', whatever
the weight.  Both facts are demonstrated below.
"""
import numpy as np

from mweights import (
    GridFunction,
    Lattice,
    ShiftedGridFamily,
    Weight,
    default_box,
    grid_lp_norm,
    multilinear_maximal,
    weighted_dyadic_maximal,
)
from mweights.selftest import brute_multilinear

rng = np.random.default_rng(11)
lattice = Lattice(default_box(1), L=6)

# two random nonnegative inputs
fs = tuple(GridFunction(lattice, rng.uniform(0.05, 1.0, lattice.shape)) for _ in range(2))
lower, upper = multilinear_maximal(fs)

# brute force over every cell-aligned interval for comparison
brute = brute_multilinear(fs)

inside = np.all(lower.values <= brute * (1 + 1e-12)) and np.all(
    brute <= upper.values * (1 + 1e-12)
)
print("bilinear maximal bracket on 64 cells:")
print(f"  lower <= brute-force sup <= upper on every cell: {inside}")
print(f"  worst upper/lower ratio: {np.max(upper.values / lower.values):.2f} "
      f"(guaranteed <= 6^(mn) 2^n = {6.0**2 * 2:.0f})")
print(f"  median slack brute/lower: {np.median(brute / lower.values):.4f} "
      "(the lower envelope is usually tight)")

# --- weighted maximal ceiling ---------------------------------------------
lattice9 = Lattice(default_box(1), L=9)
grid = ShiftedGridFamily(lattice9).standard
values = rng.uniform(0.01, 1.0, lattice9.shape)
values[rng.integers(0, lattice9.shape[0], 4)] *= 250.0   # a few spikes
f = GridFunction(lattice9, values)
w = Weight.power(lattice9, 0.7)

print("\nweighted dyadic maximal, spiky f against |x|^0.7:")
mf = weighted_dyadic_maximal(f, w, grid).values
for p in (1.5, 2.0, 3.0):
    p_conj = p / (p - 1.0)
    ratio = grid_lp_norm(mf, p, w) / grid_lp_norm(f.values, p, w)
    print(f"  p = {p}: norm ratio {ratio:.4f} <= p' = {p_conj:.4f}")
