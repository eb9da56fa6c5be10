"""Sparse families: stopping-time selection and pointwise domination.

A sparse family is a set of dyadic cubes that admits pairwise-disjoint kept
regions, each at least half of its cube.  The stopping-time construction
selects, under a root cube, the maximal cubes where the product of input
averages first exceeds a geometric ladder of thresholds; with ladder ratio
a > 2^(mn) the kept regions provably stay above half volume, and the dyadic
maximal function is dominated cellwise by a times the sparse operator.

The sparse operator itself is the positive model sum
A(f)(x) = sum over selected cubes Q containing x of prod_i avg_Q(f_i).
"""
import numpy as np

from mweights import (
    GridFunction,
    Lattice,
    ShiftedGridFamily,
    build_sparse_family,
    default_box,
    dyadic_maximal,
    sparse_operator,
)

rng = np.random.default_rng(23)
lattice = Lattice(default_box(1), L=6)
grid = ShiftedGridFamily(lattice).standard
root = grid.cube(1, (0,))           # the interval [0, 2)

# two inputs supported inside the root, sharing one sharp bump so the
# product of averages climbs the threshold ladder along the bump's ancestors
support = np.zeros(lattice.shape)
support[root.start[0] : root.start[0] + root.size] = 1.0
bump = root.start[0] + int(rng.integers(0, root.size))
fs = []
for _ in range(2):
    values = rng.uniform(0.0, 0.3, lattice.shape) * support
    values[bump] += rng.uniform(20.0, 40.0)
    fs.append(GridFunction(lattice, values))
fs = tuple(fs)

m, n = len(fs), lattice.n
a = 2.0 ** (m * n + 2)
fam = build_sparse_family(fs, grid, a=a, root=root)

print(f"stopping construction under [0,2), ladder ratio a = {a:g}:")
print(f"  base level (product of root averages): {fam.lambda0:.6f}")
print(f"  cubes selected: {len(fam)}")
for cube, count in zip(fam.cubes, fam.kept):
    kept = count / cube.size**n
    print(f"    generation {cube.g:2d}, {cube.size:3d} cells: keeps {kept:.0%}")

# the family's owner array names the one cube keeping each cell (or -1), so
# the kept regions are pairwise disjoint by construction; show the coverage
covered = int(np.count_nonzero(fam.owner >= 0))
print(f"  kept regions tile {covered} cells with no overlap")

# the domination that makes sparse operators useful
dominated = dyadic_maximal(fs, grid, g_min=root.g).values
dominating = a * sparse_operator(fam, fs).values
with np.errstate(divide="ignore", invalid="ignore"):
    quot = np.where(dominated > 0, dominated / dominating, 0.0)
print(f"\npointwise check: max of maximal/(a * sparse) = {np.max(quot):.4f} <= 1")
