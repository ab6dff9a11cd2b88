"""Algebras, structure constants and cohomology dimensions.

Run:  python3 demos/01_cohomology_basics.py
"""

from liecoh.catalog import catalog
from liecoh.cohomology import cohomology
from liecoh.liealg import Representation, center, derivations

# Every algebra is a basis plus structure constants over exact rationals;
# a bracket is kept as the nonzero (index, coefficient) pairs of its value.
h3 = catalog("heisenberg3")
print("basis:", h3.labels)
print("[p, q] =", " + ".join(f"{c} {h3.labels[k]}" for k, c in h3.bracket_basis(0, 1)),
      " (the central element)")

# The center falls out of one exact kernel computation; a subspace keeps
# each basis vector as its nonzero (index, value) pairs.
print("center:", center(h3).pairs)

# Derivations solve the Leibniz system over End(L); the 3-dimensional
# nilpotent algebra has a 6-dimensional derivation algebra.
print("dim der:", derivations(h3).dim)

# Cohomology with trivial coefficients: dimensions are exact ranks, so
# there is never a tolerance to tune.
trivial = Representation.trivial(h3, 1)
for p in range(4):
    space = cohomology(trivial, p)
    print(f"H^{p}: cocycles {space.dim_cocycles}, "
          f"coboundaries {space.dim_coboundaries}, dim {space.h_dim}")

# The simple algebra sl2 has vanishing low cohomology and a line in
# degree three.
sl2 = catalog("sl2")
dims = [cohomology(Representation.trivial(sl2, 1), p).h_dim for p in range(4)]
print("sl2 trivial-coefficient dims:", dims)
