"""Derivations and automorphisms of an extension.

Run:  python3 demos/04_symmetries_of_extensions.py
"""

from liecoh.catalog import catalog
from liecoh.cochains import Cochain
from liecoh.linalg import Matrix
from liecoh.symmetry import (automorphism_pair_obstruction, extension_derivations,
                             lifting_cocycle)

# The derivations of an extension sit in a four-term exact sequence:
# center-valued cocycles inject, pairs on (kernel, quotient) project out,
# and a degree-2 class separates the liftable pairs.
fs = catalog("ext-heisenberg3")
report = extension_derivations(fs)
print("derivation report:", report.as_dict())

# Lifting an outside action: two commuting shifts of the 3-dim nilpotent
# algebra preserve the extension class of the filiform algebra but do not
# lift to commuting derivations; the cocycle value pins the failure.
fsf = catalog("ext-filiform4")
h3 = fsf.g
shifts = [Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]]),
          Matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])]
thetas = [Cochain(h3, 1, 1), Cochain(h3, 1, 1, {(2,): (1,)})]
lift = lifting_cocycle(fsf, catalog("abelian2"),
                       [Matrix.zero(1, 1)] * 2, shifts, thetas)
print("shift-plane lift exists:", lift.lift_exists,
      "| cocycle value on p:", lift.cocycle_values[(0, 1)].component((0,)))

# Automorphism pairs: sign flip on the fiber with a reflection downstairs
# lifts to an automorphism of the Heisenberg algebra...
res = automorphism_pair_obstruction(fs, Matrix([[-1]]), Matrix([[1, 0], [0, -1]]))
print("reflection pair lifts:", res.lift_exists)

# ... while the coordinate swap with a central sign on the filiform
# extension hits a nonzero degree-2 class and cannot lift.
swap = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
res2 = automorphism_pair_obstruction(fsf, Matrix.identity(1), swap)
print("swap pair lifts:", res2.lift_exists,
      "| obstruction zero:", res2.obstruction.is_zero())
