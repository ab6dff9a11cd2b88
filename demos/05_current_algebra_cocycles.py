"""Polynomial current algebras and the degree-3 class of an invariant form.

Run:  python3 demos/05_current_algebra_cocycles.py
"""

from liecoh.catalog import catalog, killing_form
from liecoh.cohomology import cohomology
from liecoh.currents import (Polynomial, v2_characteristic_cocycle,
                             v2_cocycle_identity)
from liecoh.liealg import Representation

sl2 = catalog("sl2")
kappa = killing_form(sl2)
print("killing(h, h) =", kappa.gram.entry(2, 2), " killing(e, f) =",
      kappa.gram.entry(0, 1))

# Tensor sl2 with polynomials vanishing at 0; the two-slot cocycle
# (a, b) -> (1/2) I(a b' - b a') kappa(x, y) has a cyclic differential
# that collapses to a closed form on the quotient.
# Elements of sl2 are dicts {basis index: nonzero coefficient}.
t = Polynomial.t()
e, f, h = {0: 1}, {1: 1}, {2: 1}
lhs, rhs, equal = v2_cocycle_identity(kappa, t, t, t, e, f, h)
print(f"cyclic differential at (t e, t f, t h): {lhs} == {rhs}: {equal}")

# Mixed polynomials, still exact:
a = Polynomial((0, 1, -2))        # t - 2t^2
b = Polynomial((0, 0, 0, 3))      # 3t^3
c = Polynomial((0, 5))            # 5t
lhs, rhs, equal = v2_cocycle_identity(kappa, a, b, c, e, h, f)
print(f"random triple: {lhs} == {rhs}: {equal}")

# The class is represented by eta(x, y, z) = kappa([x, y], z) / 2, which
# spans the one-dimensional degree-3 cohomology of sl2.
eta, cls = v2_characteristic_cocycle(kappa)
print("eta(e, f, h) =", eta.component((0, 1, 2))[0])
print("degree-3 dim:", cohomology(Representation.trivial(sl2, 1), 3).h_dim,
      "| eta spans:", not cls.is_zero())
