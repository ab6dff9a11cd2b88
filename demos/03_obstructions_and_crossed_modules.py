"""Obstruction classes, the quotient stage and crossed modules.

Run:  python3 demos/03_obstructions_and_crossed_modules.py
"""

from liecoh.catalog import catalog
from liecoh.crossed import (CrossedModule, characteristic_class_omega_route,
                            characteristic_class_theta_route, split_crossed_module,
                            splitting_equivalence)
from liecoh.extensions import build_quotient_stage, obstruction_class, reduce_via_stage

# A kernel class [S] carries a degree-3 obstruction with center
# coefficients; it vanishes exactly when some extension realizes it.  A
# factor system is a kernel whose omega is closed, so it is passed as one.
fs = catalog("ext-heisenberg-kernel")
print("obstruction vanishes:", obstruction_class(fs).is_zero())

# The quotient stage: the extension of g by n/z(n) built from (ad S, proj
# omega).  Mapping n onto its inner part gives a crossed module.
stage = build_quotient_stage(fs)
print("stage dim:", stage.gs.dim)
cm = CrossedModule(fs.n, stage.gs, stage.alpha_matrix, stage.rho)

# The characteristic class computes two ways: extend the action table to
# an alternating 2-cochain and factor its differential, or lift the
# section curvature through alpha and close it covariantly.  They agree.
sp = split_crossed_module(cm)
via_theta = characteristic_class_theta_route(sp)
via_omega = characteristic_class_omega_route(sp)
print("theta route zero:", via_theta.is_zero(),
      "| omega route zero:", via_omega.is_zero(),
      "| same class:", via_theta.normalized == via_omega.normalized)

# Vanishing class = a compatible center-by-stage rewrite exists; the
# witness embeds h equivariantly.
witness, chi = splitting_equivalence(cm)
print("splitting witness total dim:", witness.total.dim)

# The whole non-abelian classification reduces to abelian data on the
# stage: the round trip reproduces the original factor system exactly.
red = reduce_via_stage(fs)
print("round trip exact:",
      red.rebuilt_fs.S == fs.S and red.rebuilt_fs.omega == fs.omega)
