"""Factor systems: encode, build, extract, compare.

Run:  python3 demos/02_building_extensions.py
"""

from liecoh import (build_extension, catalog, center, classify_extensions,
                    equivalent_extensions, extract_factor_system)
from liecoh.cochains import Cochain
from liecoh.extensions import FactorSystem

# A factor system is a pair (S, omega): an action of the quotient on the
# kernel by derivations, plus a 2-cochain absorbing the curvature.  The
# area form on the plane with the trivial action builds the Heisenberg
# algebra as a central extension.
fs = catalog("ext-heisenberg3")
ext = build_extension(fs)
print("total dim:", ext.total.dim, " center dim:", center(ext.total).dim)

# Extracting along the canonical section recovers (S, omega) on the nose.
back = extract_factor_system(ext)
print("round trip:", back.S == fs.S and back.omega == fs.omega)

# Changing the cocycle by a noncoboundary produces an inequivalent
# extension, and the solver hands back the certificate.
other = FactorSystem(fs.n, fs.g, fs.S, Cochain(fs.g, 2, 1))
verdict = equivalent_extensions(fs, other)
print("area form vs zero form equivalent:", verdict.found,
      "| stage:", verdict.stage if not verdict.found else "-")

# The classes realizing a kernel form an affine space over the degree-2
# center-valued cohomology: one base point, one translation here.  A factor
# system is itself a kernel, the one its S and omega define.
cls = classify_extensions(fs)
print("translation group dim:", cls.h2.h_dim,
      "| representatives:", len(cls.representatives))
