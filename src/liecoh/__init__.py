"""Exact rational cohomology, extensions and crossed modules of
finite-dimensional Lie algebras.

Everything computes over the rational numbers with no rounding: cochain
calculus with covariant differentials and curvature, cohomology by
canonical echelon forms, construction and classification of split
extensions by factor systems, degree-3 obstruction and characteristic
classes of crossed modules, derivation and automorphism lifting, and
polynomial current-algebra cocycles.
"""

from .linalg import Matrix, Subspace, Scalar, kernel, image, solve, \
    quotient_coordinates
from .liealg import LieAlgebra, Representation, check_jacobi, \
    center, adjoint_rep, quotient_algebra, derivations, direct_and_semidirect
from .cochains import Cochain, EquivariantPairing, OuterActionMap, wedge, \
    superbracket, cochain_differential, trivial_differential, \
    covariant_differential, curvature, gauge_action
from .cohomology import CohomologySpace, CohomologyClass, cohomology, \
    classes_equal, relative_cocycles, theta_constrained_cocycles
from .extensions import FactorSystem, ExtensionPresentation, GKernel, \
    build_extension, extract_factor_system, check_equivalence_map, \
    equivalent_extensions, obstruction_class, classify_extensions, \
    build_quotient_stage, reduce_via_stage, pullback_extension
from .crossed import CrossedModule, CrossedModuleSplitting, \
    validate_crossed_module, split_crossed_module, \
    characteristic_class_theta_route, characteristic_class_omega_route, \
    splitting_equivalence
from .symmetry import check_derivation_triple, extension_derivations, \
    derivation_pair_obstruction, lifting_cocycle, automorphism_pair_obstruction
from .catalog import catalog, killing_form, InvariantForm
from .currents import Polynomial, v2_cocycle_identity, v2_characteristic_cocycle

__version__ = "0.1.0"
