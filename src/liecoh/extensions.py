"""Factor systems, extensions, obstruction classes and the quotient-stage
reduction of non-abelian extensions to abelian ones.

A factor system is a pair (S, omega): a linear map S from g into the
derivations of n whose curvature is the inner map ad(omega), with omega
closed under the covariant differential.  Exactly these pairs make the
product bracket

    [(n, x), (n', x')] = ([n, n'] + S(x)n' - S(x')n + omega(x, x'), [x, x'])

a Lie algebra, and every split extension arises this way from a choice
of linear section.  Equivalence of two such presentations over the same
kernel and quotient is an affine-linear feasibility problem and is
decided exactly.

For a kernel class [S] the cocycle d_S omega lands in the center of n
and its degree-3 class obstructs realizability; when it vanishes the
classes form an affine space over the degree-2 center-valued cohomology.
The reduction stage rewrites every n-extension of g as a center-valued
abelian extension of the auxiliary algebra built from (ad S, proj omega)
on n/z(n) x g.

Equivalence, and the automorphism and derivation lifting built on it in
``symmetry``, all take one gauge step, each piece implemented once here:
``inner_cochains`` lifts a batch of S-differences to ad(gamma), all in one
elimination of ad_stack(n); ``gauge_remainder`` pushes
omega1 - omega2 - d_S gamma - [gamma, gamma]/2 into the center, whose
module ``center_module`` computes; ``cohomology.primitive`` solves for the
center-valued correction; and ``extension_map`` assembles
(n, x) -> (alpha n + C x, beta x) as the block matrix [[alpha, C], [0, beta]].

Classification validates its base alone as a factor system and checks all
of its translations with one rank test (``classify_extensions``).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .cochains import (Cochain, HALF, OuterActionMap, cochain_differential,
                       cochain_space_dim, covariant_differential, curvature, gauge_action,
                       key_unrank, pullback_cochain, superbracket, transport_cochain)
from .cohomology import (AffineCochainSpace, CohomologyClass, CohomologySpace, cohomology,
                         primitive, relative_cocycles, theta_constrained_cocycles)
from .errors import (DimensionMismatchError, InvalidFactorSystemError,
                     InvariantViolation, NoLiftError, NotADerivationError,
                     NotAHomomorphismError, NotASectionError, ObstructedError)
from .liealg import (LieAlgebra, Representation, ad_stack, bracket_defect, bracket_preserving,
                     center, is_derivation, product_algebra, quotient_algebra, solve_inner)
from .linalg import (InconsistencyCertificate, Matrix, Subspace, block_matrix, image, invert,
                     left_inverse, pullback_family)


# ---------------------------------------------------------------------------
# subspace-valued cochain helpers
# ---------------------------------------------------------------------------

def restrict_cochain_to_subspace(c: Cochain, sub: Subspace) -> Cochain:
    """Rewrite a cochain whose values lie in ``sub`` in subspace coordinates: the
    entries at the pivots, which embed back to the value exactly when it lies in sub."""
    restricted = c.map_values(sub.split_matrix())
    outside = embed_cochain_from_subspace(restricted, sub) - c
    if not outside.is_zero():
        raise InvariantViolation(
            f"cochain value at {outside.keys()[0]} lies outside the expected subspace")
    return restricted


def embed_cochain_from_subspace(c: Cochain, sub: Subspace) -> Cochain:
    """Push a subspace-coordinate cochain back into the ambient space."""
    if c.value_dim != sub.dim:
        raise DimensionMismatchError("cochain values do not match the subspace dimension")
    return c.map_values(sub.embed_matrix())


# ---------------------------------------------------------------------------
# the gauge step
# ---------------------------------------------------------------------------

def center_module(S: OuterActionMap) -> tuple[Subspace, Representation]:
    """The center z of S's target algebra and the module structure S induces on it."""
    if S.target is None:
        raise DimensionMismatchError("restriction needs a target algebra")
    z = center(S.target)
    mats = [z.restrict(m) for m in S.matrices]
    if any(m is None for m in mats):
        raise NotADerivationError("a derivation did not preserve the center")
    return z, Representation(S.algebra, z.dim, mats)


def inner_cochains(n_alg: LieAlgebra, g_alg: LieAlgebra, degree: int,
                   groups: Sequence[Sequence[Matrix]]):
    """The n-valued degree-p cochains on g, one per group of targets, with
    ad(value at key r) = group[r].

    Each target is an n x n matrix, one per increasing key in lexicographic
    order.  Every target of every group is a right-hand side of one
    ``solve_inner`` call, one elimination of ad_stack(n), and each cochain
    is the one a solve of its group alone gives.  Returns (cochains, None),
    or (None, certificate) when some target is not inner.
    """
    particular, certificate = solve_inner(n_alg, [t for group in groups for t in group])
    if particular is None:
        return None, certificate
    nd = n_alg.dim
    # slot s of the joined targets is key r of group q
    slots = [(q, r) for q, group in enumerate(groups) for r in range(len(group))]
    split = [[] for _ in groups]
    for index, x in particular:
        q, r = slots[index // nd]
        split[q].append((r * nd + index % nd, x))
    return [Cochain.from_pairs(g_alg, degree, nd, pairs) for pairs in split], None


def extension_map(alpha: Matrix, C: Matrix, beta: Matrix) -> Matrix:
    """(n, x) -> (alpha n + C x, beta x) in product coordinates: [[alpha, C], [0, beta]]."""
    return block_matrix([[alpha, C], [Matrix.zero(beta.rows, alpha.cols), beta]])


# ---------------------------------------------------------------------------
# kernels and factor systems
# ---------------------------------------------------------------------------

class FactorSystemReport(NamedTuple):
    """Which of the three defining conditions hold, with witnesses."""

    derivation_failures: tuple
    curvature_failures: tuple
    cocycle_failures: tuple

    @property
    def ok(self) -> bool:
        return not (self.derivation_failures or self.curvature_failures
                    or self.cocycle_failures)

    def describe(self) -> str:
        parts = []
        if self.derivation_failures:
            parts.append(f"S is not derivation-valued at indices {self.derivation_failures}")
        if self.curvature_failures:
            parts.append(f"curvature differs from ad(omega) at pairs {self.curvature_failures}")
        if self.cocycle_failures:
            parts.append(f"d_S omega is nonzero at triples {self.cocycle_failures}")
        return "; ".join(parts) if parts else "valid"

    def as_dict(self) -> dict:
        return {
            "valid": self.ok,
            "derivation_failures": list(self.derivation_failures),
            "curvature_failures": [list(x) for x in self.curvature_failures],
            "cocycle_failures": [list(x) for x in self.cocycle_failures],
        }


def _kernel_action(n_alg: LieAlgebra, g_alg: LieAlgebra, S,
                   omega: Optional[Cochain] = None) -> OuterActionMap:
    """S, an OuterActionMap or its matrices, as one map from g into endomorphisms
    of n, after the shape checks of a kernel (S, omega); omega may be None.

    A map whose algebra is g and whose target is n is kept as it is, so the
    differentials and curvature it holds serve every kernel sharing it;
    anything else is wrapped anew.
    """
    matrices = S.matrices if isinstance(S, OuterActionMap) else tuple(S)
    if len(matrices) != g_alg.dim:
        raise DimensionMismatchError("one action matrix per basis element of g is required")
    if omega is not None and (omega.degree != 2 or omega.value_dim != n_alg.dim
                              or omega.algebra != g_alg):
        raise DimensionMismatchError("omega must be a 2-cochain on g valued in n")
    if any(m.rows != n_alg.dim or m.cols != n_alg.dim for m in matrices):
        raise DimensionMismatchError("derivation candidate has the wrong shape")
    if isinstance(S, OuterActionMap) and S.algebra == g_alg and S.target == n_alg:
        return S
    return OuterActionMap(g_alg, matrices, target=n_alg)


def _derivation_failures(S: OuterActionMap) -> tuple:
    """The indices i at which S(e_i) is not a derivation of S's target."""
    return tuple(i for i, m in enumerate(S.matrices) if not is_derivation(S.target, m))


def _curvature_failures(S: OuterActionMap, omega: Cochain) -> tuple:
    """The increasing pairs at which the curvature of S differs from ad(omega),
    omega's values sent through ad_stack: the keys where either is nonzero."""
    return (curvature(S) - omega.map_values(ad_stack(S.target))).keys()


def _factor_report(S: OuterActionMap, omega: Cochain) -> FactorSystemReport:
    return FactorSystemReport(_derivation_failures(S), _curvature_failures(S, omega),
                              covariant_differential(S, omega).keys())


def factor_system_report(n_alg: LieAlgebra, g_alg: LieAlgebra, S,
                         omega: Cochain) -> FactorSystemReport:
    """The three defining conditions of (S, omega); S is an OuterActionMap or its matrices."""
    return _factor_report(_kernel_action(n_alg, g_alg, S, omega), omega)


class GKernel:
    """A g-kernel: S, an OuterActionMap or its matrices, maps g into derivations
    of n, and omega lifts its curvature to ad(omega).  The shape checks, one
    derivation sweep of S and the lift (solved when omega is None) run here.
    """

    __slots__ = ("n", "g", "S", "omega")

    def __init__(self, n_alg: LieAlgebra, g_alg: LieAlgebra, S,
                 omega: Optional[Cochain] = None):
        S = _kernel_action(n_alg, g_alg, S, omega)
        failures = _derivation_failures(S)
        if failures:
            raise NotADerivationError(f"S(e{failures[0]}) is not a derivation of the target")
        self.n = n_alg
        self.g = g_alg
        self.S = S
        if omega is None:
            omega = self._solve_omega()
        else:
            failures = _curvature_failures(S, omega)
            if failures:
                raise NoLiftError(f"stored omega does not lift the curvature at {failures[0]}")
        self.omega = omega

    def _solve_omega(self) -> Cochain:
        # the curvature's value at key r, an End(n) vector, is the target of key r
        nd, values = self.n.dim, dict(curvature(self.S).nonzero_values())
        omegas, certificate = inner_cochains(self.n, self.g, 2, [[
            Matrix.from_flat(values.get(r, {}).items(), nd, nd)
            for r in range(cochain_space_dim(self.g.dim, 2, 1))]])
        if omegas is None:
            raise NoLiftError(certificate)
        return omegas[0]

    @classmethod
    def from_factor_system(cls, fs: "FactorSystem") -> "GKernel":
        """fs itself: a factor system is a kernel.  Kept for callers written
        before FactorSystem became a subclass, such as perfbench/gen.py."""
        return fs

    def __repr__(self):
        return f"GKernel(n dim {self.n.dim}, g dim {self.g.dim})"


class FactorSystem(GKernel):
    """A g-kernel whose omega is closed, d_S omega = 0: an n-extension of g.  S is
    wrapped once and all three conditions are read from one report."""

    __slots__ = ()

    def __init__(self, n_alg: LieAlgebra, g_alg: LieAlgebra, S, omega: Cochain):
        S = _kernel_action(n_alg, g_alg, S, omega)
        report = _factor_report(S, omega)
        if not report.ok:
            raise InvalidFactorSystemError(report)
        self.n = n_alg
        self.g = g_alg
        self.S = S
        self.omega = omega

    def gauge(self, gamma: Cochain) -> "FactorSystem":
        new_S, new_omega = gauge_action(gamma, self.S, self.omega)
        return FactorSystem(self.n, self.g, new_S, new_omega)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FactorSystem) and self.n == other.n
                and self.g == other.g and self.S == other.S
                and self.omega == other.omega)

    def __hash__(self):
        return hash((self.n, self.g, self.S, self.omega))

    def __repr__(self):
        return f"FactorSystem(n dim {self.n.dim}, g dim {self.g.dim})"


class ExtensionPresentation:
    """A total algebra with a distinguished split ideal and quotient maps."""

    __slots__ = ("total", "n", "g", "inclusion", "projection", "section",
                 "ideal", "_left_inv")

    def __init__(self, total: LieAlgebra, n_alg: LieAlgebra, g_alg: LieAlgebra,
                 inclusion: Matrix, projection: Matrix, section: Matrix):
        violations = []
        if inclusion.rows != total.dim or inclusion.cols != n_alg.dim:
            raise DimensionMismatchError("inclusion shape disagrees with n/total")
        if projection.rows != g_alg.dim or projection.cols != total.dim:
            raise DimensionMismatchError("projection shape disagrees with g/total")
        if section.rows != total.dim or section.cols != g_alg.dim:
            raise DimensionMismatchError("section shape disagrees with g/total")
        if (projection @ section) != Matrix.identity(g_alg.dim):
            violations.append("section is not a right inverse of the projection")
        if (projection @ inclusion) != Matrix.zero(g_alg.dim, n_alg.dim):
            violations.append("the ideal does not lie in the kernel of the projection")
        if not bracket_preserving(n_alg, total, inclusion):
            violations.append("the inclusion does not preserve brackets")
        if not bracket_preserving(total, g_alg, projection):
            violations.append("the projection does not preserve brackets")
        li = left_inverse(inclusion)
        if li is None:
            violations.append("the inclusion is not injective")
        ideal = image(inclusion)
        if ideal.dim + g_alg.dim != total.dim:
            violations.append("ideal and quotient dimensions do not add up")
        for i in range(total.dim):
            if ideal.restrict(total.ad_matrix(i)) is None:
                violations.append(f"the image of n is not an ideal (fails at e{i})")
        if violations:
            raise InvariantViolation("invalid extension presentation", violations)
        self.total = total
        self.n = n_alg
        self.g = g_alg
        self.inclusion = inclusion
        self.projection = projection
        self.section = section
        self.ideal = ideal
        self._left_inv = li

    def __repr__(self):
        return (f"ExtensionPresentation(total dim {self.total.dim}, "
                f"n dim {self.n.dim}, g dim {self.g.dim})")


def build_extension(fs: FactorSystem) -> ExtensionPresentation:
    """The product-coordinate Lie algebra of a factor system."""
    nd, gd = fs.n.dim, fs.g.dim
    # product_algebra reads omega as dict columns on g's index pairs
    omega = {key_unrank(r, gd, 2): value for r, value in fs.omega.nonzero_values()}
    total = product_algebra(fs.n, fs.g, fs.S.matrices, omega)
    inclusion = block_matrix([[Matrix.identity(nd)], [Matrix.zero(gd, nd)]])
    projection = block_matrix([[Matrix.zero(gd, nd), Matrix.identity(gd)]])
    section = block_matrix([[Matrix.zero(nd, gd)], [Matrix.identity(gd)]])
    return ExtensionPresentation(total, fs.n, fs.g, inclusion, projection, section)


def extract_factor_system(ext: ExtensionPresentation,
                          sigma: Optional[Matrix] = None) -> FactorSystem:
    """The factor system induced by a linear section of the projection."""
    if sigma is None:
        sigma = ext.section
    if sigma.rows != ext.total.dim or sigma.cols != ext.g.dim:
        raise NotASectionError("section has the wrong shape")
    if (ext.projection @ sigma) != Matrix.identity(ext.g.dim):
        raise NotASectionError("the map is not a right inverse of the projection")
    total, inclusion = ext.total, ext.inclusion
    matrices = []
    # S_a is ad(sigma e_a) on the ideal, read back through the left inverse
    for ad_sa in pullback_family(total.ad_matrices(), sigma, total.dim):
        moved = ad_sa @ inclusion
        coords = ext._left_inv @ moved
        if inclusion @ coords != moved:
            raise InvariantViolation("vector does not lie in the ideal")
        matrices.append(coords)
    defect = Cochain.from_columns(ext.g, 2, total.dim, bracket_defect(ext.g, total, sigma))
    omega = defect.map_values(ext._left_inv)
    if omega.map_values(inclusion) != defect:
        raise InvariantViolation("vector does not lie in the ideal")
    return FactorSystem(ext.n, ext.g, matrices, omega)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def transported_pair(fs: FactorSystem, alpha: Matrix, beta: Matrix) -> tuple:
    """(S, omega) moved by an automorphism pair: x -> alpha S(beta^{-1} x) alpha^{-1}
    and alpha omega(beta^{-1} ., beta^{-1} .)."""
    alpha_inv = invert(alpha)
    beta_inv = invert(beta)
    if alpha_inv is None or not bracket_preserving(fs.n, fs.n, alpha):
        raise NotAHomomorphismError("alpha is not an automorphism of n")
    if beta_inv is None or not bracket_preserving(fs.g, fs.g, beta):
        raise NotAHomomorphismError("beta is not an automorphism of g")
    mats = [alpha @ m @ alpha_inv for m in pullback_family(fs.S.matrices, beta_inv, fs.n.dim)]
    return (OuterActionMap(fs.g, mats, target=fs.n),
            transport_cochain(alpha, beta_inv, fs.omega))


def check_equivalence_map(alpha: Matrix, beta: Matrix, gamma: Cochain,
                          fs1: FactorSystem, fs2: FactorSystem) -> bool:
    """Decide whether (alpha, beta, gamma) assembles to an isomorphism.

    The transported pair of fs1 must equal the gauge translate of fs2 by
    gamma; when it does, the assembled map (n, x) -> (alpha n + gamma(beta x),
    beta x) is verified to preserve brackets between the built totals.
    """
    if fs1.n != fs2.n or fs1.g != fs2.g:
        raise DimensionMismatchError("factor systems must share kernel and quotient")
    lhs_S, lhs_omega = transported_pair(fs1, alpha, beta)
    rhs_S, rhs_omega = gauge_action(gamma, fs2.S, fs2.omega)
    ok = lhs_S.matrices == rhs_S.matrices and lhs_omega == rhs_omega
    if ok:
        phi = extension_map(alpha, gamma.as_matrix() @ beta, beta)
        total1 = build_extension(fs1).total
        total2 = total1 if fs2 is fs1 else build_extension(fs2).total
        if not bracket_preserving(total1, total2, phi):
            raise InvariantViolation(
                "equivalence conditions hold but the assembled map fails; "
                "this indicates an internal inconsistency")
    return ok


class EquivalenceWitness(NamedTuple):
    gamma: Cochain
    matrix: Matrix

    @property
    def found(self) -> bool:
        return True


class Inequivalent(NamedTuple):
    stage: str  # "kernel-mismatch" or "class-difference"
    certificate: object

    @property
    def found(self) -> bool:
        return False


def gauge_remainder(fs1: FactorSystem, fs2: FactorSystem, z: Subspace):
    """The finite gauge step from fs2 toward fs1: (gamma0, remainder, certificate).

    gamma0 is the inner lift of S1 - S2, and the remainder
    omega1 - omega2 - d_S2 gamma0 - [gamma0, gamma0]/2 is returned in the
    coordinates of the center z, where it lies.  When S1 - S2 is not
    inner, gamma0 and the remainder are None and the certificate says why.
    """
    gammas, certificate = inner_cochains(
        fs1.n, fs1.g, 1, [[m1 - m2 for m1, m2 in zip(fs1.S.matrices, fs2.S.matrices)]])
    if gammas is None:
        return None, None, certificate
    gamma0 = gammas[0]
    delta = (fs1.omega - fs2.omega - covariant_differential(fs2.S, gamma0)
             - superbracket(fs1.n, gamma0, gamma0).scale(HALF))
    return gamma0, restrict_cochain_to_subspace(delta, z), None


def equivalent_extensions(fs1: FactorSystem, fs2: FactorSystem):
    """Witness gamma with (S1, omega1) = gamma.(S2, omega2), or absence.

    One gauge step: ``gauge_remainder`` gives gamma0 with ad(gamma0) =
    S1 - S2 and the center-valued remainder, and a primitive of the
    remainder is the center-valued correction of gamma0.  Both solves are
    exact linear algebra.
    """
    if fs1.n != fs2.n or fs1.g != fs2.g:
        raise DimensionMismatchError("factor systems must share kernel and quotient")
    z, z_rep = center_module(fs2.S)
    gamma0, remainder, certificate = gauge_remainder(fs1, fs2, z)
    if gamma0 is None:
        return Inequivalent("kernel-mismatch", certificate)
    zeta, certificate = primitive(z_rep, remainder)
    if zeta is None:
        return Inequivalent("class-difference", certificate)
    gamma = gamma0 + embed_cochain_from_subspace(zeta, z)
    ident_n, ident_g = Matrix.identity(fs1.n.dim), Matrix.identity(fs1.g.dim)
    if not check_equivalence_map(ident_n, ident_g, gamma, fs1, fs2):
        raise InvariantViolation("solved equivalence system does not verify")
    return EquivalenceWitness(gamma, extension_map(ident_n, gamma.as_matrix(), ident_g))


# ---------------------------------------------------------------------------
# obstructions and classification
# ---------------------------------------------------------------------------

def obstruction_class(kernel: GKernel, module=None) -> CohomologyClass:
    """The class of d_S omega in degree-3 cohomology with center coefficients.

    ``module`` is center_module(kernel.S) when the caller already has it.
    """
    d_s_omega = covariant_differential(kernel.S, kernel.omega)
    z, z_rep = module or center_module(kernel.S)
    z_cochain = restrict_cochain_to_subspace(d_s_omega, z)
    if not cochain_differential(z_rep, z_cochain).is_zero():
        raise InvariantViolation("d_S omega failed to be a relative cocycle")
    return cohomology(z_rep, 3).class_of(z_cochain)


class ExtensionClassification(NamedTuple):
    """Base point plus simply transitive translations for one kernel class."""

    kernel: GKernel
    base: FactorSystem
    h2: CohomologySpace
    translations: tuple  # n-valued 2-cochains, one per degree-2 class

    @property
    def representatives(self) -> tuple:
        """A FactorSystem per class, the base first and then base + t for each
        translation t, each validated as it is built."""
        base = self.base
        return (base,) + tuple(FactorSystem(base.n, base.g, base.S, base.omega + t)
                               for t in self.translations)


def classify_extensions(kernel: GKernel) -> ExtensionClassification:
    """Affine description of all extension classes realizing the kernel.

    Only the base is validated as a factor system.  Each translation t is
    checked to be center-valued, so ad(omega + t) = ad(omega) and the
    curvature condition still holds, and closed, so d_S(omega + t) = 0;
    then base + t is a factor system.  The translations' classes, reduced
    modulo the coboundaries, must have full rank: the k representatives
    beyond the base are then pairwise inequivalent and inequivalent to it,
    which is the rank test rank[B^2; t_1 ... t_k] = dim B^2 + k.
    """
    z, z_rep = center_module(kernel.S)
    chi = obstruction_class(kernel, (z, z_rep))
    if not chi.is_zero():
        raise ObstructedError(chi)
    solutions = relative_cocycles(kernel.S, kernel.n)
    if isinstance(solutions, InconsistencyCertificate):
        raise InvariantViolation(
            "vanishing obstruction but empty relative cocycle space: "
            + solutions.describe())
    base = FactorSystem(kernel.n, kernel.g, kernel.S, solutions.particular)
    h2 = cohomology(z_rep, 2)
    translations = tuple(embed_cochain_from_subspace(rep, z)
                         for rep in h2.representative_cochains())
    classes = []
    for t in translations:
        try:
            t_z = restrict_cochain_to_subspace(t, z)
        except InvariantViolation as err:
            raise InvariantViolation(
                f"classify: a translation is not center-valued: {err}") from err
        # closed means in the cocycle space h2 already holds
        if h2.cocycles.reduce_entries(t_z.pairs):
            raise InvariantViolation("classify: a translation is not closed")
        classes.append(dict(h2.normalize(t_z)))
    if Matrix.from_sparse_rows(classes, h2.cocycles.ambient_dim).rank() != len(classes):
        raise InvariantViolation("classify: distinct degree-2 classes produced "
                                 "equivalent extensions")
    return ExtensionClassification(kernel, base, h2, translations)


# ---------------------------------------------------------------------------
# the auxiliary quotient-stage algebra
# ---------------------------------------------------------------------------

class QuotientStage(NamedTuple):
    """The algebra built from (ad S, proj omega) on n/z(n) x g, with the
    action of it on n and the inner-quotient map from n."""

    kernel: GKernel
    z: Subspace
    z_rep: Representation  # the center of n as a module of g
    z_rep_on_gs: Representation  # the same module of the stage algebra, through g
    n_ad: LieAlgebra
    proj_ad: Matrix
    sect_ad: Matrix
    fs: FactorSystem
    ext: ExtensionPresentation
    rho: Representation
    alpha_matrix: Matrix

    @property
    def gs(self) -> LieAlgebra:
        return self.ext.total


def build_quotient_stage(kernel: GKernel) -> QuotientStage:
    """Assemble the stage algebra and the crossed-module data on it."""
    n_alg, g_alg = kernel.n, kernel.g
    z, z_rep = center_module(kernel.S)
    n_ad, proj_ad, sect_ad = quotient_algebra(n_alg, z)
    s1_mats = [proj_ad @ m @ sect_ad for m in kernel.S.matrices]
    fs = FactorSystem(n_ad, g_alg, s1_mats, kernel.omega.map_values(proj_ad))
    ext = build_extension(fs)
    gs = ext.total
    # rho is ad n pulled back along the section of n_ad, then S on g
    rho = Representation(gs, n_alg.dim,
                         pullback_family(n_alg.ad_matrices(), sect_ad, n_alg.dim)
                         + kernel.S.matrices)
    z_rep_on_gs = Representation(gs, z.dim,
                                 pullback_family(z_rep.matrices, ext.projection, z.dim))
    alpha_matrix = block_matrix([[proj_ad], [Matrix.zero(g_alg.dim, n_alg.dim)]])
    stage = QuotientStage(kernel, z, z_rep, z_rep_on_gs, n_ad, proj_ad, sect_ad, fs, ext,
                          rho, alpha_matrix)
    # the embedding x -> (rho(x), proj x), transposed: row x is rho(x) flattened
    # row-major, then column x of the projection
    nd = n_alg.dim
    flat_rho = Matrix.from_sparse_rows([{a * nd + b: v for a, row in enumerate(m.sparse_rows())
                                         for b, v in row.items()} for m in rho.matrices], nd * nd)
    if block_matrix([[flat_rho, ext.projection.transpose()]]).rank() != gs.dim:
        raise InvariantViolation("the stage embedding into der(n) x g is not injective")
    return stage


class StageReduction(NamedTuple):
    """An n-extension of g rewritten as a center-valued extension of the stage."""

    stage: QuotientStage
    f: Cochain        # 2-cochain on n_ad, center coordinates
    theta: dict       # (gs basis index, n_ad basis index) -> {center index: value}
    f_tilde: Cochain  # 2-cocycle on gs extending theta
    solutions: AffineCochainSpace
    rebuilt: ExtensionPresentation
    rebuilt_fs: FactorSystem
    witness: Matrix   # isomorphism original total -> rebuilt total


def stage_theta(stage: QuotientStage) -> tuple[Cochain, dict]:
    """The center cocycle of n and the action table of the stage on n."""
    n_alg, n_ad, sect_ad = stage.kernel.n, stage.n_ad, stage.sect_ad
    f = restrict_cochain_to_subspace(
        Cochain.from_columns(n_ad, 2, n_alg.dim, bracket_defect(n_ad, n_alg, sect_ad)), stage.z)
    z_rows = stage.z.split_matrix()
    return f, column_table([z_rows @ m @ sect_ad for m in stage.rho.matrices])


def column_table(matrices: Sequence[Matrix]) -> dict:
    """{(x, a): column a of matrices[x]} on the nonzero columns, each a dict
    {row: nonzero value}."""
    return {(x, a): dict(col) for x, m in enumerate(matrices)
            for a, col in enumerate(m.transpose().sparse_rows()) if col}


def restricts_to(theta: dict, f: Cochain) -> bool:
    """Whether the table theta, read on the pairs of f's basis indices, is the 2-cochain
    f: theta(i, j) = f(i, j) = -f(j, i) at every (i, j), on the nonzero entries of both."""
    n, zd = f.algebra.dim, f.value_dim
    expected = {}
    for index, x in f.pairs:
        (i, j), slot = key_unrank(index // zd, n, 2), index % zd
        expected[(i, j, slot)], expected[(j, i, slot)] = x, -x
    return {(i, j, slot): x for (i, j), column in theta.items() if i < n
            for slot, x in column.items()} == expected


def rebuild_from_cocycle(stage: QuotientStage, f_tilde: Cochain):
    """The center-by-stage extension of f_tilde, viewed as an n-extension of g.

    Returns the presentation and its extracted factor system in the
    original n-coordinates.
    """
    zd, nd = stage.z.dim, stage.kernel.n.dim
    fs_tot = FactorSystem(LieAlgebra(zd), stage.gs, stage.z_rep_on_gs.matrices, f_tilde)
    ext_tot = build_extension(fs_tot)
    # n -> z x n_ad x g; the quotient maps pass through the stage
    inclusion = block_matrix([[stage.z.split_matrix()], [stage.alpha_matrix]])
    projection = stage.ext.projection @ ext_tot.projection
    section = ext_tot.section @ stage.ext.section
    rebuilt = ExtensionPresentation(ext_tot.total, stage.kernel.n, stage.kernel.g,
                                    inclusion, projection, section)
    rebuilt_fs = extract_factor_system(rebuilt)
    return rebuilt, rebuilt_fs


def reduce_via_stage(fs: FactorSystem) -> StageReduction:
    """Rewrite the extension of fs as a center-valued extension of the stage.

    The stage cocycle extending theta is read off the canonical section of
    the quotient map, verified to solve the constrained cocycle system,
    and the rebuilt algebra is matched to the original by an explicit
    bracket-preserving isomorphism.
    """
    stage = build_quotient_stage(fs)
    f, theta = stage_theta(stage)
    nd, gd = fs.n.dim, fs.g.dim
    # theta restricted to the ideal block must reproduce f on all pairs.
    if not restricts_to(theta, f):
        raise InvariantViolation("theta does not restrict to the center cocycle")

    ghat = build_extension(fs)
    # the canonical lift of the stage into n + g coordinates
    lift = extension_map(stage.sect_ad, Matrix.zero(nd, gd), Matrix.identity(gd))
    # its cocycle lies in the center block of the n-part
    z_total = Subspace(nd + gd, stage.z.pairs, stage.z.pivots)
    defect = bracket_defect(stage.gs, ghat.total, lift)
    f_tilde = restrict_cochain_to_subspace(
        Cochain.from_columns(stage.gs, 2, nd + gd, defect), z_total)

    # the n_ad block of the stage is the ideal of its own extension presentation
    solutions = theta_constrained_cocycles(stage.gs, stage.ext.ideal, stage.z_rep_on_gs, theta)
    # f_tilde must lie in this set, so an empty one is an internal inconsistency
    if isinstance(solutions, InconsistencyCertificate):
        raise InvariantViolation("reduce: empty theta-constrained cocycle system: "
                                 + solutions.describe())
    if not solutions.contains(f_tilde):
        raise InvariantViolation("the section cocycle misses the solution space")

    rebuilt, rebuilt_fs = rebuild_from_cocycle(stage, f_tilde)
    witness = block_matrix([[rebuilt.inclusion, rebuilt.section]])
    if not bracket_preserving(ghat.total, rebuilt.total, witness):
        raise InvariantViolation("the stage rewrite witness fails to preserve brackets")
    if invert(witness) is None:
        raise InvariantViolation("the stage rewrite witness is singular")
    return StageReduction(stage, f, theta, f_tilde, solutions, rebuilt,
                          rebuilt_fs, witness)


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------

class PullbackResult(NamedTuple):
    fs: FactorSystem
    ext: ExtensionPresentation
    abelian_class: Optional[CohomologyClass]
    lift: Optional[Matrix]  # homomorphism h -> original total when it exists


def pullback_extension(ext: ExtensionPresentation, phi: Matrix,
                       h_alg: LieAlgebra) -> PullbackResult:
    """Pull an extension of g back along a homomorphism h -> g."""
    if not bracket_preserving(h_alg, ext.g, phi):
        raise NotAHomomorphismError("phi must be a Lie algebra homomorphism into g")
    base = extract_factor_system(ext)
    pulled_S = pullback_family(base.S.matrices, phi, base.n.dim)
    pulled_omega = pullback_cochain(base.omega, phi, h_alg)
    fs = FactorSystem(base.n, h_alg, pulled_S, pulled_omega)
    pulled_ext = build_extension(fs)
    abelian_class = None
    lift = None
    if base.n.is_abelian():
        rep = Representation(h_alg, base.n.dim, pulled_S)
        space = cohomology(rep, 2)
        abelian_class = space.class_of(pulled_omega)
        if abelian_class.is_zero():
            correction, _ = primitive(rep, pulled_omega.scale(-1))
            lift = ext.section @ phi + ext.inclusion @ correction.as_matrix()
            if not bracket_preserving(h_alg, ext.total, lift):
                raise InvariantViolation("constructed lift fails to preserve brackets")
    return PullbackResult(fs, pulled_ext, abelian_class, lift)
