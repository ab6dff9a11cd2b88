"""Crossed modules of Lie algebras and their degree-3 characteristic class.

A crossed module is an equivariant map alpha from an acted-on algebra h
into an acting algebra such that the action restricted along alpha is
the adjoint one.  Its kernel is central in h, its image is an ideal, and
the class obstructing a compatible central-by-abelian rewrite lives in
degree-3 cohomology of the cokernel with kernel coefficients.

Two independent computations of that class are provided: extending the
action table to an alternating 2-cochain and factoring its differential
through the quotient, and lifting the section curvature through alpha
and taking the covariant differential.  They agree classwise, and the
agreement is itself exercised by the test suite.  The defining laws are
checked by ``liealg.validate_crossed_module``, which needs no extension
code, so ``liecoh validate --cm`` loads none of this module.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .cochains import (Cochain, OuterActionMap, cochain_differential,
                       covariant_differential, increasing_tuples,
                       pair_act_cochain, pullback_cochain)
from .cohomology import CohomologyClass, cohomology, primitive
from .errors import (DimensionMismatchError, FactorizationFailureError,
                     InvalidCrossedModuleError, InvariantViolation,
                     NoOmegaLiftError)
from .extensions import (FactorSystem, build_extension, column_table,
                         restrict_cochain_to_subspace, restricts_to)
from .liealg import (LieAlgebra, Representation, bracket_defect, bracket_preserving,
                     bracket_table, quotient_algebra, validate_crossed_module)
from .linalg import (ONE, Matrix, Subspace, _add_scaled, block_matrix, image, kernel as mat_kernel,
                     linear_combination, pullback_family, quotient_coordinates, solve_columns)


class CrossedModule:
    """A map h -> ghat with a ghat-action on h satisfying the two axioms."""

    __slots__ = ("h", "ghat", "alpha", "action")

    def __init__(self, h: LieAlgebra, ghat: LieAlgebra, alpha: Matrix,
                 action: Representation):
        if alpha.rows != ghat.dim or alpha.cols != h.dim:
            raise DimensionMismatchError("alpha shape disagrees with h/ghat")
        if action.algebra != ghat or action.space_dim != h.dim:
            raise DimensionMismatchError("the action must be a ghat-module structure on h")
        self.h = h
        self.ghat = ghat
        self.alpha = alpha
        self.action = action
        report = validate_crossed_module(h, ghat, alpha, action)
        if not report.ok:
            raise InvalidCrossedModuleError(report)

    def __repr__(self):
        return f"CrossedModule(h dim {self.h.dim}, ghat dim {self.ghat.dim})"


class CrossedModuleSplitting(NamedTuple):
    """Coordinates for h = z + image(alpha) and the induced quotient data."""

    cm: CrossedModule
    z: Subspace              # kernel of alpha, inside h
    n_alg: LieAlgebra        # image of alpha with its induced bracket
    n_sub: Subspace          # image of alpha, inside ghat
    h_lift: Matrix           # n coordinates -> h, section of alpha into the complement
    f: Cochain               # 2-cochain on n_alg valued in z coordinates
    theta: dict              # (ghat index, n index) -> {z index: nonzero value}
    ad_n: tuple              # ad e_x restricted to n, in n coordinates, per ghat index x
    g: LieAlgebra            # ghat / n
    q_proj: Matrix           # ghat -> g
    q_sect: Matrix           # g -> ghat
    z_rep: Representation    # induced g-module structure on z
    zhat_rep: Representation  # the ghat-module structure on z (factors through g)


def split_crossed_module(cm: CrossedModule) -> CrossedModuleSplitting:
    """Choose canonical coordinates and extract (f, theta) and the quotient."""
    h, ghat, alpha = cm.h, cm.ghat, cm.alpha
    z = mat_kernel(alpha)
    n_sub = image(alpha)
    # complement of z in h: the non-pivot axes of z
    _, h_compl_sect = quotient_coordinates(h.dim, z)
    # n in its canonical basis, with brackets induced from ghat: [n_i, n_j]
    # lies in the ideal n, so its coordinates are its entries at the pivots
    n_dim = n_sub.dim
    ad_n = tuple(n_sub.restrict(ghat.ad_matrix(x)) for x in range(ghat.dim))
    if any(m is None for m in ad_n):
        raise InvariantViolation("the image of alpha is not an ideal")
    n_alg = LieAlgebra(n_dim, bracket_table(ghat, n_sub.embed_matrix(), n_sub.split_matrix()))
    # lift n -> h landing in the complement of z: solve alpha restricted, with
    # n's basis vectors as right-hand sides; the solutions are the columns
    lifts, first_inconsistent, _ = solve_columns(alpha @ h_compl_sect,
                                                 [dict(p) for p in n_sub.pairs])
    if first_inconsistent is not None:
        raise InvariantViolation("alpha does not reach its own image")
    h_lift = h_compl_sect @ Matrix.from_sparse_rows(lifts, h_compl_sect.cols).transpose()
    # f and theta are the defects of the section h_lift, read in z
    z_rows = z.split_matrix()
    f = Cochain.from_columns(n_alg, 2, h.dim, bracket_defect(n_alg, h, h_lift)).map_values(z_rows)
    theta = column_table([z_rows @ (act @ h_lift - h_lift @ ad_x)
                          for act, ad_x in zip(cm.action.matrices, ad_n)])

    g, q_proj, q_sect = quotient_algebra(ghat, n_sub)
    zhat_mats = [z.restrict(m) for m in cm.action.matrices]
    if any(m is None for m in zhat_mats):
        raise InvariantViolation("the action does not preserve the kernel")
    zhat_rep = Representation(ghat, z.dim, zhat_mats)
    z_rep = Representation(g, z.dim, pullback_family(zhat_rep.matrices, q_sect, z.dim))
    if zhat_rep.matrices != pullback_family(z_rep.matrices, q_proj, z.dim):
        raise InvariantViolation("the kernel action does not factor through the quotient")
    sp = CrossedModuleSplitting(cm, z, n_alg, n_sub, h_lift, f, theta, ad_n, g, q_proj,
                                q_sect, z_rep, zhat_rep)
    _check_splitting(sp)
    return sp


def _check_splitting(sp: CrossedModuleSplitting) -> None:
    """theta restricts to f, each slot is a derivation datum, and the table
    satisfies the action cocycle identity, for x < y as z x n matrices:

        x.theta_y - y.theta_x - theta_[x,y] + theta_x ad_y - theta_y ad_x = 0.
    """
    n_dim, zd, ghat = sp.n_alg.dim, sp.z.dim, sp.cm.ghat
    # theta_x as a z-valued 1-cochain on n, read from the table sp.theta
    slots = [Cochain.from_columns(sp.n_alg, 1, zd,
                                  {(a,): v for (y, a), v in sp.theta.items() if y == x})
             for x in range(ghat.dim)]
    thetas = [theta_x.as_matrix() for theta_x in slots]
    # theta on n_i, from the nonzero pairs of n's basis vector i, as a z x n
    # matrix, and its columns as the table of theta on n
    on_n = [linear_combination([x for _, x in p], [thetas[k] for k, _ in p], zd, n_dim)
            for p in sp.n_sub.pairs]
    if not restricts_to(column_table(on_n), sp.f):
        raise InvariantViolation("theta does not restrict to the extension cocycle")
    # one trivial module, so d_1 with trivial coefficients is assembled once
    trivial = Representation.trivial(sp.n_alg, zd)
    for x, theta_x in enumerate(slots):
        if cochain_differential(trivial, theta_x) != _module_action_on_f(sp, x):
            raise InvariantViolation(
                f"theta slot {x} is not a derivation datum for the cocycle")
    zhat, ad_n = sp.zhat_rep.matrices, sp.ad_n
    for x in range(ghat.dim):
        for y in range(x + 1, ghat.dim):
            pairs = ghat.bracket_basis(x, y)
            defect = (zhat[x] @ thetas[y] - zhat[y] @ thetas[x]
                      - linear_combination([c for _, c in pairs], [thetas[k] for k, _ in pairs],
                                           zd, n_dim)
                      + thetas[x] @ ad_n[y] - thetas[y] @ ad_n[x])
            if not defect.is_zero():
                a = min(j for row in defect.sparse_rows() for j in row)
                raise InvariantViolation(
                    f"theta fails the action cocycle identity at ({x},{y},{a})")


def _module_action_on_f(sp: CrossedModuleSplitting, x: int) -> Cochain:
    """x.f as a 2-cochain on n: x.(f(a,b)) - f([x,a],b) - f(a,[x,b])."""
    return pair_act_cochain(sp.zhat_rep.matrices[x], sp.ad_n[x], sp.f)


# ---------------------------------------------------------------------------
# characteristic class, two routes
# ---------------------------------------------------------------------------

def _alternating_extension(sp: CrossedModuleSplitting) -> Cochain:
    """Extend theta to an alternating 2-cochain on ghat.

    Values on complement pairs are set to zero; everything else is forced
    by alternation and the restriction requirement:
    f_tilde(e_i, e_j) = theta(e_i, (e_j)_n) - theta((e_j)_c, (e_i)_n), where
    (e_j)_n is e_r of n when j is the pivot of n's basis vector r and 0
    otherwise, and (e_j)_c = e_j - (e_j)_n is the reduction of e_j.  Both
    are read from the pairs of n's basis, and theta from its column table.
    """
    ghat, zd = sp.cm.ghat, sp.z.dim
    position = {p: r for r, p in enumerate(sp.n_sub.pivots)}
    # -(e_j)_c: -e_j off the pivots, and at pivot j the tail of j's basis vector
    minus_reduction = [sp.n_sub.pairs[position[j]][1:] if j in position else ((j, -ONE),)
                       for j in range(ghat.dim)]
    table = {}
    for i, j in increasing_tuples(ghat.dim, 2):
        value = table[(i, j)] = {}
        if j in position:
            _add_scaled(value, ONE, sp.theta.get((i, position[j]), {}).items())
        if i in position:
            for k, y in minus_reduction[j]:
                _add_scaled(value, y, sp.theta.get((k, position[i]), {}).items())
    return Cochain.from_columns(ghat, 2, zd, table)


def characteristic_class_theta_route(sp: CrossedModuleSplitting,
                                     f_tilde: Optional[Cochain] = None) -> CohomologyClass:
    """Class of the factored differential of an alternating extension of theta."""
    ghat = sp.cm.ghat
    if f_tilde is None:
        f_tilde = _alternating_extension(sp)
    d_f = cochain_differential(sp.zhat_rep, f_tilde)
    beta = pullback_cochain(d_f, sp.q_sect, sp.g)
    # the pullback of beta must reproduce d_f on all of ghat
    pulled = pullback_cochain(beta, sp.q_proj, ghat)
    if pulled != d_f:
        raise FactorizationFailureError(
            f"the differential of the extension does not factor at {(pulled - d_f).keys()[0]}")
    return cohomology(sp.z_rep, 3).class_of(beta)


def characteristic_class_omega_route(sp: CrossedModuleSplitting,
                                     sigma: Optional[Matrix] = None) -> CohomologyClass:
    """Class of d_S omega for a section-induced action S and a lift omega."""
    cm = sp.cm
    ghat, h = cm.ghat, cm.h
    if sigma is None:
        sigma = sp.q_sect
    if (sp.q_proj @ sigma) != Matrix.identity(sp.g.dim):
        raise DimensionMismatchError("sigma is not a section of the quotient map")
    S = OuterActionMap(sp.g, pullback_family(cm.action.matrices, sigma, h.dim),
                       space_dim=h.dim)
    # a zero curvature lifts to zero, so only the nonzero keys are solved
    defect = bracket_defect(sp.g, ghat, sigma)
    keys = list(defect)
    lifts, first_inconsistent, _ = solve_columns(cm.alpha, list(defect.values()))
    if first_inconsistent is not None:
        raise NoOmegaLiftError(
            f"section curvature at {keys[first_inconsistent]} misses the image of alpha")
    omega = Cochain.from_columns(sp.g, 2, h.dim, dict(zip(keys, lifts)))
    d_s_omega = covariant_differential(S, omega)
    z_cochain = restrict_cochain_to_subspace(d_s_omega, sp.z)
    return cohomology(sp.z_rep, 3).class_of(z_cochain)


class SplittingWitness(NamedTuple):
    """A cocycle extension of theta and the compatible abelian rewrite."""

    f_tilde: Cochain          # cocycle on ghat extending theta
    total: LieAlgebra         # z x_{f_tilde} ghat
    embedding: Matrix         # h -> total, equivariant bracket-preserving


def splitting_equivalence(cm: CrossedModule):
    """Witness for vanishing characteristic class, or (None, class).

    When the class vanishes, theta extends to a cocycle; the associated
    abelian extension of ghat receives h equivariantly over the image
    ideal.  When it does not vanish, the class itself is returned.
    """
    sp = split_crossed_module(cm)
    f_tilde = _alternating_extension(sp)
    chi = characteristic_class_theta_route(sp, f_tilde)
    if not chi.is_zero():
        return None, chi
    # peel off a coboundary to make the extension a cocycle
    d3 = chi.representative  # beta with d_f = pullback of beta
    beta_prime, _ = primitive(sp.z_rep, d3)
    if beta_prime is None:
        raise InvariantViolation("zero class without a bounding cochain")
    corrected = f_tilde - pullback_cochain(beta_prime, sp.q_proj, cm.ghat)
    if not cochain_differential(sp.zhat_rep, corrected).is_zero():
        raise InvariantViolation("corrected extension of theta is not a cocycle")
    abelian_z = LieAlgebra(sp.z.dim)
    fs = FactorSystem(abelian_z, cm.ghat, sp.zhat_rep.matrices, corrected)
    ext = build_extension(fs)
    total = ext.total
    # embed h = z + n into z + ghat
    embedding = block_matrix([[sp.z.split_matrix()], [cm.alpha]])
    if not bracket_preserving(cm.h, total, embedding):
        raise InvariantViolation("the splitting embedding does not preserve brackets")
    for x, m in enumerate(cm.action.matrices):
        if embedding @ m != total.ad_matrix(sp.z.dim + x) @ embedding:
            raise InvariantViolation("the splitting embedding is not equivariant")
    return SplittingWitness(corrected, total, embedding), chi
