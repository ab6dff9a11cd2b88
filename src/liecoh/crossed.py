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
agreement is itself exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cochains import (Cochain, OuterActionMap, cochain_differential,
                       covariant_differential, increasing_tuples)
from .cohomology import CohomologyClass, cohomology, differential_matrix
from .errors import (DimensionMismatchError, FactorizationFailureError,
                     InvalidCrossedModuleError, InvariantViolation,
                     NoOmegaLiftError)
from .extensions import (FactorSystem, build_extension,
                         restrict_cochain_to_subspace)
from .liealg import (LieAlgebra, Representation, bracket_preserving, center,
                     quotient_algebra)
from .linalg import (Matrix, Subspace, kernel as mat_kernel, solve_affine,
                     solve_columns, to_fractions, unit_vec, vec_add, vec_is_zero,
                     vec_scale, vec_sub, zero_vec)


@dataclass(frozen=True)
class CrossedModuleReport:
    """Outcome of the two defining checks and their three consequences."""

    cm1_failures: tuple
    cm2_failures: tuple
    image_ideal: bool
    kernel_central: bool
    kernel_submodule: bool

    @property
    def ok(self) -> bool:
        return not self.cm1_failures and not self.cm2_failures

    def describe(self) -> str:
        parts = []
        if self.cm1_failures:
            parts.append(f"equivariance fails at pairs {self.cm1_failures}")
        if self.cm2_failures:
            parts.append(f"the action along alpha is not adjoint at pairs {self.cm2_failures}")
        return "; ".join(parts) if parts else "valid"

    def as_dict(self) -> dict:
        return {
            "valid": self.ok,
            "cm1_failures": [list(x) for x in self.cm1_failures],
            "cm2_failures": [list(x) for x in self.cm2_failures],
            "image_is_ideal": self.image_ideal,
            "kernel_is_central": self.kernel_central,
            "kernel_is_submodule": self.kernel_submodule,
        }


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
        report = validate_crossed_module(self)
        if not report.ok:
            raise InvalidCrossedModuleError(report)

    def kernel_subspace(self) -> Subspace:
        return mat_kernel(self.alpha)

    def image_subspace(self) -> Subspace:
        from .linalg import image
        return image(self.alpha)

    def __repr__(self):
        return f"CrossedModule(h dim {self.h.dim}, ghat dim {self.ghat.dim})"


def _report(h: LieAlgebra, ghat: LieAlgebra, alpha: Matrix,
            action: Representation) -> CrossedModuleReport:
    cm1 = []
    for x in range(ghat.dim):
        for i in range(h.dim):
            lhs = alpha.matvec(action.act(x, unit_vec(h.dim, i)))
            rhs = ghat.bracket(unit_vec(ghat.dim, x), alpha.column(i))
            if lhs != rhs:
                cm1.append((x, i))
    cm2 = []
    for i in range(h.dim):
        ai = alpha.column(i)
        for j in range(h.dim):
            lhs = action.matrix_of(ai).matvec(unit_vec(h.dim, j))
            rhs = h.bracket_basis(i, j)
            if lhs != rhs:
                cm2.append((i, j))
    from .linalg import image
    im = image(alpha)
    image_ideal = all(
        im.contains(ghat.bracket(unit_vec(ghat.dim, x), b))
        for x in range(ghat.dim) for b in im.basis)
    ker = mat_kernel(alpha)
    hz = center(h)
    kernel_central = hz.contains_subspace(ker)
    kernel_submodule = all(
        ker.contains(action.act(x, b))
        for x in range(ghat.dim) for b in ker.basis)
    return CrossedModuleReport(tuple(cm1), tuple(cm2), image_ideal,
                               kernel_central, kernel_submodule)


def validate_crossed_module(cm) -> CrossedModuleReport:
    if isinstance(cm, CrossedModule):
        return _report(cm.h, cm.ghat, cm.alpha, cm.action)
    h, ghat, alpha, action = cm
    return _report(h, ghat, alpha, action)


@dataclass(frozen=True)
class CrossedModuleSplitting:
    """Coordinates for h = z + image(alpha) and the induced quotient data."""

    cm: CrossedModule
    z: Subspace              # kernel of alpha, inside h
    n_alg: LieAlgebra        # image of alpha with its induced bracket
    n_sub: Subspace          # image of alpha, inside ghat
    h_lift: Matrix           # n coordinates -> h, section of alpha into the complement
    f: Cochain               # 2-cochain on n_alg valued in z coordinates
    theta: dict              # (ghat index, n index) -> z coordinates
    g: LieAlgebra            # ghat / n
    q_proj: Matrix           # ghat -> g
    q_sect: Matrix           # g -> ghat
    z_rep: Representation    # induced g-module structure on z
    zhat_rep: Representation  # the ghat-module structure on z (factors through g)


def split_crossed_module(cm: CrossedModule) -> CrossedModuleSplitting:
    """Choose canonical coordinates and extract (f, theta) and the quotient."""
    h, ghat, alpha = cm.h, cm.ghat, cm.alpha
    z = mat_kernel(alpha)
    n_sub = Subspace.from_vectors(ghat.dim, [alpha.column(j) for j in range(h.dim)])
    # complement of z in h: the non-pivot axes of z
    from .linalg import quotient_coordinates
    _, h_compl_sect = quotient_coordinates(h.dim, z)
    # n in its canonical basis, with brackets induced from ghat
    n_dim = n_sub.dim
    table = {}
    for i in range(n_dim):
        for j in range(i + 1, n_dim):
            w = ghat.bracket(n_sub.basis[i], n_sub.basis[j])
            coords = n_sub.coordinates_of(w)
            if coords is None:
                raise InvariantViolation("the image of alpha is not bracket-closed")
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                table[(i, j)] = entry
    n_alg = LieAlgebra(n_dim, table)
    # lift n -> h landing in the complement of z: solve alpha restricted
    lifts, first_inconsistent, _ = solve_columns(alpha @ h_compl_sect, n_sub.basis)
    if first_inconsistent is not None:
        raise InvariantViolation("alpha does not reach its own image")
    h_lift = Matrix.from_columns([h_compl_sect.matvec(x) for x in lifts], rows=h.dim)

    def z_coords_of(v):
        v = to_fractions(v)
        coords = z.coordinates_of(vec_sub(v, z.reduce(v)))
        if coords is None:
            raise InvariantViolation("vector does not split along the kernel")
        return coords

    f_table = {}
    for key in increasing_tuples(n_dim, 2):
        i, j = key
        w = h.bracket(h_lift.column(i), h_lift.column(j))
        w = vec_sub(w, h_lift.matvec(n_alg.bracket_basis(i, j)))
        coords = z_coords_of(w)
        if not vec_is_zero(coords):
            f_table[key] = coords
    f = Cochain(n_alg, 2, z.dim, f_table)

    theta = {}
    for x in range(ghat.dim):
        for a in range(n_dim):
            w = cm.action.act(x, h_lift.column(a))
            # remove the lifted quotient part: [x, n_a] in n, lifted to h
            br = ghat.bracket(unit_vec(ghat.dim, x), n_sub.basis[a])
            br_coords = n_sub.coordinates_of(br)
            if br_coords is None:
                raise InvariantViolation("the image of alpha is not an ideal")
            w = vec_sub(w, h_lift.matvec(br_coords))
            val = z_coords_of(w)
            if not vec_is_zero(val):
                theta[(x, a)] = val

    g, q_proj, q_sect = quotient_algebra(ghat, n_sub)
    zhat_mats = []
    for x in range(ghat.dim):
        cols = []
        for b in z.basis:
            coords = z.coordinates_of(cm.action.act(x, b))
            if coords is None:
                raise InvariantViolation("the action does not preserve the kernel")
            cols.append(coords)
        zhat_mats.append(Matrix.from_columns(cols, rows=z.dim))
    zhat_rep = Representation(ghat, z.dim, zhat_mats)
    z_mats = [zhat_rep.matrix_of(q_sect.column(i)) for i in range(g.dim)]
    z_rep = Representation(g, z.dim, z_mats)
    for x in range(ghat.dim):
        if zhat_rep.matrices[x] != z_rep.matrix_of(q_proj.column(x)):
            raise InvariantViolation("the kernel action does not factor through the quotient")
    sp = CrossedModuleSplitting(cm, z, n_alg, n_sub, h_lift, f, theta, g,
                                q_proj, q_sect, z_rep, zhat_rep)
    _check_splitting(sp)
    return sp


def _check_splitting(sp: CrossedModuleSplitting) -> None:
    """theta restricts to f, each slot is a derivation datum, and the table
    satisfies the action cocycle identity."""
    n_dim = sp.n_alg.dim
    zd = sp.z.dim
    ghat = sp.cm.ghat
    for key, vec in sp.f.coeffs.items():
        i, j = key
        got = _theta_value(sp, sp.n_sub.basis[i], j)
        if got != tuple(vec):
            raise InvariantViolation("theta does not restrict to the extension cocycle")
    for x in range(ghat.dim):
        theta_x = Cochain(sp.n_alg, 1, zd,
                          {(a,): sp.theta[(x, a)] for a in range(n_dim)
                           if (x, a) in sp.theta})
        d_theta = cochain_differential(Representation.trivial(sp.n_alg, zd), theta_x)
        if d_theta != _module_action_on_f(sp, x):
            raise InvariantViolation(
                f"theta slot {x} is not a derivation datum for the cocycle")
    for x in range(ghat.dim):
        for y in range(x + 1, ghat.dim):
            bracket_xy = ghat.bracket_basis(x, y)
            for a in range(n_dim):
                total = sp.zhat_rep.matrices[x].matvec(
                    sp.theta.get((y, a), zero_vec(zd)))
                total = vec_sub(total, sp.zhat_rep.matrices[y].matvec(
                    sp.theta.get((x, a), zero_vec(zd))))
                total = vec_sub(total, _theta_value(sp, bracket_xy, a))
                total = vec_add(total, _theta_at_n_vec(sp, x, _bracket_in_n(sp, y, a)))
                total = vec_sub(total, _theta_at_n_vec(sp, y, _bracket_in_n(sp, x, a)))
                if not vec_is_zero(total):
                    raise InvariantViolation(
                        f"theta fails the action cocycle identity at ({x},{y},{a})")


def _theta_at_n_vec(sp: CrossedModuleSplitting, x: int, n_coords):
    zd = sp.z.dim
    out = zero_vec(zd)
    for a, c in enumerate(n_coords):
        if c != 0:
            out = vec_add(out, vec_scale(c, sp.theta.get((x, a), zero_vec(zd))))
    return out


def _theta_value(sp: CrossedModuleSplitting, x_coords, a: int):
    zd = sp.z.dim
    out = zero_vec(zd)
    for x, c in enumerate(x_coords):
        if c != 0:
            out = vec_add(out, vec_scale(c, sp.theta.get((x, a), zero_vec(zd))))
    return out


def _bracket_in_n(sp: CrossedModuleSplitting, x: int, a: int):
    br = sp.cm.ghat.bracket(unit_vec(sp.cm.ghat.dim, x), sp.n_sub.basis[a])
    coords = sp.n_sub.coordinates_of(br)
    if coords is None:
        raise InvariantViolation("the image of alpha is not an ideal")
    return coords


def _module_action_on_f(sp: CrossedModuleSplitting, x: int) -> Cochain:
    """x.f as a 2-cochain on n: x.(f(a,b)) - f([x,a],b) - f(a,[x,b])."""
    n_dim = sp.n_alg.dim
    zd = sp.z.dim
    table = {}
    for key in increasing_tuples(n_dim, 2):
        a, b = key
        val = sp.zhat_rep.matrices[x].matvec(sp.f.component(key))
        val = vec_sub(val, sp.f.evaluate([_bracket_in_n(sp, x, a), unit_vec(n_dim, b)]))
        val = vec_sub(val, sp.f.evaluate([unit_vec(n_dim, a), _bracket_in_n(sp, x, b)]))
        if not vec_is_zero(val):
            table[key] = val
    return Cochain(sp.n_alg, 2, zd, table)


# ---------------------------------------------------------------------------
# characteristic class, two routes
# ---------------------------------------------------------------------------

def _alternating_extension(sp: CrossedModuleSplitting) -> Cochain:
    """Extend theta to an alternating 2-cochain on ghat.

    Values on complement pairs are set to zero; everything else is forced
    by alternation and the restriction requirement.
    """
    ghat = sp.cm.ghat
    zd = sp.z.dim
    table = {}
    for key in increasing_tuples(ghat.dim, 2):
        i, j = key
        u, v = unit_vec(ghat.dim, i), unit_vec(ghat.dim, j)
        u_n = sp.n_sub.coordinates_of(vec_sub(u, sp.n_sub.reduce(u)))
        v_n = sp.n_sub.coordinates_of(vec_sub(v, sp.n_sub.reduce(v)))
        v_c = sp.n_sub.reduce(v)
        # f_tilde(u, v) = theta(u, v_n) - theta(v_c, u_n)
        val = _theta_value_vec(sp, u, v_n)
        val = vec_sub(val, _theta_value_vec(sp, v_c, u_n))
        if not vec_is_zero(val):
            table[key] = val
    return Cochain(ghat, 2, zd, table)


def _theta_value_vec(sp: CrossedModuleSplitting, x_coords, n_coords):
    zd = sp.z.dim
    out = zero_vec(zd)
    for a, c in enumerate(n_coords):
        if c != 0:
            out = vec_add(out, vec_scale(c, _theta_value(sp, x_coords, a)))
    return out


def characteristic_class_theta_route(sp: CrossedModuleSplitting,
                                     f_tilde: Optional[Cochain] = None) -> CohomologyClass:
    """Class of the factored differential of an alternating extension of theta."""
    ghat = sp.cm.ghat
    if f_tilde is None:
        f_tilde = _alternating_extension(sp)
    d_f = cochain_differential(sp.zhat_rep, f_tilde)
    beta_table = {}
    for key in increasing_tuples(sp.g.dim, 3):
        val = d_f.evaluate([sp.q_sect.column(k) for k in key])
        if not vec_is_zero(val):
            beta_table[key] = val
    beta = Cochain(sp.g, 3, sp.z.dim, beta_table)
    # the pullback of beta must reproduce d_f on all of ghat
    for key in increasing_tuples(ghat.dim, 3):
        expected = beta.evaluate([sp.q_proj.column(k) for k in key])
        if tuple(expected) != d_f.component(key):
            raise FactorizationFailureError(
                f"the differential of the extension does not factor at {key}")
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
    S_mats = [cm.action.matrix_of(sigma.column(i)) for i in range(sp.g.dim)]
    S = OuterActionMap(sp.g, S_mats, validate=False, space_dim=h.dim)
    keys = list(increasing_tuples(sp.g.dim, 2))
    targets = [vec_sub(ghat.bracket(sigma.column(i), sigma.column(j)),
                       sigma.matvec(sp.g.bracket_basis(i, j))) for i, j in keys]
    lifts, first_inconsistent, _ = solve_columns(cm.alpha, targets)
    if first_inconsistent is not None:
        raise NoOmegaLiftError(
            f"section curvature at {keys[first_inconsistent]} misses the image of alpha")
    omega_table = {key: x for key, x in zip(keys, lifts) if not vec_is_zero(x)}
    omega = Cochain(sp.g, 2, h.dim, omega_table)
    d_s_omega = covariant_differential(S, omega)
    z_cochain = restrict_cochain_to_subspace(d_s_omega, sp.z)
    return cohomology(sp.z_rep, 3).class_of(z_cochain)


@dataclass(frozen=True)
class SplittingWitness:
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
    d_mat = differential_matrix(sp.z_rep, 2)
    beta_prime_coords, _, _ = solve_affine(d_mat, d3.coordinates())
    if beta_prime_coords is None:
        raise InvariantViolation("zero class without a bounding cochain")
    beta_prime = Cochain.from_coordinates(sp.g, 2, sp.z.dim, beta_prime_coords)
    pullback_table = {}
    for key in increasing_tuples(cm.ghat.dim, 2):
        val = beta_prime.evaluate([sp.q_proj.column(k) for k in key])
        if not vec_is_zero(val):
            pullback_table[key] = val
    corrected = f_tilde - Cochain(cm.ghat, 2, sp.z.dim, pullback_table)
    if not cochain_differential(sp.zhat_rep, corrected).is_zero():
        raise InvariantViolation("corrected extension of theta is not a cocycle")
    abelian_z = LieAlgebra(sp.z.dim)
    fs = FactorSystem(abelian_z, cm.ghat, sp.zhat_rep.matrices, corrected)
    ext = build_extension(fs)
    total = ext.total
    # embed h = z + n into z + ghat
    cols = []
    for i in range(cm.h.dim):
        v = unit_vec(cm.h.dim, i)
        z_part = sp.z.coordinates_of(vec_sub(v, sp.z.reduce(v)))
        n_part = cm.alpha.column(i)
        cols.append(tuple(z_part) + tuple(n_part))
    embedding = Matrix.from_columns(cols, rows=total.dim)
    if not bracket_preserving(cm.h, total, embedding):
        raise InvariantViolation("the splitting embedding does not preserve brackets")
    for x in range(cm.ghat.dim):
        x_total = unit_vec(total.dim, sp.z.dim + x)
        for i in range(cm.h.dim):
            lhs = embedding.matvec(cm.action.act(x, unit_vec(cm.h.dim, i)))
            rhs = total.bracket(x_total, embedding.column(i))
            if lhs != rhs:
                raise InvariantViolation("the splitting embedding is not equivariant")
    return SplittingWitness(corrected, total, embedding), chi
