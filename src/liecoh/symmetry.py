"""Derivations and automorphisms of a split extension.

Both questions reduce to the same two-condition scheme: a pair acting on
the kernel and the quotient stabilizes the outer action up to an inner
map ad(gamma), and the induced change of omega must be absorbed by
gamma.  The failure of the second condition is a degree-2 class with
center coefficients; it vanishes exactly for liftable pairs, the
non-liftable ones being separated from the kernel cocycles Z^1 by an
exact four-term sequence.  Everything here is decided by exact affine
linear algebra, and the computed dimensions are cross-checked against a
brute-force derivation solve on the built total algebra.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cochains import (Cochain, HALF, OuterActionMap, covariant_differential,
                       increasing_tuples, superbracket)
from .cohomology import (CohomologyClass, CohomologySpace, cohomology,
                         differential_matrix)
from .errors import (DimensionMismatchError, InvariantViolation, NoGammaError,
                     NotAHomomorphismError, PreconditionFailedError)
from .extensions import (FactorSystem, build_extension, check_equivalence_map,
                         embed_cochain_from_subspace, equivalent_extensions,
                         restrict_cochain_to_subspace, transport_cochain,
                         transport_outer_action)
from .liealg import (LieAlgebra, Representation, ad_stack, bracket_preserving,
                     center, is_derivation, leibniz_rows, solve_inner)
from .linalg import (Matrix, Subspace, invert, kernel, solve_affine, unit_vec,
                     vec_is_zero, vec_scale, vec_sub, zero_vec)


# ---------------------------------------------------------------------------
# the infinitesimal (derivation) pair action
# ---------------------------------------------------------------------------

def pair_act_outer(alpha: Matrix, beta: Matrix, S: OuterActionMap) -> OuterActionMap:
    """x -> [alpha, S(x)] - S(beta x), the derivation action on S."""
    mats = []
    for a in range(S.algebra.dim):
        m = alpha.commutator(S.matrices[a])
        for b, coeff in enumerate(beta.column(a)):
            if coeff != 0:
                m = m - S.matrices[b].scale(coeff)
        mats.append(m)
    return OuterActionMap(S.algebra, mats, target=S.target, validate=False)


def pair_act_cochain(alpha: Matrix, beta: Matrix, c: Cochain) -> Cochain:
    """alpha . c - sum over slots of c with beta in one slot."""
    table = {}
    n = c.algebra.dim
    for key in increasing_tuples(n, c.degree):
        args = [unit_vec(n, k) for k in key]
        val = alpha.matvec(c.component(key))
        for slot in range(c.degree):
            slotted = list(args)
            slotted[slot] = beta.column(key[slot])
            val = vec_sub(val, c.evaluate(slotted))
        if not vec_is_zero(val):
            table[key] = val
    return Cochain(c.algebra, c.degree, alpha.rows, table)


def check_derivation_triple(alpha: Matrix, beta: Matrix, gamma: Cochain,
                            fs: FactorSystem) -> bool:
    """Decide whether (n, x) -> (alpha n + gamma x, beta x) derives the extension."""
    if not is_derivation(fs.n, alpha):
        raise PreconditionFailedError("alpha is not a derivation of n")
    if not is_derivation(fs.g, beta):
        raise PreconditionFailedError("beta is not a derivation of g")
    acted_S = pair_act_outer(alpha, beta, fs.S)
    inner = [fs.n.ad(gamma.component((a,))) for a in range(fs.g.dim)]
    cond1 = all(acted_S.matrices[a] == inner[a] for a in range(fs.g.dim))
    cond2 = (pair_act_cochain(alpha, beta, fs.omega)
             == covariant_differential(fs.S, gamma))
    ok = cond1 and cond2
    if ok:
        total = build_extension(fs).total
        nd, gd = fs.n.dim, fs.g.dim
        cols = [tuple(alpha.column(i)) + zero_vec(gd) for i in range(nd)]
        for a in range(gd):
            cols.append(tuple(gamma.component((a,))) + tuple(beta.column(a)))
        D = Matrix.from_columns(cols, rows=nd + gd)
        if not is_derivation(total, D):
            raise InvariantViolation(
                "derivation conditions hold but the assembled map fails")
    return ok


# ---------------------------------------------------------------------------
# the full derivation report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivationReport:
    """Dimensions and witnesses for the derivation sequence of an extension.

    kernel: quotient-to-center cocycles acting as shifts along the ideal;
    stabilizer: pairs moving S by an inner map; image: pairs lifting to
    honest derivations; the degree-2 classes of the remaining pairs fill
    the cokernel.
    """

    fs: FactorSystem
    z1: Subspace                     # cocycle space, C^1(g, z) coordinates
    kernel_cochains: tuple           # z-valued 1-cochains on g
    stabilizer_pairs: tuple          # (alpha, beta) matrices
    stabilizer_gammas: tuple         # deterministic gamma per pair
    obstruction_classes: tuple       # degree-2 class per stabilizer pair
    image_pairs: tuple               # (alpha, beta, gamma) liftable triples
    h2: CohomologySpace
    i_image_dim: int
    brute_force_dim: int

    @property
    def kernel_dim(self) -> int:
        return self.z1.dim

    @property
    def stabilizer_dim(self) -> int:
        return len(self.stabilizer_pairs)

    @property
    def image_dim(self) -> int:
        return len(self.image_pairs)

    @property
    def total_dim(self) -> int:
        return self.kernel_dim + self.image_dim

    @property
    def i_surjective(self) -> bool:
        return self.i_image_dim == self.h2.h_dim

    @property
    def cokernel_dim(self) -> int:
        return self.h2.h_dim - self.i_image_dim

    @property
    def exact(self) -> bool:
        return (self.stabilizer_dim == self.image_dim + self.i_image_dim
                and self.i_surjective
                and self.total_dim == self.brute_force_dim)

    def as_dict(self) -> dict:
        return {
            "kernel_dim": self.kernel_dim,
            "stabilizer_dim": self.stabilizer_dim,
            "image_dim": self.image_dim,
            "h2_dim": self.h2.h_dim,
            "i_image_dim": self.i_image_dim,
            "i_surjective": self.i_surjective,
            "cokernel_dim": self.cokernel_dim,
            "total_derivation_dim": self.total_dim,
            "brute_force_dim": self.brute_force_dim,
            "exact": self.exact,
        }


def _pair_system_rows(fs: FactorSystem):
    """Joint linear system in (alpha, beta, gamma) for the stabilizer.

    Variables: alpha (nd^2), beta (gd^2), gamma (gd * nd), flattened in
    that order.  Returns (rows, omega_rows, nvars, va, vb): ``rows``
    constrain alpha and beta to be derivations and the acted S to equal
    ad(gamma); ``omega_rows`` constrain the acted omega to equal d_S gamma.
    """
    n_alg, g_alg, S, omega = fs.n, fs.g, fs.S, fs.omega
    nd, gd = n_alg.dim, g_alg.dim
    va, vb = nd * nd, gd * gd
    nvars = va + vb + gd * nd
    rows = leibniz_rows(n_alg, 0) + leibniz_rows(g_alg, va)

    stack = ad_stack(n_alg)
    # [alpha, S_a] - S(beta e_a) - ad(gamma_a) = 0
    for a in range(gd):
        Sa = S.matrices[a]
        for r in range(nd):
            for c in range(nd):
                row = Counter()
                for k in range(nd):
                    # (alpha Sa)_{rc} involves alpha_{rk} Sa_{kc}
                    row[r * nd + k] += Sa.entry(k, c)
                    # (Sa alpha)_{rc} involves Sa_{rk} alpha_{kc}
                    row[k * nd + c] -= Sa.entry(r, k)
                for b in range(gd):
                    row[va + b * gd + a] -= S.matrices[b].entry(r, c)
                for k, x in enumerate(stack.row(r * nd + c)):
                    row[va + vb + a * nd + k] -= x
                rows.append(row)

    # alpha(omega(i,j)) - omega(beta e_i, e_j) - omega(e_i, beta e_j)
    #   - (d_S gamma)(i, j) = 0
    omega_rows = []
    for key in increasing_tuples(gd, 2):
        i, j = key
        w = omega.component(key)
        for r in range(nd):
            row = Counter()
            for k in range(nd):
                row[r * nd + k] += w[k]
            for b in range(gd):
                # omega(e_b, e_j) coefficient of beta_{bi}
                val = omega.value_at_indices((b, j))
                if val[r] != 0:
                    row[va + b * gd + i] -= val[r]
                val = omega.value_at_indices((i, b))
                if val[r] != 0:
                    row[va + b * gd + j] -= val[r]
            # (d_S gamma)(e_i, e_j) = S_i gamma_j - S_j gamma_i
            #                         - gamma([e_i, e_j])
            for k in range(nd):
                row[va + vb + j * nd + k] -= S.matrices[i].entry(r, k)
                row[va + vb + i * nd + k] += S.matrices[j].entry(r, k)
            for b, c in enumerate(fs.g.bracket_basis(i, j)):
                if c != 0:
                    row[va + vb + b * nd + r] += c
            omega_rows.append(row)
    return rows, omega_rows, nvars, va, vb


def _project_pairs(solution: Subspace, va: int, vb: int, nd: int, gd: int):
    projected = Subspace.from_vectors(
        va + vb, [v[:va + vb] for v in solution.basis])
    pairs = []
    for v in projected.basis:
        alpha = Matrix.unflatten(v[:va], nd, nd)
        beta = Matrix.unflatten(v[va:va + vb], gd, gd)
        pairs.append((alpha, beta))
    return projected, tuple(pairs)


def extension_derivations(fs: FactorSystem) -> DerivationReport:
    """Dimensions and witnesses of the derivation sequence for fs."""
    n_alg, g_alg = fs.n, fs.g
    nd, gd = n_alg.dim, g_alg.dim
    z = center(n_alg)
    z_rep = fs.center_rep()
    z1 = kernel(differential_matrix(z_rep, 1))
    kernel_cochains = tuple(
        embed_cochain_from_subspace(
            Cochain.from_coordinates(g_alg, 1, z.dim, v), z)
        for v in z1.basis)

    rows, omega_rows, nvars, va, vb = _pair_system_rows(fs)
    solution = kernel(Matrix.from_sparse_rows(rows, nvars))
    _, stabilizer_pairs = _project_pairs(solution, va, vb, nd, gd)

    h2 = cohomology(z_rep, 2)
    gammas = []
    classes = []
    for alpha, beta in stabilizer_pairs:
        particular, _ = solve_inner(
            n_alg, [m.flatten() for m in pair_act_outer(alpha, beta, fs.S).matrices])
        if particular is None:
            raise InvariantViolation("projected stabilizer pair admits no gamma")
        gamma = Cochain.from_coordinates(g_alg, 1, nd, particular)
        gammas.append(gamma)
        delta = pair_act_cochain(alpha, beta, fs.omega) - covariant_differential(fs.S, gamma)
        delta_z = restrict_cochain_to_subspace(delta, z)
        classes.append(h2.class_of(delta_z))

    solution_full = kernel(Matrix.from_sparse_rows(rows + omega_rows, nvars))
    _, image_pairs_ab = _project_pairs(solution_full, va, vb, nd, gd)
    image_triples = []
    for alpha, beta in image_pairs_ab:
        particular, _ = solve_inner(
            n_alg, [m.flatten() for m in pair_act_outer(alpha, beta, fs.S).matrices])
        image_triples.append((alpha, beta,
                              Cochain.from_coordinates(g_alg, 1, nd, particular)))

    i_image = Subspace.from_vectors(
        h2.cocycles.ambient_dim,
        [cls.normalized for cls in classes if not cls.is_zero()])

    brute = _brute_force_ideal_derivations(fs)
    return DerivationReport(fs, z1, kernel_cochains, stabilizer_pairs,
                            tuple(gammas), tuple(classes), tuple(image_triples),
                            h2, i_image.dim, brute)


def _brute_force_ideal_derivations(fs: FactorSystem) -> int:
    """dim of derivations of the built total preserving the ideal block."""
    total = build_extension(fs).total
    N, nd = total.dim, fs.n.dim
    rows = leibniz_rows(total)
    # preserve the ideal: the g-block of D(n-column) vanishes
    rows += [{(nd + r) * N + j: 1} for j in range(nd) for r in range(fs.g.dim)]
    return kernel(Matrix.from_sparse_rows(rows, N * N)).dim


def derivation_pair_obstruction(fs: FactorSystem, alpha: Matrix,
                                beta: Matrix) -> tuple[CohomologyClass, Cochain]:
    """The degree-2 class deciding liftability of a derivation pair.

    Returns (class, gamma) for the deterministic gamma; raises NoGammaError
    when the pair does not stabilize the kernel class.
    """
    if not is_derivation(fs.n, alpha):
        raise PreconditionFailedError("alpha is not a derivation of n")
    if not is_derivation(fs.g, beta):
        raise PreconditionFailedError("beta is not a derivation of g")
    particular, certificate = solve_inner(
        fs.n, [m.flatten() for m in pair_act_outer(alpha, beta, fs.S).matrices])
    if particular is None:
        raise NoGammaError(certificate)
    gamma = Cochain.from_coordinates(fs.g, 1, fs.n.dim, particular)
    z = center(fs.n)
    delta = pair_act_cochain(alpha, beta, fs.omega) - covariant_differential(fs.S, gamma)
    delta_z = restrict_cochain_to_subspace(delta, z)
    h2 = cohomology(fs.center_rep(), 2)
    cls = h2.class_of(delta_z)
    if z.dim > 0 and fs.g.dim > 0:
        shift = Cochain(fs.g, 1, z.dim, {(0,): unit_vec(z.dim, 0)})
        gamma2 = gamma + embed_cochain_from_subspace(shift, z)
        delta2 = (pair_act_cochain(alpha, beta, fs.omega)
                  - covariant_differential(fs.S, gamma2))
        if h2.class_of(restrict_cochain_to_subspace(delta2, z)) != cls:
            raise InvariantViolation("obstruction class depends on the gamma choice")
    return cls, gamma


# ---------------------------------------------------------------------------
# lifting an outside algebra action
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftingReport:
    """Outcome of lifting an action of h on (n, g) to the extension."""

    h: LieAlgebra
    cocycle_values: dict        # (x, y) -> 1-cochain on g valued in n (central)
    z1: Subspace
    z1_rep: Representation
    cocycle: Cochain            # 2-cochain on h, coordinates in the Z^1 basis
    obstruction: CohomologyClass
    lift_matrices: Optional[tuple]

    @property
    def is_zero_cocycle(self) -> bool:
        return self.cocycle.is_zero()

    @property
    def lift_exists(self) -> bool:
        return self.lift_matrices is not None


def lifting_cocycle(fs: FactorSystem, h_alg: LieAlgebra, psi_n: Sequence[Matrix],
                    psi_g: Sequence[Matrix], theta: Sequence[Cochain]) -> LiftingReport:
    """The degree-2 cocycle of the pulled-back derivation extension.

    psi assigns to each basis element of h a derivation pair, theta a
    candidate gamma; the cocycle d_h theta measures the failure of the
    assembled lift to preserve brackets.
    """
    n_alg, g_alg = fs.n, fs.g
    hd = h_alg.dim
    if len(psi_n) != hd or len(psi_g) != hd or len(theta) != hd:
        raise DimensionMismatchError("one pair and one theta per basis element of h")
    for x in range(hd):
        if not is_derivation(n_alg, psi_n[x]):
            raise PreconditionFailedError(f"psi_n is not a derivation at index {x}",
                                          index=x)
        if not is_derivation(g_alg, psi_g[x]):
            raise PreconditionFailedError(f"psi_g is not a derivation at index {x}",
                                          index=x)
        acted = pair_act_outer(psi_n[x], psi_g[x], fs.S)
        inner = [n_alg.ad(theta[x].component((a,))) for a in range(g_alg.dim)]
        if any(acted.matrices[a] != inner[a] for a in range(g_alg.dim)):
            raise PreconditionFailedError(
                f"psi(x).S is not ad(theta(x)) at index {x}", index=x)
        if (pair_act_cochain(psi_n[x], psi_g[x], fs.omega)
                != covariant_differential(fs.S, theta[x])):
            raise PreconditionFailedError(
                f"x.omega is not the covariant differential of theta(x) at index {x}",
                index=x)
    for x in range(hd):
        for y in range(x + 1, hd):
            an = psi_n[x].commutator(psi_n[y])
            ag = psi_g[x].commutator(psi_g[y])
            bn = Matrix.zero(n_alg.dim, n_alg.dim)
            bg = Matrix.zero(g_alg.dim, g_alg.dim)
            for k, c in enumerate(h_alg.bracket_basis(x, y)):
                if c != 0:
                    bn = bn + psi_n[k].scale(c)
                    bg = bg + psi_g[k].scale(c)
            if an != bn or ag != bg:
                raise PreconditionFailedError(
                    f"psi is not a homomorphism at pair ({x},{y})", index=(x, y))

    z = center(n_alg)
    z_rep = fs.center_rep()
    z1 = kernel(differential_matrix(z_rep, 1))

    def act_on_cochain(x: int, c: Cochain) -> Cochain:
        # pair action of psi(x) on 1-cochains g -> n
        table = {}
        for a in range(g_alg.dim):
            val = psi_n[x].matvec(c.component((a,)))
            val = vec_sub(val, c.evaluate([psi_g[x].column(a)]))
            if not vec_is_zero(val):
                table[(a,)] = val
        return Cochain(g_alg, 1, n_alg.dim, table)

    def z1_coords(c: Cochain):
        cz = restrict_cochain_to_subspace(c, z)
        coords = z1.coordinates_of(cz.coordinates())
        if coords is None:
            raise InvariantViolation("a value left the cocycle space")
        return coords

    z1_mats = []
    for x in range(hd):
        cols = []
        for v in z1.basis:
            c = embed_cochain_from_subspace(
                Cochain.from_coordinates(g_alg, 1, z.dim, v), z)
            cols.append(z1_coords(act_on_cochain(x, c)))
        z1_mats.append(Matrix.from_columns(cols, rows=z1.dim))
    z1_rep = Representation(h_alg, z1.dim, z1_mats)

    values = {}
    coord_table = {}
    for x in range(hd):
        for y in range(x + 1, hd):
            val = act_on_cochain(x, theta[y]) - act_on_cochain(y, theta[x])
            for k, c in enumerate(h_alg.bracket_basis(x, y)):
                if c != 0:
                    val = val - theta[k].scale(c)
            values[(x, y)] = val
            coords = z1_coords(val)
            if not vec_is_zero(coords):
                coord_table[(x, y)] = coords
    cocycle = Cochain(h_alg, 2, z1.dim, coord_table)
    obstruction = cohomology(z1_rep, 2).class_of(cocycle)

    lift = None
    if obstruction.is_zero():
        corr_coords, _, _ = solve_affine(
            differential_matrix(z1_rep, 1),
            vec_scale(Fraction(-1), cocycle.coordinates()))
        corr = Cochain.from_coordinates(h_alg, 1, z1.dim, corr_coords)
        theta_fixed = []
        for x in range(hd):
            shift = embed_cochain_from_subspace(
                Cochain.from_coordinates(g_alg, 1, z.dim,
                                         z1.embed(corr.component((x,)))), z)
            theta_fixed.append(theta[x] + shift)
        total = build_extension(fs).total
        nd, gd = n_alg.dim, g_alg.dim
        mats = []
        for x in range(hd):
            cols = [tuple(psi_n[x].column(i)) + zero_vec(gd) for i in range(nd)]
            for a in range(gd):
                cols.append(tuple(theta_fixed[x].component((a,)))
                            + tuple(psi_g[x].column(a)))
            mats.append(Matrix.from_columns(cols, rows=nd + gd))
        for x, D in enumerate(mats):
            if not is_derivation(total, D):
                raise InvariantViolation(f"assembled lift {x} is not a derivation")
        for x in range(hd):
            for y in range(x + 1, hd):
                expected = Matrix.zero(nd + gd, nd + gd)
                for k, c in enumerate(h_alg.bracket_basis(x, y)):
                    if c != 0:
                        expected = expected + mats[k].scale(c)
                if mats[x].commutator(mats[y]) != expected:
                    raise InvariantViolation(
                        "assembled lift is not a homomorphism despite a zero class")
        lift = tuple(mats)
    return LiftingReport(h_alg, values, z1, z1_rep, cocycle, obstruction, lift)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def check_automorphism_triple(alpha: Matrix, beta: Matrix, gamma: Cochain,
                              fs1: FactorSystem, fs2: FactorSystem) -> bool:
    """The two-condition test for (n,x) -> (alpha n + gamma(beta x), beta x)."""
    return check_equivalence_map(alpha, beta, gamma, fs1, fs2)


def transported_factor_system(fs: FactorSystem, alpha: Matrix,
                              beta: Matrix) -> FactorSystem:
    """The factor system of the extension re-coordinatized through (alpha, beta)."""
    alpha_inv = invert(alpha)
    beta_inv = invert(beta)
    if alpha_inv is None or not bracket_preserving(fs.n, fs.n, alpha):
        raise NotAHomomorphismError("alpha is not an automorphism of n")
    if beta_inv is None or not bracket_preserving(fs.g, fs.g, beta):
        raise NotAHomomorphismError("beta is not an automorphism of g")
    S = transport_outer_action(alpha, alpha_inv, beta_inv, fs.S)
    omega = transport_cochain(alpha, beta_inv, fs.omega)
    return FactorSystem(fs.n, fs.g, S, omega)


@dataclass(frozen=True)
class AutomorphismObstruction:
    pair: tuple
    gamma: Cochain
    obstruction: CohomologyClass
    lift: Optional[Matrix]

    @property
    def lift_exists(self) -> bool:
        return self.lift is not None


def automorphism_pair_obstruction(fs: FactorSystem, alpha: Matrix,
                                  beta: Matrix) -> AutomorphismObstruction:
    """Degree-2 class deciding whether an automorphism pair lifts."""
    transported = transported_factor_system(fs, alpha, beta)
    particular, certificate = solve_inner(
        fs.n, [(m1 - m2).flatten() for m1, m2 in zip(transported.S.matrices, fs.S.matrices)])
    if particular is None:
        raise NoGammaError(certificate)
    gamma = Cochain.from_coordinates(fs.g, 1, fs.n.dim, particular)
    delta = (transported.omega - fs.omega - covariant_differential(fs.S, gamma)
             - superbracket(fs.n, gamma, gamma).scale(HALF))
    z = center(fs.n)
    delta_z = restrict_cochain_to_subspace(delta, z)
    h2 = cohomology(fs.center_rep(), 2)
    cls = h2.class_of(delta_z)
    lift = None
    if cls.is_zero():
        zeta_coords, _, _ = solve_affine(differential_matrix(fs.center_rep(), 1),
                                         delta_z.coordinates())
        zeta = embed_cochain_from_subspace(
            Cochain.from_coordinates(fs.g, 1, z.dim, zeta_coords), z)
        gamma_full = gamma + zeta
        if not check_equivalence_map(alpha, beta, gamma_full, fs, fs):
            raise InvariantViolation("zero class but the lift conditions fail")
        nd, gd = fs.n.dim, fs.g.dim
        cols = [tuple(alpha.column(i)) + zero_vec(gd) for i in range(nd)]
        for a in range(gd):
            bx = beta.column(a)
            cols.append(tuple(gamma_full.evaluate([bx])) + tuple(bx))
        lift = Matrix.from_columns(cols, rows=nd + gd)
        total = build_extension(fs).total
        if not bracket_preserving(total, total, lift) or invert(lift) is None:
            raise InvariantViolation("assembled automorphism fails to verify")
    return AutomorphismObstruction((alpha, beta), gamma, cls, lift)


def act_on_degree2_class(fs: FactorSystem, alpha: Matrix, beta: Matrix,
                         cls: CohomologyClass) -> CohomologyClass:
    """The automorphism-pair action on degree-2 center classes."""
    z = center(fs.n)
    beta_inv = invert(beta)
    eta = embed_cochain_from_subspace(cls.representative, z)
    moved = transport_cochain(alpha, beta_inv, eta)
    return cls.space.class_of(restrict_cochain_to_subspace(moved, z))


def pair_lifts_iff_transport_equivalent(fs: FactorSystem, alpha: Matrix,
                                        beta: Matrix) -> tuple[bool, bool]:
    """Compare liftability with equivalence of the transported extension."""
    transported = transported_factor_system(fs, alpha, beta)
    equivalent = equivalent_extensions(transported, fs).found
    try:
        liftable = automorphism_pair_obstruction(fs, alpha, beta).lift_exists
    except NoGammaError:
        liftable = False
    return liftable, equivalent
