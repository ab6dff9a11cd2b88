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

The gauge step is the one of ``extensions``.  Automorphism pairs take its
finite form, ``gauge_remainder`` on the transported factor system, as
equivalence does.  Derivation pairs take its infinitesimal form, shared
by ``extension_derivations`` and ``derivation_pair_obstruction``:
``_pair_gammas`` lifts (alpha, beta).S to ad(gamma) for a batch of pairs,
every stabilizer and image pair of a derivation report in one
``inner_cochains`` call, and ``_pair_remainder`` pushes
(alpha, beta).omega - d_S gamma into the center.  Either way the center
module comes from ``center_module``, once per call, and the center-valued
correction from ``cohomology.primitive``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .cochains import (Cochain, OuterActionMap, covariant_differential,
                       differential_operator, key_rank, key_unrank, pair_act_cochain)
from .cohomology import (CohomologyClass, CohomologySpace, cohomology,
                         differential_matrix, primitive)
from .errors import (DimensionMismatchError, InvariantViolation, NoGammaError,
                     PreconditionFailedError)
from .extensions import (FactorSystem, build_extension, center_module,
                         check_equivalence_map, embed_cochain_from_subspace,
                         extension_map, gauge_remainder,
                         inner_cochains, restrict_cochain_to_subspace,
                         transported_pair)
from .liealg import (LieAlgebra, Representation, ad_stack, is_derivation, law_defect,
                     leibniz_rows)
from .linalg import ONE, Matrix, Subspace, _add_scaled, invert, kernel, pullback_family


# ---------------------------------------------------------------------------
# the infinitesimal (derivation) pair action
# ---------------------------------------------------------------------------

def pair_act_outer(alpha: Matrix, beta: Matrix, S: OuterActionMap) -> OuterActionMap:
    """x -> [alpha, S(x)] - S(beta x), the derivation action on S."""
    pulled = pullback_family(S.matrices, beta, S.space_dim)
    mats = [alpha.commutator(m) - p for m, p in zip(S.matrices, pulled)]
    return OuterActionMap(S.algebra, mats, target=S.target)


def _pair_gammas(fs: FactorSystem, pairs: Sequence[tuple]):
    """The inner lift gamma of (alpha, beta).S for every pair, in one solve:
    (gammas, None) or (None, certificate)."""
    return inner_cochains(fs.n, fs.g, 1, [pair_act_outer(alpha, beta, fs.S).matrices
                                          for alpha, beta in pairs])


def _pair_remainder(fs: FactorSystem, alpha: Matrix, beta: Matrix, gamma: Cochain,
                    z: Subspace) -> Cochain:
    """(alpha, beta).omega - d_S gamma, in the coordinates of the center z."""
    delta = pair_act_cochain(alpha, beta, fs.omega) - covariant_differential(fs.S, gamma)
    return restrict_cochain_to_subspace(delta, z)


def check_derivation_triple(alpha: Matrix, beta: Matrix, gamma: Cochain,
                            fs: FactorSystem) -> bool:
    """Decide whether (n, x) -> (alpha n + gamma x, beta x) derives the extension."""
    if not is_derivation(fs.n, alpha):
        raise PreconditionFailedError("alpha is not a derivation of n")
    if not is_derivation(fs.g, beta):
        raise PreconditionFailedError("beta is not a derivation of g")
    # ad(gamma(.)) is the adjoint family of n pulled back along gamma
    cond1 = (pair_act_outer(alpha, beta, fs.S).matrices
             == pullback_family(fs.n.ad_matrices(), gamma.as_matrix(), fs.n.dim))
    cond2 = (pair_act_cochain(alpha, beta, fs.omega)
             == covariant_differential(fs.S, gamma))
    ok = cond1 and cond2
    if ok:
        total = build_extension(fs).total
        D = extension_map(alpha, gamma.as_matrix(), beta)
        if not is_derivation(total, D):
            raise InvariantViolation(
                "derivation conditions hold but the assembled map fails")
    return ok


# ---------------------------------------------------------------------------
# the full derivation report
# ---------------------------------------------------------------------------

class DerivationReport(NamedTuple):
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

    # [alpha, S_a] - S(beta e_a) - ad(gamma_a) = 0, row (r, c) of each a, from nonzero entries
    s_rows = [m.sparse_rows() for m in S.matrices]
    s_cols = [m.transpose().sparse_rows() for m in S.matrices]
    stack = ad_stack(n_alg).sparse_rows()
    for a in range(gd):
        for r in range(nd):
            for c in range(nd):
                # alpha_{rk} S_a[k][c] - S_a[r][k] alpha_{kc}; both meet at alpha_{rc}
                row = {r * nd + k: x for k, x in s_cols[a][c].items()}
                _add_scaled(row, -ONE, ((k * nd + c, x) for k, x in s_rows[a][r].items()))
                # beta_{ba} S_b[r][c] and ad(gamma_a), each in columns of its own
                row.update((va + b * gd + a, -x) for b, m in enumerate(s_rows)
                           if (x := m[r].get(c)))
                row.update((va + vb + a * nd + k, -x) for k, x in stack[r * nd + c].items())
                rows.append(row)

    # alpha(omega(i,j)) - omega(beta e_i, e_j) - omega(e_i, beta e_j)
    #   - (d_S gamma)(i, j) = 0, row q * nd + r for the r-th entry at key q; each
    # term meets its (row, column) once, so it is set, not added
    omega_rows = [{va + vb + col: -x for col, x in d_row.items()}
                  for d_row in differential_operator(S, 1).sparse_rows()]
    for q, value in omega.nonzero_values():
        s, t = key_unrank(q, gd, 2)
        for r, x in value.items():
            for k in range(nd):  # alpha_{kr} omega(s, t)_r, in row k of key (s, t)
                omega_rows[q * nd + k][k * nd + r] = x
            # omega(e_u, e_w) = y is x at (s, t) and -x at (t, s); it meets
            # beta_{ui} at key (i, w) and beta_{wj} at key (u, j)
            for u, w, y in ((s, t, x), (t, s, -x)):
                for i in range(w):
                    omega_rows[key_rank((i, w), gd) * nd + r][va + u * gd + i] = -y
                for j in range(u + 1, gd):
                    omega_rows[key_rank((u, j), gd) * nd + r][va + w * gd + j] = -y
    return rows, omega_rows, nvars, va, vb


def _project_pairs(vectors, va: int, vb: int, nd: int, gd: int) -> tuple:
    """The canonical basis of the (alpha, beta) parts of the vectors, each given as a
    dict {index: nonzero value}, as matrix pairs."""
    projected = Subspace.row_space(Matrix.from_sparse_rows(
        [{j: x for j, x in v.items() if j < va + vb} for v in vectors], va + vb))
    return tuple((Matrix.from_flat(p, nd, nd), Matrix.from_flat(p, gd, gd, start=va))
                 for p in projected.pairs)


def extension_derivations(fs: FactorSystem) -> DerivationReport:
    """Dimensions and witnesses of the derivation sequence for fs."""
    n_alg, g_alg = fs.n, fs.g
    nd, gd = n_alg.dim, g_alg.dim
    z, z_rep = center_module(fs.S)
    z1 = kernel(differential_matrix(z_rep, 1))
    kernel_cochains = tuple(embed_cochain_from_subspace(Cochain.from_pairs(g_alg, 1, z.dim, p), z)
                            for p in z1.pairs)

    rows, omega_rows, nvars, va, vb = _pair_system_rows(fs)
    solution = kernel(Matrix.from_sparse_rows(rows, nvars))
    basis = Matrix.from_sparse_rows([dict(p) for p in solution.pairs], nvars)
    stabilizer_pairs = _project_pairs(basis.sparse_rows(), va, vb, nd, gd)

    # ker(rows + omega_rows) is ker(rows) cut by the omega rows: the
    # combinations c of its basis B with (omega_rows B^T) c = 0
    cut = kernel(Matrix.from_sparse_rows(omega_rows, nvars) @ basis.transpose())
    image_vectors = Matrix.from_sparse_rows([dict(p) for p in cut.pairs], solution.dim) @ basis
    image_pairs = _project_pairs(image_vectors.sparse_rows(), va, vb, nd, gd)

    gammas, _ = _pair_gammas(fs, stabilizer_pairs + image_pairs)
    if gammas is None:
        raise InvariantViolation("projected stabilizer pair admits no gamma")
    split = len(stabilizer_pairs)
    h2 = cohomology(z_rep, 2)
    classes = tuple(h2.class_of(_pair_remainder(fs, alpha, beta, gamma, z))
                    for (alpha, beta), gamma in zip(stabilizer_pairs, gammas))
    image_triples = tuple((alpha, beta, gamma)
                          for (alpha, beta), gamma in zip(image_pairs, gammas[split:]))

    i_image = Subspace.row_space(Matrix.from_sparse_rows(
        [dict(cls.normalized) for cls in classes], h2.cocycles.ambient_dim))

    brute = _brute_force_ideal_derivations(fs)
    return DerivationReport(fs, z1, kernel_cochains, stabilizer_pairs,
                            tuple(gammas[:split]), classes, image_triples,
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
    gammas, certificate = _pair_gammas(fs, [(alpha, beta)])
    if gammas is None:
        raise NoGammaError(certificate)
    gamma = gammas[0]
    z, z_rep = center_module(fs.S)
    h2 = cohomology(z_rep, 2)
    cls = h2.class_of(_pair_remainder(fs, alpha, beta, gamma, z))
    if z.dim > 0 and fs.g.dim > 0:
        shift = Cochain.from_pairs(fs.g, 1, z.dim, [(0, ONE)])
        gamma2 = gamma + embed_cochain_from_subspace(shift, z)
        if h2.class_of(_pair_remainder(fs, alpha, beta, gamma2, z)) != cls:
            raise InvariantViolation("obstruction class depends on the gamma choice")
    return cls, gamma


# ---------------------------------------------------------------------------
# lifting an outside algebra action
# ---------------------------------------------------------------------------

class LiftingReport(NamedTuple):
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
    for x, t in enumerate(theta):
        if t.degree != 1 or t.value_dim != n_alg.dim:
            raise DimensionMismatchError(
                f"theta at index {x} must be a 1-cochain on g valued in n: got degree "
                f"{t.degree} and value_dim {t.value_dim}, expected 1 and {n_alg.dim}")
    ad_n = n_alg.ad_matrices()
    for x in range(hd):
        if not is_derivation(n_alg, psi_n[x]):
            raise PreconditionFailedError(f"psi_n is not a derivation at index {x}",
                                          index=x)
        if not is_derivation(g_alg, psi_g[x]):
            raise PreconditionFailedError(f"psi_g is not a derivation at index {x}",
                                          index=x)
        acted = pair_act_outer(psi_n[x], psi_g[x], fs.S)
        if acted.matrices != pullback_family(ad_n, theta[x].as_matrix(), n_alg.dim):
            raise PreconditionFailedError(
                f"psi(x).S is not ad(theta(x)) at index {x}", index=x)
        if (pair_act_cochain(psi_n[x], psi_g[x], fs.omega)
                != covariant_differential(fs.S, theta[x])):
            raise PreconditionFailedError(
                f"x.omega is not the covariant differential of theta(x) at index {x}",
                index=x)
    failures = law_defect(h_alg, psi_n).keys() | law_defect(h_alg, psi_g).keys()
    if failures:
        x, y = min(failures)
        raise PreconditionFailedError(
            f"psi is not a homomorphism at pair ({x},{y})", index=(x, y))

    z, z_rep = center_module(fs.S)
    z1 = kernel(differential_matrix(z_rep, 1))

    def z1_coords(c: Cochain) -> dict:
        cz = restrict_cochain_to_subspace(c, z)
        # the coordinates are a sparse column of z1_mats and of the cocycle table
        coords = z1.coordinates_of(cz.pairs)
        if coords is None:
            raise InvariantViolation("a value left the cocycle space")
        return coords

    cocycles = [embed_cochain_from_subspace(Cochain.from_pairs(g_alg, 1, z.dim, p), z)
                for p in z1.pairs]
    z1_mats = [Matrix.from_sparse_rows([z1_coords(pair_act_cochain(psi_n[x], psi_g[x], c))
                                        for c in cocycles], z1.dim).transpose() for x in range(hd)]
    z1_rep = Representation(h_alg, z1.dim, z1_mats)

    values = {}
    coord_table = {}
    for x in range(hd):
        for y in range(x + 1, hd):
            val = (pair_act_cochain(psi_n[x], psi_g[x], theta[y])
                   - pair_act_cochain(psi_n[y], psi_g[y], theta[x]))
            for k, c in h_alg.bracket_basis(x, y):
                val = val - theta[k].scale(c)
            values[(x, y)] = val
            coord_table[(x, y)] = z1_coords(val)
    cocycle = Cochain.from_columns(h_alg, 2, z1.dim, coord_table)
    obstruction = cohomology(z1_rep, 2).class_of(cocycle)

    lift = None
    if obstruction.is_zero():
        corr, _ = primitive(z1_rep, cocycle.scale(-1))
        # the value of corr at e_x, embedded from z1, is the coordinates of a 1-cochain
        shifts = dict(corr.map_values(z1.embed_matrix()).nonzero_values())
        theta_fixed = []
        for x in range(hd):
            shift = embed_cochain_from_subspace(
                Cochain.from_pairs(g_alg, 1, z.dim, sorted(shifts.get(x, {}).items())), z)
            theta_fixed.append(theta[x] + shift)
        total = build_extension(fs).total
        mats = [extension_map(psi_n[x], theta_fixed[x].as_matrix(), psi_g[x])
                for x in range(hd)]
        for x, D in enumerate(mats):
            if not is_derivation(total, D):
                raise InvariantViolation(f"assembled lift {x} is not a derivation")
        if law_defect(h_alg, mats):
            raise InvariantViolation("assembled lift is not a homomorphism despite a zero class")
        lift = tuple(mats)
    return LiftingReport(h_alg, values, z1, z1_rep, cocycle, obstruction, lift)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def transported_factor_system(fs: FactorSystem, alpha: Matrix,
                              beta: Matrix) -> FactorSystem:
    """The factor system of the extension re-coordinatized through (alpha, beta)."""
    return FactorSystem(fs.n, fs.g, *transported_pair(fs, alpha, beta))


class AutomorphismObstruction(NamedTuple):
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
    z, z_rep = center_module(fs.S)
    gamma, remainder, certificate = gauge_remainder(transported, fs, z)
    if gamma is None:
        raise NoGammaError(certificate)
    cls = cohomology(z_rep, 2).class_of(remainder)
    lift = None
    if cls.is_zero():
        zeta, _ = primitive(z_rep, remainder)
        gamma_full = gamma + embed_cochain_from_subspace(zeta, z)
        if not check_equivalence_map(alpha, beta, gamma_full, fs, fs):
            raise InvariantViolation("zero class but the lift conditions fail")
        # check_equivalence_map verified that this map preserves the brackets
        lift = extension_map(alpha, gamma_full.as_matrix() @ beta, beta)
        if invert(lift) is None:
            raise InvariantViolation("assembled automorphism fails to verify")
    return AutomorphismObstruction((alpha, beta), gamma, cls, lift)
