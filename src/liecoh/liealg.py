"""Finite-dimensional Lie algebras as structure constants.

An algebra stores its bracket table for index pairs i < j only; the
antisymmetric closure is synthesized, so inconsistent tables cannot be
expressed.  The Jacobi identity is checked at construction and every
representation is checked against the bracket, which turns downstream
facts (quotients are algebras, adjoints are representations) into
constructor guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (DimensionMismatchError, JacobiError, NotADerivationError,
                     NotAHomomorphismError, NotAnIdealError, RepresentationError)
from .linalg import (InconsistencyCertificate, Matrix, ONE, Subspace, kernel,
                     quotient_coordinates, solve_columns, unit_vec, vec_add,
                     vec_is_zero, vec_scale, zero_vec)


class LieAlgebra:
    """Lie algebra over Q given by a basis and structure constants."""

    __slots__ = ("dim", "labels", "_table")

    def __init__(self, dim: int, brackets=None, labels: Optional[Sequence[str]] = None,
                 _skip_jacobi: bool = False):
        """brackets maps (i, j) with i < j to {k: coefficient}."""
        self.dim = dim
        if labels is None:
            labels = tuple(f"e{i}" for i in range(dim))
        else:
            labels = tuple(labels)
            if len(labels) != dim:
                raise DimensionMismatchError("label count disagrees with dimension")
        self.labels = labels
        table = {}
        for (i, j), entry in (brackets or {}).items():
            if not 0 <= i < j < dim:
                raise DimensionMismatchError(
                    f"bracket key ({i},{j}) is not an increasing pair below {dim}")
            vec = list(zero_vec(dim))
            for k, c in entry.items():
                k = int(k)
                if not 0 <= k < dim:
                    raise DimensionMismatchError(f"bracket value index {k} out of range")
                vec[k] = Fraction(c)
            if not vec_is_zero(vec):
                table[(i, j)] = tuple(vec)
        self._table = table
        if not _skip_jacobi:
            triple = self._jacobi_failure()
            if triple is not None:
                raise JacobiError(triple)

    def bracket_basis(self, i: int, j: int) -> tuple:
        """[e_i, e_j] as a coefficient vector."""
        if i == j:
            return zero_vec(self.dim)
        if i < j:
            return self._table.get((i, j), zero_vec(self.dim))
        v = self._table.get((j, i))
        return zero_vec(self.dim) if v is None else vec_scale(Fraction(-1), v)

    def bracket(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple:
        """Bilinear extension of the bracket to coefficient vectors."""
        out = zero_vec(self.dim)
        for i, a in enumerate(u):
            if a == 0:
                continue
            for (x, y), w in self._pairs_with(i):
                c = a * v[y] if x == i else -a * v[x]
                if c != 0:
                    out = vec_add(out, vec_scale(c, w))
        return out

    def _pairs_with(self, i: int):
        for key, w in self._table.items():
            if i in key:
                yield key, w

    def ad_matrix(self, i: int) -> Matrix:
        """Matrix of ad e_i: columns are [e_i, e_j]."""
        return Matrix.from_columns([self.bracket_basis(i, j) for j in range(self.dim)],
                                   rows=self.dim)

    def ad(self, u: Sequence[Fraction]) -> Matrix:
        out = Matrix.zero(self.dim, self.dim)
        for i, a in enumerate(u):
            if a != 0:
                out = out + self.ad_matrix(i).scale(a)
        return out

    def is_abelian(self) -> bool:
        return not self._table

    def structure_table(self) -> dict:
        """The stored i < j bracket table (nonzero entries only)."""
        return dict(self._table)

    def _jacobi_failure(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                eij = self.bracket_basis(i, j)
                for k in range(j + 1, self.dim):
                    total = self.bracket(eij, unit_vec(self.dim, k))
                    total = vec_add(total, self.bracket(
                        self.bracket_basis(j, k), unit_vec(self.dim, i)))
                    total = vec_add(total, self.bracket(
                        self.bracket_basis(k, i), unit_vec(self.dim, j)))
                    if not vec_is_zero(total):
                        return (i, j, k)
        return None

    def __eq__(self, other) -> bool:
        # Labels are metadata; equality is structural.
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self._table == other._table)

    def __hash__(self):
        return hash((self.dim, tuple(sorted(self._table.items()))))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"


def check_jacobi(L: LieAlgebra) -> bool:
    """True iff the cyclic sum of double brackets vanishes on all triples."""
    return L._jacobi_failure() is None


class Representation:
    """Linear action of a LieAlgebra on a coordinate space."""

    __slots__ = ("algebra", "space_dim", "matrices")

    def __init__(self, algebra: LieAlgebra, space_dim: int, matrices: Sequence[Matrix],
                 _skip_check: bool = False):
        matrices = tuple(matrices)
        if len(matrices) != algebra.dim:
            raise DimensionMismatchError("one action matrix per basis element is required")
        for m in matrices:
            if m.rows != space_dim or m.cols != space_dim:
                raise DimensionMismatchError("action matrices must be square of the module size")
        self.algebra = algebra
        self.space_dim = space_dim
        self.matrices = matrices
        if not _skip_check:
            pair = self._law_failure()
            if pair is not None:
                raise RepresentationError(pair)

    @classmethod
    def trivial(cls, algebra: LieAlgebra, space_dim: int) -> "Representation":
        z = Matrix.zero(space_dim, space_dim)
        return cls(algebra, space_dim, [z] * algebra.dim, _skip_check=True)

    def is_trivial(self) -> bool:
        return all(m.is_zero() for m in self.matrices)

    def matrix_of(self, u: Sequence[Fraction]) -> Matrix:
        out = Matrix.zero(self.space_dim, self.space_dim)
        for i, a in enumerate(u):
            if a != 0:
                out = out + self.matrices[i].scale(a)
        return out

    def act(self, i: int, v: Sequence[Fraction]) -> tuple:
        return self.matrices[i].matvec(v)

    def _law_failure(self):
        for i in range(self.algebra.dim):
            for j in range(i + 1, self.algebra.dim):
                lhs = self.matrices[i].commutator(self.matrices[j])
                rhs = self.matrix_of(self.algebra.bracket_basis(i, j))
                if lhs != rhs:
                    return (i, j)
        return None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Representation) and self.algebra == other.algebra
                and self.space_dim == other.space_dim and self.matrices == other.matrices)

    def __hash__(self):
        return hash((self.algebra, self.space_dim, self.matrices))

    def __repr__(self):
        return f"Representation(dim g={self.algebra.dim}, module dim={self.space_dim})"


@dataclass(frozen=True)
class LinearLieMap:
    """A linear map between Lie algebras, optionally flagged as structured."""

    source: LieAlgebra
    target: LieAlgebra
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.cols != self.source.dim or self.matrix.rows != self.target.dim:
            raise DimensionMismatchError("matrix shape disagrees with source/target dims")

    def apply(self, u: Sequence[Fraction]) -> tuple:
        return self.matrix.matvec(u)

    def is_homomorphism(self) -> bool:
        return bracket_preserving(self.source, self.target, self.matrix)

    def is_derivation_map(self) -> bool:
        if self.source != self.target:
            raise DimensionMismatchError("the derivation flag needs source = target")
        return is_derivation(self.source, self.matrix)


def bracket_preserving(source: LieAlgebra, target: LieAlgebra, m: Matrix) -> bool:
    """True iff m maps source brackets to target brackets on all basis pairs."""
    if m.cols != source.dim or m.rows != target.dim:
        raise DimensionMismatchError("map shape disagrees with source/target dims")
    for i in range(source.dim):
        for j in range(i + 1, source.dim):
            lhs = m.matvec(source.bracket_basis(i, j))
            rhs = target.bracket(m.column(i), m.column(j))
            if lhs != rhs:
                return False
    return True


def is_derivation(L: LieAlgebra, d: Matrix) -> bool:
    """Leibniz rule d[x,y] = [dx,y] + [x,dy] on all basis pairs."""
    if d.rows != L.dim or d.cols != L.dim:
        raise DimensionMismatchError("derivation candidate has the wrong shape")
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = d.matvec(L.bracket_basis(i, j))
            rhs = vec_add(L.bracket(d.column(i), unit_vec(L.dim, j)),
                          L.bracket(unit_vec(L.dim, i), d.column(j)))
            if lhs != rhs:
                return False
    return True


def ad_stack(L: LieAlgebra) -> Matrix:
    """The n^2 x n matrix of x -> ad x, with ad x flattened row-major."""
    return Matrix.from_columns([L.ad_matrix(k).flatten() for k in range(L.dim)],
                               rows=L.dim * L.dim)


def solve_inner(L: LieAlgebra, targets: Sequence[Sequence[Fraction]]):
    """Solve ad(x_r) = targets[r] for every slot r; returns (particular, certificate).

    Each target is an n x n matrix flattened row-major.  The answer is the
    one solve_affine gives for the block-diagonal system with one
    ad_stack(L) block per slot: the blocks share no columns, so its
    pivot-convention solution is the slots' solutions joined in order,
    and when a slot is inconsistent its certificate is the reduced row
    s * rank reading 0 = 1.  All slots are eliminated together as extra
    right-hand-side columns of the single ad_stack matrix.
    """
    n, s = L.dim, len(targets)
    solutions, first_inconsistent, rank = solve_columns(ad_stack(L), targets)
    if first_inconsistent is not None:
        return None, InconsistencyCertificate(s * rank, zero_vec(s * n) + (ONE,))
    return tuple(x for solution in solutions for x in solution), None


def leibniz_rows(L: LieAlgebra, offset: int = 0) -> list:
    """Rows of D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j] = 0 for D in End(L).

    D is flattened row-major into the columns offset + a * n + b.  Each row
    is a dict {column: coefficient}, one per equation (i < j, component a)
    that does not vanish identically, scattered from the stored bracket
    table.
    """
    n = L.dim
    rows = {}

    def add(i, j, a, col, c):
        # equation (j, i, a) is minus equation (i, j, a), so the term
        # -[D e_i, e_j] over all ordered pairs also covers -[e_i, D e_j]
        if i > j:
            i, j, c = j, i, -c
        row = rows.setdefault((i, j, a), {})
        row[offset + col] = row.get(offset + col, 0) + c

    for (x, y), w in L._table.items():
        for k, c in enumerate(w):
            if c == 0:
                continue
            for a in range(n):
                add(x, y, a, a * n + k, c)  # D([e_x, e_y])_a
            for p, q, cpq in ((x, y, c), (y, x, -c)):  # [e_p, e_q]_k = cpq
                for i in range(n):
                    if i != q:
                        add(i, q, k, p * n + i, -cpq)  # -[D e_i, e_q]_k via D[p, i]
    cleaned = ({col: c for col, c in row.items() if c != 0} for row in rows.values())
    return [row for row in cleaned if row]


def center(L: LieAlgebra) -> Subspace:
    """Kernel of x -> ad x."""
    return kernel(ad_stack(L))


def adjoint_rep(L: LieAlgebra) -> Representation:
    return Representation(L, L.dim, [L.ad_matrix(i) for i in range(L.dim)])


def quotient_algebra(L: LieAlgebra, ideal: Subspace):
    """Quotient by a Lie ideal; returns (quotient, projection, section)."""
    if ideal.ambient_dim != L.dim:
        raise DimensionMismatchError("ideal lives in a different space")
    for i in range(L.dim):
        for b in ideal.basis:
            if not ideal.contains(L.bracket(unit_vec(L.dim, i), b)):
                raise NotAnIdealError(
                    f"[e{i}, subspace] leaves the subspace: not a Lie ideal")
    projection, section = quotient_coordinates(L.dim, ideal)
    qdim = projection.rows
    table = {}
    for i in range(qdim):
        for j in range(i + 1, qdim):
            w = projection.matvec(L.bracket(section.column(i), section.column(j)))
            entry = {k: c for k, c in enumerate(w) if c != 0}
            if entry:
                table[(i, j)] = entry
    quotient = LieAlgebra(qdim, table)
    return quotient, projection, section


@dataclass(frozen=True)
class DerivationAlgebra:
    """The derivation algebra of L in matrix form.

    ``algebra`` carries the commutator structure constants in the canonical
    basis ``matrices``; ``inner_coords`` expresses each ad e_i in that basis.
    """

    algebra: LieAlgebra
    matrices: tuple
    subspace: Subspace
    inner_coords: tuple

    @property
    def dim(self) -> int:
        return len(self.matrices)

    def coordinates_of(self, d: Matrix) -> Optional[tuple]:
        return self.subspace.coordinates_of(d.flatten())


def derivations(L: LieAlgebra) -> DerivationAlgebra:
    """Solve the Leibniz system over End(L).

    Returns the solution space with its commutator bracket and the
    coordinates of the inner derivations inside it.
    """
    n = L.dim
    space = kernel(Matrix.from_sparse_rows(leibniz_rows(L), n * n))
    mats = tuple(Matrix.unflatten(v, n, n) for v in space.basis)
    d = len(mats)
    table = {}
    for i in range(d):
        for j in range(i + 1, d):
            comm = mats[i].commutator(mats[j]).flatten()
            coords = space.coordinates_of(comm)
            if coords is None:
                raise NotADerivationError(
                    "commutator of derivations left the solution space")
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                table[(i, j)] = entry
    der_alg = LieAlgebra(d, table)
    stack = ad_stack(L)
    inner = []
    for i in range(n):
        coords = space.coordinates_of(stack.column(i))
        if coords is None:
            raise NotADerivationError("an inner derivation failed the Leibniz system")
        inner.append(coords)
    return DerivationAlgebra(der_alg, mats, space, tuple(inner))


def direct_and_semidirect(n_alg: LieAlgebra, g_alg: LieAlgebra,
                          S: Optional[Sequence[Matrix]] = None) -> LieAlgebra:
    """n x g with bracket [(n,x),(n',x')] = ([n,n'] + S(x)n' - S(x')n, [x,x'])."""
    if S is None:
        S = [Matrix.zero(n_alg.dim, n_alg.dim)] * g_alg.dim
    S = list(S)
    if len(S) != g_alg.dim:
        raise DimensionMismatchError("one action matrix per basis element of g is required")
    for a, m in enumerate(S):
        if not is_derivation(n_alg, m):
            raise NotAHomomorphismError(f"S(e{a}) is not a derivation of n")
    for a in range(g_alg.dim):
        for b in range(a + 1, g_alg.dim):
            lhs = S[a].commutator(S[b])
            rhs = Matrix.zero(n_alg.dim, n_alg.dim)
            for k, c in enumerate(g_alg.bracket_basis(a, b)):
                if c != 0:
                    rhs = rhs + S[k].scale(c)
            if lhs != rhs:
                raise NotAHomomorphismError(
                    f"S does not preserve the bracket on basis pair ({a},{b})")
    nd, gd = n_alg.dim, g_alg.dim
    table = {}

    def put(i, j, vec):
        entry = {k: c for k, c in enumerate(vec) if c != 0}
        if entry:
            table[(i, j)] = entry

    for i in range(nd):
        for j in range(i + 1, nd):
            put(i, j, tuple(n_alg.bracket_basis(i, j)) + zero_vec(gd))
    for i in range(nd):
        for a in range(gd):
            # [(e_i, 0), (0, f_a)] = (-S(f_a) e_i, 0)
            put(i, nd + a, tuple(vec_scale(Fraction(-1), S[a].column(i))) + zero_vec(gd))
    for a in range(gd):
        for b in range(a + 1, gd):
            put(nd + a, nd + b, zero_vec(nd) + tuple(g_alg.bracket_basis(a, b)))
    labels = tuple(f"n.{l}" for l in n_alg.labels) + tuple(f"g.{l}" for l in g_alg.labels)
    return LieAlgebra(nd + gd, table, labels=labels)


def change_of_basis(L: LieAlgebra, P: Matrix) -> LieAlgebra:
    """The same algebra written in the basis given by the columns of P."""
    if P.rows != L.dim or P.cols != L.dim:
        raise DimensionMismatchError("basis change matrix has the wrong shape")
    from .linalg import invert
    P_inv = invert(P)
    if P_inv is None:
        raise DimensionMismatchError("basis change matrix is singular")
    table = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            w = P_inv.matvec(L.bracket(P.column(i), P.column(j)))
            entry = {k: c for k, c in enumerate(w) if c != 0}
            if entry:
                table[(i, j)] = entry
    return LieAlgebra(L.dim, table)
