"""Finite-dimensional Lie algebras as structure constants.

An algebra stores its bracket table for index pairs i < j only, each
bracket as the nonzero (k, coefficient) pairs of its value, sorted by k;
the antisymmetric closure is synthesized, so inconsistent tables cannot
be expressed.  A vector crosses its methods as a dict {index: nonzero
value}.  The Jacobi identity is checked at construction and every
representation is checked against the bracket, which turns downstream
facts (quotients are algebras, adjoints are representations) into
constructor guarantees.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import (DimensionMismatchError, JacobiError, NotADerivationError,
                     NotAHomomorphismError, NotAnIdealError, RepresentationError)
from .linalg import (ZERO, InconsistencyCertificate, Matrix, Subspace, invert,
                     kernel, linear_combination, pullback_family, quotient_coordinates,
                     solve_columns)


class LieAlgebra:
    """Lie algebra over Q given by a basis and structure constants; ``_leibniz``
    keeps its offset-0 Leibniz rows once ``kept_leibniz_rows`` has built them."""

    __slots__ = ("dim", "labels", "_table", "_involving", "_leibniz")

    def __init__(self, dim: int, brackets=None, labels: Optional[Sequence[str]] = None):
        """brackets maps (i, j) with i < j to {k: coefficient}."""
        if dim < 0:
            raise DimensionMismatchError(f"algebra dimension {dim} is negative")
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
            value = {}
            for k, c in entry.items():
                k = int(k)
                if not 0 <= k < dim:
                    raise DimensionMismatchError(f"bracket value index {k} out of range")
                value[k] = Fraction(c)
            pairs = tuple(sorted((k, c) for k, c in value.items() if c))
            if pairs:
                table[(i, j)] = pairs
        self._table = table
        # _involving[i] lists (j, nonzero pairs of [e_i, e_j]) for each
        # table entry with i in its key, so a bracket never scans the table
        involving = [[] for _ in range(dim)]
        for (i, j), pairs in table.items():
            involving[i].append((j, pairs))
            involving[j].append((i, tuple((k, -c) for k, c in pairs)))
        self._involving = involving
        self._leibniz = None
        triple = self._jacobi_failure()
        if triple is not None:
            raise JacobiError(triple)

    def bracket_basis(self, i: int, j: int) -> tuple:
        """[e_i, e_j] as its nonzero (k, coefficient) pairs, sorted by k."""
        # empty also when i == j: the table has increasing keys only
        pairs = self._table.get((min(i, j), max(i, j)), ())
        return pairs if i < j else tuple((k, -c) for k, c in pairs)

    def bracket(self, u: dict, v: dict) -> dict:
        """Bilinear extension of the bracket to vectors given as dicts
        {index: nonzero value}; the result is one too."""
        out = {}
        for i, a in u.items():
            for j, pairs in self._involving[i]:
                b = v.get(j)
                if b:
                    c = a * b
                    for k, w in pairs:
                        out[k] = out.get(k, ZERO) + c * w
        return {k: x for k, x in out.items() if x}

    def ad_matrix(self, i: int) -> Matrix:
        """Matrix of ad e_i: column j is [e_i, e_j], scattered from the bracket index."""
        rows = [{} for _ in range(self.dim)]
        for j, pairs in self._involving[i]:
            for k, w in pairs:
                rows[k][j] = w
        return Matrix.from_sparse_rows(rows, self.dim)

    def ad_matrices(self) -> tuple:
        """The adjoint family ad e_0, ..., ad e_{n-1}."""
        return tuple(self.ad_matrix(i) for i in range(self.dim))

    def is_abelian(self) -> bool:
        return not self._table

    def structure_table(self) -> dict:
        """The stored i < j bracket table: {(i, j): nonzero (k, coefficient) pairs}."""
        return dict(self._table)

    def _jacobi_failure(self):
        """The first triple i < j < k, in lexicographic order, at which
        [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] is nonzero.

        Each double bracket [[e_a,e_b],e_c] with a < b is scattered from
        the index into the sum of the sorted triple: with sign + when c
        follows b or precedes a, and - when it lies between them.
        """
        involving = self._involving
        sums = {}
        for a in range(self.dim):
            for b, ab in involving[a]:
                if b < a:
                    continue
                for m, x in ab:
                    for c, mc in involving[m]:
                        if c == a or c == b:
                            continue
                        if c > b:
                            triple, s = (a, b, c), x
                        elif c < a:
                            triple, s = (c, a, b), x
                        else:
                            triple, s = (a, c, b), -x
                        acc = sums.setdefault(triple, {})
                        for k, y in mc:
                            acc[k] = acc.get(k, ZERO) + s * y
        failures = [t for t, acc in sums.items() if any(acc.values())]
        return min(failures) if failures else None

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
    """Linear action of a LieAlgebra on a coordinate space.

    ``_operators`` maps a degree p to the matrix of the module's
    differential on p-cochains; ``cochains.differential_operator`` fills it
    on first use, so each degree is assembled once per representation.
    """

    __slots__ = ("algebra", "space_dim", "matrices", "_operators")

    def __init__(self, algebra: LieAlgebra, space_dim: int, matrices: Sequence[Matrix],
                 _skip_check: bool = False):
        matrices = tuple(matrices)
        if space_dim < 0:
            raise DimensionMismatchError(f"module dimension {space_dim} is negative")
        if len(matrices) != algebra.dim:
            raise DimensionMismatchError("one action matrix per basis element is required")
        for m in matrices:
            if m.rows != space_dim or m.cols != space_dim:
                raise DimensionMismatchError("action matrices must be square of the module size")
        self.algebra = algebra
        self.space_dim = space_dim
        self.matrices = matrices
        self._operators = {}
        if not _skip_check:
            defect = law_defect(algebra, matrices)
            if defect:
                raise RepresentationError(min(defect))

    @classmethod
    def trivial(cls, algebra: LieAlgebra, space_dim: int) -> "Representation":
        z = Matrix.zero(space_dim, space_dim)
        return cls(algebra, space_dim, [z] * algebra.dim, _skip_check=True)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Representation) and self.algebra == other.algebra
                and self.space_dim == other.space_dim and self.matrices == other.matrices)

    def __hash__(self):
        return hash((self.algebra, self.space_dim, self.matrices))

    def __repr__(self):
        return f"Representation(dim g={self.algebra.dim}, module dim={self.space_dim})"


def law_defect(L: LieAlgebra, matrices: Sequence[Matrix]) -> dict:
    """{(i, j): [M_i, M_j] - M([e_i, e_j])} on the increasing pairs where it is nonzero.

    This is the curvature of the linear map e_i -> M_i from L into gl(V):
    the matrices are a representation exactly when it is empty.
    """
    if len(matrices) != L.dim:
        raise DimensionMismatchError("one matrix per basis element is required")
    size = matrices[0].rows if matrices else 0
    defect = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            pairs = L.bracket_basis(i, j)
            d = matrices[i].commutator(matrices[j]) - linear_combination(
                [c for _, c in pairs], [matrices[k] for k, _ in pairs], size, size)
            if not d.is_zero():
                defect[(i, j)] = d
    return defect


def bracket_defect(source: LieAlgebra, target: LieAlgebra, m: Matrix) -> dict:
    """{(i, j): [m e_i, m e_j] - m[e_i, e_j]} on the increasing pairs where it is
    nonzero, each value a dict {target index: nonzero coefficient}.

    The (i, j) value is column j of ad(m e_i) m - m ad(e_i), where ad(m e_i)
    is the target's adjoint family pulled back along m.  For a linear
    section m this is the section's cocycle: the failure of m to preserve
    brackets.
    """
    if m.cols != source.dim or m.rows != target.dim:
        raise DimensionMismatchError("map shape disagrees with source/target dims")
    pulled = pullback_family(target.ad_matrices(), m, target.dim)
    defect = {}
    for i, (ad_mi, ad_i) in enumerate(zip(pulled, source.ad_matrices())):
        columns = (ad_mi @ m - m @ ad_i).transpose()
        for j in range(i + 1, source.dim):
            if columns.sparse_rows()[j]:
                defect[(i, j)] = dict(columns.sparse_rows()[j])
    return defect


def bracket_table(L: LieAlgebra, m: Matrix, read: Matrix) -> dict:
    """{(i, j): read [m e_i, m e_j]} for i < j, as entry dicts, where nonzero: the
    bracket table pulled back along m, with [m e_i, m e_j] the bracket defect of
    m from an abelian source."""
    defect = bracket_defect(LieAlgebra(m.cols), L, m)
    read_rows = Matrix.from_sparse_rows(defect.values(), L.dim) @ read.transpose()
    return {key: entry for key, entry in zip(defect, read_rows.sparse_rows()) if entry}


def bracket_preserving(source: LieAlgebra, target: LieAlgebra, m: Matrix) -> bool:
    """True iff m maps source brackets to target brackets on all basis pairs."""
    return not bracket_defect(source, target, m)


def is_derivation(L: LieAlgebra, d: Matrix) -> bool:
    """Leibniz rule d[x,y] = [dx,y] + [x,dy] on all basis pairs: each row of
    the Leibniz system of L vanishes on the row-major entries of d."""
    if d.rows != L.dim or d.cols != L.dim:
        raise DimensionMismatchError("derivation candidate has the wrong shape")
    entries = d.sparse_rows()
    return not any(sum(c * entries[col // L.dim].get(col % L.dim, ZERO)
                       for col, c in row.items())
                   for row in kept_leibniz_rows(L))


def ad_stack(L: LieAlgebra) -> Matrix:
    """The n^2 x n matrix of x -> ad x, with ad x flattened row-major.

    Entry (a * n + b, k) is [e_k, e_b]_a, scattered from the bracket index.
    """
    n = L.dim
    rows = [{} for _ in range(n * n)]
    for k, entries in enumerate(L._involving):
        for b, pairs in entries:
            for a, w in pairs:
                rows[a * n + b][k] = w
    return Matrix.from_sparse_rows(rows, n)


def solve_inner(L: LieAlgebra, targets: Sequence[Matrix]):
    """Solve ad(x_r) = targets[r] for every slot r; returns (particular, certificate).

    Each target is an n x n matrix, read as its row-major entries.  The
    answer is the one solve_affine gives for the block-diagonal system with
    one ad_stack(L) block per slot: the blocks share no columns, so its
    pivot-convention solution is the slots' solutions joined in order,
    here the nonzero (r * n + k, value) pairs.  When a slot is
    inconsistent the certificate holds only the index of the 0 = 1 row:
    that system has rank s * rank(ad_stack(L)), so it is row s * rank.
    All slots are eliminated together as extra right-hand-side columns of
    the single ad_stack matrix.
    """
    n, s = L.dim, len(targets)
    if any(t.rows != n or t.cols != n for t in targets):
        raise DimensionMismatchError("inner-lift targets must be n x n matrices")
    solutions, first_inconsistent, rank = solve_columns(
        ad_stack(L), [dict(t.flat_pairs()) for t in targets])
    if first_inconsistent is not None:
        return None, InconsistencyCertificate(s * rank)
    return [(r * n + k, x) for r, solution in enumerate(solutions)
            for k, x in sorted(solution.items())], None


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

    for (x, y), pairs in L._table.items():
        for k, c in pairs:
            for a in range(n):
                add(x, y, a, a * n + k, c)  # D([e_x, e_y])_a
            for p, q, cpq in ((x, y, c), (y, x, -c)):  # [e_p, e_q]_k = cpq
                for i in range(n):
                    if i != q:
                        add(i, q, k, p * n + i, -cpq)  # -[D e_i, e_q]_k via D[p, i]
    cleaned = ({col: c for col, c in row.items() if c != 0} for row in rows.values())
    return [row for row in cleaned if row]


def kept_leibniz_rows(L: LieAlgebra) -> tuple:
    """leibniz_rows(L) at offset 0, built on first use and kept on L; read only."""
    if L._leibniz is None:
        L._leibniz = tuple(leibniz_rows(L))
    return L._leibniz


def center(L: LieAlgebra) -> Subspace:
    """Kernel of x -> ad x."""
    return kernel(ad_stack(L))


def adjoint_rep(L: LieAlgebra) -> Representation:
    return Representation(L, L.dim, L.ad_matrices())


def quotient_algebra(L: LieAlgebra, ideal: Subspace):
    """Quotient by a Lie ideal; returns (quotient, projection, section)."""
    if ideal.ambient_dim != L.dim:
        raise DimensionMismatchError("ideal lives in a different space")
    for i in range(L.dim):
        if ideal.restrict(L.ad_matrix(i)) is None:
            raise NotAnIdealError(f"[e{i}, subspace] leaves the subspace: not a Lie ideal")
    projection, section = quotient_coordinates(L.dim, ideal)
    quotient = LieAlgebra(projection.rows, bracket_table(L, section, projection))
    return quotient, projection, section


class DerivationAlgebra(NamedTuple):
    """The derivation algebra of L in matrix form.

    ``algebra`` carries the commutator structure constants in the canonical
    basis ``matrices``; ``inner_coords`` expresses each ad e_i in that basis,
    as a dict {basis position: nonzero coefficient}.
    """

    algebra: LieAlgebra
    matrices: tuple
    subspace: Subspace
    inner_coords: tuple

    @property
    def dim(self) -> int:
        return len(self.matrices)


def derivations(L: LieAlgebra) -> DerivationAlgebra:
    """Solve the Leibniz system over End(L).

    Returns the solution space with its commutator bracket and the
    coordinates of the inner derivations inside it.
    """
    n = L.dim
    space = kernel(Matrix.from_sparse_rows(kept_leibniz_rows(L), n * n))
    mats = tuple(Matrix.from_flat(p, n, n) for p in space.pairs)
    d = len(mats)
    table = {}
    for i in range(d):
        for j in range(i + 1, d):
            coords = space.coordinates_of(mats[i].commutator(mats[j]).flat_pairs())
            if coords is None:
                raise NotADerivationError(
                    "commutator of derivations left the solution space")
            if coords:
                table[(i, j)] = coords
    der_alg = LieAlgebra(d, table)
    inner = tuple(space.coordinates_of(ad.flat_pairs()) for ad in L.ad_matrices())
    if None in inner:
        raise NotADerivationError("an inner derivation failed the Leibniz system")
    return DerivationAlgebra(der_alg, mats, space, inner)


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
    defect = law_defect(g_alg, S)
    if defect:
        a, b = min(defect)
        raise NotAHomomorphismError(f"S does not preserve the bracket on basis pair ({a},{b})")
    return product_algebra(n_alg, g_alg, S)


def product_algebra(n_alg: LieAlgebra, g_alg: LieAlgebra, S: Sequence[Matrix],
                    omega: Optional[dict] = None) -> LieAlgebra:
    """n x g with [(n,x),(n',x')] = ([n,n'] + S(x)n' - S(x')n + omega(x,x'), [x,x']).

    S holds one matrix per basis element of g and omega maps increasing
    pairs of g indices to n-vectors, each a dict {k: nonzero value} (zero
    when absent).  The table is scattered from the stored brackets and the
    nonzero entries of S; the callers validate S and omega, and the
    constructor checks Jacobi.
    """
    nd = n_alg.dim
    omega = omega or {}
    table = {pair: dict(pairs) for pair, pairs in sorted(n_alg.structure_table().items())}
    columns = [m.transpose().sparse_rows() for m in S]
    for i in range(nd):
        for a, cols in enumerate(columns):
            if cols[i]:
                # [(e_i, 0), (0, f_a)] = (-S(f_a) e_i, 0)
                table[(i, nd + a)] = {k: -c for k, c in cols[i].items()}
    g_table = g_alg.structure_table()
    for a, b in sorted(g_table.keys() | omega.keys()):
        entry = dict(omega.get((a, b), {}))
        entry.update((nd + k, c) for k, c in g_table.get((a, b), ()))
        if entry:
            table[(nd + a, nd + b)] = entry
    labels = tuple(f"n.{l}" for l in n_alg.labels) + tuple(f"g.{l}" for l in g_alg.labels)
    return LieAlgebra(nd + g_alg.dim, table, labels=labels)


def change_of_basis(L: LieAlgebra, P: Matrix) -> LieAlgebra:
    """The same algebra written in the basis given by the columns of P."""
    if P.rows != L.dim or P.cols != L.dim:
        raise DimensionMismatchError("basis change matrix has the wrong shape")
    P_inv = invert(P)
    if P_inv is None:
        raise DimensionMismatchError("basis change matrix is singular")
    return LieAlgebra(L.dim, bracket_table(L, P, P_inv))
