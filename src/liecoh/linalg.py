"""Exact linear algebra over the rationals.

Every scalar is a fractions.Fraction; nothing here ever rounds.  Row
echelon forms are the unique reduced ones, so kernels, images, solution
picks and quotient splittings are canonical and reproducible: the same
input always yields byte-identical output.

There is one elimination, on dict rows that hold only the nonzero
entries, and one augmented solve: ``solve_columns`` row-reduces
[m | b_1 ... b_k] once, and ``solve``, ``solve_affine``, ``left_inverse``
and ``invert`` are built on the same reduced form.  ``kernel`` is one
elimination too: it row-reduces m with its columns in reverse order, and
the null vectors read back in the original order are already the reduced
echelon basis of the kernel.

Outside the elimination zeros are skipped as well: a Subspace keeps the
nonzero (index, value) pairs of its basis vectors, so reduction,
membership, coordinates and embedding subtract only those, and the matrix
product adds a*b only for nonzero a and b.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatchError

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def to_fractions(values: Iterable) -> tuple:
    """The values as a tuple of Fractions.

    A Fraction is immutable and already in lowest terms, so it is kept as
    it is; anything else (int, str, float, another Rational) goes through
    Fraction(x).  An all-Fraction input is returned without a per-entry
    Python loop.
    """
    values = tuple(values)
    if set(map(type, values)) <= {Fraction}:
        return values
    return tuple(x if type(x) is Fraction else Fraction(x) for x in values)


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> tuple:
    return tuple(c * a for a in v)


def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return not any(v)


def zero_vec(n: int) -> tuple:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


class Matrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows_data: Iterable[Iterable], cols: Optional[int] = None):
        data = tuple(to_fractions(row) for row in rows_data)
        self.rows = len(data)
        if data:
            self.cols = len(data[0])
            if any(len(row) != self.cols for row in data):
                raise DimensionMismatchError("ragged matrix rows")
            if cols is not None and cols != self.cols:
                raise DimensionMismatchError("declared column count disagrees with data")
        else:
            if cols is None:
                raise DimensionMismatchError("empty matrix needs an explicit column count")
            self.cols = cols
        self._rows = data

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([(ZERO,) * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([unit_vec(n, i) for i in range(n)], cols=n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: Optional[int] = None) -> "Matrix":
        columns = [to_fractions(col) for col in columns]
        if columns:
            rows = len(columns[0])
        elif rows is None:
            raise DimensionMismatchError("empty column list needs an explicit row count")
        return cls([tuple(col[i] for col in columns) for i in range(rows)],
                   cols=len(columns))

    @classmethod
    def from_sparse_rows(cls, rows: Iterable[dict], cols: int) -> "Matrix":
        """Dense matrix from dict rows {column: coefficient}; empty dicts are zero rows."""
        dense = []
        for entries in rows:
            row = [ZERO] * cols
            for j, c in entries.items():
                row[j] = c
            dense.append(row)
        return cls(dense, cols=cols)

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self._rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def row_list(self) -> tuple:
        return self._rows

    def transpose(self) -> "Matrix":
        return Matrix([self.column(j) for j in range(self.cols)], cols=self.rows)

    def is_zero(self) -> bool:
        return all(vec_is_zero(row) for row in self._rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._rows == other._rows)

    def __hash__(self):
        return hash((self.rows, self.cols, self._rows))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix([vec_add(a, b) for a, b in zip(self._rows, other._rows)],
                      cols=self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix([vec_sub(a, b) for a, b in zip(self._rows, other._rows)],
                      cols=self.cols)

    def __neg__(self) -> "Matrix":
        return self.scale(-ONE)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        return Matrix([vec_scale(c, row) for row in self._rows], cols=self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        other_rows = [[(j, x) for j, x in enumerate(row) if x] for row in other._rows]
        out = []
        for row in self._rows:
            acc = [ZERO] * other.cols
            for a, pairs in zip(row, other_rows):
                if a:
                    for j, x in pairs:
                        acc[j] += a * x
            out.append(acc)
        return Matrix(out, cols=other.cols)

    def matvec(self, v: Sequence[Fraction]) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length disagrees with column count")
        return tuple(dot(row, v) for row in self._rows)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    def trace(self) -> Fraction:
        return sum((self._rows[i][i] for i in range(min(self.rows, self.cols))), ZERO)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise DimensionMismatchError("row counts differ")
        return Matrix([a + b for a, b in zip(self._rows, other._rows)],
                      cols=self.cols + other.cols)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatchError("column counts differ")
        return Matrix(self._rows + other._rows, cols=self.cols)

    def flatten(self) -> tuple:
        """Row-major flattening."""
        return tuple(x for row in self._rows for x in row)

    @classmethod
    def unflatten(cls, v: Sequence[Fraction], rows: int, cols: int) -> "Matrix":
        if len(v) != rows * cols:
            raise DimensionMismatchError("flat length disagrees with shape")
        return cls([tuple(v[i * cols:(i + 1) * cols]) for i in range(rows)], cols=cols)

    def rref(self) -> tuple["Matrix", tuple]:
        """Unique reduced row echelon form and its pivot columns.

        The elimination runs on dict rows {column: entry}, so zero entries
        are never touched.
        """
        cols = self.cols
        sparse = [{j: x for j, x in enumerate(row) if x} for row in self._rows]
        nrows = len(sparse)
        pivots = []
        r = 0
        for c in range(cols):
            if r == nrows:
                break
            pivot_row = None
            for i in range(r, nrows):
                if c in sparse[i]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            sparse[r], sparse[pivot_row] = sparse[pivot_row], sparse[r]
            inv = 1 / sparse[r][c]
            if inv != 1:
                sparse[r] = {j: x * inv for j, x in sparse[r].items()}
            prow = sparse[r]
            for i in range(nrows):
                if i != r and c in sparse[i]:
                    row = sparse[i]
                    f = row[c]
                    for j, x in prow.items():
                        new = row.get(j, ZERO) - f * x
                        if new:
                            row[j] = new
                        else:
                            row.pop(j, None)
            pivots.append(c)
            r += 1
        return Matrix.from_sparse_rows(sparse, cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError("matrix shapes differ")

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


class Subspace:
    """A subspace given by its canonical reduced-echelon basis.

    Basis vectors are the nonzero rows of the reduced row echelon form of
    any spanning set, so two equal subspaces always carry identical bases.
    The nonzero (index, value) pairs of each basis vector are built on first
    use; reduction, coordinates and embedding touch only those.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "_nonzeros")

    def __init__(self, ambient_dim: int, basis: Sequence[Sequence], pivots: Sequence[int]):
        self.ambient_dim = ambient_dim
        self.basis = tuple(to_fractions(v) for v in basis)
        self.pivots = tuple(pivots)
        self._nonzeros = None

    def _pairs(self) -> tuple:
        """Per basis vector, its nonzero entries as (index, value) pairs."""
        if self._nonzeros is None:
            self._nonzeros = tuple(tuple((j, x) for j, x in enumerate(b) if x)
                                   for b in self.basis)
        return self._nonzeros

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        vectors = [to_fractions(v) for v in vectors]
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatchError("vector length disagrees with ambient dimension")
        if not vectors:
            return cls(ambient_dim, (), ())
        reduced, pivots = Matrix(vectors, cols=ambient_dim).rref()
        basis = [reduced.row(i) for i in range(len(pivots))]
        return cls(ambient_dim, basis, pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [unit_vec(ambient_dim, i) for i in range(ambient_dim)],
                   range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def reduce(self, v: Sequence[Fraction]) -> tuple:
        """Canonical representative of v modulo the subspace."""
        v = to_fractions(v)
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector length disagrees with ambient dimension")
        out = list(v)
        for p, pairs in zip(self.pivots, self._pairs()):
            c = out[p]
            if c:
                for j, x in pairs:
                    out[j] -= c * x
        return tuple(out)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return vec_is_zero(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def coordinates_of(self, v: Sequence[Fraction]) -> Optional[tuple]:
        """Coefficients of v in the canonical basis, or None if outside.

        The basis is in reduced echelon form, so the coefficient of each
        basis vector is the entry of v at its pivot.
        """
        v = to_fractions(v)
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self.pivots)

    def embed(self, coords: Sequence[Fraction]) -> tuple:
        """Ambient vector with the given basis coefficients."""
        if len(coords) != self.dim:
            raise DimensionMismatchError("coordinate length disagrees with dimension")
        out = [ZERO] * self.ambient_dim
        for c, pairs in zip(to_fractions(coords), self._pairs()):
            if c:
                for j, x in pairs:
                    out[j] += c * x
        return tuple(out)

    def basis_matrix(self) -> Matrix:
        """Columns are the canonical basis vectors."""
        return Matrix.from_columns(self.basis, rows=self.ambient_dim)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def rref(m: Matrix) -> tuple[Matrix, tuple]:
    return m.rref()


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the null space; dim kernel + rank = cols.

    m is row-reduced once, with its columns in reverse order.  Read back
    in the original order, the null vector of free column f starts with
    the 1 at f and is 0 at every other free column, so these vectors,
    taken in order of f, are the reduced echelon basis of the kernel.
    """
    n = m.cols
    reduced, pivots = Matrix([row[::-1] for row in m.row_list()], cols=n).rref()
    # column j of m is column n - 1 - j of the reversed matrix
    pivot_set = {n - 1 - p for p in pivots}
    free = [j for j in range(n) if j not in pivot_set]
    pivot_rows = list(zip(pivots, reduced.row_list()))
    basis = []
    for j in free:
        v = [ZERO] * n
        v[j] = ONE
        for p, row in pivot_rows:
            x = row[n - 1 - j]
            if x:
                v[n - 1 - p] = -x
        basis.append(tuple(v))
    return Subspace(n, basis, free)


def _null_space(reduced: Matrix, pivots: Sequence[int], cols: int) -> Subspace:
    """Null space of the first ``cols`` columns of a reduced echelon form.

    ``pivots`` are the pivot columns below ``cols``; their rows come first
    in ``reduced``, so the left block of an augmented system's RREF serves
    as well as the RREF of the matrix itself.
    """
    pivot_set = set(pivots)
    free = [j for j in range(cols) if j not in pivot_set]
    vectors = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced.entry(r, f)
        vectors.append(tuple(v))
    return Subspace.from_vectors(cols, vectors)


def image(m: Matrix) -> Subspace:
    """Canonical basis of the column space."""
    return Subspace.from_vectors(m.rows, [m.column(j) for j in range(m.cols)])


def _augmented_rref(m: Matrix, columns: Sequence[Sequence]):
    """RREF of [m | b_1 ... b_k]: (reduced, pivots of m, first inconsistent column).

    The left block of the result is RREF(m), so the pivots below m.cols
    are m's own; the first pivot in the right-hand block, if any, marks
    the first column b_i outside the column space of m.
    """
    columns = [to_fractions(b) for b in columns]
    if any(len(b) != m.rows for b in columns):
        raise DimensionMismatchError("right-hand side length disagrees with row count")
    augmented = Matrix([row + tuple(b[i] for b in columns)
                        for i, row in enumerate(m.row_list())],
                       cols=m.cols + len(columns))
    reduced, pivots = augmented.rref()
    rank = bisect_left(pivots, m.cols)
    first_inconsistent = pivots[rank] - m.cols if rank < len(pivots) else None
    return reduced, pivots[:rank], first_inconsistent


def _particular(reduced: Matrix, pivots: Sequence[int], cols: int, i: int) -> tuple:
    # free variables are zero; pivot variables read right-hand column i
    x = [ZERO] * cols
    for r, p in enumerate(pivots):
        x[p] = reduced.entry(r, cols + i)
    return tuple(x)


def solve_columns(m: Matrix, columns: Sequence[Sequence]) -> tuple:
    """Solve m x = b for every column b: (solutions, first_inconsistent, rank).

    [m | b_1 ... b_k] is row-reduced once.  When every column is
    consistent, ``solutions`` holds each column's particular solution with
    the free variables set to zero and ``first_inconsistent`` is None; the
    left-block row operations depend on m alone, so each solution is the
    one a single-column solve gives.  Otherwise ``solutions`` is None and
    ``first_inconsistent`` is the index of the first column outside the
    column space.  ``rank`` is the rank of m.
    """
    reduced, pivots, first_inconsistent = _augmented_rref(m, columns)
    if first_inconsistent is not None:
        return None, first_inconsistent, len(pivots)
    return (tuple(_particular(reduced, pivots, m.cols, i) for i in range(len(columns))),
            None, len(pivots))


def solve(m: Matrix, b: Sequence[Fraction]) -> Optional[tuple]:
    """Particular solution of m x = b with free variables set to zero."""
    solutions, _, _ = solve_columns(m, [b])
    return None if solutions is None else solutions[0]


@dataclass(frozen=True)
class InconsistencyCertificate:
    """Witness that an affine system has no solution.

    ``row`` is the reduced row of the augmented system reading 0 = 1.
    """

    row_index: int
    row: tuple

    def describe(self) -> str:
        return f"reduced row {self.row_index} of the augmented system reads 0 = 1"


def solve_affine(m: Matrix, b: Sequence[Fraction]):
    """Solve m x = b completely.

    Returns (particular, kernel_subspace, certificate): the deterministic
    particular solution (or None) and the homogeneous solution space; on
    inconsistency the certificate pinpoints the failing reduced row.
    """
    reduced, pivots, first_inconsistent = _augmented_rref(m, [b])
    homogeneous = _null_space(reduced, pivots, m.cols)
    if first_inconsistent is not None:
        # the 0 = 1 row follows the rows of m's pivots
        idx = len(pivots)
        return None, homogeneous, InconsistencyCertificate(idx, reduced.row(idx))
    return _particular(reduced, pivots, m.cols, 0), homogeneous, None


def quotient_coordinates(ambient_dim: int, sub: Subspace) -> tuple[Matrix, Matrix]:
    """Projection onto and section from the canonical complement of ``sub``.

    The complement is spanned by the non-pivot coordinate axes of the
    subspace's echelon basis, so projection . section is the identity on
    the quotient and kernel(projection) = sub.
    """
    if sub.ambient_dim != ambient_dim:
        raise DimensionMismatchError("subspace lives in a different ambient space")
    pivot_set = set(sub.pivots)
    free = [j for j in range(ambient_dim) if j not in pivot_set]
    proj_cols = []
    for j in range(ambient_dim):
        reduced = sub.reduce(unit_vec(ambient_dim, j))
        proj_cols.append(tuple(reduced[f] for f in free))
    projection = Matrix.from_columns(proj_cols, rows=len(free))
    section = Matrix.from_columns([unit_vec(ambient_dim, f) for f in free],
                                  rows=ambient_dim)
    return projection, section


def left_inverse(m: Matrix) -> Optional[Matrix]:
    """L with L m = identity, for injective m; None when not injective.

    Deterministic: row i of L is the pivot-convention solution of
    m^T x = e_i, and all rows come from one elimination of [m^T | I].
    m is injective exactly when every e_i is consistent.
    """
    rows, _, _ = solve_columns(m.transpose(), [unit_vec(m.cols, i) for i in range(m.cols)])
    return None if rows is None else Matrix(rows, cols=m.rows)


def invert(m: Matrix) -> Optional[Matrix]:
    """Inverse of a square matrix, or None when singular.

    The inverse is unique, so it is the square case of left_inverse.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError("only square matrices can be inverted")
    return left_inverse(m)
