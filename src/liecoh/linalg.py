"""Exact linear algebra over the rationals.

Every scalar is a fractions.Fraction; nothing here ever rounds.  Row
echelon forms are the unique reduced ones, so kernels, images, solution
picks and quotient splittings are canonical and reproducible: the same
input always yields byte-identical output.

Storage is sparse: a Matrix keeps only one dict {column: value} per row
and a Subspace only the nonzero (index, value) pairs of each basis vector,
so no zero is stored or touched.  Vectors cross this boundary in the same
form: a right-hand side is a dict {row: value}, a particular solution a
dict {variable: value}, and a vector handed to a Subspace its (index,
value) pairs.  The dense tuples (``Matrix.row``, ``row_list``) are views
built on each call and never kept.  There is one elimination, on copies
of the dict rows, and one augmented elimination, ``_augmented_rref``,
from which ``solve_columns`` (and on it ``solve``), ``left_inverse`` (and
on it ``invert``), ``solve_affine`` and ``solve_certified`` read their
answers.
``kernel`` is one elimination of m with its column indices reversed: read
back in the original order, the null vectors are already the reduced
echelon basis.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

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


def _dense(entries: Iterable, n: int) -> tuple:
    """The length-n vector with the given (index, value) pairs, zero elsewhere."""
    v = [ZERO] * n
    for j, x in entries:
        v[j] = x
    return tuple(v)


def _add_scaled(acc: dict, c: Fraction, entries: Iterable) -> None:
    """acc += c * entries on dict entries; values that cancel are removed."""
    for j, x in entries:
        new = acc.get(j, ZERO) + c * x
        if new:
            acc[j] = new
        else:
            del acc[j]


class Matrix:
    """Immutable matrix of Fractions, one dict {column: nonzero value} per row."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows_data: Iterable[Iterable], cols: Optional[int] = None):
        """A matrix from dense rows; each row is converted once and its zeros dropped."""
        dense = tuple(to_fractions(row) for row in rows_data)
        if dense:
            width = len(dense[0])
            if any(len(row) != width for row in dense):
                raise DimensionMismatchError("ragged matrix rows")
            if cols is not None and cols != width:
                raise DimensionMismatchError("declared column count disagrees with data")
            cols = width
        elif cols is None:
            raise DimensionMismatchError("empty matrix needs an explicit column count")
        self.rows = len(dense)
        self.cols = cols
        self._data = tuple({j: x for j, x in enumerate(row) if x} for row in dense)

    @classmethod
    def _of(cls, data: Sequence[dict], cols: int) -> "Matrix":
        # the matrix takes the dicts over as they are: nonzero Fractions only
        m = cls.__new__(cls)
        m.rows, m.cols, m._data = len(data), cols, tuple(data)
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls._of([{} for _ in range(rows)], cols)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of([{i: ONE} for i in range(n)], n)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], rows: Optional[int] = None) -> "Matrix":
        columns = list(columns)
        if not columns and rows is None:
            raise DimensionMismatchError("empty column list needs an explicit row count")
        return cls(columns, cols=None if columns else rows).transpose()

    @classmethod
    def from_sparse_rows(cls, rows: Iterable[dict], cols: int) -> "Matrix":
        """Matrix from dict rows {column: coefficient}; zero values are dropped."""
        data = [{j: y for j, x in row.items()
                 if (y := x if type(x) is Fraction else Fraction(x))}
                for row in rows]
        if any(row and (min(row) < 0 or max(row) >= cols) for row in data):
            raise DimensionMismatchError("sparse row column out of range")
        return cls._of(data, cols)

    def sparse_rows(self) -> tuple:
        """The rows as dicts {column: value} of their nonzero entries; read only."""
        return self._data

    def row_list(self) -> tuple:
        """The rows as dense tuples, built on each call."""
        return tuple(_dense(row.items(), self.cols) for row in self._data)

    def row(self, i: int) -> tuple:
        """Row i as a dense tuple, built on each call."""
        return _dense(self._data[i].items(), self.cols)

    def column(self, j: int) -> tuple:
        return tuple(row.get(j, ZERO) for row in self._data)

    def entry(self, i: int, j: int) -> Fraction:
        return self._data[i].get(j, ZERO)

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, x in row.items():
                out[j][i] = x
        return Matrix._of(out, self.rows)

    def is_zero(self) -> bool:
        return not any(self._data)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._data == other._data)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(row.items()) for row in self._data)))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return linear_combination((ONE, ONE), (self, other), self.rows, self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return linear_combination((ONE, -ONE), (self, other), self.rows, self.cols)

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError("matrix shapes differ")

    def __neg__(self) -> "Matrix":
        return self.scale(-ONE)

    def scale(self, c) -> "Matrix":
        return linear_combination((c,), (self,), self.rows, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right = other._data
        out = []
        for row in self._data:
            acc = {}
            for k, a in row.items():
                _add_scaled(acc, a, right[k].items())
            out.append(acc)
        return Matrix._of(out, other.cols)

    def matvec(self, v: Sequence[Fraction]) -> tuple:
        if len(v) != self.cols:
            raise DimensionMismatchError("vector length disagrees with column count")
        return tuple(sum((x * v[j] for j, x in row.items()), ZERO) for row in self._data)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    def trace(self) -> Fraction:
        return sum((self._data[i].get(i, ZERO) for i in range(min(self.rows, self.cols))),
                   ZERO)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise DimensionMismatchError("column counts differ")
        return Matrix._of(self._data + other._data, self.cols)

    def flat_pairs(self) -> tuple:
        """The nonzero entries as (row-major index, value) pairs in index order;
        from_flat turns them back into the matrix."""
        return tuple((i * self.cols + j, x) for i, row in enumerate(self._data)
                     for j, x in sorted(row.items()))

    @classmethod
    def from_flat(cls, pairs: Iterable, rows: int, cols: int, start: int = 0) -> "Matrix":
        """The matrix with row-major entry k = x for each pair (start + k, x) of a flat
        vector; zero values and pairs outside start .. start + rows * cols - 1 are skipped."""
        data = [{} for _ in range(rows)]
        for k, x in pairs:
            if x and 0 <= k - start < rows * cols:
                data[(k - start) // cols][(k - start) % cols] = x
        return cls._of(data, cols)

    def rref(self) -> tuple["Matrix", tuple]:
        """Unique reduced row echelon form and its pivot columns.

        ``holding[c]``, the rows with an entry in column c, is kept up to
        date on fill-in and cancellation; it gives each column's pivot
        candidates and the rows to clear.  The reduced form is unique, so
        taking the shortest candidate (least fill-in) cannot change it.
        """
        rows = [dict(row) for row in self._data]
        holding = [set() for _ in range(self.cols)]
        for i, row in enumerate(rows):
            for j in row:
                holding[j].add(i)
        unused = set(range(len(rows)))
        order = []
        pivots = []
        for c, col_rows in enumerate(holding):
            candidates = col_rows & unused
            if not candidates:
                continue
            r = min(candidates, key=lambda i: (len(rows[i]), i))
            unused.discard(r)
            prow = rows[r]
            inv = 1 / prow[c]
            if inv != 1:
                rows[r] = prow = {j: x * inv for j, x in prow.items()}
            for i in list(col_rows):
                if i == r:
                    continue
                row = rows[i]
                f = row[c]
                for j, x in prow.items():
                    old = row.get(j)
                    if old is None:
                        row[j] = -f * x
                        holding[j].add(i)
                    else:
                        new = old - f * x
                        if new:
                            row[j] = new
                        else:
                            del row[j]
                            holding[j].discard(i)
            order.append(r)
            pivots.append(c)
        data = [rows[r] for r in order] + [{} for _ in range(len(rows) - len(order))]
        return Matrix._of(data, self.cols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


class Subspace:
    """A subspace given by its canonical reduced-echelon basis.

    Basis vectors are the nonzero rows of the reduced row echelon form of
    any spanning set, so two equal subspaces always carry identical bases.
    Each basis vector is stored only as ``pairs``: its nonzero (index,
    value) pairs in increasing index order, and reduction and coordinates
    read the vectors handed to them as pairs too.
    """

    __slots__ = ("ambient_dim", "pairs", "pivots", "_by_pivot")

    def __init__(self, ambient_dim: int, pairs: Sequence[Sequence], pivots: Sequence[int]):
        self.ambient_dim = ambient_dim
        self.pairs = tuple(tuple(p) for p in pairs)
        self.pivots = tuple(pivots)
        self._by_pivot = dict(zip(self.pivots, self.pairs))

    @classmethod
    def row_space(cls, m: Matrix) -> "Subspace":
        """The span of the rows of m, from one elimination (none for no rows)."""
        if not m.rows:
            return cls.zero(m.cols)
        reduced, pivots = m.rref()
        return cls(m.cols, [sorted(row.items()) for row in reduced.sparse_rows()[:len(pivots)]],
                   pivots)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        return cls.row_space(Matrix(vectors, cols=ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [((i, ONE),) for i in range(ambient_dim)], range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.pairs)

    def is_zero(self) -> bool:
        return not self.pairs

    def reduce_entries(self, entries) -> dict:
        """The canonical representative of a vector modulo the subspace, the
        vector given as nonzero (index, value) pairs and returned as a dict;
        it is empty exactly when the vector lies in the subspace.

        A basis vector is 0 at every other pivot, so subtracting it leaves
        the other pivot entries alone: the pivots to clear are those the
        vector holds at the start.
        """
        out = dict(entries)
        for p in [j for j in out if j in self._by_pivot]:
            _add_scaled(out, -out[p], self._by_pivot[p])
        return out

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionMismatchError("subspaces live in different ambient spaces")
        return not any(self.reduce_entries(p) for p in other.pairs)

    def coordinates_of(self, entries) -> Optional[dict]:
        """The coefficients in the canonical basis of the vector with the given nonzero
        (index, value) pairs, as a dict {basis position: nonzero value}, or None if it
        lies outside.  The basis is in reduced echelon form, so the coefficient of
        each basis vector is the entry of the vector at its pivot."""
        entries = dict(entries)
        if self.reduce_entries(entries.items()):
            return None
        return {r: x for r, p in enumerate(self.pivots) if (x := entries.get(p))}

    def split_matrix(self) -> Matrix:
        """The coordinates of a vector's component along the subspace: row r reads
        the entry at pivot r.

        The basis is in reduced echelon form, so v minus its reduction
        (reduce_entries) lies in the subspace and agrees with v at every
        pivot; v need not lie in the subspace.
        """
        return Matrix._of([{p: ONE} for p in self.pivots], self.ambient_dim)

    def embed_matrix(self) -> Matrix:
        """The matrix taking basis coefficients to the ambient vector: column r
        is basis vector r."""
        return Matrix._of([dict(p) for p in self.pairs], self.ambient_dim).transpose()

    def restrict(self, m: Matrix) -> Optional[Matrix]:
        """The matrix of m on the subspace in its canonical basis, or None
        when m does not map the subspace into itself."""
        if m.rows != self.ambient_dim or m.cols != self.ambient_dim:
            raise DimensionMismatchError("endomorphism size disagrees with ambient dimension")
        columns = m.transpose().sparse_rows()
        rows = [{} for _ in self.pivots]
        for c, pairs in enumerate(self.pairs):
            image = {}
            for j, x in pairs:
                _add_scaled(image, x, columns[j].items())
            if self.reduce_entries(image):
                return None
            for row, p in zip(rows, self.pivots):
                if p in image:
                    row[c] = image[p]
        return Matrix._of(rows, self.dim)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.ambient_dim, self.pairs))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def linear_combination(coeffs: Sequence, matrices: Sequence[Matrix],
                       rows: int, cols: int) -> Matrix:
    """sum_i coeffs[i] * matrices[i] for rows x cols matrices, on the dict rows."""
    out = [{} for _ in range(rows)]
    for c, m in zip(to_fractions(coeffs), matrices):
        if c:
            for acc, row in zip(out, m.sparse_rows()):
                _add_scaled(acc, c, row.items())
    return Matrix._of(out, cols)


def pullback_family(family: Sequence[Matrix], phi: Matrix, size: int) -> tuple:
    """The family x -> M(phi x) of size x size matrices pulled back along phi.

    Matrix a is sum_b phi[b][a] * M_b, scattered from the nonzero entries
    of phi's rows; ``size`` fixes the shape when the family is empty.
    """
    if phi.rows != len(family) or any(m.rows != size or m.cols != size for m in family):
        raise DimensionMismatchError("family and pullback map shapes disagree")
    out = [[{} for _ in range(size)] for _ in range(phi.cols)]
    for m, coeffs in zip(family, phi.sparse_rows()):
        for a, x in coeffs.items():
            for acc, row in zip(out[a], m.sparse_rows()):
                _add_scaled(acc, x, row.items())
    return tuple(Matrix._of(rows, size) for rows in out)


def block_matrix(blocks: Sequence[Sequence[Matrix]]) -> Matrix:
    """The matrix with the given grid of blocks, joined on the dict rows.

    The blocks of one block row share their row count and the blocks of
    one block column their column count; blocks may be empty.
    """
    grid = [list(block_row) for block_row in blocks]
    if not grid or not grid[0] or any(len(block_row) != len(grid[0]) for block_row in grid):
        raise DimensionMismatchError("block grid must be a nonempty rectangle")
    widths = [m.cols for m in grid[0]]
    offsets = [sum(widths[:k]) for k in range(len(widths))]
    data = []
    for block_row in grid:
        height = block_row[0].rows
        if [m.cols for m in block_row] != widths or any(m.rows != height for m in block_row):
            raise DimensionMismatchError("blocks do not line up")
        for i in range(height):
            row = {}
            for offset, m in zip(offsets, block_row):
                row.update((offset + j, x) for j, x in m.sparse_rows()[i].items())
            data.append(row)
    return Matrix._of(data, sum(widths))


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of the null space; dim kernel + rank = cols.

    m is row-reduced once, with column j moved to n - 1 - j.  Read back
    in the original order, the null vector of free column f starts with
    the 1 at f and is 0 at every other free column, so these vectors,
    taken in order of f, are the reduced echelon basis of the kernel.
    """
    n = m.cols
    reversed_rows = [{n - 1 - j: x for j, x in row.items()} for row in m.sparse_rows()]
    reduced, pivots = Matrix._of(reversed_rows, n).rref()
    # entry t != p of reversed pivot p's row is minus entry n-1-p of free column n-1-t's vector
    tails = {}
    for p, row in zip(pivots, reduced.sparse_rows()):
        for t, x in row.items():
            if t != p:
                tails.setdefault(n - 1 - t, []).append((n - 1 - p, -x))
    pivot_set = {n - 1 - p for p in pivots}
    free = [j for j in range(n) if j not in pivot_set]
    return Subspace(n, [[(j, ONE)] + sorted(tails.get(j, ())) for j in free], free)


def _null_space(reduced: Matrix, pivots: Sequence[int], cols: int) -> Subspace:
    """Null space of the first ``cols`` columns of a reduced echelon form.

    ``pivots`` are the pivot columns below ``cols``; their rows come first
    in ``reduced``, so the left block of an augmented system's RREF serves
    as well as the RREF of the matrix itself.
    """
    pivot_set = set(pivots)
    vectors = {f: {f: ONE} for f in range(cols) if f not in pivot_set}
    for p, row in zip(pivots, reduced.sparse_rows()):
        for j, x in row.items():
            if j < cols and j != p:
                vectors[j][p] = -x
    return Subspace.row_space(Matrix._of(list(vectors.values()), cols))


def image(m: Matrix) -> Subspace:
    """Canonical basis of the column space."""
    return Subspace.row_space(m.transpose())


def _augmented_rref(m: Matrix, columns: Sequence[dict]):
    """RREF of [m | b_1 ... b_k]: (reduced, pivots of m, first inconsistent column).

    Each b_i is a dict {row: value}; zero values are dropped and a row
    outside m raises DimensionMismatchError.  The left block of the result
    is RREF(m), so the pivots below m.cols are m's own; the first pivot in
    the right-hand block, if any, marks the first column b_i outside the
    column space of m.
    """
    rows = [dict(row) for row in m.sparse_rows()]
    columns = Matrix.from_sparse_rows(columns, m.rows).sparse_rows()
    for k, b in enumerate(columns, m.cols):
        for i, x in b.items():
            rows[i][k] = x
    reduced, pivots = Matrix._of(rows, m.cols + len(columns)).rref()
    rank = bisect_left(pivots, m.cols)
    first_inconsistent = pivots[rank] - m.cols if rank < len(pivots) else None
    return reduced, pivots[:rank], first_inconsistent


def _particulars(reduced: Matrix, pivots: Sequence[int], cols: int, k: int) -> list:
    """The particular solution of each of k right-hand columns, as a dict
    {variable: value}: free variables are zero, pivot variables read the column."""
    out = [{} for _ in range(k)]
    for p, row in zip(pivots, reduced.sparse_rows()):
        for j, x in row.items():
            if j >= cols:
                out[j - cols][p] = x
    return out


def solve_columns(m: Matrix, columns: Sequence[dict]) -> tuple:
    """Solve m x = b for every column b, a dict {row: value}:
    (solutions, first_inconsistent, rank).

    [m | b_1 ... b_k] is row-reduced once.  When every column is
    consistent, ``solutions`` holds each column's particular solution, a
    dict {variable: nonzero value} with the free variables set to zero, and
    ``first_inconsistent`` is None; the left-block row operations depend on
    m alone, so each solution is the one a single-column solve gives.
    Otherwise ``solutions`` is None and ``first_inconsistent`` is the index
    of the first column outside the column space.  ``rank`` is the rank of m.
    """
    reduced, pivots, first_inconsistent = _augmented_rref(m, columns)
    if first_inconsistent is not None:
        return None, first_inconsistent, len(pivots)
    return tuple(_particulars(reduced, pivots, m.cols, len(columns))), None, len(pivots)


def solve(m: Matrix, b: dict) -> Optional[dict]:
    """Particular solution {variable: value} of m x = b, b a dict {row: value},
    with free variables set to zero; None when inconsistent."""
    solutions, _, _ = solve_columns(m, [b])
    return None if solutions is None else solutions[0]


class InconsistencyCertificate(NamedTuple):
    """Witness that an affine system has no solution: reduced row
    ``row_index`` of the augmented system reads 0 = 1."""

    row_index: int

    def describe(self) -> str:
        return f"reduced row {self.row_index} of the augmented system reads 0 = 1"


def _solution_or_certificate(m: Matrix, b: dict):
    """One elimination of [m | b]: (reduced, pivots, particular, certificate)."""
    reduced, pivots, first_inconsistent = _augmented_rref(m, [b])
    if first_inconsistent is None:
        return reduced, pivots, _particulars(reduced, pivots, m.cols, 1)[0], None
    # the 0 = 1 row follows the rows of m's pivots
    return reduced, pivots, None, InconsistencyCertificate(len(pivots))


def solve_certified(m: Matrix, b: dict):
    """Solve m x = b, b a dict {row: value}: (particular, None), or (None,
    certificate) when inconsistent.

    The particular solution (a dict {variable: value}) and the certificate
    are the ones solve_affine gives; the homogeneous solution space is not
    built.
    """
    _, _, particular, certificate = _solution_or_certificate(m, b)
    return particular, certificate


def solve_affine(m: Matrix, b: dict):
    """Solve m x = b completely, b a dict {row: value}.

    Returns (particular, kernel_subspace, certificate): the deterministic
    particular solution as a dict {variable: value} (or None) and the
    homogeneous solution space; on inconsistency the certificate pinpoints
    the failing reduced row.
    """
    reduced, pivots, particular, certificate = _solution_or_certificate(m, b)
    return particular, _null_space(reduced, pivots, m.cols), certificate


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
    position = {f: r for r, f in enumerate(free)}
    # the row of free index f is 1 at f and -x at pivot p for each entry x at f of
    # p's basis vector; that vector is 1 at p, its first pair, and 0 at other pivots
    rows = [{f: ONE} for f in free]
    for p, pairs in zip(sub.pivots, sub.pairs):
        for f, x in pairs[1:]:
            rows[position[f]][p] = -x
    section = [{position[j]: ONE} if j in position else {} for j in range(ambient_dim)]
    return Matrix._of(rows, ambient_dim), Matrix._of(section, len(free))


def left_inverse(m: Matrix) -> Optional[Matrix]:
    """L with L m = identity, for injective m; None when not injective.

    Deterministic: row i of L is the pivot-convention solution of
    m^T x = e_i, and all rows come from one elimination of [m^T | I], the
    columns of I given as the dicts {i: 1}.  m is injective exactly when
    every e_i is consistent.
    """
    reduced, pivots, first_inconsistent = _augmented_rref(
        m.transpose(), [{i: ONE} for i in range(m.cols)])
    if first_inconsistent is not None:
        return None
    return Matrix._of(_particulars(reduced, pivots, m.rows, m.cols), m.rows)


def invert(m: Matrix) -> Optional[Matrix]:
    """Inverse of a square matrix, or None when singular.

    The inverse is unique, so it is the square case of left_inverse.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError("only square matrices can be inverted")
    return left_inverse(m)
