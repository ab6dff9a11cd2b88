"""Alternating multilinear calculus on a Lie algebra.

Cochains are stored on strictly increasing index tuples; evaluation at
arbitrary tuples inserts the permutation sign.  A Cochain keeps only the
nonzero (index, Fraction) pairs of its flat coordinates; key_rank and
key_unrank convert between a key and its position, so no key list is
built.  Every cochain the package computes is built one way: its values go
to from_columns as dict columns {key: {slot: nonzero value}} (or its pairs
to from_pairs); the dense Cochain(...), the input form of files and
literals, ranks its values through from_columns too.  The wedge product is
the shuffle sum over the nonzero keys, which equals the Alt formula with
its 1/(p!q!) factor but never divides: char 0 keeps every identity exact.
Its pairing takes and returns values as dicts {slot: nonzero value}, the
form nonzero_values gives, so no value is made dense; the one dense read
left is ``component``.

The covariant differential of a linear map S into endomorphisms is
S wedge + d (trivial coefficients); a module's differential is the case
where S is a representation and the trivial one the case S = 0.  All
three apply the one matrix that operator_matrix scatters, and
differential_operator keeps that matrix on the Representation or
OuterActionMap it belongs to, so each degree is assembled once per object.
The square of d_S is wedging with the curvature of S, and curvature is
computed both from the bracket formula and from the calculus,
cross-checked once per map and kept on it.  Pulling a cochain back along
a linear map, evaluating it at vectors and the action of a pair of
endomorphisms on it are one substitution, _scatter, which sends each
nonzero term of the cochain through the nonzero matrix entries of its
slots into dict columns.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import combinations, groupby, product
from math import comb, prod
from typing import Callable, Optional, Sequence

from .config import degree_cap
from .errors import (DegreeCapExceededError, DegreeMismatchError,
                     DimensionMismatchError, InvariantViolation)
from .liealg import LieAlgebra, Representation, law_defect
from .linalg import Matrix, ZERO, _add_scaled, _dense, pullback_family, to_fractions

HALF = Fraction(1, 2)


def check_shape(degree: int, value_dim: int) -> None:
    """A cochain's degree and value dimension are nonnegative and the degree is
    within the cap."""
    if degree < 0 or value_dim < 0:
        raise DimensionMismatchError(
            f"cochain degree {degree} and value dimension {value_dim} must be nonnegative")
    check_degree(degree)


def check_degree(p: int) -> int:
    cap = degree_cap()
    if p > cap:
        raise DegreeCapExceededError(p, cap)
    return p


def increasing_tuples(n: int, p: int):
    """All strictly increasing p-tuples below n, in lexicographic order."""
    return combinations(range(n), p)


def key_rank(key: Sequence[int], n: int) -> int:
    """The position of an increasing key in increasing_tuples(n, len(key)): the
    combinatorial number system read on the reversed indices n - 1 - key[i]."""
    p = len(key)
    return comb(n, p) - 1 - sum(comb(n - 1 - k, p - i) for i, k in enumerate(key))


def key_unrank(r: int, n: int, p: int) -> tuple:
    """The increasing key at position r of increasing_tuples(n, p)."""
    key, k = [], 0
    for left in range(p, 0, -1):
        while r >= (count := comb(n - 1 - k, left - 1)):  # the keys with k next
            r, k = r - count, k + 1
        key.append(k)
        k += 1
    return tuple(key)


def sort_with_sign(idx: Sequence[int]):
    """(sorted tuple, sign) or (None, 0) when an index repeats."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None, 0
    return tuple(idx), sign


class Cochain:
    """Degree-p alternating multilinear map with vector values, stored only as
    ``pairs``: the nonzero (index, Fraction) pairs of its flat coordinates (keys
    in lexicographic order, each key's values contiguous), in index order."""

    __slots__ = ("algebra", "degree", "value_dim", "pairs")

    def __init__(self, algebra: LieAlgebra, degree: int, value_dim: int, coeffs=None):
        """The cochain with value coeffs[key], a dense vector, at each increasing key,
        zero elsewhere: the input form, for cochains read from files and literals."""
        check_shape(degree, value_dim)
        columns = {}
        for key, vec in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != degree:
                raise DegreeMismatchError(f"key {key} has the wrong length for degree {degree}")
            if any(not 0 <= i < algebra.dim for i in key):
                raise DimensionMismatchError(f"key {key} is out of range")
            if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise DimensionMismatchError(f"key {key} is not strictly increasing")
            if len(vec := to_fractions(vec)) != value_dim:
                raise DimensionMismatchError("coefficient vector has the wrong length")
            columns[key] = {slot: x for slot, x in enumerate(vec) if x}
        self.algebra, self.degree, self.value_dim = algebra, degree, value_dim
        self.pairs = Cochain.from_columns(algebra, degree, value_dim, columns).pairs

    @classmethod
    def zero(cls, algebra: LieAlgebra, degree: int, value_dim: int) -> "Cochain":
        return cls.from_pairs(algebra, degree, value_dim, ())

    @classmethod
    def from_pairs(cls, algebra: LieAlgebra, degree: int, value_dim: int,
                   pairs: Sequence[tuple]) -> "Cochain":
        """The cochain whose nonzero coordinates are the given (index, Fraction)
        pairs, in increasing index order; only the last index is checked."""
        check_shape(degree, value_dim)
        if pairs and pairs[-1][0] >= cochain_space_dim(algebra.dim, degree, value_dim):
            raise DimensionMismatchError("coordinate index out of range")
        c = cls.__new__(cls)
        c.algebra, c.degree, c.value_dim, c.pairs = algebra, degree, value_dim, tuple(pairs)
        return c

    @classmethod
    def from_columns(cls, algebra: LieAlgebra, degree: int, value_dim: int,
                     columns: dict) -> "Cochain":
        """The cochain with value columns[key], a dict {slot: nonzero value}, at each
        increasing key, zero elsewhere: the one way the package builds a cochain."""
        return cls.from_pairs(algebra, degree, value_dim, sorted(
            (key_rank(key, algebra.dim) * value_dim + k, x)
            for key, column in columns.items() for k, x in column.items()))

    def nonzero_values(self) -> list:
        """(key_rank of the key, {slot: value}) per key with a nonzero value, in key order."""
        vd = self.value_dim
        return [(r, {i - r * vd: x for i, x in group})
                for r, group in groupby(self.pairs, lambda pair: pair[0] // vd)]

    def keys(self) -> tuple:
        """The increasing keys with a nonzero value, in lexicographic order."""
        return tuple(key_unrank(r, self.algebra.dim, self.degree)
                     for r, _ in self.nonzero_values())

    def component(self, key) -> tuple:
        """The value at an increasing key, as a dense tuple built on each call."""
        key, vd = tuple(key), self.value_dim
        if len(key) != self.degree or any(a >= b for a, b in zip((-1,) + key,
                                                                 key + (self.algebra.dim,))):
            raise DimensionMismatchError(f"{key} is not an increasing key of degree {self.degree}")
        start = key_rank(key, self.algebra.dim) * vd
        k = bisect_left(self.pairs, (start,))
        return _dense(((i - start, x) for i, x in self.pairs[k:k + vd] if i < start + vd), vd)

    def sparse_coordinates(self) -> dict:
        """The flat coordinates as a dict {index: value} of the nonzero entries."""
        return dict(self.pairs)

    def as_matrix(self) -> Matrix:
        if self.degree != 1:
            raise DegreeMismatchError("only degree-1 cochains are matrices")
        # pair k * value_dim + a is entry (a, k), so the pairs are the transpose row-major
        return Matrix.from_flat(self.pairs, self.algebra.dim, self.value_dim).transpose()

    def map_values(self, m: Matrix) -> "Cochain":
        """The cochain m . c(...): the nonzero values, as the rows of one sparse
        matrix, times the transpose of m."""
        if m.cols != self.value_dim:
            raise DimensionMismatchError("the value map does not match the cochain values")
        nonzero = self.nonzero_values()
        images = Matrix.from_sparse_rows([value for _, value in nonzero], m.cols) @ m.transpose()
        return Cochain.from_pairs(self.algebra, self.degree, m.rows, [
            (r * m.rows + a, y) for (r, _), row in zip(nonzero, images.sparse_rows())
            for a, y in sorted(row.items())])

    def evaluate(self, args: Sequence[Sequence[Fraction]]) -> tuple:
        """Fully multilinear alternating evaluation at coefficient vectors: the
        pullback along the matrix whose columns are args, read at (0, ..., p-1)."""
        if len(args) != self.degree:
            raise DegreeMismatchError(f"expected {self.degree} arguments, got {len(args)}")
        if any(len(v) != self.algebra.dim for v in args):
            raise DimensionMismatchError("argument length disagrees with the algebra")
        pulled = pullback_cochain(self, Matrix.from_columns(args, rows=self.algebra.dim),
                                  LieAlgebra(self.degree))
        return pulled.component(tuple(range(self.degree)))

    def is_zero(self) -> bool:
        return not self.pairs

    def _compatible(self, other: "Cochain") -> None:
        if self.algebra != other.algebra:
            raise DimensionMismatchError("cochains live over different algebras")
        if self.degree != other.degree:
            raise DegreeMismatchError("cochain degrees differ")
        if self.value_dim != other.value_dim:
            raise DimensionMismatchError("cochain value dimensions differ")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        total = dict(self.pairs)
        for i, x in other.pairs:
            total[i] = total.get(i, ZERO) + x
        return Cochain.from_pairs(self.algebra, self.degree, self.value_dim,
                                  sorted((i, x) for i, x in total.items() if x))

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def __neg__(self) -> "Cochain":
        return self.scale(-1)

    def scale(self, c) -> "Cochain":
        c = Fraction(c)
        return Cochain.from_pairs(self.algebra, self.degree, self.value_dim,
                                  [(i, c * x) for i, x in self.pairs] if c else ())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cochain) and self.algebra == other.algebra
                and self.degree == other.degree and self.value_dim == other.value_dim
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.degree, self.value_dim, self.pairs))

    def __repr__(self):
        return f"Cochain(degree={self.degree}, value_dim={self.value_dim})"


def cochain_space_dim(algebra_dim: int, degree: int, value_dim: int) -> int:
    return comb(algebra_dim, degree) * value_dim


class EquivariantPairing:
    """Bilinear map U x V -> W usable as a wedge multiplier; its function takes
    and returns vectors as dicts {index: nonzero value}."""

    __slots__ = ("left_dim", "right_dim", "out_dim", "_fn")

    def __init__(self, left_dim: int, right_dim: int, out_dim: int,
                 fn: Callable[[dict, dict], dict]):
        self.left_dim = left_dim
        self.right_dim = right_dim
        self.out_dim = out_dim
        self._fn = fn

    def apply(self, u: dict, v: dict) -> dict:
        """The pairing of u and v as a dict {index: nonzero value}."""
        if any(not 0 <= i < self.left_dim for i in u) or any(
                not 0 <= j < self.right_dim for j in v):
            raise DimensionMismatchError("pairing arguments have indices out of range")
        out = {k: x for k, x in self._fn(u, v).items() if x}
        if any(not 0 <= k < self.out_dim for k in out):
            raise DimensionMismatchError("pairing value has an index out of range")
        return out

    @classmethod
    def lie_bracket(cls, V: LieAlgebra) -> "EquivariantPairing":
        return cls(V.dim, V.dim, V.dim, V.bracket)

    @classmethod
    def evaluation(cls, m: int) -> "EquivariantPairing":
        """End(V) x V -> V on row-major flattened endomorphisms, V read as m x 1 matrices."""

        def fn(u, v):
            return dict((Matrix.from_flat(u.items(), m, m)
                         @ Matrix.from_flat(v.items(), m, 1)).flat_pairs())

        return cls(m * m, m, m, fn)

    @classmethod
    def commutator(cls, m: int) -> "EquivariantPairing":
        """uv - vu on row-major flattened endomorphisms."""

        def fn(u, v):
            return dict(Matrix.from_flat(u.items(), m, m)
                        .commutator(Matrix.from_flat(v.items(), m, m)).flat_pairs())

        return cls(m * m, m * m, m * m, fn)


def wedge(m: EquivariantPairing, a: Cochain, b: Cochain) -> Cochain:
    """Shuffle-sum product of degree p + q, over the nonzero keys of a and b.

    A pair of disjoint keys lands at their sorted union with the sign of
    sort_with_sign, which is the sign of the shuffle placing a's key first;
    the pairing reads the nonzero values of a and b as they are stored.
    """
    if a.algebra != b.algebra:
        raise DimensionMismatchError("cochains live over different algebras")
    if a.value_dim != m.left_dim or b.value_dim != m.right_dim:
        raise DimensionMismatchError("cochain values do not match the pairing")
    p, q = a.degree, b.degree
    check_degree(p + q)
    n = a.algebra.dim
    right = [(key_unrank(r, n, q), value) for r, value in b.nonzero_values()]
    table = {}
    for r, va in a.nonzero_values():
        left_key = key_unrank(r, n, p)
        for right_key, vb in right:
            key, sign = sort_with_sign(left_key + right_key)
            if key is not None:
                _add_scaled(table.setdefault(key, {}), sign, m.apply(va, vb).items())
    return Cochain.from_columns(a.algebra, p + q, m.out_dim, table)


def superbracket(V: LieAlgebra, a: Cochain, b: Cochain) -> Cochain:
    """Wedge with the bracket of the value algebra V."""
    if a.value_dim != V.dim or b.value_dim != V.dim:
        raise DimensionMismatchError("cochain values do not match the value algebra")
    return wedge(EquivariantPairing.lie_bracket(V), a, b)


def operator_matrix(algebra: LieAlgebra, matrices: Sequence[Matrix], p: int,
                    value_dim: int) -> Matrix:
    """Matrix of c -> rho wedge c + d c on degree-p cochains, rho(e_i) = matrices[i].

    (rho wedge c + d c)(x_0..x_p) = sum_j (-1)^j rho(x_j) c(..omit j..)
                                  + sum_{i<j} (-1)^{i+j} c([x_i,x_j], ..omit i,j..),

    the differential of a Representation (cochain_differential), the
    covariant differential of an OuterActionMap (covariant_differential)
    and, with zero matrices, the trivial-coefficient differential alike;
    this is the only place the formula is evaluated.  Rows and columns use
    the flat coordinates of a Cochain: keys in lexicographic order,
    each key's value_dim values contiguous.  A bracket term c(e_k, rest) is
    read at the increasing key of (k,) + rest with the sign of
    sort_with_sign.  Each row is scattered from the stored bracket table
    and the nonzero action entries.
    """
    check_degree(p + 1)
    col_base = {key: r * value_dim
                for r, key in enumerate(increasing_tuples(algebra.dim, p))}
    brackets = algebra.structure_table()
    action = [[(a, b, x) for a, row in enumerate(m.sparse_rows()) for b, x in row.items()]
              for m in matrices]
    rows = []
    for key in increasing_tuples(algebra.dim, p + 1):
        block = [{} for _ in range(value_dim)]
        for j, kj in enumerate(key):
            base = col_base[key[:j] + key[j + 1:]]
            for a, b, x in action[kj]:
                entries = block[a]
                entries[base + b] = entries.get(base + b, ZERO) + (-x if j % 2 else x)
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                support = brackets.get((key[i], key[j]))
                if support is None:
                    continue
                rest = key[:i] + key[i + 1:j] + key[j + 1:]
                for k, coeff in support:
                    target, sign = sort_with_sign((k,) + rest)
                    if target is None:
                        continue
                    if (i + j) % 2:
                        sign = -sign
                    base = col_base[target]
                    term = coeff if sign == 1 else -coeff
                    for a, entries in enumerate(block):
                        entries[base + a] = entries.get(base + a, ZERO) + term
        rows.extend(block)
    return Matrix.from_sparse_rows(rows, len(col_base) * value_dim)


def differential_operator(action, p: int) -> Matrix:
    """The degree-p operator_matrix of a Representation or an OuterActionMap.

    It is assembled on first use and kept in the object's ``_operators``,
    so it lives as long as the object and each degree is built once.
    """
    d = action._operators.get(p)
    if d is None:
        d = action._operators[p] = operator_matrix(action.algebra, action.matrices, p,
                                                   action.space_dim)
    return d


def _apply_operator(action, c: Cochain) -> Cochain:
    """The differential of action (a Representation or an OuterActionMap) applied to c:
    each row of the operator read at the nonzero coordinates of c only."""
    coords = dict(c.pairs)
    rows = differential_operator(action, c.degree).sparse_rows()
    return Cochain.from_pairs(c.algebra, c.degree + 1, c.value_dim, [
        (i, total) for i, row in enumerate(rows)
        if (total := sum(x * coords[j] for j, x in row.items() if j in coords))])


def cochain_differential(rep: Representation, c: Cochain) -> Cochain:
    """The degree-raising differential of the module given by rep.

    (df)(x_0..x_p) = sum_j (-1)^j x_j.f(..omit j..)
                   + sum_{i<j} (-1)^{i+j} f([x_i,x_j], ..omit i,j..).
    """
    if rep.algebra != c.algebra:
        raise DimensionMismatchError("representation and cochain algebras differ")
    if rep.space_dim != c.value_dim:
        raise DimensionMismatchError("module dimension disagrees with cochain values")
    return _apply_operator(rep, c)


def trivial_differential(c: Cochain) -> Cochain:
    return _apply_operator(Representation.trivial(c.algebra, c.value_dim), c)


def _scatter(c: Cochain, slots: Sequence[Sequence[dict]], table: dict, sign: int = 1) -> None:
    """Add sign * c(M_1 ., ..., M_p .) into table, slots[s] being the sparse rows of M_s.

    For each nonzero key K of c and each choice of nonzero entries
    M_s[K_s][i_s], the term prod_s M_s[K_s][i_s] * c(K) lands at the sorted
    key of (i_1, ..., i_p) with the sign of sort_with_sign; a choice with a
    repeated index drops out.  table maps keys to dict columns {slot: nonzero value}.
    """
    n, p = c.algebra.dim, c.degree
    for r, value in c.nonzero_values():
        support = list(value.items())
        for pick in product(*(slot[k].items() for slot, k in zip(slots, key_unrank(r, n, p)))):
            target, s = sort_with_sign([i for i, _ in pick])
            if target is not None:
                _add_scaled(table.setdefault(target, {}), sign * s * prod(x for _, x in pick),
                            support)


def pullback_cochain(c: Cochain, phi: Matrix, domain: LieAlgebra) -> Cochain:
    """The cochain c(phi ., ..., phi .) on ``domain``: phi in every slot."""
    if phi.rows != c.algebra.dim or phi.cols != domain.dim:
        raise DimensionMismatchError("pullback map has the wrong shape")
    table = {}
    _scatter(c, [phi.sparse_rows()] * c.degree, table)
    return Cochain.from_columns(domain, c.degree, c.value_dim, table)


def transport_cochain(alpha: Matrix, beta_inv: Matrix, c: Cochain) -> Cochain:
    """alpha . c(beta^{-1} ., ..., beta^{-1} .) over the same algebra."""
    return pullback_cochain(c, beta_inv, c.algebra).map_values(alpha)


def pair_act_cochain(alpha: Matrix, beta: Matrix, c: Cochain) -> Cochain:
    """alpha . c - sum over slots s of c with beta in slot s and the identity elsewhere."""
    n, m = c.algebra.dim, c.value_dim
    if alpha.rows != m or alpha.cols != m or beta.rows != n or beta.cols != n:
        raise DimensionMismatchError("pair action maps have the wrong shape")
    table = {}
    identity, rows = Matrix.identity(n).sparse_rows(), beta.sparse_rows()
    for s in range(c.degree):
        _scatter(c, [identity] * s + [rows] + [identity] * (c.degree - s - 1), table, -1)
    return c.map_values(alpha) + Cochain.from_columns(c.algebra, c.degree, m, table)


def _end_cochain(algebra: LieAlgebra, degree: int, size: int, matrices: dict) -> Cochain:
    """The End-valued cochain with value matrices[key], flattened row-major, at each key."""
    return Cochain.from_columns(algebra, degree, size * size,
                                {key: dict(mat.flat_pairs()) for key, mat in matrices.items()})


class OuterActionMap:
    """A linear map from the algebra into endomorphisms of a value space.

    ``target``, when set, is the algebra the value space carries; only its
    dimension is checked here.  Whether each matrix is a derivation of it is a
    condition of a kernel, checked by ``extensions.GKernel`` and its factor
    systems.  ``_operators`` (degree -> covariant differential matrix) and
    ``_curvature`` are filled on first use by ``differential_operator`` and
    ``curvature``.
    """

    __slots__ = ("algebra", "matrices", "space_dim", "target", "_operators", "_curvature")

    def __init__(self, algebra: LieAlgebra, matrices: Sequence[Matrix],
                 target: Optional[LieAlgebra] = None, space_dim: Optional[int] = None):
        matrices = tuple(matrices)
        if len(matrices) != algebra.dim:
            raise DimensionMismatchError("one matrix per basis element is required")
        if matrices:
            space_dim = matrices[0].rows
        elif target is not None:
            space_dim = target.dim
        elif space_dim is None:
            raise DimensionMismatchError("cannot infer the value dimension")
        for m in matrices:
            if m.rows != space_dim or m.cols != space_dim:
                raise DimensionMismatchError("endomorphism matrices must be square and equal-sized")
        if target is not None and target.dim != space_dim:
            raise DimensionMismatchError("target dimension disagrees with the matrices")
        self.algebra = algebra
        self.matrices = matrices
        self.space_dim = space_dim
        self.target = target
        self._operators = {}
        self._curvature = None

    @classmethod
    def zero(cls, algebra: LieAlgebra, target: LieAlgebra) -> "OuterActionMap":
        z = Matrix.zero(target.dim, target.dim)
        return cls(algebra, [z] * algebra.dim, target=target)

    def as_end_cochain(self) -> Cochain:
        return _end_cochain(self.algebra, 1, self.space_dim,
                            {(i,): mat for i, mat in enumerate(self.matrices)})

    def add_inner(self, gamma: Cochain) -> "OuterActionMap":
        """S + ad(gamma(.)) for an n-valued 1-cochain gamma."""
        if self.target is None:
            raise DimensionMismatchError("adding an inner part needs a target algebra")
        if gamma.degree != 1 or gamma.value_dim != self.target.dim:
            raise DimensionMismatchError("gamma must be a 1-cochain valued in the target")
        inner = pullback_family(self.target.ad_matrices(), gamma.as_matrix(), self.target.dim)
        mats = [m + ad for m, ad in zip(self.matrices, inner)]
        return OuterActionMap(self.algebra, mats, target=self.target)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OuterActionMap) and self.algebra == other.algebra
                and self.matrices == other.matrices)

    def __hash__(self):
        return hash((self.algebra, self.matrices))

    def __repr__(self):
        return f"OuterActionMap(dim g={self.algebra.dim}, space={self.space_dim})"


def covariant_differential(S: OuterActionMap, c: Cochain) -> Cochain:
    """S wedge c plus the trivial-coefficient differential."""
    if S.algebra != c.algebra:
        raise DimensionMismatchError("map and cochain algebras differ")
    if S.space_dim != c.value_dim:
        raise DimensionMismatchError("endomorphism size disagrees with cochain values")
    return _apply_operator(S, c)


def curvature(S: OuterActionMap) -> Cochain:
    """[S(x), S(y)] - S([x, y]) on basis pairs, as an End-valued 2-cochain.

    The bracket formula and the calculus are cross-checked on the first
    call for a map; the result is kept on S for the later ones.
    """
    if S._curvature is not None:
        return S._curvature
    result = _end_cochain(S.algebra, 2, S.space_dim, law_defect(S.algebra, S.matrices))
    s_coch = S.as_end_cochain()
    comm = EquivariantPairing.commutator(S.space_dim)
    calculus = trivial_differential(s_coch) + wedge(comm, s_coch, s_coch).scale(HALF)
    if calculus != result:
        raise InvariantViolation("curvature formulas disagree")
    S._curvature = result
    return result


def gauge_action(gamma: Cochain, S: OuterActionMap, omega: Cochain):
    """(S + ad gamma, omega + d_S gamma + [gamma,gamma]/2)."""
    if S.target is None:
        raise DimensionMismatchError("the gauge action needs derivations of a target algebra")
    n_alg = S.target
    if gamma.degree != 1 or gamma.value_dim != n_alg.dim:
        raise DimensionMismatchError("gamma must be a 1-cochain valued in the kernel algebra")
    if omega.degree != 2 or omega.value_dim != n_alg.dim:
        raise DimensionMismatchError("omega must be a 2-cochain valued in the kernel algebra")
    new_S = S.add_inner(gamma)
    correction = covariant_differential(S, gamma) + superbracket(n_alg, gamma, gamma).scale(HALF)
    return new_S, omega + correction
