"""Shared generators for the randomized suites, small readings of package
objects that only the tests need, and the dense vector helpers the package
no longer has: its core keeps only sparse rows and pairs, and the tests use
these to build and compare dense coefficient vectors.  The dense views
that left the package (``Matrix.flatten``, ``Subspace.basis``, ``reduce``,
``contains``, ``embed``, ``split_coordinates``, the dense ``coordinates_of``,
``ExtensionPresentation.ideal_coordinates`` and
``Cochain.coordinates``/``from_coordinates``) are kept here with their
former bodies, read through the pairs the package now exposes.  So are
the dense forms of a bracket and a pairing (``LieAlgebra.ad``, the dense
``bracket`` and ``bracket_basis``, ``Representation.act``,
``Cochain.coeffs``, the dense-closure pairings and ``wedge``), which the
package replaced by nonzero (k, c) pairs and dicts {index: value}, and the
dense constructions of the exact core (the list accumulator of ``_scatter``, the
``Counter`` rows of ``_pair_system_rows``, the all-keys
``characteristic_cocycle`` and the tuple ``coordinates_of``), which the
package replaced by dict columns and nonzero entries.  The per-element
paths that batched solves replaced (``inner_cochain``, ``pairwise_equivalent``
with ``consistent_columns``) and ``EquivariantPairing.composition``, which
nothing in the package called, stay here as oracles and test helpers.

All randomness is drawn from explicitly seeded random.Random instances
so every run is reproducible; identities are asserted exactly, never up
to tolerance.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import prod

import pytest

from liecoh.catalog import abelian, filiform4, heisenberg3, nonabelian2, sl2
from liecoh.cochains import (Cochain, EquivariantPairing, check_degree, cochain_space_dim,
                             differential_operator, key_rank, key_unrank, sort_with_sign)
from liecoh.cohomology import differential_matrix
from liecoh.errors import DimensionMismatchError, InvariantViolation
from liecoh.extensions import restrict_cochain_to_subspace
from liecoh.liealg import LieAlgebra, ad_stack, change_of_basis, leibniz_rows, solve_inner
from liecoh.linalg import (ONE, ZERO, InconsistencyCertificate, Matrix, _augmented_rref,
                           _null_space, _particulars, to_fractions)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def vec_is_zero(v):
    return not any(v)


def zero_vec(n):
    return (ZERO,) * n


def unit_vec(n, i):
    return tuple(ONE if j == i else ZERO for j in range(n))


def dense(entries, n):
    """The length-n vector with the given (index, value) pairs or dict entries."""
    v = [ZERO] * n
    for j, x in (entries.items() if isinstance(entries, dict) else entries):
        v[j] = x
    return tuple(v)


def nonzero_pairs(v):
    """The nonzero (index, Fraction) pairs of a dense vector."""
    return [(j, x) for j, x in enumerate(to_fractions(v)) if x]


def as_column(v):
    """A dense vector as the dict {row: value} a solve takes."""
    return dict(nonzero_pairs(v))


def flat(m):
    """The former Matrix.flatten: the row-major entries as a dense tuple."""
    return tuple(x for row in m.row_list() for x in row)


def basis_of(sub):
    """The former Subspace.basis: the basis vectors as dense tuples."""
    return tuple(dense(p, sub.ambient_dim) for p in sub.pairs)


def reduce_vec(sub, v):
    """The former Subspace.reduce: the canonical representative of v modulo sub."""
    v = to_fractions(v)
    if len(v) != sub.ambient_dim:
        raise DimensionMismatchError("vector length disagrees with ambient dimension")
    return dense(sub.reduce_entries(nonzero_pairs(v)).items(), sub.ambient_dim)


def contains_vec(sub, v):
    """The former Subspace.contains."""
    return not any(reduce_vec(sub, v))


def coordinates_of_vec(sub, v):
    """The former dense Subspace.coordinates_of: the entries at the pivots, or None."""
    v = to_fractions(v)
    if not contains_vec(sub, v):
        return None
    return tuple(v[p] for p in sub.pivots)


def split_coordinates(sub, v):
    """The former Subspace.split_coordinates: the entries of v at the pivots, the
    coordinates of its component along sub."""
    if len(v) != sub.ambient_dim:
        raise DimensionMismatchError("vector length disagrees with ambient dimension")
    return to_fractions(v[p] for p in sub.pivots)


def ideal_coordinates(ext, v):
    """The former ExtensionPresentation.ideal_coordinates: n-coordinates of a
    total vector lying in the ideal."""
    coords = ext._left_inv.matvec(v)
    if ext.inclusion.matvec(coords) != to_fractions(v):
        raise InvariantViolation("vector does not lie in the ideal")
    return coords


def embed(sub, coords):
    """The former Subspace.embed: the ambient vector with the given basis coefficients."""
    if len(coords) != sub.dim:
        raise DimensionMismatchError("coordinate length disagrees with dimension")
    out = [ZERO] * sub.ambient_dim
    for c, pairs in zip(to_fractions(coords), sub.pairs):
        for j, x in pairs:
            out[j] += c * x
    return tuple(out)


def coordinates(c):
    """The former Cochain.coordinates: the flat coordinates as a dense tuple."""
    return dense(c.pairs, cochain_space_dim(c.algebra.dim, c.degree, c.value_dim))


def from_coordinates(algebra, degree, value_dim, coords):
    """The former Cochain.from_coordinates: the cochain with dense flat coordinates."""
    if len(coords) != cochain_space_dim(algebra.dim, degree, value_dim):
        raise DimensionMismatchError("coordinate vector has the wrong length")
    return Cochain.from_pairs(algebra, degree, value_dim, nonzero_pairs(coords))


# the former dense solves, kept as oracles for the dict-column ones: dense
# right-hand sides go in and dense solutions come out

def dense_columns(m, columns):
    """The former linalg._dense_columns: dense right-hand sides as dict columns."""
    columns = [to_fractions(b) for b in columns]
    if any(len(b) != m.rows for b in columns):
        raise DimensionMismatchError("right-hand side length disagrees with row count")
    return [{i: x for i, x in enumerate(b) if x} for b in columns]


def dense_solve_columns(m, columns):
    """The former solve_columns: (dense solutions, first_inconsistent, rank)."""
    reduced, pivots, first_inconsistent = _augmented_rref(m, dense_columns(m, columns))
    if first_inconsistent is not None:
        return None, first_inconsistent, len(pivots)
    return (tuple(dense(x, m.cols) for x in _particulars(reduced, pivots, m.cols, len(columns))),
            None, len(pivots))


def dense_solution_or_certificate(m, b):
    """The former _solution_or_certificate: (reduced, pivots, dense particular, certificate)."""
    reduced, pivots, first_inconsistent = _augmented_rref(m, dense_columns(m, [b]))
    if first_inconsistent is None:
        particular = _particulars(reduced, pivots, m.cols, 1)[0]
        return reduced, pivots, dense(particular, m.cols), None
    return reduced, pivots, None, InconsistencyCertificate(len(pivots))


def dense_solve_certified(m, b):
    """The former solve_certified: (dense particular, None) or (None, certificate)."""
    _, _, particular, certificate = dense_solution_or_certificate(m, b)
    return particular, certificate


def dense_solve_affine(m, b):
    """The former solve_affine: (dense particular, homogeneous space, certificate)."""
    reduced, pivots, particular, certificate = dense_solution_or_certificate(m, b)
    return particular, _null_space(reduced, pivots, m.cols), certificate


def dense_solve_inner(L, targets):
    """The former solve_inner: row-major flattened dense targets in, the slots'
    solutions joined into one dense tuple out, or the certificate of row s * rank."""
    s = len(targets)
    solutions, first_inconsistent, rank = dense_solve_columns(ad_stack(L), targets)
    if first_inconsistent is not None:
        return None, InconsistencyCertificate(s * rank)
    return tuple(x for solution in solutions for x in solution), None


# the former per-element paths, kept as oracles for the batched ones

def consistent_columns(m, columns):
    """The former linalg.consistent_columns: for each column b, a dict {row: value},
    whether m x = b is solvable, read from one elimination of [m | b_1 ... b_k].

    Its rows below rank(m) are zero on the left block, so b_k lies in the
    column space of m exactly when all of them are zero in column k.
    """
    reduced, pivots, _ = _augmented_rref(m, columns)
    touched = {j for row in reduced.sparse_rows()[len(pivots):] for j in row}
    return tuple(m.cols + k not in touched for k in range(len(columns)))


def inner_cochain(n_alg, g_alg, degree, targets):
    """The former extensions.inner_cochain: one solve_inner call for one cochain,
    (cochain, None) or (None, certificate)."""
    particular, certificate = solve_inner(n_alg, targets)
    if particular is None:
        return None, certificate
    return Cochain.from_pairs(g_alg, degree, n_alg.dim, particular), None


def pairwise_equivalent(systems, module):
    """The former extensions.pairwise_equivalent: whether each pair of factor
    systems sharing one S is equivalent, pairs in the order of combinations.

    ``module`` is center_module(S).  With S shared, (i, j) is equivalent
    exactly when omega_i - omega_j, in center coordinates, is d_1 of a
    center-valued 1-cochain: one elimination of d_1 with every pair's
    difference as a column decides them all.
    """
    z, z_rep = module
    first = systems[0]
    if any(fs.n != first.n or fs.g != first.g or fs.S.matrices != first.S.matrices
           for fs in systems):
        raise DimensionMismatchError("the factor systems must share n, g and S")
    offsets = [restrict_cochain_to_subspace(fs.omega - first.omega, z) for fs in systems]
    differences = [(a - b).sparse_coordinates() for a, b in combinations(offsets, 2)]
    return consistent_columns(differential_matrix(z_rep, 1), differences)


def composition(m):
    """The former EquivariantPairing.composition: End(V) x End(V) -> End(V) on
    row-major flattened endomorphisms."""

    def fn(u, v):
        return dict((Matrix.from_flat(u.items(), m, m)
                     @ Matrix.from_flat(v.items(), m, m)).flat_pairs())

    return EquivariantPairing(m * m, m * m, m * m, fn)


def value_at_indices(c, idx):
    """The value of the cochain c at a tuple of basis indices, alternation sign included."""
    assert len(idx) == c.degree
    key, sign = sort_with_sign(idx)
    if key is None:
        return zero_vec(c.value_dim)
    vec = c.component(key)
    return vec if sign == 1 else vec_scale(Fraction(-1), vec)


# the former dense bracket, adjoint, action and cochain table: the package
# hands brackets over as nonzero (k, c) pairs and vectors as dicts

def dense_bracket_basis(L, i, j):
    """The former LieAlgebra.bracket_basis: [e_i, e_j] as a dense tuple."""
    return dense(L.bracket_basis(i, j), L.dim)


def dense_bracket(L, u, v):
    """The former LieAlgebra.bracket: dense coefficient vectors in and out."""
    out = [ZERO] * L.dim
    for i, a in enumerate(u):
        if a:
            for j, pairs in L._involving[i]:
                b = v[j]
                if b:
                    c = a * b
                    for k, w in pairs:
                        out[k] += c * w
    return tuple(out)


def dense_ad(L, u):
    """The former LieAlgebra.ad: the matrix of ad u, column j being [u, e_j]."""
    rows = [{} for _ in range(L.dim)]
    for i, a in enumerate(to_fractions(u)):
        if a:
            for j, pairs in L._involving[i]:
                for k, w in pairs:
                    rows[k][j] = rows[k].get(j, ZERO) + a * w
    return Matrix.from_sparse_rows(rows, L.dim)


def dense_act(rep, i, v):
    """The former Representation.act: e_i acting on a dense vector."""
    return rep.matrices[i].matvec(v)


def dense_coeffs(c):
    """The former Cochain.coeffs: {key: dense value tuple} on the nonzero keys."""
    return {key_unrank(r, c.algebra.dim, c.degree): dense(value, c.value_dim)
            for r, value in c.nonzero_values()}


class DensePairing:
    """The former EquivariantPairing: its function takes and returns dense tuples."""

    def __init__(self, left_dim, right_dim, out_dim, fn):
        self.left_dim, self.right_dim, self.out_dim, self._fn = left_dim, right_dim, out_dim, fn

    def apply(self, u, v):
        if len(u) != self.left_dim or len(v) != self.right_dim:
            raise DimensionMismatchError("pairing arguments have the wrong lengths")
        return tuple(self._fn(tuple(u), tuple(v)))

    @classmethod
    def lie_bracket(cls, V):
        return cls(V.dim, V.dim, V.dim, lambda u, v: dense_bracket(V, u, v))

    @classmethod
    def evaluation(cls, m):
        def fn(u, v):
            return tuple(sum((u[k * m + l] * v[l] for l in range(m)), ZERO)
                         for k in range(m))

        return cls(m * m, m, m, fn)

    @classmethod
    def composition(cls, m):
        def fn(u, v):
            return tuple(sum((u[i * m + l] * v[l * m + j] for l in range(m)), ZERO)
                         for i in range(m) for j in range(m))

        return cls(m * m, m * m, m * m, fn)

    @classmethod
    def commutator(cls, m):
        comp = cls.composition(m)
        return cls(m * m, m * m, m * m,
                   lambda u, v: tuple(a - b for a, b in zip(comp.apply(u, v), comp.apply(v, u))))


def dense_wedge(m, a, b):
    """The former wedge: each nonzero value of a and b made dense for a DensePairing."""
    if a.algebra != b.algebra:
        raise DimensionMismatchError("cochains live over different algebras")
    if a.value_dim != m.left_dim or b.value_dim != m.right_dim:
        raise DimensionMismatchError("cochain values do not match the pairing")
    p, q = a.degree, b.degree
    check_degree(p + q)
    n = a.algebra.dim
    right = [(key_unrank(r, n, q), dense(value, b.value_dim))
             for r, value in b.nonzero_values()]
    table = {}
    for r, value in a.nonzero_values():
        left_key, va = key_unrank(r, n, p), dense(value, a.value_dim)
        for right_key, vb in right:
            key, sign = sort_with_sign(left_key + right_key)
            if key is None:
                continue
            acc = table.setdefault(key, [ZERO] * m.out_dim)
            for slot, x in enumerate(m.apply(va, vb)):
                if x:
                    acc[slot] += x if sign == 1 else -x
    return Cochain(a.algebra, p + q, m.out_dim, table)


# the former dense constructions of the exact core, kept as oracles for the ones
# that scatter dict columns into Cochain.from_columns and read only nonzero
# entries: the list accumulator of _scatter under pullback_cochain and
# pair_act_cochain, the Counter rows of _pair_system_rows, the all-keys
# characteristic_cocycle and the dense Subspace.coordinates_of

def dense_scatter(c, slots, table, sign=1):
    """The former cochains._scatter: table maps keys to lists of c.value_dim values."""
    n, p = c.algebra.dim, c.degree
    for r, value in c.nonzero_values():
        support = list(value.items())
        for pick in product(*(slot[k].items() for slot, k in zip(slots, key_unrank(r, n, p)))):
            target, s = sort_with_sign([i for i, _ in pick])
            if target is None:
                continue
            coeff = sign * s * prod(x for _, x in pick)
            acc = table.setdefault(target, [ZERO] * c.value_dim)
            for a, v in support:
                acc[a] += coeff * v


def dense_pullback_cochain(c, phi, domain):
    """The former pullback_cochain, through the dense Cochain constructor."""
    table = {}
    dense_scatter(c, [phi.sparse_rows()] * c.degree, table)
    return Cochain(domain, c.degree, c.value_dim, table)


def dense_pair_act_cochain(alpha, beta, c):
    """The former pair_act_cochain, through the dense Cochain constructor."""
    n, m = c.algebra.dim, c.value_dim
    table = {}
    identity, rows = Matrix.identity(n).sparse_rows(), beta.sparse_rows()
    for s in range(c.degree):
        dense_scatter(c, [identity] * s + [rows] + [identity] * (c.degree - s - 1), table, -1)
    return c.map_values(alpha) + Cochain(c.algebra, c.degree, m, table)


def dense_pair_system_rows(fs):
    """The former symmetry._pair_system_rows: Counter rows, the [alpha, S_a] block
    read entry by entry through Matrix.entry, zeros included."""
    n_alg, g_alg, S, omega = fs.n, fs.g, fs.S, fs.omega
    nd, gd = n_alg.dim, g_alg.dim
    va, vb = nd * nd, gd * gd
    nvars = va + vb + gd * nd
    rows = leibniz_rows(n_alg, 0) + leibniz_rows(g_alg, va)
    stack = ad_stack(n_alg)
    for a in range(gd):
        Sa = S.matrices[a]
        for r in range(nd):
            for c in range(nd):
                row = Counter()
                for k in range(nd):
                    row[r * nd + k] += Sa.entry(k, c)
                    row[k * nd + c] -= Sa.entry(r, k)
                for b in range(gd):
                    row[va + b * gd + a] -= S.matrices[b].entry(r, c)
                for k, x in stack.sparse_rows()[r * nd + c].items():
                    row[va + vb + a * nd + k] -= x
                rows.append(row)
    omega_rows = [Counter({va + vb + col: -x for col, x in d_row.items()})
                  for d_row in differential_operator(S, 1).sparse_rows()]
    for q, value in omega.nonzero_values():
        s, t = key_unrank(q, gd, 2)
        for r, x in value.items():
            for k in range(nd):
                omega_rows[q * nd + k][k * nd + r] += x
            for u, w, y in ((s, t, x), (t, s, -x)):
                for i in range(w):
                    omega_rows[key_rank((i, w), gd) * nd + r][va + u * gd + i] -= y
                for j in range(u + 1, gd):
                    omega_rows[key_rank((u, j), gd) * nd + r][va + w * gd + j] -= y
    return rows, omega_rows, nvars, va, vb


def all_keys_characteristic_cocycle(kappa):
    """The former currents.characteristic_cocycle: every increasing triple read."""
    L = kappa.algebra
    gram = kappa.gram.sparse_rows()
    table = {}
    for key in combinations(range(L.dim), 3):
        i, j, k = key
        val = sum((x * gram[k].get(a, ZERO) for a, x in L.bracket_basis(i, j)), ZERO) / 2
        if val != 0:
            table[key] = (val,)
    return Cochain(L, 3, 1, table)


def tuple_coordinates_of(sub, entries):
    """The former Subspace.coordinates_of: nonzero (index, value) pairs in, the
    coefficients as a dense tuple out, or None."""
    entries = dict(entries)
    if sub.reduce_entries(entries.items()):
        return None
    return tuple(entries.get(p, ZERO) for p in sub.pivots)


def rand_fraction(rng, num=4, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_vector(rng, n):
    return tuple(rand_fraction(rng) for _ in range(n))


def rand_matrix(rng, rows, cols):
    return Matrix([[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)],
                  cols=cols)


def rand_invertible(rng, n):
    """Product of random elementary matrices: always unimodular-ish."""
    m = Matrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        e = [[Fraction(1) if r == c else Fraction(0) for c in range(n)]
             for r in range(n)]
        e[i][j] = rand_fraction(rng, num=2, den=2)
        m = m @ Matrix(e, cols=n)
    return m


def rand_cochain(rng, L, degree, value_dim, sparsity=0.0):
    table = {}
    for key in combinations(range(L.dim), degree):
        if sparsity and rng.random() < sparsity:
            continue
        table[key] = rand_vector(rng, value_dim)
    return Cochain(L, degree, value_dim, table)


BASE_ALGEBRAS = (
    ("abelian2", lambda: abelian(2)),
    ("abelian3", lambda: abelian(3)),
    ("nonabelian2", nonabelian2),
    ("heisenberg3", heisenberg3),
    ("sl2", sl2),
    ("filiform4", filiform4),
)


def rand_algebra(rng, max_dim=4):
    """A catalog algebra in a random basis: Jacobi holds exactly."""
    choices = [f for _, f in BASE_ALGEBRAS if f().dim <= max_dim]
    L = rng.choice(choices)()
    return change_of_basis(L, rand_invertible(rng, L.dim))


def vector_cochain(L, vec):
    """The degree-0 cochain on L whose value is vec."""
    return Cochain(L, 0, len(vec), {(): vec})


def scalar_multiplication():
    """The pairing Q x Q -> Q, (u, v) -> uv."""
    return EquivariantPairing(1, 1, 1, lambda u, v: {0: u.get(0, ZERO) * v.get(0, ZERO)})


def is_full(sub):
    """The subspace is its whole ambient space."""
    return sub.dim == sub.ambient_dim


def is_trivial(rep):
    """Every basis element acts by zero."""
    return all(m.is_zero() for m in rep.matrices)


def zero_class(space):
    """The zero class of a cohomology space."""
    return space.class_of(Cochain.zero(space.rep.algebra, space.degree, space.rep.space_dim))


@pytest.fixture
def liecoh_calls(monkeypatch):
    """Count calls of the named liecoh functions through every module that imported them."""

    def install(*names):
        calls = {name: 0 for name in names}
        for name in names:
            module_name, _, attr = name.rpartition(".")
            real = getattr(sys.modules[f"liecoh.{module_name}"], attr)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").partition(".")[0] == "liecoh":
                    for key, value in list(vars(module).items()):
                        if value is real:
                            monkeypatch.setattr(module, key, counted)
        return calls

    return install


@pytest.fixture
def rng():
    return random.Random(0)
