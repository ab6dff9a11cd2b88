import random
import tracemalloc
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from liecoh.catalog import abelian, heisenberg3, sl2
from liecoh.cochains import Cochain
from liecoh.cohomology import CohomologySpace, differential_matrix
from liecoh.errors import DimensionMismatchError
from liecoh.liealg import Representation, adjoint_rep
from liecoh.linalg import (InconsistencyCertificate, Matrix, Subspace, _null_space, block_matrix,
                           image, invert, kernel, left_inverse,
                           quotient_coordinates, solve, solve_affine, solve_certified,
                           solve_columns, to_fractions)

from conftest import (as_column, basis_of, consistent_columns, contains_vec, coordinates_of_vec,
                      dense, dense_coeffs, dense_solve_affine, dense_solve_certified,
                      dense_solve_columns, embed, flat,
                      is_full, nonzero_pairs, rand_algebra, rand_fraction, rand_invertible,
                      rand_matrix, reduce_vec, unit_vec, vec_add, vec_scale, vec_sub, zero_vec)


def test_rref_identity():
    m = Matrix.identity(3)
    r, pivots = m.rref()
    assert r == m
    assert pivots == (0, 1, 2)


def test_rref_zero():
    m = Matrix.zero(2, 3)
    r, pivots = m.rref()
    assert r == m
    assert pivots == ()


def test_rref_hand_example():
    r, pivots = Matrix([[2, 4], [1, 2]]).rref()
    assert r == Matrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_idempotent_and_canonical(rng):
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r, _ = m.rref()
        r2, _ = r.rref()
        assert r == r2
        # a row-scrambled matrix with the same row space reduces identically
        perm = list(range(m.rows))
        rng.shuffle(perm)
        scale = [Fraction(rng.randint(1, 3)) for _ in range(m.rows)]
        scrambled = Matrix([[scale[i] * x for x in m.row(perm[i])]
                            for i in range(m.rows)], cols=m.cols)
        assert scrambled.rref()[0] == r


def test_rank_nullity(rng):
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert m.rank() + kernel(m).dim == m.cols


def test_kernel_examples():
    assert kernel(Matrix.identity(3)).is_zero()
    assert is_full(kernel(Matrix.zero(4, 4)))
    k = kernel(Matrix([[1, 1]]))
    assert basis_of(k) == ((Fraction(1), Fraction(-1)),)


def test_image_examples():
    assert is_full(image(Matrix.identity(2)))
    assert image(Matrix.zero(3, 2)).is_zero()
    assert basis_of(image(Matrix([[1], [2]]))) == ((Fraction(1), Fraction(2)),)


def test_solve_examples():
    assert solve(Matrix.identity(2), {0: 5, 1: -7}) == {0: Fraction(5), 1: Fraction(-7)}
    assert solve(Matrix.zero(2, 2), {0: 1}) is None
    assert solve(Matrix([[1, 1]]), {0: 2, 1: 0}) == {0: Fraction(2)}
    assert all(type(x) is Fraction for x in solve(Matrix([[2]]), {0: "1/2"}).values())


def test_solve_is_exact(rng):
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x0 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.cols))
        b = m.matvec(x0)
        x = solve(m, as_column(b))
        assert x is not None and all(x.values())
        assert m.matvec(dense(x, m.cols)) == b


def test_solve_affine_certificate():
    particular, hom, cert = solve_affine(Matrix.zero(1, 1), {0: 1})
    assert particular is None
    assert isinstance(cert, InconsistencyCertificate)
    assert is_full(hom)


def test_quotient_trivial_cases():
    proj, sect = quotient_coordinates(3, Subspace.zero(3))
    assert proj == Matrix.identity(3)
    assert sect == Matrix.identity(3)
    proj, sect = quotient_coordinates(2, Subspace.full(2))
    assert proj.rows == 0 and sect.cols == 0


def test_quotient_line_in_plane():
    sub = Subspace.from_vectors(2, [(1, 1)])
    proj, sect = quotient_coordinates(2, sub)
    assert proj.rows == 1
    # the section lands on the second coordinate axis
    assert sect.column(0) == (Fraction(0), Fraction(1))
    assert (proj @ sect) == Matrix.identity(1)


def test_quotient_projection_section_identity(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        sub = Subspace.from_vectors(
            n, [tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                for _ in range(rng.randint(0, n))])
        proj, sect = quotient_coordinates(n, sub)
        q = n - sub.dim
        assert (proj @ sect) == Matrix.identity(q)
        assert kernel(proj) == sub


def test_subspace_membership_and_coordinates(rng):
    for _ in range(30):
        n = rng.randint(1, 5)
        vecs = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                for _ in range(rng.randint(1, n))]
        sub = Subspace.from_vectors(n, vecs)
        for v in vecs:
            assert not sub.reduce_entries(nonzero_pairs(v))
            coords = sub.coordinates_of(nonzero_pairs(v))
            assert coords is not None
            assert embed(sub, dense(coords, sub.dim)) == v


def test_left_inverse(rng):
    m = Matrix([[1, 0], [2, 1], [0, 3]])
    li = left_inverse(m)
    assert li is not None
    assert (li @ m) == Matrix.identity(2)
    assert left_inverse(Matrix([[1, 2], [2, 4]])) is None


def test_invert():
    m = Matrix([[1, 2], [3, 4]])
    mi = invert(m)
    assert (m @ mi) == Matrix.identity(2)
    assert invert(Matrix([[1, 2], [2, 4]])) is None


def dense_rref(m):
    """Reduced row echelon form by dense list-of-rows elimination.

    The package's former small-matrix path; ``Matrix.rref`` eliminates on
    dict rows.  The reduced form is unique, so both must agree exactly.
    """
    rows = [list(row) for row in m.row_list()]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(rows, cols=m.cols), tuple(pivots)


def rand_sparse_matrix(rng, rows, cols, density):
    return Matrix([[rand_fraction(rng) if rng.random() < density else 0
                    for _ in range(cols)] for _ in range(rows)], cols=cols)


def sympy_rank(m):
    QQ = sympy.QQ
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in row]
                         for row in m.row_list()], (m.rows, m.cols), QQ).rank()


def rand_row_sparse_matrix(rng, rows, cols):
    """Each row holds one or two nonzero entries at random columns."""
    data = []
    for _ in range(rows):
        row = [0] * cols
        for j in rng.sample(range(cols), rng.randint(1, 2)):
            row[j] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        data.append(row)
    return Matrix(data, cols=cols)


def test_rref_matches_dense_oracle(rng):
    shapes = [(rng.randint(1, 8), rng.randint(1, 8), rng.choice((0.2, 0.5, 1.0)))
              for _ in range(40)]
    # rank-deficient stacks, and shapes past the former 10 000-entry switch
    shapes += [(30, 30, 1.0), (120, 100, 0.03), (90, 120, 0.02)]
    matrices = []
    for rows, cols, density in shapes:
        m = rand_sparse_matrix(rng, rows, cols, density)
        if rows <= 8 and rng.random() < 0.3:
            m = m.vstack(m.scale(3))
        matrices.append(m)
    # very sparse tall and wide shapes, where the column index finds the pivots
    matrices += [rand_row_sparse_matrix(rng, 400, 60), rand_row_sparse_matrix(rng, 60, 400)]
    for m in matrices:
        got = m.rref()
        assert got == dense_rref(m)
        assert len(got[1]) == sympy_rank(m)
        assert all(all_fractions(row) for row in got[0].row_list())
        assert all(all_fractions(row.values()) and all(row.values())
                   for row in got[0].sparse_rows())


def hstack(a, b):
    """The former Matrix.hstack: [a | b]."""
    return Matrix([x + y for x, y in zip(a.row_list(), b.row_list())], cols=a.cols + b.cols)


def one_column_solve(m, b):
    """The former solve: its own elimination of [m | b]."""
    augmented = hstack(m, Matrix.from_columns([b], rows=m.rows))
    reduced, pivots = augmented.rref()
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced.entry(r, m.cols)
    return tuple(x)


def per_column_left_inverse(m):
    """The former left_inverse: a rank check, then one solve per column."""
    if m.rank() != m.cols:
        return None
    mt = m.transpose()
    return Matrix([one_column_solve(mt, unit_vec(m.cols, i)) for i in range(m.cols)],
                  cols=m.rows)


def augmented_invert(m):
    """The former invert: read the right block of RREF([m | I])."""
    n = m.rows
    reduced, pivots = hstack(m, Matrix.identity(n)).rref()
    if tuple(pivots) != tuple(range(n)):
        return None
    return Matrix([reduced.row(i)[n:] for i in range(n)], cols=n)


def test_solve_columns_matches_one_column_solves(rng):
    outcomes = {"consistent": 0, "inconsistent": 0}
    for _ in range(60):
        m = rand_sparse_matrix(rng, rng.randint(0, 5), rng.randint(0, 5),
                               rng.choice((0.4, 1.0)))
        if m.rows and rng.random() < 0.5:
            m = m.vstack(m.scale(2))
        columns = []
        for _ in range(rng.randint(0, 4)):
            x = tuple(rand_fraction(rng) for _ in range(m.cols))
            columns.append(m.matvec(x) if rng.random() < 0.7
                           else tuple(rand_fraction(rng) for _ in range(m.rows)))
        oracle = [one_column_solve(m, b) for b in columns]
        solutions, first_inconsistent, rank = solve_columns(m, [as_column(b) for b in columns])
        assert rank == m.rank() == sympy_rank(m)
        singles = [solve(m, as_column(b)) for b in columns]
        assert [x if x is None else dense(x, m.cols) for x in singles] == oracle
        if None in oracle:
            assert solutions is None
            assert first_inconsistent == oracle.index(None)
        else:
            assert tuple(dense(x, m.cols) for x in solutions) == tuple(oracle)
            assert first_inconsistent is None and all(all(x.values()) for x in solutions)
        # the former dense solve_columns: the same solutions, column and rank
        dense_solutions = solutions and tuple(dense(x, m.cols) for x in solutions)
        assert (dense_solutions, first_inconsistent, rank) == dense_solve_columns(m, columns)
        outcomes["consistent" if first_inconsistent is None else "inconsistent"] += 1
    assert min(outcomes.values()) >= 10


def test_solve_columns_empty_shapes():
    assert solve_columns(Matrix.zero(2, 3), []) == ((), None, 0)
    assert solve_columns(Matrix.zero(0, 2), [{}, {}]) == (({}, {}), None, 0)
    assert solve_columns(Matrix.zero(2, 0), [{0: 0}, {1: 1}, {0: 1}]) == (None, 1, 0)
    with pytest.raises(DimensionMismatchError):
        solve_columns(Matrix.identity(2), [{0: 1}, {2: 1}])


def test_consistent_columns_match_per_column_solves(rng):
    # rank-0 matrices and zero columns included; columns go in as dicts
    outcomes = {"consistent": 0, "inconsistent": 0}
    for trial in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(0, 5)
        m = (Matrix.zero(rows, cols) if trial % 6 == 0
             else rand_sparse_matrix(rng, rows, cols, rng.choice((0.3, 1.0))))
        if m.rows and rng.random() < 0.5:
            m = m.vstack(m.scale(-2))
        columns = [zero_vec(m.rows)]
        for _ in range(rng.randint(0, 5)):
            x = tuple(rand_fraction(rng) for _ in range(m.cols))
            columns.append(m.matvec(x) if rng.random() < 0.5
                           else tuple(rand_fraction(rng) for _ in range(m.rows)))
        rng.shuffle(columns)
        sparse = [{i: x for i, x in enumerate(b) if x} for b in columns]
        got = consistent_columns(m, sparse)
        assert got == tuple(solve(m, column) is not None for column in sparse)
        for flag in got:
            outcomes["consistent" if flag else "inconsistent"] += 1
    assert min(outcomes.values()) >= 20


def test_consistent_columns_shapes():
    assert consistent_columns(Matrix.zero(2, 3), []) == ()
    assert consistent_columns(Matrix.zero(2, 0), [{}, {1: 1}, {0: 0}]) == (True, False, True)
    assert consistent_columns(Matrix.zero(0, 2), [{}]) == (True,)
    with pytest.raises(DimensionMismatchError):
        consistent_columns(Matrix.identity(2), [{2: 1}])


def test_solve_certified_matches_solve_affine(rng):
    outcomes = {"consistent": 0, "inconsistent": 0}
    for _ in range(60):
        m = rand_sparse_matrix(rng, rng.randint(0, 5), rng.randint(0, 5),
                               rng.choice((0.4, 1.0)))
        if m.rows and rng.random() < 0.5:
            m = m.vstack(m.scale(3))
        b = tuple(rand_fraction(rng) for _ in range(m.rows))
        particular, hom, certificate = solve_affine(m, as_column(b))
        assert solve_certified(m, as_column(b)) == (particular, certificate)
        # the former dense solves: the same particular solution, null space
        # and certificate, the 0 = 1 row of the augmented system included
        dense_particular = particular if particular is None else dense(particular, m.cols)
        assert dense_solve_affine(m, b) == (dense_particular, hom, certificate)
        assert dense_solve_certified(m, b) == (dense_particular, certificate)
        assert hom.dim == m.cols - sympy_rank(m)
        if certificate is not None:
            # the 0 = 1 row follows one row per pivot of m
            assert certificate.row_index == sympy_rank(m)
            augmented = Matrix([row + (x,) for row, x in zip(m.row_list(), b)], cols=m.cols + 1)
            assert sympy_rank(augmented) == certificate.row_index + 1
        outcomes["consistent" if certificate is None else "inconsistent"] += 1
    assert min(outcomes.values()) >= 10


def test_left_inverse_and_invert_match_former_routines(rng):
    for _ in range(60):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = rand_sparse_matrix(rng, rows, cols, rng.choice((0.4, 1.0)))
        assert left_inverse(m) == per_column_left_inverse(m)
        if rows == cols:
            assert invert(m) == augmented_invert(m)
    for n in range(1, 6):
        m = rand_invertible(rng, n)
        assert invert(m) == augmented_invert(m) is not None
    assert invert(Matrix.zero(0, 0)) == Matrix.zero(0, 0)
    assert left_inverse(Matrix.zero(3, 0)) == Matrix.zero(0, 3)
    assert left_inverse(Matrix.zero(0, 2)) is None


def test_empty_shapes():
    assert Matrix.zero(0, 3).rref()[1] == ()
    assert is_full(kernel(Matrix.zero(0, 3)))
    assert image(Matrix.zero(3, 0)).is_zero()
    assert solve(Matrix.zero(0, 2), {}) == {}


def test_solve_affine_homogeneous_space_is_the_kernel(rng):
    outcomes = {"consistent": 0, "inconsistent": 0}
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        if rng.random() < 0.5:
            m = m.vstack(m.scale(2))
        b = tuple(rand_fraction(rng) for _ in range(m.rows))
        particular, hom, certificate = solve_affine(m, as_column(b))
        assert hom == kernel(m)
        outcomes["consistent" if particular is not None else "inconsistent"] += 1
        assert (particular is None) == (certificate is not None)
    assert min(outcomes.values()) >= 5


def all_fractions(values):
    return all(type(x) is Fraction for x in values)


def test_exact_type_invariant(rng):
    for _ in range(6):
        L = rand_algebra(rng)
        for rep in (Representation.trivial(L, 2), adjoint_rep(L)):
            for p in range(3):
                d = differential_matrix(rep, p)
                assert all(all_fractions(row) for row in d.row_list())
                reduced, _ = d.rref()
                assert all(all_fractions(row) for row in reduced.row_list())
                assert all(all_fractions(v) for v in basis_of(kernel(d)))
                assert all(all_fractions(v) for v in basis_of(image(d)))
        for c in (Cochain(L, 2, 2, {(0, 1): (1, "1/2")}),
                  Cochain(L, 1, 2, {(0,): (Fraction(3, 4), 0), (1,): (-1, 2)})):
            assert dense_coeffs(c) and all(all_fractions(v) for v in dense_coeffs(c).values())


MIXED = (3, "1/2", Fraction(-2, 3), "-4", 0, 0.25, Fraction(6, 4))


def test_conversion_of_int_str_and_fraction_inputs():
    expected = tuple(Fraction(x) for x in MIXED)
    assert to_fractions(MIXED) == expected and all_fractions(to_fractions(MIXED))
    assert to_fractions([]) == ()
    fractions_only = tuple(Fraction(i, 3) for i in range(5))
    assert to_fractions(fractions_only) is fractions_only
    assert to_fractions(iter(fractions_only)) == fractions_only

    m = Matrix([MIXED, MIXED[::-1]])
    assert m.row_list() == (expected, expected[::-1])
    assert all(all_fractions(row) for row in m.row_list())
    assert Matrix.from_columns([MIXED]).column(0) == expected
    assert Matrix(m.row_list()) == m

    sub = Subspace.from_vectors(len(MIXED), [MIXED])
    assert sub == Subspace.from_vectors(len(MIXED), [expected])
    assert basis_of(sub) == (tuple(x / Fraction(3) for x in expected),)
    assert all_fractions(basis_of(sub)[0])
    assert sub.reduce_entries(nonzero_pairs(MIXED)) == {}
    assert sub.coordinates_of(nonzero_pairs(MIXED)) == {0: Fraction(3)}

    c = Cochain(abelian(2), 1, len(MIXED), {(0,): MIXED, (1,): expected})
    assert dense_coeffs(c)[(0,)] == dense_coeffs(c)[(1,)] == expected
    assert all_fractions(dense_coeffs(c)[(0,)])


# ---------------------------------------------------------------------------
# the former dense routines, kept as oracles for the zero-skipping ones
# ---------------------------------------------------------------------------

def dense_reduce(sub, v):
    """The former Subspace.reduce: dense subtraction over the whole vector."""
    v = to_fractions(v)
    for b, p in zip(basis_of(sub), sub.pivots):
        c = v[p]
        if c != 0:
            v = vec_sub(v, vec_scale(c, b))
    return v


def dense_coordinates_of(sub, v):
    """The former Subspace.coordinates_of, length check aside."""
    v = to_fractions(v)
    coords = tuple(v[p] for p in sub.pivots)
    residual = v
    for c, b in zip(coords, basis_of(sub)):
        if c != 0:
            residual = vec_sub(residual, vec_scale(c, b))
    return coords if all(a == 0 for a in residual) else None


def dense_embed(sub, coords):
    """The former Subspace.embed."""
    v = zero_vec(sub.ambient_dim)
    for c, b in zip(coords, basis_of(sub)):
        if c != 0:
            v = vec_add(v, vec_scale(Fraction(c), b))
    return v


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def dense_matmul(a, b):
    """The former Matrix.__matmul__: transpose the right operand, dot every pair."""
    b_t = b.transpose().row_list()
    return Matrix([[dot(row, col) for col in b_t] for row in a.row_list()], cols=b.cols)


def two_step_kernel(m):
    """The former kernel: null vectors of RREF(m), row-reduced a second time."""
    reduced, pivots = m.rref()
    return _null_space(reduced, pivots, m.cols)


def oracle_matrices(rng):
    """Seeded sparse, dense and rank-deficient matrices, empty shapes included."""
    mats = [rand_sparse_matrix(rng, rng.randint(1, 8), rng.randint(1, 8),
                               rng.choice((0.2, 0.5, 1.0))) for _ in range(40)]
    mats += [m.vstack(m.scale(3)) for m in mats[:10]]
    mats += [Matrix.zero(0, 4), Matrix.zero(4, 0), Matrix.zero(0, 0), Matrix.zero(3, 5),
             Matrix.identity(5), rand_sparse_matrix(rng, 120, 100, 0.03)]
    return mats


def test_kernel_matches_two_step_oracle(rng):
    for m in oracle_matrices(rng):
        k = kernel(m)
        oracle = two_step_kernel(m)
        assert (k.ambient_dim, k.pairs, k.pivots) == (
            oracle.ambient_dim, oracle.pairs, oracle.pivots)
        assert k.dim + sympy_rank(m) == m.cols
        zero = zero_vec(m.rows)
        for v in basis_of(k):
            assert m.matvec(v) == zero
            assert all_fractions(v)


def test_matmul_matches_dense_oracle(rng):
    for m in oracle_matrices(rng):
        for other in (rand_sparse_matrix(rng, m.cols, rng.randint(0, 6), 0.3),
                      rand_sparse_matrix(rng, m.cols, 3, 1.0), Matrix.zero(m.cols, 2)):
            got = m @ other
            assert got == dense_matmul(m, other)
            assert (got.rows, got.cols) == (m.rows, other.cols)
            assert all(all_fractions(row) for row in got.row_list())
        if m.rows == m.cols:
            other = rand_sparse_matrix(rng, m.rows, m.rows, 0.5)
            assert m.commutator(other) == dense_matmul(m, other) - dense_matmul(other, m)
    with pytest.raises(DimensionMismatchError):
        Matrix.identity(2) @ Matrix.identity(3)


def test_subspace_reduction_matches_dense_oracle(rng):
    for m in oracle_matrices(rng):
        n = m.cols
        for sub in (Subspace.from_vectors(n, m.row_list()), kernel(m)):
            inside = [embed(sub, [rand_fraction(rng) for _ in range(sub.dim)])
                      for _ in range(3)]
            outside = [tuple(rand_fraction(rng) if rng.random() < 0.4 else 0
                             for _ in range(n)) for _ in range(3)]
            for v in list(basis_of(sub)) + inside + outside + [zero_vec(n)]:
                entries = sub.reduce_entries(nonzero_pairs(v))
                reduced = dense(entries, n)
                # the former dense reduce and contains, and the loop before them
                assert reduced == reduce_vec(sub, v) == dense_reduce(sub, v)
                assert all_fractions(reduced) and all(entries.values())
                assert contains_vec(sub, v) == (not entries)
                coords = sub.coordinates_of(nonzero_pairs(v))
                dense_coords = None if coords is None else dense(coords, sub.dim)
                assert dense_coords == coordinates_of_vec(sub, v) == dense_coordinates_of(sub, v)
                if coords is not None:
                    assert all_fractions(coords.values()) and all(coords.values())
            assert not any(sub.reduce_entries(nonzero_pairs(v)) for v in inside)
            for _ in range(3):
                coords = [rand_fraction(rng) if rng.random() < 0.5 else 0
                          for _ in range(sub.dim)]
                embedded = embed(sub, coords)
                assert embedded == dense_embed(sub, coords) and all_fractions(embedded)
                assert sub.coordinates_of(nonzero_pairs(embedded)) == dict(nonzero_pairs(coords))
            assert sub.contains_subspace(sub)


def test_coordinates_of_checks_the_length():
    """A dense vector read through the former views must have the ambient
    length; a pair past the ambient space is a vector outside the subspace."""
    sub = Subspace.from_vectors(3, [(1, 0, 0)])
    for bad in ((1,), (1, 0, 0, 0)):
        for method in (coordinates_of_vec, reduce_vec, contains_vec):
            with pytest.raises(DimensionMismatchError):
                method(sub, bad)
    with pytest.raises(DimensionMismatchError):
        embed(sub, (1, 0))
    assert sub.coordinates_of([(0, Fraction(2)), (3, Fraction(1))]) is None
    assert sub.coordinates_of([(0, Fraction(2))]) == {0: 2}


# ---------------------------------------------------------------------------
# the former dense Matrix, kept as the oracle for the dict-row one
# ---------------------------------------------------------------------------

class DenseMatrix:
    """The former Matrix: a tuple of dense Fraction rows, zeros stored."""

    def __init__(self, rows, cols):
        self.rows, self.cols = len(rows), cols
        self.data = tuple(to_fractions(row) for row in rows)

    @classmethod
    def of(cls, m):
        return cls([[m.entry(i, j) for j in range(m.cols)] for i in range(m.rows)], m.cols)

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def transpose(self):
        return DenseMatrix([self.column(j) for j in range(self.cols)], self.rows)

    def __add__(self, other):
        return DenseMatrix([vec_add(a, b) for a, b in zip(self.data, other.data)], self.cols)

    def __sub__(self, other):
        return DenseMatrix([vec_sub(a, b) for a, b in zip(self.data, other.data)], self.cols)

    def scale(self, c):
        return DenseMatrix([vec_scale(Fraction(c), row) for row in self.data], self.cols)

    def __matmul__(self, other):
        columns = other.transpose().data
        return DenseMatrix([[dot(row, col) for col in columns] for row in self.data],
                           other.cols)

    def matvec(self, v):
        return tuple(dot(row, v) for row in self.data)

    def trace(self):
        return sum((self.data[i][i] for i in range(min(self.rows, self.cols))), Fraction(0))

    def vstack(self, other):
        return DenseMatrix(self.data + other.data, self.cols)

    def flatten(self):
        return tuple(x for row in self.data for x in row)


def assert_matches_dense(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.row_list() == want.data
    assert got == Matrix(want.data, cols=want.cols)
    assert hash(got) == hash(Matrix(want.data, cols=want.cols))
    # the dict rows hold nonzero Fractions only
    assert all(all_fractions(row.values()) and all(row.values())
               for row in got.sparse_rows())


def test_matrix_operations_match_dense_oracle(rng):
    for m in oracle_matrices(rng):
        d = DenseMatrix.of(m)
        other = rand_sparse_matrix(rng, m.rows, m.cols, 0.4) if m.cols else m
        right = rand_sparse_matrix(rng, m.cols, 3, 0.5)
        od = DenseMatrix.of(other)
        c = rand_fraction(rng) or Fraction(5, 2)
        for got, want in ((m, d), (m + other, d + od), (m - other, d - od),
                          (m - m, d - d), (m.scale(c), d.scale(c)), (m.scale(0), d.scale(0)),
                          (-m, d.scale(-1)), (m.transpose(), d.transpose()),
                          (m.vstack(other), d.vstack(od)),
                          (m @ right, d @ DenseMatrix.of(right)),
                          (m.rref()[0], DenseMatrix.of(dense_rref(m)[0]))):
            assert_matches_dense(got, want)
        v = tuple(rand_fraction(rng) for _ in range(m.cols))
        assert m.matvec(v) == d.matvec(v) and all_fractions(m.matvec(v))
        assert [m.column(j) for j in range(m.cols)] == [d.column(j) for j in range(d.cols)]
        assert [m.row(i) for i in range(m.rows)] == list(d.data)
        assert all(m.entry(i, j) == d.data[i][j] for i in range(m.rows) for j in range(m.cols))
        assert flat(m) == d.flatten() and m.trace() == d.trace()
        assert m.flat_pairs() == tuple(nonzero_pairs(d.flatten()))
        assert m.is_zero() == all(x == 0 for x in d.flatten())
        assert Matrix.from_flat(m.flat_pairs(), m.rows, m.cols) == m
    assert_matches_dense(Matrix.from_columns([(1, 0), (0, "1/2"), (0, 0)]),
                         DenseMatrix([(1, 0, 0), (0, Fraction(1, 2), 0)], 3))
    assert_matches_dense(Matrix.identity(3), DenseMatrix([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3))
    with pytest.raises(DimensionMismatchError):
        Matrix.from_columns([(1, 0), (1,)])


def test_subspace_pairs_are_the_sorted_nonzeros_of_the_basis(rng):
    for m in oracle_matrices(rng):
        for sub in (Subspace.from_vectors(m.cols, m.row_list()), kernel(m), image(m)):
            assert sub.pairs == tuple(tuple((j, x) for j, x in enumerate(b) if x)
                                      for b in basis_of(sub))
            assert all(p[0] == (q, Fraction(1)) for p, q in zip(sub.pairs, sub.pivots))
            assert Subspace.from_vectors(sub.ambient_dim, basis_of(sub)) == sub


# ---------------------------------------------------------------------------
# a dense view creeping back into the core fails here
# ---------------------------------------------------------------------------

def test_sparse_core_never_builds_dense_rows():
    n = 600
    rows = [{} if i % 3 == 0 else {i: Fraction(i + 1), (7 * i + 3) % n: Fraction(-1, 2)}
            for i in range(n)]
    tracemalloc.start()
    try:
        m = Matrix.from_sparse_rows(rows, n)
        null = kernel(m)
        span = image(m)
        reduced, pivots = m.rref()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the dense rows alone would hold 360 000 slots, 2.9 MB of pointers
    assert peak < 2 * 1024 * 1024
    assert null.dim == 200 and sum(len(p) for p in null.pairs) == 200
    assert span.dim == len(pivots) == 400
    assert sum(len(row) for row in reduced.sparse_rows()) == 400
    values = [x for sub in (null, span) for p in sub.pairs for _, x in p]
    values += [x for mat in (m, reduced) for row in mat.sparse_rows() for x in row.values()]
    assert all_fractions(values) and all(values)


def test_one_storage_and_dense_views_built_on_each_call():
    assert Matrix.__slots__ == ("rows", "cols", "_data")
    assert Subspace.__slots__ == ("ambient_dim", "pairs", "pivots", "_by_pivot")
    m = Matrix([[0, 1, 0], [2, 0, "1/2"]])
    assert m.row(1) == (2, 0, Fraction(1, 2)) and m.row(0) == (0, 1, 0)
    assert m.row_list() == (m.row(0), m.row(1)) and m.row_list() is not m.row_list()
    assert m.flat_pairs() == ((1, 1), (3, 2), (5, Fraction(1, 2)))
    sub = Subspace.from_vectors(3, [(0, 2, 0), (1, 0, 1)])
    assert sub.pairs == (((0, 1), (2, 1)), ((1, 1),))
    # the dense vector views are gone: vectors cross as pairs and dicts
    assert not hasattr(m, "flatten")
    assert not any(hasattr(sub, name) for name in ("basis", "reduce", "contains", "embed"))


# ---------------------------------------------------------------------------
# elimination count: a repeated elimination that creeps back fails here
# ---------------------------------------------------------------------------

@pytest.fixture
def rref_calls(monkeypatch):
    calls = []
    original = Matrix.rref

    def counting(self):
        calls.append((self.rows, self.cols))
        return original(self)

    monkeypatch.setattr(Matrix, "rref", counting)
    return calls


def test_kernel_is_one_elimination(rng, rref_calls):
    for m in oracle_matrices(rng):
        before = len(rref_calls)
        kernel(m)
        assert len(rref_calls) == before + 1


def test_cohomology_space_elimination_count(rref_calls):
    # kernel of d_p, image of d_(p-1) for p > 0, and the class basis when
    # H^p is nonzero: one elimination each
    cases = [(Representation.trivial(heisenberg3(), 1), (2, 3, 3, 3)),
             (adjoint_rep(heisenberg3()), (2, 3, 3, 3)),
             (adjoint_rep(sl2()), (1, 2, 2, 2))]
    for rep, expected in cases:
        for p, count in enumerate(expected):
            before = len(rref_calls)
            space = CohomologySpace(rep, p)
            assert len(rref_calls) - before == count == 1 + (p > 0) + (space.h_dim > 0)


# ---------------------------------------------------------------------------
# block matrices against the column joins they replaced
# ---------------------------------------------------------------------------

def column_block_oracle(blocks):
    """Each column of the grid joined from its blocks' columns, top to bottom."""
    rows = sum(block_row[0].rows for block_row in blocks)
    cols = [sum((block_row[k].column(j) for block_row in blocks), ())
            for k, m in enumerate(blocks[0]) for j in range(m.cols)]
    return Matrix.from_columns(cols, rows=rows)


def test_block_matrix_matches_column_oracle():
    rng = random.Random(23)
    shapes_with_empty = 0
    for _ in range(60):
        heights = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        widths = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        shapes_with_empty += 0 in heights + widths
        blocks = [[rand_matrix(rng, h, w) if rng.random() < 0.7 else Matrix.zero(h, w)
                   for w in widths] for h in heights]
        got = block_matrix(blocks)
        assert (got.rows, got.cols) == (sum(heights), sum(widths))
        assert got == column_block_oracle(blocks)
    assert shapes_with_empty >= 10


@pytest.mark.parametrize("blocks", [
    [],
    [[]],
    [[Matrix.identity(2), Matrix.zero(3, 1)]],            # heights differ in a block row
    [[Matrix.identity(2)], [Matrix.zero(2, 3)]],          # widths differ in a block column
    [[Matrix.identity(2), Matrix.zero(2, 1)], [Matrix.zero(1, 2)]],  # ragged grid
], ids=["no-rows", "no-columns", "heights", "widths", "ragged"])
def test_block_matrix_rejects_misaligned_blocks(blocks):
    with pytest.raises(DimensionMismatchError):
        block_matrix(blocks)


# ---------------------------------------------------------------------------
# the pivot read-off and the restriction, against the loops they replaced
# ---------------------------------------------------------------------------

def seeded_subspaces(rng):
    """Spans of seeded sparse and dense vectors, with the zero and the full subspace."""
    subs = []
    for n in (1, 2, 3, 5, 7):
        subs += [Subspace.zero(n), Subspace.full(n)]
        for _ in range(6):
            vectors = rand_sparse_matrix(rng, rng.randint(1, n), n,
                                         rng.choice((0.3, 0.6, 1.0))).row_list()
            subs.append(Subspace.from_vectors(n, vectors))
    subs.append(Subspace.zero(0))
    return subs


def loop_restrict(sub, m):
    """The former restriction loop: coordinates of m b, column by column."""
    cols = []
    for b in basis_of(sub):
        coords = coordinates_of_vec(sub, m.matvec(b))
        if coords is None:
            return None
        cols.append(coords)
    return Matrix.from_columns(cols, rows=sub.dim)


def invariant_endomorphism(rng, sub):
    """Q [[A, C], [0, D]] Q^-1, where Q's first columns are the basis of sub:
    m maps sub into itself and acts on it by A."""
    n, k = sub.ambient_dim, sub.dim
    free = [j for j in range(n) if j not in sub.pivots]
    q = Matrix.from_columns(list(basis_of(sub)) + [unit_vec(n, j) for j in free], rows=n)
    a = rand_matrix(rng, k, k)
    t = block_matrix([[a, rand_matrix(rng, k, n - k)],
                      [Matrix.zero(n - k, k), rand_matrix(rng, n - k, n - k)]])
    return q @ t @ invert(q), a


def test_split_coordinates_is_the_component_along_the_subspace():
    rng = random.Random(41)
    for sub in seeded_subspaces(rng):
        n = sub.ambient_dim
        vectors = [zero_vec(n)] + list(basis_of(sub))
        vectors += [tuple(rand_fraction(rng) if rng.random() < 0.6 else 0 for _ in range(n))
                    for _ in range(5)]
        vectors += [embed(sub, [rand_fraction(rng) for _ in range(sub.dim)])]
        for v in vectors:
            got = sub.split_matrix().matvec(v)
            # the identity that makes the former "does not split" checks dead
            assert got == coordinates_of_vec(sub, vec_sub(v, reduce_vec(sub, v)))
            assert all_fractions(got)
            assert vec_add(embed(sub, got), reduce_vec(sub, v)) == to_fractions(v)
    assert Subspace.from_vectors(2, [(1, 1)]).split_matrix().matvec((1, 0)) == (1,)
    with pytest.raises(DimensionMismatchError):
        Subspace.full(2).split_matrix().matvec((1, 0, 0))


def test_restrict_matches_the_loop_and_is_none_exactly_off_invariant_maps():
    rng = random.Random(43)
    leaves = 0
    for sub in seeded_subspaces(rng):
        n = sub.ambient_dim
        m, a = invariant_endomorphism(rng, sub)
        assert sub.restrict(m) == a == loop_restrict(sub, m)
        assert sub.restrict(Matrix.identity(n)) == Matrix.identity(sub.dim)
        for other in (rand_matrix(rng, n, n), rand_sparse_matrix(rng, n, n, 0.3),
                      m + rand_sparse_matrix(rng, n, n, 0.2)):
            got = sub.restrict(other)
            assert got == loop_restrict(sub, other)
            leaving = any(not contains_vec(sub, other.matvec(b)) for b in basis_of(sub))
            assert (got is None) == leaving
            leaves += leaving
            if got is not None:
                assert all(all_fractions(row) for row in got.row_list())
    assert leaves >= 40
    with pytest.raises(DimensionMismatchError):
        Subspace.full(2).restrict(Matrix.identity(3))
