import random
from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from liecoh.catalog import abelian
from liecoh.cochains import Cochain
from liecoh.cohomology import differential_matrix
from liecoh.errors import DimensionMismatchError
from liecoh.liealg import Representation, adjoint_rep
from liecoh.linalg import (InconsistencyCertificate, Matrix, Subspace, image,
                           invert, kernel, left_inverse, quotient_coordinates,
                           rref, solve, solve_affine, solve_columns, to_fractions,
                           unit_vec)

from conftest import rand_algebra, rand_fraction, rand_invertible, rand_matrix


def test_rref_identity():
    m = Matrix.identity(3)
    r, pivots = rref(m)
    assert r == m
    assert pivots == (0, 1, 2)


def test_rref_zero():
    m = Matrix.zero(2, 3)
    r, pivots = rref(m)
    assert r == m
    assert pivots == ()


def test_rref_hand_example():
    r, pivots = rref(Matrix([[2, 4], [1, 2]]))
    assert r == Matrix([[1, 2], [0, 0]])
    assert pivots == (0,)


def test_rref_idempotent_and_canonical(rng):
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r, _ = rref(m)
        r2, _ = rref(r)
        assert r == r2
        # a row-scrambled matrix with the same row space reduces identically
        perm = list(range(m.rows))
        rng.shuffle(perm)
        scale = [Fraction(rng.randint(1, 3)) for _ in range(m.rows)]
        scrambled = Matrix([[scale[i] * x for x in m.row(perm[i])]
                            for i in range(m.rows)], cols=m.cols)
        assert rref(scrambled)[0] == r


def test_rank_nullity(rng):
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert m.rank() + kernel(m).dim == m.cols


def test_kernel_examples():
    assert kernel(Matrix.identity(3)).is_zero()
    assert kernel(Matrix.zero(4, 4)).is_full()
    k = kernel(Matrix([[1, 1]]))
    assert k.basis == ((Fraction(1), Fraction(-1)),)


def test_image_examples():
    assert image(Matrix.identity(2)).is_full()
    assert image(Matrix.zero(3, 2)).is_zero()
    assert image(Matrix([[1], [2]])).basis == ((Fraction(1), Fraction(2)),)


def test_solve_examples():
    assert solve(Matrix.identity(2), (5, -7)) == (Fraction(5), Fraction(-7))
    assert solve(Matrix.zero(2, 2), (1, 0)) is None
    assert solve(Matrix([[1, 1]]), (2,)) == (Fraction(2), Fraction(0))


def test_solve_is_exact(rng):
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x0 = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m.cols))
        b = m.matvec(x0)
        x = solve(m, b)
        assert x is not None
        assert m.matvec(x) == b


def test_solve_affine_certificate():
    particular, hom, cert = solve_affine(Matrix.zero(1, 1), (1,))
    assert particular is None
    assert isinstance(cert, InconsistencyCertificate)
    assert hom.is_full()


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
            assert sub.contains(v)
            coords = sub.coordinates_of(v)
            assert coords is not None
            assert sub.embed(coords) == v


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


def test_rref_matches_dense_oracle(rng):
    shapes = [(rng.randint(1, 8), rng.randint(1, 8), rng.choice((0.2, 0.5, 1.0)))
              for _ in range(40)]
    # rank-deficient stacks, and shapes past the former 10 000-entry switch
    shapes += [(30, 30, 1.0), (120, 100, 0.03), (90, 120, 0.02)]
    for rows, cols, density in shapes:
        m = rand_sparse_matrix(rng, rows, cols, density)
        if rows <= 8 and rng.random() < 0.3:
            m = m.vstack(m.scale(3))
        got = rref(m)
        assert got == dense_rref(m)
        assert len(got[1]) == sympy_rank(m)
        assert all(all_fractions(row) for row in got[0].row_list())


def one_column_solve(m, b):
    """The former solve: its own elimination of [m | b]."""
    augmented = m.hstack(Matrix.from_columns([b], rows=m.rows))
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
    reduced, pivots = m.hstack(Matrix.identity(n)).rref()
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
        solutions, first_inconsistent, rank = solve_columns(m, columns)
        assert rank == m.rank()
        assert [solve(m, b) for b in columns] == oracle
        if None in oracle:
            assert solutions is None
            assert first_inconsistent == oracle.index(None)
        else:
            assert solutions == tuple(oracle) and first_inconsistent is None
        outcomes["consistent" if first_inconsistent is None else "inconsistent"] += 1
    assert min(outcomes.values()) >= 10


def test_solve_columns_empty_shapes():
    assert solve_columns(Matrix.zero(2, 3), []) == ((), None, 0)
    assert solve_columns(Matrix.zero(0, 2), [(), ()]) == (((0, 0), (0, 0)), None, 0)
    assert solve_columns(Matrix.zero(2, 0), [(0, 0), (0, 1), (1, 0)]) == (None, 1, 0)
    with pytest.raises(DimensionMismatchError):
        solve_columns(Matrix.identity(2), [(1, 0), (1,)])


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
    assert rref(Matrix.zero(0, 3))[1] == ()
    assert kernel(Matrix.zero(0, 3)).is_full()
    assert image(Matrix.zero(3, 0)).is_zero()
    assert solve(Matrix.zero(0, 2), ()) == (Fraction(0), Fraction(0))


def test_solve_affine_homogeneous_space_is_the_kernel(rng):
    outcomes = {"consistent": 0, "inconsistent": 0}
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        if rng.random() < 0.5:
            m = m.vstack(m.scale(2))
        b = tuple(rand_fraction(rng) for _ in range(m.rows))
        particular, hom, certificate = solve_affine(m, b)
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
                assert all(all_fractions(v) for v in kernel(d).basis)
                assert all(all_fractions(v) for v in image(d).basis)
        for c in (Cochain(L, 2, 2, {(0, 1): (1, "1/2")}),
                  Cochain(L, 1, 2, {(0,): (Fraction(3, 4), 0), (1,): (-1, 2)})):
            assert c.coeffs and all(all_fractions(v) for v in c.coeffs.values())


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
    assert sub.basis == (tuple(x / Fraction(3) for x in expected),)
    assert all_fractions(sub.basis[0])
    assert sub.reduce(MIXED) == (Fraction(0),) * len(MIXED)
    assert sub.coordinates_of(MIXED) == (Fraction(3),)

    c = Cochain(abelian(2), 1, len(MIXED), {(0,): MIXED, (1,): expected})
    assert c.coeffs[(0,)] == c.coeffs[(1,)] == expected
    assert all_fractions(c.coeffs[(0,)])
