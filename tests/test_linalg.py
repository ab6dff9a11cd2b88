import random
from fractions import Fraction

import pytest

from liecoh.catalog import abelian
from liecoh.cochains import Cochain
from liecoh.cohomology import differential_matrix
from liecoh.config import set_sparse_threshold, sparse_threshold
from liecoh.liealg import Representation, adjoint_rep
from liecoh.linalg import (InconsistencyCertificate, Matrix, Subspace, image,
                           invert, kernel, left_inverse, quotient_coordinates,
                           rref, solve, solve_affine, to_fractions, unit_vec)

from conftest import rand_algebra, rand_fraction, rand_matrix


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


def test_sparse_path_matches_dense(rng):
    old = sparse_threshold()
    try:
        for _ in range(20):
            m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            set_sparse_threshold(10_000)
            dense = rref(m)
            set_sparse_threshold(0)
            sparse = rref(m)
            assert dense == sparse
    finally:
        set_sparse_threshold(old)


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
