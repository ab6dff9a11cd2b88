"""Shared generators for the randomized suites, small readings of package
objects that only the tests need, and the dense vector helpers the package
no longer has: its core keeps only sparse rows and pairs, and the tests use
these to build and compare dense coefficient vectors.

All randomness is drawn from explicitly seeded random.Random instances
so every run is reproducible; identities are asserted exactly, never up
to tolerance.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from liecoh.catalog import abelian, filiform4, heisenberg3, nonabelian2, sl2
from liecoh.cochains import Cochain, EquivariantPairing, sort_with_sign
from liecoh.liealg import LieAlgebra, change_of_basis
from liecoh.linalg import ONE, ZERO, Matrix


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


def value_at_indices(c, idx):
    """The value of the cochain c at a tuple of basis indices, alternation sign included."""
    assert len(idx) == c.degree
    key, sign = sort_with_sign(idx)
    if key is None:
        return zero_vec(c.value_dim)
    vec = c.component(key)
    return vec if sign == 1 else vec_scale(Fraction(-1), vec)


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
    return EquivariantPairing(1, 1, 1, lambda u, v: (u[0] * v[0],))


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
def rng():
    return random.Random(0)
