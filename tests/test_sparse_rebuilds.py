"""The dense detours of the exact core, rebuilt on sparse data, against the
bodies they replaced.

The package keeps only the dict rows of a Matrix and the nonzero pairs of a
Subspace, and has no dense vector helpers, so each former detour through
dense unit vectors and index-by-index reads is now read from that data:
``quotient_coordinates`` from the subspace's pairs, ``LieAlgebra.ad_matrix``
from the bracket index, ``left_inverse`` from one elimination of
[m^T | I] with ``{i: 1}`` columns, the theta|f check of ``reduce_via_stage``
(``extensions.restricts_to``) and the omega rows of
``symmetry._pair_system_rows`` from the nonzero values of their cochains.
The replaced bodies stay here as oracles and must match entry for entry on
seeded cases: the benchmark families h7, h9, n5 and f8 in seeded monomial
bases, random algebras and subspaces, the catalog and pipeline factor
systems.  Planted perturbations must fail the theta|f check exactly where
the former loop fails.  (The former ``crossed._alternating_extension`` is
an oracle in ``test_section_defects``.)
"""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from liecoh.cochains import differential_operator, increasing_tuples
from liecoh.extensions import GKernel, build_quotient_stage, restricts_to, stage_theta
from liecoh.liealg import center, change_of_basis, derivations
from liecoh.linalg import Matrix, Subspace, image, left_inverse, quotient_coordinates, solve_columns
from liecoh.symmetry import _pair_system_rows

from conftest import (as_column, dense, dense_ad, dense_bracket, flat, rand_algebra,
                      rand_invertible, rand_matrix, rand_vector, reduce_vec, unit_vec,
                      value_at_indices, vec_add, vec_is_zero)
from test_classify import CASE_IDS, CASES
from test_linalg import rand_sparse_matrix, seeded_subspaces

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402


# ---------------------------------------------------------------------------
# the replaced bodies
# ---------------------------------------------------------------------------

def dense_quotient_coordinates(ambient_dim, sub):
    """The former quotient_coordinates: each unit vector reduced, read at the free indices."""
    pivot_set = set(sub.pivots)
    free = [j for j in range(ambient_dim) if j not in pivot_set]
    proj_cols = []
    for j in range(ambient_dim):
        reduced = reduce_vec(sub, unit_vec(ambient_dim, j))
        proj_cols.append(tuple(reduced[f] for f in free))
    projection = Matrix.from_columns(proj_cols, rows=len(free))
    section = Matrix.from_columns([unit_vec(ambient_dim, f) for f in free],
                                  rows=ambient_dim)
    return projection, section


def dense_ad_matrix(L, i):
    """The former LieAlgebra.ad_matrix: ad of the dense unit vector e_i."""
    return dense_ad(L, unit_vec(L.dim, i))


def dense_left_inverse(m):
    """The former left_inverse: solve_columns on the unit vectors."""
    rows, _, _ = solve_columns(m.transpose(),
                               [as_column(unit_vec(m.cols, i)) for i in range(m.cols)])
    return None if rows is None else Matrix.from_sparse_rows(rows, m.rows)


def loop_restricts(theta, f, nad, zd):
    """The former theta|f loop of reduce_via_stage, every index pair of n_ad read."""
    for i in range(nad):
        for j in range(nad):
            if dense(theta.get((i, j), {}), zd) != value_at_indices(f, (i, j)):
                return False
    return True


def dense_omega_rows(fs, va, vb):
    """The former omega rows of _pair_system_rows: every (b, j) and (i, b) value read."""
    S, omega = fs.S, fs.omega
    nd, gd = fs.n.dim, fs.g.dim
    d_rows = differential_operator(S, 1).sparse_rows()
    omega_rows = []
    for q, key in enumerate(increasing_tuples(gd, 2)):
        i, j = key
        w = omega.component(key)
        for r in range(nd):
            row = Counter()
            for k in range(nd):
                row[r * nd + k] += w[k]
            for b in range(gd):
                val = value_at_indices(omega, (b, j))
                if val[r] != 0:
                    row[va + b * gd + i] -= val[r]
                val = value_at_indices(omega, (i, b))
                if val[r] != 0:
                    row[va + b * gd + j] -= val[r]
            for col, x in d_rows[q * nd + r].items():
                row[va + vb + col] -= x
            omega_rows.append(row)
    return omega_rows


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def seeded_algebras():
    """h7, h9, n5 and f8 in their standard and seeded monomial bases, h7 in a
    seeded dense basis, and random catalog algebras."""
    rng = random.Random(71)
    families = [gen.heisenberg(3), gen.heisenberg(4), gen.nilpotent(5), gen.filiform(8)]
    out = [change_of_basis(L, gen.monomial(rng, L.dim)) for L in families]
    out.append(change_of_basis(families[0], rand_invertible(rng, 7)))
    return families + out + [rand_algebra(rng) for _ in range(12)]


ALGEBRAS = seeded_algebras()


def test_ad_matrix_matches_ad_of_unit_vectors():
    for L in ALGEBRAS:
        for i in range(L.dim):
            assert L.ad_matrix(i) == dense_ad_matrix(L, i)
        assert L.ad_matrices() == tuple(dense_ad_matrix(L, i) for i in range(L.dim))


def test_quotient_coordinates_match_the_reduced_unit_vectors():
    rng = random.Random(73)
    subs = seeded_subspaces(rng)
    for L in ALGEBRAS:
        # the center, the derived algebra and a seeded span
        subs += [center(L), image(Matrix.from_columns(
            [dense_bracket(L, rand_vector(rng, L.dim), rand_vector(rng, L.dim)) for _ in range(3)],
            rows=L.dim)), Subspace.from_vectors(L.dim, [rand_vector(rng, L.dim)])]
    shapes = set()
    for sub in subs:
        got = quotient_coordinates(sub.ambient_dim, sub)
        assert got == dense_quotient_coordinates(sub.ambient_dim, sub)
        projection, section = got
        assert projection @ section == Matrix.identity(sub.ambient_dim - sub.dim)
        shapes.add((sub.dim == 0, sub.dim == sub.ambient_dim))
    assert shapes == {(True, False), (False, True), (False, False), (True, True)}


def test_left_inverse_matches_the_unit_vector_solve():
    rng = random.Random(79)
    found = Counter()
    for rows, cols in [(0, 0), (3, 0), (0, 2), (1, 1), (2, 3), (3, 2), (4, 4), (6, 3), (5, 5)]:
        for density in (0.3, 0.7, 1.0):
            for m in (rand_sparse_matrix(rng, rows, cols, density), rand_matrix(rng, rows, cols)):
                got = left_inverse(m)
                assert got == dense_left_inverse(m)
                found[got is None] += 1
                if got is not None:
                    assert got @ m == Matrix.identity(cols)
    assert found[True] >= 10 and found[False] >= 10
    for L in ALGEBRAS[:8]:
        der = derivations(L)
        basis = Matrix.from_columns([flat(m) for m in der.matrices], rows=L.dim * L.dim)
        assert left_inverse(basis) == dense_left_inverse(basis)


@pytest.mark.parametrize("name, fs", CASES, ids=CASE_IDS)
def test_omega_rows_match_the_index_reads(name, fs):
    _, omega_rows, nvars, va, vb = _pair_system_rows(fs)
    dense = dense_omega_rows(fs, va, vb)
    assert len(omega_rows) == len(dense)
    assert (Matrix.from_sparse_rows(omega_rows, nvars)
            == Matrix.from_sparse_rows(dense, nvars))


@pytest.mark.parametrize("name, fs", CASES, ids=CASE_IDS)
def test_theta_restriction_matches_the_pair_loop(name, fs):
    stage = build_quotient_stage(GKernel.from_factor_system(fs))
    f, theta = stage_theta(stage)
    nad, zd = stage.n_ad.dim, stage.z.dim
    assert restricts_to(theta, f) and loop_restricts(theta, f, nad, zd)
    if not nad or not zd:
        return
    rng = random.Random(83)
    outcomes = Counter()
    for _ in range(12):
        planted = dict(theta)
        slot = (rng.randrange(stage.gs.dim), rng.randrange(nad))
        value = vec_add(dense(planted.get(slot, {}), zd), rand_vector(rng, zd))
        planted[slot] = as_column(value)
        if vec_is_zero(value):
            del planted[slot]
        want = loop_restricts(planted, f, nad, zd)
        assert restricts_to(planted, f) == want
        outcomes[want] += 1
    assert outcomes[False] >= 1
