"""The shared linear-system builders against the dense builders they replaced.

``dense_leibniz_system`` and ``stacked_inner_solve`` are the row-by-row
constructions the package used before ``leibniz_rows`` and
``solve_inner``, and ``column_operator_matrix`` is the column-by-column
builder used before the row-wise ``operator_matrix``; they stay here as
oracles.  Row order and zero rows do not change a reduced echelon form,
so kernels, particular solutions and certificates must agree exactly;
operator matrices must agree entry for entry.
"""

import random

import pytest

from liecoh import symmetry
from liecoh.catalog import abelian, catalog, filiform4, heisenberg3, sl2
from liecoh.cochains import (Cochain, OuterActionMap, cochain_differential,
                             cochain_space_dim, covariant_differential, curvature,
                             increasing_tuples)
from liecoh.cohomology import differential_matrix, operator_matrix, relative_cocycles
from liecoh.extensions import ExtensionPresentation, extract_factor_system
from liecoh.liealg import (LieAlgebra, Representation, ad_stack, adjoint_rep,
                           center, derivations, direct_and_semidirect,
                           leibniz_rows, solve_inner)
from liecoh.linalg import ZERO, Matrix, kernel, solve_affine, unit_vec
from liecoh.symmetry import extension_derivations

from conftest import rand_algebra, rand_matrix, rand_vector


def dense_leibniz_system(L):
    """D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j], one dense row per (i < j, a)."""
    n = L.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = L.bracket_basis(i, j)
            for a in range(n):
                row = [ZERO] * (n * n)
                for k, c in enumerate(cij):
                    if c != 0:
                        row[a * n + k] += c
                for k in range(n):
                    ckj = L.bracket_basis(k, j)
                    if ckj[a] != 0:
                        row[k * n + i] -= ckj[a]
                    cik = L.bracket_basis(i, k)
                    if cik[a] != 0:
                        row[k * n + j] -= cik[a]
                rows.append(tuple(row))
    return Matrix(rows, cols=n * n) if rows else Matrix.zero(0, n * n)


def stacked_inner_solve(L, targets):
    """ad(x_r) = targets[r] as one block-diagonal system of s ad blocks."""
    nd, s = L.dim, len(targets)
    ad_cols = [L.ad_matrix(k).flatten() for k in range(nd)]
    rows = []
    rhs = []
    for a in range(s):
        for flat_idx in range(nd * nd):
            row = [0] * (s * nd)
            for k in range(nd):
                row[a * nd + k] = ad_cols[k][flat_idx]
            rows.append(row)
            rhs.append(targets[a][flat_idx])
    system = Matrix(rows, cols=s * nd) if rows else Matrix.zero(0, s * nd)
    particular, _, certificate = solve_affine(system, rhs)
    return particular, certificate


def column_operator_matrix(fn, algebra, p, value_dim):
    """Matrix of a linear cochain operator, one basis cochain per column."""
    cols = []
    for key in increasing_tuples(algebra.dim, p):
        for comp in range(value_dim):
            vec = [0] * value_dim
            vec[comp] = 1
            cols.append(fn(Cochain(algebra, p, value_dim, {key: vec})).coordinates())
    return Matrix.from_columns(cols, rows=cochain_space_dim(algebra.dim, p + 1, value_dim))


def heisenberg(k):
    return LieAlgebra(2 * k + 1, {(i, k + i): {2 * k: 1} for i in range(k)})


def nilpotent(k):
    """Strictly upper-triangular k x k matrices, basis E_ab (a < b)."""
    units = [(a, b) for a in range(k) for b in range(a + 1, k)]
    index = {u: i for i, u in enumerate(units)}
    table = {}
    for i, (a, b) in enumerate(units):
        for j in range(i + 1, len(units)):
            c, d = units[j]
            entry = {}
            if b == c:
                entry[index[(a, d)]] = 1
            if d == a:
                entry[index[(c, b)]] = -1
            if entry:
                table[(i, j)] = entry
    return LieAlgebra(len(units), table)


def filiform(n):
    return LieAlgebra(n, {(0, i): {i + 1: 1} for i in range(1, n - 1)})


def assert_module_differentials_match(rep, degrees):
    for p in degrees:
        got = differential_matrix(rep, p)
        oracle = column_operator_matrix(lambda c: cochain_differential(rep, c),
                                        rep.algebra, p, rep.space_dim)
        assert got == oracle


def test_differential_matrix_matches_column_oracle_random(rng):
    for _ in range(12):
        L = rand_algebra(rng)
        for rep in (Representation.trivial(L, rng.randint(1, 2)), adjoint_rep(L)):
            assert_module_differentials_match(rep, range(4))


@pytest.mark.parametrize("build", [heisenberg3, filiform4, lambda: heisenberg(2),
                                   lambda: nilpotent(4), lambda: filiform(5)],
                         ids=["heisenberg3", "filiform4", "heisenberg5", "nilpotent4",
                              "filiform5"])
def test_differential_matrix_matches_column_oracle_families(build):
    L = build()
    assert not L.is_abelian()
    assert_module_differentials_match(Representation.trivial(L, 1), range(4))
    assert_module_differentials_match(adjoint_rep(L), range(4))


def assert_covariant_blocks_match(S, degrees):
    for p in degrees:
        got = operator_matrix(S.algebra, S.matrices, p, S.space_dim)
        oracle = column_operator_matrix(lambda c: covariant_differential(S, c),
                                        S.algebra, p, S.space_dim)
        assert got == oracle


@pytest.mark.parametrize("name", ["ext-heisenberg3", "ext-filiform4",
                                  "ext-heisenberg-kernel", "ext-sl2-kernel"])
def test_covariant_block_matches_column_oracle_catalog_systems(name):
    assert_covariant_blocks_match(catalog(name).S, range(4))


def test_covariant_block_matches_column_oracle_unvalidated_maps(rng):
    # The catalog systems' omega is center-valued, so their curvature
    # ad(omega) vanishes; random endomorphisms give a curved S.
    for _ in range(6):
        g = rand_algebra(rng)
        m = rng.randint(1, 3)
        S = OuterActionMap(g, [rand_matrix(rng, m, m) for _ in range(g.dim)],
                           validate=False)
        assert not curvature(S).is_zero()
        assert_covariant_blocks_match(S, range(4))


def curved_factor_system():
    """n4 over span(e12, e13, e14, e24), with the section e23, e34.

    omega(e23, e34) = e24 is not central in the ideal, since
    [e12, e24] = e14, so the curvature ad(omega) of S is nonzero.
    """
    total = nilpotent(4)   # basis e12, e13, e14, e23, e24, e34
    ideal, quotient = (0, 1, 2, 4), (3, 5)
    n_alg = LieAlgebra(4, {(0, 3): {2: 1}})
    inclusion = Matrix.from_columns([unit_vec(6, i) for i in ideal], rows=6)
    section = Matrix.from_columns([unit_vec(6, i) for i in quotient], rows=6)
    ext = ExtensionPresentation(total, n_alg, abelian(2), inclusion,
                                section.transpose(), section)
    return extract_factor_system(ext)


def test_curved_factor_system_matches_column_oracle():
    fs = curved_factor_system()
    assert fs.omega.component((0, 1)) == unit_vec(4, 3)
    assert not curvature(fs.S).is_zero()
    assert relative_cocycles(fs.S, fs.n).contains(fs.omega)
    assert_covariant_blocks_match(fs.S, range(4))


def test_operator_matrix_past_the_algebra_dimension():
    L = heisenberg3()
    for rep in (Representation.trivial(L, 2), adjoint_rep(L)):
        for p in (3, 4, 5):
            got = differential_matrix(rep, p)
            oracle = column_operator_matrix(lambda c: cochain_differential(rep, c),
                                            L, p, rep.space_dim)
            assert got == oracle
            assert (got.rows, got.cols) == (0, rep.space_dim if p == 3 else 0)
    assert differential_matrix(Representation.trivial(abelian(0), 1), 0) == Matrix.zero(0, 1)


def test_from_sparse_rows_fills_dense_rows():
    m = Matrix.from_sparse_rows([{1: 2}, {}, {0: -1, 2: 3}], 3)
    assert m == Matrix([[0, 2, 0], [0, 0, 0], [-1, 0, 3]])
    assert Matrix.from_sparse_rows([], 4) == Matrix.zero(0, 4)


def test_ad_stack_columns_are_flattened_ad_matrices(rng):
    for _ in range(10):
        L = rand_algebra(rng)
        stack = ad_stack(L)
        assert (stack.rows, stack.cols) == (L.dim * L.dim, L.dim)
        for k in range(L.dim):
            assert stack.column(k) == L.ad_matrix(k).flatten()
        assert center(L) == kernel(stack)


def test_derivations_match_dense_leibniz_oracle(rng):
    algebras = [heisenberg3(), sl2(), filiform4()]
    algebras += [rand_algebra(rng) for _ in range(30)]
    for L in algebras:
        assert derivations(L).subspace == kernel(dense_leibniz_system(L))


def test_leibniz_rows_offset_and_sparsity():
    L = direct_and_semidirect(heisenberg3(), filiform4())
    n = L.dim
    rows = leibniz_rows(L, offset=3)
    assert rows and all(col >= 3 and c != 0 for row in rows for col, c in row.items())
    dense = dense_leibniz_system(L)
    shifted = Matrix.from_sparse_rows(rows, n * n + 3)
    assert kernel(shifted).basis[3:] == tuple((ZERO,) * 3 + v for v in kernel(dense).basis)


def test_solve_inner_matches_stacked_oracle():
    rng = random.Random(7)
    outcomes = {"consistent": 0, "inconsistent": 0}
    for _ in range(60):
        L = rand_algebra(rng)
        n = L.dim
        targets = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.7:
                targets.append(L.ad(rand_vector(rng, n)).flatten())
            else:
                targets.append(rand_vector(rng, n * n))
        got = solve_inner(L, targets)
        assert got == stacked_inner_solve(L, targets)
        outcomes["consistent" if got[0] is not None else "inconsistent"] += 1
        if got[0] is None:
            rank = ad_stack(L).rank()
            assert got[1].row_index == len(targets) * rank
            assert got[1].row == unit_vec(len(targets) * n + 1, len(targets) * n)
    assert min(outcomes.values()) >= 10


@pytest.mark.parametrize("name", ["ext-heisenberg3", "ext-filiform4",
                                  "ext-heisenberg-kernel", "ext-sl2-kernel", "curved-n4"])
def test_extension_derivations_match_dense_builders(monkeypatch, name):
    fs = curved_factor_system() if name == "curved-n4" else catalog(name)
    report = extension_derivations(fs)

    def dense_rows(L, offset=0):
        return [dict(enumerate(row, offset)) for row in dense_leibniz_system(L).row_list()]

    monkeypatch.setattr(symmetry, "leibniz_rows", dense_rows)
    monkeypatch.setattr(symmetry, "solve_inner", stacked_inner_solve)
    oracle = extension_derivations(fs)
    assert report.as_dict() == oracle.as_dict()
    assert report.stabilizer_pairs == oracle.stabilizer_pairs
    assert report.stabilizer_gammas == oracle.stabilizer_gammas
    assert report.image_pairs == oracle.image_pairs
