"""The shared linear-system builders against the dense builders they replaced.

``dense_leibniz_system`` and ``stacked_inner_solve`` are the row-by-row
constructions the package used before ``leibniz_rows`` and
``solve_inner``; they stay here as oracles.  Row order and zero rows do
not change a reduced echelon form, so kernels, particular solutions and
certificates must agree exactly.
"""

import random

import pytest

from liecoh import symmetry
from liecoh.catalog import catalog, filiform4, heisenberg3, sl2
from liecoh.liealg import (ad_stack, center, derivations, direct_and_semidirect,
                           leibniz_rows, solve_inner)
from liecoh.linalg import ZERO, Matrix, kernel, solve_affine, unit_vec
from liecoh.symmetry import extension_derivations

from conftest import rand_algebra, rand_vector


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
                                  "ext-heisenberg-kernel", "ext-sl2-kernel"])
def test_extension_derivations_match_dense_builders(monkeypatch, name):
    fs = catalog(name)
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
