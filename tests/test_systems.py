"""The shared linear-system builders against the dense builders they replaced.

``dense_leibniz_system`` and ``stacked_inner_solve`` are the row-by-row
constructions the package used before ``leibniz_rows`` and
``solve_inner``, and ``column_operator_matrix`` is the column-by-column
builder used before the row-wise ``operator_matrix``; they stay here as
oracles.  ``loop_cochain_differential`` (the per-key loop) and
``wedge_covariant_differential`` (S wedged in by the evaluation pairing)
are the differentials the package computed before all of them applied
``operator_matrix``; the column oracle is built from them, so it does not
compare ``operator_matrix`` with itself.  ``hand_omega_rows`` is the
hand-written d_S gamma block of the derivation-pair system.  Row order
and zero rows do not change a reduced echelon form, so kernels,
particular solutions and certificates must agree exactly; operator
matrices and cochains must agree entry for entry.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from liecoh import extensions, symmetry
from liecoh.catalog import abelian, catalog, filiform4, heisenberg3, sl2
from liecoh.cochains import (Cochain, EquivariantPairing, OuterActionMap,
                             check_degree, cochain_differential, cochain_space_dim,
                             covariant_differential, curvature, increasing_tuples,
                             operator_matrix, trivial_differential, wedge)
from liecoh.cohomology import differential_matrix, relative_cocycles
from liecoh.errors import DimensionMismatchError
from liecoh.extensions import ExtensionPresentation, extract_factor_system
from liecoh.liealg import (LieAlgebra, Representation, ad_stack, adjoint_rep,
                           center, derivations, direct_and_semidirect,
                           leibniz_rows, solve_inner)
from liecoh.linalg import ZERO, Matrix, kernel
from liecoh.symmetry import _pair_system_rows, extension_derivations

from conftest import (basis_of, coordinates, dense, dense_act, dense_ad, dense_bracket_basis,
                      dense_coeffs, dense_solve_affine, dense_solve_inner, flat, is_trivial,
                      nonzero_pairs, rand_algebra, rand_cochain, rand_matrix, rand_vector,
                      unit_vec, value_at_indices, vec_add, vec_is_zero, vec_scale)


def dense_leibniz_system(L):
    """D[e_i, e_j] = [D e_i, e_j] + [e_i, D e_j], one dense row per (i < j, a)."""
    n = L.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = dense_bracket_basis(L, i, j)
            for a in range(n):
                row = [ZERO] * (n * n)
                for k, c in enumerate(cij):
                    if c != 0:
                        row[a * n + k] += c
                for k in range(n):
                    ckj = dense_bracket_basis(L, k, j)
                    if ckj[a] != 0:
                        row[k * n + i] -= ckj[a]
                    cik = dense_bracket_basis(L, i, k)
                    if cik[a] != 0:
                        row[k * n + j] -= cik[a]
                rows.append(tuple(row))
    return Matrix(rows, cols=n * n) if rows else Matrix.zero(0, n * n)


def stacked_inner_system(L, targets):
    """ad(x_r) = targets[r] as one block-diagonal system of s ad blocks: its
    dense rows and right-hand side."""
    nd, s = L.dim, len(targets)
    ad_cols = [flat(L.ad_matrix(k)) for k in range(nd)]
    rows = []
    rhs = []
    for a in range(s):
        target = flat(targets[a])
        for flat_idx in range(nd * nd):
            row = [0] * (s * nd)
            for k in range(nd):
                row[a * nd + k] = ad_cols[k][flat_idx]
            rows.append(row)
            rhs.append(target[flat_idx])
    return rows, rhs


def stacked_inner_solve(L, targets):
    """The block-diagonal system of stacked_inner_system, solved densely; the
    particular solution comes back as its nonzero pairs."""
    rows, rhs = stacked_inner_system(L, targets)
    cols = L.dim * len(targets)
    system = Matrix(rows, cols=cols) if rows else Matrix.zero(0, cols)
    particular, _, certificate = dense_solve_affine(system, rhs)
    return (None if particular is None else nonzero_pairs(particular)), certificate


def loop_cochain_differential(rep, c):
    """(df)(x_0..x_p) = sum_j (-1)^j x_j.f(..omit j..)
                      + sum_{i<j} (-1)^{i+j} f([x_i,x_j], ..omit i,j..), key by key."""
    p = c.degree
    check_degree(p + 1)
    L = c.algebra
    trivial, values = is_trivial(rep), dense_coeffs(c)
    table = {}
    for key in increasing_tuples(L.dim, p + 1):
        total = (ZERO,) * c.value_dim
        if not trivial:
            for j in range(p + 1):
                val = values.get(key[:j] + key[j + 1:])
                if val is None:
                    continue
                term = dense_act(rep, key[j], val)
                if j % 2:
                    term = vec_scale(Fraction(-1), term)
                total = vec_add(total, term)
        for i in range(p + 1):
            for j in range(i + 1, p + 1):
                bracket = dense_bracket_basis(L, key[i], key[j])
                if vec_is_zero(bracket):
                    continue
                rest = tuple(key[r] for r in range(p + 1) if r != i and r != j)
                sign = -1 if (i + j) % 2 else 1
                for k, coeff in enumerate(bracket):
                    if coeff == 0:
                        continue
                    val = value_at_indices(c, (k,) + rest)
                    if vec_is_zero(val):
                        continue
                    total = vec_add(total, vec_scale(sign * coeff, val))
        if not vec_is_zero(total):
            table[key] = total
    return Cochain(L, p + 1, c.value_dim, table)


def loop_trivial_differential(c):
    return loop_cochain_differential(Representation.trivial(c.algebra, c.value_dim), c)


def wedge_covariant_differential(S, c):
    """S wedge c through the evaluation pairing, plus the trivial differential."""
    ev = EquivariantPairing.evaluation(S.space_dim)
    return wedge(ev, S.as_end_cochain(), c) + loop_trivial_differential(c)


def hand_omega_rows(fs, va, vb):
    """alpha(omega(i,j)) - omega(beta e_i, e_j) - omega(e_i, beta e_j)
    - (d_S gamma)(i, j) = 0 with d_S gamma written out by hand."""
    S, omega = fs.S, fs.omega
    nd, gd = fs.n.dim, fs.g.dim
    rows = []
    for key in increasing_tuples(gd, 2):
        i, j = key
        w = omega.component(key)
        for r in range(nd):
            row = Counter()
            for k in range(nd):
                row[r * nd + k] += w[k]
            for b in range(gd):
                row[va + b * gd + i] -= value_at_indices(omega, (b, j))[r]
                row[va + b * gd + j] -= value_at_indices(omega, (i, b))[r]
            # (d_S gamma)(e_i, e_j) = S_i gamma_j - S_j gamma_i - gamma([e_i, e_j])
            for k in range(nd):
                row[va + vb + j * nd + k] -= S.matrices[i].entry(r, k)
                row[va + vb + i * nd + k] += S.matrices[j].entry(r, k)
            for b, c in enumerate(dense_bracket_basis(fs.g, i, j)):
                row[va + vb + b * nd + r] += c
            rows.append(row)
    return rows


def column_operator_matrix(fn, algebra, p, value_dim):
    """Matrix of a linear cochain operator, one basis cochain per column."""
    cols = []
    for key in increasing_tuples(algebra.dim, p):
        for comp in range(value_dim):
            vec = [0] * value_dim
            vec[comp] = 1
            cols.append(coordinates(fn(Cochain(algebra, p, value_dim, {key: vec}))))
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
        oracle = column_operator_matrix(lambda c: loop_cochain_differential(rep, c),
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
        oracle = column_operator_matrix(lambda c: wedge_covariant_differential(S, c),
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
        S = OuterActionMap(g, [rand_matrix(rng, m, m) for _ in range(g.dim)])
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
            oracle = column_operator_matrix(lambda c: loop_cochain_differential(rep, c),
                                            L, p, rep.space_dim)
            assert got == oracle
            assert (got.rows, got.cols) == (0, rep.space_dim if p == 3 else 0)
    assert differential_matrix(Representation.trivial(abelian(0), 1), 0) == Matrix.zero(0, 1)


def assert_same_cochain(got, expected):
    assert got == expected
    assert all(type(x) is Fraction for vec in dense_coeffs(got).values() for x in vec)


def test_differentials_match_loop_and_wedge_oracles(rng):
    for _ in range(12):
        L = rand_algebra(rng)
        m = rng.randint(1, 3)
        maps = [OuterActionMap(L, [rand_matrix(rng, m, m) for _ in range(L.dim)]),
                OuterActionMap(L, adjoint_rep(L).matrices)]
        reps = [Representation.trivial(L, m), adjoint_rep(L)]
        for p in range(4):
            for rep, S in zip(reps, maps):
                c = rand_cochain(rng, L, p, rep.space_dim, sparsity=0.4)
                assert_same_cochain(cochain_differential(rep, c),
                                    loop_cochain_differential(rep, c))
                assert_same_cochain(trivial_differential(c), loop_trivial_differential(c))
                c = rand_cochain(rng, L, p, S.space_dim, sparsity=0.4)
                assert_same_cochain(covariant_differential(S, c),
                                    wedge_covariant_differential(S, c))


@pytest.mark.parametrize("name", ["ext-heisenberg3", "ext-filiform4",
                                  "ext-heisenberg-kernel", "ext-sl2-kernel", "curved-n4"])
def test_covariant_differential_matches_wedge_oracle_catalog_systems(name):
    rng = random.Random(11)
    fs = curved_factor_system() if name == "curved-n4" else catalog(name)
    for p in range(4):
        c = rand_cochain(rng, fs.g, p, fs.n.dim)
        assert_same_cochain(covariant_differential(fs.S, c),
                            wedge_covariant_differential(fs.S, c))
    assert_same_cochain(covariant_differential(fs.S, fs.omega),
                        wedge_covariant_differential(fs.S, fs.omega))


@pytest.mark.parametrize("name", ["ext-heisenberg3", "ext-filiform4",
                                  "ext-heisenberg-kernel", "ext-sl2-kernel", "curved-n4"])
def test_pair_system_omega_rows_match_hand_written_block(name):
    fs = curved_factor_system() if name == "curved-n4" else catalog(name)
    _, omega_rows, nvars, va, vb = _pair_system_rows(fs)
    got = Matrix.from_sparse_rows(omega_rows, nvars)
    assert got == Matrix.from_sparse_rows(hand_omega_rows(fs, va, vb), nvars)
    assert got.rows == cochain_space_dim(fs.g.dim, 2, fs.n.dim)


def test_from_sparse_rows_fills_dense_rows():
    m = Matrix.from_sparse_rows([{1: 2}, {}, {0: -1, 2: 3}], 3)
    assert m == Matrix([[0, 2, 0], [0, 0, 0], [-1, 0, 3]])
    assert Matrix.from_sparse_rows([], 4) == Matrix.zero(0, 4)
    # zero values are dropped and ints converted, so the dict rows hold
    # nonzero Fractions only
    m = Matrix.from_sparse_rows([{0: 0, 1: "1/2"}, {2: Fraction(0), 0: "0"}], 3)
    assert m.sparse_rows() == ({1: Fraction(1, 2)}, {})
    assert type(m.sparse_rows()[0][1]) is Fraction
    for bad in ({3: 1}, {-1: 1}):
        with pytest.raises(DimensionMismatchError):
            Matrix.from_sparse_rows([bad], 3)


def test_ad_stack_columns_are_flattened_ad_matrices(rng):
    for _ in range(10):
        L = rand_algebra(rng)
        stack = ad_stack(L)
        assert (stack.rows, stack.cols) == (L.dim * L.dim, L.dim)
        for k in range(L.dim):
            assert stack.column(k) == flat(L.ad_matrix(k))
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
    assert basis_of(kernel(shifted))[3:] == tuple((ZERO,) * 3 + v for v in basis_of(kernel(dense)))


def test_solve_inner_matches_stacked_oracle():
    """solve_inner on target matrices against the block-diagonal system and
    against the former dense solve_inner on flattened targets: equal
    particular solutions, and equal certificates where a target is not inner."""
    rng = random.Random(7)
    outcomes = {"consistent": 0, "inconsistent": 0}
    for _ in range(60):
        L = rand_algebra(rng)
        n = L.dim
        targets = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.7:
                targets.append(dense_ad(L, rand_vector(rng, n)))
            else:
                targets.append(Matrix.from_flat(enumerate(rand_vector(rng, n * n)), n, n))
        got = solve_inner(L, targets)
        assert got == stacked_inner_solve(L, targets)
        particular, certificate = dense_solve_inner(L, [flat(t) for t in targets])
        assert certificate == got[1]
        if particular is not None:
            assert dense(got[0], len(targets) * n) == particular
            assert got[0] == nonzero_pairs(particular)
        outcomes["consistent" if got[0] is not None else "inconsistent"] += 1
        if got[0] is None:
            rank = ad_stack(L).rank()
            assert got[1].row_index == len(targets) * rank
            # the 0 = 1 row follows one row per pivot of the stacked system:
            # its index is the system's rank, one less than the augmented rank
            rows, rhs = stacked_inner_system(L, targets)
            assert got[1].row_index == sympy.Matrix(rows).rank()
            assert (sympy.Matrix([row + [b] for row, b in zip(rows, rhs)]).rank()
                    == got[1].row_index + 1)
    assert min(outcomes.values()) >= 10


@pytest.mark.parametrize("name", ["ext-heisenberg3", "ext-filiform4",
                                  "ext-heisenberg-kernel", "ext-sl2-kernel", "curved-n4"])
def test_extension_derivations_match_dense_builders(monkeypatch, name):
    fs = curved_factor_system() if name == "curved-n4" else catalog(name)
    report = extension_derivations(fs)

    def dense_rows(L, offset=0):
        return [dict(enumerate(row, offset)) for row in dense_leibniz_system(L).row_list()]

    monkeypatch.setattr(symmetry, "leibniz_rows", dense_rows)
    monkeypatch.setattr(extensions, "solve_inner", stacked_inner_solve)
    oracle = extension_derivations(fs)
    assert report.as_dict() == oracle.as_dict()
    assert report.stabilizer_pairs == oracle.stabilizer_pairs
    assert report.stabilizer_gammas == oracle.stabilizer_gammas
    assert report.image_pairs == oracle.image_pairs
