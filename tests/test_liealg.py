from fractions import Fraction

import pytest

import random

from liecoh.catalog import abelian, catalog, filiform4, heisenberg3, nonabelian2, sl2
from liecoh.errors import (DimensionMismatchError, JacobiError, NotAHomomorphismError,
                           NotAnIdealError, RepresentationError)
from liecoh.liealg import (LieAlgebra, Representation, adjoint_rep,
                           bracket_defect, bracket_preserving, center, change_of_basis,
                           check_jacobi, derivations, direct_and_semidirect,
                           is_derivation, product_algebra, quotient_algebra)
from liecoh.linalg import ONE, Matrix, Subspace, invert, pullback_family

from conftest import (as_column, basis_of, dense, dense_ad, dense_bracket,
                      dense_bracket_basis, dense_coeffs, is_full, nonzero_pairs, rand_algebra,
                      rand_fraction, rand_invertible, rand_matrix, unit_vec, vec_add, vec_scale,
                      vec_sub, zero_vec)


def test_jacobi_abelian_and_heisenberg():
    assert check_jacobi(abelian(4))
    assert check_jacobi(heisenberg3())


def test_jacobi_violation_rejected():
    # [e1,e2]=e3, [e2,e3]=e1, [e1,e3]=e1 breaks the cyclic sum on (e1,e2,e3)
    with pytest.raises(JacobiError) as exc:
        LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {0: 1}})
    assert exc.value.triple == (0, 1, 2)


def test_bracket_antisymmetry_synthesized():
    L = heisenberg3()
    assert L.bracket_basis(0, 1) == ((2, 1),)
    assert L.bracket_basis(1, 0) == ((2, -1),)
    assert L.bracket_basis(1, 1) == ()
    assert L.bracket({0: 1}, {0: 1}) == {}
    assert L.bracket({0: 1}, {1: 2}) == {2: 2}


def test_center_examples():
    assert is_full(center(abelian(3)))
    c = center(heisenberg3())
    assert basis_of(c) == ((Fraction(0), Fraction(0), Fraction(1)),)
    assert center(sl2()).is_zero()


def test_adjoint_rep():
    assert all(m.is_zero() for m in adjoint_rep(abelian(2)).matrices)
    h3 = heisenberg3()
    ad_p = adjoint_rep(h3).matrices[0]
    assert ad_p.column(1) == (0, 0, 1)  # q goes to z
    assert ad_p.column(0) == (0, 0, 0) and ad_p.column(2) == (0, 0, 0)
    ad_h = adjoint_rep(sl2()).matrices[2]
    assert ad_h == Matrix([[2, 0, 0], [0, -2, 0], [0, 0, 0]])


def test_representation_law_enforced():
    L = sl2()
    bad = [Matrix.identity(2), Matrix.zero(2, 2), Matrix.zero(2, 2)]
    with pytest.raises(RepresentationError):
        Representation(L, 2, bad)


def test_quotient_algebra():
    h3 = heisenberg3()
    q, proj, sect = quotient_algebra(h3, Subspace.zero(3))
    assert q == h3
    q, proj, sect = quotient_algebra(h3, center(h3))
    assert q.dim == 2 and q.is_abelian()
    assert (proj @ sect) == Matrix.identity(2)
    q, _, _ = quotient_algebra(h3, Subspace.full(3))
    assert q.dim == 0


def test_quotient_rejects_non_ideal():
    # span{e} is not an ideal of sl2
    with pytest.raises(NotAnIdealError):
        quotient_algebra(sl2(), Subspace.from_vectors(3, [(1, 0, 0)]))


def test_quotient_projection_is_homomorphism(rng):
    for _ in range(10):
        L = rand_algebra(rng)
        c = center(L)
        q, proj, _ = quotient_algebra(L, c)
        assert bracket_preserving(L, q, proj)


def test_derivations_dims():
    assert derivations(abelian(1)).dim == 1
    assert derivations(heisenberg3()).dim == 6
    d = derivations(sl2())
    assert d.dim == 3


def test_derivations_contain_inner_as_ideal():
    for L in (heisenberg3(), sl2(), nonabelian2()):
        d = derivations(L)
        inner = Subspace.row_space(Matrix.from_sparse_rows(d.inner_coords, d.dim))
        # the bracket of any derivation with an inner one stays inner
        for i in range(d.dim):
            for v in basis_of(inner):
                inner_mat = Matrix.zero(L.dim, L.dim)
                for k, c in enumerate(v):
                    if c != 0:
                        inner_mat = inner_mat + d.matrices[k].scale(c)
                comm = d.matrices[i].commutator(inner_mat)
                coords = d.subspace.coordinates_of(comm.flat_pairs())
                assert coords is not None
                assert not inner.reduce_entries(coords.items())


def test_derivations_of_semisimple_are_inner():
    d = derivations(sl2())
    inner = Subspace.row_space(Matrix.from_sparse_rows(d.inner_coords, d.dim))
    assert inner.dim == 3 == d.dim


def test_direct_sum_and_semidirect():
    both = direct_and_semidirect(abelian(1), abelian(1))
    assert both.is_abelian() and both.dim == 2

    # k acting on k by the identity: the nonabelian 2-dim algebra
    L = direct_and_semidirect(abelian(1), abelian(1), [Matrix([[1]])])
    assert not L.is_abelian()
    assert L.bracket_basis(0, 1) == ((0, -1),)

    # the plane under its defining sl2 action
    V = abelian(2)
    s = sl2()
    e = Matrix([[0, 1], [0, 0]])
    f = Matrix([[0, 0], [1, 0]])
    h = Matrix([[1, 0], [0, -1]])
    L5 = direct_and_semidirect(V, s, [e, f, h])
    assert L5.dim == 5
    assert check_jacobi(L5)


def test_semidirect_rejects_non_homomorphism():
    V = abelian(2)
    s = sl2()
    with pytest.raises(NotAHomomorphismError):
        direct_and_semidirect(V, s, [Matrix.identity(2)] * 3)


def test_semidirect_rejects_non_derivation():
    with pytest.raises(NotAHomomorphismError):
        direct_and_semidirect(heisenberg3(), abelian(1), [Matrix.identity(3)])


def test_linear_lie_map_flags():
    h3 = heisenberg3()
    assert bracket_preserving(abelian(1), h3, Matrix.from_columns([(0, 0, 1)], rows=3))
    assert not bracket_preserving(h3, abelian(3), Matrix.identity(3))
    assert is_derivation(h3, Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    assert not is_derivation(h3, Matrix.identity(3))


def test_is_derivation():
    h3 = heisenberg3()
    assert is_derivation(h3, Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]]))
    assert not is_derivation(h3, Matrix.identity(3))


def test_change_of_basis_preserves_jacobi(rng):
    for _ in range(10):
        L = rand_algebra(rng)
        assert check_jacobi(L)
        P = rand_invertible(rng, L.dim)
        assert check_jacobi(change_of_basis(L, P))


# ---------------------------------------------------------------------------
# the former table scan, dense law and Jacobi checks and product-table
# builder, kept as oracles
# ---------------------------------------------------------------------------

def scan_bracket(L, u, v):
    """The former LieAlgebra.bracket: scan the whole table for every coefficient."""
    out = zero_vec(L.dim)
    for i, a in enumerate(u):
        if a == 0:
            continue
        for (x, y), w in L.structure_table().items():
            if i not in (x, y):
                continue
            c = a * v[y] if x == i else -a * v[x]
            if c != 0:
                out = vec_add(out, vec_scale(c, dense(w, L.dim)))
    return out


def sparse_vector(rng, n):
    return tuple(rand_fraction(rng) if rng.random() < 0.6 else Fraction(0) for _ in range(n))


def test_bracket_matches_table_scan(rng):
    algebras = [heisenberg3(), sl2(), filiform4(), abelian(3)]
    algebras += [rand_algebra(rng) for _ in range(20)]
    for L in algebras:
        n = L.dim
        units = [unit_vec(n, i) for i in range(n)]
        vectors = units + [sparse_vector(rng, n) for _ in range(6)]
        for u in vectors:
            for v in vectors:
                got = L.bracket(as_column(u), as_column(v))
                assert dense(got, n) == scan_bracket(L, u, v) == dense_bracket(L, u, v)
                assert all(type(x) is Fraction and x for x in got.values())
            # ad u as the package reads it: the adjoint family pulled back along u
            ad = pullback_family(L.ad_matrices(), Matrix.from_columns([u], rows=n), n)[0]
            assert ad == dense_ad(L, u)
            assert ad == Matrix.from_columns([scan_bracket(L, u, e) for e in units], rows=n)
        for i in range(n):
            assert L.bracket({i: ONE}, {i: ONE}) == {}
            for j in range(n):
                assert L.bracket({i: ONE}, {j: ONE}) == dict(L.bracket_basis(i, j))


def dense_law_failure(algebra, matrices):
    """The former Representation check on dense row lists, first failing pair or None."""
    rows = [[list(m.row(r)) for r in range(m.rows)] for m in matrices]
    size = matrices[0].rows if matrices else 0

    def product(a, b):
        return [[sum((a[r][k] * b[k][c] for k in range(size)), Fraction(0))
                 for c in range(size)] for r in range(size)]

    for i in range(algebra.dim):
        for j in range(i + 1, algebra.dim):
            ab, ba = product(rows[i], rows[j]), product(rows[j], rows[i])
            lhs = [[x - y for x, y in zip(p, q)] for p, q in zip(ab, ba)]
            rhs = [[Fraction(0)] * size for _ in range(size)]
            for k, c in enumerate(dense_bracket_basis(algebra, i, j)):
                for r in range(size):
                    for col in range(size):
                        rhs[r][col] += c * rows[k][r][col]
            if lhs != rhs:
                return (i, j)
    return None


def test_representation_law_failure_names_the_dense_pair(rng):
    pairs = set()
    for _ in range(60):
        # standard bases have sparse brackets, so later pairs fail first too
        L = rng.choice((heisenberg3, sl2, filiform4, lambda: rand_algebra(rng)))()
        base = adjoint_rep(L).matrices if rng.random() < 0.7 else \
            Representation.trivial(L, 2).matrices
        size = base[0].rows
        broken = list(base)
        for _ in range(rng.randint(1, 2)):
            k, r, c = rng.randrange(L.dim), rng.randrange(size), rng.randrange(size)
            shift = rand_fraction(rng) or Fraction(1)
            if rng.random() < 0.5:
                # a multiple of the identity leaves every commutator alone and
                # breaks exactly the pairs whose bracket has an e_k component
                broken[k] = broken[k] + Matrix.identity(size).scale(shift)
            else:
                rows = [list(row) for row in broken[k].row_list()]
                rows[r][c] += shift
                broken[k] = Matrix(rows, cols=size)
        expected = dense_law_failure(L, broken)
        if expected is None:
            assert Representation(L, size, broken).matrices == tuple(broken)
            continue
        with pytest.raises(RepresentationError) as exc:
            Representation(L, size, broken)
        assert exc.value.pair == expected
        pairs.add(expected)
    assert len(pairs) >= 3


def dense_jacobi_failure(L):
    """The former Jacobi check: three dense brackets per triple i < j < k."""
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            eij = dense_bracket_basis(L, i, j)
            for k in range(j + 1, L.dim):
                total = dense_bracket(L, eij, unit_vec(L.dim, k))
                total = vec_add(total, dense_bracket(L, dense_bracket_basis(L, j, k),
                                                     unit_vec(L.dim, i)))
                total = vec_add(total, dense_bracket(L, dense_bracket_basis(L, k, i),
                                                     unit_vec(L.dim, j)))
                if any(total):
                    return (i, j, k)
    return None


def nilpotent4():
    """Strictly upper-triangular 4 x 4 matrices, basis e12, e13, e14, e23, e24, e34."""
    return LieAlgebra(6, {(0, 3): {1: 1}, (0, 4): {2: 1}, (1, 5): {2: 1},
                          (3, 5): {4: 1}})


def unchecked_algebra(dim, table):
    """LieAlgebra(dim, table) built with the constructor's Jacobi check patched out."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LieAlgebra, "_jacobi_failure", lambda self: None)
        return LieAlgebra(dim, table)


def test_jacobi_failure_matches_dense_oracle():
    rng = random.Random(23)
    triples = set()
    passed = 0
    bases = (heisenberg3, sl2, filiform4, nilpotent4,
             lambda: direct_and_semidirect(heisenberg3(), nonabelian2()))
    for _ in range(150):
        L = rng.choice(bases)()
        table = {pair: dict(w) for pair, w in L.structure_table().items()}
        for _ in range(rng.randint(1, 2)):
            i, j = sorted(rng.sample(range(L.dim), 2))
            table.setdefault((i, j), {})[rng.randrange(L.dim)] = rand_fraction(rng)
        broken = unchecked_algebra(L.dim, table)
        expected = dense_jacobi_failure(broken)
        assert broken._jacobi_failure() == expected
        if expected is None:
            passed += 1
            assert LieAlgebra(L.dim, table) == broken
            continue
        triples.add(expected)
        with pytest.raises(JacobiError) as exc:
            LieAlgebra(L.dim, table)
        assert exc.value.triple == expected
    assert len(triples) >= 10 and passed >= 5


def put_product_table(n_alg, g_alg, S, omega):
    """The former product-bracket builder of build_extension and direct_and_semidirect."""
    nd, gd = n_alg.dim, g_alg.dim
    table = {}

    def put(i, j, vec):
        entry = {k: c for k, c in enumerate(vec) if c != 0}
        if entry:
            table[(i, j)] = entry

    for i in range(nd):
        for j in range(i + 1, nd):
            put(i, j, tuple(dense_bracket_basis(n_alg, i, j)) + zero_vec(gd))
    for i in range(nd):
        for a in range(gd):
            put(i, nd + a, tuple(vec_scale(Fraction(-1), S[a].column(i))) + zero_vec(gd))
    for a in range(gd):
        for b in range(a + 1, gd):
            put(nd + a, nd + b,
                tuple(omega.get((a, b), zero_vec(nd))) + tuple(dense_bracket_basis(g_alg, a, b)))
    return table


def assert_product_matches_oracle(n_alg, g_alg, S, omega, got):
    expected = put_product_table(n_alg, g_alg, S, omega)
    assert got == LieAlgebra(n_alg.dim + g_alg.dim, expected)
    assert list(got.structure_table()) == list(expected)
    assert got.labels == (tuple(f"n.{l}" for l in n_alg.labels)
                          + tuple(f"g.{l}" for l in g_alg.labels))


@pytest.mark.parametrize("name", ["ext-heisenberg3", "ext-filiform4",
                                  "ext-heisenberg-kernel", "ext-sl2-kernel"])
def test_product_algebra_matches_put_oracle_catalog_systems(name):
    from liecoh.extensions import build_extension
    fs = catalog(name)
    omega = dense_coeffs(fs.omega)
    assert_product_matches_oracle(fs.n, fs.g, fs.S.matrices, omega,
                                  build_extension(fs).total)
    columns = {key: as_column(vec) for key, vec in omega.items()}
    assert_product_matches_oracle(fs.n, fs.g, fs.S.matrices, omega,
                                  product_algebra(fs.n, fs.g, fs.S.matrices, columns))


def test_semidirect_matches_put_oracle(rng):
    for _ in range(10):
        n_alg = rand_algebra(rng, max_dim=3)
        g_alg = abelian(rng.randint(0, 2))
        # commuting derivations: multiples of one derivation of n
        d = derivations(n_alg)
        base = d.matrices[rng.randrange(d.dim)] if d.dim else Matrix.zero(n_alg.dim, n_alg.dim)
        S = [base.scale(rand_fraction(rng)) for _ in range(g_alg.dim)]
        assert_product_matches_oracle(n_alg, g_alg, S, {},
                                      direct_and_semidirect(n_alg, g_alg, S))
    V, s = abelian(2), sl2()
    S = [Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]]), Matrix([[1, 0], [0, -1]])]
    assert_product_matches_oracle(V, s, S, {}, direct_and_semidirect(V, s, S))


# ---------------------------------------------------------------------------
# the bracket defect against the former bracket_preserving loop
# ---------------------------------------------------------------------------

def loop_bracket_preserving(source, target, m):
    """The former bracket_preserving: compare both sides pair by pair."""
    for i in range(source.dim):
        for j in range(i + 1, source.dim):
            if (m.matvec(dense_bracket_basis(source, i, j))
                    != dense_bracket(target, m.column(i), m.column(j))):
                return False
    return True


def loop_bracket_defect(source, target, m):
    """[m e_i, m e_j] - m[e_i, e_j] on every increasing pair, zeros dropped, as
    dict columns."""
    out = {}
    for i in range(source.dim):
        for j in range(i + 1, source.dim):
            w = vec_sub(dense_bracket(target, m.column(i), m.column(j)),
                        m.matvec(dense_bracket_basis(source, i, j)))
            if any(w):
                out[(i, j)] = as_column(w)
    return out


def seeded_linear_maps(rng):
    """Homomorphisms (basis changes, quotient maps, zero maps) and seeded
    perturbations and random maps that mostly are not."""
    maps = []
    for _ in range(12):
        L = rand_algebra(rng)
        p = rand_invertible(rng, L.dim)
        maps.append((change_of_basis(L, p), L, p))
        q, proj, sect = quotient_algebra(L, center(L))
        maps += [(L, q, proj), (q, L, sect), (L, L, Matrix.zero(L.dim, L.dim))]
        maps.append((change_of_basis(L, p), L, p + rand_matrix(rng, L.dim, L.dim)))
        other = rand_algebra(rng)
        maps.append((L, other, rand_matrix(rng, other.dim, L.dim)))
    return maps


def test_bracket_defect_is_empty_exactly_when_the_loop_preserves_brackets():
    rng = random.Random(47)
    verdicts = set()
    for source, target, m in seeded_linear_maps(rng):
        defect = bracket_defect(source, target, m)
        assert defect == loop_bracket_defect(source, target, m)
        preserving = loop_bracket_preserving(source, target, m)
        assert (not defect) == preserving == bracket_preserving(source, target, m)
        verdicts.add(preserving)
    assert verdicts == {True, False}
    with pytest.raises(DimensionMismatchError):
        bracket_defect(sl2(), sl2(), Matrix.identity(2))


# ---------------------------------------------------------------------------
# the stored nonzero pairs against the former dense table
# ---------------------------------------------------------------------------

def former_table(dim, brackets):
    """The former LieAlgebra table: one dense coefficient tuple per nonzero bracket."""
    table = {}
    for (i, j), entry in brackets.items():
        vec = [Fraction(0)] * dim
        for k, c in entry.items():
            vec[int(k)] = Fraction(c)
        if any(vec):
            table[(i, j)] = tuple(vec)
    return table


def former_bracket_basis(table, dim, i, j):
    """The former LieAlgebra.bracket_basis, read from a former table."""
    v = table.get((min(i, j), max(i, j)))
    if v is None:
        return zero_vec(dim)
    return v if i < j else vec_scale(Fraction(-1), v)


def former_change_of_basis(table, dim, P):
    """The former table of the algebra in the basis of P's columns:
    P^-1 [P e_i, P e_j], expanded over dense basis brackets."""
    P_inv = invert(P)
    out = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            w = zero_vec(dim)
            for a in range(dim):
                for b in range(dim):
                    c = P.entry(a, i) * P.entry(b, j)
                    if c:
                        w = vec_add(w, vec_scale(c, former_bracket_basis(table, dim, a, b)))
            w = P_inv.matvec(w)
            if any(w):
                out[(i, j)] = w
    return out


def assert_pairs_match(L, table):
    assert L.structure_table() == {pair: tuple(nonzero_pairs(v)) for pair, v in table.items()}
    for i in range(L.dim):
        for j in range(L.dim):
            expected = tuple(nonzero_pairs(former_bracket_basis(table, L.dim, i, j)))
            assert L.bracket_basis(i, j) == expected
            assert all(type(c) is Fraction for _, c in expected)


def family_inputs():
    """(dim, brackets) of the catalog algebras as their docstrings state them, of
    the Heisenberg, nilpotent and filiform families, and of tables with zero
    and unsorted value entries."""
    inputs = [(3, {(0, 1): {2: 1}}), (3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}),
              (2, {(0, 1): {0: 1}}), (4, {(0, 1): {2: 1}, (0, 2): {3: 1}}), (3, {}),
              (3, {(0, 1): {2: 0}}), (3, {(0, 1): {1: 0, 2: "1/2"}}),
              (4, {(0, 1): {3: 1, 2: -1}, (0, 2): {3: Fraction(2, 3)}})]
    for k in range(1, 4):
        inputs.append((2 * k + 1, {(i, k + i): {2 * k: 1} for i in range(k)}))
    for k in range(2, 5):
        units = [(a, b) for a in range(k) for b in range(a + 1, k)]
        table = {}
        for i, (a, b) in enumerate(units):
            for j in range(i + 1, len(units)):
                c, d = units[j]
                entry = {}
                if b == c:
                    entry[units.index((a, d))] = 1
                if d == a:
                    entry[units.index((c, b))] = -1
                if entry:
                    table[(i, j)] = entry
        inputs.append((len(units), table))
    for n in range(3, 7):
        inputs.append((n, {(0, i): {i + 1: 1} for i in range(1, n - 1)}))
    return inputs


def test_stored_pairs_match_the_former_dense_table(rng):
    for name, (dim, brackets) in zip(("heisenberg3", "sl2", "nonabelian2", "filiform4"),
                                     family_inputs()):
        assert catalog(name) == LieAlgebra(dim, brackets)
    for dim, brackets in family_inputs():
        L = LieAlgebra(dim, brackets)
        table = former_table(dim, brackets)
        assert_pairs_match(L, table)
        for _ in range(3):
            P = rand_invertible(rng, dim)
            assert_pairs_match(change_of_basis(L, P), former_change_of_basis(table, dim, P))
