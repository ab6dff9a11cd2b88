import random
from fractions import Fraction
from itertools import combinations

import pytest

from liecoh.catalog import (abelian, ext_heisenberg_kernel, filiform4, heisenberg3,
                            nonabelian2, sl2)
from liecoh.cochains import (Cochain, EquivariantPairing, HALF, OuterActionMap,
                             cochain_differential, covariant_differential,
                             curvature, differential_operator, gauge_action, key_rank,
                             key_unrank, operator_matrix, superbracket, trivial_differential,
                             wedge)
from liecoh.cohomology import differential_matrix
from liecoh.config import degree_cap
from liecoh.errors import (DegreeCapExceededError, DegreeMismatchError,
                           DimensionMismatchError, InvariantViolation)
from liecoh.extensions import build_extension, extract_factor_system
from liecoh.liealg import LieAlgebra, Representation, adjoint_rep
from liecoh.linalg import Matrix

from conftest import (DensePairing, composition, coordinates, dense_ad, dense_bracket,
                      dense_coeffs, dense_wedge, from_coordinates, rand_algebra, rand_cochain,
                      rand_matrix, rand_vector, scalar_multiplication, value_at_indices,
                      vector_cochain)


def test_evaluate_alternation(rng):
    L = heisenberg3()
    c = rand_cochain(rng, L, 2, 2)
    x = rand_vector(rng, 3)
    y = rand_vector(rng, 3)
    assert c.evaluate([x, x]) == (0, 0)
    swapped = c.evaluate([y, x])
    straight = c.evaluate([x, y])
    assert swapped == tuple(-v for v in straight)
    assert value_at_indices(c, (0, 1)) == c.component((0, 1))
    assert value_at_indices(c, (1, 0)) == tuple(-v for v in c.component((0, 1)))
    # a value known to be nonzero, so a read of the reversed key (always zero) fails
    c = Cochain(L, 2, 2, {(0, 1): (1, -2), (1, 2): (3, 0)})
    e0, e1 = (1, 0, 0), (0, 1, 0)
    assert c.evaluate([e0, e1]) == c.component((0, 1)) == (1, -2)
    assert c.evaluate([e1, e0]) == (-1, 2)


def test_degree_errors():
    L = abelian(2)
    c = Cochain(L, 1, 1, {(0,): (1,)})
    with pytest.raises(DegreeMismatchError):
        c.evaluate([(1, 0), (0, 1)])
    with pytest.raises(DegreeCapExceededError):
        Cochain(L, degree_cap() + 1, 1)


def test_differential_heisenberg_dual():
    L = heisenberg3()
    triv = Representation.trivial(L, 1)
    theta = Cochain(L, 1, 1, {(2,): (1,)})
    d = cochain_differential(triv, theta)
    assert d.component((0, 1)) == (Fraction(-1),)
    assert d.component((0, 2)) == (0,) and d.component((1, 2)) == (0,)


def test_differential_zero_cochain():
    L = sl2()
    z = Cochain.zero(L, 2, 3)
    assert cochain_differential(adjoint_rep(L), z).is_zero()


def test_d_squared_zero_adjoint(rng):
    L = sl2()
    rep = adjoint_rep(L)
    for p in (0, 1, 2):
        c = rand_cochain(rng, L, p, 3)
        dd = cochain_differential(rep, cochain_differential(rep, c))
        assert dd.is_zero()


def test_d_squared_zero_random_modules(rng):
    for _ in range(25):
        L = rand_algebra(rng)
        rep = adjoint_rep(L)
        p = rng.randint(0, min(3, L.dim))
        c = rand_cochain(rng, L, p, L.dim)
        dd = cochain_differential(rep, cochain_differential(rep, c))
        assert dd.is_zero()


def test_wedge_degree_one_pair():
    L = abelian(2)
    m = scalar_multiplication()
    a = Cochain(L, 1, 1, {(0,): (1,)})
    b = Cochain(L, 1, 1, {(1,): (1,)})
    w = wedge(m, a, b)
    assert w.component((0, 1)) == (Fraction(1),)


def test_wedge_graded_commutativity(rng):
    # antisymmetric pairings swap with (-1)^{pq+1}, symmetric with (-1)^{pq}
    V = heisenberg3()
    bracket = EquivariantPairing.lie_bracket(V)
    scalar = scalar_multiplication()
    for _ in range(40):
        L = rand_algebra(rng)
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        if p + q > L.dim:
            continue
        a = rand_cochain(rng, L, p, 3)
        b = rand_cochain(rng, L, q, 3)
        assert wedge(bracket, a, b) == wedge(bracket, b, a).scale((-1) ** (p * q + 1))
        a1 = rand_cochain(rng, L, p, 1)
        b1 = rand_cochain(rng, L, q, 1)
        assert wedge(scalar, a1, b1) == wedge(scalar, b1, a1).scale((-1) ** (p * q))


def test_wedge_associativity_endomorphism_pairings(rng):
    # composition then evaluation associates with evaluation twice
    for _ in range(25):
        L = rand_algebra(rng)
        V = rng.randint(1, 3)
        comp = composition(V)
        ev = EquivariantPairing.evaluation(V)
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        r = rng.randint(0, 2)
        if p + q + r > L.dim:
            continue
        a = rand_cochain(rng, L, p, V * V)
        b = rand_cochain(rng, L, q, V * V)
        c = rand_cochain(rng, L, r, V)
        assert wedge(ev, wedge(comp, a, b), c) == wedge(ev, a, wedge(ev, b, c))


def test_leibniz_rule(rng):
    # d(a wedge b) = da wedge b + (-1)^p a wedge db, adjoint modules with
    # the bracket pairing (equivariance is the Jacobi identity)
    for _ in range(25):
        L = rand_algebra(rng)
        rep = adjoint_rep(L)
        m = EquivariantPairing(L.dim, L.dim, L.dim, L.bracket)
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        if p + q + 1 > L.dim:
            continue
        a = rand_cochain(rng, L, p, L.dim)
        b = rand_cochain(rng, L, q, L.dim)
        lhs = cochain_differential(rep, wedge(m, a, b))
        rhs = (wedge(m, cochain_differential(rep, a), b)
               + wedge(m, a, cochain_differential(rep, b)).scale((-1) ** p))
        assert lhs == rhs


def test_superbracket_identities(rng):
    for _ in range(40):
        L = rand_algebra(rng)
        V = sl2()
        even = rand_cochain(rng, L, 2, 3) if L.dim >= 2 else rand_cochain(rng, L, 0, 3)
        odd = rand_cochain(rng, L, 1, 3)
        assert superbracket(V, even, even).is_zero()
        assert superbracket(V, odd, superbracket(V, odd, odd)).is_zero()


def test_superbracket_graded_antisymmetry(rng):
    V = heisenberg3()
    for _ in range(30):
        L = rand_algebra(rng)
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        if p + q > L.dim:
            continue
        a = rand_cochain(rng, L, p, 3)
        b = rand_cochain(rng, L, q, 3)
        assert superbracket(V, a, b) == superbracket(V, b, a).scale((-1) ** (p * q + 1))


def test_superbracket_graded_jacobi(rng):
    # (-1)^{pr}[[a,b],c] + (-1)^{qp}[[b,c],a] + (-1)^{rq}[[c,a],b] = 0
    V = sl2()
    for _ in range(25):
        L = rand_algebra(rng)
        degrees = [rng.randint(0, 2) for _ in range(3)]
        if sum(degrees) > L.dim:
            continue
        a, b, c = (rand_cochain(rng, L, d, 3) for d in degrees)
        p, q, r = degrees
        total = superbracket(V, superbracket(V, a, b), c).scale((-1) ** (p * r))
        total = total + superbracket(V, superbracket(V, b, c), a).scale((-1) ** (q * p))
        total = total + superbracket(V, superbracket(V, c, a), b).scale((-1) ** (r * q))
        assert total.is_zero()


def test_covariant_differential_reduces_to_trivial():
    L = sl2()
    S = OuterActionMap(L, [Matrix.zero(2, 2)] * 3)
    c = Cochain(L, 1, 2, {(0,): (1, 2), (2,): (0, 1)})
    assert covariant_differential(S, c) == trivial_differential(c)


def test_covariant_differential_degree_zero(rng):
    L = rand_algebra(rng)
    V = 2
    S = OuterActionMap(L, [rand_matrix(rng, V, V) for _ in range(L.dim)])
    v = rand_vector(rng, V)
    d = covariant_differential(S, vector_cochain(L, v))
    for i in range(L.dim):
        assert d.component((i,)) == S.matrices[i].matvec(v)


def test_covariant_square_is_curvature_wedge(rng):
    for _ in range(30):
        L = rand_algebra(rng)
        V = rng.randint(1, 3)
        S = OuterActionMap(L, [rand_matrix(rng, V, V) for _ in range(L.dim)])
        p = rng.randint(0, 2)
        c = rand_cochain(rng, L, p, V)
        lhs = covariant_differential(S, covariant_differential(S, c))
        rhs = wedge(EquivariantPairing.evaluation(V), curvature(S), c)
        assert lhs == rhs


def test_covariant_square_degree_zero_is_curvature_action(rng):
    L = rand_algebra(rng)
    V = 3
    S = OuterActionMap(L, [rand_matrix(rng, V, V) for _ in range(L.dim)])
    v = rand_vector(rng, V)
    R = curvature(S)
    dd = covariant_differential(S, covariant_differential(S, vector_cochain(L, v)))
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            r = Matrix.from_flat(enumerate(R.component((i, j))), V, V)
            assert dd.component((i, j)) == r.matvec(v)


def test_homomorphism_flat_curvature_and_square_zero(rng):
    L = sl2()
    rep = adjoint_rep(L)
    S = OuterActionMap(L, rep.matrices)
    assert curvature(S).is_zero()
    for p in (0, 1, 2):
        c = rand_cochain(rng, L, p, 3)
        assert covariant_differential(S, covariant_differential(S, c)).is_zero()


def test_curvature_explicit_commutator():
    L = abelian(2)
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    S = OuterActionMap(L, [e12, e21])
    R = curvature(S)
    assert Matrix.from_flat(enumerate(R.component((0, 1))), 2, 2) == Matrix([[1, 0], [0, -1]])


def test_curvature_routes_disagreeing_raise(monkeypatch):
    # The calculus route is checked for every map, not only without -O.  A map
    # keeps its curvature, so the check runs on the first call for each map.
    from liecoh import cochains
    L = sl2()
    S = OuterActionMap(L, adjoint_rep(L).matrices, target=L)
    assert curvature(S).is_zero()
    monkeypatch.setattr(cochains, "trivial_differential",
                        lambda c: Cochain.zero(c.algebra, c.degree + 1, c.value_dim))
    assert curvature(S).is_zero()
    with pytest.raises(InvariantViolation, match="curvature formulas disagree"):
        curvature(OuterActionMap(L, adjoint_rep(L).matrices, target=L))


def test_section_curvature_recovers_cocycle():
    from liecoh.catalog import ext_heisenberg3
    fs = ext_heisenberg3()
    ext = build_extension(fs)
    total = ext.total
    # the canonical section of the quotient has curvature omega . z
    for i in range(2):
        for j in range(i + 1, 2):
            si = ext.section.column(i)
            sj = ext.section.column(j)
            r = dense_bracket(total, si, sj)
            expected = tuple(fs.omega.component((i, j))) + (0, 0)
            assert r == expected


def test_bianchi_identity(rng):
    for _ in range(30):
        L = rand_algebra(rng)
        V = rng.choice((heisenberg3(), sl2()))
        sigma = rand_cochain(rng, L, 1, V.dim)
        S = OuterActionMap(L, [dense_ad(V, sigma.component((i,))) for i in range(L.dim)],
                           target=V)
        R = trivial_differential(sigma) + superbracket(V, sigma, sigma).scale(HALF)
        assert covariant_differential(S, R).is_zero()


def test_gauge_action_identity_and_group_law(rng):
    from liecoh.catalog import ext_heisenberg_kernel
    fs = ext_heisenberg_kernel()
    zero = Cochain.zero(fs.g, 1, 3)
    S1, o1 = gauge_action(zero, fs.S, fs.omega)
    assert S1.matrices == fs.S.matrices and o1 == fs.omega
    for _ in range(10):
        g1 = rand_cochain(rng, fs.g, 1, 3)
        g2 = rand_cochain(rng, fs.g, 1, 3)
        s_a, o_a = gauge_action(g1, *gauge_action(g2, fs.S, fs.omega))
        s_b, o_b = gauge_action(g1 + g2, fs.S, fs.omega)
        assert s_a.matrices == s_b.matrices and o_a == o_b


def test_gauge_curvature_transform(rng):
    n = heisenberg3()
    for _ in range(15):
        L = rand_algebra(rng, max_dim=3)
        mats = []
        for _ in range(L.dim):
            d = rand_matrix(rng, 3, 3)
            # project onto derivations: scalar diag on p,q plus strictly
            # lower structure is cheap to randomize via known derivations
            mats.append(Matrix([[d.entry(0, 0), 0, 0],
                                [0, d.entry(1, 1), 0],
                                [d.entry(2, 0), d.entry(2, 1),
                                 d.entry(0, 0) + d.entry(1, 1)]]))
        S = OuterActionMap(L, mats, target=n)
        gamma = rand_cochain(rng, L, 1, 3)
        S2, _ = gauge_action(gamma, S, Cochain.zero(L, 2, 3))
        correction = (covariant_differential(S, gamma)
                      + superbracket(n, gamma, gamma).scale(HALF))
        lhs = curvature(S2)
        rhs = curvature(S)
        for i in range(L.dim):
            for j in range(i + 1, L.dim):
                r = Matrix.from_flat(enumerate(rhs.component((i, j))), 3, 3)
                expected = r + dense_ad(n, correction.component((i, j)))
                assert Matrix.from_flat(enumerate(lhs.component((i, j))), 3, 3) == expected


def test_gauge_invariance_of_relative_differential(rng):
    # with inner curvature, d_S omega is constant along the gauge orbit
    from liecoh.catalog import ext_heisenberg_kernel
    fs = ext_heisenberg_kernel()
    n = fs.n
    base = covariant_differential(fs.S, fs.omega)
    for _ in range(10):
        gamma = rand_cochain(rng, fs.g, 1, 3)
        S2, o2 = gauge_action(gamma, fs.S, fs.omega)
        assert covariant_differential(S2, o2) == base


def test_twisted_complex_commuting_values(rng):
    # S a diagonal module structure, twist with commuting-valued Gamma:
    # the twisted differential squares to zero iff Gamma is a cocycle
    L = abelian(2)
    V = 2
    S = OuterActionMap(L, [Matrix([[1, 0], [0, 2]]), Matrix([[3, 0], [0, 4]])])
    good = OuterActionMap(L, [S.matrices[0] + Matrix([[1, 0], [0, 0]]),
                              S.matrices[1] + Matrix([[0, 0], [0, 5]])])
    assert curvature(good).is_zero()
    c = rand_cochain(rng, L, 1, V)
    assert covariant_differential(good, covariant_differential(good, c)).is_zero()
    # a non-commuting twist with nonzero curvature fails to square to zero
    bad = OuterActionMap(L, [S.matrices[0] + Matrix([[0, 1], [0, 0]]),
                             S.matrices[1] + Matrix([[0, 0], [1, 0]])])
    assert not curvature(bad).is_zero()
    v = vector_cochain(L, (1, 0))
    assert not covariant_differential(bad, covariant_differential(bad, v)).is_zero()


def test_cochain_coordinates_round_trip(rng):
    for _ in range(20):
        L = rand_algebra(rng)
        p = rng.randint(0, min(3, L.dim))
        c = rand_cochain(rng, L, p, 2, sparsity=0.3)
        back = from_coordinates(L, p, 2, coordinates(c))
        assert back == c


def test_pairing_dimension_mismatch():
    L = abelian(2)
    m = scalar_multiplication()
    a = Cochain(L, 1, 2, {(0,): (1, 0)})
    b = Cochain(L, 1, 1, {(1,): (1,)})
    with pytest.raises(DimensionMismatchError):
        wedge(m, a, b)


def test_cochain_rejects_bad_keys():
    L = abelian(3)
    bad = [((0,), DegreeMismatchError, r"key \(0,\) has the wrong length for degree 2"),
           ((0, 3), DimensionMismatchError, r"key \(0, 3\) is out of range"),
           ((-1, 2), DimensionMismatchError, r"key \(-1, 2\) is out of range"),
           ((2, 1), DimensionMismatchError, r"key \(2, 1\) is not strictly increasing"),
           ((1, 1), DimensionMismatchError, r"key \(1, 1\) is not strictly increasing")]
    for key, error, message in bad:
        with pytest.raises(error, match=message):
            Cochain(L, 2, 1, {key: (1,)})
    with pytest.raises(DimensionMismatchError, match="coefficient vector has the wrong length"):
        Cochain(L, 2, 2, {(0, 1): (1,)})


def test_from_coordinates_matches_keyed_construction(rng):
    for _ in range(20):
        L = rand_algebra(rng)
        p, m = rng.randint(0, 3), rng.randint(1, 3)
        keys = list(combinations(range(L.dim), p))
        coords = [Fraction(rng.randint(-2, 2)) if rng.random() < 0.5 else 0
                  for _ in range(len(keys) * m)]
        got = from_coordinates(L, p, m, coords)
        keyed = Cochain(L, p, m, {key: coords[r * m:(r + 1) * m]
                                  for r, key in enumerate(keys)})
        assert got == keyed and dense_coeffs(got) == dense_coeffs(keyed)
        assert all(type(x) is Fraction for v in dense_coeffs(got).values() for x in v)
        assert all(any(v) for v in dense_coeffs(got).values())
        assert coordinates(got) == tuple(Fraction(x) for x in coords)
        pairs = [(i, Fraction(x)) for i, x in enumerate(coords) if x]
        assert dense_coeffs(Cochain.from_pairs(L, p, m, pairs)) == dense_coeffs(keyed)
    with pytest.raises(DimensionMismatchError, match="coordinate index out of range"):
        Cochain.from_pairs(abelian(2), 1, 1, [(0, Fraction(1)), (2, Fraction(1))])
    with pytest.raises(DimensionMismatchError, match="coordinate vector has the wrong length"):
        from_coordinates(abelian(2), 1, 1, (1, 2, 3))
    with pytest.raises(DegreeCapExceededError):
        from_coordinates(abelian(2), degree_cap() + 1, 1, ())


def test_operators_and_curvature_are_kept_on_their_object():
    rep = adjoint_rep(heisenberg3())
    S = ext_heisenberg_kernel().S
    for action in (rep, S):
        for p in range(4):
            d = differential_operator(action, p)
            assert differential_operator(action, p) is d
            assert d == operator_matrix(action.algebra, action.matrices, p, action.space_dim)
    assert differential_matrix(rep, 2) is differential_operator(rep, 2)
    assert curvature(S) is curvature(S)
    # an equal map built anew assembles its own, equal, operators
    twin = OuterActionMap(S.algebra, S.matrices, target=S.target)
    assert differential_operator(twin, 2) is not differential_operator(S, 2)
    assert differential_operator(twin, 2) == differential_operator(S, 2)
    assert curvature(twin) is not curvature(S) and curvature(twin) == curvature(S)


def test_action_maps_with_different_space_dims_differ():
    maps = [OuterActionMap(LieAlgebra(0), [], space_dim=d) for d in (2, 3)]
    assert maps[0] != maps[1] and hash(maps[0]) != hash(maps[1])
    assert maps[0] == OuterActionMap(LieAlgebra(0), [], space_dim=2)
    assert Representation.trivial(LieAlgebra(0), 2) == maps[0]


def test_a_representation_is_the_action_map_of_its_matrices():
    """A module and the plain OuterActionMap of its matrices give entry-equal
    differentials in degrees 0-3, and cochain_differential agrees with
    covariant_differential on them."""
    rng = random.Random(29)
    reps = [adjoint_rep(L) for L in (heisenberg3(), sl2(), filiform4(), nonabelian2())]
    for _ in range(6):
        L = rand_algebra(rng)
        reps += [adjoint_rep(L), Representation.trivial(L, rng.randint(1, 2))]
    for rep in reps:
        plain = OuterActionMap(rep.algebra, rep.matrices)
        assert plain == rep and hash(plain) == hash(rep)
        for p in range(4):
            assert (differential_operator(plain, p).row_list()
                    == differential_operator(rep, p).row_list())
            c = rand_cochain(rng, rep.algebra, p, rep.space_dim)
            assert cochain_differential(rep, c) == covariant_differential(plain, c)
            assert cochain_differential(rep, c) == covariant_differential(rep, c)


# ---------------------------------------------------------------------------
# one sparse storage, against the bodies it replaced
# ---------------------------------------------------------------------------

def test_key_rank_and_unrank_follow_combinations_order():
    for n in range(13):
        for p in range(6):
            keys = list(combinations(range(n), p))
            assert [key_rank(key, n) for key in keys] == list(range(len(keys)))
            assert [key_unrank(r, n, p) for r in range(len(keys))] == keys
    assert key_rank((), 0) == 0 and key_unrank(0, 0, 0) == ()


def listing_from_pairs(n, degree, value_dim, pairs):
    """The former Cochain.from_pairs: every key listed to name an index's key;
    returns the {key: value tuple} table it stored."""
    keys = list(combinations(range(n), degree))
    if pairs and pairs[-1][0] >= len(keys) * value_dim:
        raise DimensionMismatchError("coordinate index out of range")
    table = {}
    for i, x in pairs:
        r, slot = divmod(i, value_dim)
        table.setdefault(keys[r], [Fraction(0)] * value_dim)[slot] = x
    return {key: tuple(vec) for key, vec in table.items()}


def listing_sparse_coordinates(n, degree, value_dim, table):
    """The former Cochain.sparse_coordinates of the stored table: every key
    listed to rank a key."""
    rank = {key: r for r, key in enumerate(combinations(range(n), degree))}
    return {rank[key] * value_dim + slot: x
            for key, vec in table.items() for slot, x in enumerate(vec) if x}


def test_pairs_match_the_key_listing(rng):
    for _ in range(40):
        L = rand_algebra(rng) if rng.random() < 0.7 else abelian(rng.randint(0, 7))
        p, m = rng.randint(0, min(4, L.dim)), rng.randint(1, 3)
        c = rand_cochain(rng, L, p, m, sparsity=rng.choice((0.0, 0.5, 0.9)))
        table = {key: vec for key, vec in dense_coeffs(c).items()}
        pairs = sorted(listing_sparse_coordinates(L.dim, p, m, table).items())
        assert c.sparse_coordinates() == dict(pairs) and list(c.pairs) == pairs
        assert (dense_coeffs(Cochain.from_pairs(L, p, m, pairs))
                == listing_from_pairs(L.dim, p, m, pairs))
        assert Cochain.from_pairs(L, p, m, pairs) == c
        assert all(type(x) is Fraction and x for _, x in c.pairs)
        for key in combinations(range(L.dim), p):
            assert c.component(key) == table.get(key, (0,) * m)
        assert c.keys() == tuple(sorted(table))


def test_a_cochain_keeps_only_its_pairs():
    assert Cochain.__slots__ == ("algebra", "degree", "value_dim", "pairs")
    c = Cochain(abelian(4), 2, 2, {(1, 3): (0, 2), (0, 1): (0, 0), (0, 2): ("1/2", 0)})
    assert c.pairs == ((2, Fraction(1, 2)), (9, Fraction(2)))
    assert dense_coeffs(c) == {(0, 2): (Fraction(1, 2), 0), (1, 3): (0, Fraction(2))}
    assert c.component([1, 3]) == (0, 2) and c.component((2, 3)) == (0, 0)
    # a key is read through its rank, so a key of another shape is refused
    for key in ((1, 0), (2, 2), (0, 4), (-1, 2), (1,), (0, 1, 2)):
        with pytest.raises(DimensionMismatchError, match="is not an increasing key of degree 2"):
            c.component(key)


def dense_apply_operator(action, c):
    """The former cochains._apply_operator: the operator times c's dense coordinates."""
    d = differential_operator(action, c.degree)
    return from_coordinates(c.algebra, c.degree + 1, c.value_dim, d.matvec(coordinates(c)))


def test_differentials_match_the_dense_product(rng):
    for _ in range(30):
        L = rand_algebra(rng)
        p = rng.randint(0, min(3, L.dim))
        rep = adjoint_rep(L)
        size = rng.randint(1, 3)
        S = OuterActionMap(L, [rand_matrix(rng, size, size) for _ in range(L.dim)])
        for sparsity in (0.0, 0.6, 1.0):
            c = rand_cochain(rng, L, p, L.dim, sparsity)
            assert cochain_differential(rep, c) == dense_apply_operator(rep, c)
            assert trivial_differential(c) == dense_apply_operator(
                Representation.trivial(L, L.dim), c)
            e = rand_cochain(rng, L, p, size, sparsity)
            assert covariant_differential(S, e) == dense_apply_operator(S, e)


def shuffle_sign(positions):
    """Sign of the permutation sending (positions, complement) to 0..n-1."""
    inversions = sum(pos - r for r, pos in enumerate(positions))
    return -1 if inversions % 2 else 1


def every_key_wedge(m, a, b):
    """An earlier wedge: every key of degree p + q, every shuffle of its slots, for a
    DensePairing."""
    p, q = a.degree, b.degree
    table = {}
    positions = list(combinations(range(p + q), p))
    a_table, b_table = dense_coeffs(a), dense_coeffs(b)
    for key in combinations(range(a.algebra.dim), p + q):
        total = [Fraction(0)] * m.out_dim
        for pos in positions:
            va = a_table.get(tuple(key[i] for i in pos))
            vb = b_table.get(tuple(key[i] for i in range(p + q) if i not in pos))
            if va is None or vb is None:
                continue
            for slot, x in enumerate(m.apply(va, vb)):
                total[slot] += shuffle_sign(pos) * x
        table[key] = total
    return Cochain(a.algebra, p + q, m.out_dim, table)


def test_wedge_matches_the_shuffle_sum_over_every_key(rng):
    for _ in range(30):
        L = rand_algebra(rng)
        V = rng.randint(1, 2)
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        if p + q > L.dim:
            continue
        for name, arg, left, right in (("composition", V, V * V, V * V),
                                       ("evaluation", V, V * V, V),
                                       ("lie_bracket", L, L.dim, L.dim)):
            m, oracle = make_pairing(name, arg), getattr(DensePairing, name)(arg)
            a = rand_cochain(rng, L, p, left, sparsity=0.4)
            b = rand_cochain(rng, L, q, right, sparsity=0.4)
            assert wedge(m, a, b) == every_key_wedge(oracle, a, b)


PAIRINGS = ("lie_bracket", "evaluation", "composition", "commutator")


def make_pairing(name, arg):
    """The named EquivariantPairing; composition comes from the test helper."""
    return composition(arg) if name == "composition" else getattr(EquivariantPairing, name)(arg)


def test_wedge_matches_the_dense_pairing_oracle(rng):
    """The four pairings on dict values against the former dense closures, on
    cochains of degree 0 to 3, zero cochains included."""
    for _ in range(12):
        L = rand_algebra(rng)
        V = rng.choice((heisenberg3(), sl2(), L))
        m = rng.randint(1, 3)
        dims = {"lie_bracket": (V.dim, V.dim), "evaluation": (m * m, m),
                "composition": (m * m, m * m), "commutator": (m * m, m * m)}
        for name in PAIRINGS:
            arg = V if name == "lie_bracket" else m
            pairing = make_pairing(name, arg)
            oracle = getattr(DensePairing, name)(arg)
            left, right = dims[name]
            for p in range(4):
                for q in range(4):
                    a = rand_cochain(rng, L, p, left, sparsity=rng.choice((0.0, 0.5, 1.0)))
                    b = rand_cochain(rng, L, q, right, sparsity=rng.choice((0.0, 0.5, 1.0)))
                    got = wedge(pairing, a, b)
                    assert got == dense_wedge(oracle, a, b)
                    assert (got.degree, got.value_dim) == (p + q, pairing.out_dim)
                    assert all(type(x) is Fraction and x for _, x in got.pairs)
    zero = Cochain.zero(heisenberg3(), 1, 3)
    assert wedge(EquivariantPairing.lie_bracket(heisenberg3()), zero, zero) == Cochain.zero(
        heisenberg3(), 2, 3)


def test_pairings_take_and_return_nonzero_dicts():
    V = heisenberg3()
    assert EquivariantPairing.lie_bracket(V).apply({0: 1}, {1: 2}) == {2: 2}
    assert EquivariantPairing.lie_bracket(V).apply({0: 1}, {0: 2}) == {}
    # (E_01) e_1 = e_0 and [E_01, E_10] = E_00 - E_11 on 2 x 2 matrices
    assert EquivariantPairing.evaluation(2).apply({1: 1}, {1: 3}) == {0: 3}
    assert composition(2).apply({1: 1}, {2: 1}) == {0: 1}
    assert EquivariantPairing.commutator(2).apply({1: 1}, {2: 1}) == {0: 1, 3: -1}
    with pytest.raises(DimensionMismatchError, match="indices out of range"):
        EquivariantPairing.evaluation(2).apply({4: 1}, {0: 1})
    bad = EquivariantPairing(1, 1, 1, lambda u, v: {1: 1})
    with pytest.raises(DimensionMismatchError, match="index out of range"):
        bad.apply({0: 1}, {0: 1})


def test_add_inner_matches_the_ad_of_each_value(rng):
    """The new S of gauge_action is S + ad(gamma(.)), against the former loop of
    dense ad over gamma's components."""
    for _ in range(25):
        L = rand_algebra(rng)
        V = rng.choice((heisenberg3(), sl2(), rand_algebra(rng)))
        S = OuterActionMap(L, [dense_ad(V, rand_vector(rng, V.dim)) for _ in range(L.dim)],
                           target=V)
        gamma = rand_cochain(rng, L, 1, V.dim, sparsity=rng.choice((0.0, 0.5, 1.0)))
        expected = [m + dense_ad(V, gamma.component((i,))) for i, m in enumerate(S.matrices)]
        new_S, _ = gauge_action(gamma, S, Cochain.zero(L, 2, V.dim))
        assert new_S.matrices == tuple(expected) and new_S.target == V
