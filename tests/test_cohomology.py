import random
from fractions import Fraction

import pytest
import sympy

from liecoh.catalog import abelian, heisenberg3, nonabelian2, sl2
from liecoh.cochains import Cochain, OuterActionMap, cochain_differential
from liecoh.cohomology import (AffineCochainSpace, classes_equal, cohomology,
                               differential_matrix, relative_cocycles,
                               theta_constrained_cocycles)
from liecoh.errors import SpaceMismatchError
from liecoh.liealg import Representation, adjoint_rep, change_of_basis
from liecoh.linalg import InconsistencyCertificate, Matrix, Subspace

from conftest import (contains_vec, coordinates, dense, dense_ad, dense_bracket_basis, flat,
                      nonzero_pairs, rand_algebra, rand_cochain, rand_invertible, reduce_vec,
                      unit_vec, zero_class)


# ---------------------------------------------------------------------------
# independent oracle: build the differential by raw index bookkeeping and
# take ranks with sympy, nothing shared with the production path
# ---------------------------------------------------------------------------

def oracle_h_dim(L, rep_mats, m, p):
    from itertools import combinations

    keys_p = list(combinations(range(L.dim), p))
    keys_p1 = list(combinations(range(L.dim), p + 1))

    def build(keys_lo, keys_hi, lo_deg):
        rows = len(keys_hi) * m
        cols = len(keys_lo) * m
        mat = sympy.zeros(rows, cols)
        for ci, key in enumerate(keys_lo):
            for comp in range(m):
                # differential of the delta cochain at (key, comp)
                for ri, hkey in enumerate(keys_hi):
                    for out in range(m):
                        val = sympy.Rational(0)
                        for j in range(lo_deg + 1):
                            rest = hkey[:j] + hkey[j + 1:]
                            if rest == key:
                                val += (-1) ** j * sympy.Rational(
                                    rep_mats[hkey[j]].entry(out, comp))
                        for a in range(lo_deg + 1):
                            for b in range(a + 1, lo_deg + 1):
                                rest = tuple(hkey[r] for r in range(lo_deg + 1)
                                             if r not in (a, b))
                                bracket = dense_bracket_basis(L, hkey[a], hkey[b])
                                for k, c in enumerate(bracket):
                                    if c == 0:
                                        continue
                                    full = (k,) + rest
                                    if len(set(full)) != len(full):
                                        continue
                                    sorted_key = tuple(sorted(full))
                                    if sorted_key != key:
                                        continue
                                    sign = _perm_sign(full)
                                    if out == comp:
                                        val += ((-1) ** (a + b) * sign
                                                * sympy.Rational(c)
                                                * (1 if out == comp else 0))
                        mat[ri * m + out, ci * m + comp] = val
        return mat

    # oracle restricted to trivial coefficients (rep_mats all zero) for
    # simplicity of the bracket term above
    d_p = build(keys_p, keys_p1, p)
    if p == 0:
        rank_prev = 0
    else:
        keys_pm1 = list(combinations(range(L.dim), p - 1))
        d_pm1 = build(keys_pm1, keys_p, p - 1)
        rank_prev = d_pm1.rank()
    dim_cp = len(keys_p) * m
    return dim_cp - d_p.rank() - rank_prev


def _perm_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


@pytest.mark.parametrize("builder,p,expected", [
    (heisenberg3, 1, 2), (heisenberg3, 2, 2), (heisenberg3, 3, 1),
    (sl2, 1, 0), (sl2, 2, 0), (sl2, 3, 1),
    (lambda: abelian(2), 2, 1),
    (nonabelian2, 1, 1), (nonabelian2, 2, 0),
])
def test_trivial_coefficient_dims_against_oracle(builder, p, expected):
    L = builder()
    rep = Representation.trivial(L, 1)
    space = cohomology(rep, p)
    assert space.h_dim == expected
    zero_mats = [Matrix.zero(1, 1)] * L.dim
    assert oracle_h_dim(L, zero_mats, 1, p) == expected


def test_whitehead_for_sl2():
    rep = Representation.trivial(sl2(), 1)
    dims = [cohomology(rep, p).h_dim for p in range(4)]
    assert dims == [1, 0, 0, 1]
    # Euler characteristic cross-check: alternating sums agree
    from math import comb
    c_dims = [comb(3, p) for p in range(4)]
    assert sum((-1) ** p * d for p, d in enumerate(dims)) == 0
    assert sum((-1) ** p * c for p, c in enumerate(c_dims)) == 0


def test_matrix_level_d_squared_zero(rng):
    for _ in range(10):
        L = rand_algebra(rng)
        rep = adjoint_rep(L)
        for p in range(0, min(3, L.dim)):
            d_p = differential_matrix(rep, p)
            d_p1 = differential_matrix(rep, p + 1)
            assert (d_p1 @ d_p).is_zero()


def test_h_dim_basis_independent(rng):
    for _ in range(6):
        L = rand_algebra(rng, max_dim=3)
        rep = Representation.trivial(L, 1)
        h = cohomology(rep, 2).h_dim
        P = rand_invertible(rng, L.dim)
        L2 = change_of_basis(L, P)
        rep2 = Representation.trivial(L2, 1)
        assert cohomology(rep2, 2).h_dim == h


def test_h_dim_basis_independent_adjoint(rng):
    from liecoh.linalg import invert
    L = heisenberg3()
    h = cohomology(adjoint_rep(L), 2).h_dim
    for _ in range(4):
        P = rand_invertible(rng, 3)
        L2 = change_of_basis(L, P)
        # transport the adjoint module along the same change of basis
        P_inv = invert(P)
        mats = [P_inv @ dense_ad(L, P.column(i)) @ P for i in range(3)]
        rep2 = Representation(L2, 3, mats)
        assert cohomology(rep2, 2).h_dim == h


def test_classes_equal():
    L = heisenberg3()
    rep = Representation.trivial(L, 1)
    space = cohomology(rep, 2)
    assert space.h_dim == 2
    reps = space.representative_cochains()
    a = space.class_of(reps[0])
    b = space.class_of(reps[1])
    assert classes_equal(a, a)
    assert not classes_equal(a, b)
    shifted = reps[0] + cochain_differential(rep, Cochain(L, 1, 1, {(0,): (3,)}))
    assert classes_equal(a, space.class_of(shifted))


def dense_normalize(space, c):
    """The former CohomologySpace.normalize: the dense coordinates of c, tested
    for membership in the cocycles and reduced modulo the coboundaries."""
    coords = coordinates(c)
    if not contains_vec(space.cocycles, coords):
        raise SpaceMismatchError("the cochain is not a cocycle of this space")
    return reduce_vec(space.coboundaries, coords)


def sympy_rank(m):
    return sympy.Matrix(m.rows, m.cols, [x for row in m.row_list() for x in row]).rank()


def test_normalize_matches_the_dense_reduction():
    """Seeded cocycles (representative combinations plus coboundaries, zero
    classes among them) and seeded cochains that are not cocycles, over
    random algebras in random bases with trivial and adjoint coefficients:
    the pair-valued class coordinates equal the former dense ones, class
    equality and the zero test agree with them, non-cocycles are rejected
    alike, and the class dimension agrees with sympy ranks."""
    rng = random.Random(23)
    seen = {"zero": 0, "nonzero": 0, "equal": 0, "different": 0, "rejected": 0}
    for _ in range(8):
        L = rand_algebra(rng, max_dim=3)
        for rep in (Representation.trivial(L, 1), adjoint_rep(L)):
            for p in range(L.dim + 1):
                space = cohomology(rep, p)
                d_p = differential_matrix(rep, p)
                below = sympy_rank(differential_matrix(rep, p - 1)) if p else 0
                assert space.h_dim == d_p.cols - sympy_rank(d_p) - below
                cocycles = []
                for _ in range(3):
                    c = Cochain.zero(L, p, rep.space_dim)
                    for r in space.representative_cochains():
                        c = c + r.scale(rng.choice((0, 0, 1, -2, Fraction(1, 3))))
                    if p:
                        c = c + cochain_differential(rep, rand_cochain(rng, L, p - 1,
                                                                       rep.space_dim))
                    cocycles.append(c)
                classes = [space.class_of(c) for c in cocycles]
                oracle = [dense_normalize(space, c) for c in cocycles]
                for cls, want in zip(classes, oracle):
                    assert cls.normalized == tuple(nonzero_pairs(want))
                    assert dense(cls.normalized, d_p.cols) == want
                    assert cls.is_zero() == (not any(want))
                    seen["zero" if cls.is_zero() else "nonzero"] += 1
                for i in range(len(classes)):
                    for j in range(len(classes)):
                        assert (classes[i] == classes[j]) == (oracle[i] == oracle[j])
                        assert classes_equal(classes[i], classes[j]) == (oracle[i] == oracle[j])
                        if i < j:
                            seen["equal" if oracle[i] == oracle[j] else "different"] += 1
                        if oracle[i] == oracle[j]:
                            assert hash(classes[i]) == hash(classes[j])
                other = rand_cochain(rng, L, p, rep.space_dim, sparsity=0.5)
                if not contains_vec(space.cocycles, coordinates(other)):
                    seen["rejected"] += 1
                    with pytest.raises(SpaceMismatchError):
                        space.class_of(other)
                    with pytest.raises(SpaceMismatchError):
                        dense_normalize(space, other)
                else:
                    assert space.normalize(other) == tuple(
                        nonzero_pairs(dense_normalize(space, other)))
    assert min(seen.values()) >= 5, seen


def test_classes_space_mismatch():
    L = heisenberg3()
    rep = Representation.trivial(L, 1)
    s2 = cohomology(rep, 2)
    s1 = cohomology(rep, 1)
    a = zero_class(s2)
    b = zero_class(s1)
    with pytest.raises(SpaceMismatchError):
        classes_equal(a, b)


def test_class_representative_must_be_cocycle():
    L = nonabelian2()
    rep = Representation.trivial(L, 1)
    space = cohomology(rep, 1)
    # e2* is not a cocycle: d e2*(x, y) = -e2*([x,y]) = -e2*(x) = 0... pick e1*
    bad = Cochain(L, 1, 1, {(0,): (1,)})
    with pytest.raises(SpaceMismatchError):
        space.class_of(bad)


def test_relative_cocycles_abelian_homomorphism():
    # abelian kernel, S a module structure: the space is all closed 2-cochains
    g = abelian(2)
    n = abelian(1)
    S = OuterActionMap(g, [Matrix([[1]]), Matrix([[0]])], target=n)
    sol = relative_cocycles(S, n)
    assert isinstance(sol, AffineCochainSpace)
    rep = Representation(g, 1, S.matrices)
    assert sol.homogeneous == cohomology(rep, 2).cocycles
    assert sol.particular.is_zero()


def test_relative_cocycles_empty_certificate():
    g = abelian(2)
    n = abelian(2)
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    S = OuterActionMap(g, [e12, e21], target=n)
    sol = relative_cocycles(S, n)
    assert isinstance(sol, InconsistencyCertificate)
    assert sol.describe() == f"reduced row {sol.row_index} of the augmented system reads 0 = 1"


def test_relative_cocycles_one_dimensional_quotient():
    g = abelian(1)
    n = heisenberg3()
    D = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    S = OuterActionMap(g, [D], target=n)
    sol = relative_cocycles(S, n)
    assert isinstance(sol, AffineCochainSpace)
    assert sol.particular.is_zero() and sol.dim == 0


def test_relative_cocycles_solution_satisfies_equations(rng):
    from liecoh.catalog import ext_heisenberg_kernel
    from liecoh.cochains import covariant_differential, curvature
    fs = ext_heisenberg_kernel()
    sol = relative_cocycles(fs.S, fs.n)
    assert isinstance(sol, AffineCochainSpace)
    for omega in (sol.particular,
                  sol.element([Fraction(rng.randint(-3, 3)) for _ in range(sol.dim)])):
        R = curvature(fs.S)
        for i in range(fs.g.dim):
            for j in range(i + 1, fs.g.dim):
                assert (R.component((i, j))
                        == flat(dense_ad(fs.n, omega.component((i, j)))))
        assert covariant_differential(fs.S, omega).is_zero()


def test_theta_constrained_trivial_theta():
    # zero restriction, trivial action: solutions = pullbacks of closed
    # quotient cochains
    from liecoh.catalog import ext_heisenberg_kernel
    from liecoh.extensions import GKernel, build_quotient_stage, center_module
    fs = ext_heisenberg_kernel()
    stage = build_quotient_stage(GKernel.from_factor_system(fs))
    ideal = Subspace.from_vectors(stage.gs.dim,
                                  [unit_vec(stage.gs.dim, i)
                                   for i in range(stage.n_ad.dim)])
    sol = theta_constrained_cocycles(stage.gs, ideal, stage.z_rep_on_gs, {})
    assert isinstance(sol, AffineCochainSpace)
    assert sol.particular.is_zero()
    # homogeneous = all cocycles vanishing against the ideal; compare dims
    # with the pullback of the quotient cocycle space
    _, z_rep_g = center_module(fs.S)
    pullback_dim = cohomology(z_rep_g, 2).dim_cocycles
    assert sol.dim == pullback_dim


def test_theta_constrained_empty_certificate():
    # requiring a nonzero value on a repeated-argument slot contradicts
    # alternation: the system is inconsistent and says so
    g = abelian(2)
    ideal = Subspace.from_vectors(2, [(1, 0)])
    z_rep = Representation.trivial(g, 1)
    sol = theta_constrained_cocycles(g, ideal, z_rep, {(0, 0): {0: Fraction(1)}})
    assert isinstance(sol, InconsistencyCertificate)
    assert sol.describe() == f"reduced row {sol.row_index} of the augmented system reads 0 = 1"


def seeded_affine_systems():
    """The nonempty relative and theta-constrained systems of the tests above,
    and the relative cocycles of every catalog factor system."""
    from liecoh.catalog import catalog
    from liecoh.extensions import GKernel, build_quotient_stage
    g, n = abelian(2), abelian(1)
    yield relative_cocycles(OuterActionMap(g, [Matrix([[1]]), Matrix([[0]])], target=n), n)
    D = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    yield relative_cocycles(OuterActionMap(abelian(1), [D], target=heisenberg3()),
                            heisenberg3())
    for name in ("ext-heisenberg-kernel", "ext-heisenberg3", "ext-filiform4", "ext-sl2-kernel"):
        fs = catalog(name)
        yield relative_cocycles(fs.S, fs.n)
    stage = build_quotient_stage(GKernel.from_factor_system(catalog("ext-heisenberg-kernel")))
    ideal = Subspace.from_vectors(stage.gs.dim, [unit_vec(stage.gs.dim, i)
                                                 for i in range(stage.n_ad.dim)])
    yield theta_constrained_cocycles(stage.gs, ideal, stage.z_rep_on_gs, {})


def test_affine_element_matches_the_eager_basis_sum():
    """element reads the homogeneous space as the former eagerly built basis
    cochains did: particular + sum of coords[r] * basis cochain r, and its
    coordinates are the dense particular plus the scaled basis vectors."""
    rng = random.Random(29)
    dims = []
    for sol in seeded_affine_systems():
        assert isinstance(sol, AffineCochainSpace)
        p = sol.particular
        basis = tuple(Cochain.from_pairs(p.algebra, 2, p.value_dim, v)
                      for v in sol.homogeneous.pairs)
        assert sol.dim == len(basis) == sol.homogeneous.dim
        dims.append(sol.dim)
        for _ in range(4):
            coords = [rng.choice((0, 1, -2, Fraction(1, 3), Fraction(-5, 2)))
                      for _ in range(sol.dim)]
            former = p
            for c, b in zip(coords, basis):
                if c != 0:
                    former = former + b.scale(c)
            got = sol.element(coords)
            assert got == former and sol.contains(got)
            want = coordinates(p)
            for c, b in zip(coords, basis):
                want = tuple(x + c * y for x, y in zip(want, coordinates(b)))
            assert coordinates(got) == want
        assert sol.element([0] * sol.dim) == p
    assert max(dims) >= 3 and 0 in dims


def test_degree_zero_and_overflow_edges():
    L = abelian(2)
    rep = Representation.trivial(L, 1)
    h0 = cohomology(rep, 0)
    assert h0.h_dim == 1  # invariants of the trivial module
    h3 = cohomology(rep, 3)  # above the top degree
    assert h3.h_dim == 0


def test_zero_dimensional_coefficients():
    L = sl2()
    rep = Representation.trivial(L, 0)
    space = cohomology(rep, 3)
    assert space.h_dim == 0
    cls = space.class_of(Cochain(L, 3, 0))
    assert cls.is_zero()
