"""Matrix families and brackets pulled back along maps, against the loops they replaced.

The package pulls a family of matrices back along a linear map phi with
``linalg.pullback_family`` (matrix a is sum_b phi[b][a] M_b, read from
phi's sparse rows) and reads every bracket through a map with
``liealg.bracket_defect`` (column j of ad(m e_i) m - m ad(e_i)); the
quotient and basis-change tables and the action of an extracted factor
system are read through those two.  The former code combined the family
with dense columns of phi and bracketed dense columns of m; it stays here
as an oracle.  The new code must match it entry for entry on seeded sparse,
singular, zero and non-square maps (with 0 rows or 0 columns among them),
the catalog algebras and systems and curved n4 with two seeded basis
changes of each, and the three benchmark factor-system kinds at h7 with
their stage crossed modules.
"""

import random

import pytest

from liecoh import crossed, extensions, liealg, symmetry
from liecoh.catalog import abelian, catalog
from liecoh.cochains import Cochain
from liecoh.crossed import (characteristic_class_omega_route, characteristic_class_theta_route,
                            split_crossed_module, splitting_equivalence)
from liecoh.errors import DimensionMismatchError, InvariantViolation, NegativeResult
from liecoh.extensions import (ExtensionPresentation, build_extension, build_quotient_stage,
                               equivalent_extensions, extract_factor_system, GKernel,
                               pullback_extension, reduce_via_stage)
from liecoh.liealg import (LieAlgebra, bracket_defect, center, change_of_basis,
                           quotient_algebra)
from liecoh.linalg import (Matrix, Subspace, image, invert, linear_combination, pullback_family,
                           quotient_coordinates)
from liecoh.symmetry import (automorphism_pair_obstruction, extension_derivations,
                             lifting_cocycle, transported_factor_system)

from conftest import (BASE_ALGEBRAS, as_column, dense_bracket, dense_bracket_basis,
                      ideal_coordinates, rand_invertible, rand_matrix, vec_is_zero, vec_sub)
from test_cochain_maps import seeded_maps, sparse_matrix

# test_classify, test_crossed and test_gauge_step are imported inside the
# tests that use them: they build their systems at import, through the code
# under test, and a broken read must fail those tests, not this module's import.


# ---------------------------------------------------------------------------
# the replaced loops
# ---------------------------------------------------------------------------

def loop_pullback_family(family, phi, size):
    """The former ``M.matrix_of(phi.column(a)) for a`` comprehensions."""
    return tuple(linear_combination(phi.column(a), family, size, size) for a in range(phi.cols))


def loop_bracket_defect(source, target, m):
    """The former bracket_defect: target brackets of dense columns of m, read
    back as dict columns."""
    columns = [m.column(i) for i in range(source.dim)]
    defect = {}
    for i in range(source.dim):
        for j in range(i + 1, source.dim):
            w = vec_sub(dense_bracket(target, columns[i], columns[j]),
                        m.matvec(dense_bracket_basis(source, i, j)))
            if not vec_is_zero(w):
                defect[(i, j)] = as_column(w)
    return defect


def loop_table(L, m, read):
    """The former table loop of quotient_algebra and change_of_basis."""
    table = {}
    for i in range(m.cols):
        for j in range(i + 1, m.cols):
            w = read.matvec(dense_bracket(L, m.column(i), m.column(j)))
            entry = {k: c for k, c in enumerate(w) if c != 0}
            if entry:
                table[(i, j)] = entry
    return table


def loop_quotient_algebra(L, ideal):
    projection, section = quotient_coordinates(L.dim, ideal)
    return LieAlgebra(projection.rows, loop_table(L, section, projection)), projection, section


def loop_change_of_basis(L, P):
    return LieAlgebra(L.dim, loop_table(L, P, invert(P)))


def loop_extract_action(ext, sigma):
    """The former action loop of extract_factor_system: [sigma e_a, inclusion e_i]
    read in the ideal, one column at a time."""
    matrices = []
    for a in range(ext.g.dim):
        cols = [ideal_coordinates(ext, dense_bracket(ext.total, sigma.column(a),
                                                     ext.inclusion.column(i)))
                for i in range(ext.n.dim)]
        matrices.append(Matrix.from_columns(cols, rows=ext.n.dim))
    return tuple(matrices)


# ---------------------------------------------------------------------------
# the family pullback on seeded maps
# ---------------------------------------------------------------------------

def seeded_family(rng, length, size):
    return [sparse_matrix(rng, size, size, rng.choice((0.2, 0.6, 1.0))) for _ in range(length)]


def test_pullback_family_matches_the_loop_on_seeded_maps():
    rng = random.Random(71)
    for _ in range(40):
        length, size, cols = rng.randint(0, 5), rng.randint(0, 4), rng.randint(0, 5)
        family = seeded_family(rng, length, size)
        maps = seeded_maps(rng, length, cols) + seeded_maps(rng, length, length)
        for phi in maps:
            pulled = pullback_family(family, phi, size)
            assert pulled == loop_pullback_family(family, phi, size)
            assert all(x for m in pulled for row in m.sparse_rows() for x in row.values())
            assert all(m.rows == m.cols == size for m in pulled) and len(pulled) == phi.cols


def test_pullback_family_reads_rows_and_checks_shapes():
    a, b = Matrix([[1, 2], [0, 3]]), Matrix([[0, 1], [1, 0]])
    phi = Matrix([[1, 0, 2], [0, 5, -1]])      # e_0 -> a, e_1 -> 5b, e_2 -> 2a - b
    assert pullback_family([a, b], phi, 2) == (a, b.scale(5), a.scale(2) - b)
    assert pullback_family([], Matrix.zero(0, 3), 4) == (Matrix.zero(4, 4),) * 3
    assert pullback_family([a, b], Matrix.zero(2, 0), 2) == ()
    with pytest.raises(DimensionMismatchError, match="shapes disagree"):
        pullback_family([a, b], Matrix.identity(3), 2)
    with pytest.raises(DimensionMismatchError, match="shapes disagree"):
        pullback_family([a, Matrix.zero(2, 3)], Matrix.identity(2), 2)
    with pytest.raises(DimensionMismatchError, match="shapes disagree"):
        pullback_family([a, b], Matrix.identity(2), 3)


def test_from_flat_reads_a_window_of_pairs():
    pairs = [(0, 1), (3, 2), (4, 7), (5, 0), (8, -1)]
    assert Matrix.from_flat(pairs, 2, 2) == Matrix([[1, 0], [0, 2]])
    assert Matrix.from_flat(pairs, 2, 2, start=4) == Matrix([[7, 0], [0, 0]])
    assert Matrix.from_flat(pairs, 1, 3, start=6) == Matrix([[0, 0, -1]])
    assert Matrix.from_flat([], 0, 3) == Matrix.zero(0, 3)


# ---------------------------------------------------------------------------
# brackets through maps
# ---------------------------------------------------------------------------

def catalog_algebras():
    """The catalog algebras, each with two seeded basis changes."""
    rng = random.Random(73)
    out = []
    for name, build in BASE_ALGEBRAS:
        L = build()
        out += [(name, L)] + [(f"{name}-basis{k}", change_of_basis(L, rand_invertible(rng, L.dim)))
                              for k in range(2)]
    return out


def assert_brackets_match(source, target, maps):
    for m in maps:
        assert bracket_defect(source, target, m) == loop_bracket_defect(source, target, m)


def test_bracket_reads_match_the_loops_on_catalog_algebras():
    rng = random.Random(79)
    algebras = catalog_algebras()
    for name, L in algebras:
        for k in range(4):
            assert_brackets_match(abelian(k), L, seeded_maps(rng, L.dim, k))
        assert_brackets_match(L, L, seeded_maps(rng, L.dim, L.dim))
        for _, other in rng.sample(algebras, 3):
            assert_brackets_match(other, L, seeded_maps(rng, L.dim, other.dim))
        for _ in range(2):
            P = rand_invertible(rng, L.dim)
            assert change_of_basis(L, P) == loop_change_of_basis(L, P)
        for ideal in (center(L), Subspace.zero(L.dim), Subspace.full(L.dim), image(
                Matrix.from_columns([dense_bracket(L, u, v)
                                     for u in Matrix.identity(L.dim).row_list()
                                     for v in Matrix.identity(L.dim).row_list()],
                                    rows=L.dim))):
            assert quotient_algebra(L, ideal) == loop_quotient_algebra(L, ideal)


def test_bracket_reads_match_the_loops_on_systems():
    """Inclusion, projection and (shifted) sections of the catalog systems, curved
    n4, two seeded basis changes of each and the pipeline kinds at h7; the quotient
    of n by its center; the extracted action along each section."""
    from test_classify import CASES
    rng = random.Random(83)
    for name, fs in CASES:
        ext = build_extension(fs)
        total = ext.total
        shifted = ext.section + ext.inclusion @ rand_matrix(rng, fs.n.dim, fs.g.dim)
        assert_brackets_match(fs.n, total, [ext.inclusion])
        assert_brackets_match(total, fs.g, [ext.projection])
        assert_brackets_match(fs.g, total, [ext.section, shifted])
        for sigma in (ext.section, shifted):
            pulled = extract_factor_system(ext, sigma)
            assert pulled.S.matrices == loop_extract_action(ext, sigma)
        assert quotient_algebra(fs.n, center(fs.n)) == loop_quotient_algebra(fs.n, center(fs.n))
        assert quotient_algebra(total, ext.ideal) == loop_quotient_algebra(total, ext.ideal)


def not_an_ideal_presentation():
    """heisenberg3 = span(x, y, z) with [x, y] = z, presented past the constructor's
    checks with n = span(x): [y, x] = -z leaves n."""
    total = catalog("heisenberg3")
    ext = ExtensionPresentation.__new__(ExtensionPresentation)
    ext.total, ext.n, ext.g = total, LieAlgebra(1), LieAlgebra(2)
    ext.inclusion = Matrix([[1], [0], [0]])
    ext.projection = Matrix([[0, 1, 0], [0, 0, 1]])
    ext.section = Matrix([[0, 0], [1, 0], [0, 1]])
    ext.ideal = image(ext.inclusion)
    ext._left_inv = Matrix([[1, 0, 0]])
    return ext


def test_extraction_checks_that_the_action_keeps_the_ideal():
    ext = not_an_ideal_presentation()
    for read in (extract_factor_system, loop_extract_action):
        with pytest.raises(InvariantViolation, match="vector does not lie in the ideal"):
            read(ext, ext.section)


# ---------------------------------------------------------------------------
# every read of the pipelines
# ---------------------------------------------------------------------------

def check_reads(monkeypatch):
    """Compare every pullback_family and bracket_defect call of the package with its
    loop; returns the list the names of the calls are appended to."""
    calls = []
    oracles = {"pullback_family": loop_pullback_family, "bracket_defect": loop_bracket_defect}
    for module in (liealg, extensions, crossed, symmetry):
        for name, oracle in oracles.items():
            real = getattr(module, name, None)
            if real is None:
                continue

            def checked(*args, _name=name, _real=real, _oracle=oracle):
                out = _real(*args)
                assert out == _oracle(*args)
                calls.append(_name)
                return out
            monkeypatch.setattr(module, name, checked)
    return calls


def test_pipeline_reads_match_the_loops(monkeypatch):
    """Every family pullback and bracket read of the extension, stage, derivation,
    automorphism, lifting, pullback and crossed-module routines matches its loop, on
    the catalog systems, curved n4, two seeded basis changes of each and the three
    pipeline kinds at h7, and on the stage crossed module of each."""
    from test_classify import CASES
    from test_crossed import stage_module
    from test_gauge_step import automorphism_pairs
    calls = check_reads(monkeypatch)
    rng = random.Random(89)
    for name, fs in CASES:
        ext = build_extension(fs)
        extract_factor_system(ext, ext.section + ext.inclusion @ rand_matrix(rng, fs.n.dim,
                                                                              fs.g.dim))
        reduce_via_stage(fs)
        extension_derivations(fs)
        for alpha, beta in automorphism_pairs(name, fs, rng)[:3]:
            transported_factor_system(fs, alpha, beta)
            pullback_extension(ext, beta, fs.g)
            try:
                automorphism_pair_obstruction(fs, alpha, beta)
            except NegativeResult:
                pass
        assert equivalent_extensions(fs, fs).found
        lifting_cocycle(fs, LieAlgebra(1), [Matrix.zero(fs.n.dim, fs.n.dim)],
                        [Matrix.zero(fs.g.dim, fs.g.dim)], [Cochain(fs.g, 1, fs.n.dim)])
        build_quotient_stage(GKernel.from_factor_system(fs))
        cm = stage_module(fs)
        sp = split_crossed_module(cm)
        characteristic_class_theta_route(sp)
        characteristic_class_omega_route(sp)
        splitting_equivalence(cm)
    assert set(calls) == {"pullback_family", "bracket_defect"}
