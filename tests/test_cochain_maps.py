"""Pullback, transport, pair action and evaluation against the loops they replaced.

The package computes all four with ``cochains._scatter``, one substitution
that sends each nonzero term c(K) of a cochain through the nonzero entries
of the matrices in its slots.  The former code evaluated the cochain on
dense columns and unit vectors, one argument tuple at a time; it stays here
as an oracle.  The new maps must match it entry for entry on seeded random
cochains of degree 0-4, seeded sparse maps (singular, rank-deficient,
non-square and zero ones among them), the catalog systems and curved n4
with two seeded basis changes of each, and the three benchmark
factor-system kinds at h7 with their stage crossed modules.  Seeded
property tests pin functoriality of the pullback, d commuting with the
pullback along a homomorphism, and the Euler identity of the pair action.
A linear map of a cochain's values is ``Cochain.map_values``, read from its
nonzero values and the matrix's sparse columns; it and the subspace
embedding and restriction of a cochain must match the dense builders they
replaced (``matvec``, ``sub.embed`` and ``coordinates_of`` of every value),
on seeded cases and in the stage cocycle of ``build_quotient_stage``.
"""

import random
import re
from fractions import Fraction
from itertools import product

import pytest

from liecoh import crossed, extensions, symmetry
from liecoh.catalog import abelian, catalog
from liecoh.cochains import (Cochain, increasing_tuples, pair_act_cochain, pullback_cochain,
                             transport_cochain, trivial_differential)
from liecoh.crossed import (characteristic_class_omega_route,
                            characteristic_class_theta_route, split_crossed_module,
                            splitting_equivalence)
from liecoh.errors import DegreeMismatchError, DimensionMismatchError, InvariantViolation
from liecoh.extensions import build_extension, equivalent_extensions
from liecoh.liealg import LieAlgebra
from liecoh.linalg import Matrix, Subspace, invert, to_fractions
from liecoh.symmetry import (automorphism_pair_obstruction, extension_derivations,
                             lifting_cocycle)

from conftest import (coordinates_of_vec, dense_coeffs, embed, rand_algebra, rand_cochain,
                      rand_fraction, rand_invertible, unit_vec, value_at_indices, vec_add,
                      vec_is_zero, vec_scale, vec_sub, vector_cochain, zero_vec)

# test_classify, test_crossed and test_gauge_step are imported inside the
# tests that use them: they build their systems at import, through the maps
# under test, and a broken map must fail those tests, not this module's import.


# ---------------------------------------------------------------------------
# the replaced loops
# ---------------------------------------------------------------------------

def loop_evaluate(c, args):
    """The former Cochain.evaluate: a product over the supports of the arguments."""
    args = [to_fractions(v) for v in args]
    supports = [[i for i, x in enumerate(v) if x != 0] for v in args]
    out = zero_vec(c.value_dim)
    for idx in product(*supports):
        val = value_at_indices(c, idx)
        if vec_is_zero(val):
            continue
        coeff = Fraction(1)
        for v, i in zip(args, idx):
            coeff *= v[i]
        out = vec_add(out, vec_scale(coeff, val))
    return out


def loop_pullback(c, phi, domain):
    """The former pullback_cochain: c evaluated at the columns of phi, key by key."""
    table = {}
    for key in increasing_tuples(domain.dim, c.degree):
        val = loop_evaluate(c, [phi.column(k) for k in key])
        if not vec_is_zero(val):
            table[key] = val
    return Cochain(domain, c.degree, c.value_dim, table)


def loop_transport(alpha, beta_inv, c):
    """transport_cochain on the former pullback."""
    pulled = loop_pullback(c, beta_inv, c.algebra)
    return Cochain(c.algebra, c.degree, alpha.rows,
                   {key: alpha.matvec(vec) for key, vec in dense_coeffs(pulled).items()})


def loop_pair_act(alpha, beta, c):
    """The former pair_act_cochain: unit vectors with one column of beta slotted in."""
    table = {}
    n = c.algebra.dim
    for key in increasing_tuples(n, c.degree):
        args = [unit_vec(n, k) for k in key]
        val = alpha.matvec(c.component(key))
        for slot in range(c.degree):
            slotted = list(args)
            slotted[slot] = beta.column(key[slot])
            val = vec_sub(val, loop_evaluate(c, slotted))
        if not vec_is_zero(val):
            table[key] = val
    return Cochain(c.algebra, c.degree, alpha.rows, table)


def matvec_values(c, m):
    """The former {key: m.matvec(vec)} value map, as in build_quotient_stage."""
    return Cochain(c.algebra, c.degree, m.rows,
                   {key: m.matvec(vec) for key, vec in dense_coeffs(c).items()})


def loop_embed(c, sub):
    """The former embed_cochain_from_subspace: sub.embed of every dense value."""
    return Cochain(c.algebra, c.degree, sub.ambient_dim,
                   {key: embed(sub, vec) for key, vec in dense_coeffs(c).items()})


def loop_restrict(c, sub):
    """The former restrict_cochain_to_subspace: coordinates_of every dense value."""
    table = {}
    for key, vec in dense_coeffs(c).items():
        coords = coordinates_of_vec(sub, vec)
        if coords is None:
            raise InvariantViolation(f"cochain value at {key} lies outside the expected subspace")
        table[key] = coords
    return Cochain(c.algebra, c.degree, sub.dim, table)


# ---------------------------------------------------------------------------
# seeded maps
# ---------------------------------------------------------------------------

def sparse_matrix(rng, rows, cols, density=0.35):
    return Matrix([[rand_fraction(rng) if rng.random() < density else 0 for _ in range(cols)]
                   for _ in range(rows)], cols=cols)


def seeded_maps(rng, rows, cols):
    """Dense, sparse, rank-one, zero and (when square) singular and invertible maps."""
    maps = [sparse_matrix(rng, rows, cols, 1.0), sparse_matrix(rng, rows, cols),
            sparse_matrix(rng, rows, 1) @ sparse_matrix(rng, 1, cols, 0.7),
            Matrix.zero(rows, cols)]
    if rows == cols and rows:
        singular = sparse_matrix(rng, rows, rows, 0.6)
        singular = Matrix.from_columns([singular.column(j) for j in range(rows - 1)]
                                       + [singular.column(0)], rows=rows)
        maps += [singular, rand_invertible(rng, rows), Matrix.identity(rows)]
    return maps


def assert_maps_match(rng, c, domain, alpha=None):
    """Pullback along every seeded map into c's algebra, pair action and
    transport by every square seeded map, evaluation at their columns."""
    n, m = c.algebra.dim, c.value_dim
    for phi in seeded_maps(rng, n, domain.dim):
        assert pullback_cochain(c, phi, domain) == loop_pullback(c, phi, domain)
    args = [tuple(rand_fraction(rng) if rng.random() < 0.6 else 0 for _ in range(n))
            for _ in range(c.degree)]
    if len(args) > 1 and rng.random() < 0.3:
        args[-1] = args[0]
    assert c.evaluate(args) == loop_evaluate(c, args)
    alphas = seeded_maps(rng, m, m) if alpha is None else [alpha]
    for alpha_, beta in zip(alphas, seeded_maps(rng, n, n)):
        assert pair_act_cochain(alpha_, beta, c) == loop_pair_act(alpha_, beta, c)
        assert transport_cochain(alpha_, beta, c) == loop_transport(alpha_, beta, c)
    wide = sparse_matrix(rng, m + 1, m)
    beta = sparse_matrix(rng, n, n)
    assert transport_cochain(wide, beta, c) == loop_transport(wide, beta, c)


def test_maps_match_the_loops_on_seeded_cochains():
    rng = random.Random(41)
    for trial in range(60):
        L = rand_algebra(rng) if trial % 3 else abelian(rng.randint(0, 5))
        p = rng.randint(0, min(4, L.dim))
        c = rand_cochain(rng, L, p, rng.randint(1, 3), sparsity=rng.choice((0.0, 0.5, 0.9)))
        assert_maps_match(rng, c, abelian(rng.randint(0, 5)))


def test_maps_match_the_loops_on_catalog_systems():
    """The catalog systems, curved n4 and two seeded basis changes of each,
    with the named automorphism pairs moved to the new bases."""
    from test_gauge_step import systems
    rng = random.Random(43)
    cases, pairs = systems()
    for name, fs in cases:
        for c in (fs.omega, fs.S.as_end_cochain(), rand_cochain(rng, fs.g, 1, fs.n.dim)):
            assert_maps_match(rng, c, fs.g)
        for alpha, beta in pairs.get(name, ()):
            omega = fs.omega
            assert pair_act_cochain(alpha, beta, omega) == loop_pair_act(alpha, beta, omega)
            beta_inv = invert(beta)
            assert (transport_cochain(alpha, beta_inv, omega)
                    == loop_transport(alpha, beta_inv, omega))


def test_value_maps_match_the_matvec_builders():
    """map_values against matvec, and the subspace embedding and restriction
    against sub.embed and coordinates_of, on seeded cochains, maps and subspaces."""
    rng = random.Random(83)
    for trial in range(60):
        L = rand_algebra(rng) if trial % 3 else abelian(rng.randint(0, 5))
        p, m = rng.randint(0, min(4, L.dim)), rng.randint(1, 3)
        c = rand_cochain(rng, L, p, m, sparsity=rng.choice((0.0, 0.5, 0.9)))
        for M in seeded_maps(rng, rng.randint(0, 4), m) + seeded_maps(rng, m, m):
            assert c.map_values(M) == matvec_values(c, M)
        ambient = m + rng.randint(0, 2)
        sub = Subspace.from_vectors(ambient, [tuple(rand_fraction(rng) if rng.random() < 0.6
                                                    else 0 for _ in range(ambient))
                                              for _ in range(m)])
        inside = rand_cochain(rng, L, p, sub.dim, sparsity=0.3)
        embedded = extensions.embed_cochain_from_subspace(inside, sub)
        assert embedded == loop_embed(inside, sub)
        assert extensions.restrict_cochain_to_subspace(embedded, sub) == inside
        assert loop_restrict(embedded, sub) == inside
        outside = embedded + rand_cochain(rng, L, p, ambient, sparsity=0.7)
        try:
            want = loop_restrict(outside, sub)
        except InvariantViolation as exc:
            with pytest.raises(InvariantViolation, match=re.escape(str(exc))):
                extensions.restrict_cochain_to_subspace(outside, sub)
        else:
            assert extensions.restrict_cochain_to_subspace(outside, sub) == want


@pytest.mark.parametrize("kind", ["center", "grading", "central"])
def test_the_stage_cocycle_matches_the_matvec_builder(kind):
    from test_classify import pipeline_system
    for fs in (pipeline_system(kind, 3), catalog("ext-heisenberg-kernel")):
        stage = extensions.build_quotient_stage(extensions.GKernel.from_factor_system(fs))
        assert stage.fs.omega == matvec_values(fs.omega, stage.proj_ad)


MAPS = ("pullback_cochain", "transport_cochain", "pair_act_cochain",
        "embed_cochain_from_subspace", "restrict_cochain_to_subspace")
ORACLES = {"pullback_cochain": loop_pullback, "transport_cochain": loop_transport,
           "pair_act_cochain": loop_pair_act, "embed_cochain_from_subspace": loop_embed,
           "restrict_cochain_to_subspace": loop_restrict}


@pytest.mark.parametrize("kind", ["center", "grading", "central"])
def test_pipeline_calls_match_the_loops(monkeypatch, kind):
    """Every cochain-map call of the derivation, automorphism, lifting and
    crossed-module routines on a pipeline system at h7 matches its loop."""
    from test_classify import pipeline_system
    from test_crossed import stage_module
    calls = []
    for module in (symmetry, extensions, crossed):
        for name in MAPS:
            real = getattr(module, name, None)
            if real is None:
                continue

            def checked(*args, _name=name, _real=real):
                out = _real(*args)
                assert out == ORACLES[_name](*args)
                calls.append(_name)
                return out
            monkeypatch.setattr(module, name, checked)
    fs = pipeline_system(kind, 3)
    alpha, beta = Matrix.identity(fs.n.dim), Matrix.identity(fs.g.dim)
    extension_derivations(fs)
    automorphism_pair_obstruction(fs, alpha, beta)
    assert equivalent_extensions(fs, fs).found
    lifting_cocycle(fs, LieAlgebra(1), [Matrix.zero(fs.n.dim, fs.n.dim)],
                    [Matrix.zero(fs.g.dim, fs.g.dim)], [Cochain(fs.g, 1, fs.n.dim)])
    cm = stage_module(fs)
    sp = split_crossed_module(cm)
    characteristic_class_theta_route(sp)
    characteristic_class_omega_route(sp)
    splitting_equivalence(cm)
    for x in range(cm.ghat.dim):
        crossed._module_action_on_f(sp, x)
    assert set(calls) == set(MAPS)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_pullback_is_functorial():
    rng = random.Random(47)
    for _ in range(40):
        A = rand_algebra(rng) if rng.random() < 0.5 else abelian(rng.randint(1, 5))
        B, C = abelian(rng.randint(0, 5)), abelian(rng.randint(0, 5))
        c = rand_cochain(rng, A, rng.randint(0, min(4, A.dim)), rng.randint(1, 2),
                         sparsity=0.4)
        phi = rng.choice(seeded_maps(rng, A.dim, B.dim))
        psi = rng.choice(seeded_maps(rng, B.dim, C.dim))
        assert (pullback_cochain(pullback_cochain(c, phi, B), psi, C)
                == pullback_cochain(c, phi @ psi, C))


@pytest.mark.parametrize("name", ["ext-heisenberg3", "ext-filiform4",
                                  "ext-heisenberg-kernel", "ext-sl2-kernel"])
def test_differential_commutes_with_pullback_along_homomorphisms(name):
    rng = random.Random(53)
    ext = build_extension(catalog(name))
    for p in range(4):
        c = rand_cochain(rng, ext.total, min(p, ext.total.dim), 2, sparsity=0.5)
        on_n = pullback_cochain(c, ext.inclusion, ext.n)
        assert (trivial_differential(on_n)
                == pullback_cochain(trivial_differential(c), ext.inclusion, ext.n))
        c = rand_cochain(rng, ext.g, min(p, ext.g.dim), 2, sparsity=0.5)
        on_total = pullback_cochain(c, ext.projection, ext.total)
        assert (trivial_differential(on_total)
                == pullback_cochain(trivial_differential(c), ext.projection, ext.total))


def test_pair_action_of_a_scalar_is_euler():
    rng = random.Random(59)
    for _ in range(30):
        L = rand_algebra(rng)
        p, m = rng.randint(0, min(4, L.dim)), rng.randint(1, 3)
        c = rand_cochain(rng, L, p, m, sparsity=0.3)
        t = rand_fraction(rng)
        act = pair_act_cochain(Matrix.zero(m, m), Matrix.identity(L.dim).scale(t), c)
        assert act == c.scale(-p * t)


def test_degree_zero_zero_maps_and_other_domains():
    rng = random.Random(61)
    L = rand_algebra(rng)
    vec = (Fraction(2), Fraction(-1, 3))
    c = vector_cochain(L, vec)
    for k in range(4):
        phi = sparse_matrix(rng, L.dim, k)
        assert pullback_cochain(c, phi, abelian(k)) == vector_cochain(abelian(k), vec)
    assert c.evaluate([]) == vec
    alpha = Matrix([[1, 2], [0, 3]])
    assert pair_act_cochain(alpha, sparse_matrix(rng, L.dim, L.dim), c).component(()) == (
        Fraction(4, 3), Fraction(-1))
    c = rand_cochain(rng, abelian(4), 2, 2)
    for k in (0, 1, 2, 5):
        assert pullback_cochain(c, Matrix.zero(4, k), abelian(k)).is_zero()
        phi = sparse_matrix(rng, 4, k, 0.8)
        pulled = pullback_cochain(c, phi, abelian(k))
        assert pulled.algebra == abelian(k) and pulled == loop_pullback(c, phi, abelian(k))
    with pytest.raises(DimensionMismatchError, match="pullback map has the wrong shape"):
        pullback_cochain(c, Matrix.zero(3, 2), abelian(2))
    with pytest.raises(DimensionMismatchError, match="pair action maps have the wrong shape"):
        pair_act_cochain(Matrix.zero(3, 2), Matrix.identity(4), c)
    with pytest.raises(DegreeMismatchError, match="expected 2 arguments, got 1"):
        c.evaluate([(1, 0, 0, 0)])
    with pytest.raises(DimensionMismatchError, match="argument length disagrees"):
        c.evaluate([(1, 0, 0), (0, 1, 0)])
