"""The sparse constructions of the exact core against the dense ones they replaced.

Every cochain the package builds is scattered from dict columns {key:
{slot: nonzero value}} into ``Cochain.from_columns``: the pullback and the
pair action add each term of ``_scatter`` into a dict, and the
characteristic cocycle of an invariant form is read from the stored
bracket table.  The stabilizer rows of ``_pair_system_rows`` are read from
the nonzero entries of S and of ``ad_stack``, and ``Subspace.coordinates_of``
returns a dict {basis position: nonzero value}.  The former dense constructions
are oracles in ``conftest.py``; each new one must match its oracle entry for
entry on seeded inputs: cochains of degree 0-3 (zero cochains among them)
under seeded maps, random derivation-valued S that is not inner with a
random omega, the Killing forms of the catalog algebras and of seeded
``change_of_basis`` images, and seeded subspaces with vectors inside and
outside.
"""

import random
from types import SimpleNamespace

from liecoh.catalog import abelian, catalog, filiform4, heisenberg3, killing_form, sl2
from liecoh.cochains import (Cochain, OuterActionMap, pair_act_cochain, pullback_cochain,
                             transport_cochain)
from liecoh.currents import characteristic_cocycle
from liecoh.liealg import change_of_basis, derivations
from liecoh.linalg import Matrix, Subspace, kernel
from liecoh.symmetry import _pair_system_rows

from conftest import (BASE_ALGEBRAS, all_keys_characteristic_cocycle, dense,
                      dense_pair_act_cochain, dense_pair_system_rows, dense_pullback_cochain,
                      nonzero_pairs, rand_algebra, rand_cochain, rand_fraction, rand_invertible,
                      tuple_coordinates_of)
from test_cochain_maps import seeded_maps
from test_classify import CASES


def seeded_cochains(rng):
    """Cochains of degree 0-3 on seeded algebras, dense, sparse and zero."""
    for trial in range(40):
        L = rand_algebra(rng) if trial % 4 else abelian(rng.randint(0, 4))
        p = rng.randint(0, min(3, L.dim))
        m = rng.randint(1, 3)
        yield Cochain.zero(L, p, m)
        yield rand_cochain(rng, L, p, m, sparsity=rng.choice((0.0, 0.5, 0.9)))


def test_cochain_maps_match_the_dense_scatter():
    rng = random.Random(241)
    for c in seeded_cochains(rng):
        n, m = c.algebra.dim, c.value_dim
        domain = abelian(rng.randint(0, 4))
        for phi in seeded_maps(rng, n, domain.dim):
            pulled = pullback_cochain(c, phi, domain)
            assert pulled == dense_pullback_cochain(c, phi, domain)
            assert pulled.algebra is domain and all(x for _, x in pulled.pairs)
        for alpha, beta in zip(seeded_maps(rng, m, m), seeded_maps(rng, n, n)):
            acted = pair_act_cochain(alpha, beta, c)
            assert acted == dense_pair_act_cochain(alpha, beta, c)
            assert all(x for _, x in acted.pairs)
            assert (transport_cochain(alpha, beta, c)
                    == dense_pullback_cochain(c, beta, c.algebra).map_values(alpha))
        args = [tuple(rand_fraction(rng) if rng.random() < 0.6 else 0 for _ in range(n))
                for _ in range(c.degree)]
        at_args = Matrix.from_columns(args, rows=n)
        assert c.evaluate(args) == dense_pullback_cochain(
            c, at_args, abelian(c.degree)).component(tuple(range(c.degree)))


def assert_rows_match(fs):
    rows, omega_rows, nvars, va, vb = _pair_system_rows(fs)
    old_rows, old_omega_rows, old_nvars, old_va, old_vb = dense_pair_system_rows(fs)
    assert (nvars, va, vb) == (old_nvars, old_va, old_vb)
    assert len(rows) == len(old_rows) and len(omega_rows) == len(old_omega_rows)
    # the same rows in the same order, read without their zeros
    for new, old in ((rows, old_rows), (omega_rows, old_omega_rows)):
        assert (Matrix.from_sparse_rows(new, nvars).sparse_rows()
                == Matrix.from_sparse_rows(old, nvars).sparse_rows())
    # the stabilizer block holds no zero entry
    assert all(all(row.values()) for row in rows)
    assert kernel(Matrix.from_sparse_rows(rows, nvars)) == kernel(
        Matrix.from_sparse_rows(old_rows, nvars))


def outer_system(rng, n_alg, g_alg):
    """Random derivations S_a of n_alg, not all inner, and a random n-valued omega."""
    der = derivations(n_alg).matrices
    nd = n_alg.dim
    inner = Subspace.row_space(Matrix.from_sparse_rows(
        [dict(ad.flat_pairs()) for ad in n_alg.ad_matrices()], nd * nd))
    while True:
        mats = []
        for _ in range(g_alg.dim):
            m = Matrix.zero(nd, nd)
            for d in der:
                if rng.random() < 0.6:
                    m = m + d.scale(rand_fraction(rng))
            mats.append(m)
        if any(inner.reduce_entries(m.flat_pairs()) for m in mats):
            break
    omega = rand_cochain(rng, g_alg, 2, nd, sparsity=rng.choice((0.0, 0.5, 1.0)))
    return SimpleNamespace(n=n_alg, g=g_alg, S=OuterActionMap(g_alg, mats, target=n_alg),
                           omega=omega)


def test_pair_system_rows_match_the_counter_rows():
    rng = random.Random(251)
    for trial in range(12):
        n_alg = rng.choice((heisenberg3, filiform4, lambda: abelian(2)))()
        n_alg = change_of_basis(n_alg, rand_invertible(rng, n_alg.dim))
        g_alg = rand_algebra(rng, max_dim=3) if trial % 2 else abelian(rng.randint(1, 3))
        assert_rows_match(outer_system(rng, n_alg, g_alg))
    for name in ("ext-heisenberg3", "ext-filiform4", "ext-heisenberg-kernel",
                 "ext-sl2-kernel"):
        assert_rows_match(catalog(name))
    for _, fs in CASES:
        assert_rows_match(fs)


def test_characteristic_cocycle_matches_the_all_keys_loop():
    rng = random.Random(257)
    for _, make in BASE_ALGEBRAS:
        L = make()
        for M in (L, change_of_basis(L, rand_invertible(rng, L.dim)),
                  change_of_basis(L, rand_invertible(rng, L.dim))):
            kappa = killing_form(M)
            eta = characteristic_cocycle(kappa)
            assert eta == all_keys_characteristic_cocycle(kappa)
            assert all(x for _, x in eta.pairs)
    # sl2 carries the nonzero class; its eta(e, f, h) is 4
    assert characteristic_cocycle(killing_form(sl2())).component((0, 1, 2)) == (4,)


def test_coordinates_of_matches_the_tuple_form():
    rng = random.Random(263)
    for _ in range(40):
        n = rng.randint(0, 6)
        spanning = [tuple(rand_fraction(rng) if rng.random() < 0.5 else 0 for _ in range(n))
                    for _ in range(rng.randint(0, n))]
        sub = Subspace.row_space(Matrix.from_sparse_rows(
            [dict(nonzero_pairs(v)) for v in spanning], n))
        vectors = spanning + [(0,) * n] + [
            tuple(rand_fraction(rng) if rng.random() < 0.4 else 0 for _ in range(n))
            for _ in range(3)]
        for v in vectors:
            coords = sub.coordinates_of(nonzero_pairs(v))
            old = tuple_coordinates_of(sub, nonzero_pairs(v))
            assert (None if coords is None else dense(coords, sub.dim)) == old
            assert coords is None or all(coords.values())
    for L in (heisenberg3(), sl2(), filiform4(), abelian(2)):
        der = derivations(L)
        assert [dense(c, der.dim) for c in der.inner_coords] == [
            tuple_coordinates_of(der.subspace, ad.flat_pairs()) for ad in L.ad_matrices()]
