"""The gauge step of equivalence and symmetry lifting against the code it replaced.

``restrict_to_center``, ``loop_equivalent_extensions``,
``loop_automorphism_obstruction`` and ``loop_derivation_obstruction`` are
the bodies the package ran before each piece of the gauge step got one
implementation (``center_module``, ``inner_cochains``, ``gauge_remainder``,
``cohomology.primitive`` and ``extension_map``), and the ``column_*``
functions are the column joins of ``zero_vec``/``unit_vec`` that
``block_matrix`` replaced.  They stay here as oracles: gamma, normalized
classes, witness and lift matrices and certificates must agree exactly on
the catalog systems, the curved n4 system, and seeded gauge translates and
basis changes of them.  A counter pins ``center`` to one call per gauge
operation and per classification.
"""

import random
import sys
from fractions import Fraction

import pytest

from liecoh import liealg
from liecoh.catalog import abelian, catalog, heisenberg3, nonabelian2
from liecoh.cochains import (Cochain, HALF, covariant_differential, increasing_tuples,
                             pair_act_cochain, superbracket)
from liecoh.cohomology import cohomology, differential_matrix
from liecoh.crossed import CrossedModule, split_crossed_module, splitting_equivalence
from liecoh.errors import NoGammaError, NotADerivationError
from liecoh.extensions import (EquivalenceWitness, FactorSystem, GKernel, Inequivalent,
                               build_extension, build_quotient_stage, center_module,
                               classify_extensions, embed_cochain_from_subspace,
                               equivalent_extensions, extension_map, obstruction_class,
                               reduce_via_stage, restrict_cochain_to_subspace)
from liecoh.liealg import Representation, center, change_of_basis, derivations
from liecoh.linalg import Matrix, invert, linear_combination
from liecoh.symmetry import (automorphism_pair_obstruction, derivation_pair_obstruction,
                             extension_derivations, lifting_cocycle,
                             transported_factor_system)

from conftest import (basis_of, coordinates, coordinates_of_vec, dense_ad, dense_bracket,
                      dense_bracket_basis, dense_solve_affine, dense_solve_inner, embed, flat,
                      from_coordinates, rand_cochain, rand_invertible, rand_matrix, rand_vector,
                      reduce_vec, split_coordinates, unit_vec, vec_add, vec_scale, vec_sub,
                      zero_vec)
from test_systems import curved_factor_system


# ---------------------------------------------------------------------------
# the replaced bodies
# ---------------------------------------------------------------------------

def restrict_to_center(S):
    """The former OuterActionMap.restrict_to_center."""
    z = center(S.target)
    mats = []
    for m in S.matrices:
        cols = []
        for b in basis_of(z):
            coords = coordinates_of_vec(z, m.matvec(b))
            if coords is None:
                raise NotADerivationError("a derivation did not preserve the center")
            cols.append(coords)
        mats.append(Matrix.from_columns(cols, rows=z.dim))
    return Representation(S.algebra, z.dim, mats)


def loop_equivalent_extensions(fs1, fs2):
    """The former equivalent_extensions, without its verification."""
    n_alg, g_alg = fs1.n, fs1.g
    nd, gd = n_alg.dim, g_alg.dim
    particular, certificate = dense_solve_inner(
        n_alg, [flat(m1 - m2) for m1, m2 in zip(fs1.S.matrices, fs2.S.matrices)])
    if particular is None:
        return Inequivalent("kernel-mismatch", certificate)
    gamma0 = from_coordinates(g_alg, 1, nd, particular)
    delta = (fs1.omega - fs2.omega - covariant_differential(fs2.S, gamma0)
             - superbracket(n_alg, gamma0, gamma0).scale(HALF))
    z = center(n_alg)
    delta_z = restrict_cochain_to_subspace(delta, z)
    d1 = differential_matrix(restrict_to_center(fs2.S), 1)
    zeta_coords, _, certificate = dense_solve_affine(d1, coordinates(delta_z))
    if zeta_coords is None:
        return Inequivalent("class-difference", certificate)
    zeta = embed_cochain_from_subspace(from_coordinates(g_alg, 1, z.dim, zeta_coords), z)
    gamma = gamma0 + zeta
    cols = [unit_vec(nd + gd, i) for i in range(nd)]
    for a in range(gd):
        cols.append(tuple(gamma.component((a,))) + unit_vec(gd, a))
    return EquivalenceWitness(gamma, Matrix.from_columns(cols, rows=nd + gd))


def column_pair_map(alpha, beta, gamma):
    """(n, x) -> (alpha n + gamma(beta x), beta x), joined column by column."""
    nd, gd = alpha.cols, beta.cols  # both maps are square
    cols = [tuple(alpha.column(i)) + zero_vec(gd) for i in range(nd)]
    for a in range(gd):
        bx = beta.column(a)
        cols.append(tuple(gamma.evaluate([bx])) + tuple(bx))
    return Matrix.from_columns(cols, rows=nd + gd)


def loop_automorphism_obstruction(fs, alpha, beta):
    """The former automorphism_pair_obstruction: (gamma, normalized class, lift)."""
    transported = transported_factor_system(fs, alpha, beta)
    particular, certificate = dense_solve_inner(
        fs.n, [flat(m1 - m2) for m1, m2 in zip(transported.S.matrices, fs.S.matrices)])
    if particular is None:
        raise NoGammaError(certificate)
    gamma = from_coordinates(fs.g, 1, fs.n.dim, particular)
    delta = (transported.omega - fs.omega - covariant_differential(fs.S, gamma)
             - superbracket(fs.n, gamma, gamma).scale(HALF))
    z = center(fs.n)
    delta_z = restrict_cochain_to_subspace(delta, z)
    cls = cohomology(restrict_to_center(fs.S), 2).class_of(delta_z)
    lift = None
    if cls.is_zero():
        zeta_coords, _, _ = dense_solve_affine(
            differential_matrix(restrict_to_center(fs.S), 1), coordinates(delta_z))
        zeta = embed_cochain_from_subspace(from_coordinates(fs.g, 1, z.dim, zeta_coords), z)
        lift = column_pair_map(alpha, beta, gamma + zeta)
    return gamma, cls.normalized, lift


def loop_derivation_obstruction(fs, alpha, beta):
    """The former derivation_pair_obstruction: (gamma, normalized class)."""
    particular, certificate = dense_solve_inner(
        fs.n, [flat(alpha.commutator(fs.S.matrices[a])
                    - linear_combination(beta.column(a), fs.S.matrices, fs.n.dim, fs.n.dim))
               for a in range(fs.g.dim)])
    if particular is None:
        raise NoGammaError(certificate)
    gamma = from_coordinates(fs.g, 1, fs.n.dim, particular)
    delta = pair_act_cochain(alpha, beta, fs.omega) - covariant_differential(fs.S, gamma)
    delta_z = restrict_cochain_to_subspace(delta, center(fs.n))
    return gamma, cohomology(restrict_to_center(fs.S), 2).class_of(delta_z).normalized


def column_build_maps(nd, gd):
    """The former inclusion, projection and section of build_extension."""
    inclusion = Matrix.from_columns([unit_vec(nd + gd, i) for i in range(nd)], rows=nd + gd)
    projection = Matrix.from_columns(
        [zero_vec(gd)] * nd + [unit_vec(gd, a) for a in range(gd)], rows=gd)
    section = Matrix.from_columns([unit_vec(nd + gd, nd + a) for a in range(gd)],
                                  rows=nd + gd)
    return inclusion, projection, section


def column_stage_data(stage):
    """The former action matrices and alpha matrix of build_quotient_stage."""
    n_alg, g_alg = stage.kernel.n, stage.kernel.g
    s1_mats = []
    for a in range(g_alg.dim):
        cols = [stage.proj_ad.matvec(stage.kernel.S.matrices[a].matvec(stage.sect_ad.column(i)))
                for i in range(stage.n_ad.dim)]
        s1_mats.append(Matrix.from_columns(cols, rows=stage.n_ad.dim))
    alpha_cols = [tuple(stage.proj_ad.column(j)) + zero_vec(g_alg.dim)
                  for j in range(n_alg.dim)]
    return s1_mats, Matrix.from_columns(alpha_cols, rows=stage.gs.dim)


def column_rebuild_maps(stage):
    """The former inclusion, projection and section of rebuild_from_cocycle."""
    nd, gd = stage.kernel.n.dim, stage.kernel.g.dim
    zd, nad = stage.z.dim, stage.n_ad.dim
    total_dim = zd + nad + gd
    incl_cols = [tuple(split_coordinates(stage.z, unit_vec(nd, j)))
                 + tuple(stage.proj_ad.column(j)) + zero_vec(gd) for j in range(nd)]
    proj_cols = [zero_vec(gd)] * (zd + nad) + [unit_vec(gd, a) for a in range(gd)]
    sect_cols = [unit_vec(total_dim, zd + nad + a) for a in range(gd)]
    return (Matrix.from_columns(incl_cols, rows=total_dim),
            Matrix.from_columns(proj_cols, rows=gd),
            Matrix.from_columns(sect_cols, rows=total_dim))


def column_witness(stage):
    """The former stage rewrite witness of reduce_via_stage."""
    nd, gd = stage.kernel.n.dim, stage.kernel.g.dim
    zd, nad = stage.z.dim, stage.n_ad.dim
    cols = [tuple(split_coordinates(stage.z, unit_vec(nd, j)))
            + tuple(stage.proj_ad.column(j)) + zero_vec(gd) for j in range(nd)]
    cols += [zero_vec(zd + nad) + unit_vec(gd, a) for a in range(gd)]
    return Matrix.from_columns(cols, rows=zd + nad + gd)


def loop_stage_cocycle(fs, stage):
    """The former section cocycle of reduce_via_stage, lifted vector by vector."""
    nd, gd, nad = fs.n.dim, fs.g.dim, stage.n_ad.dim

    def section_vec(i):
        if i < nad:
            return tuple(stage.sect_ad.column(i)) + zero_vec(gd)
        return zero_vec(nd) + unit_vec(gd, i - nad)

    def section_apply(v):
        out = zero_vec(nd + gd)
        for i, c in enumerate(v):
            if c != 0:
                out = vec_add(out, vec_scale(c, section_vec(i)))
        return out

    total = build_extension(fs).total
    table = {}
    for i, j in increasing_tuples(stage.gs.dim, 2):
        w = vec_sub(dense_bracket(total, section_vec(i), section_vec(j)),
                    section_apply(dense_bracket_basis(stage.gs, i, j)))
        coords = coordinates_of_vec(stage.z, w[:nd])
        if any(coords):
            table[(i, j)] = coords
    return Cochain(stage.gs, 2, stage.z.dim, table)


def column_embedding(cm, sp):
    """The former h -> z x ghat embedding of splitting_equivalence."""
    cols = []
    for i in range(cm.h.dim):
        v = unit_vec(cm.h.dim, i)
        cols.append(tuple(coordinates_of_vec(sp.z, vec_sub(v, reduce_vec(sp.z, v))))
                    + tuple(cm.alpha.column(i)))
    return Matrix.from_columns(cols, rows=sp.z.dim + cm.ghat.dim)


def loop_lift_matrices(fs, report, psi_n, psi_g, theta):
    """The former lift of lifting_cocycle, from its cocycle and Z^1 data."""
    z = center(fs.n)
    corr_coords, _, _ = dense_solve_affine(differential_matrix(report.z1_rep, 1),
                                           vec_scale(-1, coordinates(report.cocycle)))
    corr = from_coordinates(report.h, 1, report.z1.dim, corr_coords)
    mats = []
    for x in range(report.h.dim):
        shift = embed_cochain_from_subspace(from_coordinates(
            fs.g, 1, z.dim, embed(report.z1, corr.component((x,)))), z)
        mats.append(column_pair_map(psi_n[x], psi_g[x], theta[x] + shift))
    return tuple(mats)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

CATALOG_SYSTEMS = ("ext-heisenberg3", "ext-filiform4", "ext-heisenberg-kernel",
                   "ext-sl2-kernel")


def change_factor_system(fs, pn, pg):
    """The same extension in the bases given by the columns of pn and pg."""
    pn_inv = invert(pn)
    mats = [pn_inv @ linear_combination(pg.column(b), fs.S.matrices, fs.n.dim, fs.n.dim) @ pn
            for b in range(fs.g.dim)]
    omega = Cochain(change_of_basis(fs.g, pg), 2, fs.n.dim, {
        (b, c): pn_inv.matvec(fs.omega.evaluate([pg.column(b), pg.column(c)]))
        for b, c in increasing_tuples(fs.g.dim, 2)})
    return FactorSystem(change_of_basis(fs.n, pn), omega.algebra, mats, omega)


SWAP = Matrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
SHEAR = Matrix([[1, 0, 0], [0, 1, 0], [0, 1, 1]])
# automorphism pairs that lift, that are obstructed (the filiform swap) and
# that do not stabilize S (curved n4), for the NoGammaError path
NAMED_PAIRS = {
    "ext-heisenberg3": [(Matrix([[-1]]), Matrix([[1, 0], [0, -1]]))],
    "ext-filiform4": [(Matrix.identity(1), SWAP), (Matrix.identity(1), SHEAR)],
    "ext-heisenberg-kernel": [(Matrix.identity(3), Matrix([[2, 0], [0, 3]]))],
    "curved-n4": [(Matrix.identity(4), Matrix([[2, 0], [0, 1]]))],
}


def systems():
    """Catalog systems, the curved n4 system, and two seeded basis changes of
    each, with the named automorphism pairs moved to the new bases."""
    rng = random.Random(29)
    base = [(name, catalog(name)) for name in CATALOG_SYSTEMS]
    base.append(("curved-n4", curved_factor_system()))
    out, pairs = list(base), dict(NAMED_PAIRS)
    for name, fs in base:
        for k in range(2):
            pn, pg = rand_invertible(rng, fs.n.dim), rand_invertible(rng, fs.g.dim)
            out.append((f"{name}-basis{k}", change_factor_system(fs, pn, pg)))
            pairs[out[-1][0]] = [(invert(pn) @ a @ pn, invert(pg) @ b @ pg)
                                 for a, b in NAMED_PAIRS.get(name, ())]
    return out, pairs


SYSTEMS, SYSTEM_PAIRS = systems()
SYSTEM_IDS = [name for name, _ in SYSTEMS]


def unipotent(L, x):
    """exp(ad x) when ad x is nilpotent, else None: an automorphism of L."""
    ad = dense_ad(L, x)
    term, total = Matrix.identity(L.dim), Matrix.identity(L.dim)
    for k in range(1, L.dim + 1):
        term = (term @ ad).scale(Fraction(1, k))
        if term.is_zero():
            return total
        total = total + term
    return None


def automorphism_pairs(name, fs, rng):
    """The identity pair, the named pairs and seeded exp(ad x), exp(ad y) pairs."""
    pairs = [(Matrix.identity(fs.n.dim), Matrix.identity(fs.g.dim))] + SYSTEM_PAIRS.get(name, [])
    for _ in range(3):
        alpha = unipotent(fs.n, rand_vector(rng, fs.n.dim)) or Matrix.identity(fs.n.dim)
        beta = unipotent(fs.g, rand_vector(rng, fs.g.dim)) or Matrix.identity(fs.g.dim)
        pairs.append((alpha, beta))
    return pairs


def derivation_pairs(fs, rng):
    """The stabilizer pairs of fs and seeded derivation pairs that may miss it."""
    pairs = list(extension_derivations(fs).stabilizer_pairs)
    der_n, der_g = derivations(fs.n).matrices, derivations(fs.g).matrices
    for _ in range(3):
        alpha = linear_combination(rand_vector(rng, len(der_n)), der_n, fs.n.dim, fs.n.dim)
        beta = linear_combination(rand_vector(rng, len(der_g)), der_g, fs.g.dim, fs.g.dim)
        pairs.append((alpha, beta))
    return pairs


def outcome(fn, *args):
    try:
        return fn(*args)
    except NoGammaError as exc:
        return ("no gamma", exc.certificate)


# ---------------------------------------------------------------------------
# the gauge step against the oracles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, fs", SYSTEMS, ids=SYSTEM_IDS)
def test_center_module_matches_restriction_oracle(name, fs):
    z, rep = center_module(fs.S)
    assert z == center(fs.n)
    assert rep == restrict_to_center(fs.S)


@pytest.mark.parametrize("name, fs", SYSTEMS, ids=SYSTEM_IDS)
def test_equivalence_matches_oracle(name, fs):
    rng = random.Random(31)
    z, z_rep = center_module(fs.S)
    others = [fs, fs.gauge(rand_cochain(rng, fs.g, 1, fs.n.dim, sparsity=0.3))]
    # center-valued cocycle shifts: some are coboundaries, some are not
    for v in basis_of(cohomology(z_rep, 2).cocycles):
        shift = from_coordinates(fs.g, 2, z.dim, vec_scale(rng.randint(1, 3), v))
        others.append(FactorSystem(fs.n, fs.g, fs.S, fs.omega + embed_cochain_from_subspace(shift, z)))
    for alpha, beta in automorphism_pairs(name, fs, rng):
        others.append(transported_factor_system(fs, alpha, beta))
    stages = set()
    for other in others:
        for fs1, fs2 in ((other, fs), (fs, other)):
            got, want = equivalent_extensions(fs1, fs2), loop_equivalent_extensions(fs1, fs2)
            assert got == want
            stages.add(got.stage if not got.found else "found")
    assert "found" in stages


@pytest.mark.parametrize("name, fs", SYSTEMS, ids=SYSTEM_IDS)
def test_automorphism_obstruction_matches_oracle(name, fs):
    rng = random.Random(37)
    for alpha, beta in automorphism_pairs(name, fs, rng):
        got = outcome(automorphism_pair_obstruction, fs, alpha, beta)
        want = outcome(loop_automorphism_obstruction, fs, alpha, beta)
        if isinstance(want, tuple) and want[0] == "no gamma":
            assert got == want
            continue
        assert (got.gamma, got.obstruction.normalized, got.lift) == want


@pytest.mark.parametrize("name, fs", SYSTEMS, ids=SYSTEM_IDS)
def test_derivation_obstruction_matches_oracle(name, fs):
    rng = random.Random(41)
    for alpha, beta in derivation_pairs(fs, rng):
        got = outcome(derivation_pair_obstruction, fs, alpha, beta)
        want = outcome(loop_derivation_obstruction, fs, alpha, beta)
        if isinstance(got, tuple) and got[0] == "no gamma":
            assert got == want
            continue
        cls, gamma = got
        assert (gamma, cls.normalized) == want


@pytest.mark.parametrize("name, fs", SYSTEMS, ids=SYSTEM_IDS)
def test_extension_and_stage_builders_match_column_oracles(name, fs):
    ext = build_extension(fs)
    assert (ext.inclusion, ext.projection, ext.section) == column_build_maps(fs.n.dim, fs.g.dim)
    stage = build_quotient_stage(GKernel.from_factor_system(fs))
    assert (list(stage.fs.S.matrices), stage.alpha_matrix) == column_stage_data(stage)
    red = reduce_via_stage(fs)
    assert red.f_tilde == loop_stage_cocycle(fs, red.stage)
    rebuilt = red.rebuilt
    assert (rebuilt.inclusion, rebuilt.projection, rebuilt.section) == column_rebuild_maps(red.stage)
    assert red.witness == column_witness(red.stage)


def test_extension_map_matches_column_join():
    rng = random.Random(43)
    for _ in range(20):
        nd, gd = rng.randint(0, 3), rng.randint(0, 3)
        alpha, beta = rand_matrix(rng, nd, nd), rand_matrix(rng, gd, gd)
        gamma = from_coordinates(abelian(gd), 1, nd, rand_vector(rng, gd * nd))
        assert (extension_map(alpha, gamma.as_matrix() @ beta, beta)
                == column_pair_map(alpha, beta, gamma))


@pytest.mark.parametrize("name", ["ext-heisenberg3", "ext-filiform4", "ext-heisenberg-kernel"])
def test_splitting_embedding_matches_column_oracle(name):
    stage = build_quotient_stage(GKernel.from_factor_system(catalog(name)))
    cm = CrossedModule(stage.kernel.n, stage.gs, stage.alpha_matrix, stage.rho)
    witness, chi = splitting_equivalence(cm)
    assert chi.is_zero()
    assert witness.embedding == column_embedding(cm, split_crossed_module(cm))


def grading_lift_data():
    """h = nonabelian2, [x, y] = x, acting on the semidirect heisenberg3 x line:
    x by a central shift and y by a grading.  The cocycle is nonzero but bounds."""
    fs = FactorSystem(heisenberg3(), abelian(1), [Matrix.zero(3, 3)], Cochain(abelian(1), 2, 3))
    grading = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    psi_n = [Matrix.zero(3, 3), grading]
    psi_g = [Matrix.zero(1, 1), Matrix.zero(1, 1)]
    theta = [Cochain(fs.g, 1, 3, {(0,): (0, 0, 1)}), Cochain(fs.g, 1, 3)]
    return fs, nonabelian2(), psi_n, psi_g, theta


def test_lift_matrices_match_column_oracle():
    fs, h, psi_n, psi_g, theta = grading_lift_data()
    report = lifting_cocycle(fs, h, psi_n, psi_g, theta)
    assert not report.is_zero_cocycle and report.lift_exists
    assert report.lift_matrices == loop_lift_matrices(fs, report, psi_n, psi_g, theta)


# ---------------------------------------------------------------------------
# one center per gauge operation
# ---------------------------------------------------------------------------

@pytest.fixture
def center_calls(monkeypatch):
    """Count center() calls through every liecoh module that imported it."""
    calls = []
    real = liealg.center

    def counted(L):
        calls.append(L.dim)
        return real(L)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] == "liecoh":
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)
    return calls


@pytest.mark.parametrize("name", ["ext-heisenberg-kernel", "ext-filiform4"])
def test_center_runs_once_per_gauge_operation(name, center_calls):
    fs = catalog(name)
    kernel = GKernel.from_factor_system(fs)
    ident_n, ident_g = Matrix.identity(fs.n.dim), Matrix.identity(fs.g.dim)
    zero_n, zero_g = Matrix.zero(fs.n.dim, fs.n.dim), Matrix.zero(fs.g.dim, fs.g.dim)
    lift_args = (fs, abelian(1), [zero_n], [zero_g], [Cochain(fs.g, 1, fs.n.dim)])
    operations = {
        "extension_derivations": lambda: extension_derivations(fs),
        "obstruction_class": lambda: obstruction_class(kernel),
        "derivation_pair_obstruction": lambda: derivation_pair_obstruction(fs, zero_n, zero_g),
        "automorphism_pair_obstruction":
            lambda: automorphism_pair_obstruction(fs, ident_n, ident_g),
        "lifting_cocycle": lambda: lifting_cocycle(*lift_args),
        "equivalent_extensions": lambda: equivalent_extensions(fs, fs),
        "classify_extensions": lambda: classify_extensions(kernel),
    }
    counts = {}
    for op, run in operations.items():
        center_calls.clear()
        run()
        counts[op] = len(center_calls)
    assert counts == dict.fromkeys(operations, 1)
