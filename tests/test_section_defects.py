"""Section defects, the pivot read-off and the restriction against the loops
they replaced.

An extension's cocycle and a crossed module's action table are defects of a
linear section sigma, omega(x, y) = [sigma x, sigma y] - sigma[x, y] and
theta_x = x.sigma - sigma(x.), read in the coordinates of a subspace.  The
package computes them with ``liealg.bracket_defect``,
``Subspace.split_matrix`` and ``Subspace.restrict``.  The hand-written
loops those replaced stay here as oracles and must match entry for entry on
the catalog systems, curved n4, two seeded basis changes of each, the three
benchmark factor-system kinds at h7, the stage crossed modules of all of
them and the ``ad: L -> Der(L)`` crossed modules; the alternating
extension of theta, now read from the pivots and pairs of n, also matches
the dense body it replaced.  Planted theta
perturbations must fail the check the former loop fails, at the same
(x, y, a).  The theta|f check compares theta on n with f's alternation at
every (i, j), as ``extensions.restricts_to`` does for the stage, so a theta
that differs from f on the diagonal, below it or where f vanishes is
rejected; the former comparison, which looked only where f is nonzero and
i < j, stays here as ``holed_restriction`` to show those plants passed it.
A factor system built from matrices validates against the map it keeps, so
its curvature is computed once, and the curvature failures, now read from
the nonzero keys of curvature minus ad(omega), match the former dense
comparison of every key.
"""

import random
import sys

import pytest

from liecoh import cochains, extensions
from liecoh.catalog import catalog
from liecoh.cochains import (Cochain, OuterActionMap, cochain_differential,
                             covariant_differential, increasing_tuples)
from liecoh.cohomology import cohomology
from liecoh.crossed import (_alternating_extension, _check_splitting,
                            characteristic_class_omega_route, split_crossed_module,
                            splitting_equivalence)
from liecoh.errors import DimensionMismatchError, InvariantViolation, NoLiftError
from liecoh.extensions import (FactorSystem, GKernel, build_extension, build_quotient_stage,
                               center_module, extension_map, extract_factor_system,
                               factor_system_report, reduce_via_stage,
                               restrict_cochain_to_subspace, stage_theta)
from liecoh.liealg import LieAlgebra, Representation
from liecoh.linalg import Matrix, block_matrix, linear_combination, to_fractions

from conftest import (as_column, basis_of, coordinates_of_vec, dense, dense_act, dense_ad,
                      dense_bracket, dense_bracket_basis, dense_coeffs, dense_solve_columns, embed,
                      flat, ideal_coordinates, rand_matrix, rand_vector, reduce_vec,
                      split_coordinates, unit_vec, value_at_indices, vec_add, vec_is_zero,
                      vec_scale, vec_sub, zero_vec)
from test_classify import CASE_IDS, CASES
from test_crossed import (CATALOG_MODULES, _bracket_in_n, loop_module_action_on_f,
                          oracle_modules, stage_module)
from test_gauge_step import column_embedding


# ---------------------------------------------------------------------------
# the replaced loops
# ---------------------------------------------------------------------------

def loop_extract_omega(ext, sigma):
    """The former omega loop of extract_factor_system."""
    table = {}
    for a in range(ext.g.dim):
        for b in range(a + 1, ext.g.dim):
            w = dense_bracket(ext.total, sigma.column(a), sigma.column(b))
            w = vec_sub(w, sigma.matvec(dense_bracket_basis(ext.g, a, b)))
            coords = ideal_coordinates(ext, w)
            if not vec_is_zero(coords):
                table[(a, b)] = coords
    return Cochain(ext.g, 2, ext.n.dim, table)


def loop_restrict(sub, m, message):
    """The former restriction loops of center_module and split_crossed_module."""
    cols = []
    for b in basis_of(sub):
        coords = coordinates_of_vec(sub, m.matvec(b))
        if coords is None:
            raise InvariantViolation(message)
        cols.append(coords)
    return Matrix.from_columns(cols, rows=sub.dim)


def loop_z_part(stage, v):
    """The former QuotientStage.z_part: v minus its complement part, read in z."""
    complement = stage.sect_ad.matvec(stage.proj_ad.matvec(v))
    coords = coordinates_of_vec(stage.z, vec_sub(to_fractions(v), complement))
    if coords is None:
        raise InvariantViolation("vector does not split along the center")
    return coords


def loop_stage_theta(stage):
    """The former stage_theta."""
    n_ad, sect_ad = stage.n_ad, stage.sect_ad
    f_table = {}
    for key in increasing_tuples(n_ad.dim, 2):
        i, j = key
        w = dense_bracket(stage.kernel.n, sect_ad.column(i), sect_ad.column(j))
        w = vec_sub(w, sect_ad.matvec(dense_bracket_basis(n_ad, i, j)))
        coords = coordinates_of_vec(stage.z, w)
        if coords is None:
            raise InvariantViolation("the center cocycle left the center")
        if not vec_is_zero(coords):
            f_table[key] = coords
    theta = {}
    for i in range(stage.gs.dim):
        for a in range(n_ad.dim):
            val = loop_z_part(stage, stage.rho.matrices[i].matvec(sect_ad.column(a)))
            if not vec_is_zero(val):
                theta[(i, a)] = as_column(val)
    return Cochain(n_ad, 2, stage.z.dim, f_table), theta


def loop_f_tilde(fs, stage):
    """The former section cocycle loop of reduce_via_stage."""
    nd, gd = fs.n.dim, fs.g.dim
    total = build_extension(fs).total
    lift = extension_map(stage.sect_ad, Matrix.zero(nd, gd), Matrix.identity(gd))
    table = {}
    for key in increasing_tuples(stage.gs.dim, 2):
        i, j = key
        w = dense_bracket(total, lift.column(i), lift.column(j))
        w = vec_sub(w, lift.matvec(dense_bracket_basis(stage.gs, i, j)))
        if not vec_is_zero(w[nd:]):
            raise InvariantViolation("stage cocycle has a nonzero quotient part")
        coords = coordinates_of_vec(stage.z, w[:nd])
        if coords is None:
            raise InvariantViolation("stage cocycle left the center")
        if not vec_is_zero(coords):
            table[key] = coords
    return Cochain(stage.gs, 2, stage.z.dim, table)


def loop_rebuild_inclusion(stage):
    """The former inclusion of rebuild_from_cocycle: z_part joined column by column."""
    nd = stage.kernel.n.dim
    z_part = Matrix.from_columns([loop_z_part(stage, unit_vec(nd, j)) for j in range(nd)],
                                 rows=stage.z.dim)
    return block_matrix([[z_part], [stage.alpha_matrix]])


def loop_n_alg(cm, n_sub):
    """The former bracket table of the image of alpha."""
    table = {}
    basis = basis_of(n_sub)
    for i in range(n_sub.dim):
        for j in range(i + 1, n_sub.dim):
            coords = coordinates_of_vec(n_sub, dense_bracket(cm.ghat, basis[i], basis[j]))
            if coords is None:
                raise InvariantViolation("the image of alpha is not bracket-closed")
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                table[(i, j)] = entry
    return LieAlgebra(n_sub.dim, table)


def loop_split(sp):
    """The former f, theta and ghat-action on z of split_crossed_module."""
    cm, z, n_sub, h_lift = sp.cm, sp.z, sp.n_sub, sp.h_lift

    def z_coords_of(v):
        v = to_fractions(v)
        coords = coordinates_of_vec(z, vec_sub(v, reduce_vec(z, v)))
        if coords is None:
            raise InvariantViolation("vector does not split along the kernel")
        return coords

    f_table = {}
    for key in increasing_tuples(n_sub.dim, 2):
        i, j = key
        w = dense_bracket(cm.h, h_lift.column(i), h_lift.column(j))
        w = vec_sub(w, h_lift.matvec(dense_bracket_basis(sp.n_alg, i, j)))
        coords = z_coords_of(w)
        if not vec_is_zero(coords):
            f_table[key] = coords
    theta = {}
    for x in range(cm.ghat.dim):
        for a in range(n_sub.dim):
            w = dense_act(cm.action, x, h_lift.column(a))
            w = vec_sub(w, h_lift.matvec(_bracket_in_n(sp, x, a)))
            val = z_coords_of(w)
            if not vec_is_zero(val):
                theta[(x, a)] = as_column(val)
    zhat = tuple(loop_restrict(z, m, "the action does not preserve the kernel")
                 for m in cm.action.matrices)
    return Cochain(sp.n_alg, 2, z.dim, f_table), theta, zhat


def loop_theta_value(sp, x_coords, n_coords):
    """The former _theta_value: theta(x, n), scalar by scalar, on dense values."""
    out = zero_vec(sp.z.dim)
    for x, c in enumerate(x_coords):
        if c:
            for a, d in enumerate(n_coords):
                if d and (x, a) in sp.theta:
                    out = vec_add(out, vec_scale(c * d, dense(sp.theta[(x, a)], sp.z.dim)))
    return out


def holed_restriction(sp):
    """The theta|f comparison _check_splitting made before: only on the pairs
    i < j where f is nonzero, so theta on the diagonal, below it and where f
    vanishes went unchecked."""
    n_dim = sp.n_alg.dim
    return all(loop_theta_value(sp, basis_of(sp.n_sub)[i], unit_vec(n_dim, j)) == tuple(vec)
               for (i, j), vec in dense_coeffs(sp.f).items())


def loop_check_splitting(sp):
    """The former _check_splitting, with the per-(x, y, a) identity loop and
    theta(n_i, n_j) compared with f(i, j), alternation included, at every (i, j)."""
    n_dim, zd, ghat = sp.n_alg.dim, sp.z.dim, sp.cm.ghat
    for i in range(n_dim):
        for j in range(n_dim):
            if (loop_theta_value(sp, basis_of(sp.n_sub)[i], unit_vec(n_dim, j))
                    != value_at_indices(sp.f, (i, j))):
                raise InvariantViolation("theta does not restrict to the extension cocycle")
    trivial = Representation.trivial(sp.n_alg, zd)
    for x in range(ghat.dim):
        theta_x = Cochain(sp.n_alg, 1, zd, {(a,): dense(sp.theta[(x, a)], zd)
                                            for a in range(n_dim) if (x, a) in sp.theta})
        if cochain_differential(trivial, theta_x) != loop_module_action_on_f(sp, x):
            raise InvariantViolation(
                f"theta slot {x} is not a derivation datum for the cocycle")
    for x in range(ghat.dim):
        for y in range(x + 1, ghat.dim):
            bracket_xy = dense_bracket_basis(ghat, x, y)
            for a in range(n_dim):
                total = sp.zhat_rep.matrices[x].matvec(dense(sp.theta.get((y, a), {}), zd))
                total = vec_sub(total, sp.zhat_rep.matrices[y].matvec(
                    dense(sp.theta.get((x, a), {}), zd)))
                total = vec_sub(total, loop_theta_value(sp, bracket_xy, unit_vec(n_dim, a)))
                total = vec_add(total, loop_theta_value(sp, unit_vec(ghat.dim, x),
                                                        _bracket_in_n(sp, y, a)))
                total = vec_sub(total, loop_theta_value(sp, unit_vec(ghat.dim, y),
                                                        _bracket_in_n(sp, x, a)))
                if not vec_is_zero(total):
                    raise InvariantViolation(
                        f"theta fails the action cocycle identity at ({x},{y},{a})")


def loop_alternating_extension(sp):
    """The former _alternating_extension, reading components by coordinates_of."""
    ghat, n_sub = sp.cm.ghat, sp.n_sub
    table = {}
    for i, j in increasing_tuples(ghat.dim, 2):
        u, v = unit_vec(ghat.dim, i), unit_vec(ghat.dim, j)
        u_n = coordinates_of_vec(n_sub, vec_sub(u, reduce_vec(n_sub, u)))
        v_n = coordinates_of_vec(n_sub, vec_sub(v, reduce_vec(n_sub, v)))
        val = vec_sub(loop_theta_value(sp, u, v_n),
                      loop_theta_value(sp, reduce_vec(n_sub, v), u_n))
        if not vec_is_zero(val):
            table[(i, j)] = val
    return Cochain(ghat, 2, sp.z.dim, table)


def dense_alternating_extension(sp):
    """The _alternating_extension the sparse read replaced: dense unit vectors,
    their reductions and pivot coordinates, and combinations of the theta matrices,
    rebuilt as z x n matrices from the table sp.theta."""
    ghat, zd, n_dim = sp.cm.ghat, sp.z.dim, sp.n_alg.dim
    thetas = [Matrix.from_sparse_rows([sp.theta.get((x, a), {}) for a in range(n_dim)],
                                      zd).transpose() for x in range(ghat.dim)]
    table = {}
    for i, j in increasing_tuples(ghat.dim, 2):
        u, v = unit_vec(ghat.dim, i), unit_vec(ghat.dim, j)
        theta_v_c = linear_combination(reduce_vec(sp.n_sub, v), thetas, zd, n_dim)
        table[(i, j)] = vec_sub(thetas[i].matvec(split_coordinates(sp.n_sub, v)),
                                theta_v_c.matvec(split_coordinates(sp.n_sub, u)))
    return Cochain(ghat, 2, zd, table)


def loop_omega_route(sp, sigma):
    """The former characteristic_class_omega_route, solving every key of g."""
    cm, g = sp.cm, sp.g
    h_dim = cm.h.dim
    S = OuterActionMap(g, [linear_combination(sigma.column(i), cm.action.matrices, h_dim, h_dim)
                           for i in range(g.dim)], space_dim=h_dim)
    keys = list(increasing_tuples(g.dim, 2))
    targets = [vec_sub(dense_bracket(cm.ghat, sigma.column(i), sigma.column(j)),
                       sigma.matvec(dense_bracket_basis(g, i, j))) for i, j in keys]
    lifts, first_inconsistent, _ = dense_solve_columns(cm.alpha, targets)
    assert first_inconsistent is None
    omega = Cochain(g, 2, cm.h.dim, {key: x for key, x in zip(keys, lifts)
                                     if not vec_is_zero(x)})
    d_s_omega = restrict_cochain_to_subspace(covariant_differential(S, omega), sp.z)
    return cohomology(sp.z_rep, 3).class_of(d_s_omega)


# ---------------------------------------------------------------------------
# extensions and the quotient stage
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, fs", CASES, ids=CASE_IDS)
def test_extension_and_stage_defects_match_the_loops(name, fs):
    rng = random.Random(53)
    ext = build_extension(fs)
    shifted = ext.section + ext.inclusion @ rand_matrix(rng, fs.n.dim, fs.g.dim)
    for sigma in (ext.section, shifted):
        assert extract_factor_system(ext, sigma).omega == loop_extract_omega(ext, sigma)

    kernel = GKernel.from_factor_system(fs)
    z, z_rep = center_module(kernel.S)
    assert z_rep.matrices == tuple(
        loop_restrict(z, m, "a derivation did not preserve the center")
        for m in kernel.S.matrices)

    stage = build_quotient_stage(kernel)
    assert stage_theta(stage) == loop_stage_theta(stage)
    nd = fs.n.dim
    for v in [unit_vec(nd, j) for j in range(nd)] + [rand_vector(rng, nd) for _ in range(3)]:
        assert split_coordinates(stage.z, v) == loop_z_part(stage, v)

    reduction = reduce_via_stage(fs)
    assert reduction.f_tilde == loop_f_tilde(fs, stage)
    assert reduction.rebuilt.inclusion == loop_rebuild_inclusion(stage)


# ---------------------------------------------------------------------------
# crossed modules
# ---------------------------------------------------------------------------

def derivation_modules():
    """The ad: L -> Der(L) modules of test_crossed, in seeded bases."""
    return oracle_modules()[len(CATALOG_MODULES):]


CROSSED = (list(CATALOG_MODULES)
           + [(f"stage-{name}", lambda fs=fs: stage_module(fs)) for name, fs in CASES]
           + [(f"derivations-{k}", lambda k=k: derivation_modules()[k]) for k in range(8)])


@pytest.mark.parametrize("name, builder", CROSSED, ids=[name for name, _ in CROSSED])
def test_crossed_defects_match_the_loops(name, builder):
    cm = builder()
    sp = split_crossed_module(cm)
    n_dim = sp.n_alg.dim
    assert sp.n_alg == loop_n_alg(cm, sp.n_sub)
    assert sp.ad_n == tuple(
        Matrix.from_columns([_bracket_in_n(sp, x, a) for a in range(n_dim)], rows=n_dim)
        for x in range(cm.ghat.dim))
    f, theta, zhat = loop_split(sp)
    assert (sp.f, sp.theta, sp.zhat_rep.matrices) == (f, theta, zhat)
    loop_check_splitting(sp)
    f_tilde = _alternating_extension(sp)
    assert f_tilde == loop_alternating_extension(sp) == dense_alternating_extension(sp)
    rng = random.Random(61)
    for sigma in (sp.q_sect, sp.q_sect + Matrix.from_columns(
            [embed(sp.n_sub, rand_vector(rng, sp.n_sub.dim)) for _ in range(sp.g.dim)],
            rows=cm.ghat.dim)):
        assert characteristic_class_omega_route(sp, sigma) == loop_omega_route(sp, sigma)
    witness, chi = splitting_equivalence(cm)
    if chi.is_zero():
        assert witness.embedding == column_embedding(cm, sp)


def outcome(check, sp):
    try:
        check(sp)
    except InvariantViolation as exc:
        return str(exc)
    return None


def planted(sp, rng, slots):
    """sp with a random vector added to theta at each slot (x, a)."""
    theta = dict(sp.theta)
    for slot in slots:
        value = vec_add(dense(theta.get(slot, {}), sp.z.dim), rand_vector(rng, sp.z.dim))
        theta[slot] = as_column(value)
        if vec_is_zero(value):
            del theta[slot]
    return sp._replace(theta=theta)


def splittings_with_theta():
    sps = [split_crossed_module(builder()) for _, builder in CATALOG_MODULES]
    sps += [split_crossed_module(cm) for cm in derivation_modules()]
    return [sp for sp in sps if sp.z.dim and sp.n_alg.dim]


def test_planted_theta_perturbations_fail_where_the_loop_fails():
    rng = random.Random(67)
    messages = []
    for sp in splittings_with_theta():
        for _ in range(12):
            case = sp
            for _ in range(rng.randint(1, 2)):
                case = planted(case, rng, [(rng.randrange(sp.cm.ghat.dim),
                                            rng.randrange(sp.n_alg.dim))])
            want = outcome(loop_check_splitting, case)
            assert outcome(_check_splitting, case) == want
            messages.append(want)
    # The checks after theta|f see only a theta that restricts to f: plants on
    # the slots x outside every basis vector of n leave theta on n alone.
    rng = random.Random(71)
    for sp in splittings_with_theta():
        off_n = sorted(set(range(sp.cm.ghat.dim)) - {j for p in sp.n_sub.pairs for j, _ in p})
        for _ in range(12 if off_n else 0):
            slots = [(rng.choice(off_n), rng.randrange(sp.n_alg.dim))
                     for _ in range(rng.randint(1, 2))]
            case = planted(sp, rng, slots)
            want = outcome(loop_check_splitting, case)
            assert outcome(_check_splitting, case) == want
            assert want is None or "restrict" not in want
            messages.append(want)
    identity = [m for m in messages if m and "action cocycle identity" in m]
    # the identity failures name several distinct (x, y, a)
    assert len(identity) >= 10 and len(set(identity)) >= 5
    assert any(m and "derivation datum" in m for m in messages)


def test_theta_off_f_is_rejected_on_the_diagonal_below_it_and_where_f_vanishes():
    """A plant at slot (pivot of n_i, j) changes theta on n at (n_i, n_j) alone,
    since n's basis is in reduced echelon form.  Each plant where the former
    comparison did not look (i == j, i > j, or i < j with f(i, j) = 0) passes
    it, and both the check and its oracle reject it."""
    rng = random.Random(73)
    seen = set()
    for sp in splittings_with_theta():
        n_dim = sp.n_alg.dim
        for i in range(n_dim):
            for j in range(n_dim):
                where = ("diagonal" if i == j else "below" if i > j
                         else "f-zero" if vec_is_zero(sp.f.component((i, j))) else None)
                if where is None:
                    continue
                case = planted(sp, rng, [(sp.n_sub.pivots[i], j)])
                if case.theta == sp.theta:
                    continue
                assert holed_restriction(case)
                message = "theta does not restrict to the extension cocycle"
                assert outcome(_check_splitting, case) == message
                assert outcome(loop_check_splitting, case) == message
                seen.add(where)
    assert seen == {"diagonal", "below", "f-zero"}


# ---------------------------------------------------------------------------
# one factor-system validation
# ---------------------------------------------------------------------------

@pytest.fixture
def curvature_computations(monkeypatch):
    """The maps whose curvature is computed (not read from the map), in order."""
    computed = []
    real = cochains.curvature

    def counted(S):
        if S._curvature is None:
            computed.append(S)
        return real(S)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").partition(".")[0] == "liecoh":
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)
    return computed


@pytest.mark.parametrize("name", ["ext-heisenberg3", "ext-filiform4", "ext-heisenberg-kernel",
                                  "ext-sl2-kernel"])
def test_a_factor_system_from_matrices_computes_its_curvature_once(name,
                                                                  curvature_computations):
    source = catalog(name)
    curvature_computations.clear()
    fs = FactorSystem(source.n, source.g, list(source.S.matrices), source.omega)
    kernel = GKernel.from_factor_system(fs)
    cochains.curvature(kernel.S)
    assert len(curvature_computations) == 1
    assert curvature_computations[0] is fs.S is kernel.S


def test_malformed_factor_systems_keep_their_errors():
    fs = catalog("ext-heisenberg3")
    n, g, mats, omega = fs.n, fs.g, list(fs.S.matrices), fs.omega
    wrong_omega = Cochain(g, 1, n.dim)
    wrong_shape = [Matrix.identity(n.dim + 1)] * g.dim
    cases = [
        ((mats[:-1], omega), "one action matrix per basis element of g is required"),
        ((mats[:-1], wrong_omega), "one action matrix per basis element of g is required"),
        ((mats, wrong_omega), "omega must be a 2-cochain on g valued in n"),
        ((wrong_shape, wrong_omega), "omega must be a 2-cochain on g valued in n"),
        ((wrong_shape, omega), "derivation candidate has the wrong shape"),
    ]
    for (S, c), message in cases:
        for build in (FactorSystem, factor_system_report):
            with pytest.raises(DimensionMismatchError, match=message):
                build(n, g, S, c)


def loop_gkernel_lift_failure(kernel_S, n_alg, omega):
    """The former stored-omega check of GKernel: the first key in order."""
    R = cochains.curvature(kernel_S)
    for key in increasing_tuples(kernel_S.algebra.dim, 2):
        if R.component(key) != flat(dense_ad(n_alg, omega.component(key))):
            return f"stored omega does not lift the curvature at {key}"
    return None


@pytest.mark.parametrize("name, fs", CASES[:5], ids=CASE_IDS[:5])
def test_stored_omega_failures_name_the_first_key(name, fs):
    rng = random.Random(71)
    keys = list(increasing_tuples(fs.g.dim, 2))
    raised = 0
    for _ in range(6):
        table = dict(dense_coeffs(fs.omega))
        for key in rng.sample(keys, min(len(keys), 2)):
            table[key] = vec_add(fs.omega.component(key), rand_vector(rng, fs.n.dim))
        omega = Cochain(fs.g, 2, fs.n.dim, table)
        want = loop_gkernel_lift_failure(fs.S, fs.n, omega)
        if want is None:
            GKernel(fs.n, fs.g, fs.S, omega)
            continue
        raised += 1
        with pytest.raises(NoLiftError) as info:
            GKernel(fs.n, fs.g, fs.S, omega)
        assert info.value.certificate == want
    assert raised or fs.n.is_abelian() or not keys


def dense_curvature_failures(S, omega):
    """The former extensions._curvature_failures: every increasing pair, with the
    curvature's dense value against the dense flattening of ad(omega)."""
    R = cochains.curvature(S)
    return tuple(key for key in increasing_tuples(S.algebra.dim, 2)
                 if R.component(key) != flat(dense_ad(S.target, omega.component(key))))


@pytest.mark.parametrize("name, fs", CASES, ids=CASE_IDS)
def test_curvature_failures_match_the_dense_comparison(name, fs):
    """On the valid omega, on omega moved off the curvature at up to three
    keys (the keys where the curvature vanishes among them), on the zero
    omega and on omega moved by a center-valued cochain, which still lifts."""
    rng = random.Random(79)
    keys = list(increasing_tuples(fs.g.dim, 2))
    z, _ = center_module(fs.S)
    omegas = [fs.omega, Cochain(fs.g, 2, fs.n.dim)]
    for _ in range(6):
        table = dict(dense_coeffs(fs.omega))
        for key in rng.sample(keys, min(len(keys), rng.randint(1, 3))):
            table[key] = vec_add(fs.omega.component(key), rand_vector(rng, fs.n.dim))
        omegas.append(Cochain(fs.g, 2, fs.n.dim, table))
    if z.dim and keys:
        shift = {key: embed(z, rand_vector(rng, z.dim)) for key in keys}
        omegas.append(fs.omega + Cochain(fs.g, 2, fs.n.dim, shift))
        assert extensions._curvature_failures(fs.S, omegas[-1]) == ()
    failing = 0
    for omega in omegas:
        got = extensions._curvature_failures(fs.S, omega)
        assert got == dense_curvature_failures(fs.S, omega)
        failing += bool(got)
    assert failing or fs.n.is_abelian() or not keys
