"""Every structure law against the basis-pair loops that used to check it.

The package checks each law as one matrix identity: the representation
law and the homomorphism conditions through ``liealg.law_defect`` (the
curvature [M_i, M_j] - M([e_i, e_j]) of a linear map into gl(V)), the
Leibniz rule through the rows of ``leibniz_rows``, ideals and submodules
through ``Subspace.restrict``, crossed-module equivariance through
``alpha A_x - ad_x alpha`` and ``A(alpha e_i) - ad e_i``, and form
invariance through ``ad_i^T G + G ad_i``.  The loops those replaced stay
here as oracles.  The new checks must match them on the catalog algebras
and systems, curved n4, two seeded basis changes of each, the three
benchmark factor-system kinds at h7 and the crossed modules of
``test_crossed``; seeded planted perturbations must fail with the same
error class, message and first index (or violation list).
"""

import random
from fractions import Fraction

import pytest

from liecoh import crossed
from liecoh.catalog import InvariantForm, catalog, killing_form
from liecoh.cochains import Cochain, OuterActionMap, curvature
from liecoh.crossed import (CrossedModule, CrossedModuleReport, split_crossed_module,
                            splitting_equivalence, validate_crossed_module)
from liecoh.errors import (InvalidCrossedModuleError, InvariantViolation, NoLiftError,
                           NotADerivationError, NotAHomomorphismError, NotAnIdealError,
                           PreconditionFailedError, RepresentationError)
from liecoh.extensions import (ExtensionPresentation, FactorSystem, GKernel, build_extension,
                               factor_system_report)
from liecoh.liealg import (LieAlgebra, Representation, adjoint_rep, center, change_of_basis,
                           derivations, direct_and_semidirect, is_derivation, law_defect,
                           quotient_algebra)
from liecoh.linalg import Matrix, Subspace, image, invert, kernel, linear_combination
from liecoh.symmetry import lifting_cocycle

from conftest import (basis_of, contains_vec, dense_act, dense_bracket, dense_bracket_basis, flat,
                      rand_fraction, rand_invertible, rand_matrix, unit_vec, vec_add, vec_is_zero,
                      vec_scale)
from test_classify import CASES
from test_crossed import oracle_modules, stage_module
from test_gauge_step import unipotent


# ---------------------------------------------------------------------------
# the replaced loops
# ---------------------------------------------------------------------------

def loop_law_failure(L, matrices):
    """The former Representation._law_failure: the first pair breaking the law."""
    size = matrices[0].rows if matrices else 0
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = matrices[i].commutator(matrices[j])
            rhs = linear_combination(dense_bracket_basis(L, i, j), matrices, size, size)
            if lhs != rhs:
                return (i, j)
    return None


def loop_curvature(S):
    """The former bracket route of cochains.curvature."""
    L = S.algebra
    table = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            m = S.space_dim
            val = flat(S.matrices[i].commutator(S.matrices[j])
                       - linear_combination(dense_bracket_basis(L, i, j), S.matrices, m, m))
            if not vec_is_zero(val):
                table[(i, j)] = val
    return Cochain(L, 2, S.space_dim ** 2, table)


def loop_is_derivation(L, d):
    """The former is_derivation: two unit-vector brackets per basis pair."""
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = d.matvec(dense_bracket_basis(L, i, j))
            rhs = vec_add(dense_bracket(L, d.column(i), unit_vec(L.dim, j)),
                          dense_bracket(L, unit_vec(L.dim, i), d.column(j)))
            if lhs != rhs:
                return False
    return True


def loop_semidirect_failure(n_alg, g_alg, S):
    """The former checks of direct_and_semidirect: the message they raised."""
    for a, m in enumerate(S):
        if not loop_is_derivation(n_alg, m):
            return f"S(e{a}) is not a derivation of n"
    for a in range(g_alg.dim):
        for b in range(a + 1, g_alg.dim):
            lhs = S[a].commutator(S[b])
            rhs = linear_combination(dense_bracket_basis(g_alg, a, b), S, n_alg.dim, n_alg.dim)
            if lhs != rhs:
                return f"S does not preserve the bracket on basis pair ({a},{b})"
    return None


def loop_psi_failure(h_alg, psi_n, psi_g, nd, gd):
    """The former homomorphism loop of lifting_cocycle: the first failing pair."""
    for x in range(h_alg.dim):
        for y in range(x + 1, h_alg.dim):
            an = psi_n[x].commutator(psi_n[y])
            ag = psi_g[x].commutator(psi_g[y])
            bracket = dense_bracket_basis(h_alg, x, y)
            bn = linear_combination(bracket, psi_n, nd, nd)
            bg = linear_combination(bracket, psi_g, gd, gd)
            if an != bn or ag != bg:
                return (x, y)
    return None


def loop_lift_is_homomorphism(h_alg, mats, size):
    """The former assembled-lift loop of lifting_cocycle."""
    for x in range(h_alg.dim):
        for y in range(x + 1, h_alg.dim):
            expected = linear_combination(dense_bracket_basis(h_alg, x, y), mats, size, size)
            if mats[x].commutator(mats[y]) != expected:
                return False
    return True


def loop_ideal_failure(L, ideal):
    """The former ideal check of quotient_algebra: the first e_i moving the subspace."""
    for i in range(L.dim):
        for b in basis_of(ideal):
            if not contains_vec(ideal, dense_bracket(L, unit_vec(L.dim, i), b)):
                return i
    return None


def loop_presentation_ideal(total, ideal):
    """The former ideal loop of ExtensionPresentation: one violation per failing e_i."""
    violations = []
    for i in range(total.dim):
        for b in basis_of(ideal):
            if not contains_vec(ideal, dense_bracket(total, unit_vec(total.dim, i), b)):
                violations.append(f"the image of n is not an ideal (fails at e{i})")
                break
    return violations


def loop_report(h, ghat, alpha, action):
    """The former loops of crossed._report."""
    cm1 = []
    for x in range(ghat.dim):
        for i in range(h.dim):
            lhs = alpha.matvec(dense_act(action, x, unit_vec(h.dim, i)))
            rhs = dense_bracket(ghat, unit_vec(ghat.dim, x), alpha.column(i))
            if lhs != rhs:
                cm1.append((x, i))
    cm2 = []
    for i in range(h.dim):
        ai = alpha.column(i)
        for j in range(h.dim):
            lhs = linear_combination(ai, action.matrices, h.dim, h.dim).matvec(unit_vec(h.dim, j))
            rhs = dense_bracket_basis(h, i, j)
            if lhs != rhs:
                cm2.append((i, j))
    im = image(alpha)
    image_ideal = all(
        contains_vec(im, dense_bracket(ghat, unit_vec(ghat.dim, x), b))
        for x in range(ghat.dim) for b in basis_of(im))
    ker = kernel(alpha)
    kernel_central = center(h).contains_subspace(ker)
    kernel_submodule = all(
        contains_vec(ker, dense_act(action, x, b))
        for x in range(ghat.dim) for b in basis_of(ker))
    return CrossedModuleReport(tuple(cm1), tuple(cm2), image_ideal,
                               kernel_central, kernel_submodule)


def loop_splitting_equivariant(cm, total, embedding, zd):
    """The former equivariance loop of splitting_equivalence."""
    for x in range(cm.ghat.dim):
        x_total = unit_vec(total.dim, zd + x)
        for i in range(cm.h.dim):
            lhs = embedding.matvec(dense_act(cm.action, x, unit_vec(cm.h.dim, i)))
            rhs = dense_bracket(total, x_total, embedding.column(i))
            if lhs != rhs:
                return False
    return True


def loop_invariance_failure(L, gram):
    """The former triple loop of InvariantForm: the first (i, j, k) in order."""
    def value(u, v):
        return sum((a * b for a, b in zip(u, gram.matvec(v))), Fraction(0))

    for i in range(L.dim):
        for j in range(L.dim):
            for k in range(L.dim):
                lhs = value(dense_bracket_basis(L, i, j), unit_vec(L.dim, k))
                rhs = value(unit_vec(L.dim, j), dense_bracket_basis(L, i, k))
                if lhs + rhs != 0:
                    return (i, j, k)
    return None


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def algebras():
    """The catalog algebras in their standard and two seeded bases, and the
    kernel, quotient and total algebra of every system of test_classify."""
    rng = random.Random(83)
    out = []
    for name in ("heisenberg3", "sl2", "nonabelian2", "filiform4"):
        L = catalog(name)
        out += [L] + [change_of_basis(L, rand_invertible(rng, L.dim)) for _ in range(2)]
    for _, fs in CASES:
        out += [fs.n, fs.g, build_extension(fs).total]
    return out


def crossed_modules():
    """The crossed modules of test_crossed and the stage modules of the systems."""
    return oracle_modules() + [stage_module(fs) for _, fs in CASES]


def shifted(rng, m):
    """m with one entry moved by a nonzero rational."""
    rows = [list(row) for row in m.row_list()]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rand_fraction(rng) or Fraction(1)
    return Matrix(rows, cols=m.cols)


def sparse_vector(rng, n):
    """A nonzero vector with one or two nonzero entries."""
    v = [Fraction(0)] * n
    for _ in range(rng.randint(1, 2)):
        v[rng.randrange(n)] = rand_fraction(rng) or Fraction(1)
    return tuple(v) if any(v) else unit_vec(n, 0)


def raised(fn, *args):
    """(error class, message) of what fn raised, or None."""
    try:
        fn(*args)
    except Exception as exc:  # the comparison is of whatever is raised
        return type(exc), str(exc)
    return None


# ---------------------------------------------------------------------------
# the representation law and homomorphisms: law_defect
# ---------------------------------------------------------------------------

def test_representation_law_matches_the_loop():
    rng = random.Random(89)
    pairs = []
    for L in algebras():
        if L.dim < 2:
            continue
        for base in (adjoint_rep(L).matrices, Representation.trivial(L, 2).matrices):
            assert loop_law_failure(L, base) is None and not law_defect(L, base)
            for _ in range(3):
                broken = list(base)
                k = rng.randrange(L.dim)
                if rng.random() < 0.5:
                    broken[k] = broken[k] + Matrix.identity(base[0].rows).scale(
                        rand_fraction(rng) or Fraction(1))
                else:
                    broken[k] = shifted(rng, broken[k])
                want = loop_law_failure(L, broken)
                assert min(law_defect(L, broken), default=None) == want
                if want is None:
                    assert Representation(L, base[0].rows, broken).matrices == tuple(broken)
                    continue
                with pytest.raises(RepresentationError) as info:
                    Representation(L, base[0].rows, broken)
                assert info.value.pair == want
                assert str(info.value) == f"representation law fails on basis pair {want}"
                pairs.append(want)
    assert len(pairs) >= 10 and len(set(pairs)) >= 3


@pytest.mark.parametrize("name, fs", CASES, ids=[name for name, _ in CASES])
def test_curvature_matches_the_loop(name, fs):
    rng = random.Random(97)
    assert curvature(fs.S) == loop_curvature(fs.S)
    for _ in range(3):
        mats = [shifted(rng, m) if rng.random() < 0.5 else m for m in fs.S.matrices]
        S = OuterActionMap(fs.g, mats, space_dim=fs.n.dim)
        assert curvature(S) == loop_curvature(S)


def test_semidirect_checks_match_the_loop():
    rng = random.Random(101)
    quotients = [catalog(name) for name in ("nonabelian2", "heisenberg3", "sl2", "filiform4")]
    messages = []
    for n_alg in [L for L in algebras() if 1 < L.dim <= 5]:
        der = derivations(n_alg).matrices
        for g_alg in quotients:
            # S is zero but on one or two slots, so later pairs can fail first
            S = [Matrix.zero(n_alg.dim, n_alg.dim)] * g_alg.dim
            for k in rng.sample(range(g_alg.dim), rng.randint(1, 2)):
                S[k] = linear_combination([rand_fraction(rng) for _ in der], der,
                                          n_alg.dim, n_alg.dim)
            if rng.random() < 0.3:
                k = rng.randrange(g_alg.dim)
                S[k] = shifted(rng, S[k])
            want = loop_semidirect_failure(n_alg, g_alg, S)
            got = raised(direct_and_semidirect, n_alg, g_alg, S)
            assert got == (None if want is None else (NotAHomomorphismError, want))
            messages.append(want)
    bracket_failures = [m for m in messages if m and "basis pair" in m]
    assert len(bracket_failures) >= 10 and len(set(bracket_failures)) >= 3
    assert any(m and "not a derivation" in m for m in messages)
    assert None in messages


def lift_families(rng):
    """(factor system, psi_n, psi_g) whose only open precondition is the law.

    Over the area-form system the pairs (tr B, B) act on omega as zero; over
    h3 x| line with S = 0 every pair (derivation, scalar) does.  Each map
    starts at zero, a homomorphism, and one or two slots are set at random.
    """
    area = [fs for name, fs in CASES if name.startswith("ext-heisenberg3")]
    h3 = catalog("heisenberg3")
    line = LieAlgebra(1)
    semidirect = FactorSystem(h3, line, [Matrix.zero(3, 3)], Cochain(line, 2, 3))
    der = derivations(h3).matrices
    for h_name in ("nonabelian2", "heisenberg3", "sl2", "filiform4", "abelian2"):
        h_alg = catalog(h_name)
        for fs in 2 * (area + [semidirect]):
            psi_n = [Matrix.zero(fs.n.dim, fs.n.dim)] * h_alg.dim
            psi_g = [Matrix.zero(fs.g.dim, fs.g.dim)] * h_alg.dim
            for k in rng.sample(range(h_alg.dim), 1 + (rng.random() < 0.3)):
                if fs is semidirect:
                    psi_n[k] = linear_combination([rand_fraction(rng) for _ in der], der, 3, 3)
                    psi_g[k] = Matrix([[rand_fraction(rng)]])
                else:
                    psi_g[k] = rand_matrix(rng, 2, 2)
                    psi_n[k] = Matrix([[psi_g[k].trace()]])
            yield fs, h_alg, psi_n, psi_g


def test_lifting_preconditions_and_lift_match_the_loops():
    rng = random.Random(103)
    pairs, lifts = [], 0
    for fs, h_alg, psi_n, psi_g in lift_families(rng):
        theta = [Cochain(fs.g, 1, fs.n.dim)] * h_alg.dim
        want = loop_psi_failure(h_alg, psi_n, psi_g, fs.n.dim, fs.g.dim)
        if want is not None:
            with pytest.raises(PreconditionFailedError) as info:
                lifting_cocycle(fs, h_alg, psi_n, psi_g, theta)
            assert str(info.value) == f"psi is not a homomorphism at pair ({want[0]},{want[1]})"
            assert info.value.index == want
            pairs.append(want)
            continue
        report = lifting_cocycle(fs, h_alg, psi_n, psi_g, theta)
        if report.lift_exists:
            lifts += 1
            mats = report.lift_matrices
            size = fs.n.dim + fs.g.dim
            assert loop_lift_is_homomorphism(h_alg, mats, size) and not law_defect(h_alg, mats)
            for _ in range(2):
                broken = list(mats)
                k = rng.randrange(len(broken))
                broken[k] = shifted(rng, broken[k])
                assert (loop_lift_is_homomorphism(h_alg, broken, size)
                        == (not law_defect(h_alg, broken)))
    assert len(pairs) >= 10 and len(set(pairs)) >= 3
    assert lifts


# ---------------------------------------------------------------------------
# the Leibniz rule: leibniz_rows
# ---------------------------------------------------------------------------

def test_is_derivation_matches_the_loop():
    rng = random.Random(107)
    indices = []
    for L in algebras():
        n = L.dim
        der = derivations(L).matrices
        candidates = list(der) + [Matrix.identity(n), Matrix.zero(n, n), rand_matrix(rng, n, n)]
        candidates += [shifted(rng, rng.choice(der)) for _ in range(2) if der]
        for d in candidates:
            assert is_derivation(L, d) == loop_is_derivation(L, d)
        if L.is_abelian():
            continue
        # GKernel names the first slot that is not a derivation; with every
        # slot a derivation, the curvature may still have no lift
        mats = [rng.choice(der) for _ in range(4)]
        for k in rng.sample(range(4), rng.randint(1, 2)):
            mats[k] = shifted(rng, mats[k])
        first = next((i for i, m in enumerate(mats) if not loop_is_derivation(L, m)), None)
        got = raised(GKernel, L, LieAlgebra(4), mats)
        if first is None:
            assert got is None or got[0] is NoLiftError
        else:
            assert got == (NotADerivationError, f"S(e{first}) is not a derivation of the target")
        indices.append(first)
    failing = [i for i in indices if i is not None]
    assert len(failing) >= 10 and len(set(failing)) >= 3


@pytest.mark.parametrize("name, fs", CASES, ids=[name for name, _ in CASES])
def test_derivation_failures_of_a_factor_system_match_the_loop(name, fs):
    rng = random.Random(109)
    for _ in range(4):
        mats = [shifted(rng, m) if rng.random() < 0.5 else m for m in fs.S.matrices]
        report = factor_system_report(fs.n, fs.g, mats, fs.omega)
        assert report.derivation_failures == tuple(
            i for i, m in enumerate(mats) if not loop_is_derivation(fs.n, m))


# ---------------------------------------------------------------------------
# ideals and submodules: Subspace.restrict
# ---------------------------------------------------------------------------

def test_quotient_ideal_check_matches_the_loop():
    rng = random.Random(113)
    failures = []
    for L in algebras():
        n = L.dim
        subspaces = [center(L), image(Matrix.from_columns(
            [dense_bracket_basis(L, i, j) for i in range(n) for j in range(i + 1, n)]
            or [unit_vec(n, 0)], rows=n))]
        subspaces += [Subspace.from_vectors(n, [sparse_vector(rng, n)
                                                for _ in range(rng.randint(1, 2))])
                      for _ in range(3)]
        for ideal in subspaces:
            first = loop_ideal_failure(L, ideal)
            got = raised(quotient_algebra, L, ideal)
            assert got == (None if first is None else (
                NotAnIdealError, f"[e{first}, subspace] leaves the subspace: not a Lie ideal"))
            if first is not None:
                failures.append(first)
    assert len(failures) >= 10 and len(set(failures)) >= 3


@pytest.mark.parametrize("name, fs", CASES, ids=[name for name, _ in CASES])
def test_presentation_ideal_violations_match_the_loop(name, fs):
    rng = random.Random(127)
    ext = build_extension(fs)
    total, nd = ext.total, fs.n.dim
    lists = []
    for _ in range(6):
        columns = [ext.inclusion.column(j) for j in range(nd)]
        k = rng.randrange(nd)
        columns[k] = vec_add(columns[k], sparse_vector(rng, total.dim))
        inclusion = Matrix.from_columns(columns, rows=total.dim)
        ideal = Subspace.from_vectors(total.dim, columns)
        want = loop_presentation_ideal(total, ideal)
        try:
            ExtensionPresentation(total, fs.n, fs.g, inclusion, ext.projection, ext.section)
            violations = ()
        except InvariantViolation as exc:
            violations = exc.violations
        others = [v for v in violations if "not an ideal" not in v]
        assert list(violations) == others + want
        lists.append(tuple(want))
    assert any(lists) or total.is_abelian()


def test_crossed_module_reports_match_the_loops():
    rng = random.Random(131)
    firsts = {"cm1": [], "cm2": []}
    flags = set()
    for cm in crossed_modules():
        h, ghat = cm.h, cm.ghat
        assert (validate_crossed_module(h, ghat, cm.alpha, cm.action)
                == loop_report(h, ghat, cm.alpha, cm.action))
        for _ in range(3):
            alpha, action = cm.alpha, cm.action
            if rng.random() < 0.6:
                alpha = shifted(rng, alpha)
            else:
                # a conjugate action is still a representation
                P = rand_invertible(rng, h.dim)
                action = Representation(ghat, h.dim,
                                        [invert(P) @ m @ P for m in action.matrices])
            want = loop_report(h, ghat, alpha, action)
            assert validate_crossed_module(h, ghat, alpha, action) == want
            if want.ok:
                CrossedModule(h, ghat, alpha, action)
            else:
                with pytest.raises(InvalidCrossedModuleError) as info:
                    CrossedModule(h, ghat, alpha, action)
                assert info.value.report == want
            for key, found in (("cm1", want.cm1_failures), ("cm2", want.cm2_failures)):
                if found:
                    firsts[key].append(found[0])
            flags.add((want.image_ideal, want.kernel_submodule))
    for found in firsts.values():
        assert len(found) >= 10 and len(set(found)) >= 3
    assert (False, True) in flags or (False, False) in flags
    assert (True, False) in flags or (False, False) in flags


# ---------------------------------------------------------------------------
# equivariance of the splitting embedding
# ---------------------------------------------------------------------------

def automorphism(rng, L):
    """A seeded automorphism of L: any invertible map when L is abelian, else
    exp(ad x) for a multiple x of the first basis vector with nilpotent ad x
    acting nontrivially (the identity when there is none)."""
    if L.is_abelian():
        return rand_invertible(rng, L.dim)
    for i in range(L.dim):
        phi = unipotent(L, vec_scale(rand_fraction(rng) or Fraction(1), unit_vec(L.dim, i)))
        if phi is not None and phi != Matrix.identity(L.dim):
            return phi
    return Matrix.identity(L.dim)


def test_splitting_equivariance_matches_the_loop(monkeypatch):
    # the embedding is the block matrix [[z part], [alpha]]; composing it
    # with an automorphism of h keeps it bracket-preserving, so the
    # equivariance check is the one that decides
    rng = random.Random(137)
    real = crossed.block_matrix
    outcomes = []
    for cm in crossed_modules():
        witness, chi = splitting_equivalence(cm)
        if not chi.is_zero():
            continue
        zd = split_crossed_module(cm).z.dim
        assert loop_splitting_equivariant(cm, witness.total, witness.embedding, zd)
        for _ in range(2):
            phi = automorphism(rng, cm.h)
            monkeypatch.setattr(crossed, "block_matrix",
                                lambda blocks, phi=phi: real(blocks) @ phi)
            ok = loop_splitting_equivariant(cm, witness.total, witness.embedding @ phi, zd)
            got = raised(splitting_equivalence, cm)
            monkeypatch.setattr(crossed, "block_matrix", real)
            assert got == (None if ok else
                           (InvariantViolation, "the splitting embedding is not equivariant"))
            outcomes.append(ok)
    assert outcomes.count(False) >= 10 and True in outcomes


# ---------------------------------------------------------------------------
# invariance of a form: ad_i^T G + G ad_i
# ---------------------------------------------------------------------------

def test_invariant_form_matches_the_loop():
    rng = random.Random(139)
    triples = []
    for L in algebras():
        n = L.dim
        base = killing_form(L).gram
        assert loop_invariance_failure(L, base) is None
        for _ in range(3):
            a, b = rng.randrange(n), rng.randrange(n)
            bump = [[Fraction(0)] * n for _ in range(n)]
            bump[a][b] = bump[b][a] = rand_fraction(rng) or Fraction(1)
            gram = base + Matrix(bump, cols=n)
            want = loop_invariance_failure(L, gram)
            got = raised(InvariantForm, L, gram)
            assert got == (None if want is None else (
                InvariantViolation, "the form is not invariant at triple ({},{},{})".format(*want)))
            if want is not None:
                triples.append(want)
    assert len(triples) >= 10 and len(set(triples)) >= 3
