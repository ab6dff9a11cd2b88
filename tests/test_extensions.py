import hashlib
import json
import random
from fractions import Fraction

import pytest

from liecoh import cochains, extensions, liealg, symmetry
from liecoh import io as lio
from liecoh.catalog import (abelian, ext_filiform4, ext_heisenberg3,
                            ext_heisenberg_kernel, ext_sl2_kernel, filiform4,
                            heisenberg3, nonabelian2, sl2)
from liecoh.cochains import Cochain, OuterActionMap, gauge_action
from liecoh.cohomology import classes_equal, cohomology
from liecoh.cli import run_command
from liecoh.errors import (DimensionMismatchError, InvalidFactorSystemError,
                           InvariantViolation, NoLiftError, NotADerivationError,
                           NotASectionError, ObstructedError)
from liecoh.extensions import (EquivalenceWitness, FactorSystem, GKernel,
                               Inequivalent, build_extension, build_quotient_stage,
                               center_module, check_equivalence_map, classify_extensions,
                               equivalent_extensions, extract_factor_system,
                               factor_system_report, inner_cochains,
                               obstruction_class, pullback_extension,
                               rebuild_from_cocycle, reduce_via_stage)
from liecoh.liealg import Representation, bracket_preserving, center, check_jacobi
from liecoh.linalg import InconsistencyCertificate, Matrix, Subspace

from conftest import as_column, contains_vec, dense_coeffs, flat, rand_cochain, unit_vec
from test_classify import pipeline_system


def random_gamma(rng, fs):
    return rand_cochain(rng, fs.g, 1, fs.n.dim)


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------

def test_build_heisenberg_from_factor_system():
    fs = ext_heisenberg3()
    ext = build_extension(fs)
    assert ext.total.dim == 3
    assert check_jacobi(ext.total)
    assert center(ext.total).dim == 1
    # the built algebra is the 3-dim nilpotent one in permuted coordinates
    assert ext.total.bracket_basis(1, 2) == ((0, 1),)


def test_build_semidirect_case():
    n = abelian(1)
    g = abelian(1)
    fs = FactorSystem(n, g, [Matrix([[1]])], Cochain(g, 2, 1))
    ext = build_extension(fs)
    assert not ext.total.is_abelian()


def test_invalid_factor_system_named_failures():
    n = abelian(1)
    g = abelian(3)
    S = [Matrix([[1]]), Matrix([[0]]), Matrix([[0]])]
    omega = Cochain(g, 2, 1, {(1, 2): (1,)})
    with pytest.raises(InvalidFactorSystemError) as exc:
        FactorSystem(n, g, S, omega)
    report = exc.value.report
    assert report.cocycle_failures == ((0, 1, 2),)
    assert not report.derivation_failures and not report.curvature_failures


def test_factor_system_report_all_conditions():
    n = heisenberg3()
    g = abelian(1)
    report = factor_system_report(n, g, [Matrix.identity(3)], Cochain(g, 2, 3))
    assert report.derivation_failures == (0,)
    n2 = abelian(2)
    g2 = abelian(2)
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    report2 = factor_system_report(n2, g2, [e12, e21], Cochain(g2, 2, 2))
    assert report2.curvature_failures == ((0, 1),)


# ---------------------------------------------------------------------------
# extraction and gauge
# ---------------------------------------------------------------------------

def test_extract_is_inverse_of_build():
    for fs in (ext_heisenberg3(), ext_heisenberg_kernel(), ext_sl2_kernel(),
               ext_filiform4()):
        ext = build_extension(fs)
        back = extract_factor_system(ext)
        assert back.S == fs.S and back.omega == fs.omega


def test_extract_with_shifted_section_is_gauge_action(rng):
    fs = ext_heisenberg_kernel()
    ext = build_extension(fs)
    for _ in range(10):
        gamma = random_gamma(rng, fs)
        sigma = ext.section + (ext.inclusion @ gamma.as_matrix())
        shifted = extract_factor_system(ext, sigma)
        expect_S, expect_omega = gauge_action(gamma, fs.S, fs.omega)
        assert shifted.S.matrices == expect_S.matrices
        assert shifted.omega == expect_omega


def test_extract_rejects_non_section():
    fs = ext_heisenberg3()
    ext = build_extension(fs)
    with pytest.raises(NotASectionError):
        extract_factor_system(ext, Matrix.zero(3, 2))


def test_canonical_section_of_heisenberg_gives_zero_action():
    fs = ext_heisenberg3()
    ext = build_extension(fs)
    back = extract_factor_system(ext, ext.section)
    assert all(m.is_zero() for m in back.S.matrices)
    assert back.omega.component((0, 1)) == (1,)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_check_equivalence_identity_triple():
    fs = ext_heisenberg_kernel()
    zero = Cochain.zero(fs.g, 1, 3)
    assert check_equivalence_map(Matrix.identity(3), Matrix.identity(2), zero,
                                 fs, fs)


def test_check_equivalence_central_cocycle_shift():
    fs = ext_heisenberg_kernel()
    # gamma valued in the center with vanishing differential: still the
    # same presentation
    gamma = Cochain(fs.g, 1, 3, {(0,): (0, 0, 1)})
    assert check_equivalence_map(Matrix.identity(3), Matrix.identity(2), gamma,
                                 fs, fs)


def test_check_equivalence_rejects_bad_gamma(rng):
    fs = ext_heisenberg_kernel()
    gamma = Cochain(fs.g, 1, 3, {(0,): (1, 0, 0)})  # not central-valued
    assert not check_equivalence_map(Matrix.identity(3), Matrix.identity(2),
                                     gamma, fs, fs)


def test_gauge_orbit_always_equivalent(rng):
    fs = ext_heisenberg_kernel()
    for _ in range(10):
        gamma = random_gamma(rng, fs)
        moved = fs.gauge(gamma)
        result = equivalent_extensions(moved, fs)
        assert isinstance(result, EquivalenceWitness)
        total1 = build_extension(moved).total
        total2 = build_extension(fs).total
        assert bracket_preserving(total1, total2, result.matrix)


def test_inequivalent_cocycles_certificate():
    n = abelian(1)
    g = abelian(2)
    S = OuterActionMap.zero(g, n)
    fs1 = FactorSystem(n, g, S, Cochain(g, 2, 1))
    fs2 = FactorSystem(n, g, S, Cochain(g, 2, 1, {(0, 1): (1,)}))
    result = equivalent_extensions(fs1, fs2)
    assert isinstance(result, Inequivalent)
    assert result.stage == "class-difference"


def test_coboundary_difference_has_witness():
    n = abelian(1)
    g = abelian(2)
    S = OuterActionMap(g, [Matrix([[1]]), Matrix([[0]])], target=n)
    rep = Representation(g, 1, S.matrices)
    from liecoh.cochains import cochain_differential
    alpha = Cochain(g, 1, 1, {(1,): (7,)})
    fs1 = FactorSystem(n, g, S, Cochain(g, 2, 1))
    fs2 = FactorSystem(n, g, S, cochain_differential(rep, alpha))
    result = equivalent_extensions(fs1, fs2)
    assert isinstance(result, EquivalenceWitness)


def test_kernel_mismatch_detected():
    n = heisenberg3()
    g = abelian(1)
    S1 = OuterActionMap.zero(g, n)
    # a non-inner derivation: the grading derivation diag(1,1,2)
    D = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    S2 = OuterActionMap(g, [D], target=n)
    fs1 = FactorSystem(n, g, S1, Cochain(g, 2, 3))
    fs2 = FactorSystem(n, g, S2, Cochain(g, 2, 3))
    result = equivalent_extensions(fs1, fs2)
    assert isinstance(result, Inequivalent)
    assert result.stage == "kernel-mismatch"


def kernels_equivalent(k1, k2):
    """gamma with S1 = S2 + ad(gamma), or None."""
    if k1.n != k2.n or k1.g != k2.g:
        raise DimensionMismatchError("kernels live over different pairs")
    gammas, _ = inner_cochains(
        k1.n, k1.g, 1, [[m1 - m2 for m1, m2 in zip(k1.S.matrices, k2.S.matrices)]])
    return None if gammas is None else gammas[0]


def test_kernels_equivalent_inner_shift(rng):
    fs = ext_heisenberg_kernel()
    k1 = GKernel.from_factor_system(fs)
    gamma = random_gamma(rng, fs)
    moved = fs.gauge(gamma)
    k2 = GKernel.from_factor_system(moved)
    found = kernels_equivalent(k2, k1)
    assert found is not None
    # witnesses agree with gamma up to a central-valued map
    diff = found - gamma
    z = center(fs.n)
    for a in range(fs.g.dim):
        assert contains_vec(z, diff.component((a,)))


# ---------------------------------------------------------------------------
# obstruction classes
# ---------------------------------------------------------------------------

def test_obstruction_zero_for_abelian_homomorphism():
    n = abelian(2)
    g = nonabelian2()
    # a genuine module structure on the plane
    S = OuterActionMap(g, [Matrix([[0, 1], [0, 0]]), Matrix([[-1, 0], [0, 0]])],
                       target=n)
    kernel = GKernel(n, g, S)
    assert obstruction_class(kernel).is_zero()


def test_obstruction_invariance(rng):
    fs = ext_heisenberg_kernel()
    kernel = GKernel.from_factor_system(fs)
    base = obstruction_class(kernel)
    for _ in range(10):
        gamma = random_gamma(rng, fs)
        moved = fs.gauge(gamma)
        k2 = GKernel.from_factor_system(moved)
        assert classes_equal(base, obstruction_class(k2))
        # a different curvature lift shifts d_S omega by a coboundary
        z_shift = rand_cochain(rng, fs.g, 2, 1)
        omega2 = fs.omega + Cochain(
            fs.g, 2, 3, {k: (0, 0) + tuple(v) for k, v in dense_coeffs(z_shift).items()})
        k3 = GKernel(fs.n, fs.g, fs.S, omega2)
        assert classes_equal(base, obstruction_class(k3))


def test_no_lift_for_non_outer_action():
    n = abelian(2)
    g = abelian(2)
    e12 = Matrix([[0, 1], [0, 0]])
    e21 = Matrix([[0, 0], [1, 0]])
    S = OuterActionMap(g, [e12, e21], target=n)
    with pytest.raises(NoLiftError):
        GKernel(n, g, S)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classification_trivial_action_line():
    fs = ext_heisenberg3()
    cls = classify_extensions(GKernel.from_factor_system(fs))
    assert cls.h2.h_dim == 1
    assert len(cls.representatives) == 2


def test_classification_nontrivial_action_singleton():
    n = abelian(1)
    g = abelian(2)
    S = OuterActionMap(g, [Matrix([[1]]), Matrix([[0]])], target=n)
    cls = classify_extensions(GKernel(n, g, S))
    assert cls.h2.h_dim == 0
    assert len(cls.representatives) == 1


def test_classification_center_free_singleton():
    fs = ext_sl2_kernel()
    cls = classify_extensions(GKernel.from_factor_system(fs))
    assert cls.h2.h_dim == 0
    assert len(cls.representatives) == 1


def test_classification_translates_collapse_on_coboundary(rng):
    fs = ext_heisenberg_kernel()
    kernel = GKernel.from_factor_system(fs)
    cls = classify_extensions(kernel)
    _, z_rep = center_module(kernel.S)
    from liecoh.cochains import cochain_differential
    beta = Cochain(fs.g, 1, 1, {(1,): (4,)})
    cob = cochain_differential(z_rep, beta)
    shifted = FactorSystem(
        fs.n, fs.g, fs.S,
        cls.base.omega + Cochain(fs.g, 2, 3,
                                 {k: (0, 0) + tuple(v) for k, v in dense_coeffs(cob).items()}))
    assert equivalent_extensions(cls.base, shifted).found


# ---------------------------------------------------------------------------
# the quotient stage
# ---------------------------------------------------------------------------

def test_stage_for_center_free_kernel_is_direct():
    fs = ext_sl2_kernel()
    stage = build_quotient_stage(GKernel.from_factor_system(fs))
    assert stage.gs.dim == 4
    assert stage.z.dim == 0
    # the stage of a zero action on a center-free kernel is the direct sum
    assert stage.gs.bracket_basis(0, 3) == ()


def test_stage_independent_of_representative(rng):
    fs = ext_heisenberg_kernel()
    k1 = GKernel.from_factor_system(fs)
    stage1 = build_quotient_stage(k1)
    gamma = random_gamma(rng, fs)
    k2 = GKernel.from_factor_system(fs.gauge(gamma))
    stage2 = build_quotient_stage(k2)
    result = equivalent_extensions(stage2.fs, stage1.fs)
    assert result.found


def test_stage_embedding_injective():
    # stated by the debug assertion in build_quotient_stage; re-check here
    fs = ext_heisenberg_kernel()
    stage = build_quotient_stage(GKernel.from_factor_system(fs))
    cols = [flat(stage.rho.matrices[i])
            + tuple(stage.ext.projection.column(i))
            for i in range(stage.gs.dim)]
    m = Matrix.from_columns(cols, rows=9 + 2)
    assert m.rank() == stage.gs.dim


def test_reduce_round_trip_exact():
    for fs in (ext_heisenberg_kernel(), ext_sl2_kernel()):
        red = reduce_via_stage(fs)
        assert red.rebuilt_fs.S == fs.S
        assert red.rebuilt_fs.omega == fs.omega
        assert red.solutions.contains(red.f_tilde)


def test_reduce_calls_an_empty_constrained_system_an_invariant_violation(
        monkeypatch, tmp_path, capsys):
    # f_tilde lies in the theta-constrained set, so an empty set is an internal
    # inconsistency, not an obstruction; the empty answer is planted here
    monkeypatch.setattr(extensions, "theta_constrained_cocycles",
                        lambda *args: InconsistencyCertificate(7))
    with pytest.raises(InvariantViolation, match=(
            r"^reduce: .* reduced row 7 of the augmented system reads 0 = 1$")):
        reduce_via_stage(ext_heisenberg_kernel())
    path = tmp_path / "ext.json"
    path.write_text(lio.emit(lio.factor_system_to_json(ext_heisenberg_kernel())))
    assert run_command(["extension", "reduce", "--ext", str(path)]) == 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "InvariantViolation"
    assert error["message"].endswith("reduced row 7 of the augmented system reads 0 = 1")


def test_reduce_semidirect_case():
    n = heisenberg3()
    g = abelian(1)
    D = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    fs = FactorSystem(n, g, [D], Cochain(g, 2, 3))
    red = reduce_via_stage(fs)
    assert red.rebuilt_fs.S == fs.S and red.rebuilt_fs.omega == fs.omega


def test_reduce_theta_restricts_to_f():
    fs = ext_heisenberg_kernel()
    red = reduce_via_stage(fs)
    for key, vec in dense_coeffs(red.f).items():
        assert red.theta.get(key) == as_column(vec)


def test_translated_cocycles_change_class():
    fs = ext_heisenberg_kernel()
    red = reduce_via_stage(fs)
    stage = red.stage
    from liecoh.extensions import pullback_cochain
    noncob = Cochain(fs.g, 2, 1, {(0, 1): (1,)})
    shift = pullback_cochain(noncob, stage.ext.projection, stage.gs)
    _, fs_shifted = rebuild_from_cocycle(stage, red.f_tilde + shift)
    assert not equivalent_extensions(fs, fs_shifted).found


# ---------------------------------------------------------------------------
# pullback
# ---------------------------------------------------------------------------

def test_pullback_identity():
    fs = ext_heisenberg3()
    ext = build_extension(fs)
    res = pullback_extension(ext, Matrix.identity(2), fs.g)
    assert res.fs.omega == fs.omega
    assert res.abelian_class is not None and not res.abelian_class.is_zero()


def test_pullback_zero_map_splits():
    fs = ext_heisenberg3()
    ext = build_extension(fs)
    res = pullback_extension(ext, Matrix.zero(2, 2), fs.g)
    assert res.abelian_class.is_zero()
    assert res.lift is not None


def test_pullback_along_line_splits():
    fs = ext_heisenberg3()
    ext = build_extension(fs)
    incl = Matrix.from_columns([(1, 0)], rows=2)
    res = pullback_extension(ext, incl, abelian(1))
    assert res.abelian_class.is_zero()
    assert res.lift is not None
    assert bracket_preserving(abelian(1), ext.total, res.lift)


def test_build_output_always_jacobi(rng):
    # gauge translates of a valid factor system build valid algebras
    fs = ext_heisenberg_kernel()
    for _ in range(5):
        gamma = random_gamma(rng, fs)
        ext = build_extension(fs.gauge(gamma))
        assert check_jacobi(ext.total)


def test_rejected_triple_really_breaks_brackets():
    # when the two conditions fail, the assembled map is genuinely not a
    # homomorphism between the built totals
    n = abelian(1)
    g = abelian(2)
    S = OuterActionMap(g, [Matrix([[1]]), Matrix([[0]])], target=n)
    fs = FactorSystem(n, g, S, Cochain(g, 2, 1))
    gamma = Cochain(g, 1, 1, {(1,): (1,)})  # d_S gamma != 0
    assert not check_equivalence_map(Matrix.identity(1), Matrix.identity(2),
                                     gamma, fs, fs)
    total = build_extension(fs).total
    cols = [(1, 0, 0), (0, 1, 0), (1, 0, 1)]
    phi = Matrix.from_columns(cols, rows=3)
    assert not bracket_preserving(total, total, phi)


def test_perturbed_derivation_condition_breaks_jacobi():
    # S(x) = identity is not a derivation of the nilpotent kernel; the
    # product bracket fails Jacobi on a (kernel, kernel, quotient) triple
    from liecoh.liealg import LieAlgebra
    from liecoh.errors import JacobiError
    report = factor_system_report(heisenberg3(), abelian(1),
                                  [Matrix.identity(3)], Cochain(abelian(1), 2, 3))
    assert report.derivation_failures == (0,)
    table = {(0, 1): {2: 1},
             (0, 3): {0: -1}, (1, 3): {1: -1}, (2, 3): {2: -1}}
    with pytest.raises(JacobiError) as exc:
        LieAlgebra(4, table)
    assert exc.value.triple == (0, 1, 3)


def test_perturbed_curvature_condition_breaks_jacobi():
    # omega with non-central values under the zero action: the inner lift
    # fails, and so does Jacobi on a (quotient, quotient, kernel) triple
    from liecoh.liealg import LieAlgebra
    from liecoh.errors import JacobiError
    n = heisenberg3()
    g = abelian(2)
    omega = Cochain(g, 2, 3, {(0, 1): (1, 0, 0)})
    report = factor_system_report(n, g, [Matrix.zero(3, 3)] * 2, omega)
    assert report.curvature_failures == ((0, 1),)
    table = {(0, 1): {2: 1}, (3, 4): {0: 1}}
    with pytest.raises(JacobiError) as exc:
        LieAlgebra(5, table)
    assert exc.value.triple == (1, 3, 4)


def test_perturbing_conditions_breaks_jacobi():
    # the product bracket of an invalid pair (closedness fails) is not a
    # Lie bracket: hand-assemble it and watch Jacobi fail on (x1, x2, x3)
    n = abelian(1)
    g = abelian(3)
    S = [Matrix([[1]]), Matrix([[0]]), Matrix([[0]])]
    omega = Cochain(g, 2, 1, {(1, 2): (1,)})
    report = factor_system_report(n, g, S, omega)
    assert report.cocycle_failures == ((0, 1, 2),)
    from liecoh.liealg import LieAlgebra
    from liecoh.errors import JacobiError
    with pytest.raises(JacobiError) as exc:
        LieAlgebra(4, {(0, 1): {0: -1}, (2, 3): {0: 1}})
    assert exc.value.triple == (1, 2, 3)


def test_factor_systems_and_kernels_keep_the_map_they_are_given():
    fs = ext_heisenberg_kernel()
    assert FactorSystem(fs.n, fs.g, fs.S, fs.omega).S is fs.S
    assert GKernel.from_factor_system(fs).S is fs.S
    # a map without the kernel as its target is wrapped anew
    plain = OuterActionMap(fs.g, fs.S.matrices)
    kept = FactorSystem(fs.n, fs.g, plain, fs.omega).S
    assert kept is not plain and kept.target == fs.n and kept.matrices == plain.matrices
    assert GKernel(fs.n, fs.g, plain, fs.omega).S is not plain


def test_kernel_from_a_factor_system_skips_its_checks(monkeypatch, tmp_path, capsys):
    # a factor system was validated when it was built, so its kernel runs
    # neither the derivation sweep nor the curvature comparison again
    path = tmp_path / "center-h9.json"
    path.write_text(lio.emit(lio.factor_system_to_json(pipeline_system("center", 4))))
    calls = {"_curvature_failures": 0, "is_derivation": 0}
    for name in calls:
        real = getattr(extensions, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(extensions, name, counted)
    assert run_command(["extension", "reduce", "--ext", str(path)]) == 0
    out = capsys.readouterr().out
    # 5 and 18 when the kernel re-ran both checks; same stdout
    assert calls == {"_curvature_failures": 4, "is_derivation": 16}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b27257657936e8915d0ecfa9c01a44ab025dbe4b8a38e59d6a4049c2d1b06724")
    fs = ext_heisenberg_kernel()
    kernel = GKernel.from_factor_system(fs)
    assert (kernel.n, kernel.g, kernel.S, kernel.omega) == (fs.n, fs.g, fs.S, fs.omega)
    assert kernel.S is fs.S and kernel.omega is fs.omega


def test_reduce_builds_each_leibniz_system_once(monkeypatch, tmp_path, capsys):
    # is_derivation reads the Leibniz rows kept on its algebra, so the
    # validations build them once per algebra, not once per matrix of S
    path = tmp_path / "center-h9.json"
    path.write_text(lio.emit(lio.factor_system_to_json(pipeline_system("center", 4))))
    builds = []
    real = liealg.leibniz_rows

    def counted(L, offset=0):
        builds.append(L)
        return real(L, offset)
    monkeypatch.setattr(liealg, "leibniz_rows", counted)
    monkeypatch.setattr(symmetry, "leibniz_rows", counted)
    assert run_command(["extension", "reduce", "--ext", str(path)]) == 0
    out = capsys.readouterr().out
    # 16 builds (4, 2 and 10 on the algebras of dimension 9, 8 and 1) when
    # every is_derivation call rebuilt the rows; now one per algebra, with
    # the same stdout
    assert [L.dim for L in builds] == [9, 8, 1]
    assert len({id(L) for L in builds}) == 3
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "b27257657936e8915d0ecfa9c01a44ab025dbe4b8a38e59d6a4049c2d1b06724")
    L = pipeline_system("center", 4).n
    rows = liealg.kept_leibniz_rows(L)
    assert rows is liealg.kept_leibniz_rows(L) and isinstance(rows, tuple)
    fresh = liealg.leibniz_rows(L)
    assert fresh == list(rows) and fresh is not liealg.leibniz_rows(L)
    assert L == pipeline_system("center", 4).n and hash(L) == hash(pipeline_system("center", 4).n)


def test_a_factor_system_is_its_own_kernel():
    fs = ext_heisenberg_kernel()
    assert isinstance(fs, GKernel)
    assert GKernel.from_factor_system(fs) is fs
    assert obstruction_class(fs).is_zero()
    assert classify_extensions(fs).kernel is fs


def test_obstruction_sweeps_each_derivation_once(monkeypatch, tmp_path, capsys):
    # GKernel is the one place S is checked for derivations: the command
    # makes one is_derivation call per matrix of S, where the OuterActionMap
    # it built before ran a second sweep (4 calls); same stdout
    path = tmp_path / "kernel.json"
    path.write_text(lio.emit(lio.factor_system_to_json(ext_heisenberg_kernel())))
    calls = []
    real = liealg.is_derivation

    def counted(L, d):
        calls.append(d)
        return real(L, d)
    for module in (extensions, cochains):
        if getattr(module, "is_derivation", None) is real:
            monkeypatch.setattr(module, "is_derivation", counted)
    assert run_command(["obstruction", "--ext", str(path)]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 2 == ext_heisenberg_kernel().g.dim
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "244de27e3240805196d3146c75317155971a29ff0da02990e4149b97095a9a45")


def test_direct_kernels_keep_their_checks():
    fs = ext_heisenberg_kernel()
    identity = [Matrix.identity(fs.n.dim)] * fs.g.dim
    with pytest.raises(NotADerivationError, match=r"S\(e0\) is not a derivation of the target"):
        GKernel(fs.n, fs.g, OuterActionMap(fs.g, identity))
    with pytest.raises(DimensionMismatchError, match="derivation candidate has the wrong shape"):
        GKernel(fs.g, fs.g, fs.S)
    bad = fs.omega + Cochain(fs.g, 2, fs.n.dim, {(0, 1): unit_vec(fs.n.dim, 0)})
    with pytest.raises(NoLiftError) as info:
        GKernel(fs.n, fs.g, fs.S, bad)
    assert info.value.certificate == "stored omega does not lift the curvature at (0, 1)"
