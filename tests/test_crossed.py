import random
from dataclasses import replace
from fractions import Fraction

import pytest

from liecoh.catalog import (abelian, ext_heisenberg3, ext_heisenberg_kernel,
                            ext_sl2_kernel, filiform4, heisenberg3, sl2)
from liecoh.cochains import Cochain, cochain_differential
from liecoh.cohomology import classes_equal
from liecoh.crossed import (CrossedModule, characteristic_class_omega_route,
                            characteristic_class_theta_route, split_crossed_module,
                            splitting_equivalence, validate_crossed_module)
from liecoh.errors import InvalidCrossedModuleError, NoOmegaLiftError
from liecoh.extensions import GKernel, build_extension, build_quotient_stage
from liecoh.liealg import LieAlgebra, Representation, adjoint_rep, bracket_preserving
from liecoh.linalg import Matrix, unit_vec

from conftest import rand_cochain


def ideal_inclusion_module():
    """span{q, z} inside the 3-dim nilpotent algebra, adjoint action."""
    ghat = heisenberg3()
    h = abelian(2)  # the ideal is abelian
    alpha = Matrix.from_columns([(0, 1, 0), (0, 0, 1)], rows=3)
    # action of ghat on the ideal through brackets: p.q = z, else 0
    mats = [Matrix([[0, 0], [1, 0]]), Matrix.zero(2, 2), Matrix.zero(2, 2)]
    action = Representation(ghat, 2, mats)
    return CrossedModule(h, ghat, alpha, action)


def central_extension_module():
    """The full nilpotent algebra over its abelianization."""
    h = heisenberg3()
    ghat = abelian(2)
    alpha = Matrix([[1, 0, 0], [0, 1, 0]])
    # x.h = [lift x, h]: lifts of the plane act by p, q brackets
    mats = [h.ad_matrix(0), h.ad_matrix(1)]
    action = Representation(ghat, 3, mats)
    return CrossedModule(h, ghat, alpha, action)


def stage_module(fs):
    kernel = GKernel.from_factor_system(fs)
    stage = build_quotient_stage(kernel)
    return CrossedModule(fs.n, stage.gs, stage.alpha_matrix, stage.rho)


CATALOG_MODULES = (
    ("ideal-inclusion", ideal_inclusion_module),
    ("central-extension", central_extension_module),
    ("stage-heisenberg", lambda: stage_module(ext_heisenberg_kernel())),
    ("stage-sl2", lambda: stage_module(ext_sl2_kernel())),
    ("stage-semidirect", lambda: stage_module(_semidirect_fs())),
)


def _semidirect_fs():
    from liecoh.extensions import FactorSystem
    n = heisenberg3()
    g = abelian(1)
    D = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    return FactorSystem(n, g, [D], Cochain(g, 2, 3))


@pytest.mark.parametrize("name,builder", CATALOG_MODULES)
def test_validate_catalog_modules(name, builder):
    cm = builder()
    report = validate_crossed_module(cm)
    assert report.ok
    assert report.image_ideal and report.kernel_central and report.kernel_submodule


def test_invalid_crossed_module_rejected():
    ghat = heisenberg3()
    h = abelian(2)
    alpha = Matrix.from_columns([(0, 1, 0), (0, 0, 1)], rows=3)
    bad_action = Representation.trivial(ghat, 2)  # breaks equivariance
    with pytest.raises(InvalidCrossedModuleError) as exc:
        CrossedModule(h, ghat, alpha, bad_action)
    assert exc.value.report.cm1_failures


def test_split_ideal_inclusion_trivial_kernel():
    cm = ideal_inclusion_module()
    sp = split_crossed_module(cm)
    assert sp.z.dim == 0
    assert sp.f.is_zero()
    assert not sp.theta
    assert sp.g.dim == 1


def test_split_central_extension_recovers_cocycle():
    cm = central_extension_module()
    sp = split_crossed_module(cm)
    assert sp.z.dim == 1
    assert sp.n_alg.dim == 2
    assert sp.g.dim == 0
    assert sp.f.component((0, 1)) == (1,)


def test_split_stage_module_theta_from_action():
    fs = ext_heisenberg_kernel()
    cm = stage_module(fs)
    sp = split_crossed_module(cm)
    assert sp.z.dim == 1
    assert sp.n_alg.dim == 2
    assert sp.g.dim == 2


@pytest.mark.parametrize("name,builder", CATALOG_MODULES)
def test_double_route_agreement(name, builder):
    cm = builder()
    sp = split_crossed_module(cm)
    c1 = characteristic_class_theta_route(sp)
    c2 = characteristic_class_omega_route(sp)
    assert classes_equal(c1, c2)


def test_omega_route_names_the_first_key_that_misses_alpha():
    # alpha = 0, so g = ghat = abelian(3) and every lift must vanish.  A
    # quotient whose only bracket is [e1, e2] = e0 makes the section
    # curvature -sigma(e0) at (1, 2), outside image(alpha), while the keys
    # (0, 1) and (0, 2) still lift.
    cm = CrossedModule(abelian(1), abelian(3), Matrix.zero(3, 1),
                       Representation.trivial(abelian(3), 1))
    sp = split_crossed_module(cm)
    tilted = replace(sp, g=LieAlgebra(3, {(1, 2): {0: 1}}))
    with pytest.raises(NoOmegaLiftError) as info:
        characteristic_class_omega_route(tilted)
    assert info.value.certificate == "section curvature at (1, 2) misses the image of alpha"


def test_theta_route_invariant_under_extension_choice(rng):
    from liecoh.crossed import _alternating_extension
    cm = stage_module(ext_heisenberg_kernel())
    sp = split_crossed_module(cm)
    base = characteristic_class_theta_route(sp)
    f_tilde = _alternating_extension(sp)
    # shift by a pullback 2-cochain: still an extension of theta
    for _ in range(5):
        shift = rand_cochain(rng, sp.g, 2, sp.z.dim)
        table = {}
        from liecoh.cochains import increasing_tuples
        from liecoh.linalg import vec_is_zero
        for key in increasing_tuples(cm.ghat.dim, 2):
            val = shift.evaluate([sp.q_proj.column(k) for k in key])
            if not vec_is_zero(val):
                table[key] = val
        other = f_tilde + Cochain(cm.ghat, 2, sp.z.dim, table)
        cls = characteristic_class_theta_route(sp, other)
        assert classes_equal(base, cls)


def test_omega_route_invariant_under_section_shift(rng):
    cm = stage_module(ext_heisenberg_kernel())
    sp = split_crossed_module(cm)
    base = characteristic_class_omega_route(sp)
    for _ in range(5):
        # shift the section by an image-valued correction
        corr = Matrix.from_columns(
            [sp.n_sub.embed(tuple(Fraction(rng.randint(-2, 2))
                                  for _ in range(sp.n_sub.dim)))
             for _ in range(sp.g.dim)], rows=cm.ghat.dim)
        sigma = sp.q_sect + corr
        cls = characteristic_class_omega_route(sp, sigma)
        assert classes_equal(base, cls)


def test_class_invariant_under_central_cocycle_change(rng):
    # re-coordinatize h through (z, n) -> (z + gamma(n), n): the splitting
    # cocycle moves by the differential of gamma, the class stays put, and
    # both classes live in the same quotient space because the kernel and
    # the cokernel are untouched
    from liecoh.linalg import invert
    cm = stage_module(ext_heisenberg_kernel())
    sp = split_crossed_module(cm)
    base = characteristic_class_theta_route(sp)
    hd = cm.h.dim
    for _ in range(5):
        phi_rows = [[Fraction(1) if r == c else Fraction(0) for c in range(hd)]
                    for r in range(hd)]
        # gamma shifts the center coordinate by the complement coordinates
        for p, b in zip(sp.z.pivots, sp.z.basis):
            for j in range(hd):
                if not sp.z.contains(unit_vec(hd, j)):
                    phi_rows[p][j] = Fraction(rng.randint(-3, 3))
        phi = Matrix(phi_rows, cols=hd)
        phi_inv = invert(phi)
        assert phi_inv is not None
        # transported structure constants of h along phi
        from liecoh.liealg import change_of_basis
        h2 = change_of_basis(cm.h, phi_inv)
        alpha2 = cm.alpha @ phi_inv
        mats2 = [phi @ m @ phi_inv for m in cm.action.matrices]
        cm2 = CrossedModule(h2, cm.ghat, alpha2, Representation(cm.ghat, hd, mats2))
        sp2 = split_crossed_module(cm2)
        assert sp2.z == sp.z and sp2.g == sp.g
        cls2 = characteristic_class_theta_route(sp2)
        assert classes_equal(base, cls2)


@pytest.mark.parametrize("name,builder", CATALOG_MODULES)
def test_splitting_equivalence_round_trip(name, builder):
    cm = builder()
    witness, chi = splitting_equivalence(cm)
    assert chi.is_zero()
    assert witness is not None
    assert cochain_differential(
        split_crossed_module(cm).zhat_rep, witness.f_tilde).is_zero()
    assert bracket_preserving(cm.h, witness.total, witness.embedding)


def test_surjective_crossed_module_zero_class():
    cm = central_extension_module()
    sp = split_crossed_module(cm)
    cls = characteristic_class_theta_route(sp)
    assert cls.is_zero()
    assert cls.space.rep.algebra.dim == 0
