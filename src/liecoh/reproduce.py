"""Named reproduction bundles: each runs one worked scenario end to end
and compares against its frozen expected values.

``run_bundle`` reaches every bundle.  The two that need no catalog system
live with the code they run, ``remark-II10`` in ``cohomology`` and
``example-V2`` in ``currents``, so the command table can run either
without loading this module."""

from __future__ import annotations

from .catalog import catalog
from .cochains import Cochain, cochain_differential, pullback_cochain
from .cohomology import bundle_remark_ii10, cohomology
from .currents import bundle_example_v2
from .errors import UnknownBundleError
from .extensions import (center_module, classify_extensions, equivalent_extensions,
                         extension_map, rebuild_from_cocycle, reduce_via_stage)
from .linalg import Matrix, Subspace
from .symmetry import derivation_pair_obstruction, extension_derivations, lifting_cocycle


def bundle_example_a9():
    """Derivations of the 3-dimensional nilpotent central extension."""
    fs = catalog("ext-heisenberg3")
    rep = extension_derivations(fs)
    beta_span = Subspace.row_space(Matrix.from_sparse_rows(
        [dict(beta.flat_pairs()) for _, beta, _ in rep.image_pairs], 4))
    conformal_weights_ok = all(
        alpha.entry(0, 0) == beta.trace() for alpha, beta, _ in rep.image_pairs)
    gamma_zero = all(g.is_zero() for _, _, g in rep.image_pairs)
    lifted = [extension_map(alpha, gamma.as_matrix(), beta)
              for alpha, beta, gamma in rep.image_pairs]
    closed = True
    for i, (a1, b1, _) in enumerate(rep.image_pairs):
        for j, (a2, b2, _) in enumerate(rep.image_pairs):
            expected = extension_map(a1.commutator(a2), Matrix.zero(1, 2), b1.commutator(b2))
            if lifted[i].commutator(lifted[j]) != expected:
                closed = False
    i_zero = all(derivation_pair_obstruction(fs, alpha, beta)[0].is_zero()
                 for alpha, beta, _ in rep.image_pairs)
    report = {
        "kernel_dim": rep.kernel_dim,
        "image_dim": rep.image_dim,
        "image_is_gl2": beta_span.dim == 4,
        "conformal_weights": conformal_weights_ok,
        "i_zero_on_image": i_zero,
        "total_derivation_dim": rep.total_dim,
        "brute_force_dim": rep.brute_force_dim,
        "splits_with_zero_gamma": gamma_zero and closed,
        "exact": rep.exact,
    }
    passed = (report["kernel_dim"] == 2 and report["image_dim"] == 4
              and report["image_is_gl2"] and report["conformal_weights"]
              and report["i_zero_on_image"]
              and report["total_derivation_dim"] == 6
              and report["brute_force_dim"] == 6
              and report["splits_with_zero_gamma"] and report["exact"])
    return report, passed


def _filiform_lift_data():
    fs = catalog("ext-filiform4")
    h3 = fs.g
    b_alg = catalog("abelian2")
    z1 = Matrix.zero(1, 1)
    b1 = Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    b2 = Matrix([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    theta1 = Cochain(h3, 1, 1)
    theta2 = Cochain(h3, 1, 1, {(2,): (1,)})
    return fs, b_alg, [z1, z1], [b1, b2], [theta1, theta2]


def bundle_example_a10a():
    """The two commuting shifts do not lift compatibly: the pulled-back
    extension of their plane is not abelian."""
    rep = lifting_cocycle(*_filiform_lift_data())
    value = rep.cocycle_values[(0, 1)].component((0,))  # the one value the report shows
    report = {
        "splits": rep.is_zero_cocycle,
        "value_on_p": str(value[0]) if value else "0",
        "witness": "d_h theta(b1,b2) != 0",
    }
    passed = report["splits"] is False and report["value_on_p"] == "-1"
    return report, passed


def bundle_example_a10b():
    """No lift of the shift plane exists at all: the class is nonzero."""
    rep = lifting_cocycle(*_filiform_lift_data())
    report = {
        "lift_exists": rep.lift_exists,
        "obstruction_zero": rep.obstruction.is_zero(),
        "h2_dim": rep.obstruction.space.h_dim,
    }
    passed = not rep.lift_exists and not rep.obstruction.is_zero()
    return report, passed


def bundle_remark_iv5():
    """A center-free kernel admits exactly one extension, its stage algebra."""
    fs = catalog("ext-sl2-kernel")
    cls = classify_extensions(fs)
    red = reduce_via_stage(fs)
    report = {
        "center_dim": red.stage.z.dim,
        "h2_dim": cls.h2.h_dim,
        "h3_dim": cohomology(center_module(fs.S)[1], 3).h_dim,
        "unique": not cls.translations,
        "stage_equivalent": equivalent_extensions(fs, red.rebuilt_fs).found,
    }
    passed = (report["center_dim"] == 0 and report["h2_dim"] == 0
              and report["h3_dim"] == 0 and report["unique"]
              and report["stage_equivalent"])
    return report, passed


def bundle_theorem_iv4_roundtrip():
    """Stage rewrite round trip with coboundary and non-coboundary shifts."""
    fs = catalog("ext-heisenberg-kernel")
    red = reduce_via_stage(fs)
    round_trip = (red.rebuilt_fs.S == fs.S and red.rebuilt_fs.omega == fs.omega)
    stage = red.stage
    g = fs.g
    _, z_rep = center_module(fs.S)
    # a coboundary shift through the stage projection keeps the class
    beta = Cochain(g, 1, 1, {(0,): (1,)})
    cob = cochain_differential(z_rep, beta)
    shift_cob = pullback_cochain(cob, stage.ext.projection, stage.gs)
    _, fs_cob = rebuild_from_cocycle(stage, red.f_tilde + shift_cob)
    equiv_after_cob = equivalent_extensions(fs, fs_cob).found
    # a non-coboundary cocycle changes it
    noncob = Cochain(g, 2, 1, {(0, 1): (1,)})
    shift_non = pullback_cochain(noncob, stage.ext.projection, stage.gs)
    _, fs_non = rebuild_from_cocycle(stage, red.f_tilde + shift_non)
    equiv_after_non = equivalent_extensions(fs, fs_non).found
    report = {
        "round_trip_exact": round_trip,
        "solution_space_contains_section_cocycle": red.solutions.contains(red.f_tilde),
        "coboundary_shift_equivalent": equiv_after_cob,
        "noncoboundary_shift_equivalent": equiv_after_non,
    }
    passed = (round_trip and report["solution_space_contains_section_cocycle"]
              and equiv_after_cob and not equiv_after_non)
    return report, passed


_BUNDLES = {
    "example-A9": bundle_example_a9,
    "example-A10a": bundle_example_a10a,
    "example-A10b": bundle_example_a10b,
    "remark-II10": bundle_remark_ii10,
    "remark-IV5": bundle_remark_iv5,
    "example-V2": bundle_example_v2,
    "theorem-IV4-roundtrip": bundle_theorem_iv4_roundtrip,
}


def run_bundle(name: str):
    if name not in _BUNDLES:
        raise UnknownBundleError(
            f"unknown bundle {name!r}; known: {', '.join(_BUNDLES)}")
    return _BUNDLES[name]()
