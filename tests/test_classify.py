"""The classification's independence check against the pair checks it replaced.

``loop_pair_check`` is the cross-check ``classify_extensions`` ran first: a
full ``equivalent_extensions`` solve on every pair of representatives.
``pairwise_equivalent`` (kept in ``conftest.py``) replaced it with one
elimination of d_1 whose columns are every pair's difference.  Both stay
here as oracles, and they must agree pair by pair, on the representatives
and on planted copies that are equivalent to one of them.  The catalog
systems, two seeded basis changes of each, and the three benchmark
factor-system kinds at h7 are the cases.  classify now checks each
translation to be center-valued and closed, and all of their classes to be
independent modulo the coboundaries, in one rank test.  On every case its
verdict must be the oracle's, with and without a planted copy of a class.
Planted defects must raise: a repeated class, the sum of two classes (which
no pair check sees), a translation that is not closed and one that is not
center-valued.  The work classify does must not grow with the number of
classes.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from liecoh import cochains, extensions
from liecoh.cochains import Cochain
from liecoh.cohomology import CohomologySpace
from liecoh.errors import DimensionMismatchError, InvariantViolation
from liecoh.extensions import (FactorSystem, GKernel, center_module, classify_extensions,
                               embed_cochain_from_subspace, equivalent_extensions)
from liecoh.liealg import LieAlgebra
from liecoh.linalg import Matrix

from conftest import pairwise_equivalent, rand_cochain
from test_gauge_step import SYSTEMS, SYSTEM_IDS


def loop_pair_check(representatives):
    """The former cross-check of classify_extensions."""
    for i, fs1 in enumerate(representatives):
        for fs2 in representatives[i + 1:]:
            if equivalent_extensions(fs1, fs2).found:
                raise InvariantViolation(
                    "distinct degree-2 classes produced equivalent extensions")


def heisenberg(k):
    return LieAlgebra(2 * k + 1, {(i, k + i): {2 * k: 1} for i in range(k)})


def pipeline_system(kind, k):
    """The benchmark's three factor-system kinds at Heisenberg scale h_{2k+1}."""
    h = heisenberg(k)
    z = 2 * k
    if kind == "center":
        g = LieAlgebra(2)
        zero = Matrix.zero(h.dim, h.dim)
        return FactorSystem(h, g, [zero, zero],
                            Cochain(g, 2, h.dim, {(0, 1): [int(i == z) for i in range(h.dim)]}))
    if kind == "grading":
        grading = Matrix([[Fraction(2 if i == j == z else int(i == j))
                           for j in range(h.dim)] for i in range(h.dim)], cols=h.dim)
        g = LieAlgebra(1)
        return FactorSystem(h, g, [grading], Cochain(g, 2, h.dim))
    n = LieAlgebra(1)
    return FactorSystem(n, h, [Matrix.zero(1, 1)] * h.dim, Cochain(h, 2, 1, {(0, 1): [1]}))


CASES = SYSTEMS + [(f"{kind}-h7", pipeline_system(kind, 3))
                   for kind in ("center", "grading", "central")]
CASE_IDS = SYSTEM_IDS + [name for name, _ in CASES[len(SYSTEMS):]]


def planted_copies(kernel, representatives, rng):
    """Copies of some representatives moved by a center-valued coboundary:
    each is equivalent to its original and to nothing else."""
    z, z_rep = center_module(kernel.S)
    copies = []
    for fs in representatives[:3]:
        zeta = rand_cochain(rng, kernel.g, 1, z.dim)
        shift = cochains.cochain_differential(z_rep, zeta)
        copies.append(FactorSystem(kernel.n, kernel.g, kernel.S,
                                   fs.omega + embed_cochain_from_subspace(shift, z)))
    return copies


@pytest.mark.parametrize("name, fs", CASES, ids=CASE_IDS)
def test_pair_check_matches_per_pair_oracle(name, fs):
    kernel = GKernel.from_factor_system(fs)
    cls = classify_extensions(kernel)
    loop_pair_check(list(cls.representatives))
    systems = list(cls.representatives) + planted_copies(kernel, cls.representatives,
                                                         random.Random(37))
    got = pairwise_equivalent(systems, center_module(kernel.S))
    want = tuple(equivalent_extensions(a, b).found for a, b in combinations(systems, 2))
    assert got == want
    # every planted copy is equivalent to its original
    assert sum(want) >= min(3, len(cls.representatives))


def test_pair_check_needs_one_s():
    fs = pipeline_system("grading", 1)
    other = FactorSystem(fs.n, fs.g, [Matrix.zero(fs.n.dim, fs.n.dim)], fs.omega)
    with pytest.raises(DimensionMismatchError):
        pairwise_equivalent([fs, other], center_module(fs.S))


@pytest.mark.parametrize("repeat", ["same cochain", "same class"])
def test_planted_duplicate_class_raises(monkeypatch, repeat):
    kernel = GKernel.from_factor_system(pipeline_system("central", 2))
    real = CohomologySpace.representative_cochains

    def repeated(space):
        reps = real(space)
        twin = reps[-1]
        if repeat == "same class":
            last = space.rep.algebra.dim - 1
            zeta = Cochain(space.rep.algebra, 1, space.rep.space_dim, {(last,): [1]})
            twin = twin + cochains.cochain_differential(space.rep, zeta)
            assert twin != reps[-1]
        return reps + (twin,)

    monkeypatch.setattr(CohomologySpace, "representative_cochains", repeated)
    with pytest.raises(InvariantViolation,
                       match="distinct degree-2 classes produced equivalent extensions"):
        classify_extensions(kernel)


def plant(monkeypatch, extra):
    """Make representative_cochains return its classes plus extra(space, reps)."""
    real = CohomologySpace.representative_cochains
    monkeypatch.setattr(CohomologySpace, "representative_cochains",
                        lambda space: real(space) + extra(space, real(space)))


def representatives_with(kernel, extra):
    """The representatives classify would form from its classes plus the extra
    center-coordinate cochains, each validated as a FactorSystem."""
    cls = classify_extensions(kernel)
    z, _ = center_module(kernel.S)
    return list(cls.representatives) + [
        FactorSystem(kernel.n, kernel.g, kernel.S,
                     cls.base.omega + embed_cochain_from_subspace(t, z)) for t in extra]


@pytest.mark.parametrize("planted", [False, True], ids=["classes", "planted-copy"])
@pytest.mark.parametrize("name, fs", CASES, ids=CASE_IDS)
def test_independence_verdict_matches_pair_oracle(monkeypatch, name, fs, planted):
    """classify accepts exactly when the pairwise oracle finds no equivalent
    pair: on its own classes, and with a coboundary-moved copy of its last
    class planted among them."""
    kernel = GKernel.from_factor_system(fs)
    h2 = classify_extensions(kernel).h2
    extra = ()
    if planted and h2.h_dim:
        zeta = rand_cochain(random.Random(41), kernel.g, 1, h2.rep.space_dim)
        extra = (h2.representative_cochains()[-1]
                 + cochains.cochain_differential(h2.rep, zeta),)
    want = any(pairwise_equivalent(representatives_with(kernel, extra),
                                   center_module(kernel.S)))
    assert want == bool(extra)
    plant(monkeypatch, lambda space, reps: extra)
    try:
        classify_extensions(kernel)
        got = False
    except InvariantViolation:
        got = True
    assert got == want


def test_planted_sum_of_two_classes_raises(monkeypatch):
    """t1 + t2 is inequivalent to the base, t1 and t2 one pair at a time, so
    the pair check passed it; its class is not independent of theirs."""
    kernel = GKernel.from_factor_system(pipeline_system("central", 2))
    reps = classify_extensions(kernel).h2.representative_cochains()
    extra = (reps[0] + reps[1],)
    assert not any(pairwise_equivalent(representatives_with(kernel, extra),
                                       center_module(kernel.S)))
    plant(monkeypatch, lambda space, reps: extra)
    with pytest.raises(InvariantViolation,
                       match="distinct degree-2 classes produced equivalent extensions"):
        classify_extensions(kernel)


def test_planted_translation_that_is_not_closed_raises(monkeypatch):
    kernel = GKernel.from_factor_system(pipeline_system("central", 2))
    # e0* ^ e4* on h5, whose center is e4: d e4* = -(e0* ^ e2* + e1* ^ e3*)
    bad = Cochain(kernel.g, 2, 1, {(0, 4): [1]})
    assert not cochains.cochain_differential(center_module(kernel.S)[1], bad).is_zero()
    plant(monkeypatch, lambda space, reps: (bad,))
    with pytest.raises(InvariantViolation, match="classify: a translation is not closed"):
        classify_extensions(kernel)


def test_planted_translation_that_is_not_center_valued_raises(monkeypatch):
    """A class in center coordinates always embeds into the center, so the
    planted one is also moved off it by an e0-valued term as it is embedded."""
    kernel = GKernel.from_factor_system(pipeline_system("center", 2))
    planted = classify_extensions(kernel).h2.representative_cochains()[0].scale(2)
    off_center = Cochain(kernel.g, 2, kernel.n.dim, {(0, 1): [1] + [0] * (kernel.n.dim - 1)})
    real = extensions.embed_cochain_from_subspace

    def leaky(c, sub):
        return real(c, sub) + off_center if c is planted else real(c, sub)

    plant(monkeypatch, lambda space, reps: (planted,))
    monkeypatch.setattr(extensions, "embed_cochain_from_subspace", leaky)
    with pytest.raises(InvariantViolation, match="classify: a translation is not center-valued"):
        classify_extensions(kernel)


def test_classify_work_does_not_grow_with_the_classes(monkeypatch, liecoh_calls):
    calls = liecoh_calls("cochains.operator_matrix", "liealg.center",
                         "extensions.equivalent_extensions", "extensions._factor_report")
    calls["Matrix.rref"], real = 0, Matrix.rref

    def counted(self):
        calls["Matrix.rref"] += 1
        return real(self)

    monkeypatch.setattr(Matrix, "rref", counted)
    counts = {}
    for k in (2, 3):
        kernel = GKernel.from_factor_system(pipeline_system("central", k))
        for name in calls:
            calls[name] = 0
        cls = classify_extensions(kernel)
        counts[k] = (len(cls.translations), dict(calls))
    (small, at_h5), (large, at_h7) = counts[2], counts[3]
    assert small < large
    assert at_h5 == at_h7
    assert at_h7["extensions.equivalent_extensions"] == 0
    assert at_h7["liealg.center"] == 1
    # the base is the one factor system classify builds
    assert at_h7["extensions._factor_report"] == 1
