"""The classification's pair check against the per-pair equivalence solve.

``loop_pair_check`` is the cross-check ``classify_extensions`` ran before
it batched the pairs: a full ``equivalent_extensions`` solve on every pair
of representatives.  It stays here as the oracle.  ``pairwise_equivalent``
must agree with it pair by pair, on the representatives and on planted
copies that are equivalent to one of them, over the catalog systems, two
seeded basis changes of each, and the three benchmark factor-system kinds
at h7.  A planted repeated class must still raise, and the work classify
does must not grow with the number of classes.
"""

import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from liecoh import cochains
from liecoh.cochains import Cochain
from liecoh.cohomology import CohomologySpace
from liecoh.errors import DimensionMismatchError, InvariantViolation
from liecoh.extensions import (FactorSystem, GKernel, center_module, classify_extensions,
                               embed_cochain_from_subspace, equivalent_extensions,
                               pairwise_equivalent)
from liecoh.liealg import LieAlgebra
from liecoh.linalg import Matrix

from conftest import rand_cochain
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


@pytest.fixture
def liecoh_calls(monkeypatch):
    """Count calls of the named liecoh functions through every module that imported them."""

    def install(*names):
        calls = {name: 0 for name in names}
        for name in names:
            module_name, _, attr = name.rpartition(".")
            real = getattr(sys.modules[f"liecoh.{module_name}"], attr)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").partition(".")[0] == "liecoh":
                    for key, value in list(vars(module).items()):
                        if value is real:
                            monkeypatch.setattr(module, key, counted)
        return calls

    return install


def test_classify_work_does_not_grow_with_the_classes(liecoh_calls):
    calls = liecoh_calls("cochains.operator_matrix", "liealg.center",
                         "extensions.equivalent_extensions")
    counts = {}
    for k in (2, 3):
        kernel = GKernel.from_factor_system(pipeline_system("central", k))
        for name in calls:
            calls[name] = 0
        cls = classify_extensions(kernel)
        counts[k] = (len(cls.representatives), dict(calls))
    (small, at_h5), (large, at_h7) = counts[2], counts[3]
    assert small < large
    assert at_h5 == at_h7
    assert at_h7["extensions.equivalent_extensions"] == 0
    assert at_h7["liealg.center"] == 1
