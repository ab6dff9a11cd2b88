"""The acceptance gate: one test per criterion, each printing a
PASS/FAIL line.  Every assertion is exact; no tolerances anywhere."""

import random
import time
from fractions import Fraction

import pytest

from liecoh.catalog import (abelian, ext_filiform4, ext_heisenberg3,
                            ext_heisenberg_kernel, ext_sl2_kernel, heisenberg3,
                            killing_form, nonabelian2, sl2)
from liecoh.cochains import (Cochain, EquivariantPairing, HALF, OuterActionMap,
                             cochain_differential, covariant_differential,
                             curvature, gauge_action, superbracket,
                             trivial_differential, wedge)
from liecoh.cohomology import classes_equal, cohomology, relative_cocycles
from liecoh.extensions import (FactorSystem, GKernel, build_extension, center_module,
                               equivalent_extensions, obstruction_class,
                               classify_extensions, pullback_cochain,
                               rebuild_from_cocycle, reduce_via_stage,
                               restrict_cochain_to_subspace)
from liecoh.liealg import Representation, adjoint_rep, center
from liecoh.linalg import Matrix, Subspace

from conftest import (composition, dense_ad, dense_coeffs, embed, flat, rand_algebra, rand_cochain,
                      rand_matrix, rand_vector)


def report_line(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


# ---------------------------------------------------------------------------

def test_criterion_01_heisenberg_h2():
    start = time.monotonic()
    rep = Representation.trivial(heisenberg3(), 1)
    dim = cohomology(rep, 2).h_dim
    elapsed = time.monotonic() - start
    report_line(1, dim == 2 and elapsed < 1.0,
                f"degree-2 cohomology of the nilpotent 3-dim algebra has dim {dim} "
                f"({elapsed:.3f}s)")


def test_criterion_02_plane_by_line_dichotomy():
    start = time.monotonic()
    g = abelian(2)
    trivial_dim = cohomology(Representation.trivial(g, 1), 2).h_dim
    nontrivial_dims = []
    for mats in ([Matrix([[1]]), Matrix([[0]])],
                 [Matrix([[0]]), Matrix([[1]])],
                 [Matrix([[2]]), Matrix([[-5]])]):
        nontrivial_dims.append(cohomology(Representation(g, 1, mats), 2).h_dim)
    elapsed = time.monotonic() - start
    ok = trivial_dim == 1 and all(d == 0 for d in nontrivial_dims) and elapsed < 1.0
    report_line(2, ok, f"plane-by-line degree-2 dims: trivial {trivial_dim}, "
                       f"nontrivial {nontrivial_dims} ({elapsed:.3f}s)")


def test_criterion_03_central_derivation_report():
    from liecoh.reproduce import bundle_example_a9
    report, ok = bundle_example_a9()
    report_line(3, ok, f"derivation sequence of the central plane extension: {report}")


def test_criterion_04_lifting_cocycle_value():
    from liecoh.reproduce import bundle_example_a10a
    report, ok = bundle_example_a10a()
    report_line(4, ok, f"commuting shifts fail to lift: {report}")


# ---------------------------------------------------------------------------
# criterion 5: the exact-calculus property suite, 500 cases per identity
# ---------------------------------------------------------------------------

CASES = 500


def _suite_d_squared(rng):
    failures = 0
    for _ in range(CASES):
        L = rand_algebra(rng)
        rep = adjoint_rep(L) if rng.random() < 0.5 else Representation.trivial(L, 2)
        p = rng.randint(0, min(3, L.dim))
        c = rand_cochain(rng, L, p, rep.space_dim, sparsity=0.4)
        if not cochain_differential(rep, cochain_differential(rep, c)).is_zero():
            failures += 1
    return failures


def _suite_covariant_square(rng):
    failures = 0
    for _ in range(CASES):
        L = rand_algebra(rng)
        V = rng.randint(1, 3)
        S = OuterActionMap(L, [rand_matrix(rng, V, V) for _ in range(L.dim)])
        p = rng.randint(0, min(3, L.dim))
        c = rand_cochain(rng, L, p, V, sparsity=0.4)
        lhs = covariant_differential(S, covariant_differential(S, c))
        rhs = wedge(EquivariantPairing.evaluation(V), curvature(S), c)
        if lhs != rhs:
            failures += 1
    return failures


def _suite_bianchi(rng):
    failures = 0
    values = (heisenberg3(), sl2(), nonabelian2())
    for _ in range(CASES):
        L = rand_algebra(rng)
        V = rng.choice(values)
        sigma = rand_cochain(rng, L, 1, V.dim, sparsity=0.3)
        S = OuterActionMap(L, [dense_ad(V, sigma.component((i,))) for i in range(L.dim)],
                           target=V)
        R = trivial_differential(sigma) + superbracket(V, sigma, sigma).scale(HALF)
        if not covariant_differential(S, R).is_zero():
            failures += 1
    return failures


def _suite_leibniz(rng):
    failures = 0
    count = 0
    while count < CASES:
        L = rand_algebra(rng)
        rep = adjoint_rep(L)
        m = EquivariantPairing.lie_bracket(L)
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        if p + q + 1 > L.dim:
            continue
        count += 1
        a = rand_cochain(rng, L, p, L.dim, sparsity=0.3)
        b = rand_cochain(rng, L, q, L.dim, sparsity=0.3)
        lhs = cochain_differential(rep, wedge(m, a, b))
        rhs = (wedge(m, cochain_differential(rep, a), b)
               + wedge(m, a, cochain_differential(rep, b)).scale((-1) ** p))
        if lhs != rhs:
            failures += 1
    return failures


def _suite_graded_commutativity(rng):
    failures = 0
    count = 0
    V = heisenberg3()
    bracket = EquivariantPairing.lie_bracket(V)
    while count < CASES:
        L = rand_algebra(rng)
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        if p + q > L.dim:
            continue
        count += 1
        a = rand_cochain(rng, L, p, 3, sparsity=0.3)
        b = rand_cochain(rng, L, q, 3, sparsity=0.3)
        if wedge(bracket, a, b) != wedge(bracket, b, a).scale((-1) ** (p * q + 1)):
            failures += 1
    return failures


def _suite_superalgebra(rng):
    failures = 0
    count = 0
    V = sl2()
    while count < CASES:
        L = rand_algebra(rng)
        degrees = [rng.randint(0, 2) for _ in range(3)]
        if sum(degrees) > L.dim:
            continue
        count += 1
        p, q, r = degrees
        a, b, c = (rand_cochain(rng, L, d, 3, sparsity=0.3) for d in degrees)
        # graded antisymmetry
        if superbracket(V, a, b) != superbracket(V, b, a).scale((-1) ** (p * q + 1)):
            failures += 1
            continue
        # even squares and odd triple self-brackets vanish
        even = a if p % 2 == 0 else b if q % 2 == 0 else None
        odd = a if p % 2 else b if q % 2 else None
        if even is not None and not superbracket(V, even, even).is_zero():
            failures += 1
            continue
        if odd is not None and not superbracket(
                V, odd, superbracket(V, odd, odd)).is_zero():
            failures += 1
            continue
        # graded cyclic identity
        total = superbracket(V, superbracket(V, a, b), c).scale((-1) ** (p * r))
        total = total + superbracket(V, superbracket(V, b, c), a).scale((-1) ** (q * p))
        total = total + superbracket(V, superbracket(V, c, a), b).scale((-1) ** (r * q))
        if not total.is_zero():
            failures += 1
    return failures


def _suite_associativity(rng):
    failures = 0
    count = 0
    while count < CASES:
        L = rand_algebra(rng)
        V = rng.randint(1, 2)
        comp = composition(V)
        ev = EquivariantPairing.evaluation(V)
        degrees = [rng.randint(0, 2) for _ in range(3)]
        if sum(degrees) > L.dim:
            continue
        count += 1
        a = rand_cochain(rng, L, degrees[0], V * V, sparsity=0.3)
        b = rand_cochain(rng, L, degrees[1], V * V, sparsity=0.3)
        c = rand_cochain(rng, L, degrees[2], V, sparsity=0.3)
        if wedge(ev, wedge(comp, a, b), c) != wedge(ev, a, wedge(ev, b, c)):
            failures += 1
    return failures


def test_criterion_05_property_suite():
    rng = random.Random(2024)
    results = {
        "d_squared": _suite_d_squared(rng),
        "covariant_square": _suite_covariant_square(rng),
        "bianchi": _suite_bianchi(rng),
        "leibniz": _suite_leibniz(rng),
        "graded_commutativity": _suite_graded_commutativity(rng),
        "superalgebra": _suite_superalgebra(rng),
        "associativity": _suite_associativity(rng),
    }
    ok = all(v == 0 for v in results.values())
    report_line(5, ok, f"{CASES} cases per identity, failures: {results}")


# ---------------------------------------------------------------------------
# criterion 6: the gauge-action suite
# ---------------------------------------------------------------------------

def test_criterion_06_gauge_suite():
    rng = random.Random(7)
    fs_list = [ext_heisenberg_kernel(), ext_heisenberg3(), ext_filiform4()]
    failures = 0
    cases = 0
    for _ in range(34):
        fs = rng.choice(fs_list)
        n, g = fs.n, fs.g
        g1 = rand_cochain(rng, g, 1, n.dim, sparsity=0.2)
        g2 = rand_cochain(rng, g, 1, n.dim, sparsity=0.2)
        cases += 1
        # action law
        s_a, o_a = gauge_action(g1, *gauge_action(g2, fs.S, fs.omega))
        s_b, o_b = gauge_action(g1 + g2, fs.S, fs.omega)
        if s_a.matrices != s_b.matrices or o_a != o_b:
            failures += 1
        # (1): curvature transform
        S2, corr_omega = gauge_action(g1, fs.S, Cochain.zero(g, 2, n.dim))
        R2 = curvature(S2)
        R1 = curvature(fs.S)
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = Matrix.from_flat(enumerate(R2.component((i, j))), n.dim, n.dim)
                rhs = (Matrix.from_flat(enumerate(R1.component((i, j))), n.dim, n.dim)
                       + dense_ad(n, corr_omega.component((i, j))))
                if lhs != rhs:
                    failures += 1
        # (2): the inner-curvature set is invariant
        S3, o3 = gauge_action(g1, fs.S, fs.omega)
        R3 = curvature(S3)
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                if (R3.component((i, j))
                        != flat(dense_ad(n, o3.component((i, j))))):
                    failures += 1
        # (3): d_S omega is center-valued and closed; take a lift with a
        # twisted omega so the value is not identically zero
        z = center(n)
        twist = rand_cochain(rng, g, 2, z.dim, sparsity=0.2)
        omega_t = fs.omega + Cochain(
            g, 2, n.dim, {k: embed(z, v) for k, v in dense_coeffs(twist).items()})
        d_s_omega = covariant_differential(fs.S, omega_t)
        try:
            z_val = restrict_cochain_to_subspace(d_s_omega, z)
        except Exception:
            failures += 1
            continue
        _, z_rep = center_module(fs.S)
        if not cochain_differential(z_rep, z_val).is_zero():
            failures += 1
        # (4): constancy on orbits
        S4, o4 = gauge_action(g1, fs.S, omega_t)
        if covariant_differential(S4, o4) != d_s_omega:
            failures += 1
    ok = failures == 0 and cases >= 30
    report_line(6, ok, f"gauge-action suite over {cases} randomized instances, "
                       f"failures: {failures}")


# ---------------------------------------------------------------------------

def test_criterion_07_classification_on_plane_by_line():
    n = abelian(1)
    g = abelian(2)
    S0 = Representation.trivial(g, n.dim)
    omega0 = Cochain(g, 2, 1)
    area = Cochain(g, 2, 1, {(0, 1): (1,)})
    fs_flat = FactorSystem(n, g, S0, omega0)
    fs_area = FactorSystem(n, g, S0, area)
    noncob = equivalent_extensions(fs_flat, fs_area)
    ok = not noncob.found and noncob.stage == "class-difference"
    # nontrivial action: the only class is zero; a coboundary difference
    # produces an explicit witness
    St = OuterActionMap(g, [Matrix([[1]]), Matrix([[0]])], target=n)
    rep = Representation(g, 1, St.matrices)
    cob = cochain_differential(rep, Cochain(g, 1, 1, {(1,): (3,)}))
    res = equivalent_extensions(FactorSystem(n, g, St, omega0),
                                FactorSystem(n, g, St, cob))
    ok = ok and res.found
    # simply transitive translation on the trivial-action representatives
    cls = classify_extensions(GKernel.from_factor_system(fs_flat))
    reps = cls.representatives
    ok = ok and len(reps) == 2
    for i, f1 in enumerate(reps):
        for f2 in reps[i + 1:]:
            ok = ok and not equivalent_extensions(f1, f2).found
    # translating a representative by a coboundary collapses to itself
    shifted = FactorSystem(n, g, S0, reps[1].omega + Cochain(g, 2, 1))
    ok = ok and equivalent_extensions(reps[1], shifted).found
    # the translation by the area class moves flat to area
    moved = FactorSystem(n, g, S0, reps[0].omega + cls.translations[0])
    ok = ok and equivalent_extensions(moved, reps[1]).found
    report_line(7, ok, "inequivalence certificate, coboundary witness and "
                       "simply transitive translation on the plane-by-line family")


def test_criterion_08_obstruction_invariance():
    rng = random.Random(11)
    failures = 0
    fs_list = [ext_heisenberg_kernel(), ext_heisenberg3(), ext_filiform4(),
               ext_sl2_kernel()]
    for _ in range(100):
        fs = rng.choice(fs_list)
        kernel = GKernel.from_factor_system(fs)
        base = obstruction_class(kernel)
        gamma = rand_cochain(rng, fs.g, 1, fs.n.dim, sparsity=0.2)
        moved = GKernel.from_factor_system(fs.gauge(gamma))
        if not classes_equal(base, obstruction_class(moved)):
            failures += 1
        z = center(fs.n)
        if z.dim:
            twist = rand_cochain(rng, fs.g, 2, z.dim, sparsity=0.2)
            omega2 = fs.omega + Cochain(
                fs.g, 2, fs.n.dim, {k: embed(z, v) for k, v in dense_coeffs(twist).items()})
            other = GKernel(fs.n, fs.g, fs.S, omega2)
            if not classes_equal(base, obstruction_class(other)):
                failures += 1
        if not base.is_zero():
            failures += 1
    # abelian kernels with homomorphism actions always vanish
    g2 = nonabelian2()
    n2 = abelian(2)
    S = OuterActionMap(g2, [Matrix([[0, 1], [0, 0]]), Matrix([[-1, 0], [0, 0]])],
                       target=n2)
    if not obstruction_class(GKernel(n2, g2, S)).is_zero():
        failures += 1
    report_line(8, failures == 0,
                f"obstruction class invariance over 100 randomized instances, "
                f"failures: {failures}")


def test_criterion_09_double_route():
    from test_crossed import CATALOG_MODULES
    from liecoh.crossed import (characteristic_class_omega_route,
                                characteristic_class_theta_route,
                                split_crossed_module)
    results = {}
    for name, builder in CATALOG_MODULES:
        sp = split_crossed_module(builder())
        c1 = characteristic_class_theta_route(sp)
        c2 = characteristic_class_omega_route(sp)
        results[name] = classes_equal(c1, c2)
    ok = all(results.values())
    report_line(9, ok, f"characteristic class routes agree on {results}")


def test_criterion_10_stage_round_trip():
    from liecoh.reproduce import bundle_theorem_iv4_roundtrip
    report, ok = bundle_theorem_iv4_roundtrip()
    report_line(10, ok, f"stage rewrite round trip: {report}")


def test_criterion_11_current_identity():
    start = time.monotonic()
    from liecoh.currents import run_v2_samples
    report = run_v2_samples(100, 0)
    kappa = killing_form(sl2())
    ok = (report["failures"] == 0 and report["eta_e_f_h"] == "4"
          and kappa.gram.entry(2, 2) == 8
          and report["eta_class_nonzero"] and report["h3_dim"] == 1)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 5.0
    report_line(11, ok, f"current identity suite: {report} ({elapsed:.3f}s)")


def test_criterion_12_whitehead():
    rep = Representation.trivial(sl2(), 1)
    dims = [cohomology(rep, p).h_dim for p in range(4)]
    euler_h = sum((-1) ** p * d for p, d in enumerate(dims))
    euler_c = 1 - 3 + 3 - 1
    ok = dims == [1, 0, 0, 1] and euler_h == 0 and euler_c == 0
    report_line(12, ok, f"simple-algebra vanishing: dims {dims}, "
                        f"euler {euler_h} == {euler_c}")


def test_criterion_13_io_and_bundles(tmp_path):
    import json
    from liecoh import io as lio
    from liecoh.reproduce import run_bundle
    # byte-exact canonical round trip
    fs = ext_heisenberg_kernel()
    text = lio.emit(lio.factor_system_to_json(fs))
    back = FactorSystem(*lio.factor_system_parts_from_json(json.loads(text)))
    round_trip = lio.emit(lio.factor_system_to_json(back)) == text
    alg_text = lio.emit(lio.algebra_to_json(heisenberg3()))
    alg_round = lio.emit(
        lio.algebra_to_json(lio.algebra_from_json(json.loads(alg_text)))) == alg_text
    bundles = {}
    for name in ("example-A9", "example-A10a", "example-A10b", "remark-II10",
                 "remark-IV5", "example-V2"):
        _, passed = run_bundle(name)
        bundles[name] = passed
    ok = round_trip and alg_round and all(bundles.values())
    report_line(13, ok, f"round trips byte-exact: {round_trip and alg_round}; "
                        f"bundles: {bundles}")
