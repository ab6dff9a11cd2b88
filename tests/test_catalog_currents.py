import contextlib
import hashlib
import io
import json
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

import liecoh.catalog as catalog_module
from liecoh import currents, io as lio
from liecoh.catalog import (MAX_ABELIAN_DIM, InvariantForm, abelian, catalog, heisenberg3,
                            killing_form, nonabelian2, sl2)
from liecoh.cli import run_command
from liecoh.cochains import Cochain
from liecoh.cohomology import cohomology
from liecoh.currents import (Polynomial, character, cyclic_cocycle_defect,
                             functional, run_v2_samples, v2_characteristic_cocycle,
                             v2_cocycle_identity)
from liecoh.errors import InputError, InvariantViolation, ParseError, UnknownNameError
from liecoh.liealg import EXTENSION_NAMES, OuterActionMap, Representation, check_jacobi
from liecoh.linalg import ZERO, Matrix


def rand_vanishing_poly(rng, max_degree=5):
    return Polynomial([0] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                             for _ in range(rng.randint(1, max_degree))])


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_entries():
    h3 = catalog("heisenberg3")
    assert h3.dim == 3 and not h3.is_abelian()
    assert catalog("abelian2").is_abelian()
    assert catalog("abelian5").dim == 5
    assert catalog("nonabelian2").bracket_basis(0, 1) == ((0, 1),)
    assert catalog("filiform4").dim == 4
    for name in ("ext-heisenberg3", "ext-filiform4", "ext-heisenberg-kernel",
                 "ext-sl2-kernel"):
        fs = catalog(name)
        assert check_jacobi(fs.n) and check_jacobi(fs.g)


def test_catalog_unknown_name():
    with pytest.raises(UnknownNameError):
        catalog("exceptional-e8")


def test_catalog_refuses_a_large_abelian_before_building_it(monkeypatch, capsys):
    # nothing of that size is built: building an algebra here fails the test
    def refuse(n):
        raise AssertionError(f"abelian({n}) was built")
    monkeypatch.setattr(catalog_module, "abelian", refuse)
    start = time.perf_counter()
    assert run_command(["catalog", "abelian99999999"]) == 1
    assert time.perf_counter() - start < 1
    error = json.loads(capsys.readouterr().out)["error"]
    assert error == {"kind": "UnknownNameError",
                     "message": "catalog entry 'abelian99999999': abelian<n> takes n at most "
                                f"{MAX_ABELIAN_DIM}"}
    # past int()'s 4300-digit limit, and just past the cap
    for name in ("abelian" + "9" * 5000, f"abelian{MAX_ABELIAN_DIM + 1}",
                 f"abelian000{MAX_ABELIAN_DIM + 1}"):
        with pytest.raises(UnknownNameError, match="takes n at most"):
            catalog(name)


def test_the_catalog_names_every_factor_system_it_builds():
    # liealg lists them for the unknown-name message without loading extensions
    assert EXTENSION_NAMES == tuple(sorted(catalog_module._EXTENSIONS))
    for name in EXTENSION_NAMES:
        with pytest.raises(ParseError, match="is not an algebra"):
            lio.algebra_from_json(name)


def test_a_catalog_system_builds_one_action_map(monkeypatch):
    built = []
    init = OuterActionMap.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(OuterActionMap, "__init__", counting_init)
    fs = catalog("ext-heisenberg3")
    # S itself, then the trivial module of End(n) in which the calculus route
    # of the curvature differentiates S
    assert built[0] is fs.S and fs.S.target is fs.n
    assert [type(m) for m in built] == [OuterActionMap, Representation]
    assert built[1].target is None and built[1].space_dim == fs.n.dim ** 2


def test_package_attributes_are_its_submodules(monkeypatch):
    # the package binds no function over a submodule of the same name
    from liecoh import catalog as catalog_attr, cohomology as cohomology_attr
    assert catalog_attr is catalog_module is sys.modules["liecoh.catalog"]
    assert cohomology_attr is sys.modules["liecoh.cohomology"]
    # so a dotted path reaches the module, and the lookup calls what it patched
    monkeypatch.setattr("liecoh.catalog.abelian", lambda n: ("patched", n))
    assert catalog("abelian0003") == ("patched", 3)


@pytest.mark.parametrize("name", ["abelian\uff13", "abelian\u0663", "abelian 3", "abelian+3",
                                  "abelian", "abelian-1"])
def test_catalog_abelian_takes_ascii_digits_only(name):
    with pytest.raises(UnknownNameError, match="unknown catalog entry"):
        catalog(name)


def test_catalog_abelian_up_to_the_cap(capsys):
    assert run_command(["catalog", "abelian40"]) == 0
    assert json.loads(capsys.readouterr().out)["object"]["dim"] == 40
    for name, dim in (("abelian0", 0), ("abelian007", 7),
                      (f"abelian{MAX_ABELIAN_DIM}", MAX_ABELIAN_DIM)):
        L = catalog(name)
        assert L.dim == dim and L.is_abelian()


# ---------------------------------------------------------------------------
# invariant forms
# ---------------------------------------------------------------------------

def test_killing_form_values():
    k = killing_form(sl2())
    assert k.gram.entry(2, 2) == 8
    assert k.gram.entry(0, 1) == 4
    assert k.gram.entry(0, 0) == 0 and k.gram.entry(0, 2) == 0


def test_killing_form_abelian_zero():
    assert killing_form(abelian(3)).gram.is_zero()


def test_killing_form_heisenberg_degenerate():
    k = killing_form(heisenberg3())
    assert k.gram.is_zero()
    assert not any(k.gram.matvec((0, 0, 1)))


def test_invariant_form_validation():
    with pytest.raises(InvariantViolation):
        InvariantForm(sl2(), Matrix.identity(3))
    with pytest.raises(InvariantViolation):
        InvariantForm(sl2(), Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_polynomial_arithmetic():
    t = Polynomial.t()
    sq = t * t
    assert sq.coeffs == (0, 0, 1)
    assert (sq.derivative()).coeffs == (0, 2)
    assert sq.integral01() == Fraction(1, 3)
    assert (t + t).coeffs == (0, 2)
    assert (t - t).is_zero()
    assert character(sq) == 1 and sq.at_zero() == 0


def test_functional_of_derivative_is_boundary():
    f = Polynomial((2, 3, 5))
    assert functional(f.derivative()) == f.at_one() - f.at_zero()


class FractionPolynomial:
    """The former Fraction-tuple Polynomial, kept as the oracle."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPolynomial([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPolynomial([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return FractionPolynomial()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return FractionPolynomial(out)

    def coeff(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else ZERO

    def derivative(self):
        return FractionPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def integral01(self):
        return sum((c / (i + 1) for i, c in enumerate(self.coeffs)), ZERO)

    def at_zero(self):
        return self.coeff(0)

    def at_one(self):
        return sum(self.coeffs, ZERO)

    def __eq__(self, other):
        return isinstance(other, FractionPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)


def oracle_coefficient_lists(rng):
    """Zero, constants, t^40, and seeded polynomials with denominators up to 3."""
    fixed = [[], [0], [0, 0, 0], [5], [Fraction(-2, 3)], [0] * 40 + [1],
             [0] * 40 + [Fraction(-1, 3)], [0, 1], [1, -1], [Fraction(1, 2), 0, 0]]
    drawn = []
    for _ in range(80):
        length = rng.randint(0, 8)
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(length)]
        if coeffs and rng.random() < 0.3:
            coeffs[-1] = 0  # a trailing zero the constructor must drop
        drawn.append(coeffs)
    return fixed + drawn


def assert_matches(new, old):
    assert new.coeffs == old.coeffs
    assert all(type(c) is Fraction for c in new.coeffs)
    assert all(type(a) is int for a in new.nums) and type(new.den) is int
    assert new.den > 0 and gcd(new.den, *new.nums) == 1
    assert not new.nums or new.nums[-1] != 0
    assert new.degree == old.degree and new.is_zero() == old.is_zero()


def test_polynomial_matches_fraction_oracle(rng):
    lists = oracle_coefficient_lists(rng)
    polys = [(Polynomial(c), FractionPolynomial(c)) for c in lists]
    for new, old in polys:
        assert_matches(new, old)
        assert_matches(new.derivative(), old.derivative())
        assert new.integral01() == old.integral01()
        assert new.at_one() == old.at_one() and new.at_zero() == old.at_zero()
        for i in range(old.degree + 3):
            assert new.coeff(i) == old.coeff(i) and type(new.coeff(i)) is Fraction
    pairs = [(polys[i], polys[j]) for i in range(len(polys)) for j in range(len(polys))
             if i < 12 or j < 12 or rng.random() < 0.05]
    for (p, po), (q, qo) in pairs:
        assert_matches(p + q, po + qo)
        assert_matches(p - q, po - qo)
        assert_matches(p * q, po * qo)
        assert (p == q) == (po == qo)
        if po == qo:
            assert hash(p) == hash(q)
    assert sum(1 for (p, _), (q, _) in pairs if p == q and p is not q) >= 5


def test_polynomial_canonical_form():
    zero = Polynomial()
    assert (zero.nums, zero.den) == ((), 1) and zero.degree == -1
    assert Polynomial([0, 0]) == zero and (Polynomial.t() - Polynomial.t()) == zero
    half = Polynomial([Fraction(1, 2), Fraction(-3, 4), 0])
    assert (half.nums, half.den) == ((2, -3), 4)
    # a product or derivative whose content cancels comes back in lowest terms
    assert ((half * Polynomial([4])).nums, (half * Polynomial([4])).den) == ((2, -3), 1)
    sq = Polynomial([0, 0, Fraction(1, 2)]).derivative()
    assert (sq.nums, sq.den) == ((0, 1), 1)
    # the constructor takes whatever Fraction() takes
    mixed = Polynomial([1, "1/2", 0.25, Decimal("-1.5"), Fraction(2, 6)])
    assert mixed.coeffs == (1, Fraction(1, 2), Fraction(1, 4), Fraction(-3, 2),
                            Fraction(1, 3))
    assert hash(mixed) == hash(Polynomial(mixed.coeffs))
    assert repr(half) == "Polynomial([Fraction(1, 2), Fraction(-3, 4)])"


# ---------------------------------------------------------------------------
# the current-cocycle identity
# ---------------------------------------------------------------------------

def rand_element(rng):
    """An element of sl2 with entries drawn from -3..3, as a dict of its nonzero entries."""
    return {i: c for i in range(3) if (c := Fraction(rng.randint(-3, 3)))}


def test_identity_e_f_h_value():
    kappa = killing_form(sl2())
    t = Polynomial.t()
    lhs, rhs, equal = v2_cocycle_identity(kappa, t, t, t,
                                          {0: 1}, {1: 1}, {2: 1})
    assert equal
    assert rhs == Fraction(4) * character(t * t * t)


def test_identity_vanishes_on_character_kernel(rng):
    kappa = killing_form(sl2())
    for _ in range(20):
        a = rand_vanishing_poly(rng)
        a = a - Polynomial((0, a.at_one()))  # dies at 0 and 1
        b = rand_vanishing_poly(rng)
        c = rand_vanishing_poly(rng)
        x, y, z = (rand_element(rng) for _ in range(3))
        lhs, rhs, equal = v2_cocycle_identity(kappa, a, b, c, x, y, z)
        assert equal and rhs == 0


def test_identity_random_samples(rng):
    kappa = killing_form(sl2())
    for _ in range(100):
        a, b, c = (rand_vanishing_poly(rng) for _ in range(3))
        x, y, z = (rand_element(rng) for _ in range(3))
        _, _, equal = v2_cocycle_identity(kappa, a, b, c, x, y, z)
        assert equal


def test_identity_flags_nonvanishing_inputs():
    kappa = killing_form(sl2())
    one = Polynomial.constant(1)
    with pytest.raises(InputError):
        v2_cocycle_identity(kappa, one, one, one, {0: 1}, {1: 1}, {2: 1})
    # the boundary-adjusted convention accepts them and balances exactly
    lhs, rhs, equal = v2_cocycle_identity(kappa, one, one, one,
                                          {0: 1}, {1: 1}, {2: 1},
                                          strict=False)
    assert equal and lhs == 0


def test_identity_degree_bound():
    kappa = killing_form(sl2())
    big = Polynomial([0] * 40 + [1])
    with pytest.raises(InputError):
        v2_cocycle_identity(kappa, big, big, big, {0: 1}, {1: 1}, {2: 1})


def test_cyclic_cocycle_property(rng):
    for _ in range(50):
        a = rand_vanishing_poly(rng)
        a = a - Polynomial((0, a.at_one()))  # in the character kernel
        b = rand_vanishing_poly(rng)
        c = rand_vanishing_poly(rng)
        assert cyclic_cocycle_defect(a, b, c) == 0


# ---------------------------------------------------------------------------
# the degree-3 cocycle of an invariant form
# ---------------------------------------------------------------------------

def test_characteristic_cocycle_closed_for_every_invariant_form(rng):
    for L in (sl2(), heisenberg3(), nonabelian2(), abelian(3)):
        eta, _ = v2_characteristic_cocycle(killing_form(L))
        from liecoh.cochains import cochain_differential
        assert cochain_differential(Representation.trivial(L, 1), eta).is_zero()


def test_characteristic_cocycle_values():
    eta, cls = v2_characteristic_cocycle(killing_form(sl2()))
    assert eta.component((0, 1, 2)) == (Fraction(4),)
    assert not cls.is_zero()
    assert cls.space.h_dim == 1


def test_characteristic_cocycle_trivial_cases():
    eta, cls = v2_characteristic_cocycle(killing_form(abelian(3)))
    assert eta.is_zero() and cls.is_zero()
    eta_h, cls_h = v2_characteristic_cocycle(killing_form(heisenberg3()))
    assert eta_h.is_zero() and cls_h.is_zero()


# ---------------------------------------------------------------------------
# the identity suite behind v2-check and reproduce example-V2
# ---------------------------------------------------------------------------

def cli_stdout(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run_command(argv)
    return code, buf.getvalue()


# stdout sha256 recorded with the former Fraction-tuple Polynomial
V2_CHECK_SHA256 = "be78d264f16e8437e56dac71ca629df986e035ed6b5b7d5c65060bd59d28f66b"
REPRODUCE_V2_SHA256 = "1248f4b0acfa3f25542db24791db094709dba5274afc1a88fa9293e9eab38eeb"


@pytest.mark.parametrize("argv, want", [
    (["reproduce", "example-V2"], REPRODUCE_V2_SHA256),
    *[(["v2-check", "--seed", str(seed)], V2_CHECK_SHA256) for seed in range(4)],
])
def test_identity_suite_stdout_is_pinned(argv, want):
    code, out = cli_stdout(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == want


def test_identity_suite_counts_a_broken_derivative(monkeypatch):
    assert run_v2_samples(20, 0)["failures"] == 0

    def doubled(self):
        # d/dt off by a factor of 2: every nonconstant polynomial goes wrong
        return Polynomial._from_ints([2 * i * a for i, a in enumerate(self.nums)][1:], self.den)

    monkeypatch.setattr(currents.Polynomial, "derivative", doubled)
    report = run_v2_samples(20, 0)
    assert 0 < report["failures"] <= 40
    code, out = cli_stdout(["v2-check", "--samples", "20"])
    assert code == 2 and '"failures": 0' not in out
