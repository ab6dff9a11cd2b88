"""Polynomial current algebras and the degree-3 class of an invariant form.

The scalars live on A = t k[t] (polynomials vanishing at 0), with the
evaluation character chi(f) = f(1), the derivation D = d/dt and the
functional I(f) = integral of f over [0, 1].  On that ideal I compose
with D to give chi, which is exactly what the cyclic-cocycle identity
needs; evaluating the two-slot current cocycle's differential collapses
to (1/2) kappa(x'', [x, x']) chi(a a' a'').  For general polynomials the
boundary term at 0 survives and the identity picks up -(a a' a'')(0);
both conventions are exposed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Sequence

from .catalog import InvariantForm, catalog, killing_form
from .cochains import Cochain, cochain_differential
from .cohomology import cohomology
from .errors import DimensionMismatchError, InputError
from .io import scalar_to_str
from .liealg import Representation
from .linalg import ZERO, _add_scaled

DEFAULT_MAX_DEGREE = 32


class Polynomial:
    """A rational polynomial in one variable, exact arithmetic.

    Coefficient i is nums[i] / den: integer numerators over one positive
    denominator, in lowest terms (no trailing zero numerator and
    gcd(den, *nums) == 1; zero is ((), 1)).  The form is canonical, so
    equality and hashing read (nums, den), and the arithmetic is integer
    arithmetic with one gcd per result; Fractions appear only where a
    coefficient or a value is read out.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence = ()):
        fracs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        den = lcm(*(f.denominator for f in fracs))
        self._set([f.numerator * (den // f.denominator) for f in fracs], den)

    def _set(self, nums: list, den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        g = gcd(den, *nums)
        if g != 1:
            nums = [a // g for a in nums]
            den //= g
        self.nums = tuple(nums)
        self.den = den

    @classmethod
    def _from_ints(cls, nums: list, den: int) -> "Polynomial":
        """The polynomial sum(nums[i] t^i) / den, for den > 0."""
        p = cls.__new__(cls)
        p._set(nums, den)
        return p

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def t(cls) -> "Polynomial":
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(a, self.den) for a in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def _common_numerators(self, other: "Polynomial"):
        """Both numerator tuples over the lcm of the two denominators."""
        d1, d2 = self.den, other.den
        if d1 == d2:
            return self.nums, other.nums, d1
        den = lcm(d1, d2)
        s1, s2 = den // d1, den // d2
        return [a * s1 for a in self.nums], [b * s2 for b in other.nums], den

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b, den = self._common_numerators(other)
        return Polynomial._from_ints([x + y for x, y in zip_longest(a, b, fillvalue=0)], den)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        a, b, den = self._common_numerators(other)
        return Polynomial._from_ints([x - y for x, y in zip_longest(a, b, fillvalue=0)], den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.nums, other.nums
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Polynomial._from_ints(out, self.den * other.den)

    def coeff(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den) if i < len(self.nums) else ZERO

    def derivative(self) -> "Polynomial":
        return Polynomial._from_ints([i * a for i, a in enumerate(self.nums)][1:], self.den)

    def integral01(self) -> Fraction:
        """sum nums[i] / (i + 1) over den, as one Fraction over m * den, m = lcm(1..len)."""
        m = lcm(*range(1, len(self.nums) + 1))
        return Fraction(sum(a * (m // i) for i, a in enumerate(self.nums, 1)), m * self.den)

    def at_zero(self) -> Fraction:
        return self.coeff(0)

    def at_one(self) -> Fraction:
        return Fraction(sum(self.nums), self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.nums == other.nums
                and self.den == other.den)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"


def character(f: Polynomial) -> Fraction:
    """chi(f) = f(1)."""
    return f.at_one()


def functional(f: Polynomial) -> Fraction:
    """I(f) = integral of f over [0, 1]."""
    return f.integral01()


def _check_degree(f: Polynomial, max_degree: int, name: str) -> None:
    if f.degree > max_degree:
        raise InputError(f"{name} exceeds the degree bound {max_degree}")


def _check_vanishing(f: Polynomial, name: str) -> None:
    if f.at_zero() != 0:
        raise InputError(
            f"{name} has a nonzero constant term; the strict convention "
            "works on polynomials vanishing at 0 (pass strict=False to use "
            "the boundary-adjusted identity)")


def two_slot_cocycle(kappa: InvariantForm, a: Polynomial, x,
                     b: Polynomial, y) -> Fraction:
    """(1/2) I(a D(b) - b D(a)) kappa(x, y) on pure tensors."""
    scalar = functional(a * b.derivative() - b * a.derivative()) / 2
    return scalar * kappa.value(x, y)


def v2_cocycle_identity(kappa: InvariantForm, a: Polynomial, a1: Polynomial,
                        a2: Polynomial, x, x1, x2, strict: bool = True,
                        max_degree: int = DEFAULT_MAX_DEGREE):
    """Both sides of the current-cocycle identity and their equality.

    The left side expands the cyclic differential of the two-slot cocycle
    on pure tensors; the right side is the closed form
    (1/2) kappa(x2, [x, x1]) chi(a a1 a2).  Under the strict convention all
    polynomial inputs must vanish at 0; otherwise the right side carries
    the boundary correction -(a a1 a2)(0).
    """
    for f, name in ((a, "a"), (a1, "a1"), (a2, "a2")):
        _check_degree(f, max_degree, name)
        if strict:
            _check_vanishing(f, name)
    L = kappa.algebra
    lhs = ZERO
    # cyclic sum of the two-slot cocycle against the bracket of the others
    for (pa, px), (pb, py), (pc, pz) in (((a, x), (a1, x1), (a2, x2)),
                                         ((a1, x1), (a2, x2), (a, x)),
                                         ((a2, x2), (a, x), (a1, x1))):
        lhs += two_slot_cocycle(kappa, pc, pz, pa * pb, L.bracket(px, py))
    product = a * a1 * a2
    rhs = kappa.value(x2, L.bracket(x, x1)) * character(product) / 2
    if not strict:
        rhs -= kappa.value(x2, L.bracket(x, x1)) * product.at_zero() / 2
    return lhs, rhs, lhs == rhs


def cyclic_cocycle_defect(a: Polynomial, b: Polynomial, c: Polynomial) -> Fraction:
    """I(a D(bc)) + I(b D(ac)) + I(c D(ab)) - I(D(abc)).

    The cyclic sum is 2 D(abc) as a polynomial, so the defect equals
    I(D(abc)) = (abc)(1) - (abc)(0) and vanishes exactly when the triple
    product dies at both endpoints, as it does on the ideal the current
    construction lives on.
    """
    total = functional(a * (b * c).derivative())
    total += functional(b * (a * c).derivative())
    total += functional(c * (a * b).derivative())
    return total - functional((a * b * c).derivative())


def characteristic_cocycle(kappa: InvariantForm) -> Cochain:
    """eta(x, y, z) = (1/2) kappa([x, y], z) as a scalar 3-cochain, scattered from each
    stored bracket [e_i, e_j] and the symmetric gram matrix's rows at k > j."""
    L = kappa.algebra
    gram = kappa.gram.sparse_rows()
    table = {}
    for (i, j), pairs in L.structure_table().items():
        values = {}
        for a, c in pairs:
            _add_scaled(values, c, ((k, x) for k, x in gram[a].items() if k > j))
        table.update(((i, j, k), {0: x / 2}) for k, x in values.items())
    return Cochain.from_columns(L, 3, 1, table)


def v2_characteristic_cocycle(kappa: InvariantForm):
    """The degree-3 cocycle of an invariant form and its class.

    Returns (eta, class); eta is verified closed for the trivial module.
    """
    L = kappa.algebra
    eta = characteristic_cocycle(kappa)
    rep = Representation.trivial(L, 1)
    if not cochain_differential(rep, eta).is_zero():
        raise DimensionMismatchError("the invariant-form cocycle failed to close")
    space = cohomology(rep, 3)
    return eta, space.class_of(eta)


def _random_vanishing_polynomial(rng: random.Random, max_degree: int = 5) -> Polynomial:
    coeffs = [0] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(rng.randint(1, max_degree))]
    return Polynomial(coeffs)


def run_v2_samples(samples: int, seed: int):
    """Randomized current-identity suite on sl2 with the trace form."""
    if samples < 0:
        raise InputError(f"the sample count must be nonnegative, got {samples}")
    rng = random.Random(seed)
    L = catalog("sl2")
    kappa = killing_form(L)
    failures = 0
    for _ in range(samples):
        a = _random_vanishing_polynomial(rng)
        a1 = _random_vanishing_polynomial(rng)
        a2 = _random_vanishing_polynomial(rng)
        x, x1, x2 = ({i: c for i in range(3) if (c := Fraction(rng.randint(-3, 3)))}
                     for _ in range(3))
        _, _, equal = v2_cocycle_identity(kappa, a, a1, a2, x, x1, x2)
        if not equal:
            failures += 1
        b = _random_vanishing_polynomial(rng)
        c = _random_vanishing_polynomial(rng)
        a_ker = a - Polynomial((0, a.at_one()))  # now vanishes at 0 and 1
        if cyclic_cocycle_defect(a_ker, b, c) != 0:
            failures += 1
    eta, cls = v2_characteristic_cocycle(kappa)
    return {
        "identity_samples": samples,
        "failures": failures,
        "eta_e_f_h": scalar_to_str(eta.component((0, 1, 2))[0]),  # the value the report shows
        "eta_class_nonzero": not cls.is_zero(),
        "h3_dim": cls.space.h_dim,
    }


def v2_passed(report: dict) -> bool:
    """No failed identity, eta(e, f, h) = 4, a nonzero class and dim H^3(sl2) = 1."""
    return (report["failures"] == 0 and report["eta_e_f_h"] == "4"
            and report["eta_class_nonzero"] and report["h3_dim"] == 1)
