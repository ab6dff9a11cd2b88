"""Built-in algebras, invariant forms, and assembled extension data.

The names here feed the CLI and the test fixtures: small nilpotent,
abelian, simple and solvable algebras plus the factor systems used by
the reproduction bundles.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cochains import Cochain, OuterActionMap
from .errors import InvariantViolation, UnknownNameError
from .extensions import FactorSystem
from .liealg import LieAlgebra
from .linalg import Matrix, ZERO


def heisenberg3() -> LieAlgebra:
    """Basis p, q, z with [p, q] = z."""
    return LieAlgebra(3, {(0, 1): {2: 1}}, labels=("p", "q", "z"))


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n)


def sl2() -> LieAlgebra:
    """Basis e, f, h with [e, f] = h, [h, e] = 2e, [h, f] = -2f."""
    return LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}},
                      labels=("e", "f", "h"))


def nonabelian2() -> LieAlgebra:
    """The unique nonabelian 2-dimensional algebra, [x, y] = x."""
    return LieAlgebra(2, {(0, 1): {0: 1}}, labels=("x", "y"))


def filiform4() -> LieAlgebra:
    """Basis p, q, z, c with [p, q] = z and [p, z] = c."""
    return LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}},
                      labels=("p", "q", "z", "c"))


def ext_heisenberg3() -> FactorSystem:
    """The 3-dimensional nilpotent algebra as a one-dimensional central
    extension of the abelian plane by the standard area form."""
    n = abelian(1)
    g = abelian(2)
    S = OuterActionMap.zero(g, n)
    omega = Cochain(g, 2, 1, {(0, 1): (1,)})
    return FactorSystem(n, g, S, omega)


def ext_filiform4() -> FactorSystem:
    """The 4-dimensional filiform algebra as a central extension of the
    3-dimensional nilpotent algebra by the cocycle pairing p with z."""
    n = abelian(1)
    g = heisenberg3()
    S = OuterActionMap.zero(g, n)
    omega = Cochain(g, 2, 1, {(0, 2): (1,)})
    return FactorSystem(n, g, S, omega)


def ext_heisenberg_kernel() -> FactorSystem:
    """A central-by-nilpotent system: kernel the 3-dimensional nilpotent
    algebra, quotient the plane, zero action, center-valued cocycle."""
    n = heisenberg3()
    g = abelian(2)
    S = OuterActionMap.zero(g, n)
    omega = Cochain(g, 2, 3, {(0, 1): (0, 0, 1)})
    return FactorSystem(n, g, S, omega)


def ext_sl2_kernel() -> FactorSystem:
    """A center-free kernel: sl2 under the zero action of a line."""
    n = sl2()
    g = abelian(1)
    S = OuterActionMap.zero(g, n)
    omega = Cochain(g, 2, 3)
    return FactorSystem(n, g, S, omega)


_ALGEBRAS = {
    "heisenberg3": heisenberg3,
    "sl2": sl2,
    "nonabelian2": nonabelian2,
    "filiform4": filiform4,
}

_EXTENSIONS = {
    "ext-heisenberg3": ext_heisenberg3,
    "ext-filiform4": ext_filiform4,
    "ext-heisenberg-kernel": ext_heisenberg_kernel,
    "ext-sl2-kernel": ext_sl2_kernel,
}


# LieAlgebra(n) builds n-entry tables before any size check, so abelian<n> caps n
MAX_ABELIAN_DIM = 1000


def catalog_names() -> tuple:
    return (tuple(sorted(_ALGEBRAS)) + ("abelian<n>",)
            + tuple(sorted(_EXTENSIONS)))


def catalog(name: str):
    """A named algebra or factor system; raises UnknownNameError."""
    if name in _ALGEBRAS:
        return _ALGEBRAS[name]()
    if name in _EXTENSIONS:
        return _EXTENSIONS[name]()
    m = re.fullmatch(r"abelian0*([0-9]+)", name)
    if m:
        digits = m.group(1)
        if len(digits) > len(str(MAX_ABELIAN_DIM)) or int(digits) > MAX_ABELIAN_DIM:
            raise UnknownNameError(f"catalog entry {name!r}: abelian<n> takes n at most "
                                   f"{MAX_ABELIAN_DIM}")
        return abelian(int(digits))
    raise UnknownNameError(f"unknown catalog entry {name!r}; "
                           f"known: {', '.join(catalog_names())}")


class InvariantForm:
    """A symmetric bilinear form with the adjoint invariance identity."""

    __slots__ = ("algebra", "gram")

    def __init__(self, algebra: LieAlgebra, gram: Matrix):
        if gram.rows != algebra.dim or gram.cols != algebra.dim:
            raise InvariantViolation("gram matrix shape disagrees with the algebra")
        if gram != gram.transpose():
            raise InvariantViolation("the form is not symmetric")
        # kappa([e_i, e_j], e_k) + kappa(e_j, [e_i, e_k]) is entry (j, k) of this
        for i in range(algebra.dim):
            ad = algebra.ad_matrix(i)
            defect = (ad.transpose() @ gram + gram @ ad).sparse_rows()
            if any(defect):
                j, k = min((j, k) for j, row in enumerate(defect) for k in row)
                raise InvariantViolation(f"the form is not invariant at triple ({i},{j},{k})")
        self.algebra = algebra
        self.gram = gram

    def value(self, u: dict, v: dict) -> Fraction:
        """u^T gram v for vectors given as dicts {index: nonzero value}, over the
        sparse rows of gram."""
        rows = self.gram.sparse_rows()
        return sum((a * x * v.get(j, ZERO) for i, a in u.items() for j, x in rows[i].items()),
                   ZERO)


def killing_form(L: LieAlgebra) -> InvariantForm:
    """kappa(x, y) = trace(ad x . ad y)."""
    ads = [L.ad_matrix(i) for i in range(L.dim)]
    gram = Matrix([[(ads[i] @ ads[j]).trace() for j in range(L.dim)]
                   for i in range(L.dim)], cols=L.dim)
    return InvariantForm(L, gram)
