"""Built-in algebras, invariant forms, and assembled extension data.

The names here feed the CLI and the test fixtures: small nilpotent,
abelian, simple and solvable algebras plus the factor systems used by
the reproduction bundles.  The algebras themselves, with the list of
catalog names and the invariant forms, live in ``liealg`` so that reading
an algebra or checking a current identity loads no extension code;
``catalog`` is the one lookup of every name.
"""

from __future__ import annotations

from .cochains import Cochain
from .extensions import FactorSystem
# MAX_ABELIAN_DIM, catalog_names, filiform4, nonabelian2, InvariantForm and
# killing_form are read from here too
from .liealg import (MAX_ABELIAN_DIM, NAMED_ALGEBRAS, InvariantForm, abelian, abelian_dim,
                     catalog_names, filiform4, heisenberg3, killing_form, nonabelian2, sl2)
from .linalg import Matrix


def _zero_action(n, g) -> list:
    """The matrices of the zero action of g on n: the factor system builds its
    one action map from them."""
    return [Matrix.zero(n.dim, n.dim)] * g.dim


def ext_heisenberg3() -> FactorSystem:
    """The 3-dimensional nilpotent algebra as a one-dimensional central
    extension of the abelian plane by the standard area form."""
    n = abelian(1)
    g = abelian(2)
    S = _zero_action(n, g)
    omega = Cochain(g, 2, 1, {(0, 1): (1,)})
    return FactorSystem(n, g, S, omega)


def ext_filiform4() -> FactorSystem:
    """The 4-dimensional filiform algebra as a central extension of the
    3-dimensional nilpotent algebra by the cocycle pairing p with z."""
    n = abelian(1)
    g = heisenberg3()
    S = _zero_action(n, g)
    omega = Cochain(g, 2, 1, {(0, 2): (1,)})
    return FactorSystem(n, g, S, omega)


def ext_heisenberg_kernel() -> FactorSystem:
    """A central-by-nilpotent system: kernel the 3-dimensional nilpotent
    algebra, quotient the plane, zero action, center-valued cocycle."""
    n = heisenberg3()
    g = abelian(2)
    S = _zero_action(n, g)
    omega = Cochain(g, 2, 3, {(0, 1): (0, 0, 1)})
    return FactorSystem(n, g, S, omega)


def ext_sl2_kernel() -> FactorSystem:
    """A center-free kernel: sl2 under the zero action of a line."""
    n = sl2()
    g = abelian(1)
    S = _zero_action(n, g)
    omega = Cochain(g, 2, 3)
    return FactorSystem(n, g, S, omega)


_EXTENSIONS = {
    "ext-heisenberg3": ext_heisenberg3,
    "ext-filiform4": ext_filiform4,
    "ext-heisenberg-kernel": ext_heisenberg_kernel,
    "ext-sl2-kernel": ext_sl2_kernel,
}


def catalog(name: str):
    """A named algebra or factor system; raises UnknownNameError."""
    if name in _EXTENSIONS:
        return _EXTENSIONS[name]()
    if name in NAMED_ALGEBRAS:
        return NAMED_ALGEBRAS[name]()
    return abelian(abelian_dim(name))
