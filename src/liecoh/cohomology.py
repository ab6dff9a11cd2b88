"""Cocycles, coboundaries and cohomology as exact rank computations.

Cochain spaces are coordinatized in lexicographic key order, so every
kernel and image inherits the canonical echelon basis of the linear
algebra core and class representatives are reproducible.  Relative
spaces (cocycles with prescribed curvature, cocycles with a prescribed
restriction) are solved as affine-linear systems, and each answers with
one of two values: an AffineCochainSpace (a particular cochain and the
homogeneous solution space) or, when the system is empty, the
InconsistencyCertificate naming its 0 = 1 row.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

# operator_matrix is not called here; the perfbench tracer times it as
# cohomology.operator_matrix
from .cochains import (Cochain, OuterActionMap, cochain_space_dim, curvature,
                       differential_operator, key_rank, operator_matrix)
from .errors import DimensionMismatchError, SpaceMismatchError
from .liealg import LieAlgebra, Representation, ad_stack
from .linalg import Matrix, Subspace, image, kernel, solve_affine, solve_certified


def differential_matrix(rep: Representation, p: int) -> Matrix:
    """Matrix of the degree-p differential in lexicographic coordinates, kept on rep."""
    return differential_operator(rep, p)


class CohomologySpace:
    """Cocycles, coboundaries and canonical class representatives.

    class_basis is the echelon basis of cocycles reduced modulo
    coboundaries: its pairs are the representatives' coordinates.
    """

    __slots__ = ("rep", "degree", "cocycles", "coboundaries", "h_dim", "class_basis")

    def __init__(self, rep: Representation, degree: int):
        self.rep = rep
        self.degree = degree
        self.cocycles = kernel(differential_matrix(rep, degree))
        if degree == 0:
            dim = cochain_space_dim(rep.algebra.dim, 0, rep.space_dim)
            self.coboundaries = Subspace.zero(dim)
        else:
            self.coboundaries = image(differential_matrix(rep, degree - 1))
        if not self.cocycles.contains_subspace(self.coboundaries):
            raise SpaceMismatchError("coboundaries escape the cocycle space")
        self.h_dim = self.cocycles.dim - self.coboundaries.dim
        reduced = (self.coboundaries.reduce_entries(v) for v in self.cocycles.pairs)
        self.class_basis = Subspace.row_space(Matrix.from_sparse_rows(
            [v for v in reduced if v], self.cocycles.ambient_dim))

    @property
    def dim_cocycles(self) -> int:
        return self.cocycles.dim

    @property
    def dim_coboundaries(self) -> int:
        return self.coboundaries.dim

    def representative_cochains(self) -> tuple:
        """Canonical cocycles spanning the cohomology, one per class."""
        return tuple(Cochain.from_pairs(self.rep.algebra, self.degree, self.rep.space_dim, v)
                     for v in self.class_basis.pairs)

    def normalize(self, c: Cochain) -> tuple:
        """Canonical coordinates of the class of c, c reduced modulo coboundaries,
        as its nonzero (index, value) pairs in index order."""
        if self.cocycles.reduce_entries(c.pairs):
            raise SpaceMismatchError("the cochain is not a cocycle of this space")
        return tuple(sorted(self.coboundaries.reduce_entries(c.pairs).items()))

    def class_of(self, c: Cochain) -> "CohomologyClass":
        return CohomologyClass(self, c)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CohomologySpace) and self.rep == other.rep
                and self.degree == other.degree)

    def __hash__(self):
        return hash((self.rep, self.degree))

    def __repr__(self):
        return (f"CohomologySpace(degree={self.degree}, z={self.dim_cocycles}, "
                f"b={self.dim_coboundaries}, h={self.h_dim})")


class CohomologyClass:
    """A cocycle together with the space it represents a class in."""

    __slots__ = ("space", "representative", "normalized")

    def __init__(self, space: CohomologySpace, representative: Cochain):
        if (representative.degree != space.degree
                or representative.value_dim != space.rep.space_dim
                or representative.algebra != space.rep.algebra):
            raise SpaceMismatchError("representative does not fit the space")
        self.space = space
        self.representative = representative
        self.normalized = space.normalize(representative)

    def is_zero(self) -> bool:
        return not self.normalized

    def __eq__(self, other) -> bool:
        return (isinstance(other, CohomologyClass) and self.space == other.space
                and self.normalized == other.normalized)

    def __hash__(self):
        return hash((self.space, self.normalized))

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        if self.space != other.space:
            raise SpaceMismatchError("classes live in different spaces")
        return CohomologyClass(self.space, self.representative + other.representative)

    def __repr__(self):
        return f"CohomologyClass(zero={self.is_zero()})"


def cohomology(rep: Representation, p: int) -> CohomologySpace:
    if p < 0:
        raise DimensionMismatchError("cohomology degree must be nonnegative")
    return CohomologySpace(rep, p)


def primitive(rep: Representation, c: Cochain):
    """Solve d b = c for a cochain b one degree below c: (b, certificate).

    b is the pivot-convention solution of the differential's system, so
    it is canonical; when c is not a coboundary, b is None and the
    certificate is the reduced row of that system reading 0 = 1.
    """
    if c.degree < 1 or c.algebra != rep.algebra or c.value_dim != rep.space_dim:
        raise SpaceMismatchError("the cochain is not a positive-degree cochain of the module")
    coords, certificate = solve_certified(differential_matrix(rep, c.degree - 1), dict(c.pairs))
    if coords is None:
        return None, certificate
    return Cochain.from_pairs(rep.algebra, c.degree - 1, rep.space_dim,
                              sorted(coords.items())), None


def classes_equal(a: CohomologyClass, b: CohomologyClass) -> bool:
    if a.space != b.space:
        raise SpaceMismatchError("classes live in different spaces")
    return a.normalized == b.normalized


class AffineCochainSpace(NamedTuple):
    """Nonempty solution set: particular cochain plus homogeneous solution space."""

    particular: Cochain
    homogeneous: Subspace

    @property
    def dim(self) -> int:
        return self.homogeneous.dim

    def element(self, coords: Sequence) -> Cochain:
        """The particular cochain plus coords[r] times homogeneous basis vector r."""
        p = self.particular
        out = p
        for c, pairs in zip(coords, self.homogeneous.pairs):
            if c != 0:
                out = out + Cochain.from_pairs(p.algebra, p.degree, p.value_dim, pairs).scale(c)
        return out

    def contains(self, c: Cochain) -> bool:
        return not self.homogeneous.reduce_entries(
            (c - self.particular).sparse_coordinates())


def _affine_cochains(system: Matrix, rhs: dict, algebra: LieAlgebra, value_dim: int):
    """The solutions of system x = rhs, x the coordinates of a 2-cochain: an
    AffineCochainSpace, or the InconsistencyCertificate when there are none."""
    particular, hom, certificate = solve_affine(system, rhs)
    if certificate is not None:
        return certificate
    return AffineCochainSpace(
        Cochain.from_pairs(algebra, 2, value_dim, sorted(particular.items())), hom)


def relative_cocycles(S: OuterActionMap, n_alg: LieAlgebra):
    """Solutions omega of ad(omega) = curvature(S), d_S omega = 0.

    The unknown is a 2-cochain valued in n; the system couples the inner
    lift of the curvature with closedness under the covariant
    differential.  Returns an AffineCochainSpace or an InconsistencyCertificate.
    """
    if S.target is not None and S.target != n_alg:
        raise DimensionMismatchError("S does not act on the given algebra")
    if S.space_dim != n_alg.dim:
        raise DimensionMismatchError("S endomorphisms have the wrong size")
    g = S.algebra
    nd = n_alg.dim
    c2_dim = cochain_space_dim(g.dim, 2, nd)
    R = curvature(S)

    # ad-lift block: for each increasing pair key, ad(omega(key)) = R(key).
    # Rows that are zero on the left stay: their right-hand side may not be.
    # Row r * nd^2 + f reads entry f of ad(omega(key r)), so its right-hand
    # side is R's coordinate r * nd^2 + f.
    stack = ad_stack(n_alg).sparse_rows()
    rows = [{r * nd + k: c for k, c in stack[f].items()}
            for r in range(cochain_space_dim(g.dim, 2, 1)) for f in range(nd * nd)]
    d_block = differential_operator(S, 2)
    system = Matrix.from_sparse_rows(rows, c2_dim).vstack(d_block)
    return _affine_cochains(system, dict(R.pairs), g, nd)


def theta_constrained_cocycles(gS: LieAlgebra, ideal: Subspace,
                               z_rep: Representation, theta: dict):
    """2-cocycles on gS restricting to theta against the ideal.

    ``theta`` maps (basis index of gS, basis index of the ideal) to a
    value-space vector, a dict {slot: nonzero value}.  Solutions are
    returned as a particular cocycle plus the homogeneous space of
    cocycles vanishing against the ideal, or as the InconsistencyCertificate
    of the system when there are none.
    """
    if z_rep.algebra != gS:
        raise DimensionMismatchError("the coefficient module must be a gS-module")
    if ideal.ambient_dim != gS.dim:
        raise DimensionMismatchError("ideal lives in a different space")
    zd = z_rep.space_dim
    c2_dim = cochain_space_dim(gS.dim, 2, zd)

    # f(e_i, b) = theta(i, b) for every ideal basis vector b, below the rows
    # of d_2; rows that are zero on the left stay, since their right-hand
    # side may not be.
    d_mat = differential_matrix(z_rep, 2)
    rows = []
    rhs = {}
    for i in range(gS.dim):
        for a, b in enumerate(ideal.pairs):
            rhs.update((d_mat.rows + len(rows) + comp, x)
                       for comp, x in theta.get((i, a), {}).items())
            rows.extend({key_rank(sorted((i, j)), gS.dim) * zd + comp: c if i < j else -c
                         for j, c in b if j != i} for comp in range(zd))
    system = d_mat.vstack(Matrix.from_sparse_rows(rows, c2_dim))
    return _affine_cochains(system, rhs, gS, zd)
