"""Cohomology dimensions with trivial coefficients against closed forms.

Kostant (Ann. Math. 1961): for the strictly upper-triangular k x k
matrices n_k, dim H^p(n_k; Q) is the number of permutations of k letters
with p inversions.  Santharoubane (Proc. AMS 1983): for the Heisenberg
algebra h_{2k+1}, dim H^p = C(2k, p) - C(2k, p - 2) for p <= k, and
H^p and H^{2k+1-p} have the same dimension.
"""

from math import comb

import pytest

from liecoh.cohomology import CohomologySpace
from liecoh.config import degree_cap
from liecoh.liealg import LieAlgebra, Representation


def heisenberg(k):
    """h_{2k+1}: basis x_1..x_k, y_1..y_k, z with [x_i, y_i] = z."""
    return LieAlgebra(2 * k + 1, {(i, k + i): {2 * k: 1} for i in range(k)})


def nilpotent(k):
    """Strictly upper-triangular k x k matrices, basis E_ab (a < b), [E_ab, E_bc] = E_ac."""
    units = [(a, b) for a in range(k) for b in range(a + 1, k)]
    index = {u: i for i, u in enumerate(units)}
    table = {}
    for i, (a, b) in enumerate(units):
        for j, (c, d) in enumerate(units):
            if i < j and (b == c or d == a):
                entry = {}
                if b == c:
                    entry[index[(a, d)]] = 1
                if d == a:
                    entry[index[(c, b)]] = -1
                table[(i, j)] = entry
    return LieAlgebra(len(units), table)


def mahonian(k, p):
    """Permutations of k letters with p inversions."""
    counts = [1]
    for n in range(1, k + 1):
        # the n-th letter adds 0..n-1 inversions
        counts = [sum(counts[q - t] for t in range(n) if 0 <= q - t < len(counts))
                  for q in range(len(counts) + n - 1)]
    return counts[p] if p < len(counts) else 0


def heisenberg_betti(k, p):
    if p > k:
        p = 2 * k + 1 - p
    return comb(2 * k, p) - (comb(2 * k, p - 2) if p >= 2 else 0)


def h_dim(L, p):
    return CohomologySpace(Representation.trivial(L, 1), p).h_dim


def test_mahonian_numbers():
    assert [mahonian(4, p) for p in range(8)] == [1, 3, 5, 6, 5, 3, 1, 0]
    assert (mahonian(6, 3), mahonian(6, 4)) == (29, 49)


@pytest.mark.parametrize("k", [4, 5])
def test_kostant_upper_triangular_every_degree(k):
    # H^p needs d_p, so p + 1 stays within the degree cap
    L = nilpotent(k)
    for p in range(min(L.dim, degree_cap() - 1) + 1):
        assert h_dim(L, p) == mahonian(k, p), p


@pytest.mark.parametrize("p, expected", [(3, 29), (4, 49)])
def test_kostant_n6(p, expected):
    assert h_dim(nilpotent(6), p) == expected == mahonian(6, p)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_santharoubane_heisenberg(k):
    L = heisenberg(k)
    for p in range(min(L.dim, degree_cap() - 1) + 1):
        assert h_dim(L, p) == heisenberg_betti(k, p), p
