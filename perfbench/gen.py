"""Seeded input files for the liecoh benchmark.

Every input is built with liecoh's public constructors, moved to a seeded
monomial basis (a permutation times a nonzero rational diagonal) and written
through ``liecoh.io``.  A monomial change of basis keeps the number of
nonzero structure constants, the grading and every cohomology dimension, so
the seed changes the arithmetic the program does but never the answers'
invariants.

    python3 perfbench/gen.py --workload cohomology-ladder --seed 3 --out DIR

writes the input files into DIR together with ``manifest.json``, which
lists each file with the kind ``liecoh validate`` checks it as.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from liecoh import io as lio
from liecoh.catalog import catalog
from liecoh.cochains import Cochain
from liecoh.crossed import CrossedModule
from liecoh.extensions import FactorSystem, GKernel, build_quotient_stage
from liecoh.liealg import LieAlgebra, adjoint_rep, change_of_basis
from liecoh.linalg import Matrix, invert
from workloads import (CATALOG_ALGEBRAS, CATALOG_SYSTEMS, LADDER_ADJOINT,
                       LADDER_ALGEBRAS, PIPELINE_KINDS, PIPELINE_SCALES)

# Diagonal entries of the basis change.  Every seed uses this whole multiset
# (shuffled), so seeds differ in where the denominators land, not in how many
# there are; that keeps the cost of a run close across seeds.
SCALES = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3, Fraction(-1, 3))



def heisenberg(k: int) -> LieAlgebra:
    """h_{2k+1}: basis x_1..x_k, y_1..y_k, z with [x_i, y_i] = z."""
    return LieAlgebra(2 * k + 1, {(i, k + i): {2 * k: 1} for i in range(k)})


def nilpotent(k: int) -> LieAlgebra:
    """Strictly upper-triangular k x k matrices, basis E_ab (a < b)."""
    units = [(a, b) for a in range(k) for b in range(a + 1, k)]
    index = {u: i for i, u in enumerate(units)}
    table = {}
    for i, (a, b) in enumerate(units):
        for j in range(i + 1, len(units)):
            c, d = units[j]
            entry = {}
            if b == c:
                entry[index[(a, d)]] = 1
            if d == a:
                entry[index[(c, b)]] = -1
            if entry:
                table[(i, j)] = entry
    return LieAlgebra(len(units), table)


def filiform(n: int) -> LieAlgebra:
    """The model filiform algebra: [e_1, e_i] = e_{i+1}."""
    return LieAlgebra(n, {(0, i): {i + 1: 1} for i in range(1, n - 1)})


def named_algebra(name: str) -> LieAlgebra:
    for prefix, build in (("heisenberg", lambda d: heisenberg((d - 1) // 2)),
                          ("nilpotent", nilpotent), ("filiform", filiform)):
        if name.startswith(prefix):
            return build(int(name[len(prefix):]))
    return catalog(name)


def monomial(rng: random.Random, n: int) -> Matrix:
    """Column j is s_j e_{perm(j)} for a seeded permutation and scales."""
    perm = list(range(n))
    rng.shuffle(perm)
    scales = [Fraction(SCALES[i % len(SCALES)]) for i in range(n)]
    rng.shuffle(scales)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        rows[perm[j]][j] = scales[j]
    return Matrix(rows, cols=n)


def change_factor_system(fs: FactorSystem, pn: Matrix, pg: Matrix) -> FactorSystem:
    """The same extension in the bases given by the columns of pn and pg."""
    pn_inv = invert(pn)
    n_alg = change_of_basis(fs.n, pn)
    g_alg = change_of_basis(fs.g, pg)
    mats = []
    for b in range(fs.g.dim):
        s_b = Matrix.zero(fs.n.dim, fs.n.dim)
        for a in range(fs.g.dim):
            if pg.entry(a, b) != 0:
                s_b = s_b + fs.S.matrices[a].scale(pg.entry(a, b))
        mats.append(pn_inv @ s_b @ pn)
    coeffs = {}
    for b in range(fs.g.dim):
        for c in range(b + 1, fs.g.dim):
            value = fs.omega.evaluate([pg.column(b), pg.column(c)])
            coeffs[(b, c)] = pn_inv.matvec(value)
    omega = Cochain(g_alg, 2, fs.n.dim, coeffs)
    return FactorSystem(n_alg, g_alg, mats, omega)


def pipeline_system(kind: str, k: int) -> FactorSystem:
    """The three scaled factor-system kinds, at Heisenberg scale h_{2k+1}."""
    h = heisenberg(k)
    z = 2 * k
    if kind == "center":
        # Heisenberg kernel over the plane, zero action, omega(f1, f2) = z.
        g = LieAlgebra(2)
        zero = Matrix.zero(h.dim, h.dim)
        return FactorSystem(h, g, [zero, zero],
                            Cochain(g, 2, h.dim, {(0, 1): [int(i == z) for i in range(h.dim)]}))
    if kind == "grading":
        # Heisenberg kernel with the grading derivation (x, y of weight 1,
        # z of weight 2) acting through a line.
        grading = Matrix([[Fraction(2 if i == j == z else int(i == j))
                           for j in range(h.dim)] for i in range(h.dim)], cols=h.dim)
        g = LieAlgebra(1)
        return FactorSystem(h, g, [grading], Cochain(g, 2, h.dim))
    if kind == "central":
        # Central extension of h_{2k+1} by a line along x_1 ^ x_2.
        n = LieAlgebra(1)
        return FactorSystem(n, h, [Matrix.zero(1, 1)] * h.dim,
                            Cochain(h, 2, 1, {(0, 1): [1]}))
    raise ValueError(f"unknown factor-system kind {kind!r}")


def stage_crossed_module(fs: FactorSystem) -> CrossedModule:
    stage = build_quotient_stage(GKernel.from_factor_system(fs))
    return CrossedModule(fs.n, stage.gs, stage.alpha_matrix, stage.rho)


def _write(out: str, name: str, payload, manifest: list = None, kind: str = None) -> None:
    """Write one input; a file with a kind goes into the manifest, so that
    the set-up validates it."""
    with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
        fh.write(lio.emit(payload))
    if kind is not None:
        manifest.append({"file": name, "kind": kind})


def _write_system(out, stem, fs, rng, manifest, crossed=True) -> FactorSystem:
    fs = change_factor_system(fs, monomial(rng, fs.n.dim), monomial(rng, fs.g.dim))
    _write(out, f"{stem}.json", lio.factor_system_to_json(fs), manifest, "ext")
    if crossed:
        _write(out, f"{stem}-cm.json", lio.crossed_module_to_json(stage_crossed_module(fs)),
               manifest, "cm")
    return fs


def write_pairs(out: str, stem: str, fs: FactorSystem) -> None:
    """Pair files for ``automorphism`` and ``lift`` on fs: the identity
    automorphism pair, and the zero action of a line.  Both lift in every
    basis, so the commands exit 0 for every seed."""
    _write(out, f"{stem}-aut.json",
           {"alpha": lio.matrix_to_json(Matrix.identity(fs.n.dim)),
            "beta": lio.matrix_to_json(Matrix.identity(fs.g.dim))})
    _write(out, f"{stem}-lift.json",
           {"h": lio.algebra_to_json(LieAlgebra(1)),
            "psi_n": [lio.matrix_to_json(Matrix.zero(fs.n.dim, fs.n.dim))],
            "psi_g": [lio.matrix_to_json(Matrix.zero(fs.g.dim, fs.g.dim))],
            "theta": [lio.cochain_to_json(Cochain(fs.g, 1, fs.n.dim))]})


def invalid_system_json(fs: FactorSystem) -> dict:
    """fs with omega moved off the center of n, so that the curvature
    condition R_S = ad(omega) fails: liecoh must answer with exit code 2."""
    i = next(i for i in range(fs.n.dim) if not fs.n.ad_matrix(i).is_zero())
    omega = Cochain(fs.g, 2, fs.n.dim, {(0, 1): [int(j == i) for j in range(fs.n.dim)]})
    return {"n": lio.algebra_to_json(fs.n), "g": lio.algebra_to_json(fs.g),
            "S": [lio.matrix_to_json(m) for m in fs.S.matrices],
            "omega": lio.cochain_to_json(omega)}


def generate(workload: str, seed: int, out: str) -> list:
    """Write the workload's inputs for ``seed`` into ``out``; returns the manifest."""
    rng = random.Random(f"liecoh-bench/{workload}/{seed}")
    os.makedirs(out, exist_ok=True)
    manifest = []
    if workload == "cohomology-ladder":
        for name in LADDER_ALGEBRAS:
            L = named_algebra(name)
            L = change_of_basis(L, monomial(rng, L.dim))
            _write(out, f"{name}.json", lio.algebra_to_json(L), manifest, "algebra")
            if name in LADDER_ADJOINT:
                _write(out, f"{name}-ad.json", lio.representation_to_json(adjoint_rep(L)),
                       manifest, "rep")
    elif workload == "extension-pipeline":
        for kind in PIPELINE_KINDS:
            for k in PIPELINE_SCALES:
                _write_system(out, f"{kind}-h{2 * k + 1}", pipeline_system(kind, k),
                              rng, manifest)
    elif workload == "cli-catalog":
        for name in CATALOG_SYSTEMS:
            fs = _write_system(out, name, catalog(name), rng, manifest,
                               crossed=name != "ext-sl2-kernel")
            write_pairs(out, name, fs)
            if name == "ext-heisenberg-kernel":
                _write(out, "ext-invalid.json", invalid_system_json(fs), manifest,
                       "ext-invalid")
        for name in CATALOG_ALGEBRAS:
            L = named_algebra(name)
            L = change_of_basis(L, monomial(rng, L.dim))
            _write(out, f"{name}.json", lio.algebra_to_json(L), manifest, "algebra")
            _write(out, f"{name}-ad.json", lio.representation_to_json(adjoint_rep(L)),
                   manifest, "rep")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
