"""The commands on symmetries of an extension: ``derivations``, ``lift`` and
``automorphism``."""

from __future__ import annotations

from . import io as lio
from .cli_common import (EXIT_NEGATIVE, EXIT_OK, class_report, load_factor_parts,
                         write_report)
from .extensions import FactorSystem
from .symmetry import automorphism_pair_obstruction, extension_derivations, lifting_cocycle


def cmd_derivations(args) -> int:
    fs = FactorSystem(*load_factor_parts(args))
    report = extension_derivations(fs)
    write_report({"command": "derivations", "report": report.as_dict()})
    return EXIT_OK


def cmd_lift(args) -> int:
    fs = FactorSystem(*load_factor_parts(args))
    data = lio.json_object(lio.load_file(args.pair, "json"), "a pair file")
    h_alg = lio.algebra_from_json(data.get("h"))
    psi_n = [lio.matrix_from_json(m, rows=fs.n.dim, cols=fs.n.dim)
             for m in lio.json_list(data.get("psi_n", []), "psi_n")]
    psi_g = [lio.matrix_from_json(m, rows=fs.g.dim, cols=fs.g.dim)
             for m in lio.json_list(data.get("psi_g", []), "psi_g")]
    theta = [lio.cochain_from_json(c, fs.g)
             for c in lio.json_list(data.get("theta", []), "theta")]
    rep = lifting_cocycle(fs, h_alg, psi_n, psi_g, theta)
    report = {
        "command": "lift",
        "cocycle_zero": rep.is_zero_cocycle,
        "obstruction_zero": rep.obstruction.is_zero(),
        "lift_exists": rep.lift_exists,
    }
    write_report(report)
    return EXIT_OK if rep.lift_exists else EXIT_NEGATIVE


def cmd_automorphism(args) -> int:
    fs = FactorSystem(*load_factor_parts(args))
    data = lio.json_object(lio.load_file(args.pair, "json"), "a pair file")
    alpha = lio.matrix_from_json(data.get("alpha"), rows=fs.n.dim, cols=fs.n.dim)
    beta = lio.matrix_from_json(data.get("beta"), rows=fs.g.dim, cols=fs.g.dim)
    res = automorphism_pair_obstruction(fs, alpha, beta)
    report = {
        "command": "automorphism",
        "obstruction": class_report(res.obstruction),
        "lift_exists": res.lift_exists,
    }
    if res.lift_exists:
        report["lift"] = lio.matrix_to_json(res.lift)
    write_report(report)
    return EXIT_OK if res.lift_exists else EXIT_NEGATIVE
