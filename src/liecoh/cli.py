"""Command-line interface.

One command per process, one JSON report on stdout.  Exit codes: 0 for
mathematical success, 2 for a mathematically meaningful negative answer
(obstructed kernel, inequivalent extensions, invalid factor system, a
failed reproduction check) with a structured certificate in the report,
1 for malformed input.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from . import io as lio
from .catalog import catalog
from .cochains import Cochain
from .cohomology import cohomology
from .crossed import (CrossedModule, characteristic_class_omega_route,
                      characteristic_class_theta_route, split_crossed_module,
                      validate_crossed_module)
from .currents import run_v2_samples, v2_passed
from .errors import (InputError, InvalidFactorSystemError, LiecohError,
                     NegativeResult, ObstructedError, ParseError)
from .extensions import (FactorSystem, GKernel, build_extension,
                         classify_extensions, factor_system_report,
                         obstruction_class, reduce_via_stage)
from .liealg import LieAlgebra, Representation, center
from .reproduce import run_bundle
from .symmetry import (automorphism_pair_obstruction, extension_derivations,
                       lifting_cocycle)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NEGATIVE = 2


def _emit(report: dict) -> None:
    sys.stdout.write(lio.emit(report))


def _load_algebra(spec: str) -> LieAlgebra:
    if spec.endswith(".json"):
        return lio.load_file(spec, "algebra")
    return lio.algebra_from_json(spec)


def _load_factor_parts(args):
    """(n, g, matrices, omega) from --ext or from --n/--g/--S/--omega."""
    if getattr(args, "ext", None):
        return lio.load_file(args.ext, "factor-system-parts")
    if not (args.n and args.g and args.S):
        raise ParseError("either --ext or all of --n, --g, --S are required")
    n_alg = _load_algebra(args.n)
    g_alg = _load_algebra(args.g)
    s_data = lio.load_file(args.S, "json")
    if isinstance(s_data, dict):
        s_data = s_data.get("matrices", [])
    mats = [lio.matrix_from_json(m, rows=n_alg.dim, cols=n_alg.dim)
            for m in lio.json_list(s_data, "the --S matrices")]
    if len(mats) != g_alg.dim:
        raise ParseError("one S matrix per basis element of g is required")
    if getattr(args, "omega", None):
        omega = lio.cochain_from_json(lio.load_file(args.omega, "json"), g_alg)
    else:
        omega = Cochain(g_alg, 2, n_alg.dim)
    return n_alg, g_alg, mats, omega


def _factor_system(args) -> FactorSystem:
    n_alg, g_alg, mats, omega = _load_factor_parts(args)
    return FactorSystem(n_alg, g_alg, mats, omega)


def _class_report(cls) -> dict:
    return {
        "zero": cls.is_zero(),
        "representative": cls.representative,
        "h_dim": cls.space.h_dim,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    """One report on every input given; exit 2 when any of them is invalid."""
    provenance = {}
    report = {}
    valid = True
    if args.algebra:
        L = _load_recorded(provenance, "algebra", args.algebra, "algebra")
        report["algebra"] = {"dim": L.dim, "jacobi": True}
    if args.rep:
        rep = _load_recorded(provenance, "representation", args.rep, "representation")
        report["representation"] = {"space_dim": rep.space_dim,
                                    "representation_law": True}
    if args.ext:
        n_alg, g_alg, mats, omega = _load_recorded(provenance, "extension", args.ext,
                                                   "factor-system-parts")
        fr = factor_system_report(n_alg, g_alg, mats, omega)
        report["factor_system"] = fr.as_dict()
        valid = valid and fr.ok
    if args.cm:
        h, ghat, alpha, action = _load_recorded(provenance, "crossed-module", args.cm,
                                                "crossed-module-parts")
        cr = validate_crossed_module(h, ghat, alpha, action)
        report["crossed_module"] = cr.as_dict()
        valid = valid and cr.ok
    if not report:
        raise ParseError("nothing to validate: pass --algebra, --rep, --ext or --cm")
    _emit({"command": "validate", "report": report, "provenance": provenance})
    return EXIT_OK if valid else EXIT_NEGATIVE


def _load_recorded(provenance: dict, name: str, source: str, kind: str):
    """Load one input and record its source and the sha256 of the bytes it was
    parsed from; an algebra named from the catalog reads no file and has no checksum."""
    if kind == "algebra" and not source.endswith(".json"):
        obj, checksum = _load_algebra(source), None
    else:
        raw = lio.read_file_bytes(source)
        obj = lio.parse_file_bytes(raw, source, kind)
        checksum = hashlib.sha256(raw).hexdigest()
    provenance[name] = {"source": source, "sha256": checksum}
    return obj


def cmd_cohomology(args) -> int:
    if args.rep:
        rep = lio.load_file(args.rep, "representation")
        if args.algebra:
            L = _load_algebra(args.algebra)
            if rep.algebra != L:
                raise ParseError("--rep disagrees with --algebra")
    else:
        if not args.algebra:
            raise ParseError("--algebra (or --rep) is required")
        rep = Representation.trivial(_load_algebra(args.algebra), 1)
    space = cohomology(rep, args.degree)
    shape = (rep.algebra, args.degree, rep.space_dim)
    report = {
        "command": "cohomology",
        "degree": args.degree,
        "dim_cocycles": space.dim_cocycles,
        "dim_coboundaries": space.dim_coboundaries,
        "dim_cohomology": space.h_dim,
        "cocycle_basis": [Cochain.from_pairs(*shape, v) for v in space.cocycles.pairs],
        "cohomology_representatives": [Cochain.from_pairs(*shape, v)
                                       for v in space.class_basis.pairs],
    }
    _emit(report)
    return EXIT_OK


def cmd_extension(args) -> int:
    if args.emit and args.action != "build":
        raise ParseError(f"--emit writes the built algebra, so it applies to build, "
                         f"not to {args.action}")
    if args.action == "check":
        n_alg, g_alg, mats, omega = _load_factor_parts(args)
        fr = factor_system_report(n_alg, g_alg, mats, omega)
        _emit({"command": "extension-check", "report": fr.as_dict()})
        return EXIT_OK if fr.ok else EXIT_NEGATIVE
    fs = _factor_system(args)
    if args.action == "build":
        ext = build_extension(fs)
        report = {
            "command": "extension-build",
            "total": lio.algebra_to_json(ext.total),
            "center_dim": center(ext.total).dim,
        }
        if args.emit:
            lio.write_file(args.emit, lio.algebra_to_json(ext.total))
        _emit(report)
        return EXIT_OK
    if args.action == "classify":
        cls = classify_extensions(fs)
        report = {
            "command": "extension-classify",
            "base_omega": cls.base.omega,
            "translation_dim": cls.h2.h_dim,
            "translations": cls.translations,
        }
        _emit(report)
        return EXIT_OK
    if args.action == "reduce":
        red = reduce_via_stage(fs)
        report = {
            "command": "extension-reduce",
            "stage_dim": red.stage.gs.dim,
            "center_dim": red.stage.z.dim,
            "f_tilde": red.f_tilde,
            "solution_translation_dim": red.solutions.dim,
            "round_trip_witnessed": True,
            "witness": lio.matrix_to_json(red.witness),
        }
        _emit(report)
        return EXIT_OK
    raise ParseError(f"unknown extension action {args.action!r}")


def cmd_obstruction(args) -> int:
    n_alg, g_alg, mats, omega_given = _load_factor_parts(args)
    omega = None if omega_given.is_zero() else omega_given
    kernel = GKernel(n_alg, g_alg, mats, omega)
    chi = obstruction_class(kernel)
    report = {"command": "obstruction", "obstruction": _class_report(chi)}
    _emit(report)
    return EXIT_OK if chi.is_zero() else EXIT_NEGATIVE


def cmd_crossed_module(args) -> int:
    h, ghat, alpha, action = lio.load_file(args.cm, "crossed-module-parts")
    if args.action == "validate":
        cr = validate_crossed_module(h, ghat, alpha, action)
        _emit({"command": "crossed-module-validate", "report": cr.as_dict()})
        return EXIT_OK if cr.ok else EXIT_NEGATIVE
    cm = CrossedModule(h, ghat, alpha, action)
    sp = split_crossed_module(cm)
    c_theta = characteristic_class_theta_route(sp)
    c_omega = characteristic_class_omega_route(sp)
    agree = c_theta.normalized == c_omega.normalized
    report = {
        "command": "crossed-module-class",
        "theta_route": _class_report(c_theta),
        "omega_route": _class_report(c_omega),
        "routes_agree": agree,
    }
    _emit(report)
    if not agree:
        raise LiecohError("characteristic class routes disagree")
    return EXIT_OK if c_theta.is_zero() else EXIT_NEGATIVE


def cmd_derivations(args) -> int:
    fs = _factor_system(args)
    report = extension_derivations(fs)
    _emit({"command": "derivations", "report": report.as_dict()})
    return EXIT_OK


def cmd_lift(args) -> int:
    fs = _factor_system(args)
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
    _emit(report)
    return EXIT_OK if rep.lift_exists else EXIT_NEGATIVE


def cmd_automorphism(args) -> int:
    fs = _factor_system(args)
    data = lio.json_object(lio.load_file(args.pair, "json"), "a pair file")
    alpha = lio.matrix_from_json(data.get("alpha"), rows=fs.n.dim, cols=fs.n.dim)
    beta = lio.matrix_from_json(data.get("beta"), rows=fs.g.dim, cols=fs.g.dim)
    res = automorphism_pair_obstruction(fs, alpha, beta)
    report = {
        "command": "automorphism",
        "obstruction": _class_report(res.obstruction),
        "lift_exists": res.lift_exists,
    }
    if res.lift_exists:
        report["lift"] = lio.matrix_to_json(res.lift)
    _emit(report)
    return EXIT_OK if res.lift_exists else EXIT_NEGATIVE


def cmd_catalog(args) -> int:
    obj = catalog(args.name)
    if isinstance(obj, LieAlgebra):
        payload = lio.algebra_to_json(obj)
        kind = "algebra"
    else:
        payload = lio.factor_system_to_json(obj)
        kind = "factor-system"
    if args.emit:
        lio.write_file(args.emit, payload)
    _emit({"command": "catalog", "name": args.name, "kind": kind,
           "object": payload})
    return EXIT_OK


def cmd_v2_check(args) -> int:
    if args.algebra not in (None, "sl2"):
        raise ParseError("the current-identity suite runs on the sl2 catalog entry")
    report = run_v2_samples(args.samples, args.seed)
    _emit({"command": "v2-check", "report": report})
    return EXIT_OK if v2_passed(report) else EXIT_NEGATIVE


def cmd_reproduce(args) -> int:
    report, passed = run_bundle(args.name)
    _emit({"command": "reproduce", "bundle": args.name, "pass": passed,
           "report": report})
    return EXIT_OK if passed else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_fs_flags(p):
    p.add_argument("--n", help="kernel algebra file or catalog name")
    p.add_argument("--g", help="quotient algebra file or catalog name")
    p.add_argument("--S", help="JSON file with the action matrices")
    p.add_argument("--omega", help="JSON file with the 2-cochain")
    p.add_argument("--ext", help="bundled factor-system JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecoh",
        description="exact cohomology, extensions and crossed modules of Lie algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load and re-check structural invariants")
    p.add_argument("--algebra")
    p.add_argument("--rep")
    p.add_argument("--ext")
    p.add_argument("--cm")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("cohomology", help="cocycles, coboundaries and dimensions")
    p.add_argument("--algebra")
    p.add_argument("--rep")
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("extension", help="build, check, classify or reduce")
    p.add_argument("action", choices=["build", "check", "classify", "reduce"])
    _add_fs_flags(p)
    p.add_argument("--emit")
    p.set_defaults(fn=cmd_extension)

    p = sub.add_parser("obstruction", help="degree-3 class of an outer action")
    _add_fs_flags(p)
    p.set_defaults(fn=cmd_obstruction)

    p = sub.add_parser("crossed-module", help="validate or compute the class")
    p.add_argument("action", choices=["validate", "class"])
    p.add_argument("--cm", required=True)
    p.set_defaults(fn=cmd_crossed_module)

    p = sub.add_parser("derivations", help="derivation sequence of an extension")
    _add_fs_flags(p)
    p.set_defaults(fn=cmd_derivations)

    p = sub.add_parser("lift", help="lift an outside action to the extension")
    _add_fs_flags(p)
    p.add_argument("--pair", required=True)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("automorphism", help="liftability of an automorphism pair")
    _add_fs_flags(p)
    p.add_argument("--pair", required=True)
    p.set_defaults(fn=cmd_automorphism)

    p = sub.add_parser("catalog", help="emit a built-in object")
    p.add_argument("name")
    p.add_argument("--emit")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("v2-check", help="randomized current-identity suite")
    p.add_argument("--algebra", default="sl2")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_v2_check)

    p = sub.add_parser("reproduce", help="run a named reproduction bundle")
    p.add_argument("name")
    p.set_defaults(fn=cmd_reproduce)

    return parser


def run_command(argv) -> int:
    """Dispatch one command; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except InvalidFactorSystemError as exc:
        _emit({"command": args.command, "error": {
            "kind": "InvalidFactorSystem",
            "certificate": exc.report.as_dict(),
        }})
        return EXIT_NEGATIVE
    except ObstructedError as exc:
        _emit({"command": args.command, "error": {
            "kind": "Obstructed", "certificate": _class_report(exc.obstruction)}})
        return EXIT_NEGATIVE
    except NegativeResult as exc:
        _emit({"command": args.command, "error": {
            "kind": type(exc).__name__, "message": str(exc)}})
        return EXIT_NEGATIVE
    except InputError as exc:
        payload = {"kind": type(exc).__name__, "message": str(exc)}
        violations = getattr(exc, "violations", None)
        if violations:
            payload["violations"] = list(violations)
        _emit({"command": args.command, "error": payload})
        return EXIT_INPUT_ERROR
    except OSError as exc:
        # the message names the path; a missing file keeps its former kind
        kind = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        _emit({"command": args.command, "error": {"kind": kind, "message": str(exc)}})
        return EXIT_INPUT_ERROR


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
