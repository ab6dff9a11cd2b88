"""The commands on factor systems and catalog entries: ``validate``,
``extension``, ``obstruction`` and ``catalog``.  They load the extension
code but no crossed-module, symmetry or current-algebra code."""

from __future__ import annotations

import hashlib

from . import io as lio
from .catalog import catalog
from .cli_common import (EXIT_NEGATIVE, EXIT_OK, class_report, load_algebra,
                         load_factor_parts, write_report)
from .errors import ParseError
from .extensions import (FactorSystem, GKernel, build_extension, classify_extensions,
                         factor_system_report, obstruction_class, reduce_via_stage)
from .liealg import LieAlgebra, center, validate_crossed_module


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
    write_report({"command": "validate", "report": report, "provenance": provenance})
    return EXIT_OK if valid else EXIT_NEGATIVE


def _load_recorded(provenance: dict, name: str, source: str, kind: str):
    """Load one input and record its source and the sha256 of the bytes it was
    parsed from; an algebra named from the catalog reads no file and has no checksum."""
    if kind == "algebra" and not source.endswith(".json"):
        obj, checksum = load_algebra(source), None
    else:
        raw = lio.read_file_bytes(source)
        obj = lio.parse_file_bytes(raw, source, kind)
        checksum = hashlib.sha256(raw).hexdigest()
    provenance[name] = {"source": source, "sha256": checksum}
    return obj


def cmd_extension(args) -> int:
    if args.emit and args.action != "build":
        raise ParseError(f"--emit writes the built algebra, so it applies to build, "
                         f"not to {args.action}")
    if args.action == "check":
        n_alg, g_alg, mats, omega = load_factor_parts(args)
        fr = factor_system_report(n_alg, g_alg, mats, omega)
        write_report({"command": "extension-check", "report": fr.as_dict()})
        return EXIT_OK if fr.ok else EXIT_NEGATIVE
    fs = FactorSystem(*load_factor_parts(args))
    if args.action == "build":
        ext = build_extension(fs)
        report = {
            "command": "extension-build",
            "total": lio.algebra_to_json(ext.total),
            "center_dim": center(ext.total).dim,
        }
        if args.emit:
            lio.write_file(args.emit, lio.algebra_to_json(ext.total))
        write_report(report)
        return EXIT_OK
    if args.action == "classify":
        cls = classify_extensions(fs)
        report = {
            "command": "extension-classify",
            "base_omega": cls.base.omega,
            "translation_dim": cls.h2.h_dim,
            "translations": cls.translations,
        }
        write_report(report)
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
        write_report(report)
        return EXIT_OK
    raise ParseError(f"unknown extension action {args.action!r}")


def cmd_obstruction(args) -> int:
    n_alg, g_alg, mats, omega_given = load_factor_parts(args)
    omega = None if omega_given.is_zero() else omega_given
    kernel = GKernel(n_alg, g_alg, mats, omega)
    chi = obstruction_class(kernel)
    report = {"command": "obstruction", "obstruction": class_report(chi)}
    write_report(report)
    return EXIT_OK if chi.is_zero() else EXIT_NEGATIVE


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
    write_report({"command": "catalog", "name": args.name, "kind": kind,
                  "object": payload})
    return EXIT_OK
