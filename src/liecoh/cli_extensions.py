"""The commands on factor systems: ``extension`` and ``obstruction``.  They
load the extension code but no crossed-module, symmetry, current-algebra or
catalog code."""

from __future__ import annotations

from . import io as lio
from .cli_common import EXIT_NEGATIVE, EXIT_OK, class_report, load_factor_parts, write_report
from .errors import ParseError
from .extensions import (FactorSystem, GKernel, build_extension, classify_extensions,
                         factor_system_report, obstruction_class, reduce_via_stage)
from .liealg import center


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
