"""Command-line interface.

One command per process, one JSON report on stdout.  Exit codes: 0 for
mathematical success, 2 for a mathematically meaningful negative answer
(obstructed kernel, inequivalent extensions, invalid factor system, a
failed reproduction check) with a structured certificate in the report,
1 for malformed input, and 3 for an internal failure: a computation that
broke one of its own guarantees (any ``LiecohError`` that is neither bad
input nor a negative answer, such as ``FactorizationFailureError``),
reported as one JSON error naming its kind.

Each subcommand's handler, ``cmd_<name>`` with ``-`` read as ``_``, lives
in the module that ``COMMANDS`` names for it, and ``run_command`` imports
only that module, so a process loads the code its command runs and no more.
Where one argument decides the work, the table names the module by its
value: ``validate`` loads the extension code only for ``--ext``, and
``reproduce`` loads what its bundle runs.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from .cli_common import (EXIT_INPUT_ERROR, EXIT_INTERNAL, EXIT_NEGATIVE, EXIT_OK,
                         class_report, write_report)
from .errors import (InputError, InvalidFactorSystemError, LiecohError, NegativeResult,
                     ObstructedError)

# subcommand -> the module of this package that defines its handler, or, where
# one argument decides what the command runs, (that argument, {its value: module},
# the module for any other value); None is an option not given.  Grouped by what
# the handlers load
COMMANDS = {
    "validate": ("ext", {None: "cli_validate"}, "cli_validate_ext"),
    "cohomology": "cli_cohomology",
    "extension": "cli_extensions",
    "obstruction": "cli_extensions",
    "crossed-module": "cli_crossed",
    "derivations": "cli_symmetry",
    "lift": "cli_symmetry",
    "automorphism": "cli_symmetry",
    "catalog": "cli_catalog",
    "v2-check": "cli_currents",
    "reproduce": ("name", {"example-A9": "cli_reproduce",
                           "example-A10a": "cli_reproduce",
                           "example-A10b": "cli_reproduce",
                           "remark-II10": "cli_cohomology",
                           "remark-IV5": "cli_reproduce",
                           "example-V2": "cli_currents",
                           "theorem-IV4-roundtrip": "cli_reproduce"}, "cli_reproduce"),
}


def handler_module(entry, args) -> str:
    """The module that ``entry``, a value of ``COMMANDS``, names for the parsed args."""
    if isinstance(entry, str):
        return entry
    argument, by_value, otherwise = entry
    return by_value.get(getattr(args, argument), otherwise)


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

    p = sub.add_parser("cohomology", help="cocycles, coboundaries and dimensions")
    p.add_argument("--algebra")
    p.add_argument("--rep")
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("extension", help="build, check, classify or reduce")
    p.add_argument("action", choices=["build", "check", "classify", "reduce"])
    _add_fs_flags(p)
    p.add_argument("--emit")

    p = sub.add_parser("obstruction", help="degree-3 class of an outer action")
    _add_fs_flags(p)

    p = sub.add_parser("crossed-module", help="validate or compute the class")
    p.add_argument("action", choices=["validate", "class"])
    p.add_argument("--cm", required=True)

    p = sub.add_parser("derivations", help="derivation sequence of an extension")
    _add_fs_flags(p)

    p = sub.add_parser("lift", help="lift an outside action to the extension")
    _add_fs_flags(p)
    p.add_argument("--pair", required=True)

    p = sub.add_parser("automorphism", help="liftability of an automorphism pair")
    _add_fs_flags(p)
    p.add_argument("--pair", required=True)

    p = sub.add_parser("catalog", help="emit a built-in object")
    p.add_argument("name")
    p.add_argument("--emit")

    p = sub.add_parser("v2-check", help="randomized current-identity suite")
    p.add_argument("--algebra", default="sl2")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("reproduce", help="run a named reproduction bundle")
    p.add_argument("name")

    return parser


def run_command(argv) -> int:
    """Dispatch one command; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code else EXIT_OK
    module = importlib.import_module(
        "." + handler_module(COMMANDS[args.command], args), __package__)
    handler = getattr(module, "cmd_" + args.command.replace("-", "_"))
    try:
        return handler(args)
    except InvalidFactorSystemError as exc:
        write_report({"command": args.command, "error": {
            "kind": "InvalidFactorSystem",
            "certificate": exc.report.as_dict(),
        }})
        return EXIT_NEGATIVE
    except ObstructedError as exc:
        write_report({"command": args.command, "error": {
            "kind": "Obstructed", "certificate": class_report(exc.obstruction)}})
        return EXIT_NEGATIVE
    except NegativeResult as exc:
        write_report({"command": args.command, "error": {
            "kind": type(exc).__name__, "message": str(exc)}})
        return EXIT_NEGATIVE
    except InputError as exc:
        payload = {"kind": type(exc).__name__, "message": str(exc)}
        violations = getattr(exc, "violations", None)
        if violations:
            payload["violations"] = list(violations)
        write_report({"command": args.command, "error": payload})
        return EXIT_INPUT_ERROR
    except LiecohError as exc:
        write_report({"command": args.command, "error": {
            "kind": type(exc).__name__, "message": str(exc)}})
        return EXIT_INTERNAL
    except OSError as exc:
        # the message names the path; a missing file keeps its former kind
        kind = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        write_report({"command": args.command, "error": {"kind": kind, "message": str(exc)}})
        return EXIT_INPUT_ERROR


def main(argv=None) -> int:
    return run_command(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
