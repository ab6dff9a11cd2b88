"""What the command handlers share: the exit codes, the report writers and
the readers of algebra and factor-system arguments.

It loads no more than reading an algebra does (``io`` and what ``io``
imports), so every command can import it, ``cohomology`` included.
"""

from __future__ import annotations

import sys

from . import io as lio
from .errors import ParseError
from .liealg import LieAlgebra

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_INTERNAL = 3


def write_report(report: dict) -> None:
    sys.stdout.write(lio.emit(report))


def write_bundle_report(name: str, result) -> int:
    """Report the (report, passed) of the reproduction bundle ``name``."""
    report, passed = result
    write_report({"command": "reproduce", "bundle": name, "pass": passed,
                  "report": report})
    return EXIT_OK if passed else EXIT_NEGATIVE


def load_algebra(spec: str) -> LieAlgebra:
    if spec.endswith(".json"):
        return lio.load_file(spec, "algebra")
    return lio.algebra_from_json(spec)


def load_factor_parts(args):
    """(n, g, matrices, omega) from --ext or from --n/--g/--S/--omega."""
    if getattr(args, "ext", None):
        return lio.load_file(args.ext, "factor-system-parts")
    if not (args.n and args.g and args.S):
        raise ParseError("either --ext or all of --n, --g, --S are required")
    n_alg = load_algebra(args.n)
    g_alg = load_algebra(args.g)
    s_data = lio.load_file(args.S, "json")
    if isinstance(s_data, dict):
        s_data = s_data.get("matrices", [])
    omega_path = getattr(args, "omega", None)
    return lio.factor_parts_from_json(
        n_alg, g_alg, s_data, "the --S matrices",
        (lambda: lio.load_file(omega_path, "json")) if omega_path else None)


def class_report(cls) -> dict:
    return {
        "zero": cls.is_zero(),
        "representative": cls.representative,
        "h_dim": cls.space.h_dim,
    }
