"""The ``validate`` command: it reads algebra, representation and
crossed-module files and loads no extension code; the handler of
``validate --ext`` (``cli_validate_ext``) runs this one with the
factor-system check."""

from __future__ import annotations

import hashlib

from . import io as lio
from .cli_common import EXIT_NEGATIVE, EXIT_OK, load_algebra, write_report
from .errors import ParseError
from .liealg import validate_crossed_module


def cmd_validate(args, factor_system_report=None) -> int:
    """One report on every input given; exit 2 when any of them is invalid.
    ``factor_system_report`` checks the --ext input, so it is given when --ext is."""
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
