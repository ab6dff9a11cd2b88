"""The ``catalog`` command: a built-in algebra or factor system as JSON."""

from __future__ import annotations

from . import io as lio
from .catalog import catalog
from .cli_common import EXIT_OK, write_report
from .liealg import LieAlgebra


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
