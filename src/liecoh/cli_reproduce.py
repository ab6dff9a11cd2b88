"""The ``reproduce`` command: a named reproduction bundle, which may run any
part of the package."""

from __future__ import annotations

from .cli_common import EXIT_NEGATIVE, EXIT_OK, write_report
from .reproduce import run_bundle


def cmd_reproduce(args) -> int:
    report, passed = run_bundle(args.name)
    write_report({"command": "reproduce", "bundle": args.name, "pass": passed,
                  "report": report})
    return EXIT_OK if passed else EXIT_NEGATIVE
