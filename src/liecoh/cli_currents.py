"""The ``v2-check`` command, the randomized current-identity suite, and
``reproduce example-V2``, the bundle that runs it."""

from __future__ import annotations

from .cli_common import EXIT_NEGATIVE, EXIT_OK, write_bundle_report, write_report
from .currents import bundle_example_v2, run_v2_samples, v2_passed
from .errors import ParseError


def cmd_v2_check(args) -> int:
    if args.algebra not in (None, "sl2"):
        raise ParseError("the current-identity suite runs on the sl2 catalog entry")
    report = run_v2_samples(args.samples, args.seed)
    write_report({"command": "v2-check", "report": report})
    return EXIT_OK if v2_passed(report) else EXIT_NEGATIVE


def cmd_reproduce(args) -> int:
    return write_bundle_report(args.name, bundle_example_v2())
