"""The ``reproduce`` command for the bundles that need a catalog system, and
for an unknown name: ``run_bundle`` may run any part of the package."""

from __future__ import annotations

from .cli_common import write_bundle_report
from .reproduce import run_bundle


def cmd_reproduce(args) -> int:
    return write_bundle_report(args.name, run_bundle(args.name))
