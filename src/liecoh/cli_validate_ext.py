"""``validate --ext``: the one ``validate`` of ``cli_validate``, given the
factor-system check, which loads the extension code."""

from __future__ import annotations

from . import cli_validate
from .extensions import factor_system_report


def cmd_validate(args) -> int:
    return cli_validate.cmd_validate(args, factor_system_report)
