"""The ``crossed-module`` command: it loads the crossed-module code and the
extension code under it, but no symmetry or current-algebra code."""

from __future__ import annotations

from . import io as lio
from .cli_common import EXIT_NEGATIVE, EXIT_OK, class_report, write_report
from .crossed import (CrossedModule, characteristic_class_omega_route,
                      characteristic_class_theta_route, split_crossed_module)
from .errors import LiecohError
from .liealg import validate_crossed_module


def cmd_crossed_module(args) -> int:
    h, ghat, alpha, action = lio.load_file(args.cm, "crossed-module-parts")
    if args.action == "validate":
        cr = validate_crossed_module(h, ghat, alpha, action)
        write_report({"command": "crossed-module-validate", "report": cr.as_dict()})
        return EXIT_OK if cr.ok else EXIT_NEGATIVE
    cm = CrossedModule(h, ghat, alpha, action)
    sp = split_crossed_module(cm)
    c_theta = characteristic_class_theta_route(sp)
    c_omega = characteristic_class_omega_route(sp)
    # checked before anything is written, so a disagreement is one JSON error
    if c_theta.normalized != c_omega.normalized:
        raise LiecohError("characteristic class routes disagree")
    write_report({
        "command": "crossed-module-class",
        "theta_route": class_report(c_theta),
        "omega_route": class_report(c_omega),
        "routes_agree": True,
    })
    return EXIT_OK if c_theta.is_zero() else EXIT_NEGATIVE
