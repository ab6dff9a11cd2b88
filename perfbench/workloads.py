"""The benchmark's workloads: the liecoh commands each one runs.

Commands name their input files relative to the directory ``gen.py``
wrote them to, so a command's id is the same for every seed and work
directory.  Why each workload exists is in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb
from typing import Optional

WORKLOADS = ("cohomology-ladder", "extension-pipeline", "cli-catalog")

LADDER_ALGEBRAS = ("heisenberg5", "heisenberg7", "heisenberg9",
                   "nilpotent4", "nilpotent5", "filiform6", "filiform8")
LADDER_ADJOINT = ("heisenberg5", "heisenberg7", "heisenberg9", "nilpotent4", "filiform6")
PIPELINE_KINDS = ("center", "grading", "central")
PIPELINE_SCALES = (3, 4)  # Heisenberg h_{2k+1} with k = 3, 4
CATALOG_SYSTEMS = ("ext-heisenberg3", "ext-filiform4",
                   "ext-heisenberg-kernel", "ext-sl2-kernel")
CATALOG_ALGEBRAS = ("heisenberg3", "filiform4", "sl2")

TOP_REPEATS = 5

BUNDLES = ("example-A9", "example-A10a", "example-A10b", "remark-II10",
           "remark-IV5", "example-V2", "theorem-IV4-roundtrip")


@dataclass(frozen=True)
class Command:
    id: str
    argv: tuple
    top: bool = False                    # the workload's fixed heaviest command
    closed_form: Optional[dict] = None   # report fields known in closed form


def heisenberg_betti(k: int, p: int) -> int:
    """dim H^p(h_{2k+1}, Q) (Santharoubane, Proc. AMS 1983)."""
    if p > k:
        p = 2 * k + 1 - p
    return comb(2 * k, p) - (comb(2 * k, p - 2) if p >= 2 else 0)


def _cmd(*argv, top=False, closed_form=None) -> Command:
    return Command(" ".join(argv), tuple(argv), top, closed_form)


def _cohomology(name: str, p: int, adjoint: bool, top=False) -> Command:
    closed_form = None
    if name.startswith("heisenberg") and not adjoint:
        closed_form = {"dim_cohomology": heisenberg_betti((int(name[10:]) - 1) // 2, p)}
    source = ("--rep", f"{name}-ad.json") if adjoint else ("--algebra", f"{name}.json")
    return _cmd("cohomology", *source, "--degree", str(p), top=top,
                closed_form=closed_form)


def _system_commands(stem: str, crossed: bool = True, validate: bool = True,
                     pairs: bool = False) -> list:
    """Every command on one factor system and its stage crossed module.

    validate=False leaves out ``validate --ext`` and ``crossed-module
    validate``: the set-up already runs the same checks on every input file
    and times them in setup_s.  pairs=True adds ``automorphism`` and ``lift``
    on the pair files gen.py writes next to the system."""
    ext = f"{stem}.json"
    cmds = [_cmd("validate", "--ext", ext)] if validate else []
    cmds += [_cmd("extension", action, "--ext", ext)
             for action in ("check", "build", "classify", "reduce")]
    cmds += [_cmd("obstruction", "--ext", ext), _cmd("derivations", "--ext", ext)]
    if pairs:
        cmds += [_cmd("automorphism", "--ext", ext, "--pair", f"{stem}-aut.json"),
                 _cmd("lift", "--ext", ext, "--pair", f"{stem}-lift.json")]
    if crossed:
        actions = ("validate", "class") if validate else ("class",)
        cmds += [_cmd("crossed-module", action, "--cm", f"{stem}-cm.json")
                 for action in actions]
    return cmds


def ladder() -> list:
    small = []
    for name in LADDER_ALGEBRAS:
        small += [_cohomology(name, p, adjoint=False) for p in (1, 2, 3)]
    small += [_cohomology(name, 3, adjoint=True) for name in LADDER_ADJOINT
              if name != "heisenberg9"]
    # The top rung, adjoint d_3 of h9 (1134 x 756), sits mid-pass, so that
    # the small commands' times sample all of the pass.
    half = len(small) // 2
    return small[:half] + [_cohomology("heisenberg9", 3, adjoint=True, top=True)] + small[half:]


def pipeline() -> list:
    cmds = []
    for kind in PIPELINE_KINDS:
        for k in PIPELINE_SCALES:
            cmds += _system_commands(f"{kind}-h{2 * k + 1}", validate=False)
    return [replace(c, top=c.id == "extension classify --ext central-h9.json") for c in cmds]


def cli_catalog(seed: int) -> list:
    # example-V2 is the heaviest command whose input does not depend on the seed.
    cmds = [_cmd("reproduce", name, top=name == "example-V2") for name in BUNDLES]
    for name in CATALOG_SYSTEMS:
        cmds.append(_cmd("catalog", name))
        cmds += _system_commands(name, crossed=name != "ext-sl2-kernel", pairs=True)
    # A factor system that breaks the curvature condition: these exit 2
    # with a certificate.
    cmds += [_cmd("extension", action, "--ext", "ext-invalid.json")
             for action in ("check", "build")]
    cmds.append(_cmd("obstruction", "--ext", "ext-invalid.json"))
    for name in CATALOG_ALGEBRAS:
        cmds += [_cohomology(name, p, adjoint) for adjoint in (False, True)
                 for p in (1, 2)]
    cmds.append(Command("v2-check --seed <seed>", ("v2-check", "--seed", str(seed))))
    # One 0.3 s command is at the mercy of a single stall of the machine, so
    # the top command runs TOP_REPEATS times, spread through the pass, and
    # top_cmd_s is the median.
    top = next(c for c in cmds if c.top)
    step = len(cmds) // TOP_REPEATS
    for i in range(TOP_REPEATS - 1, 0, -1):
        cmds.insert(i * step, top)
    return cmds


def commands(workload: str, seed: int) -> list:
    if workload == "cohomology-ladder":
        return ladder()
    if workload == "extension-pipeline":
        return pipeline()
    if workload == "cli-catalog":
        return cli_catalog(seed)
    raise ValueError(f"unknown workload {workload!r}")
