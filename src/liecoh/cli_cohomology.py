"""The ``cohomology`` command, which reads an algebra or a representation,
and ``reproduce remark-II10``, a bundle of cohomology dimensions; they load
no extension, crossed-module or symmetry code."""

from __future__ import annotations

from . import io as lio
from .cli_common import EXIT_OK, load_algebra, write_bundle_report, write_report
from .cochains import Cochain
from .cohomology import bundle_remark_ii10, cohomology
from .errors import ParseError
from .liealg import Representation


def cmd_cohomology(args) -> int:
    if args.rep:
        rep = lio.load_file(args.rep, "representation")
        if args.algebra:
            L = load_algebra(args.algebra)
            if rep.algebra != L:
                raise ParseError("--rep disagrees with --algebra")
    else:
        if not args.algebra:
            raise ParseError("--algebra (or --rep) is required")
        rep = Representation.trivial(load_algebra(args.algebra), 1)
    space = cohomology(rep, args.degree)
    shape = (rep.algebra, args.degree, rep.space_dim)
    report = {
        "command": "cohomology",
        "degree": args.degree,
        "dim_cocycles": space.dim_cocycles,
        "dim_coboundaries": space.dim_coboundaries,
        "dim_cohomology": space.h_dim,
        "cocycle_basis": [Cochain.from_pairs(*shape, v) for v in space.cocycles.pairs],
        "cohomology_representatives": [Cochain.from_pairs(*shape, v)
                                       for v in space.class_basis.pairs],
    }
    write_report(report)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    return write_bundle_report(args.name, bundle_remark_ii10())
