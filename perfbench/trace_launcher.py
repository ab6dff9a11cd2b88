"""Run one liecoh command with its layers' public names timed from outside.

    python3 perfbench/trace_launcher.py SPANS.json <liecoh arguments...>

The launcher wraps every name in ``TARGETS`` (class attributes in place,
and every ``liecoh.*`` module attribute bound to a wrapped function, since
modules import each other's functions by name), then calls
``liecoh.cli.main(argv)``.  Spans stay in memory and are written to
SPANS.json at exit together with the counters.  The command's stdout and
exit code are its own.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> public names; a class name times its constructor.
TARGETS = {
    "linalg": ("Matrix.rref", "kernel", "image", "solve", "solve_affine",
               "Subspace.from_vectors", "Matrix.__init__", "Matrix.__matmul__",
               "left_inverse", "invert"),
    "cochains": ("cochain_differential", "covariant_differential", "curvature",
                 "wedge", "gauge_action"),
    "cohomology": ("differential_matrix", "operator_matrix", "CohomologySpace",
                   "relative_cocycles", "theta_constrained_cocycles"),
    "liealg": ("LieAlgebra", "Representation", "center",
               "quotient_algebra"),
    "extensions": ("factor_system_report", "build_extension", "equivalent_extensions",
                   "GKernel", "obstruction_class", "classify_extensions",
                   "build_quotient_stage", "reduce_via_stage"),
    "symmetry": ("extension_derivations", "derivation_pair_obstruction",
                 "lifting_cocycle", "automorphism_pair_obstruction", "pair_act_outer"),
    "crossed": ("validate_crossed_module", "split_crossed_module",
                "characteristic_class_theta_route", "characteristic_class_omega_route"),
    "currents": ("v2_cocycle_identity", "v2_characteristic_cocycle"),
    "io": ("load_file", "emit"),
    "cli": ("run_command",),
    "reproduce": ("run_bundle",),
}

SPAN_NAMES = tuple(f"{mod}.{name}" for mod, names in TARGETS.items() for name in names)

COUNTERS = ("linalg.rref.entries", "linalg.rref.nnz", "linalg.rref.rank",
            "linalg.rref.max_entries", "linalg.rref.sparse_calls",
            "cohomology.differential_matrix.cols", "cohomology.differential_matrix.distinct",
            "io.emit.bytes")


class Tracer:
    """Spans ``(id, parent, name, start_ns, end_ns)`` and counters of one command."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.shapes = []          # [algebra dim, module dim, p, rows, cols] per d_p
        self._distinct = set()
        self._next_id = 0

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    # counter hooks run after the span closes, so their cost lands in the
    # caller's self time and in the measured tracing overhead
    def after_rref(self, args, _kwargs, result):
        from liecoh.config import sparse_threshold
        m = args[0]
        entries = m.rows * m.cols
        c = self.counters
        c["linalg.rref.entries"] += entries
        c["linalg.rref.nnz"] += sum(1 for row in m.row_list() for x in row if x)
        c["linalg.rref.rank"] += len(result[1])
        c["linalg.rref.max_entries"] = max(c["linalg.rref.max_entries"], entries)
        c["linalg.rref.sparse_calls"] += entries > sparse_threshold()

    def after_differential(self, args, kwargs, result):
        rep = args[0] if args else kwargs["rep"]
        p = args[1] if len(args) > 1 else kwargs["p"]
        self.counters["cohomology.differential_matrix.cols"] += result.cols
        self._distinct.add((rep, p))
        self.counters["cohomology.differential_matrix.distinct"] = len(self._distinct)
        self.shapes.append([rep.algebra.dim, rep.space_dim, p, result.rows, result.cols])

    def after_emit(self, _args, _kwargs, result):
        self.counters["io.emit.bytes"] += len(result.encode())

    def install(self) -> None:
        hooks = {"linalg.Matrix.rref": self.after_rref,
                 "cohomology.differential_matrix": self.after_differential,
                 "io.emit": self.after_emit}
        modules = {mod: importlib.import_module(f"liecoh.{mod}") for mod in TARGETS}
        for mod, names in TARGETS.items():
            for public in names:
                span = f"{mod}.{public}"
                owner_name, _, attr = public.rpartition(".")
                obj = getattr(modules[mod], owner_name or public)
                if owner_name or isinstance(obj, type):
                    cls, attr = (obj, attr) if owner_name else (obj, "__init__")
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        setattr(cls, attr, classmethod(
                            self.wrap(span, raw.__func__, hooks.get(span))))
                    else:
                        setattr(cls, attr, self.wrap(span, raw, hooks.get(span)))
                    continue
                wrapper = self.wrap(span, obj, hooks.get(span))
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").partition(".")[0] != "liecoh":
                        continue
                    for key, value in list(vars(module).items()):
                        if value is obj:
                            setattr(module, key, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "shapes": self.shapes}, fh, separators=(",", ":"))


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: trace_launcher.py SPANS.json <liecoh arguments...>", file=sys.stderr)
        return 1
    tracer = Tracer()
    tracer.install()
    from liecoh import cli
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
