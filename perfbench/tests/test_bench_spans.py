"""Span and counter arithmetic of the traced run."""

import json
import os
import subprocess
import sys
from math import comb

import pytest

import gen
from run import ROADMAP_SHAPES, Result, per_layer, shape_problems
from spans import aggregate, root_duration_s, self_times
import trace_launcher
from trace_launcher import COUNTERS, SPAN_NAMES, TARGETS
from workloads import Command

#   root 0..100
#   |- a 10..40
#   |  '- a1 15..25
#   '- b 50..70
TREE = [
    (1, None, "cli.run_command", 0, 100),
    (2, 1, "linalg.kernel", 10, 40),
    (3, 2, "linalg.Matrix.rref", 15, 25),
    (4, 1, "linalg.kernel", 50, 70),
]


def test_self_time_subtracts_children():
    assert self_times(TREE) == {1: 50, 2: 20, 3: 10, 4: 20}


def test_overlapping_children_count_once():
    spans = [(1, None, "r", 0, 100), (2, 1, "c", 10, 50), (3, 1, "c", 30, 60),
             (4, 1, "c", 90, 120)]
    assert self_times(spans)[1] == 100 - 50 - 10


def test_aggregate_sums_by_name_and_self_times_add_up():
    agg = aggregate(TREE)
    assert agg["linalg.kernel"] == {"self_s": 40e-9, "calls": 2}
    assert agg["linalg.Matrix.rref"]["calls"] == 1
    total = sum(v["self_s"] for v in agg.values())
    assert total == pytest.approx(root_duration_s(TREE, "cli.run_command"))


def test_per_layer_sums_spans_and_counters():
    # wall 250 ns of which the run_command span covers 100 ns
    result = Result(Command("x", ("x",)), 0, 250e-9, 0.0, 0, b"", b"", False,
                    spans={"spans": TREE, "counters": dict.fromkeys(COUNTERS, 1),
                           "shapes": [[9, 9, 3, 1134, 756]]})
    metrics, problems, shapes = per_layer([result, result], untraced_total=400e-9)
    assert problems == []
    assert metrics["cli.startup_s"] == pytest.approx(2 * 150e-9)
    assert metrics["linalg.kernel.calls"] == 4
    assert metrics["linalg.kernel.self_s"] == pytest.approx(80e-9)
    assert metrics["linalg.rref.max_entries"] == 1
    assert metrics["linalg.rref.entries"] == 2
    assert metrics["trace.total_s"] == pytest.approx(500e-9)
    assert metrics["trace.slowdown"] == pytest.approx(1.25)
    assert shapes == {(9, 9, 3, 1134, 756)}
    assert set(metrics) >= {f"{n}.self_s" for n in SPAN_NAMES}


def test_roadmap_shapes_follow_from_cochain_dimensions():
    for (n, m, p), (rows, cols) in ROADMAP_SHAPES.items():
        assert (comb(n, p + 1) * m, comb(n, p) * m) == (rows, cols)
    assert shape_problems([(9, 9, 3, 1134, 756), (10, 10, 2, 1200, 450)]) == []
    assert shape_problems([(9, 9, 3, 756, 1134)])


def test_every_target_exists():
    import importlib
    for mod, names in TARGETS.items():
        module = importlib.import_module(f"liecoh.{mod}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part)


@pytest.mark.parametrize("algebra, p", [("heisenberg5", 2), ("nilpotent5", 2)])
def test_launcher_records_shapes_and_keeps_output(tmp_path, algebra, p):
    from liecoh import io as lio
    from liecoh.liealg import adjoint_rep
    L = gen.named_algebra(algebra)
    (tmp_path / "ad.json").write_text(lio.emit(lio.representation_to_json(adjoint_rep(L))))
    argv = ["cohomology", "--rep", "ad.json", "--degree", str(p)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    plain = subprocess.run([sys.executable, "-m", "liecoh.cli", *argv], cwd=tmp_path,
                           env=env, capture_output=True, check=True)
    traced = subprocess.run([sys.executable, trace_launcher.__file__,
                             "spans.json", *argv], cwd=tmp_path, env=env,
                            capture_output=True, check=True)
    assert traced.stdout == plain.stdout
    data = json.loads((tmp_path / "spans.json").read_text())
    n = L.dim
    # CohomologySpace builds d_p (kernel) and d_{p-1} (image)
    assert sorted(map(tuple, data["shapes"])) == sorted(
        (n, n, q, comb(n, q + 1) * n, comb(n, q) * n) for q in (p - 1, p))
    assert shape_problems(data["shapes"]) == []
    counters = data["counters"]
    assert counters["cohomology.differential_matrix.distinct"] == 2
    assert counters["io.emit.bytes"] == len(plain.stdout)
    assert 0 < counters["linalg.rref.nnz"] <= counters["linalg.rref.entries"]
    roots = [s for s in data["spans"] if s[1] is None]
    assert [s[2] for s in roots] == ["cli.run_command"]
