"""The generated inputs: valid, and basis changes that move no invariant."""

import contextlib
import io
import json
import os
from math import comb

import pytest

import gen
from liecoh.cli import run_command
from liecoh.cohomology import cohomology
from liecoh.liealg import Representation
from run import EXPECTED, Result, check, invariants
from workloads import WORKLOADS, Command, commands, heisenberg_betti

SEEDS = (0, 1, 7)


def liecoh(argv, cwd):
    out = io.StringIO()
    old = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out):
            code = run_command(list(argv))
    finally:
        os.chdir(old)
    return code, out.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_generated_input_passes_validate(tmp_path, workload, seed):
    manifest = gen.generate(workload, seed, str(tmp_path))
    assert manifest
    for entry in manifest:
        flag = "--ext" if entry["kind"].startswith("ext") else f"--{entry['kind']}"
        code, out = liecoh(["validate", flag, entry["file"]], tmp_path)
        report = json.loads(out)["report"]
        if entry["kind"] == "ext-invalid":
            assert code == 2 and not report["factor_system"]["valid"]
        else:
            assert code == 0, out


def test_same_seed_same_inputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    gen.generate("extension-pipeline", 5, str(a))
    gen.generate("extension-pipeline", 5, str(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    gen.generate("extension-pipeline", 6, str(tmp_path / "c"))
    assert (a / "center-h7.json").read_bytes() != (tmp_path / "c" / "center-h7.json").read_bytes()


def test_betti_closed_form():
    # h3: 1, 2, 2, 1; h5: 1, 4, 5, 5, 4, 1
    assert [heisenberg_betti(1, p) for p in range(4)] == [1, 2, 2, 1]
    assert [heisenberg_betti(2, p) for p in range(6)] == [1, 4, 5, 5, 4, 1]


@pytest.mark.parametrize("seed", SEEDS + (2, 3))
def test_heisenberg_h1_h2_for_every_seed(tmp_path, seed):
    gen.generate("cohomology-ladder", seed, str(tmp_path))
    from liecoh import io as lio
    for k in (2, 3, 4):
        L = lio.load_file(str(tmp_path / f"heisenberg{2 * k + 1}.json"), "algebra")
        rep = Representation.trivial(L, 1)
        assert cohomology(rep, 1).h_dim == 2 * k
        assert cohomology(rep, 2).h_dim == comb(2 * k, 2) - 1


@pytest.mark.parametrize("workload", ("cli-catalog", "extension-pipeline"))
def test_invariants_match_the_recorded_seed(tmp_path, workload):
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[workload]
    gen.generate(workload, 3, str(tmp_path))
    for cmd in commands(workload, 3):
        if "h9" in cmd.id:
            continue  # the h9 systems take seconds each; the benchmark checks them
        code, out = liecoh(cmd.argv, tmp_path)
        assert code == expected[cmd.id]["exit"], cmd.id
        assert invariants(json.loads(out)) == expected[cmd.id]["invariants"], cmd.id


def test_gate_reads_a_crash_as_a_traceback():
    cmd = Command("cohomology --algebra heisenberg5.json --degree 2",
                  ("cohomology",), closed_form={"dim_cohomology": 5})
    expected = {"exit": 0, "invariants": {"/dim_cohomology": 5}}
    crash = Result(cmd, 1, 0.1, 0.1, 0, b"", b"Traceback (most recent call last):\n",
                   False)
    assert check(crash, expected) == ["traceback on stderr", "stdout is not JSON",
                                      "exit 1, expected 0"]
    wrong = Result(cmd, 0, 0.1, 0.1, 0, b'{"dim_cohomology": 4}', b"", False)
    assert check(wrong, expected) == [
        "dim_cohomology = 4, closed form gives 5",
        "invariants differ at ['/dim_cohomology']"]
    right = Result(cmd, 0, 0.1, 0.1, 0, b'{"dim_cohomology": 5}', b"", False)
    assert check(right, expected) == []
    late = Result(cmd, -9, 100.0, 100.0, 0, b"", b"", True)
    assert check(late, expected) == ["timed out"]
