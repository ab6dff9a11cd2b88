"""The one JSON writer, ``io.emit``, against the ``json.dumps`` route it replaced.

``dumps_text`` is the former ``emit``, kept here as the oracle: for every
value ``json`` accepts, ``emit`` must give its text byte for byte, and it
must raise ``TypeError`` where ``json`` does.  A ``Cochain`` must be
written as ``json.dumps`` writes ``cochain_dict`` of it (``as_dicts``);
``cochain_dict`` is the former ``io.cochain_to_json``, which built the dict
before the cochain format moved into ``emit``, reading the cochain's pairs
through the key listing of the former ``Cochain.from_pairs``.  Every
cochain in a report reaches ``emit`` as a ``Cochain``, the basis cochains of
``cohomology`` wrapped by ``Cochain.from_pairs``.  The oracle runs on every
report of the benchmark's three workloads (inputs from ``perfbench/gen.py``
at seed 5), on every catalog ``--emit`` file and on hand-made values that
need care: empty containers, degree-0 and empty cochains, two-digit keys,
strings that need escaping, booleans next to ints, floats and non-string
keys.  The sha256 pins below were recorded with the ``json.dumps`` writer.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

from liecoh import io as lio
from liecoh.catalog import catalog_names, heisenberg3
from liecoh.cli import run_command
from liecoh.cochains import Cochain
from liecoh.errors import DimensionMismatchError
from liecoh.liealg import LieAlgebra, adjoint_rep

from conftest import rand_cochain
from test_cochains import listing_from_pairs

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

SEED = 5

# sha256 over each workload's generated files (name, newline, bytes, in name order)
GENERATED = {
    "cohomology-ladder": "0beba30ba7baab2f0cf17f59bcb199887004c0508c6c7efaaa746cdfea3ec802",
    "extension-pipeline": "769ed7171e56e535c8738a62befdc2179572a78793af11b241300f35a5ce9927",
    "cli-catalog": "1c69b744b4324e170648b12ac7242ff07d3043d1c95c0afb810b438a13438567",
}
# the same over every catalog --emit file (name, newline, bytes)
CATALOG_EMITS = "3c1a3d7493d51dc84654c10f63c322afa1d0d129edbe87b0747b50ddd0d76a30"
ABELIAN12_D2 = "1bf9d292e873ea0ce9a42d3b8b21c01ca19d41dd30826347255f1872db84286d"
H3_ADJOINT_D2 = "1934ca76ea2868438361a1ca6d2ce665d2ae0e3eb6343454c0744439e2e21051"


def dumps_text(obj) -> str:
    """The former emit."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def cochain_dict(c):
    """The former io.cochain_to_json: the cochain format as a dict, with the
    stored table of the former Cochain.from_pairs."""
    table = listing_from_pairs(c.algebra.dim, c.degree, c.value_dim, c.pairs)
    coeffs = {}
    for key in sorted(table):
        coeffs[",".join(str(i) for i in key)] = [lio.scalar_to_str(x) for x in table[key]]
    return {"degree": c.degree, "value_dim": c.value_dim, "coeffs": coeffs}


def as_dicts(obj):
    """obj with every Cochain replaced by its cochain_dict."""
    if isinstance(obj, Cochain):
        return cochain_dict(obj)
    if isinstance(obj, dict):
        return {key: as_dicts(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_dicts(value) for value in obj]
    return obj


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        h.update(f"{path.name}\n".encode() + path.read_bytes())
    return h.hexdigest()


def stdout_of(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(args)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for workload in WORKLOADS:
        gen.generate(workload, SEED, str(root / workload))
    return root


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_inputs_are_unchanged(inputs, workload):
    assert digest((inputs / workload).iterdir()) == GENERATED[workload]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_report_matches_the_oracle(inputs, workload, monkeypatch):
    written = []
    real = lio.emit

    def recorded(obj):
        text = real(obj)
        written.append((obj, text))
        return text
    monkeypatch.setattr(lio, "emit", recorded)
    monkeypatch.chdir(inputs / workload)
    cmds = commands(workload, SEED)
    for cmd in cmds:
        with contextlib.redirect_stdout(io.StringIO()):
            run_command(list(cmd.argv))
    assert len(written) == len(cmds)
    for obj, text in written:
        assert text == dumps_text(as_dicts(obj))
    if workload == "cohomology-ladder":
        assert all(isinstance(c, Cochain) for obj, _ in written for c in obj["cocycle_basis"])


def test_catalog_emit_files_are_unchanged(tmp_path):
    names = [name for name in catalog_names() if name != "abelian<n>"] + ["abelian3"]
    paths = []
    for name in names:
        path = tmp_path / f"{name}.json"
        code, out = stdout_of(["catalog", name, "--emit", str(path)])
        assert code == 0
        assert path.read_text() == dumps_text(json.loads(out)["object"])
        paths.append(path)
    assert digest(paths) == CATALOG_EMITS


def h3_adjoint_file(tmp_path) -> str:
    path = tmp_path / "h3-ad.json"
    path.write_text(lio.emit(lio.representation_to_json(adjoint_rep(heisenberg3()))))
    return str(path)


def test_cohomology_stdout_pins(tmp_path):
    code, out = stdout_of(["cohomology", "--algebra", "abelian12", "--degree", "2"])
    assert code == 0 and '"0,10": [' in out
    assert hashlib.sha256(out.encode()).hexdigest() == ABELIAN12_D2
    code, out = stdout_of(["cohomology", "--rep", h3_adjoint_file(tmp_path), "--degree", "2"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == H3_ADJOINT_D2


def test_cohomology_builds_no_dict_and_reads_no_dense_view(tmp_path, monkeypatch):
    """Each basis vector is wrapped by Cochain.from_pairs and written from its
    pairs: no key table is built, and no dense view is read."""
    def refuse(*args, **kwargs):
        raise AssertionError("the cohomology command built a dict or a dense cochain view")
    # Cochain.coordinates and Cochain.coeffs, the dense views, are deleted from the package
    for name in ("__init__", "component", "sparse_coordinates", "nonzero_values"):
        monkeypatch.setattr(Cochain, name, refuse)
    monkeypatch.setattr(lio, "cochain_to_json", refuse)
    rep = h3_adjoint_file(tmp_path)
    code, out = stdout_of(["cohomology", "--algebra", "abelian12", "--degree", "2"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ABELIAN12_D2
    code, out = stdout_of(["cohomology", "--rep", rep, "--degree", "2"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == H3_ADJOINT_D2


F = Fraction

def sparse(n, degree, value_dim, pairs):
    return Cochain.from_pairs(LieAlgebra(n), degree, value_dim, pairs)


COCHAINS = {
    "degree-0": sparse(3, 0, 2, ((1, F(3)),)),
    "degree-0-empty": sparse(0, 0, 1, ()),
    "value-dim-0": sparse(4, 2, 0, ()),
    "value-dim-1": sparse(4, 2, 1, ((0, F(1)), (3, F(-2)), (5, F(1, 3)))),
    "no-nonzero-pair": sparse(4, 2, 3, ()),
    # the values at (0,1) and (0,3) are zero, so the cochain keeps no pair
    "only-zero-pairs": Cochain(LieAlgebra(4), 2, 3, {(0, 1): (0, 0, 0), (0, 3): (0, 0, 0)}),
    # keys (0,1) (0,2) (0,10) (0,11) (1,11) (10,11): string order differs from index order
    "two-digit-keys": sparse(12, 2, 2, (
        (0, F(1)), (3, F(-1)), (19, F(5, 2)), (21, F(7)), (40, F(-3, 4)), (131, F(2)))),
    "degree-3-two-digit": sparse(11, 3, 1, tuple(
        (i, F((-1) ** i * (i + 1), 1 + i % 3)) for i in range(0, 165, 7))),
    "negative-and-fractional": sparse(3, 1, 3, (
        (0, F(-1)), (2, F(1, 2)), (4, F(-7, 3)), (8, F(10 ** 20, 3)))),
}


@pytest.mark.parametrize("name", sorted(COCHAINS))
def test_sparse_cochains_match_the_dict_route(name):
    c = COCHAINS[name]
    for obj in (c, [c], {"a": [{"b": c}], "c": (c, c)}, [[[c]], {}]):
        assert lio.emit(obj) == dumps_text(as_dicts(obj))


def test_cochains_of_several_shapes_in_one_report():
    report = {"x": [COCHAINS[name] for name in sorted(COCHAINS)],
              "y": list(reversed(list(COCHAINS.values())))}
    assert lio.emit(report) == dumps_text(as_dicts(report))


def test_cochain_to_json_is_written_as_the_former_dict():
    rng = random.Random(89)
    L = heisenberg3()
    cochains = [Cochain(L, 0, 2), Cochain(LieAlgebra(12), 2, 1, {(1, 10): [3], (2, 11): [-1]})]
    cochains += [rand_cochain(rng, L, degree, value_dim, sparsity)
                 for degree in range(4) for value_dim in (1, 3) for sparsity in (0.0, 0.6)]
    for c in cochains:
        obj = lio.cochain_to_json(c)
        assert obj is c
        assert lio.emit(obj) == dumps_text(cochain_dict(c))
        assert lio.emit({"c": [obj]}) == dumps_text({"c": [cochain_dict(c)]})


def test_a_sparse_cochain_checks_its_indices():
    with pytest.raises(DimensionMismatchError):
        sparse(3, 2, 2, ((6, F(1)),))
    with pytest.raises(DimensionMismatchError):
        sparse(3, 1, 0, ((0, F(1)),))


class Level(IntEnum):
    LOW = 3


class Name(str):
    pass


VALUES = {
    "empty-dict": {},
    "empty-list": [],
    "empty-tuple": (),
    "nested-empties": {"a": {}, "b": [], "c": [[], {}, [[]]], "d": {"e": {"f": [{}]}}},
    "list-of-empties": [{}, [], [{}], {"g": []}],
    "strings": ['"quoted"', "back\\slash", "\x00\x01\x1f\t\n\r\b\f", "\x7f", "é", "日本語",
                "\U0001f600", "  ", "/", ""],
    "string-keys": {'"q"': 1, "a\\b": 2, "\n": 3, "ü": 4, "": 5, "\U0001f600": 6},
    "bools-and-ints": [True, 1, False, 0, -1, 2 ** 70, -(3 ** 50)],
    "bool-values": {"t": True, "one": 1, "f": False, "zero": 0, "none": None},
    "floats": [0.1, -0.0, 0.0, 1e300, 1e-7, 2.5, float("nan"), float("inf"),
               -float("inf"), 1e16, 123456789.125],
    "float-keys": {1.5: "a", -2.0: "b", float("inf"): "c", 1e-9: "d"},
    "nan-key": {float("nan"): 1},
    "int-keys": {10: "a", 2: "b", -1: "c", 0: "d"},
    "bool-keys": {True: 1, False: 0},
    "none-key": {None: [None]},
    "tuples": (1, ("a", (None,)), {"k": (True, ())}),
    "subclasses": [Level.LOW, {Level.LOW: Name("n")}, OrderedDict([("b", 1), ("a", 2)]),
                   Name("x\ty")],
    "deep": {"a": [{"b": [{"c": [[["d"]]]}]}]},
    "scalar-string": "top",
    "scalar-int": 7,
    "scalar-none": None,
    "scalar-true": True,
    "scalar-float": 3.25,
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_match_json_dumps(name, monkeypatch):
    want = dumps_text(VALUES[name])

    def refuse(*args, **kwargs):
        raise AssertionError("emit called json.dumps")
    monkeypatch.setattr(json, "dumps", refuse)
    assert lio.emit(VALUES[name]) == want


def test_true_and_one_stay_apart():
    assert lio.emit([True, 1, False, 0]) == "[\n  true,\n  1,\n  false,\n  0\n]\n"
    assert lio.emit({}) == "{}\n" and lio.emit({"a": []}) == '{\n  "a": []\n}\n'


UNSUPPORTED = {
    "object": object(),
    "fraction": Fraction(1, 2),
    "set": {1, 2},
    "bytes": b"x",
    "nested": {"a": [1, {"b": Fraction(1, 3)}]},
    "tuple-key": {(1, 2): "x"},
    "mixed-keys": {1: "a", "b": 2},
}


@pytest.mark.parametrize("name", sorted(UNSUPPORTED))
def test_unsupported_values_raise_type_error(name):
    with pytest.raises(TypeError):
        dumps_text(UNSUPPORTED[name])
    with pytest.raises(TypeError):
        lio.emit(UNSUPPORTED[name])
