import builtins
import hashlib
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from liecoh import io as lio
from liecoh.catalog import catalog, ext_heisenberg3, ext_heisenberg_kernel, heisenberg3
from liecoh.cli import run_command
from liecoh.cochains import Cochain
from liecoh.errors import ParseError, InvariantViolation
from liecoh.liealg import adjoint_rep
from liecoh.linalg import Matrix


def cli_env(**settings):
    """Environment for a liecoh child process that imports what this one does."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **settings)


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------

def test_scalar_strings():
    assert lio.scalar_to_str(Fraction(3)) == "3"
    assert lio.scalar_to_str(Fraction(-1, 2)) == "-1/2"
    assert lio.scalar_from_str("7/3") == Fraction(7, 3)
    assert lio.scalar_from_str("-4") == Fraction(-4)
    with pytest.raises(ParseError):
        lio.scalar_from_str("1/0")
    with pytest.raises(ParseError):
        lio.scalar_from_str("0.5e3x")


def former_scalar_to_str(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def test_scalar_to_str_matches_the_former_function():
    big = 3 ** 90
    values = [0, 1, -1, 7, -12, big, -big, True,
              Fraction(0), Fraction(3), Fraction(-1, 2), Fraction(big, 7),
              Fraction(-7, big), Fraction(big, big + 1), Fraction(10, 4),
              "3/6", "-4", 0.5, -0.125, Decimal("2.75"), Decimal("-10")]
    for x in values:
        assert lio.scalar_to_str(x) == former_scalar_to_str(x), x


def test_algebra_round_trip_bytes():
    L = heisenberg3()
    text = lio.emit(lio.algebra_to_json(L))
    back = lio.algebra_from_json(json.loads(text))
    assert back == L and back.labels == L.labels
    assert lio.emit(lio.algebra_to_json(back)) == text


def test_algebra_jacobi_violation_reported():
    data = {"dim": 3, "basis": ["a", "b", "c"], "brackets": [
        {"i": 0, "j": 1, "value": {"2": "1"}},
        {"i": 1, "j": 2, "value": {"0": "1"}},
        {"i": 0, "j": 2, "value": {"0": "1"}},
    ]}
    with pytest.raises(InvariantViolation) as exc:
        lio.algebra_from_json(data)
    assert "jacobi at triple (0, 1, 2)" in exc.value.violations


def test_cochain_round_trip():
    g = catalog("abelian2")
    c = Cochain(g, 2, 2, {(0, 1): ("1/2", "-3")})
    text = lio.emit(lio.cochain_to_json(c))
    back = lio.cochain_from_json(json.loads(text), g)
    assert back == c
    assert lio.emit(lio.cochain_to_json(back)) == text


def test_factor_system_round_trip():
    fs = ext_heisenberg_kernel()
    text = lio.emit(lio.factor_system_to_json(fs))
    back = lio.factor_system_from_json(json.loads(text))
    assert back.S == fs.S and back.omega == fs.omega
    assert lio.emit(lio.factor_system_to_json(back)) == text


def test_representation_round_trip():
    from liecoh.liealg import adjoint_rep
    rep = adjoint_rep(heisenberg3())
    text = lio.emit(lio.representation_to_json(rep))
    back = lio.representation_from_json(json.loads(text))
    assert back == rep


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------

def run_cli(args, capsys):
    code = run_command(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_cli_cohomology_catalog(capsys):
    code, report = run_cli(["cohomology", "--algebra", "heisenberg3",
                            "--degree", "2"], capsys)
    assert code == 0
    assert report["dim_cohomology"] == 2


def test_cli_catalog_emit(tmp_path, capsys):
    out = tmp_path / "h3.json"
    code, report = run_cli(["catalog", "heisenberg3", "--emit", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["dim"] == 3
    code2, _ = run_cli(["cohomology", "--algebra", str(out), "--degree", "2"],
                       capsys)
    assert code2 == 0


def test_cli_unknown_catalog_name(capsys):
    code, report = run_cli(["catalog", "nope"], capsys)
    assert code == 1
    assert set(report) == {"command", "error"}
    assert report["error"]["kind"] == "UnknownNameError"
    assert set(report["error"]) == {"kind", "message"}


def test_cli_split_factor_system_flags(tmp_path, capsys):
    # --n/--g/--S/--omega as separate files, algebras by catalog name
    s_file = tmp_path / "S.json"
    s_file.write_text(lio.emit({"matrices": [[["0"]], [["0"]]]}))
    omega_file = tmp_path / "omega.json"
    omega_file.write_text(lio.emit(
        {"degree": 2, "value_dim": 1, "coeffs": {"0,1": ["1"]}}))
    code, report = run_cli(["extension", "build", "--n", "abelian1",
                            "--g", "abelian2", "--S", str(s_file),
                            "--omega", str(omega_file)], capsys)
    assert code == 0
    assert report["center_dim"] == 1
    code, report = run_cli(["obstruction", "--n", "abelian1", "--g", "abelian2",
                            "--S", str(s_file), "--omega", str(omega_file)],
                           capsys)
    assert code == 0
    assert report["obstruction"]["zero"]


def test_cli_validate_provenance(tmp_path, capsys):
    path = tmp_path / "h3.json"
    path.write_text(lio.emit(lio.algebra_to_json(heisenberg3())))
    code, report = run_cli(["validate", "--algebra", str(path)], capsys)
    assert code == 0
    assert report["report"]["algebra"]["jacobi"]
    assert report["provenance"]["algebra"]["source"] == str(path)
    assert len(report["provenance"]["algebra"]["sha256"]) == 64


def _ext_and_invalid_cm(tmp_path):
    """A valid factor-system file and a crossed-module file failing both axioms:
    identity alpha on heisenberg3 with the zero action."""
    ext = tmp_path / "fs.json"
    ext.write_text(lio.emit(lio.factor_system_to_json(ext_heisenberg3())))
    h3 = lio.algebra_to_json(heisenberg3())
    zero = lio.matrix_to_json(Matrix.zero(3, 3))
    cm = tmp_path / "cm.json"
    cm.write_text(lio.emit({"h": h3, "ghat": h3,
                            "alpha": lio.matrix_to_json(Matrix.identity(3)),
                            "action": [zero, zero, zero]}))
    return ext, cm


def test_cli_validate_ext_with_missing_cm_exits_one(tmp_path, capsys):
    ext, _ = _ext_and_invalid_cm(tmp_path)
    code, report = run_cli(["validate", "--ext", str(ext),
                            "--cm", str(tmp_path / "missing.json")], capsys)
    assert code == 1
    assert "error" in report


def test_cli_validate_hashes_each_input_as_read_in_one_open(tmp_path, capsys, monkeypatch):
    """The checksum is of the bytes on disk, CRLF line ends included, and each
    input file is opened once: the bytes hashed are the bytes parsed."""
    ext, cm = _ext_and_invalid_cm(tmp_path)
    algebra, rep = tmp_path / "h3.json", tmp_path / "rep.json"
    algebra.write_text(lio.emit(lio.algebra_to_json(heisenberg3())))
    rep.write_text(lio.emit(lio.representation_to_json(adjoint_rep(heisenberg3()))))
    inputs = {"algebra": algebra, "representation": rep, "extension": ext,
              "crossed-module": cm}
    for path in inputs.values():
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    code, report = run_cli(["validate", "--algebra", str(algebra), "--rep", str(rep),
                            "--ext", str(ext), "--cm", str(cm)], capsys)
    monkeypatch.undo()
    assert code == 2
    for name, path in inputs.items():
        assert opened.count(str(path)) == 1
        assert report["provenance"][name] == {
            "source": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def test_cli_validate_reports_every_flag(tmp_path, capsys):
    ext, cm = _ext_and_invalid_cm(tmp_path)
    code, report = run_cli(["validate", "--ext", str(ext), "--cm", str(cm)], capsys)
    assert code == 2
    assert report["report"]["factor_system"]["valid"]
    assert not report["report"]["crossed_module"]["valid"]
    assert set(report["provenance"]) == {"extension", "crossed-module"}


def test_representation_catalog_reference():
    data = {"algebra": "heisenberg3", "space_dim": 1,
            "matrices": [[["0"]], [["0"]], [["0"]]]}
    rep = lio.representation_from_json(data)
    assert rep.algebra == heisenberg3()


def test_cli_extension_build_and_check(tmp_path, capsys):
    bundle = tmp_path / "fs.json"
    bundle.write_text(lio.emit(lio.factor_system_to_json(ext_heisenberg3())))
    code, report = run_cli(["extension", "build", "--ext", str(bundle)], capsys)
    assert code == 0
    assert report["center_dim"] == 1
    code, report = run_cli(["extension", "check", "--ext", str(bundle)], capsys)
    assert code == 0
    assert report["report"]["valid"]


def test_cli_invalid_factor_system_exit_two(tmp_path, capsys):
    data = {
        "n": lio.algebra_to_json(catalog("abelian1")),
        "g": lio.algebra_to_json(catalog("abelian3")),
        "S": [[["1"]], [["0"]], [["0"]]],
        "omega": {"degree": 2, "value_dim": 1, "coeffs": {"1,2": ["1"]}},
    }
    bundle = tmp_path / "bad.json"
    bundle.write_text(lio.emit(data))
    code, report = run_cli(["extension", "build", "--ext", str(bundle)], capsys)
    assert code == 2
    cert = report["error"]["certificate"]
    assert cert["cocycle_failures"] == [[0, 1, 2]]
    # check reports the same certificate without raising
    code, report = run_cli(["extension", "check", "--ext", str(bundle)], capsys)
    assert code == 2
    assert report["report"]["cocycle_failures"] == [[0, 1, 2]]


def test_cli_parse_error_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "brackets": [{"i": 0, "j": 0, "value": {"0": "1/0"}}]}')
    code, report = run_cli(["cohomology", "--algebra", str(bad), "--degree", "1"],
                           capsys)
    assert code == 1
    assert report["error"]["kind"] in ("ParseError", "DimensionMismatchError")


def test_cli_negative_algebra_dimension_exit_one(tmp_path, capsys):
    path = tmp_path / "algebra.json"
    path.write_text('{"dim": -2, "brackets": []}')
    code, report = run_cli(["validate", "--algebra", str(path)], capsys)
    assert (code, report["error"]) == (1, {"kind": "DimensionMismatchError",
                                           "message": "algebra dimension -2 is negative"})


def test_cli_negative_module_dimension_exit_one(tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text('{"algebra": {"dim": 0}, "space_dim": -1, "matrices": []}')
    for argv in (["validate", "--rep", str(path)],
                 ["cohomology", "--rep", str(path), "--degree", "0"]):
        code, report = run_cli(argv, capsys)
        assert (code, report["error"]) == (1, {"kind": "DimensionMismatchError",
                                               "message": "module dimension -1 is negative"})


@pytest.mark.parametrize("degree, value_dim", [(-1, 1), (2, -1), (-1, -1)])
def test_cli_negative_cochain_sizes_exit_one(tmp_path, capsys, degree, value_dim):
    header = {"degree": degree, "value_dim": value_dim}
    omega, zero_s = tmp_path / "omega.json", tmp_path / "S.json"
    omega.write_text(lio.emit(dict(header, coeffs={})))
    zero_s.write_text(lio.emit([[["0"]], [["0"]]]))
    code, report = run_cli(["extension", "build", "--n", "abelian1", "--g", "abelian2",
                            "--S", str(zero_s), "--omega", str(omega)], capsys)
    assert code == 1 and report["error"]["kind"] == "ParseError"
    assert report["error"]["message"] == (
        f"invalid cochain: cochain degree {degree} and value dimension {value_dim} "
        "must be nonnegative")
    with pytest.raises(ParseError):
        lio.cochain_from_json(dict(header, coeffs={}), catalog("abelian2"))


def test_cli_emit_applies_to_extension_build_only(tmp_path, capsys):
    bundle, target = tmp_path / "fs.json", tmp_path / "total.json"
    bundle.write_text(lio.emit(lio.factor_system_to_json(ext_heisenberg3())))
    for action in ("check", "classify", "reduce"):
        code, report = run_cli(["extension", action, "--ext", str(bundle),
                                "--emit", str(target)], capsys)
        assert (code, report["error"]["kind"]) == (1, "ParseError")
        assert report["error"]["message"] == (
            f"--emit writes the built algebra, so it applies to build, not to {action}")
        assert not target.exists()
    code, report = run_cli(["extension", "build", "--ext", str(bundle),
                            "--emit", str(target)], capsys)
    assert code == 0
    assert json.loads(target.read_text()) == report["total"]


# Each file holds JSON of the wrong kind at one place: a list or a number
# where an object or a list belongs.  Every one of them used to end in a
# traceback (AttributeError or TypeError) instead of a ParseError.
OMEGA_HEADER = {"degree": 2, "value_dim": 1}
MALFORMED_INPUTS = {
    "lift-pair-list": (["lift", "--ext", "{fs}", "--pair", "{data}"], [1, 2],
                       "a pair file must be an object"),
    "automorphism-pair-list": (["automorphism", "--ext", "{fs}", "--pair", "{data}"], [1, 2],
                               "a pair file must be an object"),
    "psi-n-number": (["lift", "--ext", "{fs}", "--pair", "{data}"],
                     {"h": "abelian2", "psi_n": 3}, "psi_n must be a list"),
    "s-number": (["extension", "build", "--n", "abelian1", "--g", "abelian2", "--S", "{data}"],
                 5, "the --S matrices must be a list"),
    "representation-matrices-number": (["validate", "--rep", "{data}"],
                                       {"algebra": "heisenberg3", "space_dim": 1,
                                        "matrices": 5},
                                       "the representation matrices must be a list"),
    "omega-coeffs-list": (["extension", "build", "--n", "abelian1", "--g", "abelian2",
                           "--S", "{zero_s}", "--omega", "{data}"],
                          dict(OMEGA_HEADER, coeffs=[["1"]]),
                          "the cochain coeffs must be an object"),
    "omega-value-scalar": (["extension", "build", "--n", "abelian1", "--g", "abelian2",
                            "--S", "{zero_s}", "--omega", "{data}"],
                           dict(OMEGA_HEADER, coeffs={"0,1": 1}),
                           "the cochain value at '0,1' must be a list"),
    "algebra-basis-number": (["validate", "--algebra", "{data}"],
                             {"dim": 1, "basis": 5}, "the basis labels must be a list"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_cli_malformed_json_is_a_parse_error(tmp_path, capsys, case):
    argv, data, message = MALFORMED_INPUTS[case]
    files = {"fs": lio.factor_system_to_json(ext_heisenberg3()),
             "zero_s": [[["0"]], [["0"]]], "data": data}
    paths = {}
    for name, content in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(lio.emit(content))
    code, report = run_cli([arg.format(**paths) for arg in argv], capsys)
    assert code == 1
    assert report["error"] == {"kind": "ParseError", "message": message}


# Integer fields of input files.  int() used to read them: a non-finite
# number ended in an OverflowError traceback, and a fractional number or a
# boolean was silently truncated to an integer.
def ext_text(part, field, value):
    data = json.loads(lio.emit(lio.factor_system_to_json(ext_heisenberg3())))
    data[part][field] = value
    return lio.emit(data)


ZERO_REP_MATRICES = [[["0"]], [["0"]], [["0"]]]
INTEGER_FIELDS = {
    "ext-n-dim-infinity": ("--ext", ext_text("n", "dim", math.inf),
                           "dim must be an integer, got Infinity"),
    "ext-omega-value-dim-infinity": ("--ext", ext_text("omega", "value_dim", math.inf),
                                     "value_dim must be an integer, got Infinity"),
    "algebra-dim-1e999": ("--algebra", '{"dim": 1e999}\n',
                          "dim must be an integer, got Infinity"),
    "algebra-dim-fractional": ("--algebra", '{"dim": 7.9}\n',
                               "dim must be an integer, got 7.9"),
    "ext-omega-degree-fractional": ("--ext", ext_text("omega", "degree", 2.5),
                                    "degree must be an integer, got 2.5"),
    "bracket-index-fractional": (
        "--algebra", '{"dim": 2, "brackets": [{"i": 0.5, "j": 1, "value": {"1": "1"}}]}\n',
        "bracket i must be an integer, got 0.5"),
    "space-dim-boolean": ("--rep", lio.emit({"algebra": "heisenberg3", "space_dim": True,
                                             "matrices": ZERO_REP_MATRICES}),
                          "space_dim must be an integer, got true"),
    # not JSON at all: the ParseError of load_json_text
    "algebra-malformed-json": ("--algebra", '{"dim": 2,\n',
                               "invalid JSON: Expecting property name enclosed in double "
                               "quotes: line 2 column 1 (char 11)"),
}


# a JSON boolean is not a rational, and no entry may silently overwrite an
# earlier one that reads as the same key
REJECTED_ENTRIES = {
    "matrix-entry-boolean": ("--rep", lio.emit({"algebra": "abelian1", "space_dim": 1,
                                                "matrices": [[[True]]]}),
                             "expected a rational string, got bool"),
    "bracket-value-boolean": (
        "--algebra", '{"dim": 3, "brackets": [{"i": 0, "j": 1, "value": {"2": true}}]}\n',
        "expected a rational string, got bool"),
    "cochain-value-boolean": ("--ext", ext_text("omega", "coeffs", {"0,1": [False]}),
                              "expected a rational string, got bool"),
    "bracket-pair-twice": (
        "--algebra", '{"dim": 3, "brackets": [{"i": 0, "j": 1, "value": {"2": "1"}}, '
                     '{"i": 0, "j": 1, "value": {"2": "2"}}]}\n',
        "bracket (0,1) is given twice"),
    "bracket-value-index-twice": (
        "--algebra",
        '{"dim": 3, "brackets": [{"i": 0, "j": 1, "value": {"2": "1", "02": "3"}}]}\n',
        "bracket (0,1) names value index 2 twice"),
    "cochain-key-twice": ("--ext", ext_text("omega", "coeffs", {"0,1": ["1"], "00,1": ["2"]}),
                          "cochain keys '0,1' and '00,1' both read as (0, 1)"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_ENTRIES))
def test_cli_rejects_booleans_and_repeated_keys(tmp_path, capsys, case):
    flag, text, message = REJECTED_ENTRIES[case]
    path = tmp_path / "data.json"
    path.write_text(text)
    code, report = run_cli(["validate", flag, str(path)], capsys)
    assert code == 1
    assert report == {"command": "validate", "error": {"kind": "ParseError", "message": message}}


# json.loads keeps the last of two equal keys in one object, so each of these
# validated with the repeated key's last value
REPEATED_KEYS = {
    "bracket-value-index": (
        "--algebra", '{"dim": 3, "brackets": [{"i": 0, "j": 1, "value": {"2": "1", "2": "5"}}]}\n',
        '"2"'),
    "top-level-field": ("--algebra", '{"dim": 3, "dim": 4, "brackets": []}\n', '"dim"'),
    "cochain-key": ("--ext", ext_text("omega", "coeffs", {"0,1": ["1"], "1,1": ["2"]})
                    .replace('"1,1"', '"0,1"'), '"0,1"'),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_cli_rejects_a_key_given_twice_in_one_object(tmp_path, capsys, case):
    flag, text, key = REPEATED_KEYS[case]
    path = tmp_path / "data.json"
    path.write_text(text)
    code, report = run_cli(["validate", flag, str(path)], capsys)
    assert code == 1
    assert report == {"command": "validate", "error": {
        "kind": "ParseError", "message": f"invalid JSON: key {key} is given twice in one object"}}


# int() reads each of these as an index: "1_0" as 10, " 3", "+3" and the
# full-width "３" as 3, in a bracket value and in a cochain key alike
INDEX_FORMS = {"underscore": ("1_0", "0_1"), "space": (" 3", " 1"), "plus": ("+3", "+1"),
               "full-width": ("\uff13", "\uff11")}


@pytest.mark.parametrize("form", sorted(INDEX_FORMS))
def test_cli_rejects_index_strings_that_are_not_plain_digits(tmp_path, capsys, form):
    in_bracket, in_key = INDEX_FORMS[form]
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps({"dim": 11, "brackets": [{"i": 0, "j": 1,
                                                         "value": {in_bracket: "1"}}]}))
    code, report = run_cli(["validate", "--algebra", str(path)], capsys)
    assert code == 1
    assert report["error"] == {"kind": "ParseError", "message":
                               f"bracket k must be an integer, got {json.dumps(in_bracket)}"}
    path = tmp_path / "ext.json"
    path.write_text(ext_text("omega", "coeffs", {"0," + in_key: ["1"]}))
    code, report = run_cli(["validate", "--ext", str(path)], capsys)
    assert code == 1
    assert report["error"] == {"kind": "ParseError",
                               "message": f"invalid cochain key {'0,' + in_key!r}"}


@pytest.mark.parametrize("case", sorted(INTEGER_FIELDS))
def test_cli_integer_fields_must_be_integers(tmp_path, capsys, case):
    flag, text, message = INTEGER_FIELDS[case]
    path = tmp_path / "data.json"
    path.write_text(text)
    code, report = run_cli(["validate", flag, str(path)], capsys)
    assert code == 1
    assert report == {"command": "validate", "error": {"kind": "ParseError", "message": message}}


def test_integer_strings_and_integral_numbers_still_parse(tmp_path, capsys):
    path = tmp_path / "data.json"
    path.write_text('{"dim": "2", "brackets": [{"i": "0", "j": 1.0, "value": {"1": "1"}}]}\n')
    code, _ = run_cli(["validate", "--algebra", str(path)], capsys)
    assert code == 0
    assert lio.algebra_from_json(json.loads(path.read_text())).structure_table() == {
        (0, 1): ((1, Fraction(1)),)}
    assert [lio.json_int(v, "f") for v in (3, "3", "03", "-2", 3.0, -2)] == [3, 3, 3, -2, 3, -2]
    for bad in (True, False, None, 3.5, math.inf, -math.inf, math.nan, "3.0", "x", [3], {},
                " 3", "3 ", "+3", "1_0", "\uff13", "", "-", "--3"):
        with pytest.raises(ParseError, match="^f must be an integer, got "):
            lio.json_int(bad, "f")


def test_cli_jacobi_violation_exit_one(tmp_path, capsys):
    bad = tmp_path / "nojacobi.json"
    bad.write_text(lio.emit({"dim": 3, "basis": ["a", "b", "c"], "brackets": [
        {"i": 0, "j": 1, "value": {"2": "1"}},
        {"i": 1, "j": 2, "value": {"0": "1"}},
        {"i": 0, "j": 2, "value": {"0": "1"}},
    ]}))
    code, report = run_cli(["validate", "--algebra", str(bad)], capsys)
    assert code == 1
    assert "jacobi at triple (0, 1, 2)" in report["error"]["violations"]


def test_cli_obstruction_and_classify(tmp_path, capsys):
    bundle = tmp_path / "fs.json"
    bundle.write_text(lio.emit(lio.factor_system_to_json(ext_heisenberg_kernel())))
    code, report = run_cli(["obstruction", "--ext", str(bundle)], capsys)
    assert code == 0
    assert report["obstruction"]["zero"]
    code, report = run_cli(["extension", "classify", "--ext", str(bundle)], capsys)
    assert code == 0
    assert report["translation_dim"] == 1
    code, report = run_cli(["extension", "reduce", "--ext", str(bundle)], capsys)
    assert code == 0
    assert report["round_trip_witnessed"]


def test_cli_derivations(tmp_path, capsys):
    bundle = tmp_path / "fs.json"
    bundle.write_text(lio.emit(lio.factor_system_to_json(ext_heisenberg3())))
    code, report = run_cli(["derivations", "--ext", str(bundle)], capsys)
    assert code == 0
    assert report["report"]["total_derivation_dim"] == 6
    assert report["report"]["exact"]


def test_cli_lift_and_automorphism(tmp_path, capsys):
    from liecoh.catalog import ext_filiform4
    fs = ext_filiform4()
    bundle = tmp_path / "fs.json"
    bundle.write_text(lio.emit(lio.factor_system_to_json(fs)))
    pair = tmp_path / "pair.json"
    pair.write_text(lio.emit({
        "h": lio.algebra_to_json(catalog("abelian2")),
        "psi_n": [[["0"]], [["0"]]],
        "psi_g": [
            [["0", "0", "0"], ["0", "0", "0"], ["1", "0", "0"]],
            [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]],
        ],
        "theta": [
            {"degree": 1, "value_dim": 1, "coeffs": {}},
            {"degree": 1, "value_dim": 1, "coeffs": {"2": ["1"]}},
        ],
    }))
    code, report = run_cli(["lift", "--ext", str(bundle), "--pair", str(pair)],
                           capsys)
    assert code == 2
    assert report["lift_exists"] is False

    aut = tmp_path / "aut.json"
    aut.write_text(lio.emit({
        "alpha": [["1"]],
        "beta": [["0", "1", "0"], ["1", "0", "0"], ["0", "0", "-1"]],
    }))
    code, report = run_cli(["automorphism", "--ext", str(bundle),
                            "--pair", str(aut)], capsys)
    assert code == 2
    assert report["lift_exists"] is False
    assert not report["obstruction"]["zero"]


@pytest.mark.parametrize("theta, shape", [
    # value_dim past n.dim with an entry set past n: an IndexError traceback from
    # LieAlgebra.ad before theta's shape was checked
    ({"degree": 1, "value_dim": 4, "coeffs": {"0": ["0", "0", "0", "1"]}},
     "got degree 1 and value_dim 4"),
    # degree 2: a misleading "x.omega is not the covariant differential" before
    ({"degree": 2, "value_dim": 1, "coeffs": {"0,1": ["1"]}}, "got degree 2 and value_dim 1"),
], ids=["value-dim", "degree"])
def test_cli_lift_rejects_a_misshapen_theta(tmp_path, theta, shape):
    fs = ext_heisenberg3()
    bundle = tmp_path / "fs.json"
    bundle.write_text(lio.emit(lio.factor_system_to_json(fs)))
    pair = tmp_path / "pair.json"
    pair.write_text(lio.emit({
        "h": lio.algebra_to_json(catalog("abelian1")),
        "psi_n": [lio.matrix_to_json(Matrix.zero(fs.n.dim, fs.n.dim))],
        "psi_g": [lio.matrix_to_json(Matrix.zero(fs.g.dim, fs.g.dim))],
        "theta": [theta],
    }))
    proc = subprocess.run([sys.executable, "-m", "liecoh.cli", "lift", "--ext", str(bundle),
                           "--pair", str(pair)], capture_output=True, env=cli_env())
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {"command": "lift", "error": {
        "kind": "DimensionMismatchError",
        "message": f"theta at index 0 must be a 1-cochain on g valued in n: {shape}, "
                   "expected 1 and 1"}}


def test_cli_crossed_module(tmp_path, capsys):
    from liecoh.extensions import GKernel, build_quotient_stage
    fs = ext_heisenberg_kernel()
    stage = build_quotient_stage(GKernel.from_factor_system(fs))
    cm_data = {
        "h": lio.algebra_to_json(fs.n),
        "ghat": lio.algebra_to_json(stage.gs),
        "alpha": lio.matrix_to_json(stage.alpha_matrix),
        "action": [lio.matrix_to_json(m) for m in stage.rho.matrices],
    }
    path = tmp_path / "cm.json"
    path.write_text(lio.emit(cm_data))
    code, report = run_cli(["crossed-module", "validate", "--cm", str(path)],
                           capsys)
    assert code == 0
    assert report["report"]["valid"]
    code, report = run_cli(["crossed-module", "class", "--cm", str(path)], capsys)
    assert code == 0
    assert report["routes_agree"] and report["theta_route"]["zero"]


def test_cli_v2_check_deterministic(capsys):
    code, report1 = run_cli(["v2-check", "--samples", "25", "--seed", "3"], capsys)
    assert code == 0
    assert report1["report"]["failures"] == 0
    code, report2 = run_cli(["v2-check", "--samples", "25", "--seed", "3"], capsys)
    assert report1 == report2


@pytest.mark.parametrize("samples", ["-3", "-1"])
def test_cli_v2_check_rejects_negative_samples(capsys, samples):
    code, report = run_cli(["v2-check", "--samples", samples], capsys)
    assert code == 1
    assert report == {"command": "v2-check", "error": {
        "kind": "InputError",
        "message": f"the sample count must be nonnegative, got {samples}"}}


def test_cli_v2_check_zero_samples(capsys):
    code, report = run_cli(["v2-check", "--samples", "0"], capsys)
    assert code == 0
    assert report["report"]["identity_samples"] == 0
    assert report["report"]["failures"] == 0


def test_cli_reproduce_unknown_bundle(capsys):
    code, report = run_cli(["reproduce", "nothing"], capsys)
    assert code == 1
    assert set(report) == {"command", "error"}
    assert report["error"]["kind"] == "UnknownBundleError"
    assert set(report["error"]) == {"kind", "message"}


def test_cli_byte_determinism(tmp_path):
    env_cmd = [sys.executable, "-m", "liecoh.cli", "cohomology",
               "--algebra", "sl2", "--degree", "3"]
    out1 = subprocess.run(env_cmd, capture_output=True, check=True, env=cli_env()).stdout
    out2 = subprocess.run(env_cmd, capture_output=True, check=True, env=cli_env()).stdout
    assert out1 == out2
    data = json.loads(out1)
    assert data["dim_cohomology"] == 1


def file_fault(tmp_path, case):
    """(arguments, path) of a command whose input read or --emit write fails at path."""
    directory = tmp_path / "dir"
    directory.mkdir()
    ext = tmp_path / "fs.json"
    ext.write_text(lio.emit(lio.factor_system_to_json(ext_heisenberg3())))
    undecodable = tmp_path / "utf16.json"
    undecodable.write_bytes(b"\xff\xfe")
    return {
        "ext-is-a-directory": (["extension", "build", "--ext", str(directory)], directory),
        "ext-is-not-utf8": (["extension", "build", "--ext", str(undecodable)], undecodable),
        "validate-is-not-utf8": (["validate", "--algebra", str(undecodable)], undecodable),
        "catalog-emit-directory": (["catalog", "heisenberg3", "--emit", str(directory)],
                                   directory),
        "build-emit-directory": (["extension", "build", "--ext", str(ext), "--emit",
                                  str(directory)], directory),
        "emit-to-a-full-device": (["catalog", "heisenberg3", "--emit", "/dev/full"],
                                  "/dev/full"),
    }[case]


@pytest.mark.parametrize("case", ["ext-is-a-directory", "ext-is-not-utf8", "validate-is-not-utf8",
                                  "catalog-emit-directory", "build-emit-directory",
                                  pytest.param("emit-to-a-full-device", marks=pytest.mark.skipif(
                                      not os.path.exists("/dev/full"), reason="no /dev/full"))])
def test_cli_file_faults_are_one_json_error(tmp_path, case):
    args, path = file_fault(tmp_path, case)
    proc = subprocess.run([sys.executable, "-m", "liecoh.cli", *args], capture_output=True,
                          env=cli_env())
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert set(report) == {"command", "error"}
    assert str(path) in report["error"]["message"]


def test_cli_missing_file_report_is_unchanged(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_command(["extension", "build", "--ext", str(missing)]) == 1
    assert capsys.readouterr().out == lio.emit({"command": "extension", "error": {
        "kind": "FileNotFound", "message": f"[Errno 2] No such file or directory: '{missing}'"}})


def test_degree_cap_environment(tmp_path):
    env = cli_env(LIECOH_DEGREE_CAP="2")
    cmd = [sys.executable, "-m", "liecoh.cli", "cohomology",
           "--algebra", "sl2", "--degree", "3"]
    proc = subprocess.run(cmd, capture_output=True, env=env)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["error"]["kind"] == "DegreeCapExceededError"


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_degree_cap_environment_rejects_bad_values(value):
    env = cli_env(LIECOH_DEGREE_CAP=value)
    cmd = [sys.executable, "-m", "liecoh.cli", "cohomology",
           "--algebra", "sl2", "--degree", "1"]
    proc = subprocess.run(cmd, capture_output=True, env=env)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["error"]["kind"] == "ParseError"
    assert "LIECOH_DEGREE_CAP" in report["error"]["message"]


def test_degree_cap_applies_to_degrees_past_the_algebra(tmp_path, capsys):
    h3 = tmp_path / "heisenberg3.json"
    code, _ = run_cli(["catalog", "heisenberg3", "--emit", str(h3)], capsys)
    assert code == 0
    code, report = run_cli(["cohomology", "--algebra", str(h3), "--degree", "3"], capsys)
    assert code == 0
    assert report["dim_cohomology"] == 1
    code, report = run_cli(["cohomology", "--algebra", str(h3), "--degree", "9"], capsys)
    assert code == 1
    assert report["error"]["kind"] == "DegreeCapExceededError"


@pytest.mark.parametrize("algebra", ["heisenberg3", "sl2", "abelian2", "abelian5"])
def test_degree_cap_answers_exactly_when_next_degree_fits(monkeypatch, capsys, algebra):
    monkeypatch.setenv("LIECOH_DEGREE_CAP", "3")
    for degree in range(5):
        code, report = run_cli(["cohomology", "--algebra", algebra,
                                "--degree", str(degree)], capsys)
        if degree + 1 <= 3:
            assert code == 0 and "dim_cohomology" in report
        else:
            assert code == 1
            assert report["error"]["kind"] == "DegreeCapExceededError"
