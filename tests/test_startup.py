"""Start-up guard: what a ``liecoh`` process loads beyond a bare interpreter.

Every command is its own process, so every module it loads is paid on
each command.  ``dataclasses`` loads ``inspect`` (and with it ``ast``,
``dis`` and ``tokenize``) and exec-compiles each record's methods at class
creation; the package's records are ``NamedTuple``s instead.  And
``cli.run_command`` imports only the module that holds the handler of the
parsed subcommand, and where one argument decides the work (``validate
--ext``, the bundle of ``reproduce``) the module that argument selects, so
each command loads what it runs: the guards below run each command as
``python -m liecoh.cli`` and name what it must not load.
"""

import importlib
import subprocess
import sys

import pytest

from liecoh import cli_reproduce
from liecoh import io as lio
from liecoh.catalog import catalog, heisenberg3
from liecoh.cli import COMMANDS, build_parser, handler_module, run_command
from liecoh.extensions import GKernel, build_quotient_stage
from liecoh.liealg import adjoint_rep
from liecoh.reproduce import _BUNDLES

from test_io_cli import cli_env

LOADED_BY_IMPORT = """\
import sys
bare = set(sys.modules)
import liecoh.cli
print("\\n".join(sorted(set(sys.modules) - bare)))
"""

# runs sys.argv[1:] as `python -m liecoh.cli` does, after an optional planted
# import, and writes the names of the loaded modules to stderr
LOADED_BY_COMMAND = """\
import runpy, sys
{plant}
try:
    runpy.run_module("liecoh.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write("\\n".join(sorted(sys.modules)))
"""

NOT_FOR_COHOMOLOGY = {"liecoh.extensions", "liecoh.crossed", "liecoh.symmetry",
                      "liecoh.currents", "liecoh.reproduce", "liecoh.catalog", "hashlib"}
NOT_FOR_VALIDATE = {"liecoh.extensions", "liecoh.catalog", "liecoh.cohomology",
                    "liecoh.crossed", "liecoh.symmetry", "liecoh.currents", "liecoh.reproduce"}
NOT_FOR_EXTENSIONS = {"liecoh.crossed", "liecoh.symmetry", "liecoh.currents",
                      "liecoh.reproduce", "liecoh.catalog", "hashlib"}
NOT_FOR_CROSSED = {"liecoh.symmetry", "liecoh.currents", "liecoh.reproduce"}
NOT_FOR_V2_CHECK = {"liecoh.extensions", "liecoh.catalog", "liecoh.crossed",
                    "liecoh.symmetry", "liecoh.reproduce"}
NOT_FOR_ANY = {"dataclasses", "inspect"}


def handler_of(argv) -> str:
    """The module the command table names for argv."""
    return handler_module(COMMANDS[argv[0]], build_parser().parse_args(argv))


def modules_loaded_by_cli_import():
    out = subprocess.run([sys.executable, "-c", LOADED_BY_IMPORT], capture_output=True,
                         text=True, check=True, env=cli_env()).stdout
    return set(out.split())


def modules_loaded_by_command(argv, cwd, plant=""):
    """(exit code, names of the modules loaded) of one command process."""
    proc = subprocess.run([sys.executable, "-c", LOADED_BY_COMMAND.format(plant=plant),
                           *argv], capture_output=True, text=True, cwd=cwd, env=cli_env())
    assert "Traceback" not in proc.stderr
    return proc.returncode, set(proc.stderr.split())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """An algebra file, a representation file, a factor-system file and a
    crossed-module file, in one directory."""
    root = tmp_path_factory.mktemp("startup")
    fs = catalog("ext-heisenberg-kernel")
    stage = build_quotient_stage(GKernel.from_factor_system(fs))
    lio.write_file(root / "h3.json", lio.algebra_to_json(heisenberg3()))
    lio.write_file(root / "rep.json", lio.representation_to_json(adjoint_rep(heisenberg3())))
    lio.write_file(root / "ext.json", lio.factor_system_to_json(fs))
    lio.write_file(root / "cm.json", {
        "h": lio.algebra_to_json(fs.n),
        "ghat": lio.algebra_to_json(stage.gs),
        "alpha": lio.matrix_to_json(stage.alpha_matrix),
        "action": [lio.matrix_to_json(m) for m in stage.rho.matrices],
    })
    return root


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    loaded = modules_loaded_by_cli_import()
    assert "liecoh.cli" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()


@pytest.mark.parametrize("argv, not_loaded", [
    (["cohomology", "--algebra", "h3.json", "--degree", "2"], NOT_FOR_COHOMOLOGY),
    (["cohomology", "--rep", "rep.json", "--degree", "1"], NOT_FOR_COHOMOLOGY),
    (["cohomology", "--algebra", "sl2", "--degree", "1"], NOT_FOR_COHOMOLOGY),
    (["extension", "check", "--ext", "ext.json"], NOT_FOR_EXTENSIONS),
    (["obstruction", "--ext", "ext.json"], NOT_FOR_EXTENSIONS),
    (["crossed-module", "class", "--cm", "cm.json"], NOT_FOR_CROSSED),
    (["v2-check", "--samples", "2"], NOT_FOR_V2_CHECK),
    (["validate", "--algebra", "h3.json"], NOT_FOR_VALIDATE),
    (["validate", "--rep", "rep.json"], NOT_FOR_VALIDATE),
    (["validate", "--cm", "cm.json"], NOT_FOR_VALIDATE),
])
def test_each_command_loads_only_what_it_runs(inputs, argv, not_loaded):
    code, loaded = modules_loaded_by_command(argv, inputs)
    assert code == 0
    assert f"liecoh.{handler_of(argv)}" in loaded
    assert (not_loaded | NOT_FOR_ANY) & loaded == set()


def test_validate_hashes_its_inputs(inputs):
    # and loads the extension code for --ext alone
    for flag, source in (("--algebra", "h3.json"), ("--rep", "rep.json"), ("--cm", "cm.json"),
                         ("--ext", "ext.json")):
        code, loaded = modules_loaded_by_command(["validate", flag, source], inputs)
        assert code == 0 and "hashlib" in loaded
        assert ("liecoh.extensions" in loaded) is (flag == "--ext")


@pytest.mark.parametrize("bundle, same_as", [
    ("example-V2", ["v2-check", "--samples", "2"]),
    ("remark-II10", ["cohomology", "--algebra", "sl2", "--degree", "1"]),
])
def test_a_bundle_loads_what_the_command_it_shares_code_with_loads(inputs, bundle, same_as):
    code, loaded = modules_loaded_by_command(["reproduce", bundle], inputs)
    assert code == 0
    assert loaded == modules_loaded_by_command(same_as, inputs)[1]


def test_the_table_routes_the_bundles_of_run_bundle_in_its_order():
    argument, by_value, otherwise = COMMANDS["reproduce"]
    assert argument == "name" and otherwise == "cli_reproduce"
    assert list(by_value) == list(_BUNDLES)


@pytest.mark.parametrize("bundle", [name for name, module in COMMANDS["reproduce"][1].items()
                                    if module != "cli_reproduce"])
def test_a_routed_bundle_reports_what_run_bundle_reports(capsys, bundle):
    args = build_parser().parse_args(["reproduce", bundle])
    routed = importlib.import_module(f"liecoh.{handler_of(['reproduce', bundle])}")
    assert routed.cmd_reproduce(args) == 0
    out = capsys.readouterr().out
    assert cli_reproduce.cmd_reproduce(args) == 0
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv, stdout", [
    (["reproduce", "nosuch"], """\
{
  "command": "reproduce",
  "error": {
    "kind": "UnknownBundleError",
    "message": "unknown bundle 'nosuch'; known: example-A9, example-A10a, example-A10b, \
remark-II10, remark-IV5, example-V2, theorem-IV4-roundtrip"
  }
}
"""),
    (["validate"], """\
{
  "command": "validate",
  "error": {
    "kind": "ParseError",
    "message": "nothing to validate: pass --algebra, --rep, --ext or --cm"
  }
}
"""),
])
def test_routed_input_errors_keep_their_exit_code_and_report(capsys, argv, stdout):
    assert run_command(argv) == 1
    assert capsys.readouterr().out == stdout


def test_guard_sees_a_planted_import(inputs):
    argv = ["cohomology", "--algebra", "h3.json", "--degree", "1"]
    code, loaded = modules_loaded_by_command(argv, inputs, plant="import liecoh.symmetry")
    assert code == 0
    assert NOT_FOR_COHOMOLOGY & loaded >= {"liecoh.symmetry", "liecoh.extensions"}
