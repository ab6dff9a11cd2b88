"""Start-up guard: what ``import liecoh.cli`` loads beyond a bare interpreter.

Every command is its own process, so every module the import pulls in is
paid on each command.  ``dataclasses`` loads ``inspect`` (and with it
``ast``, ``dis`` and ``tokenize``) and exec-compiles each record's methods
at class creation; the package's records are ``NamedTuple``s instead.
"""

import subprocess
import sys

from test_io_cli import cli_env

LOADED_BY_IMPORT = """\
import sys
bare = set(sys.modules)
import liecoh.cli
print("\\n".join(sorted(set(sys.modules) - bare)))
"""


def modules_loaded_by_cli_import():
    out = subprocess.run([sys.executable, "-c", LOADED_BY_IMPORT], capture_output=True,
                         text=True, check=True, env=cli_env()).stdout
    return set(out.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    loaded = modules_loaded_by_cli_import()
    assert "liecoh.cli" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()
