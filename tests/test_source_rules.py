"""Rules on the package source that no runtime test can see.

Cross-checks must raise whatever the interpreter flags: ``python -O``
removes every ``assert`` statement and every ``if __debug__`` block, so
neither may appear in the package.
"""

import ast
from pathlib import Path

import liecoh

PACKAGE = Path(liecoh.__file__).resolve().parent


def stripped_under_optimize(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            yield node.lineno, "__debug__ reference"


def test_package_has_no_assert_or_debug_blocks():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    found = [f"{path.relative_to(PACKAGE)}:{line}: {what}"
             for path in sources
             for line, what in stripped_under_optimize(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_rule_detects_both_forms():
    tree = ast.parse("assert x\nif __debug__:\n    pass\n")
    assert list(stripped_under_optimize(tree)) == [(1, "assert statement"),
                                                   (2, "__debug__ reference")]
