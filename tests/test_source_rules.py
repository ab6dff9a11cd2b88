"""Rules on the package source that no runtime test can see.

Cross-checks must raise whatever the interpreter flags: ``python -O``
removes every ``assert`` statement and every ``if __debug__`` block, so
neither may appear in the package.  Elimination is one path: only
``linalg.py`` calls ``rref``.  The alternating-sign scatter is one
module: only ``cochains.py`` calls ``sort_with_sign``.  No module keeps mutable global state,
so no ``global`` statement appears.
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


def calls_to(target):
    """Rule: calls of ``target``, as a method or attribute (m.f()) and by name (f(m))."""
    def rule(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == target:
                    yield node.lineno, f"{target} call"
    return rule


rref_calls = calls_to("rref")
sort_with_sign_calls = calls_to("sort_with_sign")


def global_statements(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield node.lineno, "global statement"


def violations(rule, exempt=()):
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    return [f"{path.relative_to(PACKAGE)}:{line}: {what}"
            for path in sources if path.name not in exempt
            for line, what in rule(ast.parse(path.read_text(), str(path)))]


def test_package_has_no_assert_or_debug_blocks():
    assert violations(stripped_under_optimize) == []


def test_only_linalg_calls_rref():
    assert violations(rref_calls, exempt=("linalg.py",)) == []
    assert list(rref_calls(ast.parse((PACKAGE / "linalg.py").read_text())))


def test_only_cochains_calls_sort_with_sign():
    assert violations(sort_with_sign_calls, exempt=("cochains.py",)) == []
    assert list(sort_with_sign_calls(ast.parse((PACKAGE / "cochains.py").read_text())))


def test_package_has_no_global_statements():
    assert violations(global_statements) == []


def test_rule_detects_both_forms():
    tree = ast.parse("assert x\nif __debug__:\n    pass\n")
    assert list(stripped_under_optimize(tree)) == [(1, "assert statement"),
                                                   (2, "__debug__ reference")]


def test_rules_detect_rref_calls_and_global_statements():
    tree = ast.parse("def f(m):\n    global k\n    return m.rref(), rref(m)\n")
    assert list(rref_calls(tree)) == [(3, "rref call"), (3, "rref call")]
    assert list(global_statements(tree)) == [(2, "global statement")]


def test_rule_detects_sort_with_sign_calls():
    tree = ast.parse("from .cochains import sort_with_sign\n"
                     "def f(key):\n"
                     "    return sort_with_sign(key), cochains.sort_with_sign(key)\n")
    assert list(sort_with_sign_calls(tree)) == [(3, "sort_with_sign call"),
                                                (3, "sort_with_sign call")]
