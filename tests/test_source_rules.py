"""Rules on the package source that no runtime test can see.

Cross-checks must raise whatever the interpreter flags: ``python -O``
removes every ``assert`` statement and every ``if __debug__`` block, so
neither may appear in the package.  Elimination is one path: only
``linalg.py`` calls ``rref``.  The alternating-sign scatter is one
module: only ``cochains.py`` calls ``sort_with_sign``.  The inner lift of
the gauge step is one function: only ``extensions.py`` calls ``solve_inner``.
A kernel's map S is checked for derivations in one place: ``cochains.py``
makes no ``is_derivation`` call, and ``extensions.py`` makes one only in
``_derivation_failures``, which ``GKernel``, ``FactorSystem`` and
``factor_system_report`` read.  A kernel is only built through its
constructor: ``extensions.py`` makes no ``__new__`` call.
Operators have one assembly path: ``operator_matrix`` is called only by
``differential_operator``, which keeps each one on its Representation or
OuterActionMap.
A component along a subspace is read one way, ``Subspace.split_matrix``:
no ``coordinates_of(vec_sub(...))`` call appears in the package.
A structure law is read as a matrix identity (``law_defect``, the Leibniz
rows, ``Subspace.restrict``, ``ad`` products), not one basis vector at a
time: no ``bracket`` call takes a ``unit_vec(...)`` call as an argument.
Cochain maps scatter nonzero terms through sparse matrix rows: ``cochains.py``
makes no ``unit_vec`` or ``.column`` call, and no module calls ``.evaluate``.
Matrix families and brackets are pulled back along a map's sparse rows
(``pullback_family``, ``bracket_defect``): no module makes a ``.column`` call
or names ``matrix_of``.
A cochain is applied to by its nonzero coordinates: no ``matvec`` call takes
a ``.coordinates()`` call, the dense view of a cochain, as its argument.
A value is made dense in two places only: ``_dense`` is called in
``linalg.py`` and in ``Cochain.component``, so ``wedge`` hands a pairing
the nonzero values as they are stored.
Vectors cross the linear-algebra boundary as dicts and (index, value) pairs:
no ``solve*``, ``inner_cochains``, ``coordinates_of`` or ``Subspace.from_vectors``
call is handed a dense value (a ``.flatten()``, ``.coordinates()``, ``.row()``,
``.row_list()``, ``.column()`` or ``.matvec()`` call, a ``.basis`` read or a
``Matrix(...)`` built from dense rows), either directly or through a name
assigned from one in the same function.
A cochain is built one way: the package scatters dict columns into
``Cochain.from_columns`` (or hands nonzero pairs to ``from_pairs``), and the
dense ``Cochain(...)`` constructor, the input form, is called only in
``io.py``, ``catalog.py``, ``reproduce.py`` and ``cli.py``.  No dense
accumulator ``[ZERO] * n`` or ``(ZERO,) * n`` appears outside ``linalg._dense``,
and the stabilizer rows of ``symmetry.py`` are read from nonzero entries: no
``Counter`` and no ``.entry`` call appears there.
No module keeps mutable global state, so no ``global`` statement appears.
Every import sits at module level, so the import graph is what the module
heads say and has no cycle hidden in a function body.
No module imports ``dataclasses``: it loads ``inspect`` and ``ast`` and
exec-compiles each record's methods in every process that imports the
package, so result records are ``NamedTuple``s.  API that nothing in the
package called is deleted, and no module names it again; so are the dense
vector helpers, whose callers now read sparse rows and pairs, and the dense
views that solves and subspace reads took (the tests keep their own copies
in ``conftest.py``), and the dense bracket views ``LieAlgebra.ad``,
``Representation.act`` and ``Cochain.coeffs``, now that brackets and
pairings pass nonzero pairs, the ``provenance`` slot of an
``ExtensionPresentation``, which nothing read, and the ``theta_matrices``
field of a ``CrossedModuleSplitting``, which held the table ``theta`` twice.
So are the per-element paths that batched solves replaced:
``inner_cochain`` and ``_pair_gamma``, now that one ``inner_cochains`` call
lifts a batch, and ``pairwise_equivalent`` with ``consistent_columns``, now
that classify checks its translations with one rank test; and
``EquivariantPairing.composition``, which nothing called.  So are the second
and third forms of a linear system's answer: ``EmptyAffine``, now that an
empty system answers with its ``InconsistencyCertificate``,
``AffineCochainSpace.basis``, the homogeneous space held twice, and
``InconsistencyCertificate.row``, a dense row that always read (0, ..., 0, 1).
A deleted
method whose bare name another class still uses is listed as ``Class.name``: neither a definition of it in
that class nor a ``Class.name`` reference may appear.
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


def calls_outside(target, function):
    """Rule: calls of ``target`` anywhere but in the body of a function named ``function``."""
    def rule(tree):
        inside = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == function
                  for node in ast.walk(f)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in inside:
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == target:
                    yield node.lineno, f"{target} call outside {function}"
    return rule


def component_reads(tree):
    """Rule: a ``coordinates_of`` call whose first argument is a ``vec_sub`` call."""
    def name(func):
        return getattr(func, "attr", getattr(func, "id", None))

    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and name(node.func) == "coordinates_of" and node.args
                and isinstance(node.args[0], ast.Call) and name(node.args[0].func) == "vec_sub"):
            yield node.lineno, "coordinates_of(vec_sub(...)) call"


def unit_brackets(tree):
    """Rule: a ``bracket`` call with a ``unit_vec`` call among its arguments."""
    def name(func):
        return getattr(func, "attr", getattr(func, "id", None))

    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and name(node.func) == "bracket"
                and any(isinstance(arg, ast.Call) and name(arg.func) == "unit_vec"
                        for arg in node.args)):
            yield node.lineno, "bracket(unit_vec(...)) call"


def dense_cochain_products(tree):
    """Rule: a ``matvec`` call with a ``.coordinates()`` call among its arguments."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "matvec"
                and any(isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute)
                        and arg.func.attr == "coordinates" for arg in node.args)):
            yield node.lineno, "matvec(c.coordinates()) call"


def dense_solve_inputs(tree):
    """Rule: a ``solve``/``solve_*``, ``inner_cochains``, ``coordinates_of`` or
    ``from_vectors`` call with an argument that holds a dense view (a
    ``.flatten()``, ``.coordinates()``, ``.row()``, ``.row_list()``,
    ``.column()`` or ``.matvec()`` call, a ``.basis`` read or a ``Matrix(...)``
    call), or a name that the same function assigned from one."""
    def dense(expr, tainted):
        return any(isinstance(n, ast.Call) and getattr(n.func, "attr", None)
                   in ("flatten", "coordinates", "row", "row_list", "column", "matvec")
                   or isinstance(n, ast.Call) and getattr(n.func, "id", None) == "Matrix"
                   or isinstance(n, ast.Attribute) and n.attr == "basis"
                   or isinstance(n, ast.Name) and n.id in tainted
                   for n in ast.walk(expr))

    found = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        tainted = {t.id for node in ast.walk(scope)
                   if isinstance(node, ast.Assign) and dense(node.value, ())
                   for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None)) or ""
            if ((name == "solve" or name.startswith("solve_")
                 or name in ("inner_cochains", "coordinates_of", "from_vectors"))
                    and any(dense(arg, tainted)
                            for arg in node.args + [k.value for k in node.keywords])):
                found.add((node.lineno, f"{name} call on a dense vector"))
    yield from sorted(found)


def method_calls(target):
    """Rule: calls of ``target`` as a method or attribute (m.f()) only."""
    def rule(tree):
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == target):
                yield node.lineno, f".{target} call"
    return rule


def names(target):
    """Rule: every definition of, import of, call of or reference to the name ``target``."""
    def rule(tree):
        for node in ast.walk(tree):
            if target in (getattr(node, "name", None), getattr(node, "attr", None),
                          getattr(node, "id", None)):
                yield node.lineno, f"{target} name"
    return rule


rref_calls = calls_to("rref")
unit_vec_calls = calls_to("unit_vec")
column_calls = method_calls("column")
evaluate_calls = method_calls("evaluate")
sort_with_sign_calls = calls_to("sort_with_sign")
solve_inner_calls = calls_to("solve_inner")
stray_is_derivation_calls = calls_outside("is_derivation", "_derivation_failures")
new_calls = calls_to("__new__")
stray_operator_matrix_calls = calls_outside("operator_matrix", "differential_operator")
stray_dense_calls = calls_outside("_dense", "component")
matrix_of_names = names("matrix_of")


def imports_of(module):
    """Rule: ``import module`` and ``from module import ...``, at any depth."""
    def rule(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found = any(a.name.split(".")[0] == module for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                found = (node.module or "").split(".")[0] == module and not node.level
            else:
                found = False
            if found:
                yield node.lineno, f"{module} import"
    return rule


dataclasses_imports = imports_of("dataclasses")


def zero_lists_outside(function):
    """Rule: a dense accumulator ``[ZERO] * n`` or ``(ZERO,) * n`` (or ``n * [ZERO]``,
    ``n * (ZERO,)``) outside the body of a function named ``function`` (anywhere
    when it is None)."""
    def rule(tree):
        inside = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef) and f.name == function
                  for node in ast.walk(f)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                    and id(node) not in inside
                    and any(isinstance(side, (ast.List, ast.Tuple)) and len(side.elts) == 1
                            and "ZERO" in (getattr(side.elts[0], "id", None),
                                           getattr(side.elts[0], "attr", None))
                            for side in (node.left, node.right))):
                yield node.lineno, "[ZERO] * n accumulator"
    return rule


zero_lists = zero_lists_outside(None)
stray_zero_lists = zero_lists_outside("_dense")
cochain_constructor_calls = calls_to("Cochain")
# the modules that read cochains from files and literals, the dense input form
COCHAIN_INPUT_MODULES = ("io.py", "catalog.py", "reproduce.py", "cli.py")
counter_names = names("Counter")
entry_calls = method_calls("entry")

# Deleted because nothing in the package called them; the tests keep their
# own copies of the last three, which state results of the paper.  Then the
# dense vector helpers, the unused Workspace store and SparseCochain, the
# second storage of a cochain.  Then the dense views of the solve and
# subspace boundary, whose callers now pass dicts and pairs.  Then the dense
# bracket views, whose callers now read nonzero pairs.  Then the provenance
# slot of an ExtensionPresentation, written by build_extension and never read.
# Then the theta matrices of a CrossedModuleSplitting, the table theta kept twice.
# Then the second form of an empty affine system, the basis cochains of an
# affine space, which held its homogeneous space twice, and the dense row of
# an inconsistency certificate, which always read (0, ..., 0, 1).
DELETED_API = ("z_part", "scalar_multiplication", "from_vector", "is_full", "is_trivial",
               "radical_contains", "zero_class", "act_on_degree2_class",
               "pair_lifts_iff_transport_equivalent", "kernels_equivalent",
               "unit_vec", "zero_vec", "vec_add", "vec_sub", "vec_scale", "vec_is_zero",
               "value_at_indices", "Workspace", "SparseCochain",
               "_dense_columns", "flatten", "coordinates", "from_coordinates", "reduce",
               "embed", "Subspace.basis", "Subspace.contains", "split_coordinates",
               "ideal_coordinates", "DerivationAlgebra.coordinates_of",
               "LieAlgebra.ad", "Representation.act", "Cochain.coeffs",
               "ExtensionPresentation.provenance", "CrossedModuleSplitting.theta_matrices",
               "pairwise_equivalent", "consistent_columns", "inner_cochain", "_pair_gamma",
               "EquivariantPairing.composition", "EmptyAffine", "AffineCochainSpace.basis",
               "InconsistencyCertificate.row")


def deleted_member(target):
    """Rule for a deleted ``Class.name``: a definition of ``name`` in the body of
    ``class Class``, a ``self.name`` or ``"name"`` slot in its methods and
    ``__slots__``, or a ``Class.name`` reference."""
    cls, member = target.split(".")

    def rule(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == cls:
                for item in node.body:
                    targets = getattr(item, "targets", [getattr(item, "target", None)])
                    if member in [getattr(item, "name", None)] + [getattr(t, "id", None)
                                                                  for t in targets]:
                        yield item.lineno, f"{target} name"
                    for inner in ast.walk(item):
                        if (isinstance(inner, ast.Attribute) and inner.attr == member
                                and getattr(inner.value, "id", None) == "self"
                                or "__slots__" in [getattr(t, "id", None) for t in targets]
                                and isinstance(inner, ast.Constant) and inner.value == member):
                            yield inner.lineno, f"{target} name"
            elif (isinstance(node, ast.Attribute) and node.attr == member
                  and getattr(node.value, "id", None) == cls):
                yield node.lineno, f"{target} name"
    return rule


def deleted_api_names(tree):
    for target in DELETED_API:
        yield from (deleted_member(target) if "." in target else names(target))(tree)


def global_statements(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield node.lineno, "global statement"


def function_imports(tree):
    lines = {inner.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))}
    for line in sorted(lines):
        yield line, "import inside a function"


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


def test_only_extensions_calls_solve_inner():
    assert violations(solve_inner_calls, exempt=("extensions.py",)) == []
    assert list(solve_inner_calls(ast.parse((PACKAGE / "extensions.py").read_text())))


def module_violations(rule, name):
    return [f"{name}:{line}: {what}"
            for line, what in rule(ast.parse((PACKAGE / name).read_text(), name))]


def test_derivations_are_swept_only_in_the_kernel_helper():
    assert module_violations(calls_to("is_derivation"), "cochains.py") == []
    assert module_violations(stray_is_derivation_calls, "extensions.py") == []
    assert module_violations(calls_to("is_derivation"), "extensions.py")


def test_kernels_are_built_only_by_their_constructors():
    assert module_violations(new_calls, "extensions.py") == []


def test_only_the_operator_memo_calls_operator_matrix():
    assert violations(stray_operator_matrix_calls) == []
    assert list(calls_to("operator_matrix")(ast.parse((PACKAGE / "cochains.py").read_text())))


def test_values_are_made_dense_only_in_linalg_and_component():
    assert violations(stray_dense_calls, exempt=("linalg.py",)) == []
    assert list(calls_to("_dense")(ast.parse((PACKAGE / "cochains.py").read_text())))


def test_components_are_read_by_split_coordinates():
    assert violations(component_reads) == []


def test_laws_are_not_read_one_unit_vector_at_a_time():
    assert violations(unit_brackets) == []


def test_cochain_maps_read_no_dense_vectors():
    tree = ast.parse((PACKAGE / "cochains.py").read_text())
    assert list(unit_vec_calls(tree)) + list(column_calls(tree)) == []
    assert violations(evaluate_calls) == []


def test_families_are_pulled_back_along_sparse_rows():
    assert violations(column_calls) == []
    assert violations(matrix_of_names) == []


def test_cochains_are_not_applied_through_dense_coordinates():
    assert violations(dense_cochain_products) == []


def test_solves_and_subspace_reads_take_no_dense_vectors():
    assert violations(dense_solve_inputs) == []


def test_package_has_no_function_level_imports():
    assert violations(function_imports) == []


def test_package_has_no_global_statements():
    assert violations(global_statements) == []


def test_package_imports_no_dataclasses():
    assert violations(dataclasses_imports) == []


def test_package_names_no_deleted_api():
    assert violations(deleted_api_names) == []


def test_dense_accumulators_live_only_in_linalg_dense():
    assert violations(stray_zero_lists) == []
    assert violations(zero_lists, exempt=("linalg.py",)) == []
    assert len(list(zero_lists(ast.parse((PACKAGE / "linalg.py").read_text())))) == 1


def test_cochains_are_built_from_columns_outside_the_input_modules():
    assert violations(cochain_constructor_calls, exempt=COCHAIN_INPUT_MODULES) == []
    assert list(cochain_constructor_calls(ast.parse((PACKAGE / "io.py").read_text())))


def test_stabilizer_rows_read_only_nonzero_entries():
    tree = ast.parse((PACKAGE / "symmetry.py").read_text())
    assert list(counter_names(tree)) + list(entry_calls(tree)) == []


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


def test_rule_detects_solve_inner_calls():
    tree = ast.parse("def f(L, t):\n    return solve_inner(L, t), liealg.solve_inner(L, t)\n")
    assert list(solve_inner_calls(tree)) == [(2, "solve_inner call"),
                                             (2, "solve_inner call")]


def test_rules_detect_derivation_sweeps_and_new_calls():
    # the three sweeps and the field copy that bypassed GKernel.__init__
    tree = ast.parse("def _derivation_failures(S):\n"
                     "    return [i for i, m in enumerate(S) if not is_derivation(n, m)]\n"
                     "class GKernel:\n"
                     "    def __init__(self, n, S):\n"
                     "        if not liealg.is_derivation(n, S[0]):\n"
                     "            raise ValueError\n"
                     "    @classmethod\n"
                     "    def from_factor_system(cls, fs):\n"
                     "        kernel = cls.__new__(cls)\n"
                     "        return kernel, object.__new__(cls)\n")
    assert list(stray_is_derivation_calls(tree)) == [
        (5, "is_derivation call outside _derivation_failures")]
    assert list(new_calls(tree)) == [(9, "__new__ call"), (10, "__new__ call")]


def test_rule_detects_the_deleted_theta_matrices_field():
    tree = ast.parse("class CrossedModuleSplitting(NamedTuple):\n"
                     "    theta: dict\n"
                     "    theta_matrices: tuple\n"
                     "def f(sp, theta_matrices):\n"
                     "    return sp.theta, CrossedModuleSplitting.theta_matrices, theta_matrices\n")
    assert sorted(deleted_api_names(tree)) == [
        (3, "CrossedModuleSplitting.theta_matrices name"),
        (5, "CrossedModuleSplitting.theta_matrices name")]


def test_rule_detects_function_level_imports():
    tree = ast.parse("import os\n"
                     "def f():\n"
                     "    import sys\n"
                     "    def g():\n"
                     "        from .linalg import image\n"
                     "class C:\n"
                     "    def m(self):\n"
                     "        from . import io\n")
    assert list(function_imports(tree)) == [(3, "import inside a function"),
                                            (5, "import inside a function"),
                                            (8, "import inside a function")]


def test_rule_detects_operator_matrix_calls_outside_the_memo():
    tree = ast.parse("def differential_operator(action, p):\n"
                     "    return operator_matrix(action.algebra, action.matrices, p, 1)\n"
                     "def f(rep):\n"
                     "    return cochains.operator_matrix(rep.algebra, rep.matrices, 1, 1)\n"
                     "d = operator_matrix(L, [], 0, 1)\n")
    assert sorted(stray_operator_matrix_calls(tree)) == [
        (4, "operator_matrix call outside differential_operator"),
        (5, "operator_matrix call outside differential_operator")]


def test_rule_detects_coordinates_of_a_difference():
    tree = ast.parse("def f(z, v, w):\n"
                     "    a = z.coordinates_of(vec_sub(v, z.reduce(v)))\n"
                     "    b = coordinates_of(linalg.vec_sub(v, w))\n"
                     "    return a, b, z.coordinates_of(v), z.split_matrix().matvec(v)\n")
    assert list(component_reads(tree)) == [(2, "coordinates_of(vec_sub(...)) call"),
                                           (3, "coordinates_of(vec_sub(...)) call")]


def test_rule_detects_brackets_of_unit_vectors():
    tree = ast.parse("def f(L, d, i, j):\n"
                     "    a = L.bracket(unit_vec(L.dim, i), d.column(j))\n"
                     "    b = bracket(d.column(i), linalg.unit_vec(L.dim, j))\n"
                     "    u = unit_vec(L.dim, i)\n"
                     "    return a, b, L.bracket(u, d.column(j)), L.bracket_basis(i, j)\n")
    assert list(unit_brackets(tree)) == [(2, "bracket(unit_vec(...)) call"),
                                         (3, "bracket(unit_vec(...)) call")]


def test_rules_detect_dense_vectors_and_evaluate_calls():
    tree = ast.parse("def f(c, phi, n, k):\n"
                     "    args = [unit_vec(n, k), linalg.unit_vec(n, 0)]\n"
                     "    v = c.evaluate([phi.column(k)] + args)\n"
                     "    return v, column(phi, k), evaluate(c), phi.columns(k)\n")
    assert list(unit_vec_calls(tree)) == [(2, "unit_vec call"), (2, "unit_vec call")]
    assert list(column_calls(tree)) == [(3, ".column call")]
    assert list(evaluate_calls(tree)) == [(3, ".evaluate call")]


def test_rules_detect_column_reads_and_matrix_of():
    tree = ast.parse("from .linalg import matrix_of\n"
                     "class Rep:\n"
                     "    def matrix_of(self, u):\n"
                     "        return u\n"
                     "def f(S, phi, a, columns):\n"
                     "    m = S.matrix_of(phi.column(a))\n"
                     "    return m, matrix_of, phi.columns(a), column(phi, a), columns\n")
    assert list(column_calls(tree)) == [(6, ".column call")]
    assert sorted(matrix_of_names(tree)) == [(1, "matrix_of name"), (3, "matrix_of name"),
                                             (6, "matrix_of name"), (7, "matrix_of name")]


def test_rule_detects_dataclasses_imports():
    tree = ast.parse("import dataclasses\n"
                     "import os, dataclasses as dc\n"
                     "from dataclasses import dataclass\n"
                     "from .dataclasses import x\n"
                     "from typing import NamedTuple\n"
                     "def f():\n"
                     "    from dataclasses import replace\n")
    assert list(dataclasses_imports(tree)) == [(1, "dataclasses import"),
                                               (2, "dataclasses import"),
                                               (3, "dataclasses import"),
                                               (7, "dataclasses import")]


def test_rule_detects_deleted_api_names():
    tree = ast.parse("from .symmetry import act_on_degree2_class\n"
                     "class Stage:\n"
                     "    def z_part(self, v):\n"
                     "        return v\n"
                     "def f(space, rep, sub):\n"
                     "    return space.zero_class(), rep.is_trivial(), is_full(sub), sub.dim\n")
    assert sorted(deleted_api_names(tree)) == [(1, "act_on_degree2_class name"),
                                               (3, "z_part name"),
                                               (6, "is_full name"), (6, "is_trivial name"),
                                               (6, "zero_class name")]
    tree = ast.parse("from .linalg import unit_vec, vec_sub as sub\n"
                     "def f(c, lio, n):\n"
                     "    return c.value_at_indices((1, 0)), lio.Workspace(), zero_vec(n)\n")
    assert sorted(deleted_api_names(tree)) == [(1, "unit_vec name"), (1, "vec_sub name"),
                                               (3, "Workspace name"),
                                               (3, "value_at_indices name"),
                                               (3, "zero_vec name")]
    tree = ast.parse("from .io import SparseCochain\n"
                     "def f(lio, c):\n"
                     "    return lio.SparseCochain(3, 1, 1, c.pairs)\n")
    assert sorted(deleted_api_names(tree)) == [(1, "SparseCochain name"),
                                               (3, "SparseCochain name")]


def test_rule_detects_the_deleted_per_element_paths():
    tree = ast.parse("from .linalg import consistent_columns\n"
                     "class EquivariantPairing:\n"
                     "    def composition(cls, m):\n"
                     "        return cls\n"
                     "def f(fs, a, b, L, g, ts, systems, module):\n"
                     "    x = _pair_gamma(fs, a, b), inner_cochain(L, g, 1, ts)\n"
                     "    y = inner_cochains(L, g, 1, [ts]), EquivariantPairing.composition(2)\n"
                     "    return x, y, extensions.pairwise_equivalent(systems, module)\n")
    assert sorted(deleted_api_names(tree)) == [
        (1, "consistent_columns name"), (3, "EquivariantPairing.composition name"),
        (6, "_pair_gamma name"), (6, "inner_cochain name"),
        (7, "EquivariantPairing.composition name"), (8, "pairwise_equivalent name")]


def test_rule_detects_matvec_of_dense_coordinates():
    tree = ast.parse("def f(d, c, v):\n"
                     "    a = d.matvec(c.coordinates())\n"
                     "    b = Cochain.from_coordinates(L, 1, 1, d.matvec(c.coordinates()))\n"
                     "    return a, b, d.matvec(v), matvec(c.coordinates()), c.coordinates()\n")
    assert list(dense_cochain_products(tree)) == [(2, "matvec(c.coordinates()) call"),
                                                  (3, "matvec(c.coordinates()) call")]


def test_rule_detects_dense_vectors_handed_to_solves():
    tree = ast.parse("def f(L, g, ms, sub, c, space, system, d, n_sub, alpha):\n"
                     "    a = inner_cochains(L, g, 1, [[m.flatten() for m in ms]])\n"
                     "    b = solve_columns(alpha, n_sub.basis)\n"
                     "    x = space.coordinates_of(d.flatten())\n"
                     "    y = linalg.solve_affine(system, c.coordinates() + (0,) * 3)\n"
                     "    betas = [m.flatten() for m in ms]\n"
                     "    span = Subspace.from_vectors(4, vectors=betas)\n"
                     "    z = solve(system, b=dict(c.pairs))\n"
                     "    return solve_inner(L, ms), space.coordinates_of(d.flat_pairs()), c.basis\n"
                     "def h(space, coords, alpha, defect, m, v):\n"
                     "    lifts = solve_columns(alpha, Matrix(list(defect.values())).sparse_rows())\n"
                     "    w = m.matvec(v)\n"
                     "    x = solve(m, {i: a for i, a in enumerate(m.row(0)) if a})\n"
                     "    y = solve_columns(alpha, list(defect.values()))\n"
                     "    return space.coordinates_of(coords), space.coordinates_of(w), lifts\n")
    assert list(dense_solve_inputs(tree)) == [
        (2, "inner_cochains call on a dense vector"), (3, "solve_columns call on a dense vector"),
        (4, "coordinates_of call on a dense vector"), (5, "solve_affine call on a dense vector"),
        (7, "from_vectors call on a dense vector"), (11, "solve_columns call on a dense vector"),
        (13, "solve call on a dense vector"), (15, "coordinates_of call on a dense vector")]


def test_rule_detects_deleted_dense_views():
    tree = ast.parse("from .linalg import _dense_columns\n"
                     "class Subspace:\n"
                     "    basis = None\n"
                     "    def contains(self, v):\n"
                     "        return not any(self.reduce(v))\n"
                     "class AffineCochainSpace:\n"
                     "    basis: tuple\n"
                     "    def contains(self, c):\n"
                     "        return c\n"
                     "def f(m, c, sub, space):\n"
                     "    v = Cochain.from_coordinates(L, 1, 1, c.coordinates())\n"
                     "    return m.flatten(), sub.embed(v), Subspace.basis, space.basis\n"
                     "class DerivationAlgebra:\n"
                     "    def coordinates_of(self, d):\n"
                     "        return self.subspace.coordinates_of(d.flat_pairs())\n"
                     "def g(z, ext, v):\n"
                     "    return z.split_coordinates(v), ext.ideal_coordinates(v)\n")
    assert sorted(deleted_api_names(tree)) == [
        (1, "_dense_columns name"), (3, "Subspace.basis name"),
        (4, "Subspace.contains name"), (5, "reduce name"), (7, "AffineCochainSpace.basis name"),
        (11, "coordinates name"),
        (11, "from_coordinates name"), (12, "Subspace.basis name"), (12, "embed name"),
        (12, "flatten name"), (14, "DerivationAlgebra.coordinates_of name"),
        (17, "ideal_coordinates name"), (17, "split_coordinates name")]


def test_rule_detects_deleted_affine_forms():
    tree = ast.parse("from .cohomology import EmptyAffine\n"
                     "class InconsistencyCertificate:\n"
                     "    row_index: int\n"
                     "    row: tuple\n"
                     "class AffineCochainSpace:\n"
                     "    def dim(self):\n"
                     "        return len(self.basis)\n"
                     "def f(sol, cert, m):\n"
                     "    return isinstance(sol, EmptyAffine), AffineCochainSpace.basis\n"
                     "def g(sol, cert, m):\n"
                     "    return cert.row_index, m.row(0), sol.homogeneous.pairs\n")
    assert sorted(deleted_api_names(tree)) == [
        (1, "EmptyAffine name"), (4, "InconsistencyCertificate.row name"),
        (7, "AffineCochainSpace.basis name"), (9, "AffineCochainSpace.basis name"),
        (9, "EmptyAffine name")]


def test_rule_detects_dense_calls_outside_component():
    tree = ast.parse("class Cochain:\n"
                     "    def component(self, key):\n"
                     "        return _dense(self.pairs, self.value_dim)\n"
                     "def wedge(m, a, b):\n"
                     "    va = _dense(a.pairs, a.value_dim)\n"
                     "    return m.apply(va, linalg._dense(b.pairs, b.value_dim))\n"
                     "def dense(pairs, n):\n"
                     "    return pairs\n")
    assert list(stray_dense_calls(tree)) == [(5, "_dense call outside component"),
                                             (6, "_dense call outside component")]


def test_rule_detects_deleted_bracket_views():
    tree = ast.parse("class LieAlgebra:\n"
                     "    def ad(self, u):\n"
                     "        return u\n"
                     "class Representation:\n"
                     "    def act(self, i, v):\n"
                     "        return v\n"
                     "class Cochain:\n"
                     "    @property\n"
                     "    def coeffs(self):\n"
                     "        return {}\n"
                     "class Polynomial:\n"
                     "    def coeffs(self):\n"
                     "        return self.coeffs\n"
                     "def f(L, rep, c, p):\n"
                     "    return (LieAlgebra.ad, Cochain.coeffs,\n"
                     "            L.ad, rep.act, c.coeffs, p.coeffs)\n")
    assert sorted(deleted_api_names(tree)) == [
        (2, "LieAlgebra.ad name"), (5, "Representation.act name"), (9, "Cochain.coeffs name"),
        (15, "Cochain.coeffs name"), (15, "LieAlgebra.ad name")]


def test_rule_detects_dense_accumulators():
    tree = ast.parse("def _dense(entries, n):\n"
                     "    v = [ZERO] * n\n"
                     "    return v\n"
                     "def _scatter(c, table, target):\n"
                     "    acc = table.setdefault(target, [ZERO] * c.value_dim)\n"
                     "    return acc, c.value_dim * [linalg.ZERO], 3 * [ZERO], [ONE] * 3\n"
                     "value = [ZERO, ZERO] * 2, [0] * 3, (ZERO, ZERO) * 2, (ONE,) * 3\n"
                     "def solve_inner(s, n):\n"
                     "    return (ZERO,) * (s * n) + (ONE,), n * (linalg.ZERO,)\n")
    assert list(stray_zero_lists(tree)) == [(5, "[ZERO] * n accumulator"),
                                            (6, "[ZERO] * n accumulator"),
                                            (6, "[ZERO] * n accumulator"),
                                            (9, "[ZERO] * n accumulator"),
                                            (9, "[ZERO] * n accumulator")]
    assert len(list(zero_lists(tree))) == 6


def test_rule_detects_dense_cochain_constructor_calls():
    tree = ast.parse("def pullback_cochain(c, phi, domain, table):\n"
                     "    zero = cochains.Cochain(domain, 1, 1)\n"
                     "    return Cochain(domain, c.degree, c.value_dim, table), zero\n"
                     "class Cochain:\n"
                     "    @classmethod\n"
                     "    def zero(cls, algebra, degree, value_dim):\n"
                     "        return cls.from_pairs(algebra, degree, value_dim, ())\n"
                     "    def __repr__(self):\n"
                     "        return f'Cochain(degree={self.degree})'\n"
                     "c = Cochain.from_columns(L, 2, 1, {}), Cochain.from_pairs(L, 2, 1, ())\n")
    assert list(cochain_constructor_calls(tree)) == [(2, "Cochain call"), (3, "Cochain call")]


def test_rules_detect_counter_rows_and_entry_reads():
    tree = ast.parse("from collections import Counter\n"
                     "import collections\n"
                     "def rows(S, a, r, c, k):\n"
                     "    row = collections.Counter()\n"
                     "    row[r] += S.matrices[a].entry(k, c)\n"
                     "    return row, entry(S, k), S.sparse_rows()[r].get(c)\n")
    assert sorted(counter_names(tree)) == [(1, "Counter name"), (4, "Counter name")]
    assert list(entry_calls(tree)) == [(5, ".entry call")]


def test_rule_detects_the_deleted_provenance_slot():
    tree = ast.parse("class ExtensionPresentation:\n"
                     "    __slots__ = ('total', 'provenance')\n"
                     "    def __init__(self, total, provenance=None):\n"
                     "        self.total = total\n"
                     "        self.provenance = provenance\n"
                     "def build(fs, args):\n"
                     "    provenance = {'algebra': args.algebra}\n"
                     "    ext = ExtensionPresentation(fs, provenance=fs)\n"
                     "    return ext.provenance, ExtensionPresentation.provenance, provenance\n")
    assert sorted(deleted_api_names(tree)) == [
        (2, "ExtensionPresentation.provenance name"),
        (5, "ExtensionPresentation.provenance name"),
        (9, "ExtensionPresentation.provenance name")]
