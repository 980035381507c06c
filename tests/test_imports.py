"""Every import in the package and its tests is used, and start-up stays light.

No linter is a dependency of this project, so this AST scan is the check.
`__init__.py` files re-export their imports and are skipped.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(
    p
    for p in [*(ROOT / "src" / "sarxid").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a import b as c\n"
    source += "sys.exit()\n"
    assert unused_imports(source) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# -- the library's surface: every definition is used, or names its check ----

PACKAGE = sorted(p for p in (ROOT / "src" / "sarxid").glob("*.py") if p.name != "__init__.py")
TESTS = {
    node.name
    for p in (ROOT / "tests").glob("test_*.py")
    for node in ast.walk(ast.parse(p.read_text()))
    if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
}


def definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield "%s.%s" % (node.name, sub.name), sub


def names_a_check(doc, tests):
    """Whether the docstring names a test in `tests`, or an acceptance criterion."""
    criteria = {n.split("_")[2] for n in tests if n.startswith("test_criterion_")}
    return any(t in tests for t in re.findall(r"\btest_\w+", doc)) or any(
        c.zfill(2) in criteria for c in re.findall(r"[Cc]riterion (\d+)", doc)
    )


def unchecked_surface(sources, tests):
    """Non-dunder definitions that no module uses and whose docstring names
    no test of `tests` that checks them.

    A module-level function or class is used through a bare name or an
    attribute (`f`, `mod.f`); a method only through an attribute (`x.f`), so
    a local variable or a parameter of the same name does not count.  The
    scan cannot tell apart methods of different classes that share a name,
    such as `is_zero` or `to_json_dict`: a use of one counts for all.

    sources maps a module name to its source text.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return sorted(
        "%s.%s" % (module, qualname)
        for module, tree in trees.items()
        for qualname, node in definitions(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in (attributes if "." in qualname else names | attributes)
        and not names_a_check(ast.get_docstring(node) or "", tests)
    )


def test_surface_scan_finds_an_unchecked_definition():
    source = '''
def used():
    """Nothing to say."""


def dead():
    pass


def proven():
    """`test_proven` checks it."""


def misnamed():
    """`test_missing` checks it."""


def audited():
    """Acceptance criterion 3 checks it."""


class Box:
    def __eq__(self, other):
        return used()

    def size(self):
        return Box().__eq__(self)

    def width(self):
        width = 0
        return width
'''
    tests = {"test_proven", "test_criterion_03_region"}
    assert unchecked_surface({"m": source}, tests) == [
        "m.Box.size",
        "m.Box.width",
        "m.dead",
        "m.misnamed",
    ]


def test_every_definition_is_used_or_names_its_check():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unchecked_surface(sources, TESTS) == []


# -- one construction each: no constant defined twice, no second writer ----


def repeated_bindings(sources):
    """Expressions bound to a module-level name in more than one module, each
    with its (module, name) bindings.

    sources maps a module name to its source text.
    """
    bindings = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings.setdefault(ast.unparse(node.value), []).append((module, target.id))
    return sorted((expr, where) for expr, where in bindings.items()
                  if len({module for module, _ in where}) > 1)


def test_binding_scan_finds_a_constant_bound_in_two_modules():
    sources = {"a": "ZERO = Fraction(0)\nN = 3\n", "b": "_ZERO = Fraction(0)\n",
               "c": "def f():\n    N = 3\n"}
    assert repeated_bindings(sources) == [("Fraction(0)", [("a", "ZERO"), ("b", "_ZERO")])]


def test_no_constant_is_bound_in_two_modules():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert repeated_bindings(sources) == []


def str_calls(source):
    """(enclosing definition, argument) of each `str(...)` call in the source."""
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) \
                    and child.func.id == "str":
                calls.append((".".join(scope), ", ".join(ast.unparse(a) for a in child.args)))
            visit(child, scope)

    visit(ast.parse(source), ())
    return sorted(calls)


# `rationals.format_rational` is the one writer of rationals; `str` writes only
# mode labels and the writer's own integers
STR_SITES = [
    ("rationals", "format_rational", "n"),
    ("rationals", "read_modes", "q"),
    ("sarx", "HybridWord.__init__", "q"),
]


def test_str_scan_finds_each_call_with_its_scope():
    source = "def write(x):\n    return str(x)\n\n\nclass Box:\n"
    source += "    def label(self, q):\n        return [str(q) for _ in f(str(1))]\n"
    assert str_calls(source) == [("Box.label", "1"), ("Box.label", "q"), ("write", "x")]


def test_str_is_called_only_at_named_sites():
    found = sorted((p.stem, *call) for p in PACKAGE for call in str_calls(p.read_text()))
    assert found == STR_SITES


# -- the polynomial kernels run over int ------------------------------------


def imported_names(source):
    """Every name an import statement of the source binds."""
    return {alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}


@pytest.mark.parametrize("module", ["groebner", "unipoly"])
def test_polynomial_kernels_do_not_import_fraction(module):
    """Groebner runs and the gcd read and write `MultiPoly`'s integer form."""
    names = imported_names((ROOT / "src" / "sarxid" / (module + ".py")).read_text())
    assert "Fraction" not in names and "fractions" not in names


# -- start-up: a CLI call imports no code generator ------------------------

HEAVY = ("dataclasses", "inspect", "ast")


def test_cli_import_loads_no_heavy_module():
    """`dataclasses` pulls in `inspect`, `ast` and `dis`: most of the import
    time of `sarxid.cli` before `rationals.Record` replaced it.  pytest
    itself loads these modules, so a fresh interpreter checks; -S keeps
    site-packages' own start-up hooks out of the count."""
    code = "import sys, sarxid.cli; print(*sorted(set(%r) & set(sys.modules)))" % (HEAVY,)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []
