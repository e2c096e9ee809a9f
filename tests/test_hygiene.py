"""Static checks on the package source: every imported name is used, and
every class and function it defines is named somewhere else."""

import ast
import collections
import pathlib
import re

import pytest

import qpgaps

MODULES = sorted(pathlib.Path(qpgaps.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(source):
    """Names an import binds (anywhere in the module) that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_unused_imports_are_found():
    src = "import json\nimport os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(src) == ["json", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def _references(tree):
    """Counter of identifiers a tree names: Name ids, Attribute attrs, and
    the identifier-like words of string constants."""
    refs = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return refs


def unreferenced_definitions(package_sources, other_sources):
    """(module, name) of every class or function defined in the package that
    no code names outside its own definition; dunders are exempt."""
    trees = {name: ast.parse(src) for name, src in package_sources.items()}
    refs = collections.Counter()
    for tree in list(trees.values()) + [ast.parse(src) for src in other_sources]:
        refs += _references(tree)
    missing = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if refs[node.name] - _references(node)[node.name] <= 0:
                missing.append((module, node.name))
    return sorted(missing)


def test_unreferenced_definitions_are_found():
    src = ("def used():\n    return 1\n\ndef lonely():\n    return lonely()\n\n"
           "def named():\n    pass\n\nclass C:\n    def __init__(self):\n        used()\n")
    assert unreferenced_definitions({"m": src}, ["HOOK = 'mod.named'\n"]) == [
        ("m", "C"), ("m", "lonely")]


def test_every_definition_is_referenced():
    package = {path.name: path.read_text() for path in MODULES}
    others = [path.read_text() for top in ("tests", "bench")
              for path in sorted((ROOT / top).rglob("*.py"))]
    assert unreferenced_definitions(package, others) == []
