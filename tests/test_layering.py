"""The package's import layers, read off the sources with ast.

kernels and pcgroup import no package module; every other module imports
only from the layers below it, kernels, pcgroup < grpalg < oracle <
construct < catalog < cli; and no function body imports a package module,
so no import is deferred to hide a cycle.  __init__ is exempt from the
order: it re-exports the public names.  Rows are composed by
pcgroup.compose alone, and pcgroup alone reads its product tables.
"""

import ast
from pathlib import Path

import pytest

import unitwreath

SOURCES = sorted(Path(unitwreath.__file__).parent.glob("*.py"))
LAYER = {"kernels": 0, "pcgroup": 0, "grpalg": 1, "oracle": 2, "construct": 3, "catalog": 4,
         "cli": 5}


def package_imports(node):
    """The package modules an import node names, by their short names."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return [node.module] if node.module else [a.name for a in node.names]
        if node.module and node.module.split(".")[0] == "unitwreath":
            parts = node.module.split(".")
            return [parts[1]] if len(parts) > 1 else [a.name for a in node.names]
    elif isinstance(node, ast.Import):
        return [a.name.split(".")[1] for a in node.names if a.name.startswith("unitwreath.")]
    return []


def imports_of(path: Path) -> set:
    return {m for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            for m in package_imports(node)}


def test_every_module_has_a_layer():
    assert {p.stem for p in SOURCES} - {"__init__"} == set(LAYER)


@pytest.mark.parametrize("name", ["kernels", "pcgroup"])
def test_the_base_modules_import_no_package_module(name):
    assert imports_of(Path(unitwreath.__file__).parent / f"{name}.py") == set()


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "__init__"], ids=lambda p: p.stem)
def test_imports_follow_the_layers(path):
    above = {m for m in imports_of(path) if LAYER[m] >= LAYER[path.stem]}
    assert not above, f"{path.stem} imports {sorted(above)} from its layer or above"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_function_imports_a_package_module(path):
    deferred = [
        (func.name, node.lineno)
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if package_imports(node)
    ]
    assert not deferred, f"{path.stem} imports a package module inside {deferred}"


def is_composition(node) -> bool:
    """map(<x>.__getitem__, ...) or an itemgetter call: a row composed in place."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, (ast.Name, ast.Attribute)):
        return False
    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
    if name == "itemgetter":
        return True
    return (name == "map" and bool(node.args) and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "__getitem__")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_rows_are_composed_by_compose_alone(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kernel = {id(node) for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef) and path.stem == "pcgroup"
              and func.name == "compose" for node in ast.walk(func)}
    found = [node.lineno for node in ast.walk(tree)
             if is_composition(node) and id(node) not in kernel]
    assert not found, f"{path.stem} composes rows outside pcgroup.compose at lines {found}"


def reads_the_tables(node) -> bool:
    """An attribute named right, or the name doubled: the tables read in place."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("right", "doubled")
    if isinstance(node, ast.Name):
        return node.id == "doubled"
    return isinstance(node, ast.alias) and "doubled" in (node.name, node.asname)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "pcgroup"], ids=lambda p: p.stem)
def test_the_tables_are_read_by_pcgroup_alone(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree) if reads_the_tables(node)]
    assert not found, f"{path.stem} reads the product tables outside pcgroup at lines {found}"
