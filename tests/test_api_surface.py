"""The package exports only what the package itself uses, and imports
only what it declares.

Every name ``fracplap/__init__.py`` imports, and every public top-level
function or class of the package, must be referenced in the code of
some module of the package other than ``__init__.py``: a public symbol
that only the tests call is dead weight.  References are names and attribute accesses
in the syntax tree, so a mention in a docstring or comment does not
count.  Every field of an input type is read somewhere other than where
a manifest is written back out: a setting nothing reads changes
nothing.  The third-party modules the package imports anywhere, inside
functions too, are exactly the runtime dependencies in
``pyproject.toml``.
"""
import ast
import dataclasses
import re
import sys
from pathlib import Path

import pytest

import fracplap
from fracplap.config import InitialSpec, KernelSpec
from fracplap.integrator import SolverConfig
from fracplap.model import AnalysisConstants, DomainSpec, ModelParameters
from fracplap.operators import KernelGrid

PACKAGE = Path(fracplap.__file__).resolve().parent


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def referenced_names() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_used_inside_the_package():
    unused = sorted(exported_names() - referenced_names())
    assert unused == []


def public_definitions() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names.add(node.name)
    return names


def test_every_public_definition_is_used_inside_the_package():
    unused = sorted(public_definitions() - referenced_names())
    assert unused == []


INPUT_TYPES = (ModelParameters, DomainSpec, SolverConfig, AnalysisConstants,
               KernelSpec, InitialSpec, KernelGrid)
# functions that only copy an input back into a manifest
WRITERS = ("serialize_config",)


def attributes_read() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name in WRITERS
                   for node in ast.walk(fn)}
        names.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load)
                     and id(node) not in skipped)
    return names


def test_every_input_field_is_read():
    read = attributes_read()
    unread = sorted(f"{cls.__name__}.{f.name}" for cls in INPUT_TYPES
                    for f in dataclasses.fields(cls) if f.name not in read)
    assert unread == []


def imported_third_party() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"fracplap"}


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")      # Python 3.11+
    with open(PACKAGE.parents[1] / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    assert imported_third_party() == {re.match(r"[\w.-]+", d).group() for d in declared}
