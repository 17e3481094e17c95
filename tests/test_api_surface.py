"""The package exports only what the package itself uses, and imports
only what it declares.

Every name ``fracplap/__init__.py`` imports, and every public top-level
function or class of the package, must be referenced in the code of
some module of the package other than ``__init__.py``: a public symbol
that only the tests call is dead weight.  References are names and attribute accesses
in the syntax tree, so a mention in a docstring or comment does not
count.  Every private top-level function, class or constant is loaded
somewhere in the package outside its own definition.  Every field of an input type is read, through a receiver of
that type, somewhere other than where a manifest is written back out:
a setting nothing reads changes nothing.  The third-party modules the
package imports anywhere, inside functions too, are exactly the runtime
dependencies in ``pyproject.toml``.
"""
import ast
import dataclasses
import importlib
import re
import sys
import typing
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


def private_definitions() -> dict:
    """name -> (module, first line, last line) of every private top-level
    function, class or assigned constant; dunders are exempt."""
    found = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    found[name] = (path.name, node.lineno, node.end_lineno)
    return found


def test_every_private_definition_is_loaded_outside_itself():
    definitions = private_definitions()
    loaded = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            module, first, last = definitions.get(name, (None, 0, 0))
            if not (path.name == module and first <= node.lineno <= last):
                loaded.add(name)
    assert sorted(set(definitions) - loaded) == []


INPUT_TYPES = (ModelParameters, DomainSpec, SolverConfig, AnalysisConstants,
               KernelSpec, InitialSpec, KernelGrid)
# functions that only copy an input back into a manifest
WRITERS = ("serialize_config",)


def _hint(obj, name):
    """The class a type hint of ``obj`` names, Optional unwrapped."""
    try:
        hint = typing.get_type_hints(obj).get(name)
    except (NameError, TypeError):
        return None
    args = [a for a in typing.get_args(hint) if a is not type(None)]
    return args[0] if typing.get_origin(hint) is typing.Union and len(args) == 1 else hint


def field_reads() -> set:
    """(class, attribute) for every attribute read whose receiver has a
    known input type: a parameter annotated with it, ``self`` in its
    methods, a name assigned from its constructor or from a function
    annotated to return it, or a dataclass field annotated with it."""
    reads = set()
    for path in PACKAGE.glob("*.py"):
        name = "fracplap" if path.stem == "__init__" else f"fracplap.{path.stem}"
        scope = vars(importlib.import_module(name))

        def type_of(node, env):
            if isinstance(node, ast.Name):
                return env.get(node.id)
            if isinstance(node, ast.Attribute):
                owner = type_of(node.value, env)
                return _hint(owner, node.attr) if isinstance(owner, type) else None
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                target = scope.get(node.func.id)
                return target if isinstance(target, type) else _hint(target, "return")
            return None

        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(fn): scope.get(cls.name) for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or fn.name in WRITERS:
                continue
            owner = methods.get(id(fn))
            params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            env = {a.arg: _hint(getattr(owner, fn.name, None) if owner
                                else scope.get(fn.name), a.arg) for a in params}
            if owner is not None and params:
                env[params[0].arg] = owner
            for node in ast.walk(fn):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    env[node.targets[0].id] = type_of(node.value, env)
            reads.update((cls, node.attr) for node in ast.walk(fn)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Load)
                         for cls in [type_of(node.value, env)] if cls in INPUT_TYPES)
    return reads


def test_every_input_field_is_read():
    read = field_reads()
    unread = sorted(f"{cls.__name__}.{f.name}" for cls in INPUT_TYPES
                    for f in dataclasses.fields(cls) if (cls, f.name) not in read)
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
