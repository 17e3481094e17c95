"""The package exports only what the package itself uses.

Every name ``fracplap/__init__.py`` imports must be referenced in the
code of some other module of the package: a public symbol that only the
tests call is dead weight.  References are names and attribute accesses
in the syntax tree, so a mention in a docstring or comment does not
count.
"""
import ast
from pathlib import Path

import fracplap

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
