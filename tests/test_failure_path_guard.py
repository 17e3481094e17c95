"""Every ``fracplap`` command fails through one path.

A command raises its failure; ``cli.main`` alone catches fracplap's
errors (and ``OSError``), and ``cli._exit_code`` alone decides whether a
failure exits 1 or 2.  The only other handlers are argparse's exit, the
two config-file reads, whose messages name the file, and ``sweep``'s
per-variant catch, which keeps one failed variant from losing the table.
The checks walk ``cli.py``'s syntax tree, so a handler added back to a
command fails here before any run shows a changed message or code.
"""
import ast
from pathlib import Path

import pytest

import fracplap
from fracplap import errors
from fracplap.cli import EXIT_CONFIG, EXIT_FAILED, _exit_code

CLI = ast.parse((Path(fracplap.__file__).resolve().parent / "cli.py").read_text(
    encoding="utf-8"))
EXIT_TWO = {"ConfigError", "HypothesisError", "KernelAdmissibilityError",
            "EvaluationRangeError"}
HANDLERS = {
    "main": [["SystemExit"], ["FracplapError", "OSError"]],
    "_cmd_simulate": [["OSError"]],
    "_cmd_sweep": [["OSError", "JSONDecodeError"], ["Exception"]],
}


def owners():
    """(name of the top-level definition holding it, node) for every node."""
    for top in CLI.body:
        name = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for node in ast.walk(top):
            yield name, node


def caught(handler: ast.ExceptHandler) -> list:
    if handler.type is None:
        return ["BaseException"]    # a bare except
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [t.id if isinstance(t, ast.Name) else t.attr for t in types]


def handlers() -> dict:
    found = {}
    for name, node in owners():
        if isinstance(node, ast.ExceptHandler):
            found.setdefault(name, []).append(caught(node))
    return found


def is_fracplap_error(name: str) -> bool:
    cls = getattr(errors, name, None)
    return isinstance(cls, type) and issubclass(cls, errors.FracplapError)


def test_only_main_catches_fracplap_errors():
    offenders = {name: types for name, found in handlers().items() if name != "main"
                 for types in found if any(map(is_fracplap_error, types))}
    assert offenders == {}, f"fracplap errors caught outside cli.main: {offenders}"


def test_the_remaining_handlers_are_the_documented_ones():
    assert handlers() == HANDLERS


def test_only_exit_code_tests_for_the_exit_two_errors():
    raised = {id(node.exc.func) for _, node in owners()
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)}
    named = [(name, node.lineno) for name, node in owners()
             if isinstance(node, ast.Name) and node.id in EXIT_TWO
             and name != "_exit_code" and id(node) not in raised]
    assert named == [], f"exit-2 errors named outside _exit_code, not raised: {named}"


@pytest.mark.parametrize("name", sorted(n for n in vars(errors) if is_fracplap_error(n)))
def test_exit_code_of_each_error(name):
    cls = getattr(errors, name)
    exc = cls("/path", "message") if cls is errors.ConfigError else cls("message")
    assert _exit_code(exc) == (EXIT_CONFIG if name in EXIT_TWO else EXIT_FAILED)


def test_exit_code_of_an_os_error():
    assert _exit_code(NotADirectoryError(20, "Not a directory")) == EXIT_FAILED
