"""The march's hot path stays free of ``np.roll``, and only ``operators``
knows the Laplacian eigenbasis.

A roll copies its whole input (about 10 us at n = 16, more than the
arithmetic of a small step); the slice helper
``operators._periodic_diff`` gives the same bits without the copy.  The
check walks the syntax tree, so nested functions count and comments do
not.  The integrator's part of the path and the kernel convolution make
no ``np.fft`` call either: 2D solves and 2D convolutions are dense
products in the Laplacian eigenbasis, and a 1D convolution is one
product with the kernel's cached circulant (numpy's FFT call overhead
outweighs the arithmetic of a 16-point convolution several times).
Those dense products are two half-transforms,
``operators._to_eigenbasis`` and ``_from_eigenbasis``, and their
composition ``_eigen_product``; other modules reach the basis through
them and ``_laplacian_symbol``, never through ``_laplacian_basis``.
Nor does the step wrap its arrays in ``Field``s: a construction and its
grid check cost ~1 us each, and the march checks its kernel's grid once
per run instead.  Nor does it read
the grid spacing: ``face_diffusivity`` returns the couplings a / h^2,
so only ``operators`` knows how the face coefficients scale with h.
The same holds for the methods of ``integrator._SolvePlan`` that solve a
step's system, freeze its couplings or append its state, named
``Class.method`` below.  The L1 memory's share of a step
(``fractional.memory_term`` and the ``L1Memory`` append, guess and
load) builds no ``Field`` and makes no roll either: its ring wraps by
indexing.  Only the solve plan knows the coordinates the memory holds:
``fractional`` names no eigenbasis, ``integrator.run`` takes nothing to
or from it, and ``integrator.step`` names no transform and convolves
from the grid state alone.
"""
import ast
from pathlib import Path

import pytest

import fracplap

PACKAGE = Path(fracplap.__file__).resolve().parent
PLAN_STEP = ("_SolvePlan.eigenbasis", "_SolvePlan.tridiagonal", "_SolvePlan.pcg",
             "_SolvePlan.couplings", "_SolvePlan.accept")
MEMORY_STEP = ("L1Memory.append", "L1Memory.predict", "L1Memory.load", "memory_term")
HOT_PATH = {
    "operators.py": ("face_diffusivity", "_face_gradient_norm_sq", "diffusion_apply",
                     "_periodic_diff", "convolve_kernel", "_periodic_convolve",
                     "_eigen_product", "_to_eigenbasis", "_from_eigenbasis"),
    "integrator.py": ("step", "_pcg", "_scaled_eigen_solve", "_coupling_value",
                      "_cyclic_tridiagonal_solve") + PLAN_STEP,
    "fractional.py": MEMORY_STEP,
}
NO_FIELD = (("integrator.py", "step"), ("integrator.py", "_coupling_value"),
            ("integrator.py", "_cyclic_tridiagonal_solve"),
            ("operators.py", "_periodic_convolve")) + tuple(
                ("integrator.py", name) for name in PLAN_STEP) + tuple(
                ("fractional.py", name) for name in MEMORY_STEP)


def functions(module: str) -> dict:
    """Top-level functions by name, and methods of top-level classes as
    ``Class.method``."""
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    found = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            found.update((f"{cls.name}.{node.name}", node) for node in cls.body
                         if isinstance(node, ast.FunctionDef))
    return found


@pytest.mark.parametrize("module,name", [(m, f) for m, names in HOT_PATH.items()
                                         for f in names])
def test_hot_path_has_no_roll(module, name):
    defs = functions(module)
    assert name in defs, f"{name} is gone from {module}; update HOT_PATH"
    rolls = [node.lineno for node in ast.walk(defs[name])
             if isinstance(node, ast.Attribute) and node.attr == "roll"
             or isinstance(node, ast.Name) and node.id == "roll"]
    assert rolls == [], f"np.roll in {module}:{name} at lines {rolls}"


def fft_lines(module: str, name: str) -> list:
    return [node.lineno for node in ast.walk(functions(module)[name])
            if isinstance(node, ast.Attribute) and node.attr == "fft"]


@pytest.mark.parametrize("name", HOT_PATH["integrator.py"])
def test_integrator_hot_path_has_no_fft(name):
    ffts = fft_lines("integrator.py", name)
    assert ffts == [], f"np.fft in integrator.py:{name} at lines {ffts}"


@pytest.mark.parametrize("name", ("convolve_kernel", "_periodic_convolve", "_eigen_product",
                                  "_to_eigenbasis", "_from_eigenbasis"))
def test_kernel_convolution_has_no_fft(name):
    ffts = fft_lines("operators.py", name)
    assert ffts == [], f"np.fft in operators.py:{name} at lines {ffts}"


def test_only_operators_references_the_laplacian_basis():
    users = sorted(
        path.name for path in PACKAGE.glob("*.py") if path.name != "operators.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "_laplacian_basis"
        or isinstance(node, ast.Attribute) and node.attr == "_laplacian_basis"
        or isinstance(node, ast.alias) and node.name == "_laplacian_basis")
    assert users == [], f"_laplacian_basis referenced outside operators.py: {users}"


def identifiers(tree) -> list:
    """(identifier, line) of every name, attribute, argument, keyword,
    definition and import in ``tree``."""
    found = []
    for node in ast.walk(tree):
        for attr in ("id", "attr", "arg", "name"):
            value = getattr(node, attr, None)
            if isinstance(value, str):
                found.append((value, getattr(node, "lineno", None)))
    return found


def test_only_the_solve_plan_chooses_the_memory_coordinates():
    # the solve plan builds the L1 memory in its path's coordinates: the
    # memory does not know them, and run transforms nothing for it
    tree = ast.parse((PACKAGE / "fractional.py").read_text(encoding="utf-8"))
    named = [line for name, line in identifiers(tree) if "eigenbasis" in name]
    assert named == [], f"fractional.py names the eigenbasis at lines {named}"
    defs = functions("integrator.py")
    transforms = [(name, line) for name, line in identifiers(defs["run"])
                  if name in ("_to_eigenbasis", "_from_eigenbasis")]
    assert transforms == [], f"integrator.run transforms coordinates at {transforms}"
    # step forms its right-hand side in whatever coordinates the plan
    # holds: it names no transform and reads no path, and the coupling
    # is convolved from the grid state alone
    named = [(name, line) for name, line in identifiers(defs["step"])
             if "eigenbasis" in name or name == "path"]
    assert named == [], f"integrator.step names the eigenbasis or the path at {named}"
    params = [arg.arg for arg in defs["_coupling_value"].args.args]
    assert params == ["values", "params", "domain", "kernel"], params


@pytest.mark.parametrize("module,name", NO_FIELD)
def test_step_path_builds_no_field(module, name):
    calls = [node.lineno for node in ast.walk(functions(module)[name])
             if isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Name) and node.func.id == "Field"
                  or isinstance(node.func, ast.Attribute) and node.func.attr == "Field")]
    assert calls == [], f"Field built in {module}:{name} at lines {calls}"


def test_step_reads_no_grid_spacing():
    defs = functions("integrator.py")
    reads = [(name, node.lineno) for name in ("step",) + PLAN_STEP
             for node in ast.walk(defs[name])
             if isinstance(node, ast.Attribute) and node.attr == "h"]
    assert reads == [], f"grid spacing read in integrator.py at {reads}"
