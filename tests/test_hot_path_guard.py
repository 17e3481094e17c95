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
Those dense products are one function, ``operators._eigen_product``;
other modules reach the basis through it and ``_laplacian_symbol``,
never through ``_laplacian_basis``.
"""
import ast
from pathlib import Path

import pytest

import fracplap

PACKAGE = Path(fracplap.__file__).resolve().parent
HOT_PATH = {
    "operators.py": ("face_diffusivity", "_face_gradient_norm_sq", "diffusion_apply",
                     "convolve_kernel", "_periodic_convolve", "_eigen_product"),
    "integrator.py": ("step", "_pcg"),
}


def functions(module: str) -> dict:
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


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


@pytest.mark.parametrize("name", ("convolve_kernel", "_periodic_convolve", "_eigen_product"))
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
