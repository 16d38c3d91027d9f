import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stockwave"
# Every module but the package, which re-exports the oracles, and theirs.
PROGRAM = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "reference"))


def loads_reference(node: ast.AST) -> bool:
    """Whether a statement of a package module imports stockwave.reference,
    by name or through the package, whose __init__ imports it."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "stockwave" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    if node.level == 0:
        return node.module.split(".")[0] == "stockwave"
    if node.module is not None:
        return node.module.split(".")[0] == "reference"
    return any(alias.name in ("reference", "*") for alias in node.names)


def reference_imports(source: str) -> list:
    """The line numbers of the statements of ``source`` that load the oracles;
    read from its syntax tree, never imported."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if loads_reference(node)]


@pytest.mark.parametrize("module", PROGRAM)
def test_program_module_does_not_import_the_oracles(module):
    assert reference_imports((PACKAGE / f"{module}.py").read_text()) == []


def test_the_boundary_check_sees_every_form_of_the_import():
    assert {"cli", "eigen", "errors", "evolution", "fourier", "lattice", "numfmt",
            "operators", "scenario", "states"} <= set(PROGRAM)
    caught = [
        "from .reference import dft_matrix",
        "from . import numfmt, reference",
        "from . import *",
        "import stockwave",
        "import numpy, stockwave.reference as oracles",
        "from stockwave import numfmt",
        "from stockwave.reference import theta3",
        "def f():\n    from .reference import theta3",
    ]
    passed = ["from .fourier import circulant", "from . import numfmt", "from referencing import reference"]
    assert [line for line in caught if not reference_imports(line)] == []
    assert [line for line in passed if reference_imports(line)] == []
