import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_values():
    """Run the README "Library tour" block; return its bare expressions' values."""
    text = README.read_text()
    block = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.S).group(1)
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    return values


def test_library_tour_results_match_its_comments():
    price_argmax, owner_argmax, product_ok, eigenvalue, norm_error = _tour_values()
    assert price_argmax == 7
    assert owner_argmax == 14
    assert product_ok
    assert eigenvalue == pytest.approx(3.342253804930j, abs=1e-12)
    assert norm_error < 1e-12
