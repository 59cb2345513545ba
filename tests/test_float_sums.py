"""Answers that do not hinge on the Python version.

From Python 3.12 on, builtin `sum()` over floats compensates its rounding
(Neumaier), so `sum([1e16, 1.0, -1e16])` reads 0.0 on 3.11 and 1.0 on
3.12, and a slot's answers would differ between the two.  The package
sums floats in member order with `+=` instead; `np.sum` and `.sum()` are
numpy's and round alike on every Python."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "uavrelay"


def builtin_sum_calls(path):
    """(line, source) of every call of the bare name `sum` in `path`."""
    source = path.read_text()
    return [(node.lineno, ast.get_source_segment(source, node))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"]


def test_the_package_calls_no_builtin_sum():
    calls = {path.name: found for path in sorted(PACKAGE.rglob("*.py"))
             if (found := builtin_sum_calls(path))}
    assert calls == {}


def test_the_check_sees_a_builtin_call_and_not_numpys(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n"
                     "a = np.sum([1.0])\nb = np.ones(2).sum()\nc = sum([1.0, 2.0])\n")
    assert builtin_sum_calls(probe) == [(4, "sum([1.0, 2.0])")]
