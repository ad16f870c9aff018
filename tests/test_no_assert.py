"""No runtime check in the package may rest on `assert`: `python -O`
strips every assert statement, so each check must raise explicitly."""

import ast
from pathlib import Path

import tamehall

SRC = Path(tamehall.__file__).resolve().parent


def test_package_has_no_assert_statements():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
