"""Prime and extension fields share one arithmetic: every operation but
the matrix product reads the field tables, so `Field.is_prime` may be read
only where the tables are built (`Field.__init__`) and in `Field.matmul`,
the one place where a prime field takes another algorithm."""

import ast
from pathlib import Path

import tamehall

SRC = Path(tamehall.__file__).resolve().parent
ALLOWED = {"gf.Field.__init__", "gf.Field.matmul"}


def _reads(node, scope):
    """(scope, line) of every read of an attribute `is_prime` under node,
    scope the dotted path of the enclosing definitions."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = f"{scope}.{node.name}"
    if isinstance(node, ast.Attribute) and node.attr == "is_prime" and isinstance(node.ctx, ast.Load):
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, scope)


def test_is_prime_is_read_only_in_field_init_and_matmul():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    reads = [(scope, f"{path.relative_to(SRC)}:{line}")
             for path in modules
             for scope, line in _reads(ast.parse(path.read_text(), filename=str(path)),
                                       path.stem)]
    assert [where for scope, where in reads if scope not in ALLOWED] == []
    assert {scope for scope, _ in reads} == ALLOWED
