"""dim End(M) is computed once per module object: inside the package,
End(M) is built as `hom_dim(X, X)` only in `Rep._end_dim`, which keeps
the value on the module for `reps.end_dim` to read."""

import ast
from pathlib import Path

import tamehall

SRC = Path(tamehall.__file__).resolve().parent


def _end_systems(tree, stem):
    """(module stem, qualified function name) of every hom_dim(X, X) call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if (name == "hom_dim" and len(child.args) == 2
                        and ast.dump(child.args[0]) == ast.dump(child.args[1])):
                    found.append((stem, ".".join(scope)))
            visit(child, inner)

    visit(tree, ())
    return found


def test_end_is_built_only_where_reps_end_dim_keeps_it():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [site for path in modules
             for site in _end_systems(ast.parse(path.read_text(), filename=str(path)), path.stem)]
    assert found == [("reps", "Rep._end_dim")]
