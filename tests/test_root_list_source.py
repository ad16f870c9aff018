"""The root engine takes its preprojective roots from the Coxeter orbits
(`quiver.preprojective_roots`), not from a box scan: inside the package
only `quiver`, which defines it, and `cli`, whose `roots` command lists a
box, name `positive_real_roots`."""

import ast
from pathlib import Path

import tamehall

SRC = Path(tamehall.__file__).resolve().parent
NAME = "positive_real_roots"


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == NAME:
            yield node
        elif isinstance(node, ast.Attribute) and node.attr == NAME:
            yield node
        elif isinstance(node, ast.alias) and NAME in (node.name, node.asname):
            yield node
        elif isinstance(node, ast.FunctionDef) and node.name == NAME:
            yield node


def test_box_scan_is_named_only_in_quiver_and_cli():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    naming = {path.stem for path in modules
              if any(_names(ast.parse(path.read_text(), filename=str(path))))}
    assert naming == {"quiver", "cli"}
