"""Exact elimination over Q exists once, as `gf.rational_rref`: inside the
package only `gf` names `Fraction` or imports `fractions`.  The radical
vector delta and the interpolant both take their Fractions from it."""

import ast
from pathlib import Path

import tamehall

SRC = Path(tamehall.__file__).resolve().parent


def _names_fractions(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "Fraction":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "Fraction":
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            return True
        if isinstance(node, ast.alias) and (
                "fractions" in node.name.split(".") or "Fraction" in (node.name, node.asname)):
            return True
    return False


def test_fractions_are_named_only_in_gf():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    naming = {path.stem for path in modules
              if _names_fractions(ast.parse(path.read_text(), filename=str(path)))}
    assert naming == {"gf"}
