"""`src/` keeps only code the package runs: every undecorated function or
method in it, dunders aside, is referenced by name somewhere in `src/`.
Helpers that only tests use live in the tests.  The allowlist names each
exception with the reason it stays."""

import ast
from pathlib import Path

import tamehall

SRC = Path(tamehall.__file__).resolve().parent

ALLOWED = {
    ("gf", "in_rowspace"): "the bench tracer times it",
    ("gf", "batched_full_row_rank"): "the bench tracer times it",
    ("gr", "gr_submodules"): "bench/workloads.py calls it",
    ("gr", "count_submodules_report"): "bench/workloads.py calls it",
    ("hall", "hall_number_sink_lines"): "bench/workloads.py calls it",
    ("hall", "gr_form_check"): "the Hall-polynomial check of ROADMAP item 3 will call it",
}


def _unreferenced(trees):
    """(module stem, name) of every undecorated, non-dunder function or
    method of `trees` ({stem: ast}) whose name no Name or Attribute node
    in any of them reads."""
    defined, referenced = [], set()
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not node.decorator_list and not dunder:
                    defined.append((stem, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [site for site in defined if site[1] not in referenced]


def test_the_guard_sees_an_unreferenced_function():
    tree = ast.parse("def entry(x):\n"
                     "    return helper(x) + obj.method()\n"
                     "def helper(x):\n"
                     "    return x\n"
                     "def orphan(x):\n"
                     "    return x\n"
                     "class C:\n"
                     "    def __init__(self):\n"
                     "        pass\n"
                     "    def method(self):\n"
                     "        return 1\n"
                     "    def lonely(self):\n"
                     "        return 2\n"
                     "    @property\n"
                     "    def shown(self):\n"
                     "        return 3\n")
    assert _unreferenced({"m": tree}) == [("m", "entry"), ("m", "orphan"), ("m", "lonely")]


def test_every_src_function_is_referenced_in_src():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in modules}
    # equality, so an entry that gains a caller in src/ leaves the list
    assert sorted(_unreferenced(trees)) == sorted(ALLOWED)
