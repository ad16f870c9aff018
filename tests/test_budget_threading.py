"""A caller's budget reaches every enumeration it starts: in every package
function with a `budget` parameter, each call to a module-level package
function that also takes `budget` passes it on, by keyword or by
position.  A call that leaves it out runs its enumeration under the
callee's default instead."""

import ast
from pathlib import Path

import tamehall

SRC = Path(tamehall.__file__).resolve().parent


def _functions(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]


def _budget_position(fn):
    """Index of `budget` among fn's positional parameters, -1 when it is
    keyword-only, None when fn has no such parameter."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if "budget" in positional:
        return positional.index("budget")
    return -1 if "budget" in [a.arg for a in fn.args.kwonlyargs] else None


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _mentions_budget(expr):
    return any(isinstance(n, ast.Name) and n.id == "budget" for n in ast.walk(expr))


def _passes_budget(call, position):
    if any(k.arg == "budget" and _mentions_budget(k.value) for k in call.keywords):
        return True
    return 0 <= position < len(call.args) and _mentions_budget(call.args[position])


def dropped_budgets(sources):
    """`path:line callee` for every call that drops the budget, over
    {path: source text}."""
    trees = {path: ast.parse(text, filename=path) for path, text in sources.items()}
    takes_budget = {}
    for tree in trees.values():
        for fn in tree.body:
            if isinstance(fn, ast.FunctionDef) and _budget_position(fn) is not None:
                takes_budget[fn.name] = _budget_position(fn)
    found = []
    for path, tree in trees.items():
        for fn in _functions(tree):
            if _budget_position(fn) is None:
                continue
            for call in ast.walk(fn):
                name = _callee(call) if isinstance(call, ast.Call) else None
                if name in takes_budget and not _passes_budget(call, takes_budget[name]):
                    found.append(f"{path}:{call.lineno} {name}")
    return sorted(set(found))


def test_every_budgeted_call_passes_the_budget():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}
    assert sources
    assert dropped_budgets(sources) == []


def test_the_check_finds_a_dropped_budget():
    sources = {"m.py": (
        "def scan(M, budget=10):\n"
        "    return M\n"
        "def outer(M, budget):\n"
        "    scan(M)\n"
        "    scan(M, budget)\n"
        "    scan(M, budget=budget)\n"
        "    scan(M, 5)\n"
        "def free(M):\n"
        "    scan(M)\n")}
    assert dropped_budgets(sources) == ["m.py:4 scan", "m.py:7 scan"]
