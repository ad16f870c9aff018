"""Each root module is kept once: `functors._preinjective` memoises the
module of every (quiver, field, root), so outside `functors` no
`lru_cache` function returns what `build_preprojective` or
`build_preinjective` built."""

import ast
from pathlib import Path

import tamehall

SRC = Path(tamehall.__file__).resolve().parent
BUILDERS = {"build_preprojective", "build_preinjective"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_lru_cache(decorator):
    return _name(decorator.func if isinstance(decorator, ast.Call) else decorator) == "lru_cache"


def _builds(node, built):
    """Whether `node` is a builder call or a name bound to one."""
    if isinstance(node, ast.Call):
        return _name(node.func) in BUILDERS
    return isinstance(node, ast.Name) and node.id in built


def _memoised_builds(tree, stem):
    """(module stem, function name) of every `lru_cache` function that
    returns a builder's result, directly or through a local name."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or not any(map(_is_lru_cache, fn.decorator_list)):
            continue
        built = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                 and _builds(node.value, set()) for t in node.targets if isinstance(t, ast.Name)}
        if any(isinstance(node, ast.Return) and node.value is not None
               and _builds(node.value, built) for node in ast.walk(fn)):
            found.append((stem, fn.name))
    return found


def test_the_guard_sees_a_memoised_builder():
    tree = ast.parse("@lru_cache(maxsize=None)\n"
                     "def kept(Q, F, x):\n"
                     "    M = functors.build_preprojective(Q, F, x)\n"
                     "    return M\n"
                     "@functools.lru_cache\n"
                     "def also(Q, F, x):\n"
                     "    return build_preinjective(Q, F, x)\n"
                     "def plain(Q, F, x):\n"
                     "    return build_preinjective(Q, F, x)\n")
    assert _memoised_builds(tree, "m") == [("m", "kept"), ("m", "also")]


def test_no_memo_outside_functors_keeps_a_root_module():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [site for path in modules if path.stem != "functors"
             for site in _memoised_builds(ast.parse(path.read_text(), filename=str(path)),
                                          path.stem)]
    assert found == []
