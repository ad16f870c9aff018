"""The one-sink count as a complement (`hall.hall_number_sink_fast`:
the classes of P^{h-1} minus the points of the kernels K_{j,y}) against
the scan of every class it replaced (`count_oracles.sink_count_by_classes`),
on every sink row of the seven affine presets, on both homogeneous
modules `sink_family` yields, and on the e8tilde rows at q = 9.  The
scan's batched rank test is left to the oracle: inside the package only
`gf`, which defines it, names `batched_full_row_rank`."""

import ast
import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import tamehall
from tamehall import hall
from tamehall.functors import build_preinjective
from tamehall.gf import field
from tamehall.homreg import sink_family
from tamehall.quiver import preset_quiver, radical_delta, reorient_toward

from count_oracles import sink_count_by_classes

AFFINE_PRESETS = ("kronecker", "dtilde:4", "dtilde:5", "dtilde:6", "e6tilde", "e7tilde", "e8tilde")


def _instances(name, q):
    """(R, i, I) for each sink row m of the preset and each of the first
    two homogeneous modules of that row."""
    Q = preset_quiver(name)
    delta = radical_delta(Q)
    F = field(q)
    for m in sorted(set(delta)):
        i = delta.index(m)
        Qi = reorient_toward(Q, i)
        I = build_preinjective(Qi, F, hall._minus_unit(delta, i))
        modules = list(itertools.islice(sink_family(Qi, F), 2))
        assert modules
        for R in modules:
            yield R, i, I


@pytest.mark.parametrize("q", (3, 4, 5, 8))
@pytest.mark.parametrize("name", AFFINE_PRESETS)
def test_complement_count_matches_the_class_scan(name, q):
    for R, i, I in _instances(name, q):
        assert hall.hall_number_sink_fast(R, i, I) == sink_count_by_classes(R, I)


def test_complement_count_matches_the_class_scan_on_e8tilde_at_q9(monkeypatch):
    """Up to m = 6, where the scan lists 66,430 classes and the kernels
    have up to five rows; every kernel size the count branches on, zero,
    one and several rows, occurs.  Both sources of kernels run: single
    ones at t_j = 1, and groups of the batched elimination at t_j >= 2,
    where GF(9) gives 10 or 91 classes y (the only source of empty
    kernels here)."""
    single, batched = Counter(), Counter()

    def recording(real, sizes, dims):
        def wrapped(F, M):
            out = real(F, M)
            for f in dims(out):
                sizes[min(f, 2)] += 1
            return out
        return wrapped

    monkeypatch.setattr(hall, "kernel_basis",
                        recording(hall.kernel_basis, single, lambda K: [K.shape[0]]))
    monkeypatch.setattr(hall, "batched_kernels",
                        recording(hall.batched_kernels, batched,
                                  lambda groups: [K.shape[1] for _, K in groups]))
    for R, i, I in _instances("e8tilde", 9):
        assert hall.hall_number_sink_fast(R, i, I) == sink_count_by_classes(R, I)
    sizes = single + batched
    assert sizes[0] and sizes[1] and sizes[2]
    assert single and batched


def _names(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            yield node
        elif isinstance(node, ast.Attribute) and node.attr == name:
            yield node
        elif isinstance(node, ast.alias) and name in (node.name, node.asname):
            yield node
        elif isinstance(node, ast.FunctionDef) and node.name == name:
            yield node


def test_batched_rank_test_has_no_caller_in_the_package():
    src = Path(tamehall.__file__).resolve().parent
    found = {path.stem: list(_names(ast.parse(path.read_text(), filename=str(path)),
                                    "batched_full_row_rank"))
             for path in sorted(src.rglob("*.py"))}
    naming = {stem for stem, nodes in found.items() if nodes}
    assert naming == {"gf"}
    assert [type(node) for node in found["gf"]] == [ast.FunctionDef]


_TABLE_IMPORTS = """
import contextlib, io, sys
from tamehall import cli, hall
calls = []
real = hall.batched_kernels
hall.batched_kernels = lambda F, mats: calls.append(len(mats)) or real(F, mats)
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["hall-table", "--preset", "e7tilde", "--format", "json"])
print(rc, bool(calls), "numpy.ma" in sys.modules)
"""


def test_batched_count_leaves_numpy_ma_unimported():
    """`np.unique` imports numpy.ma lazily, about half a MiB of resident
    memory; the batched elimination groups its kernels without it.  A
    fresh interpreter runs the e7tilde table, which takes the batched
    path, and numpy.ma must not be loaded at the end."""
    src = str(Path(tamehall.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _TABLE_IMPORTS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "0 True False\n"
