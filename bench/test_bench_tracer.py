"""Tests for the benchmark's tracer and speed probe.

The call counts must equal cProfile's `ncalls` for the same functions, two
traced runs must count the same, tracing must not change results, and no
wrapper may stay bound afterwards.  The probe must keep its share of the
time, sample inside a long item, and leave no timer behind.  Each traced or profiled run happens in
a fresh interpreter, because the package's `lru_cache`s would otherwise
let a second run skip work.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench_tracer.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402

# A run in a child interpreter: CLI arguments, and how to observe them.
CHILD = """
import contextlib, io, json, sys
sys.path[:0] = {paths!r}
mode, argv = sys.argv[1], json.loads(sys.argv[2])
import tamehall.cli
out = io.StringIO()

def call():
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return tamehall.cli.main(argv)

if mode == "profile":
    import cProfile, pstats
    prof = cProfile.Profile()
    code = prof.runcall(call)
    by_code = {{(f, line, name): v[1] for (f, line, name), v in pstats.Stats(prof).stats.items()}}
    import tracer
    counts = {{}}
    for mod, fns in tracer.LAYERS.items():
        module = sys.modules["tamehall." + mod]
        for fn, _ in fns:
            obj = module
            for part in fn.split("."):
                obj = getattr(obj, part)
            c = getattr(obj, "__code__", None)
            if c is not None:
                counts[mod + "." + fn] = by_code.get((c.co_filename, c.co_firstlineno, c.co_name), 0)
    result = {{"code": code, "counts": counts}}
elif mode == "trace":
    import tracer
    t = tracer.Tracer()
    t.install()
    code = call()
    t.restore()
    result = {{"code": code, "counts": t.counts(), "leftover": tracer.leftover_wrappers()}}
else:
    result = {{"code": call()}}
result["stdout"] = out.getvalue()
print(json.dumps(result))
"""


def child(mode: str, argv: list[str]) -> dict:
    code = CHILD.format(paths=[str(HERE), str(ROOT / "src")])
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", code, mode, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table_argv(preset: str) -> list[str]:
    return ["hall-table", "--preset", preset, "--format", "json"]


def _is_generator(name: str) -> bool:
    return name in ("gf.enumerate_subspaces", "reps.enumerate_subreps")


def test_counts_match_cprofile():
    for preset in ("dtilde:4", "e6tilde"):
        profiled = child("profile", table_argv(preset))
        traced = child("trace", table_argv(preset))
        assert profiled["code"] == traced["code"] == 0
        assert profiled["counts"], "no traced function found by the profiler"
        for name, ncalls in profiled["counts"].items():
            # cProfile counts a generator once per resumption.
            key = "resumptions" if _is_generator(name) else "calls"
            assert traced["counts"][name][key] == ncalls, (preset, name)
        assert traced["counts"]["gf.rref"]["calls"] > 0
        assert traced["counts"]["quiver.sigma_reverse"]["calls"] > 0


def test_traced_runs_repeat_and_match_untraced():
    for argv in (table_argv("dtilde:4"),
                 ["gr-check", "--preset", "dtilde:4", "--field", "3", "--format", "json"]):
        first, second = child("trace", argv), child("trace", argv)
        plain = child("plain", argv)
        assert first["counts"] == second["counts"]
        assert first["code"] == plain["code"] == 0
        assert first["stdout"] == second["stdout"] == plain["stdout"]
        assert first["leftover"] == []


def test_restore_unbinds_every_wrapper():
    import tamehall.cli
    from tamehall import gf, gr, hall, homreg

    before = {name: dict(vars(m)) for name, m in
              (("gf", gf), ("gr", gr), ("hall", hall), ("homreg", homreg),
               ("cli", tamehall.cli))}
    matmul = vars(gf.Field)["matmul"]
    t = tracer.Tracer()
    t.install()
    try:
        assert gr.build_homogeneous_simples is hall.build_homogeneous_simples
        assert getattr(homreg.build_homogeneous_simples, "bench_traced", False)
        assert getattr(vars(gf.Field)["matmul"], "bench_traced", False)
        F = gf.field(3)
        gf.rank(F, [[1, 2], [2, 1]])
        list(gf.enumerate_subspaces(F, 2, 1))
        assert t.stats["gf.rref"].calls == 1
        assert t.stats["gf.enumerate_subspaces"].yielded == 4
        assert t.missing == []
    finally:
        t.restore()
    assert tracer.leftover_wrappers() == []
    assert vars(gf.Field)["matmul"] is matmul
    for name, m in (("gf", gf), ("gr", gr), ("hall", hall), ("homreg", homreg),
                    ("cli", tamehall.cli)):
        for key, value in before[name].items():
            assert vars(m)[key] is value, f"{name}.{key}"


def test_self_time_excludes_children():
    t = tracer.Tracer()
    t.install()
    try:
        from tamehall import gf
        F = gf.field(5)
        gf.kernel_basis(F, [[1, 2, 3], [0, 1, 4]])
    finally:
        t.restore()
    spans = t.spans
    names = [t.names[s[0]] for s in spans]
    assert names.count("gf.kernel_basis") == 1
    k = names.index("gf.kernel_basis")
    children = [s for s in spans if s[3] == k]
    assert children and all(t.names[s[0]] == "gf.rref" for s in children)
    total = spans[k][2] - spans[k][1]
    covered = sum(s[2] - s[1] for s in children)
    assert abs(t.stats["gf.kernel_basis"].self_s - (total - covered)) < 1e-9


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer.metric_names()


def test_benchmark_json_lists_end_to_end_metrics():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_probe_keeps_its_share_and_samples_long_items():
    import signal
    import time
    from probe import INTERVAL_S, SHARE, SpeedProbe
    p = SpeedProbe()
    t0 = time.perf_counter()
    p.start()
    try:
        for _ in range(20):  # short items: bursts only between them
            t = time.perf_counter()
            while time.perf_counter() - t < 0.01:
                pass
            p.burst()
        short = len(p.samples)
        t = time.perf_counter()  # one long item: the alarm samples inside it
        while time.perf_counter() - t < 3 * INTERVAL_S:
            pass
        long_busy = p.busy(t, time.perf_counter())
        p.burst()
    finally:
        p.stop()
    elapsed = time.perf_counter() - t0
    assert short >= 2 and len(p.samples) > short
    assert 0.0 < long_busy < 3 * INTERVAL_S
    assert sum(p.samples) <= p.total
    # the debt is paid in bursts, so the share overshoots by at most a chunk
    assert 0.5 * SHARE * (elapsed - p.total) < p.total < SHARE * elapsed + max(p.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_probe_busy_counts_only_overlap():
    from probe import SpeedProbe
    p = SpeedProbe()
    p._starts, p._ends = [1.0, 2.0, 5.0], [1.5, 2.5, 6.0]
    assert p.busy(0.0, 10.0) == 2.0
    assert p.busy(1.25, 2.25) == 0.5
    assert p.busy(3.0, 4.0) == 0.0
    assert p.busy(5.5, 7.0) == 0.5
