"""Benchmark for tamehall: one workload, timed end to end or traced per module.

    python3 bench/run.py --workload table|gr|enum --seed N --seconds S --trace 0|1

Run it from the root of a source tree; the package is imported from `src/`.
Every pass of the workload runs in a fresh single-threaded interpreter
(`bench/worker.py`), so memo dicts and `lru_cache`s start empty, as they
do for a CLI user.  Passes repeat until `--seconds` would be exceeded
(always at least one).

`--trace 0` reports the end-to-end metrics, times at the reference speed
of `probe.py`:
  wall_ref_s       one pass over the workload's items, oracle checks
                   included; median over the passes
  setup_s          interpreter start to the first item being ready (import
                   of `tamehall.cli`, the workload's quivers and `field(q)`
                   tables); median of at least SETUP_SAMPLES interpreters
  item_p50_ref_ms  percentiles over the items of each item's latency, its
  item_p90_ref_ms  median over the passes
  peak_rss_mib     peak resident memory of a pass's interpreter, less the
                   probe's table; median over the passes
A time at the reference speed is the measured time times REF_CHUNK_S over
the harmonic mean time of the probe's chunk: over the whole pass for
`wall_ref_s`, around the item for an item's latency, and after `ready` in
a setup-only worker for `setup_s`.  The raw `wall_s` and `setup_s` and
the chunk time are in the summary and the record.
`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics of `bench/tracer.py` (medians over traced passes), with
the traced minus untraced wall time as the tracing overhead.

Earlier lines of stdout are a readable summary with the machine and
provenance; the last line is the JSON result.  The full record, with every
pass and the spans of the last traced pass, goes under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import REF_CHUNK_S
from tracer import metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
WORKLOADS = ("table", "gr", "enum")
END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("item_p50_ref_ms", "ms"),
              ("item_p90_ref_ms", "ms"), ("peak_rss_mib", "MiB"))


class WorkerError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMEXPR_NUM_THREADS="1")
    return env


def run_worker(workload: str, seed: int, spans: Path | None = None,
               setup_only: bool = False) -> tuple[float, dict]:
    """Start a fresh interpreter; return (seconds until it reported ready,
    its pass result, or only its chunk times for a setup-only start)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed)]
    if spans is not None:
        cmd += ["--trace", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=_worker_env(), cwd=ROOT) as proc:
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError(f"{workload} worker timed out")
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerError(f"{workload} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return setup, json.loads(out.strip().splitlines()[-1])


def _scale(chunks: list[float]) -> float:
    """Factor from a worker's times to times at the reference speed."""
    return REF_CHUNK_S / statistics.harmonic_mean(chunks)


def _p90(values: list[float]) -> float:
    """90th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def provenance(seed: int) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_commit": commit or "unknown (not a git checkout)", "seed": seed,
            "src_lines": src_lines}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes until the next one would pass `seconds`; return every
    pass with its setup sample."""
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"{workload}.spans.tsv"
    start = time.perf_counter()
    passes: list[dict] = []
    setups: list[tuple[float, list[float]]] = []  # (setup, that worker's chunk times)
    while True:
        traced = trace and len(passes) % 2 == 1
        setup, result = run_worker(workload, seed, spans if traced else None)
        result["traced"] = traced
        if not traced:
            setups.append((setup, result["chunks"]))
        passes.append(result)
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        if trace and len(passes) < 2:
            continue
        if elapsed + per_pass > seconds and (not trace or len(passes) % 2 == 0):
            break
    while len(setups) < SETUP_SAMPLES:
        setup, result = run_worker(workload, seed, setup_only=True)
        setups.append((setup, result["chunks"]))
    return {"passes": passes, "setups": setups}


def summarize(workload: str, seed: int, trace: bool, data: dict) -> tuple[dict, dict]:
    passes = data["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(len(p["items"]) for p in passes)
    failures = [(i, item) for i, p in enumerate(passes) for item in p["items"] if item[2]]
    for p in plain:
        p["scale"] = _scale(p["chunks"])
    # an item's latency is scaled by the speed around it, and is its median
    # over the passes, so that one slow call in one pass does not move the
    # percentiles
    latencies = [statistics.median(p["items"][i][1] * REF_CHUNK_S / p["items"][i][3]
                                   for p in plain) * 1000.0
                 for i in range(len(plain[0]["items"]))]
    e2e = {
        "wall_ref_s": statistics.median(p["wall_s"] * p["scale"] for p in plain),
        "setup_s": statistics.median(setup * _scale(chunks) for setup, chunks in data["setups"]),
        "item_p50_ref_ms": statistics.median(latencies),
        "item_p90_ref_ms": _p90(latencies),
        "peak_rss_mib": statistics.median(p["rss_kib"] / 1024.0 for p in plain),
    }
    raw = {"wall_s": statistics.median(p["wall_s"] for p in plain),
           "setup_s": statistics.median(setup for setup, _ in data["setups"]),
           "chunk_ms": statistics.median(statistics.harmonic_mean(p["chunks"]) for p in plain) * 1000.0}
    record = {
        "workload": workload, "trace": int(trace),
        "provenance": provenance(seed),
        "end_to_end": e2e, "raw": raw,
        "error_rate": len(failures) / attempted,
        "attempted": attempted, "failed": len(failures),
        "failures": [[i, *item[:3]] for i, item in failures[:20]],
        "setups": [[setup, statistics.harmonic_mean(chunks)] for setup, chunks in data["setups"]],
        "passes": [{k: v for k, v in p.items() if k not in ("metrics", "counts", "chunks")}
                   for p in passes],
    }
    if trace:
        # Times are medians over traced passes; counts repeat exactly
        # (`counts_repeat`), so they come from the last traced pass.
        per_layer = {n: (statistics.median(p["metrics"][n] for p in traced)
                         if n.endswith("_s") else v)
                     for n, v in traced[-1]["metrics"].items()}
        overhead = statistics.median(p["wall_s"] for p in traced) - raw["wall_s"]
        record["per_layer"] = per_layer
        record["counts"] = traced[-1]["counts"]
        record["counts_repeat"] = all(p["counts"] == traced[0]["counts"] for p in traced)
        record["missing"] = traced[0]["missing"]
        record["provenance"]["tracing_overhead_s"] = overhead
        record["provenance"]["tracing_overhead_frac"] = overhead / raw["wall_s"]
        record["spans_file"] = str((OUT_DIR / f"{workload}.spans.tsv").relative_to(ROOT))
    else:
        record["provenance"]["tracing_overhead_s"] = None
    return record, e2e


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tamehall" / "cli.py").is_file():
        print(f"error: no tamehall sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        data = measure(args.workload, args.seed, args.seconds, trace)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    record, e2e = summarize(args.workload, args.seed, trace, data)
    (OUT_DIR / f"{args.workload}.trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    units = dict(END_TO_END)
    plain = [p for p in data["passes"] if not p["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {int(trace)}  "
          f"passes {len(data['passes'])}  items/pass {len(plain[0]['items'])}")
    for name, value in e2e.items():
        print(f"  {name:<16} {value:12.4f} {units[name]}")
    print(f"  {'wall_s':<16} {record['raw']['wall_s']:12.4f} s (raw)")
    print(f"  {'setup_s':<16} {record['raw']['setup_s']:12.4f} s (raw)")
    print(f"  {'probe chunk':<16} {record['raw']['chunk_ms']:12.4f} ms "
          f"(reference {REF_CHUNK_S * 1000.0:g} ms)")
    print(f"  {'error_rate':<16} {record['error_rate']:12.4f} ratio "
          f"({record['failed']}/{record['attempted']})")
    for i, name, seconds, message in record["failures"]:
        print(f"  FAILED pass {i}: {name}: {message}")
    print("provenance " + json.dumps(record["provenance"]))

    if trace:
        metrics = {name: {"value": record["per_layer"].get(name, 0), "unit": unit}
                   for name, unit, _ in metric_names()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
