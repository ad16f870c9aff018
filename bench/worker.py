"""One pass of one workload in a fresh interpreter.

    python3 bench/worker.py --workload gr --seed 1 [--trace SPANS] [--setup-only]

The worker imports the package from `src/`, runs the workload's setup,
prints `ready` (the parent times interpreter start to this line as
`setup_s`), then runs one pass and prints one JSON line: per-item names,
latencies and oracle failures, the pass wall time, the peak RSS, and with
`--trace` the per-layer counters (spans go to the SPANS file).  An
untraced pass also runs the speed probe (`probe.py`); its chunk times are
in the output, its time is left out of the pass and item times and its
table out of the peak RSS.  With `--setup-only` the worker prints the
times of SETUP_CHUNKS chunks instead of running a pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from probe import SpeedProbe  # noqa: E402

# Chunks a setup-only worker times after `ready`, to scale its setup time.
SETUP_CHUNKS = 20


class ItemRunner:
    """Closed-loop caller: times each item, applies its oracle, keeps
    [name, seconds, failure message or None] per item, and with a probe
    the mean chunk time around the item as a fourth field."""

    def __init__(self, tracer=None, probe=None):
        self.items: list[list] = []
        self.spans: list[tuple[float, float]] = []
        self.tracer = tracer
        self.probe = probe

    def __call__(self, name, fn, check):
        if self.probe is not None:
            self.probe.burst()
        if self.tracer is not None:
            self.tracer.item = len(self.items)
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # an item that raises is a failed item
            self.items.append([name, self._seconds(t0), f"raised {type(exc).__name__}: {exc}"])
            return None
        seconds = self._seconds(t0)
        try:
            failure = check(value)
        except Exception as exc:  # a malformed result fails its oracle
            failure = f"oracle raised {type(exc).__name__}: {exc}"
        self.items.append([name, seconds, failure])
        return value

    def _seconds(self, t0: float) -> float:
        t1 = time.perf_counter()
        self.spans.append((t0, t1))
        return t1 - t0 - (self.probe.busy(t0, t1) if self.probe is not None else 0.0)

    def add_local_speed(self) -> None:
        for item, (t0, t1) in zip(self.items, self.spans):
            item.append(self.probe.local(t0, t1))

    @property
    def index(self) -> int:
        """Index of the item run last."""
        return len(self.items) - 1

    def fail(self, index: int, message: str) -> None:
        if self.items[index][2] is None:
            self.items[index][2] = message


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import tamehall.cli  # noqa: F401
    from workloads import WORKLOADS

    setup, run_pass = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ctx = setup(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"chunks": SpeedProbe().sample(SETUP_CHUNKS)}), flush=True)
        return 0

    probe = SpeedProbe() if tracer is None else None
    runner = ItemRunner(tracer, probe)
    t0 = time.perf_counter()
    if probe is not None:
        probe.start()
    try:
        run_pass(ctx, runner)
    finally:
        if probe is not None:
            probe.burst()
            probe.stop()
    wall = time.perf_counter() - t0
    out = {"wall_s": wall, "items": runner.items,
           "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if probe is not None:
        runner.add_local_speed()
        out["wall_s"] = wall - probe.total
        out["rss_kib"] -= probe.resident_kib
        out["chunks"] = probe.samples
    if tracer is not None:
        tracer.restore()
        out["metrics"] = tracer.metrics()
        out["counts"] = tracer.counts()
        out["missing"] = tracer.missing
        out["spans"] = tracer.write_spans(args.trace)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
