"""Per-function breakdown of traced items, read from a spans file.

    python3 bench/spans.py --workload table --item e8tilde

Reads `.bench_out/<workload>.trace1.json` and `.bench_out/<workload>.spans.tsv`
written by `bench/run.py --trace 1`, keeps the spans of the traced pass's
items whose name contains `--item`, and prints for each traced function
its calls, self time, inclusive time (outermost spans only, so recursion
is not counted twice) and inclusive share of the items' wall time.
"""

from __future__ import annotations

import argparse
import csv
import json
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def breakdown(spans_path: Path, items: set[int]) -> dict[str, dict]:
    """name -> {calls, self_s, incl_s} over spans of the given item ids."""
    names, starts, ends, parents, keep = [], [], [], [], []
    with open(spans_path, encoding="utf-8") as fh:
        for row in csv.DictReader(fh, delimiter="\t"):
            names.append(row["name"])
            starts.append(float(row["start"]))
            ends.append(float(row["end"]))
            parents.append(int(row["parent"]))
            keep.append(int(row["item"]) in items)
    child = [0.0] * len(names)
    for k, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[k] - starts[k]
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
    for k, name in enumerate(names):
        if not keep[k]:
            continue
        dur = ends[k] - starts[k]
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += dur - child[k]
        p = parents[k]
        while p >= 0 and names[p] != name:
            p = parents[p]
        if p < 0:
            entry["incl_s"] += dur
    return dict(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="table")
    ap.add_argument("--item", default="", help="substring of the item names to keep")
    args = ap.parse_args(argv)
    record = json.loads((OUT_DIR / f"{args.workload}.trace1.json").read_text(encoding="utf-8"))
    traced = [p for p in record["passes"] if p["traced"]][-1]
    items = {i for i, item in enumerate(traced["items"]) if args.item in item[0]}
    wall = sum(traced["items"][i][1] for i in items)
    rows = breakdown(OUT_DIR / f"{args.workload}.spans.tsv", items)
    print(f"{len(items)} items, {wall:.3f} s traced wall")
    print(f"{'function':<40} {'calls':>9} {'self_s':>9} {'incl_s':>9} {'share':>7}")
    for name, e in sorted(rows.items(), key=lambda kv: -kv[1]["incl_s"]):
        print(f"{name:<40} {e['calls']:>9} {e['self_s']:>9.3f} {e['incl_s']:>9.3f} "
              f"{e['incl_s'] / wall:>7.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
