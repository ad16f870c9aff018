"""Span tracer for the calls into each `tamehall` module.

The tracer wraps, from outside the package, every binding of the
functions named in `LAYERS`.  It finds the bindings by object identity in
every `tamehall.*` module namespace (for example `build_homogeneous_simples`
is bound in `homreg`, `hall`, `gr` and `cli`), and `Field.matmul` in its
class.  Each call records a span (name, start, end, parent span, item id)
in memory; a generator function records one span per resumption.  The
self time of a span is its duration minus the time its child spans cover.
`restore()` puts every original back.
"""

from __future__ import annotations

import inspect
import sys
import time

# Module -> traced functions, with the stats each reports.  `calls` is a
# count, `self_s` self time in seconds, `yielded` values produced by a
# generator, `true_frac` the share of calls that returned True.  `cells`
# (rows x cols of the input) and `matrices` / `full_rank_frac` (batch
# size, share of full-rank members) come from the arguments and results.
LAYERS: dict[str, tuple[tuple[str, tuple[str, ...]], ...]] = {
    "gf": (
        ("rref", ("calls", "self_s", "cells")),
        ("kernel_basis", ("calls", "self_s")),
        ("batched_full_row_rank", ("calls", "self_s", "matrices", "full_rank_frac")),
        ("Field.matmul", ("calls", "self_s")),
        ("in_rowspace", ("calls", "self_s")),
        ("enumerate_subspaces", ("yielded", "self_s")),
        ("quotient_map", ("calls", "self_s")),
        ("field", ("self_s",)),
    ),
    "quiver": (
        ("sigma_reverse", ("calls", "self_s")),
        ("admissible_sink_order", ("calls", "self_s")),
        ("positive_real_roots", ("calls", "self_s")),
    ),
    "functors": (
        ("reflect_plus", ("calls", "self_s")),
        ("reflect_minus", ("calls", "self_s")),
        ("build_preprojective", ("calls", "self_s")),
        ("build_preinjective", ("calls", "self_s")),
        ("tau", ("calls",)),
        ("tau_minus", ("calls",)),
    ),
    "reps": (
        ("hom_basis", ("calls", "self_s")),
        ("hom_dim", ("calls", "self_s")),
        ("ext_space", ("calls", "self_s")),
        ("hom_combination", ("calls", "self_s")),
        ("sub_rep", ("calls", "self_s")),
        ("quotient_rep", ("calls", "self_s")),
        ("is_isomorphic", ("calls", "self_s", "true_frac")),
        ("is_injective_morphism", ("calls", "true_frac")),
        ("enumerate_subreps", ("yielded", "self_s")),
        ("middle_term", ("calls",)),
    ),
    "homreg": (
        ("build_homogeneous_simples", ("calls", "self_s")),
        ("is_simple_homogeneous", ("calls", "self_s", "true_frac")),
        ("regular_pair", ("calls", "self_s")),
    ),
    "hall": (
        ("hall_number_sink_fast", ("calls", "self_s")),
        ("sample_counts", ("calls", "self_s")),
        ("hall_number", ("calls", "self_s")),
        ("hall_number_sink_lines", ("calls", "self_s")),
        ("interpolate", ("self_s",)),
    ),
    "gr": (
        ("gr_measure", ("calls", "self_s")),
        ("gr_submodules", ("calls", "self_s")),
        ("is_indecomposable", ("calls", "self_s")),
        ("count_submodules_report", ("calls", "self_s")),
        ("verify_main_theorem", ("calls", "self_s")),
    ),
    "cli": (
        ("main", ("calls", "self_s")),
    ),
}

UNITS = {"calls": "count", "self_s": "s", "cells": "count", "matrices": "count",
         "yielded": "count", "true_frac": "ratio", "full_rank_frac": "ratio"}
BETTER = {"true_frac": "higher", "full_rank_frac": "higher"}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in LAYERS order."""
    return [(f"{mod}.{fn}.{stat}", UNITS[stat], BETTER.get(stat, "lower"))
            for mod, fns in LAYERS.items() for fn, stats in fns for stat in stats]


class Stat:
    __slots__ = ("calls", "self_s", "true", "yielded", "resumptions", "cells",
                 "matrices", "full_rank")

    def __init__(self):
        self.calls = self.true = self.yielded = self.resumptions = 0
        self.cells = self.matrices = self.full_rank = 0
        self.self_s = 0.0

    def metric(self, stat: str):
        if stat == "true_frac":
            return self.true / self.calls if self.calls else 0.0
        if stat == "full_rank_frac":
            return self.full_rank / self.matrices if self.matrices else 0.0
        return getattr(self, stat)


def _rref_cells(stat, args, result):
    shape = getattr(args[1], "shape", ())
    if len(shape) == 2:
        stat.cells += shape[0] * shape[1]


def _batch_sizes(stat, args, result):
    stat.matrices += int(result.shape[0])
    stat.full_rank += int(result.sum())


def _count_true(stat, args, result):
    if result is True:
        stat.true += 1


EXTRAS = {
    "gf.rref": _rref_cells,
    "gf.batched_full_row_rank": _batch_sizes,
    "reps.is_isomorphic": _count_true,
    "reps.is_injective_morphism": _count_true,
    "homreg.is_simple_homogeneous": _count_true,
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tamehall" or name.startswith("tamehall."))]


class Tracer:
    """Install with `install()`, set `item` before each workload item, and
    call `restore()` when done.  Spans are kept as tuples
    (name index, start, end, parent span index or -1, item id)."""

    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, Stat] = {}
        self.spans: list = []
        self.item = -1
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._bound: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import tamehall.cli  # noqa: F401  (imports every traced module)

        modules = _package_modules()
        for mod, fns in LAYERS.items():
            module = sys.modules[f"tamehall.{mod}"]
            for fn, _ in fns:
                name = f"{mod}.{fn}"
                self.stats[name] = Stat()
                owner_name, _, attr = fn.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    original = vars(owner).get(attr) if owner is not None else None
                    if original is None:
                        self.missing.append(name)
                        continue
                    self._bind(owner, attr, self._wrap(name, original))
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._bind(m, key, wrapper)

    def _bind(self, namespace, attr: str, wrapper) -> None:
        self._bound.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, wrapper)

    def restore(self) -> None:
        while self._bound:
            namespace, attr, original = self._bound.pop()
            setattr(namespace, attr, original)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, original):
        sid = len(self.names)
        self.names.append(name)
        stat = self.stats[name]
        extra = EXTRAS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(original):
            def resume(gen):
                try:
                    while True:
                        parent = stack[-1][0] if stack else -1
                        frame = [len(spans), 0.0]
                        spans.append(None)
                        stack.append(frame)
                        stat.resumptions += 1
                        t0 = clock()
                        try:
                            value = next(gen)
                        except StopIteration:
                            return
                        finally:
                            t1 = clock()
                            stack.pop()
                            spans[frame[0]] = (sid, t0, t1, parent, tracer.item)
                            stat.self_s += (t1 - t0) - frame[1]
                            if stack:
                                stack[-1][1] += t1 - t0
                        stat.yielded += 1
                        yield value
                finally:
                    gen.close()

            def wrapper(*args, **kwargs):
                stat.calls += 1
                return resume(original(*args, **kwargs))
        else:
            def wrapper(*args, **kwargs):
                parent = stack[-1][0] if stack else -1
                frame = [len(spans), 0.0]
                spans.append(None)
                stack.append(frame)
                t0 = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[frame[0]] = (sid, t0, t1, parent, tracer.item)
                    stat.calls += 1
                    stat.self_s += (t1 - t0) - frame[1]
                    if stack:
                        stack[-1][1] += t1 - t0
                if extra is not None:
                    extra(stat, args, result)
                return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__qualname__ = getattr(original, "__qualname__", name)
        wrapper.bench_traced = True
        return wrapper

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {}
        for mod, fns in LAYERS.items():
            for fn, stats in fns:
                stat = self.stats.get(f"{mod}.{fn}") or Stat()
                for s in stats:
                    out[f"{mod}.{fn}.{s}"] = stat.metric(s)
        return out

    def counts(self) -> dict[str, dict[str, int]]:
        """Every count the tracer keeps, for comparing runs and profilers."""
        return {name: {"calls": s.calls, "resumptions": s.resumptions,
                       "yielded": s.yielded, "true": s.true, "cells": s.cells,
                       "matrices": s.matrices, "full_rank": s.full_rank}
                for name, s in self.stats.items()}

    def write_spans(self, path) -> int:
        """Write spans as tab-separated lines: index, name, start, end,
        parent index, item id.  Returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\titem\n")
            for k, (sid, t0, t1, parent, item) in enumerate(self.spans):
                fh.write(f"{k}\t{self.names[sid]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{item}\n")
        return len(self.spans)


def leftover_wrappers() -> list[str]:
    """Names in `tamehall.*` namespaces that are still bound to a tracer
    wrapper; empty after `restore()`."""
    out = []
    for m in _package_modules():
        for key, value in vars(m).items():
            if getattr(value, "bench_traced", False):
                out.append(f"{m.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                for attr, member in vars(value).items():
                    if getattr(member, "bench_traced", False):
                        out.append(f"{m.__name__}.{key}.{attr}")
    return out
