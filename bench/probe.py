"""Machine-speed probe for untraced passes.

The benchmark runs on shared hosts whose speed drifts with other tenants'
load, by a quarter or more over minutes, in CPU time as much as in wall
time.  A pass's raw wall time carries that drift.  The probe measures it
as the pass runs: it times a fixed calibration chunk that does not touch
`tamehall`, as often as keeps its time at SHARE of the pass.  A burst of
chunks runs between two items, and inside an item that runs longer than
INTERVAL_S (from a SIGALRM handler, between two bytecodes).  The worker
takes the probe's time out of the pass and item times; `run.py` scales
them by REF_CHUNK_S over the mean chunk time, of the pass for the pass
time and of the chunks around each item for that item's time (`local`),
giving times at a fixed reference speed.  The mean is harmonic: chunks
sample the pass evenly in time, so it weighs the speeds as the pass's
work does, and a chunk that the host preempted barely moves it.  A change
to the program leaves the chunk alone, so it moves the scaled times as it
moves the raw ones.

The chunk has two halves of about equal time, because the program's speed
moves with both: a small-array numpy elimination, like `gf.rref` on a Hom
system, and random lookups into a table of about 10 MiB, which miss the
caches as the program's memo dicts and arrays do.  A pure-Python loop
tracked the program worse: it speeds up about twice as much as the
program when the host turbo-boosts.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import os
import random
import signal
import statistics
import time

import numpy as np

SHARE = 0.06
# Longest stretch without a burst: longer items are interrupted for one.
INTERVAL_S = 0.5
# Fewest chunks behind one item's speed.
LOCAL_CHUNKS = 16
# Mean chunk time on a quiet 2-core x86_64 VM (Xeon, 2.0 GHz), Python 3.11,
# numpy 2.4: scaled times read as seconds on that machine.
REF_CHUNK_S = 0.003

_BASE = np.arange(60, dtype=np.int64).reshape(6, 10) % 7
_TABLE_KEYS = 60_000
_LOOKUPS = 1_500


@contextlib.contextmanager
def _gc_paused():
    """Keep the program's heap out of the chunk's time."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _resident_kib() -> int:
    with open("/proc/self/statm", encoding="ascii") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


class SpeedProbe:
    """Runs `chunk` in bursts, between items and inside long ones, enough to
    keep its time at SHARE of the time since `start`; keeps every chunk time,
    every burst's interval and the probe's total.
    `resident_kib` is the memory its table holds, which the worker takes
    off the pass's peak RSS."""

    def __init__(self):
        before = _resident_kib()
        rng = random.Random(0)
        # ints only, so the garbage collector does not track the table and
        # the program's collections cost what they cost without the probe
        self._keys = tuple(rng.sample(range(1 << 32), _TABLE_KEYS))
        self._table = {k: i for i, k in enumerate(self._keys)}
        self._array = np.arange(1 << 19, dtype=np.int64)
        self._index = np.array(rng.choices(range(self._array.size), k=8000))
        self._pos = 0
        self.resident_kib = max(_resident_kib() - before, 0)
        self.samples: list[float] = []
        self.stamps: list[float] = []  # start of each sampled chunk
        self.total = 0.0
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._credit = 0.0
        self._last = time.perf_counter()
        self._armed = False
        self._in_burst = False

    def chunk(self) -> int:
        """Fixed calibration work, about 3 ms on the reference machine."""
        A = _BASE.copy()
        for _ in range(20):
            for c in range(6):
                nz = np.nonzero(A[:, c] != 0)[0]
                if nz.size:
                    r = int(nz[0])
                    A[[0, r]] = A[[r, 0]]
                    A[1:] = (A[1:] - A[1:, c][:, None] * A[0][None, :]) % 7
            A = (A + _BASE) % 7
        total = int(A.sum())
        p = self._pos
        for k in self._keys[p:p + _LOOKUPS]:
            total += self._table[k]
        self._pos = (p + _LOOKUPS) % (_TABLE_KEYS - _LOOKUPS)
        return total + int(self._array[self._index].sum())

    def _timed_chunk(self) -> float:
        c0 = time.perf_counter()
        self.chunk()
        dt = time.perf_counter() - c0
        self.stamps.append(c0)
        self.samples.append(dt)
        return dt

    def local(self, t0: float, t1: float) -> float:
        """Harmonic mean time of the chunks run during [t0, t1], widened to
        the nearest LOCAL_CHUNKS when fewer ran there: the speed around one
        item."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        n = len(self.stamps)
        while hi - lo < LOCAL_CHUNKS and (lo > 0 or hi < n):
            if hi == n or (lo > 0 and t0 - self.stamps[lo - 1] <= self.stamps[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return statistics.harmonic_mean(self.samples[lo:hi])

    def sample(self, n: int) -> list[float]:
        """Time `chunk` n times in a row (for a worker that runs no pass)."""
        with _gc_paused():
            for _ in range(n):
                self._timed_chunk()
        return self.samples

    def start(self) -> None:
        """Start the pass's clock, and from now on interrupt (SIGALRM) any
        stretch of INTERVAL_S without a burst, so that an item longer than
        that is sampled while it runs."""
        self._last = time.perf_counter()
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame) -> None:
        self.burst()

    def burst(self) -> None:
        """Pay the chunk time owed since the last burst.  Runs between items
        and from the alarm; a burst that the alarm would start inside
        another is skipped."""
        if self._in_burst:
            return
        self._in_burst = True
        t0 = time.perf_counter()
        self._credit += SHARE * (t0 - self._last)
        with _gc_paused():
            while self._credit > 0.0:
                self._credit -= self._timed_chunk()
        self._last = time.perf_counter()
        self.total += self._last - t0
        self._starts.append(t0)
        self._ends.append(self._last)
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        self._in_burst = False

    def busy(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent in bursts."""
        total = 0.0
        i = max(bisect.bisect_right(self._starts, t0) - 1, 0)
        while i < len(self._starts) and self._starts[i] < t1:
            total += max(0.0, min(self._ends[i], t1) - max(self._starts[i], t0))
            i += 1
        return total
