"""How fast the host runs, sampled all through a run.

On a shared host the processor's speed changes within seconds: a busy
neighbour slows this core by up to 1.7 times, with no steal time to show
for it, so raw seconds mostly measure the neighbours (ten raw runs of the
``walk`` workload spread by a third).  A background thread runs a fixed
pure-Python chunk every 20 ms and records the CPU time it took.  The
chunk belongs to the benchmark, so no change to circhad can move it.
``factor(start, end)`` is the chunk's reference cost over its mean cost
during an interval; a time measured in that interval, multiplied by it,
reads as seconds at the reference speed, and a rate is divided by it.

The thread holds the interpreter lock for about half a millisecond per
sample, which every measured interval pays alike, parent and change.
"""

from __future__ import annotations

import bisect
import threading
import time

# CPU time of ``_chunk`` at the reference speed: the 2-core VM the
# benchmark was defined on (Xeon at 2.1 GHz, CPython 3.11.7) with no busy
# neighbour.  Only ratios to it matter.
CHUNK_REFERENCE_S = 0.00038
INTERVAL_S = 0.02
# Samples this long before an interval also count, so that a short
# interval still has several.
MARGIN_S = 0.1


def _chunk() -> int:
    cells = [0] * 64
    acc = 0
    for i in range(3000):
        j = i & 63
        cells[j] += i ^ j
        acc += cells[(i * 7) & 63] & 1
    return acc


class HostSpeed:
    """Background sampler of the host's speed; use as a context manager."""

    def __init__(self) -> None:
        self._ends: list[float] = []   # perf_counter() when each sample finished
        self._costs: list[float] = []  # its thread CPU time
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)

    def __enter__(self) -> HostSpeed:
        self._thread.start()
        while len(self._costs) < 5 and self._thread.is_alive():
            time.sleep(INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = time.thread_time()
            _chunk()
            cost = time.thread_time() - start
            with self._lock:
                self._ends.append(time.perf_counter())
                self._costs.append(cost)

    def factor(self, start: float, end: float) -> float:
        """Reference cost over mean sample cost in [start - MARGIN_S, end] (perf_counter seconds)."""
        with self._lock:
            lo = bisect.bisect_left(self._ends, start - MARGIN_S)
            hi = bisect.bisect_right(self._ends, end)
            costs = self._costs[lo:hi] or self._costs[-5:]
        if not costs:
            raise RuntimeError("no host-speed samples yet")
        return CHUNK_REFERENCE_S * len(costs) / sum(costs)

    def busy_s(self, start: float, end: float) -> float:
        """CPU time the sampler itself spent on samples that finished in [start, end]."""
        with self._lock:
            lo = bisect.bisect_left(self._ends, start)
            hi = bisect.bisect_right(self._ends, end)
            return sum(self._costs[lo:hi])

    def samples(self) -> list[tuple[float, float]]:
        with self._lock:
            return list(zip(self._ends, self._costs))
