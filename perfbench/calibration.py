"""The host's current speed for plain Python, and timings scaled by it.

On a shared host the speed of interpreted code swings for a minute or
two at a time: on the 2-vCPU host this benchmark was written on, the
same run went up to 1.9x faster, most likely while a co-tenant on the
same cores was idle.  Raw wall-clock medians of ten runs then spread
far wider than any bound a regression check can use.  So the benchmark
times a fixed unit of interpreter work (integer arithmetic, a dict, a
heap) around every cycle and reports each timing scaled to a host on
which that unit takes exactly :data:`REFERENCE_S`: a *reference
second*.  The unit lives here, not in the package, so no change to the
package can move it.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: seconds the unit takes on the reference host; on the host the
#: benchmark was written on it took 8–15 ms
REFERENCE_S = 0.010
#: repetitions per probe; the probe reports their median
REPEATS = 3


def _unit() -> float:
    """A fixed mix of the interpreter work a simulation does."""
    total = 0
    for i in range(60_000):
        total += i * i
    heap: list[tuple[float, int]] = []
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(5_000):
        key = (i * 7919) % 1009
        counts[key] = counts.get(key, 0) + 1
        heapq.heappush(heap, ((i * 104729) % 10007 * 0.5, i))
        if len(heap) > 256:
            acc += heapq.heappop(heap)[0]
    return total + acc


def probe() -> float:
    """Seconds the unit takes on this host now (median of a few runs)."""
    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _unit()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds)
