"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts: on a 2-core shared
host, the median time of one fixed selection moved between 24 and 36 ms
across 5-second windows of a single process. Each build-and-select of a run
is therefore preceded by a fixed task that does not use cartsel, and its
times are reported
in seconds of a reference host that runs that task in ``REFERENCE_S``. The
task mirrors the library's two kinds of work: heap pushes and pops of tuples
with an outer sum (interpreter-bound), and masking passes over an array
the size of a core's L2 cache (memory-bound), so that contention for either shows.
A change to cartsel cannot change the task.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

REFERENCE_S = 0.006
_KEYS = np.random.default_rng(0).random(1500).tolist()
_VALUES = np.random.default_rng(1).random(160)
_LARGE = np.random.default_rng(2).integers(0, 1 << 30, 1 << 18)


def _task_seconds() -> float:
    start = time.perf_counter()
    heap: list = []
    for i, key in enumerate(_KEYS):
        heapq.heappush(heap, (key, False, i, 1))
    while heap:
        heapq.heappop(heap)
    np.partition(np.add.outer(_VALUES, _VALUES).ravel(), 2000)
    pivot = _LARGE[0]
    _LARGE[_LARGE < pivot]
    _LARGE[_LARGE > pivot]
    return time.perf_counter() - start


def speed_factor(repeats: int = 3) -> float:
    """Factor turning seconds measured now into seconds of the reference host.

    The best of a few timings of the task, so an interrupt during one of
    them does not count.
    """
    return REFERENCE_S / min(_task_seconds() for _ in range(repeats))
