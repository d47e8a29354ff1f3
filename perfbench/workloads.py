"""Benchmark workloads: seeded input families for cartsel selections.

Instance ``i`` of a workload under seed ``s`` is drawn from
``np.random.default_rng([s, i])``, so a seed fixes every input of a run and
the library only ever sees the generated arrays. Why each workload is there,
and which layer it loads, is recorded in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

INT_HIGH = 1 << 30


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    draw: Callable[[np.random.Generator], list[np.ndarray]]

    def instance(self, seed: int, index: int) -> list[np.ndarray]:
        return self.draw(np.random.default_rng([seed, index]))


def _ints(m: int, n: int, high: int):
    return lambda rng: [rng.integers(0, high, n) for _ in range(m)]


def _reals(m: int, n: int):
    return lambda rng: [rng.random(n) for _ in range(m)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bulk", 1 << 20, _ints(5, 256, INT_HIGH)),
        Workload("tall", 1 << 10, _reals(4, 1 << 20)),
        Workload("ties", 1 << 10, _ints(4, 256, 8)),
        # m >> n, the criterion-6 shape. Runnable by name but not listed in
        # BENCHMARK.json: its work is heavy-tailed across seeds. Proposals
        # double a child's layer index, so a parent that reaches a middle
        # layer of a child asks for one near or past its end, and that child
        # then generates most or all of its product. No seed-to-seed bound
        # holds, and some seeds exhaust the address-space cap.
        Workload("deep", 1 << 12, _ints(256, 32, INT_HIGH)),
    )
}
