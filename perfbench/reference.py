"""Independent reference for the k smallest m-fold sums: threshold enumeration.

This shares nothing with the library's layered selection. Each array is
sorted and shifted so its minimum is zero; a slack bound T is grown until at
least k combinations have shifted sums <= T; those combinations are then
enumerated array by array, pruning any partial sum above T with
``searchsorted``, and the k smallest are kept. Every shifted array holds a
zero, so a partial sum within the slack always extends to a full one, and no
frontier is larger than the final count of sums within the slack.
"""

from __future__ import annotations

import numpy as np

_GROWTH = 1.25


def _extend(front: np.ndarray, deltas: np.ndarray, slack) -> np.ndarray:
    """Every front + d with d in deltas and front + d <= slack."""
    counts = np.searchsorted(deltas, slack - front, side="right")
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    offsets = np.arange(total) - np.repeat(starts, counts)
    return np.repeat(front, counts) + deltas[offsets]


def _partial_sums(deltas: list[np.ndarray], slack) -> np.ndarray:
    """Sums of one value from each array but the last, kept while within slack."""
    front = deltas[0][: np.searchsorted(deltas[0], slack, side="right")]
    for d in deltas[1:-1]:
        front = _extend(front, d, slack)
    return front


def _count_within(deltas: list[np.ndarray], slack) -> int:
    front = _partial_sums(deltas, slack)
    return int(np.searchsorted(deltas[-1], slack - front, side="right").sum())


def reference_k_smallest(arrays, k: int) -> np.ndarray:
    """The k smallest sums drawing one value from each array, sorted ascending."""
    srt = [np.sort(np.asarray(a)) for a in arrays]
    if len(srt) == 1:
        return srt[0][:k]
    base = sum(a[0] for a in srt)
    deltas = [a - a[0] for a in srt]
    slack = deltas[0].dtype.type(0)
    if _count_within(deltas, slack) < k:
        slack = min(d[d > 0].min() for d in deltas if d[-1] > 0)
        while _count_within(deltas, slack) < k:
            grown = slack * _GROWTH
            slack = grown if deltas[0].dtype.kind == "f" else max(int(grown), slack + 1)
    sums = _extend(_partial_sums(deltas, slack), deltas[-1], slack)
    return base + np.sort(np.partition(sums, k - 1)[:k])
