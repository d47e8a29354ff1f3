"""Brute-force enumeration baselines for checking the selection engine.

Both functions materialize the full sum multiset, sort it, and slice. They
are deliberately independent of the layered selection code so they can serve
as its oracle, and they refuse to run past a size cap. They hold inputs and
k to the engine's rules, as build_tree does: check_finite on each input's
min() and max(), check_sums on the group, and as_count for k.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimitError
from .loh import as_count, as_value_arrays, check_finite, check_sums

__all__ = ["DEFAULT_CAP", "brute_multi", "brute_pairwise"]

DEFAULT_CAP = 1 << 24


def brute_pairwise(a, b, k, cap: int = DEFAULT_CAP) -> np.ndarray:
    """The k smallest of all |a|*|b| pairwise sums, sorted ascending."""
    return brute_multi([a, b], k, cap)


def brute_multi(inputs, k, cap: int = DEFAULT_CAP) -> np.ndarray:
    """The k smallest sums drawing one value from each input, sorted ascending."""
    arrays = as_value_arrays(inputs)
    los, his = [a.min() for a in arrays], [a.max() for a in arrays]
    for i, (lo, hi) in enumerate(zip(los, his)):
        check_finite(lo, hi, f"input {i}")
    check_sums(los, his)
    total = math.prod(a.size for a in arrays)
    if total > cap:
        raise ResourceLimitError(f"full product holds {total} sums, above cap {cap}")
    k = as_count(k, 0, total, "k")
    acc = arrays[0]
    for arr in arrays[1:]:
        acc = np.add.outer(acc, arr).ravel()
    acc = np.sort(acc)
    return acc[:k]
