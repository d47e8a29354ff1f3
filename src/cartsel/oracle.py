"""Brute-force enumeration baselines for checking the selection engine.

brute_multi materializes the full sum multiset, adding the inputs left to
right, sorts it and slices. brute_tree adds in the tree's own order instead:
the inputs split left-heavy as build_tree splits them, each node's sums one
np.add.outer of its children's. Integer sums are exact, so the two agree on
integer inputs; float sums round at each addition, so they can differ, and
brute_tree is the exact reference for a float answer (README, "Python API").
Both are deliberately independent of the layered selection code so they can
serve as its oracle, and they refuse to run past a size cap. They hold inputs
and k to the engine's rules, as build_tree does: check_finite on each
input's min() and max(), check_sums on the group, and as_count for k.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimitError
from .loh import as_count, as_value_arrays, check_finite, check_sums

__all__ = ["DEFAULT_CAP", "brute_multi", "brute_pairwise", "brute_tree"]

DEFAULT_CAP = 1 << 24


def brute_pairwise(a, b, k, cap: int = DEFAULT_CAP) -> np.ndarray:
    """The k smallest of all |a|*|b| pairwise sums, sorted ascending."""
    return brute_multi([a, b], k, cap)


def _checked(inputs) -> list[np.ndarray]:
    """The inputs in one numeric profile, refused as build_tree refuses them."""
    arrays = as_value_arrays(inputs)
    los, his = [a.min() for a in arrays], [a.max() for a in arrays]
    for i, (lo, hi) in enumerate(zip(los, his)):
        check_finite(lo, hi, f"input {i}")
    check_sums(los, his)
    return arrays


def brute_multi(inputs, k, cap: int = DEFAULT_CAP) -> np.ndarray:
    """The k smallest sums drawing one value from each input, sorted ascending."""
    arrays = _checked(inputs)
    total = math.prod(a.size for a in arrays)
    if total > cap:
        raise ResourceLimitError(f"full product holds {total} sums, above cap {cap}")
    k = as_count(k, 0, total, "k")
    acc = arrays[0]
    for arr in arrays[1:]:
        acc = np.add.outer(acc, arr).ravel()
    acc = np.sort(acc)
    return acc[:k]


def brute_tree(inputs, k, cap: int = DEFAULT_CAP) -> np.ndarray:
    """The k smallest sums, each added in the tree's order, sorted ascending.

    Each node keeps only the k smallest of its sums. That is exact: rounding
    is monotone, so a sum that uses a child's value outside that child's k
    smallest has k sums at most as large that use the k smallest instead.
    cap bounds the sums one node forms, min(k, left) * min(k, right), where
    left and right count the sums below each child.
    """
    arrays = _checked(inputs)
    k = as_count(k, 0, math.prod(a.size for a in arrays), "k")
    return _tree_sums(arrays, 0, len(arrays), k, cap)


def _tree_sums(arrays, lo, hi, k, cap) -> np.ndarray:
    """The k smallest sums over arrays[lo:hi], sorted, split like tree._subtree."""
    if hi - lo == 1:
        return np.sort(arrays[lo])[:k]
    mid = lo + (hi - lo + 1) // 2
    left, right = (min(k, math.prod(x.size for x in part)) for part in (arrays[lo:mid], arrays[mid:hi]))
    if left * right > cap:
        raise ResourceLimitError(f"a node forms {left * right} sums, above cap {cap}")
    sums = np.add.outer(_tree_sums(arrays, lo, mid, k, cap), _tree_sums(arrays, mid, hi, k, cap))
    return np.sort(sums, axis=None)[:k]
