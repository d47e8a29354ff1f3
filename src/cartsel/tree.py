"""Balanced selection tree computing the k smallest m-fold sums.

A LeafNode exposes one input's layer-ordered heap; every internal node is a
PairwiseState, emitting the layers of its children's sums, so the root's
layers enumerate the sum multiset smallest first. Both kinds offer dtype,
values and ends (layer i is values[ends[i-1]:ends[i]]), mins, maxs, ensure
and generate_next_layer: a parent reads either child the same way, and
select_k drives a leaf or an internal root through generate_next_layer with
the whole outstanding demand, while inner nodes emit on their own size
schedule. Building touches no child: a node asks a child for a layer only
when an unpriced tuple on it pops, learning then, from ensure, whether the
layer exists, and a large leaf places layers past a short front only when
asked.
The answer is one new array, in no set order: the shortest prefix of root
layers holding at least k values, whose last layer a linear select cuts in
place when the prefix holds more (a fresh standard-mode query holds k).

TreeConfig reads the rank alpha and the mode once per tree: every leaf heap
and node schedule gets the one parsed Fraction, and every node engine the one
mode. Two-array selection is the two-leaf tree. Inputs are judged by the loh
rules: values by their extremes, each input's by lohify as it builds the
leaf and the group's sums by check_sums over the leaves, and k by as_count.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, InvalidValueError
from .loh import (
    DEFAULT_ALPHA,
    LayerOrderedHeap,
    _alpha_fraction,
    _out_of_memory,
    as_count,
    as_value_arrays,
    check_sums,
    linear_select,
    lohify,
)
from .pairwise import MODES, PairwiseState

__all__ = [
    "CartesianProductTree",
    "LeafNode",
    "SelectionStats",
    "TreeConfig",
    "build_tree",
    "select_pairwise",
]


@dataclass(frozen=True)
class TreeConfig:
    """Build and selection parameters for the whole tree.

    alpha_fraction is the rank as an exact rational, parsed when the config
    is made (the parse is memoized per distinct rank), so a build reads it
    without parsing again.
    """

    alpha: float | Fraction | str = DEFAULT_ALPHA
    mode: str = "standard"
    alpha_fraction: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        object.__setattr__(self, "alpha_fraction", _alpha_fraction(self.alpha))


_DEFAULT_CONFIG = TreeConfig()


@dataclass
class SelectionStats:
    """Aggregate work counters for one tree, refreshed per stats() call."""

    values_generated: int = 0
    tuple_pops: int = 0
    layers_emitted: dict[str, int] = field(default_factory=dict)
    leaf_layers_exposed: dict[str, int] = field(default_factory=dict)
    root_pool_size: int = 0


class LeafNode:
    """A layer-ordered heap, exposed to its parent layer by layer.

    values is the heap's read-only array and ends grows on demand with the
    heap's own ends, so len(ends) - 1 is how deep the parent has reached,
    which is what the laziness accounting reports. mins and maxs are the
    heap's own extremes lists: they grow as the heap places layers, which
    ensure asks it to do only for a layer not yet placed, and hold at least
    every exposed layer; dtype is the heap's.
    """

    __slots__ = ("loh", "label", "dtype", "values", "ends", "mins", "maxs")

    def __init__(self, loh: LayerOrderedHeap, label: str = "leaf"):
        self.loh = loh
        self.label = label
        self.dtype = loh.values.dtype
        self.values = loh.values
        self.ends = [0]
        self.mins = loh.layer_mins
        self.maxs = loh.layer_maxs

    def ensure(self, i: int) -> bool:
        ends, heap_ends = self.ends, self.loh.ends
        if i >= len(heap_ends):
            return False
        if len(self.mins) < i:
            self.loh.place(i)
        ends.extend(heap_ends[len(ends) : i + 1])
        return True

    def generate_next_layer(self, target):
        """Expose the next layer, or return None past the last; a leaf's
        layer sizes are fixed, so the target is not used."""
        ends = self.ends
        return self.values[ends[-2] : ends[-1]] if self.ensure(len(ends)) else None

    @property
    def exposed_values(self) -> int:
        return self.ends[-1]


class CartesianProductTree:
    """Handle over the built tree: repeated selections resume prior work."""

    def __init__(self, root, leaves, internals):
        self.root = root
        self.leaves = leaves
        self.internals = internals
        self.total = math.prod(leaf.loh.values.size for leaf in leaves)
        # _subtree's left-heavy split fixes the height at ceil(log2 m)
        self.height = (len(leaves) - 1).bit_length()
        self.root_pool_size = 0

    def select_k(self, k) -> np.ndarray:
        """The k smallest m-fold sums as one array, in no set order."""
        k = as_count(k, 0, self.total, "k")
        if k == 0:
            return np.empty(0, dtype=self.root.dtype)
        root = self.root
        ends = root.ends
        while ends[-1] < k:  # k <= total: the root reaches k before running out
            if root.generate_next_layer(k - ends[-1]) is None:
                break
        j = bisect_left(ends, k)  # layer j is the first to reach k values
        start, self.root_pool_size, values = ends[j - 1], ends[j], root.values
        try:
            if ends[j] == k:
                return values[:k].copy()
            # in place within layer j, so the root stays layer-ordered; a
            # leaf root's read-only layer is copied by the select
            head = linear_select(values[start : ends[j]], k - start)[0]
            return np.concatenate((values[:start], head))
        except MemoryError:
            raise _out_of_memory(k, root.dtype, "an answer") from None

    def stats(self) -> SelectionStats:
        snap = SelectionStats()
        for node in self.internals:
            snap.values_generated += node.values_generated
            snap.tuple_pops += node.tuple_pops
            snap.layers_emitted[node.label] = len(node.ends) - 1
        for leaf in self.leaves:
            snap.leaf_layers_exposed[leaf.label] = len(leaf.ends) - 1
        snap.root_pool_size = self.root_pool_size
        return snap


def build_tree(inputs, config: TreeConfig | None = None) -> CartesianProductTree:
    """Build the balanced selection tree over the input arrays.

    The split is left-heavy (ceil(m/2) inputs go left), so the shape is
    deterministic and the height is ceil(log2 m). Building performs no
    selection work beyond lohifying each input, which places only a front of
    a large input. No input value is read before lohify's one copy: lohify
    refuses a non-finite min or hi, its max taken at build, and check_sums
    judges the group from the same extremes.
    """
    cfg = config if config is not None else _DEFAULT_CONFIG
    arrays = as_value_arrays(inputs)
    alpha = cfg.alpha_fraction
    leaves = []
    for i, a in enumerate(arrays):
        try:
            heap = lohify(a, alpha)
        except InvalidValueError:  # lohify's own extremes check cannot name the input
            raise InvalidValueError(f"input {i} contains NaN or infinite values") from None
        leaves.append(LeafNode(heap, label=f"leaf{i}"))
    check_sums([leaf.mins[0] for leaf in leaves], [leaf.loh.hi for leaf in leaves])
    internals: list[PairwiseState] = []
    root = _subtree(leaves, 0, len(leaves), cfg.mode, alpha, internals)
    return CartesianProductTree(root, leaves, internals)


def _subtree(leaves, lo, hi, mode, alpha, internals):
    """The balanced subtree over leaves[lo:hi]; its internal nodes are
    appended to internals in post-order.

    A module function rather than a recursive closure, which would be a
    reference cycle holding every node until the cyclic collector ran.
    """
    if hi - lo == 1:
        return leaves[lo]
    mid = lo + (hi - lo + 1) // 2
    left = _subtree(leaves, lo, mid, mode, alpha, internals)
    right = _subtree(leaves, mid, hi, mode, alpha, internals)
    node = PairwiseState(left, right, mode, alpha, label=f"node{len(internals)}")
    internals.append(node)
    return node


def select_pairwise(a, b, k, alpha=DEFAULT_ALPHA) -> np.ndarray:
    """The k smallest values of {x + y : x in a, y in b}, in no set order.

    This is the two-leaf tree, with k >= 1.
    """
    tree = build_tree([a, b], TreeConfig(alpha=alpha))
    return tree.select_k(as_count(k, 1, tree.total, "k"))

