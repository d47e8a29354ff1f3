"""Balanced selection tree computing the k smallest m-fold sums.

A LeafNode exposes one input's layer-ordered heap; every internal node is a
PairwiseState, emitting the layers of its children's sums, so the root's
layers enumerate the sum multiset smallest first. Both kinds offer layers,
mins, maxs, ensure and generate_next_layer: a parent reads either child the
same way, and select_k drives a leaf or an internal root through
generate_next_layer with the whole outstanding demand, while inner nodes
emit on their own size schedule. Nothing is generated until a selection asks
the root for layers, a node asks a child for a layer only when a product in
it pops, and learns that the layer does not exist only then, from ensure;
a large leaf places layers past a short front only when asked.
The final answer is a copy of the shortest root layer prefix holding at
least k values, trimmed by a linear select only when it holds more than k
(in standard mode it holds exactly k once a query has run), in no set order.

TreeConfig reads the rank alpha and the mode once per tree: every leaf heap
and node schedule gets the one parsed Fraction, and every node engine the one
mode. Two-array selection is the two-leaf tree. Inputs are judged by the loh
rules: values by their extremes, each input's by lohify as it builds the
leaf and the group's sums by check_sums over the leaves, and k by as_count.
"""

from __future__ import annotations

import math
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
    """Build and selection parameters for the whole tree."""

    alpha: float | Fraction | str = DEFAULT_ALPHA
    mode: str = "standard"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        self.alpha_fraction  # validate now; the parse is memoized for every build

    @property
    def alpha_fraction(self) -> Fraction:
        """The rank as an exact rational, parsed once per distinct rank."""
        return _alpha_fraction(self.alpha)


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

    layers grows on demand with read-only views of the heap's values, so
    len(layers) is how deep the parent has reached, which is what the
    laziness accounting reports. mins and maxs are the heap's own extremes
    lists: they grow as the heap places layers, which ensure asks it to do
    only for a layer not yet placed, and hold at least every exposed layer.
    """

    __slots__ = ("loh", "label", "layers", "mins", "maxs")

    def __init__(self, loh: LayerOrderedHeap, label: str = "leaf"):
        self.loh = loh
        self.label = label
        self.layers: list[np.ndarray] = []
        self.mins = loh.layer_mins
        self.maxs = loh.layer_maxs

    def ensure(self, i: int) -> bool:
        layers, ends = self.layers, self.loh.ends
        if i >= len(ends):
            return False
        if len(self.mins) < i:
            self.loh.place(i)
        while len(layers) < i:
            j = len(layers)
            layers.append(self.loh.values[ends[j] : ends[j + 1]])
        return True

    def generate_next_layer(self, target):
        """Expose the next layer, or return None past the last; a leaf's
        layer sizes are fixed, so the target is not used."""
        return self.layers[-1] if self.ensure(len(self.layers) + 1) else None

    @property
    def exposed_values(self) -> int:
        return self.loh.ends[len(self.layers)]


class CartesianProductTree:
    """Handle over the built tree: repeated selections resume prior work."""

    def __init__(self, root, leaves, internals, dtype):
        self.root = root
        self.leaves = leaves
        self.internals = internals
        self.dtype = dtype
        self.total = math.prod(leaf.loh.values.size for leaf in leaves)
        # _subtree's left-heavy split fixes the height at ceil(log2 m)
        self.height = (len(leaves) - 1).bit_length()
        self.root_pool_size = 0

    def select_k(self, k) -> np.ndarray:
        """The k smallest m-fold sums as one array, in no set order."""
        k = as_count(k, 0, self.total, "k")
        if k == 0:
            return np.empty(0, dtype=self.dtype)
        root = self.root
        layers = root.layers
        cum = 0
        j = 0
        while cum < k:
            if j < len(layers):
                cum += layers[j].size
                j += 1
                continue
            if root.generate_next_layer(k - cum) is None:
                break  # product exhausted; cum == total >= k already
        try:
            pool = layers[0] if j == 1 else np.concatenate(layers[:j])
        except MemoryError:
            raise _out_of_memory(cum, self.dtype, "a root pool") from None
        self.root_pool_size = cum
        if cum == k:  # the prefix is the answer: the caller gets its own copy
            return pool.copy() if j == 1 else pool
        # in place on a root layer or a fresh concatenation
        return linear_select(pool, k)[0]

    def stats(self) -> SelectionStats:
        snap = SelectionStats()
        for node in self.internals:
            snap.values_generated += node.values_generated
            snap.tuple_pops += node.tuple_pops
            snap.layers_emitted[node.label] = len(node.layers)
        for leaf in self.leaves:
            snap.leaf_layers_exposed[leaf.label] = len(leaf.layers)
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
    cfg = config if config is not None else TreeConfig()
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
    return CartesianProductTree(root, leaves, internals, arrays[0].dtype)


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

