"""Balanced selection tree computing the k smallest m-fold sums.

Leaves wrap layer-ordered heaps built from the m input arrays; every internal
node runs a pairwise engine over its two children and emits its own layer
stream, so the root's layers enumerate the full sum multiset smallest first.
Construction is lazy and generation is demand-driven: nothing is popped or
generated until a selection asks the root for layers, and a node only asks a
child for a layer when a proposed product needs it. Inner nodes emit layers
on their own size schedule; the root, which feeds no parent, is asked for
one layer of the whole outstanding demand in both modes. The final answer is
a linear select over the shortest root layer prefix holding at least k
values, which in standard mode holds exactly k once a query has run; it comes
back in no set order.

TreeConfig reads the rank alpha and the mode once per tree: every leaf heap
and node schedule gets the one parsed Fraction, and every node engine the one
mode. Two-array selection is the two-leaf tree.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, ContractError, EmptyInputError
from .loh import (
    LayerOrderedHeap,
    _alpha_fraction,
    as_value_array,
    layer_size_schedule,
    linear_select,
    lohify,
    unify_profile,
)
from .pairwise import MODES, PairwiseState

__all__ = [
    "CartesianProductTree",
    "InternalNode",
    "LeafNode",
    "SelectionStats",
    "TreeConfig",
    "build_tree",
    "select_pairwise",
]


@dataclass(frozen=True)
class TreeConfig:
    """Build and selection parameters for the whole tree."""

    alpha: float | Fraction | str = 1.1
    mode: str = "standard"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        self.alpha_fraction  # validate now; the parse is cached for every build

    @functools.cached_property
    def alpha_fraction(self) -> Fraction:
        """The rank as an exact rational, parsed once per config."""
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
    """A prebuilt layer-ordered heap, exposed to its parent layer by layer.

    layers grows on demand with read-only views of the heap's values, so
    len(layers) is how deep the parent has reached, which is what the
    laziness accounting reports; mins and maxs hold every layer's extremes
    from the start.
    """

    __slots__ = ("loh", "label", "layers", "mins", "maxs", "_ends")

    def __init__(self, loh: LayerOrderedHeap, label: str = "leaf"):
        self.loh = loh
        self.label = label
        self.layers: list[np.ndarray] = []
        self.mins = loh.layer_mins.tolist()
        self.maxs = loh.layer_maxs.tolist()
        self._ends = [0, *loh.boundaries.tolist()]

    def ensure(self, i: int) -> bool:
        if i >= len(self._ends):
            return False
        layers, ends = self.layers, self._ends
        while len(layers) < i:
            j = len(layers)
            layers.append(self.loh.values[ends[j] : ends[j + 1]])
        return True

    def demand(self, count: int):
        """Expose the next layer, or return None past the last; a leaf's
        layer sizes are fixed, so the demanded count is not used."""
        return self.layers[-1] if self.ensure(len(self.layers) + 1) else None

    @property
    def exposed_values(self) -> int:
        return self._ends[len(self.layers)]


class InternalNode:
    """Pairwise engine over two children plus this node's own layer schedule.

    layers, mins and maxs are the engine's emitted lists. The layer size
    schedule restarts at 1 in every node. In standard mode the node emits
    exactly the requested sizes until the product runs out; in wobbly mode
    each emission is a value partition of at least the requested size.
    Parents drive nodes through ensure (scheduled sizes); the root is driven
    by select_k, which in both modes requests the outstanding demand
    directly through demand().
    """

    __slots__ = ("state", "label", "layers", "mins", "maxs", "_schedule")

    def __init__(self, left, right, mode: str, alpha: Fraction, label: str = "node"):
        self.state = PairwiseState(left, right, mode)
        self.label = label
        self.layers = self.state.layers
        self.mins = self.state.mins
        self.maxs = self.state.maxs
        self._schedule = layer_size_schedule(alpha)

    def ensure(self, i: int) -> bool:
        # exhaustion is final, so a size drawn for a layer that never comes is
        # never needed again
        while len(self.layers) < i:
            if self.state.generate_next_layer(next(self._schedule)) is None:
                return False
        return True

    def demand(self, count: int):
        """Emit one layer sized by caller demand instead of the schedule.

        Only the root is driven this way: with no parent consuming a layer
        stream, the next layer the root needs is simply the whole outstanding
        request. Standard mode then makes one certified selection of exactly
        that many values; wobbly mode returns every generated value under one
        certified bound. Returns the layer, or None once the product is
        exhausted.
        """
        return self.state.generate_next_layer(count)


class CartesianProductTree:
    """Handle over the built tree: repeated selections resume prior work."""

    def __init__(self, root, leaves, internals, dtype):
        self.root = root
        self.leaves = leaves
        self.internals = internals
        self.dtype = dtype
        self.total = math.prod(leaf.loh.values.size for leaf in leaves)
        self.root_pool_size = 0

    @property
    def height(self) -> int:
        def depth(node):
            if isinstance(node, LeafNode):
                return 0
            return 1 + max(depth(node.state.left), depth(node.state.right))

        return depth(self.root)

    def select_k(self, k) -> np.ndarray:
        """The k smallest m-fold sums as one array, in no set order."""
        k = _index(k)
        if not 0 <= k <= self.total:
            raise ContractError(f"k={k} out of range [0, {self.total}]")
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
            if root.demand(k - cum) is None:
                break  # product exhausted; cum == total >= k already
        pool = layers[0] if j == 1 else np.concatenate(layers[:j])
        self.root_pool_size = int(pool.size)
        # in place on a root layer or a fresh concatenation; a leaf root's
        # layers are read-only views, so linear_select copies them first
        head, _ = linear_select(pool, k)
        # a whole single root layer comes back as itself, and the tree keeps it
        return head.copy() if j == 1 and head is pool else head

    def stats(self) -> SelectionStats:
        snap = SelectionStats()
        for node in self.internals:
            snap.values_generated += node.state.values_generated
            snap.tuple_pops += node.state.tuple_pops
            snap.layers_emitted[node.label] = len(node.layers)
        for leaf in self.leaves:
            snap.leaf_layers_exposed[leaf.label] = len(leaf.layers)
        snap.root_pool_size = self.root_pool_size
        return snap


def build_tree(inputs, config: TreeConfig | None = None) -> CartesianProductTree:
    """Build the balanced selection tree over the input arrays.

    The split is left-heavy (ceil(m/2) inputs go left), so the shape is
    deterministic and the height is ceil(log2 m). Building performs no
    selection work beyond lohifying each input.
    """
    cfg = config if config is not None else TreeConfig()
    seq = list(inputs)
    if not seq:
        raise EmptyInputError("need at least one input array")
    arrays = unify_profile(
        [as_value_array(x, name=f"input {i}") for i, x in enumerate(seq)]
    )
    alpha = cfg.alpha_fraction
    leaves = [LeafNode(lohify(a, alpha), label=f"leaf{i}") for i, a in enumerate(arrays)]
    internals: list[InternalNode] = []
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
    node = InternalNode(left, right, mode, alpha, label=f"node{len(internals)}")
    internals.append(node)
    return node


def select_pairwise(a, b, k, alpha=1.1) -> np.ndarray:
    """The k smallest values of {x + y : x in a, y in b}, in no set order.

    This is the two-leaf tree, with k >= 1.
    """
    tree = build_tree([a, b], TreeConfig(alpha=alpha))
    k = _index(k)
    if k < 1:
        raise ContractError(f"k={k} out of range [1, {tree.total}]")
    return tree.select_k(k)


def _index(k) -> int:
    """k as an exact Python int; floats, strings and the like are refused."""
    try:
        return operator.index(k)
    except TypeError:
        raise ContractError(f"k must be an integer, got {type(k).__name__}") from None

