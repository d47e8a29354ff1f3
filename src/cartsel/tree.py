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
values, which in standard mode holds exactly k once a query has run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Protocol

import numpy as np

from .errors import ConfigError, ContractError, EmptyInputError
from .loh import (
    LayerOrderedHeap,
    LohConfig,
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
    "LayerProvider",
    "LeafNode",
    "SelectionStats",
    "TreeConfig",
    "build_tree",
    "select_k",
    "stats",
]


@dataclass(frozen=True)
class TreeConfig:
    """Build and selection parameters for the whole tree."""

    alpha: float | Fraction | str = 1.1
    mode: str = "standard"
    sorted_output: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        LohConfig(self.alpha)


@dataclass
class SelectionStats:
    """Aggregate work counters for one tree, refreshed per stats() call."""

    values_generated: int = 0
    tuple_pops: int = 0
    layers_emitted: dict[str, int] = field(default_factory=dict)
    leaf_layers_exposed: dict[str, int] = field(default_factory=dict)
    root_pool_size: int = 0


class LayerProvider(Protocol):
    """What a pairwise engine needs from each child stream."""

    def ensure(self, i: int) -> bool: ...

    def peek_layer(self, i: int): ...

    def layer_min(self, i: int): ...

    def layer_max(self, i: int): ...

    def layer_size(self, i: int) -> int: ...


class LeafNode:
    """Layer provider over a prebuilt layer-ordered heap.

    Exposing a layer is O(1): the cursor only records how deep callers have
    reached, which is what the laziness accounting reports. Layers are sliced
    from the heap's values at offsets held as Python ints.
    """

    __slots__ = ("loh", "label", "cursor", "_ends", "_mins", "_maxs")

    def __init__(self, loh: LayerOrderedHeap, label: str = "leaf"):
        self.loh = loh
        self.label = label
        self.cursor = 0
        self._ends = [0, *loh.boundaries.tolist()]
        self._mins = loh.layer_mins.tolist()
        self._maxs = loh.layer_maxs.tolist()

    def ensure(self, i: int) -> bool:
        if i >= len(self._ends):
            return False
        if i > self.cursor:
            self.cursor = i
        return True

    def peek_layer(self, i: int):
        if i > self.cursor:
            return None
        return self.loh.values[self._ends[i - 1] : self._ends[i]]

    def layer_min(self, i: int):
        return self._mins[i - 1]

    def layer_max(self, i: int):
        return self._maxs[i - 1]

    def layer_size(self, i: int) -> int:
        return self._ends[i] - self._ends[i - 1]

    @property
    def exposed_values(self) -> int:
        return self._ends[self.cursor]


class InternalNode:
    """Pairwise engine over two children plus this node's own layer schedule.

    The layer size schedule restarts at 1 in every node. In standard mode the
    node emits exactly the requested sizes until the product runs out; in
    wobbly mode each emission is a value partition of at least the requested
    size. Parents drive nodes through ensure (scheduled sizes); the root is
    driven by select_k, which in both modes requests the outstanding demand
    directly through demand().
    """

    __slots__ = ("state", "mode", "label", "_schedule", "_targets")

    def __init__(self, left, right, config: TreeConfig, label: str = "node"):
        self.state = PairwiseState(left, right)
        self.mode = config.mode
        self.label = label
        self._schedule = layer_size_schedule(config.alpha)
        self._targets: list[int] = []

    @property
    def layers(self) -> list[np.ndarray]:
        return self.state.layers

    @property
    def n_layers(self) -> int:
        return len(self.state.layers)

    def ensure(self, i: int) -> bool:
        state = self.state
        while len(state.layers) < i:
            idx = len(state.layers)
            while len(self._targets) <= idx:
                self._targets.append(next(self._schedule))
            if state.generate_next_layer(self._targets[idx], self.mode) is None:
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
        layer = self.state.generate_next_layer(count, self.mode)
        if layer is not None:
            self._targets.append(count)
        return layer

    def peek_layer(self, i: int):
        return self.state.layers[i - 1] if i <= self.n_layers else None

    def layer_min(self, i: int):
        return self.state.layer_mins[i - 1]

    def layer_max(self, i: int):
        return self.state.layer_maxs[i - 1]

    def layer_size(self, i: int) -> int:
        return int(self.state.layers[i - 1].size)


class CartesianProductTree:
    """Handle over the built tree: repeated selections resume prior work."""

    def __init__(self, root, leaves, internals, config: TreeConfig, dtype):
        self.root = root
        self.leaves = leaves
        self.internals = internals
        self.config = config
        self.dtype = dtype
        self.total = math.prod(leaf.loh.values.size for leaf in leaves)
        self.root_pool_size = 0

    @property
    def m(self) -> int:
        return len(self.leaves)

    @property
    def height(self) -> int:
        def depth(node):
            if isinstance(node, LeafNode):
                return 0
            return 1 + max(depth(node.state.left), depth(node.state.right))

        return depth(self.root)

    def select_k(self, k) -> np.ndarray:
        """The k smallest m-fold sums as one array (sorted if configured)."""
        k = int(k)
        if not 0 <= k <= self.total:
            raise ContractError(f"k={k} out of range [0, {self.total}]")
        if k == 0:
            return np.empty(0, dtype=self.dtype)
        root = self.root
        if isinstance(root, LeafNode):
            bounds = root.loh.boundaries
            j = int(np.searchsorted(bounds, k, side="left")) + 1
            root.ensure(j)
            pool = root.loh.values[: int(bounds[j - 1])]
        else:
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
        # heap values are read-only, so linear_select copies them first
        head, _ = linear_select(pool, k)
        if self.config.sorted_output:
            return np.sort(head)
        # a whole single root layer comes back as itself, and the tree keeps it
        return head.copy() if j == 1 and head is pool else head

    def stats(self) -> SelectionStats:
        snap = SelectionStats()
        for node in self.internals:
            snap.values_generated += node.state.values_generated
            snap.tuple_pops += node.state.tuple_pops
            snap.layers_emitted[node.label] = node.n_layers
        for leaf in self.leaves:
            snap.leaf_layers_exposed[leaf.label] = leaf.cursor
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
    loh_cfg = LohConfig(cfg.alpha)
    leaves = [LeafNode(lohify(a, loh_cfg), label=f"leaf{i}") for i, a in enumerate(arrays)]
    internals: list[InternalNode] = []

    def build(lo: int, hi: int):
        if hi - lo == 1:
            return leaves[lo]
        mid = lo + (hi - lo + 1) // 2
        node = InternalNode(
            build(lo, mid), build(mid, hi), cfg, label=f"node{len(internals)}"
        )
        internals.append(node)
        return node

    root = build(0, len(leaves))
    return CartesianProductTree(root, leaves, internals, cfg, arrays[0].dtype)


def select_k(tree: CartesianProductTree, k) -> np.ndarray:
    """Query form of CartesianProductTree.select_k."""
    return tree.select_k(k)


def stats(tree: CartesianProductTree) -> SelectionStats:
    """Query form of CartesianProductTree.stats."""
    return tree.stats()
