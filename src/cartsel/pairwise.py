"""Pairwise k-smallest-sums selection over two layer-ordered value streams.

The engine works on layer products A(u) + B(v): the multiset of sums of one
value from layer u of the left stream and one from layer v of the right.
A binary heap orders two kinds of tuples per product, a min tuple valued
min(A(u)) + min(B(v)) and a max tuple valued max(A(u)) + max(B(v)). Popping
a min tuple generates the product's values into a carry buffer and proposes
its grid neighbours: (u, v+1), plus (u+1, 1) when v == 1. Every product
other than (1, 1) has exactly one proposer, (u, v-1) or (u-1, 1), whose min
is no larger than its own, so no product is proposed twice and none is
proposed too late. Pricing a proposal asks a child for at most one layer
past the deepest one this node has expanded; proposals a child can never
satisfy are skipped. Popping a max tuple certifies that the whole product
now precedes everything not yet generated.

Layers are emitted from the carry buffer once enough values are certified:
standard mode takes exactly the requested count with a linear select, wobbly
mode takes every carry value at or below the certifying bound in one value
partition. Both partition the concatenated carry in place and copy out only
the emitted layer; the unemitted values stay behind as a view into that pool
and form the next carry, so no value is ever dropped or duplicated.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, ContractError, EmptyInputError
from .loh import (
    LohConfig,
    as_value_array,
    linear_select,
    lohify,
    partition_by_value,
    unify_profile,
)

__all__ = [
    "MODES",
    "PairwiseState",
    "ProductTuple",
    "select_pairwise",
    "tuple_order",
]

MODES = ("standard", "wobbly")


class ProductTuple(NamedTuple):
    """Heap entry for one layer product; field order doubles as heap priority.

    is_min False sorts before True, so at equal value a max tuple pops before
    any min tuple, and (u, v) breaks the remaining ties lexicographically.
    Popping maxes first is sound, since a popped max(A(u)) + max(B(v)) is at
    most every unpopped min, and it keeps heavy ties bounded: min-first would
    expand every product in a tie band, and pull its children's layers,
    before any of them could be certified.
    """

    value: float
    is_min: bool
    u: int
    v: int

    @property
    def is_max(self) -> bool:
        return not self.is_min


def tuple_order(a: ProductTuple, b: ProductTuple) -> int:
    """Three-way heap-priority comparison: -1, 0, or 1."""
    return (a > b) - (a < b)


class PairwiseState:
    """Incremental engine emitting successive layers of smallest pairwise sums.

    left and right are layer providers: objects with ensure(i), peek_layer(i),
    layer_min(i), layer_max(i), and layer_size(i). Emitted layers accumulate
    in self.layers and together form a layer-ordered heap of the sum multiset.
    """

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.heap: list[ProductTuple] = []
        self.carry: list[np.ndarray] = []
        self.carry_count = 0
        # s = (total size of max-popped products) - (total values emitted).
        # It lower-bounds how many carry values precede everything not yet
        # generated; emissions may drive it negative, and the deficit is
        # repaid when the straddled products' max tuples pop.
        self.s = 0
        self.layers: list[np.ndarray] = []
        self.layer_mins: list = []
        self.layer_maxs: list = []
        self.last_max_value = None
        self.started = False
        self.values_generated = 0
        self.tuple_pops = 0

    @property
    def is_exhausted(self) -> bool:
        return self.started and not self.heap and self.carry_count == 0

    def _push_min(self, u: int, v: int) -> None:
        """Propose product (u, v): materialize the layers it needs, or skip."""
        if self.left.ensure(u) and self.right.ensure(v):
            value = self.left.layer_min(u) + self.right.layer_min(v)
            heapq.heappush(self.heap, ProductTuple(value, True, u, v))

    def propose_initial(self) -> None:
        """Seed the heap with the min tuple of product (1, 1)."""
        if self.started:
            return
        self.started = True
        if not (self.left.ensure(1) and self.right.ensure(1)):
            raise EmptyInputError("a child stream has no first layer")
        self._push_min(1, 1)

    def expand_min(self, t: ProductTuple) -> None:
        """Generate the popped product's values and propose its successors.

        The successors are the next product in the row, (u, v+1), and, from
        the first column only, the first product of the next row, (u+1, 1).
        """
        u, v = t.u, t.v
        chunk = np.add.outer(self.left.peek_layer(u), self.right.peek_layer(v)).ravel()
        self.carry.append(chunk)
        self.carry_count += chunk.size
        self.values_generated += chunk.size
        heapq.heappush(
            self.heap,
            ProductTuple(self.left.layer_max(u) + self.right.layer_max(v), False, u, v),
        )
        self._push_min(u, v + 1)
        if v == 1:
            self._push_min(u + 1, 1)

    def _pop_one(self) -> int:
        """Pop one tuple; return the product size on a max pop, else 0."""
        t = heapq.heappop(self.heap)
        self.tuple_pops += 1
        if not t.is_min:
            size = self.left.layer_size(t.u) * self.right.layer_size(t.v)
            self.s += size
            self.last_max_value = t.value
            return size
        self.expand_min(t)
        return 0

    def _emit(self, layer: np.ndarray, rest: np.ndarray) -> np.ndarray:
        self.layers.append(layer)
        self.layer_mins.append(layer.min().item())
        self.layer_maxs.append(layer.max().item())
        self.carry = [rest] if rest.size else []
        self.carry_count = int(rest.size)
        self.s -= int(layer.size)
        return layer

    def _carry_pool(self) -> np.ndarray:
        return self.carry[0] if len(self.carry) == 1 else np.concatenate(self.carry)

    def generate_next_layer(self, target, mode: str = "standard"):
        """Emit the next layer of smallest remaining sums, or None at exhaustion.

        Standard mode certifies against the running surplus s and emits
        exactly min(target, values remaining) with a linear select. Wobbly
        mode runs a fresh certification per call: it pops until the products
        closed within this call hold at least target values, then emits every
        carried value at or below the last closing bound in one value
        partition, which can be far more than target. Certifying per call
        instead of against s matters: a wobbly overshoot would drive s deeply
        negative, and repaying that deficit forces ever larger bounds, so the
        overshoot would compound exponentially along the value stream.
        """
        target = int(target)
        if target < 1:
            raise ContractError(f"layer target must be >= 1, got {target}")
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}")
        if not self.started:
            self.propose_initial()
        heap = self.heap
        if mode == "standard":
            while self.s < target and heap:
                self._pop_one()
            if self.carry_count == 0:
                return None
            pool = self._carry_pool()
            return self._emit(*linear_select(pool, min(target, self.carry_count)))
        need = target
        while True:
            closed = 0
            while closed < need and heap:
                closed += self._pop_one()
            if self.carry_count:
                pool = self._carry_pool()
                layer, rest = partition_by_value(pool, self.last_max_value)
                # an empty heap leaves every value under the bound: final layer
                if layer.size >= target or not heap:
                    return self._emit(layer, rest)
                # a tie band came up short: keep the pool as the carry and
                # certify until the band holds target or the product runs out
                self.carry = [pool]
                need = target - int(layer.size)
            elif not heap:
                return None
            else:
                need = target


def select_pairwise(a, b, k, config: LohConfig | None = None) -> np.ndarray:
    """The k smallest values of {x + y : x in a, y in b}, in no set order."""
    from .tree import LeafNode  # deferred: tree builds on this module

    cfg = config if config is not None else LohConfig()
    left, right = unify_profile(
        [as_value_array(a, name="a"), as_value_array(b, name="b")]
    )
    total = left.size * right.size
    k = int(k)
    if not 1 <= k <= total:
        raise ContractError(f"k={k} out of range [1, {total}]")
    state = PairwiseState(LeafNode(lohify(left, cfg)), LeafNode(lohify(right, cfg)))
    layer = state.generate_next_layer(k, "standard")
    return layer
