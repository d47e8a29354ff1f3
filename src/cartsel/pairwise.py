"""Pairwise k-smallest-sums selection over two layer-ordered value streams.

Each stream is a tree node: a leaf over one input's layer-ordered heap, or an
internal node emitting its own. Both offer the same fields: layers (a list of
arrays), mins and maxs (Python scalars), layer i at index i-1, and
ensure(i), which exposes layers 1..i and reports whether layer i exists.

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
from .loh import linear_select, partition_by_value

__all__ = [
    "MODES",
    "PairwiseState",
    "ProductTuple",
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


class PairwiseState:
    """Incremental engine emitting successive layers of smallest pairwise sums.

    left and right are tree nodes, read through their layers, mins and maxs
    lists once ensure(i) has exposed layer i. mode, one of MODES, fixes how
    every layer is emitted. Emitted layers accumulate in self.layers, with
    their extremes in self.mins and self.maxs, the same fields a parent
    reads, and together form a layer-ordered heap of the sum multiset.
    """

    def __init__(self, left, right, mode: str):
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
        self.left = left
        self.right = right
        self.mode = mode
        self.heap: list[ProductTuple] = []
        self.carry: list[np.ndarray] = []
        self.carry_count = 0
        # s = (total size of max-popped products) - (total values emitted).
        # It lower-bounds how many carry values precede everything not yet
        # generated; emissions may drive it negative, and the deficit is
        # repaid when the straddled products' max tuples pop.
        self.s = 0
        self.layers: list[np.ndarray] = []
        self.mins: list = []
        self.maxs: list = []
        self.last_max_value = None
        self.started = False
        self.values_generated = 0
        self.tuple_pops = 0

    def _push_min(self, u: int, v: int) -> None:
        """Propose product (u, v): materialize the layers it needs, or skip."""
        left, right = self.left, self.right
        if left.ensure(u) and right.ensure(v):
            value = left.mins[u - 1] + right.mins[v - 1]
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
        left, right = self.left, self.right
        chunk = np.add.outer(left.layers[u - 1], right.layers[v - 1]).ravel()
        self.carry.append(chunk)
        self.carry_count += chunk.size
        self.values_generated += chunk.size
        value = left.maxs[u - 1] + right.maxs[v - 1]
        heapq.heappush(self.heap, ProductTuple(value, False, u, v))
        self._push_min(u, v + 1)
        if v == 1:
            self._push_min(u + 1, 1)

    def _pop_one(self) -> int:
        """Pop one tuple; return the product size on a max pop, else 0."""
        t = heapq.heappop(self.heap)
        self.tuple_pops += 1
        if not t.is_min:
            size = self.left.layers[t.u - 1].size * self.right.layers[t.v - 1].size
            self.s += size
            self.last_max_value = t.value
            return size
        self.expand_min(t)
        return 0

    def _emit(self, layer: np.ndarray, rest: np.ndarray) -> np.ndarray:
        self.layers.append(layer)
        self.mins.append(layer.min().item())
        self.maxs.append(layer.max().item())
        self.carry = [rest] if rest.size else []
        self.carry_count = int(rest.size)
        self.s -= int(layer.size)
        return layer

    def _carry_pool(self) -> np.ndarray:
        return self.carry[0] if len(self.carry) == 1 else np.concatenate(self.carry)

    def generate_next_layer(self, target):
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
        if not self.started:
            self.propose_initial()
        heap = self.heap
        if self.mode == "standard":
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
