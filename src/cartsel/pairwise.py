"""The internal node of the selection tree: k smallest pairwise sums of two
layer-ordered value streams, emitted as a layer-ordered stream of its own.

A PairwiseState is one internal node; each child is a leaf over one input's
heap or another PairwiseState. Both kinds offer layers (a list of arrays),
mins and maxs (Python scalars), layer i at index i-1; ensure(i), which
exposes layers 1..i and reports whether layer i exists; and
generate_next_layer(target), the next layer or None past the last. A parent
drives a node through ensure, sized by the node's own schedule 1,
ceil(alpha), ...; the root is driven by select_k through
generate_next_layer, with the whole outstanding demand as target.

The engine works on layer products A(u) + B(v): the multiset of sums of one
value from layer u of the left stream and one from layer v of the right.
A binary heap holds plain tuples (value, kind, u, v), ordered as tuples: per
product a MAX tuple valued max(A(u)) + max(B(v)) and a min tuple, PRICED at
the exact min(A(u)) + min(B(v)) or, while the child has not produced the
layer it needs, UNPRICED at a lower bound. Popping a priced tuple counts the
product's values into the carry, records that row u now reaches column v,
and proposes its grid neighbours: (u, v+1), plus (u+1, 1) when v == 1.
Every product other than (1, 1) has exactly one proposer, (u, v-1) or
(u-1, 1), whose min is no larger than its own, so no product is proposed
twice and none is proposed too late; the first emission seeds (1, 1).

expand_min prices a proposal exactly when its child already holds the
layer's min: a layer a leaf has placed (all of them, for a leaf sorted
whole at build) or one an inner child has emitted. Otherwise it pushes the
proposal unpriced, at min(A(u)) + max(B(v)) for (u, v+1) and
max(A(u)) + min(B(1)) for (u+1, 1), at most the product's min as layers
are value-ordered. Only when an unpriced tuple pops is the child asked for
the layer, at most one past the deepest this node has expanded; the tuple
is replaced at its exact min, or dropped if the layer does not exist: that
pop is the one place a node learns a child has no such layer. So a child
emits a layer, about alpha times all its layers before it, only once its
parent pops a product in it, never just to order a proposal.

Popping a max tuple certifies that the whole product now precedes
everything not yet generated. At equal value a max tuple pops first, as MAX
is the least kind, and (u, v) breaks the remaining ties. That is sound, as
a popped max is at most every unpopped min and every unpriced bound is at
most its product's min, and it keeps heavy ties bounded: min-first would
expand every product in a tie band, and pull its children's layers, before
any of them could be certified.

A row's products are expanded in column order, so the columns a row
reaches between two emissions form one run v0..v1. Values are written only
at an emission: one buffer of exactly the carry's size receives the kept
carry, then one block of sums per pending row, layer u of the left stream
plus layers v0..v1 of the right. Layers are emitted from that buffer once
enough values are certified: standard mode takes exactly the requested count
with a linear select, wobbly mode takes every carry value at or below the
certifying bound in one value partition. Both partition the buffer in place
and copy out only the emitted layer, its max placed last and read there.
The unemitted values form the next carry, which _emit keeps a view into the
buffer only while that pins at most twice its size, so no value is dropped
or duplicated and no carry keeps a much larger pool alive.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import ConfigError
from .loh import DEFAULT_ALPHA, as_count, layer_size_schedule, linear_select, partition_by_value
from .loh import _out_of_memory

__all__ = [
    "MODES",
    "PairwiseState",
]

MODES = ("standard", "wobbly")

# The kind field of a heap tuple (value, kind, u, v). A max tuple sorts first
# at a tied value; an unpriced tuple's value is only a lower bound.
MAX, PRICED, UNPRICED = 0, 1, 2


class PairwiseState:
    """One internal node, emitting successive layers of the smallest sums of
    its children left and right.

    mode, one of MODES, fixes how every layer is emitted, alpha the schedule
    ensure draws sizes from, and label names the node in stats(). Emitted
    layers accumulate in layers, mins and maxs, the fields a parent reads;
    once generate_next_layer has returned None it returns None on every
    call. carry holds the written values not yet emitted;
    rows maps each row with expanded but unwritten products to its column
    run [v0, v1], written at the next emission. carry_count counts both.
    state, the node itself, is kept only for the benchmark's tracer.
    """

    def __init__(self, left, right, mode: str, alpha=DEFAULT_ALPHA, label: str = "node"):
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
        self.left = left
        self.right = right
        self.mode = mode
        self.label = label
        self._schedule = layer_size_schedule(alpha)
        self.heap: list[tuple] = []
        self.carry = np.empty(0)
        self.rows: dict[int, list[int]] = {}
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

    # perfbench/tracer.py walks node.state.left/.right; ROADMAP item 3,
    # which gives the tracer per-node records to read, deletes this alias
    state = property(lambda self: self)

    def ensure(self, i: int) -> bool:
        """Emit scheduled layers until layer i exists; False if it never will."""
        while len(self.layers) < i:
            if self.generate_next_layer(next(self._schedule)) is None:
                return False
        return True

    def expand_min(self, t: tuple) -> None:
        """Count the popped product into the carry and propose its successors.

        Its values are written at the next emission, with the rest of row
        u's run. The successors are the next product in the row, (u, v+1),
        and, from the first column only, the first product of the next row,
        (u+1, 1). It pushes the product's MAX tuple, then each proposal
        PRICED at its exact min if the child holds that layer's min, else
        UNPRICED at a lower bound: the child is asked for that layer only
        when the tuple pops, which drops it if the layer does not exist.
        Nothing but this method adds to values_generated.
        """
        _, _, u, v = t
        left, right = self.left, self.right
        self.rows.setdefault(u, [v, v])[1] = v
        size = left.layers[u - 1].size * right.layers[v - 1].size
        self.carry_count += size
        self.values_generated += size
        heap = self.heap
        heapq.heappush(heap, (left.maxs[u - 1] + right.maxs[v - 1], MAX, u, v))
        if v < len(right.layers) or v < len(right.mins) and right.ensure(v + 1):
            heapq.heappush(heap, (left.mins[u - 1] + right.mins[v], PRICED, u, v + 1))
        else:
            heapq.heappush(heap, (left.mins[u - 1] + right.maxs[v - 1], UNPRICED, u, v + 1))
        if v == 1:
            if u < len(left.layers) or u < len(left.mins) and left.ensure(u + 1):
                heapq.heappush(heap, (left.mins[u] + right.mins[0], PRICED, u + 1, 1))
            else:
                heapq.heappush(heap, (left.maxs[u - 1] + right.mins[0], UNPRICED, u + 1, 1))

    def _pop_one(self) -> int:
        """Pop one tuple; return the product size on a max pop, else 0.

        An unpriced tuple asks for its layer, the left child's layer u when
        v == 1, else the right child's layer v. It is then replaced at the
        top by its priced tuple in one heap operation, or popped if the layer
        does not exist; either way it counts as one pop. Tuples are distinct,
        so this pops in the same order as a pop and a push would.
        """
        heap, left, right = self.heap, self.left, self.right
        value, kind, u, v = t = heap[0]
        self.tuple_pops += 1
        if kind == UNPRICED:
            child, i = (right, v) if v > 1 else (left, u)
            if child.ensure(i):
                heapq.heapreplace(heap, (left.mins[u - 1] + right.mins[v - 1], PRICED, u, v))
            else:
                heapq.heappop(heap)
            return 0
        heapq.heappop(heap)
        if kind == PRICED:
            self.expand_min(t)
            return 0
        size = left.layers[u - 1].size * right.layers[v - 1].size
        self.s += size
        self.last_max_value = value
        return size

    def _emit(self, layer: np.ndarray, rest: np.ndarray) -> np.ndarray:
        # rest, the next carry, is a view into the pool; a carry that would
        # pin a buffer over twice its size is copied out instead
        if rest.base.nbytes > 2 * rest.nbytes:
            rest = rest.copy()
        self.layers.append(layer)
        self.mins.append(layer.min().item())
        self.maxs.append(layer[-1].item())  # the selection leaves the max last
        self.carry = rest
        self.carry_count = int(rest.size)
        self.s -= int(layer.size)
        return layer

    def _carry_pool(self) -> np.ndarray:
        """Write the kept carry and every pending row into one exact buffer."""
        if not self.rows:
            return self.carry
        left, right = self.left.layers, self.right.layers
        try:
            pool = np.empty(self.carry_count, self.carry.dtype)
        except MemoryError:
            raise _out_of_memory(self.carry_count, self.carry.dtype, "a carry pool") from None
        end = self.carry.size
        pool[:end] = self.carry
        for u, (v0, v1) in self.rows.items():
            a = left[u - 1]
            try:
                b = right[v0 - 1] if v0 == v1 else np.concatenate(right[v0 - 1 : v1])
            except MemoryError:
                run = right[v0 - 1 : v1]
                raise _out_of_memory(sum(r.size for r in run), run[0].dtype, "a row block") from None
            start, end = end, end + a.size * b.size
            np.add(a[:, None], b, out=pool[start:end].reshape(a.size, b.size))
        self.rows.clear()
        return pool

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
        target = as_count(target, 1, math.inf, "layer target")
        heap = self.heap
        if not self.started:  # the first call seeds product (1, 1)
            self.started = True
            left, right = self.left, self.right
            left.ensure(1)
            right.ensure(1)
            self.carry = np.empty(0, np.result_type(left.layers[0].dtype, right.layers[0].dtype))
            heapq.heappush(heap, (left.mins[0] + right.mins[0], PRICED, 1, 1))
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
                self.carry = pool
                need = target - int(layer.size)
            elif not heap:
                return None
            else:
                need = target
