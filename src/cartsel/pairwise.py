"""The internal node of the selection tree: k smallest pairwise sums of two
layer-ordered value streams, emitted as a layer-ordered stream of its own.

A PairwiseState is one internal node; each child is a leaf over one input's
heap or another PairwiseState. Both kinds offer dtype, set at construction;
values, one array holding the exposed layers back to back, and ends, Python
ints with ends[0] = 0, so layer i is values[ends[i-1]:ends[i]] and
len(ends) - 1 layers are exposed; mins and maxs (Python scalars), layer i at
index i-1; ensure(i), which exposes layers 1..i and reports whether layer i
exists; and generate_next_layer(target), the next layer or None past the
last. A parent drives a node through ensure, sized by the node's own
schedule 1, ceil(alpha), ...; the root is driven by select_k through
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
twice and none is proposed too late; (1, 1), which has none, is pushed at
construction as an ordinary unpriced tuple at -inf.

expand_min prices a proposal exactly only when its child has already
exposed the layer. Otherwise it pushes the proposal unpriced, at
min(A(u)) + max(B(v)) for (u, v+1) and max(A(u)) + min(B(1)) for
(u+1, 1), at most the product's min as layers are value-ordered. Popping
an unpriced tuple is the one place a node calls into a child: it asks
both children for the tuple's layers, left.ensure(u) and right.ensure(v),
and replaces the tuple at its exact min, or drops it if a layer does not
exist. So a child exposes no layer past the deepest index its parent has
popped a tuple on, and emits a layer, about alpha times all its layers
before it, only once its parent pops a product in it.

Popping a max tuple certifies that the whole product now precedes
everything not yet generated. At equal value a max tuple pops first, as MAX
is the least kind, and (u, v) breaks the remaining ties. That is sound, as
a popped max is at most every unpopped min and every unpriced bound is at
most its product's min, and it keeps heavy ties bounded: min-first would
expand every product in a tie band, and pull its children's layers, before
any of them could be certified.

A row's products are expanded in column order, so the columns a row
reaches between two emissions form one run v0..v1. Values are written only
at an emission, into the node's one buffer, values: its layers come first,
then the carry, the written values not yet emitted, then one block of sums
per pending row, layer u of the left stream plus layers v0..v1 of the
right, each read as one slice of its child's values. The buffer doubles
when a write would overrun it, copying only the values written. A layer is
then selected where it will stay: standard mode takes exactly the requested
count with a linear select, wobbly mode takes every carry value at or below
the certifying bound in one value partition. Both partition the carry in
place with the layer's max last, where it is read, and the layer is
recorded by appending its end to ends; the values after it are the next
carry. So an emission allocates nothing and copies no value, and no value
is dropped or duplicated.
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
    ensure draws sizes from, and label names the node in stats(); dtype is
    its children's, promoted. Emitted layers accumulate in values, ends,
    mins and maxs, the fields a parent reads; once generate_next_layer has
    returned None it returns None on every call. values[:written] holds the
    layers, then the carry, the written values not yet emitted; rows maps
    each row with expanded but unwritten products to its column run
    [v0, v1], written at the next emission. carry_count counts both. state,
    the node itself, is kept only for the benchmark's tracer.
    """

    def __init__(self, left, right, mode: str, alpha=DEFAULT_ALPHA, label: str = "node"):
        if mode not in MODES:
            raise ConfigError(f"unknown mode {mode!r}, expected one of {MODES}")
        self.left = left
        self.right = right
        self.mode = mode
        self.label = label
        self._schedule = layer_size_schedule(alpha)
        self.dtype = np.promote_types(left.dtype, right.dtype)
        self.heap: list[tuple] = [(-math.inf, UNPRICED, 1, 1)]
        self.values = np.empty(0, self.dtype)
        self.ends = [0]
        self.written = 0
        self.rows: dict[int, list[int]] = {}
        self.carry_count = 0
        # s = (total size of max-popped products) - (total values emitted).
        # It lower-bounds how many carry values precede everything not yet
        # generated; emissions may drive it negative, and the deficit is
        # repaid when the straddled products' max tuples pop.
        self.s = 0
        self.mins: list = []
        self.maxs: list = []
        self.last_max_value = None
        self.values_generated = 0
        self.tuple_pops = 0

    # perfbench/tracer.py walks node.state.left/.right; ROADMAP item 3,
    # which gives the tracer per-node records to read, deletes this alias
    state = property(lambda self: self)

    carry = property(lambda self: self.values[self.ends[-1] : self.written])

    def ensure(self, i: int) -> bool:
        """Emit scheduled layers until layer i exists; False if it never will."""
        while len(self.ends) <= i:
            if self.generate_next_layer(next(self._schedule)) is None:
                return False
        return True

    def expand_min(self, t: tuple) -> None:
        """Count the popped product into the carry and propose its successors.

        Its values are written at the next emission, with the rest of row
        u's run. The successors are the next product in the row, (u, v+1),
        and, from the first column only, the first product of the next row,
        (u+1, 1). It pushes the product's MAX tuple, then each proposal
        PRICED at its exact min if the child has exposed that layer, else
        UNPRICED at a lower bound; it asks no child for anything. Nothing
        but this method adds to values_generated.
        """
        _, _, u, v = t
        left, right = self.left, self.right
        lends, rends = left.ends, right.ends
        self.rows.setdefault(u, [v, v])[1] = v
        size = (lends[u] - lends[u - 1]) * (rends[v] - rends[v - 1])
        self.carry_count += size
        self.values_generated += size
        heap = self.heap
        heapq.heappush(heap, (left.maxs[u - 1] + right.maxs[v - 1], MAX, u, v))
        if v < len(rends) - 1:
            heapq.heappush(heap, (left.mins[u - 1] + right.mins[v], PRICED, u, v + 1))
        else:
            heapq.heappush(heap, (left.mins[u - 1] + right.maxs[v - 1], UNPRICED, u, v + 1))
        if v == 1:
            if u < len(lends) - 1:
                heapq.heappush(heap, (left.mins[u] + right.mins[0], PRICED, u + 1, 1))
            else:
                heapq.heappush(heap, (left.maxs[u - 1] + right.mins[0], UNPRICED, u + 1, 1))

    def _pop_one(self) -> int:
        """Pop one tuple; return the product size on a max pop, else 0.

        An unpriced tuple asks the left child for layer u and the right for
        layer v, the only call a node makes into a child. It is then
        replaced at the top by its priced tuple in one heap operation, or
        popped if a layer does not exist; either way it counts as one pop.
        Tuples are distinct, so this pops in the same order as a pop and a
        push would.
        """
        heap, left, right = self.heap, self.left, self.right
        value, kind, u, v = t = heap[0]
        self.tuple_pops += 1
        if kind == UNPRICED:
            if left.ensure(u) and right.ensure(v):
                heapq.heapreplace(heap, (left.mins[u - 1] + right.mins[v - 1], PRICED, u, v))
            else:
                heapq.heappop(heap)
            return 0
        heapq.heappop(heap)
        if kind == PRICED:
            self.expand_min(t)
            return 0
        lends, rends = left.ends, right.ends
        size = (lends[u] - lends[u - 1]) * (rends[v] - rends[v - 1])
        self.s += size
        self.last_max_value = value
        return size

    def _emit(self, layer: np.ndarray) -> np.ndarray:
        """Record layer, the head of the carry selected in place, as the next layer."""
        size = layer.size
        self.ends.append(self.ends[-1] + size)
        self.mins.append(layer.min().item())
        self.maxs.append(layer[-1].item())  # the selection leaves the max last
        self.carry_count -= size
        self.s -= size
        return layer

    def _carry_pool(self) -> np.ndarray:
        """Write every pending row after the carry, doubling the buffer when
        they would overrun it, and return the carry, which now holds them."""
        if self.rows:
            end, need = self.written, self.ends[-1] + self.carry_count
            if need > self.values.size:
                size = max(need, 2 * self.values.size)
                try:
                    grown = np.empty(size, self.dtype)
                except MemoryError:
                    raise _out_of_memory(size, self.dtype, "a node's values") from None
                grown[:end] = self.values[:end]
                self.values = grown
            out, left, right = self.values, self.left, self.right
            for u, (v0, v1) in self.rows.items():
                a = left.values[left.ends[u - 1] : left.ends[u]]
                b = right.values[right.ends[v0 - 1] : right.ends[v1]]
                start, end = end, end + a.size * b.size
                np.add(a[:, None], b, out=out[start:end].reshape(a.size, b.size))
            self.rows.clear()
            self.written = end
        return self.carry

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
        if self.mode == "standard":
            while self.s < target and heap:
                self._pop_one()
            if self.carry_count == 0:
                return None
            return self._emit(linear_select(self._carry_pool(), min(target, self.carry_count))[0])
        need = target
        while True:
            closed = 0
            while closed < need and heap:
                closed += self._pop_one()
            if self.carry_count:
                layer = partition_by_value(self._carry_pool(), self.last_max_value)[0]
                # an empty heap leaves every value under the bound: final layer
                if layer.size >= target or not heap:
                    return self._emit(layer)
                # a tie band came up short: it stays in the carry; certify
                # until the band holds target or the product runs out
                need = target - int(layer.size)
            elif not heap:
                return None
            else:
                need = target
