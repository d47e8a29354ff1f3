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
value from layer u of the left stream and one from layer v of the right. A
binary heap holds plain tuples (value, kind, shell, u, v), ordered as
tuples: per product a MAX tuple valued max(A(u)) + max(B(v)) and a min tuple
on the square shell max(u, v), PRICED at the exact min(A(u)) + min(B(v)) or,
while the child has not exposed the layer it needs, UNPRICED at a lower
bound, min(A(u)) + max(B(v)) for (u, v+1) and max(A(u)) + min(B(1)) for
(u+1, 1). One loop, _certify, pops them in both modes. Popping a priced
tuple counts the product's values into the carry, records that row u now
reaches column v, and proposes its grid neighbours: (u, v+1), plus (u+1, 1)
when v == 1. Every product other than (1, 1) has exactly one proposer,
(u, v-1) or (u-1, 1), whose min is no larger than its own, so no product is
proposed twice and none too late; (1, 1), which has none, is pushed at
construction unpriced at -inf. Popping an unpriced tuple is the one place a
node calls into a child: it asks for the tuple's layers, left.ensure(u) and
right.ensure(v), and replaces the tuple at its exact min, or drops it if a
layer does not exist. So a child exposes no layer past the deepest index its
parent has popped a tuple on, and emits a layer, about alpha times all its
layers before it, only once its parent pops a product in it.

Popping a max tuple certifies that the whole product now precedes
everything not yet generated. At equal value a max tuple pops first, as MAX
is the least kind, then a priced min, then an unpriced one. Any order that
does that is sound, as a popped max is at most every unpopped min and every
unpriced bound is at most its product's min, and no product can pop before
its proposer, which pushes it. Max-first keeps heavy ties bounded: min-first
would expand every product in a tie band, and pull its children's layers,
before any of them could be certified. Among min tuples of one value and
kind the smaller square shell pops first, then (u, v); a max tuple's shell
is 0, so max tuples keep their (u, v) order. A tie band so grows as a
square and pulls both children evenly, instead of running row 1 across the
right child's layers: on 4 x 64 zeros at k = 1,024 the root's children
emit 36 values each.

A row's products are expanded in column order, so the columns a row
reaches between two emissions form one run v0..v1. Values are written only
at an emission, into the node's one buffer, values: its layers, then the
carry, the written values not yet emitted, then one block of sums per
pending row, layer u of the left stream plus layers v0..v1 of the right,
each read as one slice of its child's values, with the longer of the two
along the block's contiguous axis. The buffer doubles when a write would
overrun it, copying only the values written. A layer is then selected in
place: standard mode takes exactly the requested count with a linear
select, wobbly mode every carry value at or below the certifying bound with
one value partition. Both leave the layer's max last, where it is read;
layer 1's min is the children's first mins summed, a later one's read at
its argmin. Appending the layer's end to ends records it, and the values
after it are the next carry: an emission allocates nothing, copies no
value, and drops or duplicates none.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import ConfigError, ResourceLimitError
from .loh import DEFAULT_ALPHA, as_count, layer_size_schedule, linear_select, partition_by_value
from .loh import _out_of_memory

__all__ = [
    "MODES",
    "PairwiseState",
]

MODES = ("standard", "wobbly")

# The kind field of a heap tuple (value, kind, shell, u, v). A max tuple sorts
# first at a tied value; an unpriced tuple's value is only a lower bound.
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
    [v0, v1], written at the next emission. carry_count counts both.
    failure is None until a push onto the heap fails; it then names that
    failure, and the node, whose heap may lack a tuple, is spent: every
    later generate_next_layer, so every ensure that needs a new layer,
    raises ResourceLimitError. The layers emitted before stay exact. state,
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
        dtype = left.dtype
        if right.dtype is not dtype:  # children of one profile share one dtype object
            dtype = np.promote_types(dtype, right.dtype)
        self.dtype = dtype
        # a tuple per node, not one shared: once popped, the query's pushes reuse its memory
        self.heap: list[tuple] = [(-math.inf, UNPRICED, 1, 1, 1)]
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
        self.failure = None

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
        """Count the popped product into the carry, to be written at the next
        emission, push its MAX tuple and propose (u, v+1) and, from column 1,
        (u+1, 1), each on its square shell, PRICED if the child has exposed
        its layer, else UNPRICED; it asks no child for anything. Nothing but
        this method adds to values_generated.
        """
        _, _, _, u, v = t
        left, right = self.left, self.right
        lends, rends = left.ends, right.ends
        self.rows.setdefault(u, [v, v])[1] = v
        size = (lends[u] - lends[u - 1]) * (rends[v] - rends[v - 1])
        self.carry_count += size
        self.values_generated += size
        heap = self.heap
        heapq.heappush(heap, (left.maxs[u - 1] + right.maxs[v - 1], MAX, 0, u, v))
        shell = v + 1 if v >= u else u  # max(u, v + 1), inline: the builtin costs a call
        if v < len(rends) - 1:
            heapq.heappush(heap, (left.mins[u - 1] + right.mins[v], PRICED, shell, u, v + 1))
        else:
            heapq.heappush(heap, (left.mins[u - 1] + right.maxs[v - 1], UNPRICED, shell, u, v + 1))
        if v == 1:
            if u < len(lends) - 1:
                heapq.heappush(heap, (left.mins[u] + right.mins[0], PRICED, u + 1, u + 1, 1))
            else:
                heapq.heappush(heap, (left.maxs[u - 1] + right.mins[0], UNPRICED, u + 1, u + 1, 1))

    def _certify(self, need) -> int:
        """Pop tuples until the products closed by max pops hold need values
        or the heap is empty, and return the values closed; s, tuple_pops and
        last_max_value are written back even if a child raises. An unpriced
        tuple is replaced at the top by its priced one in one heap operation:
        tuples are distinct, so that pops in the order a pop and a push would.
        A heap that cannot grow raises ResourceLimitError and spends the node.
        """
        heap, left, right = self.heap, self.left, self.right
        lends, rends, lmins, rmins = left.ends, right.ends, left.mins, right.mins
        pop, replace, expand = heapq.heappop, heapq.heapreplace, self.expand_min
        closed = pops = 0
        last = self.last_max_value
        try:
            while closed < need and heap:
                pops += 1
                value, kind, shell, u, v = t = heap[0]
                if kind == MAX:
                    pop(heap)
                    closed += (lends[u] - lends[u - 1]) * (rends[v] - rends[v - 1])
                    last = value
                elif kind == PRICED:
                    pop(heap)
                    expand(t)
                elif left.ensure(u) and right.ensure(v):
                    replace(heap, (lmins[u - 1] + rmins[v - 1], PRICED, shell, u, v))
                else:
                    pop(heap)
        except MemoryError:  # the heap's own growth: every other allocation is typed by its owner
            error = _out_of_memory(len(heap) + 1, object, "a node's heap")
            self.failure = str(error)
            raise error from None
        finally:
            self.s += closed
            self.tuple_pops += pops
            self.last_max_value = last
        return closed

    def _emit(self, layer: np.ndarray) -> np.ndarray:
        """Record layer, the head of the carry selected in place, as the next
        layer; its max is last, layer 1's min is the smallest sum and a later
        layer's is read at its argmin, a third of a reduction's cost on a
        small layer."""
        size, ends, mins = layer.size, self.ends, self.mins
        end = ends[-1] + size
        ends.append(end)
        mins.append(layer.item(layer.argmin()) if mins else self.left.mins[0] + self.right.mins[0])
        self.maxs.append(self.values.item(end - 1))
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
                if a.size > b.size:  # the longer operand on the contiguous axis: fewer, longer loops
                    a, b = b, a
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
        if self.failure is not None:
            raise ResourceLimitError(f"{self.label} is spent by an earlier failure: {self.failure}")
        if self.mode == "standard":
            self._certify(target - self.s)
            if self.carry_count == 0:
                return None
            return self._emit(linear_select(self._carry_pool(), min(target, self.carry_count))[0])
        need = target
        while True:
            self._certify(need)
            if self.carry_count:
                layer = partition_by_value(self._carry_pool(), self.last_max_value)[0]
                # an empty heap leaves every value under the bound: final layer
                if layer.size >= target or not self.heap:
                    return self._emit(layer)
                # a tie band came up short: it stays in the carry; certify
                # until the band holds target or the product runs out
                need = target - int(layer.size)
            elif not self.heap:
                return None
            else:
                need = target
