"""Constants and helpers shared by the tests.

G and G0 are the slack in the work guardrails that tests assert: a node
asked for a layer of size s generates at most G * alpha**2 * s + G0 values,
and a standard-mode root pool for k stays within G * alpha**2 * k + G0.
"""

import heapq
from types import SimpleNamespace

import numpy as np

import cartsel.pairwise as pairwise_mod

G = 8
G0 = 64

# Float values every entry point must reject.
NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def assert_layers_are_rank_slices(heap, values):
    """Each layer of heap, once sorted, equals its slice of sorted(values).

    Stronger than verify_loh, which sees only the heap: this also ties every
    layer to the input values it must hold. Every layer is placed first.
    """
    heap.place(heap.boundaries.size)
    ref = np.sort(np.asarray(values))
    assert heap.boundaries[-1] == ref.size
    layer_of = np.repeat(
        np.arange(heap.boundaries.size), np.diff(heap.boundaries, prepend=0)
    )
    by_layer = heap.values[np.lexsort((heap.values, layer_of))]
    np.testing.assert_array_equal(by_layer, ref)


def buffer_nbytes(arr):
    """Size of the buffer that keeps arr alive: its own, or its base's."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr.nbytes


def layers(node):
    """The layers a node, leaf or internal, has exposed: views of its values
    cut at its ends."""
    ends = node.ends
    return [node.values[a:b] for a, b in zip(ends, ends[1:])]


def record_pops(monkeypatch, record):
    """Call record(heap), with the tuple about to leave at heap[0], before
    every heappop and heapreplace cartsel.pairwise makes: each is one pop
    of a node's certification loop."""

    def heappop(heap):
        record(heap)
        return heapq.heappop(heap)

    def heapreplace(heap, item):
        record(heap)
        return heapq.heapreplace(heap, item)

    monkeypatch.setattr(
        pairwise_mod,
        "heapq",
        SimpleNamespace(heappush=heapq.heappush, heappop=heappop, heapreplace=heapreplace),
    )


def assert_one_buffer(node):
    """An internal node holds its values in one array: its layers are
    value-ordered, contiguous slices of values[:ends[-1]], their recorded
    extremes their own; its carry follows them in the same array, every
    value at or above the last layer's max; and the array is under twice
    what the node has written, so it pins no larger buffer. Checked between
    emissions, when no row is pending."""
    ends, values = node.ends, node.values
    assert ends[0] == 0 and all(a < b for a, b in zip(ends, ends[1:]))
    cut = layers(node)
    assert [layer.min() for layer in cut] == node.mins
    assert [layer.max() for layer in cut] == node.maxs
    assert all(a <= b for a, b in zip(node.maxs, node.mins[1:]))
    carry = node.carry
    assert values.base is None and carry.base is values
    assert carry.size == node.carry_count and not node.rows
    assert not carry.size or carry.min() >= node.maxs[-1]
    assert values.size < 2 * node.written or values.size == node.written == 0


def k_smallest_sums(arrays, k):
    """The k smallest sums of one value from each array, sorted.

    Folds the arrays in order, keeping only the k smallest partial sums at
    each step: every sum among the k smallest of the whole product extends
    a partial sum among the k smallest so far, so the fold is exact, and it
    never forms more than k * k sums at once.
    """
    best = np.sort(arrays[0])[:k]
    for b in arrays[1:]:
        best = np.sort(np.add.outer(best, np.sort(b)[:k]), axis=None)[:k]
    return best
