"""Constants and helpers shared by the tests.

G and G0 are the slack in the work guardrails that tests assert: a node
asked for a layer of size s generates at most G * alpha**2 * s + G0 values,
and a standard-mode root pool for k stays within G * alpha**2 * k + G0.
"""

import numpy as np

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
