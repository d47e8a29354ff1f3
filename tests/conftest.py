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
    layer to the input values it must hold.
    """
    ref = np.sort(np.asarray(values))
    assert heap.boundaries[-1] == ref.size
    layer_of = np.repeat(
        np.arange(heap.boundaries.size), np.diff(heap.boundaries, prepend=0)
    )
    by_layer = heap.values[np.lexsort((heap.values, layer_of))]
    np.testing.assert_array_equal(by_layer, ref)
