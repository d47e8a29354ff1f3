"""Property tests: both modes return exactly the brute-force multiset, and
every layer-ordered heap holds the rank slices of its input.

Inputs are drawn from the families that stress ties and ranges: few distinct
values, negatives, magnitudes at the int64 limit for m summands, and ragged
lengths, with m up to 8 and the full product kept small enough to enumerate.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cartsel.loh import lohify
from cartsel.oracle import brute_multi
from cartsel.pairwise import MODES
from cartsel.tree import TreeConfig, build_tree
from conftest import assert_layers_are_rank_slices

MAX_M = 8
MAX_TOTAL = 4096
# Largest magnitude for which any sum of MAX_M values stays inside int64.
EDGE = (2**63 - 1) // MAX_M

VALUE_FAMILIES = {
    "low-cardinality": st.integers(0, 3),
    "negative": st.integers(-50, 5),
    "int64-edge": st.one_of(
        st.integers(EDGE - 3, EDGE), st.integers(-EDGE, -EDGE + 3)
    ),
    "wide": st.integers(-(10**9), 10**9),
}


@st.composite
def instances(draw):
    """(arrays, k): ragged int arrays of one value family and a k in range."""
    m = draw(st.integers(1, MAX_M))
    values = VALUE_FAMILIES[draw(st.sampled_from(sorted(VALUE_FAMILIES)))]
    max_len = min(64, int(MAX_TOTAL ** (1 / m)))
    arrays = [
        np.array(draw(st.lists(values, min_size=1, max_size=max_len)), dtype=np.int64)
        for _ in range(m)
    ]
    total = math.prod(a.size for a in arrays)
    k = draw(st.one_of(st.integers(1, total), st.just(total)))
    return arrays, k


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(instances())
def test_both_modes_equal_brute_force(case):
    arrays, k = case
    expect = brute_multi(arrays, k)
    for mode in MODES:
        got = np.sort(build_tree(arrays, TreeConfig(mode=mode)).select_k(k))
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expect, err_msg=mode)


@st.composite
def heap_values(draw):
    """An int64 or float64 array of length 1 to 5000.

    Hypothesis draws up to 64 values, the length and a seed; a seeded
    generator samples the values out to that length, so long inputs, which
    reach the partitioned spans of a heap, stay cheap to draw.
    """
    if draw(st.booleans()):
        dtype, elements = np.int64, st.integers(-(2**63), 2**63 - 1)
    else:
        dtype, elements = np.float64, st.floats(allow_nan=False, allow_infinity=False)
    base = np.array(draw(st.lists(elements, min_size=1, max_size=64)), dtype=dtype)
    n = draw(st.integers(1, 5000))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(base, n)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.fractions(1, 8, max_denominator=1000).filter(lambda a: a > 1), heap_values())
def test_heap_layers_are_rank_slices(alpha, values):
    """Each layer, sorted, is its slice of the sorted input, at any rank."""
    assert_layers_are_rank_slices(lohify(values, alpha), values)
