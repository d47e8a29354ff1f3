"""Property tests: both modes return exactly the brute-force multiset,
every layer-ordered heap holds the rank slices of its input, and no node of
a standard-mode tree generates more than the work bound at any rank.

Inputs are drawn from the families that stress ties and ranges: few distinct
values, negatives, magnitudes at the int64 limit for m summands, and ragged
lengths, with m up to 8 and the full product kept small enough to enumerate.
The work-bound property draws up to 40 inputs and checks its answers against
the fold of k smallest sums instead.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cartsel.loh import lohify
from cartsel.oracle import brute_multi
from cartsel.pairwise import MODES
from cartsel.tree import TreeConfig, build_tree
from conftest import G, G0, assert_layers_are_rank_slices, k_smallest_sums

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


# Values for inputs long enough that a heap places only its front at build.
LAZY_FAMILIES = {
    "ties": (0, 4),
    "negative": (-60, 6),
    "wide": (-(10**9), 10**9),
}
MAX_LAZY_TOTAL = 300_000


@st.composite
def lazy_instances(draw):
    """(arrays, ks): one to three ragged inputs whose first is long enough
    not to be placed whole at build, and a query sequence that grows k,
    reaches deep past each front, repeats and shrinks.

    Lengths keep the product within MAX_LAZY_TOTAL; values come from a
    seeded generator over one family, so long inputs stay cheap to draw.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = LAZY_FAMILIES[draw(st.sampled_from(sorted(LAZY_FAMILIES)))]
    lengths = [draw(st.integers(500, 3000))]
    for _ in range(draw(st.integers(0, 2))):
        lengths.append(draw(st.integers(1, max(1, min(3000, MAX_LAZY_TOTAL // math.prod(lengths))))))
    arrays = [rng.integers(lo, hi, size=n, dtype=np.int64) for n in lengths]
    total = math.prod(lengths)
    growing = sorted(draw(st.lists(st.integers(1, total), min_size=1, max_size=3)))
    deep = draw(st.integers(min(total, 4 * lengths[0]), total))
    ks = [*growing, max(growing[-1], deep), deep, draw(st.integers(1, total))]
    return arrays, ks


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(lazy_instances())
def test_lazy_leaves_equal_brute_force(case):
    """Leaves placed on demand answer every query of a growing, resumed and
    shrinking sequence with exactly the brute-force multiset, in both modes."""
    arrays, ks = case
    expect = brute_multi(arrays, max(ks))
    for mode in MODES:
        tree = build_tree(arrays, TreeConfig(mode=mode))
        assert len(tree.leaves[0].loh.layer_mins) < tree.leaves[0].loh.boundaries.size
        for k in ks:
            got = np.sort(tree.select_k(k))
            np.testing.assert_array_equal(got, expect[:k], err_msg=f"{mode} k={k}")


MAX_WORK_M = 40
# Per input value ranges: heavy ties, small signed values, and signed values
# wide enough that no two of MAX_WORK_M inputs' sums ever tie by chance.
WORK_FAMILIES = {
    "one-value": (0, 1),
    "ties": (0, 4),
    "signed": (-50, 50),
    "wide": (-(2**60) // MAX_WORK_M, 2**60 // MAX_WORK_M),
}


@st.composite
def work_instances(draw):
    """(arrays, alpha, k): 2 to MAX_WORK_M ragged inputs of 1 to 59 values
    from one family, a rank alpha in (1, 8] and k up to 5,000.

    Values come from a seeded generator, so many inputs stay cheap to draw.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo, hi = WORK_FAMILIES[draw(st.sampled_from(sorted(WORK_FAMILIES)))]
    m = draw(st.integers(2, MAX_WORK_M))
    lengths = draw(st.lists(st.integers(1, 59), min_size=m, max_size=m))
    arrays = [rng.integers(lo, hi, size=n, dtype=np.int64) for n in lengths]
    alpha = draw(st.fractions(1, 8, max_denominator=1000).filter(lambda a: a > 1))
    k = draw(st.integers(1, min(math.prod(lengths), 5000)))
    return arrays, alpha, k


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(work_instances())
def test_every_node_stays_within_the_work_bound_at_any_rank(case):
    """In standard mode no internal node generates more than
    G * alpha**2 * k + G0 values for a query of k, at any rank and depth:
    a node asks a child for a layer only when a product in it pops, so a
    child's next layer, about alpha times all before it, is not emitted just
    to price a proposal."""
    arrays, alpha, k = case
    tree = build_tree(arrays, TreeConfig(alpha=alpha))
    np.testing.assert_array_equal(np.sort(tree.select_k(k)), k_smallest_sums(arrays, k))
    worst = max(node.values_generated for node in tree.internals)
    assert worst <= G * float(alpha) ** 2 * k + G0
