"""Tests for layer-ordered heap construction and linear selection."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cartsel.loh as loh_mod
from cartsel.errors import (
    ConfigError,
    ContractError,
    EmptyInputError,
    InvalidValueError,
    ResourceLimitError,
)
from cartsel.loh import (
    as_value_arrays,
    check_sums,
    layer_size_schedule,
    layer_sizes,
    linear_select,
    lohify,
    partition_by_value,
    verify_loh,
)
from cartsel.tree import build_tree
from conftest import NON_FINITE, assert_layers_are_rank_slices

ALPHAS = (1.05, 1.1, 2, 4, Fraction(11, 10), "1.1")
# Extreme and coarse ranks too: 5000 values make 100 layers at 1.001 and at
# 101/100, and 4 layers at 64.
BUILD_ALPHAS = (*ALPHAS, 1.001, "101/100", 64)


class TestLayerSizeSchedule:
    def test_doubling_schedule(self):
        """alpha=2 doubles each layer starting from 1."""
        assert layer_sizes(2, 31) == [1, 2, 4, 8, 16]

    def test_shallow_schedule_with_truncation(self):
        """alpha=1.1 grows by exact rational ceiling; the tail is truncated."""
        assert layer_sizes(1.1, 60) == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 5]

    def test_exact_rational_ceiling(self):
        """ceil(1.1 * 10) is 11, not the float artifact 12."""
        gen = layer_size_schedule(1.1)
        sizes = [next(gen) for _ in range(11)]
        assert sizes[9] == 10 and sizes[10] == 11

    def test_alpha_forms_agree(self):
        """float, Fraction, string and numpy scalar alphas give one schedule."""
        expect = layer_sizes(1.1, 5000)
        assert layer_sizes(Fraction(11, 10), 5000) == expect
        assert layer_sizes("1.1", 5000) == expect
        assert layer_sizes(np.int64(2), 5000) == layer_sizes(2, 5000)
        assert layer_sizes(np.float32(1.5), 5000) == layer_sizes(Fraction(3, 2), 5000)

    def test_single_value(self):
        assert layer_sizes(1.1, 1) == [1]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_partition_properties(self, alpha):
        """Sizes start at 1, stay positive, never shrink before the last, sum to n."""
        for n in (1, 2, 3, 7, 64, 1000, 12345):
            sizes = layer_sizes(alpha, n)
            assert sizes[0] == 1
            assert all(s > 0 for s in sizes)
            body = sizes[:-1]
            assert all(a <= b for a, b in zip(body, body[1:]))
            assert sum(sizes) == n

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            layer_sizes(1.1, 0)

    def test_negative_rejected(self):
        with pytest.raises(ContractError):
            layer_sizes(1.1, -3)

    def test_n_must_be_an_integer(self):
        """n is read as k is: 2.7 and "3" are refused, not truncated to 2 and 3."""
        for n in (2.7, "3"):
            with pytest.raises(ContractError, match="n"):
                layer_sizes(1.1, n)
        assert layer_sizes(1.1, np.int64(3)) == [1, 2]

    @pytest.mark.parametrize(
        "alpha",
        (1, 1.0, 0.5, 0, -2, "abc", float("inf"), float("nan"), [1.5], np.array([1.5]),
         Fraction(1), Fraction(1, 2)),
    )
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ConfigError):
            layer_sizes(alpha, 10)

    def test_lohify_validates_alpha(self):
        with pytest.raises(ConfigError):
            lohify(np.arange(3), alpha=1)


class TestAsValueArray:
    """Coercion by as_value_arrays; non-finite values are refused by the
    extremes check when lohify builds the heap."""

    def test_int_list_to_int64(self):
        (arr,) = as_value_arrays([[3, 1, 2]])
        assert arr.dtype == np.int64
        np.testing.assert_array_equal(arr, [3, 1, 2])

    def test_bool_promotes_to_int64(self):
        (arr,) = as_value_arrays([np.array([True, False, True])])
        assert arr.dtype == np.int64
        np.testing.assert_array_equal(arr, [1, 0, 1])

    def test_float_list_to_float64(self):
        (arr,) = as_value_arrays([[1.5, -2.25]])
        assert arr.dtype == np.float64

    def test_uint64_in_range(self):
        (arr,) = as_value_arrays([np.array([5, 7], dtype=np.uint64)])
        assert arr.dtype == np.int64

    def test_uint64_overflow_rejected(self):
        with pytest.raises(InvalidValueError):
            as_value_arrays([np.array([2**63], dtype=np.uint64)])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ContractError):
            as_value_arrays([np.zeros((2, 2))])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            as_value_arrays([[]])
        with pytest.raises(EmptyInputError):
            as_value_arrays([])

    def test_nan_rejected(self):
        with pytest.raises(InvalidValueError):
            lohify([1.0, float("nan")])

    @pytest.mark.parametrize("bad", (float("inf"), float("-inf")))
    def test_infinity_rejected(self, bad):
        with pytest.raises(InvalidValueError):
            lohify([1.0, bad])

    def test_non_numeric_rejected(self):
        with pytest.raises(InvalidValueError):
            as_value_arrays([["a", "b"]])

    def test_ragged_input_rejected(self):
        """Ragged nesting is a typed error naming the input, not numpy's ValueError."""
        with pytest.raises(ContractError, match="input 1"):
            as_value_arrays([[1, 2], [[1], [2, 3]]])
        with pytest.raises(ContractError, match="values"):
            lohify([[1], [2, 3]])

    def test_all_int_stays_int(self):
        arrays = as_value_arrays([[1, 2], [3]])
        assert all(a.dtype == np.int64 for a in arrays)

    def test_mixed_promotes_to_float(self):
        arrays = as_value_arrays([[1, 2], [0.5]])
        assert all(a.dtype == np.float64 for a in arrays)


class TestCheckSums:
    def test_sum_overflow_rejected(self):
        """Two arrays whose worst-case sum exceeds int64 are refused up front."""
        with pytest.raises(InvalidValueError):
            check_sums([2**62, 2**62], [2**62, 2**62])

    def test_float_sum_overflow_rejected(self):
        """A float group is refused when its sums can pass the largest finite
        float64, either way; numpy scalars are judged as Python numbers. A
        lone input accepts every finite float."""
        with pytest.raises(InvalidValueError):
            check_sums([0.0, 0.0], [1.7e308, 1.7e308])
        with pytest.raises(InvalidValueError):
            check_sums([np.float64(-1e308)] * 4, [np.float64(0.0)] * 4)
        check_sums([-1e307] * 4, [1e307] * 4)
        check_sums([-np.finfo(np.float64).max], [np.finfo(np.float64).max])


class TestLinearSelect:
    def _check(self, pool, k):
        head, tail = linear_select(pool, k)
        ref = np.sort(pool)
        np.testing.assert_array_equal(np.sort(head), ref[:k])
        np.testing.assert_array_equal(np.sort(tail), ref[k:])
        if 0 < k < len(pool):
            assert head.max() <= tail.min()

    def test_seeded_sweep_small_and_large(self):
        """Random pools from one value to a few hundred, every k checked on small n."""
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 5, 64, 65, 200):
            pool = rng.integers(0, 40, size=n).astype(np.int64)
            ks = range(n + 1) if n <= 5 else [0, 1, n // 3, n // 2, n - 1, n]
            for k in ks:
                self._check(pool, k)

    def test_duplicate_heavy_pool(self):
        """Tie rationing splits a run of equal values exactly at k."""
        rng = np.random.default_rng(1)
        pool = rng.integers(0, 3, size=500).astype(np.int64)
        for k in (0, 1, 249, 250, 251, 500):
            self._check(pool, k)

    def test_float_pool(self):
        rng = np.random.default_rng(2)
        pool = rng.random(300)
        for k in (0, 1, 150, 300):
            self._check(pool, k)

    def test_all_equal_pool(self):
        head, tail = linear_select(np.full(100, 7, dtype=np.int64), 40)
        assert head.size == 40 and tail.size == 60
        assert (head == 7).all() and (tail == 7).all()

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pool = rng.integers(0, 1000, size=512).astype(np.int64)
        h1, t1 = linear_select(pool.copy(), 100)
        h2, t2 = linear_select(pool.copy(), 100)
        np.testing.assert_array_equal(h1, h2)
        np.testing.assert_array_equal(t1, t2)

    def test_partitions_in_place(self):
        """The pool becomes a permutation of itself with the head first; the
        head and the tail are views of its first k values and of the rest."""
        pool = np.array([5, 1, 4, 2, 3] * 30, dtype=np.int64)
        snapshot = pool.copy()
        head, tail = linear_select(pool, 70)
        np.testing.assert_array_equal(np.sort(pool), np.sort(snapshot))
        assert head.base is pool and head.ctypes.data == pool.ctypes.data and head.size == 70
        assert tail.base is pool and tail.ctypes.data == pool[70:].ctypes.data and tail.size == 80

    def test_read_only_pool_is_left_untouched(self):
        pool = np.array([5, 1, 4, 2, 3] * 30, dtype=np.int64)
        snapshot = pool.copy()
        pool.flags.writeable = False
        for k in (1, 70, 150):
            self._check(pool, k)
        np.testing.assert_array_equal(pool, snapshot)

    def test_k_out_of_range(self):
        pool = np.arange(5)
        with pytest.raises(ContractError):
            linear_select(pool, -1)
        with pytest.raises(ContractError):
            linear_select(pool, 6)

    def test_k_must_be_an_integer(self):
        """k is read as select_k reads it: floats and strings are refused."""
        for k in (2.7, "3"):
            with pytest.raises(ContractError):
                linear_select(np.arange(5), k)
        head, _ = linear_select(np.arange(5)[::-1].copy(), np.int64(3))
        np.testing.assert_array_equal(np.sort(head), [0, 1, 2])

    @pytest.mark.parametrize("pool", (np.zeros((2, 3)), np.array([[5, 1, 4], [2, 3, 0]]),
                                      np.array(7)), ids=["2-d", "2-d-ints", "0-d"])
    def test_pool_must_be_one_dimensional(self, pool):
        """A 2-D pool is not flattened into one selection, and a 0-d pool is
        refused with the same typed error."""
        with pytest.raises(ContractError, match="one-dimensional"):
            linear_select(pool, 2 if pool.ndim else 0)

    @pytest.mark.parametrize("read_only", (False, True))
    def test_whole_pool_head_is_a_view(self, read_only):
        """At k = pool size the head is a view of the whole pool or, for a
        read-only pool, of its one copy, and the tail an empty view of the
        same array; at k = 0 the roles swap."""
        pool = np.array([5, 1, 4, 2, 3], dtype=np.int64)
        pool.flags.writeable = not read_only
        for k in (pool.size, 0):
            head, tail = linear_select(pool, k)
            assert head.base is tail.base is not None and tail.dtype == pool.dtype
            assert (head.base is pool) == (not read_only)
            assert (head.size, tail.size) == (k, pool.size - k)
        np.testing.assert_array_equal(np.sort(tail), [1, 2, 3, 4, 5])

    def test_head_is_a_view_of_the_pool(self):
        """A head is the pool's own first k values, not a copy, so a caller
        that keeps it past the pool's use copies it; a selection over a tail
        stays within that tail."""
        pool = np.arange(1000, dtype=np.int64)[::-1].copy()
        for k in (1, 500, 999):
            head, _ = linear_select(pool, k)
            assert head.base is pool and head.ctypes.data == pool.ctypes.data
        tail = linear_select(pool, 600)[1]
        head, rest = linear_select(tail, 300)
        assert head.base is pool and head.ctypes.data == tail.ctypes.data
        assert rest.ctypes.data == tail[300:].ctypes.data
        np.testing.assert_array_equal(np.sort(head), np.arange(600, 900))


POOLS = st.one_of(
    st.lists(st.integers(0, 3), max_size=40).map(lambda xs: np.array(xs, dtype=np.int64)),
    st.lists(st.floats(-1e6, 1e6), max_size=40).map(lambda xs: np.array(xs, dtype=np.float64)),
)


class TestLinearSelectContract:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(POOLS, st.booleans())
    def test_every_k(self, values, read_only):
        """For every k: the multiset is kept, the head's last value is its
        max, and the head and tail are views of one array, the pool or the
        one copy of a read-only pool, which is left untouched."""
        ref = np.sort(values)
        for k in range(values.size + 1):
            pool = values.copy()
            pool.flags.writeable = not read_only
            head, tail = linear_select(pool, k)
            np.testing.assert_array_equal(np.sort(head), ref[:k])
            np.testing.assert_array_equal(np.sort(np.concatenate((head, tail))), ref)
            if k:
                assert head[-1] == head.max()
            assert head.base is tail.base is not None
            if read_only:
                np.testing.assert_array_equal(pool, values)
                assert not np.shares_memory(head.base, pool)
            else:
                assert head.base is pool

    @pytest.mark.parametrize("read_only", (False, True))
    def test_pool_is_copied_at_most_once(self, read_only):
        """A read-only pool is copied once and a writable one not at all:
        beyond that copy a selection allocates only the head, as the tail is
        a view."""
        n = 1 << 16
        values = np.random.default_rng(19).integers(0, 1 << 20, size=n)
        for k in (0, 1, n // 3, n // 2 + 1, n - 1, n):
            pool = values.copy()
            pool.flags.writeable = not read_only
            tracemalloc.start()
            try:
                head, tail = linear_select(pool, k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            copies = pool.nbytes if read_only else 0
            # at k = n a read-only pool's one copy is the head itself
            made = 0 if read_only and k == n else head.nbytes
            assert peak <= copies + made + 4096, k


class TestPartitionByValue:
    def test_ties_go_to_head(self):
        head, tail = partition_by_value(np.array([3, 1, 2, 2, 5], dtype=np.int64), 2)
        np.testing.assert_array_equal(np.sort(head), [1, 2, 2])
        np.testing.assert_array_equal(np.sort(tail), [3, 5])

    def test_bound_below_everything(self):
        head, tail = partition_by_value(np.array([4, 6], dtype=np.int64), 3)
        assert head.size == 0 and tail.size == 2

    def test_multiset_preserved(self):
        rng = np.random.default_rng(5)
        pool = rng.integers(0, 10, size=200).astype(np.int64)
        head, tail = partition_by_value(pool, 4)
        np.testing.assert_array_equal(
            np.sort(np.concatenate((head, tail))), np.sort(pool)
        )
        assert (head <= 4).all() and (tail > 4).all()

    def test_partitions_in_place(self):
        """Every value equal to the bound lands in the head; the pool is
        reordered in place, with the head's max last. The head and the tail
        are views of the pool, however small either is."""
        pool = np.array([3, 2, 5, 2, 1, 2, 4, 2], dtype=np.int64)
        head, tail = partition_by_value(pool, 2)
        np.testing.assert_array_equal(np.sort(head), [1, 2, 2, 2, 2])
        np.testing.assert_array_equal(np.sort(tail), [3, 4, 5])
        np.testing.assert_array_equal(pool[:5], head)
        np.testing.assert_array_equal(pool[5:], tail)
        assert head[-1] == 2 and head.base is pool
        assert tail.base is pool
        pool = np.array([3, 2, 5, 2, 1, 6, 4, 7], dtype=np.int64)
        head, tail = partition_by_value(pool, 2)
        np.testing.assert_array_equal(np.sort(head), [1, 2, 2])
        np.testing.assert_array_equal(np.sort(tail), [3, 4, 5, 6, 7])
        np.testing.assert_array_equal(pool[:3], head)
        assert head[-1] == 2 and head.base is pool
        assert tail.base is pool

    def test_short_band_leaves_the_pool_whole(self):
        """A head too small for the caller is dropped: the reordered pool
        still holds every value and splits again at a later bound."""
        rng = np.random.default_rng(17)
        pool = rng.integers(0, 6, size=300).astype(np.int64)
        snapshot = np.sort(pool)
        head, _ = partition_by_value(pool, 0)
        assert head.size == np.count_nonzero(snapshot == 0)
        np.testing.assert_array_equal(np.sort(pool), snapshot)
        head, tail = partition_by_value(pool, 3)
        np.testing.assert_array_equal(np.sort(head), snapshot[snapshot <= 3])
        np.testing.assert_array_equal(np.sort(tail), snapshot[snapshot > 3])

    def test_nan_bound_rejected(self):
        with pytest.raises(ContractError):
            partition_by_value(np.array([1.0, 2.0]), float("nan"))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ContractError):
            partition_by_value(np.zeros((2, 2)), 0)

    def test_failed_value_mask_is_a_typed_error(self, monkeypatch):
        """The mask of values at or below the bound is one bool per pool
        value; numpy failing to allocate it raises ResourceLimitError naming
        the pool's values and the mask's bytes, not a bare MemoryError."""

        def less_equal(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np, "less_equal", less_equal)
        with pytest.raises(ResourceLimitError) as err:
            partition_by_value(np.arange(300, dtype=np.int64), 7)
        assert str(err.value) == "out of memory for a value mask: 300 values, 300 bytes"


class TestLohify:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_structure_verifies(self, alpha):
        """Every built heap passes the structural check and keeps the multiset."""
        rng = np.random.default_rng(6)
        for n in (1, 2, 7, 100, 3000):
            vals = rng.integers(0, 50, size=n).astype(np.int64)
            heap = lohify(vals, alpha)
            assert verify_loh(heap)
            np.testing.assert_array_equal(np.sort(heap.values), np.sort(vals))

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("n", (1, 2, 1000))
    def test_non_finite_rejected(self, bad, n):
        """lohify checks its input on its own, wherever the bad value sits."""
        for at in {0, n // 3, n - 1}:
            values = np.arange(n, dtype=np.float64)
            values[at] = bad
            with pytest.raises(InvalidValueError):
                lohify(values)

    def test_layers_are_value_ordered(self):
        rng = np.random.default_rng(7)
        heap = lohify(rng.random(500))
        heap.place(heap.boundaries.size)
        mins, maxs = np.array(heap.layer_mins), np.array(heap.layer_maxs)
        assert mins.size == maxs.size == heap.boundaries.size
        assert (maxs[:-1] <= mins[1:]).all()

    def test_layer_sizes_match_schedule(self):
        heap = lohify(np.arange(60, dtype=np.int64)[::-1], 1.1)
        assert np.diff(heap.boundaries, prepend=0).tolist() == layer_sizes(1.1, 60)

    @pytest.mark.parametrize("alpha", BUILD_ALPHAS)
    def test_layers_hold_their_rank_slices(self, alpha):
        """Each layer, sorted, is its slice of the sorted input, on inputs
        that are random, sorted, reversed, all equal and low-cardinality."""
        rng = np.random.default_rng(11)
        for n in (1, 2, 3, 17, 1000, 5000):
            for vals in (
                rng.integers(-(1 << 40), 1 << 40, size=n),
                np.sort(rng.random(n)),
                np.arange(n, dtype=np.int64)[::-1].copy(),
                np.full(n, -3, dtype=np.int64),
                rng.integers(0, 4, size=n),
            ):
                assert_layers_are_rank_slices(lohify(vals, alpha), vals)

    @pytest.mark.parametrize("dtype", (np.int64, np.float64))
    def test_input_is_never_written_or_shared(self, dtype):
        """The input is copied once and only the copy is reordered."""
        rng = np.random.default_rng(12)
        for n in (1, 300, 5000):
            vals = rng.integers(-1000, 1000, size=n).astype(dtype)
            snapshot = vals.tobytes()
            heap = lohify(vals, 1.01)
            heap.place(heap.boundaries.size)
            assert vals.tobytes() == snapshot
            assert not np.shares_memory(heap.values, vals)

    def test_equal_lengths_share_one_schedule(self, monkeypatch):
        """Heaps of one length and rank share one read-only boundary array,
        scheduled once: 256 equal-length inputs call layer_sizes once."""
        calls = []

        def spy(alpha, n):
            calls.append(n)
            return layer_sizes(alpha, n)

        monkeypatch.setattr(loh_mod, "layer_sizes", spy)
        loh_mod._layer_bounds.cache_clear()
        rng = np.random.default_rng(20)
        tree = build_tree([rng.integers(0, 100, size=37) for _ in range(256)])
        assert calls == [37]
        heaps = [leaf.loh for leaf in tree.leaves]
        assert all(heap.boundaries is heaps[0].boundaries for heap in heaps)
        assert not heaps[0].boundaries.flags.writeable
        assert all(verify_loh(heap) for heap in heaps)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        vals = rng.integers(0, 100, size=700).astype(np.int64)
        h1, h2 = lohify(vals), lohify(vals)
        np.testing.assert_array_equal(h1.values, h2.values)
        h1.place(h1.boundaries.size)
        h2.place(h2.boundaries.size)
        np.testing.assert_array_equal(h1.values, h2.values)
        np.testing.assert_array_equal(h1.boundaries, h2.boundaries)

    def test_place_refuses_a_layer_out_of_range(self):
        """place takes layers 0 through the last and refuses one past it with
        a typed error, not a bare IndexError from the span stack."""
        heap = lohify(np.arange(10**4))
        last = heap.boundaries.size
        heap.place(0)
        assert len(heap.layer_mins) < last
        heap.place(last)
        assert len(heap.layer_mins) == last
        for i in (last + 1, 10**6, -1):
            with pytest.raises(ContractError, match="layer"):
                heap.place(i)
        with pytest.raises(ContractError, match="layer"):
            lohify(np.arange(10**4)).place(10**6)

    def test_values_are_read_only(self):
        """In-place selections over a heap's values copy them instead."""
        heap = lohify(np.random.default_rng(10).integers(0, 1000, size=500))
        snapshot = heap.values.copy()
        assert not heap.values.flags.writeable
        linear_select(heap.values[:300], 250)
        np.testing.assert_array_equal(heap.values, snapshot)
        heap.place(heap.boundaries.size)
        assert not heap.values.flags.writeable

    def test_adversarial_inputs_keep_structure(self):
        """Sorted, reversed, all-equal and random inputs build valid heaps
        and are left as they were."""
        rng = np.random.default_rng(9)
        for n in (1 << 10, 1 << 14):
            for vals in (
                rng.integers(0, 1 << 30, size=n).astype(np.int64),
                np.arange(n, dtype=np.int64),
                np.arange(n, dtype=np.int64)[::-1].copy(),
                np.zeros(n, dtype=np.int64),
            ):
                snapshot = vals.copy()
                heap = lohify(vals, 1.1)
                assert verify_loh(heap)
                np.testing.assert_array_equal(np.sort(heap.values), np.sort(vals))
                np.testing.assert_array_equal(vals, snapshot)


def _shortest_cut_length(alpha=1.1):
    """The shortest input lohify cuts at a front instead of sorting whole."""
    n = 2
    while n <= loh_mod.DENSE_SPAN * (len(layer_sizes(alpha, n)) - 1):
        n += 1
    return n


def _sampled_positions(n):
    """A mask of the positions the front cut's strided sample reads."""
    mask = np.zeros(n, dtype=bool)
    mask[:: max(1, n // loh_mod.SAMPLE)] = True
    return mask


def _front_cut_inputs(n):
    """Finite inputs of n values that stress the sampled front cut, by name."""
    rng = np.random.default_rng(n)
    sampled = _sampled_positions(n)
    undershoot = np.empty(n, dtype=np.int64)
    # the sample holds the smallest values, so its threshold has fewer than
    # a front's worth of values at or below it on an input of 2^16
    undershoot[sampled] = rng.permutation(int(sampled.sum()))
    undershoot[~sampled] = sampled.sum() + rng.permutation(int((~sampled).sum()))
    near_edges = rng.integers(1, 1000, size=n) * rng.choice([-1, 1], size=n)
    return {
        "undershoot": undershoot,
        "all equal": np.full(n, 7, dtype=np.int64),
        "two values": rng.integers(0, 2, size=n),
        "sorted": np.sort(rng.random(n)),
        "reversed": np.arange(n, dtype=np.int64)[::-1].copy(),
        "near 2^62": np.where(near_edges > 0, 2**62, -(2**62)) - near_edges,
    }


class TestSampledFrontCut:
    """lohify cuts a large input's front at a threshold read off a strided
    sample, gathering the values at or below it before one partition."""

    @pytest.mark.parametrize("n", (_shortest_cut_length(), 1 << 16))
    @pytest.mark.parametrize("name", sorted(_front_cut_inputs(64)))
    def test_cut_keeps_the_heap_exact(self, n, name):
        """Every layer holds its rank slice, the input is left as it was,
        the layout is the same on every build, and the heap's min and hi are
        the input's own."""
        vals = _front_cut_inputs(n)[name]
        snapshot = vals.tobytes()
        heap = lohify(vals)
        assert len(heap.layer_mins) < heap.boundaries.size  # a front was cut
        assert heap.layer_mins[0] == vals.min() and heap.hi == vals.max()
        again = lohify(vals)
        np.testing.assert_array_equal(heap.values, again.values)
        assert verify_loh(heap)
        assert_layers_are_rank_slices(again, vals)
        np.testing.assert_array_equal(heap.values, again.values)  # placed whole, alike
        assert vals.tobytes() == snapshot

    @pytest.mark.parametrize("n", (_shortest_cut_length(), 1 << 16))
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("every", (True, False))
    def test_non_finite_at_sampled_positions(self, n, bad, every):
        """NaN or an infinity at every sampled position, or at one, still
        leaves the smallest values in front, and lohify refuses the input."""
        vals = np.random.default_rng(3).random(n)
        sampled = np.flatnonzero(_sampled_positions(n))
        vals[sampled if every else sampled[len(sampled) // 2]] = bad
        cut = 2 * math.isqrt(n)
        work = vals.copy()
        loh_mod._cut_front(work, cut)
        np.testing.assert_array_equal(np.sort(work[:cut]), np.sort(vals)[:cut])
        np.testing.assert_array_equal(np.sort(work), np.sort(vals))
        with pytest.raises(InvalidValueError):
            lohify(vals)

    @pytest.mark.parametrize("values", ("all equal", "two values"))
    def test_no_index_array_of_the_input_size(self, values):
        """Ties at the threshold put most of the input at or below it, so it
        is cut whole instead of gathered: the build allocates its working
        copy, a one-byte mask and little more, never an index array of
        half the input."""
        n = 1 << 20
        vals = np.zeros(n) if values == "all equal" else np.arange(n) % 2
        tracemalloc.start()
        try:
            heap = lohify(vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(heap.layer_mins) < heap.boundaries.size
        assert peak < 1.25 * n * 8


class TestVerifyLoh:
    def test_rejects_unordered_layers(self):
        """max of layer 1 above min of layer 2 fails the check, even when the
        recorded extremes are the corrupted layers' own."""
        broken = lohify(np.array([1, 2, 3], dtype=np.int64))
        broken.values.flags.writeable = True
        broken.values[:] = [2, 1, 3]
        broken.layer_mins[:], broken.layer_maxs[:] = [2, 1], [2, 3]
        assert not verify_loh(broken)

    def test_rejects_recorded_extremes_that_disagree(self):
        """The extremes a heap recorded as it placed its layers must be the
        layers' own, placed or not when the check starts."""
        heap = lohify(np.arange(1000, dtype=np.int64)[::-1])
        assert verify_loh(heap)
        heap = lohify(np.arange(1000, dtype=np.int64)[::-1])
        heap.layer_maxs[0] += 1
        assert not verify_loh(heap)

    def test_rejects_wrong_boundaries(self):
        broken = lohify(np.array([1, 2, 3], dtype=np.int64))
        broken.boundaries = np.array([2, 3], dtype=np.int64)
        assert not verify_loh(broken)
