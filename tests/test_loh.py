"""Tests for layer-ordered heap construction and linear selection."""

from fractions import Fraction

import numpy as np
import pytest

from cartsel.errors import (
    ConfigError,
    ContractError,
    EmptyInputError,
    InvalidValueError,
)
from cartsel.loh import (
    LayerOrderedHeap,
    as_value_array,
    layer_size_schedule,
    layer_sizes,
    linear_select,
    lohify,
    partition_by_value,
    unify_profile,
    verify_loh,
)
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

    @pytest.mark.parametrize("alpha", (1, 1.0, 0.5, 0, -2, "abc", float("inf"), float("nan")))
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ConfigError):
            layer_sizes(alpha, 10)

    def test_lohify_validates_alpha(self):
        with pytest.raises(ConfigError):
            lohify(np.arange(3), alpha=1)


class TestAsValueArray:
    def test_int_list_to_int64(self):
        arr = as_value_array([3, 1, 2])
        assert arr.dtype == np.int64
        np.testing.assert_array_equal(arr, [3, 1, 2])

    def test_bool_promotes_to_int64(self):
        arr = as_value_array(np.array([True, False, True]))
        assert arr.dtype == np.int64
        np.testing.assert_array_equal(arr, [1, 0, 1])

    def test_float_list_to_float64(self):
        arr = as_value_array([1.5, -2.25])
        assert arr.dtype == np.float64

    def test_uint64_in_range(self):
        arr = as_value_array(np.array([5, 7], dtype=np.uint64))
        assert arr.dtype == np.int64

    def test_uint64_overflow_rejected(self):
        with pytest.raises(InvalidValueError):
            as_value_array(np.array([2**63], dtype=np.uint64))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ContractError):
            as_value_array(np.zeros((2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            as_value_array([])

    def test_nan_rejected(self):
        with pytest.raises(InvalidValueError):
            as_value_array([1.0, float("nan")])

    @pytest.mark.parametrize("bad", (float("inf"), float("-inf")))
    def test_infinity_rejected(self, bad):
        with pytest.raises(InvalidValueError):
            as_value_array([1.0, bad])

    def test_non_numeric_rejected(self):
        with pytest.raises(InvalidValueError):
            as_value_array(["a", "b"])


class TestUnifyProfile:
    def test_all_int_stays_int(self):
        arrays = unify_profile([as_value_array([1, 2]), as_value_array([3])])
        assert all(a.dtype == np.int64 for a in arrays)

    def test_mixed_promotes_to_float(self):
        arrays = unify_profile([as_value_array([1, 2]), as_value_array([0.5])])
        assert all(a.dtype == np.float64 for a in arrays)

    def test_sum_overflow_rejected(self):
        """Two arrays whose worst-case sum exceeds int64 are refused up front."""
        big = as_value_array(np.array([2**62], dtype=np.int64))
        with pytest.raises(InvalidValueError):
            unify_profile([big, big])


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
        tail is a view into it and the head a copy of its first k values."""
        pool = np.array([5, 1, 4, 2, 3] * 30, dtype=np.int64)
        snapshot = pool.copy()
        head, tail = linear_select(pool, 70)
        np.testing.assert_array_equal(np.sort(pool), np.sort(snapshot))
        np.testing.assert_array_equal(pool[:70], head)
        assert tail.base is pool and tail.size == 80
        assert head.base is None and not np.shares_memory(head, pool)

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

    def test_head_owns_its_data(self):
        """A kept head never pins the larger pool it was selected from."""
        pool = np.arange(1000, dtype=np.int64)[::-1].copy()
        for k in (1, 500, 999):
            head, _ = linear_select(pool, k)
            assert head.base is None
        tail = linear_select(pool, 600)[1]
        head, _ = linear_select(tail, tail.size)
        assert head.base is None


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
        reordered in place and the tail is a view into it."""
        pool = np.array([3, 2, 5, 2, 1, 2, 4, 2], dtype=np.int64)
        head, tail = partition_by_value(pool, 2)
        np.testing.assert_array_equal(np.sort(head), [1, 2, 2, 2, 2])
        np.testing.assert_array_equal(np.sort(tail), [3, 4, 5])
        np.testing.assert_array_equal(pool[:5], head)
        assert tail.base is pool and head.base is None

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
        assert (heap.layer_maxs[:-1] <= heap.layer_mins[1:]).all()

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
            assert vals.tobytes() == snapshot
            assert not np.shares_memory(heap.values, vals)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        vals = rng.integers(0, 100, size=700).astype(np.int64)
        h1, h2 = lohify(vals), lohify(vals)
        np.testing.assert_array_equal(h1.values, h2.values)
        np.testing.assert_array_equal(h1.boundaries, h2.boundaries)

    def test_values_are_read_only(self):
        """In-place selections over a heap's values copy them instead."""
        heap = lohify(np.random.default_rng(10).integers(0, 1000, size=500))
        snapshot = heap.values.copy()
        assert not heap.values.flags.writeable
        linear_select(heap.values[:300], 250)
        np.testing.assert_array_equal(heap.values, snapshot)

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


class TestVerifyLoh:
    def test_rejects_unordered_layers(self):
        """max of layer 1 above min of layer 2 fails the check."""
        heap = lohify(np.array([1, 2, 3], dtype=np.int64))
        broken = LayerOrderedHeap(
            np.array([2, 1, 3], dtype=np.int64), heap.boundaries.copy(), heap.alpha
        )
        assert not verify_loh(broken)

    def test_rejects_wrong_boundaries(self):
        heap = lohify(np.array([1, 2, 3], dtype=np.int64))
        broken = LayerOrderedHeap(
            heap.values.copy(), np.array([2, 3], dtype=np.int64), heap.alpha
        )
        assert not verify_loh(broken)
