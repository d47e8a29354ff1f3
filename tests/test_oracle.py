"""Tests for the exhaustive-enumeration reference implementations."""

import numpy as np
import pytest

from cartsel.errors import (
    ContractError,
    EmptyInputError,
    InvalidValueError,
    ResourceLimitError,
)
from cartsel.oracle import brute_multi, brute_pairwise
from conftest import NON_FINITE


class TestBrutePairwise:
    def test_two_by_two(self):
        got = brute_pairwise([1, 2], [3, 4], 4)
        np.testing.assert_array_equal(got, [4, 5, 5, 6])

    def test_result_is_sorted_prefix(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 30, size=9).astype(np.int64)
        b = rng.integers(0, 30, size=7).astype(np.int64)
        full = np.sort(np.add.outer(a, b).ravel())
        for k in (0, 1, 30, 63):
            np.testing.assert_array_equal(brute_pairwise(a, b, k), full[:k])

    def test_k_zero_is_empty(self):
        assert brute_pairwise([1], [2], 0).size == 0

    def test_k_out_of_range(self):
        with pytest.raises(ContractError):
            brute_pairwise([1, 2], [3], 3)
        with pytest.raises(ContractError):
            brute_pairwise([1, 2], [3], -1)

    def test_cap_refuses_large_products(self):
        a = np.zeros(5000, dtype=np.int64)
        with pytest.raises(ResourceLimitError):
            brute_pairwise(a, a, 1, cap=1 << 20)

    def test_float_inputs(self):
        got = brute_pairwise([0.5, 1.5], [0.25], 2)
        np.testing.assert_allclose(got, [0.75, 1.75])

    def test_k_must_be_an_integer(self):
        """k is read as select_k reads it: floats and strings are refused."""
        for k in (2.7, "3"):
            with pytest.raises(ContractError):
                brute_pairwise([1, 2], [3, 4], k)
        np.testing.assert_array_equal(brute_pairwise([1, 2], [3, 4], np.int64(3)), [4, 5, 5])


class TestBruteMulti:
    def test_single_array(self):
        got = brute_multi([[3, 1, 2]], 2)
        np.testing.assert_array_equal(got, [1, 2])

    def test_three_arrays_enumerate_binary(self):
        """Power-of-two offsets make every sum distinct and consecutive."""
        got = brute_multi(([0, 1], [0, 2], [0, 4]), 8)
        np.testing.assert_array_equal(got, np.arange(8))

    def test_matches_pairwise_for_two(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 20, size=6).astype(np.int64)
        b = rng.integers(0, 20, size=5).astype(np.int64)
        np.testing.assert_array_equal(
            brute_multi([a, b], 30), brute_pairwise(a, b, 30)
        )

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyInputError):
            brute_multi([], 1)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidValueError):
            brute_multi([[1.0, 2.0], [bad]], 1)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("at", (0, 2, 4), ids=["front", "middle", "end"])
    def test_non_finite_in_a_later_input_is_named(self, bad, at):
        """A bad value anywhere in input 1 is refused, and input 1 is named."""
        second = np.arange(5, dtype=np.float64)
        second[at] = bad
        with pytest.raises(InvalidValueError, match="input 1"):
            brute_multi([[1.0, 2.0, 3.0], second], 1)

    @pytest.mark.parametrize("extreme", (2**62, -(2**62) - 1))
    def test_sum_overflow_from_the_last_input_alone(self, extreme):
        with pytest.raises(InvalidValueError):
            brute_multi([[0, 1], [0, 1], [0, extreme]], 1)

    @pytest.mark.parametrize(
        "arrays", [[[1e308, -1e308]] * 4, [[1.7e308, 0.0]] * 2], ids=["pm1e308x4", "1.7e308x2"]
    )
    def test_float_sum_overflow_rejected(self, arrays):
        """Float inputs whose sums can pass the largest finite float64 are refused."""
        with pytest.raises(InvalidValueError):
            brute_multi(arrays, 1)

    def test_ragged_input_rejected(self):
        with pytest.raises(ContractError, match="input 0"):
            brute_multi([[[1, 2], [3]]], 1)

    def test_k_must_be_an_integer(self):
        """k is read as select_k reads it: floats and strings are refused."""
        for k in (2.7, "3"):
            with pytest.raises(ContractError):
                brute_multi([[1, 2], [3, 4]], k)
        np.testing.assert_array_equal(brute_multi([[1, 2], [3, 4]], np.int64(3)), [4, 5, 5])

    def test_k_out_of_range(self):
        with pytest.raises(ContractError):
            brute_multi([[1, 2], [3]], 5)

    def test_cap_refuses_large_products(self):
        arrays = [np.zeros(64, dtype=np.int64)] * 5
        with pytest.raises(ResourceLimitError):
            brute_multi(arrays, 1, cap=1 << 24)
