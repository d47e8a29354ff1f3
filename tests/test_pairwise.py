"""Tests for the incremental pairwise sum-selection engine."""

import heapq
from types import SimpleNamespace

import numpy as np
import pytest

import cartsel.pairwise as pairwise_mod
from cartsel.errors import ConfigError, ContractError, InvalidValueError
from cartsel.loh import lohify
from cartsel.oracle import brute_pairwise
from cartsel.pairwise import MODES, PairwiseState, ProductTuple
from cartsel.tree import LeafNode, TreeConfig, build_tree, select_pairwise
from conftest import G, G0, NON_FINITE


def make_state(a, b, mode="standard", alpha=1.1):
    return PairwiseState(
        LeafNode(lohify(np.asarray(a, dtype=np.int64), alpha)),
        LeafNode(lohify(np.asarray(b, dtype=np.int64), alpha)),
        mode,
    )


def heap_refs(state):
    return {(t.u, t.v, not t.is_min) for t in state.heap}


def drain(state, targets):
    """Emit layers for successive targets until exhaustion; return the layers."""
    layers = []
    for t in targets:
        layer = state.generate_next_layer(t)
        if layer is None:
            break
        layers.append(layer)
    return layers


class TestTupleOrder:
    def test_value_dominates(self):
        low = ProductTuple(4, is_min=False, u=9, v=9)
        high = ProductTuple(5, is_min=True, u=1, v=1)
        assert low < high
        assert not high < low

    def test_max_pops_before_min_at_equal_value(self):
        """At a tied value the max tuple pops first and certifies its product."""
        mn = ProductTuple(5, is_min=True, u=1, v=1)
        mx = ProductTuple(5, is_min=False, u=1, v=2)
        assert mx < mn
        assert not mx.is_min and mn.is_min

    def test_refs_break_remaining_ties(self):
        a = ProductTuple(5, is_min=True, u=1, v=2)
        b = ProductTuple(5, is_min=True, u=2, v=1)
        assert a < b
        assert a == a and not a < a

    def test_heap_respects_order(self):
        tuples = [
            ProductTuple(6, is_min=False, u=1, v=1),
            ProductTuple(5, is_min=True, u=1, v=1),
            ProductTuple(5, is_min=False, u=2, v=1),
        ]
        heapq.heapify(tuples)
        assert heapq.heappop(tuples) == ProductTuple(5, is_min=False, u=2, v=1)


class TestExpandMin:
    def test_corner_product_proposes_row_and_column(self):
        """Expanding (1, 1) pushes its max and its two grid neighbours,
        reaching only layer 2 of either child."""
        state = make_state([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6])
        state.propose_initial()
        t = heapq.heappop(state.heap)
        assert (t.u, t.v) == (1, 1) and t.is_min
        state.expand_min(t)
        assert heap_refs(state) == {(1, 1, True), (1, 2, False), (2, 1, False)}
        assert (len(state.left.layers), len(state.right.layers)) == (2, 2)

    def test_interior_product_proposes_only_the_next_column(self):
        """Expanding (2, 3) proposes (2, 4) and no new row; the right child
        is asked for layer 4 and no further."""
        n28 = list(range(28))
        state = make_state(n28, n28)
        state.left.ensure(2)
        state.right.ensure(3)
        state.expand_min(ProductTuple(0, is_min=True, u=2, v=3))
        assert heap_refs(state) == {(2, 3, True), (2, 4, False)}
        assert (len(state.left.layers), len(state.right.layers)) == (2, 4)

    def test_proposals_past_last_layer_are_skipped(self):
        """A child that can never supply the layer silently drops the proposal."""
        state = make_state([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6])
        n_layers = state.right.loh.boundaries.size
        state.left.ensure(1)
        state.right.ensure(n_layers)
        state.expand_min(ProductTuple(0, is_min=True, u=1, v=n_layers))
        assert heap_refs(state) == {(1, n_layers, True)}
        state = make_state([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6])
        state.left.ensure(n_layers)
        state.right.ensure(1)
        state.expand_min(ProductTuple(0, is_min=True, u=n_layers, v=1))
        assert heap_refs(state) == {(n_layers, 1, True), (n_layers, 2, False)}

    def test_generates_the_product_block(self):
        state = make_state([1, 2, 3, 4, 5, 6], [10, 20, 30, 40, 50, 60])
        state.left.ensure(2)
        state.right.ensure(2)
        state.expand_min(ProductTuple(0, is_min=True, u=2, v=2))
        assert state.values_generated == 4
        np.testing.assert_array_equal(
            np.sort(np.concatenate(state.carry)), [22, 23, 32, 33]
        )


class TestProposals:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hi", (4, 1 << 20))
    def test_no_product_is_proposed_twice(self, monkeypatch, mode, hi):
        """Every (u, v) pushed as a min tuple is pushed once per engine, on
        random and tie-heavy inputs, through whole trees and full drains."""
        pushed = []

        def heappush(heap, item):
            if item.is_min:
                pushed.append((id(heap), item.u, item.v))
            heapq.heappush(heap, item)

        monkeypatch.setattr(
            pairwise_mod, "heapq", SimpleNamespace(heappush=heappush, heappop=heapq.heappop)
        )
        rng = np.random.default_rng(hi)
        arrays = [rng.integers(0, hi, size=n) for n in (24, 17, 30, 9)]
        tree = build_tree(arrays, TreeConfig(mode=mode))
        for k in (1, 40, 900, 5000):
            tree.select_k(k)
        state = make_state(arrays[0], arrays[1], mode)
        drain(state, [7] * 1000)
        assert state.generate_next_layer(1) is None
        assert len(pushed) > 100
        assert len(set(pushed)) == len(pushed)


class TestGenerateNextLayer:
    def test_standard_trace_two_by_two(self):
        """Unit targets on [1,2]x[3,4] emit the sums one at a time in order."""
        state = make_state([1, 2], [3, 4])
        layers = drain(state, [1] * 10)
        assert [layer.tolist() for layer in layers] == [[4], [5], [5], [6]]
        assert state.generate_next_layer(1) is None

    def test_wobbly_trace_two_by_two(self):
        """A target of 2 certifies bound 5 as soon as one 5 is generated:
        the max tuple of (1, 2) pops before the tied min of (2, 1), so the
        second 5 waits for the next layer."""
        state = make_state([1, 2], [3, 4], "wobbly")
        layers = drain(state, [2] * 10)
        assert [sorted(layer.tolist()) for layer in layers] == [[4, 5], [5, 6]]
        assert state.generate_next_layer(1) is None

    def test_singleton_product(self):
        state = make_state([0], [0])
        layer = state.generate_next_layer(1)
        assert layer.tolist() == [0]
        assert state.generate_next_layer(1) is None

    def test_exhaustion_is_idempotent(self):
        state = make_state([1, 2], [3, 4])
        drain(state, [4])
        assert state.generate_next_layer(1) is None
        assert state.generate_next_layer(5) is None

    @pytest.mark.parametrize("mode", MODES)
    def test_layers_are_value_ordered(self, mode):
        """Across a full drain, each layer's max is at most the next layer's min."""
        rng = np.random.default_rng(10)
        a = rng.integers(0, 100, size=20).astype(np.int64)
        b = rng.integers(0, 100, size=15).astype(np.int64)
        state = make_state(a, b, mode)
        layers = drain(state, [3] * 200)
        for cur, nxt in zip(layers, layers[1:]):
            assert cur.max() <= nxt.min()

    @pytest.mark.parametrize("mode", MODES)
    def test_full_drain_conserves_the_product(self, mode):
        """Concatenated layers equal the exhaustive sum multiset."""
        rng = np.random.default_rng(11)
        a = rng.integers(0, 9, size=12).astype(np.int64)
        b = rng.integers(0, 9, size=11).astype(np.int64)
        state = make_state(a, b, mode)
        layers = drain(state, [5] * 100)
        got = np.sort(np.concatenate(layers))
        np.testing.assert_array_equal(got, brute_pairwise(a, b, a.size * b.size))
        assert state.generate_next_layer(1) is None

    def test_standard_emits_exact_target(self):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 50, size=16).astype(np.int64)
        b = rng.integers(0, 50, size=16).astype(np.int64)
        state = make_state(a, b)
        remaining = a.size * b.size
        for target in (1, 2, 7, 30, 100, 200):
            layer = state.generate_next_layer(target)
            assert layer.size == min(target, remaining)
            remaining -= layer.size

    def test_wobbly_emits_at_least_target(self):
        rng = np.random.default_rng(13)
        a = rng.integers(0, 5, size=16).astype(np.int64)
        b = rng.integers(0, 5, size=16).astype(np.int64)
        state = make_state(a, b, "wobbly")
        remaining = a.size * b.size
        for target in (1, 2, 7, 30):
            layer = state.generate_next_layer(target)
            assert layer.size >= min(target, remaining)
            remaining -= layer.size

    def test_bad_target_rejected(self):
        state = make_state([1, 2], [3, 4])
        with pytest.raises(ContractError):
            state.generate_next_layer(0)

    def test_bad_mode_rejected(self):
        """The mode is checked once, when the engine is made."""
        with pytest.raises(ConfigError):
            make_state([1, 2], [3, 4], "sideways")

    def test_standard_work_guardrail(self):
        """Per emission, generated values stay within the pinned linear envelope."""
        from cartsel.loh import layer_size_schedule

        rng = np.random.default_rng(14)
        a = rng.integers(0, 1 << 30, size=512).astype(np.int64)
        b = rng.integers(0, 1 << 30, size=512).astype(np.int64)
        state = make_state(a, b)
        schedule = layer_size_schedule(1.1)
        emitted = 0
        while emitted < 100_000:
            target = next(schedule)
            before = state.values_generated
            layer = state.generate_next_layer(target)
            assert layer is not None
            delta = state.values_generated - before
            assert delta <= G * 1.1 * 1.1 * target + G0
            emitted += layer.size


class TestSelectPairwise:
    def test_two_by_two(self):
        got = np.sort(select_pairwise([1, 2], [3, 4], 2))
        np.testing.assert_array_equal(got, [4, 5])

    def test_singleton(self):
        np.testing.assert_array_equal(select_pairwise([0], [0], 1), [0])

    def test_seeded_full_selection(self):
        rng = np.random.default_rng(15)
        a = rng.integers(0, 1 << 20, size=32).astype(np.int64)
        b = rng.integers(0, 1 << 20, size=32).astype(np.int64)
        got = np.sort(select_pairwise(a, b, 1024))
        np.testing.assert_array_equal(got, brute_pairwise(a, b, 1024))

    def test_seeded_prefix_sweep(self):
        rng = np.random.default_rng(16)
        a = rng.integers(0, 30, size=10).astype(np.int64)
        b = rng.integers(0, 30, size=13).astype(np.int64)
        full = brute_pairwise(a, b, 130)
        for k in (1, 2, 13, 65, 129, 130):
            np.testing.assert_array_equal(np.sort(select_pairwise(a, b, k)), full[:k])

    def test_float_inputs(self):
        got = np.sort(select_pairwise([0.5, 1.5], [0.25, 0.75], 3))
        np.testing.assert_allclose(got, [0.75, 1.25, 1.75])

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidValueError):
            select_pairwise([1.0, 2.0], [3.0, bad], 1)

    def test_k_out_of_range(self):
        with pytest.raises(ContractError):
            select_pairwise([1], [2], 2)
        with pytest.raises(ContractError):
            select_pairwise([1], [2], 0)
