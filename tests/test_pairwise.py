"""Tests for the incremental pairwise sum-selection engine."""

import heapq
from types import SimpleNamespace

import numpy as np
import pytest

import cartsel.pairwise as pairwise_mod
from cartsel.errors import ConfigError, ContractError, InvalidValueError, ResourceLimitError
from cartsel.loh import linear_select, lohify, partition_by_value
from cartsel.oracle import brute_pairwise
from cartsel.pairwise import MODES, PRICED, UNPRICED, PairwiseState
from cartsel.tree import LeafNode, TreeConfig, build_tree, select_pairwise
from conftest import G, G0, NON_FINITE, buffer_nbytes


def make_state(a, b, mode="standard", alpha=1.1):
    return PairwiseState(
        LeafNode(lohify(np.asarray(a, dtype=np.int64), alpha)),
        LeafNode(lohify(np.asarray(b, dtype=np.int64), alpha)),
        mode,
    )


def heap_refs(state):
    return {(u, v, not is_min) for _, is_min, u, v in state.heap}


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
    """Heap entries are plain (value, is_min, u, v) tuples ordered as tuples."""

    def test_value_dominates(self):
        low = (4, False, 9, 9)
        high = (5, True, 1, 1)
        assert low < high
        assert not high < low

    def test_max_pops_before_min_at_equal_value(self):
        """At a tied value the max tuple pops first and certifies its product."""
        mn = (5, True, 1, 1)
        mx = (5, False, 1, 2)
        assert mx < mn
        assert not mx[1] and mn[1]

    def test_refs_break_remaining_ties(self):
        a = (5, True, 1, 2)
        b = (5, True, 2, 1)
        assert a < b
        assert a == a and not a < a

    def test_heap_respects_order(self):
        tuples = [
            (6, False, 1, 1),
            (5, True, 1, 1),
            (5, False, 2, 1),
        ]
        heapq.heapify(tuples)
        assert heapq.heappop(tuples) == (5, False, 2, 1)


class TestExpandMin:
    def test_corner_product_proposes_row_and_column(self):
        """Expanding (1, 1) pushes its max and its two grid neighbours,
        reaching only layer 2 of either child."""
        state = make_state([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6])
        state.left.ensure(1)
        state.right.ensure(1)
        state.expand_min((2, True, 1, 1))
        assert heap_refs(state) == {(1, 1, True), (1, 2, False), (2, 1, False)}
        assert (len(state.left.layers), len(state.right.layers)) == (2, 2)

    def test_interior_product_proposes_only_the_next_column(self):
        """Expanding (2, 3) proposes (2, 4) and no new row; the right child
        is asked for layer 4 and no further."""
        n28 = list(range(28))
        state = make_state(n28, n28)
        state.left.ensure(2)
        state.right.ensure(3)
        state.expand_min((0, True, 2, 3))
        assert heap_refs(state) == {(2, 3, True), (2, 4, False)}
        assert (len(state.left.layers), len(state.right.layers)) == (2, 4)

    def test_proposals_past_last_layer_go_in_unpriced(self):
        """A node learns that a child has no such layer only when the
        proposal's tuple pops: the proposal goes in UNPRICED, and popping it
        drops it, generates no value and asks for no layer past the last."""
        values = [1, 2, 3, 4, 5, 6]
        n = lohify(np.asarray(values)).boundaries.size
        for (u, v), refs, reached in (
            ((1, n), {(1, n, True), (1, n + 1, False)}, (1, n)),
            ((n, 1), {(n, 1, True), (n, 2, False), (n + 1, 1, False)}, (n, 2)),
        ):
            state = make_state(values, values)
            state.left.ensure(u)
            state.right.ensure(v)
            state.expand_min((0, PRICED, u, v))
            assert heap_refs(state) == refs
            past = [t for t in state.heap if max(t[2:]) > n]
            assert [t[1] for t in past] == [UNPRICED]
            generated = state.values_generated
            state.heap = past
            assert state._pop_one() == 0
            assert state.heap == [] and state.values_generated == generated
            assert (len(state.left.layers), len(state.right.layers)) == reached

    def test_generates_the_product_block(self, monkeypatch):
        """Expanding (2, 2) counts its 4 values at once; they are written into
        the pool at the next emission, and the unemitted ones stay carried."""
        pools = []

        def spy(pool, k):
            pools.append(np.sort(pool))
            return linear_select(pool, k)

        monkeypatch.setattr(pairwise_mod, "linear_select", spy)
        state = make_state([1, 2, 3, 4, 5, 6], [10, 20, 30, 40, 50, 60])
        state.left.ensure(2)
        state.right.ensure(2)
        state.expand_min((0, True, 2, 2))
        assert state.values_generated == 4
        assert state.generate_next_layer(1).tolist() == [11]
        np.testing.assert_array_equal(pools, [[11, 22, 23, 32, 33]])
        np.testing.assert_array_equal(np.sort(state.carry), [22, 23, 32, 33])


class TestProposals:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hi", (4, 1 << 20))
    def test_no_product_is_proposed_twice(self, monkeypatch, mode, hi):
        """Every (u, v) pushed as a priced min tuple is pushed once per
        engine, on random and tie-heavy inputs, through whole trees and full
        drains. An unpriced proposal is priced when it pops, so its exact
        push, made by replacing it at the top, is its one priced push, not a
        second proposal."""
        pushed, unpriced = [], []

        def record(heap, item):
            _, kind, u, v = item
            if kind == PRICED:
                pushed.append((id(heap), u, v))
            elif kind == UNPRICED:
                unpriced.append((id(heap), u, v))

        def heappush(heap, item):
            record(heap, item)
            heapq.heappush(heap, item)

        def heapreplace(heap, item):
            record(heap, item)
            return heapq.heapreplace(heap, item)

        monkeypatch.setattr(
            pairwise_mod,
            "heapq",
            SimpleNamespace(heappush=heappush, heappop=heapq.heappop, heapreplace=heapreplace),
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
        assert unpriced and len(set(unpriced)) == len(unpriced)


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

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hi", (4, 1 << 20))
    def test_drained_carry_pins_no_buffer(self, mode, hi):
        """After a full drain the carry is a new empty array, not an empty
        view that would keep the last emission's pool alive."""
        rng = np.random.default_rng(hi)
        a = rng.integers(0, hi, size=30).astype(np.int64)
        b = rng.integers(0, hi, size=21).astype(np.int64)
        state = make_state(a, b, mode)
        drain(state, [1, 6, 40] * 300)
        assert state.generate_next_layer(1) is None
        assert state.carry.size == 0 and state.carry.base is None

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hi", (4, 1 << 20))
    def test_carry_pins_at_most_twice_its_bytes(self, mode, hi):
        """After every emission the carry is a view only into a buffer at
        most twice its size, or a new array: a small carry never keeps the
        larger pool it was selected from alive."""
        rng = np.random.default_rng(hi + 1)
        a = rng.integers(0, hi, size=30).astype(np.int64)
        b = rng.integers(0, hi, size=21).astype(np.int64)
        state = make_state(a, b, mode)
        targets = [1, 6, 40, 3, 100]
        for i in range(a.size * b.size):
            if state.generate_next_layer(targets[i % len(targets)]) is None:
                break
            assert buffer_nbytes(state.carry) <= 2 * state.carry.nbytes
        assert state.carry.size == 0

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

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hi", (4, 1 << 20))
    @pytest.mark.parametrize("targets", ((1,), (3, 7), (5, 40, 2)))
    def test_carry_accounting(self, monkeypatch, mode, hi, targets):
        """Through a full drain, every generated value is emitted or carried,
        and each pool holds exactly the counted carry: no pending row is left
        unwritten or written twice. Wobbly's short-tie-band retry is reached
        with rows pending and writes them into a fresh pool."""
        state = None
        pools = []  # (layers emitted before the call, pool size)

        def spy(select):
            def wrapper(pool, arg):
                assert pool.size == state.carry_count and not state.rows
                pools.append((len(state.layers), pool.size))
                return select(pool, arg)

            return wrapper

        monkeypatch.setattr(pairwise_mod, "linear_select", spy(linear_select))
        monkeypatch.setattr(pairwise_mod, "partition_by_value", spy(partition_by_value))
        rng = np.random.default_rng(hi)
        a = rng.integers(0, hi, size=40).astype(np.int64)
        b = rng.integers(0, hi, size=33).astype(np.int64)
        state = make_state(a, b, mode)
        layers = []
        for i in range(a.size * b.size + 1):
            layer = state.generate_next_layer(targets[i % len(targets)])
            if layer is None:
                break
            layers.append(layer)
            emitted = sum(x.size for x in layers)
            assert state.values_generated == emitted + state.carry_count
        assert state.values_generated == emitted and state.carry_count == 0
        np.testing.assert_array_equal(
            np.sort(np.concatenate(layers)), brute_pairwise(a, b, a.size * b.size)
        )
        if mode == "wobbly" and hi == 4:
            retries = [p[1] > q[1] for q, p in zip(pools, pools[1:]) if p[0] == q[0]]
            assert len(pools) > len(layers) and any(retries)

    def test_failed_row_block_is_a_typed_error(self, monkeypatch):
        """A row's multi-column run is joined with np.concatenate at the
        emission; numpy failing to allocate it raises ResourceLimitError
        naming the run's values and bytes, not a bare MemoryError."""
        state = make_state(range(20), range(20))
        runs = []

        def concatenate(arrays, *args, **kwargs):
            runs.append(arrays)
            raise MemoryError

        monkeypatch.setattr(np, "concatenate", concatenate)
        with pytest.raises(ResourceLimitError) as err:
            state.generate_next_layer(30)
        assert len(runs) == 1 and len(runs[0]) > 1
        count = sum(a.size for a in runs[0])
        assert str(err.value) == f"out of memory for a row block: {count} values, {8 * count} bytes"

    def test_bad_target_rejected(self):
        state = make_state([1, 2], [3, 4])
        for bad in (0, 2.7, "3"):
            with pytest.raises(ContractError, match="layer target"):
                state.generate_next_layer(bad)
        assert sorted(state.generate_next_layer(np.int64(3)).tolist()) == [4, 5, 5]

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
