"""Tests for the incremental pairwise sum-selection engine."""

import heapq
import math
from types import SimpleNamespace

import numpy as np
import pytest

import cartsel.pairwise as pairwise_mod
from cartsel.errors import ConfigError, ContractError, InvalidValueError, ResourceLimitError
from cartsel.loh import linear_select, lohify, partition_by_value
from cartsel.oracle import brute_pairwise
from cartsel.pairwise import MAX, MODES, PRICED, UNPRICED, PairwiseState
from cartsel.tree import LeafNode, TreeConfig, build_tree, select_pairwise
from conftest import G, G0, NON_FINITE, assert_one_buffer, layers, record_pops


def make_state(a, b, mode="standard", alpha=1.1):
    return PairwiseState(
        LeafNode(lohify(np.asarray(a, dtype=np.int64), alpha)),
        LeafNode(lohify(np.asarray(b, dtype=np.int64), alpha)),
        mode,
    )


def heap_refs(state):
    return {(u, v, kind == MAX) for _, kind, _, u, v in state.heap}


class _OnePop(list):
    """A heap that reads as empty from the second time the certification
    loop tests it, so the loop pops exactly one tuple."""

    tested = False

    def __bool__(self):
        first, self.tested = not self.tested, True
        return first and len(self) > 0


def pop_one(state):
    """Pop one tuple through _certify; return the values its pop closed."""
    state.heap = _OnePop(state.heap)
    try:
        return state._certify(math.inf)
    finally:
        state.heap = list(state.heap)


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
    """Heap entries are plain (value, kind, shell, u, v) tuples ordered as
    tuples; shell is max(u, v) on a min tuple and 0 on a max tuple."""

    def test_value_dominates(self):
        low = (4, PRICED, 9, 9, 9)
        high = (5, MAX, 0, 1, 1)
        assert low < high
        assert not high < low

    def test_max_pops_before_min_at_equal_value(self):
        """At a tied value the max tuple pops first and certifies its product."""
        mn = (5, PRICED, 1, 1, 1)
        mx = (5, MAX, 0, 1, 2)
        assert mx < mn
        assert mx[1] == MAX < mn[1]

    def test_priced_pops_before_unpriced_at_equal_value(self):
        assert (5, PRICED, 9, 9, 1) < (5, UNPRICED, 1, 1, 1)

    def test_smaller_shell_breaks_a_tie(self):
        """Among tied min tuples of one kind the smaller square shell
        max(u, v) pops first, so a tie band grows as a square instead of
        running one row across the right child's layers; (u, v) breaks the
        ties left."""
        assert (5, PRICED, 2, 2, 2) < (5, PRICED, 3, 1, 3)
        assert (5, UNPRICED, 2, 2, 1) < (5, UNPRICED, 3, 1, 3)

    def test_refs_break_remaining_ties(self):
        a = (5, PRICED, 3, 1, 3)
        b = (5, PRICED, 3, 3, 1)
        assert a < b
        assert a == a and not a < a
        assert (5, MAX, 0, 1, 3) < (5, MAX, 0, 2, 2)

    def test_heap_respects_order(self):
        tuples = [
            (6, MAX, 0, 1, 1),
            (5, PRICED, 1, 1, 1),
            (5, MAX, 0, 2, 1),
            (5, PRICED, 3, 1, 3),
            (5, PRICED, 2, 2, 1),
        ]
        heapq.heapify(tuples)
        popped = [heapq.heappop(tuples) for _ in range(5)]
        assert [t[3:] for t in popped] == [(2, 1), (1, 1), (2, 1), (1, 3), (1, 1)]


class TestExpandMin:
    def test_corner_product_proposes_row_and_column(self):
        """Popping the seed asks each child for layer 1 and prices (1, 1);
        expanding it pushes its max and both grid neighbours UNPRICED, and
        exposes no child layer."""
        state = make_state([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6])
        assert pop_one(state) == 0
        assert state.heap == [(2, PRICED, 1, 1, 1)]
        assert (len(layers(state.left)), len(layers(state.right))) == (1, 1)
        assert pop_one(state) == 0
        assert heap_refs(state) == {(1, 1, True), (1, 2, False), (2, 1, False)}
        assert {t[1] for t in state.heap if t[1] != MAX} == {UNPRICED}
        assert (len(layers(state.left)), len(layers(state.right))) == (1, 1)

    def test_interior_product_proposes_only_the_next_column(self):
        """Expanding (2, 3) proposes (2, 4) and no new row, asking the right
        child for nothing: the proposal goes in UNPRICED while layer 4 is
        unexposed, and PRICED at its exact min once it is exposed."""
        n28 = list(range(28))
        for exposed, kind in ((3, UNPRICED), (4, PRICED)):
            state = make_state(n28, n28)
            state.heap.clear()
            state.left.ensure(2)
            state.right.ensure(exposed)
            state.expand_min((0, PRICED, 3, 2, 3))
            assert heap_refs(state) == {(2, 3, True), (2, 4, False)}
            assert [t[1] for t in state.heap if t[1] != MAX] == [kind]
            assert (len(layers(state.left)), len(layers(state.right))) == (2, exposed)
        assert (state.left.mins[1] + state.right.mins[3], PRICED, 4, 2, 4) in state.heap

    def test_proposals_past_last_layer_go_in_unpriced(self):
        """A node learns that a child has no such layer only when the
        proposal's tuple pops: the proposal goes in UNPRICED, and popping it
        drops it, generates no value and asks for no layer past the last."""
        values = [1, 2, 3, 4, 5, 6]
        n = lohify(np.asarray(values)).boundaries.size
        for (u, v), refs in (
            ((1, n), {(1, n, True), (1, n + 1, False)}),
            ((n, 1), {(n, 1, True), (n, 2, False), (n + 1, 1, False)}),
        ):
            state = make_state(values, values)
            state.heap.clear()
            state.left.ensure(u)
            state.right.ensure(v)
            state.expand_min((0, PRICED, max(u, v), u, v))
            assert heap_refs(state) == refs
            assert {t[1] for t in state.heap if t[1] != MAX} == {UNPRICED}
            past = [t for t in state.heap if max(t[3:]) > n]
            assert len(past) == 1
            generated = state.values_generated
            state.heap = past
            assert pop_one(state) == 0
            assert state.heap == [] and state.values_generated == generated
            assert (len(layers(state.left)), len(layers(state.right))) == (u, v)

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
        state.expand_min((0, PRICED, 2, 2, 2))
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
            _, kind, _, u, v = item
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
        """After a full drain the carry is an empty view at the end of the
        node's one buffer, which holds the whole product as layers and is
        under twice its size: no other buffer is kept alive."""
        rng = np.random.default_rng(hi)
        a = rng.integers(0, hi, size=30).astype(np.int64)
        b = rng.integers(0, hi, size=21).astype(np.int64)
        state = make_state(a, b, mode)
        drain(state, [1, 6, 40] * 300)
        assert state.generate_next_layer(1) is None
        assert state.carry.size == 0 and state.carry.base is state.values
        assert state.ends[-1] == state.written == a.size * b.size
        assert_one_buffer(state)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hi", (4, 1 << 20))
    def test_every_emission_keeps_one_buffer(self, mode, hi):
        """After every emission the node's layers are ordered, contiguous
        slices of its values, the carry follows them in the same array, and
        the array is under twice the values written: growth by doubling
        copies only what is written, and each returned layer is a view of
        the buffer it was selected in."""
        rng = np.random.default_rng(hi + 1)
        a = rng.integers(0, hi, size=30).astype(np.int64)
        b = rng.integers(0, hi, size=21).astype(np.int64)
        state = make_state(a, b, mode)
        targets = [1, 6, 40, 3, 100]
        sizes = set()
        for i in range(a.size * b.size):
            layer = state.generate_next_layer(targets[i % len(targets)])
            if layer is None:
                break
            assert layer.base is state.values
            assert layer.ctypes.data == state.values[state.ends[-2] :].ctypes.data
            assert_one_buffer(state)
            sizes.add(state.values.size)
        assert state.carry.size == 0 and len(sizes) > 2

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
                pools.append((len(state.ends) - 1, pool.size))
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
        """Row blocks are written into the node's buffer, grown at the
        emission when they would overrun it; numpy failing to allocate the
        growth raises ResourceLimitError naming the new buffer's values and
        bytes, not a bare MemoryError. The rows stay pending, so the node is
        spent: the next call fails the same way."""
        state = make_state(range(20), range(20))
        state.generate_next_layer(30)
        written, capacity = state.written, state.values.size
        sizes = []

        def empty(size, *args, **kwargs):
            sizes.append(size)
            raise MemoryError

        monkeypatch.setattr(np, "empty", empty)
        errors = []
        for _ in range(2):
            with pytest.raises(ResourceLimitError) as err:
                state.generate_next_layer(300)
            errors.append(str(err.value))
        size = sizes[0]
        assert sizes == [size, size] and size == max(state.ends[-1] + state.carry_count, 2 * capacity)
        assert state.rows and (state.written, state.values.size) == (written, capacity)
        assert errors == [f"out of memory for a node's values: {size} values, {8 * size} bytes"] * 2

    def test_failed_value_mask_loses_no_value(self, monkeypatch):
        """A wobbly emission whose value mask cannot be allocated raises
        ResourceLimitError after the pending rows are written; the written
        pool is kept as the carry, so once memory is back the node drains
        to exactly its product."""
        a, b = np.arange(20), np.arange(0, 40, 2)
        state = make_state(a, b, mode="wobbly")
        less_equal = np.less_equal

        def fail_once(*args, **kwargs):
            monkeypatch.setattr(np, "less_equal", less_equal)
            raise MemoryError

        monkeypatch.setattr(np, "less_equal", fail_once)
        with pytest.raises(ResourceLimitError, match="a value mask"):
            state.generate_next_layer(30)
        assert state.carry.size == state.carry_count > 0
        layers = drain(state, [30] * 400)
        np.testing.assert_array_equal(
            np.sort(np.concatenate(layers)), brute_pairwise(a, b, a.size * b.size)
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_a_child_that_raises_leaves_exact_counters(self, monkeypatch, mode):
        """A child raising inside the certification loop leaves s, tuple_pops
        and last_max_value counting every pop made before it, the raising
        one too, so the node drains to exactly its product once the child
        recovers."""
        popped = []
        record_pops(monkeypatch, lambda heap: popped.append(heap[0]))
        a, b = np.arange(40), np.arange(0, 80, 2)
        state = make_state(a, b, mode)
        ensure, calls = LeafNode.ensure, []

        def fail_once(leaf, i):
            calls.append(i)
            if len(calls) == 30:
                raise ResourceLimitError("a child ran out of memory")
            return ensure(leaf, i)

        monkeypatch.setattr(LeafNode, "ensure", fail_once)
        with pytest.raises(ResourceLimitError):
            state.generate_next_layer(a.size * b.size)
        lends, rends = state.left.ends, state.right.ends
        closed = [
            (value, (lends[u] - lends[u - 1]) * (rends[v] - rends[v - 1]))
            for value, kind, _, u, v in popped
            if kind == MAX
        ]
        assert closed and state.ends == [0]
        assert state.tuple_pops == len(popped) + 1
        assert state.s == sum(size for _, size in closed)
        assert state.last_max_value == closed[-1][0]
        layers = drain(state, [7] * 400)
        np.testing.assert_array_equal(
            np.sort(np.concatenate(layers)), brute_pairwise(a, b, a.size * b.size)
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_a_heap_that_cannot_grow_is_a_typed_error(self, monkeypatch, mode):
        """A push onto a node's heap failing with MemoryError raises
        ResourceLimitError naming the heap's entries and the bytes of their
        slots, not a bare MemoryError. s, tuple_pops and last_max_value count
        every pop made before it, the one whose expansion failed too, and
        values_generated every product counted into the carry."""
        popped, pushes = [], []
        record_pops(monkeypatch, lambda heap: popped.append(heap[0]))
        heappush = pairwise_mod.heapq.heappush

        def fail_once(heap, item):
            pushes.append(item)
            if len(pushes) == 40:
                raise MemoryError
            heappush(heap, item)

        monkeypatch.setattr(pairwise_mod.heapq, "heappush", fail_once)
        a, b = np.arange(40), np.arange(0, 80, 2)
        state = make_state(a, b, mode)
        with pytest.raises(ResourceLimitError) as err:
            state.generate_next_layer(a.size * b.size)
        entries = len(state.heap) + 1
        assert str(err.value) == (
            f"out of memory for a node's heap: {entries} values, {8 * entries} bytes"
        )
        lends, rends = state.left.ends, state.right.ends

        def size(u, v):
            return (lends[u] - lends[u - 1]) * (rends[v] - rends[v - 1])

        closed = [(value, size(u, v)) for value, kind, _, u, v in popped if kind == MAX]
        expanded = [size(u, v) for _, kind, _, u, v in popped if kind == PRICED]
        assert closed and state.ends == [0] and len(pushes) == 40
        assert state.tuple_pops == len(popped)
        assert state.s == sum(size for _, size in closed)
        assert state.last_max_value == closed[-1][0]
        assert state.values_generated == state.carry_count == sum(expanded)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_node_whose_heap_failed_refuses_every_later_call(self, monkeypatch, mode):
        """After a push onto its heap fails, a node may hold a product in its
        carry with no max tuple, so it is spent: draining it, asking it for
        a new layer, a parent reading it and a query on its tree all raise
        ResourceLimitError naming the first failure, and none answers."""
        heappush, pushes = pairwise_mod.heapq.heappush, []

        def fail_40th(heap, item):
            pushes.append(item)
            if len(pushes) == 40:
                raise MemoryError
            heappush(heap, item)

        monkeypatch.setattr(pairwise_mod.heapq, "heappush", fail_40th)
        a, b = np.arange(40), np.arange(0, 80, 2)
        state = make_state(a, b, mode)
        with pytest.raises(ResourceLimitError) as first:
            state.generate_next_layer(a.size * b.size)
        assert state.failure == str(first.value)
        spent = f"node is spent by an earlier failure: {first.value}"
        for call in (lambda: drain(state, [7] * 400), lambda: state.ensure(1)):
            with pytest.raises(ResourceLimitError) as err:
                call()
            assert str(err.value) == spent
        assert state.ends == [0]
        parent = PairwiseState(state, LeafNode(lohify(np.arange(5))), mode)
        with pytest.raises(ResourceLimitError, match="is spent by an earlier failure"):
            parent.generate_next_layer(7)
        pushes.clear()
        tree = build_tree([a, b], TreeConfig(mode=mode))
        with pytest.raises(ResourceLimitError, match="out of memory for a node's heap"):
            tree.select_k(a.size * b.size)
        with pytest.raises(ResourceLimitError, match="is spent by an earlier failure"):
            tree.select_k(7)

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
