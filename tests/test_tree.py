"""Tests for the balanced selection tree over m input arrays."""

import gc
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import cartsel.loh as loh_mod
import cartsel.tree as tree_mod
from cartsel.errors import (
    ConfigError,
    ContractError,
    EmptyInputError,
    InvalidValueError,
)
from cartsel.loh import lohify, verify_loh
from cartsel.oracle import brute_multi
from cartsel.pairwise import MODES, UNPRICED, PairwiseState
from cartsel.tree import LeafNode, TreeConfig, build_tree, select_pairwise
from conftest import G, G0, NON_FINITE, assert_one_buffer, k_smallest_sums, layers, record_pops
from conftest import buffer_nbytes as _buffer_nbytes


def seeded_arrays(seed, m, n, hi=100):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, hi, size=n).astype(np.int64) for _ in range(m)]


class TestBuildTree:
    def test_height_is_log_ceiling(self):
        """A balanced split keeps the tree at ceil(log2 m) levels for every m."""
        for m in range(1, 18):
            tree = build_tree(seeded_arrays(0, m, 3))
            expect = math.ceil(math.log2(m)) if m > 1 else 0
            assert tree.height == expect
            assert len(tree.leaves) == m
            assert len(tree.internals) == m - 1

    def test_total_is_product_of_sizes(self):
        tree = build_tree([np.arange(3), np.arange(4), np.arange(5)])
        assert tree.total == 60

    def test_build_does_no_selection_work(self):
        """Counters stay zero until the first query touches the root."""
        tree = build_tree(seeded_arrays(1, 6, 8))
        snap = tree.stats()
        assert snap.values_generated == 0
        assert snap.tuple_pops == 0
        assert snap.root_pool_size == 0
        assert all(v == 0 for v in snap.layers_emitted.values())
        assert all(v == 0 for v in snap.leaf_layers_exposed.values())

    def test_construction_touches_no_child(self):
        """Every node starts with product (1, 1) as its one proposal,
        unpriced below every sum: no child is asked for a layer, and no
        extreme is read, until a query pops it."""
        tree = build_tree(seeded_arrays(1, 6, 8))
        for node in tree.internals:
            assert node.heap == [(-math.inf, UNPRICED, 1, 1, 1)]
            assert layers(node) == []
        assert all(layers(leaf) == [] for leaf in tree.leaves)

    def test_empty_input_list_rejected(self):
        with pytest.raises(EmptyInputError):
            build_tree([])

    def test_empty_array_rejected(self):
        with pytest.raises(EmptyInputError):
            build_tree([np.arange(3), np.array([], dtype=np.int64)])

    def test_nan_rejected(self):
        with pytest.raises(InvalidValueError):
            build_tree([[1.0, float("nan")], [2.0]])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_rejected(self, mode, bad):
        with pytest.raises(InvalidValueError):
            build_tree([[bad, 1.0], [2.0, 3.0]], TreeConfig(mode=mode))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("at", (0, 2, 4), ids=["front", "middle", "end"])
    def test_non_finite_in_a_later_input_is_named(self, mode, bad, at):
        """A bad value anywhere in input 1 is refused, and input 1 is named."""
        second = np.arange(5, dtype=np.float64)
        second[at] = bad
        with pytest.raises(InvalidValueError, match="input 1"):
            build_tree([[1.0, 2.0, 3.0], second], TreeConfig(mode=mode))

    def test_sum_overflow_rejected(self):
        with pytest.raises(InvalidValueError):
            build_tree([[2**62], [2**62], [2**62]])

    def test_each_input_is_judged_once_per_build(self, monkeypatch):
        """lohify judges each input's extremes as it builds its leaf, and
        the group's sums are judged once: no input is judged twice."""
        judged = []
        finite, sums = loh_mod.check_finite, tree_mod.check_sums

        def check_finite(lo, hi, name):
            judged.append(("finite", lo, hi))
            finite(lo, hi, name)

        def check_sums(los, his):
            judged.append(("sums", *los, *his))
            sums(los, his)

        monkeypatch.setattr(loh_mod, "check_finite", check_finite)
        monkeypatch.setattr(tree_mod, "check_sums", check_sums)
        build_tree([[3, 1, 2], [5, 4], [-7]])
        assert judged == [
            ("finite", 1, 3), ("finite", 4, 5), ("finite", -7, -7), ("sums", 1, 4, -7, 3, 5, -7)
        ]

    @pytest.mark.parametrize("extreme", (2**62, -(2**62) - 1))
    def test_sum_overflow_from_the_last_input_alone(self, extreme):
        """The int64 sum rule holds when only the last input reaches the extreme."""
        with pytest.raises(InvalidValueError):
            build_tree([[0, 1], [0, 1], [0, extreme]])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "arrays", [[[-(2**63), 0]], [[-(2**62)], [-(2**62)]]], ids=["m1-min", "m2-sum-min"]
    )
    def test_int64_extremes_that_fit_are_accepted(self, mode, arrays):
        """Only inputs whose sums can leave int64 are refused: a lone -2**63,
        and two values summing to exactly -2**63, select like brute force."""
        tree = build_tree(arrays, TreeConfig(mode=mode))
        got = np.sort(tree.select_k(tree.total))
        np.testing.assert_array_equal(got, brute_multi(arrays, tree.total))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "arrays", [[[1e308, -1e308]] * 4, [[1.7e308, 0.0]] * 2], ids=["pm1e308x4", "1.7e308x2"]
    )
    def test_float_sum_overflow_rejected(self, mode, arrays):
        """Float inputs whose sums can pass the largest finite float64 are
        refused up front, not answered with NaN or inf."""
        with pytest.raises(InvalidValueError):
            build_tree(arrays, TreeConfig(mode=mode))
        with pytest.raises(InvalidValueError):
            select_pairwise(arrays[0], arrays[1], 4)

    @pytest.mark.parametrize("mode", MODES)
    def test_large_floats_that_fit_are_accepted(self, mode):
        """Four inputs of +-1e307 sum within float64 and select like brute
        force, up to the rounding of a different summation order (3e307 - 1e307
        is not 2e307 in float64); at +-2**1020 every sum is exact."""
        for arrays in ([[1e307, -1e307, 0.0]] * 4, [[2.0**1020, -(2.0**1020), 0.0]] * 4):
            tree = build_tree(arrays, TreeConfig(mode=mode))
            got = np.sort(tree.select_k(tree.total))
            expect = brute_multi(arrays, tree.total)
            assert np.isfinite(got).all()
            np.testing.assert_allclose(got, expect, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(got, expect)

    def test_ragged_input_rejected(self):
        with pytest.raises(ContractError, match="input 0"):
            build_tree([[[1, 2], [3]]])

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            TreeConfig(mode="diagonal")

    def test_bad_alpha_rejected(self):
        with pytest.raises(ConfigError):
            TreeConfig(alpha=0.9)

    def test_alpha_is_read_once_per_tree(self):
        """The configured rank is parsed once; every heap and node schedule
        gets the parsed value."""
        reads = []

        class Rank(float):
            def __str__(self):
                reads.append(self)
                return float.__repr__(self)

        tree = build_tree(seeded_arrays(18, 5, 8), TreeConfig(alpha=Rank(1.1)))
        tree.select_k(100)
        assert len(reads) == 1

    def test_a_rank_seen_before_is_not_parsed_again(self):
        """Configs with an equal rank of one type share one parse; a rank
        equal in value but of another type is parsed on its own, and a
        refused rank is refused every time."""
        reads = []

        class Rank(float):
            def __str__(self):
                reads.append(self)
                return float.__repr__(self)

        first, second = TreeConfig(alpha=Rank(1.37)), TreeConfig(alpha=Rank(1.37))
        assert first.alpha_fraction is second.alpha_fraction
        assert len(reads) == 1
        assert TreeConfig(alpha=np.float32(1.1)).alpha_fraction == Fraction(11, 10)
        assert TreeConfig(alpha=float(np.float32(1.1))).alpha_fraction == Fraction("1.100000023841858")
        for _ in range(2):
            with pytest.raises(ConfigError):
                TreeConfig(alpha=0.9)


class TestSelectK:
    def test_binary_offsets_enumerate(self):
        """Power-of-two inputs make the sums 0..7, so any prefix is literal."""
        tree = build_tree(([0, 1], [0, 2], [0, 4]))
        np.testing.assert_array_equal(np.sort(tree.select_k(3)), [0, 1, 2])

    def test_full_product(self):
        tree = build_tree(([0, 1], [0, 2], [0, 4]))
        np.testing.assert_array_equal(np.sort(tree.select_k(8)), np.arange(8))

    def test_k_one_is_sum_of_minima(self):
        arrays = seeded_arrays(2, 5, 7)
        tree = build_tree(arrays)
        expect = sum(int(a.min()) for a in arrays)
        np.testing.assert_array_equal(tree.select_k(1), [expect])

    def test_k_zero_is_empty(self):
        tree = build_tree(seeded_arrays(3, 3, 4))
        out = tree.select_k(0)
        assert out.size == 0 and out.dtype == np.int64

    def test_k_out_of_range(self):
        tree = build_tree(([1, 2], [3, 4]))
        with pytest.raises(ContractError):
            tree.select_k(5)
        with pytest.raises(ContractError):
            tree.select_k(-1)

    def test_k_must_be_an_integer(self):
        """k is read as an exact integer, numpy integers included; floats and
        strings are refused rather than truncated or parsed."""
        tree = build_tree(([1, 2], [3, 4]))
        for k in (2.7, "3"):
            with pytest.raises(ContractError):
                tree.select_k(k)
            with pytest.raises(ContractError):
                select_pairwise([1, 2], [3, 4], k)
        k = np.int64(3)
        np.testing.assert_array_equal(np.sort(tree.select_k(k)), [4, 5, 5])
        np.testing.assert_array_equal(np.sort(select_pairwise([1, 2], [3, 4], k)), [4, 5, 5])

    def test_single_array_tree(self):
        """m=1 degenerates to selecting from one array."""
        vals = np.array([5, 3, 9, 1, 7], dtype=np.int64)
        tree = build_tree([vals])
        np.testing.assert_array_equal(np.sort(tree.select_k(3)), [1, 3, 5])
        assert tree.stats().root_pool_size >= 3

    def test_single_array_heap_survives_selection(self):
        """Selecting from a leaf root leaves its heap's layers in order."""
        vals = np.random.default_rng(13).integers(0, 1000, size=2000)
        full = np.sort(vals)
        tree = build_tree([vals])
        for k in (37, 5, 777, 1500, 2000):
            np.testing.assert_array_equal(np.sort(tree.select_k(k)), full[:k])
            assert verify_loh(tree.root.loh)

    @pytest.mark.parametrize("mode", ("standard", "wobbly"))
    def test_oracle_sweep_mixed_lengths(self, mode):
        """Uneven input sizes against exhaustive enumeration in both modes."""
        arrays = [a[: 2 + i % 3] for i, a in enumerate(seeded_arrays(5, 5, 4))]
        total = math.prod(a.size for a in arrays)
        full = brute_multi(arrays, total)
        tree = build_tree(arrays, TreeConfig(mode=mode))
        for k in (1, 2, total // 2, total):
            fresh = build_tree(arrays, TreeConfig(mode=mode))
            np.testing.assert_array_equal(np.sort(fresh.select_k(k)), full[:k])
            if mode == "standard":
                assert fresh.stats().root_pool_size == k
        np.testing.assert_array_equal(np.sort(tree.select_k(total)), full)

    def test_modes_agree(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            m = int(rng.integers(2, 6))
            arrays = [
                rng.integers(0, 12, size=rng.integers(1, 7)).astype(np.int64)
                for _ in range(m)
            ]
            total = math.prod(a.size for a in arrays)
            k = int(rng.integers(1, total + 1))
            std = np.sort(build_tree(arrays, TreeConfig(mode="standard")).select_k(k))
            wob = np.sort(build_tree(arrays, TreeConfig(mode="wobbly")).select_k(k))
            np.testing.assert_array_equal(std, wob)

    def test_float_pair_is_exact(self):
        """Two float inputs involve no reassociation, so sums match exactly."""
        rng = np.random.default_rng(7)
        arrays = [rng.random(12), rng.random(9)]
        full = brute_multi(arrays, 108)
        got = np.sort(build_tree(arrays).select_k(50))
        np.testing.assert_array_equal(got, full[:50])

    def test_integer_valued_floats(self):
        arrays = [a.astype(np.float64) for a in seeded_arrays(8, 4, 5, hi=20)]
        full = brute_multi(arrays, 625)
        got = np.sort(build_tree(arrays).select_k(200))
        np.testing.assert_array_equal(got, full[:200])

    def test_resume_grows_with_monotone_work(self):
        """Later, larger selections reuse layers instead of starting over."""
        arrays = seeded_arrays(9, 4, 6, hi=50)
        full = brute_multi(arrays, 1296)
        for mode in ("standard", "wobbly"):
            tree = build_tree(arrays, TreeConfig(mode=mode))
            prev = 0
            for k in (3, 17, 100, 600, 1296):
                np.testing.assert_array_equal(np.sort(tree.select_k(k)), full[:k])
                gen = tree.stats().values_generated
                assert gen >= prev
                prev = gen

    def test_repeat_same_k_is_stable(self):
        arrays = seeded_arrays(10, 3, 5)
        tree = build_tree(arrays)
        first = np.sort(tree.select_k(20))
        gen = tree.stats().values_generated
        np.testing.assert_array_equal(np.sort(tree.select_k(20)), first)
        assert tree.stats().values_generated == gen

    def test_shrinking_k_answers_from_existing_layers(self):
        arrays = seeded_arrays(11, 3, 6)
        full = brute_multi(arrays, 216)
        tree = build_tree(arrays)
        np.testing.assert_array_equal(np.sort(tree.select_k(150)), full[:150])
        gen = tree.stats().values_generated
        np.testing.assert_array_equal(np.sort(tree.select_k(5)), full[:5])
        assert tree.stats().values_generated == gen


class TestWorkIsPinned:
    """Counters pinned on fixed instances: how values are laid out in the
    carry must not change which products are generated or popped."""

    @pytest.mark.parametrize(
        "name, mode, generated, pops, exposed",
        [
            ("random", "standard", 1293, 242, 21),
            ("random", "wobbly", 2684, 179, 19),
            ("ties", "standard", 592, 138, 14),
            ("ties", "wobbly", 588, 127, 13),
        ],
    )
    def test_values_generated_and_pops(self, name, mode, generated, pops, exposed):
        if name == "random":
            rng = np.random.default_rng(31)
            arrays, k = [rng.integers(0, 1 << 20, size=48) for _ in range(4)], 700
        else:
            rng = np.random.default_rng(32)
            arrays, k = [rng.integers(0, 4, size=30) for _ in range(3)], 400
        tree = build_tree(arrays, TreeConfig(mode=mode))
        np.testing.assert_array_equal(np.sort(tree.select_k(k)), brute_multi(arrays, k))
        snap = tree.stats()
        assert (snap.values_generated, snap.tuple_pops) == (generated, pops)
        assert sum(snap.leaf_layers_exposed.values()) == exposed


class TestLaziness:
    def test_k_one_touches_a_sliver(self):
        """One requested value reads a few hundred of the 2.8e14 sums."""
        rng = np.random.default_rng(4)
        arrays = [rng.integers(0, 1 << 30, size=64).astype(np.int64) for _ in range(8)]
        tree = build_tree(arrays)
        tree.select_k(1)
        snap = tree.stats()
        assert snap.values_generated < 1000
        assert max(leaf.exposed_values for leaf in tree.leaves) < 64

    def test_no_leaf_fully_exposed_for_small_k(self):
        rng = np.random.default_rng(4)
        arrays = [rng.integers(0, 1 << 30, size=32).astype(np.int64) for _ in range(4)]
        tree = build_tree(arrays)
        tree.select_k(1)
        assert all(leaf.exposed_values < 32 for leaf in tree.leaves)

    @pytest.mark.parametrize("mode", MODES)
    def test_children_stay_one_layer_ahead_of_their_parent(self, monkeypatch, mode):
        """A child emits at most one layer past the deepest of its layers that
        its parent has expanded a product on: proposals step to a grid
        neighbour, so pricing one never reaches further into a child."""
        deepest = {}
        expand = PairwiseState.expand_min

        def expand_min(state, t):
            _, _, _, u, v = t
            left, right = deepest.get(id(state), (0, 0))
            deepest[id(state)] = (max(left, u), max(right, v))
            expand(state, t)

        monkeypatch.setattr(PairwiseState, "expand_min", expand_min)
        rng = np.random.default_rng(21)
        arrays = [rng.integers(0, 1 << 30, size=32) for _ in range(16)]
        tree = build_tree(arrays, TreeConfig(mode=mode))
        for k in (1, 100, 5000):
            tree.select_k(k)
            for node in tree.internals:
                reached = deepest[id(node)]
                for child, index in zip((node.left, node.right), reached):
                    if isinstance(child, PairwiseState):
                        assert len(layers(child)) <= index + 1


    @pytest.mark.parametrize("mode", MODES)
    def test_no_child_exposes_a_layer_before_a_tuple_on_it_pops(self, monkeypatch, mode):
        """A node asks a child for layer i only when it pops a tuple whose
        index on that child's side is i, so no child, leaf or internal, has
        exposed a layer past the deepest popped index on its side: pricing a
        proposal never reaches into a child. Each pop is seen at the heap
        functions the certification loop calls."""
        deepest = {}

        def record(heap):
            _, _, _, u, v = heap[0]
            left, right = deepest.get(id(heap), (0, 0))
            deepest[id(heap)] = (max(left, u), max(right, v))

        record_pops(monkeypatch, record)
        rng = np.random.default_rng(21)
        arrays = [rng.integers(0, 1 << 30, size=32) for _ in range(16)]
        tree = build_tree(arrays, TreeConfig(mode=mode))
        for k in (1, 100, 5000):
            tree.select_k(k)
            for node in tree.internals:
                reached = deepest.get(id(node.heap), (0, 0))
                for child, index in zip((node.left, node.right), reached):
                    assert len(layers(child)) <= index


class TestPerNodeWork:
    @pytest.mark.parametrize(
        "seed, k", [(1087, 256), (0, 4096), (1, 4096), (2, 4096)]
    )
    def test_every_node_stays_within_the_work_bound(self, seed, k):
        """In standard mode no node generates more than G * alpha**2 * k + G0
        values for a query of k, whatever its depth: deep trees (m=256, n=32)
        do not push inner nodes into enumerating their products."""
        rng = np.random.default_rng(seed)
        arrays = [rng.integers(0, 1 << 30, size=32, dtype=np.int64) for _ in range(256)]
        tree = build_tree(arrays, TreeConfig(alpha=1.1, mode="standard"))
        assert tree.select_k(k).size == k
        worst = max(node.values_generated for node in tree.internals)
        assert worst <= G * 1.1 * 1.1 * k + G0


class TestLargeRank:
    @pytest.mark.parametrize(
        "m, n, alpha, k",
        [(16, 64, 64, 10), (64, 64, 8, 10), (256, 32, 4, 100), (64, 64, 64, 10)],
    )
    def test_large_rank_fits_under_a_memory_cap(self, m, n, alpha, k):
        """A large rank or a deep tree selects small k under a 3 GB
        address-space cap with under a million values generated. Each layer
        of a child is about alpha times all before it, so a child must not
        emit one only to price a proposal its parent may never expand. Runs
        in a child process so the cap binds nothing else; the answer is
        checked against the pairwise fold of k smallest sums."""
        pytest.importorskip("resource")
        rng = np.random.default_rng(0)
        arrays = [rng.integers(0, 1 << 30, size=n) for _ in range(m)]
        script = textwrap.dedent(
            f"""
            import resource, sys
            import numpy as np
            from cartsel.tree import TreeConfig, build_tree

            cap = 3_000_000_000
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            arrays = [np.array(line.split(), dtype=np.int64) for line in sys.stdin]
            tree = build_tree(arrays, TreeConfig(alpha={alpha}))
            answer = np.sort(tree.select_k({k}))
            print(tree.stats().values_generated, *answer.tolist())
            """
        )
        data = "\n".join(" ".join(map(str, a)) for a in arrays)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", script], input=data, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        generated, *answer = map(int, out.stdout.split())
        assert generated < 1_000_000
        np.testing.assert_array_equal(answer, k_smallest_sums(arrays, k))


class TestWobblyCascade:
    def test_all_equal_inputs_stay_bounded(self):
        """Total ties do not flood the root: max tuples certify each tied
        product before its neighbours are expanded."""
        zeros = [np.zeros(2, dtype=np.int64) for _ in range(8)]
        tree = build_tree(zeros, TreeConfig(mode="wobbly"))
        out = tree.select_k(2)
        assert (out == 0).all() and out.size == 2
        snap = tree.stats()
        assert snap.root_pool_size <= 4
        assert snap.values_generated <= 64

    def test_standard_stays_on_schedule_for_ties(self):
        """Standard mode selects exactly the outstanding demand at the root."""
        zeros = [np.zeros(2, dtype=np.int64) for _ in range(8)]
        tree = build_tree(zeros, TreeConfig(mode="standard"))
        tree.select_k(2)
        assert tree.stats().root_pool_size == 2

    @pytest.mark.parametrize(
        "arrays",
        [
            [np.random.default_rng(0).integers(0, 8, size=256) for _ in range(6)],
            [np.zeros(16, dtype=np.int64)] * 8,
        ],
        ids=["low-cardinality", "all-zero"],
    )
    def test_heavy_ties_fit_under_a_memory_cap(self, arrays):
        """Heavy ties select k=10 in both modes under a 1.5 GB address-space cap
        (run in a child process so the cap binds nothing else)."""
        pytest.importorskip("resource")
        script = textwrap.dedent(
            """
            import resource, sys
            import numpy as np
            from cartsel.tree import TreeConfig, build_tree

            cap = 1_500_000_000
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            arrays = [np.array(line.split(), dtype=np.int64) for line in sys.stdin]
            for mode in ("standard", "wobbly"):
                tree = build_tree(arrays, TreeConfig(mode=mode))
                assert (tree.select_k(10) == 0).all(), mode
                assert tree.stats().values_generated < 10_000, mode
            """
        )
        data = "\n".join(" ".join(map(str, a)) for a in arrays)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", script], input=data, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr


class TestTieBands:
    @pytest.mark.parametrize("mode, generated", [("standard", 1104), ("wobbly", 1125)])
    def test_a_tie_band_pulls_both_children_evenly(self, mode, generated):
        """On 4 x 64 zeros every sum ties, so only the heap's tie order picks
        the products a query expands. The smaller square shell max(u, v)
        pops first, so the root's band grows as a square and its children
        emit 36 values each; ordered by (u, v) alone, row 1 would run across
        the right child's layers and pull about a thousand values from it."""
        tree = build_tree([np.zeros(64, dtype=np.int64)] * 4, TreeConfig(mode=mode))
        answer = tree.select_k(1024)
        assert answer.size == 1024 and (answer == 0).all()
        root = tree.root
        assert (root.left.ends[-1], root.right.ends[-1]) == (36, 36)
        assert tree.stats().values_generated == generated


class TestLayerExtremes:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("m, n", [(2, 20), (4, 6), (8, 3)])
    @pytest.mark.parametrize("kind", ("ints in [0, 3)", "negative ints", "reals"))
    def test_recorded_extremes_hold_through_a_resumed_sweep(self, mode, m, n, kind):
        """A node reads a layer's max where the selection left it, layer 1's
        min as its children's first mins summed, and a later min at its
        argmin: after every query of a resumed sweep, on trees of heights
        1 to 3, every internal node's recorded extremes are its layers' own."""
        rng = np.random.default_rng(m * n)
        draw = {
            "ints in [0, 3)": lambda: rng.integers(0, 3, n),
            "negative ints": lambda: rng.integers(-50, 0, n),
            "reals": lambda: rng.random(n) - 0.5,
        }[kind]
        arrays = [draw() for _ in range(m)]
        tree = build_tree(arrays, TreeConfig(mode=mode))
        assert tree.height == (m - 1).bit_length()
        for k in (1, 7, 300, tree.total):
            # reals are added in another order by the oracle
            np.testing.assert_allclose(np.sort(tree.select_k(k)), brute_multi(arrays, k), rtol=0, atol=1e-12)
            for node in tree.internals:
                assert_one_buffer(node)


class TestMemoryPinning:
    @pytest.mark.parametrize("mode", ("standard", "wobbly"))
    def test_kept_arrays_pin_no_larger_buffer(self, mode):
        """Every answer owns its buffer, and every node keeps its layers and
        carry in one array under twice the values it has written."""
        arrays = seeded_arrays(14, 4, 40, hi=1000)
        tree = build_tree(arrays, TreeConfig(mode=mode))
        for k in (1, 50, 3000, 2_560_000):
            answer = tree.select_k(k)
            assert _buffer_nbytes(answer) == answer.nbytes
            for node in tree.internals:
                assert_one_buffer(node)
        assert all(node.written == node.ends[-1] > 0 for node in tree.internals)

    @pytest.mark.parametrize("mode", ("standard", "wobbly"))
    def test_answer_does_not_alias_the_tree(self, mode):
        """Overwriting an answer leaves later selections intact."""
        arrays = seeded_arrays(15, 3, 9)
        tree = build_tree(arrays, TreeConfig(mode=mode))
        for k in (1, 40, 729):
            tree.select_k(k)[:] = -1
            np.testing.assert_array_equal(
                np.sort(tree.select_k(k)), brute_multi(arrays, k)
            )

    @pytest.mark.parametrize("dtype", (np.int64, np.float64))
    def test_inputs_are_left_untouched(self, dtype):
        """Building and querying reorders only the heaps' own copies; the
        caller's arrays keep every bit, whether one array or several."""
        rng = np.random.default_rng(16)
        arrays = [rng.integers(-500, 500, size=n).astype(dtype) for n in (2000, 7, 300)]
        snapshots = [a.tobytes() for a in arrays]
        for mode in MODES:
            for inputs in (arrays, arrays[:1]):
                tree = build_tree(inputs, TreeConfig(mode=mode))
                tree.select_k(1000)
                for leaf, a in zip(tree.leaves, inputs):
                    assert not np.shares_memory(leaf.loh.values, a)
        select_pairwise(arrays[0], arrays[2], 5000)
        assert [a.tobytes() for a in arrays] == snapshots

    def test_dropped_tree_is_freed_without_the_cycle_collector(self):
        """Building a tree makes no reference cycle, so dropping the last
        reference frees its heaps and nodes at once."""
        gc.collect()
        gc.disable()
        try:
            tree = build_tree(seeded_arrays(19, 5, 8))
            tree.select_k(100)
            heap = weakref.ref(tree.leaves[0].loh)
            state = weakref.ref(tree.root)
            del tree
            assert heap() is None and state() is None
        finally:
            gc.enable()

    def test_single_array_answer_copies_out_of_the_heap(self):
        tree = build_tree([np.arange(100, dtype=np.int64)])
        for k in (1, 3, 100):
            answer = tree.select_k(k)
            assert _buffer_nbytes(answer) == answer.nbytes


class TestLazyLeaves:
    """A large input is placed front first: its leaf places further layers
    only when its parent reaches them, and the build still judges every value."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_at_the_back_is_refused_and_named(self, bad):
        second = np.arange(10**4, dtype=np.float64)
        heap = build_tree([second]).leaves[0].loh
        assert len(heap.layer_mins) < heap.boundaries.size  # the back is unplaced
        second[-1] = bad
        with pytest.raises(InvalidValueError, match="input 1"):
            build_tree([[1.0, 2.0], second])

    def test_sum_overflow_from_a_max_in_the_back(self):
        """The int64 sum rule sees a max that no placed layer holds."""
        third = np.arange(10**4, dtype=np.int64)
        third[-1] = 2**62
        heap = build_tree([third]).leaves[0].loh
        assert heap.hi == 2**62 and max(heap.layer_maxs) < 10**4
        with pytest.raises(InvalidValueError):
            build_tree([[0, 1], [0, 1], third])

    @pytest.mark.parametrize("mode", MODES)
    def test_large_inputs_stay_unplaced_until_drained(self, mode):
        """Inputs of 2**16 values keep unplaced layers after build and after
        a small query; a leaf root drained to its total ends placed whole."""
        arrays = seeded_arrays(23, 3, 1 << 16, hi=1 << 40)
        # the 10 smallest sums take each summand from its input's 10 smallest
        expect = brute_multi([np.sort(a)[:10] for a in arrays], 10)
        tree = build_tree(arrays, TreeConfig(mode=mode))
        for k in (None, 10):
            if k is not None:
                np.testing.assert_array_equal(np.sort(tree.select_k(k)), expect)
            for leaf in tree.leaves:
                assert len(leaf.mins) < leaf.loh.boundaries.size
                assert len(layers(leaf)) <= len(leaf.mins)
        tree = build_tree(arrays[:1], TreeConfig(mode=mode))
        heap = tree.leaves[0].loh
        np.testing.assert_array_equal(np.sort(tree.select_k(tree.total)), np.sort(arrays[0]))
        assert len(heap.layer_mins) == len(heap.layer_maxs) == heap.boundaries.size
        assert verify_loh(heap)

    @pytest.mark.parametrize("mode", MODES)
    def test_every_value_is_counted_in_expand_min(self, monkeypatch, mode):
        """Over lazily placed reals, a resumed query generates values only
        inside expand_min calls: the benchmark's traced self-check sums the
        values_generated moved by class-level expand_min calls and refuses
        a run whose sum differs from stats()."""
        spanned = []
        expand_min = PairwiseState.expand_min

        def spy(node, t):
            before = node.values_generated
            try:
                return expand_min(node, t)
            finally:
                spanned.append(node.values_generated - before)

        monkeypatch.setattr(PairwiseState, "expand_min", spy)
        rng = np.random.default_rng(29)
        arrays = [rng.random(1 << 16) for _ in range(4)]
        tree = build_tree(arrays, TreeConfig(mode=mode))
        assert all(len(leaf.mins) < leaf.loh.boundaries.size for leaf in tree.leaves)
        for k in (1 << 10, 1 << 12):
            # the tree and the fold add reals in different orders
            np.testing.assert_allclose(np.sort(tree.select_k(k)), k_smallest_sums(arrays, k), atol=1e-12)
            assert sum(spanned) == tree.stats().values_generated > 0


class TestResourceLimit:
    def test_out_of_memory_is_a_typed_error(self, tmp_path):
        """Under a 1.5 GB address-space cap, a query whose root pool cannot
        be allocated raises ResourceLimitError naming its size, never
        numpy's MemoryError; the tree is spent, so a later small query
        raises the same error; and cartsel select exits 1. Runs in a child
        process so the cap binds nothing else."""
        pytest.importorskip("resource")
        rng = np.random.default_rng(0)
        arrays = [rng.integers(0, 1 << 30, size=256) for _ in range(5)]
        instance = tmp_path / "instance.txt"
        instance.write_text("\n".join(" ".join(map(str, a)) for a in arrays) + "\n")
        script = textwrap.dedent(
            f"""
            import contextlib, io, resource
            import numpy as np
            from cartsel.cli import main
            from cartsel.errors import ResourceLimitError
            from cartsel.tree import build_tree

            cap = 1_500_000_000
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            arrays = [np.array(line.split(), dtype=np.int64) for line in open({str(instance)!r})]
            tree = build_tree(arrays)
            for k in (2**28, 10):
                try:
                    tree.select_k(k)
                except ResourceLimitError as exc:
                    print(k, exc)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["select", "--input", {str(instance)!r}, "--k", str(2**28)])
            print("exit", code, err.getvalue().strip())
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        first, second, cli = out.stdout.splitlines()
        assert first.startswith(f"{2**28} out of memory") and "bytes" in first
        assert second == first.replace(str(2**28), "10", 1)
        assert cli.startswith("exit 1 error: out of memory")


class TestSelectionPeakMemory:
    def test_large_k_holds_each_generated_value_at_most_twice(self):
        """A standard query at k=2^20 on five 256-value inputs peaks within
        its generated values plus the answer: each value is written once,
        into its node's buffer, and selected there, and only the answer is
        copied out. Copying each emitted layer and carry out of a pool, as
        an emission once did, peaks at about 22.0 MB against a 20.0 MB bound."""
        rng = np.random.default_rng(22)
        tree = build_tree([rng.integers(0, 1 << 30, size=256) for _ in range(5)])
        k = 1 << 20
        tracemalloc.start()
        try:
            answer = tree.select_k(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert answer.size == k
        assert peak <= (tree.stats().values_generated + k) * answer.itemsize + (1 << 19)


def drain(node, target=7):
    """The layers node gives until generate_next_layer returns None."""
    layers = []
    while (layer := node.generate_next_layer(target)) is not None:
        layers.append(layer)
    return layers


class TestExhaustion:
    """A node learns that a child has no layer i only when a tuple needing it
    pops, and drops that tuple. Both node kinds give layers until
    generate_next_layer returns None, and None on every call after."""

    def test_leaf_gives_every_layer_then_none(self):
        for values in (np.arange(8)[::-1], np.arange(10**4)[::-1]):
            leaf = LeafNode(lohify(values))
            layers = drain(leaf)
            assert len(layers) == len(leaf.mins) == leaf.loh.boundaries.size
            np.testing.assert_array_equal(np.sort(np.concatenate(layers)), np.sort(values))
            assert leaf.generate_next_layer(1) is None and leaf.generate_next_layer(1) is None

    @pytest.mark.parametrize("mode", MODES)
    def test_drain_expands_nothing_past_a_childs_last_layer(self, monkeypatch, mode):
        """Over an inner child that has returned None and a dense leaf,
        placed whole at build, the parent pushes its proposals past either
        child's last layer UNPRICED and drops them as they pop: it expands
        every product once and none past either child's last layer."""
        rng = np.random.default_rng(24)
        a, b, c = (rng.integers(0, 50, size=n) for n in (9, 6, 8))
        child = PairwiseState(LeafNode(lohify(a)), LeafNode(lohify(b)), mode)
        leaf = LeafNode(lohify(c))
        parent = PairwiseState(child, leaf, mode)
        layers = drain(child)
        assert child.generate_next_layer(1) is None
        np.testing.assert_array_equal(
            np.sort(np.concatenate(layers)), np.sort(np.add.outer(a, b), axis=None)
        )
        rows, cols = len(child.ends) - 1, leaf.loh.boundaries.size
        expand = PairwiseState.expand_min
        expanded, past = [], set()

        def expand_min(state, t):
            expanded.append(t[3:])
            expand(state, t)
            past.update(e for e in state.heap if e[3] > rows or e[4] > cols)

        monkeypatch.setattr(PairwiseState, "expand_min", expand_min)
        layers = drain(parent)
        total = np.add.outer(np.add.outer(a, b), c)
        np.testing.assert_array_equal(np.sort(np.concatenate(layers)), np.sort(total, axis=None))
        assert past and {t[1] for t in past} == {UNPRICED}
        assert sorted(expanded) == [(u, v) for u in range(1, rows + 1) for v in range(1, cols + 1)]
        assert (len(child.ends), len(leaf.ends)) == (rows + 1, cols + 1) and parent.heap == []
        for node in (child, leaf, parent) * 2:
            assert node.generate_next_layer(1) is None


class TestNodeEnsureLayer:
    def test_sequential_layers_and_exhaustion(self):
        tree = build_tree(([1, 2], [3, 4]))
        root = tree.root
        assert root.ensure(1)
        assert layers(root)[0].size == 1
        assert root.ensure(3)
        assert not root.ensure(10)

    def test_scheduled_sizes_with_alpha_two(self):
        arrays = seeded_arrays(13, 2, 8)
        tree = build_tree(arrays, TreeConfig(alpha=2))
        root = tree.root
        root.ensure(4)
        assert [layers(root)[i - 1].size for i in (1, 2, 3, 4)] == [1, 2, 4, 8]

    @pytest.mark.parametrize("mode", MODES)
    def test_leaf_layers_are_read_only_heap_views_as_deep_as_asked(self, monkeypatch, mode):
        """A leaf exposes exactly the layers its parent (or select_k, at a
        leaf root) has asked for, each a read-only view of its heap."""
        asked = {}
        ensure = LeafNode.ensure

        def spy(leaf, i):
            ok = ensure(leaf, i)
            if ok:
                asked[id(leaf)] = max(asked.get(id(leaf), 0), i)
            return ok

        monkeypatch.setattr(LeafNode, "ensure", spy)
        arrays = seeded_arrays(17, 5, 40, hi=1 << 30)
        for inputs in (arrays, arrays[:1]):
            tree = build_tree(inputs, TreeConfig(mode=mode))
            for k in (1, 30, 3000):
                tree.select_k(min(k, tree.total))
                for leaf in tree.leaves:
                    assert len(layers(leaf)) == asked.get(id(leaf), 0)
                    ends = [0, *leaf.loh.boundaries.tolist()]
                    for i, layer in enumerate(layers(leaf)):
                        assert layer.base is leaf.loh.values
                        assert not layer.flags.writeable
                        np.testing.assert_array_equal(
                            layer, leaf.loh.values[ends[i] : ends[i + 1]]
                        )
