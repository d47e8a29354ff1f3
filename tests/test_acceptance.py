"""Acceptance gate: one printed PASS/FAIL line per shipped guarantee.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they print.
Criterion 7 reports performance trends and warns instead of failing; every
other criterion is a hard assertion.
"""

import math
import time
import warnings

import numpy as np
import pytest

from cartsel.cli import run_bench, run_verification
from cartsel.loh import layer_sizes, lohify, verify_loh
from cartsel.oracle import brute_multi, brute_pairwise
from cartsel.tree import TreeConfig, build_tree, select_pairwise
from conftest import G, G0

ALPHA = 1.1


def report(num, ok, detail) -> bool:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def pairwise_instance(seed, n):
    """Seeded instance, integer profile on even seeds, float on odd."""
    rng = np.random.default_rng([seed, n])
    if seed % 2 == 0:
        return (
            rng.integers(0, 4 * n + 4, size=n).astype(np.int64),
            rng.integers(0, 4 * n + 4, size=n).astype(np.int64),
        )
    return rng.random(n), rng.random(n)


@pytest.fixture(scope="module")
def tree_sweep():
    """Shared 50-trial oracle sweep backing criteria 2 and 3."""
    t0 = time.perf_counter()
    rep = run_verification(n_max=8, m_max=5, trials=50, seed=0)
    return rep, time.perf_counter() - t0


class TestCriterion1:
    def test_pairwise_oracle_equivalence(self):
        """Exhaustive k on n up to 16 and sampled k up to 32, 50 seeds each."""
        t0 = time.perf_counter()
        failures = 0
        cases = 0
        for n in range(1, 33):
            total = n * n
            for seed in range(50):
                a, b = pairwise_instance(seed, n)
                full = brute_pairwise(a, b, total)
                if n <= 16:
                    ks = range(1, total + 1)
                else:
                    rng = np.random.default_rng([seed, n, 99])
                    ks = sorted(
                        {1, 2, n, total // 2, total - 1, total}
                        | {int(x) for x in rng.integers(1, total + 1, size=5)}
                    )
                for k in ks:
                    cases += 1
                    got = np.sort(select_pairwise(a, b, k))
                    if not np.array_equal(got, full[:k]):
                        failures += 1
        elapsed = time.perf_counter() - t0
        ok = failures == 0 and elapsed < 60
        assert report(
            1,
            ok,
            f"{cases} pairwise selections, {failures} mismatches, {elapsed:.1f}s",
        )


class TestCriterion2:
    def test_tree_oracle_equivalence(self, tree_sweep):
        """Both modes match exhaustive enumeration across the m x n x k sweep."""
        rep, elapsed = tree_sweep
        ok = rep.cases > 0 and not rep.oracle_failures and elapsed < 120
        assert report(
            2,
            ok,
            f"{rep.cases} cases, {len(rep.oracle_failures)} oracle mismatches, "
            f"{elapsed:.1f}s",
        )


class TestCriterion3:
    def test_mode_agreement(self, tree_sweep):
        """Standard and wobbly report the same multiset on every sweep case."""
        rep, _ = tree_sweep
        ok = rep.cases > 0 and not rep.agreement_failures
        assert report(
            3, ok, f"{len(rep.agreement_failures)} mode disagreements over the sweep"
        )


class TestCriterion4:
    def test_loh_structure(self):
        """Built heaps verify and schedules partition n with a unit first layer."""
        bad = 0
        checked = 0
        rng = np.random.default_rng(0)
        for alpha in (1.05, 1.1, 2, 4):
            for n in (1, 2, 10, 10**3, 10**5):
                sizes = layer_sizes(alpha, n)
                if sum(sizes) != n or sizes[0] != 1:
                    bad += 1
                vals = rng.integers(0, 1 << 20, size=n).astype(np.int64)
                if not verify_loh(lohify(vals, alpha)):
                    bad += 1
                checked += 1
        assert report(4, bad == 0, f"{checked} (n, alpha) combinations, {bad} bad")


class TestCriterion5:
    def test_trivial_identities(self):
        """k=1 is the sum of minima, k=total the whole product, ties multiply."""
        rng = np.random.default_rng(1)
        arrays = [rng.integers(0, 40, size=4).astype(np.int64) for _ in range(4)]
        total = 4**4
        full = brute_multi(arrays, total)
        ok = True
        for mode in ("standard", "wobbly"):
            cfg = TreeConfig(mode=mode)
            one = build_tree(arrays, cfg).select_k(1)
            ok = ok and one.tolist() == [sum(int(a.min()) for a in arrays)]
            everything = np.sort(build_tree(arrays, cfg).select_k(total))
            ok = ok and np.array_equal(everything, full)
            equal = build_tree([np.full(3, 7, dtype=np.int64)] * 5, cfg).select_k(10)
            ok = ok and (equal == 35).all() and equal.size == 10
        assert report(5, ok, "sum-of-minima, full-product, and all-equal identities")


class TestCriterion6:
    def test_root_pool_guardrail(self):
        """Standard stays near k at the root; wobbly floods past ten times k."""
        k = 256
        rng = np.random.default_rng(1087)
        arrays = [rng.integers(0, 1 << 30, size=32, dtype=np.int64) for _ in range(256)]
        pools = {}
        for mode in ("standard", "wobbly"):
            tree = build_tree(arrays, TreeConfig(alpha=ALPHA, mode=mode))
            tree.select_k(k)
            pools[mode] = tree.stats().root_pool_size
        hi = G * ALPHA * ALPHA * k + G0
        ok = k <= pools["standard"] <= hi and pools["wobbly"] > 10 * k
        assert report(
            6,
            ok,
            f"standard pool {pools['standard']} in [{k}, {hi:.0f}], "
            f"wobbly pool {pools['wobbly']} > {10 * k}",
        )


class TestCriterion7:
    def test_performance_trends(self):
        """Informational: wobbly at least ties standard at the top k, and
        standard grows sub-quadratically in k; warns rather than fails."""
        t0 = time.perf_counter()
        ks = [1 << e for e in range(10, 21)]
        records = run_bench(
            n=256, m=5, alpha=ALPHA, ks=ks, modes=["standard", "wobbly"],
            trials=20, seed=0,
        )
        elapsed = time.perf_counter() - t0
        means = {
            (r.mode, r.k): r.runtime_seconds for r in records if r.trial == "mean"
        }
        top = ks[-1]
        faster = means[("wobbly", top)] <= means[("standard", top)]
        logk = np.log2(ks)
        logt = np.log2([means[("standard", k)] for k in ks])
        slope = float(np.polyfit(logk, logt, 1)[0])
        ok = faster and slope < 1.5
        detail = (
            f"wobbly {means[('wobbly', top)]:.3f}s vs standard "
            f"{means[('standard', top)]:.3f}s at k=2^20, slope {slope:.2f}, "
            f"{elapsed:.0f}s harness"
        )
        report(7, ok, detail)
        if not ok:
            warnings.warn(f"performance trend not reproduced: {detail}")
        assert records and elapsed < 600

    def test_naive_baseline_runs(self):
        """The harness also times exhaustive enumeration for context."""
        records = run_bench(
            n=64, m=3, alpha=ALPHA, ks=[64], modes=["naive"], trials=2, seed=0
        )
        assert all(r.values_generated == 64**3 for r in records)


class TestCriterion8:
    def test_laziness(self):
        """One value out of 2.8e14 possible sums costs well under 10^3 values."""
        rng = np.random.default_rng(4)
        arrays = [rng.integers(0, 1 << 30, size=64).astype(np.int64) for _ in range(8)]
        tree = build_tree(arrays, TreeConfig(alpha=ALPHA))
        tree.select_k(1)
        snap = tree.stats()
        loaded = sum(leaf.loh.values.size for leaf in tree.leaves)
        exposed = max(leaf.exposed_values for leaf in tree.leaves)
        ok = snap.values_generated < 1000 and loaded == 512 and exposed < 64
        assert report(
            8,
            ok,
            f"{snap.values_generated} values generated for k=1, "
            f"{loaded} loaded, deepest leaf exposure {exposed}/64",
        )
