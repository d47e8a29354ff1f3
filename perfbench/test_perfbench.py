"""Tests of the benchmark's own parts: reference, failure accounting, tracer.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cartsel.oracle import brute_multi  # noqa: E402
from cartsel.tree import TreeConfig, build_tree  # noqa: E402

import harness  # noqa: E402
from reference import reference_k_smallest  # noqa: E402
from tracer import ELEMENTS, NAME, SELF, Tracer, layer_metrics  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _instances(kind):
    rng = np.random.default_rng(2008)
    for _ in range(150):
        m = int(rng.integers(1, 5))
        sizes = rng.integers(1, 10, m)
        if kind == "int":
            arrays = [rng.integers(-20, 20, int(n)) for n in sizes]
        else:
            arrays = [rng.normal(size=int(n)) for n in sizes]
        total = int(np.prod(sizes))
        yield arrays, int(rng.integers(1, total + 1))


@pytest.mark.parametrize("kind", ["int", "float"])
def test_reference_matches_brute_force(kind):
    for arrays, k in _instances(kind):
        got = reference_k_smallest(arrays, k)
        want = brute_multi(arrays, k)
        if kind == "int":
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_reference_with_heavy_ties():
    arrays = [np.zeros(6, dtype=np.int64), np.array([0, 0, 1, 1, 2]), np.array([3, 3, 3])]
    assert np.array_equal(reference_k_smallest(arrays, 40), brute_multi(arrays, 40))


def test_raise_counts_as_failure():
    def blow_up(k):
        raise MemoryError("synthetic")

    tally = harness.Tally()
    answer, _, error = harness.guarded_select(blow_up, 3)
    assert answer is None and error.startswith("MemoryError")
    assert not tally.check(answer, error, np.arange(3))
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 1, 0)


def test_wall_clock_cap_counts_as_failure():
    def stall(k):
        time.sleep(5)
        return np.arange(k)

    start = time.perf_counter()
    answer, elapsed, error = harness.guarded_select(stall, 3, cap_s=0.05)
    assert time.perf_counter() - start < 2
    assert answer is None and error.startswith("SelectionTimeout")


def test_wrong_answer_counts_as_failure_and_incorrect():
    tally = harness.Tally()
    assert tally.check(np.array([2, 0, 1]), None, np.arange(3))
    assert not tally.check(np.array([0, 1, 1]), None, np.arange(3))
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)


def test_float_answers_compare_within_rounding():
    ref = np.array([0.1 + 0.2, 1.0])
    assert harness.same_multiset(np.array([1.0, 0.3]), ref)
    assert not harness.same_multiset(np.array([1.0, 0.31]), ref)


@pytest.mark.parametrize("mode", ["standard", "wobbly"])
def test_tracer_accounts_for_all_work_and_restores_bindings(mode):
    import cartsel.pairwise as pairwise_mod

    original = pairwise_mod.PairwiseState.expand_min
    rng = np.random.default_rng(3)
    arrays = [rng.integers(0, 100, 12) for _ in range(5)]
    tracer = Tracer()
    with tracer:
        tree = build_tree(arrays, TreeConfig(mode=mode))
        query_from = tracer.start_query(tree)
        start = time.perf_counter()
        answer = tree.select_k(500)
        wall = time.perf_counter() - start
    assert pairwise_mod.PairwiseState.expand_min is original
    assert np.array_equal(np.sort(answer), brute_multi(arrays, 500))
    query = tracer.spans[query_from:]
    generated = sum(s[ELEMENTS] for s in query if s[NAME] == "pairwise.expand_min")
    assert generated == tree.stats().values_generated
    assert sum(s[SELF] for s in query) <= wall
    metrics = layer_metrics(tracer, query_from, tree, 500, depths=3)
    assert metrics["loh.linear_select.setup.calls"] > 0
    assert sum(metrics[f"pairwise.d{j}.values_generated"] for j in range(3)) == generated
    assert metrics["pairwise.useful_frac"] == pytest.approx(500 / generated)


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_listed_metric(trace, listed, tmp_path):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "ties",
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    (tmp_path / "src").symlink_to(ROOT / "src")
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[listed]}
    for metric in BENCHMARK[listed]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_run_refuses_without_sources(tmp_path):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "ties",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
