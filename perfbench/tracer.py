"""Per-layer tracing of cartsel from outside the library.

``Tracer`` replaces the public entry points of the ``loh``, ``pairwise`` and
``tree`` layers with wrappers that record one span per call: name, start,
end, parent span, node depth (root = 0, from walking ``tree.root``) and an
element count. The library itself is not edited; ``uninstall`` restores the
original bindings. Only the traced pass installs it.

Call sites of ``linear_select`` are told apart by the module binding they go
through: ``cartsel.loh`` (setup, from ``lohify``), ``cartsel.pairwise``
(emission) and ``cartsel.tree`` (the root's final selection). A call made
while a selection span is open (the median-of-medians recursion) counts
toward that outer span.

A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import cartsel.loh as loh_mod
import cartsel.pairwise as pairwise_mod
import cartsel.tree as tree_mod
from cartsel.tree import LeafNode

NAME, START, END, PARENT, DEPTH, ELEMENTS, SELF = range(7)

SELECT_SPANS = (
    "loh.linear_select.setup",
    "loh.linear_select.emit",
    "loh.linear_select.root",
    "loh.partition_by_value",
)


def node_depths(tree) -> dict[int, int]:
    """Depth of each internal node's pairwise state, keyed by ``id``."""
    depths: dict[int, int] = {}
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, LeafNode):
            continue
        depths[id(node.state)] = depth
        stack.append((node.state.left, depth + 1))
        stack.append((node.state.right, depth + 1))
    return depths


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._child_time: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self.depth_of: dict[int, int] = {}
        self.scheduled = 0
        self.emitted = 0
        self.peak_carry = 0

    # -- span bookkeeping ----------------------------------------------------

    def _begin(self, name: str, depth: int | None, elements: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        if depth is None:
            depth = self.spans[parent][DEPTH] if parent >= 0 else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, depth, elements, 0.0])
        self._stack.append(idx)
        self._child_time.append(0.0)
        return idx

    def _end(self, idx: int, start: float, end: float) -> None:
        span = self.spans[idx]
        span[START], span[END] = start, end
        duration = end - start
        span[SELF] = duration - self._child_time.pop()
        self._stack.pop()
        if self._child_time:
            self._child_time[-1] += duration

    def _plain(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._begin(name, -1)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx, start, time.perf_counter())

        return wrapper

    def _selection(self, name, fn):
        @functools.wraps(fn)
        def wrapper(pool, *args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][NAME] in SELECT_SPANS:
                return fn(pool, *args, **kwargs)
            idx = self._begin(name, None, len(pool))
            start = time.perf_counter()
            try:
                return fn(pool, *args, **kwargs)
            finally:
                self._end(idx, start, time.perf_counter())

        return wrapper

    def _generate(self, fn):
        @functools.wraps(fn)
        def wrapper(state, target, *args, **kwargs):
            idx = self._begin("pairwise.generate_next_layer", self.depth_of.get(id(state), -1))
            start = time.perf_counter()
            try:
                layer = fn(state, target, *args, **kwargs)
            finally:
                self._end(idx, start, time.perf_counter())
            if layer is not None:
                self.scheduled += int(target)
                self.emitted += int(layer.size)
                self.peak_carry = max(self.peak_carry, state.carry_count)
            return layer

        return wrapper

    def _expand(self, fn):
        @functools.wraps(fn)
        def wrapper(state, *args, **kwargs):
            before = state.values_generated
            idx = self._begin("pairwise.expand_min", self.depth_of.get(id(state), -1))
            start = time.perf_counter()
            try:
                return fn(state, *args, **kwargs)
            finally:
                self._end(idx, start, time.perf_counter())
                self.spans[idx][ELEMENTS] = state.values_generated - before

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        state_cls = pairwise_mod.PairwiseState
        tree_cls = tree_mod.CartesianProductTree
        self._patch(tree_mod, "lohify", self._plain("loh.lohify", tree_mod.lohify))
        for owner, site in ((loh_mod, "setup"), (pairwise_mod, "emit"), (tree_mod, "root")):
            wrapped = self._selection(f"loh.linear_select.{site}", owner.linear_select)
            self._patch(owner, "linear_select", wrapped)
        self._patch(
            pairwise_mod,
            "partition_by_value",
            self._selection("loh.partition_by_value", pairwise_mod.partition_by_value),
        )
        self._patch(state_cls, "generate_next_layer", self._generate(state_cls.generate_next_layer))
        self._patch(state_cls, "expand_min", self._expand(state_cls.expand_min))
        self._patch(tree_cls, "select_k", self._plain("tree.select_k", tree_cls.select_k))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- per-tree summary ------------------------------------------------------

    def start_query(self, tree) -> int:
        """Bind node depths for ``tree``; spans from the returned index on are its query's."""
        self.depth_of = node_depths(tree)
        self.scheduled = self.emitted = self.peak_carry = 0
        return len(self.spans)


def layer_metrics(tracer: Tracer, query_from: int, tree, k: int, depths: int) -> dict[str, float]:
    """Per-layer metrics of one traced build and query (names without the mode).

    Per-depth metrics cover at least ``depths`` depths, zero where the tree is
    shallower; ``pairwise.d<j>.self_s`` is the self time of every query span
    made for a node at depth j, the emission selections it calls included.
    """
    calls: dict[str, int] = defaultdict(int)
    elements: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    depth_self: dict[int, float] = defaultdict(float)
    depth_values: dict[int, int] = defaultdict(int)
    for i, span in enumerate(tracer.spans):
        name = span[NAME]
        calls[name] += 1
        elements[name] += span[ELEMENTS]
        self_s[name] += span[SELF]
        if i >= query_from and span[DEPTH] >= 0:
            depth_self[span[DEPTH]] += span[SELF]
            if name == "pairwise.expand_min":
                depth_values[span[DEPTH]] += span[ELEMENTS]
    snap = tree.stats()
    generated = snap.values_generated
    totals = {"calls": calls, "elements": elements, "self_s": self_s}
    out = {"loh.lohify.self_s": self_s["loh.lohify"]}
    for name, keys in (
        ("loh.linear_select.setup", ("calls", "elements", "self_s")),
        ("loh.linear_select.emit", ("calls", "elements", "self_s")),
        ("loh.linear_select.root", ("elements", "self_s")),
        ("loh.partition_by_value", ("calls", "elements", "self_s")),
    ):
        for key in keys:
            out[f"{name}.{key}"] = totals[key][name]
    moved = elements["loh.linear_select.emit"] + elements["loh.partition_by_value"]
    out["loh.moved_per_generated"] = moved / generated if generated else 0.0
    out["pairwise.expand_min.calls"] = calls["pairwise.expand_min"]
    out["pairwise.expand_min.self_s"] = self_s["pairwise.expand_min"]
    out["pairwise.tuple_pops"] = snap.tuple_pops
    out["pairwise.generate_next_layer.calls"] = calls["pairwise.generate_next_layer"]
    out["pairwise.generate_next_layer.self_s"] = self_s["pairwise.generate_next_layer"]
    for depth in range(max(depths, tree.height)):
        out[f"pairwise.d{depth}.values_generated"] = depth_values[depth]
        out[f"pairwise.d{depth}.self_s"] = depth_self[depth]
    out["pairwise.useful_frac"] = k / generated if generated else 0.0
    out["pairwise.overshoot"] = tracer.emitted / tracer.scheduled if tracer.scheduled else 0.0
    out["pairwise.peak_carry"] = tracer.peak_carry
    out["tree.select_k.self_s"] = self_s["tree.select_k"]
    out["tree.root_pool_per_k"] = tree.root_pool_size / k
    loaded = sum(leaf.loh.values.size for leaf in tree.leaves)
    out["tree.leaf_exposed_frac"] = sum(leaf.exposed_values for leaf in tree.leaves) / loaded
    return out
