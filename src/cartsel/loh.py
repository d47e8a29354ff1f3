"""Layer-ordered heaps and the linear-time partitioning primitives behind them.

A layer-ordered heap (LOH) stores a multiset in one array partitioned into
contiguous layers L1, L2, ... where every value in a layer is <= every value
in the next layer. Values inside a layer stay unordered. The first layer
holds exactly one value and sizes grow geometrically with a rank alpha > 1
through the recurrence s(1) = 1, s(i+1) = ceil(alpha * s(i)); the final
layer is truncated so the sizes sum to n exactly.

Every heap is built by lohify and has its layers placed by
LayerOrderedHeap.place, front first and on demand, by one rule. The layer
geometry (boundaries, layer starts and lasts, and the front) is computed
once per rank and length and shared, read-only, by every heap of that
length. An input that is short for its number of boundaries has every layer
as its front, which place sorts whole at build. Any other input has its
front, the layers through the first boundary at or past isqrt(n), cut off
the back and placed at build. The cut takes a threshold from a strided
sample of the input, copies the input in one pass of BLOCK-value blocks
that also takes its max and finds the values at or below the threshold,
with no mask of the input's size, moves those to the start and partitions
only them; the back waits as one unplaced span, which place
splits front-most first when a reader asks for a deeper layer. Placing is
divide and conquer: a span is partitioned in place at the boundary nearest
its middle and each side is split in turn, and a span holding many
boundaries for its size is sorted whole, so its layers' extremes are the
values at their first and last positions. Each level of the recursion moves
at most n values, and a value is moved at about log2(1/(alpha-1)) levels, so
placing every layer costs O(n max(1, log(1/(alpha-1)))), linear in n for
fixed alpha, plus the one front cut; a build costs O(n) however large n is.

The selection primitives reorder a one-dimensional pool in place and return
its head and tail as views, copying nothing. A built heap's values are
read-only, so a selection over them copies them first. Where numpy cannot
allocate an array sized by an input, a node buffer or k, the caller gets a
ResourceLimitError naming its values and bytes (_out_of_memory).

Outside inputs have one rule each: as_value_arrays coerces a group of inputs
to one numeric profile without reading their values, the values are judged
by each input's least and greatest value (check_finite each input, which
lohify applies to its own heap, then check_sums the group), and as_count
reads every count (k, a layer target, a value count) as an exact integer in
range. DEFAULT_ALPHA is the rank every entry point uses when given none.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import sys
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    EmptyInputError,
    InvalidValueError,
    ResourceLimitError,
)

__all__ = [
    "DEFAULT_ALPHA",
    "LayerOrderedHeap",
    "as_count",
    "as_value_arrays",
    "check_finite",
    "check_sums",
    "layer_size_schedule",
    "layer_sizes",
    "linear_select",
    "lohify",
    "partition_by_value",
    "verify_loh",
]

DEFAULT_ALPHA = 1.1


def _alpha_fraction(alpha) -> Fraction:
    """Exact rational form of a rank; floats convert via their decimal repr.

    The parse is memoized per value and type, so a config or a heap built
    again at a rank seen before does not parse it again. Refusals are not
    memoized; an unhashable alpha is refused as not a number. A Fraction
    above 1, such as a tree's parsed rank, comes back as itself: hashing a
    Fraction costs a pow(), and a build would pay it for every input.
    """
    if type(alpha) is Fraction and alpha.numerator > alpha.denominator:
        return alpha
    try:
        hash(alpha)
    except TypeError:
        raise ConfigError(f"rank alpha must be a number, got {type(alpha).__name__}") from None
    return _parse_alpha(alpha)


@functools.lru_cache(maxsize=64, typed=True)
def _parse_alpha(alpha) -> Fraction:
    if isinstance(alpha, Fraction):
        frac = alpha
    elif isinstance(alpha, numbers.Integral):
        frac = Fraction(int(alpha))
    elif isinstance(alpha, numbers.Real):
        if not math.isfinite(alpha):
            raise ConfigError(f"rank alpha must be finite, got {alpha!r}")
        # str() gives the shortest round-trip decimal, so 1.1 becomes 11/10
        # rather than the binary float it rides in on; keeps ceil exact.
        frac = Fraction(str(alpha))
    elif isinstance(alpha, str):
        try:
            frac = Fraction(alpha)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot read rank alpha from {alpha!r}") from exc
    else:
        raise ConfigError(f"rank alpha must be a number, got {type(alpha).__name__}")
    if frac <= 1:
        raise ConfigError(f"rank alpha must be > 1, got {alpha!r}")
    return frac


def layer_size_schedule(alpha):
    """Yield the untruncated layer sizes 1, ceil(alpha), ceil(alpha*s), ..."""
    frac = _alpha_fraction(alpha)
    num, den = frac.numerator, frac.denominator
    s = 1
    while True:
        yield s
        s = -(-num * s // den)  # exact ceil(frac * s)


def layer_sizes(alpha, n) -> list[int]:
    """Layer sizes for n values at rank alpha, final layer truncated to fit.

    layer_sizes(2, 15) == [1, 2, 4, 8]; layer_sizes(1.1, 10) == [1, 2, 3, 4].
    """
    n = as_count(n, 0, math.inf, "n")
    if n == 0:
        raise EmptyInputError("cannot schedule layers for zero values")
    sizes: list[int] = []
    total = 0
    for s in layer_size_schedule(alpha):
        if total + s >= n:
            sizes.append(n - total)
            break
        sizes.append(s)
        total += s
    return sizes


_Geometry = namedtuple("_Geometry", "boundaries starts lasts ends front")


@functools.lru_cache(maxsize=64)
def _layer_geometry(num: int, den: int, n: int) -> _Geometry:
    """The layer geometry of n values at rank num/den, shared by their heaps.

    boundaries, starts and lasts are read-only int64 arrays: layer i+1 holds
    positions starts[i] through lasts[i] = boundaries[i] - 1. ends is the
    tuple (0, *boundaries) of Python ints. front is the number of layers
    lohify places at build: every layer when n is dense for its boundaries,
    else those through the first boundary at or past isqrt(n).
    """
    ends = (0, *itertools.accumulate(layer_sizes(Fraction(num, den), n)))
    layers = len(ends) - 1
    front = layers
    if n > DENSE_SPAN * (layers - 1):
        front = bisect_left(ends, math.isqrt(n), 1)
    arrays = np.array((ends[1:], ends[:-1], ends[1:]), dtype=np.int64)
    arrays[2] -= 1
    arrays.flags.writeable = False  # before its rows are taken, which inherit it
    return _Geometry(*arrays, ends, front)


_PROFILE = (np.dtype(np.int64), np.dtype(np.float64))


def _coerce(values, name: str) -> np.ndarray:
    """The input in the numeric profile (int64 or float64), float values unscanned.

    A one-dimensional, non-empty input already in the profile comes back as
    itself, so a build's second pass over its inputs only checks their dtype.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy refuses ragged nesting
        raise ContractError(f"{name} must be one-dimensional, got ragged nesting") from None
    if arr.ndim != 1:
        raise ContractError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInputError(f"{name} is empty")
    if arr.dtype in _PROFILE:
        return arr
    kind = arr.dtype.kind
    if kind == "u":
        if int(arr.max()) > np.iinfo(np.int64).max:
            raise InvalidValueError(f"{name} holds unsigned values beyond int64 range")
        return arr.astype(np.int64)
    if kind in "ib":
        return arr.astype(np.int64, copy=False)
    if kind == "f":
        return arr.astype(np.float64, copy=False)
    raise InvalidValueError(f"{name} has non-numeric dtype {arr.dtype}")


def as_value_arrays(inputs) -> list[np.ndarray]:
    """Coerce each input to int64 or float64 and promote the group to one profile.

    If any input is float the whole group becomes float64. No value of a
    signed or float input is read: check_finite and check_sums judge the
    values from each input's extremes. An input already in the profile may
    come back as itself, not a copy: callers must not write to the result.
    """
    arrays = [_coerce(x, f"input {i}") for i, x in enumerate(inputs)]
    if not arrays:
        raise EmptyInputError("need at least one input array")
    if any(a.dtype.kind == "f" for a in arrays):
        return [a.astype(np.float64, copy=False) for a in arrays]
    return arrays


def check_finite(lo, hi, name: str) -> None:
    """Refuse an input, named name, whose least or greatest value is NaN or
    +-inf: NaN and +inf order last and -inf first, so they show there."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidValueError(f"{name} contains NaN or infinite values")


def check_sums(los, his) -> None:
    """Refuse a group of inputs, input i finite in [los[i], his[i]], when a
    sum of one value from each of up to all m inputs could leave int64, or
    exceed the largest finite float64: every such sum lies in
    [m * min(0, lo), m * max(0, hi)] over the group."""
    m, lo, hi = len(los), min(los), max(his)
    if isinstance(lo, numbers.Integral):  # Python ints: numpy int64 products wrap
        lo, hi, bottom, top = int(lo), int(hi), -(2**63), 2**63 - 1
    else:
        lo, hi, bottom, top = float(lo), float(hi), -sys.float_info.max, sys.float_info.max
    if m * max(0, hi) > top or m * min(0, lo) < bottom:
        raise InvalidValueError(f"sums of {m} values in [{lo}, {hi}] could leave [{bottom}, {top}]")


def _out_of_memory(count: int, dtype, what: str) -> ResourceLimitError:
    """The typed error for an allocation of count values of dtype that failed."""
    nbytes = count * np.dtype(dtype).itemsize
    return ResourceLimitError(f"out of memory for {what}: {count} values, {nbytes} bytes")


def as_count(value, lo, hi, name) -> int:
    """value as an exact Python int in [lo, hi]; name only labels the error."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ContractError(f"{name} must be an integer, got {type(value).__name__}") from None
    if not lo <= value <= hi:
        raise ContractError(f"{name}={value} out of range [{lo}, {hi}]")
    return value


def linear_select(pool, k) -> tuple[np.ndarray, np.ndarray]:
    """Partition a one-dimensional pool in place so a k-smallest multiset comes first.

    Returns (head, tail), the views arr[:k] and arr[k:] of the partitioned
    pool: head holds k values forming a smallest-k multiset of the pool, with
    its largest value last when k >= 1, and tail the rest, in no set order.
    One ndarray.partition call at k - 1 reorders the pool itself:
    introselect, linear in the worst case. A writable pool is selected where
    it lies and nothing is allocated; a read-only pool is copied once first,
    and both views are into that copy. A caller that keeps a view decides
    whether to copy it.
    """
    arr = np.asarray(pool)
    if arr.ndim != 1:
        raise ContractError(f"pool must be one-dimensional, got shape {arr.shape}")
    k = as_count(k, 0, arr.size, "k")
    if not arr.flags.writeable:
        try:
            arr = arr.copy()
        except MemoryError:
            raise _out_of_memory(arr.size, arr.dtype, "a selection's copy") from None
    if k:
        arr.partition(k - 1)
    return arr[:k], arr[k:]


def partition_by_value(pool, bound) -> tuple[np.ndarray, np.ndarray]:
    """Split pool in place into (values <= bound, values > bound).

    The values <= bound are the pool's count smallest, ties included, so this
    is linear_select(pool, count). bound is a real scalar, not NaN.
    """
    arr = np.asarray(pool)
    try:
        if getattr(bound, "ndim", 0):  # math.isnan warns on a one-value array in older numpy
            raise TypeError
        bad = math.isnan(bound)  # a twentieth of np.isnan's cost on a scalar
    except (TypeError, OverflowError):
        raise ContractError(f"bound must be numeric, got {type(bound).__name__}") from None
    if bad:
        raise ContractError("bound must not be NaN")
    try:
        mask = np.less_equal(arr, bound)
    except MemoryError:
        raise _out_of_memory(arr.size, np.bool_, "a value mask") from None
    return linear_select(arr, np.count_nonzero(mask))


# A span no longer than this many times the number of layer boundaries inside
# it is sorted whole rather than split further: one sort beats a partition
# call per boundary on short spans, such as the front layers at small alpha
# or a whole 256-value input at the default rank.
DENSE_SPAN = 16


class LayerOrderedHeap:
    """A value array partitioned into ordered layers, placed front first.

    geometry is the read-only layer geometry that lohify shares between
    every heap of one rank and length. boundaries, its array of cumulative
    layer ends, gives the end offset of layer i+1 as boundaries[i] (the last
    entry equals len(values)), as scheduled by the rank alpha. ends is its
    tuple (0, *boundaries) of Python ints, so layer i holds
    values[ends[i-1]:ends[i]]. Layers are addressed 1-based to match the
    indices carried by selection tuples.

    Layers 1..len(layer_mins) are placed: each holds exactly its rank slice
    of the values, and layer_mins and layer_maxs, lists that grow as layers
    are placed, hold their extremes, so layer_mins[0] is the heap's min. A
    span sorted whole records them as the values at its layers' starts and
    lasts, a one-layer span as the min and max over the layer. The values
    past the last placed layer lie in spans still to be split, held on a
    stack with the front-most last; a span (a, b) holds layers a+1..b,
    values[ends[a]:ends[b]], and place(i) splits them. Every heap is made
    by lohify, which places its front and sets hi, its greatest value.
    """

    def __init__(self, values, geometry, alpha, spans):
        self.values = values
        self.geometry = geometry
        self.boundaries = geometry.boundaries
        self.ends = geometry.ends
        self.alpha = alpha
        self._spans = spans
        self.layer_mins: list = []
        self.layer_maxs: list = []

    def place(self, i: int) -> None:
        """Place layers 1..i, i at most the number of layers.

        Unplaced spans are taken front-most first and split like the build
        splits them: at the boundary nearest the middle, or sorted whole when
        dense. It stops once layer i is placed, so placing every layer this
        way costs what placing them all at once would. Placed layers never
        move, and the values are read-only again on return.
        """
        i = as_count(i, 0, len(self.ends) - 1, "layer")
        work, ends, spans = self.values, self.ends, self._spans
        work.flags.writeable = True
        try:
            while len(self.layer_mins) < i:
                a, b = spans.pop()
                lo, hi = ends[a], ends[b]
                if b - a > 1 and hi - lo > DENSE_SPAN * (b - a - 1):
                    mid = (lo + hi) // 2
                    # the inner end nearest mid: the first at or past it, or the one before
                    j = bisect_left(ends, mid, a + 1, b - 1)
                    if j > a + 1 and mid - ends[j - 1] < ends[j] - mid:
                        j -= 1
                    work[lo:hi].partition(ends[j] - lo)
                    spans.append((j, b))
                    spans.append((a, j))
                    continue
                # layers a+1..b are placed: record their extremes
                if b - a > 1:  # sorted whole, so each layer's are at its ends
                    work[lo:hi].sort()
                    geometry = self.geometry
                    self.layer_mins += work[geometry.starts[a:b]].tolist()
                    self.layer_maxs += work[geometry.lasts[a:b]].tolist()
                else:
                    layer = work[lo:hi]
                    self.layer_mins.append(layer.min().item())
                    self.layer_maxs.append(layer.max().item())
        finally:
            work.flags.writeable = False


# A large input's front is cut below a threshold tau, the sample's
# (2 * cut * s / n + SAMPLE_MARGIN)-th smallest of s >= SAMPLE values read at
# a stride: about twice the front's share plus a margin for sampling noise.
# Gathering over max(SAMPLE, n / GATHER_SHARE) values at or below tau, as
# heavy ties can make them, would cost more than cutting the whole input.
# The copy, max and gather run BLOCK values at a time, so each block is
# compared while it is still in cache.
SAMPLE = 4096
SAMPLE_MARGIN = 8
GATHER_SHARE = 16
BLOCK = 1 << 15


def _copy_cut_front(arr: np.ndarray, work: np.ndarray, cut: int):
    """Copy arr into work, partition work so its cut smallest values come
    first, and return the greatest value, NaN if any, as a Python scalar.

    tau is read off arr's strided sample. One pass over arr, a block at a
    time, copies each block into work, takes its max and records the
    positions of its c values <= tau, which are then gathered into work[:c]
    by swapping each one past c with a value > tau before c (min(c, n - c)
    swaps at most), and only work[:c] is partitioned; all of work is when
    the sample's share at or below tau predicts too many, or when c is under
    cut (0 for a NaN tau) or too large, in which case recording stops as
    soon as c passes the limit. NaN and +inf are never <= a finite tau.
    """
    n = arr.size
    sample = arr[:: max(1, n // SAMPLE)]
    rank = min(sample.size - 1, 2 * cut * sample.size // n + SAMPLE_MARGIN)
    sample = np.partition(sample, rank)  # a copy: arr is never written
    tau, most = sample[rank], max(SAMPLE, n // GATHER_SHARE)
    # past most from the start when the sample predicts too many: nothing is recorded
    c = 0 if np.count_nonzero(sample <= tau) * n <= most * sample.size else most + 1
    below, found, his = np.empty(min(n, BLOCK), np.bool_), [], []
    for a in range(0, n, BLOCK):
        block = work[a : a + BLOCK]
        np.copyto(block, arr[a : a + BLOCK])
        his.append(block.max())
        if c <= most:
            found.append(np.flatnonzero(np.less_equal(block, tau, out=below[: block.size])) + a)
            c += found[-1].size
    if not cut <= c <= most:
        c = n
    else:
        at = np.concatenate(found)
        split, keep = np.searchsorted(at, c), np.ones(c, np.bool_)
        keep[at[:split]] = False
        early, late = np.flatnonzero(keep), at[split:]
        work[early], work[late] = work[late], work[early]
    work[:c].partition(cut - 1)
    return np.max(his).item()  # NaN if any block's max is


def lohify(values, alpha=DEFAULT_ALPHA) -> LayerOrderedHeap:
    """Build a layer-ordered heap over values, placing only its front.

    The input is copied once and never written. The front, the layers
    placed here, is read from the geometry shared by every heap of this
    rank and length: every layer when the input is dense for its layer
    boundaries, so its copy is sorted whole. Any other input is copied by
    _copy_cut_front in one blocked pass that also takes its max and gathers
    the values at or below a sampled threshold, so that only they are
    partitioned to cut the front through the first boundary at or past
    isqrt(n); no mask of the input's size is made. The layers of that front
    are placed by divide and conquer: a span is partitioned at the boundary
    nearest its middle and both sides are split in turn, until a span holds
    no boundary or is dense enough to sort whole. The back stays one
    unplaced span until place() asks for its layers. Each level of the
    recursion moves at most len(values) elements, so placing every layer
    costs O(n max(1, log(1/(alpha-1)))). The values end up read-only.

    Values must be finite. They are not scanned up front: NaN and +inf order
    last and -inf first, so check_finite finds them in the first layer's
    min and in hi, the max of the last layer or the one the pass took.
    """
    arr = _coerce(values, "values")
    frac = _alpha_fraction(alpha)
    geometry = _layer_geometry(frac.numerator, frac.denominator, arr.size)
    front, layers = geometry.front, len(geometry.ends) - 1
    try:  # np.empty, not empty_like: a reversed view's copy must be contiguous too
        work = arr.copy() if front == layers else np.empty(arr.size, arr.dtype)
    except MemoryError:
        raise _out_of_memory(arr.size, arr.dtype, "a heap's working copy") from None
    spans = [(0, layers)]
    if front < layers:
        try:
            hi = _copy_cut_front(arr, work, geometry.ends[front])
        except MemoryError:  # the positions recorded: at most a gather's worth and a block
            most = max(SAMPLE, arr.size // GATHER_SHARE) + BLOCK
            raise _out_of_memory(most, np.intp, "a front's positions") from None
        spans = [(front, layers), (0, front)]
    heap = LayerOrderedHeap(work, geometry, alpha, spans)
    heap.place(front)  # which leaves the values read-only
    heap.hi = heap.layer_maxs[-1] if front == layers else hi
    check_finite(heap.layer_mins[0], heap.hi, "input")
    return heap


def verify_loh(heap: LayerOrderedHeap) -> bool:
    """Check the whole heap: scheduled boundaries, ordered layers, recorded extremes.

    Every layer is placed first, so a heap that lohify placed only in part
    is checked layer by layer all the same. The layers' extremes are taken
    here by a reduction over each layer, not read from the shared geometry
    or at layer ends, so the check does not lean on how place recorded them.
    """
    vals = np.asarray(heap.values)
    bounds = np.asarray(heap.boundaries)
    if vals.ndim != 1 or vals.size == 0:
        return False
    try:
        sizes = layer_sizes(heap.alpha, len(vals))
    except (ConfigError, ContractError, EmptyInputError):
        return False
    if not np.array_equal(bounds, np.cumsum(sizes)):
        return False
    heap.place(len(bounds))
    starts = bounds - sizes
    mins = np.minimum.reduceat(vals, starts)
    maxs = np.maximum.reduceat(vals, starts)
    recorded = heap.layer_mins == mins.tolist() and heap.layer_maxs == maxs.tolist()
    return recorded and bool(np.all(maxs[:-1] <= mins[1:]))
