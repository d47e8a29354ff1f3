"""Layer-ordered heaps and the linear-time partitioning primitives behind them.

A layer-ordered heap (LOH) stores a multiset in one array partitioned into
contiguous layers L1, L2, ... where every value in a layer is <= every value
in the next layer. Values inside a layer stay unordered. The first layer
holds exactly one value and sizes grow geometrically with a rank alpha > 1
through the recurrence s(1) = 1, s(i+1) = ceil(alpha * s(i)); the final
layer is truncated so the sizes sum to n exactly.

Construction places the layer boundaries by divide and conquer: a span is
partitioned in place at the boundary nearest its middle and each side is
recursed on, and a span holding many boundaries for its size is sorted whole.
Each level of the recursion moves at most n values, and a value is moved
at about log2(1/(alpha-1)) levels, so total work is
O(n max(1, log(1/(alpha-1)))), linear in n for fixed alpha.

The selection primitives reorder the pool they are given in place and copy
out only the head a caller keeps. A built heap's values are read-only, so a
selection over a prefix of them copies it instead of mixing its layers.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    EmptyInputError,
    InvalidValueError,
)

__all__ = [
    "LayerOrderedHeap",
    "as_value_array",
    "layer_size_schedule",
    "layer_sizes",
    "linear_select",
    "lohify",
    "partition_by_value",
    "unify_profile",
    "verify_loh",
]

def _alpha_fraction(alpha) -> Fraction:
    """Exact rational form of a rank; floats convert via their decimal repr."""
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
    n = int(n)
    if n < 0:
        raise ContractError(f"cannot schedule layers for n={n}")
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


def _coerce(values, name: str) -> np.ndarray:
    """The input in the numeric profile (int64 or float64), float values unscanned."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ContractError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInputError(f"{name} is empty")
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


def as_value_array(values, *, name="input") -> np.ndarray:
    """Coerce one input to the numeric profile (int64 or float64) and check it.

    Float inputs must be finite: NaN and +-inf are rejected. An input already
    in the profile may come back as itself, not a copy: callers must not
    write to the result.
    """
    arr = _coerce(values, name)
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise InvalidValueError(f"{name} contains NaN or infinite values")
    return arr


def unify_profile(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Promote a group of ingested arrays to one profile and range-check it.

    If any array is float the whole group becomes float64. An all-integer
    group is checked so that no sum of one value from each of up to all m
    arrays can overflow int64: every such partial sum lies between
    m * min(0, lo) and m * max(0, hi).
    """
    if any(a.dtype.kind == "f" for a in arrays):
        return [a if a.dtype.kind == "f" else a.astype(np.float64) for a in arrays]
    m = len(arrays)
    lo = min(int(a.min()) for a in arrays)
    hi = max(int(a.max()) for a in arrays)
    if m * max(0, hi) > 2**63 - 1 or m * min(0, lo) < -(2**63):
        raise InvalidValueError(
            f"integer values in [{lo}, {hi}] could overflow int64 when "
            f"summing {m} values"
        )
    return list(arrays)


def linear_select(pool, k) -> tuple[np.ndarray, np.ndarray]:
    """Partition pool in place so a k-smallest multiset comes first.

    Returns (head, tail): head holds k values forming a smallest-k multiset
    of the pool, tail holds the rest; neither is in any particular order.
    One ndarray.partition call reorders the pool itself (a read-only pool is
    copied first): introselect, whose median-of-medians fallback keeps the
    worst case linear. The head owns its data, because callers keep it (an
    emitted layer lives as long as the tree) and a view would pin the whole
    pool; the tail is a view into the pool, reused only as the next carry.
    """
    arr = np.asarray(pool)
    n = arr.size
    k = int(k)
    if not 0 <= k <= n:
        raise ContractError(f"k={k} out of range for a pool of {n} values")
    if k == 0:
        return arr[:0], arr
    if k == n:
        return (arr if arr.base is None else arr.copy()), arr[:0]
    if not arr.flags.writeable:
        arr = arr.copy()
    arr.partition(k - 1)
    return arr[:k].copy(), arr[k:]


def partition_by_value(pool, bound) -> tuple[np.ndarray, np.ndarray]:
    """Split pool in place into (values <= bound, values > bound).

    The values <= bound are the pool's count smallest, ties included, so this
    is linear_select(pool, count).
    """
    arr = np.asarray(pool)
    if arr.ndim != 1:
        raise ContractError(f"pool must be one-dimensional, got shape {arr.shape}")
    try:
        bad = bool(np.isnan(bound))
    except TypeError:
        raise ContractError(f"bound must be numeric, got {type(bound).__name__}")
    if bad:
        raise ContractError("bound must not be NaN")
    return linear_select(arr, np.count_nonzero(arr <= bound))


@dataclass
class LayerOrderedHeap:
    """A value array partitioned into ordered layers.

    boundaries[i] is the cumulative end offset of layer i+1 (the last entry
    equals len(values)), as scheduled by the rank alpha, kept as given to
    lohify. Layers are addressed 1-based to match the indices carried by
    selection tuples.
    """

    values: np.ndarray
    boundaries: np.ndarray
    alpha: float | Fraction | str
    layer_mins: np.ndarray | None = None
    layer_maxs: np.ndarray | None = None

    def __post_init__(self):
        if self.layer_mins is None:
            starts = self._starts()
            self.layer_mins = np.minimum.reduceat(self.values, starts)
            self.layer_maxs = np.maximum.reduceat(self.values, starts)

    def _starts(self) -> np.ndarray:
        starts = np.zeros(len(self.boundaries), dtype=np.int64)
        starts[1:] = self.boundaries[:-1]
        return starts


# A span no longer than this many times the number of layer boundaries inside
# it is sorted whole rather than split further: one sort beats a partition
# call per boundary on short spans, such as the front layers at small alpha
# or a whole 256-value input at the default rank.
DENSE_SPAN = 16


def lohify(values, alpha=1.1) -> LayerOrderedHeap:
    """Build a layer-ordered heap over values; the multiset is preserved.

    The input is copied once and never written. The copy is reordered in
    place by divide and conquer over the layer boundaries: a span is
    partitioned at the boundary nearest its middle and both sides are split
    in turn, until a span holds no boundary or is dense enough to sort
    whole. Each level moves at most len(values) elements, so the work is
    O(n max(1, log(1/(alpha-1)))). The values end up read-only.

    Values must be finite. They are not scanned up front: NaN and +inf order
    into the last layer and -inf into the first, so the first layer's min and
    the last layer's max reveal them once the heap is built.
    """
    work = _coerce(values, "values").copy()
    bounds = np.cumsum(layer_sizes(alpha, len(work)), dtype=np.int64)
    cuts = bounds[:-1].tolist()
    # (lo, hi, c0, c1): cuts[c0:c1] are the boundaries strictly inside [lo, hi)
    spans = [(0, len(work), 0, len(cuts))]
    while spans:
        lo, hi, c0, c1 = spans.pop()
        if c0 == c1:
            continue
        if hi - lo <= DENSE_SPAN * (c1 - c0):
            work[lo:hi].sort()
            continue
        mid = (lo + hi) // 2
        j = bisect_left(cuts, mid, c0, c1)
        if j == c1 or (j > c0 and mid - cuts[j - 1] < cuts[j] - mid):
            j -= 1
        cut = cuts[j]
        work[lo:hi].partition(cut - lo)
        spans.append((lo, cut, c0, j))
        spans.append((cut, hi, j + 1, c1))
    work.flags.writeable = False
    heap = LayerOrderedHeap(work, bounds, alpha)
    if not (np.isfinite(heap.layer_mins[0]) and np.isfinite(heap.layer_maxs[-1])):
        raise InvalidValueError("values must be finite, without NaN or +-inf")
    return heap


def verify_loh(heap: LayerOrderedHeap) -> bool:
    """Check the layer structure: scheduled boundaries, ordered layers."""
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
    starts = heap._starts()
    mins = np.minimum.reduceat(vals, starts)
    maxs = np.maximum.reduceat(vals, starts)
    return bool(np.all(maxs[:-1] <= mins[1:]))
