"""Selection of the k smallest sums over Cartesian products of arrays.

The work happens in a balanced binary tree whose leaves hold the input
arrays as layer-ordered heaps and whose internal nodes lazily stream the
layer products of their children, so only a small prefix of the full
product is ever materialized.
"""

from .errors import (
    CartselError,
    ConfigError,
    ContractError,
    EmptyInputError,
    InvalidValueError,
    ParseError,
    ResourceLimitError,
)
from .loh import (
    LayerOrderedHeap,
    layer_size_schedule,
    layer_sizes,
    linear_select,
    lohify,
    partition_by_value,
    verify_loh,
)
from .oracle import brute_multi, brute_pairwise
from .pairwise import MODES, PairwiseState, ProductTuple
from .tree import (
    CartesianProductTree,
    SelectionStats,
    TreeConfig,
    build_tree,
    select_pairwise,
)

__version__ = "0.1.0"

__all__ = [
    "CartesianProductTree",
    "CartselError",
    "ConfigError",
    "ContractError",
    "EmptyInputError",
    "InvalidValueError",
    "LayerOrderedHeap",
    "MODES",
    "PairwiseState",
    "ParseError",
    "ProductTuple",
    "ResourceLimitError",
    "SelectionStats",
    "TreeConfig",
    "brute_multi",
    "brute_pairwise",
    "build_tree",
    "layer_size_schedule",
    "layer_sizes",
    "linear_select",
    "lohify",
    "partition_by_value",
    "select_pairwise",
    "verify_loh",
]
