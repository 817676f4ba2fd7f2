"""Decision tree model, reference builder, comparison, rendering, serialization."""

from .builder import build_reference_tree, class_counts
from .compare import (
    TreeDifference,
    count_common_prefix_nodes,
    tree_diff,
    trees_equal,
    trees_equivalent,
)
from .model import DecisionTree, Node
from .printing import render_tree, tree_summary, tree_to_dot
from .pruning import (
    PruningStep,
    cost_complexity_path,
    cost_complexity_prune,
    holdout_select_alpha,
    reduced_error_prune,
)
from .serialize import tree_from_dict, tree_from_json, tree_to_dict, tree_to_json
from .statistics import TreeStatistics, attribute_importances, tree_statistics

__all__ = [
    "DecisionTree",
    "Node",
    "PruningStep",
    "TreeDifference",
    "TreeStatistics",
    "attribute_importances",
    "cost_complexity_path",
    "cost_complexity_prune",
    "holdout_select_alpha",
    "reduced_error_prune",
    "build_reference_tree",
    "class_counts",
    "count_common_prefix_nodes",
    "render_tree",
    "tree_diff",
    "tree_from_dict",
    "tree_from_json",
    "tree_statistics",
    "tree_summary",
    "tree_to_dict",
    "tree_to_dot",
    "tree_to_json",
    "trees_equal",
    "trees_equivalent",
]
