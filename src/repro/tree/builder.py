"""The reference greedy top-down tree builder (Figure 1 of the paper).

``TDTree`` applied to an in-memory family: select a split with the given
CL, partition, recurse.  This builder *defines* the target tree — BOAT's
exactness guarantee is "produce exactly what this builder produces on the
full database" — so it is deliberately deterministic and shares every
candidate-evaluation code path with BOAT (see :mod:`repro.splits.impurity`).

The family is held column-wise in a :class:`~repro.splits.PresortedFamily`
(SLIQ/SPRINT): each numeric attribute is stable-argsorted once, each node
owns a segment ``[lo, hi)`` of the row-id buffers, and a split stably
partitions the segments in place.  A split method with a presorted search
(``choose_presorted``) sweeps those segments directly; any other method
(QUEST) gets the node's rows as a structured array, in original order.

Node ids: each split numbers both children before growing the left
subtree, then the right; tree equality never depends on ids.
"""

from __future__ import annotations

import numpy as np

from ..config import SplitConfig
from ..kernels import DEFAULT_KERNELS, KernelBackend
from ..splits.base import SplitDecision, SplitSelectionMethod
from ..splits.presort import PresortedFamily
from ..storage import CLASS_COLUMN, Schema
from .model import DecisionTree, Node


def class_counts(
    family: np.ndarray,
    n_classes: int,
    kernels: KernelBackend = DEFAULT_KERNELS,
) -> np.ndarray:
    """Integer class-count vector of a family array."""
    return kernels.class_histogram(family[CLASS_COLUMN], n_classes)


def build_reference_tree(
    family: np.ndarray,
    schema: Schema,
    method: SplitSelectionMethod,
    config: SplitConfig | None = None,
) -> DecisionTree:
    """Grow the greedy tree for an in-memory family.

    Args:
        family: the full training data as one structured array.
        schema: its schema.
        method: the split selection method CL.
        config: stopping rules (defaults to :class:`SplitConfig`()).
    """
    config = config or SplitConfig()
    kernels = getattr(method, "kernels", DEFAULT_KERNELS)
    root = Node(0, 0, class_counts(family, schema.n_classes, kernels))
    tree = DecisionTree(schema, root)
    if _may_split(root.depth, len(family), config):
        _Grower(tree, family, method, config, kernels).grow(root, 0, len(family))
    return tree


def _may_split(depth: int, n_rows: int, config: SplitConfig) -> bool:
    """False when the stopping rules make this node a leaf (depth, size)."""
    if config.max_depth is not None and depth >= config.max_depth:
        return False
    return n_rows >= config.min_samples_split


class _Grower:
    """One recursion over one presorted family.

    A plain object, not a closure: the recursion must not form a reference
    cycle, or the family and its buffers would outlive the build until
    the next garbage-collection pass.
    """

    def __init__(
        self,
        tree: DecisionTree,
        family: np.ndarray,
        method: SplitSelectionMethod,
        config: SplitConfig,
        kernels: KernelBackend,
    ):
        self.tree = tree
        self.method = method
        self.config = config
        self.kernels = kernels
        self.presorted = hasattr(method, "choose_presorted")
        self.data = PresortedFamily(family, tree.schema, presort=self.presorted)

    def choose(self, lo: int, hi: int) -> SplitDecision | None:
        data = self.data
        if self.presorted:
            return self.method.choose_presorted(data, lo, hi, self.config)
        return self.method.choose_split(
            data.family[data.rows[lo:hi]], data.schema, self.config
        )

    def grow(self, node: Node, lo: int, hi: int) -> None:
        """Grow the subtree of ``node``, whose family is segment ``[lo, hi)``."""
        if not _may_split(node.depth, hi - lo, self.config):
            return
        decision = self.choose(lo, hi)
        if decision is None:
            return
        data = self.data
        split = decision.split
        go_left = split.mask(data.columns[split.attribute_index][data.rows[lo:hi]])
        mid = data.partition(lo, hi, go_left)
        left_counts = self.kernels.class_histogram(
            data.labels[data.rows[lo:mid]], data.schema.n_classes
        )
        depth = node.depth + 1
        left = self.tree.new_node(depth, left_counts, node)
        right = self.tree.new_node(depth, node.class_counts - left_counts, node)
        node.make_internal(split, left, right)
        self.grow(left, lo, mid)
        self.grow(right, mid, hi)
