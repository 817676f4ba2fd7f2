"""The compiled batch predictor: a tree flattened into numpy arrays.

:class:`CompiledPredictor` turns a :class:`~repro.tree.DecisionTree` into
a handful of contiguous arrays — per-node feature index, numeric
threshold, categorical set id, child offsets, plus per-leaf labels and
class-count distributions — and routes whole batches *iteratively*: an
explicit work stack partitions record indices over the flat arrays with
one contiguous single-column gather per visited node, instead of one
Python call and one structured-record copy per
``Node``.  The recursive :class:`~repro.tree.model.Node` walk stays as
the reference implementation; the compiled kernel is the hot path shared
by :meth:`DecisionTree.route <repro.tree.DecisionTree.route>` (and hence
the level-wise cleanup scans) and the whole serving stack.

Exact equivalence with the recursive path is a hard invariant, enforced
by the golden fixtures and the hypothesis property suite:

* numeric routing compares the same float64 values with the same
  ``x <= value`` predicate (NaNs route right on both paths);
* categorical routing uses a membership bitmap whose semantics match
  ``np.isin`` — codes outside the compiled domain (unseen categories,
  negative codes) route right;
* ``predict_proba`` rows are precomputed with the identical
  ``counts / total`` division (uniform fallback for empty leaves), so
  probabilities agree bit-for-bit, not just approximately.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import TreeStructureError
from ..splits.base import CategoricalSplit, NumericSplit, majority_label
from ..storage import Schema

#: Sentinel feature index marking a leaf row in the flattened arrays.
LEAF = -1


class CompiledPredictor:
    """A decision tree flattened into contiguous arrays for batch routing.

    Build one with :meth:`from_tree` (or ``tree.compile()``).  The
    predictor is immutable and safe to share across threads — routing
    touches only read-only arrays, which is what makes the registry's
    hot-swap guarantee (one model per batch, never a torn mix) cheap.

    Array layout (all length ``n_nodes``, preorder of the source tree):

    ``feature``
        splitting attribute index, or :data:`LEAF` (-1) for leaves.
    ``threshold``
        numeric split point (``x <= threshold`` routes left); NaN for
        categorical and leaf rows.
    ``set_id``
        row into ``cat_member`` for categorical nodes, -1 otherwise.
    ``cat_member``
        ``(n_categorical_nodes, domain_width)`` boolean membership
        bitmap; codes outside ``[0, domain_width)`` route right.
    ``left`` / ``right``
        child row indices (0 for leaves, never followed).
    ``leaf_label`` / ``leaf_proba`` / ``node_ids``
        per-row majority label, class distribution, and original
        ``Node.node_id`` (for :meth:`route`).
    """

    __slots__ = (
        "schema",
        "n_nodes",
        "n_classes",
        "feature",
        "threshold",
        "set_id",
        "cat_member",
        "left",
        "right",
        "leaf_label",
        "leaf_proba",
        "node_ids",
        "_column_names",
    )

    def __init__(
        self,
        schema: Schema,
        feature: np.ndarray,
        threshold: np.ndarray,
        set_id: np.ndarray,
        cat_member: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        leaf_label: np.ndarray,
        leaf_proba: np.ndarray,
        node_ids: np.ndarray,
    ):
        self.schema = schema
        self.n_nodes = len(feature)
        self.n_classes = schema.n_classes
        self.feature = feature
        self.threshold = threshold
        self.set_id = set_id
        self.cat_member = cat_member
        self.left = left
        self.right = right
        self.leaf_label = leaf_label
        self.leaf_proba = leaf_proba
        self.node_ids = node_ids
        self._column_names = tuple(a.name for a in schema)
        for array in (feature, threshold, set_id, left, right, leaf_label,
                      leaf_proba, node_ids, cat_member):
            array.setflags(write=False)

    @classmethod
    def from_tree(cls, tree) -> "CompiledPredictor":
        """Flatten a :class:`~repro.tree.DecisionTree` (or any ``Node`` root
        plus schema via ``tree.schema``/``tree.root``)."""
        schema = tree.schema
        nodes = list(tree.nodes())
        index = {id(node): i for i, node in enumerate(nodes)}
        n = len(nodes)
        k = schema.n_classes

        feature = np.full(n, LEAF, dtype=np.int32)
        threshold = np.full(n, np.nan, dtype=np.float64)
        set_id = np.full(n, -1, dtype=np.int32)
        left = np.zeros(n, dtype=np.int32)
        right = np.zeros(n, dtype=np.int32)
        leaf_label = np.zeros(n, dtype=np.int32)
        leaf_proba = np.empty((n, k), dtype=np.float64)
        node_ids = np.empty(n, dtype=np.int64)
        subsets: list[frozenset[int]] = []

        max_code = -1
        for attr in schema.categorical_attributes:
            max_code = max(max_code, attr.domain_size - 1)

        for i, node in enumerate(nodes):
            node_ids[i] = node.node_id
            leaf_label[i] = majority_label(node.class_counts)
            total = node.class_counts.sum()
            if total > 0:
                leaf_proba[i] = node.class_counts / total
            else:
                leaf_proba[i] = 1.0 / k
            if node.is_leaf:
                continue
            split = node.split
            feature[i] = split.attribute_index
            left[i] = index[id(node.left)]
            right[i] = index[id(node.right)]
            if isinstance(split, NumericSplit):
                threshold[i] = split.value
            elif isinstance(split, CategoricalSplit):
                set_id[i] = len(subsets)
                subsets.append(split.subset)
                for code in split.subset:
                    max_code = max(max_code, code)
            else:  # pragma: no cover - future split kinds
                raise TreeStructureError(f"cannot compile split {split!r}")

        width = max_code + 1 if subsets else 1
        cat_member = np.zeros((max(len(subsets), 1), width), dtype=bool)
        for sid, subset in enumerate(subsets):
            cat_member[sid, sorted(subset)] = True
        return cls(
            schema, feature, threshold, set_id, cat_member, left, right,
            leaf_label, leaf_proba, node_ids,
        )

    # -- routing kernel ------------------------------------------------------

    def matrix(self, batch: np.ndarray) -> np.ndarray:
        """The float64 predictor matrix of a structured batch.

        Categorical int32 codes are exactly representable in float64, so
        one dense matrix serves both split kinds; callers that route the
        same batch repeatedly can convert once and pass the matrix to
        :meth:`leaf_indices`.
        """
        out = np.empty((len(batch), len(self._column_names)), dtype=np.float64)
        for j, name in enumerate(self._column_names):
            out[:, j] = batch[name]
        return out

    def leaf_indices(self, batch: np.ndarray) -> np.ndarray:
        """Compiled-array row index of the leaf each record reaches.

        An explicit work stack of ``(node row, record indices)`` pairs
        partitions the batch over the flattened arrays — no ``Node``
        objects, one contiguous single-column gather and compare per
        visited node.  Only nodes that some record reaches are visited:
        the cost follows the batch's paths (at most ``n x depth`` nodes),
        not ``n_nodes``, so a 1-row predict touches one root-to-leaf
        path.  Columns are extracted lazily (contiguous float64)
        the first time a split touches them, so trees that ignore an
        attribute never pay for it.
        """
        structured = batch.dtype.names is not None
        if not structured:
            batch = np.asarray(batch, dtype=np.float64)
        n = len(batch)
        out = np.zeros(n, dtype=np.int64)
        if self.feature[0] == LEAF or n == 0:
            return out
        columns: dict[int, np.ndarray] = {}

        def column(f: int) -> np.ndarray:
            cached = columns.get(f)
            if cached is None:
                raw = batch[self._column_names[f]] if structured else batch[:, f]
                cached = columns[f] = np.ascontiguousarray(raw, dtype=np.float64)
            return cached

        feature, threshold, set_id = self.feature, self.threshold, self.set_id
        left, right = self.left, self.right
        width = self.cat_member.shape[1]
        cat_flat = self.cat_member.ravel()
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(n))]
        while stack:
            node, indices = stack.pop()
            f = feature[node]
            if f == LEAF:
                out[indices] = node
                continue
            values = column(f).take(indices)
            sid = set_id[node]
            if sid < 0:
                # NaN values compare False and route right, matching the
                # recursive predicate exactly.
                go_left = values <= threshold[node]
            else:
                codes = values.astype(np.int64)
                in_domain = (codes >= 0) & (codes < width)
                safe = np.where(in_domain, codes, 0)
                go_left = in_domain & cat_flat.take(sid * width + safe)
            # Push a child only when some record reaches it, so a batch of
            # n rows visits at most n x depth nodes, not all n_nodes.
            n_left = int(np.count_nonzero(go_left))
            if n_left == len(indices):
                stack.append((int(left[node]), indices))
            elif n_left == 0:
                stack.append((int(right[node]), indices))
            else:
                stack.append((int(left[node]), indices[go_left]))
                stack.append((int(right[node]), indices[~go_left]))
        return out

    # -- user-facing predictions ---------------------------------------------

    def route(self, batch: np.ndarray) -> np.ndarray:
        """Original ``Node.node_id`` of the leaf each record reaches."""
        return self.node_ids[self.leaf_indices(batch)]

    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Predicted class labels (identical to the recursive path)."""
        return self.leaf_label[self.leaf_indices(batch)]

    def predict_proba(self, batch: np.ndarray) -> np.ndarray:
        """Leaf class distributions (bit-identical to the recursive path)."""
        return self.leaf_proba[self.leaf_indices(batch)]

    def __repr__(self) -> str:
        return (
            f"CompiledPredictor(nodes={self.n_nodes}, "
            f"classes={self.n_classes}, "
            f"categorical_sets={int((self.set_id >= 0).sum())})"
        )
