"""BOAT instantiated with the QUEST split selection method.

Section 5 of the paper reports results for a non-impurity-based split
selection method; this module is that instantiation.  QUEST is a natural
fit for the optimistic approach because everything it needs — ANOVA /
chi-square attribute selection and QDA split points — is a function of
*streaming sufficient statistics* (per-class counts, sums, sums of
squares, contingency tables):

* the sampling phase bootstraps QUEST trees and intersects them into a
  skeleton with coarse criteria, exactly as in the impurity mode;
* the cleanup scan accumulates each node's :class:`QuestSufficientStats`
  and holds tuples inside numeric confidence intervals;
* finalization recomputes the QUEST decision *exactly* from the full-data
  statistics and verifies it against the coarse criterion: a different
  selected attribute, a numeric threshold outside the interval, or a
  different categorical subset refutes the node and rebuilds its subtree
  from the collected family.

Exactness caveat (documented, inherent): QUEST statistics are sums of
floats, so the maintained tree equals the reference QUEST tree up to
floating-point summation order.  Our tests compare structures and assert
thresholds to within a relative tolerance; all integer-count based
decisions (the impurity mode) remain bit-exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..exceptions import SplitSelectionError
from ..kernels import DEFAULT_KERNELS, KernelBackend
from ..observability import NullTracer, TraceReport, Tracer
from ..parallel import WorkerPool
from ..splits.base import CategoricalSplit, NumericSplit
from ..splits.quest import QuestSplitSelection, QuestSufficientStats
from ..storage import CLASS_COLUMN, IOStats, Schema, Table, TupleStore
from ..storage import bootstrap_resample
from ..tree import DecisionTree, Node, build_reference_tree
from .coarse import CoarseCategorical, CoarseNumeric
from .finalize import config_at_depth, graft
from .pipeline import FlatSource, SingleTree, Splits, run_pipeline
from .state import BoatNode, collect_family


class QuestBoatNode:
    """Skeleton node for the QUEST instantiation."""

    __slots__ = (
        "node_id",
        "depth",
        "criterion",
        "left",
        "right",
        "stats",
        "below_counts",
        "above_counts",
        "held",
        "family_store",
    )

    def __init__(
        self,
        node_id: int,
        depth: int,
        criterion: CoarseNumeric | CoarseCategorical | None,
        schema: Schema,
        config: BoatConfig,
        spill_dir: str | None,
        io_stats: IOStats | None,
    ):
        self.node_id = node_id
        self.depth = depth
        self.criterion = criterion
        self.left: QuestBoatNode | None = None
        self.right: QuestBoatNode | None = None
        self.stats = QuestSufficientStats.empty(schema)
        k = schema.n_classes
        if isinstance(criterion, CoarseNumeric):
            self.below_counts = np.zeros(k, dtype=np.int64)
            self.above_counts = np.zeros(k, dtype=np.int64)
            self.held = TupleStore(
                schema, config.spill_threshold_rows, spill_dir, io_stats
            )
        else:
            self.below_counts = None
            self.above_counts = None
            self.held = None
        if criterion is None:
            self.family_store = TupleStore(
                schema, config.spill_threshold_rows, spill_dir, io_stats
            )
        else:
            self.family_store = None

    @property
    def is_frontier(self) -> bool:
        return self.criterion is None

    # The same preorder walk and store teardown as the impurity skeleton.
    nodes = BoatNode.nodes
    release = BoatNode.release


@dataclass
class QuestBoatReport:
    """Diagnostics of one BOAT-QUEST construction (the phase fields mean
    what they mean on :class:`~repro.core.BoatReport`)."""

    table_size: int
    skeleton_nodes: int = 0
    frontier_nodes: int = 0
    confirmed_splits: int = 0
    frontier_completions: int = 0
    rebuilds: int = 0
    rebuild_reasons: list[str] = field(default_factory=list)
    wall_seconds: dict[str, float] = field(default_factory=dict)
    mode: str = "boat"
    io: dict[str, IOStats] = field(default_factory=dict)
    workers: int = 1
    parallel_backend: str = "serial"
    trace: TraceReport | None = None


@dataclass
class QuestBoatResult:
    tree: DecisionTree
    report: QuestBoatReport


def _intersect(
    nodes: list[Node],
    schema: Schema,
    split_config: SplitConfig,
    config: BoatConfig,
    spill_dir: str | None,
    io_stats: IOStats | None,
    ids: itertools.count,
    depth: int,
    report: QuestBoatReport,
) -> QuestBoatNode:
    report.skeleton_nodes += 1
    criterion: CoarseNumeric | CoarseCategorical | None = None
    if not any(n.is_leaf for n in nodes) and (
        split_config.max_depth is None or depth < split_config.max_depth
    ):
        splits = [n.split for n in nodes]
        first = splits[0]
        same_attr = all(
            s.attribute_index == first.attribute_index
            and type(s) is type(first)
            for s in splits
        )
        if same_attr and isinstance(first, CategoricalSplit):
            if all(s.subset == first.subset for s in splits):
                criterion = CoarseCategorical(first.attribute_index, first.subset)
        elif same_attr:
            values = np.array([s.value for s in splits], dtype=np.float64)
            low, high = float(values.min()), float(values.max())
            pad = config.interval_widening * max(
                high - low, 1e-9 * max(abs(low), abs(high), 1.0)
            )
            criterion = CoarseNumeric(first.attribute_index, low - pad, high + pad)
    node = QuestBoatNode(
        next(ids), depth, criterion, schema, config, spill_dir, io_stats
    )
    if criterion is None:
        report.frontier_nodes += 1
        return node
    node.left = _intersect(
        [n.left for n in nodes],
        schema, split_config, config, spill_dir, io_stats, ids, depth + 1, report,
    )
    node.right = _intersect(
        [n.right for n in nodes],
        schema, split_config, config, spill_dir, io_stats, ids, depth + 1, report,
    )
    return node


def _stream(
    node: QuestBoatNode,
    batch: np.ndarray,
    schema: Schema,
    kernels: KernelBackend = DEFAULT_KERNELS,
) -> None:
    if batch.size == 0:
        return
    node.stats.update(batch, kernels=kernels)
    if node.criterion is None:
        node.family_store.append(batch)
        return
    if isinstance(node.criterion, CoarseCategorical):
        go_left = node.criterion.go_left(batch, schema, kernels)
        _stream(node.left, batch[go_left], schema, kernels)
        _stream(node.right, batch[~go_left], schema, kernels)
        return
    below, held, above = node.criterion.masks(batch, schema, kernels)
    k = schema.n_classes
    node.below_counts += kernels.class_histogram(batch[CLASS_COLUMN][below], k)
    node.above_counts += kernels.class_histogram(batch[CLASS_COLUMN][above], k)
    if held.any():
        node.held.append(batch[held])
    _stream(node.left, batch[below], schema, kernels)
    _stream(node.right, batch[above], schema, kernels)


class _QuestFinalizer:
    def __init__(
        self,
        schema: Schema,
        method: QuestSplitSelection,
        config: SplitConfig,
        report: QuestBoatReport,
        tracer: Tracer | NullTracer,
    ):
        self._schema = schema
        self._method = method
        self._config = config
        self._report = report
        self._tracer = tracer
        self._ids = itertools.count()

    def run(self, root: QuestBoatNode) -> DecisionTree:
        tree = DecisionTree(
            self._schema, self._finalize(root, self._schema.empty(0))
        )
        tree.validate()
        return tree

    def _finalize(self, node: QuestBoatNode, inherited: np.ndarray) -> Node:
        stats = self._effective_stats(node, inherited)
        counts = stats.class_counts
        if node.is_frontier:
            self._report.frontier_completions += 1
            return self._build_family("frontier_completion", node, inherited)
        if (
            int(counts.sum()) < self._config.min_samples_split
            or int(np.count_nonzero(counts)) <= 1
            or (
                self._config.max_depth is not None
                and node.depth >= self._config.max_depth
            )
        ):
            return Node(next(self._ids), node.depth, counts)
        decision = self._method.decide_from_stats(stats, self._config)
        failure = self._check(node, decision, stats, inherited)
        if failure is not None:
            return self._rebuild(node, inherited, failure)
        self._report.confirmed_splits += 1
        final = Node(next(self._ids), node.depth, counts)
        left_in, right_in = self._partition(node, decision.split, inherited)
        final.make_internal(
            decision.split,
            self._finalize(node.left, left_in),
            self._finalize(node.right, right_in),
        )
        return final

    def _effective_stats(
        self, node: QuestBoatNode, inherited: np.ndarray
    ) -> QuestSufficientStats:
        if len(inherited) == 0:
            return node.stats
        merged = QuestSufficientStats.empty(self._schema)
        merged.class_counts = node.stats.class_counts.copy()
        merged.numeric_sums = node.stats.numeric_sums.copy()
        merged.numeric_sumsq = node.stats.numeric_sumsq.copy()
        merged.contingency = [c.copy() for c in node.stats.contingency]
        merged.update(inherited)
        return merged

    def _check(
        self,
        node: QuestBoatNode,
        decision,
        stats: QuestSufficientStats,
        inherited: np.ndarray,
    ) -> str | None:
        criterion = node.criterion
        if decision is None:
            return "exact QUEST decision is a leaf, coarse criterion splits"
        split = decision.split
        if split.attribute_index != criterion.attribute_index:
            name = self._schema[split.attribute_index].name
            return f"exact QUEST selection picked attribute {name}"
        if isinstance(criterion, CoarseCategorical):
            if not isinstance(split, CategoricalSplit) or (
                split.subset != criterion.subset
            ):
                return "exact QUEST categorical subset differs"
            return self._check_leaf_sizes(node, split, inherited)
        if not isinstance(split, NumericSplit):
            return "attribute kind mismatch"
        if not criterion.low <= split.value <= criterion.high:
            return (
                f"exact QDA threshold {split.value:g} outside confidence "
                f"interval [{criterion.low:g}, {criterion.high:g}]"
            )
        return self._check_leaf_sizes(node, split, inherited)

    def _check_leaf_sizes(
        self, node: QuestBoatNode, split, inherited: np.ndarray
    ) -> str | None:
        left_in, right_in = self._partition(node, split, inherited)
        n_left = self._side_total(node, split, left=True, inherited=left_in)
        n_right = self._side_total(node, split, left=False, inherited=right_in)
        min_leaf = self._config.min_samples_leaf
        if n_left < min_leaf or n_right < min_leaf:
            return "QUEST split violates min_samples_leaf"
        if n_left == 0 or n_right == 0:
            return "QUEST split produced an empty side"
        return None

    def _side_total(
        self, node: QuestBoatNode, split, left: bool, inherited: np.ndarray
    ) -> int:
        if isinstance(node.criterion, CoarseNumeric):
            base = node.below_counts if left else node.above_counts
            return int(base.sum()) + len(inherited)
        side = node.left if left else node.right
        return int(side.stats.class_counts.sum()) + len(inherited)

    def _partition(
        self, node: QuestBoatNode, split, inherited: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Tuples flowing to each child beyond what streamed there already."""
        if isinstance(node.criterion, CoarseCategorical):
            go_left = split.evaluate(inherited, self._schema)
            return inherited[go_left], inherited[~go_left]
        held = node.held.read_all()
        pool = held if len(inherited) == 0 else (
            np.concatenate([held, inherited]) if len(held) else inherited
        )
        go_left = split.evaluate(pool, self._schema)
        return pool[go_left], pool[~go_left]

    def _rebuild(
        self, node: QuestBoatNode, inherited: np.ndarray, reason: str
    ) -> Node:
        self._report.rebuilds += 1
        self._report.rebuild_reasons.append(
            f"node {node.node_id} (depth {node.depth}): {reason}"
        )
        subtree = self._build_family("rebuild", node, inherited, reason=reason)
        node.release()
        return subtree

    def _build_family(
        self, span_name: str, node: QuestBoatNode, inherited: np.ndarray, **attrs
    ) -> Node:
        """The reference QUEST subtree over the node's family, grafted in."""
        with self._tracer.span(
            span_name, node=node.node_id, depth=node.depth, **attrs
        ) as span:
            family = collect_family(node, inherited, self._schema)
            config = config_at_depth(self._config, node.depth)
            sub = build_reference_tree(family, self._schema, self._method, config)
            span.set(family_rows=len(family), nodes=sub.n_nodes, prefetch_hit=False)
        return graft(sub.root, node.depth, self._ids)


class QuestSplits(Splits):
    """QUEST as a split plug-in: bootstrap-intersect, :func:`_stream` and
    :class:`_QuestFinalizer`, streamed serially and never checkpointed.
    ``report`` is the one a single-tree build fills (forest members get
    fresh ones)."""

    boat_nodes = False

    def __init__(self, *args, report: QuestBoatReport | None = None):
        super().__init__(*args)
        self.report = report

    def pool(self, sample: np.ndarray, tracer) -> WorkerPool:
        return WorkerPool(1, "serial", tracer=tracer)

    def grow(self, sample, n_rows, rng, tracer, pool=None, durable_dir=None):
        report = self.report or QuestBoatReport(table_size=n_rows)
        config = self.boat_config
        subsample = config.bootstrap_subsample or len(sample)
        with tracer.span("sampling", bootstraps=config.bootstrap_repetitions) as span:
            roots = [
                self.build_in_memory(bootstrap_resample(sample, subsample, rng)).root
                for _ in range(config.bootstrap_repetitions)
            ]
            skeleton = _intersect(
                roots, self.schema, self.split_config, config, self.spill_dir,
                self.io, itertools.count(), 0, report,
            )
            span.set(
                skeleton_nodes=report.skeleton_nodes,
                frontier_nodes=report.frontier_nodes,
            )
        return skeleton, report

    def stream(self, root: QuestBoatNode, batch: np.ndarray) -> None:
        _stream(root, batch, self.schema, self.kernels)

    def finalize(self, root, grown: QuestBoatReport, pool, tracer):
        finalizer = _QuestFinalizer(
            self.schema, self.method, self.split_config, grown, tracer
        )
        return finalizer.run(root), grown

    @staticmethod
    def record(member, grown: QuestBoatReport, finalized) -> None:
        """Keep one forest member's diagnostics on its report."""
        member.quest = grown


def quest_boat_build(
    table: Table,
    method: QuestSplitSelection | None = None,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    spill_dir: str | None = None,
) -> QuestBoatResult:
    """Build a QUEST decision tree with the optimistic two-scan approach.

    The inherent caveat relative to the impurity mode: equality with the
    reference QUEST tree holds up to floating-point summation order of
    the sufficient statistics (see the module docstring).  The build runs
    the same pipeline as :func:`~repro.core.boat_build` — retries and
    tracing (``BoatConfig.trace``) included; a checkpoint is refused.
    """
    method = method or QuestSplitSelection()
    if not isinstance(method, QuestSplitSelection):
        raise SplitSelectionError("quest_boat_build requires QuestSplitSelection")
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    report = QuestBoatReport(table_size=len(table))
    splits = QuestSplits(
        method, table.schema, split_config, boat_config, table.io_stats,
        spill_dir, report=report,
    )
    members = SingleTree(report)
    run_pipeline(
        FlatSource(table, boat_config), members, splits, split_config,
        boat_config, span="quest_boat_build", what="QUEST construction",
    )
    return QuestBoatResult(tree=members.trees[0], report=report)
