"""The shared-scan forest driver: M bagged BOAT builds, two physical scans.

BOAT's two scans are both *streaming* passes whose per-row work is cheap
relative to reading the row — so M ensemble members can share them.  The
driver generalizes :func:`repro.core.boat_build` (and its QUEST twin)
member-wise:

* **scan 1** draws every member's in-memory sample in one pass: member
  ``m``'s sample positions are chosen inside its *resample* coordinate
  space (``choose_sample_indices`` with the member's own RNG, exactly as
  a standalone build would), mapped back to source rows through the
  cumulative resample weights, and gathered batch by batch;
* each member then runs its own sampling phase (bootstrap trees →
  skeleton intersection) on its own sample with its own RNG — in-memory
  work, no scans;
* **scan 2** is one shared cleanup scan
  (:func:`repro.core.shared_cleanup_scan`): every source batch is
  expanded through each member's weight vector (`expand_batch`, the same
  chunking a standalone :class:`~repro.forest.ResampleTable` scan
  produces) and streamed through that member's skeleton.  With a worker
  pool, members fan out across threads — skeletons are disjoint, and a
  per-batch barrier keeps each member's stream order identical at any
  worker count;
* finalization runs per member, exactly as standalone.

The per-member guarantee is the point: every member tree is
**byte-identical** to ``boat_build(ResampleTable(table, plan.weights),
..., BoatConfig(seed=plan.build_seed, ...))`` — same sample draw, same
RNG stream, same cleanup chunk boundaries (which also pins QUEST's
float-summation order), same finalization.  The differential suite
asserts this at M ∈ {1, 4, 8} for both methods and 1/2/4 workers, and
asserts ``IOStats.full_scans == 2`` for the whole forest build.

Out-of-bag accounting rides the same scan 2: rows a member's resample
never drew (weight 0) are appended to a per-member spill store as the
shared scan passes them — no third pass — and scored after finalization
(majority vote over the members for which each row is out-of-bag).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..core.bootstrap import SamplingReport
from ..core.cleanup import shared_cleanup_scan
from ..core.finalize import FinalizeReport, finalize_tree
from ..core.pipeline import FlatSource, ImpuritySplits, Members, run_pipeline
from ..core.quest_boat import QuestBoatReport, QuestSplits
from ..exceptions import SplitSelectionError, StorageError
from ..observability import NullTracer, TraceReport, Tracer
from ..parallel import WorkerPool
from ..splits.methods import ImpuritySplitSelection
from ..splits.quest import QuestSplitSelection
from ..storage import (
    CLASS_COLUMN,
    IOStats,
    Schema,
    Table,
    TupleStore,
    choose_sample_indices,
)
from .bagging import MemberPlan, expand_batch, plan_members
from .model import DecisionForest


@dataclass
class MemberReport:
    """Per-member construction diagnostics."""

    index: int
    build_seed: int
    mode: str = "boat"
    tree_nodes: int = 0
    sampling: SamplingReport | None = None
    finalize: FinalizeReport | None = None
    quest: QuestBoatReport | None = None
    oob_error: float | None = None
    oob_rows: int = 0


@dataclass
class ForestReport:
    """Diagnostics of one shared-scan forest construction.

    ``oob_error`` is the classic bagging estimate: each source row is
    voted on by exactly the members whose resample missed it, and scored
    against its true label.  ``oob_coverage`` is the fraction of source
    rows with at least one such member (≈ 1 - (1/e)^M).
    """

    table_size: int
    n_members: int
    mode: str = "boat"
    members: list[MemberReport] = field(default_factory=list)
    wall_seconds: dict[str, float] = field(default_factory=dict)
    io: dict[str, IOStats] = field(default_factory=dict)
    workers: int = 1
    parallel_backend: str = "serial"
    oob_error: float | None = None
    oob_coverage: float | None = None
    trace: TraceReport | None = None

    @property
    def total_seconds(self) -> float:
        return sum(self.wall_seconds.values())


@dataclass
class ForestResult:
    forest: DecisionForest
    report: ForestReport


def _gather_member_samples(
    table: Table,
    plans: list[MemberPlan],
    member_rngs: list[np.random.Generator],
    sample_size: int,
    batch_rows: int,
    schema: Schema,
) -> list[np.ndarray]:
    """Scan 1: every member's sample (or full resample) in one pass.

    Member ``m`` draws sample positions in its resample coordinate space
    with its own RNG — the identical draw a standalone build over
    ``ResampleTable(table, plans[m].weights)`` makes — then positions are
    mapped to source rows through the member's cumulative weights.  When
    the sample covers the resample (the in-memory switch), the member's
    full expanded resample is materialized instead, again matching the
    standalone ``read_all`` path byte for byte.
    """
    n = len(table)
    source_rows: list[np.ndarray | None] = []
    samples: list[np.ndarray | None] = []
    parts: list[list[np.ndarray]] = [[] for _ in plans]
    filled = [0] * len(plans)
    for plan, rng in zip(plans, member_rngs):
        chosen = choose_sample_indices(plan.resample_rows, sample_size, rng)
        if chosen is None:
            source_rows.append(None)  # in-memory: keep the whole resample
            samples.append(None)
        else:
            cumulative = np.cumsum(plan.weights)
            source_rows.append(
                np.searchsorted(cumulative, chosen, side="right")
            )
            samples.append(schema.empty(len(chosen)))
    offset = 0
    for batch in table.scan(batch_rows):
        hi_row = offset + len(batch)
        for m, plan in enumerate(plans):
            src = source_rows[m]
            if src is None:
                expanded = np.repeat(
                    batch, plan.weights[offset:hi_row]
                )
                if len(expanded):
                    parts[m].append(expanded)
                continue
            lo = np.searchsorted(src, offset, side="left")
            hi = np.searchsorted(src, hi_row, side="left")
            if hi > lo:
                samples[m][filled[m] : filled[m] + hi - lo] = batch[
                    src[lo:hi] - offset
                ]
                filled[m] += hi - lo
        offset = hi_row
    out = []
    for m, sample in enumerate(samples):
        if sample is None:
            out.append(
                np.concatenate(parts[m]) if parts[m] else schema.empty(0)
            )
        else:
            out.append(sample)
    return out


class _ForestMembers(Members):
    """M bagged members sharing both scans, with optional out-of-bag scoring."""

    mode = "forest"

    def __init__(
        self, report: ForestReport, plans: list[MemberPlan],
        boat_config: BoatConfig, schema: Schema, oob: bool,
    ):
        super().__init__(report)
        self.plans = plans
        self.boat_config = boat_config
        self.schema = schema
        self.oob = oob
        self.oob_stores: list[TupleStore] | None = None
        self.span_attrs = {"members": len(plans)}

    def draw(self, source: FlatSource, rng) -> int:
        # Each member draws with its own RNG, as a standalone build would.
        self.rngs = [np.random.default_rng(p.build_seed) for p in self.plans]
        self.sizes = [p.resample_rows for p in self.plans]
        config = self.boat_config
        self.samples = _gather_member_samples(
            source.scan_table, self.plans, self.rngs, config.sample_size,
            config.batch_rows, self.schema,
        )
        return sum(len(s) for s in self.samples)

    def pool(self, splits, tracer) -> WorkerPool:
        workers = self.boat_config.n_workers
        backend = "thread" if workers != 1 else "serial"
        return WorkerPool(workers, backend, tracer=tracer)

    def cleanup(self, source: FlatSource, splits, pool, tracer, checkpoint) -> None:
        config = self.boat_config
        if self.oob:
            self.oob_stores = [
                TupleStore(
                    self.schema, config.spill_threshold_rows, splits.spill_dir,
                    splits.io,
                )
                for _ in self.plans
            ]

        def member_sink(m: int):
            weights = self.plans[m].weights
            skeleton = self.skeletons[m]
            store = self.oob_stores[m] if self.oob_stores is not None else None

            def sink(batch: np.ndarray, offset: int) -> None:
                w = weights[offset : offset + len(batch)]
                for chunk in expand_batch(batch, w, config.batch_rows):
                    splits.stream(skeleton, chunk)
                if store is not None:
                    zero = w == 0
                    if zero.any():
                        store.append(batch[zero])

            return sink

        shared_cleanup_scan(
            source.scan_table,
            [member_sink(m) for m in range(len(self.plans))],
            config.batch_rows,
            pool=pool,
            tracer=tracer,
            labels=[f"member-{m}" for m in range(len(self.plans))],
        )

    def finalize(self, splits, pool, tracer) -> list:
        finished = super().finalize(splits, pool, tracer)
        for member, grown, (_, finalized) in zip(
            self.report.members, self.grown, finished
        ):
            splits.record(member, grown, finalized)
        return finished

    def finish(self, tracer, phases) -> None:
        """Out-of-bag scoring from the rows scan 2 kept: no extra scan."""
        if self.oob_stores is None:
            return
        phases.start()
        with tracer.span("oob", **self.span_attrs) as span:
            report = self.report
            _score_oob(self.forest(), self.plans, self.oob_stores, report, self.schema)
            span.set(oob_error=report.oob_error, oob_coverage=report.oob_coverage)
        phases.stop("oob")

    def forest(self) -> DecisionForest:
        seeds = [p.build_seed for p in self.plans]
        return DecisionForest(self.schema, self.trees, member_seeds=seeds)


def forest_build(
    table: Table,
    n_members: int,
    method: ImpuritySplitSelection | QuestSplitSelection | None = None,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    spill_dir: str | None = None,
    tracer: Tracer | NullTracer | None = None,
    oob: bool = False,
) -> ForestResult:
    """Build a bagged forest of ``n_members`` exact BOAT trees in two scans.

    Args:
        table: the training database D; its ``io_stats`` is charged for
            exactly two full scans regardless of ``n_members``.
        n_members: ensemble size M.
        method: :class:`~repro.splits.ImpuritySplitSelection` (default
            gini) or :class:`~repro.splits.QuestSplitSelection`.
        split_config: stopping rules — part of every member's identity.
        boat_config: BOAT knobs.  ``seed`` roots the per-member
            SeedSequence spawn; ``n_workers`` fans members across threads
            during the shared cleanup scan (output is identical at any
            worker count).  A checkpoint or SQL pushdown is refused
            (:func:`repro.core.pipeline.check_modes`).
        spill_dir: directory for temporary spill files.
        tracer: phase tracer (defaults per ``boat_config.trace``).
        oob: also compute the out-of-bag error estimate from the same
            shared scan (no extra pass).
    """
    if n_members < 1:
        raise SplitSelectionError("forest_build needs n_members >= 1")
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    method = method or ImpuritySplitSelection(
        "gini", kernels=boat_config.kernel_backend
    )
    n = len(table)
    if n < 1:
        raise SplitSelectionError("cannot build a forest over an empty table")
    report = ForestReport(table_size=n, n_members=n_members)
    plans = plan_members(boat_config.seed, n_members, n)
    report.members = [MemberReport(p.index, p.build_seed) for p in plans]
    args = (method, table.schema, split_config, boat_config, table.io_stats, spill_dir)
    if isinstance(method, QuestSplitSelection):
        splits = QuestSplits(*args)
    else:
        # This module's binding, so per-module hooks see forest finalization.
        splits = ImpuritySplits(*args, finalize=finalize_tree)
    members = _ForestMembers(report, plans, boat_config, table.schema, oob)
    run_pipeline(
        FlatSource(table, boat_config), members, splits, split_config,
        boat_config, span="forest_build", what="forest construction",
        tracer=tracer, members=n_members,
    )
    for member, tree in zip(report.members, members.trees):
        member.mode, member.tree_nodes = report.mode, tree.n_nodes
    return ForestResult(forest=members.forest(), report=report)


def _score_oob(
    forest: DecisionForest,
    plans: list[MemberPlan],
    stores: list[TupleStore],
    report: ForestReport,
    schema: Schema,
) -> None:
    """Vote each source row's out-of-bag members; score against true labels.

    The per-member rows were captured during the shared cleanup scan (in
    scan order, which matches the sorted weight-0 indices), so no table
    scan happens here.
    """
    n = report.table_size
    k = schema.n_classes
    votes = np.zeros((n, k), dtype=np.int64)
    labels = np.zeros(n, dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for m, (plan, store) in enumerate(zip(plans, stores)):
        rows = store.read_all()
        store.clear()
        idx = plan.oob_rows
        report.members[m].oob_rows = len(idx)
        if len(rows) != len(idx):  # pragma: no cover - internal invariant
            raise StorageError(
                f"member {m} OOB store holds {len(rows)} rows, "
                f"expected {len(idx)}"
            )
        if len(rows) == 0:
            report.members[m].oob_error = None
            continue
        predicted = forest.members[m].predict(rows)
        true = rows[CLASS_COLUMN].astype(np.int64)
        report.members[m].oob_error = float(np.mean(predicted != true))
        votes[idx, predicted] += 1  # idx is unique within a member
        labels[idx] = true
        seen[idx] = True
    covered = int(seen.sum())
    report.oob_coverage = covered / n if n else 0.0
    if covered == 0:
        report.oob_error = None
        return
    aggregated = votes[seen].argmax(axis=1)
    report.oob_error = float(np.mean(aggregated != labels[seen]))
