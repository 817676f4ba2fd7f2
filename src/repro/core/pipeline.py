"""The one BOAT build pipeline behind every build entry point.

BOAT (§3.5) is one sequence: draw a sample, grow bootstrap trees and
combine them into coarse split criteria, run one cleanup scan, then
finalize — rebuilding wherever a criterion was refuted.
:func:`run_pipeline` runs it over three seams: a *scan source* (where the
two scans run: :class:`FlatSource` or the sharded one), a *member set*
(which skeletons they feed: one tree, bagged members or folds) and a
*split plug-in* (how a skeleton is grown, streamed and finalized:
impurity or QUEST).  A resume enters after the sampling phase with the
skeleton restored from its checkpoint.  Any error releases every
held/family store, so no temporary spill file survives (durable ones
under a checkpoint directory are the recovery state).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..exceptions import ReproError, StorageError, UnsupportedModeError
from ..kernels import get_kernels
from ..observability import NULL_TRACER, NullTracer, TraceReport, Tracer
from ..parallel import WorkerPool
from ..splits.methods import ImpuritySplitSelection
from ..storage import IOStats, Schema, ShardedTable, Table, sample_table
from ..tree import DecisionTree, build_reference_tree
from .bootstrap import SamplingReport, sampling_phase
from .cleanup import cleanup_scan
from .finalize import FinalizeReport, finalize_tree, prefetch_frontier_subtrees
from .state import stream_batch
from .workers import init_build_context


@dataclass
class BoatReport:
    """Diagnostics of one static BOAT construction.

    Attributes:
        mode: "boat" for the full algorithm, "in-memory" when the table
            was no larger than the sample and BOAT switched to the
            reference builder outright.
        table_size: |D|.
        sampling / finalize: phase diagnostics (None in in-memory mode).
        wall_seconds: per-phase wall-clock times.
        io: per-phase I/O deltas (only phases that touched storage).
        workers: resolved worker count of the execution pool.
        parallel_backend: resolved backend ("serial" when workers == 1).
        trace: the phase-span trace, when tracing was enabled.
    """

    mode: str
    table_size: int
    sampling: SamplingReport | None = None
    finalize: FinalizeReport | None = None
    wall_seconds: dict[str, float] = field(default_factory=dict)
    io: dict[str, IOStats] = field(default_factory=dict)
    workers: int = 1
    parallel_backend: str = "serial"
    trace: TraceReport | None = None

    @property
    def total_seconds(self) -> float:
        return sum(self.wall_seconds.values())


@dataclass
class BoatResult:
    """A finished tree plus its construction report."""

    tree: DecisionTree
    report: BoatReport


def make_build_pool(
    sample: np.ndarray,
    schema: Schema,
    method: ImpuritySplitSelection,
    split_config: SplitConfig,
    boat_config: BoatConfig,
    tracer: Tracer | NullTracer | None = None,
) -> WorkerPool:
    """The worker pool for one BOAT build, carrying the shared build context.

    Process workers receive (sample, schema, method, split config,
    subsample size) once through the pool initializer; the thread and
    serial backends run the same initializer in the parent.  Use as a
    context manager so workers are reclaimed when the build ends.
    """
    subsample = boat_config.bootstrap_subsample or len(sample)
    return WorkerPool(
        boat_config.n_workers,
        boat_config.parallel_backend,
        initializer=init_build_context,
        initargs=(sample, schema, method, split_config, subsample),
        tracer=tracer,
    )


def resolve_tracer(tracer, boat_config: BoatConfig, io: IOStats | None):
    """The caller's tracer, else a fresh one when ``boat_config.trace`` is set."""
    if tracer is not None:
        return tracer
    return Tracer(io) if boat_config.trace else NULL_TRACER


#: Mode pairs the pipeline cannot run.  Forests and folds feed one shared
#: streamed scan of one flat table; only impurity skeletons checkpoint.
_UNSUPPORTED = {
    ("forest", "sharded"): "--forest builds share one flat-table scan; shard "
    "directories and --shards are not supported",
    ("forest", "checkpoint"): "--checkpoint/--resume is not supported for "
    "forest builds",
    ("forest", "sql_pushdown"): "--sql-pushdown applies to single-tree builds",
    ("crossval", "checkpoint"): "checkpoints are not supported for cross-validation",
    ("crossval", "sql_pushdown"): "--sql-pushdown applies to single-tree builds",
    ("quest", "checkpoint"): "--checkpoint/--resume is not supported for the "
    "QUEST driver",
}


def check_modes(
    members: str = "tree",
    *,
    quest: bool = False,
    sharded: bool = False,
    checkpoint: bool = False,
    sql_pushdown: bool = False,
) -> None:
    """Raise :class:`UnsupportedModeError` for modes the pipeline cannot combine.

    ``members`` is ``"tree"``, ``"forest"`` or ``"crossval"``."""
    flags = {"quest": quest, "sharded": sharded, "checkpoint": checkpoint,
             "sql_pushdown": sql_pushdown}
    active = {members} | {name for name, on in flags.items() if on}
    for (first, second), message in _UNSUPPORTED.items():
        if first in active and second in active:
            raise UnsupportedModeError(message)


class Splits:
    """A split plug-in: how one skeleton is grown, streamed and finalized."""

    #: The skeleton is made of BoatNodes: its cleanup scan may run on a
    #: parallel pool, push down into SQL and be checkpointed.
    boat_nodes = True

    def __init__(
        self, method, schema: Schema, split_config: SplitConfig,
        boat_config: BoatConfig, io: IOStats | None, spill_dir: str | None,
    ):
        self.method = method
        self.schema = schema
        self.split_config = split_config
        self.boat_config = boat_config
        self.io = io
        self.spill_dir = spill_dir
        self.kernels = get_kernels(boat_config.kernel_backend)

    def build_in_memory(self, family: np.ndarray) -> DecisionTree:
        return build_reference_tree(family, self.schema, self.method, self.split_config)


class ImpuritySplits(Splits):
    """The impurity plug-in: ``sampling_phase``, ``stream_batch``, ``finalize_tree``.

    ``finalize`` lets an entry point pass its own module's ``finalize_tree``
    binding, so hooks on that module (fault injection, timing) see the call."""

    def __init__(self, *args, finalize: Callable = finalize_tree):
        super().__init__(*args)
        self._finalize_tree = finalize

    def pool(self, sample: np.ndarray, tracer) -> WorkerPool:
        return make_build_pool(
            sample, self.schema, self.method, self.split_config,
            self.boat_config, tracer,
        )

    def grow(self, sample, n_rows, rng, tracer, pool=None, durable_dir=None):
        result = sampling_phase(
            sample, self.schema, self.method, self.split_config,
            self.boat_config, n_rows, rng, self.spill_dir, self.io,
            pool=pool, tracer=tracer, durable_dir=durable_dir,
        )
        return result.root, result.report

    def stream(self, root, batch: np.ndarray) -> None:
        stream_batch(root, batch, self.schema, sign=1, kernels=self.kernels)

    def finalize(self, root, grown, pool, tracer):
        prefetch = prefetch_frontier_subtrees(
            root, self.schema, self.method, self.split_config, pool
        )
        return self._finalize_tree(
            root, self.schema, self.method, self.split_config, prefetch=prefetch,
            tracer=tracer,
        )

    @staticmethod
    def record(member, grown, finalized) -> None:
        """Keep one forest member's diagnostics on its report."""
        member.sampling, member.finalize = grown, finalized


class FlatSource:
    """Both scans over one flat table: ``sample_table`` and ``cleanup_scan``.

    Scans go through the ``BoatConfig.scan_retries`` wrapper; the cleanup
    scan pushes down into SQL when asked and starts at ``start_row``,
    which a resume sets from its checkpoint.
    """

    #: Sampling-phase spill files may live in the checkpoint directory.
    durable_spill = True

    def __init__(self, table: Table, boat_config: BoatConfig):
        self.table = table
        self.boat_config = boat_config
        self.start_row = 0

    def open(self, tracer) -> None:
        from ..recovery import wrap_retry  # repro.recovery imports this module

        self.tracer = tracer
        self.scan_table = wrap_retry(self.table, self.boat_config, tracer)

    def close(self) -> None:
        pass

    def begin_checkpoint(self, checkpoint, digest: str) -> None:
        checkpoint.begin(self.table.schema, len(self.table), digest)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        config = self.boat_config
        return sample_table(self.scan_table, config.sample_size, rng, config.batch_rows)

    def cleanup(self, root, splits, pool: WorkerPool, checkpoint) -> None:
        config = self.boat_config
        cleanup_scan(
            root, self.scan_table, self.table.schema, config.batch_rows, pool,
            tracer=self.tracer,
            start_row=self.start_row,
            progress=None if checkpoint is None else checkpoint.progress_hook(root),
            kernels=splits.kernels,
            # The aggregation pushdown cannot report the row-granular
            # progress a checkpoint needs.
            sql_pushdown=(
                config.sql_pushdown and checkpoint is None and splits.boat_nodes
            ),
            stream=None if splits.boat_nodes else splits.stream,
        )
        if checkpoint is not None:
            # Fully accumulated: a crash during finalization resumes with
            # zero scan rows to re-read.
            checkpoint.checkpoint_cleanup(root, len(self.table))


class Members:
    """The skeletons one build grows and feeds: one per tree, bag or fold.

    ``draw`` fills, per member, ``samples``, ``sizes`` (the rows of its
    training set) and ``rngs``; subclasses add ``cleanup``.
    """

    mode = "tree"
    span_attrs: dict = {}
    #: The build pool carries the sample's build context, so bootstrap
    #: and frontier prefetch may run on it.
    context_pool = False

    def __init__(self, report):
        self.report = report
        self.skeletons: list = []
        self.grown: list = []
        self.finalized: list = []
        self.trees: list[DecisionTree] = []

    def fits_in_memory(self, n_rows: int) -> bool:
        return len(self.samples[0]) >= n_rows

    def build_in_memory(self, splits) -> None:
        self.trees = [splits.build_in_memory(sample) for sample in self.samples]

    def pool(self, splits, tracer) -> WorkerPool:
        return WorkerPool(1, "serial", tracer=tracer)

    def grow(self, splits, tracer, pool, durable_dir) -> None:
        pool = pool if self.context_pool else None
        for sample, n_rows, rng in zip(self.samples, self.sizes, self.rngs):
            root, grown = splits.grow(sample, n_rows, rng, tracer, pool, durable_dir)
            self.skeletons.append(root)
            self.grown.append(grown)

    def finalize(self, splits, pool, tracer) -> list:
        pool = pool if self.context_pool else None
        finished = [
            splits.finalize(root, grown, pool, tracer)
            for root, grown in zip(self.skeletons, self.grown)
        ]
        self.trees = [tree for tree, _ in finished]
        self.finalized = [report for _, report in finished]
        return finished

    def finish(self, tracer, phases) -> None:
        pass

    def release(self) -> None:
        for root in self.skeletons:
            root.release()


class SingleTree(Members):
    """One tree: every single-tree build and resume."""

    context_pool = True

    def draw(self, source, rng: np.random.Generator) -> int:
        self.samples = [source.sample(rng)]
        self.sizes, self.rngs = [len(source.table)], [rng]
        return len(self.samples[0])

    def pool(self, splits, tracer) -> WorkerPool:
        return splits.pool(self.samples[0], tracer)

    def cleanup(self, source, splits, pool, tracer, checkpoint) -> None:
        source.cleanup(self.skeletons[0], splits, pool, checkpoint)


class Phases:
    """Per-phase wall time and I/O deltas, recorded into a report."""

    def __init__(self, report, io: IOStats | None):
        self._report, self._io = report, io

    def start(self) -> None:
        self._t0 = time.perf_counter()
        self._before = self._io.snapshot() if self._io is not None else None

    def stop(self, name: str) -> None:
        self._report.wall_seconds[name] = time.perf_counter() - self._t0
        if self._io is not None:
            self._report.io[name] = self._io.delta_since(self._before)


def run_pipeline(
    source,
    members: Members,
    splits: Splits,
    split_config: SplitConfig,
    boat_config: BoatConfig,
    /,
    *,
    span: str,
    what: str,
    tracer: Tracer | NullTracer | None = None,
    restore: Callable | None = None,
    **span_attrs,
) -> None:
    """Run BOAT's phases over ``source`` for ``members``, into ``members.report``.

    ``span`` names the outer trace span (``span_attrs`` join its
    ``table_size``); ``what`` names the build in a translated I/O error.
    With ``restore(checkpoint, outer_span) -> skeleton`` the build
    resumes: the sampling phase is skipped.
    """
    from ..recovery import CheckpointManager, build_digest

    table = source.table
    check_modes(
        members.mode,
        quest=not splits.boat_nodes,
        sharded=isinstance(table, ShardedTable),
        checkpoint=bool(boat_config.checkpoint_dir),
        sql_pushdown=boat_config.sql_pushdown,
    )
    report, n_rows = members.report, len(table)
    tracer = resolve_tracer(tracer, boat_config, table.io_stats)
    phases = Phases(report, table.io_stats)
    source.open(tracer)
    checkpoint = None
    try:
        if boat_config.checkpoint_dir:
            checkpoint = CheckpointManager(
                boat_config.checkpoint_dir,
                boat_config.checkpoint_every_batches,
                tracer,
            )
            if restore is None:
                digest = build_digest(table.schema, n_rows, split_config, boat_config)
                source.begin_checkpoint(checkpoint, digest)
        with tracer.span(span, table_size=n_rows, **span_attrs) as outer:
            phases.start()
            if restore is not None:
                members.skeletons, members.grown = [restore(checkpoint, outer)], [None]
                phases.stop("restore")
                pool = WorkerPool(boat_config.n_workers, "thread", tracer=tracer)
            else:
                rng = np.random.default_rng(boat_config.seed)
                with tracer.span(
                    "sample",
                    requested_rows=boat_config.sample_size,
                    **members.span_attrs,
                ) as sample_span:
                    sample_span.set(sample_rows=members.draw(source, rng))
                if members.fits_in_memory(n_rows):
                    # D fits in the sample: the paper's in-memory switch
                    # applies at the root; run the reference builder.
                    with tracer.span("in_memory_build"):
                        members.build_in_memory(splits)
                    phases.stop("in_memory_build")
                    report.mode = "in-memory"
                    pool = None
                else:
                    pool = members.pool(splits, tracer)
            if pool is not None:
                with pool:
                    if restore is None:
                        durable = checkpoint is not None and source.durable_spill
                        members.grow(
                            splits, tracer, pool,
                            checkpoint.spill_dir if durable else None,
                        )
                        phases.stop("sampling")
                        if checkpoint is not None:
                            # The skeleton is immutable from here on;
                            # persisting it makes every later crash resumable.
                            checkpoint.save_skeleton(members.skeletons[0])
                    phases.start()
                    members.cleanup(source, splits, pool, tracer, checkpoint)
                    phases.stop("cleanup_scan")
                    phases.start()
                    with tracer.span("finalize", **members.span_attrs) as fin:
                        # Frontier prefetch needs the pool's sample, which
                        # died with a resumed build's predecessor.
                        done = members.finalize(
                            splits, None if restore else pool, tracer
                        )
                        fin.set(
                            confirmed_splits=sum(r.confirmed_splits for _, r in done),
                            frontier_completions=sum(
                                r.frontier_completions for _, r in done),
                            rebuilds=sum(r.rebuilds for _, r in done),
                            tree_nodes=sum(t.n_nodes for t, _ in done),
                        )
                    phases.stop("finalize")
                    report.workers = pool.n_workers
                    report.parallel_backend = pool.backend
                members.finish(tracer, phases)
    except ReproError:
        raise
    except OSError as exc:
        # A device/file error mid-build must not surface as a raw OSError
        # with a half-built skeleton behind it.
        raise StorageError(f"I/O failure during {what}: {exc}") from exc
    finally:
        members.release()
        source.close()
    if checkpoint is not None:
        checkpoint.finish()  # only a successful build consumes its checkpoint
    if tracer.enabled:
        report.trace = tracer.report()


def build_tree(
    source,
    method: ImpuritySplitSelection,
    report: BoatReport,
    split_config: SplitConfig,
    boat_config: BoatConfig,
    spill_dir: str | None = None,
    finalize: Callable = finalize_tree,
    **kwargs,
) -> DecisionTree:
    """One impurity tree through :func:`run_pipeline`; fills ``report``."""
    table = source.table
    splits = ImpuritySplits(
        method, table.schema, split_config, boat_config, table.io_stats,
        spill_dir, finalize=finalize,
    )
    members = SingleTree(report)
    run_pipeline(source, members, splits, split_config, boat_config, **kwargs)
    if members.finalized:
        report.sampling, report.finalize = members.grown[0], members.finalized[0]
    return members.trees[0]
