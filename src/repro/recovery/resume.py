"""Resume a killed checkpointed build and finish the identical tree.

:func:`resume_build` is the counterpart of
:func:`repro.core.boat_build` for a process that died mid-build with
``BoatConfig.checkpoint_dir`` set.  It restores the persisted skeleton
and (if the crash happened during the cleanup scan) the checkpointed
per-node statistics and durable spill files, re-runs the cleanup scan
from the checkpointed offset, and finalizes.  Because the skeleton is
immutable once saved and store row order equals table scan order, the
resumed build's tree is *byte-identical* to what the uninterrupted build
would have produced — at any worker count and even with a different
batch size than the crashed process used.

What resume re-reads: only the rows between the last checkpoint and the
end of the table.  The sample scan is never repeated — the skeleton it
produced is already on disk — so total distinct-tuple I/O across the
crashed and resumed processes stays at the two-scan bound, plus the
re-read tail bounded by ``checkpoint_every_batches * batch_rows`` rows
of the crashed process.

Guard rails: the checkpoint's configuration digest must match the
resuming process's (schema, table size, :class:`SplitConfig`, and every
skeleton-shaping BOAT knob) — resuming under a configuration that would
define a different tree raises :class:`~repro.exceptions.RecoveryError`
instead of quietly producing a hybrid.

Limitations: a crash *before* the skeleton checkpoint (during the
sampling phase) leaves nothing worth resuming — the sampling phase reads
one scan and keeps all state in memory — so resume refuses and the build
should simply be restarted.  Frontier prefetch is skipped on resume (the
in-memory sample died with the predecessor); prefetch is a speed
optimization that never changes the tree.
"""

from __future__ import annotations

import os

from ..config import BoatConfig, SplitConfig
from ..core.finalize import finalize_tree
from ..core.pipeline import BoatReport, BoatResult, FlatSource, build_tree
from ..exceptions import RecoveryError
from ..observability import NullTracer, Tracer
from ..splits.methods import ImpuritySplitSelection
from ..storage import Schema, Table
from .checkpoint import (
    PHASE_COMPLETE,
    CheckpointState,
    build_digest,
    load_checkpoint,
    restore_cleanup_state,
    restore_skeleton,
)


def check_resumable(
    state: CheckpointState,
    schema: Schema,
    table_rows: int,
    split_config: SplitConfig,
    boat_config: BoatConfig,
) -> None:
    """Refuse a checkpoint that cannot finish *this* build's tree."""
    if state.phase == PHASE_COMPLETE:
        raise RecoveryError(
            f"checkpoint {boat_config.checkpoint_dir} records a completed "
            "build; nothing to resume"
        )
    if state.skeleton is None:
        raise RecoveryError(
            "the build died before its skeleton was checkpointed (sampling "
            "phase); restart it from scratch — there is no state to save"
        )
    digest = build_digest(schema, table_rows, split_config, boat_config)
    recorded = state.meta.get("config_digest")
    if digest != recorded:
        raise RecoveryError(
            "configuration digest mismatch: the checkpoint was written under "
            "a different schema/table/configuration than this resume "
            f"(checkpoint {recorded}, resume {digest}); resuming would not "
            "reproduce the original tree"
        )


def resume_build(
    table: Table,
    method: ImpuritySplitSelection,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> BoatResult:
    """Finish a checkpointed build that a previous process started.

    Args:
        table: the same training database the crashed build was scanning.
        method: the same split selection method.
        split_config / boat_config: the same configuration the crashed
            build used (``boat_config.checkpoint_dir`` names the
            checkpoint); tree-defining mismatches are refused via the
            config digest.  Speed-only knobs (workers, batch size,
            retries) may differ freely.
        tracer: phase tracer, resolved exactly as in ``boat_build``.

    Returns:
        A :class:`~repro.core.BoatResult` whose tree is byte-identical to
        the uninterrupted build's.  ``report.sampling`` is ``None`` — the
        sampling diagnostics died with the original process.
    """
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    if not boat_config.checkpoint_dir:
        raise RecoveryError(
            "resume_build requires BoatConfig.checkpoint_dir to name the "
            "checkpoint directory to resume from"
        )
    state = load_checkpoint(boat_config.checkpoint_dir)
    if state.sharded is not None:
        # A sharded coordinator wrote this checkpoint: hand off to the
        # elastic resume (unit-level restore, replica failover).  The
        # returned ShardedBoatResult shares the .tree/.report surface.
        from ..shard.elastic import resume_sharded_build

        return resume_sharded_build(
            table, method, split_config, boat_config, tracer=tracer
        )
    schema = table.schema
    check_resumable(state, schema, len(table), split_config, boat_config)
    source = FlatSource(table, boat_config)

    def restore(checkpoint, span):
        root = restore_skeleton(
            state.skeleton, schema, boat_config, table.io_stats,
            checkpoint.spill_dir,
        )
        if state.cleanup is not None:
            source.start_row = restore_cleanup_state(
                root, state.cleanup, schema, boat_config, table.io_stats,
                checkpoint.spill_dir,
            )
        span.set(start_row=source.start_row)
        return root

    report = BoatReport(mode="boat", table_size=len(table))
    tree = build_tree(
        source, method, report, split_config, boat_config,
        finalize=finalize_tree, span="boat_resume", what="BOAT resume",
        tracer=tracer, restore=restore,
        checkpoint=os.fspath(boat_config.checkpoint_dir),
    )
    return BoatResult(tree=tree, report=report)
