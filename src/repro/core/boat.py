"""The BOAT driver (§3.5): sampling phase + cleanup scan + finalization.

:func:`boat_build` constructs, from an out-of-core training table, exactly
the tree the reference builder would grow on the full data — in two scans
(one to draw the sample, one cleanup scan) plus localized rebuild work
when a coarse criterion is refuted.

The returned :class:`BoatReport` carries per-phase wall-clock times and
I/O-counter deltas so benchmarks can report both views of cost.  Pass a
:class:`~repro.observability.Tracer` (or set ``BoatConfig.trace``) to
additionally record a structured span tree — ``sample`` → ``bootstrap``
→ ``coarse`` → ``cleanup`` → ``finalize`` — whose counters make the
two-scan claim machine-checkable (see ``docs/OBSERVABILITY.md``).

The phases run in :mod:`repro.core.pipeline`, which also owns failure
hygiene (no spill files survive a failed build; ``OSError`` surfaces as
:class:`~repro.exceptions.StorageError`).

Crash safety: with ``BoatConfig.checkpoint_dir`` set the build persists
its skeleton and cleanup-scan progress as it goes (durable spill files
under the checkpoint directory deliberately *do* survive a failure —
they are the recovery state) and a killed build can be finished by
:func:`repro.recovery.resume_build`, producing a byte-identical tree.
``BoatConfig.scan_retries`` additionally absorbs transient ``IOError``s
mid-scan without failing the build at all.  See ``docs/RECOVERY.md``.
"""

from __future__ import annotations

from ..config import BoatConfig, SplitConfig
from ..observability import NullTracer, Tracer
from ..splits.methods import ImpuritySplitSelection
from ..storage import Table
from .pipeline import BoatReport, BoatResult, FlatSource, build_tree, make_build_pool

__all__ = ["BoatReport", "BoatResult", "boat_build", "make_build_pool"]


def boat_build(
    table: Table,
    method: ImpuritySplitSelection,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    spill_dir: str | None = None,
    tracer: Tracer | NullTracer | None = None,
) -> BoatResult:
    """Build the exact reference tree for ``table`` with the BOAT algorithm.

    Args:
        table: the training database D (its ``io_stats``, if any, is
            charged for every scan).
        method: an impurity-based split selection method; the output tree
            is identical to ``build_reference_tree(D, method)``.
        split_config: stopping rules (part of the tree's identity).
        boat_config: BOAT knobs (sample size, bootstraps, buckets...) —
            affect speed and rebuild frequency, never the output.
        spill_dir: directory for temporary held/family spill files.
        tracer: phase tracer; defaults to a fresh one over the table's
            I/O stats when ``boat_config.trace`` is set, else disabled.
            Tracing never changes the output tree.
    """
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    report = BoatReport(mode="boat", table_size=len(table))
    tree = build_tree(
        FlatSource(table, boat_config), method, report, split_config,
        boat_config, spill_dir, span="boat_build", what="BOAT construction",
        tracer=tracer,
    )
    return BoatResult(tree=tree, report=report)
