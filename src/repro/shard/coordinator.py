"""The sharded BOAT build coordinator.

:func:`sharded_boat_build` reproduces :func:`repro.core.boat.boat_build`
over a :class:`~repro.storage.ShardedTable`, phase by phase, with the two
table scans distributed to the shards:

1. **sample** — the coordinator makes the *identical* global index draw
   the single-table build would make
   (:func:`repro.storage.choose_sample_indices` consumes the shared RNG
   exactly once) and ships each shard its index sub-range; per-shard
   gathers concatenated in shard order reproduce the single-table sample
   byte for byte under range placement.
2. **bootstrap / coarse** — unchanged: the sampling phase runs centrally
   on the in-memory sample with the same RNG stream, producing the same
   skeleton.
3. **cleanup** — the frozen skeleton is serialized (reusing the recovery
   layer's checkpoint format) to every shard, each shard scans locally
   (at the build's worker count), and the returned mergeable statistics
   are folded into the master skeleton in shard order under a ``merge``
   span; per-shard ``shard_scan`` spans carry each shard's private I/O.
4. **finalize** — unchanged: the existing exact finalization runs on the
   merged skeleton, so the output tree is **byte-identical** to the
   single-table build (``docs/SHARDING.md`` gives the full argument).

Kernel backend: ``BoatConfig.kernel_backend`` travels inside the shipped
``boat_config`` of every cleanup request, so each shard's local scan runs
on the same :mod:`repro.kernels` backend as a flat build would, while the
central sampling/finalization phases use the backend carried by
``method`` — both backends are bit-identical, so the distributed
guarantee is unaffected by the switch.

Failure hygiene matches the single-table driver: shard verdicts are ORed
into a single clean :class:`~repro.exceptions.ShardError`, the master
skeleton's stores are released on every exit path, and the coordinator's
scratch directory (where in-process/local shard workers spill) is swept
even when a shard server was killed mid-scan — no spill litter survives
a failed build.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..core.pipeline import BoatReport, build_tree
from ..exceptions import ShardError
from ..observability import NullTracer, Tracer
from ..recovery.checkpoint import serialize_skeleton
from ..splits.methods import ImpuritySplitSelection
from ..storage import IOStats, ShardedTable, choose_sample_indices
from ..tree import DecisionTree
from .elastic import (
    ElasticDispatcher,
    ElasticPolicy,
    whole_shard_units,
)
from .stats import ShardScanResult, ShardVerdict, merge_shard_stats
from .transport import ShardTransport, make_transport
from .worker import cleanup_request, sample_request


@dataclass
class ShardReport:
    """Shard-level diagnostics of one distributed build."""

    n_shards: int
    transport: str
    placement: str
    shard_rows: tuple[int, ...]
    #: Per-shard I/O accumulated by this build's requests (sample gather +
    #: cleanup scan) — the per-shard two-scan invariant lives here.
    shard_io: list[IOStats] = field(default_factory=list)
    #: Merged in-interval split-candidate count per numeric-criterion
    #: node (``node_id`` → distinct values across shards).
    candidate_counts: dict[int, int] = field(default_factory=dict)
    verdicts: list[ShardVerdict] = field(default_factory=list)
    #: Elastic-dispatch diagnostics: failure-triggered relaunches,
    #: straggler backups, and late duplicate results discarded under
    #: first-result-wins (see ``repro.shard.elastic``).
    failovers: int = 0
    speculative_launches: int = 0
    duplicates_discarded: int = 0
    #: Resume diagnostics: completed units restored from the checkpoint.
    restored_units: int = 0
    resumed: bool = False


@dataclass
class ShardedBoatResult:
    """A finished tree plus construction and shard diagnostics."""

    tree: DecisionTree
    report: BoatReport
    shard_report: ShardReport


def _shard_offsets(shard_rows: tuple[int, ...]) -> list[int]:
    offsets = [0]
    for rows in shard_rows:
        offsets.append(offsets[-1] + rows)
    return offsets


class ShardedSource:
    """Both scans over a :class:`ShardedTable`, distributed to the shards.

    A fresh build dispatches one whole-shard cleanup unit per shard; a
    resume passes its checkpointed ``(lo, hi, result)`` units as
    ``restored`` and its restore step sets ``units`` to the complement.
    """

    #: Shard workers spill into scratch; the master skeleton keeps no
    #: durable spill files.
    durable_spill = False

    def __init__(
        self, table: ShardedTable, boat_config: BoatConfig,
        transport: ShardTransport | str, spill_dir: str | None,
        shard_simulated_mbps: float | None, elastic: ElasticPolicy | None,
        restored: list[tuple[int, int, ShardScanResult]] | None = None,
    ):
        manifest = table.manifest
        self.table = table
        self.boat_config = boat_config
        self.policy = elastic if elastic is not None else ElasticPolicy()
        self.offsets = _shard_offsets(manifest.shard_rows)
        self.units = whole_shard_units(self.offsets)
        self.restored = restored or []
        self.report = ShardReport(
            n_shards=manifest.n_shards,
            transport=transport if isinstance(transport, str) else transport.name,
            placement=manifest.placement,
            shard_rows=manifest.shard_rows,
            shard_io=[IOStats() for _ in range(manifest.n_shards)],
            resumed=restored is not None,
            restored_units=len(self.restored),
        )
        self.transport = transport
        self._spill_dir = spill_dir
        self._simulated_mbps = shard_simulated_mbps

    def open(self, tracer: Tracer | NullTracer) -> None:
        self.tracer = tracer
        self._own_transport = isinstance(self.transport, str)
        if self._own_transport:
            self.transport = make_transport(self.transport, self.table.shard_paths)
        self.scratch = tempfile.mkdtemp(prefix="boat-shard-", dir=self._spill_dir)

    def close(self) -> None:
        if self._own_transport:
            self.transport.close()
        # The scratch directory also holds whatever a killed local shard
        # worker spilled before dying: sweeping it here is what makes the
        # kill-one-shard drill leave zero spill files behind.
        shutil.rmtree(self.scratch, ignore_errors=True)

    def begin_checkpoint(self, checkpoint, digest: str) -> None:
        manifest = self.table.manifest
        checkpoint.begin_sharded(
            self.table.schema, len(self.table), digest, manifest.placement,
            manifest.schema_digest,
        )

    def _dispatch(self, units: list, requests: list[dict], on_result=None):
        """Run one phase's units through the elastic dispatcher.

        Verdicts and elastic counters land on the report even when
        dispatch fails — a unit whose placements were all exhausted leaves
        its ``ok=False`` verdict behind for the caller's diagnostics.
        """
        dispatcher = ElasticDispatcher(
            units, self.transport, self.table.shard_paths,
            self.table.replica_paths, self.policy, self.tracer,
        )
        try:
            return dispatcher.run(requests, on_result=on_result)
        finally:
            report = self.report
            report.verdicts.extend(dispatcher.verdicts)
            report.failovers += dispatcher.failovers
            report.speculative_launches += dispatcher.speculative_launches
            report.duplicates_discarded += dispatcher.duplicates_discarded

    def _charge(self, shard_id: int, rows: int, io: IOStats) -> None:
        """Fold one shard scan's I/O into the counters and the trace.

        The delta merges three ways: into the table's per-shard private
        counters, into the report's per-shard totals, and into the
        experiment's shared instance with ``full_scans`` zeroed — the
        sharded table records one *logical* full scan per phase
        (:meth:`_finish_phase`).
        """
        delta = io.snapshot()
        self.table.shard_io_stats[shard_id].merge(delta)
        self.report.shard_io[shard_id].merge(delta)
        if self.table.io_stats is not None:
            delta.full_scans = 0
            self.table.io_stats.merge(delta)
        if self.tracer.enabled:
            span = self.tracer.worker_span("shard_scan", shard=shard_id, rows=rows)
            span.add_io(io)
            self.tracer.attach(span)

    def _finish_phase(self) -> None:
        if self.table.io_stats is not None:
            self.table.io_stats.record_full_scan()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """The sampling-phase draw, executed shard-locally.

        Consumes the shared RNG exactly as
        :func:`repro.storage.sample_known_size` would (one global draw, or
        none at all when the sample covers the table), so the downstream
        bootstrap sees an identical RNG stream.
        """
        config, manifest = self.boat_config, self.table.manifest
        if config.sample_size <= 0:
            return self.table.schema.empty(0)
        chosen = choose_sample_indices(len(self.table), config.sample_size, rng)
        requests = []
        for shard_id in range(manifest.n_shards):
            lo, hi = self.offsets[shard_id], self.offsets[shard_id + 1]
            local = (
                None if chosen is None else chosen[(chosen >= lo) & (chosen < hi)] - lo
            )
            requests.append(
                sample_request(
                    shard_id, local, config.batch_rows, manifest.schema_digest,
                    manifest.shard_rows[shard_id],
                )
            )
        parts = []
        for response in self._dispatch(whole_shard_units(self.offsets), requests):
            rows = response["rows"]
            self._charge(response["shard_id"], len(rows), response["io"])
            if len(rows):
                parts.append(rows)
        self._finish_phase()
        if not parts:
            return self.table.schema.empty(0)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def cleanup(self, root, splits, pool, checkpoint) -> None:
        """Dispatch the units, then merge restored + fresh statistics."""
        manifest, n, units = self.table.manifest, len(self.table), self.units
        with self.tracer.span(
            "shard_cleanup", shards=manifest.n_shards, units=len(units)
        ):
            skeleton = serialize_skeleton(root)
            requests = [
                cleanup_request(
                    unit.shard_id, skeleton, self.boat_config,
                    self.boat_config.batch_rows, manifest.schema_digest,
                    manifest.shard_rows[unit.shard_id], spill_dir=self.scratch,
                    simulated_mbps=self._simulated_mbps,
                    start_row=unit.local_start, stop_row=unit.local_stop,
                )
                for unit in units
            ]
            on_result = None
            if checkpoint is not None:

                def on_result(index: int, response: dict) -> None:
                    unit = units[index]
                    checkpoint.checkpoint_unit(unit.lo, unit.hi, response["result"])

            ordered = [(lo, result) for lo, _, result in self.restored]
            responses = self._dispatch(units, requests, on_result)
            for unit, response in zip(units, responses):
                scan = response["result"]
                ordered.append((unit.lo, scan))
                self._charge(unit.shard_id, scan.rows_scanned, scan.io)
            if not self.report.resumed:
                self._finish_phase()
            # Merge in global row order — under range placement exactly the
            # flat scan order, so held and frontier rows concatenate
            # byte-identically.
            scans = [scan for _, scan in sorted(ordered, key=lambda pair: pair[0])]
            scanned = sum(scan.rows_scanned for scan in scans)
            if scanned != n:
                raise ShardError(
                    f"shards scanned {scanned} rows in total, expected {n}"
                )
            with self.tracer.span("merge", shards=len(scans)) as merge_span:
                candidates = merge_shard_stats(root, scans)
                self.report.candidate_counts = {
                    node_id: int(values.size) for node_id, values in candidates.items()
                }
                merge_span.set(nodes_merged=sum(len(scan.nodes) for scan in scans))


def sharded_boat_build(
    table: ShardedTable,
    method: ImpuritySplitSelection,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    spill_dir: str | None = None,
    tracer: Tracer | NullTracer | None = None,
    transport: ShardTransport | str = "inprocess",
    shard_simulated_mbps: float | None = None,
    elastic: ElasticPolicy | None = None,
) -> ShardedBoatResult:
    """Build the exact single-table BOAT tree from a sharded database.

    Args:
        table: the sharded training database.  Under ``range`` placement
            the output tree is byte-identical to
            ``boat_build(unsharded_table, ...)`` with the same
            configuration; under ``hash`` placement it is byte-identical
            to the single-table build over the table in sharded scan
            order.
        transport: a :class:`~repro.shard.transport.ShardTransport`, or
            one of ``"inprocess"`` / ``"process"`` to construct (and
            close) a local one.  TCP requires a constructed
            :class:`~repro.shard.rpc.TcpTransport` (the coordinator does
            not know where the servers live).
        shard_simulated_mbps: per-shard simulated device throughput for
            the cleanup scan (benchmarks and failure drills).
        elastic: the :class:`~repro.shard.elastic.ElasticPolicy` for
            failover/speculation (default: failover on — a shard that
            dies mid-scan is retried on its replicas and then re-read
            from the source partition; the build only fails when every
            placement of a unit is exhausted).
        Everything else matches :func:`repro.core.boat.boat_build`.

    When ``boat_config.checkpoint_dir`` is set, the build is crash-safe:
    the skeleton and every completed per-shard cleanup unit are persisted
    as they land, and a SIGKILL'd coordinator finishes byte-identically
    via :func:`~repro.shard.elastic.resume_sharded_build` (or plain
    :func:`repro.recovery.resume_build`, which delegates).
    """
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    source = ShardedSource(
        table, boat_config, transport, spill_dir, shard_simulated_mbps, elastic
    )
    report = BoatReport(mode="boat-sharded", table_size=len(table))
    tree = build_tree(
        source, method, report, split_config, boat_config, spill_dir,
        span="sharded_build", what="sharded build", tracer=tracer,
        shards=table.manifest.n_shards,
    )
    return ShardedBoatResult(tree, report, source.report)
