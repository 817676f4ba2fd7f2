"""Which program calls are spans, and the per-layer metrics made from them.

``install(recorder)`` wraps the public entry points of every layer the
benchmark measures (see README.md, "Layers").  ``layer_metrics`` turns the
recorded spans plus counts read from the program's own reports into the
``per_layer`` metrics of BENCHMARK.json.  A layer a workload does not run
reports 0.
"""

from __future__ import annotations

import time
from collections import defaultdict

from tracing import Recorder

#: Every per-layer metric: name -> unit.  Keep in step with BENCHMARK.json.
PER_LAYER_UNITS = {
    "storage.scan_s": "s",
    "storage.sample_s": "s",
    "storage.spill_s": "s",
    "storage.bytes_read_per_row": "B/row",
    "storage.tuples_written_per_row": "tuples/row",
    "storage.spill_files": "count",
    "storage.full_scans": "count",
    "bootstrap.s": "s",
    "bootstrap.trees": "count",
    "cleanup.s": "s",
    "cleanup.rows_per_s": "rows/s",
    "kernels.s": "s",
    "kernels.calls": "count",
    "finalize.s": "s",
    "finalize.frontier_completions": "count",
    "finalize.rebuilds": "count",
    "finalize.confirm_ratio": "ratio",
    "finalize.prefetch_hit_ratio": "ratio",
    "builder.calls": "count",
    "builder.s": "s",
    "builder.rows_per_s": "rows/s",
    "pool.wait_s": "s",
    "pool.thread2_ratio": "ratio",
    "forest.cleanup_s": "s",
    "forest.finalize_s": "s",
    "forest.oob_s": "s",
    "serve.parse_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.predict_ms": "ms",
    "serve.rows_per_batch": "rows",
    "serve.front_ms": "ms",
    "serve.publish_ms": "ms",
    "stream.apply_s": "s",
    "stream.queue_wait_s": "s",
    "stream.rebuild_updates": "count",
    "stream.patch_updates": "count",
    "incremental.finalize_s": "s",
    "loadgen.late_tail_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

_KERNEL_METHODS = (
    "class_histogram",
    "category_class_counts",
    "bucket_class_counts",
    "interval_masks",
    "subset_mask",
    "numeric_candidates",
    "distinct_class_counts",
    "weighted_impurity",
    "quest_numeric_moments",
)


def _family_rows(args, kwargs):
    family = kwargs.get("family", args[0] if args else None)
    return {"rows": len(family)} if family is not None else None


def _tree_count(args, kwargs, result):
    return {"trees": len(result)}


def _finalize_counts(report) -> dict:
    return {
        "confirmed": report.confirmed_splits,
        "completions": report.frontier_completions,
        "prefetch_hits": report.frontier_prefetch_hits,
        "rebuilds": report.rebuilds,
    }


def _finalize_result(args, kwargs, result):
    return _finalize_counts(result[1])


def _incremental_result(args, kwargs, result):
    return _finalize_counts(result)


def _batch_rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _ticket_waits(args, kwargs):
    now = time.monotonic()
    return {"waits": [now - t.enqueued for t in args[1]]}


def _popped_waits(args, kwargs, result):
    if not result:
        return None
    now = time.monotonic()
    return {"waits": [now - t.enqueued for t in result]}


def install(recorder: Recorder) -> None:
    """Wrap the entry points of every measured layer."""
    # storage: scans, the sample draw, spill files
    recorder.patch_method("repro.storage.table:DiskTable.scan",
                          "storage.scan", iterator=True)
    recorder.patch_method("repro.storage.table:DiskTable.scan_columns",
                          "storage.scan", iterator=True)
    recorder.patch_function("repro.storage.sampling:sample_table",
                            "storage.sample")
    recorder.patch_in("repro.forest.build:_gather_member_samples",
                      "storage.sample")
    for method in ("append", "read_all", "rewrite"):
        recorder.patch_method(f"repro.storage.spill:SpillFile.{method}",
                              "storage.spill")
    recorder.patch_method("repro.storage.spill:SpillFile.iter_batches",
                          "storage.spill", iterator=True)
    # core.bootstrap: sampling phase (bootstrap trees + coarse criteria)
    recorder.patch_function("repro.core.bootstrap:sampling_phase", "bootstrap")
    recorder.patch_function("repro.core.bootstrap:build_bootstrap_trees",
                            "bootstrap", observe=_tree_count)
    # core.cleanup and kernels
    recorder.patch_function("repro.core.cleanup:cleanup_scan", "cleanup")
    recorder.patch_function("repro.core.cleanup:shared_cleanup_scan", "cleanup")
    for method in _KERNEL_METHODS:
        recorder.patch_method(f"repro.kernels.vectorized:NumpyKernels.{method}",
                              "kernels")
    # core.finalize
    recorder.patch_function("repro.core.finalize:prefetch_frontier_subtrees",
                            "finalize")
    recorder.patch_function("repro.core.finalize:finalize_tree", "finalize",
                            observe=_finalize_result)
    # tree.builder
    recorder.patch_function("repro.tree.builder:build_reference_tree",
                            "builder", before=_family_rows)
    # parallel
    recorder.patch_method("repro.parallel:WorkerPool.map", "pool")
    recorder.patch_method("repro.parallel:WorkerPool.imap", "pool",
                          iterator=True)
    # forest: forest_build's own phases, around the generic spans
    recorder.patch_in("repro.forest.build:shared_cleanup_scan", "forest.cleanup")
    recorder.patch_in("repro.forest.build:finalize_tree", "forest.finalize")
    recorder.patch_in("repro.forest.build:_score_oob", "forest.oob")
    # core.incremental and stream
    for method in ("insert", "delete"):
        recorder.patch_method(f"repro.core.incremental:IncrementalBoat.{method}",
                              "stream.apply")
    recorder.patch_method("repro.core.incremental:IncrementalBoat._finalize",
                          "incremental.finalize", observe=_incremental_result)
    recorder.patch_method("repro.stream.ingest:IngestQueue.pop_run",
                          "stream.pop", observe=_popped_waits)
    # serve: parse / queue / predict / encode / publish
    for module in ("repro.serve.server", "repro.stream.server"):
        recorder.patch_json(module, "serve.parse", "serve.encode")
    recorder.patch_function("repro.serve.server:records_to_batch",
                            "serve.parse")
    recorder.patch_method("repro.serve.batcher:RequestBatcher._run_batch",
                          "serve.batch", before=_ticket_waits)
    recorder.patch_method("repro.serve.compiled:CompiledPredictor.leaf_indices",
                          "serve.predict", observe=_batch_rows)
    recorder.patch_method("repro.serve.forest:CompiledForest.leaf_indices",
                          "serve.predict", observe=_batch_rows)
    recorder.patch_method("repro.serve.registry:ModelRegistry.publish",
                          "serve.publish")


class _Agg:
    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.attrs: dict = defaultdict(float)
        self.lists: dict = defaultdict(list)


def aggregate(spans: list[tuple]) -> dict[str, _Agg]:
    out: dict[str, _Agg] = defaultdict(_Agg)
    for name, _tid, start, end, self_s, attrs in spans:
        agg = out[name]
        agg.calls += 1
        agg.total += end - start
        agg.self_s += self_s
        for key, value in (attrs or {}).items():
            if isinstance(value, list):
                agg.lists[key].extend(value)
            else:
                agg.attrs[key] += value
    return out


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(
    spans: list[tuple],
    ops: int,
    rows: int = 0,
    io=None,
    counts: dict | None = None,
) -> dict[str, float]:
    """The per-layer metrics of one traced phase.

    ``ops`` is the number of builds (or updates) the phase completed and
    ``rows`` the rows of D each build read; seconds are per op.
    ``io`` is the IOStats delta of the phase; ``counts`` carries values
    measured outside the spans (serving client latency, /stats deltas,
    generator lateness, tracing overhead).
    """
    agg = aggregate(spans)
    counts = counts or {}
    g = agg.__getitem__  # a defaultdict: a layer that did not run is empty
    per_op = lambda v: _div(v, ops)  # noqa: E731
    fin = g("finalize").attrs
    inc = g("incremental.finalize").attrs
    confirmed = fin["confirmed"] + inc["confirmed"]
    rebuilds = fin["rebuilds"] + inc["rebuilds"]
    completions = fin["completions"] + inc["completions"]
    cleanup = g("cleanup")
    builder = g("builder")
    parse_ms = 1000 * _div(g("serve.parse").total, counts.get("requests", 0))
    encode_ms = 1000 * _div(g("serve.encode").total, counts.get("requests", 0))
    waits = g("serve.batch").lists["waits"]
    queue_ms = 1000 * _div(sum(waits), len(waits))
    predict = g("serve.predict")
    predict_ms = 1000 * _div(predict.total, predict.calls)
    client_ms = counts.get("client_ms", 0.0)
    front_ms = max(0.0, client_ms - parse_ms - encode_ms - queue_ms - predict_ms)
    stream_waits = g("stream.pop").lists["waits"]
    metrics = {
        "storage.scan_s": per_op(g("storage.scan").self_s),
        "storage.sample_s": per_op(g("storage.sample").self_s),
        "storage.spill_s": per_op(g("storage.spill").self_s),
        "storage.bytes_read_per_row": _div(io.bytes_read, ops * rows) if io else 0.0,
        "storage.tuples_written_per_row":
            _div(io.tuples_written, ops * rows) if io else 0.0,
        "storage.spill_files": per_op(io.spill_files) if io else 0.0,
        "storage.full_scans": per_op(io.full_scans) if io else 0.0,
        "bootstrap.s": per_op(g("bootstrap").self_s),
        "bootstrap.trees": per_op(g("bootstrap").attrs["trees"]),
        "cleanup.s": per_op(cleanup.self_s),
        "cleanup.rows_per_s": _div(cleanup.calls * rows, cleanup.total),
        "kernels.s": per_op(g("kernels").self_s),
        "kernels.calls": per_op(g("kernels").calls),
        "finalize.s": per_op(g("finalize").self_s),
        "finalize.frontier_completions": per_op(completions),
        "finalize.rebuilds": per_op(rebuilds),
        "finalize.confirm_ratio": _div(confirmed, confirmed + rebuilds),
        "finalize.prefetch_hit_ratio": _div(
            fin["prefetch_hits"] + inc["prefetch_hits"], completions
        ),
        "builder.calls": per_op(builder.calls),
        "builder.s": per_op(builder.self_s),
        "builder.rows_per_s": _div(builder.attrs["rows"], builder.total),
        "pool.wait_s": per_op(g("pool").self_s),
        "pool.thread2_ratio": counts.get("pool_thread2_ratio", 0.0),
        "forest.cleanup_s": per_op(g("forest.cleanup").total),
        "forest.finalize_s": per_op(g("forest.finalize").total),
        "forest.oob_s": per_op(g("forest.oob").total),
        "serve.parse_ms": parse_ms,
        "serve.encode_ms": encode_ms,
        "serve.queue_wait_ms": queue_ms,
        "serve.predict_ms": predict_ms,
        "serve.rows_per_batch": _div(predict.attrs["rows"], predict.calls),
        "serve.front_ms": front_ms,
        "serve.publish_ms": 1000 * _div(g("serve.publish").total,
                                        g("serve.publish").calls),
        "stream.apply_s": _div(g("stream.apply").total, g("stream.apply").calls),
        "stream.queue_wait_s": _div(sum(stream_waits), len(stream_waits)),
        "stream.rebuild_updates": counts.get("rebuild_updates", 0),
        "stream.patch_updates": counts.get("patch_updates", 0),
        "incremental.finalize_s": _div(g("incremental.finalize").total,
                                       g("incremental.finalize").calls),
        "loadgen.late_tail_ms": counts.get("late_tail_ms", 0.0),
        "trace.overhead_ratio": counts.get("overhead_ratio", 0.0),
    }
    assert set(metrics) == set(PER_LAYER_UNITS)
    return metrics
