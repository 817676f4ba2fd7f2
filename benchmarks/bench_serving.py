"""Serving-path benchmarks: compiled kernel vs recursive routing, batcher latency.

Four experiments:

* **Compiled predictor throughput** — one 1M-row batch (scaled by
  ``REPRO_BENCH_SCALE``) pushed through the recursive ``Node`` walk and
  the compiled array kernel.  The outputs are asserted identical; at
  full scale the compiled path must clear the 3x acceptance floor.

* **Small batches** — the same two paths at 1, 16 and 256 rows, the
  sizes a serving request carries; the median per-call time of each is
  recorded.  The compiled kernel visits only the nodes a batch reaches,
  so its cost follows the batch, not the tree size.

* **Batcher latency** — a stream of small requests through the
  :class:`~repro.serve.RequestBatcher`; the recorded row carries the
  p50/p99 latency summary the serving layer reports.

* **HTTP keep-alive closed loop** — 16-row ``POST /predict`` requests
  sent one after another on one ``http.client`` connection to a
  :class:`~repro.serve.PredictionServer`; p50 and requests/s.

Every series is appended to ``bench_results.jsonl`` by the shared
collector.
"""

from __future__ import annotations

import http.client
import json
import statistics
import time

import numpy as np

from repro.bench import RunResult, WorkloadSpec, scaled
from repro.config import SplitConfig
from repro.serve import (
    ModelRegistry,
    PredictionServer,
    RequestBatcher,
    ServeConfig,
)
from repro.splits import ImpuritySplitSelection
from repro.tree import build_reference_tree

N_SERVE_ROWS = scaled(1_000_000)
N_TRAIN_ROWS = scaled(100_000)
SPEC = WorkloadSpec(function_id=5, n_tuples=N_SERVE_ROWS, noise=0.1, seed=9)


def _build_model():
    generator = SPEC.generator()
    train = generator.generate(N_TRAIN_ROWS)
    tree = build_reference_tree(
        train,
        generator.schema,
        ImpuritySplitSelection("gini"),
        SplitConfig(
            min_samples_split=max(N_TRAIN_ROWS // 500, 20),
            min_samples_leaf=max(N_TRAIN_ROWS // 2000, 5),
            max_depth=12,
        ),
    )
    return generator, tree


def _result(algorithm: str, tree, seconds: float, rows: int, **extra) -> RunResult:
    return RunResult(
        algorithm=algorithm,
        workload=SPEC.describe(),
        n_tuples=rows,
        wall_seconds=seconds,
        scans=0,
        tuples_read=rows,
        tree_nodes=tree.n_nodes,
        tree_leaves=tree.n_leaves,
        extra={"rows_per_s": rows / max(seconds, 1e-9), **extra},
    )


def test_compiled_vs_recursive_throughput(collector):
    generator, tree = _build_model()
    batch = generator.generate(N_SERVE_ROWS)
    predictor = tree.compile()

    # Warm both paths (page in the batch, JIT numpy internals) off-clock.
    tree.predict(batch[:10_000])
    predictor.predict(batch[:10_000])

    start = time.perf_counter()
    recursive = tree.predict(batch)
    recursive_s = time.perf_counter() - start

    start = time.perf_counter()
    compiled = predictor.predict(batch)
    compiled_s = time.perf_counter() - start

    assert np.array_equal(recursive, compiled), "serving kernel diverged"
    speedup = recursive_s / max(compiled_s, 1e-9)
    print(
        f"\nrouting {N_SERVE_ROWS} rows through {tree.n_nodes} nodes: "
        f"recursive {recursive_s:.3f}s "
        f"({N_SERVE_ROWS / recursive_s:,.0f} rows/s), "
        f"compiled {compiled_s:.3f}s "
        f"({N_SERVE_ROWS / compiled_s:,.0f} rows/s) -> {speedup:.2f}x"
    )
    collector.add(
        "Serving: compiled kernel vs recursive routing (1M-row batch)",
        "path",
        "recursive",
        _result("Recursive-route", tree, recursive_s, N_SERVE_ROWS),
    )
    collector.add(
        "Serving: compiled kernel vs recursive routing (1M-row batch)",
        "path",
        "compiled",
        _result(
            "Compiled-route", tree, compiled_s, N_SERVE_ROWS, speedup=speedup
        ),
    )
    if N_SERVE_ROWS >= 1_000_000:
        assert speedup >= 3.0, (
            f"compiled predictor {speedup:.2f}x below the 3x acceptance floor"
        )


def _median_call_s(fn, batch, reps: int) -> tuple[float, float]:
    """(median, total) seconds of ``reps`` timed ``fn(batch)`` calls."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn(batch)
        times.append(time.perf_counter() - start)
    return statistics.median(times), sum(times)


def test_compiled_vs_recursive_small_batches(collector):
    generator, tree = _build_model()
    predictor = tree.compile()
    experiment = "Serving: compiled vs recursive routing by batch size"
    for size in (1, 16, 256):
        batch = generator.generate(size)
        assert np.array_equal(predictor.predict(batch), tree.predict(batch))
        reps = max(2048 // size, 50)
        recursive_s, recursive_total = _median_call_s(tree.predict, batch, reps)
        compiled_s, compiled_total = _median_call_s(
            predictor.predict, batch, reps
        )
        speedup = recursive_s / max(compiled_s, 1e-12)
        print(
            f"\n{size:>3}-row batch through {tree.n_nodes} nodes: "
            f"recursive {recursive_s * 1e3:.3f}ms, "
            f"compiled {compiled_s * 1e3:.3f}ms -> {speedup:.2f}x"
        )
        collector.add(
            experiment,
            "batch rows",
            size,
            _result("Recursive-route", tree, recursive_total, size * reps,
                    p50_ms=recursive_s * 1e3, calls=float(reps)),
        )
        collector.add(
            experiment,
            "batch rows",
            size,
            _result("Compiled-route", tree, compiled_total, size * reps,
                    p50_ms=compiled_s * 1e3, calls=float(reps),
                    speedup=speedup),
        )


def test_http_keep_alive_closed_loop(collector):
    generator, tree = _build_model()
    registry = ModelRegistry()
    registry.publish(tree)
    request_rows = 16
    n_requests = max(scaled(200_000) // 1000, 50)
    requests = generator.generate(request_rows * n_requests)
    names = [a.name for a in tree.schema]
    expected = tree.predict(requests)
    config = ServeConfig(max_delay_ms=1.0)
    latencies = []
    with PredictionServer(registry, config, port=0) as server:
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            start = time.perf_counter()
            for i in range(n_requests):
                lo, hi = i * request_rows, (i + 1) * request_rows
                body = json.dumps({"records": [
                    [float(row[name]) for name in names]
                    for row in requests[lo:hi]
                ]}).encode("utf-8")
                sent = time.perf_counter()
                conn.request("POST", "/predict", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                labels = json.loads(response.read())["labels"]
                latencies.append(time.perf_counter() - sent)
                assert labels == [int(v) for v in expected[lo:hi]]
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
    p50_ms = statistics.median(latencies) * 1e3
    requests_per_s = n_requests / elapsed
    print(
        f"\nHTTP keep-alive: {n_requests} x {request_rows}-row requests on "
        f"one connection, p50 {p50_ms:.2f}ms, {requests_per_s:,.0f} req/s"
    )
    collector.add(
        "Serving: HTTP keep-alive closed loop (16-row requests)",
        "path",
        "http",
        _result(
            "HTTP-keep-alive",
            tree,
            elapsed,
            request_rows * n_requests,
            p50_ms=p50_ms,
            requests_per_s=requests_per_s,
        ),
    )


def test_batcher_latency(collector):
    generator, tree = _build_model()
    registry = ModelRegistry()
    registry.publish(tree)
    request_rows = 512
    n_requests = max(scaled(200_000) // request_rows, 50)
    requests = generator.generate(request_rows * n_requests)
    config = ServeConfig(max_batch_size=8192, max_delay_ms=1.0)

    # Closed-loop load with a bounded in-flight window, so the generator
    # respects the queue's backpressure instead of tripping it.
    window = config.queue_capacity // (2 * request_rows)
    start = time.perf_counter()
    with RequestBatcher(registry, config) as batcher:
        in_flight: list = []
        for i in range(n_requests):
            if len(in_flight) >= window:
                in_flight.pop(0).result(timeout=60.0)
            in_flight.append(
                batcher.submit(
                    requests[i * request_rows : (i + 1) * request_rows]
                )
            )
        for ticket in in_flight:
            ticket.result(timeout=60.0)
        stats = batcher.stats()
    elapsed = time.perf_counter() - start

    latency = stats["latency"]
    total_rows = stats["rows"]
    assert stats["requests"] == n_requests
    assert stats["timeouts"] == 0
    print(
        f"\nbatcher: {n_requests} requests x {request_rows} rows in "
        f"{stats['batches']} batches, {elapsed:.3f}s "
        f"({total_rows / elapsed:,.0f} rows/s), "
        f"p50 {latency['p50_ms']}ms p99 {latency['p99_ms']}ms"
    )
    collector.add(
        "Serving: request batcher latency",
        "path",
        "batcher",
        _result(
            "Batcher",
            tree,
            elapsed,
            total_rows,
            p50_ms=latency["p50_ms"],
            p99_ms=latency["p99_ms"],
            batches=float(stats["batches"]),
        ),
    )
