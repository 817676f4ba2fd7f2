"""Request-batcher tests: coalescing, backpressure, timeouts, draining.

Everything runs against an in-process :class:`ModelRegistry` with tiny
constant trees, so behavior (which rows went into which batch, which
model version served them) is observable exactly.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.exceptions import ReproError, ServeError
from repro.observability import Tracer
from repro.serve import ModelRegistry, RequestBatcher, ServeConfig
from repro.serve import batcher as batcher_module
from repro.storage import Attribute, Schema
from repro.tree import DecisionTree
from repro.tree.model import Node

N_CLASSES = 4
SCHEMA = Schema([Attribute.numerical("x")], n_classes=N_CLASSES)


def constant_tree(label: int) -> DecisionTree:
    counts = np.zeros(N_CLASSES, dtype=np.int64)
    counts[label] = 10
    return DecisionTree(SCHEMA, Node(0, 0, counts))


def rows(n: int) -> np.ndarray:
    batch = SCHEMA.empty(n)
    batch["x"] = np.linspace(0, 1, max(n, 1))[:n]
    batch["class_label"] = 0
    return batch


def make_registry(label: int = 1) -> ModelRegistry:
    registry = ModelRegistry()
    registry.publish(constant_tree(label))
    return registry


class TestServeConfigValidation:
    def test_defaults_are_valid(self):
        config = ServeConfig()
        assert config.max_batch_size == 1024
        assert config.queue_capacity == 65536

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_delay_ms": -1.0},
            {"queue_capacity": 0},
            {"default_timeout_s": 0.0},
            {"default_timeout_s": -2.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_timeout_none_means_wait_forever(self):
        assert ServeConfig(default_timeout_s=None).default_timeout_s is None


class TestBasicServing:
    def test_predict_round_trip(self):
        with RequestBatcher(make_registry(2)) as batcher:
            labels = batcher.predict(rows(10))
            assert list(labels) == [2] * 10

    def test_proba_round_trip(self):
        with RequestBatcher(make_registry(3)) as batcher:
            proba = batcher.predict(rows(5), proba=True)
            expected = np.zeros((5, N_CLASSES))
            expected[:, 3] = 1.0
            assert np.array_equal(proba, expected)

    def test_proba_default_from_config(self):
        config = ServeConfig(proba=True)
        with RequestBatcher(make_registry(0), config) as batcher:
            assert batcher.predict(rows(2)).shape == (2, N_CLASSES)
            # explicit override still wins
            assert batcher.predict(rows(2), proba=False).shape == (2,)

    def test_ticket_reports_serving_version(self):
        registry = make_registry(1)
        with RequestBatcher(registry) as batcher:
            ticket = batcher.submit(rows(3))
            ticket.result()
            assert ticket.version == 1
            registry.publish(constant_tree(2))
            ticket = batcher.submit(rows(3))
            assert list(ticket.result()) == [2] * 3
            assert ticket.version == 2

    def test_empty_request(self):
        with RequestBatcher(make_registry()) as batcher:
            assert batcher.predict(rows(0)).shape == (0,)

    def test_results_sliced_back_per_request(self):
        """Coalesced requests each get exactly their own rows back."""
        config = ServeConfig(max_batch_size=64, max_delay_ms=50.0)
        with RequestBatcher(make_registry(1), config) as batcher:
            tickets = [batcher.submit(rows(n)) for n in (1, 7, 3, 0, 12)]
            for n, ticket in zip((1, 7, 3, 0, 12), tickets):
                assert ticket.result(timeout=5.0).shape == (n,)


class TestCoalescing:
    def test_requests_coalesce(self):
        """Back-to-back small requests share kernel calls."""
        config = ServeConfig(max_batch_size=1000, max_delay_ms=500.0)
        with RequestBatcher(make_registry(), config) as batcher:
            tickets = [batcher.submit(rows(10)) for _ in range(8)]
            for ticket in tickets:
                ticket.result(timeout=5.0)
            stats = batcher.stats()
        assert stats["requests"] == 8
        assert stats["rows"] == 80
        # All eight land within one 500 ms coalescing window (a second
        # batch would mean the window closed in between — allow one split
        # on a heavily loaded machine, but coalescing must have happened).
        assert stats["batches"] <= 2

    def test_max_batch_size_splits_batches(self):
        config = ServeConfig(max_batch_size=25, max_delay_ms=200.0)
        with RequestBatcher(make_registry(), config) as batcher:
            tickets = [batcher.submit(rows(10)) for _ in range(8)]
            for ticket in tickets:
                ticket.result(timeout=5.0)
            stats = batcher.stats()
        assert stats["requests"] == 8
        # The coalescing loop stops adding once >= 25 rows are gathered,
        # so no batch exceeds 34 rows: 80 rows need at least 3 batches.
        assert stats["batches"] >= 3

    def test_max_delay_dispatches_underfull_batch(self):
        config = ServeConfig(max_batch_size=10_000, max_delay_ms=5.0)
        with RequestBatcher(make_registry(), config) as batcher:
            start = time.monotonic()
            assert list(batcher.predict(rows(1))) == [1]
            assert time.monotonic() - start < 2.0  # did not wait for 10k rows

    def test_one_model_version_per_request(self):
        """Hot-swapping while submitting: every request's rows are served
        by exactly one published model, and the reported version matches
        the labels that came back."""
        registry = make_registry(0)
        published = {1: 0}
        config = ServeConfig(max_batch_size=8, max_delay_ms=5.0)
        with RequestBatcher(registry, config) as batcher:
            tickets = []
            for i in range(1, 13):
                label = i % N_CLASSES
                model = registry.publish(constant_tree(label))
                published[model.version] = label
                tickets.append(batcher.submit(rows(5)))
            for ticket in tickets:
                labels = ticket.result(timeout=5.0)
                assert len(set(labels)) == 1  # no torn request
                assert published[ticket.version] == labels[0]


class TestFailureModes:
    def test_backpressure_raises_429(self):
        # 60 s delay + 16-row trigger: nothing dispatches until 16 rows
        # are queued, so the capacity check is deterministic.
        config = ServeConfig(
            max_batch_size=16, max_delay_ms=60_000.0, queue_capacity=20
        )
        with RequestBatcher(make_registry(), config) as batcher:
            first = batcher.submit(rows(15))
            with pytest.raises(ServeError) as excinfo:
                batcher.submit(rows(10))  # 25 > 20: rejected
            assert excinfo.value.http_status == 429
            assert "backpressure" in str(excinfo.value)
            assert batcher.stats()["rejected"] == 1
            second = batcher.submit(rows(1))  # 16 rows: triggers dispatch
            assert list(first.result(timeout=5.0)) == [1] * 15
            assert list(second.result(timeout=5.0)) == [1] * 1
        assert batcher.stats()["queued_rows"] == 0

    def test_capacity_frees_after_dispatch(self):
        config = ServeConfig(queue_capacity=20, max_delay_ms=1.0)
        with RequestBatcher(make_registry(), config) as batcher:
            for _ in range(5):  # 75 rows total through a 20-row queue
                assert batcher.predict(rows(15)).shape == (15,)

    def test_result_timeout_raises_504(self):
        # The dispatcher coalesces for 500 ms; a 50 ms result() wait on a
        # lone request must time out first.
        config = ServeConfig(max_batch_size=100, max_delay_ms=500.0)
        with RequestBatcher(make_registry(), config) as batcher:
            ticket = batcher.submit(rows(2))
            with pytest.raises(ServeError) as excinfo:
                ticket.result(timeout=0.05)
            assert excinfo.value.http_status == 504
            assert "timed out" in str(excinfo.value)
            # The request itself is still served once the window closes.
            assert list(ticket.result(timeout=5.0)) == [1, 1]

    def test_queue_expired_request_failed_by_dispatcher(self):
        # A 10 ms request inside a 300 ms coalescing window is already
        # expired when the dispatcher finally runs the batch: the
        # dispatcher fails it (504) rather than serving a stale answer.
        config = ServeConfig(max_batch_size=100, max_delay_ms=300.0)
        with RequestBatcher(make_registry(), config) as batcher:
            stale = batcher.submit(rows(2), timeout=0.01)
            with pytest.raises(ServeError) as excinfo:
                stale.result(timeout=5.0)
            assert excinfo.value.http_status == 504
            assert batcher.stats()["timeouts"] == 1

    def test_submit_before_start_raises_503(self):
        batcher = RequestBatcher(make_registry())
        with pytest.raises(ServeError) as excinfo:
            batcher.submit(rows(1))
        assert excinfo.value.http_status == 503

    def test_submit_after_close_raises_503(self):
        batcher = RequestBatcher(make_registry())
        with batcher:
            pass
        with pytest.raises(ServeError) as excinfo:
            batcher.submit(rows(1))
        assert excinfo.value.http_status == 503

    def test_empty_registry_fails_requests_with_503(self):
        with RequestBatcher(ModelRegistry()) as batcher:
            with pytest.raises(ServeError) as excinfo:
                batcher.predict(rows(3))
        assert excinfo.value.http_status == 503

    def test_serve_error_is_a_repro_error(self):
        assert issubclass(ServeError, ReproError)
        assert ServeError("x").http_status == 400
        assert ServeError("x", http_status=429).http_status == 429

    def test_double_start_raises(self):
        with RequestBatcher(make_registry()) as batcher:
            with pytest.raises(ServeError):
                batcher.start()


class TestShutdownAndStats:
    def test_close_drains_accepted_requests(self):
        """Requests racing with close() are served, not dropped."""
        batcher = RequestBatcher(
            make_registry(2), ServeConfig(max_delay_ms=200.0)
        )
        batcher.start()
        tickets = [batcher.submit(rows(4)) for _ in range(10)]
        batcher.close()  # immediate close: the drain path must serve them
        for ticket in tickets:
            assert list(ticket.result(timeout=1.0)) == [2] * 4

    def test_close_is_idempotent(self):
        batcher = RequestBatcher(make_registry())
        batcher.start()
        batcher.close()
        batcher.close()

    def test_stats_shape(self):
        with RequestBatcher(make_registry()) as batcher:
            batcher.predict(rows(7))
            stats = batcher.stats()
        assert stats["requests"] == 1
        assert stats["rows"] == 7
        assert stats["model_version"] == 1
        latency = stats["latency"]
        assert latency["count"] == 1
        for key in ("mean_ms", "p50_ms", "p99_ms", "max_ms"):
            assert latency[key] >= 0.0

    def test_concurrent_submitters(self):
        config = ServeConfig(max_batch_size=64, max_delay_ms=1.0)
        errors: list[BaseException] = []

        def client(batcher: RequestBatcher) -> None:
            try:
                for _ in range(20):
                    assert list(batcher.predict(rows(3))) == [1] * 3
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with RequestBatcher(make_registry(), config) as batcher:
            threads = [
                threading.Thread(target=client, args=(batcher,))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = batcher.stats()
        assert not errors, errors
        assert stats["requests"] == 80
        assert stats["rows"] == 240

    def test_stage_summaries(self):
        with RequestBatcher(make_registry()) as batcher:
            for _ in range(3):
                batcher.predict(rows(5))
            stats = batcher.stats()
        shape = set(stats["latency"])
        assert set(stats["queue_wait"]) == set(stats["predict"]) == shape
        assert stats["queue_wait"]["count"] == 3
        assert stats["predict"]["count"] == stats["batches"] == 3
        # A request's latency is its queue wait plus its batch's predict.
        assert (
            stats["queue_wait"]["max_ms"] <= stats["latency"]["max_ms"]
        )
        assert stats["predict"]["max_ms"] <= stats["latency"]["max_ms"]

    def test_latency_window_is_bounded_and_counts_cumulative(
        self, monkeypatch
    ):
        monkeypatch.setattr(batcher_module, "STATS_WINDOW", 4)
        config = ServeConfig(max_batch_size=1)  # one request per batch
        with RequestBatcher(make_registry(), config) as batcher:
            for _ in range(10):
                batcher.predict(rows(2))
            stats = batcher.stats()
            kept = (len(batcher._latencies), len(batcher._queue_waits),
                    len(batcher._predict_times))
        assert kept == (4, 4, 4)
        assert stats["latency"]["count"] == stats["requests"] == 10
        assert stats["queue_wait"]["count"] == 10
        assert stats["predict"]["count"] == stats["batches"] == 10

    def test_stats_snapshot_while_dispatcher_appends(self):
        config = ServeConfig(max_batch_size=1, max_delay_ms=0.0)
        stop = threading.Event()
        errors: list[BaseException] = []

        def poll(batcher: RequestBatcher) -> None:
            try:
                while not stop.is_set():
                    batcher.stats()
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with RequestBatcher(make_registry(), config) as batcher:
            poller = threading.Thread(target=poll, args=(batcher,))
            poller.start()
            try:
                tickets = [batcher.submit(rows(1)) for _ in range(300)]
                for ticket in tickets:
                    ticket.result(timeout=10.0)
            finally:
                stop.set()
                poller.join()
            stats = batcher.stats()
        assert not errors, errors
        assert stats["latency"]["count"] == 300


class TestBatcherTracing:
    def test_serve_span_attached_on_close(self):
        tracer = Tracer()
        batcher = RequestBatcher(make_registry(), tracer=tracer)
        with batcher:
            batcher.predict(rows(6))
        serve = tracer.report().find("serve")
        assert serve is not None
        assert serve.attributes["requests"] == 1
        batch_span = serve.find("serve_batch")
        assert batch_span is not None
        assert batch_span.attributes["rows"] == 6
        assert batch_span.attributes["model_version"] == 1
        request = batch_span.find("serve_request")
        assert request is not None
        assert request.attributes["rows"] == 6
