"""HTTP front-end tests: an in-process server driven with urllib.

The server binds an ephemeral port on localhost; every test speaks real
HTTP.  The exactness check at the bottom is the load-smoke invariant the
CI step also enforces: whatever the server returns must equal the
offline ``tree.predict`` on the same records.
"""

from __future__ import annotations

import http.client
import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.exceptions import ServeError
from repro.serve import (
    ModelRegistry,
    PredictionServer,
    ServeConfig,
    records_to_batch,
)
from repro.serve import server as server_module
from repro.splits.base import NumericSplit
from repro.storage import Attribute, Schema
from repro.tree import DecisionTree
from repro.tree.model import Node

SCHEMA = Schema(
    [Attribute.numerical("x"), Attribute.categorical("c", 3)], n_classes=2
)


def threshold_tree() -> DecisionTree:
    """predict = 0 iff x <= 0.5 (class counts make proba informative)."""
    root = Node(0, 0, np.array([6, 4]))
    left = Node(1, 1, np.array([6, 0]))
    right = Node(2, 1, np.array([0, 4]))
    root.make_internal(NumericSplit(0, 0.5), left, right)
    return DecisionTree(SCHEMA, root)


def post(url: str, payload: dict, timeout: float = 10.0):
    """POST JSON; returns (status, parsed body) without raising on 4xx/5xx."""
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(url: str, timeout: float = 10.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def server():
    registry = ModelRegistry()
    registry.publish(threshold_tree())
    config = ServeConfig(max_batch_size=256, max_delay_ms=1.0)
    with PredictionServer(registry, config, port=0) as running:
        yield running


class TestRecordsToBatch:
    def test_dict_records(self):
        batch = records_to_batch(SCHEMA, [{"x": 0.25, "c": 2}])
        assert batch["x"][0] == 0.25
        assert batch["c"][0] == 2
        assert batch["class_label"][0] == 0

    def test_array_records_in_schema_order(self):
        batch = records_to_batch(SCHEMA, [[0.25, 2], [0.75, 0]])
        assert list(batch["x"]) == [0.25, 0.75]
        assert list(batch["c"]) == [2, 0]

    def test_empty_records(self):
        assert len(records_to_batch(SCHEMA, [])) == 0

    def test_missing_column_names_record_and_column(self):
        with pytest.raises(ServeError, match=r"record 1 is missing column 'c'"):
            records_to_batch(SCHEMA, [{"x": 1.0, "c": 0}, {"x": 2.0}])

    def test_non_numeric_value_names_record_and_column(self):
        with pytest.raises(ServeError, match=r"record 0 column 'x'"):
            records_to_batch(SCHEMA, [{"x": "high", "c": 0}])

    def test_wrong_arity_array_record(self):
        with pytest.raises(ServeError, match=r"record 0 has 3 values"):
            records_to_batch(SCHEMA, [[1.0, 2, 3]])

    def test_non_record_entry(self):
        with pytest.raises(ServeError, match=r"record 0 must be"):
            records_to_batch(SCHEMA, ["nope"])

    def test_records_must_be_a_list(self):
        with pytest.raises(ServeError, match="JSON array"):
            records_to_batch(SCHEMA, {"x": 1})

    def test_float_codes_truncate_toward_zero(self):
        batch = records_to_batch(SCHEMA, [[0.0, 2.7], [1.0, -0.5], [2, True]])
        assert list(batch["c"]) == [2, 0, 1]
        assert list(batch["x"]) == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize(
        "code", [float("nan"), float("inf"), 2**31, -(2**31) - 1, 1e10]
    )
    def test_code_outside_int32_is_named(self, code):
        with pytest.raises(
            ServeError, match=r"record 1 column 'c' is not an int32 code"
        ):
            records_to_batch(SCHEMA, [[0.0, 1], [0.0, code]])

    def test_int32_bounds_accepted(self):
        batch = records_to_batch(SCHEMA, [[0.0, 2**31 - 1], [0.0, -(2**31)]])
        assert list(batch["c"]) == [2**31 - 1, -(2**31)]

    def test_integer_too_large_for_float_is_named(self):
        with pytest.raises(
            ServeError, match=r"record 1 column 'x' is out of range"
        ):
            records_to_batch(SCHEMA, [[0.0, 1], [10**400, 1]])

    def test_matches_per_value_assignment(self):
        """Column-wise storage equals storing each value on its own."""
        rng = np.random.default_rng(11)
        records = [
            [float(x), int(c)] if i % 2 else {"x": int(x * 1000), "c": float(c)}
            for i, (x, c) in enumerate(
                zip(rng.normal(0, 1e6, 300), rng.integers(-5, 9, 300))
            )
        ]
        expected = SCHEMA.empty(len(records))
        expected["class_label"] = 0
        for i, record in enumerate(records):
            values = record if isinstance(record, list) else [
                record["x"], record["c"]
            ]
            expected["x"][i], expected["c"][i] = values
        assert records_to_batch(SCHEMA, records).tobytes() == expected.tobytes()


class TestRecordsToBatchWithLabel:
    """The ``require_label=True`` mode feeding streaming training updates."""

    def test_dict_records_carry_the_label(self):
        batch = records_to_batch(
            SCHEMA, [{"x": 0.25, "c": 2, "class_label": 1}], require_label=True
        )
        assert batch["class_label"][0] == 1

    def test_array_records_list_the_label_last(self):
        batch = records_to_batch(SCHEMA, [[0.25, 2, 1]], require_label=True)
        assert batch["x"][0] == 0.25
        assert batch["class_label"][0] == 1

    def test_missing_label_names_record_and_column(self):
        # Regression: the naive record["class_label"] lookup raised a bare
        # KeyError that lost the offending column name; the error must be
        # a ServeError naming record and column on every path.
        with pytest.raises(
            ServeError, match=r"record 1 is missing column 'class_label'"
        ):
            records_to_batch(
                SCHEMA,
                [{"x": 1.0, "c": 0, "class_label": 0}, {"x": 2.0, "c": 1}],
                require_label=True,
            )

    def test_missing_predictor_still_named_in_label_mode(self):
        with pytest.raises(ServeError, match=r"record 0 is missing column 'c'"):
            records_to_batch(
                SCHEMA, [{"x": 1.0, "class_label": 0}], require_label=True
            )

    def test_nan_label_rejected_by_name(self):
        with pytest.raises(
            ServeError, match=r"record 0 column 'class_label' is not an integer"
        ):
            records_to_batch(
                SCHEMA,
                [{"x": 1.0, "c": 0, "class_label": float("nan")}],
                require_label=True,
            )

    def test_fractional_label_rejected(self):
        with pytest.raises(ServeError, match=r"not an integer label"):
            records_to_batch(SCHEMA, [[1.0, 2, 0.5]], require_label=True)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(
            ServeError, match=r"record 0 column 'class_label' is out of range"
        ):
            records_to_batch(
                SCHEMA, [{"x": 1.0, "c": 0, "class_label": 2}], require_label=True
            )

    def test_integral_float_label_accepted(self):
        batch = records_to_batch(SCHEMA, [[1.0, 2, 1.0]], require_label=True)
        assert batch["class_label"][0] == 1

    def test_arity_counts_the_label(self):
        with pytest.raises(ServeError, match=r"record 0 has 2 values"):
            records_to_batch(SCHEMA, [[1.0, 2]], require_label=True)


class TestPredictEndpoint:
    def test_labels_with_dict_records(self, server):
        status, body = post(
            server.url + "/predict",
            {"records": [{"x": 0.0, "c": 0}, {"x": 1.0, "c": 1}]},
        )
        assert status == 200
        assert body["labels"] == [0, 1]
        assert body["rows"] == 2
        assert body["version"] == 1

    def test_labels_with_array_records(self, server):
        status, body = post(
            server.url + "/predict", {"records": [[0.5, 0], [0.500001, 0]]}
        )
        assert status == 200
        assert body["labels"] == [0, 1]  # x <= 0.5 routes left

    def test_proba(self, server):
        status, body = post(
            server.url + "/predict",
            {"records": [{"x": 0.0, "c": 0}], "proba": True},
        )
        assert status == 200
        assert body["proba"] == [[1.0, 0.0]]
        assert "labels" not in body

    def test_bad_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/predict",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400
        assert "JSON" in json.loads(excinfo.value.read())["error"]

    def test_missing_records_key_is_400(self, server):
        status, body = post(server.url + "/predict", {"rows": []})
        assert status == 400
        assert "records" in body["error"]

    def test_missing_column_is_400_and_names_it(self, server):
        status, body = post(server.url + "/predict", {"records": [{"x": 1.0}]})
        assert status == 400
        assert "'c'" in body["error"]

    def test_post_unknown_path_is_404(self, server):
        status, body = post(server.url + "/nope", {"records": []})
        assert status == 404

    def test_get_unknown_path_is_404(self, server):
        status, _ = get(server.url + "/predict-but-get")
        assert status == 404

    def test_empty_records_round_trip(self, server):
        status, body = post(server.url + "/predict", {"records": []})
        assert status == 200
        assert body["labels"] == []
        assert body["rows"] == 0


class TestOperationalEndpoints:
    def test_healthz_ok(self, server):
        status, body = get(server.url + "/healthz")
        assert status == 200
        assert body == {"status": "ok", "version": 1}

    def test_healthz_503_before_first_publish(self):
        registry = ModelRegistry()
        with pytest.raises(ServeError):
            PredictionServer(registry).start()  # fail fast: nothing to serve

    def test_stats_endpoint(self, server):
        post(server.url + "/predict", {"records": [{"x": 0.1, "c": 0}]})
        status, body = get(server.url + "/stats")
        assert status == 200
        assert body["requests"] >= 1
        assert body["model_version"] == 1
        for stage in ("latency", "queue_wait", "predict"):
            assert set(body[stage]) == {
                "count", "mean_ms", "p50_ms", "p99_ms", "max_ms"
            }
        assert body["queue_wait"]["count"] == body["requests"]
        assert body["predict"]["count"] == body["batches"]

    def test_served_requests_counter(self, server):
        before = server.served_requests
        post(server.url + "/predict", {"records": [{"x": 0.1, "c": 0}]})
        assert server.served_requests == before + 1
        # failed requests do not count
        post(server.url + "/predict", {"records": [{"x": 1.0}]})
        assert server.served_requests == before + 1

    def test_port_property_requires_running_server(self):
        registry = ModelRegistry()
        registry.publish(threshold_tree())
        stopped = PredictionServer(registry)
        with pytest.raises(ServeError):
            _ = stopped.port


class TestHotSwapOverHttp:
    def test_publish_changes_served_version(self):
        registry = ModelRegistry()
        registry.publish(threshold_tree())
        config = ServeConfig(max_batch_size=64, max_delay_ms=1.0)
        with PredictionServer(registry, config) as server:
            _, body = post(
                server.url + "/predict", {"records": [{"x": 0.0, "c": 0}]}
            )
            assert body["version"] == 1
            registry.publish(threshold_tree())
            _, body = post(
                server.url + "/predict", {"records": [{"x": 0.0, "c": 0}]}
            )
            assert body["version"] == 2


class TestExactAgreementWithOffline:
    def test_http_labels_equal_offline_predict(self, server):
        """The CI load-smoke invariant: online == offline, exactly."""
        rng = np.random.default_rng(5)
        n = 200
        records = [
            {"x": float(x), "c": int(c)}
            for x, c in zip(rng.normal(0.5, 0.4, n), rng.integers(0, 3, n))
        ]
        status, body = post(server.url + "/predict", {"records": records})
        assert status == 200
        offline = threshold_tree().predict(records_to_batch(SCHEMA, records))
        assert body["labels"] == [int(v) for v in offline]

    def test_http_proba_equal_offline_predict_proba(self, server):
        records = [{"x": 0.2, "c": 1}, {"x": 0.9, "c": 2}]
        status, body = post(
            server.url + "/predict", {"records": records, "proba": True}
        )
        assert status == 200
        offline = threshold_tree().predict_proba(
            records_to_batch(SCHEMA, records)
        )
        assert np.array_equal(np.array(body["proba"]), offline)


class _CountingConnection:
    """Stands in for the accepted socket and counts what is sent on it."""

    def __init__(self, sock: socket.socket, log: dict):
        self._sock = sock
        self._log = log

    def sendall(self, data, *args):
        self._log["writes"].append(len(data))
        return self._sock.sendall(data, *args)

    def send(self, data, *args):
        self._log["writes"].append(len(data))
        return self._sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestOneWriteResponses:
    """Each response leaves in one write on a ``TCP_NODELAY`` socket.

    Head and body in separate writes make the body wait, with Nagle on,
    for the client's delayed ACK (~40 ms) on a keep-alive connection.
    """

    @pytest.fixture()
    def connections(self, monkeypatch):
        logs: list[dict] = []
        setup = server_module._Handler.setup

        def counting_setup(handler):
            log = {"writes": []}
            logs.append(log)
            handler.request = _CountingConnection(handler.request, log)
            setup(handler)
            log["nodelay"] = handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY
            )

        monkeypatch.setattr(server_module._Handler, "setup", counting_setup)
        return logs

    def _one_request(self, server, method: str, path: str, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            data = None if body is None else json.dumps(body).encode("utf-8")
            conn.request(method, path, body=data)
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        return response.status, payload

    @pytest.mark.parametrize(
        "method,path,body,status",
        [
            ("POST", "/predict", {"records": [[0.1, 0], [0.9, 1]]}, 200),
            ("POST", "/predict", {"records": [{"x": 1.0}]}, 400),
            ("GET", "/healthz", None, 200),
            ("GET", "/stats", None, 200),
            ("GET", "/nope", None, 404),
        ],
    )
    def test_response_is_one_write(
        self, server, connections, method, path, body, status
    ):
        got, _ = self._one_request(server, method, path, body)
        assert got == status
        (log,) = connections
        assert len(log["writes"]) == 1, log
        assert log["nodelay"] != 0

    def test_keep_alive_requests_match_local_predict(self, server):
        """50 requests on one keep-alive connection, each exact."""
        tree = threshold_tree()
        rng = np.random.default_rng(23)
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            for _ in range(50):
                records = [
                    [float(x), int(c)]
                    for x, c in zip(
                        rng.normal(0.5, 0.4, 16), rng.integers(0, 3, 16)
                    )
                ]
                conn.request(
                    "POST",
                    "/predict",
                    body=json.dumps({"records": records}).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                assert response.status == 200
                assert not response.will_close
                body = json.loads(response.read())
                expected = tree.predict(records_to_batch(SCHEMA, records))
                assert body["labels"] == [int(v) for v in expected]
        finally:
            conn.close()
