"""A thin HTTP front end over the registry + batcher.

Stdlib-only (``http.server``): the serving story must work in the same
no-extra-dependencies environment as the rest of the library.  Each
handler thread parses JSON into a structured batch, submits it to the
shared :class:`~repro.serve.RequestBatcher`, and blocks on its ticket —
so HTTP concurrency feeds the coalescing batcher naturally.

Endpoints:

``POST /predict``
    Body ``{"records": [...]}`` where each record is either an object
    keyed by attribute name or an array in schema order (predictors
    only).  Optional ``"proba": true`` returns class distributions.
    Response ``{"labels": [...], "version": n, "rows": n}`` (or
    ``"proba"``).  Errors map :class:`~repro.exceptions.ServeError`'s
    ``http_status``: 400 malformed, 429 backpressure, 503 no model,
    504 timeout.

``GET /healthz``
    ``{"status": "ok", "version": n}`` — 503 before the first publish.

``GET /stats``
    The batcher's cumulative statistics, with ``latency``, ``queue_wait``
    and ``predict`` percentile summaries.

Each response is sent in one socket write on a ``TCP_NODELAY`` socket,
so a keep-alive client never waits on its own delayed ACK.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..exceptions import ReproError, SchemaError, ServeError
from ..observability import NullTracer, Tracer
from ..storage import CLASS_COLUMN, Schema
from .batcher import RequestBatcher, ServeConfig
from .registry import ModelRegistry


def _record_value(record: dict, i: int, name: str):
    """One field of a dict record, with the column *named* on absence.

    Centralizing the lookup keeps the "missing field" failure mode a
    named :class:`ServeError` on every path — a bare ``record[name]``
    would surface as a ``KeyError`` that loses the offending column
    name in the HTTP error body.
    """
    try:
        return record[name]
    except KeyError:
        raise ServeError(f"record {i} is missing column {name!r}") from None


#: Open bounds of the floats that truncate into an int32 code column.
_INT32_LOW = float(np.iinfo(np.int32).min) - 1.0
_INT32_HIGH = float(np.iinfo(np.int32).max) + 1.0


def _fits_float(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def records_to_batch(
    schema: Schema, records: list, require_label: bool = False
) -> np.ndarray:
    """Build a structured batch from JSON records (dicts or arrays).

    With ``require_label=False`` (inference) each record carries the
    predictor attributes only and the label column is zeroed; with
    ``require_label=True`` (streaming training updates) every record
    must also carry an integer ``class_label`` in ``[0, n_classes)`` —
    array records list it last.  Raises :class:`ServeError` naming the
    offending record/column on malformed input; categorical predictor
    codes are *not* range-checked against the domain here (unseen codes
    route right in the kernel), but they must fit the int32 code column,
    and labels are range-checked, since they feed training statistics.

    Records are validated one by one, then each column is stored with
    one vectorized assignment rather than one numpy scalar per value.
    """
    if not isinstance(records, list):
        raise ServeError("'records' must be a JSON array")
    names = [a.name for a in schema]
    columns = names + [CLASS_COLUMN] if require_label else names
    rows: list = []
    for i, record in enumerate(records):
        if isinstance(record, dict):
            try:
                values = [record[name] for name in columns]
            except KeyError:
                values = [_record_value(record, i, name) for name in columns]
        elif isinstance(record, list):
            if len(record) != len(columns):
                raise ServeError(
                    f"record {i} has {len(record)} values; expected "
                    f"{len(columns)} ({len(names)} predictor attributes"
                    + (" + the label)" if require_label else ")")
                )
            values = record
        else:
            raise ServeError(f"record {i} must be an object or an array")
        for name, value in zip(columns, values):
            if not isinstance(value, (int, float)):
                raise ServeError(
                    f"record {i} column {name!r} is not a number: "
                    f"{value!r}"
                )
        if require_label:
            values = values[:-1] + [_checked_label(schema, i, values[-1])]
        rows.append(values)
    batch = schema.empty(len(rows))
    batch[CLASS_COLUMN] = 0
    if not rows:
        return batch
    try:
        matrix = np.array(rows, dtype=np.float64)
    except OverflowError:
        i, j = next(
            (i, j) for i, row in enumerate(rows) for j, value in enumerate(row)
            if not _fits_float(value)
        )
        raise ServeError(
            f"record {i} column {columns[j]!r} is out of range: {rows[i][j]!r}"
        ) from None
    for j, name in enumerate(columns):
        column = matrix[:, j]
        if batch.dtype[name].kind == "i":
            # Storing a float truncates toward zero; it must land in int32.
            bad = ~((column > _INT32_LOW) & (column < _INT32_HIGH))
            if bad.any():
                i = int(np.argmax(bad))
                raise ServeError(
                    f"record {i} column {name!r} is not an int32 code: "
                    f"{rows[i][j]!r}"
                )
        batch[name] = column
    return batch


def _checked_label(schema: Schema, i: int, value) -> int:
    """An integral in-range class label, or a named :class:`ServeError`."""
    if isinstance(value, float) and not value.is_integer():
        # Catches NaN and ±inf too: nan.is_integer() is False.
        raise ServeError(
            f"record {i} column {CLASS_COLUMN!r} is not an integer "
            f"label: {value!r}"
        )
    label = int(value)
    if not 0 <= label < schema.n_classes:
        raise ServeError(
            f"record {i} column {CLASS_COLUMN!r} is out of range: "
            f"{label} (schema has {schema.n_classes} classes)"
        )
    return label


class _ResponseWriter:
    """A ``wfile`` that holds one response and sends it in one write.

    ``BaseHTTPRequestHandler`` writes the head and the body separately
    and flushes ``wfile`` after each request (error paths close the
    connection, and ``finish`` flushes then).  Unbuffered, the body is a
    second small segment that Nagle holds until the client's delayed ACK
    (~40 ms) on a keep-alive connection; joined, it leaves with the head.
    """

    def __init__(self, connection) -> None:
        self._connection = connection
        self._chunks: list[bytes] = []
        self.closed = False

    def write(self, data) -> int:
        self._chunks.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        if self._chunks:
            data = b"".join(self._chunks)
            self._chunks.clear()
            self._connection.sendall(data)

    def close(self) -> None:
        self._chunks.clear()
        self.closed = True


class _Handler(BaseHTTPRequestHandler):
    """One request handler; the server instance carries the serving state.

    Every response reaches the socket in one write, and ``TCP_NODELAY``
    is set, so no response waits on the client's delayed ACK.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: "_Server"

    def setup(self) -> None:
        super().setup()
        self.wfile = _ResponseWriter(self.connection)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # keep the serving path quiet; stats live in /stats

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        front = self.server.front
        if self.path == "/healthz":
            version = front.registry.version
            if version == 0:
                self._send_json(503, {"status": "empty", "version": 0})
            else:
                self._send_json(200, {"status": "ok", "version": version})
        elif self.path == "/stats":
            self._send_json(200, front.batcher.stats())
        else:
            self._send_json(404, {"error": f"no such path: {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        front = self.server.front
        if self.path != "/predict":
            self._send_json(404, {"error": f"no such path: {self.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
            try:
                payload = json.loads(self.rfile.read(length) or b"{}")
            except json.JSONDecodeError as exc:
                raise ServeError(f"request body is not valid JSON: {exc}")
            if not isinstance(payload, dict) or "records" not in payload:
                raise ServeError("request body needs a 'records' array")
            batch = records_to_batch(front.schema, payload["records"])
            proba = bool(payload.get("proba", False))
            ticket = front.batcher.submit(batch, proba=proba)
            result = ticket.result()
            front.count_request()
            response: dict = {"version": ticket.version, "rows": len(batch)}
            if proba:
                response["proba"] = [list(row) for row in result]
            else:
                response["labels"] = [int(v) for v in result]
            self._send_json(200, response)
        except ServeError as exc:
            self._send_json(exc.http_status, {"error": str(exc)})
        except (SchemaError, ReproError) as exc:
            self._send_json(400, {"error": str(exc)})


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    front: "PredictionServer"


class PredictionServer:
    """Serves a :class:`ModelRegistry` over HTTP through a batcher.

    Usage::

        registry = ModelRegistry()
        registry.publish(tree)                    # or registry.follow(boat)
        with PredictionServer(registry, port=0) as server:
            print(server.url)                    # http://127.0.0.1:<port>

    ``port=0`` binds an ephemeral port (``server.port`` has the real one).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServeConfig | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        tracer: Tracer | NullTracer | None = None,
    ):
        self.registry = registry
        self.batcher = RequestBatcher(registry, config, tracer)
        self._host = host
        self._requested_port = port
        self._httpd: _Server | None = None
        self._thread: threading.Thread | None = None
        self._served = 0
        self._served_lock = threading.Lock()

    @property
    def schema(self) -> Schema:
        return self.registry.current().tree.schema

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise ServeError("server is not running", http_status=503)
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    @property
    def served_requests(self) -> int:
        """Successfully answered /predict requests so far."""
        return self._served

    def count_request(self) -> None:
        with self._served_lock:
            self._served += 1

    def start(self) -> "PredictionServer":
        self.registry.current()  # fail fast when nothing is published
        self.batcher.start()
        self._httpd = _Server((self._host, self._requested_port), _Handler)
        self._httpd.front = self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.batcher.close()

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
