"""The serving workloads, driven over HTTP against ``python -m repro serve``:

* ``serve-http``: the threaded front end serving a saved 1,000+ node tree
  to an open-loop request mix, then a closed loop for throughput;
* ``stream-mixed``: the asyncio ``--stream`` front end taking closed-loop
  insert/delete updates on one connection while a second connection sends
  open-loop predictions.

The servers run as subprocesses of ``launch_server.py``; with tracing on,
``SIGUSR1`` switches their spans on half-way, so one run measures the
untraced and the traced halves on the same server.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

import layers
from common import (
    BENCH_DIR,
    Run,
    median,
    peak_rss_mb,
    reference_s,
    remove_tree,
    reset_peak_rss,
    tail,
)
from tracing import read_spans

from repro import (
    AgrawalConfig,
    AgrawalGenerator,
    DiskTable,
    ImpuritySplitSelection,
    SplitConfig,
    build_reference_tree,
    load_model_json,
)
from repro.datagen import drifted_function_1
from repro.tree.serialize import tree_to_json

#: Times a server is set up per run; ``setup_s`` is their median.
SETUPS = 3
LAUNCHER = os.path.join(BENCH_DIR, "launch_server.py")

SCALES = {
    "serve-http": {"full": {"n": 100_000, "rate": 15.0},
                   "tiny": {"n": 3_000, "rate": 15.0}},
    "stream-mixed": {"full": {"n": 50_000, "chunk": 1_000, "window": 3,
                              "rate": 40.0, "sample": 5_000},
                     "tiny": {"n": 3_000, "chunk": 200, "window": 2,
                              "rate": 40.0, "sample": 1_000}},
}
#: serve-http request mix: rows per request and their shares.
MIX_SIZES = (1, 16, 256)
MIX_SHARES = (0.45, 0.45, 0.10)
POOL = 100
#: The closed loop sends only this request size, so its rate is steady.
CLOSED_LOOP_ROWS = 16


# -- a minimal keep-alive HTTP/1.1 client --------------------------------------

class Connection:
    """One persistent connection; each request goes out in one write."""

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self._buf = b""

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        self._sock.sendall(head + body)
        while b"\r\n\r\n" not in self._buf:
            self._recv()
        header, _, self._buf = self._buf.partition(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        while len(self._buf) < length:
            self._recv()
        payload, self._buf = self._buf[:length], self._buf[length:]
        return status, payload

    def _recv(self) -> None:
        data = self._sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the connection")
        self._buf += data

    def close(self) -> None:
        self._sock.close()


def get_json(port: int, path: str) -> tuple[int, dict]:
    conn = Connection(port)
    try:
        status, body = conn.request("GET", path)
    finally:
        conn.close()
    return status, json.loads(body)


# -- the server subprocess --------------------------------------------------------

class Server:
    """``python -m repro serve ...`` wrapped by the benchmark's launcher."""

    def __init__(self, cli_args: list[str], scratch: str,
                 spans_out: str | None = None) -> None:
        argv = [sys.executable, LAUNCHER]
        if spans_out is not None:
            argv += ["--spans-out", spans_out]
        # any spill file the server makes stays inside the checkout
        self.proc = subprocess.Popen(
            argv + cli_args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env={**os.environ, "TMPDIR": scratch},
        )
        self.output: list[str] = []
        self.port = None
        port_seen = threading.Event()

        def drain() -> None:
            for line in self.proc.stdout:
                self.output.append(line.rstrip())
                match = re.search(r" on http://[\d.]+:(\d+)", line)
                if match and self.port is None:
                    self.port = int(match.group(1))
                    port_seen.set()
            port_seen.set()

        self._reader = threading.Thread(target=drain, daemon=True)
        self._reader.start()
        if not port_seen.wait(120) or self.port is None:
            self.stop()
            raise RuntimeError("server did not start: " + " | ".join(self.output[-5:]))

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_healthy(self, timeout: float = 120.0) -> dict:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, body = get_json(self.port, "/healthz")
                if status == 200 and body.get("maintenance", "ok") == "ok":
                    return body
            except (OSError, ValueError):
                pass
            time.sleep(0.02)
        raise RuntimeError("server never became healthy")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        return self.proc.returncode


# -- load generation ----------------------------------------------------------------

class Sample:
    """One request as the client saw it."""

    __slots__ = ("due", "sent", "done", "status", "body", "rows", "index")

    def __init__(self, due: float, index: int, rows: int) -> None:
        self.due = due
        self.index = index
        self.rows = rows
        self.sent = self.done = 0.0
        self.status = 0
        self.body = b""


def _send(conn: Connection, sample: Sample, body: bytes, path: str) -> None:
    sample.sent = time.perf_counter()
    try:
        sample.status, sample.body = conn.request("POST", path, body)
    except OSError as exc:
        sample.status, sample.body = -1, str(exc).encode()
    sample.done = time.perf_counter()


def _on_each(conns: list[Connection], worker) -> None:
    """Run ``worker(conn)`` on one thread per connection and wait."""
    threads = [threading.Thread(target=worker, args=(c,)) for c in conns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(conns: list[Connection], bodies: list[bytes], rows: list[int],
              rate: float, duration: float, order: np.ndarray) -> list[Sample]:
    """Send requests due at a fixed rate over every connection.

    A request is due every ``1/rate`` seconds whatever the server does; a
    connection takes the next due request when it is free, so a stall
    shows as lateness of the requests queued behind it.  Requests cycle
    through ``order`` (indices into ``bodies``).
    """
    start = time.perf_counter() + 0.05
    samples = []
    for i in range(max(1, int(rate * duration))):
        p = int(order[i % len(order)])
        samples.append(Sample(start + i / rate, p, rows[p]))
    cursor = iter(samples)
    lock = threading.Lock()

    def worker(conn: Connection) -> None:
        while True:
            with lock:
                sample = next(cursor, None)
            if sample is None:
                return
            delay = sample.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _send(conn, sample, bodies[sample.index], "/predict")

    _on_each(conns, worker)
    return samples


def closed_loop(conns: list[Connection], bodies: list[bytes], rows: list[int],
                duration: float, order: np.ndarray) -> tuple[list[Sample], float]:
    """Each connection sends its next request as soon as the last returns."""
    picks = itertools.cycle(order.tolist())
    lock = threading.Lock()
    samples: list[Sample] = []
    start = time.perf_counter()

    def worker(conn: Connection) -> None:
        while time.perf_counter() - start < duration:
            with lock:
                i = next(picks)
            sample = Sample(time.perf_counter(), i, rows[i])
            _send(conn, sample, bodies[i], "/predict")
            samples.append(sample)

    _on_each(conns, worker)
    return samples, time.perf_counter() - start


def _records(batch: np.ndarray, names: list[str]) -> list[list]:
    columns = [batch[name].tolist() for name in names]
    return [list(row) for row in zip(*columns)]


def _latency_ms(samples: list[Sample], since: str = "due") -> list[float]:
    return [1000 * (s.done - getattr(s, since)) for s in samples]


def _lateness_ms(samples: list[Sample]) -> list[float]:
    return [1000 * max(0.0, s.sent - s.due) for s in samples]


# -- workloads ------------------------------------------------------------------------

def _keep_spans(run: Run, scratch: str) -> list[tuple]:
    """The server's spans, moved out of the scratch directory."""
    path = run.spans_path()
    os.replace(os.path.join(scratch, "spans.jsonl"), path)
    return read_spans(path)


def run_serving(run: Run) -> dict:
    scratch = run.scratch()
    try:
        if run.workload == "serve-http":
            return _serve_http(run, scratch)
        return _stream_mixed(run, scratch)
    finally:
        remove_tree(scratch)


def _start(run: Run, scratch: str, cli_args: list[str], setup_for) -> tuple[Server, object]:
    """Set a server up SETUPS times; keep the last one running.

    ``setup_for(i)`` makes the inputs of set-up ``i`` (a different seeded
    draw each time) and returns what the checks need to know of them.
    Returns the server and the last state.
    """
    server = None
    state = None
    try:
        for i in range(SETUPS):
            if server is not None:
                server.stop()
            server, state = _set_up(run, scratch, cli_args, setup_for, i)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    return server, state


def _set_up(run: Run, scratch: str, cli_args: list[str], setup_for,
            i: int) -> tuple[Server, object]:
    """Set-up ``i``: its inputs and a healthy server, timed into
    ``run.setup_walls`` with a speed probe on either side."""
    run.probe()
    start = time.perf_counter()
    state = setup_for(i)
    spans_out = os.path.join(scratch, "spans.jsonl") if run.trace else None
    server = Server(cli_args, scratch, spans_out)
    try:
        server.wait_healthy()
    except BaseException:
        server.stop()
        raise
    run.setup_walls.append(time.perf_counter() - start)
    run.probe()
    return server, state


def _check_labels(run: Run, sample: Sample, expected: list[list[int]]) -> None:
    ok = sample.status == 200
    if ok:
        try:
            ok = json.loads(sample.body)["labels"] == expected[sample.index]
        except (ValueError, KeyError):
            ok = False
    run.check(ok, f"predict request {sample.index} ({sample.rows} rows): "
                  f"status {sample.status}, labels wrong or missing")


def _serve_http(run: Run, scratch: str) -> dict:
    size = SCALES["serve-http"][run.scale]
    n, rate = size["n"], size["rate"]
    split = SplitConfig(max_depth=12, min_samples_split=200, min_samples_leaf=50)
    run.params = {"function": 5, "noise": 0.05, "rows": n, "max_depth": 12,
                  "min_split": 200, "min_leaf": 50, "connections": 2,
                  "open_loop_rps": rate, "mix_rows": list(MIX_SIZES),
                  "mix_shares": list(MIX_SHARES), "front_end": "threaded",
                  "simulated_mbps": None}
    model_path = os.path.join(scratch, "model.json")

    def setup(i: int):
        gen = AgrawalGenerator(AgrawalConfig(function_id=5, noise=0.05),
                               seed=run.seed * 1000 + i)
        tree = build_reference_tree(gen.generate(n), gen.schema,
                                    ImpuritySplitSelection("gini"), split)
        text = tree_to_json(tree)
        with open(model_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return load_model_json(text)

    server, model = _start(
        run, scratch,
        ["serve", model_path, "--port", "0"],
        setup,
    )
    conns: list[Connection] = []
    try:
        rng = np.random.default_rng(run.seed)
        names = [a.name for a in model.schema]
        gen = AgrawalGenerator(AgrawalConfig(function_id=5), seed=run.seed * 1000 + 999)
        bodies, rows, expected = [], [], []
        # the exact mix, in a seeded order
        pool = np.repeat(MIX_SIZES, [round(POOL * share) for share in MIX_SHARES])
        for size_rows in rng.permutation(pool):
            batch = gen.generate(int(size_rows))
            bodies.append(json.dumps({"records": _records(batch, names)}).encode())
            rows.append(int(size_rows))
            expected.append([int(v) for v in model.predict(batch)])
        run.params["model_nodes"] = model.n_nodes
        conns = [Connection(server.port) for _ in range(2)]
        for conn in conns:  # warm-up: connections, kernel, batcher thread
            for i in range(4):
                conn.request("POST", "/predict", bodies[i])

        mixed = np.arange(len(bodies))
        sixteen = np.flatnonzero(np.array(rows) == CLOSED_LOOP_ROWS)

        def phase(seconds: float) -> tuple[list[Sample], list[Sample], float]:
            opened = open_loop(conns, bodies, rows, rate, 0.6 * seconds, mixed)
            closed, elapsed = closed_loop(conns, bodies, rows, 0.4 * seconds, sixteen)
            for sample in opened + closed:
                _check_labels(run, sample, expected)
            return opened, closed, elapsed

        if run.trace:
            open_a, closed_a, _ = phase(run.seconds / 2)
            server.signal(signal.SIGUSR1)
            time.sleep(0.2)
            open_b, closed_b, _ = phase(run.seconds / 2)
        else:
            reset_peak_rss(server.pid)
            opened, closed, closed_s = phase(run.seconds)
            peak = peak_rss_mb(server.pid)
    finally:
        for conn in conns:
            conn.close()
        code = server.stop()
    run.check(code == 0, f"server exited with code {code}")
    if run.trace:
        spans = _keep_spans(run, scratch)
        b = open_b + closed_b
        service_a = median(_latency_ms(open_a + closed_a, "sent"))
        return layers.layer_metrics(spans, ops=len(b), counts={
            "requests": len(b),
            "client_ms": sum(_latency_ms(b, "sent")) / len(b),
            "late_tail_ms": tail(_lateness_ms(open_a + open_b))[0],
            "overhead_ratio": median(_latency_ms(b, "sent")) / service_a,
        })
    latency = _latency_ms(opened)
    tail_ms, tail_pct, samples = tail(latency)
    closed_rows = sum(s.rows for s in closed)
    # The gated latency is the closed loop's: the open-loop (light-load)
    # p50 waits on several thread wake-ups and swings with host contention.
    closed_p50 = median(_latency_ms(closed))
    run.metrics = {
        "setup_s": run.setup_s(),
        "peak_rss_mb": peak,
        "ok_rate": 1 - run.failed / run.attempted,
        "rows_per_s": closed_rows / closed_s,
        "op_p50_ms": closed_p50,
    }
    run.details = {
        "setup_s": (run.setup_s(), "s"),
        "predict_p50_ms": (median(latency), "ms"),
        "predict_tail_ms": (tail_ms, "ms"),
        "predict_tail_percentile": (tail_pct, "pct"),
        "predict_samples": (samples, "count"),
        "max_rate_rps": (len(closed) / closed_s, "1/s"),
        "closed_loop_p50_ms": (closed_p50, "ms"),
        "closed_loop_rows_per_s": (closed_rows / closed_s, "rows/s"),
        "service_p50_ms": (median(_latency_ms(opened, "sent")), "ms"),
        "loadgen_late_tail_ms": (tail(_lateness_ms(opened))[0], "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    for size_rows in MIX_SIZES:
        subset = [s for s in opened if s.rows == size_rows]
        run.details[f"predict_p50_ms_{size_rows}_rows"] = (
            median(_latency_ms(subset)), "ms")
    return {}


def _stream_mixed(run: Run, scratch: str) -> dict:
    size = SCALES["stream-mixed"][run.scale]
    n, chunk_rows, window, rate = size["n"], size["chunk"], size["window"], size["rate"]
    run.params = {"function": 1, "noise": 0.1, "base_rows": n,
                  "chunk_rows": chunk_rows, "window_chunks": window,
                  "min_split": 100, "max_depth": 8, "sample": size["sample"],
                  "bootstraps": 10, "predict_rows": 16, "predict_rps": rate,
                  "drift": "drifted_function_1(70)", "front_end": "asyncio",
                  "simulated_mbps": None}
    base_path = os.path.join(scratch, "base.tbl")
    probe_gen = AgrawalGenerator(AgrawalConfig(function_id=1), seed=run.seed * 1000 + 999)
    schema = probe_gen.schema
    names = [a.name for a in schema]
    cli_args = ["serve", base_path, "--stream", "--port", "0", "--min-split", "100",
                "--max-depth", "8", "--sample-size", str(size["sample"]),
                "--bootstraps", "10", "--seed", str(run.seed)]

    def setup(i: int) -> np.ndarray:
        base = AgrawalGenerator(AgrawalConfig(function_id=1, noise=0.1),
                                seed=run.seed * 1000 + i).generate(n)
        table = DiskTable.create(base_path, schema)
        table.append(base)
        table.close()
        return base

    bodies = [json.dumps({"records": _records(probe_gen.generate(16), names)}).encode()
              for _ in range(32)]
    plain = AgrawalConfig(function_id=1, noise=0.1)
    drifted = AgrawalConfig(function_id=1, noise=0.1, label_fn=drifted_function_1(70.0))
    chunk_index = iter(range(1_000_000))

    class Session:
        """The timed load on one server, built from one base."""

        def __init__(self, server: Server, base: np.ndarray) -> None:
            self.server = server
            self.base = base
            self.live: list[tuple[np.ndarray, bytes]] = []
            self.updates: list[Sample] = []
            # The update is CPU-bound like a build: it is also timed in
            # reference-machine seconds, scaled by the speed probes on
            # either side of it (taken while the server only serves the
            # light predict load; the set-up's last probe comes first).
            self.scaled_s: list[float] = []
            self.versions = {"update": 0, "predict": 0}
            self.update_conn = Connection(server.port)
            self.read_conn = Connection(server.port)
            self.read_conn.request("POST", "/predict", bodies[0])  # warm-up
            # The first update deepens the skeleton once (about 3x a later
            # update); it is checked but not timed.
            self.step(plain)
            self.scaled_s.clear()

        def update(self, op: str, body: bytes) -> None:
            sample = Sample(time.perf_counter(), 0, chunk_rows)
            _send(self.update_conn, sample, body, "/update")
            run.probe()
            self.scaled_s.append(reference_s(sample.done - sample.sent, *run.probes[-2:]))
            ok = sample.status == 200
            if ok:
                version = json.loads(sample.body).get("version", 0)
                ok = version > self.versions["update"]
                self.versions["update"] = max(version, self.versions["update"])
            run.check(ok, f"{op} update: status {sample.status}, version not increasing")
            self.updates.append(sample)

        def step(self, config: AgrawalConfig) -> None:
            """Insert a chunk; expire the oldest once the window is full."""
            j = next(chunk_index)
            chunk = AgrawalGenerator(config, seed=run.seed * 1_000_003 + j).generate(chunk_rows)
            body = {"records": _records(chunk, names + ["class_label"]), "wait": True}
            self.update("insert", json.dumps({**body, "op": "insert"}).encode())
            self.live.append((chunk, json.dumps({**body, "op": "delete"}).encode()))
            if len(self.live) > window:
                self.update("delete", self.live.pop(0)[1])

        def writer(self, seconds: float) -> None:
            """Closed loop of steps; labels drift half-way through."""
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                self.step(drifted if time.perf_counter() - start >= seconds / 2 else plain)

        def check_read(self, sample: Sample) -> None:
            ok = sample.status == 200
            if ok:
                version = json.loads(sample.body).get("version", 0)
                ok = version >= self.versions["predict"]
                self.versions["predict"] = max(version, self.versions["predict"])
            run.check(ok, f"predict: status {sample.status}, version went backwards")

        def phase(self, seconds: float) -> tuple[list[Sample], list[Sample]]:
            first = len(self.updates)
            thread = threading.Thread(target=self.writer, args=(seconds,))
            thread.start()
            try:
                reads = open_loop([self.read_conn], bodies, [16] * len(bodies), rate,
                                  seconds, np.arange(len(bodies)))
            finally:
                thread.join()
            for sample in reads:
                self.check_read(sample)
            return reads, self.updates[first:]

        def finish(self) -> None:
            """Check the served tree is the reference tree of base + live
            chunks; close the connections and stop the server."""
            try:
                data = np.concatenate([self.base] + [c for c, _ in self.live])
                reference = build_reference_tree(
                    data, schema, ImpuritySplitSelection("gini"),
                    SplitConfig(min_samples_split=100, max_depth=8))
                probe = probe_gen.generate(512)
                served = []
                for lo in range(0, len(probe), 256):
                    body = json.dumps({"records": _records(probe[lo:lo + 256], names)}).encode()
                    status, payload = self.read_conn.request("POST", "/predict", body)
                    served += json.loads(payload).get("labels", []) if status == 200 else []
                _, stats = get_json(self.server.port, "/stats")
                run.check(served == [int(v) for v in reference.predict(probe)]
                          and stats["n_rows"] == len(data),
                          "served tree after the last update differs from the "
                          "reference build on base + live chunks")
            finally:
                self.update_conn.close()
                self.read_conn.close()
                code = self.server.stop()
            run.check(code == 0, f"server exited with code {code}")

    if run.trace:
        server, base = _start(run, scratch, cli_args, setup)
        try:
            session = Session(server, base)
        except BaseException:
            server.stop()
            raise
        try:
            reads_a, writes_a = session.phase(run.seconds / 2)
            _, before = get_json(server.port, "/stats")
            server.signal(signal.SIGUSR1)
            time.sleep(0.2)
            reads_b, writes_b = session.phase(run.seconds / 2)
            _, after = get_json(server.port, "/stats")
        finally:
            session.finish()
        upd_a = median([s.done - s.sent for s in writes_a])
        upd_b = median([s.done - s.sent for s in writes_b])
        return layers.layer_metrics(_keep_spans(run, scratch), ops=len(writes_b), counts={
            "requests": len(reads_b) + len(writes_b),
            "client_ms": sum(_latency_ms(reads_b, "sent")) / len(reads_b),
            "late_tail_ms": tail(_lateness_ms(reads_a + reads_b))[0],
            "rebuild_updates": after["maintain"]["rebuild_updates"]
                               - before["maintain"]["rebuild_updates"],
            "patch_updates": after["maintain"]["patch_updates"]
                             - before["maintain"]["patch_updates"],
            "overhead_ratio": upd_b / upd_a,
        })

    # One session per set-up, on its own base, so that a run averages over
    # how the skeleton (and so the update cost) varies with the base.
    peaks: list[float] = []
    reads: list[Sample] = []
    writes: list[Sample] = []
    sessions: list[Session] = []
    maintain = {"rebuild_updates": 0, "patch_updates": 0}
    for i in range(SETUPS):
        server, base = _set_up(run, scratch, cli_args, setup, i)
        try:
            session = Session(server, base)
        except BaseException:
            server.stop()
            raise
        try:
            reset_peak_rss(server.pid)
            session_reads, session_writes = session.phase(run.seconds / SETUPS)
            peaks.append(peak_rss_mb(server.pid))
            _, stats = get_json(server.port, "/stats")
        finally:
            session.finish()
        for key in maintain:
            maintain[key] += stats["maintain"][key]
        reads += session_reads
        writes += session_writes
        sessions.append(session)
    latency = _latency_ms(reads)
    tail_ms, tail_pct, samples = tail(latency)
    update_s = [s.done - s.sent for s in writes]
    # The median over all sessions' updates: each base gives about the same
    # number, and six per session are too few for a steady median of its own.
    scaled_p50_s = median(t for s in sessions for t in s.scaled_s)
    # rows per second of a typical update; the mean is in the details
    update_rows_per_s = chunk_rows / scaled_p50_s
    # The gated latency is the update's: a predict beside an update waits
    # on the interpreter lock and swings with host contention.
    run.metrics = {
        "setup_s": run.setup_s(),
        "peak_rss_mb": median(peaks),
        "ok_rate": 1 - run.failed / run.attempted,
        "rows_per_s": update_rows_per_s,
        "op_p50_ms": 1000 * scaled_p50_s,
    }
    run.details = {
        "setup_s": (run.setup_s(), "s"),
        "update_p50_s": (scaled_p50_s, "s"),
        "update_wall_p50_s": (median(update_s), "s"),
        "update_rows_per_s": (update_rows_per_s, "rows/s"),
        "update_rows_per_s_mean": (sum(s.rows for s in writes) / sum(update_s),
                                   "rows/s"),
        "updates": (len(writes), "count"),
        "rebuild_updates": (maintain["rebuild_updates"], "count"),
        "patch_updates": (maintain["patch_updates"], "count"),
        "predict_p50_ms": (median(latency), "ms"),
        "predict_tail_ms": (tail_ms, "ms"),
        "predict_tail_percentile": (tail_pct, "pct"),
        "predict_samples": (samples, "count"),
        "loadgen_late_tail_ms": (tail(_lateness_ms(reads))[0], "ms"),
        "peak_rss_mb": (median(peaks), "MB"),
    }
    return {}
