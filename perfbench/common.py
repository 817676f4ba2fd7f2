"""Shared pieces: run context, statistics, memory, provenance, output."""

from __future__ import annotations

import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")


@dataclass
class Run:
    """One invocation: the arguments plus what the workload measured."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: str = "full"
    attempted: int = 0
    failed: int = 0
    #: The contract's end-to-end metrics (``--trace 0``).
    metrics: dict = field(default_factory=dict)
    #: Every named metric of the workload, for the human summary/record.
    details: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    #: Every speed probe time of the run, and every set-up's wall time.
    probes: list = field(default_factory=list)
    setup_walls: list = field(default_factory=list)

    def probe(self) -> float:
        """Run the speed probe once and keep its time."""
        self.probes.append(speed_probe())
        return self.probes[-1]

    def setup_s(self) -> float:
        """The median set-up in reference-machine seconds, scaled by the
        median of all the run's speed probes (set-ups are probed on both
        sides; one probe pair is too noisy for a scale of its own)."""
        return median(self.setup_walls) * REFERENCE_PROBE_S / median(self.probes)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def spans_path(self) -> str:
        """Where a traced run leaves its spans (JSON lines)."""
        os.makedirs(OUT_DIR, exist_ok=True)
        return os.path.join(OUT_DIR, f"spans-{self.workload}-seed{self.seed}.jsonl")

    def scratch(self) -> str:
        path = os.path.join(OUT_DIR, f"tmp-{self.workload}-{os.getpid()}")
        os.makedirs(path, exist_ok=True)
        return path


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, int, int]:
    """(value, percentile, samples) of the highest percentile that still
    has at least ten samples beyond it; (max, 0, n) when n < 11."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else 0.0), 0, n
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return ordered[rank - 1], pct, n


# -- memory ---------------------------------------------------------------

def reset_peak_rss(pid: int | str = "self") -> None:
    """Reset VmHWM to the current RSS (Linux ``clear_refs`` value 5).

    For this process, heap pages freed during set-up are first returned
    to the system, so what set-up left behind does not count.
    """
    if pid == "self":
        gc.collect()
        try:
            ctypes.CDLL("libc.so.6").malloc_trim(0)
        except (OSError, AttributeError):
            pass
    with open(f"/proc/{pid}/clear_refs", "w") as fh:
        fh.write("5")


def _status_mb(pid: int | str, field: str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc status")


def peak_rss_mb(pid: int | str = "self") -> float:
    return _status_mb(pid, "VmHWM")


def rss_mb(pid: int | str = "self") -> float:
    return _status_mb(pid, "VmRSS")


# -- machine speed --------------------------------------------------------

#: What ``speed_probe`` takes on the reference machine (2 vCPUs of a
#: shared host) in a quiet moment; see README.md, "Machine speed".
REFERENCE_PROBE_S = 0.065

_PROBE_DATA = None


def speed_probe() -> float:
    """Seconds one fixed piece of CPU work takes right now.

    The work mixes an interpreted loop with numpy sorts, counts and
    searches, like a tree build, and uses no code of the program.  The
    shared host's speed drifts by up to 2x over tens of seconds; a build
    time divided by the probe time around it does not.
    """
    global _PROBE_DATA
    if _PROBE_DATA is None:
        import numpy as np

        values = np.random.default_rng(0).random(100_000)
        _PROBE_DATA = (np, values, (values * 64).astype(np.int64))
    np, values, keys = _PROBE_DATA
    start = time.perf_counter()
    for _ in range(4):
        total = 0
        for i in range(40_000):
            total += i * i
        order = np.argsort(values, kind="stable")
        np.cumsum(np.bincount(keys[order], minlength=64))
        values[order].searchsorted(0.5)
    return time.perf_counter() - start


def reference_s(wall_s: float, probe_before: float, probe_after: float) -> float:
    """``wall_s`` of CPU-bound work in reference-machine seconds, given the
    speed probes taken just before and just after it."""
    return wall_s * REFERENCE_PROBE_S / ((probe_before + probe_after) / 2)


# -- provenance -----------------------------------------------------------

def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def provenance(run: Run) -> dict:
    import numpy

    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "scale": run.scale,
        "params": run.params,
    }


# -- output ---------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def finish(run: Run, units: dict) -> dict:
    """Print the human summary and the contract's result line; append the
    record (with provenance) to the benchmark's own results file."""
    correct = run.failed == 0 and run.attempted > 0
    run.details["setup_wall_s"] = (median(run.setup_walls), "s")
    run.details["speed_probe_ms"] = (1000 * median(run.probes), "ms")
    for name, (value, unit) in run.details.items():
        print(f"  {name} = {_fmt(value)} {unit}")
    print(f"  error_rate = {run.failed / max(run.attempted, 1):.6g} ratio "
          f"({run.failed} of {run.attempted})")
    for reason in run.failures:
        print(f"  FAILED: {reason}")
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in run.metrics.items()
        },
    }
    record = {
        "workload": run.workload,
        "provenance": provenance(run),
        "details": {k: {"value": v, "unit": u} for k, (v, u) in run.details.items()},
        "failures": run.failures,
        **result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return result


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
