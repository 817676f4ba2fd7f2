"""Tiny-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, on every workload at a tiny scale, that a plain run prints every
end-to-end metric of BENCHMARK.json with its unit and a traced run every
per-layer metric, and that a corrupted server response is counted as a
failed operation.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("build", "forest-disk", "serve-http", "stream-mixed")


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> list[str]:
    """Every workload prints each named metric with its unit."""
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", "3", "--seconds", "2",
                 "--trace", str(trace), "--scale", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            if out.returncode != 0:
                problems.append(f"{workload} trace {trace}: exit {out.returncode}: "
                                f"{out.stderr[-500:]}")
                continue
            result = _result(out.stdout)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: output checks failed")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace {trace}: {metric['name']} "
                                    f"missing or not in {metric['unit']}")
            print(f"{workload} trace {trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} checked operations")
    return problems


def check_corruption() -> list[str]:
    """A response with one label flipped is counted as failed."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    import run
    import serving

    original = serving.Connection.request
    seen = []
    corrupted = []

    def request(self, method, path, body=b""):
        status, payload = original(self, method, path, body)
        seen.append(path)
        # past the unchecked warm-up requests, corrupt exactly one answer
        if path == "/predict" and status == 200 and len(seen) > 20 and not corrupted:
            data = json.loads(payload)
            data["labels"][0] = 1 - data["labels"][0]
            payload = json.dumps(data).encode()
            corrupted.append(path)
        return status, payload

    serving.Connection.request = request
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            run.main(["--workload", "serve-http", "--seed", "3", "--seconds", "2",
                      "--scale", "tiny"])
    finally:
        serving.Connection.request = original
    result = _result(stdout.getvalue())
    if not corrupted:
        return ["corruption was never injected"]
    if result["failed"] < 1 or result["correct"]:
        return [f"corrupted response not counted: {result}"]
    print(f"corrupted response counted: {result['failed']} of "
          f"{result['attempted']} failed")
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_corruption() + check_metrics(spec)
    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
