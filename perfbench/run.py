"""One seeded benchmark for the repository: four workloads, one command.

    python3 perfbench/run.py --workload build --seed 1 --seconds 12 --trace 0

Workloads: build, forest-disk, serve-http, stream-mixed (see README.md).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics instead.  Every run checks the program's outputs and counts each
wrong or failed operation in ``failed``.  Records with provenance are
appended to ``perfbench/out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

WORKLOADS = ("build", "forest-disk", "serve-http", "stream-mixed")

#: The end-to-end metrics every workload reports (see README.md for what
#: each means per workload).  Keep in step with BENCHMARK.json.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "rows_per_s": "rows/s",
    "op_p50_ms": "ms",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)

    import layers
    from common import Run, finish

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(f"workload {run.workload} seed {run.seed} seconds {run.seconds:g} "
          f"trace {int(run.trace)} scale {run.scale}")
    if run.workload in ("build", "forest-disk"):
        from train import run_training as runner
    else:
        from serving import run_serving as runner
    per_layer = runner(run)
    if run.trace:
        run.metrics = per_layer
        run.details.update({k: (v, layers.PER_LAYER_UNITS[k])
                            for k, v in per_layer.items()})
        units = layers.PER_LAYER_UNITS
    else:
        units = E2E_UNITS
        if set(run.metrics) != set(units):
            print("error: workload did not report every end-to-end metric",
                  file=sys.stderr)
            return 3
    finish(run, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
