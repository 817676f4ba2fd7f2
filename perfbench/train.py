"""The training workloads: ``build`` (one exact BOAT tree, CPU-bound) and
``forest-disk`` (a shared-scan bagged forest on a throttled disk)."""

from __future__ import annotations

import os
import time

import numpy as np

import layers
from common import Run, median, peak_rss_mb, reference_s, remove_tree, reset_peak_rss
from tracing import Recorder, write_spans

from repro import (
    AgrawalConfig,
    AgrawalGenerator,
    BoatConfig,
    DiskTable,
    ImpuritySplitSelection,
    IOStats,
    SplitConfig,
    boat_build,
    build_reference_tree,
    forest_build,
    tree_diff,
)
from repro.forest.bagging import plan_members

#: Sizes per scale; "tiny" is for the self-test only.
SCALES = {
    "build": {"full": {"n": 100_000, "datasets": 3},
              "tiny": {"n": 4_000, "datasets": 2}},
    "forest-disk": {"full": {"n": 100_000, "datasets": 3, "sample": 2_500},
                    "tiny": {"n": 4_000, "datasets": 2, "sample": 500}},
}


def _write_table(path: str, generator: AgrawalGenerator, n: int) -> None:
    table = DiskTable.create(path, generator.schema)
    generator.fill_table(table, n)
    table.close()


class _Dataset:
    def __init__(self, index: int, seed: int) -> None:
        self.index = index
        self.seed = seed
        self.io = IOStats()
        self.table: DiskTable | None = None
        self.reference = None
        self.member = 0


def _build_config(n: int, seed: int, workers: int = 1) -> tuple[SplitConfig, BoatConfig]:
    split = SplitConfig(min_samples_split=n // 500, min_samples_leaf=n // 2000,
                        max_depth=12)
    boat = BoatConfig(sample_size=n // 10, bootstrap_repetitions=10,
                      bootstrap_subsample=n // 40, n_workers=workers,
                      parallel_backend="thread", seed=seed)
    return split, boat


def _forest_config(n: int, sample: int, seed: int) -> tuple[SplitConfig, BoatConfig]:
    split = SplitConfig(min_samples_split=n // 500, min_samples_leaf=n // 2000,
                        max_depth=5)
    boat = BoatConfig(sample_size=sample, bootstrap_repetitions=5,
                      bootstrap_subsample=sample // 4, n_workers=2,
                      parallel_backend="thread", spill_threshold_rows=32_768,
                      seed=seed)
    return split, boat


FOREST_MEMBERS = 4
FOREST_MBPS = 10.0


def run_training(run: Run) -> dict:
    """Set up, time and check one training workload; returns per-layer
    metrics when tracing, else fills ``run.metrics``."""
    forest = run.workload == "forest-disk"
    size = SCALES[run.workload][run.scale]
    n = size["n"]
    gini = ImpuritySplitSelection("gini")
    scratch = run.scratch()
    spill_dir = os.path.join(scratch, "spill")
    os.makedirs(spill_dir, exist_ok=True)
    if forest:
        run.params = {"function": 1, "noise": 0.1, "rows": n,
                      "members": FOREST_MEMBERS, "oob": True, "max_depth": 5,
                      "min_split": n // 500, "min_leaf": n // 2000,
                      "sample": size["sample"], "bootstraps": 5,
                      "bootstrap_subsample": size["sample"] // 4,
                      "workers": 2, "backend": "thread",
                      "spill_threshold_rows": 32_768,
                      "simulated_mbps": FOREST_MBPS,
                      "datasets": size["datasets"]}
    else:
        run.params = {"function": 7, "noise": 0.1, "rows": n, "max_depth": 12,
                      "min_split": n // 500, "min_leaf": n // 2000,
                      "sample": n // 10, "bootstraps": 10,
                      "bootstrap_subsample": n // 40, "workers": 1,
                      "traced_pool_workers": 2,
                      "backend": "thread", "simulated_mbps": None,
                      "datasets": size["datasets"]}
    datasets: list[_Dataset] = []
    try:
        # -- setup: one table + its reference tree per dataset ------------
        for i in range(size["datasets"]):
            run.probe()
            start = time.perf_counter()
            ds = _Dataset(i, run.seed * 1000 + i)
            config = AgrawalConfig(function_id=1 if forest else 7, noise=0.1)
            path = os.path.join(scratch, f"d{i}.tbl")
            _write_table(path, AgrawalGenerator(config, seed=ds.seed), n)
            table = DiskTable.open(path, ds.io, simulated_mbps=None)
            data = table.read_all()
            if forest:
                split, boat = _forest_config(n, size["sample"], ds.seed)
                ds.member = int(np.random.default_rng(ds.seed).integers(FOREST_MEMBERS))
                plan = plan_members(boat.seed, FOREST_MEMBERS, n)[ds.member]
                data = np.repeat(data, plan.weights)
                table.set_simulated_throughput(FOREST_MBPS)
            else:
                split, _ = _build_config(n, ds.seed)
            ds.reference = build_reference_tree(data, table.schema, gini, split)
            del data
            ds.table = table
            datasets.append(ds)
            run.setup_walls.append(time.perf_counter() - start)
            run.probe()

        def build_once(ds: _Dataset, workers: int = 1) -> float:
            before = ds.io.snapshot()
            start = time.perf_counter()
            if forest:
                split, boat = _forest_config(n, size["sample"], ds.seed)
                result = forest_build(ds.table, FOREST_MEMBERS, gini, split, boat,
                                      spill_dir=spill_dir, oob=True)
                elapsed = time.perf_counter() - start
                delta = ds.io.delta_since(before)
                member = result.forest.members[ds.member]
                run.check(tree_diff(member, ds.reference) is None,
                          f"dataset {ds.index}: forest member {ds.member} differs "
                          "from the reference build over its resample")
                run.check(result.report.oob_error is not None,
                          f"dataset {ds.index}: no out-of-bag error")
            else:
                split, boat = _build_config(n, ds.seed, workers)
                result = boat_build(ds.table, gini, split, boat, spill_dir=spill_dir)
                elapsed = time.perf_counter() - start
                delta = ds.io.delta_since(before)
                run.check(tree_diff(result.tree, ds.reference) is None,
                          f"dataset {ds.index}: BOAT tree differs from the "
                          "reference tree")
            run.check(delta.full_scans == 2,
                      f"dataset {ds.index}: {delta.full_scans} full scans, not 2")
            reports.append(result.report)
            full_scans.append(delta.full_scans)
            return elapsed

        reports: list = []
        full_scans: list[int] = []
        if run.trace:
            untraced = [build_once(ds) for ds in datasets]
            recorder = Recorder()
            layers.install(recorder)
            io_before = [ds.io.snapshot() for ds in datasets]
            try:
                traced = [build_once(ds) for ds in datasets]
            finally:
                recorder.uninstall()
            io = IOStats()
            for ds, before in zip(datasets, io_before):
                io.merge(ds.io.delta_since(before))
            if recorder.missing:
                print(f"  trace targets not found: {recorder.missing}")
            write_spans(recorder.spans, run.spans_path())
            counts = {"overhead_ratio": sum(traced) / sum(untraced)}
            if not forest:
                # The same builds on 2 thread workers, untraced: what the
                # worker pool costs (or saves) against the serial build.
                threaded = [build_once(ds, workers=2) for ds in datasets]
                counts["pool_thread2_ratio"] = sum(threaded) / sum(untraced)
            return layers.layer_metrics(
                recorder.spans, ops=len(traced), rows=n, io=io, counts=counts,
            )

        # -- timed phase: whole rounds over the datasets ------------------
        # Whole rounds until --seconds have passed, so every dataset is
        # built equally often; the peak RSS of each build is read on its own.
        # Builds are also timed in reference-machine seconds: the wall time
        # scaled by the speed probes on either side (the host's speed drifts
        # in stretches of seconds).  A forest is ~65% CPU and ~35% throttled
        # I/O, so its scaling over-corrects the I/O share; it still halves
        # the spread (see README.md, "Machine speed").
        times: dict[int, list[float]] = {ds.index: [] for ds in datasets}
        scaled: dict[int, list[float]] = {ds.index: [] for ds in datasets}
        peaks: list[float] = []
        start = time.perf_counter()
        while True:
            for ds in datasets:
                reset_peak_rss()
                elapsed = build_once(ds)
                peaks.append(peak_rss_mb())
                times[ds.index].append(elapsed)
                run.probe()
                scaled[ds.index].append(reference_s(elapsed, *run.probes[-2:]))
            if time.perf_counter() - start >= run.seconds:
                break
        all_times = [t for per in times.values() for t in per]

        def typical(per_dataset: dict[int, list[float]]) -> float:
            # each dataset's median build, the datasets weighted equally:
            # the median over all builds would pick one dataset, and tree
            # shape varies with the seed
            return sum(median(per) for per in per_dataset.values()) / len(datasets)

        wall_s = typical(times)
        typical_s = typical(scaled)
        rows_per_s = n / typical_s
        run.metrics = {
            "setup_s": run.setup_s(),
            "peak_rss_mb": median(peaks),
            "ok_rate": 1 - run.failed / run.attempted,
            "rows_per_s": rows_per_s,
            "op_p50_ms": 1000 * typical_s,
        }
        run.details = {
            "setup_s": (run.setup_s(), "s"),
            "builds": (len(all_times), "count"),
            "train_rows_per_s": (rows_per_s, "rows/s"),
            "build_typical_s": (typical_s, "s"),
            "build_wall_typical_s": (wall_s, "s"),
            "train_wall_rows_per_s": (n / wall_s, "rows/s"),
            "build_p50_s": (median(all_times), "s"),
            "full_scans": (max(full_scans), "count"),
            "peak_rss_mb": (median(peaks), "MB"),
            "peak_rss_max_mb": (max(peaks), "MB"),
        }
        if forest:
            run.details["oob_error"] = (
                float(median(r.oob_error for r in reports)), "ratio")
        else:
            run.details["rebuilds_per_build"] = (
                sum(r.finalize.rebuilds for r in reports if r.finalize)
                / len(reports), "count")
        return {}
    finally:
        for ds in datasets:
            if ds.table is not None:
                ds.table.close()
        remove_tree(scratch)
