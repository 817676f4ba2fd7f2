"""k-fold cross-validation in three database scans (§2's aside).

The paper notes that although MDL pruning is preferred at scale,
cross-validation for large training sets also benefits from BOAT: the
k per-fold trees can share scans instead of paying k separate
constructions.  This module realizes that:

* scan 1 draws one sample; each fold's sampling phase uses the sample
  minus its own fold's records,
* scan 2 is a shared cleanup scan — every batch is streamed through all
  k skeletons, each skeleton skipping its own fold,
* scan 3 evaluates every record against its own fold's finished tree.

Fold assignment is by global row position modulo k — deterministic
across scans, so training and evaluation partitions agree exactly.

Every fold tree is exactly the reference tree of its training partition
(the BOAT guarantee applies per fold).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..config import BoatConfig, SplitConfig
from ..exceptions import SplitSelectionError
from ..splits.methods import ImpuritySplitSelection
from ..storage import CLASS_COLUMN, Table, gather_rows
from ..tree import DecisionTree
from .cleanup import shared_cleanup_scan
from .pipeline import BoatReport, FlatSource, ImpuritySplits, Members, run_pipeline


@dataclass
class CrossValidationResult:
    """k fold trees plus their held-out error estimates.

    Attributes:
        trees: fold trees; ``trees[f]`` was trained on every record whose
            global row position is not congruent to f modulo k.
        fold_errors: held-out misclassification rate per fold.
        scans: database scans consumed (3 when all folds take the BOAT
            path; fewer only for degenerate inputs).
        wall_seconds: total wall-clock time.
    """

    trees: list[DecisionTree]
    fold_errors: list[float]
    scans: int
    wall_seconds: float

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.fold_errors)) if self.fold_errors else 0.0


class _Folds(Members):
    """k fold trees; fold f trains on every row not congruent to f mod k."""

    mode = "crossval"

    def __init__(self, k: int, boat_config: BoatConfig, n_rows: int):
        super().__init__(BoatReport(mode="boat", table_size=n_rows))
        self.k = k
        self.boat_config = boat_config
        self.span_attrs = {"folds": k}

    def draw(self, source: FlatSource, rng) -> int:
        """Scan 1: one shared sample, with global positions retained."""
        n, k = len(source.table), self.k
        self.drawn = min(self.boat_config.sample_size, n)
        chosen = np.sort(rng.choice(n, size=self.drawn, replace=False))
        sample = gather_rows(source.scan_table, chosen, self.boat_config.batch_rows)
        self.samples = [sample[chosen % k != fold] for fold in range(k)]
        self.sizes, self.rngs = [n - n // k] * k, [rng] * k
        return self.drawn

    def fits_in_memory(self, n_rows: int) -> bool:
        return self.drawn >= n_rows  # the sample is the whole table

    def cleanup(self, source: FlatSource, splits, pool, tracer, checkpoint) -> None:
        """Scan 2: every batch streams through all k skeletons."""
        k = self.k

        def fold_sink(fold: int, skeleton):
            def sink(batch: np.ndarray, offset: int) -> None:
                folds = (offset + np.arange(len(batch))) % k
                splits.stream(skeleton, batch[folds != fold])

            return sink

        shared_cleanup_scan(
            source.scan_table,
            [fold_sink(fold, s) for fold, s in enumerate(self.skeletons)],
            self.boat_config.batch_rows,
            pool=pool,
            tracer=tracer,
            labels=[f"fold-{fold}" for fold in range(k)],
        )


def boat_cross_validate(
    table: Table,
    k: int,
    method: ImpuritySplitSelection,
    split_config: SplitConfig | None = None,
    boat_config: BoatConfig | None = None,
    spill_dir: str | None = None,
) -> CrossValidationResult:
    """k-fold cross-validation sharing scans across all folds."""
    if k < 2:
        raise SplitSelectionError("cross-validation needs k >= 2")
    if len(table) < k:
        raise SplitSelectionError("table smaller than the number of folds")
    split_config = split_config or SplitConfig()
    boat_config = boat_config or BoatConfig()
    start = time.perf_counter()
    members = _Folds(k, boat_config, len(table))
    splits = ImpuritySplits(
        method, table.schema, split_config, boat_config, table.io_stats, spill_dir
    )
    run_pipeline(
        FlatSource(table, boat_config), members, splits, split_config,
        boat_config, span="boat_cross_validate", what="cross-validation", folds=k,
    )
    trees = members.trees

    # -- scan 3: held-out evaluation, all folds in one pass ---------------
    errors = np.zeros(k, dtype=np.int64)
    totals = np.zeros(k, dtype=np.int64)
    offset = 0
    for batch in table.scan(boat_config.batch_rows):
        folds = (offset + np.arange(len(batch))) % k
        for fold in range(k):
            mask = folds == fold
            if not mask.any():
                continue
            rows = batch[mask]
            predicted = trees[fold].predict(rows)
            errors[fold] += int(np.sum(predicted != rows[CLASS_COLUMN]))
            totals[fold] += len(rows)
        offset += len(batch)

    fold_errors = [
        float(errors[f]) / totals[f] if totals[f] else 0.0 for f in range(k)
    ]
    return CrossValidationResult(
        trees=trees,
        fold_errors=fold_errors,
        scans=2 if members.report.mode == "in-memory" else 3,
        wall_seconds=time.perf_counter() - start,
    )
