"""The vectorized numpy kernel backend (the production fast path).

Each kernel is the whole-batch array formulation of the corresponding
per-row primitive in :mod:`repro.kernels.reference` — bincount for
histograms, flattened bincount for contingency matrices, searchsorted for
bucketing, stable argsort + per-class cumsum for the numeric candidate
sweep (``sorted_candidates`` is the sweep alone, for presorted input).
These are the exact array expressions the cleanup scan and the reference
builder historically inlined; centralizing them here makes the backend
switch a pure dispatch decision with bit-identical results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .base import KernelBackend

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..splits.impurity import ImpurityMeasure


class NumpyKernels(KernelBackend):
    """Whole-batch numpy implementations of every kernel primitive."""

    name = "numpy"

    def class_histogram(self, labels: np.ndarray, n_classes: int) -> np.ndarray:
        return np.bincount(labels, minlength=n_classes).astype(np.int64)

    def category_class_counts(
        self,
        codes: np.ndarray,
        labels: np.ndarray,
        domain_size: int,
        n_classes: int,
    ) -> np.ndarray:
        flat = codes.astype(np.int64) * n_classes + labels
        counts = np.bincount(flat, minlength=domain_size * n_classes)
        return counts.reshape(domain_size, n_classes)

    def bucket_class_counts(
        self,
        edges: np.ndarray,
        values: np.ndarray,
        labels: np.ndarray,
        n_classes: int,
    ) -> np.ndarray:
        buckets = np.searchsorted(edges, values, side="left")
        size = (len(edges) + 1) * n_classes
        flat = np.bincount(buckets * n_classes + labels, minlength=size)
        return flat.reshape(len(edges) + 1, n_classes)

    def interval_masks(
        self, values: np.ndarray, low: float, high: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        below = values < low
        above = values > high
        return below, ~(below | above), above

    def subset_mask(self, codes: np.ndarray, subset: frozenset[int]) -> np.ndarray:
        return np.isin(codes, sorted(subset))

    def numeric_candidates(
        self, values: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(values, kind="stable")
        return self.sorted_candidates(values[order], labels[order], n_classes)

    def sorted_candidates(
        self, sorted_values: np.ndarray, sorted_labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(sorted_values)
        if n == 0:
            return (
                np.empty(0, dtype=np.float64),
                np.empty((0, n_classes), dtype=np.int64),
            )
        # Last occurrence of each distinct value is that value's candidate.
        is_last = np.empty(n, dtype=bool)
        np.not_equal(sorted_values[:-1], sorted_values[1:], out=is_last[:-1])
        is_last[-1] = True
        boundary = np.flatnonzero(is_last)
        # Class-major left counts: the (m, k) result is a transposed view
        # whose class columns are contiguous for the impurity sweep.
        left = np.empty((n_classes, len(boundary)), dtype=np.int64)
        for c in range(n_classes - 1):
            left[c] = np.cumsum(sorted_labels == c)[boundary]
        # The left side of candidate i holds boundary[i] + 1 tuples; the
        # last class is whatever the other classes leave of them.
        np.subtract(boundary + 1, left[:-1].sum(axis=0), out=left[-1])
        return sorted_values[boundary], left.T

    def distinct_class_counts(
        self, values: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        n = len(values)
        if n == 0:
            return (
                np.empty(0, dtype=values.dtype),
                np.empty((0, n_classes), dtype=np.int64),
            )
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_labels = labels[order]
        keep = np.empty(n, dtype=bool)
        keep[0] = True
        keep[1:] = sorted_values[1:] != sorted_values[:-1]
        group = np.cumsum(keep) - 1
        n_groups = int(group[-1]) + 1
        flat = np.bincount(
            group * n_classes + sorted_labels, minlength=n_groups * n_classes
        )
        return sorted_values[keep], flat.reshape(n_groups, n_classes)

    def weighted_impurity(
        self,
        measure: "ImpurityMeasure",
        left_counts: np.ndarray,
        total_counts: np.ndarray,
    ) -> np.ndarray:
        return measure.weighted(left_counts, total_counts)

    def quest_numeric_moments(
        self, values: np.ndarray, labels: np.ndarray, n_classes: int
    ) -> tuple[np.ndarray, np.ndarray]:
        sums = np.zeros(n_classes, dtype=np.float64)
        sumsq = np.zeros(n_classes, dtype=np.float64)
        for c in range(n_classes):
            column = values[labels == c]
            sums[c] = column.sum()
            sumsq[c] = np.square(column).sum()
        return sums, sumsq
