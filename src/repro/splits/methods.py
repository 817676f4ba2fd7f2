"""Impurity-based split selection over whole families (the in-memory CL).

This is the "traditional main-memory algorithm"'s split selection: examine
every predictor attribute of the family, take each attribute's best
admissible split, and keep the overall minimizer.  Deterministic global
tie-break: strictly lower weighted impurity wins; on exact float equality
the attribute appearing earlier in the schema wins, and within an
attribute the candidate search orders already resolved ties.

A node becomes a leaf (``None`` is returned) when the family is pure,
smaller than ``min_samples_split``, has no admissible candidate, or when
the best split has zero gain (weighted impurity not strictly below the
node impurity) — a zero-gain split cannot change any leaf prediction and
admitting it would make tree identity depend on degenerate candidates.
"""

from __future__ import annotations

import numpy as np

from ..config import SplitConfig
from ..exceptions import SplitSelectionError
from ..kernels import KernelBackend, get_kernels
from ..storage import Schema
from .base import (
    CategoricalSplit,
    ImpurityBasedMethod,
    NumericSplit,
    Split,
    SplitDecision,
)
from .categorical import best_categorical_split
from .impurity import ImpurityMeasure, get_impurity
from .numeric import sorted_numeric_profile
from .presort import PresortedFamily, sample_positions


def sampled_search_rows(family: np.ndarray, config: SplitConfig) -> np.ndarray:
    """The rows the candidate search runs on under ``split_sample_rows``.

    The stride subsample at :func:`~repro.splits.presort.sample_positions`
    of the family, or the family itself when sampling is off or the family
    is already small enough — exactly the rows
    :meth:`PresortedFamily.search_rows` searches for a node.
    """
    k = config.split_sample_rows
    n = len(family)
    if k is None or n <= k:
        return family
    return family[sample_positions(n, k)]


class ImpuritySplitSelection(ImpurityBasedMethod):
    """CL instantiation for a concave impurity measure (gini, entropy, ...).

    The optional ``kernels`` argument selects the columnar kernel backend
    the candidate searches run on (:mod:`repro.kernels`); the method
    carries it so every consumer — the reference builder, BOAT
    finalization, subtree rebuilds — evaluates candidates on the same
    backend.  Backends are bit-identical, so this never changes the tree.
    """

    def __init__(
        self,
        impurity: str | ImpurityMeasure = "gini",
        kernels: KernelBackend | str | None = None,
    ):
        self._impurity = get_impurity(impurity)
        self._kernels = get_kernels(kernels)

    @property
    def impurity(self) -> ImpurityMeasure:
        return self._impurity

    @property
    def kernels(self) -> KernelBackend:
        return self._kernels

    def choose_split(
        self, family: np.ndarray, schema: Schema, config: SplitConfig
    ) -> SplitDecision | None:
        n = len(family)
        if n < config.min_samples_split:
            return None
        return self.choose_presorted(PresortedFamily(family, schema), 0, n, config)

    def choose_presorted(
        self, data: PresortedFamily, lo: int, hi: int, config: SplitConfig
    ) -> SplitDecision | None:
        """:meth:`choose_split` for the node owning segment ``[lo, hi)``.

        Numeric attributes sweep their presorted segment (no per-node
        sort); categorical attributes count the node's rows.
        """
        if hi - lo < config.min_samples_split:
            return None
        schema = data.schema
        k = schema.n_classes
        rows, orders = data.search_rows(lo, hi, config.split_sample_rows)
        labels = data.labels[rows]
        counts = self._kernels.class_histogram(labels, k)
        if np.count_nonzero(counts) <= 1:
            return None
        node_impurity = self._impurity.node_impurity(counts)
        best: tuple[float, Split] | None = None
        for index, attr in enumerate(schema.attributes):
            column = data.columns[index]
            if attr.is_numerical:
                order = orders[index]
                found = sorted_numeric_profile(
                    column[order],
                    data.labels[order],
                    k,
                    self._impurity,
                    config.min_samples_leaf,
                    kernels=self._kernels,
                ).best()
                candidate: Split | None = (
                    None if found is None else NumericSplit(index, found[1])
                )
            else:
                found = best_categorical_split(
                    column[rows],
                    labels,
                    attr.domain_size,
                    k,
                    self._impurity,
                    config.min_samples_leaf,
                    config.max_categorical_exhaustive,
                    kernels=self._kernels,
                )
                candidate = (
                    None if found is None else CategoricalSplit(index, found[1])
                )
            if found is None:
                continue
            value = found[0]
            if best is None or value < best[0]:
                best = (value, candidate)
        if best is None:
            return None
        if not best[0] < node_impurity:
            return None
        return SplitDecision(split=best[1], impurity=best[0])

    def __repr__(self) -> str:
        return f"ImpuritySplitSelection({self._impurity.name!r})"


def get_method(
    name: str, kernel_backend: str | KernelBackend | None = None
) -> ImpuritySplitSelection:
    """Construct a split selection method from a registry name.

    ``kernel_backend`` optionally names the columnar kernel backend the
    method evaluates candidates on (default: the numpy fast path).
    """
    try:
        return ImpuritySplitSelection(get_impurity(name), kernels=kernel_backend)
    except SplitSelectionError:
        raise SplitSelectionError(
            f"unknown split selection method {name!r}"
        ) from None
