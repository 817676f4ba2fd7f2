"""Concave impurity functions over class-count vectors.

Everything BOAT's exactness guarantee rests on lives here: the reference
builder, BOAT's finalization pass, and the RainForest baselines all funnel
their candidate evaluations through :meth:`ImpurityMeasure.weighted` with
*integer* class counts.  Identical integer inputs through one code path
yield bit-identical float64 outputs, so argmin and tie-break decisions
agree across algorithms — the whole library compares impurities with ``<``
and never needs an epsilon.

All measures are concave in the class-probability arguments (required by
Lemma 3.1's corner-point lower bound):

* ``gini`` — the Gini index of CART [BFOS84],
* ``entropy`` — the information entropy of ID3/C4.5 [Qui86],
* ``interclass_variance`` — negated interclass variance, a stand-in for
  the index-of-correlation family of [MFM+98] (minimizing it maximizes the
  between-children class-distribution spread).

Conventions: a *weighted* impurity of a binary split is
``(n_L/N) imp(p_L) + (n_R/N) imp(p_R)``; empty sides contribute zero,
matching the limit of the concave functions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..exceptions import SplitSelectionError


def _as_2d_float(counts: np.ndarray) -> np.ndarray:
    arr = np.asarray(counts, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise SplitSelectionError(f"counts must be 1-D or 2-D, got shape {arr.shape}")
    return arr


#: Below this many classes a row reduction accumulates column by column.
#: numpy's pairwise summation adds fewer than 8 addends of a C-ordered row
#: left to right from the first, so ``a[:, 0] + a[:, 1] + ...`` is
#: bit-identical to ``a.sum(axis=1)`` there — and much faster on narrow
#: (m, k) arrays.  From 8 classes on the row reduction of a C-ordered copy
#: runs, whatever the input's memory layout.
COLUMNWISE_MAX_CLASSES = 8


def row_sums(counts: np.ndarray) -> np.ndarray:
    """``counts.sum(axis=1)`` of a C-ordered (m, k) array, bit for bit.

    Accumulates column by column when k < :data:`COLUMNWISE_MAX_CLASSES`
    (the order numpy's row reduction uses there), else reduces the rows
    of a C-ordered copy.
    """
    k = counts.shape[1]
    if k >= COLUMNWISE_MAX_CLASSES or k == 0:
        return np.ascontiguousarray(counts).sum(axis=1)
    acc = counts[:, 0].copy()
    for c in range(1, k):
        acc += counts[:, c]
    return acc


class ImpurityMeasure(ABC):
    """A concave impurity function evaluated from class counts.

    A measure is ``finish(sum_i term(p_i))`` over the class probabilities
    of a node; subclasses define :meth:`_term` and :meth:`_finish`.
    """

    #: Registry name (set by subclasses).
    name: str = ""

    @abstractmethod
    def _term(self, p: np.ndarray) -> np.ndarray:
        """Per-class term of the impurity sum, elementwise over ``p``.

        May overwrite ``p`` (always a fresh temporary) and return it: on
        wide sweeps a fresh temporary costs more in page faults than in
        arithmetic, so the impurity path works in place throughout.
        """

    @abstractmethod
    def _finish(self, acc: np.ndarray, k: int) -> np.ndarray:
        """Impurity from the summed terms of a k-class node (may overwrite
        ``acc``)."""

    def _node_rows(self, counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
        """Per-row impurity of a (m, k) float count matrix with row totals.

        Rows with zero total map to 0.0.  The class sum runs column by
        column below :data:`COLUMNWISE_MAX_CLASSES` (see :func:`row_sums`).
        """
        positive = totals > 0
        safe = np.where(positive, totals, 1.0)
        k = counts.shape[1]
        if k < COLUMNWISE_MAX_CLASSES:
            acc = self._term(counts[:, 0] / safe)
            for c in range(1, k):
                acc += self._term(counts[:, c] / safe)
        else:
            p = np.ascontiguousarray(counts) / safe[:, np.newaxis]
            acc = self._term(p).sum(axis=1)
        value = self._finish(acc, k)
        value[~positive] = 0.0
        return value

    def node_impurity(self, counts: np.ndarray) -> float:
        """Impurity of a single node from its 1-D class-count vector."""
        rows = _as_2d_float(counts)
        return float(self._node_rows(rows, row_sums(rows))[0])

    def weighted(self, left_counts: np.ndarray, total_counts: np.ndarray) -> np.ndarray:
        """Weighted split impurity for candidate left-count rows.

        Args:
            left_counts: integer array of shape (m, k) — class counts of the
                left child for each of m candidate splits (1-D allowed for
                a single candidate).
            total_counts: integer 1-D array of shape (k,) — class counts of
                the whole family; right counts are ``total - left``.

        Returns:
            float64 array of shape (m,) with the weighted impurity
            ``(n_L/N) imp(L) + (n_R/N) imp(R)`` per candidate.
        """
        left = _as_2d_float(left_counts)
        total = np.asarray(total_counts, dtype=np.float64)
        if total.ndim != 1 or total.shape[0] != left.shape[1]:
            raise SplitSelectionError(
                f"total_counts shape {total.shape} incompatible with "
                f"left_counts shape {left.shape}"
            )
        right = total[np.newaxis, :] - left
        n = float(total.sum())
        if n <= 0:
            return np.zeros(left.shape[0], dtype=np.float64)
        n_left = row_sums(left)
        n_right = row_sums(right)
        # (n_L imp(L) + n_R imp(R)) / N, evaluated in place.
        out = self._node_rows(left, n_left)
        out *= n_left
        weighted_right = self._node_rows(right, n_right)
        weighted_right *= n_right
        out += weighted_right
        out /= n
        return out

    def weighted_scalar(
        self, left_counts: np.ndarray, total_counts: np.ndarray
    ) -> float:
        """Weighted impurity of one candidate split (scalar convenience)."""
        return float(self.weighted(left_counts, total_counts)[0])

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Gini(ImpurityMeasure):
    """Gini index: ``1 - sum_i p_i^2`` (0 on pure nodes, concave)."""

    name = "gini"

    def _term(self, p: np.ndarray) -> np.ndarray:
        return np.square(p, out=p)

    def _finish(self, acc: np.ndarray, k: int) -> np.ndarray:
        return np.subtract(1.0, acc, out=acc)


class Entropy(ImpurityMeasure):
    """Shannon entropy in nats: ``-sum_i p_i ln p_i``."""

    name = "entropy"

    def _term(self, p: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.log(p)
            terms *= p
        terms[~(p > 0)] = 0.0
        return terms

    def _finish(self, acc: np.ndarray, k: int) -> np.ndarray:
        return np.negative(acc, out=acc)


class InterclassVariance(ImpurityMeasure):
    """Negated interclass spread (index-of-correlation family, [MFM+98]).

    Node impurity is the concave ``2 sum_i p_i (1 - p_i) / k`` variant:
    zero on pure nodes, maximal when balanced.  Note that for exactly two
    classes the 2/k scaling makes it coincide with Gini; the measures
    diverge from three classes up.
    """

    name = "interclass_variance"

    def _term(self, p: np.ndarray) -> np.ndarray:
        spread = np.subtract(1.0, p)
        spread *= p
        return spread

    def _finish(self, acc: np.ndarray, k: int) -> np.ndarray:
        acc *= 2.0
        acc /= k
        return acc


_REGISTRY: dict[str, ImpurityMeasure] = {
    m.name: m for m in (Gini(), Entropy(), InterclassVariance())
}


def get_impurity(name: str | ImpurityMeasure) -> ImpurityMeasure:
    """Look up an impurity measure by registry name (or pass one through)."""
    if isinstance(name, ImpurityMeasure):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SplitSelectionError(
            f"unknown impurity {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_impurities() -> tuple[str, ...]:
    """Names of all registered impurity measures."""
    return tuple(sorted(_REGISTRY))
