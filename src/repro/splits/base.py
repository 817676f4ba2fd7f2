"""Split descriptions and the split-selection interface.

A *split* is the splitting criterion of one internal node: the splitting
attribute plus its predicate.  Numeric splits route ``X <= value`` to the
left child; categorical splits route ``X in subset`` left.  Splits are
immutable value objects with structural equality — tree equality (the
paper's exactness guarantee) reduces to comparing them.

Canonical orientation for categorical splits: the left subset always
contains the smallest category code *present at the node*, so two
algorithms examining the same family can never produce mirror-image
splits.  Use :func:`canonical_subset` when constructing one.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

from ..config import SplitConfig
from ..exceptions import SplitSelectionError
from ..storage import Schema


@dataclass(frozen=True)
class NumericSplit:
    """Predicate ``X_attr <= value`` (left child on true)."""

    attribute_index: int
    value: float

    def describe(self, schema: Schema) -> str:
        return f"{schema[self.attribute_index].name} <= {self.value:g}"

    def evaluate(self, batch: np.ndarray, schema: Schema) -> np.ndarray:
        """Boolean go-left mask for a batch."""
        return self.mask(batch[schema[self.attribute_index].name])

    def mask(self, values: np.ndarray) -> np.ndarray:
        """Boolean go-left mask for the split attribute's column."""
        return values <= self.value


@dataclass(frozen=True)
class CategoricalSplit:
    """Predicate ``X_attr in subset`` (left child on true).

    Category codes absent from the subset — including codes never seen
    during training — route right.
    """

    attribute_index: int
    subset: frozenset[int]

    def describe(self, schema: Schema) -> str:
        cats = ",".join(str(c) for c in sorted(self.subset))
        return f"{schema[self.attribute_index].name} in {{{cats}}}"

    def evaluate(self, batch: np.ndarray, schema: Schema) -> np.ndarray:
        """Boolean go-left mask for a batch."""
        return self.mask(batch[schema[self.attribute_index].name])

    def mask(self, codes: np.ndarray) -> np.ndarray:
        """Boolean go-left mask for the split attribute's column."""
        return np.isin(codes, sorted(self.subset))


Split = NumericSplit | CategoricalSplit


def canonical_subset(
    subset: Iterable[int], present_categories: Iterable[int]
) -> frozenset[int]:
    """Canonicalize a categorical left subset.

    Ensures the left subset contains the smallest present category code,
    complementing (within the present categories) when it does not.  Both
    orientations encode the same partition; fixing one makes splits
    comparable across algorithms.
    """
    chosen = frozenset(subset)
    present = frozenset(present_categories)
    if not chosen <= present:
        raise SplitSelectionError(
            f"subset {sorted(chosen)} not within present categories "
            f"{sorted(present)}"
        )
    if not chosen or chosen == present:
        raise SplitSelectionError("subset must be a proper non-empty subset")
    if min(present) in chosen:
        return chosen
    return present - chosen


@dataclass(frozen=True)
class SplitDecision:
    """The outcome of split selection at one node.

    Attributes:
        split: the chosen splitting criterion.
        impurity: the weighted impurity value of the chosen split (for
            impurity-based methods) or the method's internal score.
    """

    split: Split
    impurity: float


@runtime_checkable
class SplitSelectionMethod(Protocol):
    """The pluggable CL of the paper (Figure 1's split selection method)."""

    def choose_split(
        self, family: np.ndarray, schema: Schema, config: SplitConfig
    ) -> SplitDecision | None:
        """Choose the splitting criterion for a node.

        Args:
            family: structured array — the node's family of tuples F_n.
            schema: the training database schema.
            config: stopping rules and search limits.

        Returns:
            The chosen split, or ``None`` if the node must become a leaf
            (pure family, too small, or no admissible split with positive
            gain).
        """
        ...


class ImpurityBasedMethod(ABC):
    """Shared stopping-rule logic for impurity-based methods."""

    @abstractmethod
    def choose_split(
        self, family: np.ndarray, schema: Schema, config: SplitConfig
    ) -> SplitDecision | None: ...


def majority_label(class_counts: np.ndarray) -> int:
    """Deterministic majority class (smallest label wins ties)."""
    return int(np.argmax(class_counts))
