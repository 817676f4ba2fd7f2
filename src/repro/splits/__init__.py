"""Split selection methods: impurity-based (CART/C4.5 family) and QUEST."""

from .base import (
    CategoricalSplit,
    NumericSplit,
    Split,
    SplitDecision,
    SplitSelectionMethod,
    canonical_subset,
    majority_label,
)
from .categorical import (
    best_categorical_split,
    best_categorical_split_from_counts,
    category_class_counts,
)
from .impurity import (
    Entropy,
    Gini,
    ImpurityMeasure,
    InterclassVariance,
    available_impurities,
    get_impurity,
)
from .methods import ImpuritySplitSelection, get_method, sampled_search_rows
from .numeric import (
    NumericProfile,
    best_numeric_split,
    numeric_profile,
    sorted_numeric_profile,
)
from .presort import PresortedFamily
from .quest import QuestSplitSelection, QuestSufficientStats

__all__ = [
    "CategoricalSplit",
    "Entropy",
    "Gini",
    "ImpurityMeasure",
    "ImpuritySplitSelection",
    "InterclassVariance",
    "NumericProfile",
    "NumericSplit",
    "PresortedFamily",
    "QuestSplitSelection",
    "QuestSufficientStats",
    "Split",
    "SplitDecision",
    "SplitSelectionMethod",
    "available_impurities",
    "best_categorical_split",
    "best_categorical_split_from_counts",
    "best_numeric_split",
    "canonical_subset",
    "category_class_counts",
    "get_impurity",
    "get_method",
    "majority_label",
    "numeric_profile",
    "sampled_search_rows",
    "sorted_numeric_profile",
]
