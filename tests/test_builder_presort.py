"""Presorted builder ≡ the per-node sort-then-sweep recursion it replaced.

``build_reference_tree`` sorts each numeric attribute once per family and
stably partitions the sorted row-id segments into the children.  The
oracle here is the recursion it replaced, kept verbatim in spirit: copy
each child's structured rows, and re-run the full per-node search
(``best_numeric_split`` argsorts every numeric column at every node).
Serialized trees must be byte-identical on both kernel backends over
adversarial families: near-ties and long duplicate runs, ±0.0 and
NaN-dense columns, constant columns, single-class and heavily imbalanced
labels, ``min_samples_leaf`` edges, ``split_sample_rows`` on, and
k = 2..9 classes (crossing the column-wise impurity rule at k = 8).
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SplitConfig
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.splits import (
    CategoricalSplit,
    ImpuritySplitSelection,
    NumericSplit,
    QuestSplitSelection,
    SplitDecision,
    best_categorical_split,
    best_numeric_split,
    sampled_search_rows,
)
from repro.storage import CLASS_COLUMN, Attribute, Schema
from repro.tree import DecisionTree, Node, build_reference_tree, tree_to_json

pytestmark = pytest.mark.kernels

DOMAIN = 4


# -- the oracle: per-node argsort, structured-row child copies ---------------


def _oracle_choose(
    method: ImpuritySplitSelection,
    family: np.ndarray,
    schema: Schema,
    config: SplitConfig,
) -> SplitDecision | None:
    if len(family) < config.min_samples_split:
        return None
    family = sampled_search_rows(family, config)
    kernels, impurity, k = method.kernels, method.impurity, schema.n_classes
    labels = family[CLASS_COLUMN]
    counts = kernels.class_histogram(labels, k)
    if np.count_nonzero(counts) <= 1:
        return None
    best = None
    for index, attr in enumerate(schema.attributes):
        column = family[attr.name]
        if attr.is_numerical:
            found = best_numeric_split(
                column, labels, k, impurity, config.min_samples_leaf, kernels=kernels
            )
            split = None if found is None else NumericSplit(index, found[1])
        else:
            found = best_categorical_split(
                column, labels, attr.domain_size, k, impurity,
                config.min_samples_leaf, config.max_categorical_exhaustive,
                kernels=kernels,
            )
            split = None if found is None else CategoricalSplit(index, found[1])
        if found is not None and (best is None or found[0] < best[0]):
            best = (found[0], split)
    if best is None or not best[0] < impurity.node_impurity(counts):
        return None
    return SplitDecision(split=best[1], impurity=best[0])


def _oracle_grow(tree, node, family, method, config) -> None:
    if config.max_depth is not None and node.depth >= config.max_depth:
        return
    decision = _oracle_choose(method, family, tree.schema, config)
    if decision is None:
        return
    go_left = decision.split.evaluate(family, tree.schema)
    families = family[go_left], family[~go_left]
    k = tree.schema.n_classes
    left, right = (
        tree.new_node(
            node.depth + 1, method.kernels.class_histogram(f[CLASS_COLUMN], k), node
        )
        for f in families
    )
    node.make_internal(decision.split, left, right)
    _oracle_grow(tree, left, families[0], method, config)
    _oracle_grow(tree, right, families[1], method, config)


def oracle_tree(family, schema, method, config) -> DecisionTree:
    counts = method.kernels.class_histogram(family[CLASS_COLUMN], schema.n_classes)
    root = Node(0, 0, counts)
    tree = DecisionTree(schema, root)
    _oracle_grow(tree, root, family, method, config)
    return tree


# -- adversarial families -----------------------------------------------------

_NEAR = [1.0, float(np.nextafter(1.0, 2.0)), float(np.nextafter(1.0, 0.0))]
_POOLS = {
    "near_ties": _NEAR + [2.0],
    "duplicate_runs": [0.0, 5.0],
    "signed_zero_nan": [0.0, -0.0, float("nan"), float("nan"), 3.0],
    "nan_dense": [float("nan")] * 4 + [1.0, -2.0],
    "constant": [7.5],
    "wide": None,
}


@st.composite
def families(draw):
    # Larger choices first: hypothesis favours early elements, and large
    # families with many classes grow the deep trees worth comparing.
    k = draw(st.sampled_from(range(9, 1, -1)))
    n = draw(st.sampled_from([200, 120, 60, 5, 2, 1]))
    kinds = draw(st.lists(st.sampled_from(sorted(_POOLS)), min_size=1, max_size=3))
    schema = Schema(
        [Attribute.numerical(f"x{i}") for i in range(len(kinds))]
        + [Attribute.categorical("c", DOMAIN)],
        n_classes=k,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = schema.empty(n)
    for i, kind in enumerate(kinds):
        pool = _POOLS[kind]
        if pool is None:
            batch[f"x{i}"] = rng.normal(size=n)
        elif kind == "duplicate_runs":
            # long runs of equal values, in original (unsorted) order
            batch[f"x{i}"] = np.repeat(pool, [n // 2, n - n // 2])[rng.permutation(n)]
        else:
            batch[f"x{i}"] = rng.choice(pool, size=n)
    batch["c"] = rng.integers(0, DOMAIN, size=n, dtype=np.int32)
    labels = draw(st.sampled_from(["rule", "uniform", "imbalanced", "rule", "single"]))
    if labels == "single":
        batch[CLASS_COLUMN] = draw(st.integers(0, k - 1))
    elif labels == "imbalanced":
        batch[CLASS_COLUMN] = np.where(
            rng.random(n) < 0.03, rng.integers(1, k, size=n), 0
        )
    elif labels == "rule":
        # A noisy rank rule over every column: deep trees, many ties.
        score = batch["c"] % 2 + rng.random(n) * 0.5
        for i in range(len(kinds)):
            score = score + np.argsort(np.argsort(batch[f"x{i}"], kind="stable")) / n
        batch[CLASS_COLUMN] = (score * k).astype(np.int32) % k
    else:
        batch[CLASS_COLUMN] = rng.integers(0, k, size=n)
    min_leaf = draw(st.sampled_from([1, 2, 3, 1, max(1, n // 4), max(1, n // 2)]))
    config = SplitConfig(
        min_samples_split=draw(st.sampled_from([2, 5, 2 * min_leaf])),
        min_samples_leaf=min_leaf,
        max_depth=draw(st.sampled_from([None, None, 1, 5])),
        split_sample_rows=draw(st.sampled_from([None, 2, 7, 40])),
    )
    return batch, schema, config


@settings(max_examples=200, deadline=None)
@given(
    case=families(),
    measure=st.sampled_from(["gini", "entropy", "interclass_variance"]),
)
def test_presorted_builder_matches_per_node_argsort(case, measure):
    family, schema, config = case
    expected = None
    for backend in ("numpy", "python"):
        method = ImpuritySplitSelection(measure, kernels=backend)
        got = tree_to_json(build_reference_tree(family, schema, method, config))
        want = tree_to_json(oracle_tree(family, schema, method, config))
        assert got == want
        if expected is None:
            expected = got
        assert got == expected


@pytest.mark.parametrize("function_id", [1, 6, 7])
@pytest.mark.parametrize("sample_rows", [None, 300])
def test_agrawal_families_match_oracle(function_id, sample_rows):
    generator = AgrawalGenerator(
        AgrawalConfig(function_id=function_id, noise=0.1), seed=5
    )
    family = generator.generate(3000)
    config = SplitConfig(
        min_samples_split=20, min_samples_leaf=5, max_depth=8,
        split_sample_rows=sample_rows,
    )
    method = ImpuritySplitSelection("gini")
    assert tree_to_json(
        build_reference_tree(family, generator.schema, method, config)
    ) == tree_to_json(oracle_tree(family, generator.schema, method, config))


def test_choose_split_is_a_one_node_presort():
    generator = AgrawalGenerator(AgrawalConfig(function_id=2, noise=0.05), seed=1)
    family = generator.generate(800)
    method = ImpuritySplitSelection("entropy")
    sampled = SplitConfig(split_sample_rows=100, min_samples_leaf=9)
    for config in (SplitConfig(), sampled):
        assert method.choose_split(family, generator.schema, config) == _oracle_choose(
            method, family, generator.schema, config
        )


def test_nan_candidates_never_split():
    """``X <= NaN`` routes nothing left, so a NaN value is no split point.

    Choosing one sent every tuple right, forever: without a depth cap the
    recursion never ended, with one it grew chains of empty leaves.
    """
    schema = Schema([Attribute.numerical("x")], n_classes=2)
    family = schema.empty(8)
    family["x"] = [1.0, 2.0, np.nan, np.nan, np.nan, np.nan, 3.0, 4.0]
    family[CLASS_COLUMN] = [0, 0, 1, 1, 0, 0, 1, 1]
    for backend in ("numpy", "python"):
        tree = build_reference_tree(
            family, schema, ImpuritySplitSelection("gini", kernels=backend)
        )
        splits = [node.split for node in tree.nodes() if not node.is_leaf]
        assert splits and not any(np.isnan(split.value) for split in splits)
        assert all(node.class_counts.sum() > 0 for node in tree.nodes())


# -- the build must not keep its family alive ---------------------------------


@pytest.mark.parametrize(
    "method", [ImpuritySplitSelection("gini"), QuestSplitSelection()]
)
def test_family_dies_with_its_caller(method):
    generator = AgrawalGenerator(AgrawalConfig(function_id=1, noise=0.1), seed=2)
    config = SplitConfig(min_samples_split=20, min_samples_leaf=5, max_depth=5)
    gc.collect()
    gc.disable()
    try:
        family = generator.generate(2000)
        alive = weakref.ref(family)
        tree = build_reference_tree(family, generator.schema, method, config)
        del family
        # No reference cycle may hold the family (or its column views and
        # row-id buffers) until the next collection pass.
        assert alive() is None
        assert tree.n_nodes > 1
    finally:
        gc.enable()
