"""Property tests: the compiled predictor ≡ the recursive reference path.

The equivalence is exhaustive over randomly generated trees and batches:
mixed numeric/categorical schemas, degenerate single-leaf trees, empty
batches, single-row batches, records landing *exactly* on numeric
thresholds, NaN numerics, and categorical codes never seen at compile
time.  ``predict`` / ``route`` must be ``array_equal`` and
``predict_proba`` bit-identical.

Two layers, matching ``tests/test_properties.py``: hypothesis-driven
properties (cleanly skipped without hypothesis) and seeded-random loops
that always run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import LEAF, CompiledPredictor
from repro.splits.base import CategoricalSplit, NumericSplit
from repro.storage import Attribute, Schema
from repro.tree import DecisionTree
from repro.tree.model import Node

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False

    def given(*args, **kwargs):  # type: ignore[misc]
        return pytest.mark.skip(reason="hypothesis not installed")

    def settings(*args, **kwargs):  # type: ignore[misc]
        return lambda fn: fn

    class _NullStrategies:
        def __getattr__(self, name):
            return lambda *a, **k: None

    st = _NullStrategies()  # type: ignore[assignment]

#: Finite pool of split points so random batches hit thresholds exactly.
THRESHOLD_POOL = np.array([-7.5, -2.0, -0.5, 0.0, 0.25, 1.0, 3.0, 10.0])


def make_schema(rng: np.random.Generator) -> Schema:
    attrs = [Attribute.numerical(f"num{i}") for i in range(rng.integers(1, 4))]
    for i in range(rng.integers(0, 3)):
        attrs.append(Attribute.categorical(f"cat{i}", int(rng.integers(2, 7))))
    order = rng.permutation(len(attrs))
    return Schema([attrs[i] for i in order], n_classes=int(rng.integers(2, 6)))


def make_tree(schema: Schema, rng: np.random.Generator, max_depth: int = 5):
    """A random (not data-derived) tree over ``schema``."""
    counter = [0]
    k = schema.n_classes

    def counts() -> np.ndarray:
        if rng.random() < 0.1:  # empty leaf: uniform-proba fallback path
            return np.zeros(k, dtype=np.int64)
        return rng.integers(0, 20, k).astype(np.int64)

    def build(depth: int) -> Node:
        node = Node(counter[0], depth, counts())
        counter[0] += 1
        if depth >= max_depth or rng.random() < 0.3:
            return node
        idx = int(rng.integers(schema.n_attributes))
        attr = schema[idx]
        if attr.is_numerical:
            split = NumericSplit(idx, float(rng.choice(THRESHOLD_POOL)))
        else:
            size = int(rng.integers(1, attr.domain_size))
            subset = frozenset(
                int(c) for c in rng.choice(attr.domain_size, size, replace=False)
            )
            split = CategoricalSplit(idx, subset)
        node.make_internal(split, build(depth + 1), build(depth + 1))
        return node

    return DecisionTree(schema, build(0))


def make_batch(schema: Schema, rng: np.random.Generator, n: int) -> np.ndarray:
    """Adversarial batch: threshold-exact, NaN, and unseen-code records."""
    batch = schema.empty(n)
    for attr in schema:
        if attr.is_numerical:
            values = np.where(
                rng.random(n) < 0.5,
                rng.choice(THRESHOLD_POOL, n),  # exact split points
                rng.normal(0, 5, n),
            )
            values[rng.random(n) < 0.05] = np.nan
            batch[attr.name] = values
        else:
            # codes in [-2, domain+2): includes negative and unseen codes
            batch[attr.name] = rng.integers(-2, attr.domain_size + 2, n)
    batch["class_label"] = rng.integers(0, schema.n_classes, n)
    return batch


def assert_equivalent(tree: DecisionTree, batch: np.ndarray) -> None:
    predictor = tree.compile()
    assert np.array_equal(predictor.predict(batch), tree.predict(batch))
    assert np.array_equal(predictor.route(batch), tree.route_recursive(batch))
    proba_c = predictor.predict_proba(batch)
    proba_r = tree.predict_proba(batch)
    assert proba_c.shape == proba_r.shape == (len(batch), tree.schema.n_classes)
    assert np.array_equal(proba_c, proba_r)  # bit-identical, not allclose


class TestCompiledEquivalenceProperties:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 64))
    @settings(max_examples=80, deadline=None)
    def test_random_tree_random_batch(self, seed, n):
        rng = np.random.default_rng(seed)
        schema = make_schema(rng)
        tree = make_tree(schema, rng)
        assert_equivalent(tree, make_batch(schema, rng, n))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_single_row_batches(self, seed):
        rng = np.random.default_rng(seed)
        schema = make_schema(rng)
        tree = make_tree(schema, rng)
        for _ in range(5):
            assert_equivalent(tree, make_batch(schema, rng, 1))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_empty_batch(self, seed):
        rng = np.random.default_rng(seed)
        schema = make_schema(rng)
        tree = make_tree(schema, rng)
        batch = make_batch(schema, rng, 0)
        assert_equivalent(tree, batch)
        predictor = tree.compile()
        assert predictor.predict(batch).shape == (0,)
        assert predictor.predict_proba(batch).shape == (0, schema.n_classes)


class TestCompiledEdgeCases:
    """Deterministic corners; always run."""

    def _numeric_tree(self):
        schema = Schema([Attribute.numerical("x")], n_classes=2)
        root = Node(0, 0, np.array([5, 5]))
        left = Node(1, 1, np.array([5, 0]))
        right = Node(2, 1, np.array([0, 5]))
        root.make_internal(NumericSplit(0, 1.0), left, right)
        return DecisionTree(schema, root)

    def test_record_exactly_on_threshold_routes_left(self):
        tree = self._numeric_tree()
        batch = tree.schema.empty(3)
        batch["x"] = [1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)]
        batch["class_label"] = 0
        predictor = tree.compile()
        assert list(predictor.predict(batch)) == [0, 1, 0]
        assert_equivalent(tree, batch)

    def test_nan_routes_right_on_both_paths(self):
        tree = self._numeric_tree()
        batch = tree.schema.empty(2)
        batch["x"] = [np.nan, -np.inf]
        batch["class_label"] = 0
        predictor = tree.compile()
        assert list(predictor.predict(batch)) == [1, 0]
        assert_equivalent(tree, batch)

    def test_unseen_categorical_codes_route_right(self):
        schema = Schema([Attribute.categorical("c", 4)], n_classes=2)
        root = Node(0, 0, np.array([5, 5]))
        left = Node(1, 1, np.array([5, 0]))
        right = Node(2, 1, np.array([0, 5]))
        root.make_internal(CategoricalSplit(0, frozenset({0, 2})), left, right)
        tree = DecisionTree(schema, root)
        batch = schema.empty(6)
        batch["c"] = [0, 1, 2, 3, 7, -1]  # 7 and -1 were never compiled
        batch["class_label"] = 0
        predictor = tree.compile()
        assert list(predictor.predict(batch)) == [0, 1, 0, 1, 1, 1]
        assert_equivalent(tree, batch)

    def test_single_leaf_tree(self):
        schema = Schema([Attribute.numerical("x")], n_classes=3)
        tree = DecisionTree(schema, Node(0, 0, np.array([1, 7, 2])))
        predictor = tree.compile()
        assert predictor.n_nodes == 1
        assert predictor.feature[0] == LEAF
        batch = schema.empty(4)
        batch["x"] = [0.0, 1.0, np.nan, -5.0]
        batch["class_label"] = 0
        assert list(predictor.predict(batch)) == [1, 1, 1, 1]
        assert_equivalent(tree, batch)

    def test_empty_leaf_uses_uniform_proba(self):
        schema = Schema([Attribute.numerical("x")], n_classes=4)
        tree = DecisionTree(schema, Node(0, 0, np.zeros(4, dtype=np.int64)))
        batch = schema.empty(2)
        batch["x"] = [0.0, 1.0]
        batch["class_label"] = 0
        proba = tree.compile().predict_proba(batch)
        assert np.array_equal(proba, np.full((2, 4), 0.25))
        assert_equivalent(tree, batch)

    def test_matrix_path_matches_structured_path(self):
        rng = np.random.default_rng(7)
        schema = make_schema(rng)
        tree = make_tree(schema, rng)
        batch = make_batch(schema, rng, 50)
        predictor = tree.compile()
        matrix = predictor.matrix(batch)
        assert matrix.shape == (50, schema.n_attributes)
        assert np.array_equal(
            predictor.leaf_indices(matrix), predictor.leaf_indices(batch)
        )

    def test_compiled_arrays_are_immutable(self):
        tree = self._numeric_tree()
        predictor = tree.compile()
        with pytest.raises(ValueError):
            predictor.leaf_label[0] = 9
        with pytest.raises(ValueError):
            predictor.threshold[0] = 0.0

    def test_compile_is_a_snapshot(self):
        """Mutating the tree after compile() does not affect the predictor."""
        tree = self._numeric_tree()
        predictor = tree.compile()
        batch = tree.schema.empty(2)
        batch["x"] = [0.0, 2.0]
        batch["class_label"] = 0
        before = predictor.predict(batch).copy()
        tree.root.make_leaf()  # collapse the tree
        assert np.array_equal(predictor.predict(batch), before)
        assert list(tree.predict(batch)) == [0, 0]

    def test_repr_smoke(self):
        assert "nodes=3" in repr(self._numeric_tree().compile())

    def test_unreached_subtree_is_never_visited(self):
        """Routing visits only the nodes some record reaches.

        The right subtree of this hand-built predictor splits on feature
        index 5 of a one-attribute schema: touching it would fail the
        column lookup, so routing a batch that goes all-left proves the
        kernel pushes no empty partition onto its work stack.
        """
        schema = Schema([Attribute.numerical("x")], n_classes=2)
        poisoned = 5
        predictor = CompiledPredictor(
            schema,
            feature=np.array([0, LEAF, poisoned, LEAF, LEAF], dtype=np.int32),
            threshold=np.array([1.0, np.nan, 0.0, np.nan, np.nan]),
            set_id=np.full(5, -1, dtype=np.int32),
            cat_member=np.zeros((1, 1), dtype=bool),
            left=np.array([1, 0, 3, 0, 0], dtype=np.int32),
            right=np.array([2, 0, 4, 0, 0], dtype=np.int32),
            leaf_label=np.array([0, 0, 1, 1, 1], dtype=np.int32),
            leaf_proba=np.full((5, 2), 0.5),
            node_ids=np.arange(5, dtype=np.int64),
        )
        batch = schema.empty(4)
        batch["x"] = [-3.0, 0.0, 0.5, 1.0]
        batch["class_label"] = 0
        assert list(predictor.leaf_indices(batch)) == [1, 1, 1, 1]
        assert list(predictor.leaf_indices(predictor.matrix(batch))) == [1] * 4
        batch["x"][3] = 2.0  # one record crosses into the poisoned subtree
        with pytest.raises(IndexError):
            predictor.leaf_indices(batch)


class TestSeededRandomLoops:
    """Always-run fallback sweep (no hypothesis dependency in the logic)."""

    def test_equivalence_random_sweep(self):
        rng = np.random.default_rng(20260805)
        for trial in range(60):
            schema = make_schema(rng)
            tree = make_tree(schema, rng, max_depth=int(rng.integers(1, 7)))
            n = int(rng.integers(0, 200))
            assert_equivalent(tree, make_batch(schema, rng, n))

    def test_deep_tree_does_not_recurse(self):
        """The compiled kernel is iterative: a 300-deep chain routes fine."""
        schema = Schema([Attribute.numerical("x")], n_classes=2)
        counts = np.array([1, 1])
        root = Node(0, 0, counts)
        node = root
        for depth in range(1, 301):
            left = Node(2 * depth - 1, depth, counts)
            right = Node(2 * depth, depth, counts)
            node.make_internal(NumericSplit(0, float(-depth)), right, left)
            node = left  # chain grows down the right-routing side
        tree = DecisionTree(schema, root)
        batch = schema.empty(3)
        batch["x"] = [0.0, -150.5, -1000.0]
        batch["class_label"] = 0
        predictor = tree.compile()
        assert np.array_equal(predictor.route(batch), tree.route_recursive(batch))
