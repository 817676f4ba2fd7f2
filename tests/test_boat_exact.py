"""The paper's central guarantee: BOAT emits exactly the reference tree.

These tests exercise the full pipeline (sampling phase, cleanup scan,
finalization with failure detection and rebuilds) across workloads,
impurity measures, stopping rules and adversarial configurations, always
asserting *structural equality* with the in-memory reference builder.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.splits import ImpuritySplitSelection
from repro.storage import CLASS_COLUMN, DiskTable, IOStats, MemoryTable
from repro.tree import build_reference_tree, tree_diff, trees_equal

from .conftest import simple_xy_data

GINI = ImpuritySplitSelection("gini")


def assert_boat_exact(data, schema, method, split_config, boat_config):
    table = MemoryTable(schema, data)
    result = boat_build(table, method, split_config, boat_config)
    reference = build_reference_tree(data, schema, method, split_config)
    diff = tree_diff(result.tree, reference)
    assert diff is None, f"BOAT differs from reference: {diff}"
    return result


class TestSimpleWorkloads:
    @pytest.mark.parametrize("rule", ["x", "xy", "color"])
    def test_exact_on_rule(self, small_schema, rule):
        data = simple_xy_data(small_schema, 8000, seed=3, rule=rule)
        assert_boat_exact(
            data,
            small_schema,
            GINI,
            SplitConfig(min_samples_split=40, min_samples_leaf=10),
            BoatConfig(sample_size=1500, bootstrap_repetitions=8, seed=1),
        )

    @pytest.mark.parametrize("impurity", ["gini", "entropy", "interclass_variance"])
    def test_exact_per_impurity(self, small_schema, impurity):
        data = simple_xy_data(small_schema, 6000, seed=4, rule="xy")
        assert_boat_exact(
            data,
            small_schema,
            ImpuritySplitSelection(impurity),
            SplitConfig(min_samples_split=40, min_samples_leaf=10),
            BoatConfig(sample_size=1200, bootstrap_repetitions=8, seed=2),
        )

    def test_exact_with_noisy_labels(self, small_schema):
        rng = np.random.default_rng(5)
        data = simple_xy_data(small_schema, 8000, seed=5, rule="x")
        flip = rng.random(len(data)) < 0.15
        data[CLASS_COLUMN] = np.where(
            flip, 1 - data[CLASS_COLUMN], data[CLASS_COLUMN]
        )
        assert_boat_exact(
            data,
            small_schema,
            GINI,
            SplitConfig(min_samples_split=100, min_samples_leaf=25, max_depth=6),
            BoatConfig(sample_size=1500, bootstrap_repetitions=8, seed=3),
        )


class TestAgrawalWorkloads:
    @pytest.mark.parametrize("fid", [1, 6, 7])
    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_exact(self, fid, noise):
        gen = AgrawalGenerator(
            AgrawalConfig(function_id=fid, noise=noise), seed=fid * 7 + 1
        )
        data = gen.generate(20000)
        assert_boat_exact(
            data,
            gen.schema,
            GINI,
            SplitConfig(min_samples_split=200, min_samples_leaf=50, max_depth=8),
            BoatConfig(
                sample_size=4000,
                bootstrap_repetitions=10,
                bootstrap_subsample=2000,
                seed=fid,
            ),
        )

    def test_exact_with_extra_attributes(self):
        gen = AgrawalGenerator(
            AgrawalConfig(function_id=1, noise=0.05, extra_numeric=4), seed=31
        )
        data = gen.generate(15000)
        assert_boat_exact(
            data,
            gen.schema,
            GINI,
            SplitConfig(min_samples_split=200, min_samples_leaf=50, max_depth=8),
            BoatConfig(sample_size=3000, bootstrap_repetitions=8, seed=4),
        )

    def test_exact_on_disk_table_with_two_scans(self, tmp_path):
        gen = AgrawalGenerator(AgrawalConfig(function_id=1, noise=0.1), seed=32)
        data = gen.generate(20000)
        io = IOStats()
        table = DiskTable.create(tmp_path / "d.tbl", gen.schema, io)
        table.append(data)
        io.reset()
        config = SplitConfig(min_samples_split=200, min_samples_leaf=50, max_depth=8)
        bcfg = BoatConfig(
            sample_size=4000, bootstrap_repetitions=10, bootstrap_subsample=2000,
            seed=5,
        )
        result = boat_build(table, GINI, config, bcfg)
        assert io.full_scans == 2  # the headline claim
        reference = build_reference_tree(data, gen.schema, GINI, config)
        assert trees_equal(result.tree, reference)


class TestAdversarialConfigurations:
    def test_tiny_sample_forces_rebuilds_but_stays_exact(self, small_schema):
        data = simple_xy_data(small_schema, 8000, seed=6, rule="xy")
        result = assert_boat_exact(
            data,
            small_schema,
            GINI,
            SplitConfig(min_samples_split=40, min_samples_leaf=10, max_depth=6),
            BoatConfig(sample_size=200, bootstrap_repetitions=4, seed=7),
        )
        assert result.report.mode == "boat"

    def test_degenerate_buckets_stay_exact(self, small_schema):
        data = simple_xy_data(small_schema, 6000, seed=7, rule="x")
        assert_boat_exact(
            data,
            small_schema,
            GINI,
            SplitConfig(min_samples_split=40, min_samples_leaf=10),
            BoatConfig(
                sample_size=1200, bootstrap_repetitions=8, bucket_budget=2, seed=8
            ),
        )

    def test_zero_interval_widening_stays_exact(self, small_schema):
        data = simple_xy_data(small_schema, 6000, seed=8, rule="xy")
        assert_boat_exact(
            data,
            small_schema,
            GINI,
            SplitConfig(min_samples_split=40, min_samples_leaf=10),
            BoatConfig(
                sample_size=1200,
                bootstrap_repetitions=8,
                interval_widening=0.0,
                interval_impurity_slack=0.0,
                seed=9,
            ),
        )

    def test_spill_threshold_one_stays_exact(self, small_schema, tmp_path):
        """Every held tuple goes through spill files — still exact."""
        data = simple_xy_data(small_schema, 5000, seed=9, rule="x")
        table = MemoryTable(small_schema, data)
        config = SplitConfig(min_samples_split=40, min_samples_leaf=10)
        bcfg = BoatConfig(
            sample_size=1000,
            bootstrap_repetitions=6,
            spill_threshold_rows=1,
            seed=10,
        )
        result = boat_build(table, GINI, config, bcfg, spill_dir=str(tmp_path))
        reference = build_reference_tree(data, small_schema, GINI, config)
        assert trees_equal(result.tree, reference)

    def test_inmemory_threshold_switch_stays_exact(self, small_schema):
        data = simple_xy_data(small_schema, 8000, seed=10, rule="xy")
        assert_boat_exact(
            data,
            small_schema,
            GINI,
            SplitConfig(min_samples_split=40, min_samples_leaf=10),
            BoatConfig(
                sample_size=1500,
                bootstrap_repetitions=8,
                inmemory_threshold=2000,
                seed=11,
            ),
        )

    def test_seed_never_changes_output(self, small_schema):
        data = simple_xy_data(small_schema, 6000, seed=11, rule="xy")
        config = SplitConfig(min_samples_split=40, min_samples_leaf=10)
        trees = []
        for seed in (1, 2, 3):
            table = MemoryTable(small_schema, data)
            bcfg = BoatConfig(
                sample_size=1200, bootstrap_repetitions=6, seed=seed
            )
            trees.append(boat_build(table, GINI, config, bcfg).tree)
        assert trees_equal(trees[0], trees[1])
        assert trees_equal(trees[1], trees[2])


class TestDegenerateInputs:
    def test_table_smaller_than_sample_switches_inmemory(self, small_schema):
        data = simple_xy_data(small_schema, 500, seed=12)
        table = MemoryTable(small_schema, data)
        config = SplitConfig(min_samples_split=20, min_samples_leaf=5)
        result = boat_build(
            table, GINI, config, BoatConfig(sample_size=1000, seed=1)
        )
        assert result.report.mode == "in-memory"
        reference = build_reference_tree(data, small_schema, GINI, config)
        assert trees_equal(result.tree, reference)

    def test_pure_data(self, small_schema):
        data = simple_xy_data(small_schema, 3000, seed=13)
        data[CLASS_COLUMN] = 1
        result = assert_boat_exact(
            data,
            small_schema,
            GINI,
            SplitConfig(),
            BoatConfig(sample_size=600, bootstrap_repetitions=4, seed=1),
        )
        assert result.tree.n_nodes == 1

    def test_max_depth_zero(self, small_schema):
        data = simple_xy_data(small_schema, 3000, seed=14, rule="x")
        result = assert_boat_exact(
            data,
            small_schema,
            GINI,
            SplitConfig(max_depth=0),
            BoatConfig(sample_size=600, bootstrap_repetitions=4, seed=1),
        )
        assert result.tree.n_nodes == 1

    def test_constant_attributes(self, small_schema):
        data = small_schema.empty(2000)
        data["x"] = 5.0
        data["y"] = 7.0
        data["color"] = 2
        rng = np.random.default_rng(15)
        data[CLASS_COLUMN] = rng.integers(0, 2, 2000, dtype=np.int32)
        result = assert_boat_exact(
            data,
            small_schema,
            GINI,
            SplitConfig(),
            BoatConfig(sample_size=400, bootstrap_repetitions=4, seed=1),
        )
        assert result.tree.n_nodes == 1

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nan_dense_attribute(self, small_schema, seed):
        """NaN never splits (``X <= NaN`` holds for no tuple), and BOAT
        holds NaN tuples at the node for exact in-memory resolution."""
        rng = np.random.default_rng(seed)
        data = simple_xy_data(small_schema, 3000, seed=seed, rule="xy")
        data["x"] = np.where(rng.random(3000) < 0.3, np.nan, data["x"].round())
        result = assert_boat_exact(
            data,
            small_schema,
            GINI,
            SplitConfig(min_samples_split=30, min_samples_leaf=8),
            BoatConfig(sample_size=800, bootstrap_repetitions=5, seed=seed),
        )
        assert result.tree.n_nodes > 1


def _schema():
    from repro.storage import Attribute, Schema

    return Schema(
        [
            Attribute.numerical("x"),
            Attribute.numerical("y"),
            Attribute.categorical("color", 4),
        ],
        n_classes=2,
    )


class TestPropertyBased:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rule=st.sampled_from(["x", "xy", "color"]),
        boat_seed=st.integers(min_value=0, max_value=100),
    )
    def test_random_datasets_exact(self, seed, rule, boat_seed):
        schema = _schema()
        data = simple_xy_data(schema, 4000, seed=seed, rule=rule)
        assert_boat_exact(
            data,
            schema,
            GINI,
            SplitConfig(min_samples_split=40, min_samples_leaf=10, max_depth=6),
            BoatConfig(
                sample_size=800, bootstrap_repetitions=6, seed=boat_seed
            ),
        )

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        noise_pct=st.integers(min_value=0, max_value=30),
    )
    def test_random_noisy_labels_exact(self, seed, noise_pct):
        schema = _schema()
        rng = np.random.default_rng(seed)
        data = simple_xy_data(schema, 4000, seed=seed, rule="x")
        flip = rng.random(len(data)) < noise_pct / 100
        data[CLASS_COLUMN] = np.where(
            flip, 1 - data[CLASS_COLUMN], data[CLASS_COLUMN]
        )
        assert_boat_exact(
            data,
            schema,
            GINI,
            SplitConfig(min_samples_split=60, min_samples_leaf=15, max_depth=5),
            BoatConfig(sample_size=800, bootstrap_repetitions=6, seed=seed % 17),
        )
