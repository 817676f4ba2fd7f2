"""Every build entry point under a checkpoint or SQL pushdown: build or refuse.

All seven entry points run one pipeline (``repro.core.pipeline``), so a
mode an entry point cannot honour is refused with one named error,
:class:`~repro.exceptions.UnsupportedModeError`, instead of being
silently ignored — and every mode it does honour builds the same tree as
the plain flat build.
"""

from __future__ import annotations

import pytest

from repro.config import BoatConfig, SplitConfig
from repro.core import boat_build, boat_cross_validate, quest_boat_build
from repro.datagen import AgrawalConfig, AgrawalGenerator
from repro.exceptions import ShardError, StorageError, UnsupportedModeError
from repro.forest import forest_build
from repro.recovery import resume_build
from repro.shard import (
    ElasticPolicy,
    FaultyTransport,
    make_transport,
    resume_sharded_build,
    sharded_boat_build,
)
from repro.splits import ImpuritySplitSelection, QuestSplitSelection
from repro.storage import (
    DiskTable,
    FaultyTable,
    IOStats,
    ShardedTable,
    SqlTable,
    partition_table,
)
from repro.tree import tree_to_json

N_ROWS = 3000
SPLIT = SplitConfig(min_samples_split=20, min_samples_leaf=5, max_depth=6)
GINI = ImpuritySplitSelection("gini")

ENTRIES = (
    "boat_build",
    "quest_boat_build",
    "sharded_boat_build",
    "resume_build",
    "resume_sharded_build",
    "forest_build",
    "boat_cross_validate",
)
#: The combinations ``check_modes`` refuses; every other one must build.
REFUSED = {
    ("quest_boat_build", "checkpoint"),
    ("forest_build", "checkpoint"),
    ("forest_build", "sql_pushdown"),
    ("boat_cross_validate", "checkpoint"),
    ("boat_cross_validate", "sql_pushdown"),
}


def _config(**overrides) -> BoatConfig:
    settings = dict(sample_size=600, bootstrap_repetitions=4, seed=7, batch_rows=500)
    settings.update(overrides)
    return BoatConfig(**settings)


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    generator = AgrawalGenerator(AgrawalConfig(function_id=1, noise=0.05), seed=11)
    data = generator.generate(N_ROWS)
    root = tmp_path_factory.mktemp("modes")
    disk = DiskTable.create(str(root / "train.tbl"), generator.schema, IOStats())
    disk.append(data)
    sql = SqlTable.create(str(root / "train.db"), generator.schema, io_stats=IOStats())
    sql.append(data)
    shard_dir = root / "shards"
    partition_table(disk, shard_dir, 2)
    yield {"disk": disk, "sql": sql, "shards": shard_dir}
    disk.close()
    sql.close()


def _sharded(shard_dir, config, entry, **kwargs):
    table = ShardedTable.open(shard_dir, IOStats())
    try:
        return entry(table, GINI, SPLIT, config, **kwargs)
    finally:
        table.close()


def _crash_sharded(shard_dir, config) -> None:
    """A checkpointed sharded build whose shard-1 cleanup unit is lost."""
    table = ShardedTable.open(shard_dir, IOStats())
    faulty = FaultyTransport(
        make_transport("inprocess", table.shard_paths), "drop", shard_id=1,
        at_request=1, times=1, shard_paths=table.shard_paths,
    )
    try:
        with pytest.raises(ShardError):
            sharded_boat_build(
                table, GINI, SPLIT, config, transport=faulty,
                elastic=ElasticPolicy(failover=False, local_fallback=False),
            )
    finally:
        faulty.close()
        table.close()


def _run(entry: str, tables, config) -> str:
    """The tree one entry point builds under ``config``, as JSON."""
    sql = tables["sql"]
    if entry == "boat_build":
        return tree_to_json(boat_build(sql, GINI, SPLIT, config).tree)
    if entry == "quest_boat_build":
        result = quest_boat_build(sql, QuestSplitSelection(), SPLIT, config)
        return tree_to_json(result.tree)
    if entry == "sharded_boat_build":
        return tree_to_json(_sharded(tables["shards"], config, sharded_boat_build).tree)
    if entry == "resume_build":
        faulty = FaultyTable(sql, "ioerror", fail_on_scan=1, fail_at_row=N_ROWS // 2)
        with pytest.raises(StorageError, match="injected"):
            boat_build(faulty, GINI, SPLIT, config)
        return tree_to_json(resume_build(sql, GINI, SPLIT, config).tree)
    if entry == "resume_sharded_build":
        _crash_sharded(tables["shards"], config)
        return tree_to_json(
            _sharded(tables["shards"], config, resume_sharded_build).tree
        )
    if entry == "forest_build":
        return tree_to_json(forest_build(sql, 1, GINI, SPLIT, config).forest.members[0])
    return tree_to_json(boat_cross_validate(sql, 3, GINI, SPLIT, config).trees[0])


@pytest.mark.parametrize("mode", ["checkpoint", "sql_pushdown"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_entry_point_builds_identically_or_refuses(entry, mode, tables, tmp_path):
    checkpoint_dir = str(tmp_path / "ckpt")
    if mode == "checkpoint":
        config = _config(checkpoint_dir=checkpoint_dir)
    elif entry.startswith("resume"):
        # A resume always has a checkpoint; pushdown rides on top of it.
        config = _config(checkpoint_dir=checkpoint_dir, sql_pushdown=True)
    else:
        config = _config(sql_pushdown=True)
    if (entry, mode) in REFUSED:
        with pytest.raises(UnsupportedModeError):
            _run(entry, tables, config)
        return
    if entry == "quest_boat_build":
        flat = quest_boat_build(tables["disk"], QuestSplitSelection(), SPLIT, _config())
    else:
        flat = boat_build(tables["disk"], GINI, SPLIT, _config())
    expected = tree_to_json(flat.tree)
    assert _run(entry, tables, config) == expected


def test_quest_build_is_traced_through_every_phase(tables):
    io = IOStats()
    table = DiskTable.open(tables["disk"].path, io)
    try:
        result = quest_boat_build(
            table, QuestSplitSelection(), SPLIT, _config(trace=True)
        )
    finally:
        table.close()
    trace = result.report.trace
    assert trace is not None
    outer = trace.find("quest_boat_build")
    assert outer.full_scans == 2
    names = {span.name for span in trace.spans()}
    assert {"sample", "sampling", "cleanup", "finalize"} <= names
    assert trace.find("finalize").attributes["tree_nodes"] == result.tree.n_nodes
