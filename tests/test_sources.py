"""The row-group parquet source: plan shape, the pure planner, parity with
``ray.data.read_parquet``, predicate pruning and the loud failures."""

import math
from pathlib import Path

import pyarrow as pa
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest

import ray.data

from jesse_ray import testgen
from jesse_ray.engine import validate_dataset
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.sources.parquet import RowGroupParquetSource, plan_read_tasks
from jesse_ray.spec import sequences_spec

#: the TPC-H-ish side tables of TESTDATA.md at the smallest scale
TPCH_SF0001 = Path("/root/testdata/sf0.001")
TARGET = ray.data.DataContext.get_current().target_max_block_size
MB = 1 << 20


def _batches(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))


def _first_op(ds) -> str:
    return ds.materialize().stats().splitlines()[0]


def _canon(t: pa.Table) -> list:
    return sorted(zip(
        [x or "" for x in t["doc_id"].to_pylist()],
        ["/".join(p) for p in t["path"].to_pylist()],
        t["error"].to_pylist(), t["value_json"].to_pylist(), t["schema_fragment"].to_pylist()))


@pytest.fixture(scope="module")
def multi_rg(corpus_sf0001, tmp_path_factory) -> str:
    """The sf0.001 dirty corpus rewritten as one file of 6 row groups."""
    p = tmp_path_factory.mktemp("rg") / "sequences.parquet"
    pq.write_table(pq.read_table(testgen.corpus_path("sf0.001")), p, row_group_size=400)
    assert pq.ParquetFile(p).num_row_groups >= 4
    return str(p)


# ---------------------------------------------------------------- plan shape


def test_multi_row_group_file_plans_one_fused_read(multi_rg):
    """One file with several row groups: the read fuses with the first map
    (no ``SplitBlocks`` fan-out), and validation gives the same answer as
    the same rows handed to the engine from memory."""
    op = _first_op(read_sequences(multi_rg).map_batches(lambda b: b, batch_format="pyarrow"))
    assert op.startswith("Operator 1 ReadParquet->MapBatches("), op
    assert "SplitBlocks" not in op

    spec = sequences_spec(allowed_sources_path=str(testgen.allowed_sources_path("sf0.001")))
    got = validate_dataset(read_sequences(multi_rg), spec)
    want = validate_dataset(ray.data.from_arrow(pq.read_table(multi_rg, columns=["doc_id", "tokens", "n_tok", "source"])), spec)
    assert _canon(got.all_violations_table()) == _canon(want.all_violations_table())
    assert got.unique_violations.equals(want.unique_violations)
    assert got.all_violations_table().num_rows > 0


def test_blocks_stay_row_group_sized(multi_rg):
    """However many row groups a task holds, each batch is one row group."""
    rows = [pq.ParquetFile(multi_rg).metadata.row_group(i).num_rows
            for i in range(pq.ParquetFile(multi_rg).num_row_groups)]
    sizes = read_sequences(multi_rg, columns=["doc_id"]).map_batches(
        lambda b: pa.table({"n": [b.num_rows]}), batch_format="pyarrow", batch_size=None)
    assert sorted(sizes.to_pandas()["n"]) == sorted(rows)


# ---------------------------------------------------------------- the planner

#: (name, decoded bytes per row group in file order)
LAYOUTS = [
    # testgen sf0.1: one file, 500k rows in 16,384-row groups of ~7.2 MB
    ("sf0.1", [7_190_796] * 30 + [3_722_000]),
    # perfbench validate_sharded: 8 files of one ~3.3 MB row group each
    ("validate_sharded", [3_353_812, 3_325_867, 3_341_477, 3_337_571,
                          3_334_817, 3_399_112, 3_342_944, 3_296_268]),
    # larger than the block target, with one row group alone over it
    ("oversized", [40 * MB] * 10 + [3 * TARGET] + [40 * MB] * 5),
    ("empty_groups", [0] * 5),
]


@pytest.mark.parametrize("cpus", [1, 4, 32])
@pytest.mark.parametrize("name,sizes", LAYOUTS, ids=[n for n, _ in LAYOUTS])
def test_planner_invariants(name, sizes, cpus):
    tasks = plan_read_tasks(sizes, cpus, TARGET)
    # every row group exactly once, contiguous and in file order
    assert [i for r in tasks for i in r] == list(range(len(sizes)))
    assert all(len(r) for r in tasks)
    assert len(tasks) >= min(len(sizes), cpus)
    assert len(tasks) >= min(len(sizes), math.ceil(sum(sizes) / TARGET))
    for r in tasks:
        assert len(r) == 1 or sum(sizes[i] for i in r) <= TARGET, (r, [sizes[i] for i in r])


def test_planner_task_count_and_balance():
    sf01 = LAYOUTS[0][1]
    # ~219 MB at a 128 MiB target: two tasks even on one CPU, split by bytes
    one = plan_read_tasks(sf01, 1, TARGET)
    assert [len(r) for r in one] == [15, 16]
    assert len(plan_read_tasks(sf01, 4, TARGET)) == 4
    assert len(plan_read_tasks(sf01, 32, TARGET)) == 31  # one per row group at most
    assert plan_read_tasks(LAYOUTS[1][1], 1, TARGET) == [range(0, 8)]
    assert [len(r) for r in plan_read_tasks([1] * 8, 3, TARGET)] == [3, 3, 2]
    assert plan_read_tasks([], 4, TARGET) == []


# ---------------------------------------------------------------- parity

PARITY_FILES = sorted(TPCH_SF0001.glob("*.parquet"))


def _parity(path: str, columns):
    want = _batches(ray.data.read_parquet(path, columns=columns))
    got = _batches(read_table(path, columns=columns))
    assert got.schema.names == want.schema.names
    assert got.schema.types == want.schema.types
    assert got.equals(want)


@pytest.mark.skipif(not PARITY_FILES, reason="TPC-H test tables not present")
@pytest.mark.parametrize("path", PARITY_FILES, ids=[p.name for p in PARITY_FILES])
def test_parity_with_read_parquet(ray_session, path):
    names = pq.read_schema(path).names
    _parity(str(path), None)
    _parity(str(path), names[::-1][:2])


def test_parity_with_read_parquet_sequences(corpus_sf0001):
    path = str(testgen.corpus_path("sf0.001"))
    _parity(path, None)
    _parity(path, ["source", "doc_id", "tokens"])
    assert _batches(read_sequences(path)).schema.names == ["doc_id", "tokens", "n_tok", "source"]


@pytest.fixture(scope="module")
def sorted_rg(tmp_path_factory) -> str:
    """n_tok ascending over 6 row groups of 100 rows, so each group's
    min/max statistics are disjoint."""
    p = tmp_path_factory.mktemp("sorted") / "t.parquet"
    t = pa.table({"doc_id": [f"d{i:04d}" for i in range(600)], "n_tok": pa.array(range(600), pa.int32())})
    pq.write_table(t, p, row_group_size=100)
    return str(p)


def test_predicate_prunes_row_groups_and_filters_rows(ray_session, sorted_rg):
    pred = pds.field("n_tok") < 250
    got = _batches(read_table(sorted_rg, predicate=pred))
    assert got.equals(pq.read_table(sorted_rg, filters=pred))
    assert got.num_rows == 250

    # row groups 3-5 (n_tok >= 300) are excluded by their statistics and
    # planned into no task
    md = pq.ParquetFile(sorted_rg).metadata
    tasks = RowGroupParquetSource(sorted_rg, predicate=pred).get_read_tasks(-1)
    assert sum(t.metadata.size_bytes for t in tasks) == sum(md.row_group(i).total_byte_size for i in range(3))
    full = RowGroupParquetSource(sorted_rg).get_read_tasks(-1)
    assert sum(t.metadata.num_rows for t in full) == 600
    assert sum(t.metadata.size_bytes for t in full) == sum(md.row_group(i).total_byte_size for i in range(6))


def test_predicate_excluding_everything_keeps_projected_schema(ray_session, sorted_rg):
    none = read_table(sorted_rg, columns=["n_tok", "doc_id"], predicate=pds.field("n_tok") < -1)
    assert none.count() == 0
    for d in (none, none.materialize()):
        assert d.schema().names == ["n_tok", "doc_id"]
        assert d.schema().types == [pa.int32(), pa.string()]


# ---------------------------------------------------------------- loud failures


def test_missing_path_raises(tmp_path):
    missing = str(tmp_path / "nope.parquet")
    with pytest.raises(ValueError, match="nope.parquet"):
        read_table(missing)


def test_directory_without_parquet_raises(tmp_path):
    (tmp_path / "notes.txt").write_text("x")
    with pytest.raises(ValueError, match=str(tmp_path)):
        read_table(str(tmp_path))


def test_hive_partitioned_directory_raises(tmp_path):
    d = tmp_path / "source=web"
    d.mkdir()
    pq.write_table(pa.table({"doc_id": ["a"]}), d / "part-0.parquet")
    with pytest.raises(ValueError, match="source=web"):
        read_table(str(tmp_path))


def test_differing_schemas_raise(ray_session, tmp_path):
    pq.write_table(pa.table({"doc_id": ["a"], "n_tok": pa.array([1], pa.int32())}), tmp_path / "a.parquet")
    pq.write_table(pa.table({"doc_id": ["b"], "n_tok": pa.array([1], pa.int64())}), tmp_path / "b.parquet")
    with pytest.raises(ValueError, match="b.parquet"):
        read_table(str(tmp_path), columns=["doc_id", "n_tok"])
    # the projection decides: the shared column alone reads fine
    assert read_table(str(tmp_path), columns=["doc_id"]).count() == 2


def test_directory_reads_files_in_sorted_order(ray_session, tmp_path):
    """A flat directory reads like Ray's: sorted, ``_``-prefixed files skipped."""
    for name, v in (("b.parquet", "2"), ("a.parquet", "1"), ("_tmp.parquet", "x")):
        pq.write_table(pa.table({"doc_id": [v]}), tmp_path / name)
    got = _batches(read_table(str(tmp_path)))
    assert got["doc_id"].to_pylist() == ["1", "2"]
    assert got.equals(_batches(ray.data.read_parquet(str(tmp_path))))
