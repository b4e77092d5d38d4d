"""Parquet source/sink helpers.

The reference's I/O surface is a CLI file reader + JSON parse hook
(src/jesse_cli.erl:90-106, src/jesse.erl:79).  Here the analogue is a
row-group parquet source with explicit column pruning — a validation
run that only touches (doc_id, n_tok, source) must not lift the wide
``tokens`` lists off storage.

Every :func:`read_sequences` / :func:`read_table` read runs one planner.
The driver reads each file's footer once, and :func:`plan_read_tasks`
packs whole row groups, contiguous and in file order, into read tasks
balanced by decoded bytes.  Ray's own ``ParquetDatasource`` plans one
task per FILE; asking it for more blocks than files split each task's
output after the read (``ReadParquet->SplitBlocks``), which blocks
read→map operator fusion and round-trips the corpus through the object
store.  Here no task's estimate exceeds
``DataContext.target_max_block_size`` and the block count is the task
count, so Ray never adds a split: the first map stage always fuses into
the read (``ReadParquet->MapBatches``).

:func:`planned_read_tasks` hands the same planned tasks to a caller that
runs them itself (the validation engine runs one plain Ray task per read
task).
"""

from __future__ import annotations

import functools
import os
import weakref
from typing import Iterator, Optional, Sequence

import pyarrow as pa
import pyarrow.dataset as pds
import pyarrow.fs as pafs

import ray.data
from ray.data import Dataset
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask

SEQUENCE_COLUMNS = ["doc_id", "tokens", "n_tok", "source"]


def _pack(sizes: Sequence[int], cap: int) -> list[int]:
    """Task boundaries of a greedy left-to-right packing: a new task starts
    when the next row group would take the current one past ``cap``."""
    bounds, acc = [0], 0
    for i, s in enumerate(sizes):
        if acc and acc + s > cap:
            bounds.append(i)
            acc = 0
        acc += s
    bounds.append(len(sizes))
    return bounds


def plan_read_tasks(sizes: Sequence[int], cpus: int, target_max_block_size: int) -> list[range]:
    """Pack row groups (their decoded bytes, in file order) into read tasks.

    Returns one ``range`` of row-group positions per task; the ranges are
    contiguous and cover every row group once.  There are
    ``k = min(n_row_groups, max(cpus, ceil(total / target_max_block_size)))``
    tasks, balanced by bytes (the smallest largest-task that packs into
    ``k``), and a task holding more than one row group never exceeds
    ``target_max_block_size`` — if whole row groups cannot meet that at
    ``k`` tasks, the packing at the target decides and there are more.
    """
    n = len(sizes)
    if n == 0:
        return []
    total = sum(sizes)
    k = min(n, max(cpus, -(-total // target_max_block_size)))
    # greedy packing is monotone in its cap: bisect for the smallest cap
    # that fits in k tasks
    lo, hi = 1, max(1, total)
    while lo < hi:
        mid = (lo + hi) // 2
        if len(_pack(sizes, mid)) - 1 <= k:
            hi = mid
        else:
            lo = mid + 1
    bounds = _pack(sizes, min(lo, target_max_block_size))
    while len(bounds) - 1 < k:
        # fewer tasks than asked for: halve (by bytes) the heaviest task
        # that holds more than one row group
        j = max((j for j in range(len(bounds) - 1) if bounds[j + 1] - bounds[j] > 1),
                key=lambda j: sum(sizes[bounds[j]:bounds[j + 1]]))
        a, b = bounds[j], bounds[j + 1]
        half, acc, cut = sum(sizes[a:b]) / 2, 0, a + 1
        for i in range(a, b - 1):
            acc += sizes[i]
            if acc > half:
                break
            cut = i + 1
        bounds.insert(j + 1, cut)
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]


def cluster_cpus() -> int:
    """CPUs Ray reports; the host's count before ``ray.init``."""
    if ray.is_initialized():
        return max(1, int(ray.cluster_resources().get("CPU", 1)))
    return os.cpu_count() or 1


def _resolve(path: str | os.PathLike | Sequence[str | os.PathLike]) -> list[tuple[pafs.FileSystem, str]]:
    """Expand the given files and directories to ``(filesystem, file)``
    pairs, directories to their ``*.parquet`` files in sorted order
    (entries under a ``.``- or ``_``-prefixed name skipped, as Ray does).
    Anything this source cannot read exactly as given raises."""
    items = [path] if isinstance(path, (str, os.PathLike)) else list(path)
    if not items:
        raise ValueError("no parquet path given")
    out = []
    for item in items:
        uri = os.fspath(item)
        fs, p = pafs.FileSystem.from_uri(uri if "://" in uri else os.path.abspath(uri))
        info = fs.get_file_info(p)
        if info.type == pafs.FileType.NotFound:
            raise ValueError(f"parquet path not found: {uri}")
        if info.type != pafs.FileType.Directory:
            out.append((fs, p))
            continue
        found = []
        for f in fs.get_file_info(pafs.FileSelector(p, recursive=True)):
            parts = f.path[len(p):].strip("/").split("/")
            if f.type != pafs.FileType.File or not f.path.endswith(".parquet") \
                    or any(s.startswith((".", "_")) for s in parts):
                continue
            if any("=" in s for s in parts[:-1]):
                raise ValueError(
                    f"{f.path}: hive-partitioned layout under {uri} — partition "
                    "columns would be dropped; pass the files (or a flat directory)")
            found.append(f.path)
        if not found:
            raise ValueError(f"no .parquet files under {uri}")
        out.extend((fs, f) for f in sorted(found))
    return out


def _read_row_groups(pieces: list[tuple[pafs.FileSystem, str, list[int]]],
                     columns: Optional[list[str]], predicate, schema: pa.Schema) -> Iterator[pa.Table]:
    """One read task: one table per row group, in order (an empty table
    with the projected schema when nothing survives the predicate)."""
    fmt = pds.ParquetFileFormat()
    empty = True
    for fs, path, ids in pieces:
        for frag in fmt.make_fragment(path, filesystem=fs, row_groups=ids).split_by_row_group():
            t = frag.to_table(columns=columns, filter=predicate, use_threads=False)
            if t.num_rows:
                empty = False
                yield t
    if empty:
        yield schema.empty_table()


class RowGroupParquetSource(Datasource):
    """Parquet files read as whole row groups, planned on the driver from
    the files' footers (see :func:`plan_read_tasks`).

    Each read task carries its ``(path, row group ids)`` list, its decoded
    bytes and its exact row count (unknown under a predicate).  A
    ``predicate`` (``pyarrow.dataset`` expression) drops the row groups
    whose statistics exclude it at plan time and filters rows in the task.
    """

    def __init__(self, path, *, columns: Optional[list[str]] = None, predicate=None):
        fmt = pds.ParquetFileFormat()
        groups = []  # (filesystem, path, row group id, rows, decoded bytes)
        schema = first = None
        for fs, p in _resolve(path):
            frag = fmt.make_fragment(p, filesystem=fs)
            frag.ensure_complete_metadata()
            file_schema = frag.physical_schema
            missing = [c for c in columns or () if c not in file_schema.names]
            if missing:
                raise ValueError(f"{p}: no column(s) {missing}")
            proj = file_schema if columns is None else pa.schema(
                [file_schema.field(c) for c in columns], metadata=file_schema.metadata)
            if schema is None:
                schema, first = proj, p
            elif not proj.equals(schema):
                raise ValueError(f"{p}: schema differs from {first}:\n{proj}\nvs\n{schema}")
            if predicate is not None:
                frag = frag.subset(filter=predicate)
            groups.extend((fs, p, rg.id, rg.num_rows, rg.total_byte_size) for rg in frag.row_groups)
        self._nbytes = sum(g[4] for g in groups)
        plan = plan_read_tasks([g[4] for g in groups], cluster_cpus(),
                               ray.data.DataContext.get_current().target_max_block_size)
        self._tasks = [_read_task([groups[i] for i in r], columns, predicate, schema)
                       for r in plan] or [_read_task([], columns, predicate, schema)]

    def get_name(self) -> str:
        return "Parquet"  # the operator reads ``ReadParquet``, as Ray's own

    def estimate_inmemory_data_size(self) -> Optional[int]:
        return self._nbytes

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        return self._tasks  # planned from the footers, not from ``parallelism``


def _read_task(groups: list, columns, predicate, schema: pa.Schema) -> ReadTask:
    pieces: list[tuple[pafs.FileSystem, str, list[int]]] = []
    for fs, p, rg, _, _ in groups:
        if pieces and pieces[-1][1] == p:
            pieces[-1][2].append(rg)
        else:
            pieces.append((fs, p, [rg]))
    meta = BlockMetadata(
        num_rows=None if predicate is not None else sum(g[3] for g in groups),
        size_bytes=sum(g[4] for g in groups),
        input_files=[p for _, p, _ in pieces],
        exec_stats=None,
    )
    return ReadTask(functools.partial(_read_row_groups, pieces, columns, predicate, schema),
                    meta, schema=schema)


#: the planned read tasks of every Dataset :func:`_read` returned, for as
#: long as that Dataset lives
_PLANNED: "weakref.WeakKeyDictionary[Dataset, list[ReadTask]]" = weakref.WeakKeyDictionary()


def planned_read_tasks(ds: Dataset) -> Optional[list[ReadTask]]:
    """The read tasks :class:`RowGroupParquetSource` planned for ``ds`` when
    ``ds`` is a Dataset returned by :func:`read_sequences` /
    :func:`read_table` itself, in plan order; ``None`` for any other Dataset
    (one derived from such a read included)."""
    return _PLANNED.get(ds)


def _read(path, columns: Optional[list[str]], predicate) -> Dataset:
    src = RowGroupParquetSource(path, columns=columns, predicate=predicate)
    tasks = src.get_read_tasks(-1)
    # ask for exactly the planned task count: SetReadParallelismRule then
    # finds no shortfall to make up with a SplitBlocks factor
    ds = ray.data.read_datasource(src, override_num_blocks=len(tasks))
    _PLANNED[ds] = tasks
    return ds


def read_sequences(
    path: str | Sequence[str],
    *,
    columns: Optional[list[str]] = None,
    predicate=None,
) -> Dataset:
    """Read a sequences corpus (files and/or flat directories of
    ``*.parquet``) with column pruning, planned by
    :class:`RowGroupParquetSource`.

    ``columns=None`` reads the canonical 4-column shape (never side
    columns like the fixtures' ``expected_error`` golden answers).
    ``predicate`` (a ``pyarrow.dataset`` expression) is pushed INTO the
    read — row groups whose column statistics exclude the predicate are
    never planned, and the surviving row groups are filtered during the
    scan (prune at the read, not after it).
    """
    return _read(path, columns if columns is not None else SEQUENCE_COLUMNS, predicate)


def read_table(
    path: str | Sequence[str],
    *,
    columns: Optional[list[str]] = None,
    predicate=None,
) -> Dataset:
    """Generic pruned parquet read for the side tables
    (documents/events/embeddings/TPC-H): the same row-group plan and
    ``predicate`` pushdown as :func:`read_sequences`, with
    ``columns=None`` meaning every column of the file."""
    return _read(path, columns, predicate)


def read_corpus(
    path: str | Sequence[str],
    *,
    format: str = "parquet",
    columns: Optional[list[str]] = None,
    **kw,
) -> Dataset:
    """Format-dispatching corpus reader — the analogue of the reference
    CLI's instance-file reader + parser_fun decode hook
    (src/jesse_cli.erl:90-106, src/jesse.erl:79): ``parquet`` (columnar,
    pruned at the read) or ``jsonl`` (one JSON document per line, the
    reference's native instance format; Arrow's JSON reader decodes in
    C, and pruning happens right after decode)."""
    if format == "parquet":
        return read_sequences(path, columns=columns, **kw)
    if format in ("jsonl", "json"):
        ds = ray.data.read_json(path, **kw)
        if columns is not None:
            ds = ds.select_columns(columns)
        return ds
    if format == "csv":
        ds = ray.data.read_csv(path, **kw)
        if columns is not None:
            ds = ds.select_columns(columns)
        return ds
    if format == "orc":
        return read_orc(path, columns=columns)
    if format in ("feather", "ipc", "arrow"):
        return read_feather(path, columns=columns)
    raise ValueError(
        f"unknown corpus format {format!r} (parquet|jsonl|csv|orc|feather)")


def write_partitioned(
    ds: Dataset,
    out_dir: str,
    *,
    by: str,
    stats_col: Optional[str] = None,
    batch_size: int = 65536,
) -> dict:
    """Partitioned parquet sink with a stats manifest — the resumable
    output layout the 100-TB plan requires (one DIRECTORY per partition
    value, many files inside, never one giant file).

    Streaming, shuffle-free: each map task splits its batches by the
    partition column and appends one file per (batch, value) under
    ``out_dir/<by>=<value>/`` (hive-style), emitting a one-row-per-file
    stats record.  The driver only ever sees those stats rows and writes
    ``_manifest.json`` LAST (per-partition file lists, row counts and
    min/max of ``stats_col`` for scan pruning) — a crashed run leaves no
    manifest, so a rerun is detected by its absence and simply rewrites;
    a completed manifest makes the write idempotent (rerun = no-op,
    returns the recorded manifest).  Readers can prune partitions on the
    manifest min/max without touching a single row group.

    The partition column should be bounded-cardinality (source, date,
    bucket id) — per-batch splits are vectorized Arrow filters, and file
    counts grow with n_blocks × n_values."""
    import json
    import uuid

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    manifest_path = os.path.join(out_dir, "_manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            return json.load(f)
    os.makedirs(out_dir, exist_ok=True)

    def write_batch(batch: pa.Table) -> pa.Table:
        vals = pc.unique(batch[by]).to_pylist()
        recs = {"partition": [], "file": [], "n_rows": [], "lo": [], "hi": []}
        for v in vals:
            part = batch.filter(pc.equal(batch[by], v) if v is not None
                                else pc.is_null(batch[by]))
            key = "__HIVE_DEFAULT_PARTITION__" if v is None else str(v)
            d = os.path.join(out_dir, f"{by}={key}")
            os.makedirs(d, exist_ok=True)
            fn = os.path.join(d, f"part-{uuid.uuid4().hex}.parquet")
            pq.write_table(part, fn)
            recs["partition"].append(key)
            recs["file"].append(fn)
            recs["n_rows"].append(len(part))
            if stats_col is not None and len(part):
                recs["lo"].append(pc.min(part[stats_col]).as_py())
                recs["hi"].append(pc.max(part[stats_col]).as_py())
            else:
                recs["lo"].append(None)
                recs["hi"].append(None)
        return pa.table({k: pa.array(v) for k, v in recs.items()})

    stats = ds.map_batches(write_batch, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=batch_size)
    rows = []
    for b in stats.iter_batches(batch_format="pyarrow"):
        rows.extend(b.to_pylist())
    parts: dict = {}
    for r in rows:
        p = parts.setdefault(r["partition"], {"files": [], "n_rows": 0,
                                              "lo": None, "hi": None})
        p["files"].append(r["file"])
        p["n_rows"] += r["n_rows"]
        for k, pick in (("lo", min), ("hi", max)):
            if r[k] is not None:
                p[k] = r[k] if p[k] is None else pick(p[k], r[k])
    manifest = {"by": by, "stats_col": stats_col, "partitions": parts,
                "n_rows": sum(p["n_rows"] for p in parts.values())}
    tmp = manifest_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, manifest_path)
    return manifest


def read_orc(
    path: str | Sequence[str],
    *,
    columns: Optional[list[str]] = None,
) -> Dataset:
    """ORC reader (Ray Data has no native one): parallelism unit is the
    ORC STRIPE — the driver lists (file, stripe) pairs from footer
    metadata only (no data read), and each Ray task opens its stripe
    with ``pyarrow.orc`` and column pruning.  Mirrors the row-group
    alignment of :func:`read_sequences`: one task per stripe, fused
    straight into downstream map stages."""
    import pyarrow.orc as orc

    paths = [path] if isinstance(path, str) else list(path)
    items = []
    for p in paths:
        f = orc.ORCFile(p)
        items.extend({"path": p, "stripe": s} for s in range(f.nstripes))

    def load(batch: pa.Table) -> pa.Table:
        import pyarrow.orc as orc_mod

        tables = []
        for prow, srow in zip(batch["path"].to_pylist(), batch["stripe"].to_pylist()):
            t = orc_mod.ORCFile(prow).read_stripe(srow, columns=columns)
            if isinstance(t, pa.RecordBatch):
                t = pa.Table.from_batches([t])
            tables.append(t)
        return pa.concat_tables(tables)

    return ray.data.from_items(items, override_num_blocks=max(1, len(items))).map_batches(
        load, batch_format="pyarrow", batch_size=1)


def read_feather(
    path: str | Sequence[str],
    *,
    columns: Optional[list[str]] = None,
    batches_per_block: int = 4,
) -> Dataset:
    """Arrow IPC / Feather-v2 reader: parallelism unit is a RANGE of
    record batches — the driver reads only the footer (batch count per
    file), each task memory-maps its file and materializes just its
    assigned batches (IPC is zero-copy off the map)."""
    import pyarrow.ipc as ipc

    paths = [path] if isinstance(path, str) else list(path)
    items = []
    for p in paths:
        with pa.memory_map(p) as src:
            n = ipc.RecordBatchFileReader(src).num_record_batches
        for lo in range(0, n, batches_per_block):
            items.append({"path": p, "lo": lo, "hi": min(lo + batches_per_block, n)})

    def load(batch: pa.Table) -> pa.Table:
        import pyarrow.ipc as ipc_mod

        tables = []
        for prow, lo, hi in zip(batch["path"].to_pylist(), batch["lo"].to_pylist(),
                                batch["hi"].to_pylist()):
            with pa.memory_map(prow) as src:
                rd = ipc_mod.RecordBatchFileReader(src)
                t = pa.Table.from_batches([rd.get_batch(i) for i in range(lo, hi)])
            if columns is not None:
                t = t.select(columns)
            tables.append(t)
        return pa.concat_tables(tables)

    return ray.data.from_items(items, override_num_blocks=max(1, len(items))).map_batches(
        load, batch_format="pyarrow", batch_size=1)
