"""Seeded corpus generators and DuckDB golden answers for the benchmark.

Run as a script, it prepares one workload's inputs in a fresh process so
that generation and DuckDB memory never count toward the driver's peak
RSS:

    python3 perfbench/corpus.py <workload> <seed> <rows> <out_dir>

It writes the parquet files the engine reads under ``data/``, plus
``golden.json`` (the expected per-atom violation counts and
duplicated-key set, computed by DuckDB SQL over those same files, never
by the engine) and ``reference.digest`` (the drift reference, a sketch
of a clean corpus of another seed).  ``done.json`` is written last, so
a half-written directory is never taken for a finished one.

The recipes follow ``jesse_ray.testgen``: lognormal lengths, Zipf
tokens, one injected error class per dirty row.  ``validate_sharded`` is
the testgen sf0.1 recipe itself with the seed as a parameter, so
``validate_sharded`` at seed 42 and 500,000 rows is the sf0.1 corpus.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

VOCAB = 50_000
MIN_TOK, MAX_TOK = 1, 2048
SOURCES = ["web", "books", "code", "wiki", "forums"]
SOURCE_WEIGHTS = [0.70, 0.12, 0.10, 0.05, 0.03]
BAD_SOURCE = "crawl-x"
DOC_ID_PATTERN = r"^doc-[0-9]{8}$"
CLASSES = [
    "wrong_size",
    "not_in_range",
    "not_unique",
    "not_in_enum",
    "missing_required_property",
    "token_not_in_range",
    "no_match",
]
#: bump when a recipe changes, so cached corpora are rebuilt
VERSION = "4"


def _clean(rng: np.random.Generator, n: int, *, mean_log_len: float = 5.0):
    doc_ids = np.array([f"doc-{i:08d}" for i in range(n)], dtype=object)
    lengths = np.clip(rng.lognormal(mean=mean_log_len, sigma=0.8, size=n), MIN_TOK, MAX_TOK).astype(np.int32)
    flat = ((rng.zipf(1.3, size=int(lengths.sum())) - 1) % VOCAB).astype(np.int32)
    sources = rng.choice(np.array(SOURCES, dtype=object), size=n, p=SOURCE_WEIGHTS)
    return doc_ids, lengths, flat, sources


def _table(doc_ids, lengths, flat, n_tok, sources) -> pa.Table:
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    return pa.table({
        "doc_id": pa.array(doc_ids, type=pa.string()),
        "tokens": pa.ListArray.from_arrays(pa.array(offsets), pa.array(flat, type=pa.int32())),
        "n_tok": pa.array(n_tok, type=pa.int32()),
        "source": pa.array(sources, type=pa.string()),
    })


def _inject(rng, rows, doc_ids, lengths, flat, n_tok, sources) -> list[int]:
    """Give each index in ``rows`` one error class, drawn uniformly, in
    testgen's order of random draws.  Returns the rows picked for
    ``not_unique`` (the caller appends their copies)."""
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    assign = rng.integers(0, len(CLASSES), size=len(rows))
    dup_targets = []
    for j, i in enumerate(rows):
        c = CLASSES[assign[j]]
        if c == "wrong_size":
            n_tok[i] = lengths[i] + 7 if lengths[i] + 7 <= MAX_TOK else max(MIN_TOK, int(lengths[i]) - 7)
            if n_tok[i] == lengths[i]:
                n_tok[i] = lengths[i] - 1 if lengths[i] > 1 else lengths[i] + 1
        elif c == "not_in_range":
            n_tok[i] = int(rng.integers(MAX_TOK + 1, MAX_TOK + 500)) if rng.random() < 0.5 else 0
        elif c == "not_unique":
            dup_targets.append(i)
        elif c == "not_in_enum":
            sources[i] = BAD_SOURCE
        elif c == "missing_required_property":
            doc_ids[i] = None
        elif c == "token_not_in_range":
            pos = int(offsets[i]) + int(rng.integers(0, lengths[i]))
            flat[pos] = np.int32(VOCAB + rng.integers(0, 1000)) if rng.random() < 0.5 else np.int32(-1 - rng.integers(0, 5))
        elif c == "no_match":
            doc_ids[i] = f"DOC_{i}"
    return dup_targets


def _with_copies(rng, tbl: pa.Table, dup_targets: list[int], *, hot_keys: int) -> pa.Table:
    """Append 2-4 extra copies of each duplicate target; the first
    ``hot_keys`` targets get 100 copies each (the skew stressor)."""
    if not dup_targets:
        return tbl
    extra = []
    for k, i in enumerate(dup_targets):
        copies = 1 + int(rng.integers(1, 4))
        if k < hot_keys:
            copies = 100
        extra.extend([i] * copies)
    return pa.concat_tables([tbl, tbl.take(pa.array(extra, type=pa.int64()))])


#: files of the validate_sharded corpus.  At the default 60k rows this
#: keeps ~7.5k rows per file; 32 files of 1.9k rows spent 30% of each
#: call's CPU on per-file and per-task overhead
VS_SHARDS = 8


def gen_validate_sharded(seed: int, rows: int, out: Path) -> None:
    """The testgen sf0.1 recipe: ~1% dirty rows spread uniformly over the
    7 error classes and 2 hot keys with 100 copies, sharded into files."""
    rng = np.random.default_rng(seed)
    doc_ids, lengths, flat, sources = _clean(rng, rows)
    n_tok = lengths.copy()
    dirty = rng.choice(rows, size=max(8, rows // 100), replace=False)
    dups = _inject(rng, dirty, doc_ids, lengths, flat, n_tok, sources)
    tbl = _with_copies(rng, _table(doc_ids, lengths, flat, n_tok, sources), dups,
                       hot_keys=2 if rows >= 20_000 else 0)
    per = -(-tbl.num_rows // VS_SHARDS)
    for s in range(VS_SHARDS):
        pq.write_table(tbl.slice(s * per, per), out / f"shard-{s:04d}.parquet",
                       row_group_size=65_536)


#: shards of the checkpoint corpus (two partitions of four files)
CKPT_SHARDS = 8
#: rows per row group in the checkpoint corpus
CKPT_ROW_GROUP = 1024
#: clean rows at the end of the checkpoint corpus that may receive dirt
CKPT_TAIL = 256


def gen_checkpoint_drift(seed: int, rows: int, out: Path) -> None:
    """A sharded corpus that is clean except for its last row group, in
    the last shard."""
    rng = np.random.default_rng(seed)
    doc_ids, lengths, flat, sources = _clean(rng, rows)
    n_tok = lengths.copy()
    tail = min(CKPT_TAIL, rows // 2)
    dirty = rng.choice(np.arange(rows - tail, rows), size=min(tail, 64), replace=False)
    dups = _inject(rng, dirty, doc_ids, lengths, flat, n_tok, sources)
    tbl = _table(doc_ids, lengths, flat, n_tok, sources)
    if dups:
        tbl = pa.concat_tables([tbl, tbl.take(pa.array(dups, type=pa.int64()))])
    head, dirt = tbl.slice(0, rows - tail), tbl.slice(rows - tail)
    per = -(-head.num_rows // CKPT_SHARDS)
    last = CKPT_SHARDS - 1
    for s in range(last):
        pq.write_table(head.slice(s * per, per), out / f"shard-{s:04d}.parquet",
                       row_group_size=CKPT_ROW_GROUP)
    with pq.ParquetWriter(out / f"shard-{last:04d}.parquet", tbl.schema) as w:
        w.write_table(head.slice(last * per), row_group_size=CKPT_ROW_GROUP)
        w.write_table(dirt)  # its own, final row group


def gen_violation_heavy(seed: int, rows: int, out: Path) -> None:
    """One file with 16k-row row groups and short token lists (mean ~16).
    About half the rows carry one of rows/6 keys that each appear 2-4
    times (a quarter of the distinct keys), and ~20% of rows carry one
    row-level violation."""
    rng = np.random.default_rng(seed)
    n_dup_keys = rows // 6
    copies = rng.integers(2, 5, size=n_dup_keys)
    n_single = max(1, rows - int(copies.sum()))
    n_keys = n_single + n_dup_keys
    ids, lengths, flat, sources = _clean(rng, n_keys, mean_log_len=2.45)
    key_rows = np.concatenate([np.arange(n_single),
                               np.repeat(np.arange(n_single, n_keys), copies)])
    rng.shuffle(key_rows)
    t = _table(ids, lengths, flat, lengths, sources).take(pa.array(key_rows, type=pa.int64()))
    tokens = t["tokens"].combine_chunks()
    doc_ids = t["doc_id"].to_numpy(zero_copy_only=False).copy()
    sources = t["source"].to_numpy(zero_copy_only=False).copy()
    lengths = pc.list_value_length(tokens).to_numpy().astype(np.int32)
    flat = pc.list_flatten(tokens).to_numpy().copy()
    n_tok = lengths.copy()
    dirty = rng.choice(len(key_rows), size=len(key_rows) // 5, replace=False)
    dups = _inject(rng, dirty, doc_ids, lengths, flat, n_tok, sources)
    tbl = _with_copies(rng, _table(doc_ids, lengths, flat, n_tok, sources), dups, hot_keys=0)
    pq.write_table(tbl, out / "sequences.parquet", row_group_size=16_384)


GENERATORS = {
    "validate_sharded": gen_validate_sharded,
    "checkpoint_drift": gen_checkpoint_drift,
    "violation_heavy": gen_violation_heavy,
}


def golden(files: list[str]) -> dict:
    """Expected engine output for ``sequences_spec`` over ``files``,
    computed with DuckDB SQL only: violation counts per error atom and
    the duplicated-key set (count plus a digest of ``key<TAB>copies``
    lines in key order)."""
    import duckdb

    allowed = ", ".join(f"'{s}'" for s in SOURCES)
    src = "read_parquet([" + ", ".join(f"'{f}'" for f in files) + "])"
    con = duckdb.connect()
    try:
        row = con.execute(f"""
            SELECT count(*),
                   count(*) FILTER (WHERE doc_id IS NULL) + count(*) FILTER (WHERE tokens IS NULL)
                     + count(*) FILTER (WHERE n_tok IS NULL) + count(*) FILTER (WHERE source IS NULL),
                   count(*) FILTER (WHERE NOT regexp_matches(doc_id, '{DOC_ID_PATTERN}')),
                   coalesce(sum(len(list_filter(tokens, x -> x < 0 OR x >= {VOCAB}))), 0)
                     + count(*) FILTER (WHERE n_tok < {MIN_TOK} OR n_tok > {MAX_TOK}),
                   count(*) FILTER (WHERE len(tokens) != n_tok)
                     + count(*) FILTER (WHERE len(tokens) < {MIN_TOK} OR len(tokens) > {MAX_TOK}),
                   count(*) FILTER (WHERE source NOT IN ({allowed}))
            FROM {src}""").fetchone()
        dups = con.execute(f"""
            SELECT doc_id, count(*) AS c FROM {src}
            WHERE doc_id IS NOT NULL GROUP BY doc_id HAVING count(*) > 1
            ORDER BY doc_id""").fetchall()
    finally:
        con.close()
    counts = {
        "missing_required_property": row[1],
        "no_match": row[2],
        "not_in_range": row[3],
        "wrong_size": row[4],
        "not_in_enum": row[5],
        "not_unique": len(dups),
    }
    return {
        "rows": row[0],
        "counts": {k: int(v) for k, v in counts.items() if v},
        "dup_keys": len(dups),
        "dup_digest": dup_digest((k, c) for k, c in dups),
    }


def dup_digest(pairs) -> str:
    """sha256 over ``key<TAB>copies`` lines sorted by key."""
    h = hashlib.sha256()
    for k, c in sorted(pairs):
        h.update(f"{k}\t{int(c)}\n".encode())
    return h.hexdigest()[:16]


def data_dir(out: Path) -> Path:
    """Where a prepared corpus keeps the parquet files the engine reads."""
    return out / "data"


def data_files(out: Path) -> list[str]:
    return sorted(str(p) for p in data_dir(out).glob("*.parquet"))


#: rows of the clean corpus the drift reference digest summarises
REFERENCE_ROWS = 10_000


def write_reference_digest(seed: int, path: Path) -> None:
    """The drift reference: a sketch of a clean corpus of another seed."""
    from jesse_ray.sketches import SketchBundle

    _, lengths, flat, _ = _clean(np.random.default_rng(seed + 1_000_003), REFERENCE_ROWS)
    bundle = SketchBundle.empty(VOCAB)
    bundle.add_batch(lengths.astype(np.float64), flat.astype(np.int64))
    path.write_bytes(bundle.to_bytes())


def prepare(workload: str, seed: int, rows: int, out: Path) -> dict:
    data_dir(out).mkdir(parents=True, exist_ok=True)
    GENERATORS[workload](seed, rows, data_dir(out))
    write_reference_digest(seed, out / "reference.digest")
    files = data_files(out)
    gold = golden(files)
    gold["files"] = len(files)
    gold["bytes"] = sum(os.path.getsize(f) for f in files)
    (out / "golden.json").write_text(json.dumps(gold, sort_keys=True))
    (out / "done.json").write_text(json.dumps({"version": VERSION}))
    return gold


if __name__ == "__main__":
    wl, sd, n, dest = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), Path(sys.argv[4])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    print(json.dumps(prepare(wl, sd, n, dest)))
