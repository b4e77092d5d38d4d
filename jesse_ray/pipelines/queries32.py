"""Catalog wave 32: distributed-system and privacy primitives — a
Bloom-filter semi-join pruning pass with certified no-false-negatives
(the classic shuffle-avoidance trick: ship a 1 Mbit filter instead of
a key set) and an l-diversity privacy audit (the sensitive-attribute
complement of the k-anonymity entry).

Same driver contract as :mod:`.queries`."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.sources import read_table

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


# ---------------------------------------------------------------------------
# seq_bloom_semijoin — build a Bloom filter over the CLEAN corpus'
# doc_ids (distributed per-batch bitmaps, OR-merged), probe the DIRTY
# corpus' doc_ids through it, and emit the exact semi-join counts.
# The filter is the pruning mechanism (a 128 KB broadcast replacing a
# key-set shuffle); correctness is CERTIFIED by construction and
# assertion — Bloom filters admit no false negatives, so every true
# member must probe positive, and the observed false-positive rate
# must stay under 2x the theoretical bound for the load factor.

BLOOM_M = 1 << 20  # bits
BLOOM_K = 7


def _bloom_positions(h: np.ndarray) -> np.ndarray:
    """k index arrays via double hashing h1 + i*h2 (Kirsch-Mitzenmacher)."""
    from jesse_ray.hashutil import fmix64

    h1 = fmix64(h ^ np.uint64(0x9E3779B97F4A7C15))
    h2 = fmix64(h ^ np.uint64(0xC2B2AE3D27D4EB4F)) | np.uint64(1)
    return np.stack([(h1 + np.uint64(i) * h2) % np.uint64(BLOOM_M)
                     for i in range(BLOOM_K)])


def _bloom_sql() -> str:
    clean = "read_parquet('/tmp/jesse_ray_data/sf0.01/sequences_clean.parquet')"
    from jesse_ray.pipelines.queries import SEQ_SQL as dirty

    return f"""
WITH d AS (SELECT doc_id FROM {dirty} WHERE doc_id IS NOT NULL),
c AS (SELECT DISTINCT doc_id FROM {clean})
SELECT CAST(count(*) AS BIGINT) AS n_probes,
       CAST(sum(CASE WHEN EXISTS (SELECT 1 FROM c WHERE c.doc_id = d.doc_id)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_present,
       CAST(sum(CASE WHEN EXISTS (SELECT 1 FROM c WHERE c.doc_id = d.doc_id)
                     THEN 0 ELSE 1 END) AS BIGINT) AS n_absent
FROM d
"""


@entry("seq_bloom_semijoin", sql=_bloom_sql())
def q_seq_bloom_semijoin(sf_dir: str) -> pd.DataFrame:
    """Per-batch uint64 bitmaps OR-folded on the driver (O(blocks) ×
    128 KB); the probe pass broadcasts the final bitmap once.  Emitted
    columns are the EXACT semi-join truth (n_probes, n_present,
    n_absent — twin recomputes via EXISTS); the filter's quality lives
    in two asserts: zero false negatives (definitional) and observed
    FPR ≤ 2× the theoretical (1 − e^{−kn/m})^k."""
    import ray

    from jesse_ray import testgen
    from jesse_ray.hashutil import hash64_strings

    sf = testgen.sf_name_of(sf_dir)
    testgen.generate(sf)
    clean = str(testgen.corpus_dir(sf) / "sequences_clean.parquet")
    from jesse_ray.sources import read_sequences

    def bitmap(b: pa.Table) -> pa.Table:
        ids = b["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ids = ids.drop_null()
        bm = np.zeros(BLOOM_M // 64, dtype=np.uint64)
        if len(ids):
            h = hash64_strings(ids).astype(np.uint64)
            pos = _bloom_positions(h).ravel()
            np.bitwise_or.at(bm, (pos // np.uint64(64)).astype(np.int64),
                             np.uint64(1) << (pos % np.uint64(64)))
        return pa.table({"bm": pa.array([bm.tobytes()], type=pa.binary())})

    clean_ds = read_sequences(clean, columns=["doc_id"])
    parts = _collect(clean_ds.map_batches(bitmap, batch_format="pyarrow",
                                          zero_copy_batch=True))
    bm = np.zeros(BLOOM_M // 64, dtype=np.uint64)
    for blob in parts["bm"].to_pylist():
        bm |= np.frombuffer(blob, dtype=np.uint64)
    n_clean = clean_ds.count()
    bref = ray.put(bm) if ray.is_initialized() else bm

    # exact membership set for the certification comparison (the key
    # column is what the filter summarizes; at 10^12 keys the cert pass
    # would sample — the FILTER itself never materializes the set)
    clean_ids = np.sort(np.concatenate([
        np.asarray(b["doc_id"].to_pandas().dropna(), dtype=object)
        for b in clean_ds.iter_batches(batch_format="pyarrow")]))
    cref = ray.put(clean_ids) if ray.is_initialized() else clean_ids

    def probe(b: pa.Table, _bref=bref, _cref=cref) -> pa.Table:
        from jesse_ray.hashutil import hash64_strings as _h

        bm_ = ray.get(_bref) if ray.is_initialized() else _bref
        ci = ray.get(_cref) if ray.is_initialized() else _cref
        ids = b["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ids = ids.drop_null()
        if len(ids) == 0:
            return pa.table({"probes": pa.array([0], type=pa.int64()),
                             "maybe": pa.array([0], type=pa.int64()),
                             "present": pa.array([0], type=pa.int64()),
                             "fneg": pa.array([0], type=pa.int64())})
        h = _h(ids).astype(np.uint64)
        pos = _bloom_positions(h)
        hit = np.ones(len(ids), dtype=bool)
        for i in range(BLOOM_K):
            p = pos[i]
            hit &= (bm_[(p // np.uint64(64)).astype(np.int64)]
                    >> (p % np.uint64(64))) & np.uint64(1) > 0
        arr = np.asarray(ids.to_pandas(), dtype=object)
        loc = np.searchsorted(ci, arr)
        loc = np.clip(loc, 0, max(len(ci) - 1, 0))
        truly = (ci[loc] == arr) if len(ci) else np.zeros(len(arr), bool)
        return pa.table({
            "probes": pa.array([len(arr)], type=pa.int64()),
            "maybe": pa.array([int(hit.sum())], type=pa.int64()),
            "present": pa.array([int(truly.sum())], type=pa.int64()),
            "fneg": pa.array([int((truly & ~hit).sum())], type=pa.int64()),
        })

    dirty_ds = read_sequences(str(testgen.corpus_dir(sf) / "sequences.parquet"),
                              columns=["doc_id"])
    agg = _collect(dirty_ds.map_batches(probe, batch_format="pyarrow",
                                        zero_copy_batch=True)).to_pandas().sum()
    n_probes, n_maybe = int(agg["probes"]), int(agg["maybe"])
    n_present, n_fneg = int(agg["present"]), int(agg["fneg"])
    if n_fneg:
        raise RuntimeError(f"Bloom filter produced {n_fneg} false negatives")
    fp = n_maybe - n_present
    neg = n_probes - n_present
    theo = (1.0 - np.exp(-BLOOM_K * n_clean / BLOOM_M)) ** BLOOM_K
    if neg and fp / neg > max(2.0 * theo, 1e-3):
        raise RuntimeError(f"observed FPR {fp}/{neg} exceeds 2x theoretical {theo:.2e}")
    return pd.DataFrame({
        "n_probes": pd.array([n_probes], dtype="int64"),
        "n_present": pd.array([n_present], dtype="int64"),
        "n_absent": pd.array([n_probes - n_present], dtype="int64"),
    })


# ---------------------------------------------------------------------------
# events_ldiversity — l-diversity audit: for each quasi-identifier
# combo (hour-of-day, event_type), how many DISTINCT users (the
# sensitive attribute here) appear; combos below L are re-identifiable
# even when k-anonymous.  The sensitive-diversity complement of
# events_kanon.

LDIV_L = 3


SQL_EVENTS_LDIVERSITY = f"""
SELECT CAST(hour(ts) AS BIGINT) AS hour, event_type,
       CAST(count(DISTINCT user_id) AS BIGINT) AS l_div,
       count(DISTINCT user_id) < {LDIV_L} AS below_l
FROM events
GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("events_ldiversity", sql=SQL_EVENTS_LDIVERSITY)
def q_events_ldiversity(sf_dir: str) -> pd.DataFrame:
    """grouped_count_distinct over the (hour, type) grid (two-phase
    distinct — per-batch pair dedup before anything moves), then the
    sub-L filter.  Emits every combo with its diversity and the flag."""
    from jesse_ray.pipelines.relational import grouped_count_distinct

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["ts", "event_type", "user_id"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "hour": pc.hour(b["ts"]).cast(pa.int64()),
            "event_type": b["event_type"],
            "user_id": b["user_id"],
        })

    pre = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(grouped_count_distinct(pre, ["hour", "event_type"], "user_id",
                                          alias="l_div")).to_pandas()
    out["l_div"] = out["l_div"].astype("int64")
    out["below_l"] = (out["l_div"] < LDIV_L)
    return out.sort_values(["hour", "event_type"]).reset_index(drop=True)

