"""Bloom-filter membership for incremental dedup against a prior
corpus snapshot.

The standard scale recipe (Bloom 1970; Kirsch-Mitzenmacher 2006 double
hashing): build a compact bitmap over the SNAPSHOT's keys once
(per-block partial bitmaps OR-reduced through the same shuffle-free
coalescing tree as the drift sketches), broadcast the bitmap
(``ray.put`` once — it is megabytes even for billions of keys), and
prefilter the NEW corpus down to maybe-member candidates inside
``map_batches``.  Bloom filters have NO false negatives, so a final
exact confirm on the (rare) candidates — a coarse hash-partition
cogroup against the snapshot keys, candidates only, never the full new
corpus — yields exactly the true members.

Scale notes: size ``num_bits`` ≈ 10 bits/snapshot key for ~1% fp rate
with k=4 (fp ≈ (1-e^{-kn/m})^k).  The OR-reduce moves
(blocks × bitmap) bytes through three near-no-op merge levels; the
confirm shuffle moves candidate keys only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from jesse_ray.hashutil import hash64_strings_multi, map_key_buckets

# two independent vectorized FNV passes share one byte-walk
_H_PARAMS = [
    (np.uint64(0xCBF29CE484222325), np.uint64(0x100000001B3)),
    (np.uint64(0x6C62272E07BB0142), np.uint64(0x9E3779B97F4A7C15)),
]


class BloomFilter:
    """Fixed-size bloom filter over utf8 strings, numpy-bitmap backed.

    ``num_bits`` must be a power of two (mask, not the erratically-slow
    div unit); positions come from Kirsch-Mitzenmacher double hashing
    ``(h1 + i*h2) & mask`` so one byte-walk serves all ``num_hashes``
    probes."""

    def __init__(self, num_bits: int = 1 << 22, num_hashes: int = 4):
        if num_bits <= 0 or num_bits & (num_bits - 1):
            raise ValueError("num_bits must be a power of two")
        if not 1 <= num_hashes <= 16:
            raise ValueError("num_hashes must be in [1, 16]")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.words = np.zeros(max(num_bits >> 6, 1), dtype=np.uint64)

    def _positions(self, arr: pa.Array) -> np.ndarray:
        """(num_hashes, n) bit positions for a string array."""
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        arr = pc.fill_null(arr, "")
        h1, h2 = hash64_strings_multi(arr, _H_PARAMS)
        mask = np.uint64(self.num_bits - 1)
        # force odd step so probes don't degenerate when h2 is tiny/even
        h2 = h2 | np.uint64(1)
        out = np.empty((self.num_hashes, len(h1)), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for i in range(self.num_hashes):
                out[i] = (h1 + np.uint64(i) * h2) & mask
        return out

    def add(self, arr: pa.Array) -> None:
        pos = self._positions(arr).ravel()
        # bitwise_or.at is duplicate-safe (fancy |= keeps one write per
        # index); build runs once per snapshot so the ufunc.at cost is
        # off the per-batch hot path
        np.bitwise_or.at(
            self.words, (pos >> 6).astype(np.int64), np.uint64(1) << (pos & np.uint64(63))
        )

    def contains(self, arr: pa.Array) -> np.ndarray:
        """Vectorized maybe-membership: all k probe bits set."""
        pos = self._positions(arr)
        hit = np.ones(pos.shape[1], dtype=bool)
        for i in range(self.num_hashes):
            p = pos[i]
            hit &= (self.words[(p >> 6).astype(np.int64)] >> (p & np.uint64(63))) & np.uint64(1) != 0
        return hit

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (other.num_bits, other.num_hashes) != (self.num_bits, self.num_hashes):
            raise ValueError("bloom parameter mismatch")
        np.bitwise_or(self.words, other.words, out=self.words)
        return self

    def to_bytes(self) -> bytes:
        head = np.array([self.num_bits, self.num_hashes], dtype=np.uint64)
        return head.tobytes() + self.words.tobytes()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BloomFilter":
        head = np.frombuffer(raw[:16], dtype=np.uint64)
        b = cls(int(head[0]), int(head[1]))
        b.words = np.frombuffer(raw[16:], dtype=np.uint64).copy()
        return b


_BLOOM_SCHEMA = pa.schema([pa.field("bloom", pa.large_binary())])


def _one_row(b: BloomFilter) -> pa.Table:
    return pa.table({"bloom": pa.array([b.to_bytes()], type=pa.large_binary())}, schema=_BLOOM_SCHEMA)


def build_bloom(
    ds: Dataset,
    column: str,
    *,
    num_bits: int = 1 << 22,
    num_hashes: int = 4,
    fan_in: int = 64,
    levels: int = 2,
) -> BloomFilter:
    """Distributed build: one partial bitmap per BLOCK (batch_size=None
    — bitmap count scales with blocks, not batches), OR-reduced through
    a shuffle-free coalescing tree (same shape as stages/distinct.py)."""

    def build(batch: pa.Table) -> pa.Table:
        b = BloomFilter(num_bits, num_hashes)
        b.add(batch[column])
        return _one_row(b)

    sk = ds.select_columns([column]).map_batches(
        build, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )

    def merge_batch(batch: pa.Table) -> pa.Table:
        merged: BloomFilter | None = None
        for raw in batch["bloom"]:
            b = BloomFilter.from_bytes(raw.as_py())
            merged = b if merged is None else merged.merge(b)
        if merged is None:
            return pa.table({"bloom": pa.array([], type=pa.large_binary())}, schema=_BLOOM_SCHEMA)
        return _one_row(merged)

    for _ in range(levels):
        sk = sk.map_batches(merge_batch, batch_format="pyarrow", zero_copy_batch=True, batch_size=fan_in)
    merged: BloomFilter | None = None
    for b in sk.iter_batches(batch_format="pyarrow"):
        for raw in b["bloom"]:
            f = BloomFilter.from_bytes(raw.as_py())
            merged = f if merged is None else merged.merge(f)
    return merged if merged is not None else BloomFilter(num_bits, num_hashes)


def bloom_flag(
    ds: Dataset,
    bloom: BloomFilter,
    column: str,
    *,
    out_col: str = "maybe_member",
    batch_size: int = 16384,
) -> Dataset:
    """Append a maybe-membership flag; the bitmap is ``ray.put`` once
    and resolved lazily per worker (never re-shipped per batch)."""
    blob_ref = ray.put(bloom.to_bytes()) if ray.is_initialized() else bloom.to_bytes()
    cache: dict[str, BloomFilter] = {}

    def flag(batch: pa.Table) -> pa.Table:
        if "b" not in cache:
            raw = ray.get(blob_ref) if isinstance(blob_ref, ray.ObjectRef) else blob_ref
            cache["b"] = BloomFilter.from_bytes(raw)
        hit = cache["b"].contains(batch[column])
        return batch.append_column(out_col, pa.array(hit))

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def incremental_members(
    new_ds: Dataset,
    snapshot_keys: Dataset,
    column: str,
    *,
    bloom: BloomFilter | None = None,
    num_bits: int = 1 << 22,
    num_hashes: int = 4,
    n_parts: int = 64,
) -> Dataset:
    """Rows of ``new_ds`` whose ``column`` value exists in
    ``snapshot_keys`` (same column name) — bloom prefilter, then EXACT
    confirm of the candidates via a coarse hash-partition cogroup.

    No false negatives (bloom property) and no false positives (exact
    confirm), so the result equals an exact semi-join while only
    candidate keys ever reach the confirm shuffle (candidate and
    snapshot keys unioned and bucketed by ``hashutil.map_key_buckets`` —
    ≤ ``n_parts`` shuffle keys, vectorized per-bucket isin).  The confirmed
    key set — true incremental dups, rare by assumption — is the only
    thing broadcast back to filter the full-width new rows."""
    if n_parts & (n_parts - 1):
        raise ValueError("n_parts must be a power of two")
    if bloom is None:
        bloom = build_bloom(snapshot_keys, column, num_bits=num_bits, num_hashes=num_hashes)

    flagged = bloom_flag(new_ds, bloom, column)

    def only_cand_keys(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch["maybe_member"])
        return t.select([column])

    cand_keys = flagged.map_batches(only_cand_keys, batch_format="pyarrow", zero_copy_batch=True)

    def side(s: int):
        def f(batch: pa.Table) -> pa.Table:
            return pa.table({column: batch[column],
                             "__side": pa.array(np.full(batch.num_rows, s, dtype=np.int8))})
        return f

    snap = snapshot_keys.select_columns([column]).map_batches(
        side(0), batch_format="pyarrow", zero_copy_batch=True
    )
    cand_keyed = cand_keys.map_batches(side(1), batch_format="pyarrow", zero_copy_batch=True)

    import pandas as pd

    def confirm(g: pd.DataFrame) -> pd.DataFrame:
        snap_set = g.loc[g["__side"] == 0, column]
        mine = g.loc[g["__side"] == 1, column]
        return pd.DataFrame({column: mine[mine.isin(set(snap_set))].unique()})

    confirmed = map_key_buckets(snap.union(cand_keyed), [column], confirm, n_parts=n_parts)
    keys: list = []
    for b in confirmed.iter_batches(batch_format="pyarrow"):
        keys.extend(b[column].to_pylist())
    key_arr = pa.array(sorted(set(keys)), type=pa.string())
    key_ref = ray.put(key_arr) if ray.is_initialized() else key_arr

    def final(batch: pa.Table) -> pa.Table:
        vs = ray.get(key_ref) if isinstance(key_ref, ray.ObjectRef) else key_ref
        col = batch[column]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return batch.filter(pc.is_in(pc.fill_null(col, ""), value_set=vs))

    return new_ds.map_batches(final, batch_format="pyarrow", zero_copy_batch=True)
