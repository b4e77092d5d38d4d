"""Sequence packing: assign every document a token-offset span in the
packed training stream (concat-then-chunk, the standard LLM pretraining
layout: all corpus tokens are concatenated in a deterministic global
order and split into fixed-length chunks).

Scale design — a distributed PREFIX SUM over a sorted Dataset:

1. ``ds.sort(key)`` gives the deterministic global order (packing is
   order-defined, so the one range-partitioned all-to-all here is
   inherent to the operator, not an implementation choice);
2. pass 1 (``batch_size=None`` → one batch per sorted block) emits each
   block's (first key, token sum) — tiny, one row per block;
3. the driver exclusive-prefix-sums the per-block totals by first key
   (≤ number-of-blocks rows, never corpus rows) and broadcasts the
   block-offset table;
4. pass 2 computes each row's global offset = block offset + local
   exclusive cumsum, all vectorized, and derives the chunk span
   ``first_chunk = offset // L``, ``last_chunk = (offset+n-1) // L``.

Rows with a null key or non-positive length are dropped (they cannot be
ordered / contribute no tokens)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset


def pack_offsets(
    ds: Dataset,
    *,
    key_col: str = "doc_id",
    len_col: str = "n_tok",
    chunk_len: int = 2048,
) -> Dataset:
    """Append ``offset`` (global token offset), ``first_chunk`` and
    ``last_chunk`` to every row, ordering the stream by ``key_col``."""
    if chunk_len <= 0:
        raise ValueError("chunk_len must be positive")

    def clean(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.is_valid(batch[key_col]),
            pc.greater(pc.fill_null(batch[len_col], 0), 0),
        )
        return batch.filter(keep)

    sorted_ds = ds.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True).sort(key_col)

    # pass 1: per-block (first key, token sum) — batch_size=None gives
    # one batch per sorted block, so "block" boundaries are stable
    # between the two passes over the same materialized sorted dataset
    sorted_ds = sorted_ds.materialize()

    def block_summary(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"first_key": pa.array([], type=batch[key_col].type),
                             "total": pa.array([], type=pa.int64())})
        return pa.table(
            {
                "first_key": pa.array([batch[key_col][0].as_py()], type=batch[key_col].type),
                "total": pa.array(
                    [int(pc.sum(batch[len_col].cast(pa.int64())).as_py() or 0)], type=pa.int64()
                ),
            }
        )

    summaries = []
    for b in sorted_ds.map_batches(
        block_summary, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    ).iter_batches(batch_format="pyarrow"):
        summaries.extend(zip(b["first_key"].to_pylist(), b["total"].to_pylist()))
    summaries.sort(key=lambda x: x[0])
    offsets: dict = {}
    acc = 0
    for fk, tot in summaries:
        if fk in offsets:
            # two blocks starting with the same key ⇒ duplicate keys
            # straddle a block boundary and the global order is
            # ill-defined; packing runs on a DEDUPED corpus by contract
            raise ValueError(
                f"duplicate key {fk!r} spans a block boundary — "
                "pack_offsets requires unique keys (dedup first)"
            )
        offsets[fk] = acc
        acc += tot
    off_ref = ray.put(offsets) if ray.is_initialized() else offsets

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("offset", pa.array([], type=pa.int64())) \
                        .append_column("first_chunk", pa.array([], type=pa.int64())) \
                        .append_column("last_chunk", pa.array([], type=pa.int64()))
        table = ray.get(off_ref) if isinstance(off_ref, ray.ObjectRef) else off_ref
        base = table[batch[key_col][0].as_py()]
        n = batch[len_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        local = np.concatenate([[0], np.cumsum(n)[:-1]])
        off = base + local
        return (
            batch.append_column("offset", pa.array(off, type=pa.int64()))
            .append_column("first_chunk", pa.array(off // chunk_len, type=pa.int64()))
            .append_column("last_chunk", pa.array((off + n - 1) // chunk_len, type=pa.int64()))
        )

    return sorted_ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)


def bestfit_pack(
    ds: Dataset,
    *,
    capacity: int = 2048,
    key_col: str = "doc_id",
    len_col: str = "n_tok",
    n_parts: int = 64,
) -> Dataset:
    """Best-fit-decreasing WHOLE-document bin packing (the no-split
    alternative to concat-then-chunk: each document lands wholly in one
    fixed-capacity bin, so no attention-mask surgery across documents).

    Scale shape: documents are hash-partitioned into ``n_parts``
    independent packing groups; within a group, classic BFD runs over
    the (length desc, key asc) order — the sequential loop is the
    intrinsic core of BFD, so the partitioning bounds its size (size
    ``n_parts`` so a part holds what one worker comfortably loops over;
    bins never span parts).  The per-part loop keeps bin residuals in a
    sorted array (bisect insert), so it is O(n log bins) per part.

    BFD gives the verifiable quality invariant used by the SQL oracle:
    a part never ends with TWO bins at most half full (the second's
    first item would have fitted the first), on top of the partition
    and capacity invariants.  Ineligible rows (null key, length outside
    [1, capacity]) are dropped.

    Returns (key, part, bin, length) — bin ids are per-part dense
    integers."""
    from bisect import bisect_left, insort

    from jesse_ray.hashutil import key_parts, map_key_buckets

    def tag(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(b[key_col]),
                    pc.and_(pc.greater_equal(b[len_col], pa.scalar(1)),
                            pc.less_equal(b[len_col], pa.scalar(capacity))))
        return b.filter(m).select([key_col, len_col])

    def pack_part(g):
        import pandas as pd

        g = g.sort_values([len_col, key_col], ascending=[False, True], kind="mergesort")
        lens = g[len_col].to_numpy()
        resid = []          # sorted list of (residual, bin_id)
        bins = np.empty(len(g), dtype=np.int64)
        next_bin = 0
        for i, L in enumerate(lens):
            j = bisect_left(resid, (int(L), -1))
            if j == len(resid):      # no bin has room → open a new one
                bins[i] = next_bin
                insort(resid, (capacity - int(L), next_bin))
                next_bin += 1
            else:                    # tightest bin that fits (best fit)
                r, bid = resid.pop(j)
                bins[i] = bid
                insort(resid, (r - int(L), bid))
        out = g[[key_col]].copy()
        out["part"] = key_parts(pa.array(out[key_col]), n_parts)
        out[len_col] = lens
        out["bin"] = bins
        return out

    return map_key_buckets(ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True),
                           [key_col], pack_part, n_parts=n_parts)
