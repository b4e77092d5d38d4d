"""Relational building blocks on Ray Data with explicit scale discipline.

- ``grouped_agg``: two-phase aggregation — per-batch pyarrow
  ``Table.group_by`` partials (the map-side combiner) before the Ray
  ``groupby`` shuffle, so the all-to-all moves one row per key per
  block, not the corpus.
- ``broadcast_join``: small-side ``ray.put`` once + per-batch pandas
  merge inside ``map_batches`` — no shuffle at all.
- ``tumbling_window``: event-time bucketing as a computed column +
  ``grouped_agg`` (Ray Data has no event-time windows; this is the
  documented batch re-expression).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset
from ray.data.aggregate import Count, Max, Min, Sum

from jesse_ray.compiler import _combine
from jesse_ray.hashutil import map_key_buckets


def grouped_agg(
    ds: Dataset,
    keys: Sequence[str],
    *,
    sums: Sequence[str] = (),
    mins: Sequence[str] = (),
    maxs: Sequence[str] = (),
    count_alias: Optional[str] = "cnt",
    batch_size: int = 65536,
) -> Dataset:
    """groupby(keys) with count/sum/min/max, pre-aggregated per batch."""
    keys = list(keys)

    def partial(batch: pa.Table) -> pa.Table:
        aggs = []
        if count_alias:
            aggs.append(([], "count_all"))
        aggs += [([c], "sum") for c in sums]
        aggs += [([c], "min") for c in mins]
        aggs += [([c], "max") for c in maxs]
        g = batch.group_by(keys).aggregate(aggs)
        names = list(keys)
        if count_alias:
            names.append("__pc")
        names += [f"__ps_{c}" for c in sums]
        names += [f"__pm_{c}" for c in mins]
        names += [f"__px_{c}" for c in maxs]
        # pyarrow appends agg columns after key columns in aggregate() output
        # order: aggregates first? Normalize by name mapping instead:
        colmap = {}
        for name in g.column_names:
            if name in keys:
                colmap[name] = name
            elif name == "count_all":
                colmap[name] = "__pc"
            elif name.endswith("_sum"):
                colmap[name] = f"__ps_{name[:-4]}"
            elif name.endswith("_min"):
                colmap[name] = f"__pm_{name[:-4]}"
            elif name.endswith("_max"):
                colmap[name] = f"__px_{name[:-4]}"
            else:
                colmap[name] = name
        return g.rename_columns([colmap[n] for n in g.column_names])

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    aggs = []
    if count_alias:
        aggs.append(Sum("__pc", alias_name=count_alias))
    aggs += [Sum(f"__ps_{c}", alias_name=f"sum_{c}") for c in sums]
    aggs += [Min(f"__pm_{c}", alias_name=f"min_{c}") for c in mins]
    aggs += [Max(f"__px_{c}", alias_name=f"max_{c}") for c in maxs]
    return partials.groupby(keys).aggregate(*aggs)


def broadcast_join(
    ds: Dataset,
    small: pd.DataFrame,
    *,
    left_on: str,
    right_on: str,
    columns: Optional[list[str]] = None,
    batch_size: int = 65536,
) -> Dataset:
    """Join against a small dimension broadcast via the object store.

    The dimension is ``ray.put`` ONCE; each task fetches it from the
    local object store (zero-copy for Arrow-backed frames) — no shuffle,
    no per-batch reshipping.
    """
    if columns is not None:
        small = small[[c for c in {right_on, *columns}]]
    dim_tbl = pa.Table.from_pandas(small, preserve_index=False)
    ref = ray.put(dim_tbl) if ray.is_initialized() else dim_tbl

    def join(batch: pa.Table) -> pa.Table:
        dim = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        # Arrow-native hash join per batch — no pandas round-trip
        return batch.join(dim, keys=[left_on], right_keys=[right_on], join_type="inner")

    return ds.map_batches(join, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def tumbling_window(
    ds: Dataset,
    ts_col: str,
    *,
    window_s: int,
    keys: Sequence[str] = (),
    sums: Sequence[str] = (),
    batch_size: int = 65536,
) -> Dataset:
    """Tumbling event-time windows: bucket = floor(epoch(ts)/window)."""

    def bucketize(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        epoch = ts.cast(pa.int64()).to_numpy(zero_copy_only=False) // 1_000_000
        bucket = epoch // window_s
        return batch.append_column("window", pa.array(bucket, type=pa.int64()))

    bucketed = ds.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    return grouped_agg(bucketed, [*keys, "window"], sums=sums, batch_size=batch_size)


def broadcast_range_join(
    ds: Dataset,
    intervals: pd.DataFrame,
    *,
    value_col: str,
    lo_col: str,
    hi_col: str,
    how: str = "inner",
    batch_size: int = 65536,
) -> Dataset:
    """Range join against a small broadcast interval table: each row
    joins the interval with ``lo <= value < hi``.

    Intervals must be NON-overlapping (validated on the driver); the
    probe is one vectorized ``np.searchsorted`` per batch against the
    sorted bounds — no shuffle, no per-row Python.  ``how='left'``
    keeps non-matching rows with null interval columns.
    """
    iv = intervals.sort_values(lo_col).reset_index(drop=True)
    lo = iv[lo_col].to_numpy(dtype=np.float64)
    hi = iv[hi_col].to_numpy(dtype=np.float64)
    if (hi[:-1] > lo[1:]).any() or (hi <= lo).any():
        raise ValueError("range_join intervals must be non-empty and non-overlapping")
    iv_tbl = pa.Table.from_pandas(iv, preserve_index=False)
    ref = ray.put((lo, hi, iv_tbl)) if ray.is_initialized() else (lo, hi, iv_tbl)

    def join(batch: pa.Table) -> pa.Table:
        blo, bhi, dim = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        v = _combine(batch[value_col]).cast(pa.float64()).to_numpy(zero_copy_only=False)
        pos = np.searchsorted(blo, v, side="right") - 1
        with np.errstate(invalid="ignore"):
            hit = (pos >= 0) & np.where(pos >= 0, v < bhi[np.clip(pos, 0, None)], False)
        if how == "inner":
            keep = np.flatnonzero(hit)
            out = batch.take(pa.array(keep, type=pa.int64()))
            rows = dim.take(pa.array(pos[keep], type=pa.int64()))
            for name in dim.column_names:
                out = out.append_column(name, rows[name])
            return out
        # left join: null interval columns where no interval matched —
        # Arrow if_else keeps the dim columns' exact dtypes (a pandas
        # where(..., None) round-trip would upcast int64 → float64 and
        # corrupt values above 2^53)
        mask = pa.array(hit)
        safe_pos = pa.array(np.clip(np.where(hit, pos, 0), 0, None), type=pa.int64())
        for name in dim.column_names:
            taken = dim[name].take(safe_pos)
            if isinstance(taken, pa.ChunkedArray):
                taken = taken.combine_chunks()
            nulled = pc.if_else(mask, taken, pa.nulls(len(taken), type=taken.type))
            batch = batch.append_column(name, nulled)
        return batch

    return ds.map_batches(join, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def sliding_window(
    ds: Dataset,
    ts_col: str,
    *,
    window_s: int,
    slide_s: int,
    keys: Sequence[str] = (),
    sums: Sequence[str] = (),
    batch_size: int = 65536,
) -> Dataset:
    """Sliding event-time windows: window ``w`` covers
    ``[w*slide_s, w*slide_s + window_s)``, so each event expands to
    ``window_s/slide_s`` (window) rows — a vectorized flat-map — before
    the same two-phase grouped aggregation as tumbling_window.  The
    shuffle volume is k× the input by construction (the standard
    sliding-window cost); ``window_s`` must be a multiple of ``slide_s``.
    """
    if slide_s <= 0 or window_s % slide_s != 0:
        raise ValueError(f"window_s ({window_s}) must be a positive multiple of slide_s ({slide_s})")
    k = window_s // slide_s

    def expand(batch: pa.Table) -> pa.Table:
        ts = _combine(batch[ts_col])
        epoch = ts.cast(pa.int64()).to_numpy(zero_copy_only=False) // 1_000_000
        base = epoch // slide_s
        idx = np.repeat(np.arange(batch.num_rows, dtype=np.int64), k)
        windows = (base[:, None] - np.arange(k - 1, -1, -1, dtype=np.int64)[None, :]).reshape(-1)
        out = batch.take(pa.array(idx))
        return out.append_column("window", pa.array(windows, type=pa.int64()))

    expanded = ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    return grouped_agg(expanded, [*keys, "window"], sums=sums, batch_size=batch_size)


def grouped_lag(
    ds: Dataset,
    key: str,
    order_cols: Sequence[str],
    value_col: str,
    *,
    alias: str = "lag",
    default: int = -1,
    n_parts: int = 64,
) -> Dataset:
    """Per-key previous value in event order — LAG() OVER (PARTITION BY
    key ORDER BY order_cols), the windowed building block of as-of
    self-joins (previous observation per entity).

    Shuffles on a COARSE hash of the key through
    ``hashutil.map_key_buckets`` (≤``n_parts`` groups — Ray's per-group
    map_groups overhead makes one group per entity fatal at corpus
    scale), then one C-level sort+shift per part handles all of its
    keys.
    """
    order_cols = list(order_cols)

    def lag_many(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, *order_cols], kind="mergesort")
        # numpy roll, NOT Series.shift: shift round-trips int64 through
        # float64 (NaN hole), corrupting values above 2^53
        vals = g[value_col].to_numpy()
        prev = np.empty_like(vals)
        prev[0] = default
        prev[1:] = vals[:-1]
        new_key = g[key].ne(g[key].shift(1)).to_numpy()
        prev[new_key] = default
        out = g.copy()
        out[alias] = prev
        return out

    return map_key_buckets(ds, [key], lag_many, n_parts=n_parts)


def grouped_rolling(
    ds: Dataset,
    key: str,
    ts_col: str,
    value_col: str,
    *,
    window_us: int,
    sum_alias: str = "roll_sum",
    cnt_alias: str = "roll_cnt",
    n_parts: int = 64,
    exact_decimals: int | None = None,
) -> Dataset:
    """Per-key trailing-window aggregate: for every row, the SUM and
    COUNT of ``value_col`` over that key's rows with timestamp in
    ``[ts - window_us, ts]`` — ANSI ``SUM(v) OVER (PARTITION BY key
    ORDER BY ts RANGE BETWEEN <w> PRECEDING AND CURRENT ROW)``,
    including all equal-``ts`` peers exactly like SQL RANGE frames.

    Same coarse-hash shuffle as :func:`grouped_lag`; inside a part every
    key run is solved with ONE vectorized pass: runs are banded onto a
    common int64 axis (ts + run_id * span, so windows can't cross
    runs), both frame edges come from two global ``searchsorted`` calls,
    and the aggregates are prefix-sum differences.  O(rows log rows)
    per part, no per-key Python.

    ``exact_decimals``: when the value column is fixed-decimal (e.g.
    2-decimal currency), pass its scale to accumulate in exact int64
    units of 10^-d instead of float64 — the float prefix-sum otherwise
    carries O(n)-accumulated error (~1e-13 observed at 100k rows) that
    splits bit-exact comparison against an engine summing per-window."""

    w = np.int64(window_us)

    def roll_many(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col], kind="mergesort")
        ts = g[ts_col].to_numpy().astype("datetime64[us]").view(np.int64)
        vals = g[value_col].to_numpy(dtype=np.float64)
        new_key = g[key].ne(g[key].shift(1)).to_numpy()
        run_id = np.cumsum(new_key) - 1
        if len(ts):
            # Python ints: the guard itself must not wrap around
            span = int(ts.max() - ts.min()) + int(w) + 2
            n_runs = int(run_id[-1]) + 1
            # banding must not overflow int64 (would need ~1e14 keys in
            # one part x multi-year span; coarse parts keep runs small)
            if span * n_runs >= np.iinfo(np.int64).max // 2:
                raise ValueError(
                    f"rolling band overflow: {n_runs} key runs x span {span} us "
                    "pass int64; raise n_parts or shrink window_us"
                )
            adj = (ts - ts.min()) + run_id * np.int64(span)
        else:
            adj = ts
        lo = np.searchsorted(adj, adj - w, side="left")
        hi = np.searchsorted(adj, adj, side="right")  # equal-ts peers included
        out = g.copy()
        if exact_decimals is not None:
            p = 10.0 ** exact_decimals
            iv = np.rint(vals * p).astype(np.int64)
            csum = np.concatenate([[0], np.cumsum(iv)])
            out[sum_alias] = (csum[hi] - csum[lo]) / p
        else:
            csum = np.concatenate([[0.0], np.cumsum(vals)])
            out[sum_alias] = csum[hi] - csum[lo]
        out[cnt_alias] = (hi - lo).astype(np.int64)
        return out

    return map_key_buckets(ds, [key], roll_many, n_parts=n_parts)


def grouped_cumsum(
    ds: Dataset,
    key: str,
    order_cols: Sequence[str],
    value_col: str,
    *,
    alias: str = "run_sum",
    n_parts: int = 64,
    exact_decimals: int | None = None,
) -> Dataset:
    """Per-key running total in event order — ``SUM(v) OVER (PARTITION
    BY key ORDER BY order_cols ROWS UNBOUNDED PRECEDING)`` (the account
    running-balance / cumulative-exposure window).

    Same coarse key-hash shuffle as :func:`grouped_lag` (≤``n_parts``
    groups, never one group per entity); inside a part one mergesort +
    ONE segmented cumsum handles every key: global cumsum minus the
    per-segment prefix offset, fully vectorized.  No cross-block prefix
    exchange is needed because the window is key-local and the shuffle
    co-locates each key.

    ``exact_decimals``: fixed-decimal values (2-decimal currency)
    accumulate in exact int64 units of 10^-d — a float running sum
    drifts by O(run length) ulps and splits bit-exact comparison.

    ``order_cols`` must be unique within each key: rows tied on
    ``(key, *order_cols)`` would take their running sums in shuffle
    arrival order, so a tie raises ``ValueError``.
    """
    order_cols = list(order_cols)
    sort_cols = [key, *order_cols]

    def cum_many(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(sort_cols, kind="mergesort")
        tied = np.ones(max(len(g) - 1, 0), dtype=bool)
        for c in sort_cols:
            v = g[c].to_numpy()
            tied &= v[1:] == v[:-1]
        if tied.any():
            i = int(np.flatnonzero(tied)[0])
            raise ValueError(
                f"grouped_cumsum: order key {sort_cols} is not unique within its "
                f"group: {tuple(g[sort_cols].iloc[i])} occurs more than once"
            )
        vals = g[value_col].to_numpy(dtype=np.float64)
        new_key = g[key].ne(g[key].shift(1)).to_numpy()
        starts = np.flatnonzero(new_key)
        seg_len = np.diff(np.append(starts, len(vals)))
        if exact_decimals is not None:
            p = 10.0 ** exact_decimals
            iv = np.rint(vals * p).astype(np.int64)
            cs = np.cumsum(iv)
            seg_base = np.where(starts > 0, cs[starts - 1], 0)
            run = (cs - np.repeat(seg_base, seg_len)) / p
        else:
            cs = np.cumsum(vals)
            seg_base = np.where(starts > 0, cs[starts - 1], 0.0)
            run = cs - np.repeat(seg_base, seg_len)
        out = g.copy()
        out[alias] = run
        return out

    return map_key_buckets(ds, [key], cum_many, n_parts=n_parts)


def grouped_count_distinct(
    ds: Dataset,
    keys: Sequence[str],
    value: str,
    *,
    alias: str = "n_distinct",
    batch_size: int = 65536,
) -> Dataset:
    """Exact count(DISTINCT value) per key group, two-phase.

    Phase 1 (map-side): per-batch dedup of (keys, value) — collapses
    repeated pairs before anything moves.  Phase 2: groupby on the full
    (keys, value) tuple finishes the global dedup; each surviving row is
    one distinct pair.  Phase 3: per-batch count per key + final
    groupby(keys) sum — the second shuffle carries one row per distinct
    pair, already far smaller than the input.

    The reference's KVC ``@distinctUnionOfObjects`` collection operator
    (src/jesse_json_path.erl:173-209) lifted to distributed execution.
    """
    keys = list(keys)

    def dedup(batch: pa.Table) -> pa.Table:
        g = batch.select([*keys, value]).group_by([*keys, value]).aggregate([])
        return g

    deduped = ds.map_batches(dedup, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    global_distinct = deduped.groupby([*keys, value]).aggregate(Count(alias_name="__dup"))

    def count_per_key(batch: pa.Table) -> pa.Table:
        g = batch.select(keys).group_by(keys).aggregate([([], "count_all")])
        return g.rename_columns([*keys, "__pd"])

    partials = global_distinct.map_batches(count_per_key, batch_format="pyarrow", batch_size=batch_size)
    return partials.groupby(keys).aggregate(Sum("__pd", alias_name=alias))


def grouped_distinct_elements(
    ds: Dataset,
    key: str,
    list_col: str,
    *,
    alias: str = "n_distinct_elems",
    batch_size: int = 16384,
) -> Dataset:
    """Distinct list-element count per key group — the reference's KVC
    ``@distinctUnionOfArrays`` collection operator
    (src/jesse_json_path.erl:173-209) lifted to distributed execution.

    Map side: per (batch, key) the list column is flattened and
    deduplicated (np.unique), so the shuffle carries distinct
    (key, element) pairs, not raw elements.  Reduce side: groupby(key)
    merges with one more vectorized unique per group.
    """
    def partial(batch: pa.Table) -> pa.Table:
        col = batch[list_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col)
        parent = pc.list_parent_indices(col)
        key_flat = _combine(batch[key]).take(parent)
        # Arrow-native (key, elem) dedup: keeps the element dtype (no
        # int64→float64 NaN cast) and drops NULL elements, matching
        # SQL's count(DISTINCT unnest(...)) which ignores NULLs
        t = pa.table({key: key_flat, "elem": flat}).filter(pc.is_valid(flat))
        return t.group_by([key, "elem"]).aggregate([])

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {key: [g[key].iloc[0]], alias: [int(g["elem"].nunique())]}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    return partials.groupby(key).map_groups(merge, batch_format="pandas")


def grouped_distinct_values(
    ds: Dataset,
    keys: Sequence[str],
    value: str,
    *,
    batch_size: int = 65536,
) -> Dataset:
    """Distinct (keys, value) pairs — the VALUE-returning form of the
    reference's KVC ``@distinctUnionOfObjects`` collection operator
    (src/jesse_json_path.erl:173-209; the count form is
    grouped_count_distinct).  Two-phase: per-batch Arrow dedup combiner,
    then a groupby over the pairs finishes the global dedup — the
    shuffle carries one row per distinct pair per block."""
    keys = list(keys)

    def dedup(batch: pa.Table) -> pa.Table:
        return batch.select([*keys, value]).group_by([*keys, value]).aggregate([])

    deduped = ds.map_batches(dedup, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    return deduped.groupby([*keys, value]).aggregate(Count(alias_name="__dup")).drop_columns(["__dup"])


def grouped_union_elements(
    ds: Dataset,
    key: str,
    list_col: str,
    *,
    distinct: bool = True,
    elem_alias: str = "elem",
    batch_size: int = 16384,
) -> Dataset:
    """Elements of a list column per key group, as (key, elem) rows —
    the VALUE-returning forms of KVC ``@unionOfArrays`` /
    ``@distinctUnionOfArrays`` (src/jesse_json_path.erl:173-209).
    ``distinct=True`` dedups globally (two-phase); ``distinct=False``
    preserves multiplicity with a two-phase (pair, count) expansion so
    the shuffle still moves distinct pairs + counts, not raw elements."""

    def explode(batch: pa.Table) -> pa.Table:
        col = batch[list_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col)
        parent = pc.list_parent_indices(col)
        key_flat = _combine(batch[key]).take(parent)
        t = pa.table({key: key_flat, elem_alias: flat}).filter(pc.is_valid(flat))
        g = t.group_by([key, elem_alias]).aggregate([([], "count_all")])
        return g.rename_columns([key, elem_alias, "__pc"])

    pairs = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    merged = pairs.groupby([key, elem_alias]).aggregate(Sum("__pc", alias_name="__cnt"))
    if distinct:
        return merged.drop_columns(["__cnt"])

    def expand(batch: pa.Table) -> pa.Table:
        cnt = batch["__cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.repeat(np.arange(batch.num_rows), cnt)
        return batch.drop_columns(["__cnt"]).take(pa.array(idx, type=pa.int64()))

    return merged.map_batches(expand, batch_format="pyarrow")


def grouped_topn(
    ds: Dataset,
    keys: Sequence[str],
    order_col: str,
    n: int,
    *,
    descending: bool = True,
    tiebreak: Optional[str] = None,
    batch_size: int = 65536,
) -> Dataset:
    """Top-n rows per key group — the ranked-window analogue
    (ROW_NUMBER() OVER (PARTITION BY keys ORDER BY order_col) <= n).

    Map side: each batch keeps only its local top-n per key, so the
    groupby shuffle carries at most n × keys × blocks rows.  Reduce
    side: one pandas nlargest per group.  Deterministic via ``tiebreak``.
    """
    keys = list(keys)
    sort_cols = [order_col] + ([tiebreak] if tiebreak else [])
    asc = [not descending] + ([True] if tiebreak else [])

    arrow_order = [(k, "ascending") for k in keys] + [
        (c, "ascending" if a else "descending") for c, a in zip(sort_cols, asc)
    ]

    def partial(batch: pa.Table) -> pa.Table:
        # Arrow-native map-side top-n: one sort_by, then a vectorized
        # per-group rank over the sorted key run-lengths — no pandas
        # round-trip in the hot path
        t = batch.sort_by(arrow_order)
        if t.num_rows == 0:
            return t
        change = np.zeros(t.num_rows, dtype=bool)
        change[0] = True
        for k in keys:
            col = _combine(t[k])
            neq = pc.not_equal(col.slice(1), col.slice(0, len(col) - 1))
            # null-key rows: treat null != anything as a group break
            neq = pc.fill_null(neq, True)
            change[1:] |= neq.to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(change)
        group_of = np.cumsum(change) - 1
        rank = np.arange(t.num_rows) - starts[group_of]
        return t.filter(pa.array(rank < n))

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(sort_cols, ascending=asc).head(n)

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    return partials.groupby(keys).map_groups(final, batch_format="pandas")


# ---------------------------------------------------------------------------
# sessionization / heavy hitters / exact quantiles


def sessionize(
    ds: Dataset,
    key: str,
    ts_col: str,
    *,
    gap_s: float,
    order_cols: Sequence[str] = (),
    n_parts: int = 64,
) -> Dataset:
    """Inactivity-gap sessionization: events of one ``key`` sorted by
    event time belong to the same session until a gap larger than
    ``gap_s`` seconds; returns ONE ROW PER SESSION —
    ``(key, session_id [1-based per key], n_events, duration_us)``.

    The canonical training-data / clickstream operator (SQL shape:
    LAG + windowed SUM of boundary flags, then GROUP BY session).  Ray
    Data has no ordered windows; scale discipline mirrors grouped_lag:
    shuffle on a COARSE hash of the key (≤``n_parts`` groups — per-key
    groups would pay Ray's per-group overhead O(entities) times), then
    one vectorized sort + boundary scan per part handles all of its
    keys; session aggregation completes inside the part because every
    event of a key lands in the same part.  Gap arithmetic is integer
    microseconds (epoch_us parity with the DuckDB twin — no float
    epoch rounding).
    """
    gap_us = int(round(gap_s * 1_000_000))
    order_cols = list(order_cols)

    def sessions_many(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, *order_cols], kind="mergesort")
        e = g[ts_col].to_numpy().astype("datetime64[us]").astype(np.int64)
        keys_np = g[key].to_numpy()
        n = len(g)
        new_key = np.empty(n, dtype=bool)
        new_key[0] = True
        new_key[1:] = keys_np[1:] != keys_np[:-1]
        gap = np.empty(n, dtype=np.int64)
        gap[0] = 0
        gap[1:] = e[1:] - e[:-1]
        new_sess = new_key | (gap > gap_us)
        sid = np.cumsum(new_sess)  # global (within part) session counter
        # per-key 1-based session index: subtract the counter value at
        # the key's first session (propagated by a running maximum)
        base = np.maximum.accumulate(np.where(new_key, sid, 0))
        session_id = sid - base + 1
        starts = np.flatnonzero(new_sess)
        ends = np.append(starts[1:], n) - 1
        return pd.DataFrame(
            {
                key: keys_np[starts],
                "session_id": session_id[starts].astype(np.int64),
                "n_events": (ends - starts + 1).astype(np.int64),
                "duration_us": (e[ends] - e[starts]).astype(np.int64),
            }
        )

    return map_key_buckets(ds, [key], sessions_many, n_parts=n_parts)


def topk_from_partials(
    partials: Dataset,
    k: int,
    *,
    elem_alias: str = "elem",
    count_alias: str = "cnt",
    n_parts: int = 64,
) -> pa.Table:
    """Finish an exact top-k from a partial-counts Dataset with columns
    ``(elem, __pc)``: per-part merge + per-part top-k (every
    element lives wholly in one part, so its merged count is its exact
    global count, and a global top-k element is necessarily in its
    part's top-k), then a driver merge of the ≤ n_parts × k candidate
    rows.  Ties break ascending on the element — deterministic."""

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("elem", sort=False)["__pc"].sum().reset_index()
        m = m.sort_values(["__pc", "elem"], ascending=[False, True], kind="mergesort").head(k)
        return m

    per_part = map_key_buckets(partials, ["elem"], merge, n_parts=n_parts)
    batches = list(per_part.iter_batches(batch_format="pyarrow"))
    cand = pa.concat_tables(batches) if batches else pa.table({"elem": [], "__pc": []})
    top = cand.sort_by([("__pc", "descending"), ("elem", "ascending")]).slice(0, k)
    return top.rename_columns([elem_alias, count_alias])


def top_k_elements(
    ds: Dataset,
    list_col: str,
    *,
    k: int = 20,
    n_parts: int = 64,
    elem_alias: str = "elem",
    count_alias: str = "cnt",
    batch_size: int = 65536,
) -> pa.Table:
    """Exact corpus-wide top-k most frequent list elements (heavy
    hitters — token-frequency / vocabulary work over a tokenized
    corpus).  Map side: Arrow ``list_flatten`` + per-batch value counts
    (the combiner), so the shuffle carries (element, partial count)
    rows, not raw elements; shuffle on a coarse element-hash partition
    (≤``n_parts`` groups); driver sees only n_parts × k candidates.
    """

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[list_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).drop_null()
        g = pa.table({"elem": flat}).group_by("elem").aggregate([([], "count_all")])
        return g.rename_columns(["elem", "__pc"])

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    return topk_from_partials(partials, k, elem_alias=elem_alias, count_alias=count_alias,
                              n_parts=n_parts)


def exact_discrete_quantiles(
    ds: Dataset,
    col: str,
    qs: Sequence[float],
    *,
    batch_size: int = 65536,
) -> list:
    """Exact discrete quantiles (DuckDB ``quantile_disc`` parity:
    ``sorted[max(ceil(q*n) - 1, 0)]``) over a BOUNDED-CARDINALITY
    column: two-phase value counts — per-batch Arrow ``group_by``
    combiner, so the driver merges ≤ n_distinct × n_blocks partial
    rows, never the corpus.  For unbounded/continuous columns use the
    t-digest sketch (jesse_ray.sketches) instead — this operator is the
    EXACT path for columns like token counts with a known small domain.
    """
    import math

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select([col]).group_by(col).aggregate([([], "count_all")])
        return g.rename_columns([col, "__pc"])

    parts = list(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
        .iter_batches(batch_format="pyarrow")
    )
    if not parts:
        return [None for _ in qs]
    t = pa.concat_tables(parts)
    merged = t.group_by(col).aggregate([("__pc", "sum")])
    vals = merged[col].to_numpy(zero_copy_only=False)
    cnts = merged["__pc_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(vals, kind="mergesort")
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    out = []
    for q in qs:
        idx = max(math.ceil(q * n) - 1, 0)
        pos = int(np.searchsorted(cum, idx + 1))
        out.append(vals[pos].item())
    return out


def grouped_discrete_quantiles(
    ds: Dataset,
    group_col: str,
    col: str,
    qs: Sequence[float],
    *,
    batch_size: int = 65536,
) -> pa.Table:
    """Exact PER-GROUP discrete quantiles (DuckDB ``quantile_disc``
    parity: ``sorted[max(ceil(q*n) - 1, 0)]`` within each group) over a
    bounded-cardinality value column — the grouped analogue of
    :func:`exact_discrete_quantiles`.

    Two-phase: per-batch Arrow ``group_by([group, value])`` combiner, so
    the driver merges ≤ n_groups × n_distinct × n_blocks partial count
    rows, never the corpus.  NULL values are dropped (SQL aggregate
    semantics); a NULL group is a real group (SQL GROUP BY semantics).
    Output: one row per group with a ``p<q*100>`` column per quantile in
    the value column's native type.
    """
    import math

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([group_col, col]).filter(pc.is_valid(batch[col]))
        g = t.group_by([group_col, col]).aggregate([([], "count_all")])
        return g.rename_columns([group_col, col, "__pc"])

    parts = list(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
        .iter_batches(batch_format="pyarrow")
    )
    names = [group_col] + [f"p{round(q * 100):d}" for q in qs]
    if not parts:
        return pa.table({n: pa.array([]) for n in names})
    t = pa.concat_tables(parts)
    merged = t.group_by([group_col, col]).aggregate([("__pc", "sum")])
    merged = merged.sort_by([(group_col, "ascending"), (col, "ascending")])
    keys = _combine(merged[group_col])
    vals = merged[col]
    cnts = merged["__pc_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    # group boundaries over the sorted (group, value) runs
    change = np.zeros(len(merged), dtype=bool)
    change[0] = True
    a, b = keys.slice(1), keys.slice(0, len(keys) - 1)
    # null-safe break: value inequality OR a null/non-null transition
    # (NULL is ONE group per SQL GROUP BY; plain not_equal(null, null)
    # is null and must not split the null run)
    neq = pc.or_(
        pc.fill_null(pc.not_equal(a, b), False),
        pc.xor(pc.is_null(a), pc.is_null(b)),
    )
    change[1:] = neq.to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], len(merged))
    out_keys, out_cols = [], [[] for _ in qs]
    for s, e in zip(starts, ends):
        out_keys.append(s)
        cum = np.cumsum(cnts[s:e])
        n = int(cum[-1])
        for j, q in enumerate(qs):
            idx = max(math.ceil(q * n) - 1, 0)
            out_cols[j].append(s + int(np.searchsorted(cum, idx + 1)))
    cols = {group_col: keys.take(pa.array(out_keys, type=pa.int64()))}
    for j, name in enumerate(names[1:]):
        cols[name] = vals.take(pa.array(out_cols[j], type=pa.int64()))
    return pa.table(cols)


# ---------------------------------------------------------------------------
# large x large joins (neither side broadcastable)


def _arrow_types(ds: Dataset) -> dict[str, pa.DataType]:
    """Column name -> Arrow type, robust to lazily-filtered datasets
    whose ``schema(fetch_if_missing=True)`` can return None (empty first
    block): fall back to the schema of the first batch (an EMPTY
    filtered batch still carries its schema)."""
    s = ds.schema(fetch_if_missing=True)
    if s is not None:
        base = getattr(s, "base_schema", None)
        if isinstance(base, pa.Schema):
            return {f.name: f.type for f in base}
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=256):
        return {f.name: f.type for f in b.schema}
    raise ValueError("cannot infer the schema of an empty dataset")


def _from_pandas(df: pd.DataFrame, schema: pa.Schema) -> pa.Table:
    """``df`` as a ``schema`` table without the pandas schema metadata:
    that metadata is a dict, so a schema carrying it cannot be hashed
    and Ray Data's ``unify_schemas`` skips its schema dedup."""
    return pa.Table.from_pandas(df, schema=schema, preserve_index=False).replace_schema_metadata()


def _tag_side(ds: Dataset, kind: int, types: dict[str, "pa.DataType"]) -> Dataset:
    """Align one side to the union schema (missing columns -> TYPED
    nulls, so e.g. a timestamp column survives the pandas round-trip as
    datetime64/NaT instead of degrading to object/None) and add
    ``__kind``, so both sides union into one cogroup input."""

    def tag(batch: pa.Table) -> pa.Table:
        cols: dict = {"__kind": pa.array(np.full(batch.num_rows, kind, dtype=np.int8))}
        for c, typ in types.items():
            cols[c] = batch[c] if c in batch.column_names else pa.nulls(batch.num_rows, type=typ)
        return pa.table(cols)

    return ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)


def hash_join(
    left: Dataset,
    right: Dataset,
    *,
    on: str,
    how: str = "inner",
    right_suffix: str = "_r",
    n_parts: int = 64,
) -> Dataset:
    """Distributed join where NEITHER side fits a broadcast: cogroup via
    union — both sides are aligned to one schema, unioned, and bucketed
    on the key (``hashutil.map_key_buckets``); each of the ≤ ``n_parts``
    parts performs one C-level ``pd.merge``
    over its complete key slice.  Matching keys always share a part, so
    the result is exact; skew is bounded because a part holds MANY keys.
    ``how``: inner / left / outer / semi / anti (semi/anti return left
    columns only, one row per surviving left row; outer keeps unmatched
    rows of BOTH sides with nulls — exact per part because a part holds
    its complete key slice from both sides).

    This is the repartition-join complement to :func:`broadcast_join`
    (Ray Data has no native large-large join; ``Dataset.join`` variants
    materialize or broadcast).  Right columns colliding with left names
    get ``right_suffix``.
    """
    if how not in ("inner", "left", "outer", "semi", "anti"):
        raise ValueError(f"unsupported how={how!r}")
    ltypes = _arrow_types(left)
    rtypes = _arrow_types(right)
    lnames = list(ltypes)
    rnames = list(rtypes)
    # pre-rename colliding right columns (except the key)
    ren = {c: (c + right_suffix if c in lnames and c != on else c) for c in rnames}
    if any(k != v for k, v in ren.items()):
        def rename(batch: pa.Table) -> pa.Table:
            return batch.rename_columns([ren[c] for c in batch.column_names])

        right = right.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)
        rtypes = {ren[c]: t for c, t in rtypes.items()}
        rnames = list(rtypes)
    types = dict(ltypes)
    types.update({c: t for c, t in rtypes.items() if c != on})
    both = _tag_side(left, 0, types).union(_tag_side(right, 1, types))
    rval_cols = [c for c in rnames if c != on]
    # explicit output schema: the pandas union pads each side's missing
    # columns with NaN, upcasting e.g. int64 to float64; without a cast
    # back, a downstream hash partition of the SAME key values would
    # land them on different parts than their int-typed join partners
    if how in ("semi", "anti"):
        out_schema = pa.schema([(c, ltypes[c]) for c in lnames])
    else:
        out_schema = pa.schema([(c, types[c]) for c in lnames + rval_cols])

    def join_part(g: pd.DataFrame) -> pa.Table:
        lt = g[g["__kind"] == 0][lnames]
        rt = g[g["__kind"] == 1][[on] + rval_cols]
        if how == "semi":
            out = lt[lt[on].isin(set(rt[on]))]
        elif how == "anti":
            out = lt[~lt[on].isin(set(rt[on]))]
        else:
            out = lt.merge(rt, on=on, how=how)[lnames + rval_cols]
        if how == "outer":
            # unmatched rows carry NaN in the other side's columns; build
            # column-wise with from_pandas so NaN → null under the exact
            # Arrow type (from_pandas(schema=...) would refuse NaN-in-int)
            return pa.table({c: pa.array(out[c], type=out_schema.field(c).type,
                                         from_pandas=True)
                             for c in out_schema.names})
        return _from_pandas(out, out_schema)

    return map_key_buckets(both, [on], join_part, n_parts=n_parts)


def drop_duplicate_keys(ds: Dataset, key: str, *, n_parts: int = 64,
                        broadcast_cap: int = 2_000_000) -> Dataset:
    """Exclude EVERY row whose ``key`` value occurs more than once in
    ``ds``.  Null keys survive (uniqueness has presence semantics;
    ``duplicate_keys`` never emits them).

    The dup-key set is ``engine.duplicate_keys``: the engine's exact
    per-batch key counts, summed per key bucket inside tasks.  Scale
    shape, two-tier: duplicate keys are RARE by contract, so the
    common case broadcasts the dup-key set (``ray.put`` once, one
    zero-shuffle ``pc.is_in`` filter pass over the corpus — the
    broadcast-small-side principle; measured: the anti-join cogroup it
    replaces moved the ENTIRE wide token corpus through a 64-part
    pandas exchange and blew past 19 GB/worker at sf1).  Only when the
    dup set exceeds ``broadcast_cap`` distinct keys does it fall back
    to the fully distributed ``hash_join(how="anti")``, which never
    materializes the dup set anywhere."""
    import ray as _ray

    from jesse_ray.engine import duplicate_keys

    dups = duplicate_keys(ds.select_columns([key]), key)
    head = dups.limit(broadcast_cap + 1)
    batches = list(head.iter_batches(batch_format="pyarrow"))
    keys_tbl = pa.concat_tables(batches) if batches else None
    if keys_tbl is not None and keys_tbl.num_rows > broadcast_cap:
        return hash_join(ds, dups, on=key, how="anti", n_parts=n_parts)
    key_arr = (keys_tbl[key].combine_chunks()
               if keys_tbl is not None and keys_tbl.num_rows
               else pa.array([], type=pa.string()))
    kref = _ray.put(key_arr) if _ray.is_initialized() else key_arr

    class _DropDups:
        def __init__(self):
            self._set = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self._set is None:
                v = _ray.get(kref) if isinstance(kref, _ray.ObjectRef) else kref
                if isinstance(v, pa.ChunkedArray):
                    v = v.combine_chunks()
                self._set = v.cast(batch[key].type) if len(v) else v
            col = batch[key]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            if len(self._set) == 0:
                return batch
            hit = pc.fill_null(pc.is_in(col, value_set=self._set), False)
            return batch.filter(pc.invert(hit))

    return ds.map_batches(_DropDups(), batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def asof_join(
    left: Dataset,
    right: Dataset,
    *,
    by: str,
    left_ts: str,
    right_ts: str,
    right_cols: Sequence[str],
    right_suffix: str = "_r",
    n_parts: int = 64,
    direction: str = "backward",
) -> Dataset:
    """AS-OF join: each left row picks the LATEST right row of the same
    ``by`` entity with ``right_ts <= left_ts`` (``direction="backward"``,
    inclusive — DuckDB ``ASOF LEFT JOIN ON l.by = r.by AND l.ts >= r.ts``
    parity) or, with ``direction="forward"``, the EARLIEST right row
    with ``right_ts >= left_ts`` (DuckDB ``ON l.ts <= r.ts`` parity).
    Unmatched left rows survive with nulls.

    Same cogroup-via-union shuffle as :func:`hash_join` keyed on the
    entity hash; each coarse part runs one C-level ``pd.merge_asof``
    over its complete entity slice (sorted once per part).  No global
    sort: only per-part sorts of bounded slices."""
    if direction not in ("backward", "forward"):
        raise ValueError(f"unsupported direction={direction!r}")
    ltypes = _arrow_types(left)
    rtypes_src = _arrow_types(right)
    lnames = list(ltypes)
    right_cols = list(right_cols)
    ren = {c: (c + right_suffix if c in lnames else c) for c in right_cols + [right_ts]}
    sel_right = [by, right_ts] + [c for c in right_cols if c != right_ts]

    def prep_right(batch: pa.Table) -> pa.Table:
        t = batch.select(sel_right)
        return t.rename_columns([by] + [ren.get(c, c) for c in sel_right[1:]])

    right_p = right.map_batches(prep_right, batch_format="pyarrow", zero_copy_batch=True)
    rnames = [ren.get(c, c) for c in sel_right[1:]]
    types = dict(ltypes)
    types.update({ren.get(c, c): rtypes_src[c] for c in sel_right[1:]})
    both = _tag_side(left, 0, types).union(_tag_side(right_p, 1, types))
    rts = ren.get(right_ts, right_ts)
    # explicit output schema: an all-unmatched part would otherwise
    # infer its right columns as Arrow `null` type and poison the
    # dataset-level schema union
    out_schema = pa.schema([(c, types[c]) for c in lnames + rnames])

    def join_part(g: pd.DataFrame) -> pa.Table:
        lt = g[g["__kind"] == 0][lnames].sort_values(left_ts, kind="mergesort")
        rt = g[g["__kind"] == 1][[by] + rnames].sort_values(rts, kind="mergesort")
        if rt.empty:
            # left rows already carry TYPED null right columns from the
            # union padding — just select them
            out = g[g["__kind"] == 0][lnames + rnames].sort_values(left_ts, kind="mergesort")
        else:
            out = pd.merge_asof(
                lt, rt, left_on=left_ts, right_on=rts, by=by, direction=direction
            )[lnames + rnames]
        return _from_pandas(out, out_schema)

    return map_key_buckets(both, [by], join_part, n_parts=n_parts)


def funnel_conversions(
    events: Dataset,
    *,
    entity_col: str,
    ts_col: str,
    type_col: str,
    step_a: str,
    step_b: str,
    within: "pd.Timedelta",
    n_parts: int = 64,
) -> Dataset:
    """Two-step funnel: per entity, the FIRST ``step_a`` event and the
    first ``step_b`` event at-or-after it within ``within`` — the
    conversion primitive of event analytics (signup→purchase, and in a
    data-pipeline setting ingest→publish latency).  Emits one row per
    CONVERTED entity: ``(entity, first_a, first_b)``.

    Scale shape: the map side keeps only step-A/step-B rows and three
    columns, so the shuffle moves the funnel-relevant slice, not the
    corpus; the coarse entity-hash partition co-locates each entity's
    events, and each part runs one C-level groupby-min + forward
    ``merge_asof`` over its complete entity slice.  No broadcast of a
    per-entity table (entity cardinality is corpus-scale), no global
    sort."""
    types = _arrow_types(events)
    out_schema = pa.schema(
        [(entity_col, types[entity_col]), ("first_a", types[ts_col]), ("first_b", types[ts_col])]
    )

    def prep(batch: pa.Table) -> pa.Table:
        kind = batch[type_col]
        keep = pc.or_(pc.equal(kind, step_a), pc.equal(kind, step_b))
        t = batch.filter(keep)
        return pa.table(
            {
                entity_col: t[entity_col],
                ts_col: t[ts_col],
                "__b": pc.equal(t[type_col], step_b),
            }
        )

    slim = events.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def part(g: pd.DataFrame) -> pa.Table:
        a = g[~g["__b"]]
        b = g[g["__b"]]
        if a.empty or b.empty:
            return out_schema.empty_table()
        fa = a.groupby(entity_col, sort=False)[ts_col].min().reset_index()
        fa = fa.rename(columns={ts_col: "first_a"}).sort_values("first_a", kind="mergesort")
        bb = b[[entity_col, ts_col]].rename(columns={ts_col: "first_b"}).sort_values(
            "first_b", kind="mergesort"
        )
        m = pd.merge_asof(
            fa, bb, left_on="first_a", right_on="first_b", by=entity_col, direction="forward"
        )
        m = m[m["first_b"].notna() & (m["first_b"] <= m["first_a"] + within)]
        return _from_pandas(m, out_schema)

    return map_key_buckets(slim, [entity_col], part, n_parts=n_parts)


def winsorize_by_group(
    ds: Dataset,
    group_col: str,
    col: str,
    *,
    q_lo: float = 0.05,
    q_hi: float = 0.95,
    out_col: str | None = None,
    batch_size: int = 65536,
) -> Dataset:
    """Per-group winsorization: clip ``col`` to its group's exact
    [q_lo, q_hi] discrete quantiles (the outlier-robust normalization
    step before aggregating a heavy-tailed measure).  Phase 1 computes
    exact per-group bounds via :func:`grouped_discrete_quantiles`
    (bounded-cardinality value assumption documented there; at 100 TB
    quantize the measure first or switch the bounds source to the
    t-digest sketch — the clip stage is unchanged).  Phase 2 broadcasts
    the tiny (group, lo, hi) table and clips each batch with one hash
    probe + ``np.clip``.  NULL values stay NULL; rows of groups with no
    non-null values pass through unclipped."""
    import ray

    out_col = out_col or f"{col}_w"
    bounds = grouped_discrete_quantiles(ds, group_col, col, [q_lo, q_hi])
    lo_name, hi_name = f"p{round(q_lo * 100):d}", f"p{round(q_hi * 100):d}"
    payload = (
        _combine(bounds[group_col]),
        bounds[lo_name].to_numpy(zero_copy_only=False).astype(np.float64),
        bounds[hi_name].to_numpy(zero_copy_only=False).astype(np.float64),
    )
    ref = ray.put(payload) if ray.is_initialized() else payload

    class Clip:
        def __init__(self):
            p = ref
            self.groups, self.lo, self.hi = ray.get(p) if isinstance(p, ray.ObjectRef) else p

        def __call__(self, batch: pa.Table) -> pa.Table:
            idx = pc.index_in(_combine(batch[group_col]), value_set=self.groups)
            present = pc.is_valid(idx).to_numpy(zero_copy_only=False)
            i = pc.fill_null(idx, 0).to_numpy(zero_copy_only=False).astype(np.int64)
            v = _combine(batch[col]).cast(pa.float64()).to_numpy(zero_copy_only=False)
            lo = np.where(present, self.lo[i], -np.inf)
            hi = np.where(present, self.hi[i], np.inf)
            clipped = np.clip(v, lo, hi)
            return batch.append_column(
                out_col, pa.array(clipped, type=pa.float64(), from_pandas=True)
            )

    return ds.map_batches(Clip, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=(1, 8))


def dataset_diff(
    left: Dataset,
    right: Dataset,
    *,
    key_col: str,
    content_col: str,
    n_parts: int = 64,
) -> Dataset:
    """Snapshot diff between two corpus versions: per key, classify
    ``added`` (right only), ``removed`` (left only), ``changed`` (both
    sides, content differs) or ``unchanged`` — the primitive behind
    incremental reprocessing ("validate/re-embed only what changed").

    Scale shape: each side is slimmed to (key, content-hash) in the map
    phase (the 100 TB payload never shuffles — a 64-bit content hash
    stands in for equality, the standard snapshot-diff proxy), both
    sides union onto one coarse key-hash shuffle, and each part runs
    one C-level outer merge.  Keys are assumed unique within each side
    (corpus-level key uniqueness is the validation suite's
    `duplicate_keys` job)."""
    from jesse_ray.hashutil import hash64_strings

    key_type = _arrow_types(left)[key_col]

    def slim(kind: int):
        def f(batch: pa.Table) -> pa.Table:
            c = batch[content_col]
            if isinstance(c, pa.ChunkedArray):
                c = c.combine_chunks()
            if not (pa.types.is_string(c.type) or pa.types.is_large_string(c.type)):
                c = pc.cast(c, pa.string())
            h = hash64_strings(pc.fill_null(c, "")).view(np.int64)
            return pa.table(
                {
                    key_col: batch[key_col],
                    "__h": pa.array(h, type=pa.int64()),
                    "__kind": pa.array(np.full(batch.num_rows, kind, dtype=np.int8)),
                }
            )

        return f

    tagged = left.map_batches(slim(0), batch_format="pyarrow", zero_copy_batch=True).union(
        right.map_batches(slim(1), batch_format="pyarrow", zero_copy_batch=True)
    )
    out_schema = pa.schema([(key_col, key_type), ("status", pa.string())])

    def classify(g: pd.DataFrame) -> pa.Table:
        l = g[g["__kind"] == 0][[key_col, "__h"]]
        r = g[g["__kind"] == 1][[key_col, "__h"]]
        m = l.merge(r, on=key_col, how="outer", suffixes=("_l", "_r"), indicator=True)
        status = np.where(
            m["_merge"] == "left_only",
            "removed",
            np.where(
                m["_merge"] == "right_only",
                "added",
                np.where(m["__h_l"] == m["__h_r"], "unchanged", "changed"),
            ),
        )
        out = pd.DataFrame({key_col: m[key_col], "status": status})
        return _from_pandas(out, out_schema)

    return map_key_buckets(tagged, [key_col], classify, n_parts=n_parts)


def decayed_grouped_sum(
    ds: Dataset,
    *,
    group_col: str,
    ts_col: str,
    value_col: str,
    half_life_s: float,
    batch_size: int = 65536,
) -> Dataset:
    """Recency-weighted grouped sum: Σ value · 2^(−age/half_life) per
    group, with age measured from the corpus's max timestamp — the
    exponential-decay freshness aggregate of feature pipelines.

    Two cheap passes: a per-batch max-timestamp partial (one scalar per
    block to the driver), then a per-batch weighted partial sum per
    group (combiner), so the final shuffle carries ≤ #groups rows per
    block.  Rows with null ts or value are excluded."""
    import math

    def mx(batch: pa.Table) -> pa.Table:
        m = pc.max(batch[ts_col].cast(pa.timestamp("us"))).cast(pa.int64()).as_py()
        return pa.table({"m": pa.array([m if m is not None else -(2**62)], type=pa.int64())})

    parts = list(
        ds.select_columns([ts_col]).map_batches(
            mx, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
        ).iter_batches(batch_format="pyarrow")
    )
    tmax = max(int(pc.max(b["m"]).as_py()) for b in parts)  # µs epoch
    lam = math.log(2.0) / (half_life_s * 1e6)

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch[ts_col]), pc.is_valid(batch[value_col]))
        t = batch.filter(keep)
        ts = t[ts_col].cast(pa.timestamp("us"))
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        age = tmax - ts.cast(pa.int64()).to_numpy(zero_copy_only=False)
        w = np.exp(-lam * age.astype(np.float64))
        v = t[value_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        tbl = pa.table({group_col: t[group_col], "__wv": pa.array(w * v, type=pa.float64())})
        g = tbl.group_by(group_col).aggregate([("__wv", "sum")])
        return g.rename_columns([group_col, "__ps"])

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=batch_size)
    return partials.groupby(group_col).aggregate(Sum("__ps", alias_name="decayed_sum"))


def grouped_zscore_outliers(
    ds: Dataset,
    *,
    group_col: str,
    value_col: str,
    z: float = 2.5,
    batch_size: int = 65536,
) -> pa.Table:
    """Per-group z-score outlier counts: exact group mean / population
    stddev from one combiner pass (Σv, Σv², n partials — ≤ #groups rows
    shuffle), bounds broadcast back, outliers (|value−µ|/σ > z) counted
    in a second vectorized pass.  The two-pass moments+probe shape is
    the feature-normalization workhorse; NULL values are excluded."""
    import ray

    def moments(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch[value_col]))
        v = t[value_col].cast(pa.float64())
        tbl = pa.table({group_col: t[group_col], "__v": v, "__v2": pc.multiply(v, v)})
        g = tbl.group_by(group_col).aggregate([("__v", "sum"), ("__v2", "sum"), ([], "count_all")])
        return g.rename_columns([group_col, "__sv", "__sv2", "__n"])

    parts = list(
        ds.map_batches(moments, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=batch_size).iter_batches(batch_format="pyarrow")
    )
    m = pa.concat_tables(parts).group_by(group_col).aggregate(
        [("__sv", "sum"), ("__sv2", "sum"), ("__n", "sum")]
    )
    sv = m["__sv_sum"].to_numpy(zero_copy_only=False)
    sv2 = m["__sv2_sum"].to_numpy(zero_copy_only=False)
    n = m["__n_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
    mu = sv / np.maximum(n, 1)
    sd = np.sqrt(np.maximum(sv2 / np.maximum(n, 1) - mu * mu, 0.0))
    payload = (_combine(m[group_col]), mu, sd)
    ref = ray.put(payload) if ray.is_initialized() else payload

    class Count:
        def __init__(self):
            p = ref
            self.groups, self.mu, self.sd = ray.get(p) if isinstance(p, ray.ObjectRef) else p

        def __call__(self, batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.is_valid(batch[value_col]))
            idx = pc.index_in(_combine(t[group_col]), value_set=self.groups)
            i = pc.fill_null(idx, 0).to_numpy(zero_copy_only=False).astype(np.int64)
            v = t[value_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
            sd = self.sd[i]
            zs = np.abs(v - self.mu[i]) / np.where(sd > 0, sd, np.inf)
            out = pa.table({group_col: t[group_col], "__o": pa.array((zs > z).astype(np.int64))})
            g = out.group_by(group_col).aggregate([("__o", "sum"), ([], "count_all")])
            return g.rename_columns([group_col, "__po", "__pn"])

    partials = ds.map_batches(Count, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=batch_size, concurrency=(1, 8))
    fin = partials.groupby(group_col).aggregate(
        Sum("__po", alias_name="n_outliers"), Sum("__pn", alias_name="n")
    )
    t = pa.concat_tables(fin.iter_batches(batch_format="pyarrow"))
    return pa.table(
        {
            group_col: t[group_col],
            "n": t["n"].cast(pa.int64()),
            "n_outliers": t["n_outliers"].cast(pa.int64()),
        }
    )


def grouped_percent_rank(
    ds: Dataset,
    *,
    group_col: str,
    value_col: str,
    out_col: str = "pct_rank",
    n_parts: int = 64,
) -> Dataset:
    """SQL ``percent_rank() OVER (PARTITION BY group ORDER BY value)``:
    (min_rank − 1) / (n − 1) within each group, ties sharing the min
    rank, single-row groups scoring 0 — the rank-calibration move that
    turns raw quality scores into per-source percentiles.

    Groups are co-located on a coarse group-hash shuffle (≤ n_parts
    parts, many complete groups per part) and each part computes ranks
    with ONE C-level pandas groupby-rank over its slice — the
    grouped_topn discipline; per-group data must fit a worker (true for
    bounded strata like source/lang; for corpus-sized groups switch to
    a two-phase value-count rank).  NULL values are dropped (SQL window
    frames order them separately; callers wanting them should rank a
    filled column)."""

    valid = ds.map_batches(lambda b: b.filter(pc.is_valid(b[value_col])),
                           batch_format="pyarrow", zero_copy_batch=True)

    def rank_part(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby(group_col, sort=False)[value_col].rank(method="min")
        n = g.groupby(group_col, sort=False)[value_col].transform("size")
        g[out_col] = np.where(n > 1, (r - 1) / np.maximum(n - 1, 1), 0.0)
        return g

    return map_key_buckets(valid, [group_col], rank_part, n_parts=n_parts)


def window_dedup_counts(
    events: Dataset,
    *,
    entity_col: str,
    type_col: str,
    ts_col: str,
    window: "pd.Timedelta",
    n_parts: int = 64,
) -> Dataset:
    """Event-stream debounce dedup: within each (entity, type) stream,
    drop a row when the PREVIOUS identical-key row is at most ``window``
    older (SQL ``lag`` semantics — keep the first of every burst; a
    repeat later than the window restarts a burst).  The
    exactly-once-ish cleanup of telemetry/event feeds.  Returns kept
    counts per type (``type, n_kept, n_total``) — deterministic even
    under exact-timestamp ties, where "which row" is ambiguous but "how
    many" is not.

    One coarse entity-hash shuffle of the 3-column slice; each part
    sorts its complete entity streams once (lexsort) and evaluates the
    burst rule with a shifted compare — no per-row Python."""
    win_us = np.int64(int(window.total_seconds() * 1e6))

    def slim(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                entity_col: batch[entity_col],
                type_col: batch[type_col],
                "__ts": batch[ts_col].cast(pa.timestamp("us")).cast(pa.int64()),
            }
        )

    slimmed = events.map_batches(slim, batch_format="pyarrow", zero_copy_batch=True)

    def part(g: pd.DataFrame) -> pd.DataFrame:
        ent = g[entity_col].to_numpy()
        typ = g[type_col].to_numpy()
        ts = g["__ts"].to_numpy()
        order = np.lexsort((ts, typ, ent))
        ent, typ, ts = ent[order], typ[order], ts[order]
        new_run = np.ones(len(g), dtype=bool)
        if len(g) > 1:
            new_run[1:] = (ent[1:] != ent[:-1]) | (typ[1:] != typ[:-1])
        keep = new_run.copy()
        if len(g) > 1:
            keep[1:] |= (ts[1:] - ts[:-1]) > win_us
        out = pd.DataFrame({type_col: typ})
        out["__k"] = keep.astype(np.int64)
        agg = out.groupby(type_col, sort=False)["__k"].agg(["sum", "size"]).reset_index()
        return agg.rename(columns={"sum": "n_kept", "size": "n_total"})

    partials = map_key_buckets(slimmed, [entity_col], part, n_parts=n_parts)
    return partials.groupby(type_col).aggregate(
        Sum("n_kept", alias_name="n_kept"), Sum("n_total", alias_name="n_total")
    )


def grouped_cast_report(
    ds: Dataset,
    *,
    group_col: str,
    col: str,
    batch_size: int = 65536,
) -> pa.Table:
    """Schema-migration TRY_CAST report: per group, how many values of a
    string column parse as int64 and the sum of those that do — the
    coercion-audit pass before a typed-column migration (the validation
    engine's job applied to type changes rather than constraints).

    Genuine vectorized try-cast: one RE2 ``^-?\\d+$`` match per batch
    marks the castable subset, which is then cast in one Arrow kernel —
    no per-row Python, no exception-driven control flow.  Partials are
    per-batch (group, n_total, n_fail, sum_cast) combiner rows; the
    final shuffle carries ≤ #groups rows per block.  NULLs count as
    cast failures (a typed column can hold them, but TRY_CAST parity
    with SQL treats NULL input as a NULL result — mirror the twin's
    convention; here the planted-dirt queries have no NULL strings)."""

    def partial(batch: pa.Table) -> pa.Table:
        s = _combine(batch[col])
        ok = pc.fill_null(pc.match_substring_regex(s, r"^-?\d+$"), False)
        v = pc.if_else(ok, s, None)
        cast = pc.cast(pc.fill_null(v, "0"), pa.int64())
        cast = pc.if_else(ok, cast, pa.scalar(0, type=pa.int64()))
        fail = pc.cast(pc.invert(ok), pa.int64())
        t = pa.table(
            {
                group_col: batch[group_col],
                "__f": fail,
                "__s": cast,
            }
        )
        g = t.group_by(group_col).aggregate([("__f", "sum"), ("__s", "sum"), ([], "count_all")])
        return g.rename_columns([group_col, "__pf", "__ps", "__pn"])

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=batch_size)
    fin = partials.groupby(group_col).aggregate(
        Sum("__pn", alias_name="n_total"),
        Sum("__pf", alias_name="n_fail"),
        Sum("__ps", alias_name="sum_cast"),
    )
    t = pa.concat_tables(fin.iter_batches(batch_format="pyarrow"))
    return pa.table(
        {
            group_col: t[group_col],
            "n_total": t["n_total"].cast(pa.int64()),
            "n_fail": t["n_fail"].cast(pa.int64()),
            "sum_cast": t["sum_cast"].cast(pa.int64()),
        }
    )


def grouped_mode(
    ds: Dataset,
    group_col: str,
    col: str,
    *,
    batch_size: int = 65536,
) -> pa.Table:
    """Most frequent value of ``col`` per group (profiling / imputation
    statistic), ties broken toward the smallest value — deterministic
    SQL parity (``row_number() OVER (... ORDER BY cnt DESC, value)``).

    Two-phase over a bounded-cardinality value column (the
    grouped_discrete_quantiles assumption): per-batch (group, value)
    combiner counts, then a driver argmax over the merged
    ≤ groups × distinct-values rows."""

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([group_col, col])
        t = t.filter(pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[col])))
        g = t.group_by([group_col, col]).aggregate([([], "count_all")])
        return g.rename_columns([group_col, col, "__pc"])

    parts = list(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=batch_size).iter_batches(batch_format="pyarrow")
    )
    if not parts:
        return pa.table({group_col: pa.array([]), "mode": pa.array([]), "cnt": pa.array([], pa.int64())})
    m = pa.concat_tables(parts).group_by([group_col, col]).aggregate([("__pc", "sum")])
    m = m.sort_by(
        [(group_col, "ascending"), ("__pc_sum", "descending"), (col, "ascending")]
    )
    groups = m[group_col]
    keep = np.zeros(m.num_rows, dtype=bool)
    if m.num_rows:
        keep[0] = True
        a, b = groups.slice(1), groups.slice(0, m.num_rows - 1)
        neq = pc.fill_null(pc.not_equal(a, b), True).to_numpy(zero_copy_only=False)
        keep[1:] = neq
    top = m.filter(pa.array(keep))
    return pa.table(
        {
            group_col: top[group_col],
            "mode": top[col],
            "cnt": top["__pc_sum"].cast(pa.int64()),
        }
    )


def transition_counts(
    events: Dataset,
    *,
    entity_col: str,
    type_col: str,
    ts_col: str,
    order_col: str,
    n_parts: int = 64,
) -> pa.Table:
    """Per-entity event-type transition counts (the Markov-chain /
    user-journey mining pass): for each entity's timeline ordered by
    (ts, order_col), count every adjacent (from_type, to_type) pair
    corpus-wide.

    One coarse entity-hash shuffle of the 4-column slice; each part
    lexsorts its complete entity streams once and counts adjacent
    same-entity pairs vectorized; the final merge is over the tiny
    type×type matrix (driver-side).  The tiebreak column makes the
    ordering — and therefore the counts — deterministic under equal
    timestamps."""

    def slim(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                entity_col: batch[entity_col],
                type_col: batch[type_col],
                "__ts": batch[ts_col].cast(pa.timestamp("us")).cast(pa.int64()),
                "__o": batch[order_col].cast(pa.int64()),
            }
        )

    slimmed = events.map_batches(slim, batch_format="pyarrow", zero_copy_batch=True)

    def part(g: pd.DataFrame) -> pd.DataFrame:
        ent = g[entity_col].to_numpy()
        typ = g[type_col].to_numpy()
        order = np.lexsort((g["__o"].to_numpy(), g["__ts"].to_numpy(), ent))
        ent, typ = ent[order], typ[order]
        if len(g) < 2:
            return pd.DataFrame({"from_type": [], "to_type": [], "cnt": []})
        same = ent[1:] == ent[:-1]
        out = pd.DataFrame({"from_type": typ[:-1][same], "to_type": typ[1:][same]})
        agg = out.groupby(["from_type", "to_type"], sort=False).size().reset_index(name="cnt")
        return agg

    partials = map_key_buckets(slimmed, [entity_col], part, n_parts=n_parts)
    t = pa.concat_tables(partials.iter_batches(batch_format="pyarrow"))
    if t.num_rows == 0:
        return pa.table({"from_type": pa.array([], pa.string()),
                         "to_type": pa.array([], pa.string()),
                         "cnt": pa.array([], pa.int64())})
    m = t.group_by(["from_type", "to_type"]).aggregate([("cnt", "sum")])
    return pa.table(
        {"from_type": m["from_type"], "to_type": m["to_type"],
         "cnt": m["cnt_sum"].cast(pa.int64())}
    )


def grouped_corr(
    ds: Dataset,
    *,
    group_col: str,
    x_col: str,
    y_col: str,
    batch_size: int = 65536,
) -> pa.Table:
    """Pearson correlation per group in ONE combiner pass: per-batch
    partials (n, Σx, Σy, Σxy, Σx², Σy²) shuffle ≤ #groups rows per
    block; the driver finishes with the population formula
    ``cov/(σx·σy)``.  Rows with a null in either column are excluded.
    Callers should center/scale inputs to sane magnitudes first —
    Σx² in float64 loses precision once x ≫ 1e9 (the classic
    one-pass-correlation caveat, worth the single pass at 100 TB)."""

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch[x_col]), pc.is_valid(batch[y_col]))
        t = batch.filter(keep)
        x = t[x_col].cast(pa.float64())
        y = t[y_col].cast(pa.float64())
        tbl = pa.table(
            {
                group_col: t[group_col],
                "__x": x,
                "__y": y,
                "__xy": pc.multiply(x, y),
                "__x2": pc.multiply(x, x),
                "__y2": pc.multiply(y, y),
            }
        )
        g = tbl.group_by(group_col).aggregate(
            [("__x", "sum"), ("__y", "sum"), ("__xy", "sum"),
             ("__x2", "sum"), ("__y2", "sum"), ([], "count_all")]
        )
        return g.rename_columns([group_col, "__sx", "__sy", "__sxy", "__sx2", "__sy2", "__pn"])

    parts = list(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=batch_size).iter_batches(batch_format="pyarrow")
    )
    m = pa.concat_tables(parts).group_by(group_col).aggregate(
        [("__sx", "sum"), ("__sy", "sum"), ("__sxy", "sum"),
         ("__sx2", "sum"), ("__sy2", "sum"), ("__pn", "sum")]
    )
    n = m["__pn_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
    sx = m["__sx_sum"].to_numpy(zero_copy_only=False)
    sy = m["__sy_sum"].to_numpy(zero_copy_only=False)
    sxy = m["__sxy_sum"].to_numpy(zero_copy_only=False)
    sx2 = m["__sx2_sum"].to_numpy(zero_copy_only=False)
    sy2 = m["__sy2_sum"].to_numpy(zero_copy_only=False)
    cov = sxy / n - (sx / n) * (sy / n)
    vx = sx2 / n - (sx / n) ** 2
    vy = sy2 / n - (sy / n) ** 2
    denom = np.sqrt(np.maximum(vx, 0)) * np.sqrt(np.maximum(vy, 0))
    corr = np.where(denom > 0, cov / denom, np.nan)
    return pa.table(
        {group_col: m[group_col], "corr": pa.array(corr, type=pa.float64(), from_pandas=True)}
    )


def grouped_regression(
    ds: Dataset,
    *,
    group_col: str,
    x_col: str,
    y_col: str,
    batch_size: int = 65536,
) -> pa.Table:
    """Simple linear regression (OLS of y on x) per group in ONE
    combiner pass — the distributed twin of SQL's
    ``regr_slope``/``regr_intercept``/``regr_r2``.  Same partials and
    conditioning caveat as :func:`grouped_corr` (center/scale x first);
    rows with a null in either column are excluded.  Returns one row
    per group with slope, intercept, r2 (NaN where var(x) == 0)."""

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch[x_col]), pc.is_valid(batch[y_col]))
        t = batch.filter(keep)
        x = t[x_col].cast(pa.float64())
        y = t[y_col].cast(pa.float64())
        tbl = pa.table(
            {
                group_col: t[group_col],
                "__x": x,
                "__y": y,
                "__xy": pc.multiply(x, y),
                "__x2": pc.multiply(x, x),
                "__y2": pc.multiply(y, y),
            }
        )
        g = tbl.group_by(group_col).aggregate(
            [("__x", "sum"), ("__y", "sum"), ("__xy", "sum"),
             ("__x2", "sum"), ("__y2", "sum"), ([], "count_all")]
        )
        return g.rename_columns([group_col, "__sx", "__sy", "__sxy", "__sx2", "__sy2", "__pn"])

    parts = list(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=batch_size).iter_batches(batch_format="pyarrow")
    )
    m = pa.concat_tables(parts).group_by(group_col).aggregate(
        [("__sx", "sum"), ("__sy", "sum"), ("__sxy", "sum"),
         ("__sx2", "sum"), ("__sy2", "sum"), ("__pn", "sum")]
    )
    n = m["__pn_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
    sx = m["__sx_sum"].to_numpy(zero_copy_only=False)
    sy = m["__sy_sum"].to_numpy(zero_copy_only=False)
    sxy = m["__sxy_sum"].to_numpy(zero_copy_only=False)
    sx2 = m["__sx2_sum"].to_numpy(zero_copy_only=False)
    sy2 = m["__sy2_sum"].to_numpy(zero_copy_only=False)
    cov = sxy / n - (sx / n) * (sy / n)
    vx = sx2 / n - (sx / n) ** 2
    vy = sy2 / n - (sy / n) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = np.where(vx > 0, cov / vx, np.nan)
        intercept = sy / n - slope * (sx / n)
        r2 = np.where((vx > 0) & (vy > 0), (cov * cov) / (vx * vy), np.nan)
    return pa.table({
        group_col: m[group_col],
        "slope": pa.array(slope, type=pa.float64(), from_pandas=True),
        "intercept": pa.array(intercept, type=pa.float64(), from_pandas=True),
        "r2": pa.array(r2, type=pa.float64(), from_pandas=True),
    })


def grouped_mad(
    ds: Dataset,
    group_col: str,
    col: str,
    *,
    batch_size: int = 65536,
) -> pa.Table:
    """Median absolute deviation per group (the robust spread estimate
    behind outlier gates that survive heavy tails): two exact passes —
    per-group discrete median (:func:`grouped_discrete_quantiles`),
    broadcast back, then the discrete median of |value − median| with
    the same machinery.  Exact for bounded-cardinality value columns
    (discrete-quantile parity, ``sorted[max(ceil(q·n)−1, 0)]``)."""
    import ray

    med = grouped_discrete_quantiles(ds, group_col, col, [0.5], batch_size=batch_size)
    payload = (
        _combine(med[group_col]),
        med["p50"].cast(pa.float64()).to_numpy(zero_copy_only=False),
    )
    ref = ray.put(payload) if ray.is_initialized() else payload

    class AbsDev:
        def __init__(self):
            p = ref
            self.groups, self.med = ray.get(p) if isinstance(p, ray.ObjectRef) else p

        def __call__(self, batch: pa.Table) -> pa.Table:
            t = batch.filter(pc.and_(pc.is_valid(batch[group_col]), pc.is_valid(batch[col])))
            idx = pc.index_in(_combine(t[group_col]), value_set=self.groups)
            i = pc.fill_null(idx, 0).to_numpy(zero_copy_only=False).astype(np.int64)
            v = t[col].cast(pa.float64()).to_numpy(zero_copy_only=False)
            dev = np.abs(v - self.med[i])
            return pa.table({group_col: t[group_col], "__dev": pa.array(dev, type=pa.float64())})

    devs = ds.map_batches(AbsDev, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size, concurrency=(1, 8))
    mad = grouped_discrete_quantiles(devs, group_col, "__dev", [0.5], batch_size=batch_size)
    out = med.join(mad.rename_columns([group_col, "mad"]), keys=group_col)
    return pa.table(
        {
            group_col: out[group_col],
            "median": out["p50"].cast(pa.float64()),
            "mad": out["mad"].cast(pa.float64()),
        }
    )


def interval_count_join(
    points: Dataset,
    intervals: Dataset,
    *,
    point_col: str,
    id_col: str,
    start_col: str,
    end_col: str,
    max_len_us: int,
    count_alias: str = "n_cover",
    n_parts: int = 32,
    batch_size: int = 65536,
) -> Dataset:
    """Distributed NON-EQUI interval join, aggregate (count) form: for
    every point row, the number of interval rows with
    ``start <= point < end`` — no shared key between the sides at all
    (attribution windows, maintenance windows, promo periods).

    The reference has no join surface (jesse validates one document at
    a time); this is part of the corpus-level query layer the engine
    adds on top.  Ray Data has no range join either, so this is the
    composition path (SURVEY custom-operator rule): bucket-replicate on
    time.

    Scale design — the classic point-in-interval decomposition:
    - both sides are bucketed at granularity ``g = max_len_us`` (every
      interval must satisfy ``end - start <= max_len_us``, asserted per
      batch), so an interval overlaps AT MOST TWO buckets and is
      replicated to exactly the buckets it overlaps (replication factor
      <= 2, independent of data volume);
    - the shuffle is a coarse hash of the bucket id (<= ``n_parts``
      distinct shuffle keys — Ray's sort shuffle never sees a
      high-cardinality key);
    - inside each part ONE vectorized pass answers every point: with
      intervals encoded as composite keys ``dense_bucket * stride +
      (ts - bucket*g + g)``, ``count(start <= p) - count(end <= p)``
      is two ``np.searchsorted`` calls over sorted start/end key
      arrays (the indicator difference is 1 exactly when
      ``start <= p < end``, and every interval covering p is assigned
      to p's bucket exactly once — so non-covering residents cancel);
    - output is one row per point (LEFT-join semantics: zero-cover
      points included), never the cross product.
    """
    g = np.int64(max_len_us)

    def _ts_i64(col) -> np.ndarray:
        arr = _combine(col)
        if pa.types.is_timestamp(arr.type):
            arr = arr.cast(pa.timestamp("us")).cast(pa.int64())
        else:
            arr = arr.cast(pa.int64())
        return arr.to_numpy(zero_copy_only=False)

    def prep_points(batch: pa.Table) -> pa.Table:
        v = _ts_i64(batch[point_col])
        b = v // g
        return pa.table({
            "b": pa.array(b, type=pa.int64()),
            "kind": pa.array(np.zeros(len(v), dtype=np.int8)),
            "s": pa.array(v, type=pa.int64()),
            "e": pa.array(np.zeros(len(v), dtype=np.int64)),
            "pid": _combine(batch[id_col]).cast(pa.int64()),
        })

    def prep_intervals(batch: pa.Table) -> pa.Table:
        s = _ts_i64(batch[start_col])
        e = _ts_i64(batch[end_col])
        if len(s) and (int((e - s).max()) > int(g) or int((e - s).min()) <= 0):
            raise ValueError(
                f"intervals must satisfy 0 < end-start <= max_len_us={int(g)}")
        b0 = s // g
        b1 = (e - 1) // g
        extra = np.flatnonzero(b1 > b0)
        bb = np.concatenate([b0, b1[extra]])
        ss = np.concatenate([s, s[extra]])
        ee = np.concatenate([e, e[extra]])
        n = len(bb)
        return pa.table({
            "b": pa.array(bb, type=pa.int64()),
            "kind": pa.array(np.ones(n, dtype=np.int8)),
            "s": pa.array(ss, type=pa.int64()),
            "e": pa.array(ee, type=pa.int64()),
            "pid": pa.array(np.full(n, -1, dtype=np.int64)),
        })

    tagged = points.map_batches(
        prep_points, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    ).union(intervals.map_batches(
        prep_intervals, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    ))

    stride = np.int64(4) * g + np.int64(2)

    def count_part(df: pd.DataFrame) -> pd.DataFrame:
        kind = df["kind"].to_numpy()
        pm = kind == 0
        pid = df["pid"].to_numpy()[pm]
        if len(pid) == 0:
            return pd.DataFrame({id_col: np.empty(0, dtype=np.int64),
                                 count_alias: np.empty(0, dtype=np.int64)})
        pv = df["s"].to_numpy()[pm]
        pb = df["b"].to_numpy()[pm]
        im = ~pm
        if not im.any():
            return pd.DataFrame({id_col: pid, count_alias: np.zeros(len(pid), dtype=np.int64)})
        s = df["s"].to_numpy()[im]
        e = df["e"].to_numpy()[im]
        ib = df["b"].to_numpy()[im]
        allb = np.unique(np.concatenate([pb, ib]))
        di = np.searchsorted(allb, ib).astype(np.int64)
        dp = np.searchsorted(allb, pb).astype(np.int64)
        ks = np.sort(di * stride + (s - ib * g + g))
        ke = np.sort(di * stride + (e - ib * g + g))
        q = dp * stride + (pv - pb * g + g)
        cnt = (np.searchsorted(ks, q, side="right")
               - np.searchsorted(ke, q, side="right")).astype(np.int64)
        return pd.DataFrame({id_col: pid, count_alias: cnt})

    return map_key_buckets(tagged, ["b"], count_part, n_parts=n_parts)


def latest_by_key(
    ds: Dataset,
    key: str,
    order_cols: Sequence[str],
    *,
    keep: str = "last",
    n_parts: int = 64,
) -> Dataset:
    """CDC-style latest-state compaction (upsert / merge-on-read): keep,
    per key, the single row that is greatest by ``order_cols`` (e.g.
    ``[ts, event_id]`` — the id as a deterministic tiebreaker).  The
    streaming analogue of applying a changelog to get current state.
    ``keep="first"`` keeps the SMALLEST row instead (earliest event —
    cohort anchors, first-touch attribution).

    Two-phase: a per-batch combiner keeps one candidate row per key
    seen in the batch (so the shuffle carries at most
    n_keys x n_blocks rows, not the corpus), then a coarse key-hash
    shuffle (<= ``n_parts`` shuffle keys) and one vectorized
    sort + drop_duplicates per part.  Output types are restored to the
    input Arrow schema (the pandas round-trip must not upcast int keys
    — see hash_join's same fix)."""
    if keep not in ("first", "last"):
        raise ValueError(f"keep must be 'first' or 'last', got {keep!r}")
    types = _arrow_types(ds)
    cols = list(types.keys())
    sort_cols = [key, *order_cols]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(sort_cols, kind="mergesort").drop_duplicates(subset=[key], keep=keep)

    def final(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(sort_cols, kind="mergesort").drop_duplicates(subset=[key], keep=keep)
        arrs = {c: pa.Array.from_pandas(g[c], type=types[c]) for c in cols}
        return pa.table(arrs)

    kept = ds.map_batches(partial, batch_format="pandas")
    return map_key_buckets(kept, [key], final, n_parts=n_parts)


def scd2_intervals(
    ds: Dataset,
    key: str,
    order_cols: Sequence[str],
    *,
    valid_from: str = "valid_from",
    valid_to: str = "valid_to",
    n_parts: int = 64,
) -> Dataset:
    """Slowly-changing-dimension type-2 intervalization: turn a changelog
    (one row per change event) into versioned rows with half-open
    validity windows ``[valid_from, valid_to)`` — ``valid_to`` is the
    NEXT change's timestamp for the same key, null for the current
    version (``lead() OVER (PARTITION BY key ORDER BY order_cols)``
    semantics; the first element of ``order_cols`` is the event-time
    column, the rest deterministic tiebreakers).

    Unlike ``latest_by_key`` every version row survives, so there is no
    map-side keep-one combiner — the shuffle is inherently corpus-sized.
    What keeps it scale-safe: (1) a COARSE key-hash shuffle (≤ n_parts
    shuffle keys, never the raw key — Ray's sort-based groupby dies on
    high-cardinality keys), (2) one vectorized mergesort + shift per
    part (no per-key Python), (3) callers prune to the columns the
    versioned output needs before calling.  Output Arrow types are
    restored from the input schema; ``valid_to`` gets the event-time
    column's type (nullable)."""
    ts_col = order_cols[0]
    types = _arrow_types(ds)
    cols = list(types.keys())
    sort_cols = [key, *order_cols]

    def intervalize(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(sort_cols, kind="mergesort")
        nxt = g[ts_col].shift(-1)
        same_key = g[key].shift(-1).values == g[key].values
        nxt = nxt.where(same_key)
        arrs = {c: pa.Array.from_pandas(g[c], type=types[c]) for c in cols}
        out = pa.table(arrs)
        out = out.append_column(valid_to, pa.Array.from_pandas(nxt, type=types[ts_col]))
        if valid_from != ts_col:
            out = out.append_column(valid_from, out[ts_col])
        return out

    return map_key_buckets(ds, [key], intervalize, n_parts=n_parts)


def column_profile(
    path: str,
    cols: Sequence[str],
    *,
    n_parts: int = 64,
    batch_size: int = 65536,
) -> pa.Table:
    """Data-quality profile (the Deequ/Great-Expectations opening move):
    per column, exact ``(n_rows, n_null, n_distinct)``.  One NARROW
    column-pruned read per column (only that column leaves storage);
    per-batch combiner = Arrow ``unique`` + null count, so the shuffle
    carries distinct-per-batch values only; coarse value-hash partition
    (≤ n_parts groups) and an exact ``count_distinct`` per part — the
    driver sees one row per (column, part).

    Non-string/int columns partition and count on an injective int64
    recoding (timestamps → epoch µs, float64 → raw IEEE bits), so
    distinctness matches SQL ``count(DISTINCT col)`` except the
    degenerate -0.0/NaN cases (absent from profiled corpora; a float
    column with NaNs should be profiled via its bits anyway)."""
    from jesse_ray.sources import read_table

    out_rows = []
    for c in cols:
        ds = read_table(path, columns=[c])

        def partial(batch: pa.Table, _c=c) -> pa.Table:
            col = batch[_c]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            n = len(col)
            nn = col.null_count
            u = pc.unique(col.drop_null())
            if pa.types.is_timestamp(u.type):
                u = u.cast(pa.int64())
            elif pa.types.is_floating(u.type):
                u = pa.array(u.cast(pa.float64()).to_numpy(zero_copy_only=False).view(np.int64))
            elif pa.types.is_boolean(u.type):
                u = u.cast(pa.int64())
            # the stats row's null ``v`` buckets like any null key
            t = pa.concat_tables([pa.table({"v": u}), pa.table({"v": pa.nulls(1, u.type)})])
            nrows = pa.array([0] * len(u) + [n], type=pa.int64())
            nnull = pa.array([0] * len(u) + [nn], type=pa.int64())
            return t.append_column("__nr", nrows).append_column("__nn", nnull)

        def per_part(g: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({
                "n_distinct": [int(g["v"].nunique(dropna=True))],
                "n_rows": [int(g["__nr"].sum())],
                "n_null": [int(g["__nn"].sum())],
            })

        parts = map_key_buckets(
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=batch_size),
            ["v"], per_part, n_parts=n_parts)
        agg = pa.concat_tables(list(parts.iter_batches(batch_format="pyarrow")))
        out_rows.append({
            "column": c,
            "n_rows": int(pc.sum(agg["n_rows"]).as_py() or 0),
            "n_null": int(pc.sum(agg["n_null"]).as_py() or 0),
            "n_distinct": int(pc.sum(agg["n_distinct"]).as_py() or 0),
        })
    return pa.table({
        "column": pa.array([r["column"] for r in out_rows]),
        "n_rows": pa.array([r["n_rows"] for r in out_rows], type=pa.int64()),
        "n_null": pa.array([r["n_null"] for r in out_rows], type=pa.int64()),
        "n_distinct": pa.array([r["n_distinct"] for r in out_rows], type=pa.int64()),
    })


def equidepth_histogram(
    ds: Dataset,
    group_col: str,
    col: str,
    *,
    qs: Sequence[float] = (0.25, 0.5, 0.75),
    batch_size: int = 65536,
) -> pa.Table:
    """Per-group equi-depth histogram: bucket boundaries are the group's
    exact discrete quantiles, bucket(v) = 1 + #{boundaries < v} — the
    profiling primitive behind optimizer statistics and per-cohort skew
    reports (the fixed-WIDTH variant is events_histogram).  Phase 1:
    exact per-group boundaries via :func:`grouped_discrete_quantiles`
    (bounded-cardinality value assumption documented there; swap in the
    t-digest bounds at 100 TB).  Phase 2: broadcast the tiny boundary
    table, one hash probe + vectorized comparisons per batch, per-batch
    (group, bucket) count combiner — the shuffle carries
    ≤ n_groups × (len(qs)+1) rows per block.  NULL measures are
    excluded (SQL parity: WHERE value IS NOT NULL)."""
    import ray

    bounds = grouped_discrete_quantiles(ds, group_col, col, list(qs))
    bnames = [f"p{round(q * 100):d}" for q in qs]
    payload = (
        _combine(bounds[group_col]),
        np.stack([bounds[b].to_numpy(zero_copy_only=False).astype(np.float64)
                  for b in bnames], axis=1),
    )
    ref = ray.put(payload) if ray.is_initialized() else payload

    class Bucketize:
        def __init__(self):
            p = ref
            self.groups, self.B = ray.get(p) if isinstance(p, ray.ObjectRef) else p

        def __call__(self, batch: pa.Table) -> pa.Table:
            g = _combine(batch[group_col])
            v = _combine(batch[col])
            keep = pc.and_kleene(pc.is_valid(v), pc.is_valid(g))
            t = pa.table({"g": g, "v": v}).filter(keep)
            if len(t) == 0:
                return pa.table({group_col: pa.array([], type=g.type),
                                 "bucket": pa.array([], type=pa.int64()),
                                 "__pc": pa.array([], type=pa.int64())})
            idx = pc.index_in(t["g"], value_set=self.groups)
            i = idx.to_numpy(zero_copy_only=False).astype(np.int64)
            vv = t["v"].cast(pa.float64()).to_numpy(zero_copy_only=False)
            bucket = 1 + (vv[:, None] > self.B[i]).sum(axis=1).astype(np.int64)
            part = pa.table({group_col: t["g"], "bucket": pa.array(bucket)})
            cnt = part.group_by([group_col, "bucket"]).aggregate([([], "count_all")])
            return cnt.rename_columns([group_col, "bucket", "__pc"])

        # NOTE: groups absent from the boundary table cannot occur — the
        # boundary pass saw every group with ≥1 non-null value.

    parts = ds.map_batches(Bucketize, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=batch_size, concurrency=(1, 8))
    merged = pa.concat_tables(list(parts.iter_batches(batch_format="pyarrow")))
    out = merged.group_by([group_col, "bucket"]).aggregate([("__pc", "sum")])
    out = out.rename_columns([group_col, "bucket", "n"])
    out = out.set_column(2, "n", out["n"].cast(pa.int64()))
    return out.sort_by([(group_col, "ascending"), ("bucket", "ascending")])


def grouped_top_k_elements(
    ds: Dataset,
    list_col: str,
    group_col: str,
    *,
    k: int = 3,
    n_parts: int = 64,
    min_elem: int | None = 0,
    batch_size: int = 65536,
) -> pa.Table:
    """Exact per-GROUP top-k most frequent list elements (per-source
    vocabulary heads — the grouped form of :func:`top_k_elements`).
    Map side: one Arrow ``group_by`` per batch over (group, element)
    partial counts; shuffle key is the COARSE ELEMENT hash alone — an
    element's counts for every group land in one part, so per-part
    merged counts are exact and a group's global top-k element is
    necessarily in its part's per-group top-k.  Driver merges
    ≤ n_parts × n_groups × k candidate rows.  Ties: count desc, element
    asc.  ``min_elem`` drops sentinel ids (< 0) before counting."""

    def partial(batch: pa.Table) -> pa.Table:
        col = batch[list_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lens = pc.list_value_length(col).fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        flat = pc.list_flatten(col)
        grp = _combine(batch[group_col]).take(
            pa.array(np.repeat(np.arange(len(batch), dtype=np.int64), lens)))
        t = pa.table({"g": grp, "elem": flat})
        if min_elem is not None:
            t = t.filter(pc.greater_equal(t["elem"], min_elem))
        g = t.group_by(["g", "elem"]).aggregate([([], "count_all")])
        return g.rename_columns(["g", "elem", "__pc"])

    def merge(gdf: pd.DataFrame) -> pd.DataFrame:
        m = gdf.groupby(["g", "elem"], sort=False)["__pc"].sum().reset_index()
        m = m.sort_values(["g", "__pc", "elem"], ascending=[True, False, True],
                          kind="mergesort")
        return m.groupby("g", sort=False).head(k)

    per_part = map_key_buckets(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=batch_size),
        ["elem"], merge, n_parts=n_parts)
    cand = pa.concat_tables(list(per_part.iter_batches(batch_format="pyarrow")))
    df = cand.to_pandas()
    df = df.sort_values(["g", "__pc", "elem"], ascending=[True, False, True],
                        kind="mergesort").groupby("g", sort=False).head(k)
    df = df.reset_index(drop=True)
    out = pa.table({
        group_col: pa.array(df["g"]),
        "elem": pa.array(df["elem"].astype("int64")),
        "cnt": pa.array(df["__pc"].astype("int64")),
    })
    return out.sort_by([(group_col, "ascending"), ("cnt", "descending"),
                        ("elem", "ascending")])


def pivot_counts(
    ds: Dataset,
    key: str,
    bucket_col: str,
    n_buckets: int,
    *,
    prefix: str = "b",
    batch_size: int = 65536,
) -> pa.Table:
    """Pivot (crosstab): one output row per ``key`` value with
    ``n_buckets`` count columns ``{prefix}00..{prefix}NN`` — the wide
    re-expression of ``count(*) FILTER (WHERE bucket = i)`` (classic
    SQL PIVOT; the reference has no table ops at all, this is catalog
    surface beyond it).

    Map side: per batch ONE ``dictionary_encode`` of the key + one
    ``np.bincount`` over ``key_idx * n_buckets + bucket`` — the whole
    crosstab of the batch in a single vectorized pass, emitting one
    wide row per key present in the batch (the combiner).  Reduce
    side: Ray ``groupby(key).Sum`` over the ≤ n_keys × n_blocks
    partial rows.  Scale: the shuffle carries one wide row per (key,
    block); sized for low-cardinality pivot keys (dashboards), where
    the all-to-all is trivially small.  ``bucket_col`` must already
    hold int bucket ids in [0, n_buckets) (nulls/out-of-range rows are
    dropped, matching the SQL FILTER semantics).
    """
    names = [f"{prefix}{i:02d}" for i in range(n_buckets)]

    def partial(batch: pa.Table) -> pa.Table:
        keys = _combine(batch[key])
        enc = keys.dictionary_encode()
        kidx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        kvals = enc.dictionary
        buck = batch[bucket_col].to_numpy(zero_copy_only=False)
        ok = ~np.isnan(buck) if buck.dtype.kind == "f" else np.ones(len(buck), bool)
        buck = np.where(ok, buck, 0).astype(np.int64)
        ok &= (buck >= 0) & (buck < n_buckets) & (kidx >= 0)
        counts = np.bincount(kidx[ok] * n_buckets + buck[ok],
                             minlength=len(kvals) * n_buckets).reshape(len(kvals), n_buckets)
        cols = {key: kvals}
        for i, nm in enumerate(names):
            cols[nm] = pa.array(counts[:, i], type=pa.int64())
        return pa.table(cols)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=batch_size)
    agg = partials.groupby(key).aggregate(*[Sum(nm, alias_name=nm) for nm in names])
    out = pa.concat_tables(list(agg.iter_batches(batch_format="pyarrow")))
    for nm in names:
        out = out.set_column(out.column_names.index(nm), nm, out[nm].cast(pa.int64()))
    return out.sort_by([(key, "ascending")])


def activity_streaks(
    ds: Dataset,
    *,
    entity_col: str = "user_id",
    ts_col: str = "ts",
    n_parts: int = 64,
) -> Dataset:
    """Gaps-and-islands per entity: longest run of CONSECUTIVE active
    days (plus total active days) — the classic engagement/streak
    window query (SQL twin: day - row_number() island key).

    Scale shape: the event stream is first projected to distinct
    (entity, day) int64 pairs per batch (map-side dedup — days, not
    events, cross the wire), then ONE coarse hash partition on the
    entity co-locates each entity's days; per part, island detection is
    a vectorized sort + diff over the part's full slice (a part holds
    MANY entities; skew is bounded by day-cardinality per entity, ≤
    corpus days)."""

    def project(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        day = pc.divide(ts.cast(pa.timestamp("us")).cast(pa.int64()),
                        pa.scalar(86_400_000_000, type=pa.int64()))
        t = pa.table({entity_col: batch[entity_col], "day": day})
        return t.group_by([entity_col, "day"]).aggregate([])

    def streaks(g: pd.DataFrame) -> pd.DataFrame:
        d = g[[entity_col, "day"]].drop_duplicates()
        d = d.sort_values([entity_col, "day"], kind="mergesort")
        if len(d) == 0:
            return pd.DataFrame({entity_col: pd.array([], dtype="int64"),
                                 "active_days": pd.array([], dtype="int64"),
                                 "best_streak": pd.array([], dtype="int64")})
        ent = d[entity_col].to_numpy()
        day = d["day"].to_numpy(dtype=np.int64)
        new_ent = np.empty(len(ent), dtype=bool)
        new_ent[0] = True
        np.not_equal(ent[1:], ent[:-1], out=new_ent[1:])
        # island id increments where the entity changes OR the day gap > 1
        brk = new_ent.copy()
        brk[1:] |= (day[1:] - day[:-1]) != 1
        isl = np.cumsum(brk) - 1
        isl_len = np.bincount(isl)
        isl_ent_idx = np.flatnonzero(brk)  # first row of each island
        ent_of_isl = ent[isl_ent_idx]
        out = pd.DataFrame({entity_col: ent_of_isl, "len": isl_len})
        agg = out.groupby(entity_col, sort=False)["len"].agg(["sum", "max"]).reset_index()
        agg.columns = [entity_col, "active_days", "best_streak"]
        return agg.astype({"active_days": "int64", "best_streak": "int64"})

    proj = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)
    return map_key_buckets(proj, [entity_col], streaks, n_parts=n_parts)


def merge_upsert(
    base: Dataset,
    updates: Dataset,
    *,
    key: str,
    op_col: str = "__op",
    n_parts: int = 64,
) -> Dataset:
    """Warehouse ``MERGE INTO`` (Delta/Iceberg-style upsert): ``updates``
    carries ``op_col`` ∈ {'upsert', 'delete'}; matched keys are replaced
    (or removed), unmatched upserts are inserted.  Contract: ``key`` is
    unique within ``base`` and within ``updates`` (validate with
    ``duplicate_keys`` first — same contract as pack/shuffle).

    Scale shape: one coarse key-hash cogroup (both sides tagged and
    unioned — the hash_join pattern); each part resolves its complete
    key slice with vectorized pandas set ops.  No broadcast (updates
    may be large), no driver materialization."""
    cols = [c for c in base.schema().names]
    up_cols = [c for c in updates.schema().names if c != op_col]
    if set(up_cols) != set(cols):
        raise ValueError(f"updates columns {up_cols} must match base columns {cols}")
    types = _arrow_types(base)
    out_schema = pa.schema([(c, types[c]) for c in cols])

    def tag_base(b: pa.Table) -> pa.Table:
        b = b.select(cols)
        return b.append_column("__op", pa.array(["base"] * b.num_rows, type=pa.string()))

    def tag_upd(b: pa.Table) -> pa.Table:
        ops = b[op_col]
        if isinstance(ops, pa.ChunkedArray):
            ops = ops.combine_chunks()
        return b.select(cols).append_column("__op", ops.cast(pa.string()))

    tagged = base.map_batches(tag_base, batch_format="pyarrow", zero_copy_batch=True).union(
        updates.map_batches(tag_upd, batch_format="pyarrow", zero_copy_batch=True)
    )

    def resolve(g: pd.DataFrame) -> pa.Table:
        ups = g[g["__op"] == "upsert"]
        dels = set(g.loc[g["__op"] == "delete", key])
        touched = set(ups[key]) | dels
        keep = g[(g["__op"] == "base") & ~g[key].isin(touched)]
        out = pd.concat([keep[cols], ups[cols]], ignore_index=True)
        return _from_pandas(out, out_schema)

    return map_key_buckets(tagged, [key], resolve, n_parts=n_parts)


def rolling_distinct_entities(
    ds: Dataset,
    *,
    entity_col: str = "user_id",
    ts_col: str = "ts",
    window_days: int = 7,
    n_parts: int = 64,
) -> "pd.DataFrame":
    """Rolling W-day distinct entities per day (the DAU/WAU/MAU family),
    EXACTLY and without materializing per-window sets: an entity active
    on day d is counted in every window ending in [d, d+W-1], so each
    entity contributes the UNION of those intervals — computed per
    entity from its sorted active days (vectorized interval merge),
    emitted as ±1 diffs, summed across entities and prefix-summed over
    the day axis.  One (entity, day) map-side dedup + one coarse
    entity-hash shuffle; the driver sees only per-part diff VECTORS
    (days-range sized, not entity-sized).

    Returns a pandas frame (day, rolling_distinct) over the corpus'
    [min_day, max_day] span — window ends with no prior data still
    count entities active in their partial lookback."""
    lohi = ds.map_batches(
        lambda b: pa.table({
            "lo": pa.array([pc.min(b[ts_col]).as_py()]),
            "hi": pa.array([pc.max(b[ts_col]).as_py()]),
        }),
        batch_format="pyarrow", zero_copy_batch=True,
    ).to_pandas()
    day_us = 86_400_000_000
    lo_day = int(pd.Timestamp(lohi["lo"].min()).value // 1000 // day_us)
    hi_day = int(pd.Timestamp(lohi["hi"].max()).value // 1000 // day_us)
    n_days = hi_day - lo_day + 1

    def project(b: pa.Table) -> pa.Table:
        ts = b[ts_col]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        day = pc.divide(ts.cast(pa.timestamp("us")).cast(pa.int64()),
                        pa.scalar(day_us, type=pa.int64()))
        t = pa.table({entity_col: b[entity_col], "day": day})
        return t.group_by([entity_col, "day"]).aggregate([])

    def diffs(g: pd.DataFrame) -> pd.DataFrame:
        d = g[[entity_col, "day"]].drop_duplicates().sort_values(
            [entity_col, "day"], kind="mergesort")
        ent = d[entity_col].to_numpy()
        day = d["day"].to_numpy(dtype=np.int64) - lo_day
        # interval [day, day+W-1] per active day; merge overlaps per entity:
        # a day opens a new interval iff it's a new entity or starts after
        # the previous interval's end
        new_ent = np.empty(len(ent), dtype=bool)
        new_ent[0] = True
        np.not_equal(ent[1:], ent[:-1], out=new_ent[1:])
        start = new_ent.copy()
        start[1:] |= day[1:] > (day[:-1] + window_days - 1)
        # interval end = day before the NEXT start within the entity (or
        # own day+W-1 for the last interval); compute ends by looking at
        # runs: end_i = min(day_of_next_start - 1?, ...) — simpler: each
        # active day extends its run's end to day+W-1
        run_id = np.cumsum(start) - 1
        run_end = np.zeros(run_id[-1] + 1, dtype=np.int64)
        np.maximum.at(run_end, run_id, day + window_days - 1)
        run_start_day = day[start]
        np.clip(run_end, None, n_days - 1, out=run_end)
        diff = np.zeros(n_days + 1, dtype=np.int64)
        np.add.at(diff, run_start_day, 1)
        np.add.at(diff, run_end + 1, -1)
        return pd.DataFrame({"pos": np.arange(n_days + 1, dtype=np.int64),
                             "diff": diff})

    per_part = map_key_buckets(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        [entity_col], diffs, n_parts=n_parts).to_pandas()
    total = np.zeros(n_days + 1, dtype=np.int64)
    np.add.at(total, per_part["pos"].to_numpy(dtype=np.int64),
              per_part["diff"].to_numpy(dtype=np.int64))
    counts = np.cumsum(total[:-1])
    return pd.DataFrame({"day": np.arange(lo_day, hi_day + 1, dtype=np.int64),
                         "rolling_distinct": counts.astype(np.int64)})


def watermark_late_filter(
    ds: "Dataset",
    *,
    order_col: str = "event_id",
    ts_col: str = "ts",
    lateness_s: float = 300.0,
) -> "Dataset":
    """Streaming-ingest watermark semantics over a replayed log: events
    arrive in ``order_col`` order; the watermark is the running maximum
    event time seen so far; an event whose timestamp lags the watermark
    by more than ``lateness_s`` is marked late (the allowed-lateness
    drop rule of stream processors).  Appends ``late`` (int64 0/1).

    Distributed as the pack_offsets prefix-scan shape: one
    range-partitioned sort by arrival order, a per-block max-ts summary
    (rows never leave their block), a driver-side exclusive prefix max
    over the tiny block summaries, then a second per-block pass
    combining the broadcast block prefix with the block-local running
    max — the classic two-pass distributed scan, O(blocks) driver state."""
    import numpy as np

    sorted_ds = ds.sort(order_col).materialize()

    def block_summary(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"first_key": pa.array([], type=pa.int64()),
                             "max_ts": pa.array([], type=pa.int64())})
        ts = batch[ts_col].cast(pa.int64())
        first = batch[order_col][0].as_py()
        return pa.table({"first_key": pa.array([first], type=pa.int64()),
                         "max_ts": pa.array([pc.max(ts).as_py()], type=pa.int64())})

    summaries = pa.concat_tables(
        sorted_ds.map_batches(block_summary, batch_format="pyarrow",
                              batch_size=None).iter_batches(batch_format="pyarrow")
    ).sort_by("first_key")
    firsts = summaries["first_key"].to_numpy(zero_copy_only=False)
    maxes = summaries["max_ts"].to_numpy(zero_copy_only=False)
    # exclusive prefix max per block: watermark carried INTO the block
    prefix = np.full(len(maxes), np.iinfo(np.int64).min, dtype=np.int64)
    if len(maxes) > 1:
        prefix[1:] = np.maximum.accumulate(maxes)[:-1]
    late_us = np.int64(round(lateness_s * 1_000_000))

    def mark(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("late", pa.array([], type=pa.int64()))
        ts = batch[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        first = batch[order_col][0].as_py()
        bi = int(np.searchsorted(firsts, first, side="right") - 1)
        run = np.maximum.accumulate(ts)
        wm = np.maximum(run, prefix[bi])
        late = (ts < wm - late_us).astype(np.int64)
        return batch.append_column("late", pa.array(late))

    return sorted_ds.map_batches(mark, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# token-budget-capped sampling (grouped RANGE-cumsum prefix scan)


def _budget_block_summary(g: np.ndarray, h: np.ndarray, w: np.ndarray):
    """Per-block summary for the budget scan: per-group weight sums plus
    the (group, hash, weight) of the block's first and last tie runs
    (the only runs that can span block boundaries in a sorted stream)."""
    import pandas as pd

    sums = pd.Series(w).groupby(pd.Series(g), sort=False).sum()
    first_run = (g == g[0]) & (h == h[0])
    # the first run is a prefix of the block; bound it to the prefix
    fr_end = int(np.argmin(first_run)) if not first_run.all() else len(g)
    w_first = int(w[:fr_end].sum())
    last_run = (g == g[-1]) & (h == h[-1])
    lr_start = len(g) - (int(np.argmin(last_run[::-1])) if not last_run.all() else len(g))
    w_last = int(w[lr_start:].sum())
    return {
        "gfirst": g[0], "hfirst": int(h[0]), "wfirst": w_first,
        "glast": g[-1], "hlast": int(h[-1]), "wlast": w_last,
        "nrows": len(g), "sums": dict(sums.items()),
    }


def _budget_plan(summaries: list[dict]) -> dict:
    """Driver fold over ordered block summaries: per-block group offsets
    and boundary-run adjustments so every row's RANGE-inclusive cumsum
    (ties count fully, across blocks) is computable block-locally.
    Returns {block_key: (P_first, P_last, S_first, lt_last_plus_R)}."""
    order = sorted(range(len(summaries)),
                   key=lambda i: (summaries[i]["gfirst"], summaries[i]["hfirst"]))
    # global tie-run totals for boundary runs
    R: dict = {}
    for s in summaries:
        R[(s["gfirst"], s["hfirst"])] = R.get((s["gfirst"], s["hfirst"]), 0) + s["wfirst"]
        if (s["glast"], s["hlast"]) != (s["gfirst"], s["hfirst"]):
            R[(s["glast"], s["hlast"])] = R.get((s["glast"], s["hlast"]), 0) + s["wlast"]
    P: dict = {}
    seen: dict = {}
    plan: dict = {}
    for i in order:
        s = summaries[i]
        key = (s["gfirst"], s["hfirst"], s["glast"], s["hlast"], s["nrows"])
        p_first = P.get(s["gfirst"], 0)
        p_last = P.get(s["glast"], 0)
        kf = (s["gfirst"], s["hfirst"])
        kl = (s["glast"], s["hlast"])
        s_first = (p_first - seen.get(kf, 0)) + R[kf]
        lt_last_plus_r = (p_last - seen.get(kl, 0)) + R[kl]
        if key not in plan:  # duplicate keys: all-tie twins, interchangeable
            plan[key] = (p_first, p_last, s_first, lt_last_plus_r)
        for grp, ws in s["sums"].items():
            P[grp] = P.get(grp, 0) + int(ws)
        seen[kf] = seen.get(kf, 0) + s["wfirst"]
        if kl != kf:
            seen[kl] = seen.get(kl, 0) + s["wlast"]
    return plan


def _budget_block_keep(g: np.ndarray, h: np.ndarray, w: np.ndarray,
                       plan_row: tuple, gfirst, hfirst, glast, hlast,
                       budget: int) -> np.ndarray:
    """Keep mask for one sorted block given its plan row: block-local
    grouped RANGE cumsum (tie runs propagate their final value) plus the
    driver-computed cross-block offsets/run totals."""
    p_first, p_last, s_first, lt_last_plus_r = plan_row
    n = len(g)
    new_g = np.empty(n, dtype=bool)
    new_g[0] = True
    new_g[1:] = g[1:] != g[:-1]
    run_start = new_g.copy()
    run_start[1:] |= h[1:] != h[:-1]
    cw = np.cumsum(w, dtype=np.int64)
    gs_idx = np.maximum.accumulate(np.where(new_g, np.arange(n), 0))
    grp_cum = cw - cw[gs_idx] + w[gs_idx]  # inclusive per-group ROWS cumsum
    run_id = np.cumsum(run_start) - 1
    run_end = np.empty(n, dtype=bool)
    run_end[:-1] = run_start[1:]
    run_end[-1] = True
    L = grp_cum[np.flatnonzero(run_end)][run_id]  # RANGE: full tie run counts
    p_sel = np.zeros(n, dtype=np.int64)
    p_sel[g == glast] = p_last
    p_sel[g == gfirst] = p_first
    S = p_sel + L
    m_first = (g == gfirst) & (h == hfirst)
    S[m_first] = s_first
    m_last = (g == glast) & (h == hlast) & ~m_first
    if m_last.any():
        i0 = int(np.flatnonzero(m_last)[0])
        S[m_last] = lt_last_plus_r + (grp_cum[i0] - w[i0])
    return S <= budget


def budget_prefix_sample(
    ds: "Dataset",
    *,
    group_col: str,
    hash_col: str,
    weight_col: str,
    budget: int,
) -> "Dataset":
    """Token-budget-capped sampling: within each group, rows are taken
    in ``hash_col`` order (a deterministic pseudo-random order — hash of
    the row key) until the running ``weight_col`` total exceeds
    ``budget``.  The mixing primitive behind "cap every source at N
    tokens": unbiased (hash order), deterministic, and reproducible
    across runs and engines.

    Tie semantics are RANGE (SQL ``SUM() OVER (PARTITION BY g ORDER BY
    h)``): rows sharing a hash share one verdict, so duplicate keys
    cannot make the result depend on physical row order.  Scale shape:
    one distributed sort by (group, hash), a per-block summary pass
    (per-group sums + the two boundary tie runs — rows never leave
    their block), a driver fold of O(blocks) summaries, then a second
    block-local pass applying the broadcast offsets.  The classic
    two-pass distributed prefix scan, O(blocks) driver state."""
    sorted_ds = ds.sort([group_col, hash_col]).materialize()

    def summarize(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"summary": pa.array([], type=pa.string())})
        import json as _json

        g = np.asarray(b[group_col].to_pandas(), dtype=object)
        h = b[hash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        w = b[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        s = _budget_block_summary(g, h, w)
        return pa.table({"summary": pa.array([_json.dumps(s)], type=pa.string())})

    import json as _json

    summaries = [
        _json.loads(x)
        for t in sorted_ds.map_batches(summarize, batch_format="pyarrow",
                                       batch_size=None).iter_batches(batch_format="pyarrow")
        for x in t["summary"].to_pylist()
    ]
    plan = _budget_plan(summaries)

    def mark(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        g = np.asarray(b[group_col].to_pandas(), dtype=object)
        h = b[hash_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        w = b[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        key = (g[0], int(h[0]), g[-1], int(h[-1]), len(g))
        keep = _budget_block_keep(g, h, w, plan[key], g[0], int(h[0]),
                                  g[-1], int(h[-1]), budget)
        return b.filter(pa.array(keep))

    return sorted_ds.map_batches(mark, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# schema-drift-tolerant union (UNION ALL BY NAME)


def union_by_name(a: "Dataset", b: "Dataset") -> "Dataset":
    """Union two Datasets whose schemas drifted apart — the analogue of
    DuckDB's ``UNION ALL BY NAME`` and the parquet-snapshot-evolution
    problem at corpus scale (a new scrape adds a column, an old one
    lacks it).  Columns are aligned BY NAME: the unified layout is A's
    columns in order followed by B-only columns; a side missing a
    column emits typed nulls for it, so every downstream block carries
    one stable schema.  Where both sides have a column, A's type wins
    and B casts to it (Arrow cast — raises on an unsafe drift, which is
    the correct failure mode for a silently-retyped column).

    Purely streaming: one ``map_batches`` per side (zero-copy column
    re-assembly, no data movement) + the plan-level ``union`` — no
    shuffle anywhere.
    """
    sa, sb = a.schema(), b.schema()
    types: dict[str, pa.DataType] = {}
    for s in (sa, sb):
        for n, t in zip(s.names, s.types):
            types.setdefault(n, t)
    names = list(sa.names) + [n for n in sb.names if n not in set(sa.names)]

    def align(batch: pa.Table) -> pa.Table:
        cols = []
        for n in names:
            if n in batch.column_names:
                c = batch[n]
                if c.type != types[n]:
                    c = c.cast(types[n])
                cols.append(c)
            else:
                cols.append(pa.nulls(batch.num_rows, type=types[n]))
        return pa.Table.from_arrays(
            [c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c for c in cols],
            names=names,
        )

    aa = a.map_batches(align, batch_format="pyarrow", zero_copy_batch=True)
    bb = b.map_batches(align, batch_format="pyarrow", zero_copy_batch=True)
    return aa.union(bb)


# ---------------------------------------------------------------------------
# skew-aware join: exact hot-key detection + salted replication


def skew_join(
    left: Dataset,
    right: Dataset,
    *,
    on: str,
    how: str = "inner",
    hot_count: int = 10_000,
    salt: int = 8,
    n_parts: int = 64,
    right_suffix: str = "_r",
) -> Dataset:
    """:func:`hash_join` with EXPLICIT skew handling — the classic
    salted-replication repartition join for heavy-hitter keys.

    A plain hash-partition join sends every row of a hot key to ONE
    part; at corpus scale a single key with 10^8 rows serializes the
    whole exchange behind one reducer.  This variant first finds the
    left side's hot keys EXACTLY (per-batch combiner partials →
    ≤ distinct-key rows shuffled → ``cnt >= hot_count`` filter; the
    result is driver-safe by construction, ≤ left_rows / hot_count
    keys), broadcasts them once, then joins on a composite key: hot
    left rows spread uniformly over ``salt`` buckets while their right
    matches are REPLICATED into every bucket (light keys ride bucket 0
    untouched).  Each (left row, right row) pair still meets exactly
    once — in the left row's bucket — so the result is row-identical
    to :func:`hash_join`; only the partition load changes (a hot key's
    fan-in drops by ``salt``×, at the cost of ``salt``× copies of its
    right rows, which is the standard trade because the RIGHT side of
    a skewed equi-join is the small dimension).

    ``how``: inner / left / semi / anti.  ``outer`` is refused — an
    unmatched replicated right row would surface ``salt`` times.
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"skew_join supports inner/left/semi/anti, not {how!r}")
    if salt < 2:
        raise ValueError("salt must be >= 2")

    counts = grouped_agg(left.select_columns([on]), [on])

    def over(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater_equal(b["cnt"], hot_count)).select([on])

    hot_keys = [
        x
        for t in counts.map_batches(over, batch_format="pyarrow",
                                    zero_copy_batch=True).iter_batches(batch_format="pyarrow")
        for x in t[on].to_pylist()
        if x is not None
    ]
    if not hot_keys:
        return hash_join(left, right, on=on, how=how,
                         right_suffix=right_suffix, n_parts=n_parts)

    hot_ref = ray.put(hot_keys) if ray.is_initialized() else hot_keys
    cache: dict[str, pa.Array] = {}

    def _hot_set(key_type: pa.DataType) -> pa.Array:
        if "v" not in cache:
            keys = ray.get(hot_ref) if isinstance(hot_ref, ray.ObjectRef) else hot_ref
            cache["v"] = pa.array(keys, type=key_type)
        return cache["v"]

    def _jk(key: pa.Array, salts: np.ndarray) -> pa.Array:
        return pc.binary_join_element_wise(
            key.cast(pa.string()),
            pa.array(salts.astype("U"), type=pa.string()),
            "#",
        )

    def l_tag(b: pa.Table) -> pa.Table:
        key = b[on].combine_chunks() if isinstance(b[on], pa.ChunkedArray) else b[on]
        hot = pc.fill_null(pc.is_in(key, value_set=_hot_set(key.type)), False)
        hot_np = hot.to_numpy(zero_copy_only=False)
        salts = np.zeros(len(key), dtype=np.int64)
        salts[hot_np] = np.arange(int(hot_np.sum())) % salt
        return b.append_column("__jk", _jk(key, salts))

    rnames = [c for c in _arrow_types(right) if c != on]

    def r_tag(b: pa.Table) -> pa.Table:
        key = b[on].combine_chunks() if isinstance(b[on], pa.ChunkedArray) else b[on]
        hot = pc.fill_null(pc.is_in(key, value_set=_hot_set(key.type)), False)
        hot_np = hot.to_numpy(zero_copy_only=False)
        light = b.filter(pc.invert(hot))
        lk = light[on].combine_chunks() if isinstance(light[on], pa.ChunkedArray) else light[on]
        out = [light.append_column("__jk", _jk(lk, np.zeros(light.num_rows, dtype=np.int64)))]
        nh = int(hot_np.sum())
        if nh:
            idx = np.repeat(np.flatnonzero(hot_np), salt)
            rep = b.take(pa.array(idx, type=pa.int64()))
            rk = rep[on].combine_chunks() if isinstance(rep[on], pa.ChunkedArray) else rep[on]
            salts = np.tile(np.arange(salt, dtype=np.int64), nh)
            out.append(rep.append_column("__jk", _jk(rk, salts)))
        t = pa.concat_tables(out)
        # the right's own key column must not collide post-join; the
        # composite key carries the equality
        return t.drop_columns([on])

    lt = left.map_batches(l_tag, batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(r_tag, batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(lt, rt, on="__jk", how=how,
                       right_suffix=right_suffix, n_parts=n_parts)

    def strip(b: pa.Table) -> pa.Table:
        return b.drop_columns(["__jk"])

    return joined.map_batches(strip, batch_format="pyarrow", zero_copy_batch=True)


def funnel_steps(
    events: Dataset,
    steps: Sequence[str],
    *,
    entity_col: str,
    ts_col: str,
    type_col: str,
    n_parts: int = 64,
) -> pa.Table:
    """K-step ordered funnel: per entity the chained first occurrences
    t1 = min ts(step1), t_i = min ts(step_i | ts >= t_{i-1}) — and per
    step the number of entities that reached it.  The k-step
    generalization of :func:`funnel_conversions` (same event-analytics
    primitive; in a data-pipeline setting ingest→validate→publish).

    Scale shape: the map side keeps only rows whose type is one of the
    ``steps`` and three slim columns; ONE coarse entity-hash shuffle
    co-locates each entity's funnel slice; each part runs k vectorized
    groupby-min passes over its complete entity slice and emits k
    partial count rows, so the driver merges ≤ n_parts × k rows."""
    steps = list(steps)

    def prep(batch: pa.Table) -> pa.Table:
        kind = batch[type_col]
        keep = pc.is_in(kind, value_set=pa.array(steps, type=pa.string()))
        t = batch.filter(keep)
        si = pc.index_in(t[type_col], value_set=pa.array(steps, type=pa.string()))
        return pa.table({
            "e": t[entity_col],
            "ts": t[ts_col],
            "si": si.cast(pa.int8()),
        })

    slim = events.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def part(g: pd.DataFrame) -> pd.DataFrame:
        reached = np.zeros(len(steps), dtype=np.int64)
        cur = g[g["si"] == 0].groupby("e")["ts"].min()
        reached[0] = len(cur)
        for i in range(1, len(steps)):
            if cur.empty:
                break
            rows = g[g["si"] == i]
            if rows.empty:
                cur = cur.iloc[0:0]
                break
            prev = rows["e"].map(cur)
            ok = rows[(rows["ts"] >= prev) & prev.notna()]
            cur = ok.groupby("e")["ts"].min()
            reached[i] = len(cur)
        return pd.DataFrame({"step": np.arange(1, len(steps) + 1, dtype=np.int64),
                             "n": reached})

    partials = map_key_buckets(slim, ["e"], part, n_parts=n_parts)
    merged = pa.concat_tables(list(partials.iter_batches(batch_format="pyarrow")))
    out = merged.group_by("step").aggregate([("n", "sum")])
    out = out.rename_columns(["step", "n"]).sort_by("step")
    return out.set_column(1, "n", out["n"].cast(pa.int64()))


# ---------------------------------------------------------------------------
# exact grouped quantiles over the bounded (group × value) count grid


def grouped_quantile_grid(
    ds: "Dataset",
    group_col: str,
    value_col: str,
    qs: Sequence[float],
    *,
    mode: str = "cont",
    max_cells: int = 4_000_000,
) -> list[tuple]:
    """Exact per-group quantiles WITHOUT a whole-group in-task sort.

    Scale shape (the lineitem_trimmed_mean discipline): a per-batch
    ``group_by(group, value).count`` combiner, a distributed groupby
    merge, and a driver walk over the cumulative counts of the merged
    grid — the grid is bounded by groups × distinct values (the value
    domain, NOT the row count), so no task ever holds or sorts one
    group's full value set.  On a 100-TB corpus with a handful of event
    types this removes the one-task-per-type straggler; for genuinely
    unbounded continuous domains the t-digest sketch (sketches.py) is
    the documented scale path.

    ``mode="cont"``: type-7 linear interpolation ``x[i] + g·(x[i+1]−x[i])``
    at ``i+g = q·(n−1)`` — the explicit lerp, evaluated from the two
    order statistics located by searchsorted on the cumulative grid
    (bit-identical to the per-group-sort formulation).
    ``mode="disc"``: the discrete rule ``sorted[max(ceil(q·n)−1, 0)]``.

    ``max_cells`` ENFORCES the bounded-domain contract: the driver grid
    is capped (default 4M cells ≈ 100 MB) and the collect raises loudly
    the moment the streamed grid exceeds it — a near-continuous value
    domain (microsecond gaps, raw floats) would otherwise silently grow
    the driver grid toward row count at 10^12 rows.  On trip, switch the
    caller to tdigest_quantiles_by_group (approximate, mergeable) or
    pre-bin the values to a bounded domain first.

    Returns [(group, q, value), ...] ordered by (group, q).
    """

    def partial(b: pa.Table) -> pa.Table:
        t = b.select([group_col, value_col]).filter(pc.is_valid(b[value_col]))
        g = t.group_by([group_col, value_col]).aggregate([([], "count_all")])
        return g.rename_columns([group_col, value_col, "pn"])

    merged = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([group_col, value_col])
        .aggregate(Sum("pn", alias_name="n"))
    )
    batches: list[pa.Table] = []
    cells = 0
    for b in merged.iter_batches(batch_format="pyarrow"):
        cells += b.num_rows
        if cells > max_cells:
            raise ValueError(
                f"grouped_quantile_grid: merged (group, value) grid exceeds "
                f"max_cells={max_cells} — the value domain is not bounded "
                f"enough for the exact grid path; use "
                f"tdigest_quantiles_by_group or pre-bin the values"
            )
        batches.append(b)
    grid = pa.concat_tables(batches).to_pandas()

    out: list[tuple] = []
    for key, g in grid.groupby(group_col, sort=True):
        g = g.sort_values(value_col)
        v = g[value_col].to_numpy(dtype=np.float64)
        c = g["n"].to_numpy(dtype=np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        for q in qs:
            if mode == "disc":
                r = max(int(np.ceil(q * n)) - 1, 0)
                out.append((key, q, float(v[np.searchsorted(cum, r + 1)])))
                continue
            pos = q * (n - 1)
            i = int(np.floor(pos))
            frac = pos - i
            xi = float(v[np.searchsorted(cum, i + 1)])
            xj = float(v[np.searchsorted(cum, i + 2)]) if i + 1 < n else xi
            out.append((key, q, xi + frac * (xj - xi)))
    return out
