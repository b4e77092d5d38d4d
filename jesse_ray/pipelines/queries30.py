"""Catalog wave 30: temporal nearest-neighbor join and
probability-proportional-to-size sampling with a Horvitz-Thompson
estimate — the attribution and survey-estimation primitives.

Same driver contract as :mod:`.queries`."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.rounding import round_half_away
from jesse_ray.sources import read_table

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


# ---------------------------------------------------------------------------
# events_nearest_join — for every 'error' event, the NEAREST 'purchase'
# by the same user within ±1 hour (either direction; equal gaps prefer
# the EARLIER purchase).  The bidirectional cousin of the as-of join.

NEAREST_TOL_S = 3600


SQL_EVENTS_NEAREST_JOIN = f"""
WITH s AS (
  SELECT event_id, user_id, epoch_us(ts) AS e, event_type
  FROM events WHERE event_type IN ('error', 'purchase')
),
w AS (
  SELECT *,
         lag(CASE WHEN event_type = 'purchase' THEN e END IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY e, event_id) AS pe,
         lag(CASE WHEN event_type = 'purchase' THEN event_id END IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY e, event_id) AS pid,
         lead(CASE WHEN event_type = 'purchase' THEN e END IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY e, event_id) AS ne,
         lead(CASE WHEN event_type = 'purchase' THEN event_id END IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY e, event_id) AS nid
  FROM s
),
j AS (
  SELECT event_id,
         CASE WHEN pe IS NOT NULL AND (ne IS NULL OR e - pe <= ne - e)
              THEN pid ELSE nid END AS purchase_id,
         CASE WHEN pe IS NOT NULL AND (ne IS NULL OR e - pe <= ne - e)
              THEN e - pe ELSE ne - e END AS gap_us
  FROM w WHERE event_type = 'error'
)
SELECT event_id, purchase_id, CAST(gap_us AS BIGINT) AS gap_us
FROM j
WHERE purchase_id IS NOT NULL AND gap_us <= {NEAREST_TOL_S * 1_000_000}
ORDER BY event_id
"""


@entry("events_nearest_join", sql=SQL_EVENTS_NEAREST_JOIN)
def q_events_nearest_join(sf_dir: str) -> pd.DataFrame:
    """One coarse user-hash shuffle of the two-type slice; per part the
    union is time-sorted once and each error row reads its previous and
    next purchase from two vectorized forward/backward fills — no
    per-row search.  Tie rule (equal gap → earlier purchase) and the
    tolerance are explicit."""
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "user_id", "ts", "event_type"])
    tol_us = np.int64(NEAREST_TOL_S * 1_000_000)

    def two_types(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["event_type"], value_set=pa.array(["error", "purchase"])))

    def nearest(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        e = g["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
        eid = g["event_id"].to_numpy()
        is_p = (g["event_type"] == "purchase").to_numpy()
        n = len(g)
        new_user = np.concatenate([[True], uid[1:] != uid[:-1]])
        # backward fill of the most recent purchase ts/id (per user)
        idx = np.arange(n)
        last_p = np.where(is_p, idx, -1)
        last_p[new_user & ~is_p] = -1
        # segmented forward max: reset at user boundaries
        run = np.cumsum(new_user) - 1
        off = run * (n + 1)
        last_p_f = np.maximum.accumulate(np.where(last_p >= 0, last_p + off, -1))
        prev_idx = np.where(last_p_f >= 0, last_p_f - off, -1)
        # a fill from a previous user leaks a negative index — mask it
        prev_idx = np.where((prev_idx >= 0) & (run[np.clip(prev_idx, 0, n - 1)] == run),
                            prev_idx, -1)
        # next purchase: mirror on the reversed array
        rev_is_p = is_p[::-1]
        rev_new = np.concatenate([[True], uid[::-1][1:] != uid[::-1][:-1]])
        rrun = np.cumsum(rev_new) - 1
        roff = rrun * (n + 1)
        rlast = np.where(rev_is_p, np.arange(n), -1)
        rfill = np.maximum.accumulate(np.where(rlast >= 0, rlast + roff, -1))
        ridx = np.where(rfill >= 0, rfill - roff, -1)
        ridx = np.where((ridx >= 0) & (rrun[np.clip(ridx, 0, n - 1)] == rrun), ridx, -1)
        next_idx = np.where(ridx[::-1] >= 0, n - 1 - ridx[::-1], -1)

        err = ~is_p
        cand_prev = prev_idx[err]
        cand_next = next_idx[err]
        et = e[err]
        gap_prev = np.where(cand_prev >= 0, et - e[np.clip(cand_prev, 0, n - 1)],
                            np.int64(1) << 62)
        gap_next = np.where(cand_next >= 0, e[np.clip(cand_next, 0, n - 1)] - et,
                            np.int64(1) << 62)
        # equal gap -> the EARLIER purchase (the previous one)
        pick_prev = gap_prev <= gap_next
        best = np.where(pick_prev, cand_prev, cand_next)
        gap = np.where(pick_prev, gap_prev, gap_next)
        ok = (best >= 0) & (gap <= tol_us)
        return pd.DataFrame({
            "event_id": eid[err][ok].astype(np.int64),
            "purchase_id": eid[np.clip(best, 0, n - 1)][ok].astype(np.int64),
            "gap_us": gap[ok].astype(np.int64),
        })

    slim = ds.map_batches(two_types, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(map_key_buckets(slim, ["user_id"], nearest)).to_pandas()
    return out.sort_values("event_id").reset_index(drop=True).astype(
        {"event_id": "int64", "purchase_id": "int64", "gap_us": "int64"})


# ---------------------------------------------------------------------------
# orders_pps_sample — deterministic SYSTEMATIC probability-proportional-
# to-size sample of orders (size = o_totalprice cents) plus the
# Horvitz-Thompson estimate of the order COUNT from the sample — the
# survey-sampling estimation primitive, fully deterministic (fixed
# fractional offset, no RNG).

PPS_N = 100
PPS_OFFSET_NUM, PPS_OFFSET_DEN = 1, 2  # systematic start at 0.5 steps


def _pps_sql() -> str:
    return f"""
WITH o AS (
  SELECT o_orderkey, CAST(round(o_totalprice * 100) AS BIGINT) AS w,
         sum(CAST(round(o_totalprice * 100) AS BIGINT))
           OVER (ORDER BY o_orderkey ROWS UNBOUNDED PRECEDING) AS cum
  FROM orders
),
tot AS (SELECT CAST(sum(w) AS HUGEINT) AS W, CAST(count(*) AS BIGINT) AS n_all FROM o),
k AS (SELECT unnest(generate_series(0, {PPS_N - 1})) AS k),
sel AS (
  SELECT DISTINCT (
    SELECT min(o_orderkey) FROM o
    WHERE 2 * {PPS_N} * CAST(cum AS HUGEINT) > (2 * k.k + 1) * (SELECT W FROM tot)
  ) AS o_orderkey
  FROM k
),
s AS (
  SELECT o.o_orderkey, o.w FROM sel JOIN o USING (o_orderkey)
)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM s) AS n_selected,
       (SELECT round(sum(1.0 / least(1.0, {PPS_N} * CAST(w AS DOUBLE)
                                          / CAST((SELECT W FROM tot) AS DOUBLE))
                         ORDER BY o_orderkey), 4) FROM s) AS ht_count_estimate,
       (SELECT n_all FROM tot) AS true_count
"""


@entry("orders_pps_sample", sql=_pps_sql())
def q_orders_pps_sample(sf_dir: str) -> pd.DataFrame:
    """Systematic PPS: orders in o_orderkey order with cumulative cents
    C_i; the k-th selection is the first order whose cumulative range
    covers ((2k+1)/2n)·W — integer cross-multiplied (2·n·C_i >
    (2k+1)·W), no floats, no RNG.  HT estimate of the population COUNT
    is Σ 1/π_i with π_i = min(1, n·w_i/W), folded in ascending
    o_orderkey order to match the twin's ordered aggregate.

    Scale shape (the seq_global_sort discipline — the fact table NEVER
    lands on the driver): distributed sort by o_orderkey, one
    boundary-summary pass (first key, Σw, count per block — O(blocks)
    rows to the driver builds the prefix offsets), then a second pass
    where each block selects its own targets via a local searchsorted
    against its broadcast offset; only the ≤n selected rows reach the
    driver."""
    import ray

    ds = read_table(f"{sf_dir}/orders.parquet",
                    columns=["o_orderkey", "o_totalprice"])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b["o_orderkey"],
            "w": pc.cast(pc.round(pc.multiply(b["o_totalprice"], 100.0)), pa.int64()),
        })

    srt = (ds.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
           .sort("o_orderkey").materialize())

    def summarize(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"fk": pa.array([], type=pa.int64()),
                             "sw": pa.array([], type=pa.int64()),
                             "cnt": pa.array([], type=pa.int64())})
        return pa.table({
            "fk": pa.array([b["o_orderkey"][0].as_py()], type=pa.int64()),
            "sw": pa.array([int(pc.sum(b["w"]).as_py() or 0)], type=pa.int64()),
            "cnt": pa.array([b.num_rows], type=pa.int64()),
        })

    bounds = _collect(srt.map_batches(summarize, batch_format="pyarrow",
                                      batch_size=None)).to_pandas()
    bounds = bounds.sort_values("fk").reset_index(drop=True)
    W = int(bounds["sw"].sum())
    n_all = int(bounds["cnt"].sum())
    n = PPS_N
    offs = {int(fk): int(off) for fk, off in zip(
        bounds["fk"], np.concatenate([[0], np.cumsum(bounds["sw"].to_numpy())[:-1]]))}
    oref = ray.put((offs, W)) if ray.is_initialized() else (offs, W)

    def select(b: pa.Table, _oref=oref) -> pa.Table:
        offs_, W_ = ray.get(_oref) if ray.is_initialized() else _oref
        if b.num_rows == 0:
            return pa.table({"o_orderkey": pa.array([], type=pa.int64()),
                             "w": pa.array([], type=pa.int64())})
        off = offs_[int(b["o_orderkey"][0].as_py())]
        w = b["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        cum = off + np.cumsum(w)
        # selection = first row with 2n*cum STRICTLY > (2k+1)*W (the
        # twin's WHERE ... > ... with min(o_orderkey)); a target routes
        # to this block iff the previous blocks' cum did NOT exceed it
        # (lo2 <= target) and this block's final cum does (target < hi2)
        lo2, hi2 = 2 * n * int(off), 2 * n * int(cum[-1])
        ks = [k for k in range(n)
              if lo2 <= (2 * k + 1) * W_ < hi2]
        if not ks:
            return pa.table({"o_orderkey": pa.array([], type=pa.int64()),
                             "w": pa.array([], type=pa.int64())})
        cum2 = [2 * n * int(c) for c in cum]
        idx = sorted({int(np.searchsorted(np.asarray(cum2, dtype=object),
                                          (2 * k + 1) * W_, side="right"))
                      for k in ks})
        return pa.table({
            "o_orderkey": pa.array([int(b["o_orderkey"][i].as_py()) for i in idx],
                                   type=pa.int64()),
            "w": pa.array([int(w[i]) for i in idx], type=pa.int64()),
        })

    sel = _collect(srt.map_batches(select, batch_format="pyarrow",
                                   batch_size=None)).to_pandas()
    sel = sel.drop_duplicates("o_orderkey").sort_values("o_orderkey")
    wi = sel["w"].to_numpy(dtype=np.float64)
    pi = np.minimum(1.0, n * wi / W)
    ht = 0.0
    for v in (1.0 / pi):  # ascending o_orderkey, the twin's agg order
        ht += v
    return pd.DataFrame({
        "n_selected": pd.array([len(sel)], dtype="int64"),
        "ht_count_estimate": pd.array([round_half_away(ht, 4)], dtype="float64"),
        "true_count": pd.array([n_all], dtype="int64"),
    })

