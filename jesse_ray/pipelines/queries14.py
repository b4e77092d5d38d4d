"""Catalog wave 14: audience-overlap, acquisition-trend and
distribution-shape audits — event-type co-occurrence over user-days
(bitmask-exact Jaccard), the new-customer share trend, and the
bimodality coefficient of sequence lengths per source.

Same driver contract as :mod:`.queries`: bounded grids, exact integers
where compared, shuffles only to co-locate an entity."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, entry
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.rounding import round_half_away


_DAY_US = 86400000000


# ---------------------------------------------------------------------------
# events_type_cooc — audience overlap: Jaccard between event types over
# (user, day) entities, computed EXACTLY from a 2^k bitmask histogram.


SQL_EVENTS_TYPE_COOC = f"""
WITH ut AS (
  SELECT DISTINCT user_id, epoch_us(ts) // {_DAY_US} AS day, event_type FROM events
),
p AS (
  SELECT a.event_type AS ta, b.event_type AS tb, CAST(count(*) AS BIGINT) AS nb
  FROM ut a JOIN ut b ON a.user_id = b.user_id AND a.day = b.day
                     AND a.event_type < b.event_type
  GROUP BY 1, 2
),
s AS (SELECT event_type, CAST(count(*) AS BIGINT) AS nu FROM ut GROUP BY 1)
SELECT ta, tb, nb AS n_both,
       round(nb * 1.0 / (sa.nu + sb.nu - nb), 5) AS jaccard
FROM p JOIN s sa ON sa.event_type = p.ta JOIN s sb ON sb.event_type = p.tb
ORDER BY 1, 2
"""


@entry("events_type_cooc", sql=SQL_EVENTS_TYPE_COOC)
def q_events_type_cooc(sf_dir: str) -> pd.DataFrame:
    """For each type pair: entities (user-days) seeing both, and the
    Jaccard overlap of their audiences.  Scale shape: distinct
    (user, day, type) combiner → ONE (user, day) hash shuffle → per
    part, each entity folds to a k-bit TYPE BITMASK and the part emits
    a ≤ 2^k mask histogram — the driver derives every pairwise
    intersection and union from ≤ 2^k integers, no pair shuffle at
    all (k = #types is dimension-bounded)."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"])
    types = sorted(
        _collect(ds.map_batches(
            lambda b: b.select(["event_type"]).group_by("event_type").aggregate([]),
            batch_format="pyarrow", zero_copy_batch=True))
        .column("event_type").to_pylist())
    tix = {t: i for i, t in enumerate(types)}

    def partial(b: pa.Table) -> pd.DataFrame:
        t = pa.table({"user_id": b["user_id"],
                      "day": pc.divide(pc.cast(b["ts"], pa.int64()), _DAY_US),
                      "event_type": b["event_type"]})
        return t.group_by(["user_id", "day", "event_type"]).aggregate([]).to_pandas()

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day", "event_type"])
        bits = g["event_type"].map(tix).to_numpy(dtype=np.int64)
        ent = (g["user_id"].to_numpy(dtype=np.int64) << np.int64(20)) \
            + g["day"].to_numpy(dtype=np.int64)  # day < 2^20 epoch-days
        m = np.left_shift(np.int64(1), bits)
        order = np.argsort(ent, kind="stable")
        e2, m2 = ent[order], m[order]
        starts = np.flatnonzero(np.concatenate([[True], e2[1:] != e2[:-1]])) \
            if len(e2) else np.empty(0, dtype=np.int64)
        # vectorized per-entity OR-fold (no per-entity Python)
        folded = np.bitwise_or.reduceat(m2, starts) if len(starts) else m2[:0]
        mv, mc = np.unique(folded, return_counts=True)
        return pd.DataFrame({"mask": mv.astype("int64"), "n": mc.astype("int64")})

    rows = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    hist = _collect(map_key_buckets(rows, ["user_id", "day"], per_part)) \
        .to_pandas().groupby("mask", as_index=False)["n"].sum()
    masks = hist["mask"].to_numpy(dtype=np.int64)
    cnts = hist["n"].to_numpy(dtype=np.int64)
    names = sorted(tix)
    out = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            bi, bj = 1 << tix[names[i]], 1 << tix[names[j]]
            both = int(cnts[(masks & bi > 0) & (masks & bj > 0)].sum())
            ni = int(cnts[masks & bi > 0].sum())
            nj = int(cnts[masks & bj > 0].sum())
            out.append((names[i], names[j], both,
                        round_half_away(both / (ni + nj - both), 5)))
    return pd.DataFrame(out, columns=["ta", "tb", "n_both", "jaccard"])


# ---------------------------------------------------------------------------
# orders_newcust_trend — acquisition health: is the share of FIRST-TIME
# customers per month rising or falling?


SQL_ORDERS_NEWCUST_TREND = """
WITH om AS (
  SELECT o_custkey, year(o_orderdate) * 12 + month(o_orderdate) AS mo FROM orders
),
f AS (SELECT o_custkey, min(mo) AS fm FROM om GROUP BY 1),
m AS (SELECT mo, CAST(count(DISTINCT o_custkey) AS BIGINT) AS nc FROM om GROUP BY 1),
nw AS (SELECT fm AS mo, CAST(count(*) AS BIGINT) AS nn FROM f GROUP BY 1)
SELECT CAST(count(*) AS BIGINT) AS n_months,
       round(corr(m.mo, coalesce(nw.nn, 0) * 1.0 / m.nc), 5) AS trend_corr
FROM m LEFT JOIN nw USING (mo)
"""


@entry("orders_newcust_trend", sql=SQL_ORDERS_NEWCUST_TREND)
def q_orders_newcust_trend(sf_dir: str) -> pd.DataFrame:
    """Monthly new-customer share (first-ever-order customers / active
    customers) correlated against the month index — the acquisition
    drift scalar.  Scale shape: a (customer → first month) combiner +
    a (month → distinct customers) combiner (both entity-grid
    bounded); the ≤ #months correlation is driver math."""
    ds = read_table(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"])

    def partial(b: pa.Table) -> pd.DataFrame:
        mo = pd.to_datetime(
            b["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False), unit="us")
        return pd.DataFrame({"cust": b["o_custkey"].to_numpy(zero_copy_only=False),
                             "mo": mo.year * 12 + mo.month})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["cust", "mo"])
        first = g.groupby("cust", as_index=False)["mo"].min()
        nw = first.groupby("mo", as_index=False).size().rename(columns={"size": "nn"})
        act = g.groupby("mo", as_index=False)["cust"].nunique().rename(columns={"cust": "nc"})
        return act.merge(nw, on="mo", how="left").fillna({"nn": 0}).astype(
            {"mo": "int64", "nc": "int64", "nn": "int64"})

    rows = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    m = _collect(map_key_buckets(rows, ["cust"], per_part)) \
        .to_pandas().groupby("mo", as_index=False).sum().sort_values("mo")
    x = m["mo"].to_numpy(dtype=np.float64)
    y = m["nn"].to_numpy(dtype=np.float64) / m["nc"].to_numpy(dtype=np.float64)
    r = float(np.corrcoef(x, y)[0, 1])
    return pd.DataFrame({"n_months": pd.array([len(m)], dtype="int64"),
                         "trend_corr": [round_half_away(r, 5)]})


# ---------------------------------------------------------------------------
# seq_ntok_bimodality — Sarle's bimodality coefficient of n_tok per
# source: (g₁² + 1) / (g₂ + 3(n−1)²/((n−2)(n−3))); > 5/9 suggests a
# bimodal/mixture length distribution (two templates mixed together).


SQL_SEQ_NTOK_BIMODALITY = f"""
SELECT source, CAST(count(*) AS BIGINT) AS n,
       round((skewness(n_tok) * skewness(n_tok) + 1)
             / (kurtosis(n_tok)
                + 3.0 * (count(*) - 1) * (count(*) - 1)
                  / ((count(*) - 2) * (count(*) - 3))), 5) AS bimodality
FROM {SEQ_SQL} WHERE n_tok IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


@entry("seq_ntok_bimodality", sql=SQL_SEQ_NTOK_BIMODALITY)
def q_seq_ntok_bimodality(sf_dir: str) -> pd.DataFrame:
    """Distribution-shape screen for mixture corpora, from the same
    one-pass (n, Σx..Σx⁴) power sums as events_skewkurt (so both
    engines share the numerical path).  Scale shape: per-batch Arrow
    group_by partials, driver k-statistics."""
    ds = read_sequences(_seq_path(sf_dir), columns=["n_tok", "source"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["n_tok"]))
        x = t["n_tok"].cast(pa.float64())
        x2 = pc.multiply(x, x)
        tbl = pa.table({"source": t["source"], "x": x, "x2": x2,
                        "x3": pc.multiply(x2, x), "x4": pc.multiply(x2, x2)})
        g = tbl.group_by("source").aggregate(
            [("x", "sum"), ("x2", "sum"), ("x3", "sum"), ("x4", "sum"), ([], "count_all")])
        return g.rename_columns(["source", "s1", "s2", "s3", "s4", "pn"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("source").aggregate(
            [("s1", "sum"), ("s2", "sum"), ("s3", "sum"), ("s4", "sum"), ("pn", "sum")]) \
        .sort_by("source")
    n = m["pn_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
    s1 = m["s1_sum"].to_numpy(zero_copy_only=False)
    s2 = m["s2_sum"].to_numpy(zero_copy_only=False)
    s3 = m["s3_sum"].to_numpy(zero_copy_only=False)
    s4 = m["s4_sum"].to_numpy(zero_copy_only=False)
    mu = s1 / n
    m2 = s2 / n - mu ** 2
    m3 = s3 / n - 3 * mu * s2 / n + 2 * mu ** 3
    m4 = s4 / n - 4 * mu * s3 / n + 6 * mu ** 2 * s2 / n - 3 * mu ** 4
    with np.errstate(invalid="ignore", divide="ignore"):
        g1 = m3 / np.maximum(m2, 0) ** 1.5
        g2r = m4 / np.maximum(m2, 0) ** 2 - 3.0
        skew = g1 * np.sqrt(n * (n - 1)) / (n - 2)
        kurt = ((n + 1) * g2r + 6) * (n - 1) / ((n - 2) * (n - 3))
        bc = (skew * skew + 1.0) / (kurt + 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3)))
    return pd.DataFrame({"source": m["source"].to_pylist(),
                         "n": pd.array(n.astype(np.int64), dtype="int64"),
                         "bimodality": round_half_away(bc, 5)})

