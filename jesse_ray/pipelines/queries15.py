"""Catalog wave 15: ingestion-order and calendar-uniformity audits —
lag-1 autocorrelation of sequence length in DOC-ID ORDER (detects
generation/ingestion-order artifacts without any sort: a key-shift
equi-join pairs id k with id k+1), and a χ² goodness-of-fit test of
order volume against day-of-week uniformity.

Same driver contract as :mod:`.queries`."""

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
# seq_length_order_autocorr — are adjacent doc ids correlated in
# length?  (A generation artifact detector: shuffled corpora ≈ 0.)


SQL_SEQ_LENGTH_ORDER_AUTOCORR = f"""
WITH s AS (
  SELECT CAST(substr(doc_id, 5) AS BIGINT) AS k, n_tok FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND n_tok IS NOT NULL
  QUALIFY count(*) OVER (PARTITION BY CAST(substr(doc_id, 5) AS BIGINT)) = 1
)
SELECT CAST(count(*) AS BIGINT) AS n_pairs,
       round(corr(a.n_tok, b.n_tok), 5) AS acf1
FROM s a JOIN s b ON b.k = a.k + 1
"""


@entry("seq_length_order_autocorr", sql=SQL_SEQ_LENGTH_ORDER_AUTOCORR)
def q_seq_length_order_autocorr(sf_dir: str) -> pd.DataFrame:
    """corr(n_tok[k], n_tok[k+1]) over consecutive numeric doc ids —
    WITHOUT a global sort: rows with key k meet rows with key k+1
    through one hash equi-join on a shifted key (`relational.hash_join`),
    then a (n, Σx, Σy, Σxy, Σx², Σy²) combiner finishes Pearson.
    Duplicate ids are excluded first (one coarse key shuffle), nulls
    carry no identity."""
    from jesse_ray.pipelines.relational import hash_join

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "n_tok"])

    def keyed(b: pa.Table) -> pa.Table:
        b = b.filter(pc.and_(pc.is_valid(b["doc_id"]), pc.is_valid(b["n_tok"])))
        k = pc.cast(pc.utf8_slice_codeunits(b["doc_id"], 4, 99), pa.int64())
        return pa.table({"k": k, "n_tok": b["n_tok"].cast(pa.int64())})

    def uniq_part(g: pd.DataFrame) -> pd.DataFrame:
        return g[~g["k"].duplicated(keep=False)]

    keys = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    base = map_key_buckets(keys, ["k"], uniq_part)
    left = base.map_batches(lambda b: pa.table({"k": b["k"], "x": b["n_tok"]}),
                            batch_format="pyarrow")
    right = base.map_batches(
        lambda b: pa.table({"k": pc.subtract(b["k"], 1), "y": b["n_tok"]}),
        batch_format="pyarrow")
    j = hash_join(left, right, on="k", how="inner")

    def moments(b: pa.Table) -> pa.Table:
        x = b["x"].to_numpy(zero_copy_only=False).astype(np.float64)
        y = b["y"].to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({"n": pa.array([len(x)], type=pa.int64()),
                         "sx": pa.array([x.sum()]), "sy": pa.array([y.sum()]),
                         "sxy": pa.array([(x * y).sum()]),
                         "sx2": pa.array([(x * x).sum()]),
                         "sy2": pa.array([(y * y).sum()])})

    m = _collect(j.map_batches(moments, batch_format="pyarrow")).to_pandas().sum()
    n = float(m["n"])
    cov = m["sxy"] - m["sx"] * m["sy"] / n
    vx = m["sx2"] - m["sx"] ** 2 / n
    vy = m["sy2"] - m["sy"] ** 2 / n
    return pd.DataFrame({"n_pairs": pd.array([int(n)], dtype="int64"),
                         "acf1": [round_half_away(float(cov / np.sqrt(vx * vy)), 5)]})


# ---------------------------------------------------------------------------
# orders_dow_uniformity — χ² goodness-of-fit of order volume against
# day-of-week uniformity (engine-independent dow = (epoch_day+4) % 7,
# Sunday = 0).


SQL_ORDERS_DOW_UNIFORMITY = f"""
WITH d AS (
  SELECT CAST((epoch_us(o_orderdate) // {_DAY_US} + 4) % 7 AS BIGINT) AS dw,
         CAST(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1
),
t AS (SELECT sum(n) AS tot, count(*) AS k FROM d)
SELECT CAST(k AS BIGINT) AS k,
       round(sum((n - tot * 1.0 / k) * (n - tot * 1.0 / k) / (tot * 1.0 / k)), 4) AS chi2
FROM d, t GROUP BY k
"""


@entry("orders_dow_uniformity", sql=SQL_ORDERS_DOW_UNIFORMITY)
def q_orders_dow_uniformity(sf_dir: str) -> pd.DataFrame:
    """Is ordering volume flat across the week?  χ² GOF against the
    uniform expectation n/7.  Scale shape: a 7-cell combiner; the χ²
    sum is driver-side on exact integers."""
    ds = read_table(f"{sf_dir}/orders.parquet", columns=["o_orderdate"])

    def partial(b: pa.Table) -> pa.Table:
        day = b["o_orderdate"].cast(pa.int64()).to_numpy(zero_copy_only=False) // _DAY_US
        dw, n = np.unique((day + 4) % 7, return_counts=True)
        return pa.table({"dw": pa.array(dw.astype(np.int64)),
                         "n": pa.array(n.astype(np.int64))})

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("dw").aggregate([("n", "sum")]).to_pandas()
    n = m["n_sum"].to_numpy(dtype=np.float64)
    k = len(n)
    e = n.sum() / k
    chi2 = float(((n - e) ** 2 / e).sum())
    return pd.DataFrame({"k": pd.array([k], dtype="int64"),
                         "chi2": [round_half_away(chi2, 4)]})

