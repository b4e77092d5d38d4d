"""Catalog wave 17: supply-chain and revenue-concentration audits —
the suppliers-per-part histogram (single-source risk screen) and the
revenue Lorenz decile profile across customers.

Same driver contract as :mod:`.queries`."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.pipelines.queries import _collect, entry
from jesse_ray.sources import read_table
from jesse_ray.rounding import round_half_away


# ---------------------------------------------------------------------------
# part_supplier_hist — supply-chain redundancy: how many distinct
# suppliers does each part ship from?


SQL_PART_SUPPLIER_HIST = """
WITH ps AS (
  SELECT l_partkey, CAST(count(DISTINCT l_suppkey) AS BIGINT) AS ns
  FROM lineitem GROUP BY 1
)
SELECT ns AS n_suppliers, CAST(count(*) AS BIGINT) AS n_parts
FROM ps GROUP BY 1 ORDER BY 1
"""


@entry("part_supplier_hist", sql=SQL_PART_SUPPLIER_HIST)
def q_part_supplier_hist(sf_dir: str) -> pd.DataFrame:
    """(distinct suppliers per part → #parts) histogram — the
    single-source-risk screen (a spike at 1 means fragile supply).
    Scale shape: per-batch distinct (part, supplier) combiner, one
    part-hash shuffle so a part's pairs co-locate, per-part distinct
    counts → a tiny histogram merge."""
    ds = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by(["l_partkey", "l_suppkey"]).aggregate([])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        ns = g.drop_duplicates(["l_partkey", "l_suppkey"]) \
            .groupby("l_partkey").size().to_numpy()
        v, c = np.unique(ns, return_counts=True)
        return pd.DataFrame({"n_suppliers": v.astype("int64"),
                             "n_parts": c.astype("int64")})

    rows = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    m = _collect(map_key_buckets(rows, ["l_partkey"], per_part)) \
        .to_pandas().groupby("n_suppliers", as_index=False)["n_parts"].sum()
    return (m.astype({"n_suppliers": "int64", "n_parts": "int64"})
            .sort_values("n_suppliers").reset_index(drop=True))


# ---------------------------------------------------------------------------
# orders_revenue_lorenz — revenue concentration: decile shares of total
# revenue across customers (the Lorenz-curve table behind the Gini).


SQL_ORDERS_REVENUE_LORENZ = """
WITH c AS (SELECT o_custkey, sum(o_totalprice) AS rev FROM orders GROUP BY 1),
r AS (SELECT o_custkey, rev, ntile(10) OVER (ORDER BY rev, o_custkey) AS dec FROM c)
SELECT dec, CAST(count(*) AS BIGINT) AS n,
       round(sum(rev) / (SELECT sum(rev) FROM c), 5) AS rev_share
FROM r GROUP BY 1 ORDER BY 1
"""


@entry("orders_revenue_lorenz", sql=SQL_ORDERS_REVENUE_LORENZ)
def q_orders_revenue_lorenz(sf_dir: str) -> pd.DataFrame:
    """Customers NTILE(10)-banded by total revenue (ties broken by
    custkey, DuckDB's first-(n%k)-tiles-bigger rule), each decile's
    share of total revenue.  Scale shape: a per-customer revenue
    combiner (the entity-grid assumption shared with RFM /
    sessionization); the decile assignment sorts the bounded customer
    grid on the driver."""
    ds = read_table(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("o_custkey").aggregate([("o_totalprice", "sum")])
        return g.rename_columns(["o_custkey", "rev"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("o_custkey").aggregate([("rev", "sum")]).to_pandas()
    m = m.sort_values(["rev_sum", "o_custkey"]).reset_index(drop=True)
    n = len(m)
    k = 10
    base, extra = divmod(n, k)
    sizes = np.full(k, base, dtype=np.int64)
    sizes[:extra] += 1  # DuckDB NTILE: first n%k tiles get the extra row
    dec = np.repeat(np.arange(1, k + 1, dtype=np.int64), sizes)
    m["dec"] = dec
    tot = m["rev_sum"].sum()
    g = m.groupby("dec", as_index=False).agg(n=("rev_sum", "count"),
                                             s=("rev_sum", "sum"))
    return pd.DataFrame({"dec": g["dec"].astype("int64").to_numpy(),
                         "n": g["n"].astype("int64").to_numpy(),
                         "rev_share": round_half_away(g["s"].to_numpy() / tot, 5)})

