"""Catalog wave 41: join-skew diagnostics — the "why is my join slow"
planner probe: for the lineitem⋈orders equi-join key, the heaviest
keys by output-row contribution (left count × right count) and the
concentration of total join output in the top-10 — the signal that
decides salting / broadcast / skew-cap strategy before running the
join itself.

Same driver contract as :mod:`.queries`; all counts exact integers
derived from per-side key grids (the join output is SIZED, never
produced)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.sources import read_table

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


SKEW_TOPK = 10


SQL_ORDERS_JOIN_SKEW_PROBE = f"""
WITH l AS (SELECT l_orderkey AS k, CAST(count(*) AS BIGINT) AS cl
           FROM lineitem GROUP BY 1),
r AS (SELECT o_orderkey AS k, CAST(count(*) AS BIGINT) AS cr
      FROM orders GROUP BY 1),
m AS (SELECT l.k, l.cl, r.cr, l.cl * r.cr AS contrib
      FROM l JOIN r USING (k)),
top AS (
  SELECT k AS key, cl AS left_rows, cr AS right_rows, contrib
  FROM m ORDER BY contrib DESC, k LIMIT {SKEW_TOPK}
),
tot AS (
  SELECT CAST(-1 AS BIGINT) AS key,
         CAST(sum(cl) AS BIGINT) AS left_rows,
         CAST(sum(cr) AS BIGINT) AS right_rows,
         CAST(sum(contrib) AS BIGINT) AS contrib
  FROM m
)
SELECT * FROM top UNION ALL SELECT * FROM tot
"""


@entry("orders_join_skew_probe", sql=SQL_ORDERS_JOIN_SKEW_PROBE)
def q_orders_join_skew_probe(sf_dir: str) -> pd.DataFrame:
    """Two per-side key-count grids (combiner + merge, key-bounded), a
    driver merge of the two grids (entity-bounded), contribution =
    cl × cr, top-10 by (contribution desc, key asc) plus one TOTAL row
    (key = -1) carrying the full join size — the exact number the
    optimizer needs, for the cost of two narrow scans."""
    def side_counts(path: str, col: str) -> pd.DataFrame:
        ds = read_table(path, columns=[col])

        def partial(b: pa.Table) -> pa.Table:
            return (b.group_by(col).aggregate([([], "count_all")])
                    .rename_columns(["k", "pn"]))

        def merge(g: pd.DataFrame) -> pd.DataFrame:
            return (g.groupby("k", as_index=False)["pn"].sum()
                    .rename(columns={"pn": "c"}))

        # coarse key-hash merge — Ray's native sort groupby on a 600k-key
        # stream measured ~20 s at sf0.1; the part pattern is ~1 s
        partials = ds.map_batches(partial, batch_format="pyarrow")
        return _collect(map_key_buckets(partials, ["k"], merge)).to_pandas()

    left = side_counts(f"{sf_dir}/lineitem.parquet", "l_orderkey")
    right = side_counts(f"{sf_dir}/orders.parquet", "o_orderkey")
    m = left.merge(right, on="k", suffixes=("_l", "_r"))
    m["contrib"] = m["c_l"].astype(np.int64) * m["c_r"].astype(np.int64)
    total = int(m["contrib"].sum())
    top = (m.sort_values(["contrib", "k"], ascending=[False, True])
           .head(SKEW_TOPK))
    out = pd.DataFrame({
        "key": top["k"].astype("int64"),
        "left_rows": top["c_l"].astype("int64"),
        "right_rows": top["c_r"].astype("int64"),
        "contrib": top["contrib"].astype("int64"),
    })
    out = pd.concat([out, pd.DataFrame(
        {"key": [-1], "left_rows": [int(m["c_l"].sum())],
         "right_rows": [int(m["c_r"].sum())], "contrib": [total]})],
        ignore_index=True)
    return out.reset_index(drop=True).astype({"key": "int64"})

