"""Catalog wave 18: compressibility curation signal — per-source zlib
compression-ratio profile (`functions/text.py add_compression_ratio`).
The per-doc DEFLATE kernel has no SQL twin, so the oracle follows the
sketch/sidecar convention: per-doc ratios land in a parquet sidecar and
the twin re-derives the distributed per-source aggregation from it —
the kernel itself is pinned by unit tests on known-compressibility
inputs."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from jesse_ray.pipelines.queries import _collect, _sig_parquet_path, entry
from jesse_ray.sources import read_table
from jesse_ray.rounding import round_half_away


SQL_DOC_COMPRESSIBILITY = """
WITH s AS (
  SELECT source, zratio
  FROM read_parquet('/tmp/jesse_ray_data/zratio_sigs_sf0.01.parquet')
)
SELECT source, CAST(count(*) AS BIGINT) AS n,
       round(avg(zratio), 5) AS mean_zratio,
       round(avg(CASE WHEN zratio < 0.3 THEN 1.0 ELSE 0.0 END), 5) AS low_share
FROM s GROUP BY 1 ORDER BY 1
"""


@entry("doc_compressibility", sql=SQL_DOC_COMPRESSIBILITY)
def q_doc_compressibility(sf_dir: str) -> pd.DataFrame:
    """Per-source mean zlib ratio + share of docs under 0.3 (the
    boilerplate flag).  Scale shape: the ratio rides one map pass; the
    aggregate is a ≤ #sources (n, Σr, low-count) combiner."""
    from jesse_ray.functions.text import add_compression_ratio

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"])
    scored = add_compression_ratio(ds)
    side = _collect(scored.map_batches(
        lambda b: pa.table({"doc_id": b["doc_id"], "source": b["source"],
                            "zratio": b["zratio"]}),
        batch_format="pyarrow", zero_copy_batch=True)).sort_by("doc_id")
    pq.write_table(side, _sig_parquet_path(sf_dir, "zratio"))

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"source": b["source"], "r": b["zratio"],
                      "low": pc.cast(pc.less(b["zratio"], 0.3), pa.int64())})
        g = t.group_by("source").aggregate([("r", "sum"), ("low", "sum"), ([], "count_all")])
        return g.rename_columns(["source", "s", "lo", "n"])

    m = _collect(scored.map_batches(partial, batch_format="pyarrow")) \
        .group_by("source").aggregate([("s", "sum"), ("lo", "sum"), ("n", "sum")]) \
        .sort_by("source").to_pandas()
    return pd.DataFrame({
        "source": m["source"].to_numpy(),
        "n": m["n_sum"].astype("int64").to_numpy(),
        "mean_zratio": round_half_away(m["s_sum"] / m["n_sum"], 5),
        "low_share": round_half_away(m["lo_sum"] / m["n_sum"], 5),
    })

