"""Catalog wave 40: robust location estimation — the Hodges-Lehmann
pseudomedian of n_tok (median of all Walsh averages (x_i + x_j)/2,
i ≤ j), computed EXACTLY from the bounded value grid via integer
self-convolution — 1.25 billion implicit pairs counted, never
materialized.

Same driver contract as :mod:`.queries`; the emission is the doubled
Walsh sum (an exact integer), with n, the pair total and the median
rank alongside."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


def _hl_sql() -> str:
    from jesse_ray.pipelines.queries import SEQ_SQL

    return f"""
WITH g AS MATERIALIZED (
  SELECT CAST(n_tok AS BIGINT) AS v, CAST(count(*) AS BIGINT) AS c
  FROM {SEQ_SQL} WHERE n_tok IS NOT NULL GROUP BY 1
),
n AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM g),
conv AS (
  SELECT a.v + b.v AS s, CAST(sum(a.c * b.c) AS BIGINT) AS ordered
  FROM g a, g b GROUP BY 1
),
diag AS (SELECT 2 * v AS s, c FROM g),
u AS (
  SELECT conv.s, (conv.ordered + coalesce(diag.c, 0)) // 2 AS cnt
  FROM conv LEFT JOIN diag USING (s)
),
t AS (SELECT (SELECT n FROM n) * ((SELECT n FROM n) + 1) // 2 AS T),
k AS (SELECT ((SELECT T FROM t) + 1) // 2 AS k),
cum AS (
  SELECT s, sum(cnt) OVER (ORDER BY s ROWS UNBOUNDED PRECEDING) AS cc
  FROM u
)
SELECT (SELECT n FROM n) AS n,
       (SELECT T FROM t) AS total_pairs,
       (SELECT k FROM k) AS median_rank,
       CAST((SELECT min(s) FROM cum WHERE cc >= (SELECT k FROM k)) AS BIGINT) AS hl_sum_x2
"""


@entry("seq_hodges_lehmann", sql=_hl_sql())
def q_seq_hodges_lehmann(sf_dir: str) -> pd.DataFrame:
    """One (value, count) grid combiner (bounded domain — the enforced
    quantile-grid contract), then the Walsh-sum distribution as ONE
    integer np.convolve of the count vector (domain², ~4M cells) and a
    cumulative walk to the k = ceil(T/2) rank.  i ≤ j pairs: unordered
    count = (ordered + diagonal) / 2, all exact int64."""
    from ray.data.aggregate import Sum as _Sum

    from jesse_ray.pipelines.queries import _seq_path
    from jesse_ray.sources import read_sequences

    ds = read_sequences(_seq_path(sf_dir), columns=["n_tok"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["n_tok"]))
        g = (t.select(["n_tok"]).group_by(["n_tok"]).aggregate([([], "count_all")]))
        return g.rename_columns(["n_tok", "pn"])

    grid = _collect(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("n_tok").aggregate(_Sum("pn", alias_name="n"))
    ).to_pandas().sort_values("n_tok").reset_index(drop=True)
    vals = grid["n_tok"].to_numpy(np.int64)
    cnt = grid["n"].to_numpy(np.int64)
    lo, hi = int(vals.min()), int(vals.max())
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[vals - lo] = cnt
    n = int(dense.sum())
    # ordered-pair sum distribution: integer self-convolution
    conv = np.convolve(dense, dense)  # index s-2lo holds ordered count of sum s
    # diagonal (i == j) contributes sum 2v with count c(v)
    diag = np.zeros(len(conv), dtype=np.int64)
    diag[2 * (vals - lo)] = cnt
    unordered = (conv + diag) // 2  # i <= j
    T = n * (n + 1) // 2
    k = (T + 1) // 2
    cum = np.cumsum(unordered)
    idx = int(np.searchsorted(cum, k, side="left"))
    hl_sum = idx + 2 * lo
    return pd.DataFrame({
        "n": pd.array([n], dtype="int64"),
        "total_pairs": pd.array([T], dtype="int64"),
        "median_rank": pd.array([k], dtype="int64"),
        "hl_sum_x2": pd.array([hl_sum], dtype="int64"),
    })

