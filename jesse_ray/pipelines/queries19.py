"""Catalog wave 19: heavy-tail, token-stream and factorial audits —
the Clauset power-law exponent of per-user activity, the adjacent-
token repeat (stutter) rate of the tokenized corpus, and a 2×2
factorial mean grid (discount × tax on price).

Same driver contract as :mod:`.queries`."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, entry
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.rounding import round_half_away


# ---------------------------------------------------------------------------
# events_powerlaw_activity — discrete power-law MLE (Clauset et al.,
# xmin = 1): α̂ = 1 + n / Σ ln(x) over per-user activity counts.


SQL_EVENTS_POWERLAW_ACTIVITY = """
WITH u AS (SELECT user_id, CAST(count(*) AS BIGINT) AS x FROM events GROUP BY 1)
SELECT CAST(count(*) AS BIGINT) AS n,
       round(1.0 + count(*) / sum(ln(x)), 5) AS alpha
FROM u WHERE x >= 1
"""


@entry("events_powerlaw_activity", sql=SQL_EVENTS_POWERLAW_ACTIVITY)
def q_events_powerlaw_activity(sf_dir: str) -> pd.DataFrame:
    """Heavy-tail exponent of the user-activity distribution — the
    scalar behind 'a few users generate most events'.  Scale shape: a
    per-user count combiner (entity grid), one (n, Σln x) reduction,
    a scalar on the driver."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("user_id").aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("user_id").aggregate([("n", "sum")])
    x = m["n_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
    x = x[x >= 1]
    alpha = 1.0 + len(x) / np.log(x).sum()
    return pd.DataFrame({"n": pd.array([len(x)], dtype="int64"),
                         "alpha": [round_half_away(float(alpha), 5)]})


# ---------------------------------------------------------------------------
# seq_stutter_rate — adjacent-token repeat rate: the decoder/template
# stutter artifact screen over the pre-tokenized corpus.


SQL_SEQ_STUTTER_RATE = f"""
WITH t AS (SELECT row_number() OVER () AS rid, tokens FROM {SEQ_SQL}),
e AS (
  SELECT rid, unnest(tokens) AS tok, generate_subscripts(tokens, 1) AS i FROM t
),
w AS (SELECT tok, lag(tok) OVER (PARTITION BY rid ORDER BY i) AS prev FROM e)
SELECT CAST(count(*) AS BIGINT) AS n_pairs,
       CAST(count(*) FILTER (WHERE prev = tok) AS BIGINT) AS n_rep
FROM w WHERE prev IS NOT NULL
"""


@entry("seq_stutter_rate", sql=SQL_SEQ_STUTTER_RATE)
def q_seq_stutter_rate(sf_dir: str) -> pd.DataFrame:
    """Share of adjacent token pairs (within a sequence) that repeat
    the same token.  Scale shape: one flatten pass per batch with a
    shifted-equality mask (row boundaries excluded vectorially); two
    integers to the driver."""
    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])

    def partial(b: pa.Table) -> pa.Table:
        col = b["tokens"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        counts = pc.fill_null(pc.list_value_length(col), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        eq = flat[1:] == flat[:-1]
        # pair i = (flat[i], flat[i+1]); it crosses a row boundary when
        # i+1 starts a new row — exclude those positions
        boundary = np.zeros(max(len(flat) - 1, 0), dtype=bool)
        if len(counts) > 1:
            starts = np.cumsum(counts)[:-1]
            # guard empty rows: a 0-length row contributes no boundary
            starts = starts[(starts > 0) & (starts < len(flat))]
            boundary[starts - 1] = True
        pairs = int((~boundary).sum())
        reps = int((eq & ~boundary).sum())
        return pa.table({"p": pa.array([pairs], type=pa.int64()),
                         "r": pa.array([reps], type=pa.int64())})

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True))
    p = int(pc.sum(m["p"]).as_py())
    r = int(pc.sum(m["r"]).as_py())
    # exact integer numerator/denominator ONLY — a rounded rate column
    # would reintroduce the python-half-even vs DuckDB-half-away split
    # on exact dyadic ties (the hazard dedup.py documents; ADVICE r3)
    return pd.DataFrame({"n_pairs": pd.array([p], dtype="int64"),
                         "n_rep": pd.array([r], dtype="int64")})


# ---------------------------------------------------------------------------
# lineitem_factorial_means — 2×2 factorial mean grid: discount × tax
# on extended price (the interaction screen behind A/B×A/B designs).


SQL_LINEITEM_FACTORIAL_MEANS = """
WITH x AS (
  SELECT CASE WHEN l_discount >= 0.05 THEN 1 ELSE 0 END AS hd,
         CASE WHEN l_tax >= 0.04 THEN 1 ELSE 0 END AS ht,
         l_extendedprice AS p
  FROM lineitem
)
SELECT CAST(hd AS BIGINT) AS hd, CAST(ht AS BIGINT) AS ht,
       CAST(count(*) AS BIGINT) AS n, round(avg(p), 4) AS mean_price
FROM x GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("lineitem_factorial_means", sql=SQL_LINEITEM_FACTORIAL_MEANS)
def q_lineitem_factorial_means(sf_dir: str) -> pd.DataFrame:
    """Mean price in the four (high-discount × high-tax) cells.  Scale
    shape: a 4-cell (n, Σ) combiner."""
    ds = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_discount", "l_tax", "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "hd": pc.cast(pc.greater_equal(b["l_discount"], 0.05), pa.int64()),
            "ht": pc.cast(pc.greater_equal(b["l_tax"], 0.04), pa.int64()),
            "p": b["l_extendedprice"],
        })
        g = t.group_by(["hd", "ht"]).aggregate([("p", "sum"), ([], "count_all")])
        return g.rename_columns(["hd", "ht", "s", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by(["hd", "ht"]).aggregate([("s", "sum"), ("n", "sum")]).to_pandas() \
        .sort_values(["hd", "ht"]).reset_index(drop=True)
    return pd.DataFrame({
        "hd": m["hd"].astype("int64").to_numpy(),
        "ht": m["ht"].astype("int64").to_numpy(),
        "n": m["n_sum"].astype("int64").to_numpy(),
        "mean_price": round_half_away(m["s_sum"] / m["n_sum"], 4),
    })

