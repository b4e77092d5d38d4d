"""Catalog wave 33: feature-engineering and data-valuation operators —
weight-of-evidence encoding over quantity deciles (the credit-scoring
/ feature-binning primitive) and leave-one-source-out vocabulary
valuation (each source's exclusive contribution to corpus coverage).

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
# lineitem_woe_quantity — weight of evidence of l_quantity bands for
# the outcome returnflag = 'R': WOE_b = ln((pos_b/POS)/(neg_b/NEG)).
# Integer-truth emission (pos_b, neg_b) plus the WOE float evaluated
# in the twin's exact op order.

WOE_BANDS = [(1, 10), (11, 20), (21, 30), (31, 40), (41, 50)]


def _woe_sql() -> str:
    cases = " ".join(
        f"WHEN qi BETWEEN {lo} AND {hi} THEN {i}"
        for i, (lo, hi) in enumerate(WOE_BANDS))
    los = ", ".join(str(lo) for lo, _ in WOE_BANDS)
    his = ", ".join(str(hi) for _, hi in WOE_BANDS)
    return f"""
WITH b AS (
  SELECT CASE {cases} ELSE {len(WOE_BANDS) - 1} END AS band,
         CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END AS pos
  FROM (SELECT CAST(round(l_quantity) AS BIGINT) AS qi, l_returnflag FROM lineitem)
),
g AS (
  SELECT band, sum(pos)::BIGINT AS n_pos, sum(1 - pos)::BIGINT AS n_neg
  FROM b GROUP BY 1
),
tot AS (SELECT CAST(sum(n_pos) AS DOUBLE) AS P, CAST(sum(n_neg) AS DOUBLE) AS N FROM g)
SELECT ([{los}])[band + 1]::BIGINT AS band_lo,
       ([{his}])[band + 1]::BIGINT AS band_hi,
       n_pos, n_neg,
       round(ln((CAST(n_pos AS DOUBLE) / (SELECT P FROM tot))
                / (CAST(n_neg AS DOUBLE) / (SELECT N FROM tot))), 6) AS woe
FROM g ORDER BY band
"""


@entry("lineitem_woe_quantity", sql=_woe_sql())
def q_lineitem_woe_quantity(sf_dir: str) -> pd.DataFrame:
    """One filtered scan with a vectorized band digitize and two
    conditional int sums per band through combiner partials; the WOE
    logs are driver-side scalars over exact integers."""
    from jesse_ray.pipelines.relational import grouped_agg

    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_quantity", "l_returnflag"])

    def prep(b: pa.Table) -> pa.Table:
        qi = pc.cast(pc.round(b["l_quantity"]), pa.int64()).to_numpy(zero_copy_only=False)
        band = np.digitize(qi, [lo for lo, _ in WOE_BANDS], right=False) - 1
        band = np.clip(band, 0, len(WOE_BANDS) - 1)
        pos = pc.equal(b["l_returnflag"], "R").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"band": pa.array(band.astype(np.int64)),
                         "pos": pa.array(pos),
                         "neg": pa.array(1 - pos)})

    g = _collect(grouped_agg(li.map_batches(prep, batch_format="pyarrow",
                                            zero_copy_batch=True),
                             ["band"], sums=["pos", "neg"], count_alias=None)
                 ).to_pandas().sort_values("band").reset_index(drop=True)
    POS = float(g["sum_pos"].sum())
    NEG = float(g["sum_neg"].sum())
    pos = g["sum_pos"].to_numpy(np.float64)
    neg = g["sum_neg"].to_numpy(np.float64)
    woe = np.log((pos / POS) / (neg / NEG))
    return pd.DataFrame({
        "band_lo": pd.array([WOE_BANDS[int(b)][0] for b in g["band"]], dtype="int64"),
        "band_hi": pd.array([WOE_BANDS[int(b)][1] for b in g["band"]], dtype="int64"),
        "n_pos": g["sum_pos"].astype("int64"),
        "n_neg": g["sum_neg"].astype("int64"),
        "woe": round_half_away(woe, 6),
    })


# ---------------------------------------------------------------------------
# seq_loo_vocab_value — leave-one-source-out vocabulary valuation: the
# tokens each source contributes EXCLUSIVELY (removing the source would
# shrink the corpus vocabulary by exactly that many types) — the
# cheapest exact data-valuation signal for mixing decisions.

def _loo_sql() -> str:
    from jesse_ray.pipelines.queries import SEQ_SQL

    return f"""
WITH p AS MATERIALIZED (
  SELECT DISTINCT CAST(t AS BIGINT) AS token, coalesce(source, '\\N') AS source
  FROM (SELECT unnest(tokens) AS t, source FROM {SEQ_SQL} WHERE tokens IS NOT NULL)
),
g AS (SELECT token, CAST(count(*) AS BIGINT) AS ns, max(source) AS owner FROM p GROUP BY 1)
SELECT source, CAST(count(*) AS BIGINT) AS exclusive_types
FROM (SELECT CASE WHEN ns = 1 THEN owner ELSE '*shared*' END AS source FROM g)
GROUP BY 1 ORDER BY 1
"""


@entry("seq_loo_vocab_value", sql=_loo_sql())
def q_seq_loo_vocab_value(sf_dir: str) -> pd.DataFrame:
    """Per-batch distinct (token, source) combiner, one grouped merge,
    then per-token source-count — tokens with exactly one source
    attribute their value to it.  Emits per-source exclusive type
    counts plus the shared-type remainder under source '*shared*'."""
    from ray.data.aggregate import Sum as _Sum

    from jesse_ray.pipelines.queries import _seq_path
    from jesse_ray.sources import read_sequences

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens", "source"])

    def pairs(b: pa.Table) -> pa.Table:
        toks = b["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        src = b["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        t = pa.table({"token": pc.cast(flat, pa.int64()),
                      "source": pc.fill_null(src, "\\N").take(parent)})
        return (t.group_by(["token", "source"]).aggregate([])
                .rename_columns(["token", "source"]))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["token", "source"])
        agg = g.groupby("token").agg(ns=("source", "size"), owner=("source", "max"))
        src = np.where(agg["ns"].to_numpy() == 1,
                       agg["owner"].to_numpy(dtype=object), "*shared*")
        out = pd.DataFrame({"source": src})
        return (out.groupby("source", as_index=False).size()
                .rename(columns={"size": "pn"}))

    rows = ds.map_batches(pairs, batch_format="pyarrow")
    m = (_collect(map_key_buckets(rows, ["token"], per_part))
         .to_pandas().groupby("source", as_index=False)["pn"].sum()
         .rename(columns={"pn": "exclusive_types"}))
    m["exclusive_types"] = m["exclusive_types"].astype("int64")
    return m.sort_values("source").reset_index(drop=True)

