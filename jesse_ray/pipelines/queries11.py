"""Catalog wave 11: corpus-structure audits — daily-volume burstiness
(Fano factor + Goh–Barabási B per event type), positional token
entropy over the sequence prefix, and token dispersion (collection
frequency vs document frequency — the Church–Gale burstiness signal).

Same driver contract as :mod:`.queries`: exact integer count grids,
driver math on the bounded grid, column names match the twin."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, entry
from jesse_ray.pipelines.queries6 import _ts_day
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.rounding import round_half_away


# ---------------------------------------------------------------------------
# events_burstiness — is daily volume Poisson-like or bursty?  Fano
# factor (var/mean; 1 = Poisson) and Goh–Barabási B = (σ−μ)/(σ+μ).


SQL_EVENTS_BURSTINESS = """
WITH d AS (
  SELECT event_type, epoch_us(ts) // 86400000000 AS day,
         CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
)
SELECT event_type, CAST(count(*) AS BIGINT) AS n_days,
       round(var_pop(c) / avg(c), 5) AS fano,
       round((sqrt(var_pop(c)) - avg(c)) / (sqrt(var_pop(c)) + avg(c)), 5) AS burstiness
FROM d GROUP BY 1 ORDER BY 1
"""


@entry("events_burstiness", sql=SQL_EVENTS_BURSTINESS)
def q_events_burstiness(sf_dir: str) -> pd.DataFrame:
    """Per-type daily-count dispersion: Fano = var_pop/mean and
    B = (σ−μ)/(σ+μ) ∈ (−1, 1) (B→−1 regular, 0 Poisson-ish, →1
    bursty).  Scale shape: a (type × day) combiner grid; scalars on
    the driver from exact integer counts."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"event_type": b["event_type"], "day": _ts_day(b["ts"])})
        g = t.group_by(["event_type", "day"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "day", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by(["event_type", "day"]).aggregate([("n", "sum")]).to_pandas()
    out_t, out_n, out_f, out_b = [], [], [], []
    for et, g in m.groupby("event_type", sort=True):
        c = g["n_sum"].to_numpy(dtype=np.float64)
        mu, var = c.mean(), c.var()
        sd = np.sqrt(var)
        out_t.append(et)
        out_n.append(len(c))
        out_f.append(round_half_away(float(var / mu), 5))
        out_b.append(round_half_away(float((sd - mu) / (sd + mu)), 5))
    return pd.DataFrame({"event_type": out_t,
                         "n_days": pd.array(out_n, dtype="int64"),
                         "fano": out_f, "burstiness": out_b})


# ---------------------------------------------------------------------------
# seq_position_entropy — token entropy by sequence position (first
# tokens are usually far more predictable than the bulk — the
# template-prefix smell test for generated corpora).

_POS_CAP = 8  # positions 0..7 individually, 8 = "rest"


SQL_SEQ_POSITION_ENTROPY = f"""
WITH e AS (
  SELECT unnest(tokens) AS tok,
         least(generate_subscripts(tokens, 1) - 1, {_POS_CAP}) AS pos
  FROM {SEQ_SQL}
),
g AS (SELECT pos, tok, count(*) AS c FROM e GROUP BY 1, 2),
t AS (SELECT pos, sum(c) AS tot FROM g GROUP BY 1)
SELECT CAST(g.pos AS BIGINT) AS pos,
       round(-sum((c * 1.0 / tot) * ln(c * 1.0 / tot)), 5) AS entropy
FROM g JOIN t ON t.pos = g.pos GROUP BY 1 ORDER BY 1
"""


@entry("seq_position_entropy", sql=SQL_SEQ_POSITION_ENTROPY)
def q_seq_position_entropy(sf_dir: str) -> pd.DataFrame:
    """Shannon entropy (nats) of the token distribution at each
    sequence position 0..7, with position ≥ 8 pooled.  Scale shape: a
    (position-bucket × token) count combiner (≤ 9 × vocab rows per
    block, the BPE-counting assumption); entropies on the driver from
    exact integer counts."""
    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])

    def partial(b: pa.Table) -> pa.Table:
        col = b["tokens"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.int64)
        counts = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        pos = (np.arange(len(flat), dtype=np.int64)
               - np.repeat(np.concatenate([[0], np.cumsum(counts)[:-1]]), counts))
        np.minimum(pos, _POS_CAP, out=pos)
        t = pa.table({"pos": pa.array(pos), "tok": pa.array(flat)})
        g = t.group_by(["pos", "tok"]).aggregate([([], "count_all")])
        return g.rename_columns(["pos", "tok", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by(["pos", "tok"]).aggregate([("n", "sum")]).to_pandas()
    out_p, out_e = [], []
    for p, g in m.groupby("pos", sort=True):
        c = g["n_sum"].to_numpy(dtype=np.float64)
        sh = c / c.sum()
        out_p.append(int(p))
        out_e.append(round_half_away(float(-(sh * np.log(sh)).sum()), 5))
    return pd.DataFrame({"pos": pd.array(out_p, dtype="int64"), "entropy": out_e})


# ---------------------------------------------------------------------------
# seq_token_dispersion — Church–Gale burstiness: collection frequency
# vs document frequency for the heaviest tokens (cf/df ≫ 1 ⇒ the token
# clusters inside few documents instead of spreading).

_DISP_TOPK = 20


SQL_SEQ_TOKEN_DISPERSION = f"""
WITH e AS (
  SELECT CAST(substr(doc_id, 5) AS BIGINT) AS k, unnest(tokens) AS tok FROM {SEQ_SQL}
),
cf AS (
  SELECT tok, CAST(count(*) AS BIGINT) AS cf, CAST(count(DISTINCT k) AS BIGINT) AS df
  FROM e GROUP BY 1
)
SELECT CAST(tok AS BIGINT) AS tok, cf, df, round(cf * 1.0 / df, 5) AS cpd
FROM cf ORDER BY cf DESC, tok LIMIT {_DISP_TOPK}
"""


@entry("seq_token_dispersion", sql=SQL_SEQ_TOKEN_DISPERSION)
def q_seq_token_dispersion(sf_dir: str) -> pd.DataFrame:
    """Top-20 tokens by collection frequency with their document
    frequency and cf/df rate.  Scale shape: cf rides a vocab-bounded
    count combiner; df needs GLOBAL per-(doc, token) distinctness (the
    corpus plants duplicate doc ids, so per-batch partials would
    double-count) — one coarse token-hash shuffle of the per-batch
    distinct (key, token) pairs, per-part dedup + count.  Exact
    integers; top-k on the driver grid."""
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens"])

    def flat_parts(b: pa.Table):
        col = b["tokens"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.int64)
        counts = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        keys = pc.cast(pc.utf8_slice_codeunits(b["doc_id"], 4, 99), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return flat, counts, keys

    def cf_partial(b: pa.Table) -> pa.Table:
        flat, _, _ = flat_parts(b)
        tok, cf = np.unique(flat, return_counts=True)
        return pa.table({"tok": pa.array(tok), "cf": pa.array(cf.astype(np.int64))})

    def kt_partial(b: pa.Table) -> pa.Table:
        # null doc ids (a planted violation family) carry no document
        # identity — the twin's count(DISTINCT k) skips them too
        b = b.filter(pc.is_valid(b["doc_id"]))
        flat, counts, keys = flat_parts(b)
        seg = np.repeat(keys, counts)
        order = np.lexsort((flat, seg))
        s2, f2 = seg[order], flat[order]
        keep = np.concatenate([[True], (s2[1:] != s2[:-1]) | (f2[1:] != f2[:-1])]) \
            if len(s2) else np.empty(0, bool)
        k2, t2 = s2[keep], f2[keep]
        return pa.table({"k": pa.array(k2), "tok": pa.array(t2)})

    def df_per_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["k", "tok"]).groupby("tok", as_index=False).size()
        return d.rename(columns={"size": "df"})

    cf = _collect(ds.map_batches(cf_partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("tok").aggregate([("cf", "sum")]).to_pandas() \
        .rename(columns={"cf_sum": "cf"})
    dfp = _collect(map_key_buckets(ds.map_batches(kt_partial, batch_format="pyarrow", zero_copy_batch=True),
                                   ["tok"], df_per_part)) \
        .to_pandas().groupby("tok", as_index=False)["df"].sum()
    m = cf.merge(dfp, on="tok")
    m = m.sort_values(["cf", "tok"], ascending=[False, True]).head(_DISP_TOPK)
    return pd.DataFrame({
        "tok": m["tok"].astype("int64").to_numpy(),
        "cf": m["cf"].astype("int64").to_numpy(),
        "df": m["df"].astype("int64").to_numpy(),
        "cpd": round_half_away(m["cf"].to_numpy(dtype=np.float64)
                        / m["df"].to_numpy(dtype=np.float64), 5),
    }).reset_index(drop=True)

