"""Catalog wave 6: statistical-test and data-quality audits plus the
exact prefix-filter similarity join — one-way ANOVA across groups,
ROC-AUC in exact integer rank arithmetic, lag-1 autocorrelation and
EWMA trend of daily series, CUSUM changepoint location, per-user
calendar gap-fill completeness, single-column candidate-key discovery,
Spearman rank correlation of daily volume vs daily level, an
AllPairs/PPJoin exact-Jaccard join (`functions/dedup.py
prefix_jaccard_join`) against a brute-force twin, and a TPC-H
Q4-shaped late-shipment EXISTS composite.

Same driver contract as :mod:`.queries`: column names and rounding
match the DuckDB twin exactly; every query is scale-shaped (per-batch
combiners, coarse hash shuffles, broadcast small sides — nothing
corpus-sized ever reaches the driver; driver-side finishing math only
ever sees per-group/per-day partials of bounded cardinality).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.pipelines.queries import _collect, _sig_parquet_path, entry
from jesse_ray.sources import read_table
from jesse_ray.rounding import round_half_away


_DAY_US = 86400000000  # epoch-microseconds per day


def _ts_day(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    """timestamp[us] → integer epoch-day (floor), matching DuckDB's
    ``epoch_us(ts) // 86400000000`` exactly (both floor positives)."""
    return pc.divide(pc.cast(col, pa.int64()), _DAY_US)


def _daily_value_partials(sf_dir: str, *, by_type: bool = False) -> pa.Table:
    """Shared combiner: per-(day[, event_type]) count + non-null value
    sum — ≤ days×types rows leave each block, merged once here.  The
    scale shape for every daily-series audit below: one corpus read,
    no shuffle, driver sees only the (bounded) daily grid."""
    cols = ["ts", "value"] + (["event_type"] if by_type else [])
    ds = read_table(f"{sf_dir}/events.parquet", columns=cols)
    keys = (["event_type", "day"] if by_type else ["day"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.append_column("day", _ts_day(b["ts"]))
        v = pc.if_else(pc.is_valid(t["value"]), t["value"], 0.0)
        t = t.append_column("v", v).append_column(
            "nv", pc.cast(pc.is_valid(t["value"]), pa.int64()))
        g = t.select(keys + ["v", "nv"]).group_by(keys).aggregate(
            [("v", "sum"), ("nv", "sum"), ([], "count_all")])
        return g.rename_columns(keys + ["sv", "nv", "cnt"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True))
    return (m.group_by(keys).aggregate([("sv", "sum"), ("nv", "sum"), ("cnt", "sum")])
             .rename_columns(keys + ["sv", "nv", "cnt"]).sort_by([(k, "ascending") for k in keys]))


# ---------------------------------------------------------------------------
# events_anova — one-way ANOVA F of `value` across event types, from the
# same per-group (n, Σx, Σx²) power sums both engines keep.


SQL_EVENTS_ANOVA = """
WITH g AS (
  SELECT event_type, count(value) AS n, sum(value) AS s1, sum(value*value) AS s2
  FROM events WHERE value IS NOT NULL GROUP BY 1
),
t AS (SELECT count(*) AS k, sum(n) AS nn, sum(s1) AS ts1, sum(s2) AS ts2,
             sum(s1*s1/n) AS sb FROM g)
SELECT CAST(k AS BIGINT) AS k, CAST(nn AS BIGINT) AS n,
       round(((sb - ts1*ts1/nn) / (k-1)) / ((ts2 - sb) / (nn - k)), 4) AS f_stat
FROM t
"""


@entry("events_anova", sql=SQL_EVENTS_ANOVA)
def q_events_anova(sf_dir: str) -> pd.DataFrame:
    """Does mean ``value`` differ across event types?  One-way ANOVA
    from per-group power sums: SSB = Σ s₁ᵍ²/nᵍ − S₁²/N, SSW = ΣΣx² −
    Σ s₁ᵍ²/nᵍ, F = (SSB/(k−1))/(SSW/(N−k)).  Scale shape: per-batch
    Arrow group_by partials (≤ #groups rows per block), driver finishes
    the scalar algebra — one read, no shuffle."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["value"]))
        x = t["value"].cast(pa.float64())
        g = pa.table({"event_type": t["event_type"], "x": x,
                      "x2": pc.multiply(x, x)}).group_by("event_type").aggregate(
            [("x", "sum"), ("x2", "sum"), ([], "count_all")])
        return g.rename_columns(["event_type", "s1", "s2", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("event_type").aggregate([("s1", "sum"), ("s2", "sum"), ("n", "sum")])
    s1 = m["s1_sum"].to_numpy(zero_copy_only=False)
    s2 = m["s2_sum"].to_numpy(zero_copy_only=False)
    n = m["n_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
    k, nn = len(n), float(n.sum())
    sb = float((s1 * s1 / n).sum())
    ssb = sb - float(s1.sum()) ** 2 / nn
    ssw = float(s2.sum()) - sb
    f = (ssb / (k - 1)) / (ssw / (nn - k))
    return pd.DataFrame({"k": pd.array([k], dtype="int64"),
                         "n": pd.array([int(nn)], dtype="int64"),
                         "f_stat": [round_half_away(f, 4)]})


# ---------------------------------------------------------------------------
# emb_roc_auc — ROC-AUC of an integer score vs a binary label in EXACT
# integer rank arithmetic (the Mann-Whitney identity AUC = U/(n₁n₀)):
# doubled tie-averaged rank sums are exact int64 on both engines.


SQL_EMB_ROC_AUC = """
WITH x AS (
  SELECT len(list_filter(embedding, x -> x > 0)) AS score,
         CASE WHEN label < 5 THEN 1 ELSE 0 END AS pos
  FROM embeddings
),
v AS (SELECT score, CAST(count(*) AS BIGINT) AS c_all,
             CAST(sum(pos) AS BIGINT) AS c_pos FROM x GROUP BY 1),
w AS (SELECT score, c_all, c_pos,
             CAST(coalesce(sum(c_all) OVER (ORDER BY score
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS L
      FROM v),
a AS (SELECT CAST(sum(c_pos) AS BIGINT) AS np, CAST(sum(c_all - c_pos) AS BIGINT) AS nn,
             CAST(sum(c_pos * (2*L + c_all + 1)) AS BIGINT) AS r2 FROM w)
SELECT np AS n_pos, nn AS n_neg, r2 - np*(np+1) AS u2,
       round(CAST(r2 - np*(np+1) AS DOUBLE) / (2.0 * np * nn), 6) AS auc
FROM a
"""


@entry("emb_roc_auc", sql=SQL_EMB_ROC_AUC)
def q_emb_roc_auc(sf_dir: str) -> pd.DataFrame:
    """AUC of score = #positive embedding components for the binary
    class label<5 — the separability audit for a quality-classifier
    column.  2·avg_rank(v) = 2·count_less(v) + count_eq(v) + 1 keeps
    everything integer: r2 = Σ_pos(2L+c+1), u2 = r2 − n₁(n₁+1),
    AUC = u2/(2n₁n₀).  Scale shape: score is a per-batch vectorized
    segment count; one bounded-cardinality (score ≤ dim) combiner
    pass; the AUC is a scalar formula on the driver."""
    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["embedding", "label"])

    def partial(b: pa.Table) -> pa.Table:
        col = b["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        counts = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        seg = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        score = np.bincount(seg, weights=(flat > 0).astype(np.float64),
                            minlength=len(counts)).astype(np.int64)
        pos = pc.less(b["label"], 5)
        g = pa.table({"score": pa.array(score),
                      "pos": pc.cast(pos, pa.int64())}).group_by("score").aggregate(
            [("pos", "sum"), ([], "count_all")])
        return g.rename_columns(["score", "c_pos", "c_all"])

    cells = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("score").aggregate([("c_pos", "sum"), ("c_all", "sum")]) \
        .sort_by("score").to_pandas()
    c_all = cells["c_all_sum"].to_numpy(dtype=np.int64)
    c_pos = cells["c_pos_sum"].to_numpy(dtype=np.int64)
    L = np.concatenate([[0], np.cumsum(c_all)[:-1]])
    r2 = int((c_pos * (2 * L + c_all + 1)).sum())
    n_pos = int(c_pos.sum())
    n_neg = int(c_all.sum()) - n_pos
    u2 = r2 - n_pos * (n_pos + 1)
    return pd.DataFrame({
        "n_pos": pd.array([n_pos], dtype="int64"),
        "n_neg": pd.array([n_neg], dtype="int64"),
        "u2": pd.array([u2], dtype="int64"),
        "auc": [round_half_away(u2 / (2.0 * n_pos * n_neg), 6)],
    })


# ---------------------------------------------------------------------------
# events_autocorr — lag-1 autocorrelation of the daily event-count
# series (ingest-volume seasonality audit).


SQL_EVENTS_AUTOCORR = f"""
WITH d AS (
  SELECT epoch_us(ts) // {_DAY_US} AS day, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1
),
l AS (SELECT c, lag(c) OVER (ORDER BY day) AS pc FROM d)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM d) AS n_days,
       round(corr(c, pc), 5) AS acf1
FROM l WHERE pc IS NOT NULL
"""


@entry("events_autocorr", sql=SQL_EVENTS_AUTOCORR)
def q_events_autocorr(sf_dir: str) -> pd.DataFrame:
    """Lag-1 Pearson autocorrelation of daily event counts.  Scale
    shape: the daily grid comes from the shared per-block combiner
    (≤ #days rows per block); the driver correlates the ≤ #days-long
    series — integer counts, so both engines see bit-identical
    inputs."""
    d = _daily_value_partials(sf_dir)
    c = d["cnt"].to_numpy(zero_copy_only=False).astype(np.float64)
    x, y = c[1:], c[:-1]
    r = float(np.corrcoef(x, y)[0, 1]) if len(x) > 1 else float("nan")
    return pd.DataFrame({"n_days": pd.array([len(c)], dtype="int64"),
                         "acf1": [round_half_away(r, 5)]})


# ---------------------------------------------------------------------------
# events_ewma — exponentially-weighted moving average of daily mean
# value per event type (α = 0.3), reported at the final day.  The twin
# uses the closed-form weights (rn=1 → (1−α)^(nd−1), else
# α(1−α)^(nd−rn)); the engine computes the same dot product.

_EWMA_ALPHA = 0.3


SQL_EVENTS_EWMA = f"""
WITH d AS (
  SELECT event_type, epoch_us(ts) // {_DAY_US} AS day, avg(value) AS x
  FROM events WHERE value IS NOT NULL GROUP BY 1, 2
),
r AS (
  SELECT event_type, x,
         row_number() OVER (PARTITION BY event_type ORDER BY day) AS rn,
         count(*) OVER (PARTITION BY event_type) AS nd
  FROM d
)
SELECT event_type, CAST(max(nd) AS BIGINT) AS n_days,
       round(sum(CASE WHEN rn = 1 THEN power({1.0 - _EWMA_ALPHA}, nd - 1) * x
                      ELSE {_EWMA_ALPHA} * power({1.0 - _EWMA_ALPHA}, nd - rn) * x END), 5) AS ewma
FROM r GROUP BY 1 ORDER BY 1
"""


@entry("events_ewma", sql=SQL_EVENTS_EWMA)
def q_events_ewma(sf_dir: str) -> pd.DataFrame:
    """Per-type EWMA level of daily mean ``value`` at the last observed
    day (drift-watch smoother).  Scale shape: the per-(type, day) grid
    is a combiner output; the EWMA itself is a ≤ #days dot product per
    type on the driver — identical closed form to the SQL twin."""
    d = _daily_value_partials(sf_dir, by_type=True).to_pandas()
    d = d[d["nv"] > 0]
    d["x"] = d["sv"] / d["nv"]
    out_t, out_n, out_e = [], [], []
    for et, grp in d.groupby("event_type", sort=True):
        x = grp.sort_values("day")["x"].to_numpy(dtype=np.float64)
        nd = len(x)
        w = _EWMA_ALPHA * (1.0 - _EWMA_ALPHA) ** (nd - 1 - np.arange(nd, dtype=np.float64))
        w[0] = (1.0 - _EWMA_ALPHA) ** (nd - 1)
        out_t.append(et)
        out_n.append(nd)
        out_e.append(round_half_away(float((w * x).sum()), 5))
    return pd.DataFrame({"event_type": out_t,
                         "n_days": pd.array(out_n, dtype="int64"),
                         "ewma": out_e})


# ---------------------------------------------------------------------------
# doc_prefix_jaccard — AllPairs/PPJoin EXACT Jaccard similarity join
# (functions/dedup.py prefix_jaccard_join): deterministic recall 1.0 by
# the prefix-filter theorem, verified against a brute-force all-pairs
# twin over the same shingle sets (parquet sidecar).


SQL_DOC_PREFIX_JACCARD = """
WITH s AS (
  SELECT doc_id, shingles FROM read_parquet('/tmp/jesse_ray_data/pfxjac_sigs_sf0.01.parquet')
), sz AS (
  SELECT doc_id, len(shingles) AS n FROM s
), e AS (
  SELECT doc_id, unnest(shingles) AS sh FROM s
), p AS (
  SELECT a.doc_id AS l, b.doc_id AS r, count(*) AS inter
  FROM e a JOIN e b ON a.sh = b.sh AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT l AS "left", r AS "right", CAST(inter AS BIGINT) AS inter,
       CAST(sa.n + sb.n - inter AS BIGINT) AS union_sz
FROM p JOIN sz sa ON sa.doc_id = p.l JOIN sz sb ON sb.doc_id = p.r
WHERE inter * 1.0 / (sa.n + sb.n - inter) >= 0.4
ORDER BY 1, 2
"""


@entry("doc_prefix_jaccard", sql=SQL_DOC_PREFIX_JACCARD)
def q_doc_prefix_jaccard(sf_dir: str) -> pd.DataFrame:
    """Exact Jaccard ≥ 0.4 similarity self-join over 5-gram document
    shingles WITHOUT LSH: prefix filtering (Bayardo WWW'07) + exact
    integer length filter + blob verification.  The oracle enumerates
    every pair from the raw shingle sets, so the pair set (and each
    jaccard) must match brute force exactly — recall 1.0 is part of the
    contract, not a tuning outcome."""
    from jesse_ray.functions.dedup import _shingle_hashes, prefix_jaccard_join

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def shingle_sets(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        sets = [np.unique(_shingle_hashes(t or "", 5)) for t in texts]
        offs = np.concatenate([[0], np.cumsum([len(s) for s in sets])]).astype(np.int64)
        flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.uint64)
        lists = pa.ListArray.from_arrays(pa.array(offs), pa.array(flat, type=pa.uint64()))
        return pa.table({"doc_id": batch["doc_id"], "shingles": lists})

    pq.write_table(
        _collect(ds.map_batches(shingle_sets, batch_format="pyarrow")).sort_by("doc_id"),
        _sig_parquet_path(sf_dir, "pfxjac"),
    )
    import ray as _ray

    from jesse_ray.functions.dedup import DropCounter

    counter = DropCounter.remote() if _ray.is_initialized() else None
    pdf = prefix_jaccard_join(ds, threshold_num=2, threshold_den=5, shingle_k=5,
                              emit_counts=True, drop_counter=counter).to_pandas()
    if counter is not None:
        drops = _ray.get(counter.get.remote())
        if drops["dropped_buckets"]:
            raise RuntimeError(
                f"doc_prefix_jaccard: exactness violated — skew cap dropped "
                f"candidates ({drops}); raise bucket_cap")
    if pdf.empty:
        return pd.DataFrame({"left": pd.array([], dtype="int64"),
                             "right": pd.array([], dtype="int64"),
                             "inter": pd.array([], dtype="int64"),
                             "union_sz": pd.array([], dtype="int64")})
    # exact integer (inter, union_sz) truth columns ONLY — a rounded
    # float jaccard split the engines at sf0.1 on an exact 5th-decimal
    # tie (python half-even vs DuckDB half-away)
    return (pdf[["left", "right", "inter", "union_sz"]]
            .sort_values(["left", "right"]).reset_index(drop=True))


# ---------------------------------------------------------------------------
# events_cusum — CUSUM changepoint locator on the daily mean-value
# series: argmax |Σ(xᵢ − x̄)| with the max standardized by σ√n.


SQL_EVENTS_CUSUM = f"""
WITH d AS (
  SELECT epoch_us(ts) // {_DAY_US} AS day, avg(value) AS x
  FROM events WHERE value IS NOT NULL GROUP BY 1
),
m AS (SELECT avg(x) AS mu, stddev_pop(x) AS sd, count(*) AS nd FROM d),
s AS (SELECT day, sum(x - (SELECT mu FROM m)) OVER (ORDER BY day) AS cs FROM d)
SELECT CAST(day AS BIGINT) AS cp_day,
       round(abs(cs) / ((SELECT sd FROM m) * sqrt((SELECT nd FROM m))), 5) AS stat
FROM s ORDER BY abs(cs) DESC, day ASC LIMIT 1
"""


@entry("events_cusum", sql=SQL_EVENTS_CUSUM)
def q_events_cusum(sf_dir: str) -> pd.DataFrame:
    """Where does the daily mean ``value`` series most likely change
    level?  Classic CUSUM: Sₜ = Σ_{i≤t}(xᵢ−x̄); the changepoint is the
    day of max |Sₜ| (earliest on ties) and the statistic is
    max|Sₜ|/(σ_pop√n).  Scale shape: daily grid from the shared
    combiner; the scan is ≤ #days on the driver."""
    d = _daily_value_partials(sf_dir).to_pandas()
    d = d[d["nv"] > 0].sort_values("day")
    x = (d["sv"] / d["nv"]).to_numpy(dtype=np.float64)
    days = d["day"].to_numpy(dtype=np.int64)
    cs = np.cumsum(x - x.mean())
    k = int(np.argmax(np.abs(cs)))  # first max = earliest tie
    stat = float(np.abs(cs[k]) / (x.std() * np.sqrt(len(x))))
    return pd.DataFrame({"cp_day": pd.array([int(days[k])], dtype="int64"),
                         "stat": [round_half_away(stat, 5)]})


# ---------------------------------------------------------------------------
# events_gapfill — per-user calendar completeness: days missing between
# each user's first and last activity day, aggregated per event type.


SQL_EVENTS_GAPFILL = f"""
WITH u AS (
  SELECT event_type, user_id,
         CAST(max(epoch_us(ts) // {_DAY_US}) - min(epoch_us(ts) // {_DAY_US}) + 1
              - count(DISTINCT epoch_us(ts) // {_DAY_US}) AS BIGINT) AS miss
  FROM events GROUP BY 1, 2
)
SELECT event_type,
       CAST(count(*) FILTER (WHERE miss > 0) AS BIGINT) AS users_with_gaps,
       CAST(sum(miss) AS BIGINT) AS missing_days
FROM u GROUP BY 1 ORDER BY 1
"""


@entry("events_gapfill", sql=SQL_EVENTS_GAPFILL)
def q_events_gapfill(sf_dir: str) -> pd.DataFrame:
    """Ingest-completeness audit: for each (event_type, user) the
    expected day span (max−min+1) minus observed distinct days =
    missing days; report per type how many users have gaps and the
    total gap mass.  Scale shape: per-batch distinct (type, user, day)
    combiner, ONE coarse hash shuffle on (type, user) so each part
    holds complete user slices, per-part groupby partials, driver sums
    ≤ parts × types rows."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "user_id", "ts"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"event_type": b["event_type"], "user_id": b["user_id"],
                      "day": _ts_day(b["ts"])})
        return t.group_by(["event_type", "user_id", "day"]).aggregate([]).combine_chunks()

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["event_type", "user_id", "day"])
        u = g.groupby(["event_type", "user_id"])["day"].agg(["min", "max", "count"])
        miss = (u["max"] - u["min"] + 1 - u["count"]).to_numpy(dtype="int64")
        out = pd.DataFrame({"event_type": u.index.get_level_values(0).to_numpy(),
                            "gap_users": (miss > 0).astype("int64"),
                            "missing_days": miss})
        return out.groupby("event_type", as_index=False).sum()

    rows = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    parts = _collect(map_key_buckets(rows, ["event_type", "user_id"], per_part))
    pdf = parts.to_pandas().groupby("event_type", as_index=False).sum()
    return (pd.DataFrame({"event_type": pdf["event_type"],
                          "users_with_gaps": pdf["gap_users"].astype("int64"),
                          "missing_days": pdf["missing_days"].astype("int64")})
            .sort_values("event_type").reset_index(drop=True))


# ---------------------------------------------------------------------------
# orders_candidate_keys — single-column candidate-key discovery over the
# orders table: exact distinct count per column vs row count.

_CK_COLS = ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
            "o_orderdate", "o_orderpriority"]


SQL_ORDERS_CANDIDATE_KEYS = """
SELECT col, n_distinct, n_rows, CAST(n_distinct = n_rows AS BIGINT) AS is_key
FROM (
  SELECT 'o_custkey' AS col, CAST(count(DISTINCT o_custkey) AS BIGINT) AS n_distinct,
         CAST(count(*) AS BIGINT) AS n_rows FROM orders
  UNION ALL SELECT 'o_orderdate', count(DISTINCT o_orderdate), count(*) FROM orders
  UNION ALL SELECT 'o_orderkey', count(DISTINCT o_orderkey), count(*) FROM orders
  UNION ALL SELECT 'o_orderpriority', count(DISTINCT o_orderpriority), count(*) FROM orders
  UNION ALL SELECT 'o_orderstatus', count(DISTINCT o_orderstatus), count(*) FROM orders
  UNION ALL SELECT 'o_totalprice', count(DISTINCT o_totalprice), count(*) FROM orders
)
ORDER BY col
"""


@entry("orders_candidate_keys", sql=SQL_ORDERS_CANDIDATE_KEYS)
def q_orders_candidate_keys(sf_dir: str) -> pd.DataFrame:
    """Which columns could key the table?  Exact n_distinct per column
    via per-batch unique + ONE coarse shuffle on the value hash (a
    part sees every copy of a value, so per-part distinct counts sum
    exactly); is_key ⟺ n_distinct == n_rows.  Scale shape: the
    shuffled stream is (col, unique-value-per-block) — bounded by
    distinct mass, never rows × cols."""
    ds = read_table(f"{sf_dir}/orders.parquet", columns=_CK_COLS)
    n_rows = ds.count()

    def partial(b: pa.Table) -> pa.Table:
        cols_out, vals_out = [], []
        for c in _CK_COLS:
            v = pc.cast(b[c], pa.string())
            v = pc.unique(pc.drop_null(v))
            cols_out.append(pa.array([c] * len(v), type=pa.string()))
            vals_out.append(v)
        return pa.table({"col": pa.concat_arrays(cols_out),
                         "v": pa.concat_arrays([x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x for x in vals_out])})

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["col", "v"]).groupby("col", as_index=False).size()
        return d.rename(columns={"size": "nd"})

    rows = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    parts = _collect(map_key_buckets(rows, ["v"], per_part)).to_pandas()
    agg = parts.groupby("col", as_index=False)["nd"].sum().sort_values("col")
    return pd.DataFrame({
        "col": agg["col"].to_numpy(),
        "n_distinct": agg["nd"].astype("int64").to_numpy(),
        "n_rows": pd.array([n_rows] * len(agg), dtype="int64"),
        "is_key": (agg["nd"] == n_rows).astype("int64").to_numpy(),
    }).reset_index(drop=True)


# ---------------------------------------------------------------------------
# events_spearman_daily — Spearman rank correlation between daily event
# volume and daily mean value (tie-averaged ranks, the textbook ρ).


SQL_EVENTS_SPEARMAN_DAILY = f"""
WITH d AS (
  SELECT epoch_us(ts) // {_DAY_US} AS day, CAST(count(*) AS BIGINT) AS c,
         avg(value) AS v
  FROM events GROUP BY 1 HAVING count(value) > 0
),
r AS (
  SELECT rank() OVER (ORDER BY c) + (count(*) OVER (PARTITION BY c) - 1) / 2.0 AS rc,
         rank() OVER (ORDER BY v) + (count(*) OVER (PARTITION BY v) - 1) / 2.0 AS rv
  FROM d
)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM d) AS n_days,
       round(corr(rc, rv), 5) AS rho
FROM r
"""


@entry("events_spearman_daily", sql=SQL_EVENTS_SPEARMAN_DAILY)
def q_events_spearman_daily(sf_dir: str) -> pd.DataFrame:
    """Does volume co-move with level?  Spearman ρ between the daily
    count series and the daily mean-value series: average ranks
    (rank() + (ties−1)/2, matching pandas rank(method='average')),
    then Pearson on the ranks.  Scale shape: the grid is a combiner
    output; ranking ≤ #days values happens on the driver."""
    d = _daily_value_partials(sf_dir).to_pandas().sort_values("day")
    d = d[d["nv"] > 0]
    c = d["cnt"].astype("int64")
    v = d["sv"] / d["nv"]
    rc = c.rank(method="average").to_numpy(dtype=np.float64)
    rv = v.rank(method="average").to_numpy(dtype=np.float64)
    rho = float(np.corrcoef(rc, rv)[0, 1]) if len(rc) > 1 else float("nan")
    return pd.DataFrame({"n_days": pd.array([len(rc)], dtype="int64"),
                         "rho": [round_half_away(rho, 5)]})


# ---------------------------------------------------------------------------
# orders_q4ish — TPC-H Q4-shaped composite (reference shape: priority
# count of orders with at least one LATE lineitem, an EXISTS semi-join
# whose predicate crosses sides).

_Q4_LO, _Q4_HI = "1996-01-01", "1997-01-01"
_Q4_LATE_DAYS = 30


SQL_ORDERS_Q4ISH = f"""
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_late
FROM orders
WHERE o_orderdate >= TIMESTAMP '{_Q4_LO}' AND o_orderdate < TIMESTAMP '{_Q4_HI}'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey
                AND l_shipdate > o_orderdate + INTERVAL {_Q4_LATE_DAYS} DAY)
GROUP BY 1 ORDER BY 1
"""


@entry("orders_q4ish", sql=SQL_ORDERS_Q4ISH)
def q_orders_q4ish(sf_dir: str) -> pd.DataFrame:
    """Orders placed in 1996 with any lineitem shipped > 30 days after
    the order date, counted by priority.  The predicate references BOTH
    sides (l_shipdate vs o_orderdate), so no pure semi-join applies:
    plan is filtered-orders ⋈ lineitem (coarse hash cogroup join),
    cross-side mask, then EXISTS via distinct (orderkey, priority) on
    the SAME partitioning key, counted per priority.  Scale shape: two
    column-pruned reads, one shuffle, per-part distinct, ≤ parts ×
    priorities partial rows to the driver."""
    from jesse_ray.pipelines.relational import hash_join

    lo = pd.Timestamp(_Q4_LO).value // 1000
    hi = pd.Timestamp(_Q4_HI).value // 1000
    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])

    def owin(b: pa.Table) -> pa.Table:
        d = pc.cast(b["o_orderdate"], pa.int64())
        return b.filter(pc.and_(pc.greater_equal(d, lo), pc.less(d, hi)))

    orders = orders.map_batches(owin, batch_format="pyarrow", zero_copy_batch=True)
    line = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"])
    line = line.map_batches(
        lambda b: pa.table({"o_orderkey": b["l_orderkey"], "l_shipdate": b["l_shipdate"]}),
        batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(orders, line, on="o_orderkey", how="inner")

    def late(b: pa.Table) -> pa.Table:
        od = pc.cast(b["o_orderdate"], pa.int64())
        sd = pc.cast(b["l_shipdate"], pa.int64())
        m = pc.greater(sd, pc.add(od, _Q4_LATE_DAYS * _DAY_US))
        t = b.filter(m)
        return t.select(["o_orderkey", "o_orderpriority"]) \
            .group_by(["o_orderkey", "o_orderpriority"]).aggregate([])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["o_orderkey"]).groupby("o_orderpriority", as_index=False).size()
        return d.rename(columns={"size": "n"})

    rows = j.map_batches(late, batch_format="pyarrow", zero_copy_batch=True)
    parts = _collect(map_key_buckets(rows, ["o_orderkey"], per_part)).to_pandas()
    agg = parts.groupby("o_orderpriority", as_index=False)["n"].sum().sort_values("o_orderpriority")
    return pd.DataFrame({"o_orderpriority": agg["o_orderpriority"].to_numpy(),
                         "n_late": agg["n"].astype("int64").to_numpy()}).reset_index(drop=True)

