"""Catalog wave 10: time-weighted and trimmed estimators plus sketch
and seasonality audits — TWAP (time-weighted average price/value),
per-group HLL estimate audit against exact distinct counts, exact
trimmed mean, seasonality-strength variance decomposition, and local
peak detection on the daily series.

Same driver contract as :mod:`.queries`: column names and rounding
match the DuckDB twin exactly; every query is scale-shaped (bounded
combiner grids, one coarse shuffle where an entity must be co-located,
driver math only on the grid)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, _sig_parquet_path, entry
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.rounding import round_half_away


_DAY_US = 86400000000


# ---------------------------------------------------------------------------
# events_twap — time-weighted average value per event type: each
# observation holds until the next one of its type (the TWAP/TWA rule
# for irregular series, where the plain mean over-weights bursts).


SQL_EVENTS_TWAP = """
WITH x AS (
  SELECT event_type, ts, event_id, value FROM events WHERE value IS NOT NULL
),
w AS (
  SELECT event_type, value,
         epoch_us(lead(ts) OVER (PARTITION BY event_type ORDER BY ts, event_id) - ts) AS wus
  FROM x
)
SELECT event_type, CAST(count(wus) AS BIGINT) AS n_gaps,
       round(sum(value * wus) / sum(wus), 5) AS twap
FROM w WHERE wus IS NOT NULL GROUP BY 1 ORDER BY 1
"""


@entry("events_twap", sql=SQL_EVENTS_TWAP)
def q_events_twap(sf_dir: str) -> pd.DataFrame:
    """TWAP per type: Σ value·Δt / Σ Δt with Δt = gap to the next
    same-type non-null observation (last one carries no weight); ties
    on ts broken by event_id so both engines weight the same row.
    Scale shape: one type-hash shuffle, per-part sort + vectorized
    diff — the events_interarrival pattern."""
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_type", "ts", "event_id", "value"])

    def clean(b: pa.Table) -> pd.DataFrame:
        t = b.filter(pc.is_valid(b["value"]))
        return pa.table({"event_type": t["event_type"],
                         "us": t["ts"].cast(pa.int64()),
                         "event_id": t["event_id"],
                         "value": t["value"]}).to_pandas()

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, grp in g.groupby("event_type", sort=True):
            grp = grp.sort_values(["us", "event_id"])
            us = grp["us"].to_numpy(dtype=np.int64)
            v = grp["value"].to_numpy(dtype=np.float64)
            w = np.diff(us).astype(np.float64)
            if len(w) == 0:
                continue
            rows.append((et, float((v[:-1] * w).sum()), float(w.sum()), len(w)))
        return pd.DataFrame(rows, columns=["event_type", "sw", "tw", "n"])

    rows = ds.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)
    m = _collect(map_key_buckets(rows, ["event_type"], per_part)) \
        .to_pandas().groupby("event_type", as_index=False).sum().sort_values("event_type")
    return pd.DataFrame({
        "event_type": m["event_type"].to_numpy(),
        "n_gaps": m["n"].astype("int64").to_numpy(),
        "twap": round_half_away(m["sw"] / m["tw"], 5),
    }).reset_index(drop=True)


# ---------------------------------------------------------------------------
# seq_hll_by_source — per-group sketch audit: the grouped HLL distinct-
# token estimate must sit within the sketch's error envelope of the
# EXACT per-source distinct count (which the twin computes in SQL).


SQL_SEQ_HLL_BY_SOURCE = f"""
WITH s AS (
  SELECT source, est FROM read_parquet('/tmp/jesse_ray_data/hll_by_source_sigs_sf0.01.parquet')
),
exact AS (
  SELECT source, CAST(count(DISTINCT t) AS BIGINT) AS d
  FROM (SELECT source, unnest(tokens) AS t FROM {SEQ_SQL})
  GROUP BY 1
)
SELECT s.source, CAST(s.est AS BIGINT) AS est
FROM s JOIN exact ON exact.source = s.source
WHERE abs(CAST(s.est AS DOUBLE) / exact.d - 1.0) <= 0.05
ORDER BY s.source
"""


@entry("seq_hll_by_source", sql=SQL_SEQ_HLL_BY_SOURCE)
def q_seq_hll_by_source(sf_dir: str) -> pd.DataFrame:
    """Grouped HLL (p=12) distinct token ids per source, audited: the
    twin recomputes the exact count and the row only survives when
    |est/exact − 1| ≤ 5% (≫ the ~1.6% stderr at p=12) — so a drifting
    sketch FAILS the row-count compare, like the corpus-wide
    seq_hll_tokens gate.  Scale shape: the grouped-HLL register-blob
    combiner (≈4 KB per (group, block)); estimates land in a sidecar
    the twin reads."""
    from jesse_ray.stages.distinct import hll_distinct_by_group

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens", "source"])
    t = hll_distinct_by_group(ds, "tokens", "source", p=12, flatten=True)
    pdf = t.to_pandas() if not isinstance(t, pd.DataFrame) else t
    pdf = pdf.sort_values("source").reset_index(drop=True)
    est_col = [c for c in pdf.columns if c != "source"][0]
    out = pd.DataFrame({"source": pdf["source"].to_numpy(),
                        "est": round_half_away(pdf[est_col]).astype("int64").to_numpy()})
    pq.write_table(pa.Table.from_pandas(out, preserve_index=False),
                   _sig_parquet_path(sf_dir, "hll_by_source"))
    return out


# ---------------------------------------------------------------------------
# lineitem_trimmed_mean — exact 10% trimmed mean of quantity per return
# flag, computed over the bounded (flag × quantity) count grid (never a
# full per-group sort).

_TRIM = 0.1


SQL_LINEITEM_TRIMMED_MEAN = f"""
WITH r AS (
  SELECT l_returnflag, l_quantity,
         row_number() OVER (PARTITION BY l_returnflag ORDER BY l_quantity) AS rn,
         count(*) OVER (PARTITION BY l_returnflag) AS n
  FROM lineitem
)
SELECT l_returnflag,
       CAST(count(*) AS BIGINT) AS n_kept,
       round(avg(l_quantity), 5) AS trimmed_mean
FROM r
WHERE rn > floor({_TRIM} * n) AND rn <= n - floor({_TRIM} * n)
GROUP BY 1 ORDER BY 1
"""


@entry("lineitem_trimmed_mean", sql=SQL_LINEITEM_TRIMMED_MEAN)
def q_lineitem_trimmed_mean(sf_dir: str) -> pd.DataFrame:
    """Trimmed mean: drop floor(0.1·n) observations from each end, mean
    the rest — the outlier-robust location estimator between mean and
    median.  Scale shape: a (flag × distinct-quantity) count combiner
    (quantities are a bounded discrete domain); trimming walks the
    cumulative grid with integers on the driver."""
    ds = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_quantity"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["l_returnflag", "l_quantity"]).aggregate([([], "count_all")])
        return g.rename_columns(["l_returnflag", "l_quantity", "n"])

    grid = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by(["l_returnflag", "l_quantity"]).aggregate([("n", "sum")]) \
        .to_pandas().rename(columns={"n_sum": "n"})
    out_f, out_n, out_m = [], [], []
    for f, g in grid.groupby("l_returnflag", sort=True):
        g = g.sort_values("l_quantity")
        q = g["l_quantity"].to_numpy(dtype=np.float64)
        n = g["n"].to_numpy(dtype=np.int64)
        total = int(n.sum())
        k = int(np.floor(_TRIM * total))
        # how many of each value survive after dropping k from each end
        lo = np.maximum(np.minimum(np.cumsum(n), k) - np.concatenate([[0], np.cumsum(n)[:-1]]), 0)
        hi_rev = np.maximum(np.minimum(np.cumsum(n[::-1]), k) - np.concatenate([[0], np.cumsum(n[::-1])[:-1]]), 0)[::-1]
        keep = n - lo - hi_rev
        out_f.append(f)
        out_n.append(total - 2 * k)
        out_m.append(round_half_away(float((q * keep).sum() / keep.sum()), 5))
    return pd.DataFrame({"l_returnflag": out_f,
                         "n_kept": pd.array(out_n, dtype="int64"),
                         "trimmed_mean": out_m})


# ---------------------------------------------------------------------------
# orders_seasonality_strength — variance decomposition of daily order
# volume: how much of the variance is explained by month-of-year?


SQL_ORDERS_SEASONALITY_STRENGTH = f"""
WITH d AS (
  SELECT epoch_us(o_orderdate) // {_DAY_US} AS day, CAST(count(*) AS BIGINT) AS c
  FROM orders GROUP BY 1
),
w AS (
  SELECT c, c - avg(c) OVER (PARTITION BY month(make_timestamp(day * {_DAY_US}))) AS resid
  FROM d
)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM d) AS n_days,
       round(greatest(0.0, 1.0 - var_pop(resid) / var_pop(c)), 5) AS strength
FROM w
"""


@entry("orders_seasonality_strength", sql=SQL_ORDERS_SEASONALITY_STRENGTH)
def q_orders_seasonality_strength(sf_dir: str) -> pd.DataFrame:
    """Seasonality strength = max(0, 1 − var(residual)/var(series))
    with residual = daily count − its month-of-year mean (STL-style
    strength statistic on the calendar component).  Scale shape: a
    ≤ #days daily combiner; the decomposition is driver math on the
    grid."""
    ds = read_table(f"{sf_dir}/orders.parquet", columns=["o_orderdate"])

    def partial(b: pa.Table) -> pa.Table:
        day = pc.divide(pc.cast(b["o_orderdate"], pa.int64()), _DAY_US)
        g = pa.table({"day": day}).group_by("day").aggregate([([], "count_all")])
        return g.rename_columns(["day", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("day").aggregate([("n", "sum")]).sort_by("day").to_pandas()
    day = m["day"].to_numpy(dtype=np.int64)
    c = m["n_sum"].to_numpy(dtype=np.float64)
    month = pd.to_datetime(day * 86400, unit="s").month.to_numpy()
    mm = pd.Series(c).groupby(month).transform("mean").to_numpy()
    resid = c - mm
    strength = max(0.0, 1.0 - resid.var() / c.var())
    return pd.DataFrame({"n_days": pd.array([len(c)], dtype="int64"),
                         "strength": [round_half_away(float(strength), 5)]})


# ---------------------------------------------------------------------------
# events_peaks — local-maximum detection on the daily event-count
# series with a median-based prominence floor.


SQL_EVENTS_PEAKS = f"""
WITH d AS (
  SELECT epoch_us(ts) // {_DAY_US} AS day, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1
),
m AS (SELECT quantile_disc(c, 0.5) AS md FROM d),
w AS (
  SELECT day, c, lag(c) OVER (ORDER BY day) AS pc, lead(c) OVER (ORDER BY day) AS nc
  FROM d
)
SELECT CAST(day AS BIGINT) AS day, c AS n
FROM w
WHERE pc IS NOT NULL AND nc IS NOT NULL
  AND c > pc AND c > nc AND c > 1.05 * (SELECT md FROM m)
ORDER BY day
"""


@entry("events_peaks", sql=SQL_EVENTS_PEAKS)
def q_events_peaks(sf_dir: str) -> pd.DataFrame:
    """Days whose count strictly exceeds both neighbors AND 1.05× the
    discrete median (quantile_disc rule) — the burst-day detector.
    Scale shape: daily combiner grid, driver scan."""
    from jesse_ray.pipelines.queries6 import _daily_value_partials

    d = _daily_value_partials(sf_dir).to_pandas().sort_values("day")
    day = d["day"].to_numpy(dtype=np.int64)
    c = d["cnt"].to_numpy(dtype=np.int64)
    srt = np.sort(c)
    md = int(srt[max(int(np.ceil(0.5 * len(srt))) - 1, 0)])
    is_peak = np.zeros(len(c), dtype=bool)
    if len(c) >= 3:
        is_peak[1:-1] = (c[1:-1] > c[:-2]) & (c[1:-1] > c[2:]) & (c[1:-1] > 1.05 * md)
    return (pd.DataFrame({"day": day[is_peak], "n": c[is_peak]})
            .astype({"day": "int64", "n": "int64"}).reset_index(drop=True))

