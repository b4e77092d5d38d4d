"""Catalog wave 8: cross-table integrity and time-series/clustering
audits — a full referential-integrity orphan matrix over every FK edge
of the star schema, lead–lag cross-correlation, binary-segmentation
changepoint, a Kaplan–Meier time-to-second-event curve (with
censoring), token-frequency Gini, the Wald–Wolfowitz runs test,
centroid-based silhouette per label, Cramér's V association, and a
lognormal fit of document lengths.

Same driver contract as :mod:`.queries`: column names and rounding
match the DuckDB twin exactly; every query is scale-shaped — per-batch
combiners to bounded grids (days, labels×dims, FK edges, vocab),
coarse hash shuffles / anti-joins where keys must meet, driver math
only on the bounded grid."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, entry
from jesse_ray.pipelines.queries6 import _daily_value_partials, _ts_day
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.rounding import round_half_away


_DAY_US = 86400000000


# ---------------------------------------------------------------------------
# fk_orphan_matrix — referential-integrity audit over EVERY FK edge of
# the star schema: child rows whose key has no parent.  The north-rule
# referential check, generalized from one dimension to the whole graph.

_FK_EDGES = [
    # (fk label, child table, child col, parent table, parent col)
    ("customer.c_nationkey->nation", "customer", "c_nationkey", "nation", "n_nationkey"),
    ("lineitem.l_orderkey->orders", "lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem.l_partkey->part", "lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem.l_suppkey->supplier", "lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("nation.n_regionkey->region", "nation", "n_regionkey", "region", "r_regionkey"),
    ("orders.o_custkey->customer", "orders", "o_custkey", "customer", "c_custkey"),
    ("supplier.s_nationkey->nation", "supplier", "s_nationkey", "nation", "n_nationkey"),
]


SQL_FK_ORPHAN_MATRIX = """
SELECT 'customer.c_nationkey->nation' AS fk, CAST(count(*) AS BIGINT) AS n_child,
       CAST(count(*) FILTER (WHERE NOT EXISTS
            (SELECT 1 FROM nation WHERE n_nationkey = c_nationkey)) AS BIGINT) AS n_orphans
FROM customer
UNION ALL SELECT 'lineitem.l_orderkey->orders', count(*),
       count(*) FILTER (WHERE NOT EXISTS
            (SELECT 1 FROM orders WHERE o_orderkey = l_orderkey)) FROM lineitem
UNION ALL SELECT 'lineitem.l_partkey->part', count(*),
       count(*) FILTER (WHERE NOT EXISTS
            (SELECT 1 FROM part WHERE p_partkey = l_partkey)) FROM lineitem
UNION ALL SELECT 'lineitem.l_suppkey->supplier', count(*),
       count(*) FILTER (WHERE NOT EXISTS
            (SELECT 1 FROM supplier WHERE s_suppkey = l_suppkey)) FROM lineitem
UNION ALL SELECT 'nation.n_regionkey->region', count(*),
       count(*) FILTER (WHERE NOT EXISTS
            (SELECT 1 FROM region WHERE r_regionkey = n_regionkey)) FROM nation
UNION ALL SELECT 'orders.o_custkey->customer', count(*),
       count(*) FILTER (WHERE NOT EXISTS
            (SELECT 1 FROM customer WHERE c_custkey = o_custkey)) FROM orders
UNION ALL SELECT 'supplier.s_nationkey->nation', count(*),
       count(*) FILTER (WHERE NOT EXISTS
            (SELECT 1 FROM nation WHERE n_nationkey = s_nationkey)) FROM supplier
ORDER BY fk
"""


@entry("fk_orphan_matrix", sql=SQL_FK_ORPHAN_MATRIX)
def q_fk_orphan_matrix(sf_dir: str) -> pd.DataFrame:
    """Orphan-row count per FK edge via distributed ANTI joins
    (`relational.hash_join(how="anti")` — the r2-verdict-approved
    replacement for driver-collected key sets).  Scale shape: each
    edge is one coarse hash cogroup; nothing key-sized ever reaches
    the driver; output is 7 rows."""
    from jesse_ray.pipelines.relational import hash_join

    out_fk, out_n, out_o = [], [], []
    for fk, child, ccol, parent, pcol in _FK_EDGES:
        ch = read_table(f"{sf_dir}/{child}.parquet", columns=[ccol]).map_batches(
            lambda b, c=ccol: pa.table({"key": b[c].cast(pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True)
        par = read_table(f"{sf_dir}/{parent}.parquet", columns=[pcol]).map_batches(
            lambda b, c=pcol: pa.table({"key": b[c].cast(pa.int64())}),
            batch_format="pyarrow", zero_copy_batch=True)
        out_fk.append(fk)
        out_n.append(ch.count())
        out_o.append(hash_join(ch, par, on="key", how="anti").count())
    return pd.DataFrame({"fk": out_fk,
                         "n_child": pd.array(out_n, dtype="int64"),
                         "n_orphans": pd.array(out_o, dtype="int64")})


# ---------------------------------------------------------------------------
# events_crosscorr — lead-lag detection: Pearson correlation between
# the click and purchase daily-count series at lags −3..+3.

_XC_A, _XC_B = "click", "purchase"
_XC_LAGS = 3


SQL_EVENTS_CROSSCORR = f"""
WITH a AS (
  SELECT epoch_us(ts) // {_DAY_US} AS d, CAST(count(*) AS BIGINT) AS c
  FROM events WHERE event_type = '{_XC_A}' GROUP BY 1
),
b AS (
  SELECT epoch_us(ts) // {_DAY_US} AS d, CAST(count(*) AS BIGINT) AS c
  FROM events WHERE event_type = '{_XC_B}' GROUP BY 1
)
SELECT k AS lag, CAST(count(*) AS BIGINT) AS n, round(corr(a.c, b.c), 5) AS xcorr
FROM generate_series(-{_XC_LAGS}, {_XC_LAGS}) t(k)
CROSS JOIN a JOIN b ON b.d = a.d + k
GROUP BY k ORDER BY k
"""


@entry("events_crosscorr", sql=SQL_EVENTS_CROSSCORR)
def q_events_crosscorr(sf_dir: str) -> pd.DataFrame:
    """Does purchase volume follow click volume?  corr(a[d], b[d+k])
    for k ∈ [−3, 3] over days where both series exist.  Scale shape:
    one per-type daily combiner; the 7 lag correlations run on the
    driver over the ≤ #days grid."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    ab = pa.array([_XC_A, _XC_B])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b["event_type"], value_set=ab))
        t = pa.table({"event_type": t["event_type"], "day": _ts_day(t["ts"])})
        g = t.group_by(["event_type", "day"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "day", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by(["event_type", "day"]).aggregate([("n", "sum")]).to_pandas()
    a = m[m["event_type"] == _XC_A].set_index("day")["n_sum"]
    b = m[m["event_type"] == _XC_B].set_index("day")["n_sum"]
    out_k, out_n, out_r = [], [], []
    for k in range(-_XC_LAGS, _XC_LAGS + 1):
        bd = b.copy()
        bd.index = bd.index - k  # b at day d+k aligned to a at day d
        j = pd.concat([a, bd], axis=1, join="inner")
        x = j.iloc[:, 0].to_numpy(dtype=np.float64)
        y = j.iloc[:, 1].to_numpy(dtype=np.float64)
        out_k.append(k)
        out_n.append(len(x))
        out_r.append(round_half_away(float(np.corrcoef(x, y)[0, 1]), 5) if len(x) > 1 else None)
    return pd.DataFrame({"lag": pd.array(out_k, dtype="int64"),
                         "n": pd.array(out_n, dtype="int64"),
                         "xcorr": out_r})


# ---------------------------------------------------------------------------
# events_binseg — binary-segmentation changepoint: the split of the
# daily mean-value series minimizing total two-segment SSE.


SQL_EVENTS_BINSEG = f"""
WITH d AS (
  SELECT epoch_us(ts) // {_DAY_US} AS day, avg(value) AS x
  FROM events WHERE value IS NOT NULL GROUP BY 1
),
w AS (
  SELECT day, row_number() OVER (ORDER BY day) AS i,
         sum(x) OVER (ORDER BY day) AS cs,
         sum(x * x) OVER (ORDER BY day) AS css,
         sum(x) OVER () AS ts, sum(x * x) OVER () AS tss,
         count(*) OVER () AS n
  FROM d
),
c AS (
  SELECT day, (css - cs * cs / i) + ((tss - css) - (ts - cs) * (ts - cs) / (n - i)) AS sse
  FROM w WHERE i < n
)
SELECT CAST(day AS BIGINT) AS split_day, round(sse, 4) AS sse
FROM c ORDER BY sse ASC, day ASC LIMIT 1
"""


@entry("events_binseg", sql=SQL_EVENTS_BINSEG)
def q_events_binseg(sf_dir: str) -> pd.DataFrame:
    """First step of binary segmentation: over splits s (left = first
    s days), SSE(s) = Σx²_L − (Σx_L)²/s + Σx²_R − (Σx_R)²/(n−s); the
    changepoint is the argmin (earliest on ties), reported as the last
    left day.  Scale shape: daily grid from the shared combiner; the
    prefix-sum scan is ≤ #days on the driver."""
    d = _daily_value_partials(sf_dir).to_pandas()
    d = d[d["nv"] > 0].sort_values("day")
    x = (d["sv"] / d["nv"]).to_numpy(dtype=np.float64)
    days = d["day"].to_numpy(dtype=np.int64)
    n = len(x)
    cs = np.cumsum(x)
    css = np.cumsum(x * x)
    s = np.arange(1, n)
    sse = (css[s - 1] - cs[s - 1] ** 2 / s) \
        + ((css[-1] - css[s - 1]) - (cs[-1] - cs[s - 1]) ** 2 / (n - s))
    k = int(np.argmin(sse))
    return pd.DataFrame({"split_day": pd.array([int(days[k])], dtype="int64"),
                         "sse": [round_half_away(float(sse[k]), 4)]})


# ---------------------------------------------------------------------------
# events_survival_km — Kaplan–Meier curve of days from a user's FIRST
# event to their SECOND, right-censoring single-event users at the end
# of the corpus (the activation-latency survival audit).


SQL_EVENTS_SURVIVAL_KM = f"""
WITH u AS (SELECT user_id, min(ts) AS t1 FROM events GROUP BY 1),
u2 AS (SELECT e.user_id, min(e.ts) AS t2
       FROM events e JOIN u ON u.user_id = e.user_id AND e.ts > u.t1 GROUP BY 1),
mx AS (SELECT max(epoch_us(ts)) // {_DAY_US} AS mxd FROM events),
obs AS (
  SELECT u.user_id,
         CASE WHEN u2.t2 IS NOT NULL
              THEN epoch_us(u2.t2) // {_DAY_US} - epoch_us(u.t1) // {_DAY_US}
              ELSE (SELECT mxd FROM mx) - epoch_us(u.t1) // {_DAY_US} END AS tt,
         CASE WHEN u2.t2 IS NOT NULL THEN 1 ELSE 0 END AS ev
  FROM u LEFT JOIN u2 ON u2.user_id = u.user_id
),
et AS (SELECT tt AS t, CAST(sum(ev) AS BIGINT) AS d FROM obs GROUP BY 1 HAVING sum(ev) > 0),
rk AS (SELECT t, d, (SELECT CAST(count(*) AS BIGINT) FROM obs WHERE tt >= et.t) AS r FROM et)
SELECT CAST(t AS BIGINT) AS t_day, r AS at_risk, d AS n_events,
       round(CASE WHEN d = r THEN 0.0
                  ELSE exp(sum(CASE WHEN d < r THEN ln(1.0 - d * 1.0 / r) ELSE 0.0 END)
                           OVER (ORDER BY t)) END, 5) AS survival
FROM rk ORDER BY t
"""


@entry("events_survival_km", sql=SQL_EVENTS_SURVIVAL_KM)
def q_events_survival_km(sf_dir: str) -> pd.DataFrame:
    """S(t) = Π_{tᵢ≤t} (1 − dᵢ/rᵢ) over event gaps in days; users who
    never fire a second event are censored at (corpus max day − their
    first day).  Scale shape: one coarse user shuffle, per-part
    vectorized first/second extraction, a (gap, event-flag) count grid
    (≤ 2×#days rows) to the driver for the KM product."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def to_us(b: pa.Table) -> pd.DataFrame:
        return pa.table({"user_id": b["user_id"],
                         "us": b["ts"].cast(pa.int64())}).to_pandas()

    def per_part(g: pd.DataFrame, _mx=None) -> pd.DataFrame:
        g = g.sort_values(["user_id", "us"])
        u = g["user_id"].to_numpy()
        us = g["us"].to_numpy(dtype=np.int64)
        first = np.concatenate([[True], u[1:] != u[:-1]])
        fidx = np.flatnonzero(first)
        t1 = us[fidx]
        # first strictly-later timestamp per user — fully vectorized:
        # among indices where ts > run's t1, the first per run is the
        # searchsorted insertion point of each run start
        ends = np.concatenate([fidx[1:], [len(u)]])
        later_idx = np.flatnonzero(us > np.repeat(t1, ends - fidx))
        t2 = np.full(len(fidx), -1, dtype=np.int64)
        if len(later_idx):
            pos = np.searchsorted(later_idx, fidx, side="left")
            cand = later_idx[np.minimum(pos, len(later_idx) - 1)]
            hit = (pos < len(later_idx)) & (cand < ends)
            t2[hit] = us[cand[hit]]
        d1 = t1 // _DAY_US
        ev = t2 >= 0
        tt = np.where(ev, t2 // _DAY_US - d1, 0)
        return pd.DataFrame({"d1": d1, "tt": tt, "ev": ev.astype("int64")})

    rows = ds.map_batches(to_us, batch_format="pyarrow", zero_copy_batch=True)
    obs = _collect(map_key_buckets(rows, ["user_id"], per_part)).to_pandas()
    mxd = int(read_table(f"{sf_dir}/events.parquet", columns=["ts"]).map_batches(
        lambda b: pa.table({"m": pa.array([pc.max(b["ts"]).cast(pa.int64()).as_py()])}),
        batch_format="pyarrow").max("m")) // _DAY_US
    tt = np.where(obs["ev"].to_numpy() == 1, obs["tt"].to_numpy(),
                  mxd - obs["d1"].to_numpy())
    ev = obs["ev"].to_numpy(dtype=np.int64)
    times = np.sort(np.unique(tt[ev == 1]))
    out_t, out_r, out_d, out_s = [], [], [], []
    surv = 1.0
    for t in times:
        r = int((tt >= t).sum())
        dd = int(((tt == t) & (ev == 1)).sum())
        surv = 0.0 if dd == r else surv * (1.0 - dd / r)
        out_t.append(int(t))
        out_r.append(r)
        out_d.append(dd)
        out_s.append(round_half_away(surv, 5))
    return pd.DataFrame({"t_day": pd.array(out_t, dtype="int64"),
                         "at_risk": pd.array(out_r, dtype="int64"),
                         "n_events": pd.array(out_d, dtype="int64"),
                         "survival": out_s})


# ---------------------------------------------------------------------------
# seq_token_gini — vocabulary concentration: Gini of the token
# frequency distribution over the tokenized corpus.


SQL_SEQ_TOKEN_GINI = f"""
WITH f AS (SELECT unnest(tokens) AS tok FROM {SEQ_SQL}),
g AS (SELECT tok, CAST(count(*) AS BIGINT) AS n FROM f GROUP BY 1),
r AS (SELECT n, row_number() OVER (ORDER BY n) AS i FROM g)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM g) AS vocab,
       CAST(sum(n) AS BIGINT) AS total_tokens,
       round(2.0 * sum(i * n) / (count(*) * sum(n)) - (count(*) + 1.0) / count(*), 5) AS gini
FROM r
"""


@entry("seq_token_gini", sql=SQL_SEQ_TOKEN_GINI)
def q_seq_token_gini(sf_dir: str) -> pd.DataFrame:
    """How concentrated is token mass?  Gini over per-token counts
    (rank-weighted identity).  Scale shape: per-batch flatten +
    bincount-unique partials, one vocab-bounded group_by merge
    (≤ vocab rows per block — the BPE-counting assumption); the sorted
    scan is driver-side over the vocab."""
    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])

    def partial(b: pa.Table) -> pa.Table:
        col = b["tokens"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        tok, n = np.unique(flat, return_counts=True)
        return pa.table({"tok": pa.array(tok.astype(np.int64)),
                         "n": pa.array(n.astype(np.int64))})

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("tok").aggregate([("n", "sum")])
    x = np.sort(m["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64))
    n = len(x)
    num = int((np.arange(1, n + 1, dtype=np.int64) * x).sum())
    tot = int(x.sum())
    gini = 2.0 * num / (n * tot) - (n + 1.0) / n
    return pd.DataFrame({"vocab": pd.array([n], dtype="int64"),
                         "total_tokens": pd.array([tot], dtype="int64"),
                         "gini": [round_half_away(float(gini), 5)]})


# ---------------------------------------------------------------------------
# orders_runs_test — Wald–Wolfowitz runs test for randomness of the
# daily order-count series around its median.


SQL_ORDERS_RUNS_TEST = f"""
WITH d AS (
  SELECT epoch_us(o_orderdate) // {_DAY_US} AS day, CAST(count(*) AS BIGINT) AS c
  FROM orders GROUP BY 1
),
m AS (SELECT quantile_disc(c, 0.5) AS md FROM d),
s AS (SELECT day, CASE WHEN c > (SELECT md FROM m) THEN 1 ELSE 0 END AS side
      FROM d WHERE c <> (SELECT md FROM m)),
r AS (SELECT side, lag(side) OVER (ORDER BY day) AS ps FROM s),
agg AS (
  SELECT CAST(count(*) FILTER (WHERE side = 1) AS BIGINT) AS n1,
         CAST(count(*) FILTER (WHERE side = 0) AS BIGINT) AS n0,
         CAST(1 + count(*) FILTER (WHERE ps IS NOT NULL AND side <> ps) AS BIGINT) AS runs
  FROM r
)
SELECT n1 AS n_above, n0 AS n_below, runs,
       round((runs - (2.0*n1*n0/(n1+n0) + 1.0))
             / sqrt(2.0*n1*n0*(2.0*n1*n0 - n1 - n0)
                    / ((n1+n0)*(n1+n0)*(n1+n0-1.0))), 4) AS z
FROM agg
"""


@entry("orders_runs_test", sql=SQL_ORDERS_RUNS_TEST)
def q_orders_runs_test(sf_dir: str) -> pd.DataFrame:
    """Is daily order volume serially random?  Runs of above/below the
    (discrete) median — ties at the median dropped, z against the
    exact run-count moments.  Scale shape: a ≤ #days daily combiner;
    the run walk is driver-side.  Median uses the quantile_disc rule
    (sorted[max(ceil(q·n)−1, 0)]) shared with exact_discrete_quantiles."""
    ds = read_table(f"{sf_dir}/orders.parquet", columns=["o_orderdate"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"day": _ts_day(b["o_orderdate"])})
        g = t.group_by("day").aggregate([([], "count_all")])
        return g.rename_columns(["day", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("day").aggregate([("n", "sum")]).sort_by("day").to_pandas()
    c = m["n_sum"].to_numpy(dtype=np.int64)
    srt = np.sort(c)
    md = int(srt[max(int(np.ceil(0.5 * len(srt))) - 1, 0)])
    side = c[c != md] > md
    n1 = int(side.sum())
    n0 = int(len(side) - n1)
    runs = int(1 + (side[1:] != side[:-1]).sum()) if len(side) else 0
    mu = 2.0 * n1 * n0 / (n1 + n0) + 1.0
    var = (2.0 * n1 * n0 * (2.0 * n1 * n0 - n1 - n0)
           / ((n1 + n0) ** 2 * (n1 + n0 - 1.0)))
    z = (runs - mu) / np.sqrt(var)
    return pd.DataFrame({"n_above": pd.array([n1], dtype="int64"),
                         "n_below": pd.array([n0], dtype="int64"),
                         "runs": pd.array([runs], dtype="int64"),
                         "z": [round_half_away(float(z), 4)]})


# ---------------------------------------------------------------------------
# emb_silhouette — centroid-based (simplified) silhouette per label:
# a = distance to own centroid, b = nearest other centroid,
# s = (b − a) / max(a, b).


SQL_EMB_SILHOUETTE = """
WITH e AS (
  SELECT vec_id, label, unnest(embedding) AS x,
         generate_subscripts(embedding, 1) AS i
  FROM embeddings
),
c AS (SELECT label AS cl, i, avg(x) AS cx FROM e GROUP BY 1, 2),
d AS (
  SELECT e.vec_id, e.label, c.cl, sqrt(sum((e.x - c.cx) * (e.x - c.cx))) AS dist
  FROM e JOIN c ON c.i = e.i
  GROUP BY 1, 2, 3
),
s AS (
  SELECT vec_id, label,
         min(CASE WHEN cl = label THEN dist END) AS a,
         min(CASE WHEN cl <> label THEN dist END) AS b
  FROM d GROUP BY 1, 2
)
SELECT CAST(label AS BIGINT) AS label, CAST(count(*) AS BIGINT) AS n,
       round(avg((b - a) / greatest(a, b)), 5) AS silhouette
FROM s GROUP BY 1 ORDER BY 1
"""


@entry("emb_silhouette", sql=SQL_EMB_SILHOUETTE)
def q_emb_silhouette(sf_dir: str) -> pd.DataFrame:
    """Cluster-quality audit of the label partition: mean simplified
    silhouette per label.  Scale shape: pass 1 is a (label × dim)
    vector-sum combiner; pass 2 broadcasts the ≤ labels × dim centroid
    matrix and emits per-label (Σs, n) partials — nothing corpus-sized
    anywhere."""
    import ray

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["embedding", "label"])

    def _mat(col) -> np.ndarray:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.float64)
        return flat.reshape(len(col), -1)

    def sums(b: pa.Table) -> pa.Table:
        m = _mat(b["embedding"])
        lab = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        ul = np.unique(lab)
        rows = []
        for l in ul:
            sel = m[lab == l]
            rows.append((int(l), sel.sum(axis=0), len(sel)))
        d = m.shape[1]
        vec = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (len(rows) + 1) * d, d, dtype=np.int64), type=pa.int32()),
            pa.array(np.concatenate([r[1] for r in rows]) if rows else np.empty(0)))
        return pa.table({"label": pa.array([r[0] for r in rows], type=pa.int64()),
                         "vsum": vec,
                         "cnt": pa.array([r[2] for r in rows], type=pa.int64())})

    parts = _collect(ds.map_batches(sums, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()
    labels = sorted(parts["label"].unique())
    cents = {}
    for l in labels:
        sel = parts[parts["label"] == l]
        tot = np.sum(np.stack(sel["vsum"].to_numpy()), axis=0)
        cents[l] = tot / sel["cnt"].sum()
    lab_arr = np.asarray(labels, dtype=np.int64)
    cmat = np.stack([cents[l] for l in labels])
    ref = ray.put((lab_arr, cmat)) if ray.is_initialized() else (lab_arr, cmat)

    class _Sil:
        def __init__(self):
            self._c = None

        def __call__(self, b: pa.Table) -> pa.Table:
            if self._c is None:
                self._c = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            la, cm = self._c
            m = _mat(b["embedding"])
            lab = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
            # squared distances to every centroid: (n, L)
            d2 = ((m[:, None, :] - cm[None, :, :]) ** 2).sum(axis=2)
            dist = np.sqrt(d2)
            own_idx = np.searchsorted(la, lab)
            a = dist[np.arange(len(lab)), own_idx]
            masked = dist.copy()
            masked[np.arange(len(lab)), own_idx] = np.inf
            bb = masked.min(axis=1)
            s = (bb - a) / np.maximum(a, bb)
            t = pa.table({"label": pa.array(lab), "s": pa.array(s)})
            g = t.group_by("label").aggregate([("s", "sum"), ([], "count_all")])
            return g.rename_columns(["label", "ssum", "n"])

    m2 = _collect(ds.map_batches(_Sil(), batch_format="pyarrow")).to_pandas() \
        .groupby("label", as_index=False).sum().sort_values("label")
    return pd.DataFrame({"label": m2["label"].astype("int64").to_numpy(),
                         "n": m2["n"].astype("int64").to_numpy(),
                         "silhouette": round_half_away(m2["ssum"] / m2["n"], 5)}).reset_index(drop=True)


# ---------------------------------------------------------------------------
# customer_cramers_v — strength of association between market segment
# and nation (χ² normalized to [0,1]).


SQL_CUSTOMER_CRAMERS_V = """
WITH g AS (
  SELECT c_mktsegment AS seg, c_nationkey AS nat, CAST(count(*) AS BIGINT) AS n
  FROM customer GROUP BY 1, 2
),
rs AS (SELECT seg, sum(n) AS rn FROM g GROUP BY 1),
cs AS (SELECT nat, sum(n) AS cn FROM g GROUP BY 1),
t AS (SELECT sum(n) AS tot FROM g),
dims AS (SELECT (SELECT count(*) FROM rs) AS r, (SELECT count(*) FROM cs) AS c),
cells AS (
  SELECT coalesce(g.n, 0) AS o, rs.rn * cs.cn / (SELECT tot FROM t) AS e
  FROM rs CROSS JOIN cs
  LEFT JOIN g ON g.seg = rs.seg AND g.nat = cs.nat
)
SELECT (SELECT CAST(tot AS BIGINT) FROM t) AS n,
       round(sum((o - e) * (o - e) / e), 4) AS chi2,
       round(sqrt(sum((o - e) * (o - e) / e)
                  / ((SELECT tot FROM t) * (least((SELECT r FROM dims), (SELECT c FROM dims)) - 1))), 5) AS cramers_v
FROM cells
"""


@entry("customer_cramers_v", sql=SQL_CUSTOMER_CRAMERS_V)
def q_customer_cramers_v(sf_dir: str) -> pd.DataFrame:
    """Cramér's V = √(χ²/(n·(min(r,c)−1))) over the segment × nation
    contingency table.  Scale shape: a ≤ (segments × nations) count
    combiner; the χ² double sum is driver-side over the grid."""
    ds = read_table(f"{sf_dir}/customer.parquet", columns=["c_mktsegment", "c_nationkey"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["c_mktsegment", "c_nationkey"]).aggregate([([], "count_all")])
        return g.rename_columns(["seg", "nat", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by(["seg", "nat"]).aggregate([("n", "sum")]).to_pandas()
    piv = m.pivot(index="seg", columns="nat", values="n_sum").fillna(0).to_numpy(dtype=np.float64)
    n = piv.sum()
    e = piv.sum(axis=1, keepdims=True) @ piv.sum(axis=0, keepdims=True) / n
    chi2 = float(((piv - e) ** 2 / e).sum())
    v = np.sqrt(chi2 / (n * (min(piv.shape) - 1)))
    return pd.DataFrame({"n": pd.array([int(n)], dtype="int64"),
                         "chi2": [round_half_away(chi2, 4)],
                         "cramers_v": [round_half_away(float(v), 5)]})


# ---------------------------------------------------------------------------
# doc_lognormal_fit — per-source lognormal fit of document lengths by
# moment matching on ln(n_chars): μ̂ = mean, σ̂ = sample std.


SQL_DOC_LOGNORMAL_FIT = """
WITH g AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n,
         sum(ln(n_chars)) AS s1, sum(ln(n_chars) * ln(n_chars)) AS s2
  FROM documents WHERE n_chars > 0 GROUP BY 1
)
SELECT source, n, round(s1 / n, 5) AS mu,
       round(sqrt((s2 - s1 * s1 / n) / (n - 1)), 5) AS sigma
FROM g ORDER BY source
"""


@entry("doc_lognormal_fit", sql=SQL_DOC_LOGNORMAL_FIT)
def q_doc_lognormal_fit(sf_dir: str) -> pd.DataFrame:
    """Length-distribution parametric audit: documents' n_chars are
    classically lognormal-ish; fit (μ, σ) per source from (n, Σln x,
    Σln²x) power sums.  Scale shape: a ≤ #sources combiner; scalars on
    the driver."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater(b["n_chars"], 0))
        lx = np.log(t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64))
        tt = pa.table({"source": t["source"], "lx": pa.array(lx),
                       "lx2": pa.array(lx * lx)})
        g = tt.group_by("source").aggregate([("lx", "sum"), ("lx2", "sum"), ([], "count_all")])
        return g.rename_columns(["source", "s1", "s2", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("source").aggregate([("s1", "sum"), ("s2", "sum"), ("n", "sum")]) \
        .sort_by("source").to_pandas()
    n = m["n_sum"].to_numpy(dtype=np.float64)
    s1 = m["s1_sum"].to_numpy()
    s2 = m["s2_sum"].to_numpy()
    mu = s1 / n
    sigma = np.sqrt((s2 - s1 * s1 / n) / (n - 1))
    return pd.DataFrame({"source": m["source"].to_numpy(),
                         "n": pd.array(n.astype(np.int64), dtype="int64"),
                         "mu": round_half_away(mu, 5),
                         "sigma": round_half_away(sigma, 5)})

