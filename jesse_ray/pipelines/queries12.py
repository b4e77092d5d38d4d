"""Catalog wave 12: entity-rhythm, vocabulary-growth, extreme-value and
manifold audits — per-customer inter-order CV, the Heaps vocabulary
growth curve, a Gumbel block-maxima fit, and the TwoNN intrinsic-
dimension estimate of the embedding manifold (Facco et al., 2017)
riding the distributed exact k-NN graph.

Same driver contract as :mod:`.queries`: bounded combiner grids,
driver math only on the grid, column names match the twin."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, entry
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.rounding import round_half_away


_DAY_US = 86400000000


# ---------------------------------------------------------------------------
# orders_interorder_cv — per-customer ordering rhythm: coefficient of
# variation of inter-order gaps, averaged over regular customers.


SQL_ORDERS_INTERORDER_CV = f"""
WITH o AS (
  SELECT o_custkey, epoch_us(o_orderdate) // {_DAY_US} AS day FROM orders
),
g AS (
  SELECT o_custkey,
         day - lag(day) OVER (PARTITION BY o_custkey ORDER BY day) AS gap
  FROM o
),
c AS (
  SELECT o_custkey, count(gap) AS n, avg(gap) AS mu, stddev_pop(gap) AS sd
  FROM g WHERE gap IS NOT NULL GROUP BY 1
  HAVING count(gap) >= 3 AND avg(gap) > 0
)
SELECT CAST(count(*) AS BIGINT) AS n_customers,
       round(avg(sd / mu), 5) AS mean_cv
FROM c
"""


@entry("orders_interorder_cv", sql=SQL_ORDERS_INTERORDER_CV)
def q_orders_interorder_cv(sf_dir: str) -> pd.DataFrame:
    """Mean CV (σ_pop/μ) of per-customer inter-order day gaps over
    customers with ≥ 3 gaps — CV ≈ 1 is memoryless ordering, < 1
    regular, > 1 bursty.  Scale shape: one customer-hash shuffle,
    per-part sort + diff per customer slice, a (customer → n, Σg, Σg²)
    partial; the driver averages the bounded customer grid... the
    per-part output is already one row per customer, summed here."""
    ds = read_table(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"])

    def to_day(b: pa.Table) -> pd.DataFrame:
        return pa.table({"o_custkey": b["o_custkey"],
                         "day": pc.divide(pc.cast(b["o_orderdate"], pa.int64()),
                                          _DAY_US)}).to_pandas()

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_custkey", "day"])
        k = g["o_custkey"].to_numpy(dtype=np.int64)
        d = g["day"].to_numpy(dtype=np.int64)
        gap = np.diff(d).astype(np.float64)
        same = k[1:] == k[:-1]
        gap, gk = gap[same], k[1:][same]
        out = pd.DataFrame({"k": gk, "gap": gap, "gap2": gap * gap}) \
            .groupby("k").agg(n=("gap", "count"), mu=("gap", "mean"),
                              s2=("gap2", "mean"))
        out["sd"] = np.sqrt(np.maximum(out["s2"] - out["mu"] ** 2, 0.0))
        out = out[(out["n"] >= 3) & (out["mu"] > 0)]
        return pd.DataFrame({"cv": (out["sd"] / out["mu"]).to_numpy(),
                             "one": np.ones(len(out), dtype=np.int64)})

    rows = ds.map_batches(to_day, batch_format="pyarrow", zero_copy_batch=True)
    m = _collect(map_key_buckets(rows, ["o_custkey"], per_part)).to_pandas()
    return pd.DataFrame({"n_customers": pd.array([int(m["one"].sum())], dtype="int64"),
                         "mean_cv": [round_half_away(float(m["cv"].mean()), 5)]})


# ---------------------------------------------------------------------------
# seq_heaps_curve — Heaps-law vocabulary growth: distinct tokens seen
# within the first m documents, from a (token → first-doc) combiner.

_HEAPS_STEP = 2500
_HEAPS_MAX = 20000


SQL_SEQ_HEAPS_CURVE = f"""
WITH e AS (
  SELECT CAST(substr(doc_id, 5) AS BIGINT) AS k, unnest(tokens) AS tok
  FROM {SEQ_SQL} WHERE doc_id IS NOT NULL
),
f AS (SELECT tok, min(k) AS first_doc FROM e GROUP BY 1)
SELECT m, CAST(count(*) FILTER (WHERE first_doc < m) AS BIGINT) AS vocab
FROM generate_series({_HEAPS_STEP}, {_HEAPS_MAX}, {_HEAPS_STEP}) t(m), f
GROUP BY m ORDER BY m
"""


@entry("seq_heaps_curve", sql=SQL_SEQ_HEAPS_CURVE)
def q_seq_heaps_curve(sf_dir: str) -> pd.DataFrame:
    """Vocabulary growth V(m) = #tokens whose FIRST document (by
    numeric id) precedes milestone m — the Heaps-law curve, whose
    log-log slope is the vocabulary exponent.  Scale shape: a (token →
    min numeric doc id) combiner (vocab-bounded), milestone counting
    on the driver grid; null doc ids are excluded (no identity)."""
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens"])

    def partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_valid(b["doc_id"]))
        col = b["tokens"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.int64)
        counts = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        keys = pc.cast(pc.utf8_slice_codeunits(b["doc_id"], 4, 99), pa.int64()) \
            .to_numpy(zero_copy_only=False)
        seg = np.repeat(keys, counts)
        order = np.lexsort((seg, flat))
        f2, s2 = flat[order], seg[order]
        first = np.concatenate([[True], f2[1:] != f2[:-1]]) if len(f2) else np.empty(0, bool)
        return pa.table({"tok": pa.array(f2[first]), "first_doc": pa.array(s2[first])})

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("tok").aggregate([("first_doc", "min")])
    fd = m["first_doc_min"].to_numpy(zero_copy_only=False).astype(np.int64)
    ms = np.arange(_HEAPS_STEP, _HEAPS_MAX + 1, _HEAPS_STEP, dtype=np.int64)
    vocab = (fd[None, :] < ms[:, None]).sum(axis=1).astype(np.int64)
    return pd.DataFrame({"m": pd.array(ms, dtype="int64"),
                         "vocab": pd.array(vocab, dtype="int64")})


# ---------------------------------------------------------------------------
# events_gumbel_maxima — extreme-value audit: method-of-moments Gumbel
# fit to the daily block maxima of `value`.


SQL_EVENTS_GUMBEL_MAXIMA = f"""
WITH d AS (
  SELECT epoch_us(ts) // {_DAY_US} AS day, max(value) AS mx
  FROM events WHERE value IS NOT NULL GROUP BY 1
),
m AS (SELECT count(*) AS n, avg(mx) AS mu, stddev_samp(mx) AS sd FROM d)
SELECT CAST(n AS BIGINT) AS n_days,
       round(sd * sqrt(6) / pi(), 5) AS beta,
       round(mu - 0.57721566490153286 * (sd * sqrt(6) / pi()), 5) AS loc
FROM m
"""


@entry("events_gumbel_maxima", sql=SQL_EVENTS_GUMBEL_MAXIMA)
def q_events_gumbel_maxima(sf_dir: str) -> pd.DataFrame:
    """Daily maxima of ``value`` fit to Gumbel(μ, β) by moments:
    β̂ = s·√6/π, μ̂ = x̄ − γ·β̂ (γ = Euler–Mascheroni) — the EVT screen
    for 'how extreme can a day get'.  Scale shape: a per-day max
    combiner; two scalars on the driver."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["ts", "value"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["value"]))
        tt = pa.table({"day": pc.divide(pc.cast(t["ts"], pa.int64()), _DAY_US),
                       "v": t["value"]})
        g = tt.group_by("day").aggregate([("v", "max")])
        return g.rename_columns(["day", "mx"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("day").aggregate([("mx", "max")])
    x = m["mx_max"].to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(x)
    sd = x.std(ddof=1)
    beta = sd * np.sqrt(6.0) / np.pi
    loc = x.mean() - 0.57721566490153286 * beta
    return pd.DataFrame({"n_days": pd.array([n], dtype="int64"),
                         "beta": [round_half_away(float(beta), 5)],
                         "loc": [round_half_away(float(loc), 5)]})


# ---------------------------------------------------------------------------
# emb_intrinsic_dim — TwoNN intrinsic dimension (Facco et al. 2017):
# d̂ = n / Σ ln(r₂/r₁) over each vector's two nearest neighbors.  On
# unit-normalized vectors r = √(2−2s), so ln(r₂/r₁) = ½·ln((1−s₂)/(1−s₁))
# comes straight from the cosine k-NN graph.


SQL_EMB_INTRINSIC_DIM = """
WITH e AS (
  SELECT vec_id, unnest(embedding) AS x, generate_subscripts(embedding, 1) AS i
  FROM embeddings
),
nrm AS (SELECT vec_id, sqrt(sum(x * x)) AS nv FROM e GROUP BY 1),
u AS (SELECT e.vec_id, e.i, e.x / nrm.nv AS x FROM e JOIN nrm ON nrm.vec_id = e.vec_id),
d AS (
  SELECT a.vec_id AS va, b.vec_id AS vb, sum(a.x * b.x) AS s
  FROM u a JOIN u b ON a.i = b.i AND a.vec_id <> b.vec_id
  GROUP BY 1, 2
),
r AS (SELECT va, s, row_number() OVER (PARTITION BY va ORDER BY s DESC, vb ASC) AS rn FROM d),
p AS (
  SELECT va, max(CASE WHEN rn = 1 THEN s END) AS s1,
         max(CASE WHEN rn = 2 THEN s END) AS s2
  FROM r WHERE rn <= 2 GROUP BY 1
)
SELECT CAST(count(*) AS BIGINT) AS n,
       round(count(*) / sum(0.5 * ln((1 - s2) / (1 - s1))), 4) AS intrinsic_dim
FROM p WHERE s1 < 1.0 - 1e-9
"""


@entry("emb_intrinsic_dim", sql=SQL_EMB_INTRINSIC_DIM)
def q_emb_intrinsic_dim(sf_dir: str) -> pd.DataFrame:
    """Manifold-dimension audit of the embedding cloud: the TwoNN MLE
    from each vector's two nearest cosine neighbors (distributed exact
    k-NN graph, `similarity.knn_graph(k=2, emit_sim=True)`; vectors
    unit-normalized so cosine order == euclidean order).  Exact
    duplicates (s₁ ≈ 1) are excluded on both engines with the same
    guard.  Scale shape: the block-streaming k-NN (no O(n·d) driver
    allocation); the Σln is a per-batch partial."""
    from jesse_ray.functions.similarity import knn_graph

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    g = knn_graph(ds, k=2, emit_sim=True).to_pandas()
    piv = g.pivot(index="vec_id", columns="rank", values="sim")
    s1 = piv[1].to_numpy(dtype=np.float64)
    s2 = piv[2].to_numpy(dtype=np.float64)
    ok = s1 < 1.0 - 1e-9  # exclude exact-duplicate nearest neighbors
    terms = 0.5 * np.log((1.0 - s2[ok]) / (1.0 - s1[ok]))
    n = int(ok.sum())
    return pd.DataFrame({"n": pd.array([n], dtype="int64"),
                         "intrinsic_dim": [round_half_away(float(n / terms.sum()), 4)]})

