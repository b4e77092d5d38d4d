"""Catalog wave 24: ML-hygiene and sketch-certification operators —
group-aware k-fold assignment with a duplicate-leakage audit, AMS F2
(second frequency moment) with a certified exact emission, bipartite
butterfly counting over the user × event-type graph, and the TPC-H
Q15/Q19 shapes (argmax-with-ties top supplier; disjunctive predicate
revenue).

Same driver contract as :mod:`.queries`; currency/counters ride exact
int64 so emitted values are bit-identical to the DuckDB twins.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.rounding import round_half_away
from jesse_ray.sources import read_table

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


# ---------------------------------------------------------------------------
# doc_groupaware_folds — k-fold split that can NEVER leak duplicates
# across folds: the fold is assigned to the exact-dup GROUP (identical
# text), keyed by the group representative, so every member lands
# together.  Emits per-fold doc counts plus the leakage contrast: the
# number of dup groups a naive per-doc hash split would straddle.

FOLD_K = 5


SQL_DOC_GROUPAWARE_FOLDS = f"""
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/groupfolds_sigs_sf0.01.parquet')),
j AS (SELECT s.doc_id, s.fold, s.naive_fold, d.text
      FROM s JOIN documents d ON d.doc_id = s.doc_id),
ok AS (
  SELECT (SELECT count(*) FROM s) = (SELECT count(*) FROM documents)
     AND (SELECT count(DISTINCT doc_id) FROM s) = (SELECT count(*) FROM s)
     AND (SELECT count(*) FROM j) = (SELECT count(*) FROM s)
     AND (SELECT count(*) FROM s WHERE fold < 0 OR fold >= {FOLD_K}
                                    OR naive_fold < 0 OR naive_fold >= {FOLD_K}) = 0
     AND (SELECT count(*) FROM (
            SELECT coalesce(text, '') AS t FROM j GROUP BY 1
            HAVING count(DISTINCT fold) > 1)) = 0 AS good
),
straddle AS (
  SELECT CAST(count(*) AS BIGINT) AS n FROM (
    SELECT coalesce(text, '') AS t FROM j GROUP BY 1
    HAVING count(DISTINCT naive_fold) > 1)
)
SELECT fold, CAST(count(*) AS BIGINT) AS n_docs,
       (SELECT n FROM straddle) AS naive_straddled_groups
FROM s GROUP BY fold
HAVING (SELECT good FROM ok)
ORDER BY fold
"""


@entry("doc_groupaware_folds", sql=SQL_DOC_GROUPAWARE_FOLDS)
def q_doc_groupaware_folds(sf_dir: str) -> pd.DataFrame:
    """Group-aware split: one (text-hash)-keyed coarse shuffle computes
    each group's representative (min doc_id) and size; the fold is
    fmix64(representative) mod K, broadcast back over the corpus as a
    doc->fold sidecar.  The twin gates the ML-hygiene invariants on the
    sidecar — assignment is a permutation of the corpus, folds in
    range, and NO identical-text group straddles two fold values —
    then re-derives the per-fold counts and the naive-split straddle
    contrast entirely in SQL."""
    from jesse_ray.hashutil import fmix64, hash64_strings
    from jesse_ray.pipelines.queries import _sig_parquet_path

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def assign(b: pa.Table) -> pa.Table:
        ids = b["doc_id"]
        txt = b["text"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        th = hash64_strings(pc.fill_null(txt, "")).astype(np.uint64)
        naive = (fmix64(hash64_strings(ids).astype(np.uint64))
                 % np.uint64(FOLD_K)).astype(np.int64)
        return pa.table({"doc_id": b["doc_id"], "th": pa.array(th.view(np.int64)),
                         "naive_fold": pa.array(naive)})

    t = _collect(ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True))
    pdf = t.to_pandas()
    # group representative = min doc_id per text-hash (tiny grid at test
    # scale; at corpus scale this is one coarse (th)-hash shuffle)
    rep = pdf.groupby("th", as_index=False)["doc_id"].min().rename(
        columns={"doc_id": "rep"})
    reph = hash64_strings(pa.array(rep["rep"].astype(str))).astype(np.uint64)
    rep["fold"] = (fmix64(reph) % np.uint64(FOLD_K)).astype(np.int64)
    pdf = pdf.merge(rep[["th", "fold"]], on="th", how="left")
    side = pa.table({
        "doc_id": pa.array(pdf["doc_id"]),
        "fold": pa.array(pdf["fold"].astype("int64")),
        "naive_fold": pa.array(pdf["naive_fold"].astype("int64")),
    }).sort_by("doc_id")
    pq.write_table(side, _sig_parquet_path(sf_dir, "groupfolds"))
    out = (pdf.groupby("fold", as_index=False)
           .agg(n_docs=("doc_id", "size")))
    naive_straddle = int((pdf.groupby("th")["naive_fold"].nunique() > 1).sum())
    out["fold"] = out["fold"].astype("int64")
    out["n_docs"] = out["n_docs"].astype("int64")
    out["naive_straddled_groups"] = np.int64(naive_straddle)
    return out.sort_values("fold").reset_index(drop=True)


# ---------------------------------------------------------------------------
# events_ams_f2 — second frequency moment of user activity (the AMS
# sketch's target; Alon, Matias & Szegedy 1996).  The exact F2 is
# emitted (int64, SQL-checkable); the AMS estimate is computed from 64
# mergeable sign-hash estimators and ASSERTED to fall within the
# standard-error envelope — the sketch path is certified, the emission
# exact.

AMS_R = 64


SQL_EVENTS_AMS_F2 = """
SELECT CAST(sum(c * c) AS BIGINT) AS f2,
       CAST(count(*) AS BIGINT) AS n_users
FROM (SELECT user_id, CAST(count(*) AS BIGINT) AS c FROM events GROUP BY 1)
"""


@entry("events_ams_f2", sql=SQL_EVENTS_AMS_F2)
def q_events_ams_f2(sf_dir: str) -> pd.DataFrame:
    """Per-batch partials for BOTH paths in one pass: user-count grids
    (exact, entity-bounded) and the 64 AMS sign sums (Σ sign_j(u)·c_u —
    additive across batches, 64 int64 cells per batch).  Exact F2 folds
    the count grid through one coarse merge; the AMS median-of-means
    estimate must land within 4/sqrt(R/4) relative error (asserted), a
    ~0.5 rel bound at R=64."""
    from jesse_ray.hashutil import fmix64

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id"])

    def partial(b: pa.Table) -> pa.Table:
        uid = b["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        users, counts = np.unique(uid, return_counts=True)
        # AMS sign rows: sign_j(u) = +-1 from fmix64(u ^ salt_j) parity
        h = users.view(np.uint64)
        sgn_sums = np.empty(AMS_R, dtype=np.int64)
        for j in range(AMS_R):
            s = fmix64(h ^ (np.uint64(0xA076_1D64_78BD_642F) * np.uint64(j + 1)))
            sign = np.where((s & np.uint64(1)).astype(bool), 1, -1).astype(np.int64)
            sgn_sums[j] = int((sign * counts).sum())
        cnt_tbl = pa.table({"kind": pa.array(np.zeros(len(users), dtype=np.int64)),
                            "key": pa.array(users), "val": pa.array(counts.astype(np.int64))})
        ams_tbl = pa.table({"kind": pa.array(np.ones(AMS_R, dtype=np.int64)),
                            "key": pa.array(np.arange(AMS_R, dtype=np.int64)),
                            "val": pa.array(sgn_sums)})
        return pa.concat_tables([cnt_tbl, ams_tbl])

    # partials are entity-bounded (≤ users + 64 rows per batch): fold on
    # the driver instead of a full Ray sort-groupby
    merged = (_collect(ds.map_batches(partial, batch_format="pyarrow",
                                      zero_copy_batch=True))
              .to_pandas().groupby(["kind", "key"], as_index=False)["val"].sum()
              .rename(columns={"val": "v"}))
    cnts = merged.loc[merged["kind"] == 0, "v"].to_numpy(dtype=np.int64)
    f2 = int((cnts.astype(object) ** 2).sum())
    sj = merged.loc[merged["kind"] == 1].sort_values("key")["v"].to_numpy(dtype=np.float64)
    means = (sj ** 2).reshape(4, AMS_R // 4).mean(axis=1)
    est = float(np.median(means))
    if abs(est - f2) > 0.75 * f2:
        raise RuntimeError(
            f"AMS estimate {est:.3e} outside the certified envelope of exact {f2:.3e}")
    return pd.DataFrame({"f2": pd.array([f2], dtype="int64"),
                         "n_users": pd.array([len(cnts)], dtype="int64")})


# ---------------------------------------------------------------------------
# events_butterflies — butterfly (2x2 biclique) count of the bipartite
# user x event-type graph: the standard bipartite cohesion motif
# (Wang et al., VLDB 2019).  B = Σ_{t1<t2} C(co(t1,t2), 2) where
# co = #users active in both types.

SQL_EVENTS_BUTTERFLIES = """
WITH ut AS (SELECT DISTINCT user_id, event_type FROM events),
co AS (
  SELECT a.event_type AS t1, b.event_type AS t2, CAST(count(*) AS BIGINT) AS c
  FROM ut a JOIN ut b ON a.user_id = b.user_id AND a.event_type < b.event_type
  GROUP BY 1, 2
)
SELECT CAST(sum(c * (c - 1) / 2) AS BIGINT) AS butterflies,
       CAST(count(*) AS BIGINT) AS type_pairs
FROM co
"""


@entry("events_butterflies", sql=SQL_EVENTS_BUTTERFLIES)
def q_events_butterflies(sf_dir: str) -> pd.DataFrame:
    """Distinct (user, type) collapse (one combiner + merge), per-user
    type SETS folded into per-type-pair co-occurrence counts inside
    coarse user-hash parts (each user contributes C(deg,2) pairs; the
    pair domain is |types|² — tiny), then the butterfly sum is
    closed-form from the co-occurrence grid."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def dedup(b: pa.Table) -> pa.Table:
        return (b.group_by(["user_id", "event_type"]).aggregate([])
                .rename_columns(["user_id", "event_type"]))

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "event_type"])[["user_id", "event_type"]]
        # vectorized per-user type pairs: self-merge + ordered filter
        # (per-user degree is |types|-bounded, so the merge is ≤ deg² rows)
        m = g.merge(g, on="user_id")
        m = m[m["event_type_x"] < m["event_type_y"]]
        out = (m.groupby(["event_type_x", "event_type_y"], as_index=False)
               .size().rename(columns={"event_type_x": "t1",
                                       "event_type_y": "t2", "size": "co"}))
        out["co"] = out["co"].astype(np.int64)
        return out

    deduped = ds.map_batches(dedup, batch_format="pyarrow", zero_copy_batch=True)
    grid = (_collect(map_key_buckets(deduped, ["user_id"], pairs))
            .to_pandas().groupby(["t1", "t2"], as_index=False)["co"].sum())
    co = grid["co"].to_numpy(dtype=np.int64)
    butterflies = int((co * (co - 1) // 2).sum())
    return pd.DataFrame({"butterflies": pd.array([butterflies], dtype="int64"),
                         "type_pairs": pd.array([len(grid)], dtype="int64")})


# ---------------------------------------------------------------------------
# tpch_q15ish — top supplier(s) by revenue in a quarter (the Q15 view +
# argmax WITH ties).

Q15_LO, Q15_HI = "1996-01-01", "1996-04-01"


SQL_TPCH_Q15ISH = f"""
WITH r AS (
  SELECT l_suppkey,
         sum(CAST(round(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS rev
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  WHERE o_orderdate >= TIMESTAMP '{Q15_LO}' AND o_orderdate < TIMESTAMP '{Q15_HI}'
  GROUP BY 1
)
SELECT s_suppkey, s_name,
       round(CAST(rev AS DOUBLE) / 10000.0, 2) AS total_revenue
FROM r JOIN supplier ON s_suppkey = l_suppkey
WHERE rev = (SELECT max(rev) FROM r)
ORDER BY s_suppkey
"""


@entry("tpch_q15ish", sql=SQL_TPCH_Q15ISH)
def q_tpch_q15ish(sf_dir: str) -> pd.DataFrame:
    """Revenue per supplier over the quarter's lineitems in exact cents
    (grouped_agg combiners; the supplier grid is |supplier|-bounded),
    then the argmax-with-ties read off the grid and the 100-row
    supplier dimension merged driver-side."""
    from jesse_ray.pipelines.relational import grouped_agg, hash_join

    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_orderdate"])

    def owin(b: pa.Table) -> pa.Table:
        lo = pa.scalar(np.datetime64(Q15_LO, "us"), type=pa.timestamp("us"))
        hi = pa.scalar(np.datetime64(Q15_HI, "us"), type=pa.timestamp("us"))
        t = b.filter(pc.and_(pc.greater_equal(b["o_orderdate"], lo),
                             pc.less(b["o_orderdate"], hi)))
        return pa.table({"l_orderkey": t["o_orderkey"]})

    owin_ds = orders.map_batches(owin, batch_format="pyarrow", zero_copy_batch=True)
    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"])
    j = hash_join(li, owin_ds, on="l_orderkey", how="inner")

    def cents(b: pa.Table) -> pa.Table:
        ep = pc.cast(pc.round(pc.multiply(b["l_extendedprice"], 100.0)), pa.int64())
        dc = pc.cast(pc.round(pc.multiply(b["l_discount"], 100.0)), pa.int64())
        rev = pc.multiply(ep, pc.subtract(pa.scalar(100, type=pa.int64()), dc))
        return pa.table({"l_suppkey": b["l_suppkey"], "rev": rev})

    pre = j.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
    g = _collect(grouped_agg(pre, ["l_suppkey"], sums=["rev"],
                             count_alias=None)).to_pandas()
    mx = int(g["sum_rev"].max())
    top = g[g["sum_rev"] == mx].copy()
    supp = read_table(f"{sf_dir}/supplier.parquet",
                      columns=["s_suppkey", "s_name"]).to_pandas()
    top = top.merge(supp, left_on="l_suppkey", right_on="s_suppkey")
    out = pd.DataFrame({
        "s_suppkey": top["s_suppkey"].astype("int64"),
        "s_name": top["s_name"],
        "total_revenue": round_half_away(top["sum_rev"].to_numpy(np.float64) / 10000.0, 2),
    })
    return out.sort_values("s_suppkey").reset_index(drop=True)


# ---------------------------------------------------------------------------
# tpch_q19ish — disjunctive multi-predicate revenue (Q19's OR-of-ANDs
# brand x quantity bands).

Q19_BANDS = [("Brand#12", 1, 11), ("Brand#23", 10, 20), ("Brand#34", 20, 30)]


def _q19_sql() -> str:
    conds = " OR ".join(
        f"(p_brand = '{b}' AND CAST(round(l_quantity) AS BIGINT) BETWEEN {lo} AND {hi})"
        for b, lo, hi in Q19_BANDS)
    return f"""
SELECT round(CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS DOUBLE)
             / 10000.0, 2) AS revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE {conds}
"""


@entry("tpch_q19ish", sql=_q19_sql())
def q_tpch_q19ish(sf_dir: str) -> pd.DataFrame:
    """One lineitem⋈part hash join (part pre-filtered to the three
    brands), the OR-of-ANDs evaluated as one vectorized boolean
    reduction per batch, revenue in exact cents."""
    from jesse_ray.pipelines.relational import hash_join

    part = read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"])
    brands = [b for b, _, _ in Q19_BANDS]

    def bkeep(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b["p_brand"], value_set=pa.array(brands)))
        return pa.table({"l_partkey": t["p_partkey"], "p_brand": t["p_brand"]})

    bparts = part.map_batches(bkeep, batch_format="pyarrow", zero_copy_batch=True)
    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"])
    j = hash_join(li, bparts, on="l_partkey", how="inner")

    def gate(b: pa.Table) -> pa.Table:
        q = pc.cast(pc.round(b["l_quantity"]), pa.int64())
        m = None
        for brand, lo, hi in Q19_BANDS:
            cond = pc.and_(pc.equal(b["p_brand"], brand),
                           pc.and_(pc.greater_equal(q, pa.scalar(lo, type=pa.int64())),
                                   pc.less_equal(q, pa.scalar(hi, type=pa.int64()))))
            m = cond if m is None else pc.or_(m, cond)
        t = b.filter(m)
        ep = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)), pa.int64())
        dc = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)), pa.int64())
        return pa.table({"rev": pc.multiply(ep, pc.subtract(pa.scalar(100, type=pa.int64()), dc))})

    total = 0
    for b in (j.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)
              .iter_batches(batch_format="pyarrow")):
        s = pc.sum(b["rev"]).as_py()
        total += int(s) if s is not None else 0
    return pd.DataFrame({"revenue": pd.array(
        [round_half_away(float(total) / 10000.0, 2)], dtype="float64")})

