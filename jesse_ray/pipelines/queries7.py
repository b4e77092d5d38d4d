"""Catalog wave 7: robust/forensic statistics and sketch-quality audits
— Benford first-digit fraud screening, Kendall τ-b and Theil–Sen robust
trend on daily series, Welch's unequal-variance t-test, Gini activity
concentration, HHI + entropy source-mix audit, GROUPING SETS cube,
weighted median, a MinHash estimate-vs-exact error audit (how good is
the sketch the dedup pipeline trusts?), and a 2×2 odds-ratio audit.

Same driver contract as :mod:`.queries`: column names and rounding
match the DuckDB twin exactly; every query is scale-shaped — per-batch
combiners to bounded grids (digits ≤ 9, days, groups, score cells),
coarse hash shuffles only where a key must be co-located, broadcast
small sides; driver-side math only ever touches the bounded grid."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, _sig_parquet_path, entry
from jesse_ray.pipelines.queries6 import _daily_value_partials
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.rounding import round_half_away


# ---------------------------------------------------------------------------
# orders_benford — first-significant-digit distribution of o_totalprice
# vs Benford's law (the classic numeric-fabrication screen).


SQL_ORDERS_BENFORD = """
WITH x AS (
  SELECT CAST(floor(o_totalprice / power(10, floor(log10(o_totalprice)))) AS BIGINT) AS digit
  FROM orders WHERE o_totalprice > 0
)
SELECT digit, CAST(count(*) AS BIGINT) AS n,
       round(count(*) * 1.0 / (SELECT count(*) FROM x), 5) AS share,
       round(log10(1 + 1.0 / digit), 5) AS benford
FROM x GROUP BY 1 ORDER BY 1
"""


@entry("orders_benford_log10", sql=SQL_ORDERS_BENFORD)
def q_orders_benford(sf_dir: str) -> pd.DataFrame:
    """First-digit histogram of ``o_totalprice`` with the Benford
    expectation log10(1+1/d) alongside.  Scale shape: the per-batch
    partial is a ≤ 9-row digit histogram (pure numpy log10/floor —
    same libm as the twin), merged by one tiny group_by."""
    ds = read_table(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        x = b["o_totalprice"].to_numpy(zero_copy_only=False)
        x = x[np.isfinite(x) & (x > 0)]
        d = np.floor(x / np.power(10.0, np.floor(np.log10(x)))).astype(np.int64)
        dig, n = np.unique(d, return_counts=True)
        return pa.table({"digit": pa.array(dig), "n": pa.array(n.astype(np.int64))})

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("digit").aggregate([("n", "sum")]).sort_by("digit").to_pandas()
    total = int(m["n_sum"].sum())
    dig = m["digit"].to_numpy(dtype=np.int64)
    n = m["n_sum"].to_numpy(dtype=np.int64)
    return pd.DataFrame({
        "digit": pd.array(dig, dtype="int64"),
        "n": pd.array(n, dtype="int64"),
        "share": round_half_away(n * 1.0 / total, 5),
        "benford": round_half_away(np.log10(1.0 + 1.0 / dig), 5),
    })


# ---------------------------------------------------------------------------
# events_kendall_daily — Kendall τ-b between daily volume and daily mean
# value, exact integer concordant/discordant counts with tie correction.


SQL_EVENTS_KENDALL_DAILY = """
WITH d AS (
  SELECT epoch_us(ts) // 86400000000 AS day, CAST(count(*) AS BIGINT) AS c,
         avg(value) AS v
  FROM events GROUP BY 1 HAVING count(value) > 0
),
p AS (
  SELECT CAST(count(*) FILTER (WHERE sign(a.c - b.c) * sign(a.v - b.v) > 0) AS BIGINT) AS conc,
         CAST(count(*) FILTER (WHERE sign(a.c - b.c) * sign(a.v - b.v) < 0) AS BIGINT) AS disc
  FROM d a JOIN d b ON a.day < b.day
),
t AS (SELECT CAST(count(*) AS BIGINT) AS n FROM d),
tc AS (SELECT CAST(coalesce(sum(ct * (ct - 1) // 2), 0) AS BIGINT) AS t_c
       FROM (SELECT count(*) AS ct FROM d GROUP BY c)),
tv AS (SELECT CAST(coalesce(sum(ct * (ct - 1) // 2), 0) AS BIGINT) AS t_v
       FROM (SELECT count(*) AS ct FROM d GROUP BY v))
SELECT n AS n_days, conc, disc,
       round((conc - disc) / sqrt(CAST(n*(n-1)//2 - t_c AS DOUBLE)
                                  * CAST(n*(n-1)//2 - t_v AS DOUBLE)), 5) AS tau_b
FROM p, t, tc, tv
"""


@entry("events_kendall_daily", sql=SQL_EVENTS_KENDALL_DAILY)
def q_events_kendall_daily(sf_dir: str) -> pd.DataFrame:
    """Rank-robust co-movement of daily count vs daily mean value:
    τ-b = (C−D)/√((n₀−t_c)(n₀−t_v)) with integer C, D, n₀ and tie
    masses.  Scale shape: the daily grid is a combiner output; the
    O(days²) scan runs on the driver over ≤ #days points."""
    d = _daily_value_partials(sf_dir).to_pandas().sort_values("day")
    d = d[d["nv"] > 0]
    c = d["cnt"].to_numpy(dtype=np.int64)
    v = (d["sv"] / d["nv"]).to_numpy(dtype=np.float64)
    n = len(c)
    dc = np.sign(c[:, None] - c[None, :])
    dv = np.sign(v[:, None] - v[None, :])
    iu = np.triu_indices(n, k=1)
    prod = dc[iu] * dv[iu]
    conc = int((prod > 0).sum())
    disc = int((prod < 0).sum())
    n0 = n * (n - 1) // 2
    _, tc = np.unique(c, return_counts=True)
    _, tv = np.unique(v, return_counts=True)
    t_c = int((tc * (tc - 1) // 2).sum())
    t_v = int((tv * (tv - 1) // 2).sum())
    tau = (conc - disc) / np.sqrt(float(n0 - t_c) * float(n0 - t_v))
    return pd.DataFrame({
        "n_days": pd.array([n], dtype="int64"),
        "conc": pd.array([conc], dtype="int64"),
        "disc": pd.array([disc], dtype="int64"),
        "tau_b": [round_half_away(float(tau), 5)],
    })


# ---------------------------------------------------------------------------
# events_theilsen_daily — Theil–Sen robust slope of daily count vs day:
# the median of all pairwise slopes (outlier-immune trend).


SQL_EVENTS_THEILSEN_DAILY = """
WITH d AS (
  SELECT epoch_us(ts) // 86400000000 AS day, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1
),
s AS (
  SELECT (b.c - a.c) * 1.0 / (b.day - a.day) AS slope
  FROM d a JOIN d b ON a.day < b.day
)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM d) AS n_days,
       round(median(slope), 5) AS slope
FROM s
"""


@entry("events_theilsen_daily", sql=SQL_EVENTS_THEILSEN_DAILY)
def q_events_theilsen_daily(sf_dir: str) -> pd.DataFrame:
    """Robust daily-volume trend: median of (c_j−c_i)/(day_j−day_i)
    over all day pairs.  Integer inputs ⇒ identical slope doubles on
    both engines; the median interpolates the middle two (DuckDB
    median == numpy median for doubles).  Scale shape: grid from the
    combiner, O(days²) pair slopes on the driver."""
    d = _daily_value_partials(sf_dir).to_pandas().sort_values("day")
    c = d["cnt"].to_numpy(dtype=np.float64)
    days = d["day"].to_numpy(dtype=np.float64)
    iu = np.triu_indices(len(c), k=1)
    slopes = (c[iu[1]] - c[iu[0]]) / (days[iu[1]] - days[iu[0]])
    return pd.DataFrame({
        "n_days": pd.array([len(c)], dtype="int64"),
        "slope": [round_half_away(float(np.median(slopes)), 5)],
    })


# ---------------------------------------------------------------------------
# seq_welch_ttest — Welch's unequal-variance t-test comparing n_tok of
# two sources, from exact-integer power sums (n_tok ≤ 2048 ⇒ Σx² is
# exact int64 on both engines far past this corpus size).

_WT_A, _WT_B = "web", "books"


SQL_SEQ_WELCH_TTEST = f"""
WITH g AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n, CAST(sum(n_tok) AS BIGINT) AS s1,
         CAST(sum(CAST(n_tok AS BIGINT) * n_tok) AS BIGINT) AS s2
  FROM {SEQ_SQL}
  WHERE source IN ('{_WT_A}', '{_WT_B}') AND n_tok IS NOT NULL
  GROUP BY 1
),
v AS (
  SELECT source, n, s1 * 1.0 / n AS mean,
         (s2 - s1 * 1.0 * s1 / n) / (n - 1) AS var
  FROM g
),
ab AS (
  SELECT a.n AS n_a, b.n AS n_b, a.mean AS ma, b.mean AS mb,
         a.var / a.n AS wa, b.var / b.n AS wb
  FROM (SELECT * FROM v WHERE source = '{_WT_A}') a,
       (SELECT * FROM v WHERE source = '{_WT_B}') b
)
SELECT n_a, n_b,
       round((ma - mb) / sqrt(wa + wb), 4) AS t_stat,
       round((wa + wb) * (wa + wb) / (wa*wa/(n_a-1) + wb*wb/(n_b-1)), 2) AS df
FROM ab
"""


@entry("seq_welch_ttest", sql=SQL_SEQ_WELCH_TTEST)
def q_seq_welch_ttest(sf_dir: str) -> pd.DataFrame:
    """Welch's t (and Welch–Satterthwaite df) for mean n_tok, web vs
    books — the drift test for unequal variances where the pooled t is
    wrong.  Scale shape: one (source → n, Σx, Σx²) combiner pass; the
    statistic is a scalar formula on the driver."""
    ds = read_sequences(_seq_path(sf_dir), columns=["n_tok", "source"])
    ab = pa.array([_WT_A, _WT_B])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.and_(pc.is_in(b["source"], value_set=ab),
                             pc.is_valid(b["n_tok"])))
        x = t["n_tok"].cast(pa.int64())
        g = pa.table({"source": t["source"], "x": x,
                      "x2": pc.multiply(x, x)}).group_by("source").aggregate(
            [("x", "sum"), ("x2", "sum"), ([], "count_all")])
        return g.rename_columns(["source", "s1", "s2", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("source").aggregate([("s1", "sum"), ("s2", "sum"), ("n", "sum")]) \
        .to_pandas().set_index("source")
    st = {}
    for s in (_WT_A, _WT_B):
        n = int(m.loc[s, "n_sum"])
        s1 = int(m.loc[s, "s1_sum"])
        s2 = int(m.loc[s, "s2_sum"])
        mean = s1 / n
        var = (s2 - s1 * s1 / n) / (n - 1)  # sample variance
        st[s] = (n, mean, var)
    na, ma, va = st[_WT_A]
    nb, mb, vb = st[_WT_B]
    se2 = va / na + vb / nb
    t_stat = (ma - mb) / np.sqrt(se2)
    df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return pd.DataFrame({
        "n_a": pd.array([na], dtype="int64"),
        "n_b": pd.array([nb], dtype="int64"),
        "t_stat": [round_half_away(float(t_stat), 4)],
        "df": [round_half_away(float(df), 2)],
    })


# ---------------------------------------------------------------------------
# events_gini — Gini coefficient of per-user event counts: how
# concentrated is activity?  Exact sorted-index formula, tie-invariant.


SQL_EVENTS_GINI = """
WITH u AS (SELECT user_id, CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1),
r AS (SELECT n, row_number() OVER (ORDER BY n) AS i FROM u)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM u) AS n_users,
       round(2.0 * sum(i * n) / (count(*) * sum(n)) - (count(*) + 1.0) / count(*), 5) AS gini
FROM r
"""


@entry("events_gini", sql=SQL_EVENTS_GINI)
def q_events_gini(sf_dir: str) -> pd.DataFrame:
    """Activity-concentration audit: Gini of per-user total events,
    G = 2·Σ i·x₍ᵢ₎ / (n·Σx) − (n+1)/n over ascending counts (the
    rank-weighted identity; any tie order gives the same sum).  Scale
    shape: per-user counts via combiner + one tiny group (bounded by
    user cardinality — the entity-grid assumption used by the RFM /
    sessionization family); the sorted scan is driver-side."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("user_id").aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("user_id").aggregate([("n", "sum")])
    x = np.sort(m["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64))
    n = len(x)
    num = int((np.arange(1, n + 1, dtype=np.int64) * x).sum())
    tot = int(x.sum())
    gini = 2.0 * num / (n * tot) - (n + 1.0) / n
    return pd.DataFrame({"n_users": pd.array([n], dtype="int64"),
                         "gini": [round_half_away(float(gini), 5)]})


# ---------------------------------------------------------------------------
# doc_source_hhi — source-mix concentration: Herfindahl index + Shannon
# entropy of the documents' source distribution (the mixing-health
# scalar pair every curated-corpus report carries).


SQL_DOC_SOURCE_HHI = """
WITH g AS (SELECT source, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY 1),
t AS (SELECT sum(n) AS tot FROM g)
SELECT CAST(count(*) AS BIGINT) AS n_sources,
       round(sum((n * 1.0 / tot) * (n * 1.0 / tot)), 5) AS hhi,
       round(-sum((n * 1.0 / tot) * ln(n * 1.0 / tot)), 5) AS entropy
FROM g, t GROUP BY tot
"""


@entry("doc_source_hhi", sql=SQL_DOC_SOURCE_HHI)
def q_doc_source_hhi(sf_dir: str) -> pd.DataFrame:
    """HHI = Σ share² and H = −Σ share·ln(share) of the source mix.
    Scale shape: a ≤ #sources count combiner; scalars on the driver
    from exact integer counts."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["source"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("source").aggregate([([], "count_all")])
        return g.rename_columns(["source", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("source").aggregate([("n", "sum")])
    n = m["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    sh = n / n.sum()
    return pd.DataFrame({
        "n_sources": pd.array([len(n)], dtype="int64"),
        "hhi": [round_half_away(float((sh * sh).sum()), 5)],
        "entropy": [round_half_away(float(-(sh * np.log(sh)).sum()), 5)],
    })


# ---------------------------------------------------------------------------
# events_cube — GROUPING SETS cube over (event_type, hour): all four
# aggregation levels from ONE combiner pass over the bounded grid.


SQL_EVENTS_CUBE = """
SELECT coalesce(event_type, 'ALL') AS event_type,
       coalesce(hr, -1) AS hr,
       CAST(count(*) AS BIGINT) AS n
FROM (SELECT event_type, CAST(epoch_us(ts) // 3600000000 % 24 AS BIGINT) AS hr FROM events)
GROUP BY GROUPING SETS ((event_type, hr), (event_type), (hr), ())
ORDER BY 1, 2
"""


@entry("events_cube", sql=SQL_EVENTS_CUBE)
def q_events_cube(sf_dir: str) -> pd.DataFrame:
    """CUBE(event_type, hour) counts — detail, both 1-D margins, and
    the grand total, with 'ALL' / −1 as the subtotal markers.  Scale
    shape: one (type × 24) combiner grid; the three rollup levels are
    derived from the grid on the driver — the corpus is read once and
    never re-shuffled per level."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def partial(b: pa.Table) -> pa.Table:
        us = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        t = pa.table({"event_type": b["event_type"],
                      "hr": pa.array((us // 3600000000) % 24, type=pa.int64())})
        g = t.group_by(["event_type", "hr"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "hr", "n"])

    grid = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by(["event_type", "hr"]).aggregate([("n", "sum")]).to_pandas() \
        .rename(columns={"n_sum": "n"})
    by_t = grid.groupby("event_type", as_index=False)["n"].sum()
    by_h = grid.groupby("hr", as_index=False)["n"].sum()
    rows = [grid.assign(),
            by_t.assign(hr=-1),
            by_h.assign(event_type="ALL"),
            pd.DataFrame({"event_type": ["ALL"], "hr": [-1], "n": [grid["n"].sum()]})]
    out = pd.concat(rows, ignore_index=True)[["event_type", "hr", "n"]]
    out["hr"] = out["hr"].astype("int64")
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["event_type", "hr"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# lineitem_weighted_median — revenue-weighted median quantity per
# return flag: smallest q with 2·cumweight ≥ totalweight.


SQL_LINEITEM_WEIGHTED_MEDIAN = """
WITH g AS (
  SELECT l_returnflag, l_quantity, sum(l_extendedprice) AS w
  FROM lineitem GROUP BY 1, 2
),
c AS (
  SELECT l_returnflag, l_quantity,
         sum(w) OVER (PARTITION BY l_returnflag ORDER BY l_quantity) AS cw,
         sum(w) OVER (PARTITION BY l_returnflag) AS tw
  FROM g
)
SELECT l_returnflag, CAST(min(l_quantity) AS DOUBLE) AS wmedian_qty
FROM c WHERE 2.0 * cw >= tw
GROUP BY 1 ORDER BY 1
"""


@entry("lineitem_weighted_median", sql=SQL_LINEITEM_WEIGHTED_MEDIAN)
def q_lineitem_weighted_median(sf_dir: str) -> pd.DataFrame:
    """Weighted (lower) median of l_quantity by l_extendedprice per
    l_returnflag — 'the quantity at which half the revenue sits'.
    Scale shape: a (flag × distinct-quantity) weight-sum combiner
    (quantities are a bounded discrete domain), cumulative scan on the
    driver grid."""
    ds = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_returnflag", "l_quantity", "l_extendedprice"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["l_returnflag", "l_quantity"]).aggregate(
            [("l_extendedprice", "sum")])
        return g.rename_columns(["l_returnflag", "l_quantity", "w"])

    grid = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by(["l_returnflag", "l_quantity"]).aggregate([("w", "sum")]) \
        .to_pandas().rename(columns={"w_sum": "w"})
    out_f, out_q = [], []
    for f, g in grid.groupby("l_returnflag", sort=True):
        g = g.sort_values("l_quantity")
        cw = g["w"].cumsum().to_numpy()
        tw = cw[-1]
        k = int(np.argmax(2.0 * cw >= tw))  # first crossing
        out_f.append(f)
        out_q.append(float(g["l_quantity"].to_numpy()[k]))
    return pd.DataFrame({"l_returnflag": out_f,
                         "wmedian_qty": np.asarray(out_q, dtype=np.float64)})


# ---------------------------------------------------------------------------
# doc_minhash_est_audit — sketch-quality audit: for every LSH candidate
# pair, the MinHash-estimated Jaccard (matching signature positions /
# num_hashes) NEXT TO the exact shingle Jaccard.  The twin recomputes
# both from the signature + shingle sidecars, so the whole estimate
# path is pinned, not just the pair set.


SQL_DOC_MINHASH_EST_AUDIT = """
WITH sig AS (
  SELECT doc_id, minhash FROM read_parquet('/tmp/jesse_ray_data/mhaudit_sigs_sf0.01.parquet')
), sh AS (
  SELECT doc_id, shingles FROM read_parquet('/tmp/jesse_ray_data/mhaudit_sh_sigs_sf0.01.parquet')
), bands AS (
  SELECT doc_id, b, list_slice(minhash, b*4 + 1, b*4 + 4) AS band
  FROM sig, generate_series(0, 15) t(b)
), pairs AS (
  SELECT a.doc_id AS l, b.doc_id AS r
  FROM bands a JOIN bands b ON a.b = b.b AND a.band = b.band AND a.doc_id < b.doc_id
  GROUP BY 1, 2
), pos AS (
  SELECT doc_id, unnest(minhash) AS h, generate_subscripts(minhash, 1) AS i FROM sig
), est AS (
  SELECT p.l, p.r, count(*) FILTER (WHERE x.h = y.h) / 64.0 AS est
  FROM pairs p
  JOIN pos x ON x.doc_id = p.l
  JOIN pos y ON y.doc_id = p.r AND y.i = x.i
  GROUP BY 1, 2
), se AS (
  SELECT doc_id, unnest(shingles) AS g FROM sh
), sz AS (
  SELECT doc_id, len(shingles) AS n FROM sh
), inter AS (
  SELECT a.doc_id AS l, b.doc_id AS r, count(*) AS i
  FROM se a JOIN se b ON a.g = b.g
  JOIN pairs p ON p.l = a.doc_id AND p.r = b.doc_id
  GROUP BY 1, 2
)
SELECT e.l AS "left", e.r AS "right", round(e.est, 6) AS est,
       CAST(coalesce(i.i, 0) AS BIGINT) AS inter,
       CAST(sa.n + sb.n - coalesce(i.i, 0) AS BIGINT) AS union_sz
FROM est e
LEFT JOIN inter i ON i.l = e.l AND i.r = e.r
JOIN sz sa ON sa.doc_id = e.l
JOIN sz sb ON sb.doc_id = e.r
ORDER BY 1, 2
"""


@entry("doc_minhash_est_audit", sql=SQL_DOC_MINHASH_EST_AUDIT)
def q_doc_minhash_est_audit(sf_dir: str) -> pd.DataFrame:
    """Per-candidate-pair MinHash estimate vs EXACT INTEGER
    intersection/union — the audit of the sketch the near-dup pipeline
    trusts.  The truth side is (inter, union_sz) integers, so no
    float-rounding near-tie can split the engines; est = matches/64 is
    dyadic, exact at 6 decimals on both.  Scale shape: pairs come from
    the standard banding shuffle; the per-pair stage broadcasts
    key→(signature, shingle-blob) once (the verify_jaccard broadcast
    regime — candidates and the documents dimension are the bounded
    side here)."""
    import ray

    from jesse_ray.functions.dedup import (_shingle_hashes, lsh_candidate_pairs,
                                           minhash_signatures)

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    sigs = minhash_signatures(ds, num_hashes=64)
    sig_tbl = _collect(sigs.select_columns(["doc_id", "minhash"])).sort_by("doc_id")
    pq.write_table(sig_tbl, _sig_parquet_path(sf_dir, "mhaudit"))

    def shingle_sets(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        sets = [np.unique(_shingle_hashes(t or "", 5)) for t in texts]
        offs = np.concatenate([[0], np.cumsum([len(s) for s in sets])]).astype(np.int64)
        flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.uint64)
        lists = pa.ListArray.from_arrays(pa.array(offs), pa.array(flat, type=pa.uint64()))
        return pa.table({"doc_id": batch["doc_id"], "shingles": lists})

    sh_tbl = _collect(ds.map_batches(shingle_sets, batch_format="pyarrow")).sort_by("doc_id")
    pq.write_table(sh_tbl, _sig_parquet_path(sf_dir, "mhaudit_sh"))
    pairs = lsh_candidate_pairs(ds, num_hashes=64, bands=16)
    maps = {
        int(k): (np.asarray(s, dtype=np.uint64), np.asarray(g, dtype=np.uint64))
        for k, s, g in zip(sig_tbl["doc_id"].to_pylist(),
                           sig_tbl["minhash"].to_pylist(),
                           sh_tbl["shingles"].to_pylist())
    }
    maps_ref = ray.put(maps) if ray.is_initialized() else maps

    class _Audit:
        def __init__(self):
            self._m = None

        def __call__(self, b: pa.Table) -> pa.Table:
            if self._m is None:
                self._m = ray.get(maps_ref) if isinstance(maps_ref, ray.ObjectRef) else maps_ref
            l = b["left"].to_pylist()
            r = b["right"].to_pylist()
            est = np.zeros(len(l), dtype=np.float64)
            inter = np.zeros(len(l), dtype=np.int64)
            uni = np.zeros(len(l), dtype=np.int64)
            for i, (a, c) in enumerate(zip(l, r)):
                sa, ga = self._m[a]
                sc, gc = self._m[c]
                est[i] = (sa == sc).sum() / 64.0
                ii = len(np.intersect1d(ga, gc, assume_unique=True))
                inter[i] = ii
                uni[i] = len(ga) + len(gc) - ii
            return pa.table({
                "left": b["left"], "right": b["right"],
                "est": pa.array(est, type=pa.float64()),
                "inter": pa.array(inter), "union_sz": pa.array(uni),
            })

    pdf = _collect(pairs.map_batches(_Audit(), batch_format="pyarrow")).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"left": pd.array([], dtype="int64"),
                             "right": pd.array([], dtype="int64"),
                             "est": pd.array([], dtype="float64"),
                             "inter": pd.array([], dtype="int64"),
                             "union_sz": pd.array([], dtype="int64")})
    # est is k/64 — dyadic, EXACT at 6 decimals, so round(6) is the
    # identity on both engines (4 decimals would hit tie-rule skew)
    pdf["est"] = round_half_away(pdf["est"], 6)
    return (pdf[["left", "right", "est", "inter", "union_sz"]]
            .sort_values(["left", "right"]).reset_index(drop=True))


# ---------------------------------------------------------------------------
# lineitem_odds_ratio — 2×2 association audit: odds ratio (with Wald
# 95% CI) of return flag 'R' vs line status 'F'.


SQL_LINEITEM_ODDS_RATIO = """
WITH t AS (
  SELECT CAST(count(*) FILTER (WHERE l_returnflag = 'R' AND l_linestatus = 'F') AS BIGINT) AS a,
         CAST(count(*) FILTER (WHERE l_returnflag = 'R' AND l_linestatus <> 'F') AS BIGINT) AS b,
         CAST(count(*) FILTER (WHERE l_returnflag <> 'R' AND l_linestatus = 'F') AS BIGINT) AS c,
         CAST(count(*) FILTER (WHERE l_returnflag <> 'R' AND l_linestatus <> 'F') AS BIGINT) AS d
  FROM lineitem
)
SELECT a, b, c, d,
       round((a * 1.0 * d) / (b * 1.0 * c), 4) AS odds_ratio,
       round(exp(ln((a * 1.0 * d) / (b * 1.0 * c))
                 - 1.96 * sqrt(1.0/a + 1.0/b + 1.0/c + 1.0/d)), 4) AS ci_lo,
       round(exp(ln((a * 1.0 * d) / (b * 1.0 * c))
                 + 1.96 * sqrt(1.0/a + 1.0/b + 1.0/c + 1.0/d)), 4) AS ci_hi
FROM t
"""


@entry("lineitem_odds_ratio", sql=SQL_LINEITEM_ODDS_RATIO)
def q_lineitem_odds_ratio(sf_dir: str) -> pd.DataFrame:
    """Odds ratio of (l_returnflag='R') × (l_linestatus='F') with the
    Wald log-normal 95% CI — the 2×2 dependence screen.  Scale shape:
    a 4-cell combiner; scalars on the driver from exact integer
    counts."""
    ds = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_linestatus"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "rf": pc.cast(pc.equal(b["l_returnflag"], "R"), pa.int64()),
            "lf": pc.cast(pc.equal(b["l_linestatus"], "F"), pa.int64()),
        })
        g = t.group_by(["rf", "lf"]).aggregate([([], "count_all")])
        return g.rename_columns(["rf", "lf", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by(["rf", "lf"]).aggregate([("n", "sum")]).to_pandas()
    cell = {(int(r), int(l)): int(n) for r, l, n in
            zip(m["rf"], m["lf"], m["n_sum"])}
    a = cell.get((1, 1), 0)  # R and F
    b_ = cell.get((1, 0), 0)  # R not F
    c = cell.get((0, 1), 0)  # not R, F
    d = cell.get((0, 0), 0)
    orr = (a * d) / (b_ * c)
    se = np.sqrt(1.0 / a + 1.0 / b_ + 1.0 / c + 1.0 / d)
    lo = float(np.exp(np.log(orr) - 1.96 * se))
    hi = float(np.exp(np.log(orr) + 1.96 * se))
    return pd.DataFrame({
        "a": pd.array([a], dtype="int64"), "b": pd.array([b_], dtype="int64"),
        "c": pd.array([c], dtype="int64"), "d": pd.array([d], dtype="int64"),
        "odds_ratio": [round_half_away(float(orr), 4)],
        "ci_lo": [round_half_away(lo, 4)], "ci_hi": [round_half_away(hi, 4)],
    })

