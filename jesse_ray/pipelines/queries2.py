"""Catalog wave 2: relational depth (TPC-H Q10/Q16 shapes, cross-table
reconciliation) and corpus analysis (activity streaks, token run-length
stats, readability) — same driver contract as :mod:`.queries` (column
names match the DuckDB twin exactly; doubles rounded on both sides).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from jesse_ray.hashutil import key_parts, map_key_buckets
from jesse_ray.sources import read_sequences, read_table

# the registry and shared helpers / constants (.queries never imports
# this module when it loads; its queries() imports every catalog module).
from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, entry
from jesse_ray.rounding import round_half_away


# ---------------------------------------------------------------------------
# tpch_q10ish — returned-item reporting (top customers by refund revenue)

Q10_START, Q10_END = "1997-01-01", "1997-04-01"


SQL_TPCH_Q10ISH = f"""
SELECT c_custkey, c_name,
       round(sum(l_extendedprice * (1.0 - l_discount)), 2) AS revenue,
       c_acctbal, n_name
FROM customer
JOIN orders   ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN nation   ON c_nationkey = n_nationkey
WHERE o_orderdate >= TIMESTAMP '{Q10_START}'
  AND o_orderdate <  TIMESTAMP '{Q10_END}'
  AND l_returnflag = 'R'
GROUP BY c_custkey, c_name, c_acctbal, n_name
ORDER BY revenue DESC, c_custkey ASC
LIMIT 20
"""


@entry("tpch_q10ish", sql=SQL_TPCH_Q10ISH)
def q_tpch_q10ish(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q10-shaped composite: revenue from RETURNED lineitems of a
    one-quarter order window, per customer, top 20.  Scale shape: both
    fact filters happen at the read (column-pruned, predicate map), the
    orders⋈lineitem step is a large-x-large coarse-hash cogroup join,
    the per-customer sum is a map-side Arrow partial → coarse custkey
    part merge, and only the FINAL top-20 keys fetch their dimension
    rows (customer/nation broadcast to a 20-row lookup — the dimension
    join cost is O(k), not O(customers))."""
    from jesse_ray.pipelines.relational import hash_join

    lo, hi = pd.Timestamp(Q10_START), pd.Timestamp(Q10_END)
    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def o_filter(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.greater_equal(b["o_orderdate"], pa.scalar(lo)),
                    pc.less(b["o_orderdate"], pa.scalar(hi)))
        t = b.filter(m)
        return pa.table({"l_orderkey": t["o_orderkey"], "o_custkey": t["o_custkey"]})

    orders = orders.map_batches(o_filter, batch_format="pyarrow", zero_copy_batch=True)
    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"])

    def l_filter(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["l_returnflag"], pa.scalar("R")))
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"], "rev": rev})

    li = li.map_batches(l_filter, batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(li, orders, on="l_orderkey", how="inner")

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("o_custkey").aggregate([("rev", "sum")])
        return g.rename_columns(["o_custkey", "rev"])

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("o_custkey", sort=False)["rev"].sum().reset_index()
        m.columns = ["c_custkey", "revenue"]
        return m.sort_values(["revenue", "c_custkey"], ascending=[False, True],
                             kind="mergesort").head(20)

    cand = map_key_buckets(j.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
                           ["o_custkey"], merge).to_pandas()
    top = cand.sort_values(["revenue", "c_custkey"], ascending=[False, True],
                           kind="mergesort").head(20)
    keys = pa.array(top["c_custkey"].astype("int64").to_numpy(), type=pa.int64())
    cust = _collect(read_table(f"{sf_dir}/customer.parquet",
                               columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"])
                    .map_batches(
                        lambda b: b.filter(pc.is_in(b["c_custkey"], value_set=keys)),
                        batch_format="pyarrow", zero_copy_batch=True)).to_pandas()
    nat = _collect(read_table(f"{sf_dir}/nation.parquet",
                              columns=["n_nationkey", "n_name"])).to_pandas()
    out = top.merge(cust, on="c_custkey").merge(
        nat, left_on="c_nationkey", right_on="n_nationkey")
    out["revenue"] = round_half_away(out["revenue"], 2)
    out = out.sort_values(["revenue", "c_custkey"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    out["c_custkey"] = out["c_custkey"].astype("int64")
    return out[["c_custkey", "c_name", "revenue", "c_acctbal", "n_name"]]


# ---------------------------------------------------------------------------
# tpch_q16ish — supplier-count per part group with exclusion subquery

Q16_BRAND = "Brand#11"


SQL_TPCH_Q16ISH = f"""
SELECT p_brand, CAST(p_size AS BIGINT) AS p_size,
       CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
FROM (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem) ps
JOIN part ON p_partkey = l_partkey
WHERE p_brand <> '{Q16_BRAND}'
  AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
GROUP BY p_brand, p_size
ORDER BY supplier_cnt DESC, p_brand, p_size
"""


@entry("tpch_q16ish", sql=SQL_TPCH_Q16ISH)
def q_tpch_q16ish(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q16-shaped composite: distinct suppliers per (brand, size),
    using distinct lineitem (partkey, suppkey) pairs as the partsupp
    stand-in, excluding one brand and all suppliers with negative
    account balance (the 'complaints' NOT IN subquery).  Scale shape:
    map-side pair dedup → coarse partkey-hash part dedup (exact) →
    large-x-large hash join against the filtered part table → the
    (brand, size, suppkey) triple is deduped in a SUPPKEY-hash cogroup
    (a triple lives wholly in one part) whose per-part counts sum
    exactly; the excluded-supplier set is a broadcast filter, never a
    shuffle."""
    from jesse_ray.pipelines.relational import hash_join

    li = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])

    def pair_dedup(b: pa.Table) -> pa.Table:
        return b.group_by(["l_partkey", "l_suppkey"]).aggregate([])

    def part_dedup(g: pd.DataFrame) -> pa.Table:
        d = g[["l_partkey", "l_suppkey"]].drop_duplicates()
        return pa.Table.from_pandas(d, preserve_index=False).cast(
            pa.schema([("l_partkey", pa.int64()), ("l_suppkey", pa.int64())]))

    pairs = map_key_buckets(li.map_batches(pair_dedup, batch_format="pyarrow", zero_copy_batch=True),
                            ["l_partkey"], part_dedup)

    part = read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"])

    def p_filter(b: pa.Table) -> pa.Table:
        t = b.filter(pc.not_equal(b["p_brand"], pa.scalar(Q16_BRAND)))
        return pa.table({"l_partkey": t["p_partkey"], "p_brand": t["p_brand"],
                         "p_size": t["p_size"]})

    part = part.map_batches(p_filter, batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(pairs, part, on="l_partkey", how="inner")

    bad_t = _collect(read_table(f"{sf_dir}/supplier.parquet",
                                columns=["s_suppkey", "s_acctbal"])
                     .filter(expr="s_acctbal < 0").select_columns(["s_suppkey"]))
    # supplier is a DIMENSION: the excluded set is broadcast (built once,
    # shipped in the closure), never a shuffle
    bad_arr = (bad_t.column(0).combine_chunks().cast(pa.int64())
               if bad_t is not None and bad_t.num_rows else None)

    def triple(b: pa.Table) -> pa.Table:
        if bad_arr is not None:
            b = b.filter(pc.invert(pc.is_in(b["l_suppkey"], value_set=bad_arr)))
        return b.group_by(["p_brand", "p_size", "l_suppkey"]).aggregate([])

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["p_brand", "p_size", "l_suppkey"]].drop_duplicates()
        c = d.groupby(["p_brand", "p_size"], sort=False).size().reset_index(name="supplier_cnt")
        return c

    cand = map_key_buckets(j.map_batches(triple, batch_format="pyarrow", zero_copy_batch=True),
                           ["l_suppkey"], count_part).to_pandas()
    out = (cand.groupby(["p_brand", "p_size"], sort=False)["supplier_cnt"].sum()
               .reset_index()
               .sort_values(["supplier_cnt", "p_brand", "p_size"],
                            ascending=[False, True, True], kind="mergesort")
               .reset_index(drop=True))
    out["supplier_cnt"] = out["supplier_cnt"].astype("int64")
    out["p_size"] = out["p_size"].astype("int64")
    return out


# ---------------------------------------------------------------------------
# orders_reconcile — cross-table aggregate reconciliation check

SQL_ORDERS_RECONCILE = """
WITH c AS (
  SELECT l_orderkey, sum(l_extendedprice * (1.0 - l_discount)) AS comp
  FROM lineitem GROUP BY l_orderkey
)
SELECT o_orderkey,
       round(o_totalprice, 2) AS o_totalprice,
       round(comp, 2) AS computed,
       round(abs(comp - o_totalprice), 2) AS absdiff
FROM orders JOIN c ON o_orderkey = l_orderkey
ORDER BY absdiff DESC, o_orderkey ASC
LIMIT 20
"""


@entry("orders_reconcile", sql=SQL_ORDERS_RECONCILE)
def q_orders_reconcile(sf_dir: str) -> pd.DataFrame:
    """Cross-table reconciliation (the warehouse-audit analogue of the
    reference's referential checks): recompute each order's gross from
    its lineitems and report the 20 largest |computed - o_totalprice|
    discrepancies.  Map-side Arrow partial sums → coarse orderkey-hash
    merge → broadcast-window top-20 per part + 20-row driver merge; the
    orders side joins by the same coarse parts (no corpus groupby,
    no driver materialization beyond 20×parts candidate rows).  Sort
    key is the ROUNDED diff (both engines round before ranking, so sum
    re-association below half a cent can never reorder the result)."""
    from jesse_ray.pipelines.relational import hash_join

    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def partial(b: pa.Table) -> pa.Table:
        gross = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        t = pa.table({"o_orderkey": b["l_orderkey"], "comp": gross})
        g = t.group_by("o_orderkey").aggregate([("comp", "sum")])
        return g.rename_columns(["o_orderkey", "comp"])

    comp = li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    orders = read_table(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])
    j = hash_join(comp, orders, on="o_orderkey", how="inner")

    def topdiff(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["o_orderkey", "o_totalprice"], sort=False)["comp"].sum().reset_index()
        m["computed"] = round_half_away(m["comp"], 2)
        m["absdiff"] = round_half_away((m["comp"] - m["o_totalprice"]).abs(), 2)
        m = m.drop(columns=["comp"])
        return m.sort_values(["absdiff", "o_orderkey"], ascending=[False, True],
                             kind="mergesort").head(20)

    cand = map_key_buckets(j, ["o_orderkey"], topdiff).to_pandas()
    out = cand.sort_values(["absdiff", "o_orderkey"], ascending=[False, True],
                           kind="mergesort").head(20).reset_index(drop=True)
    out["o_orderkey"] = out["o_orderkey"].astype("int64")
    out["o_totalprice"] = round_half_away(out["o_totalprice"], 2)
    return out[["o_orderkey", "o_totalprice", "computed", "absdiff"]]


# ---------------------------------------------------------------------------
# events_streaks — gaps-and-islands consecutive-day engagement

SQL_EVENTS_STREAKS = """
WITH d AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day FROM events
),
r AS (
  SELECT user_id, day,
         day - row_number() OVER (PARTITION BY user_id ORDER BY day) AS isl
  FROM d
),
s AS (SELECT user_id, isl, count(*) AS len FROM r GROUP BY 1, 2)
SELECT user_id,
       CAST(sum(len) AS BIGINT) AS active_days,
       CAST(max(len) AS BIGINT) AS best_streak
FROM s GROUP BY user_id ORDER BY user_id
"""


@entry("events_streaks", sql=SQL_EVENTS_STREAKS)
def q_events_streaks(sf_dir: str) -> pd.DataFrame:
    """Longest consecutive-day activity streak + total active days per
    user (relational.activity_streaks: map-side (user, day) dedup → one
    coarse user-hash shuffle → vectorized island detection per part)."""
    from jesse_ray.pipelines.relational import activity_streaks

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    out = activity_streaks(ds, entity_col="user_id", ts_col="ts")
    pdf = _collect(out).to_pandas()
    return pdf.sort_values("user_id").reset_index(drop=True).astype(
        {"user_id": "int64", "active_days": "int64", "best_streak": "int64"})


# ---------------------------------------------------------------------------
# seq_token_runs — run-length degeneracy stats on the token stream

SQL_SEQ_TOKEN_RUNS = f"""
WITH s AS (
  SELECT doc_id, tokens FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND tokens IS NOT NULL AND len(tokens) > 0
    AND doc_id NOT IN (
      SELECT doc_id FROM {SEQ_SQL} WHERE doc_id IS NOT NULL
      GROUP BY doc_id HAVING count(*) > 1)
),
u AS (
  SELECT doc_id, unnest(tokens) AS tok,
         unnest(range(1, len(tokens) + 1)) AS ord
  FROM s
),
c AS (
  SELECT doc_id, ord,
         CASE WHEN lag(tok) OVER (PARTITION BY doc_id ORDER BY ord)
                   IS DISTINCT FROM tok THEN 1 ELSE 0 END AS chg
  FROM u
),
r AS (
  SELECT doc_id,
         sum(chg) OVER (PARTITION BY doc_id ORDER BY ord
                        ROWS UNBOUNDED PRECEDING) AS run_id
  FROM c
),
g AS (SELECT doc_id, run_id, count(*) AS rl FROM r GROUP BY 1, 2)
SELECT doc_id,
       CAST(count(*) AS BIGINT) AS n_runs,
       CAST(max(rl) AS BIGINT) AS max_run
FROM g GROUP BY doc_id
ORDER BY max_run DESC, doc_id ASC
LIMIT 50
"""


@entry("seq_token_runs", sql=SQL_SEQ_TOKEN_RUNS)
def q_seq_token_runs(sf_dir: str) -> pd.DataFrame:
    """Per-sequence token run-length stats (seqops.token_run_stats) —
    top 50 by longest run: the degenerate-repetition filter signal.
    Twin re-derives runs with the lag/island window over a lockstep
    unnest.  Sequences with a DUPLICATED doc_id are excluded on both
    sides (the SQL window partitions by doc_id, so two sequences
    sharing an id would interleave; the engine reports them through
    seq_val_docid_dups instead) — removed with the distributed
    anti-join (relational.drop_duplicate_keys), never a
    driver-collected id set."""
    from jesse_ray.functions.seqops import token_run_stats
    from jesse_ray.pipelines.relational import drop_duplicate_keys

    ds = drop_duplicate_keys(
        read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens"]), "doc_id")
    out = token_run_stats(ds)

    def local_top(b: pa.Table) -> pa.Table:
        idx = pc.sort_indices(b, sort_keys=[("max_run", "descending"), ("doc_id", "ascending")])
        return b.take(idx[:50])

    cand = _collect(out.map_batches(local_top, batch_format="pyarrow")).to_pandas()
    cand = cand[cand["doc_id"].notna()]
    out_pdf = cand.sort_values(["max_run", "doc_id"], ascending=[False, True],
                               kind="mergesort").head(50).reset_index(drop=True)
    return out_pdf.astype({"doc_id": "string", "n_runs": "int64", "max_run": "int64"})


# ---------------------------------------------------------------------------
# doc_readability — Flesch-style readability scoring

SQL_DOC_READABILITY = r"""
WITH c AS (
  SELECT doc_id,
         CAST(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT) AS n_words,
         CAST(len(regexp_extract_all(coalesce(text, ''), '[.!?]+')) AS BIGINT) AS n_sents,
         CAST(len(regexp_extract_all(coalesce(text, ''), '[aeiouyAEIOUY]+')) AS BIGINT) AS n_syll
  FROM documents
)
SELECT doc_id, n_words, n_sents, n_syll,
       CAST(floor(CAST(n_syll AS DOUBLE) * 10000.0 / CAST(n_words AS DOUBLE)) AS BIGINT) AS spw_x10k
FROM c
WHERE n_words > 0
ORDER BY doc_id
"""


@entry("doc_readability", sql=SQL_DOC_READABILITY)
def q_doc_readability(sf_dir: str) -> pd.DataFrame:
    """Readability ingredients per document (text.add_readability, all
    RE2 kernel passes): word / sentence-terminator / vowel-group-
    syllable counts plus syllables-per-word.  The synthetic corpus has
    no sentence punctuation, so the Flesch composite itself is
    unit-tested on punctuated fixtures (tests), while the catalog twin
    checks the full count + ratio pipeline over every document."""
    from jesse_ray.functions.text import add_readability

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = add_readability(ds).select_columns(
        ["doc_id", "n_words", "n_sents", "n_syll"])
    pdf = _collect(out).to_pandas()
    pdf = pdf[pdf["n_words"] > 0].copy()
    # integer-exact scaled ratio (floor of an IEEE double division is
    # engine-stable; round() is not — numpy half-to-even vs SQL
    # half-away collide on exact 5e-5 halves like 1/32)
    pdf["spw_x10k"] = np.floor(
        pdf["n_syll"].to_numpy(dtype=np.float64) * 10000.0
        / pdf["n_words"].to_numpy(dtype=np.float64)).astype("int64")
    return pdf.sort_values("doc_id").reset_index(drop=True).astype(
        {"doc_id": "int64", "n_words": "int64", "n_sents": "int64", "n_syll": "int64"})


# ---------------------------------------------------------------------------
# media_decode_real / media_resize_real — REAL codec path (PPM P6)

N_PPM = 48


def _ppm_ds():
    import ray.data

    from jesse_ray.functions.multimodal import make_synthetic_ppm_table

    return ray.data.from_arrow(make_synthetic_ppm_table(N_PPM))


_SQL_PPM_IMG = f"""
img AS (
  SELECT i,
         16 + (i % 17)      AS w,
         12 + ((i * 7) % 13) AS h,
         1 + (i % 5)        AS a,
         2 + (i % 7)        AS b
  FROM (SELECT unnest(range(0, {N_PPM})) AS i)
)
"""

SQL_MEDIA_DECODE_REAL = f"""
WITH {_SQL_PPM_IMG},
xs AS (SELECT i, unnest(range(0, w)) AS x FROM img),
ys AS (SELECT i, unnest(range(0, h)) AS y FROM img),
cs AS (SELECT i, unnest(range(0, 3)) AS c FROM img),
px AS (
  SELECT img.i, img.w, img.h, cs.c,
         (img.a * xs.x + img.b * ys.y + img.i + 11 * cs.c) % 256 AS v
  FROM img
  JOIN xs ON xs.i = img.i
  JOIN ys ON ys.i = img.i
  JOIN cs ON cs.i = img.i
)
SELECT printf('ppm-%06d', i) AS media_id,
       CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
       CAST(sum(CASE WHEN c = 0 THEN v END) AS BIGINT) AS sum_r,
       CAST(sum(CASE WHEN c = 1 THEN v END) AS BIGINT) AS sum_g,
       CAST(sum(CASE WHEN c = 2 THEN v END) AS BIGINT) AS sum_b
FROM px GROUP BY i, w, h ORDER BY media_id
"""


@entry("media_decode_real", sql=SQL_MEDIA_DECODE_REAL)
def q_media_decode_real(sf_dir: str) -> pd.DataFrame:
    """REAL image decode (no codec library): deterministic formula
    pixels → PPM(P6) bytes → numpy header-parse + buffer decode in an
    actor pool → exact int64 channel sums.  The twin NEVER sees the
    bytes — it regenerates every pixel from the closed-form formula
    with generate_series, so the byte round-trip is genuinely under
    test."""
    from jesse_ray.functions.multimodal import ppm_channel_sums

    out = _collect(ppm_channel_sums(_ppm_ds())).to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    return out.astype({"width": "int64", "height": "int64"})


SQL_MEDIA_RESIZE_REAL = f"""
WITH {_SQL_PPM_IMG},
xs AS (SELECT i, unnest(range(0, 16)) AS xo FROM img),
ys AS (SELECT i, unnest(range(0, 16)) AS yo FROM img),
cs AS (SELECT i, unnest(range(0, 3)) AS c FROM img),
px AS (
  SELECT img.i, cs.c,
         (img.a * ((xs.xo * img.w) // 16)
          + img.b * ((ys.yo * img.h) // 16)
          + img.i + 11 * cs.c) % 256 AS v
  FROM img
  JOIN xs ON xs.i = img.i
  JOIN ys ON ys.i = img.i
  JOIN cs ON cs.i = img.i
)
SELECT printf('ppm-%06d', i) AS media_id,
       CAST(16 AS BIGINT) AS width, CAST(16 AS BIGINT) AS height,
       CAST(sum(CASE WHEN c = 0 THEN v END) AS BIGINT) AS sum_r,
       CAST(sum(CASE WHEN c = 1 THEN v END) AS BIGINT) AS sum_g,
       CAST(sum(CASE WHEN c = 2 THEN v END) AS BIGINT) AS sum_b
FROM px GROUP BY i ORDER BY media_id
"""


@entry("media_resize_real", sql=SQL_MEDIA_RESIZE_REAL)
def q_media_resize_real(sf_dir: str) -> pd.DataFrame:
    """REAL nearest-neighbor resize to 16×16 after the real decode;
    twin re-derives the floor source-index mapping in SQL."""
    from jesse_ray.functions.multimodal import ppm_channel_sums

    out = _collect(ppm_channel_sums(_ppm_ds(), resize_to=(16, 16))).to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    return out.astype({"width": "int64", "height": "int64"})


# ---------------------------------------------------------------------------
# media_png_real — REAL compressed-codec path (PNG, stdlib zlib + numpy)

N_PNG = 40


SQL_MEDIA_PNG_REAL = f"""
WITH img AS (
  SELECT i,
         9 + (i % 14)        AS w,
         7 + ((i * 5) % 11)  AS h,
         2 + (i % 4)         AS a,
         1 + (i % 6)         AS b
  FROM (SELECT unnest(range(0, {N_PNG})) AS i)
),
xs AS (SELECT i, unnest(range(0, w)) AS x FROM img),
ys AS (SELECT i, unnest(range(0, h)) AS y FROM img),
cs AS (SELECT i, unnest(range(0, 3)) AS c FROM img),
px AS (
  SELECT img.i, img.w, img.h, cs.c,
         (img.a * xs.x + img.b * ys.y + xs.x * ys.y + 2 * img.i + 13 * cs.c) % 256 AS v
  FROM img
  JOIN xs ON xs.i = img.i
  JOIN ys ON ys.i = img.i
  JOIN cs ON cs.i = img.i
)
SELECT printf('png-%06d', i) AS media_id,
       CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
       CAST(sum(CASE WHEN c = 0 THEN v END) AS BIGINT) AS sum_r,
       CAST(sum(CASE WHEN c = 1 THEN v END) AS BIGINT) AS sum_g,
       CAST(sum(CASE WHEN c = 2 THEN v END) AS BIGINT) AS sum_b
FROM px GROUP BY i, w, h ORDER BY media_id
"""


@entry("media_png_real", sql=SQL_MEDIA_PNG_REAL)
def q_media_png_real(sf_dir: str) -> pd.DataFrame:
    """REAL PNG decode with NO codec library: deterministic formula
    pixels → real PNG bytes (zlib-deflated IDAT, per-row rotation
    through all five PNG filter types, CRC'd chunks) → stdlib-inflate +
    numpy unfilter in an actor pool → exact int64 channel sums.  The
    twin regenerates every pixel from the closed-form formula, so the
    whole compressed round-trip (filter → deflate → inflate → unfilter)
    is genuinely under test."""
    import ray.data

    from jesse_ray.functions.multimodal import (
        make_synthetic_png_table,
        png_channel_sums,
    )

    ds = ray.data.from_arrow(make_synthetic_png_table(N_PNG))
    out = _collect(png_channel_sums(ds)).to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    return out.astype({"width": "int64", "height": "int64"})


# ---------------------------------------------------------------------------
# doc_encoding_audit — encoding-quality / mojibake hygiene gate

_ENC_ART = " Ã©â€œ�x \x07junk"  # 2 mojibake hits, 1 U+FFFD, 1 C0 control


SQL_DOC_ENCODING_AUDIT = """
WITH t AS (
  SELECT source,
         coalesce(text, '') ||
         CASE WHEN doc_id % 37 = 5
              THEN ' Ã©â€œ' || chr(65533) || 'x ' || chr(7) || 'junk'
              ELSE '' END AS tx
  FROM documents
),
c AS (
  SELECT source,
         len(regexp_extract_all(tx, chr(65533))) AS nr,
         len(regexp_extract_all(tx, '[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f\\x7f]|[\\x80-\\x9f]')) AS nc,
         len(regexp_extract_all(tx, 'Ã[ -¿]|â€')) AS nm
  FROM t
)
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CASE WHEN nr = 0 AND nc = 0 AND nm = 0 THEN 0 ELSE 1 END) AS BIGINT) AS bad_docs,
       CAST(sum(nr) AS BIGINT) AS sum_replacement,
       CAST(sum(nc) AS BIGINT) AS sum_control,
       CAST(sum(nm) AS BIGINT) AS sum_mojibake
FROM c GROUP BY source ORDER BY source
"""


@entry("doc_encoding_audit", sql=SQL_DOC_ENCODING_AUDIT)
def q_doc_encoding_audit(sf_dir: str) -> pd.DataFrame:
    """Encoding-quality audit (replacement chars, C0/C1 controls,
    UTF-8-as-Latin-1 mojibake) per source.  Artifacts are injected
    deterministically (doc_id % 37 == 5) on BOTH sides so the counting
    kernels are genuinely under test — the engine counts with Arrow RE2
    kernels, the twin independently with DuckDB regexp_extract_all."""
    from jesse_ray.functions.text import add_encoding_audit

    ds = read_table(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "text", "source"])

    def corrupt(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        mask = pa.array((ids % 37) == 5)
        suffix = pc.if_else(mask, pa.scalar(_ENC_ART), pa.scalar(""))
        tx = pc.binary_join_element_wise(
            pc.fill_null(b["text"], ""), suffix, "")
        return pa.table({"source": b["source"], "text": tx})

    audited = add_encoding_audit(
        ds.map_batches(corrupt, batch_format="pyarrow", zero_copy_batch=True))

    def to_part(b: pa.Table) -> pa.Table:
        return pa.table({
            "source": b["source"],
            "n_docs": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "bad_docs": pc.subtract(pa.scalar(1, type=pa.int64()), b["enc_ok"]),
            "sum_replacement": b["n_replacement"],
            "sum_control": b["n_control"],
            "sum_mojibake": b["n_mojibake"],
        })

    from jesse_ray.pipelines.relational import grouped_agg

    out = grouped_agg(
        audited.map_batches(to_part, batch_format="pyarrow", zero_copy_batch=True),
        ["source"],
        sums=["n_docs", "bad_docs", "sum_replacement", "sum_control",
              "sum_mojibake"],
        count_alias=None,
    ).to_pandas().sort_values("source").reset_index(drop=True)
    out = out.rename(columns={f"sum_{c}": c for c in (
        "n_docs", "bad_docs", "sum_replacement", "sum_control", "sum_mojibake")})
    return out[["source", "n_docs", "bad_docs", "sum_replacement",
                "sum_control", "sum_mojibake"]].astype(
        {c: "int64" for c in out.columns if c != "source"})


# ---------------------------------------------------------------------------
# doc_script_profile — Unicode-script mixing / contamination signal

_SCRIPT_INJECT = [
    (3, " Привет мир"),     # cyrillic
    (7, " 你好世界"),         # cjk
    (11, " مرحبا بالعالم"),  # arabic
]


def _script_profile_sql() -> str:
    from jesse_ray.functions.text import SCRIPT_BLOCKS

    cnt = ",\n         ".join(
        f"len(regexp_extract_all(tx, '{pat}')) AS n_{name}"
        for name, pat in SCRIPT_BLOCKS)
    names = [n for n, _ in SCRIPT_BLOCKS]
    ge_all = {n: " AND ".join(f"n_{n} >= n_{m}" for m in names if m != n)
              for n in names}
    dom = "CASE WHEN " + " + ".join(f"n_{n}" for n in names) + " = 0 THEN 'none' "
    dom += " ".join(f"WHEN {ge_all[n]} THEN '{n}'" for n in names) + " END"
    inj = " || ".join(
        f"CASE WHEN doc_id % 23 = {mod} THEN '{art}' ELSE '' END"
        for mod, art in _SCRIPT_INJECT)
    sums = ", ".join(
        [f"CAST(sum(n_{n}) AS BIGINT) AS n_{n}" for n in names]
        + [f"CAST(sum(CASE WHEN dom = '{n}' THEN 1 ELSE 0 END) AS BIGINT) AS dom_{n}"
           for n in ("latin", "cyrillic", "cjk", "arabic")])
    return f"""
WITH t AS (
  SELECT source, coalesce(text, '') || {inj} AS tx FROM documents
),
c AS (
  SELECT source,
         {cnt}
  FROM t
),
d AS (SELECT *, {dom} AS dom FROM c)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs, {sums}
FROM d GROUP BY source ORDER BY source
"""


@entry("doc_script_profile", sql=_script_profile_sql())
def q_doc_script_profile(sf_dir: str) -> pd.DataFrame:
    """Unicode-script profile per source: script codepoint sums + docs
    per dominant script.  Foreign-script spans are injected
    deterministically (doc_id % 23 buckets) on both sides; the twin
    re-counts with the same RE2 block classes and re-derives dominance
    with a priority CASE chain."""
    from jesse_ray.functions.text import SCRIPT_BLOCKS, add_script_profile

    ds = read_table(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "text", "source"])

    def corrupt(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        tx = pc.fill_null(b["text"], "")
        for mod, art in _SCRIPT_INJECT:
            suffix = pc.if_else(pa.array((ids % 23) == mod),
                                pa.scalar(art), pa.scalar(""))
            tx = pc.binary_join_element_wise(tx, suffix, "")
        return pa.table({"source": b["source"], "text": tx})

    prof = add_script_profile(
        ds.map_batches(corrupt, batch_format="pyarrow", zero_copy_batch=True))

    count_cols = [f"n_{n}" for n, _ in SCRIPT_BLOCKS]

    def to_part(b: pa.Table) -> pa.Table:
        cols = {"source": b["source"],
                "n_docs": pa.array(np.ones(b.num_rows, dtype=np.int64))}
        for c in count_cols:
            cols[c] = b[c]
        dom = b["dominant_script"]
        for n in ("latin", "cyrillic", "cjk", "arabic"):
            cols[f"dom_{n}"] = pc.cast(pc.equal(dom, n), pa.int64())
        return pa.table(cols)

    from jesse_ray.pipelines.relational import grouped_agg

    sums = ["n_docs"] + count_cols + ["dom_latin", "dom_cyrillic", "dom_cjk",
                                      "dom_arabic"]
    out = grouped_agg(
        prof.map_batches(to_part, batch_format="pyarrow", zero_copy_batch=True),
        ["source"], sums=sums, count_alias=None,
    ).to_pandas().sort_values("source").reset_index(drop=True)
    out = out.rename(columns={f"sum_{c}": c for c in sums})
    return out[["source"] + sums].astype(
        {c: "int64" for c in sums})


# ---------------------------------------------------------------------------
# doc_winnow_overlap — MOSS winnowing fingerprint overlap report

WINNOW_K, WINNOW_W, WINNOW_MIN = 4, 4, 2


SQL_DOC_WINNOW_OVERLAP = f"""
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
g AS (
  SELECT doc_id, i, array_to_string(ws[i:i+{WINNOW_K - 1}], ' ') AS gram
  FROM (SELECT doc_id, ws, unnest(generate_series(1, len(ws) - {WINNOW_K - 1})) AS i FROM w)
),
sel AS (
  SELECT DISTINCT doc_id, fp FROM (
    SELECT doc_id,
           MIN(gram) OVER (PARTITION BY doc_id ORDER BY i
                           ROWS BETWEEN CURRENT ROW AND {WINNOW_W - 1} FOLLOWING) AS fp
    FROM g)
)
SELECT a.doc_id AS "left", b.doc_id AS "right",
       CAST(count(*) AS BIGINT) AS n_shared
FROM sel a JOIN sel b ON a.fp = b.fp AND a.doc_id < b.doc_id
GROUP BY 1, 2 HAVING count(*) >= {WINNOW_MIN}
ORDER BY 1, 2
"""


@entry("doc_winnow_overlap", sql=SQL_DOC_WINNOW_OVERLAP)
def q_doc_winnow_overlap(sf_dir: str) -> pd.DataFrame:
    """Winnowing (MOSS) overlap pairs: k-word grams, lexicographic
    window-of-w minima as per-doc fingerprints, pairs sharing ≥2.  The
    twin re-derives selection with MIN() OVER a shrinking window and
    re-joins on the fingerprint STRING — selection, dedup, pairing and
    multiplicity are all independently recomputed."""
    from jesse_ray.functions.dedup import winnow_overlap_pairs

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = _collect(winnow_overlap_pairs(
        ds, k=WINNOW_K, w=WINNOW_W, min_shared=WINNOW_MIN)).to_pandas()
    out = out.sort_values(["left", "right"]).reset_index(drop=True)
    return out.astype({"left": "int64", "right": "int64", "n_shared": "int64"})


# ---------------------------------------------------------------------------
# doc_bow_dedup — word-multiset (order-insensitive) duplicate clusters


SQL_DOC_BOW_DEDUP = """
WITH base AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
inj AS (
  SELECT b.doc_id,
         CASE WHEN b.doc_id % 41 = 2 AND p.text IS NOT NULL
              THEN array_to_string(list_reverse(string_split(p.text, ' ')), ' ')
              ELSE b.text END AS text
  FROM base b LEFT JOIN base p ON p.doc_id = b.doc_id - 1
),
c AS (
  SELECT doc_id,
         array_to_string(list_sort(string_split(text, ' ')), ' ') AS canon
  FROM inj
)
SELECT CAST(min(doc_id) AS BIGINT) AS keeper, CAST(count(*) AS BIGINT) AS size
FROM c GROUP BY canon HAVING count(*) > 1 ORDER BY keeper
"""


@entry("doc_bow_dedup", sql=SQL_DOC_BOW_DEDUP)
def q_doc_bow_dedup(sf_dir: str) -> pd.DataFrame:
    """Bag-of-words dedup: clusters of documents whose word MULTISETS
    are identical (catches reordered boilerplate byte-exact dedup
    misses).  Keeper = min doc_id per cluster; twin groups by
    list_sort(string_split(...)) independently."""
    from jesse_ray.functions.dedup import bow_duplicate_clusters
    from jesse_ray.pipelines.relational import hash_join

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    # inject order-scrambled dups on BOTH sides: docs with id % 41 == 2
    # become the WORD-REVERSED text of doc id-1 (byte-unequal, multiset-
    # equal) so the order-insensitive path is genuinely exercised
    nxt = ds.map_batches(
        lambda b: pa.table({
            "doc_id": pc.add(b["doc_id"], pa.scalar(1, type=pa.int64())),
            "prev_text": pc.fill_null(b["text"], "")}),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(ds, nxt, on="doc_id", how="left")

    def inject(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        text = pc.fill_null(b["text"], "").to_numpy(zero_copy_only=False)
        prev = b["prev_text"].to_numpy(zero_copy_only=False)
        hit = np.flatnonzero(((ids % 41) == 2) & (prev != None))  # noqa: E711
        out = text.copy()
        for i in hit:
            out[i] = " ".join(reversed(prev[i].split(" ")))
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                         "text": pa.array(out, type=pa.string())})

    inj = joined.map_batches(inject, batch_format="pyarrow", zero_copy_batch=True)
    t = _collect(bow_duplicate_clusters(inj))
    if t is None:
        return pd.DataFrame({"keeper": pd.Series([], dtype="int64"),
                             "size": pd.Series([], dtype="int64")})
    out = t.to_pandas().sort_values("keeper").reset_index(drop=True)
    return out.astype({"keeper": "int64", "size": "int64"})


# ---------------------------------------------------------------------------
# events_watermark_late — streaming watermark / allowed-lateness semantics

WM_LATENESS_S = 300
WM_JITTER_MOD, WM_JITTER_STEP_S = 17, 90


SQL_EVENTS_WATERMARK_LATE = f"""
WITH j AS (
  SELECT event_id, event_type,
         ts - (event_id % {WM_JITTER_MOD}) * INTERVAL {WM_JITTER_STEP_S} SECOND AS ts
  FROM events
),
w AS (
  SELECT event_type, ts,
         MAX(ts) OVER (ORDER BY event_id) AS wm
  FROM j
)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN ts < wm - INTERVAL {WM_LATENESS_S} SECOND
                THEN 1 ELSE 0 END) AS BIGINT) AS n_late
FROM w GROUP BY event_type ORDER BY event_type
"""


@entry("events_watermark_late", sql=SQL_EVENTS_WATERMARK_LATE)
def q_events_watermark_late(sf_dir: str) -> pd.DataFrame:
    """Watermark late-event marking over a replayed log (arrival order =
    event_id, watermark = running max event time, allowed lateness
    300 s).  The driver events are perfectly ordered, so deterministic
    jitter (ts − (event_id % 17)·90 s) is applied on BOTH sides to
    create genuine out-of-order arrivals; the twin re-derives the
    watermark with MAX() OVER (ORDER BY event_id) and the same drop
    rule.  Output: per event_type kept/late counts."""
    from jesse_ray.pipelines.relational import grouped_agg, watermark_late_filter

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "ts", "event_type"])

    def jitter(b: pa.Table) -> pa.Table:
        ids = b["event_id"].to_numpy(zero_copy_only=False)
        ts = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        shifted = ts - (ids % WM_JITTER_MOD) * (WM_JITTER_STEP_S * 1_000_000)
        return pa.table({
            "event_id": b["event_id"],
            "ts": pa.array(shifted).cast(pa.timestamp("us")),
            "event_type": b["event_type"],
        })

    marked = watermark_late_filter(
        ds.map_batches(jitter, batch_format="pyarrow", zero_copy_batch=True),
        order_col="event_id", ts_col="ts", lateness_s=WM_LATENESS_S)

    def to_part(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": b["event_type"],
            "n_events": pa.array(np.ones(b.num_rows, dtype=np.int64)),
            "n_late": b["late"],
        })

    out = grouped_agg(
        marked.map_batches(to_part, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type"], sums=["n_events", "n_late"], count_alias=None,
    ).to_pandas().sort_values("event_type").reset_index(drop=True)
    out = out.rename(columns={"sum_n_events": "n_events", "sum_n_late": "n_late"})
    return out[["event_type", "n_events", "n_late"]].astype(
        {"n_events": "int64", "n_late": "int64"})


# ---------------------------------------------------------------------------
# media_audio_real / media_frames_real — REAL audio + frame sampling

N_WAV, N_VID, VID_STRIDE = 32, 24, 2


SQL_MEDIA_AUDIO_REAL = f"""
WITH clip AS (
  SELECT i,
         800 + 37 * i          AS n,
         8000 + 1000 * (i % 5) AS rate,
         3 + 2 * (i % 11)      AS a,
         17 * i                AS c
  FROM (SELECT unnest(range(0, {N_WAV})) AS i)
),
ts AS (SELECT i, unnest(range(0, n)) AS t FROM clip),
v AS (
  SELECT ts.i, ((clip.a * ts.t + clip.c) % 65536) - 32768 AS s
  FROM ts JOIN clip ON clip.i = ts.i
)
SELECT printf('wav-%06d', clip.i) AS media_id,
       CAST(clip.n AS BIGINT) AS n_samples,
       CAST(clip.rate AS BIGINT) AS sample_rate,
       CAST(sum(v.s) AS BIGINT) AS sample_sum,
       CAST(max(abs(v.s)) AS BIGINT) AS max_abs
FROM v JOIN clip ON clip.i = v.i
GROUP BY clip.i, clip.n, clip.rate ORDER BY media_id
"""


@entry("media_audio_real", sql=SQL_MEDIA_AUDIO_REAL)
def q_media_audio_real(sf_dir: str) -> pd.DataFrame:
    """REAL audio decode (RIFF/WAVE PCM16, no codec library): formula
    samples → WAV bytes → chunk-walk decode in an actor pool → exact
    integer features; twin regenerates every sample in SQL."""
    import ray.data

    from jesse_ray.functions.multimodal import make_synthetic_wav_table, wav_features

    ds = ray.data.from_arrow(make_synthetic_wav_table(N_WAV))
    out = _collect(wav_features(ds.drop_columns(["sample_rate", "n_samples"]))).to_pandas()
    return out.sort_values("media_id").reset_index(drop=True)


SQL_MEDIA_FRAMES_REAL = f"""
WITH vid AS (
  SELECT i,
         3 + (i % 4)        AS nf,
         12 + (i % 9)       AS w,
         8 + ((i * 5) % 11) AS h,
         1 + (i % 5)        AS a,
         2 + (i % 7)        AS b
  FROM (SELECT unnest(range(0, {N_VID})) AS i)
),
fr AS (SELECT i, unnest(range(0, nf)) AS f FROM vid),
keep AS (SELECT i, f FROM fr WHERE f % {VID_STRIDE} = 0),
xs AS (SELECT i, unnest(range(0, w)) AS x FROM vid),
ys AS (SELECT i, unnest(range(0, h)) AS y FROM vid),
cs AS (SELECT i, unnest(range(0, 3)) AS c FROM vid),
px AS (
  SELECT keep.i, keep.f, cs.c,
         (vid.a * xs.x + vid.b * ys.y + vid.i + 7 * keep.f + 11 * cs.c) % 256 AS v
  FROM keep
  JOIN vid ON vid.i = keep.i
  JOIN xs ON xs.i = keep.i
  JOIN ys ON ys.i = keep.i
  JOIN cs ON cs.i = keep.i
)
SELECT printf('vid-%06d', i) AS media_id,
       CAST(f AS BIGINT) AS frame,
       CAST(sum(CASE WHEN c = 0 THEN v END) AS BIGINT) AS sum_r,
       CAST(sum(CASE WHEN c = 1 THEN v END) AS BIGINT) AS sum_g,
       CAST(sum(CASE WHEN c = 2 THEN v END) AS BIGINT) AS sum_b
FROM px GROUP BY i, f ORDER BY media_id, frame
"""


@entry("media_frames_real", sql=SQL_MEDIA_FRAMES_REAL)
def q_media_frames_real(sf_dir: str) -> pd.DataFrame:
    """REAL video frame sampling (raw concatenated-PPM sequences):
    exact frame-boundary walk, stride-2 sampling, per-frame decode +
    channel sums; twin regenerates each sampled frame's pixels."""
    import ray.data

    from jesse_ray.functions.multimodal import (
        make_synthetic_ppm_video_table, sample_frames_real,
    )

    ds = ray.data.from_arrow(make_synthetic_ppm_video_table(N_VID))
    out = _collect(sample_frames_real(ds.drop_columns(["n_frames"]), stride=VID_STRIDE)).to_pandas()
    out["frame"] = out["frame"].astype("int64")
    return out.sort_values(["media_id", "frame"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# seq_merge_upsert — MERGE INTO (upsert/delete) over the corpus

def _merge_base(sf_dir: str):
    """Base snapshot with the merge key contract enforced: non-null,
    corpus-unique doc_id (dup ids are the engine's seq_val_docid_dups
    territory, excluded identically in the SQL twin)."""
    from jesse_ray.pipelines.relational import drop_duplicate_keys

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "source", "n_tok"])

    def nonnull(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_valid(b["doc_id"]))

    return drop_duplicate_keys(
        ds.map_batches(nonnull, batch_format="pyarrow", zero_copy_batch=True),
        "doc_id")


N_MERGE_INSERTS = 50


SQL_SEQ_MERGE_UPSERT = f"""
WITH dups AS (
  SELECT doc_id FROM {SEQ_SQL} WHERE doc_id IS NOT NULL
  GROUP BY doc_id HAVING count(*) > 1
),
base AS (
  SELECT doc_id, source, n_tok FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND doc_id NOT IN (SELECT doc_id FROM dups)
),
upserts AS (
  SELECT doc_id, source, n_tok + 1000 AS n_tok
  FROM base WHERE doc_id LIKE '%0' AND source = 'web'
  UNION ALL
  SELECT printf('new-%06d', i), 'wiki', 100 + i
  FROM (SELECT unnest(range(0, {N_MERGE_INSERTS})) AS i)
),
dels AS (
  SELECT doc_id FROM base WHERE doc_id LIKE '%7' AND source = 'books'
),
merged AS (
  SELECT * FROM base
  WHERE doc_id NOT IN (SELECT doc_id FROM upserts)
    AND doc_id NOT IN (SELECT doc_id FROM dels)
  UNION ALL
  SELECT * FROM upserts
)
SELECT source, CAST(count(*) AS BIGINT) AS cnt,
       CAST(sum(n_tok) AS BIGINT) AS n_tok_sum
FROM merged GROUP BY source ORDER BY source
"""


@entry("seq_merge_upsert", sql=SQL_SEQ_MERGE_UPSERT)
def q_seq_merge_upsert(sf_dir: str) -> pd.DataFrame:
    """Warehouse MERGE INTO over the corpus snapshot
    (relational.merge_upsert — one key-hash cogroup, no broadcast):
    deterministic changes derived from the base itself (web docs ending
    '0' get n_tok + 1000; books docs ending '7' are deleted; 50 fresh
    wiki rows are inserted), then per-source row counts + n_tok sums of
    the MERGED table; the twin rebuilds the merge with anti-join +
    union in SQL."""
    import ray.data

    from jesse_ray.pipelines.relational import merge_upsert

    base = _merge_base(sf_dir)

    def mk_updates(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.match_like(b["doc_id"], "%0"),
                    pc.equal(b["source"], pa.scalar("web")))
        t = b.filter(m)
        up = pa.table({
            "doc_id": t["doc_id"], "source": t["source"],
            "n_tok": pc.add(t["n_tok"], pa.scalar(1000, type=pa.int32())),
            "__op": pa.array(["upsert"] * t.num_rows, type=pa.string()),
        })
        d = b.filter(pc.and_(pc.match_like(b["doc_id"], "%7"),
                             pc.equal(b["source"], pa.scalar("books"))))
        dl = pa.table({
            "doc_id": d["doc_id"], "source": d["source"], "n_tok": d["n_tok"],
            "__op": pa.array(["delete"] * d.num_rows, type=pa.string()),
        })
        return pa.concat_tables([up, dl])

    updates = base.map_batches(mk_updates, batch_format="pyarrow", zero_copy_batch=True)
    ins = pa.table({
        "doc_id": pa.array([f"new-{i:06d}" for i in range(N_MERGE_INSERTS)]),
        "source": pa.array(["wiki"] * N_MERGE_INSERTS),
        "n_tok": pa.array(np.arange(N_MERGE_INSERTS, dtype=np.int32) + 100),
        "__op": pa.array(["upsert"] * N_MERGE_INSERTS),
    })
    updates = updates.union(ray.data.from_arrow(ins))
    merged = merge_upsert(base, updates, key="doc_id")

    def summarize(b: pa.Table) -> pa.Table:
        g = b.group_by("source").aggregate([("n_tok", "sum"), ([], "count_all")])
        return g.rename_columns(["source", "n_tok_sum", "cnt"])

    out = _collect(merged.map_batches(summarize, batch_format="pyarrow")).to_pandas()
    out = out.groupby("source", sort=True).sum().reset_index()
    out["cnt"] = out["cnt"].astype("int64")
    out["n_tok_sum"] = out["n_tok_sum"].astype("int64")
    return out[["source", "cnt", "n_tok_sum"]]


# ---------------------------------------------------------------------------
# events_abtest — two-proportion z-test on hash-bucketed users

SQL_EVENTS_ABTEST = """
WITH u AS (
  SELECT user_id,
         CAST(user_id % 2 AS BIGINT) AS bucket,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS conv
  FROM events GROUP BY user_id
),
b AS (
  SELECT bucket, CAST(count(*) AS DOUBLE) AS n, CAST(sum(conv) AS DOUBLE) AS c
  FROM u GROUP BY bucket
),
w AS (
  SELECT max(CASE WHEN bucket = 0 THEN n END) AS n_a,
         max(CASE WHEN bucket = 1 THEN n END) AS n_b,
         max(CASE WHEN bucket = 0 THEN c END) AS c_a,
         max(CASE WHEN bucket = 1 THEN c END) AS c_b
  FROM b
)
SELECT CAST(n_a AS BIGINT) AS n_a, CAST(n_b AS BIGINT) AS n_b,
       CAST(c_a AS BIGINT) AS conv_a, CAST(c_b AS BIGINT) AS conv_b,
       round((c_a / n_a - c_b / n_b)
             / sqrt(((c_a + c_b) / (n_a + n_b)) * (1.0 - (c_a + c_b) / (n_a + n_b))
                    * (1.0 / n_a + 1.0 / n_b)), 4) AS z
FROM w
"""


@entry("events_abtest", sql=SQL_EVENTS_ABTEST)
def q_events_abtest(sf_dir: str) -> pd.DataFrame:
    """A/B test readout: users split by parity bucket, conversion = had
    at least one 'purchase' event, two-proportion pooled z statistic.
    Scale shape: per-batch (user, purchased) Arrow partial max → coarse
    user-hash parts → per-part exact per-user merge + per-bucket
    partial counts → 4-int driver reduction; the z formula runs once on
    scalars (identical op order to the SQL twin, so round(4) is
    stable)."""

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partial(b: pa.Table) -> pa.Table:
        conv = pc.cast(pc.equal(b["event_type"], pa.scalar("purchase")), pa.int64())
        t = pa.table({"user_id": b["user_id"], "conv": conv})
        g = t.group_by("user_id").aggregate([("conv", "max")])
        return g.rename_columns(["user_id", "conv"])

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("user_id", sort=False)["conv"].max().reset_index()
        m["bucket"] = (m["user_id"] % 2).astype("int64")
        c = m.groupby("bucket").agg(n=("user_id", "size"), conv=("conv", "sum")).reset_index()
        return c

    parts = map_key_buckets(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
                            ["user_id"], bucket_counts).to_pandas()
    tot = parts.groupby("bucket").sum().reindex([0, 1]).fillna(0)
    n_a, n_b = float(tot.loc[0, "n"]), float(tot.loc[1, "n"])
    c_a, c_b = float(tot.loc[0, "conv"]), float(tot.loc[1, "conv"])
    p = (c_a + c_b) / (n_a + n_b)
    z = (c_a / n_a - c_b / n_b) / np.sqrt(p * (1.0 - p) * (1.0 / n_a + 1.0 / n_b))
    return pd.DataFrame({
        "n_a": pd.array([int(n_a)], dtype="int64"),
        "n_b": pd.array([int(n_b)], dtype="int64"),
        "conv_a": pd.array([int(c_a)], dtype="int64"),
        "conv_b": pd.array([int(c_b)], dtype="int64"),
        "z": [round_half_away(float(z), 4)],
    })


# ---------------------------------------------------------------------------
# seq_token_pagerank — iterative fixed-point PageRank on token adjacency

PR_ITERS = 5


def _token_edges(sf_dir: str):
    """Weighted adjacency edges (a→b for consecutive tokens, both in
    [0, VOCAB)): per-batch vectorized pair extraction + packed-key
    np.unique partial counts, then one coarse packed-key-hash part
    merge to exact global weights."""
    from jesse_ray import testgen

    vocab = testgen.VOCAB
    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])

    def pairs(b: pa.Table) -> pa.Table:
        toks = b["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        keep = pc.and_(pc.is_valid(toks), pc.greater(pc.list_value_length(toks), 1))
        if not pc.all(keep).as_py():
            toks = toks.filter(keep)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        off = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        vals = pc.list_flatten(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        a = np.delete(vals, off[1:] - 1)  # drop each list's last element
        bb = np.delete(vals, off[:-1])    # drop each list's first element
        ok = (a >= 0) & (a < vocab) & (bb >= 0) & (bb < vocab)
        packed = (a[ok] << np.int64(20)) | bb[ok]
        uk, cnt = np.unique(packed, return_counts=True)
        return pa.table({"key": pa.array(uk), "w": pa.array(cnt.astype(np.int64))})

    def merge(g: pd.DataFrame) -> pa.Table:
        m = g.groupby("key", sort=False)["w"].sum().reset_index()
        k = m["key"].to_numpy(dtype=np.int64)
        return pa.table({
            "src": pa.array(k >> np.int64(20)),
            "dst": pa.array(k & np.int64((1 << 20) - 1)),
            "w": pa.array(m["w"].to_numpy(dtype=np.int64)),
        })

    return map_key_buckets(ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
                           ["key"], merge)


def _pagerank_sql() -> str:
    from jesse_ray import testgen
    from jesse_ray.functions.graph import PR_D_DEN, PR_D_NUM, PR_SCALE

    v = testgen.VOCAB
    head = f"""
WITH s AS (
  SELECT tokens FROM {SEQ_SQL} WHERE tokens IS NOT NULL AND len(tokens) > 1
),
pr_u AS (
  SELECT unnest(tokens[1:len(tokens) - 1]) AS a,
         unnest(tokens[2:len(tokens)])     AS b
  FROM s
),
e AS (
  SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b,
         CAST(count(*) AS BIGINT) AS w
  FROM pr_u
  WHERE a >= 0 AND a < {v} AND b >= 0 AND b < {v}
  GROUP BY 1, 2
),
nodes AS (SELECT DISTINCT a AS node FROM e UNION SELECT DISTINCT b FROM e),
nn AS (SELECT count(*) AS n FROM nodes),
outw AS (SELECT a AS node, sum(w) AS ow FROM e GROUP BY a),
r0 AS (SELECT node, {PR_SCALE} // (SELECT n FROM nn) AS r FROM nodes)"""
    iters = []
    for k in range(1, PR_ITERS + 1):
        iters.append(f""",
r{k} AS (
  SELECT n.node,
         ({PR_SCALE} * {PR_D_DEN - PR_D_NUM} // {PR_D_DEN}) // (SELECT n FROM nn)
           + (coalesce(sub.t, 0) * {PR_D_NUM}) // {PR_D_DEN} AS r
  FROM nodes n LEFT JOIN (
    SELECT e.b AS node, sum((p.r * e.w) // o.ow) AS t
    FROM e
    JOIN r{k - 1} p ON p.node = e.a
    JOIN outw o ON o.node = e.a
    GROUP BY e.b
  ) sub ON sub.node = n.node
)""")
    tail = f"""
SELECT node AS token, r AS score FROM r{PR_ITERS}
ORDER BY score DESC, token ASC LIMIT 20
"""
    return head + "".join(iters) + tail


@entry("seq_token_pagerank", sql=_pagerank_sql())
def q_seq_token_pagerank(sf_dir: str) -> pd.DataFrame:
    """Top-20 tokens by fixed-point PageRank over the corpus adjacency
    graph (graph.pagerank_fixedpoint, 5 iterations).  Integer floor
    arithmetic end to end → the unrolled-iteration SQL twin matches
    EXACTLY, proving an iterative distributed algorithm against an
    oracle with zero float tolerance."""
    from jesse_ray.functions.graph import pagerank_fixedpoint

    t = pagerank_fixedpoint(_token_edges(sf_dir), n_iters=PR_ITERS)
    idx = pc.sort_indices(t, sort_keys=[("score", "descending"), ("node", "ascending")])
    top = t.take(idx[:20]).rename_columns(["token", "score"])
    return top.to_pandas()


# ---------------------------------------------------------------------------
# seq_orc_read / seq_feather_read — alternate source formats, lossless

def _alt_format_path(sf_dir: str, fmt: str) -> str:
    """One-time parquet→{orc,feather} conversion of the corpus under
    /tmp (stamped, idempotent): the catalog queries then prove the
    stripe-/batch-parallel readers are LOSSLESS vs the parquet twin."""
    import os

    import pyarrow.parquet as _pq

    src = _seq_path(sf_dir)
    dst = f"/tmp/jesse_ray_data/alt_{os.path.basename(os.path.dirname(src))}.{fmt}"
    stamp = dst + ".done"
    if not os.path.exists(stamp):
        t = _pq.read_table(src)
        if fmt == "orc":
            import pyarrow.orc as orc

            orc.write_table(t, dst, stripe_size=1024 * 1024)
        else:
            import pyarrow.feather as feather

            feather.write_feather(t, dst, chunksize=16384, compression="uncompressed")
        open(stamp, "w").write("ok")
    return dst


def _format_checksum(ds) -> pd.DataFrame:
    def part(b: pa.Table) -> pa.Table:
        toks = b["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat_sum = pc.sum(pc.list_flatten(toks).cast(pa.int64()))
        return pa.table({
            "rows": pa.array([b.num_rows], type=pa.int64()),
            "tok_sum": pa.array([flat_sum.as_py() or 0], type=pa.int64()),
            "ntok_sum": pa.array([pc.sum(b["n_tok"].cast(pa.int64())).as_py() or 0],
                                 type=pa.int64()),
        })

    t = _collect(ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True))
    pdf = t.to_pandas().sum().to_frame().T
    return pdf.astype({"rows": "int64", "tok_sum": "int64", "ntok_sum": "int64"})


SQL_SEQ_FORMAT_CHECKSUM = f"""
SELECT CAST(count(*) AS BIGINT) AS rows,
       CAST((SELECT sum(t) FROM (SELECT unnest(tokens) AS t FROM {SEQ_SQL})) AS BIGINT) AS tok_sum,
       CAST(sum(n_tok) AS BIGINT) AS ntok_sum
FROM {SEQ_SQL}
"""


@entry("seq_orc_read", sql=SQL_SEQ_FORMAT_CHECKSUM)
def q_seq_orc_read(sf_dir: str) -> pd.DataFrame:
    """Stripe-parallel ORC read (sources.read_orc) of the converted
    corpus; whole-corpus row/token checksums must equal the parquet
    twin's — the reader is lossless and column-pruned."""
    from jesse_ray.sources import read_corpus

    ds = read_corpus(_alt_format_path(sf_dir, "orc"), format="orc",
                     columns=["tokens", "n_tok"])
    return _format_checksum(ds)


@entry("seq_feather_read", sql=SQL_SEQ_FORMAT_CHECKSUM)
def q_seq_feather_read(sf_dir: str) -> pd.DataFrame:
    """Batch-range-parallel Arrow IPC / Feather read
    (sources.read_feather), same lossless-checksum contract."""
    from jesse_ray.sources import read_corpus

    ds = read_corpus(_alt_format_path(sf_dir, "feather"), format="feather",
                     columns=["tokens", "n_tok"])
    return _format_checksum(ds)


# ---------------------------------------------------------------------------
# doc_e2e_pipeline — flagship documents-curation composite

DOC_E2E_LANGS = ["en", "de", "fr", "es"]


SQL_DOC_E2E_PIPELINE = f"""
WITH base AS (
  SELECT doc_id, source, coalesce(text, '') AS t FROM documents
  WHERE lang IN ({", ".join(f"'{x}'" for x in DOC_E2E_LANGS)})
),
stats AS (
  SELECT doc_id,
         CAST(len(string_split(t, ' ')) AS BIGINT) AS n_words,
         CAST(length(t) - (len(string_split(t, ' ')) - 1) AS BIGINT) AS sum_word_len,
         CAST(len(list_filter(string_split(t, ' '),
                              w -> regexp_matches(w, '[A-Za-z]'))) AS BIGINT) AS n_alpha_words,
         CAST(len(list_filter(string_split(t, ' '),
                              w -> list_contains(['the','be','to','of','and','that','have','with'],
                                                 lower(w)))) AS BIGINT) AS n_stop_words,
         CAST((length(t) - length(replace(t, '#', '')))
              + (length(t) - length(replace(t, '...', ''))) // 3 AS BIGINT) AS n_sym
  FROM base
),
quality AS (
  SELECT b.doc_id, b.source, b.t FROM base b JOIN stats s ON s.doc_id = b.doc_id
  WHERE s.n_words BETWEEN 50 AND 100000
    AND 3 * s.n_words <= s.sum_word_len AND s.sum_word_len <= 10 * s.n_words
    AND 10 * s.n_sym <= s.n_words
    AND 10 * s.n_alpha_words >= 8 * s.n_words
    AND s.n_stop_words >= 2
),
norm AS (
  SELECT doc_id, source,
         trim(regexp_replace(regexp_replace(lower(t), '[^a-z0-9 ]', ' ', 'g'),
                             ' +', ' ', 'g'), ' ') AS tn
  FROM quality
),
ded AS (
  SELECT doc_id, source, tn FROM norm n1
  WHERE doc_id = (SELECT min(doc_id) FROM norm n2 WHERE n2.tn = n1.tn)
),
w AS (SELECT doc_id, string_split(tn, ' ') AS ws FROM ded),
g AS (
  SELECT DISTINCT doc_id, array_to_string(ws[i:i+7], ' ') AS gram
  FROM (SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 7)) AS i FROM w)
),
dropped AS (SELECT DISTINCT b.doc_id FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id),
fin AS (SELECT * FROM ded WHERE doc_id NOT IN (SELECT doc_id FROM dropped))
SELECT source, CAST(count(*) AS BIGINT) AS cnt,
       CAST(sum(len(string_split(tn, ' '))) AS BIGINT) AS words_sum
FROM fin GROUP BY source ORDER BY source
"""


@entry("doc_e2e_pipeline", sql=SQL_DOC_E2E_PIPELINE)
def q_doc_e2e_pipeline(sf_dir: str) -> pd.DataFrame:
    """END-TO-END document curation, one oracle-checked composite
    (the documents twin of seq_e2e_pipeline): language filter → Gopher
    quality gate → canonical normalization → exact dedup on normalized
    text (keeper = min doc_id, coarse text-hash cogroup) → exact
    substring near-dup drop (any doc sharing a verbatim 8-word window
    with a smaller doc_id is dropped) → per-source survivor counts +
    word-count checksum.  Every stage is a catalog primitive; the twin
    re-derives the WHOLE chain in SQL from the raw documents view —
    no sidecars."""
    from jesse_ray.functions.dedup import substring_dup_pairs
    from jesse_ray.functions.text import add_gopher_stats, normalize_text
    from jesse_ray.pipelines.relational import hash_join

    langs = pa.array(DOC_E2E_LANGS)
    ds = read_table(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "text", "lang", "source"])
    ds = ds.map_batches(
        lambda b: b.filter(pc.is_in(b["lang"], value_set=langs)),
        batch_format="pyarrow", zero_copy_batch=True)
    ds = add_gopher_stats(ds)
    ds = ds.map_batches(
        lambda b: b.filter(pc.equal(b["gopher_pass"], pa.scalar(1, type=pa.int64())))
                   .select(["doc_id", "text", "source"]),
        batch_format="pyarrow", zero_copy_batch=True)
    ds = normalize_text(ds)

    def local_min(b: pa.Table) -> pa.Table:
        # Arrow-native keep-first: sort (text_norm, doc_id) and keep each
        # run head — min doc_id per normalized text, no pandas round-trip
        t = b.select(["doc_id", "source", "text_norm"]).sort_by(
            [("text_norm", "ascending"), ("doc_id", "ascending")])
        tn = t["text_norm"].combine_chunks()
        keep = np.ones(t.num_rows, dtype=bool)
        if t.num_rows > 1:
            neq = pc.not_equal(tn.slice(1), tn.slice(0, len(tn) - 1))
            keep[1:] = pc.fill_null(neq, True).to_numpy(zero_copy_only=False)
        return t.filter(pa.array(keep))

    def part_min(g: pd.DataFrame) -> pd.DataFrame:
        return (g.sort_values("doc_id", kind="mergesort")
                 .drop_duplicates("text_norm", keep="first")[["doc_id", "source", "text_norm"]])

    ded = map_key_buckets(ds.map_batches(local_min, batch_format="pyarrow"), ["text_norm"], part_min)

    # near-dup members removed via a distributed anti-join against the
    # pair "right" ids — no driver-collected id set (unbounded at scale)
    pairs = substring_dup_pairs(ded, k=8, text_col="text_norm")
    drop_keys = pairs.map_batches(
        lambda b: pa.table({"doc_id": b["right"]}), batch_format="pyarrow")
    ded = hash_join(ded, drop_keys, on="doc_id", how="anti")

    def summarize(b: pa.Table) -> pa.Table:
        tn = b["text_norm"]
        if isinstance(tn, pa.ChunkedArray):
            tn = tn.combine_chunks()
        nw = pc.add(pc.count_substring(tn, " "), pa.scalar(1, type=pa.int32())).cast(pa.int64())
        t = pa.table({"source": b["source"], "nw": nw})
        g = t.group_by("source").aggregate([("nw", "sum"), ([], "count_all")])
        return g.rename_columns(["source", "words_sum", "cnt"])

    out = _collect(ded.map_batches(summarize, batch_format="pyarrow")).to_pandas()
    out = out.groupby("source", sort=True).sum().reset_index()
    return out[["source", "cnt", "words_sum"]].astype(
        {"cnt": "int64", "words_sum": "int64"})


# ---------------------------------------------------------------------------
# seq_pack_bestfit — BFD whole-document bin packing

BF_CAP = 2048


SQL_SEQ_PACK_BESTFIT = f"""
WITH dups AS (
  SELECT doc_id FROM {SEQ_SQL} WHERE doc_id IS NOT NULL
  GROUP BY doc_id HAVING count(*) > 1
),
elig AS (
  SELECT doc_id, n_tok FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND doc_id NOT IN (SELECT doc_id FROM dups)
    AND n_tok BETWEEN 1 AND {BF_CAP}
),
s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/bestfit_sigs_sf0.01.parquet')),
binfill AS (SELECT part, bin, sum(n_tok) AS fill FROM s GROUP BY part, bin),
halfempty AS (
  SELECT part, count(*) AS c FROM binfill WHERE 2 * fill <= {BF_CAP} GROUP BY part
),
gates AS (
  SELECT (SELECT count(*) FROM s) = (SELECT count(*) FROM elig)
     AND (SELECT count(DISTINCT doc_id) FROM s) = (SELECT count(*) FROM s)
     AND (SELECT count(*) FROM s JOIN elig e ON e.doc_id = s.doc_id
          WHERE e.n_tok = s.n_tok) = (SELECT count(*) FROM s)
     AND NOT EXISTS (SELECT 1 FROM binfill WHERE fill > {BF_CAP})
     AND NOT EXISTS (SELECT 1 FROM halfempty WHERE c > 1) AS good
)
SELECT part, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(DISTINCT bin) AS BIGINT) AS n_bins,
       CAST(sum(n_tok) AS BIGINT) AS fill_sum
FROM s GROUP BY part
HAVING (SELECT good FROM gates)
ORDER BY part
"""


@entry("seq_pack_bestfit", sql=SQL_SEQ_PACK_BESTFIT)
def q_seq_pack_bestfit(sf_dir: str) -> pd.DataFrame:
    """Best-fit-decreasing whole-document packing (pack.bestfit_pack)
    at capacity 2048: per-part bins summary.  The twin verifies, from
    the assignment sidecar, that (1) the assignment is a PARTITION of
    exactly the eligible corpus (unique-keyed docs, 1 ≤ n_tok ≤ cap,
    true lengths), (2) no bin exceeds capacity, and (3) the BFD quality
    guarantee — at most ONE bin per part at most half full — then
    re-derives the per-part summary."""
    from jesse_ray.pipelines.queries import _sig_parquet_path
    from jesse_ray.functions.pack import bestfit_pack
    from jesse_ray.pipelines.relational import drop_duplicate_keys

    ds = drop_duplicate_keys(
        read_sequences(_seq_path(sf_dir), columns=["doc_id", "n_tok"]), "doc_id")
    packed = bestfit_pack(ds, capacity=BF_CAP)
    t = _collect(packed)
    pq.write_table(t.sort_by("doc_id"), _sig_parquet_path(sf_dir, "bestfit"))

    def summary(b: pa.Table) -> pa.Table:
        g = b.group_by("part").aggregate([("bin", "max"), ("n_tok", "sum"), ([], "count_all")])
        return g.rename_columns(["part", "max_bin", "fill_sum", "n_docs"])

    out = _collect(packed.map_batches(summary, batch_format="pyarrow")).to_pandas()
    agg = out.groupby("part", sort=True).agg(
        n_bins=("max_bin", "max"), fill_sum=("fill_sum", "sum"),
        n_docs=("n_docs", "sum")).reset_index()
    agg["n_bins"] = agg["n_bins"].astype("int64") + 1
    return agg[["part", "n_docs", "n_bins", "fill_sum"]].astype(
        {"part": "int64", "n_docs": "int64", "fill_sum": "int64"})


# ---------------------------------------------------------------------------
# events_skew_report — the partitioner itself, proved in SQL

SKEW_PARTS = 64
_GOLDEN_INT = 0x9E3779B97F4A7C15


SQL_EVENTS_SKEW_REPORT = f"""
WITH p AS (
  SELECT CAST(((CAST(user_id AS HUGEINT) * {_GOLDEN_INT}) % 18446744073709551616)
              // 8589934592 % {SKEW_PARTS} AS BIGINT) AS part,
         user_id
  FROM events
)
SELECT part, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM p GROUP BY part ORDER BY part
"""


@entry("events_skew_report", sql=SQL_EVENTS_SKEW_REPORT)
def q_events_skew_report(sf_dir: str) -> pd.DataFrame:
    """Partition-balance report for the engine's OWN coarse hash
    partitioner (``hashutil.key_parts``' integer multiply-shift): rows and
    distinct users per part over the events stream.  The twin
    re-derives the exact same hash in SQL with HUGEINT arithmetic
    (``(u * golden) mod 2^64 >> 33 & 63``) — the partitioning math
    every shuffle in this engine rests on is itself machine-checked."""

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id"])

    def partial(b: pa.Table) -> pa.Table:
        parts = key_parts(b["user_id"], SKEW_PARTS)
        t = pa.table({"part": pa.array(parts.astype(np.int64)), "user_id": b["user_id"]})
        rows = t.group_by("part").aggregate([([], "count_all")]).rename_columns(["part", "rows"])
        users = t.group_by(["part", "user_id"]).aggregate([])
        return pa.table({
            "part": pa.concat_arrays([rows["part"].combine_chunks(),
                                      users["part"].combine_chunks()]),
            "rows": pa.concat_arrays([
                rows["rows"].cast(pa.int64()).combine_chunks(),
                pa.nulls(users.num_rows, type=pa.int64())]),
            "user_id": pa.concat_arrays([
                pa.nulls(rows.num_rows, type=pa.int64()),
                users["user_id"].cast(pa.int64()).combine_chunks()]),
        })

    t = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()
    rows = t[t["rows"].notna()].groupby("part")["rows"].sum()
    users = t[t["user_id"].notna()].drop_duplicates(["part", "user_id"]).groupby("part").size()
    out = pd.DataFrame({"part": rows.index.astype("int64"),
                        "n_rows": rows.to_numpy(dtype="int64"),
                        "n_users": users.reindex(rows.index).fillna(0).to_numpy(dtype="int64")})
    return out.sort_values("part").reset_index(drop=True)


# ---------------------------------------------------------------------------
# events_chisq — chi-square independence test (event_type × user bucket)

SQL_EVENTS_CHISQ = """
WITH c AS (
  SELECT event_type, CAST(user_id % 2 AS BIGINT) AS bucket,
         CAST(count(*) AS DOUBLE) AS n
  FROM events GROUP BY 1, 2
),
tot AS (SELECT sum(n) AS n FROM c),
rt AS (SELECT event_type, sum(n) AS r FROM c GROUP BY 1),
ct AS (SELECT bucket, sum(n) AS col FROM c GROUP BY 1),
x AS (
  SELECT c.n, rt.r * ct.col / (SELECT n FROM tot) AS e
  FROM c JOIN rt ON rt.event_type = c.event_type JOIN ct ON ct.bucket = c.bucket
)
SELECT round(sum((n - e) * (n - e) / e), 4) AS chi2,
       CAST(((SELECT count(*) FROM rt) - 1) * ((SELECT count(*) FROM ct) - 1) AS BIGINT) AS dof
FROM x
"""


@entry("events_chisq", sql=SQL_EVENTS_CHISQ)
def q_events_chisq(sf_dir: str) -> pd.DataFrame:
    """Pearson chi-square independence test between event_type and the
    parity user bucket: contingency counts from one bounded-cardinality
    combiner pass, the statistic evaluated once on scalars (same cell
    order both engines: type asc, bucket asc)."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partial(b: pa.Table) -> pa.Table:
        bucket = pc.cast(pc.bit_wise_and(b["user_id"], pa.scalar(1)), pa.int64())
        t = pa.table({"event_type": b["event_type"], "bucket": bucket})
        g = t.group_by(["event_type", "bucket"]).aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "bucket", "n"])

    cells = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()
    cells = (cells.groupby(["event_type", "bucket"], sort=True)["n"].sum().reset_index())
    piv = cells.pivot(index="event_type", columns="bucket", values="n").fillna(0.0)
    obs = piv.to_numpy(dtype=np.float64)
    rt = obs.sum(axis=1, keepdims=True)
    ct = obs.sum(axis=0, keepdims=True)
    n = obs.sum()
    exp = rt @ ct / n
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    dof = (obs.shape[0] - 1) * (obs.shape[1] - 1)
    return pd.DataFrame({"chi2": [round_half_away(chi2, 4)],
                         "dof": pd.array([dof], dtype="int64")})


# ---------------------------------------------------------------------------
# seq_mannwhitney — exact-integer Mann-Whitney U (n_tok: web vs books)

MW_A, MW_B = "web", "books"


SQL_SEQ_MANNWHITNEY = f"""
WITH x AS (
  SELECT n_tok, source FROM {SEQ_SQL}
  WHERE source IN ('{MW_A}', '{MW_B}') AND n_tok IS NOT NULL
),
v AS (
  SELECT n_tok,
         CAST(count(*) AS BIGINT) AS c_all,
         CAST(count(*) FILTER (WHERE source = '{MW_A}') AS BIGINT) AS c_a
  FROM x GROUP BY n_tok
),
w AS (
  SELECT n_tok, c_all, c_a,
         CAST(coalesce(sum(c_all) OVER (ORDER BY n_tok
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS L
  FROM v
),
agg AS (
  SELECT CAST(sum(c_a) AS BIGINT) AS n_a,
         CAST(sum(c_all - c_a) AS BIGINT) AS n_b,
         CAST(sum(c_a * (2 * L + c_all + 1)) AS BIGINT) AS r2_a
  FROM w
)
SELECT n_a, n_b, r2_a,
       r2_a - n_a * (n_a + 1) AS u2_a,
       round((CAST(r2_a - n_a * (n_a + 1) AS DOUBLE) - CAST(n_a AS DOUBLE) * n_b)
             / (sqrt(CAST(n_a AS DOUBLE) * n_b * (n_a + n_b + 1) / 12.0) * 2.0), 4) AS z
FROM agg
"""


@entry("seq_mannwhitney", sql=SQL_SEQ_MANNWHITNEY)
def q_seq_mannwhitney(sf_dir: str) -> pd.DataFrame:
    """Mann-Whitney U comparing n_tok distributions of two sources, in
    EXACT integer arithmetic: doubled tie-averaged rank sums satisfy
    ``2*avg_rank(v) = 2*count_less(v) + count_eq(v) + 1``, so
    ``r2_a = Σ_a (2L+c+1)`` and ``u2_a = r2_a − n_a(n_a+1)`` are exact
    int64 on both engines — no float rank games.  One
    bounded-cardinality combiner pass (n_tok ≤ 2048 distinct values);
    the normal-approximation z is a scalar formula, round(4)."""
    ds = read_sequences(_seq_path(sf_dir), columns=["n_tok", "source"])
    ab = pa.array([MW_A, MW_B])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.and_(pc.is_in(b["source"], value_set=ab),
                             pc.is_valid(b["n_tok"])))
        g = t.group_by(["n_tok", "source"]).aggregate([([], "count_all")])
        return g.rename_columns(["n_tok", "source", "n"])

    cells = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()
    cells = cells.groupby(["n_tok", "source"], sort=True)["n"].sum().reset_index()
    piv = cells.pivot(index="n_tok", columns="source", values="n").fillna(0).astype("int64")
    for s in (MW_A, MW_B):
        if s not in piv.columns:
            piv[s] = 0
    piv = piv.sort_index()
    c_all = (piv[MW_A] + piv[MW_B]).to_numpy()
    c_a = piv[MW_A].to_numpy()
    L = np.concatenate([[0], np.cumsum(c_all)[:-1]])
    r2_a = int((c_a * (2 * L + c_all + 1)).sum())
    n_a, n_b = int(c_a.sum()), int(piv[MW_B].sum())
    u2_a = r2_a - n_a * (n_a + 1)
    mu2 = float(n_a * n_b)  # 2*mu = n_a*n_b... (u2 is doubled)
    sigma2 = np.sqrt(n_a * n_b * (n_a + n_b + 1) / 12.0) * 2.0
    z = (u2_a - mu2) / sigma2
    return pd.DataFrame({
        "n_a": pd.array([n_a], dtype="int64"),
        "n_b": pd.array([n_b], dtype="int64"),
        "r2_a": pd.array([r2_a], dtype="int64"),
        "u2_a": pd.array([u2_a], dtype="int64"),
        "z": [round_half_away(float(z), 4)],
    })


# ---------------------------------------------------------------------------
# events_forecast_mae — seasonal-naive backtest on the hourly series

SQL_EVENTS_FORECAST_MAE = """
WITH h AS (
  SELECT epoch_us(ts) // 3600000000 AS hour, CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1
),
spine AS (
  SELECT unnest(range((SELECT min(hour) FROM h), (SELECT max(hour) FROM h) + 1)) AS hour
),
d AS (
  SELECT spine.hour, coalesce(h.n, 0) AS n FROM spine LEFT JOIN h ON h.hour = spine.hour
),
l AS (
  SELECT n, lag(n, 24) OVER (ORDER BY hour) AS p FROM d
)
SELECT CAST(count(*) AS BIGINT) AS n_eval,
       CAST(sum(abs(n - p)) AS BIGINT) AS abs_err_sum,
       round(CAST(sum(abs(n - p)) AS DOUBLE) / count(*), 4) AS mae
FROM l WHERE p IS NOT NULL
"""


@entry("events_forecast_mae", sql=SQL_EVENTS_FORECAST_MAE)
def q_events_forecast_mae(sf_dir: str) -> pd.DataFrame:
    """Seasonal-naive forecasting backtest (predict hour t with hour
    t-24; MAE over the dense hourly spine): tumbling-window counts from
    one combiner pass, densified against the min..max hour range (gaps
    = 0), lag-24 absolute errors summed exactly as integers — mae is
    the exact rational abs_sum/n rounded identically on both sides."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(b: pa.Table) -> pa.Table:
        hour = pc.divide(b["ts"].cast(pa.timestamp("us")).cast(pa.int64())
                         if not isinstance(b["ts"], pa.ChunkedArray)
                         else b["ts"].combine_chunks().cast(pa.timestamp("us")).cast(pa.int64()),
                         pa.scalar(3_600_000_000, type=pa.int64()))
        t = pa.table({"hour": hour})
        g = t.group_by("hour").aggregate([([], "count_all")])
        return g.rename_columns(["hour", "n"])

    hp = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()
    hp = hp.groupby("hour", sort=True)["n"].sum()
    lo, hi = int(hp.index.min()), int(hp.index.max())
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[hp.index.to_numpy(dtype=np.int64) - lo] = hp.to_numpy(dtype=np.int64)
    err = np.abs(dense[24:] - dense[:-24])
    n_eval = int(len(err))
    s = int(err.sum())
    return pd.DataFrame({
        "n_eval": pd.array([n_eval], dtype="int64"),
        "abs_err_sum": pd.array([s], dtype="int64"),
        "mae": [round_half_away(s / n_eval, 4)],
    })


# ---------------------------------------------------------------------------
# seq_split_decontam — train→eval contamination after the hash split

SPLIT_DECON_N = 8


SQL_SEQ_SPLIT_DECONTAM = f"""
WITH dups AS (
  SELECT doc_id FROM {SEQ_SQL} WHERE doc_id IS NOT NULL
  GROUP BY doc_id HAVING count(*) > 1
),
corpus AS (
  SELECT doc_id, tokens FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND doc_id NOT IN (SELECT doc_id FROM dups)
),
s AS (
  SELECT a.split, c.doc_id, c.tokens
  FROM read_parquet('/tmp/jesse_ray_data/sdecon_split_sigs_sf0.01.parquet') a
  JOIN corpus c ON c.doc_id = a.doc_id
),
tr AS (
  SELECT DISTINCT array_to_string(tokens[i:i+{SPLIT_DECON_N - 1}], ',') AS g
  FROM (SELECT tokens, unnest(range(1, len(tokens) - {SPLIT_DECON_N - 2})) AS i
        FROM s WHERE split = 'train')
),
ev AS (
  SELECT split, doc_id,
         array_to_string(tokens[i:i+{SPLIT_DECON_N - 1}], ',') AS g
  FROM (SELECT split, doc_id, tokens, unnest(range(1, len(tokens) - {SPLIT_DECON_N - 2})) AS i
        FROM s WHERE split <> 'train')
),
hit AS (SELECT DISTINCT split, doc_id FROM ev JOIN tr USING (g))
SELECT s2.split,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(count(*) FILTER (WHERE hit.doc_id IS NOT NULL) AS BIGINT) AS n_contaminated
FROM (SELECT split, doc_id FROM s WHERE split <> 'train') s2
LEFT JOIN hit ON hit.split = s2.split AND hit.doc_id = s2.doc_id
GROUP BY s2.split ORDER BY s2.split
"""


@entry("seq_split_decontam", sql=SQL_SEQ_SPLIT_DECONTAM)
def q_seq_split_decontam(sf_dir: str) -> pd.DataFrame:
    """Split hygiene: after the deterministic 80/10/10 hash split, how
    many val/test docs share an 8-token-gram with ANY train doc
    (the leakage a benchmark-decontam pass must catch).  Train grams
    via the broadcast sorted-hash probe (decontam.token_gram_set, no
    shuffle); the twin re-derives every flag with exact string-gram
    joins from the split sidecar.

    Scale note: the probe here is the TRAIN side, so the broadcast
    grows with the corpus (~0.6 GB of gram hashes at sf0.1) — the
    inverse of the usual decontam regime (seq_ngram_decontam, where
    the probe is a small benchmark eval set and the broadcast is
    bounded).  At 100 TB this query's shape must flip to a gram-hash
    SHUFFLE cogroup (the doc_ngram_novelty pattern: grams of both
    splits meet in hash partitions, flagged doc ids shuffle back) —
    the broadcast variant is used at catalog scale for its zero
    shuffle cost."""
    from jesse_ray.functions.decontam import flag_token_contaminated, token_gram_set
    from jesse_ray.functions.split import add_hash_split
    from jesse_ray.pipelines.queries import _sig_parquet_path
    from jesse_ray.pipelines.relational import drop_duplicate_keys

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens"])

    def nonnull(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_valid(b["doc_id"]))

    ds = drop_duplicate_keys(
        ds.map_batches(nonnull, batch_format="pyarrow", zero_copy_batch=True),
        "doc_id")
    split = add_hash_split(ds, "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1})
    assign = _collect(split.select_columns(["doc_id", "split"]))
    pq.write_table(assign.sort_by("doc_id"), _sig_parquet_path(sf_dir, "sdecon_split"))

    train = split.filter(expr="split == 'train'")
    probes = token_gram_set(train, n=SPLIT_DECON_N)
    ev = split.filter(expr="split != 'train'")
    flagged = flag_token_contaminated(ev, probes, n=SPLIT_DECON_N)

    def keep(b: pa.Table) -> pa.Table:
        return pa.table({"split": b["split"],
                         "contaminated": pc.cast(b["contaminated"], pa.int64())})

    t = _collect(flagged.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()
    out = t.groupby("split", sort=True).agg(
        n_docs=("contaminated", "size"), n_contaminated=("contaminated", "sum")).reset_index()
    return out.astype({"n_docs": "int64", "n_contaminated": "int64"})


# ---------------------------------------------------------------------------
# seq_pushdown_read — predicate pushed into the parquet scan

PUSHDOWN_MIN_NTOK = 1900


SQL_SEQ_PUSHDOWN_READ = f"""
SELECT source, CAST(count(*) AS BIGINT) AS cnt,
       CAST(sum(n_tok) AS BIGINT) AS ntok_sum
FROM {SEQ_SQL}
WHERE n_tok >= {PUSHDOWN_MIN_NTOK}
GROUP BY source ORDER BY source NULLS FIRST
"""


@entry("seq_pushdown_read", sql=SQL_SEQ_PUSHDOWN_READ)
def q_seq_pushdown_read(sf_dir: str) -> pd.DataFrame:
    """Predicate-pushdown read: the ``n_tok >= 1900`` filter rides into
    the parquet scan as a pyarrow.dataset expression (row groups whose
    stats exclude it are never fetched — the row-filter analogue of the
    column pruning used everywhere).  Per-source survivor counts +
    exact n_tok sums."""
    import pyarrow.dataset as pds

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"],
                        predicate=(pds.field("n_tok") >= PUSHDOWN_MIN_NTOK))

    def agg(b: pa.Table) -> pa.Table:
        g = b.group_by("source").aggregate([("n_tok", "sum"), ([], "count_all")])
        return g.rename_columns(["source", "ntok_sum", "cnt"])

    out = _collect(ds.map_batches(agg, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()
    out = out.groupby("source", sort=True, dropna=False).sum().reset_index()
    return out[["source", "cnt", "ntok_sum"]].astype({"cnt": "int64", "ntok_sum": "int64"})


# ---------------------------------------------------------------------------
# events_wau — rolling 7-day distinct users via interval-diff arrays

SQL_EVENTS_WAU = """
WITH d AS (
  SELECT DISTINCT user_id, epoch_us(ts) // 86400000000 AS day FROM events
),
bounds AS (SELECT min(day) AS lo, max(day) AS hi FROM d),
spine AS (
  SELECT unnest(range((SELECT lo FROM bounds), (SELECT hi FROM bounds) + 1)) AS day
)
SELECT s.day, CAST(count(DISTINCT d.user_id) AS BIGINT) AS rolling_distinct
FROM spine s LEFT JOIN d ON d.day BETWEEN s.day - 6 AND s.day
GROUP BY s.day ORDER BY s.day
"""


@entry("events_wau", sql=SQL_EVENTS_WAU)
def q_events_wau(sf_dir: str) -> pd.DataFrame:
    """Rolling 7-day active users per day (WAU), computed exactly with
    NO per-window set materialization: each user's active days merge
    into coverage intervals, emitted as ±1 diff arrays per part and
    prefix-summed on the day axis (relational.rolling_distinct_entities
    — the scale path where per-window count-distinct would shuffle
    every (window, user) pair)."""
    from jesse_ray.pipelines.relational import rolling_distinct_entities

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    out = rolling_distinct_entities(ds, window_days=7)
    return out.astype({"day": "int64", "rolling_distinct": "int64"})


# ---------------------------------------------------------------------------
# customer_orders_outer — FULL OUTER join summary

SQL_CUSTOMER_ORDERS_OUTER = """
WITH oc AS (SELECT o_custkey, count(*) AS n FROM orders GROUP BY 1),
j AS (
  SELECT c.c_custkey AS ck, oc.o_custkey AS ok
  FROM customer c FULL OUTER JOIN oc ON oc.o_custkey = c.c_custkey
)
SELECT CAST((SELECT count(*) FROM customer) AS BIGINT) AS n_customers,
       CAST(count(*) FILTER (WHERE ck IS NOT NULL AND ok IS NOT NULL) AS BIGINT) AS with_orders,
       CAST(count(*) FILTER (WHERE ck IS NOT NULL AND ok IS NULL) AS BIGINT) AS without_orders,
       CAST(count(*) FILTER (WHERE ck IS NULL) AS BIGINT) AS orphan_orders
FROM j
"""


@entry("customer_orders_outer", sql=SQL_CUSTOMER_ORDERS_OUTER)
def q_customer_orders_outer(sf_dir: str) -> pd.DataFrame:
    """FULL OUTER hash join of customers against their order counts:
    one summary row — matched customers, customers with no orders,
    orders whose custkey is missing from the dimension (referential
    orphans — zero on this corpus, but the join path proves it)."""
    from jesse_ray.pipelines.relational import hash_join

    cust = read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
    orders = read_table(f"{sf_dir}/orders.parquet", columns=["o_custkey"])

    def ocnt(b: pa.Table) -> pa.Table:
        g = b.group_by("o_custkey").aggregate([([], "count_all")])
        return g.rename_columns(["c_custkey", "n_orders_p"])

    def omerge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("c_custkey", sort=False)["n_orders_p"].sum().reset_index()
        m.columns = ["c_custkey", "n_orders"]
        return m

    per_cust = map_key_buckets(orders.map_batches(ocnt, batch_format="pyarrow", zero_copy_batch=True),
                               ["c_custkey"], omerge)

    # left-side presence marker: right-only orphan rows also carry a
    # non-null n_orders, so is_valid(n_orders) alone would overcount
    def mark(b: pa.Table) -> pa.Table:
        return b.append_column("__l", pa.array([True] * b.num_rows, type=pa.bool_()))

    j = hash_join(cust.map_batches(mark, batch_format="pyarrow"),
                  per_cust, on="c_custkey", how="outer")

    def summarize(b: pa.Table) -> pa.Table:
        has_orders = pc.and_kleene(pc.is_valid(b["n_orders"]),
                                   pc.is_valid(b["__l"]))
        return pa.table({
            "matched": pa.array([pc.sum(pc.cast(has_orders, pa.int64())).as_py() or 0],
                                type=pa.int64()),
            "total": pa.array([b.num_rows], type=pa.int64()),
        })

    t = _collect(j.map_batches(summarize, batch_format="pyarrow")).to_pandas().sum()
    # rows in the outer join: customers (matched or not) + orphan orders rows
    n_cust = _collect(cust).num_rows
    matched = int(t["matched"])
    return pd.DataFrame({
        "n_customers": pd.array([n_cust], dtype="int64"),
        "with_orders": pd.array([matched], dtype="int64"),
        "without_orders": pd.array([n_cust - matched], dtype="int64"),
        "orphan_orders": pd.array([int(t["total"]) - n_cust], dtype="int64"),
    })


# ---------------------------------------------------------------------------
# seq_fd_audit — functional-dependency audit (doc_id → source)

SQL_SEQ_FD_AUDIT = f"""
WITH pairs AS (
  SELECT DISTINCT doc_id, source FROM {SEQ_SQL} WHERE doc_id IS NOT NULL
),
per_key AS (SELECT doc_id, count(*) AS c FROM pairs GROUP BY doc_id)
SELECT CAST(count(*) AS BIGINT) AS n_keys,
       CAST(count(*) FILTER (WHERE c > 1) AS BIGINT) AS n_violating
FROM per_key
"""


@entry("seq_fd_audit", sql=SQL_SEQ_FD_AUDIT)
def q_seq_fd_audit(sf_dir: str) -> pd.DataFrame:
    """Functional-dependency audit (Deequ-style data contract): does
    ``doc_id → source`` hold?  Two-phase distinct-pair counting — per
    batch dedup, coarse key-hash parts, exact distinct-source count per
    key — then the tiny violating-key set is the output."""

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "source"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["doc_id"]))
        return t.group_by(["doc_id", "source"]).aggregate([])

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["doc_id", "source"]].drop_duplicates()
        c = d.groupby("doc_id").size()
        return pd.DataFrame({"n_keys": [int(len(c))],
                             "n_violating": [int((c > 1).sum())]})

    parts = _collect(map_key_buckets(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["doc_id"], count_part)).to_pandas().sum()
    return pd.DataFrame({
        "n_keys": pd.array([int(parts["n_keys"])], dtype="int64"),
        "n_violating": pd.array([int(parts["n_violating"])], dtype="int64"),
    })


# ---------------------------------------------------------------------------
# seq_entropy_rate — bigram conditional entropy of the token stream

SQL_SEQ_ENTROPY_RATE = f"""
WITH s AS (
  SELECT tokens FROM {SEQ_SQL} WHERE tokens IS NOT NULL AND len(tokens) > 1
),
u AS (
  SELECT unnest(tokens[1:len(tokens) - 1]) AS a,
         unnest(tokens[2:len(tokens)])     AS b
  FROM s
),
e AS (
  SELECT CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b,
         CAST(count(*) AS DOUBLE) AS c
  FROM u
  WHERE a >= 0 AND a < {{V}} AND b >= 0 AND b < {{V}}
  GROUP BY 1, 2
),
w AS (SELECT a, c, sum(c) OVER (PARTITION BY a) AS ca FROM e)
SELECT CAST(sum(c) AS BIGINT) AS n_pairs,
       round(-sum(c * log2(c / ca)) / sum(c), 4) AS h_bits
FROM w
"""


def _entropy_sql() -> str:
    from jesse_ray import testgen

    return SQL_SEQ_ENTROPY_RATE.replace("{V}", str(testgen.VOCAB))


@entry("seq_entropy_rate", sql=_entropy_sql())
def q_seq_entropy_rate(sf_dir: str) -> pd.DataFrame:
    """Conditional bigram entropy H(b|a) of the corpus token stream in
    bits (the information-theoretic compressibility signal):
    ``-(Σ_ab c_ab·log2(c_ab/c_a)) / N`` over exact adjacent-pair
    counts.  Pairs are cogrouped by hash(a) — NOT hash(pair) — so each
    part holds every pair of its ``a`` values and both c_ab and
    c_a = Σ_b c_ab are exact locally; parts emit two partial scalars.
    Valid-token pairs only (the PageRank edge convention)."""
    from jesse_ray import testgen

    vocab = testgen.VOCAB
    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])

    def pairs(b: pa.Table) -> pa.Table:
        toks = b["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        keep = pc.and_(pc.is_valid(toks), pc.greater(pc.list_value_length(toks), 1))
        if not pc.all(keep).as_py():
            toks = toks.filter(keep)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        off = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        vals = pc.list_flatten(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        a = np.delete(vals, off[1:] - 1)
        bb = np.delete(vals, off[:-1])
        ok = (a >= 0) & (a < vocab) & (bb >= 0) & (bb < vocab)
        packed = (a[ok] << np.int64(20)) | bb[ok]
        uk, cnt = np.unique(packed, return_counts=True)
        # bucket by the FIRST token ``a`` so c_a is locally exact
        return pa.table({"key": pa.array(uk), "c": pa.array(cnt.astype(np.int64)),
                         "a": pa.array(uk >> np.int64(20))})

    def part_entropy(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("key", sort=True)["c"].sum()
        keys = m.index.to_numpy(dtype=np.int64)
        c_ab = m.to_numpy(dtype=np.float64)
        a = keys >> np.int64(20)
        c_a = pd.Series(c_ab).groupby(a).transform("sum").to_numpy()
        s = float((c_ab * np.log2(c_ab / c_a)).sum())
        return pd.DataFrame({"s": [s], "n": [int(c_ab.sum())]})

    parts = _collect(map_key_buckets(
        ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
        ["a"], part_entropy)).to_pandas()
    n = int(parts["n"].sum())
    h = -float(parts["s"].sum()) / n
    return pd.DataFrame({"n_pairs": pd.array([n], dtype="int64"),
                         "h_bits": [round_half_away(h, 4)]})


# ---------------------------------------------------------------------------
# seq_zipf_slope — OLS fit of the token frequency-rank power law

ZIPF_TOPK = 1000


SQL_SEQ_ZIPF_SLOPE = f"""
WITH f AS (
  SELECT t AS elem, CAST(count(*) AS BIGINT) AS cnt
  FROM (SELECT unnest(tokens) AS t FROM {SEQ_SQL}) GROUP BY t
),
top AS (
  SELECT cnt, row_number() OVER (ORDER BY cnt DESC, elem ASC) AS rank
  FROM f ORDER BY cnt DESC, elem ASC LIMIT {ZIPF_TOPK}
),
v AS (SELECT ln(CAST(rank AS DOUBLE)) AS x, ln(CAST(cnt AS DOUBLE)) AS y FROM top)
SELECT CAST(count(*) AS BIGINT) AS n_fit,
       round((count(*) * sum(x * y) - sum(x) * sum(y))
             / (count(*) * sum(x * x) - sum(x) * sum(x)), 4) AS slope
FROM v
"""


@entry("seq_zipf_slope", sql=SQL_SEQ_ZIPF_SLOPE)
def q_seq_zipf_slope(sf_dir: str) -> pd.DataFrame:
    """Zipf slope of the corpus: OLS fit of ln(freq) on ln(rank) over
    the exact top-1000 tokens (relational.top_k_elements heavy-hitters
    pass); slope ≈ -1 for natural text.  Scalar OLS formula evaluated
    in the identical operand order on both engines."""
    from jesse_ray.pipelines.relational import top_k_elements

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])
    top = top_k_elements(ds, "tokens", k=ZIPF_TOPK).to_pandas()
    top = top.sort_values(["cnt", "elem"], ascending=[False, True],
                          kind="mergesort").reset_index(drop=True)
    x = np.log(np.arange(1, len(top) + 1, dtype=np.float64))
    y = np.log(top["cnt"].to_numpy(dtype=np.float64))
    n = float(len(top))
    sx, sy, sxy, sxx = float(x.sum()), float(y.sum()), float((x * y).sum()), float((x * x).sum())
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    return pd.DataFrame({"n_fit": pd.array([int(n)], dtype="int64"),
                         "slope": [round_half_away(slope, 4)]})


# ---------------------------------------------------------------------------
# tpch_q7ish — volume shipping between two nations

Q7_N1, Q7_N2 = 0, 1  # nationkeys


SQL_TPCH_Q7ISH = f"""
SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
       CAST(year(l_shipdate) AS BIGINT) AS l_year,
       round(sum(l_extendedprice * (1.0 - l_discount)), 2) AS revenue
FROM lineitem
JOIN orders   ON o_orderkey = l_orderkey
JOIN customer ON c_custkey = o_custkey
JOIN supplier ON s_suppkey = l_suppkey
JOIN nation cn ON cn.n_nationkey = c_nationkey
JOIN nation sn ON sn.n_nationkey = s_nationkey
WHERE c_nationkey IN ({Q7_N1}, {Q7_N2})
  AND s_nationkey IN ({Q7_N1}, {Q7_N2})
  AND s_nationkey <> c_nationkey
GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


@entry("tpch_q7ish", sql=SQL_TPCH_Q7ISH)
def q_tpch_q7ish(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q7-shaped composite: revenue between two nations per
    (supplier nation, customer nation, ship year), both directions.
    Scale shape: customer/supplier/nation are broadcast-once dimension
    maps applied inside map_batches (nationkey filter BEFORE the big
    join); lineitem⋈orders is the one large-x-large cogroup join;
    the final (2×2×years) aggregate is a map-side Arrow partial."""
    from jesse_ray.pipelines.relational import hash_join

    nat = _collect(read_table(f"{sf_dir}/nation.parquet",
                              columns=["n_nationkey", "n_name"])).to_pandas()
    name_of = dict(zip(nat["n_nationkey"].astype(int), nat["n_name"]))
    def dense_lut(path, key, val):
        """Broadcast dimension as a dense int array (TPC-H keys are
        dense) — vectorized gather per batch, never a per-row dict."""
        d = _collect(read_table(path, columns=[key, val])).to_pandas()
        k = d[key].to_numpy(dtype=np.int64)
        v = d[val].to_numpy(dtype=np.int64)
        lut = np.full(int(k.max()) + 2, -1, dtype=np.int64)
        lut[k] = v
        return lut

    cmap = dense_lut(f"{sf_dir}/customer.parquet", "c_custkey", "c_nationkey")
    smap = dense_lut(f"{sf_dir}/supplier.parquet", "s_suppkey", "s_nationkey")

    import ray as _ray
    cmap_ref = _ray.put(cmap) if _ray.is_initialized() else cmap
    smap_ref = _ray.put(smap) if _ray.is_initialized() else smap
    keep = {Q7_N1, Q7_N2}

    orders = read_table(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"])

    def o_map(b: pa.Table, ref=cmap_ref) -> pa.Table:
        m = _ray.get(ref) if _ray.is_initialized() else ref
        ck = np.clip(b["o_custkey"].to_numpy(zero_copy_only=False), 0, len(m) - 1)
        cn = m[ck]
        t = pa.table({"l_orderkey": b["o_orderkey"], "cust_nation": pa.array(cn)})
        return t.filter(pc.is_in(t["cust_nation"],
                                 value_set=pa.array(sorted(keep), type=pa.int64())))

    orders = orders.map_batches(o_map, batch_format="pyarrow", zero_copy_batch=True)

    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                             "l_discount", "l_shipdate"])

    def l_map(b: pa.Table, ref=smap_ref) -> pa.Table:
        m = _ray.get(ref) if _ray.is_initialized() else ref
        sk = np.clip(b["l_suppkey"].to_numpy(zero_copy_only=False), 0, len(m) - 1)
        sn = m[sk]
        rev = pc.multiply(b["l_extendedprice"], pc.subtract(pa.scalar(1.0), b["l_discount"]))
        year = pc.year(b["l_shipdate"]).cast(pa.int64())
        t = pa.table({"l_orderkey": b["l_orderkey"], "supp_nation": pa.array(sn),
                      "rev": rev, "l_year": year})
        return t.filter(pc.is_in(t["supp_nation"],
                                 value_set=pa.array(sorted(keep), type=pa.int64())))

    li = li.map_batches(l_map, batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(li, orders, on="l_orderkey", how="inner")

    def agg(b: pa.Table) -> pa.Table:
        m = pc.not_equal(b["supp_nation"], b["cust_nation"])
        t = b.filter(m)
        g = t.group_by(["supp_nation", "cust_nation", "l_year"]).aggregate([("rev", "sum")])
        return g.rename_columns(["supp_nation", "cust_nation", "l_year", "rev"])

    out_t = _collect(j.map_batches(agg, batch_format="pyarrow"))
    if out_t is None:
        return pd.DataFrame({"supp_nation": pd.array([], dtype="string"),
                             "cust_nation": pd.array([], dtype="string"),
                             "l_year": pd.array([], dtype="int64"),
                             "revenue": pd.array([], dtype="float64")})
    out = out_t.to_pandas()
    out = out.groupby(["supp_nation", "cust_nation", "l_year"], sort=True)["rev"].sum().reset_index()
    out["supp_nation"] = out["supp_nation"].map(name_of)
    out["cust_nation"] = out["cust_nation"].map(name_of)
    out["revenue"] = round_half_away(out["rev"], 2)
    out = out.drop(columns=["rev"]).sort_values(
        ["supp_nation", "cust_nation", "l_year"]).reset_index(drop=True)
    return out.astype({"l_year": "int64"})


# ---------------------------------------------------------------------------
# tpch_q2ish — minimum-cost supplier per part (argmin through joins)

Q2_SIZE = 15


SQL_TPCH_Q2ISH = f"""
WITH ps AS (SELECT DISTINCT l_partkey, l_suppkey FROM lineitem),
x AS (
  SELECT l_partkey, s_suppkey, s_acctbal, s_name,
         row_number() OVER (PARTITION BY l_partkey
                            ORDER BY s_acctbal ASC, s_suppkey ASC) AS rn
  FROM ps JOIN supplier ON s_suppkey = l_suppkey
)
SELECT p_partkey, round(p_retailprice, 2) AS p_retailprice,
       s_suppkey, s_name, round(s_acctbal, 2) AS s_acctbal
FROM part JOIN x ON x.l_partkey = p_partkey AND x.rn = 1
WHERE p_size = {Q2_SIZE}
ORDER BY p_retailprice DESC, p_partkey ASC
LIMIT 20
"""


@entry("tpch_q2ish", sql=SQL_TPCH_Q2ISH)
def q_tpch_q2ish(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q2-shaped composite: for every size-15 part, the supplier
    with MINIMUM account balance among those supplying it (argmin per
    group, tie-break smallest suppkey), top 20 parts by retail price.
    Scale shape: distinct (part, supplier) pairs with per-batch dedup →
    coarse partkey cogroup; supplier attrs ride a broadcast dense LUT;
    per-part argmin is a vectorized lexicographic sort+first per part;
    only the final 20 rows fetch part attributes."""

    supp = _collect(read_table(f"{sf_dir}/supplier.parquet",
                               columns=["s_suppkey", "s_acctbal", "s_name"])).to_pandas()
    skeys = supp["s_suppkey"].to_numpy(dtype=np.int64)
    bal = np.full(int(skeys.max()) + 2, np.inf)
    bal[skeys] = supp["s_acctbal"].to_numpy(dtype=np.float64)
    import ray as _ray
    bal_ref = _ray.put(bal) if _ray.is_initialized() else bal

    li = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])

    def pair_dedup(b: pa.Table, ref=bal_ref) -> pa.Table:
        m = _ray.get(ref) if _ray.is_initialized() else ref
        g = b.group_by(["l_partkey", "l_suppkey"]).aggregate([])
        sk = np.clip(g["l_suppkey"].to_numpy(zero_copy_only=False), 0, len(m) - 1)
        return g.append_column("s_acctbal", pa.array(m[sk], type=pa.float64()))

    def argmin_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates(["l_partkey", "l_suppkey"])
        d = d.sort_values(["l_partkey", "s_acctbal", "l_suppkey"], kind="mergesort")
        return d.drop_duplicates("l_partkey", keep="first")[
            ["l_partkey", "l_suppkey", "s_acctbal"]]

    am = _collect(map_key_buckets(
        li.map_batches(pair_dedup, batch_format="pyarrow", zero_copy_batch=True),
        ["l_partkey"], argmin_part)).to_pandas()
    part = _collect(read_table(f"{sf_dir}/part.parquet",
                               columns=["p_partkey", "p_size", "p_retailprice"])).to_pandas()
    part = part[part["p_size"] == Q2_SIZE]
    j = part.merge(am, left_on="p_partkey", right_on="l_partkey")
    j = j.sort_values(["p_retailprice", "p_partkey"], ascending=[False, True],
                      kind="mergesort").head(20)
    j = j.merge(supp, left_on="l_suppkey", right_on="s_suppkey", suffixes=("", "_s"))
    j["p_retailprice"] = round_half_away(j["p_retailprice"], 2)
    j["s_acctbal"] = round_half_away(j["s_acctbal_s"], 2)
    out = j.sort_values(["p_retailprice", "p_partkey"], ascending=[False, True],
                        kind="mergesort").reset_index(drop=True)
    out["p_partkey"] = out["p_partkey"].astype("int64")
    out["s_suppkey"] = out["s_suppkey"].astype("int64")
    return out[["p_partkey", "p_retailprice", "s_suppkey", "s_name", "s_acctbal"]]


# ---------------------------------------------------------------------------
# doc_triangles — triangle count of the near-dup candidate graph

SQL_DOC_TRIANGLES = """
WITH sig AS (
  SELECT doc_id, minhash
  FROM read_parquet('/tmp/jesse_ray_data/tri_minhash_sigs_sf0.01.parquet')
), bands AS (
  SELECT doc_id, b, list_slice(minhash, b*4 + 1, b*4 + 4) AS band
  FROM sig, generate_series(0, 15) t(b)
), p AS (
  SELECT a.doc_id AS l, b.doc_id AS r
  FROM bands a JOIN bands b ON a.b = b.b AND a.band = b.band AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT CAST((SELECT count(*) FROM p) AS BIGINT) AS n_edges,
       CAST((SELECT count(*)
             FROM p p1
             JOIN p p2 ON p2.l = p1.l AND p2.r > p1.r
             JOIN p p3 ON p3.l = p1.r AND p3.r = p2.r) AS BIGINT) AS n_triangles
"""


@entry("doc_triangles", sql=SQL_DOC_TRIANGLES)
def q_doc_triangles(sf_dir: str) -> pd.DataFrame:
    """Triangle count of the MinHash-LSH candidate-pair graph (cluster
    density: triangle-rich dup graphs mean boilerplate families, not
    chance collisions) — graph.triangle_count's degree-oriented
    node-iterator.  The twin re-derives the pairs from the signature
    sidecar (the doc_minhash_pairs banding CTE) and counts triangles
    with the canonical a<b<c three-way self-join."""
    from jesse_ray.functions.dedup import lsh_candidate_pairs, minhash_signatures
    from jesse_ray.functions.graph import triangle_count
    from jesse_ray.pipelines.queries import _sig_parquet_path

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    sigs = minhash_signatures(ds, num_hashes=64)
    pq.write_table(
        _collect(sigs.select_columns(["doc_id", "minhash"])).sort_by("doc_id"),
        _sig_parquet_path(sf_dir, "tri_minhash"),
    )
    pairs = lsh_candidate_pairs(ds, num_hashes=64, bands=16)
    n_edges = pairs.count()
    n_tri = triangle_count(pairs)
    return pd.DataFrame({"n_edges": pd.array([int(n_edges)], dtype="int64"),
                         "n_triangles": pd.array([int(n_tri)], dtype="int64")})


# ---------------------------------------------------------------------------
# seq_motif_search — exact token-subsequence (motif) matching

MOTIF = [7, 7]  # adjacent token pattern to find


SQL_SEQ_MOTIF_SEARCH = f"""
WITH s AS (
  SELECT doc_id, tokens FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND tokens IS NOT NULL AND len(tokens) >= {len(MOTIF)}
)
SELECT doc_id,
       CAST(len(list_filter(range(1, len(tokens) - {len(MOTIF) - 2}),
            i -> {" AND ".join(f"tokens[i + {j}] = {v}" for j, v in enumerate(MOTIF))}))
            AS BIGINT) AS hits
FROM s
WHERE len(list_filter(range(1, len(tokens) - {len(MOTIF) - 2}),
      i -> {" AND ".join(f"tokens[i + {j}] = {v}" for j, v in enumerate(MOTIF))})) > 0
ORDER BY hits DESC, doc_id ASC
LIMIT 20
"""


@entry("seq_motif_search", sql=SQL_SEQ_MOTIF_SEARCH)
def q_seq_motif_search(sf_dir: str) -> pd.DataFrame:
    """Exact adjacent-token motif search (the token-level grep of an
    inverted-index lookup): count occurrences of the pattern per
    sequence via shifted-equality vectorization over the flat token
    buffer — no per-row Python, no shuffle; top 20 by hits.  The twin
    matches on a delimiter-guarded string join."""
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens"])
    pat = np.array(MOTIF, dtype=np.int64)

    def find(b: pa.Table) -> pa.Table:
        toks = b["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        keep = pc.and_(pc.is_valid(b["doc_id"]),
                       pc.and_(pc.is_valid(toks),
                               pc.greater_equal(pc.list_value_length(toks), len(pat))))
        t = b.filter(keep)
        toks = t["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        n = len(toks)
        if n == 0:
            return pa.table({"doc_id": pa.array([], type=pa.string()),
                             "hits": pa.array([], type=pa.int64())})
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        vals = pc.list_flatten(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        m = np.ones(len(vals) - len(pat) + 1, dtype=bool) if len(vals) >= len(pat) else np.zeros(0, bool)
        for j, pv in enumerate(pat):
            m &= vals[j:len(vals) - len(pat) + 1 + j] == pv
        # kill matches that straddle a list boundary: a match starting at
        # position i is valid iff i + len(pat) <= end of i's list
        starts = np.flatnonzero(m)
        doc_of = np.searchsorted(off[1:], starts, side="right")
        ok = starts + len(pat) <= off[doc_of + 1]
        hits = np.bincount(doc_of[ok], minlength=n)
        t2 = pa.table({"doc_id": t["doc_id"], "hits": pa.array(hits.astype(np.int64))})
        t2 = t2.filter(pc.greater(t2["hits"], pa.scalar(0)))
        idx = pc.sort_indices(t2, sort_keys=[("hits", "descending"), ("doc_id", "ascending")])
        return t2.take(idx[:20])

    cand = _collect(ds.map_batches(find, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()
    return (cand.sort_values(["hits", "doc_id"], ascending=[False, True], kind="mergesort")
                .head(20).reset_index(drop=True).astype({"doc_id": "string", "hits": "int64"}))


# ---------------------------------------------------------------------------
# events_bursts — integer-exact burst detection on the hourly series

SQL_EVENTS_BURSTS = """
WITH h AS (
  SELECT epoch_us(ts) // 3600000000 AS hour, CAST(count(*) AS BIGINT) AS n
  FROM events GROUP BY 1
),
spine AS (
  SELECT unnest(range((SELECT min(hour) FROM h), (SELECT max(hour) FROM h) + 1)) AS hour
),
d AS (SELECT spine.hour, coalesce(h.n, 0) AS n FROM spine LEFT JOIN h ON h.hour = spine.hour),
w AS (
  SELECT hour, n,
         sum(n) OVER (ORDER BY hour ROWS BETWEEN 24 PRECEDING AND 1 PRECEDING) AS sum24,
         row_number() OVER (ORDER BY hour) AS rn
  FROM d
)
SELECT hour, n, CAST(sum24 AS BIGINT) AS sum24
FROM w WHERE rn > 24 AND 24 * n > 2 * sum24
ORDER BY hour
"""


@entry("events_bursts", sql=SQL_EVENTS_BURSTS)
def q_events_bursts(sf_dir: str) -> pd.DataFrame:
    """Burst detection: hours whose event count exceeds 2× the trailing
    24-hour mean — the comparison stays in integers
    (``24*c > 2*sum24``), so both engines agree exactly.  Dense spine,
    full 24-hour lookback required."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["ts"])

    def partial(b: pa.Table) -> pa.Table:
        ts = b["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        hour = pc.divide(ts.cast(pa.timestamp("us")).cast(pa.int64()),
                         pa.scalar(3_600_000_000, type=pa.int64()))
        g = pa.table({"hour": hour}).group_by("hour").aggregate([([], "count_all")])
        return g.rename_columns(["hour", "n"])

    hp = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()
    hp = hp.groupby("hour", sort=True)["n"].sum()
    lo, hi = int(hp.index.min()), int(hp.index.max())
    dense = np.zeros(hi - lo + 1, dtype=np.int64)
    dense[hp.index.to_numpy(dtype=np.int64) - lo] = hp.to_numpy(dtype=np.int64)
    cs = np.concatenate([[0], np.cumsum(dense)])
    out_rows = []
    for i in range(24, len(dense)):
        s24 = int(cs[i] - cs[i - 24])
        if 24 * int(dense[i]) > 2 * s24:
            out_rows.append((lo + i, int(dense[i]), s24))
    return pd.DataFrame({
        "hour": pd.array([r[0] for r in out_rows], dtype="int64"),
        "n": pd.array([r[1] for r in out_rows], dtype="int64"),
        "sum24": pd.array([r[2] for r in out_rows], dtype="int64"),
    })


# ---------------------------------------------------------------------------
# doc_rake_keywords — RAKE corpus keyword scores

RAKE_MIN_FREQ = 5


SQL_DOC_RAKE_KEYWORDS = f"""
WITH d AS (SELECT string_split(coalesce(text, ''), ' ') AS ws, row_number() OVER () AS did FROM documents),
u AS (SELECT did, unnest(ws) AS w, unnest(range(1, len(ws) + 1)) AS i FROM d),
m AS (
  SELECT did, i, lower(w) AS lw,
         list_contains(['the','be','to','of','and','that','have','with'], lower(w)) AS stop
  FROM u
),
s AS (
  SELECT did, i, lw, stop,
         CASE WHEN NOT stop
                   AND coalesce(lag(stop) OVER (PARTITION BY did ORDER BY i), TRUE)
              THEN 1 ELSE 0 END AS st
  FROM m
),
p AS (
  SELECT did, i, lw, stop,
         sum(st) OVER (PARTITION BY did ORDER BY i ROWS UNBOUNDED PRECEDING) AS pid
  FROM s
),
pw AS (SELECT did, pid, lw FROM p WHERE NOT stop),
pl AS (SELECT did, pid, CAST(count(*) AS BIGINT) AS plen FROM pw GROUP BY 1, 2),
x AS (SELECT pw.lw AS word, pl.plen FROM pw JOIN pl USING (did, pid)),
agg AS (
  SELECT word, CAST(count(*) AS BIGINT) AS freq, CAST(sum(plen) AS BIGINT) AS deg
  FROM x GROUP BY word
)
SELECT word, freq, deg, CAST(deg AS DOUBLE) / freq AS score
FROM agg WHERE freq >= {RAKE_MIN_FREQ}
ORDER BY score DESC, word ASC LIMIT 20
"""


@entry("doc_rake_keywords", sql=SQL_DOC_RAKE_KEYWORDS)
def q_doc_rake_keywords(sf_dir: str) -> pd.DataFrame:
    """RAKE keyword extraction (Rose et al. 2010) at corpus level: top
    20 words by deg/freq over stopword-delimited phrases
    (text.rake_word_scores — integer deg/freq basis, so the score is
    the same IEEE division on both engines; min freq 5 screens
    singleton-phrase noise)."""
    from jesse_ray.functions.text import rake_word_scores

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    t = _collect(rake_word_scores(ds)).to_pandas()
    t = t[t["freq"] >= RAKE_MIN_FREQ].copy()
    t["score"] = t["deg"].to_numpy(dtype=np.float64) / t["freq"].to_numpy(dtype=np.float64)
    out = t.sort_values(["score", "word"], ascending=[False, True],
                        kind="mergesort").head(20).reset_index(drop=True)
    return out[["word", "freq", "deg", "score"]].astype(
        {"word": "string", "freq": "int64", "deg": "int64"})


# ---------------------------------------------------------------------------
# emb_mmr — diversity-aware retrieval (Maximal Marginal Relevance)

MMR_K, MMR_LAM = 5, 0.7


def _mmr_sql() -> str:
    lam = MMR_LAM
    parts = ["WITH q AS (SELECT embedding FROM embeddings WHERE vec_id = 0)"]
    prev: list[str] = []
    for t in range(1, MMR_K + 1):
        not_in = ""
        if prev:
            union = " UNION ALL ".join(f"SELECT vec_id FROM {p}" for p in prev)
            not_in = f" AND e.vec_id NOT IN ({union})"
        if prev:
            pen_terms = " , ".join(
                f"(SELECT list_cosine_similarity(e.embedding, s.embedding) FROM {p} s)"
                for p in prev)
            pen = f"greatest({pen_terms})"
            score = f"{lam} * list_cosine_similarity(e.embedding, q.embedding) - {round(1.0 - lam, 10)} * {pen}"
        else:
            score = f"{lam} * list_cosine_similarity(e.embedding, q.embedding)"
        parts.append(
            f"s{t} AS (SELECT e.vec_id, e.embedding FROM embeddings e, q "
            f"WHERE e.vec_id <> 0{not_in} "
            f"ORDER BY {score} DESC, e.vec_id ASC LIMIT 1)")
        prev.append(f"s{t}")
    sel = " UNION ALL ".join(
        f"SELECT {i + 1} AS rank, vec_id FROM s{i + 1}" for i in range(MMR_K))
    return ",\n".join(parts) + f"\nSELECT CAST(rank AS BIGINT) AS rank, vec_id FROM ({sel}) ORDER BY rank"


@entry("emb_mmr", sql=_mmr_sql())
def q_emb_mmr(sf_dir: str) -> pd.DataFrame:
    """MMR re-ranking for query vec_id=0 (similarity.mmr_select, λ=0.7,
    k=5): each greedy step is one distributed argmax pass with the
    selected set broadcast.  The twin unrolls the same greedy loop as
    chained CTEs with correlated max-over-selected subqueries; ranks
    only (the emb_topk float-discipline convention)."""
    from jesse_ray.functions.similarity import mmr_select

    qvec = (
        pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .filter(pc.equal(pc.field("vec_id"), 0))["embedding"].to_pylist()[0]
    )
    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return mmr_select(ds, np.asarray(qvec), k=MMR_K, lam=MMR_LAM, exclude_ids=(0,))


# ---------------------------------------------------------------------------
# events_markov_stationary — fixed-point stationary distribution

MK_SCALE = 10**12
MK_ITERS = 10


def _markov_sql() -> str:
    head = f"""
WITH x AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS nxt
  FROM events
),
c AS MATERIALIZED (
  SELECT event_type AS f, nxt AS t, CAST(count(*) AS BIGINT) AS cnt
  FROM x WHERE nxt IS NOT NULL GROUP BY 1, 2
),
states AS MATERIALIZED (SELECT DISTINCT f AS s FROM c UNION SELECT DISTINCT t FROM c),
ns AS (SELECT CAST(count(*) AS BIGINT) AS n FROM states),
rw AS (SELECT f, sum(cnt) AS rc FROM c GROUP BY f),
-- augmented edges: real transitions carry (cnt, row-sum); absorbing
-- states get a (1, 1) self-loop so each step is ONE join (a CTE
-- referenced twice per step would inline exponentially)
e2 AS MATERIALIZED (
  SELECT c.f, c.t, c.cnt AS num, rw.rc AS den FROM c JOIN rw ON rw.f = c.f
  UNION ALL
  SELECT st.s, st.s, 1, 1 FROM states st
  WHERE NOT EXISTS (SELECT 1 FROM rw WHERE rw.f = st.s)
),
p0 AS (SELECT s, {MK_SCALE} // (SELECT n FROM ns) AS pi FROM states)"""
    steps = []
    for k in range(1, MK_ITERS + 1):
        steps.append(f""",
p{k} AS MATERIALIZED (
  SELECT e2.t AS s, CAST(sum((p.pi * e2.num) // e2.den) AS BIGINT) AS pi
  FROM e2 JOIN p{k - 1} p ON p.s = e2.f
  GROUP BY e2.t
)""")
    tail = f"""
SELECT st.s AS event_type, CAST(coalesce(p.pi, 0) AS BIGINT) AS pi_fp
FROM states st LEFT JOIN p{MK_ITERS} p ON p.s = st.s ORDER BY st.s
"""
    return head + "".join(steps) + tail


@entry("events_markov_stationary", sql=_markov_sql())
def q_events_markov_stationary(sf_dir: str) -> pd.DataFrame:
    """Stationary distribution of the user-journey event-type Markov
    chain: transition counts from the distributed cogroup pass
    (relational.transition_counts), then 10 power-iteration steps in
    EXACT int64 fixed point — ``π'_j = Σ_i (π_i · c_ij) // c_i`` — so
    the unrolled SQL twin matches bit-for-bit (the PageRank discipline,
    applied to a bounded state space)."""
    from jesse_ray.pipelines.relational import transition_counts

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["user_id", "event_type", "ts", "event_id"])
    t = transition_counts(ds, entity_col="user_id", type_col="event_type",
                          ts_col="ts", order_col="event_id").to_pandas()
    states = sorted(set(t["from_type"]) | set(t["to_type"]))
    idx = {s: i for i, s in enumerate(states)}
    n = len(states)
    C = np.zeros((n, n), dtype=np.int64)
    for _, r in t.iterrows():
        C[idx[r["from_type"]], idx[r["to_type"]]] = int(r["cnt"])
    row = C.sum(axis=1)
    pi = np.full(n, MK_SCALE // n, dtype=np.int64)
    for _ in range(MK_ITERS):
        nxt = np.zeros(n, dtype=np.int64)
        for i in range(n):
            if row[i]:
                nxt += (pi[i] * C[i]) // row[i]
            else:
                nxt[i] += pi[i]  # absorbing state keeps its mass
        pi = nxt
    return pd.DataFrame({"event_type": pd.array(states, dtype="string"),
                         "pi_fp": pd.array(pi, dtype="int64")})


# ---------------------------------------------------------------------------
# seq_bootstrap_ci — deterministic Poisson bootstrap, hash-identical in SQL

BOOT_B = 64
# Poisson(1) inverse-CDF thresholds (identical literals both engines)
BOOT_CDF = (0.36787944117144233, 0.7357588823428847, 0.9196986029286058,
            0.9810118431238462, 0.9963401531726563)


def _bootstrap_sql() -> str:
    M = 1 << 64
    c1, c2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53

    def mul(e, c):
        # (a*c) mod 2^64 without overflowing INT128: split c = hi·2^32+lo;
        # a·lo ≤ 2^96 and a·hi mod 2^32 shifted both fit HUGEINT
        c_hi, c_lo = c >> 32, c & 0xFFFFFFFF
        return (f"CAST(((CAST({e} AS HUGEINT) * {c_lo})"
                f" + ((CAST({e} AS HUGEINT) * {c_hi}) % 4294967296) * 4294967296)"
                f" % {M} AS UBIGINT)")

    def xsh(e):
        return f"xor({e}, {e} >> 33)"

    # fmix64((key*256 + b)) step by step, single-reference chain via a CTE
    cdf = BOOT_CDF
    case_w = ("CASE WHEN u < {0} THEN 0 WHEN u < {1} THEN 1 WHEN u < {2} THEN 2 "
              "WHEN u < {3} THEN 3 WHEN u < {4} THEN 4 ELSE 5 END").format(*cdf)
    return f"""
WITH rows0 AS (
  SELECT CAST(substr(doc_id, 5) AS UBIGINT) AS key, CAST(n_tok AS BIGINT) AS x
  FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND regexp_matches(doc_id, '^doc-[0-9]{{8}}$')
    AND n_tok IS NOT NULL
),
reps AS (SELECT unnest(range(0, {BOOT_B})) AS b),
h0 AS (
  SELECT b, x, CAST((CAST(key AS HUGEINT) * 256 + b) % {M} AS UBIGINT) AS h
  FROM rows0 CROSS JOIN reps
),
h1 AS (SELECT b, x, {mul(xsh('h'), c1)} AS h FROM h0),
h2 AS (SELECT b, x, {mul(xsh('h'), c2)} AS h FROM h1),
h3 AS (SELECT b, x, {xsh('h')} AS h FROM h2),
w AS (
  SELECT b, x, {case_w} AS w
  FROM (SELECT b, x, CAST(h AS DOUBLE) / 18446744073709551616.0 AS u FROM h3)
),
means AS (
  SELECT b, CAST(sum(w * x) AS DOUBLE) / CAST(sum(w) AS DOUBLE) AS m
  FROM w GROUP BY b
),
ranked AS (SELECT m, row_number() OVER (ORDER BY m) AS rn FROM means)
SELECT CAST({BOOT_B} AS BIGINT) AS n_reps,
       round((SELECT m FROM ranked WHERE rn = {int(0.025 * BOOT_B) + 1}), 4) AS ci_lo,
       round((SELECT m FROM ranked WHERE rn = {int(0.975 * BOOT_B) + 1}), 4) AS ci_hi
"""


@entry("seq_bootstrap_ci", sql=_bootstrap_sql())
def q_seq_bootstrap_ci(sf_dir: str) -> pd.DataFrame:
    """Percentile-bootstrap CI for mean n_tok with DETERMINISTIC
    Poisson(1) resampling: replicate weights come from
    ``fmix64(key·256 + b)`` (key = the doc_id's numeric suffix), and
    the SQL twin re-derives the very same fmix64 — xor/shift on
    UBIGINT, wraparound multiplies in HUGEINT mod 2^64 — so every
    weight, every replicate mean and the final CI are bit-identical
    across engines.  One streaming pass: per batch a (B × 2) integer
    partial (Σw, Σw·n_tok per replicate); the driver reduces B rows."""
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "n_tok"])

    def partial(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.is_valid(b["doc_id"]),
                    pc.match_substring_regex(pc.fill_null(b["doc_id"], ""),
                                             r"^doc-[0-9]{8}$"))
        t = b.filter(pc.and_(m, pc.is_valid(b["n_tok"])))
        if t.num_rows == 0:
            return pa.table({"b": pa.array([], type=pa.int64()),
                             "sw": pa.array([], type=pa.int64()),
                             "swx": pa.array([], type=pa.int64())})
        key = pc.utf8_slice_codeunits(t["doc_id"], 4, 12).cast(pa.int64()) \
                .to_numpy(zero_copy_only=False).astype(np.uint64)
        x = t["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64)
        sw = np.zeros(BOOT_B, dtype=np.int64)
        swx = np.zeros(BOOT_B, dtype=np.int64)
        c1, c2 = np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53)
        for rb in range(BOOT_B):
            with np.errstate(over="ignore"):
                h = key * np.uint64(256) + np.uint64(rb)
                h ^= h >> np.uint64(33)
                h *= c1
                h ^= h >> np.uint64(33)
                h *= c2
                h ^= h >> np.uint64(33)
            u = h / np.float64(2**64)
            w = np.searchsorted(np.asarray(BOOT_CDF), u, side="right").astype(np.int64)
            sw[rb] = int(w.sum())
            swx[rb] = int((w * x).sum())
        return pa.table({"b": pa.array(np.arange(BOOT_B, dtype=np.int64)),
                         "sw": pa.array(sw), "swx": pa.array(swx)})

    parts = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)).to_pandas()
    agg = parts.groupby("b", sort=True)[["sw", "swx"]].sum()
    means = (agg["swx"].to_numpy(dtype=np.float64)
             / agg["sw"].to_numpy(dtype=np.float64))
    ms = np.sort(means)
    lo = ms[int(np.floor(0.025 * BOOT_B))]
    hi = ms[int(np.floor(0.975 * BOOT_B))]
    return pd.DataFrame({
        "n_reps": pd.array([BOOT_B], dtype="int64"),
        "ci_lo": [round_half_away(float(lo), 4)],
        "ci_hi": [round_half_away(float(hi), 4)],
    })


# ---------------------------------------------------------------------------
# events_lift — market-basket lift between event types

SQL_EVENTS_LIFT = """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
nu AS (SELECT CAST(count(DISTINCT user_id) AS BIGINT) AS n FROM d),
s AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n FROM d GROUP BY 1),
p AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         CAST(count(*) AS BIGINT) AS n_ab
  FROM d a JOIN d b ON a.user_id = b.user_id AND a.event_type < b.event_type
  GROUP BY 1, 2
)
SELECT p.type_a, p.type_b, p.n_ab,
       round(CAST(p.n_ab * (SELECT n FROM nu) AS DOUBLE)
             / CAST(sa.n * sb.n AS DOUBLE), 4) AS lift
FROM p JOIN s sa ON sa.event_type = p.type_a
       JOIN s sb ON sb.event_type = p.type_b
ORDER BY p.type_a, p.type_b
"""


@entry("events_lift", sql=SQL_EVENTS_LIFT)
def q_events_lift(sf_dir: str) -> pd.DataFrame:
    """Market-basket lift over per-user event-type baskets:
    ``lift(A,B) = n_ab·n_users / (n_a·n_b)`` — all counts exact
    integers (one (user,type) dedup cogroup; per-part self-merge for
    pairs), the ratio one identical IEEE division on both engines."""

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def dedup(b: pa.Table) -> pa.Table:
        return b.group_by(["user_id", "event_type"]).aggregate([])

    def pairs_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["user_id", "event_type"]].drop_duplicates()
        singles = d.groupby("event_type").size().reset_index(name="n")
        singles["kind"] = "s"
        singles["a"] = singles["event_type"]
        singles["b"] = ""
        m = d.merge(d, on="user_id")
        m = m[m["event_type_x"] < m["event_type_y"]]
        prs = (m.groupby(["event_type_x", "event_type_y"]).size()
                 .reset_index(name="n"))
        prs["kind"] = "p"
        prs = prs.rename(columns={"event_type_x": "a", "event_type_y": "b"})
        users = pd.DataFrame({"kind": ["u"], "a": [""], "b": [""],
                              "n": [d["user_id"].nunique()]})
        return pd.concat([singles[["kind", "a", "b", "n"]],
                          prs[["kind", "a", "b", "n"]], users], ignore_index=True)

    t = _collect(map_key_buckets(ds.map_batches(dedup, batch_format="pyarrow", zero_copy_batch=True),
                                 ["user_id"], pairs_part)).to_pandas()
    agg = t.groupby(["kind", "a", "b"], sort=True)["n"].sum().reset_index()
    n_users = int(agg.loc[agg["kind"] == "u", "n"].sum())
    singles = dict(zip(agg.loc[agg["kind"] == "s", "a"],
                       agg.loc[agg["kind"] == "s", "n"].astype(int)))
    prs = agg[agg["kind"] == "p"].copy()
    prs["n_ab"] = prs["n"].astype("int64")
    prs["lift"] = [
        round_half_away((int(nab) * n_users) / (singles[a] * singles[b]), 4)
        for a, b, nab in zip(prs["a"], prs["b"], prs["n_ab"])
    ]
    out = prs.rename(columns={"a": "type_a", "b": "type_b"}).sort_values(
        ["type_a", "type_b"]).reset_index(drop=True)
    return out[["type_a", "type_b", "n_ab", "lift"]].astype(
        {"type_a": "string", "type_b": "string", "n_ab": "int64"})


# ---------------------------------------------------------------------------
# seq_source_gini — data-mixture inequality over source token shares

SQL_SEQ_SOURCE_GINI = f"""
WITH s AS (
  SELECT source, CAST(sum(n_tok) AS BIGINT) AS toks FROM {SEQ_SQL}
  WHERE source IS NOT NULL GROUP BY source
),
r AS (SELECT toks, row_number() OVER (ORDER BY toks ASC) AS i FROM s),
a AS (SELECT CAST(count(*) AS BIGINT) AS n, CAST(sum(toks) AS BIGINT) AS tot,
             CAST(sum(i * toks) AS BIGINT) AS num FROM r)
SELECT n AS n_sources, tot AS total_toks,
       round((2.0 * num) / (n * tot) - CAST(n + 1 AS DOUBLE) / n, 6) AS gini
FROM a
"""


@entry("seq_source_gini", sql=SQL_SEQ_SOURCE_GINI)
def q_seq_source_gini(sf_dir: str) -> pd.DataFrame:
    """Gini coefficient of the corpus token-mass distribution across
    sources (the mixture-inequality dial a data-mixing pass turns):
    exact integer token sums per source, then the sorted-share formula
    ``G = (2·Σ i·x_i) / (n·Σx) − (n+1)/n`` evaluated once on scalars."""
    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["source"]))
        g = t.group_by("source").aggregate([("n_tok", "sum")])
        return g.rename_columns(["source", "toks"])

    t = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()
    agg = t.groupby("source", sort=True)["toks"].sum()
    x = np.sort(agg.to_numpy(dtype=np.int64))
    n = len(x)
    num = int((np.arange(1, n + 1, dtype=np.int64) * x).sum())
    tot = int(x.sum())
    gini = (2.0 * num) / (n * tot) - (n + 1) / n
    return pd.DataFrame({"n_sources": pd.array([n], dtype="int64"),
                         "total_toks": pd.array([tot], dtype="int64"),
                         "gini": [round_half_away(float(gini), 6)]})

