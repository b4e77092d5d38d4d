"""Catalog wave 4: event-analytics + curation operators that round out
the corpus-pipeline surface — sessionization (inactivity-gap windows),
fixed-window unit dedup (the RefinedWeb paragraph-dedup shape over
word-stream documents), RFM user segmentation (exact-quantile terciles),
a bloom-prefiltered exact semi-join, schema-drift UNION ALL BY NAME with
a per-column null audit, and per-source hapax-legomena rates.

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
from jesse_ray.pipelines.queries import SEQ_SQL, _collect, entry
from jesse_ray.sources import read_table
from jesse_ray.rounding import round_half_away


# ---------------------------------------------------------------------------
# events_sessionize — inactivity-gap sessionization (classic event-stream
# windowing: a session breaks when a user is idle longer than the gap)

SESSION_GAP_US = 6 * 3600 * 1_000_000  # 6h idle ⇒ new session


SQL_EVENTS_SESSIONIZE = f"""
WITH l AS (
  SELECT user_id, ts, event_id,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pts
  FROM events),
g AS (
  SELECT user_id, ts, event_id,
         CASE WHEN pts IS NULL
                OR epoch_us(ts) - epoch_us(pts) > {SESSION_GAP_US}
              THEN 1 ELSE 0 END AS ns
  FROM l),
s AS (
  SELECT user_id,
         sum(ns) OVER (PARTITION BY user_id ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) AS sid
  FROM g),
sz AS (SELECT user_id, sid, count(*) AS c FROM s GROUP BY 1, 2)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) AS BIGINT) AS n_sessions,
       CAST(sum(c) AS BIGINT) AS n_events,
       CAST(max(c) AS BIGINT) AS max_session_events
FROM sz GROUP BY 1 ORDER BY 1
"""


@entry("events_sessionize", sql=SQL_EVENTS_SESSIONIZE)
def q_events_sessionize(sf_dir: str) -> pd.DataFrame:
    """Per-user sessionization: sort each user's events by time and cut
    a new session at every idle gap > 6 h, then report per user the
    session count, event count, and largest session.

    Scale shape: ONE coarse hash shuffle on ``user_id`` (≤64 parts —
    many users per part, so skew is bounded and per-group overhead is
    O(parts), same pattern as ``relational.grouped_lag``), then one
    C-level mergesort + vectorized gap scan per part.  Nothing is ever
    per-user on the driver."""
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "ts", "user_id"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b["user_id"].cast(pa.int64()),
            "event_id": b["event_id"].cast(pa.int64()),
            "us": b["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
        })

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "us", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        t = g["us"].to_numpy()
        new_user = np.empty(len(g), dtype=bool)
        new_user[0] = True
        new_user[1:] = u[1:] != u[:-1]
        gap = np.empty(len(g), dtype=np.int64)
        gap[0] = 0
        gap[1:] = t[1:] - t[:-1]
        sid = np.cumsum(new_user | (gap > SESSION_GAP_US))
        sz = (pd.DataFrame({"user_id": u, "sid": sid})
              .groupby(["user_id", "sid"], sort=False).size()
              .reset_index(name="c"))
        out = (sz.groupby("user_id", sort=False)
               .agg(n_sessions=("c", "size"), n_events=("c", "sum"),
                    max_session_events=("c", "max"))
               .reset_index())
        return out.astype({"user_id": "int64", "n_sessions": "int64",
                           "n_events": "int64", "max_session_events": "int64"})

    prepped = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    out = map_key_buckets(prepped, ["user_id"], sessions)
    pdf = _collect(out).to_pandas()
    return pdf.sort_values("user_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# doc_unit_dedup — fixed-window unit dedup (RefinedWeb-style paragraph
# dedup re-expressed over word-stream documents: the dedup unit is each
# consecutive 10-word window, NON-overlapping — unlike the sliding
# n-gram ops, this partitions every document into disjoint units)

UNIT_W = 10


SQL_DOC_UNIT_DEDUP = f"""
WITH w AS (SELECT source, str_split(text, ' ') AS ws FROM documents),
e AS (SELECT source, ws,
             unnest(generate_series(1, CAST(ceil(len(ws) / {UNIT_W}.0) AS BIGINT))) AS i
      FROM w),
u AS (SELECT source,
             array_to_string(ws[(i - 1) * {UNIT_W} + 1 : LEAST(len(ws), i * {UNIT_W})], ' ') AS unit
      FROM e),
c AS (SELECT unit, count(*) AS c FROM u GROUP BY 1)
SELECT u.source,
       CAST(count(*) AS BIGINT) AS n_units,
       CAST(count(*) FILTER (WHERE c.c >= 2) AS BIGINT) AS dup_units,
       round(count(*) FILTER (WHERE c.c >= 2) * 1.0 / count(*), 4) AS dup_frac
FROM u JOIN c USING (unit) GROUP BY 1 ORDER BY 1
"""


@entry("doc_unit_dedup", sql=SQL_DOC_UNIT_DEDUP)
def q_doc_unit_dedup(sf_dir: str) -> pd.DataFrame:
    """Per-source duplicate-unit rate: split every document into
    consecutive ``UNIT_W``-word units (last unit may be short) and count
    how many unit OCCURRENCES belong to a unit text that appears ≥2
    times corpus-wide.

    Scale shape: unit construction is zero-copy Arrow — ``split_pattern``
    once, then a re-chunked ``ListArray`` over the SAME flat word buffer
    (only a new offsets vector is built) joined back with
    ``binary_join``; units shuffle ONCE on a coarse 64-part hash of the
    unit text, each part resolves its complete hash slice with one
    pandas groupby (a unit's occurrences always share a part, so the
    ≥2 test is exact), and only ≤ parts × sources partial rows reach
    the driver."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["text", "source"])

    def units(b: pa.Table) -> pa.Table:
        words = b["text"].combine_chunks() if isinstance(b["text"], pa.ChunkedArray) else b["text"]
        words = pc.split_pattern(words, " ")
        off = words.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        nw = np.diff(off)
        n_units = (nw + UNIT_W - 1) // UNIT_W
        total = int(n_units.sum())
        if total == 0:
            return pa.table({"unit": pa.array([], type=pa.string()),
                             "source": pa.array([], type=pa.string())})
        # per-unit start offsets: doc start + UNIT_W * within-doc index
        doc_of = np.repeat(np.arange(len(nw)), n_units)
        first = np.zeros(len(nw), dtype=np.int64)
        first[1:] = np.cumsum(n_units)[:-1]
        intra = np.arange(total, dtype=np.int64) - first[doc_of]
        starts = off[:-1][doc_of] + UNIT_W * intra
        # consecutive units tile each doc and docs tile the buffer, so
        # starts[i+1] == min(starts[i]+UNIT_W, doc_end) — offsets are the
        # starts plus the final doc end, over the ORIGINAL flat values
        offsets = np.append(starts, off[-1]).astype(np.int32)
        unit_list = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                             words.values)
        unit = pc.binary_join(unit_list, " ")
        src = np.repeat(np.asarray(b["source"].to_pandas(), dtype=object), n_units)
        return pa.table({
            "unit": unit,
            "source": pa.array(src, type=pa.string()),
        })

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df.groupby("unit", sort=False)["unit"].transform("size")
        dup = (cnt >= 2).to_numpy()
        out = (df.assign(dup=dup).groupby("source", sort=False)
               .agg(n_units=("dup", "size"), dup_units=("dup", "sum"))
               .reset_index())
        return out.astype({"n_units": "int64", "dup_units": "int64"})

    partials = map_key_buckets(ds.map_batches(units, batch_format="pyarrow", zero_copy_batch=True),
                               ["unit"], per_part)
    pdf = _collect(partials).to_pandas()
    agg = pdf.groupby("source", as_index=False)[["n_units", "dup_units"]].sum()
    agg["dup_frac"] = round_half_away((agg["dup_units"] / agg["n_units"]), 4)
    return agg.sort_values("source").reset_index(drop=True)


# ---------------------------------------------------------------------------
# events_rfm — RFM user segmentation with exact discrete-quantile
# tercile thresholds (quantile_disc parity on both sides)


SQL_EVENTS_RFM = """
WITH pu AS (
  SELECT user_id,
         CAST((epoch_us((SELECT max(ts) FROM events)) - epoch_us(max(ts)))
              // 86400000000 AS BIGINT) AS rec,
         CAST(count(*) AS BIGINT) AS freq,
         round(sum(CASE WHEN event_type = 'purchase' AND value IS NOT NULL
                        THEN value ELSE 0 END), 6) AS mon
  FROM events GROUP BY 1),
t AS (SELECT quantile_disc(rec, 1.0/3) AS r1, quantile_disc(rec, 2.0/3) AS r2,
             quantile_disc(freq, 1.0/3) AS f1, quantile_disc(freq, 2.0/3) AS f2,
             quantile_disc(mon, 1.0/3) AS m1, quantile_disc(mon, 2.0/3) AS m2
      FROM pu)
SELECT CAST(100 * (1 + (rec > r1)::INT + (rec > r2)::INT)
            + 10 * (1 + (freq > f1)::INT + (freq > f2)::INT)
            + (1 + (mon > m1)::INT + (mon > m2)::INT) AS BIGINT) AS segment,
       CAST(count(*) AS BIGINT) AS n_users
FROM pu, t GROUP BY 1 ORDER BY 1
"""


@entry("events_rfm", sql=SQL_EVENTS_RFM)
def q_events_rfm(sf_dir: str) -> pd.DataFrame:
    """RFM segmentation: per user compute Recency (whole days between
    the user's last event and the corpus max timestamp), Frequency
    (event count) and Monetary (sum of non-null purchase values, rounded
    to 6 dp to absorb float summation-order noise before comparisons),
    bucket each metric into terciles at exact discrete quantiles
    (DuckDB ``quantile_disc`` parity: ``sorted[max(ceil(q*n)-1, 0)]``),
    and count users per ``100*r + 10*f + m`` segment.

    Scale shape: the per-user table comes from the ``grouped_agg``
    combiner (one shuffle of batch partials), is materialized ONCE
    (user-cardinality rows, never corpus rows), thresholds come from the
    exact-quantile partial-count machinery, and the final bucket pass is
    one vectorized map + a ≤27-row grouped count."""
    from jesse_ray.pipelines.relational import exact_discrete_quantiles, grouped_agg

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["ts", "user_id", "event_type", "value"])

    def prep(b: pa.Table) -> pa.Table:
        us = b["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        is_p = pc.and_(pc.equal(b["event_type"], "purchase"),
                       pc.is_valid(b["value"]))
        mon = pc.if_else(is_p, b["value"].cast(pa.float64()), pa.scalar(0.0))
        return pa.table({"user_id": b["user_id"].cast(pa.int64()),
                         "us": us, "mon": mon})

    per_user = grouped_agg(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"], sums=["mon"], maxs=["us"],
    ).materialize()

    gmax = per_user.max("max_us")

    def metrics(b: pa.Table) -> pa.Table:
        rec = (gmax - b["max_us"].to_numpy(zero_copy_only=False)) // 86_400_000_000
        mon = round_half_away(b["sum_mon"].to_numpy(zero_copy_only=False), 6)
        return pa.table({
            "user_id": b["user_id"],
            "rec": pa.array(rec.astype(np.int64), type=pa.int64()),
            "freq": b["cnt"].cast(pa.int64()),
            "mon": pa.array(mon, type=pa.float64()),
        })

    met = per_user.map_batches(metrics, batch_format="pyarrow",
                               zero_copy_batch=True).materialize()
    qs = [1.0 / 3, 2.0 / 3]
    r1, r2 = exact_discrete_quantiles(met, "rec", qs)
    f1, f2 = exact_discrete_quantiles(met, "freq", qs)
    m1, m2 = exact_discrete_quantiles(met, "mon", qs)

    def bucket(b: pa.Table) -> pa.Table:
        rec = b["rec"].to_numpy(zero_copy_only=False)
        freq = b["freq"].to_numpy(zero_copy_only=False)
        mon = b["mon"].to_numpy(zero_copy_only=False)
        seg = (100 * (1 + (rec > r1) + (rec > r2))
               + 10 * (1 + (freq > f1) + (freq > f2))
               + (1 + (mon > m1) + (mon > m2)))
        return pa.table({"segment": pa.array(seg.astype(np.int64), type=pa.int64())})

    out = grouped_agg(
        met.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True),
        ["segment"], count_alias="n_users",
    ).to_pandas()
    out["n_users"] = out["n_users"].astype("int64")
    return out[["segment", "n_users"]].sort_values("segment").reset_index(drop=True)


# ---------------------------------------------------------------------------
# events_bloom_semijoin — bloom-prefiltered exact semi-join (the 100-TB
# pattern: a broadcast bitmap kills most of the big side BEFORE the
# shuffle; the exact semi-join on survivors kills false positives)


SQL_EVENTS_BLOOM_SEMIJOIN = """
SELECT event_type, CAST(count(*) AS BIGINT) AS n
FROM events
WHERE user_id IN (SELECT user_id FROM events
                  WHERE event_type = 'error' AND value > 150)
GROUP BY 1 ORDER BY 1
"""


@entry("events_bloom_semijoin", sql=SQL_EVENTS_BLOOM_SEMIJOIN)
def q_events_bloom_semijoin(sf_dir: str) -> pd.DataFrame:
    """Events of users who ever produced a high-value error
    (``event_type='error' AND value > 150``), counted per event type.

    The small side (distinct offending users) is built once, OR-folded
    into a bloom bitmap through the shuffle-free coalescing tree, and
    broadcast via ``ray.put``; the big side drops non-members with one
    vectorized probe per batch (no shuffle for the misses), then the
    bloom's false positives are removed by an exact distributed
    ``hash_join(how="semi")`` over the tiny survivor set."""
    from jesse_ray.functions.bloom import BloomFilter, bloom_flag, build_bloom
    from jesse_ray.pipelines.relational import grouped_agg, hash_join

    ev = read_table(f"{sf_dir}/events.parquet",
                    columns=["user_id", "event_type", "value"])

    def offenders(b: pa.Table) -> pa.Table:
        mask = pc.and_(pc.equal(b["event_type"], "error"),
                       pc.fill_null(pc.greater(b["value"], 150.0), False))
        t = b.filter(mask)
        keys = t["user_id"].cast(pa.int64()).cast(pa.string())
        return pa.table({"ukey": keys}).group_by("ukey").aggregate([])

    small = ev.map_batches(offenders, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()
    bloom = build_bloom(small, "ukey", num_bits=1 << 20)

    def tag(b: pa.Table) -> pa.Table:
        return pa.table({
            "ukey": b["user_id"].cast(pa.int64()).cast(pa.string()),
            "event_type": b["event_type"],
        })

    flagged = bloom_flag(
        ev.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True),
        bloom, "ukey",
    )

    def keep(b: pa.Table) -> pa.Table:
        return b.filter(b["maybe_member"]).drop_columns(["maybe_member"])

    pre = flagged.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    exact = hash_join(pre, small, on="ukey", how="semi")
    out = grouped_agg(exact, ["event_type"], count_alias="n").to_pandas()
    if out.empty:
        return pd.DataFrame({"event_type": pd.array([], dtype=object),
                             "n": pd.array([], dtype="int64")})
    out["n"] = out["n"].astype("int64")
    return out[["event_type", "n"]].sort_values("event_type").reset_index(drop=True)


# ---------------------------------------------------------------------------
# snapshot_union_by_name — schema-drift union + per-column null audit


SQL_SNAPSHOT_UNION_BY_NAME = """
WITH u AS (
  SELECT CAST(doc_id AS BIGINT) AS doc_id, source, lang,
         CAST(n_chars AS BIGINT) AS n_chars, NULL::BIGINT AS quality
  FROM documents
  UNION ALL
  SELECT CAST(doc_id AS BIGINT) + 1000000, source, NULL, NULL,
         CAST(n_chars AS BIGINT) * 2
  FROM documents)
SELECT * FROM (
  SELECT 'doc_id' AS col_name, CAST(count(doc_id) AS BIGINT) AS n_nonnull FROM u
  UNION ALL SELECT 'source', count(source) FROM u
  UNION ALL SELECT 'lang', count(lang) FROM u
  UNION ALL SELECT 'n_chars', count(n_chars) FROM u
  UNION ALL SELECT 'quality', count(quality) FROM u
) ORDER BY 1
"""


@entry("snapshot_union_by_name", sql=SQL_SNAPSHOT_UNION_BY_NAME)
def q_snapshot_union_by_name(sf_dir: str) -> pd.DataFrame:
    """Schema-evolution audit: union a v1 snapshot (doc_id, source,
    lang, n_chars) with a drifted v2 (doc_id offset, lang dropped, new
    ``quality`` column) via :func:`relational.union_by_name`, then count
    non-null cells per column — the one-pass profile that tells a
    100-TB pipeline which snapshot generation is missing which field.

    The audit is a per-batch single-row partial (column → valid count)
    summed by one ≤columns-row grouped agg; the union itself is
    plan-level (zero shuffle)."""
    from jesse_ray.pipelines.relational import grouped_agg, union_by_name

    docs = read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "source", "lang", "n_chars"])

    def v1(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b["doc_id"].cast(pa.int64()),
            "source": b["source"],
            "lang": b["lang"],
            "n_chars": b["n_chars"].cast(pa.int64()),
        })

    def v2(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.add(b["doc_id"].cast(pa.int64()), 1_000_000),
            "source": b["source"],
            "quality": pc.multiply(b["n_chars"].cast(pa.int64()), 2),
        })

    a = docs.map_batches(v1, batch_format="pyarrow", zero_copy_batch=True)
    b2 = docs.map_batches(v2, batch_format="pyarrow", zero_copy_batch=True)
    u = union_by_name(a, b2)

    def audit(batch: pa.Table) -> pa.Table:
        names = batch.column_names
        return pa.table({
            "col_name": pa.array(names, type=pa.string()),
            "nn": pa.array(
                [batch[c].length() - batch[c].null_count for c in names],
                type=pa.int64()),
        })

    out = grouped_agg(
        u.map_batches(audit, batch_format="pyarrow", zero_copy_batch=True),
        ["col_name"], sums=["nn"], count_alias=None,
    ).to_pandas()
    out["n_nonnull"] = out["sum_nn"].astype("int64")
    return out[["col_name", "n_nonnull"]].sort_values("col_name").reset_index(drop=True)


# ---------------------------------------------------------------------------
# doc_hapax_by_source — hapax-legomena rate per source (the vocabulary-
# health signal: a high hapax share means thin, noisy text; a collapsing
# one means template spam)


SQL_DOC_HAPAX_BY_SOURCE = """
WITH w AS (SELECT source, unnest(str_split(text, ' ')) AS word FROM documents),
c AS (SELECT source, word, count(*) AS c FROM w GROUP BY 1, 2)
SELECT source, CAST(count(*) AS BIGINT) AS vocab,
       CAST(count(*) FILTER (WHERE c = 1) AS BIGINT) AS hapax,
       round(count(*) FILTER (WHERE c = 1) * 1.0 / count(*), 4) AS hapax_frac
FROM c GROUP BY 1 ORDER BY 1
"""


@entry("doc_hapax_by_source", sql=SQL_DOC_HAPAX_BY_SOURCE)
def q_doc_hapax_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source vocabulary size, hapax count (words occurring exactly
    once WITHIN the source) and hapax fraction.

    Scale shape: per-batch Arrow ``group_by([source, word])`` combiner
    collapses occurrences to partial counts BEFORE any movement; the
    partials shuffle once on a coarse 64-part hash of the word (a
    (source, word) pair always lands in one part, so summing partials
    there is exact); each part then emits ≤sources summary rows."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["text", "source"])

    def word_partials(b: pa.Table) -> pa.Table:
        text = b["text"].combine_chunks() if isinstance(b["text"], pa.ChunkedArray) else b["text"]
        words = pc.split_pattern(text, " ")
        nw = np.diff(words.offsets.to_numpy(zero_copy_only=False).astype(np.int64))
        src = np.repeat(np.asarray(b["source"].to_pandas(), dtype=object), nw)
        t = pa.table({"source": pa.array(src, type=pa.string()),
                      "word": words.values})
        g = t.group_by(["source", "word"]).aggregate([([], "count_all")])
        return g.rename_columns(["source", "word", "c"])

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df.groupby(["source", "word"], sort=False)["c"].sum().reset_index()
        out = (cnt.assign(h=(cnt["c"] == 1))
               .groupby("source", sort=False)
               .agg(vocab=("h", "size"), hapax=("h", "sum"))
               .reset_index())
        return out.astype({"vocab": "int64", "hapax": "int64"})

    partials = map_key_buckets(ds.map_batches(word_partials, batch_format="pyarrow",
                                              zero_copy_batch=True),
                               ["word"], per_part)
    pdf = _collect(partials).to_pandas()
    agg = pdf.groupby("source", as_index=False)[["vocab", "hapax"]].sum()
    agg["hapax_frac"] = round_half_away((agg["hapax"] / agg["vocab"]), 4)
    return agg.sort_values("source").reset_index(drop=True)


# ---------------------------------------------------------------------------
# seq_skew_join — the skew-aware join, exercised on the corpus's planted
# hot doc_ids (testgen appends two 100-copy keys at sf >= 0.01)


SQL_SEQ_SKEW_JOIN = f"""
WITH f AS (SELECT doc_id, n_tok FROM {SEQ_SQL} WHERE doc_id IS NOT NULL),
d AS (SELECT doc_id, min(source) AS min_source
      FROM {SEQ_SQL} WHERE doc_id IS NOT NULL GROUP BY 1)
SELECT min_source, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(n_tok) AS BIGINT) AS tok_sum
FROM f JOIN d USING (doc_id) GROUP BY 1 ORDER BY 1
"""


@entry("seq_skew_join", sql=SQL_SEQ_SKEW_JOIN)
def q_seq_skew_join(sf_dir: str) -> pd.DataFrame:
    """Fact-to-dimension enrichment over a skewed key: join every
    sequence row to its doc_id's first-seen (min) source and aggregate
    tokens per enriched source.

    Runs through :func:`relational.skew_join` with ``hot_count=50`` so
    the corpus's planted 101-copy hot doc_ids take the salted path
    (hot left rows spread over 8 buckets, their dim rows replicated
    into each) while every other key rides the plain coarse-hash
    exchange — the result is row-identical to a plain join, proven by
    the DuckDB twin."""
    from jesse_ray.pipelines.queries import _seq_path
    from jesse_ray.pipelines.relational import grouped_agg, skew_join
    from jesse_ray.sources import read_sequences

    path = _seq_path(sf_dir)
    seq = read_sequences(path, columns=["doc_id", "n_tok", "source"])

    def nonnull(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_valid(b["doc_id"]))

    seq = seq.map_batches(nonnull, batch_format="pyarrow", zero_copy_batch=True)
    fact = seq.select_columns(["doc_id", "n_tok"])
    dim = grouped_agg(seq.select_columns(["doc_id", "source"]), ["doc_id"],
                      mins=["source"], count_alias=None)
    joined = skew_join(fact, dim, on="doc_id", how="inner",
                       hot_count=50, salt=8)

    def widen(b: pa.Table) -> pa.Table:
        return pa.table({"min_source": b["min_source"],
                         "n_tok": b["n_tok"].cast(pa.int64())})

    out = grouped_agg(
        joined.map_batches(widen, batch_format="pyarrow", zero_copy_batch=True),
        ["min_source"], sums=["n_tok"],
    ).to_pandas()
    out["n"] = out["cnt"].astype("int64")
    out["tok_sum"] = out["sum_n_tok"].astype("int64")
    return (out[["min_source", "n", "tok_sum"]]
            .sort_values("min_source").reset_index(drop=True))


# ---------------------------------------------------------------------------
# events_funnel3 — 3-step ordered funnel (chained first occurrences)


FUNNEL3_STEPS = ["signup", "click", "purchase"]


SQL_EVENTS_FUNNEL3 = """
WITH s1 AS (SELECT user_id, min(ts) AS t FROM events
            WHERE event_type = 'signup' GROUP BY 1),
s2 AS (SELECT e.user_id, min(e.ts) AS t FROM events e JOIN s1 USING (user_id)
       WHERE e.event_type = 'click' AND e.ts >= s1.t GROUP BY 1),
s3 AS (SELECT e.user_id, min(e.ts) AS t FROM events e JOIN s2 USING (user_id)
       WHERE e.event_type = 'purchase' AND e.ts >= s2.t GROUP BY 1)
SELECT * FROM (
  SELECT CAST(1 AS BIGINT) AS step, 'signup' AS step_name,
         CAST(count(*) AS BIGINT) AS n FROM s1
  UNION ALL SELECT 2, 'click', count(*) FROM s2
  UNION ALL SELECT 3, 'purchase', count(*) FROM s3
) ORDER BY 1
"""


@entry("events_funnel3", sql=SQL_EVENTS_FUNNEL3)
def q_events_funnel3(sf_dir: str) -> pd.DataFrame:
    """K-step ordered funnel over the event stream: users reaching
    signup → first click at-or-after it → first purchase at-or-after
    that (``relational.funnel_steps`` — one coarse entity shuffle, k
    vectorized groupby-min passes per part, ≤ parts × k partial rows)."""
    from jesse_ray.pipelines.relational import funnel_steps

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["user_id", "ts", "event_type"])
    t = funnel_steps(ds, FUNNEL3_STEPS, entity_col="user_id",
                     ts_col="ts", type_col="event_type")
    out = t.to_pandas()
    out["step_name"] = [FUNNEL3_STEPS[i - 1] for i in out["step"]]
    return out[["step", "step_name", "n"]].sort_values("step").reset_index(drop=True)


# ---------------------------------------------------------------------------
# events_conversion_latency — signup→purchase delay quantiles


SQL_EVENTS_CONVERSION_LATENCY = """
WITH a AS (SELECT user_id, min(ts) AS ta FROM events
           WHERE event_type = 'signup' GROUP BY 1),
b AS (SELECT e.user_id, min(e.ts) AS tb FROM events e JOIN a USING (user_id)
      WHERE e.event_type = 'purchase' AND e.ts >= a.ta GROUP BY 1),
d AS (SELECT (epoch_us(b.tb) - epoch_us(a.ta)) // 3600000000 AS h
      FROM a JOIN b USING (user_id)
      WHERE epoch_us(b.tb) - epoch_us(a.ta) <= 30 * 86400000000)
SELECT CAST(count(*) AS BIGINT) AS n_converted,
       CAST(quantile_disc(h, 0.5) AS BIGINT) AS p50_hours,
       CAST(quantile_disc(h, 0.9) AS BIGINT) AS p90_hours
FROM d
"""


@entry("events_conversion_latency", sql=SQL_EVENTS_CONVERSION_LATENCY)
def q_events_conversion_latency(sf_dir: str) -> pd.DataFrame:
    """Conversion-latency distribution: for every user whose first
    purchase follows their first signup within 30 days
    (``relational.funnel_conversions``), the signup→purchase delay in
    whole hours, summarized as exact discrete quantiles (p50/p90,
    ``quantile_disc`` parity) plus the converted-user count."""
    from jesse_ray.pipelines.relational import (
        exact_discrete_quantiles,
        funnel_conversions,
    )

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["user_id", "ts", "event_type"])
    conv = funnel_conversions(ds, entity_col="user_id", ts_col="ts",
                              type_col="event_type", step_a="signup",
                              step_b="purchase",
                              within=pd.Timedelta(days=30))

    def delay(b: pa.Table) -> pa.Table:
        a = b["first_a"].cast(pa.timestamp("us")).cast(pa.int64())
        z = b["first_b"].cast(pa.timestamp("us")).cast(pa.int64())
        d = pc.divide(pc.subtract(z, a), 3_600_000_000)
        return pa.table({"h": d.cast(pa.int64())})

    dd = conv.map_batches(delay, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    n = dd.count()
    if n == 0:
        return pd.DataFrame({"n_converted": pd.array([0], dtype="int64"),
                             "p50_hours": pd.array([], dtype="int64"),
                             "p90_hours": pd.array([], dtype="int64")})
    p50, p90 = exact_discrete_quantiles(dd, "h", [0.5, 0.9])
    return pd.DataFrame({"n_converted": pd.array([n], dtype="int64"),
                         "p50_hours": pd.array([int(p50)], dtype="int64"),
                         "p90_hours": pd.array([int(p90)], dtype="int64")})


# ---------------------------------------------------------------------------
# events_mutual_info — mutual information between event type and
# hour-of-day (feature-relevance audit over the contingency table)


SQL_EVENTS_MUTUAL_INFO = """
WITH c AS (SELECT event_type, CAST(date_part('hour', ts) AS BIGINT) AS hour,
                  count(*) AS cxy
           FROM events GROUP BY 1, 2),
tot AS (SELECT sum(cxy) AS n FROM c),
mx AS (SELECT event_type, sum(cxy) AS cx FROM c GROUP BY 1),
my AS (SELECT hour, sum(cxy) AS cy FROM c GROUP BY 1)
SELECT CAST(tot.n AS BIGINT) AS n,
       round(sum((c.cxy * 1.0 / tot.n) * ln((c.cxy * 1.0 * tot.n) / (mx.cx * 1.0 * my.cy))), 9) AS mi_nats
FROM c JOIN mx USING (event_type) JOIN my USING (hour) CROSS JOIN tot
GROUP BY tot.n
"""


@entry("events_mutual_info", sql=SQL_EVENTS_MUTUAL_INFO)
def q_events_mutual_info(sf_dir: str) -> pd.DataFrame:
    """Mutual information I(event_type; hour) in nats from the EXACT
    contingency table: one vectorized hour-extraction pass feeds the
    ``grouped_agg`` combiner (≤ types × 24 cells ever shuffle); the MI
    sum over those few cells runs on the driver with the same
    integer-ratio ln() expression the SQL twin evaluates, rounded to
    9 dp on both sides."""
    from jesse_ray.pipelines.relational import grouped_agg

    ds = read_table(f"{sf_dir}/events.parquet", columns=["ts", "event_type"])

    def derive(b: pa.Table) -> pa.Table:
        hour = pc.hour(b["ts"].cast(pa.timestamp("us"))).cast(pa.int64())
        return pa.table({"event_type": b["event_type"], "hour": hour})

    cells = grouped_agg(
        ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "hour"],
    ).to_pandas()
    n = int(cells["cnt"].sum())
    cx = cells.groupby("event_type")["cnt"].transform("sum").to_numpy(dtype=np.float64)
    cy = cells.groupby("hour")["cnt"].transform("sum").to_numpy(dtype=np.float64)
    cxy = cells["cnt"].to_numpy(dtype=np.float64)
    mi = float(np.sum((cxy / n) * np.log((cxy * n) / (cx * cy))))
    return pd.DataFrame({"n": pd.array([n], dtype="int64"),
                         "mi_nats": [round_half_away(mi, 9)]})

