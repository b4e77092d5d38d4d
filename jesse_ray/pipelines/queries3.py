"""Catalog wave 3: scale-structure operators — distributed skyline
(Pareto frontier), CUBE grouping sets, KMV distinct sketch with a
hash-identical SQL twin, and exact interpolated per-group percentiles.
Same driver contract as :mod:`.queries` (column names match the DuckDB
twin exactly; doubles rounded identically on both sides).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import fmix64, map_key_buckets
from jesse_ray.sources import read_sequences, read_table

# the registry and shared helpers / constants (.queries never imports
# this module when it loads; its queries() imports every catalog module).
from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, entry
from jesse_ray.rounding import round_half_away


# ---------------------------------------------------------------------------
# part_skyline — distributed 2-D Pareto frontier (min price, max size)


def _skyline_mask(price: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Boolean mask of the 2-D skyline (minimize price, maximize size)
    over DISTINCT (price, size) points via one sorted sweep: sort price
    asc / size desc, keep points whose size strictly exceeds the running
    max of everything cheaper-or-equal seen before them."""
    order = np.lexsort((-size, price))
    runmax = np.maximum.accumulate(size[order])
    prevmax = np.empty_like(runmax)
    prevmax[0] = np.iinfo(np.int64).min
    prevmax[1:] = runmax[:-1]
    keep = np.zeros(len(price), dtype=bool)
    keep[order] = size[order] > prevmax
    return keep


SQL_PART_SKYLINE = """
SELECT p.p_partkey, CAST(p.p_size AS BIGINT) AS p_size,
       round(p.p_retailprice, 2) AS price
FROM part p
WHERE NOT EXISTS (
  SELECT 1 FROM part q
  WHERE q.p_retailprice <= p.p_retailprice AND q.p_size >= p.p_size
    AND (q.p_retailprice < p.p_retailprice OR q.p_size > p.p_size)
)
ORDER BY p.p_partkey
"""


@entry("part_skyline", sql=SQL_PART_SKYLINE)
def q_part_skyline(sf_dir: str) -> pd.DataFrame:
    """Distributed skyline query (Börzsönyi et al., ICDE 2001): parts
    not dominated on (p_retailprice minimize, p_size maximize).  Scale
    shape: each block computes its LOCAL skyline with a vectorized
    sorted sweep (any globally non-dominated point is locally
    non-dominated, so the union of local skylines is a superset of the
    answer); only those few candidate rows reach the driver for the
    final sweep.  The driver never sees more than blocks x |local
    skyline| rows — O(log n) expected per block on anti-correlated-free
    data — while the full table streams once."""
    ds = read_table(f"{sf_dir}/part.parquet",
                    columns=["p_partkey", "p_size", "p_retailprice"])

    def local(b: pa.Table) -> pa.Table:
        price = b["p_retailprice"].to_numpy(zero_copy_only=False)
        size = b["p_size"].to_numpy(zero_copy_only=False).astype(np.int64)
        # distinct (price, size) points, then sweep; keep every row whose
        # point is on the local frontier (ties share the frontier)
        pts = np.stack([price, size.astype(np.float64)], axis=1)
        uniq, inv = np.unique(pts, axis=0, return_inverse=True)
        mask = _skyline_mask(uniq[:, 0], uniq[:, 1].astype(np.int64))[inv]
        return b.filter(pa.array(mask))

    cand = _collect(ds.map_batches(local, batch_format="pyarrow",
                                   zero_copy_batch=True)).to_pandas()
    price = cand["p_retailprice"].to_numpy()
    size = cand["p_size"].to_numpy().astype(np.int64)
    pts = np.stack([price, size.astype(np.float64)], axis=1)
    uniq, inv = np.unique(pts, axis=0, return_inverse=True)
    final = _skyline_mask(uniq[:, 0], uniq[:, 1].astype(np.int64))[inv]
    out = cand[final].copy()
    out["p_size"] = out["p_size"].astype("int64")
    out["price"] = round_half_away(out["p_retailprice"], 2)
    out = out[["p_partkey", "p_size", "price"]]
    return out.sort_values("p_partkey").reset_index(drop=True)


# ---------------------------------------------------------------------------
# lineitem_cube — GROUP BY CUBE (all four grouping sets)


SQL_LINEITEM_CUBE = """
SELECT l_returnflag, l_linestatus,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(l_quantity) AS BIGINT) AS sum_qty,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem
GROUP BY CUBE (l_returnflag, l_linestatus)
ORDER BY l_returnflag NULLS LAST, l_linestatus NULLS LAST
"""


@entry("lineitem_cube", sql=SQL_LINEITEM_CUBE)
def q_lineitem_cube(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE parity over (l_returnflag, l_linestatus): the four
    grouping sets — leaf, per-flag, per-status, grand total — each a
    combiner-shuffled `grouped_agg` pass (map-side Arrow partials, tiny
    merge), unioned with NULL markers.  Extends the ROLLUP twin
    (`queries.py q_lineitem_rollup`) with the transposed (status-only)
    set that ROLLUP cannot express."""
    from jesse_ray.pipelines.relational import grouped_agg

    ds = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_returnflag", "l_linestatus", "l_quantity",
                             "l_extendedprice", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        rev = pc.multiply(b["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), b["l_discount"]))
        return pa.table({"l_returnflag": b["l_returnflag"],
                         "l_linestatus": b["l_linestatus"],
                         "l_quantity": b["l_quantity"],
                         "rev": rev})

    ds = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def level(keys: list[str]) -> pd.DataFrame:
        if keys:
            return grouped_agg(ds, keys, sums=["l_quantity", "rev"]).to_pandas()
        t = grouped_agg(ds.map_batches(
            lambda b: b.append_column("__all", pa.array(np.zeros(b.num_rows, dtype=np.int8))),
            batch_format="pyarrow", zero_copy_batch=True,
        ), ["__all"], sums=["l_quantity", "rev"]).to_pandas()
        return t.drop(columns="__all")

    leaf = level(["l_returnflag", "l_linestatus"])
    by_flag = level(["l_returnflag"])
    by_status = level(["l_linestatus"])
    top = level([])
    by_flag["l_linestatus"] = None
    by_status["l_returnflag"] = None
    top["l_returnflag"] = None
    top["l_linestatus"] = None
    out = pd.concat([leaf, by_flag, by_status, top], ignore_index=True)
    out["n"] = out["cnt"].astype("int64")
    out["sum_qty"] = out["sum_l_quantity"].astype("int64")
    out["revenue"] = round_half_away(out["sum_rev"], 2)
    out = out[["l_returnflag", "l_linestatus", "n", "sum_qty", "revenue"]]
    return out.sort_values(["l_returnflag", "l_linestatus"],
                           na_position="last").reset_index(drop=True)


# ---------------------------------------------------------------------------
# seq_kmv_distinct — KMV (k-minimum-values) distinct-token sketch

KMV_K = 512

# fmix64 (MurmurHash3 finalizer) replicated in DuckDB: xor/shift on
# UBIGINT, wraparound multiplies via HUGEINT split (same technique as
# queries2._bootstrap_sql).
_M64 = 1 << 64
_C1, _C2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53


def _sql_mul(e: str, c: int) -> str:
    c_hi, c_lo = c >> 32, c & 0xFFFFFFFF
    return (f"CAST(((CAST({e} AS HUGEINT) * {c_lo})"
            f" + ((CAST({e} AS HUGEINT) * {c_hi}) % 4294967296) * 4294967296)"
            f" % {_M64} AS UBIGINT)")


def _sql_xsh(e: str) -> str:
    return f"xor({e}, {e} >> 33)"


def _kmv_sql() -> str:
    return f"""
WITH tok AS (
  SELECT DISTINCT unnest(tokens) AS t FROM {SEQ_SQL}
),
h0 AS (
  SELECT CAST(((CAST(t AS HUGEINT) % {_M64}) + {_M64}) % {_M64} AS UBIGINT) AS h
  FROM tok
),
h1 AS (SELECT {_sql_mul(_sql_xsh('h'), _C1)} AS h FROM h0),
h2 AS (SELECT {_sql_mul(_sql_xsh('h'), _C2)} AS h FROM h1),
h3 AS (SELECT {_sql_xsh('h')} AS h FROM h2),
bk AS (SELECT h FROM h3 ORDER BY h LIMIT {KMV_K}),
a AS (SELECT CAST(count(*) AS BIGINT) AS k, max(h) AS hk FROM bk)
SELECT k,
       round((k - 1) * 18446744073709551616.0 / CAST(hk AS DOUBLE), 4)
         AS est_distinct
FROM a
"""


@entry("seq_kmv_distinct", sql=_kmv_sql())
def q_seq_kmv_distinct(sf_dir: str) -> pd.DataFrame:
    """KMV / bottom-k distinct sketch (Bar-Yossef et al. 2002) over the
    corpus token vocabulary: hash every distinct token value with
    fmix64 (a 64-bit bijection, so token-level distinctness carries
    through), keep the K smallest hashes, estimate
    ``D = (K-1) * 2^64 / h_(K)``.  Scale shape: each block contributes
    its own bottom-K of its batch-local distinct tokens (a few KB), the
    driver merges blocks x K values — constant-size partials, one
    streaming pass, no shuffle.  The SQL twin re-derives the identical
    fmix64 chain, so the K-th hash and the estimate are bit-identical."""
    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])

    def partial(b: pa.Table) -> pa.Table:
        toks = b["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        if len(flat) == 0:
            return pa.table({"h": pa.array([], type=pa.uint64())})
        # int32 token -> two's-complement uint64 == value mod 2^64,
        # matching the SQL twin's (t % 2^64 + 2^64) % 2^64
        u = np.unique(flat.astype(np.int64)).astype(np.uint64)
        h = np.sort(fmix64(u))[:KMV_K]
        return pa.table({"h": pa.array(h, type=pa.uint64())})

    parts = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True))
    merged = np.unique(parts["h"].to_numpy(zero_copy_only=False))
    k = min(KMV_K, len(merged))
    hk = float(merged[k - 1])
    est = (k - 1) * float(_M64) / hk
    return pd.DataFrame({"k": pd.array([k], dtype="int64"),
                         "est_distinct": [round_half_away(est, 4)]})


# ---------------------------------------------------------------------------
# events_quantile_cont — exact interpolated (type-7) per-group percentiles

QC_QS = (0.25, 0.5, 0.75, 0.9)


SQL_EVENTS_QUANTILE_CONT = f"""
WITH v AS (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY value) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM events WHERE value IS NOT NULL
),
qs AS (SELECT unnest(ARRAY[{", ".join(str(q) for q in QC_QS)}]) AS q),
t AS (
  SELECT v.event_type, qs.q, v.n,
         CAST(floor(qs.q * (v.n - 1)) AS BIGINT) AS i,
         qs.q * (v.n - 1) - floor(qs.q * (v.n - 1)) AS g
  FROM (SELECT DISTINCT event_type, n FROM v) v CROSS JOIN qs
),
lo AS (
  SELECT t.event_type, t.q, t.g, v.value AS xlo
  FROM t JOIN v ON v.event_type = t.event_type AND v.rn = t.i + 1
),
hi AS (
  SELECT t.event_type, t.q, COALESCE(v.value, NULL) AS xhi
  FROM t LEFT JOIN v ON v.event_type = t.event_type AND v.rn = t.i + 2
)
SELECT lo.event_type, lo.q,
       round(lo.xlo + lo.g * (COALESCE(hi.xhi, lo.xlo) - lo.xlo), 6) AS val
FROM lo JOIN hi ON hi.event_type = lo.event_type AND hi.q = lo.q
ORDER BY lo.event_type, lo.q
"""


@entry("events_quantile_cont", sql=SQL_EVENTS_QUANTILE_CONT)
def q_events_quantile_cont(sf_dir: str) -> pd.DataFrame:
    """Exact linearly-interpolated percentiles of event value per
    event_type — the continuous (type-7) twin of the discrete grouped
    quantiles in `relational.grouped_quantiles`.  Both engines evaluate
    the SAME formula ``x[i] + g*(x[i+1]-x[i])`` with ``i+g = q*(n-1)``
    (numpy's _lerp branches differ in the last bit, so the lerp is done
    explicitly), making results bit-identical before rounding.  Scale
    shape: the bounded (event_type × distinct-value) count grid
    (relational.grouped_quantile_grid) — the two order statistics
    around each target rank come from searchsorted over cumulative
    counts, so no task ever sorts a whole group; the unbounded-domain
    scale path is the t-digest sketch (`sketches.py`)."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    from jesse_ray.pipelines.relational import grouped_quantile_grid

    rows = [
        (et, q, round_half_away(val, 6))
        for et, q, val in grouped_quantile_grid(ds, "event_type", "value", QC_QS)
    ]
    return (pd.DataFrame(rows, columns=["event_type", "q", "val"])
            .sort_values(["event_type", "q"]).reset_index(drop=True))


# ---------------------------------------------------------------------------
# doc_sorted_neighborhood — SNM blocking + windowed exact edit-distance verify

SNM_KEYLEN, SNM_BLKLEN, SNM_WINDOW, SNM_MAXDIST = 24, 6, 2, 2


SQL_DOC_SORTED_NEIGHBORHOOD = f"""
WITH k AS (
  SELECT doc_id,
         substr(regexp_replace(lower(COALESCE(text, '')), '[^a-z0-9]', '', 'g'),
                1, {SNM_KEYLEN}) AS key
  FROM documents
),
b AS (SELECT doc_id, key, substr(key, 1, {SNM_BLKLEN}) AS blk FROM k),
w AS (
  SELECT doc_id, key,
         lead(doc_id, 1) OVER win AS d1, lead(key, 1) OVER win AS k1,
         lead(doc_id, 2) OVER win AS d2, lead(key, 2) OVER win AS k2
  FROM b WINDOW win AS (PARTITION BY blk ORDER BY key, doc_id)
),
p AS (
  SELECT doc_id AS doc_a, d1 AS doc_b, levenshtein(key, k1) AS dist
  FROM w WHERE d1 IS NOT NULL
  UNION ALL
  SELECT doc_id, d2, levenshtein(key, k2) FROM w WHERE d2 IS NOT NULL
)
SELECT doc_a, doc_b, CAST(dist AS BIGINT) AS dist
FROM p WHERE dist <= {SNM_MAXDIST}
ORDER BY doc_a, doc_b
"""


@entry("doc_sorted_neighborhood", sql=SQL_DOC_SORTED_NEIGHBORHOOD)
def q_doc_sorted_neighborhood(sf_dir: str) -> pd.DataFrame:
    """Sorted-neighborhood dedup (Hernández & Stolfo, SIGMOD 1995):
    normalize each document to a sort key (lower-alnum-squeezed 24-char
    prefix), range-block on the key's 6-char prefix, sort within each
    block and compare every row against its next ``SNM_WINDOW``
    neighbors with EXACT Levenshtein (vectorized over the pair axis —
    `functions/editdist.py`, no per-pair Python DP).  Scale shape: the
    block groupby is the only shuffle; window comparisons are linear in
    rows (W·n pairs, never all-pairs), and the edit-distance DP is
    O(L²) numpy passes over the whole pair batch at once."""
    from jesse_ray.functions.editdist import levenshtein_pairs

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def keyed(b: pa.Table) -> pa.Table:
        low = pc.utf8_lower(pc.fill_null(b["text"], ""))
        key = pc.utf8_slice_codeunits(
            pc.replace_substring_regex(low, "[^a-z0-9]", ""), 0, SNM_KEYLEN)
        blk = pc.utf8_slice_codeunits(key, 0, SNM_BLKLEN)
        return pa.table({"doc_id": b["doc_id"], "key": key, "blk": blk})

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)

    def window_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["key", "doc_id"], kind="mergesort").reset_index(drop=True)
        a_id, b_id, a_key, b_key = [], [], [], []
        ids = g["doc_id"].to_numpy()
        keys = g["key"].to_numpy()
        for off in range(1, SNM_WINDOW + 1):
            if len(g) > off:
                a_id.append(ids[:-off]); b_id.append(ids[off:])
                a_key.append(keys[:-off]); b_key.append(keys[off:])
        if not a_id:
            return pd.DataFrame({"doc_a": pd.array([], dtype="int64"),
                                 "doc_b": pd.array([], dtype="int64"),
                                 "dist": pd.array([], dtype="int64")})
        aid = np.concatenate(a_id); bid = np.concatenate(b_id)
        ak = np.concatenate(a_key); bk = np.concatenate(b_key)
        d = levenshtein_pairs(list(ak), list(bk))
        m = d <= SNM_MAXDIST
        return pd.DataFrame({"doc_a": aid[m].astype("int64"),
                             "doc_b": bid[m].astype("int64"),
                             "dist": d[m].astype("int64")})

    out = keyed_ds.groupby("blk").map_groups(window_pairs, batch_format="pandas")
    df = out.to_pandas()
    return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# seq_zonemap_plan — zone-map (min/max) pruning planner for a sorted layout

ZM_ZONE, ZM_LO, ZM_HI = 2048, 100, 140


SQL_SEQ_ZONEMAP_PLAN = f"""
WITH r AS (
  SELECT n_tok,
         CAST(floor((row_number() OVER (ORDER BY n_tok) - 1) / {ZM_ZONE})
              AS BIGINT) AS z
  FROM {SEQ_SQL}
),
zs AS (SELECT z, min(n_tok) AS mn, max(n_tok) AS mx FROM r GROUP BY z),
agg AS (
  SELECT CAST(count(*) AS BIGINT) AS zones_total,
         CAST(sum(CASE WHEN mx < {ZM_LO} OR mn > {ZM_HI} THEN 1 ELSE 0 END)
              AS BIGINT) AS zones_pruned
  FROM zs
),
m AS (
  SELECT CAST(count(*) AS BIGINT) AS rows_matched,
         CAST(COALESCE(sum(n_tok), 0) AS BIGINT) AS sum_ntok_matched
  FROM {SEQ_SQL} WHERE n_tok BETWEEN {ZM_LO} AND {ZM_HI}
)
SELECT * FROM agg, m
"""


@entry("seq_zonemap_plan", sql=SQL_SEQ_ZONEMAP_PLAN)
def q_seq_zonemap_plan(sf_dir: str) -> pd.DataFrame:
    """Zone-map pruning planner: if the corpus were laid out sorted by
    ``n_tok`` in fixed {ZM_ZONE}-row zones (parquet row groups), how
    many zones does the predicate ``n_tok BETWEEN {ZM_LO} AND {ZM_HI}``
    prune?  Zone min/max are order statistics of the sorted layout, so
    they are derived WITHOUT sorting: one streaming pass builds a
    per-value count histogram (n_tok domain is bounded), partials sum
    on the driver, and every zone boundary is a cumsum lookup — the
    same zone stats an actual rewrite+scan would produce, at histogram
    cost.  rows_matched / sum come from the same histogram."""
    ds = read_sequences(_seq_path(sf_dir), columns=["n_tok"])
    dom = 4096  # > max n_tok (2500); corruption keeps n_tok within int16-ish

    def partial(b: pa.Table) -> pa.Table:
        v = b["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.bincount(np.clip(v, 0, dom - 1), minlength=dom)
        return pa.table({"v": pa.array(np.arange(dom, dtype=np.int64)),
                         "c": pa.array(cnt.astype(np.int64))})

    parts = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)).to_pandas()
    hist = parts.groupby("v", sort=True)["c"].sum().to_numpy()
    n = int(hist.sum())
    cum = np.cumsum(hist)  # cum[v] = #rows with n_tok <= v
    zones = int(np.ceil(n / ZM_ZONE))
    starts = np.arange(zones, dtype=np.int64) * ZM_ZONE        # first rank in zone
    ends = np.minimum(starts + ZM_ZONE, n) - 1                 # last rank
    # value at sorted rank r = smallest v with cum[v] > r
    zmin = np.searchsorted(cum, starts, side="right")
    zmax = np.searchsorted(cum, ends, side="right")
    pruned = int(((zmax < ZM_LO) | (zmin > ZM_HI)).sum())
    vals = np.arange(dom)
    sel = (vals >= ZM_LO) & (vals <= ZM_HI)
    rows_matched = int(hist[sel].sum())
    sum_matched = int((hist[sel] * vals[sel]).sum())
    return pd.DataFrame({
        "zones_total": pd.array([zones], dtype="int64"),
        "zones_pruned": pd.array([pruned], dtype="int64"),
        "rows_matched": pd.array([rows_matched], dtype="int64"),
        "sum_ntok_matched": pd.array([sum_matched], dtype="int64"),
    })


# ---------------------------------------------------------------------------
# events_theta_intersect — theta-sketch set intersection across event types

THETA_K = 64


def _theta_sql() -> str:
    return f"""
WITH du AS (SELECT DISTINCT event_type, user_id FROM events),
h0 AS (
  SELECT event_type,
         CAST(((CAST(user_id AS HUGEINT) % {_M64}) + {_M64}) % {_M64}
              AS UBIGINT) AS h
  FROM du
),
h1 AS (SELECT event_type, {_sql_mul(_sql_xsh('h'), _C1)} AS h FROM h0),
h2 AS (SELECT event_type, {_sql_mul(_sql_xsh('h'), _C2)} AS h FROM h1),
h3 AS (SELECT event_type, {_sql_xsh('h')} AS h FROM h2),
rk AS (
  SELECT event_type, h,
         row_number() OVER (PARTITION BY event_type ORDER BY h) AS rn
  FROM h3
),
sk AS (SELECT event_type, h FROM rk WHERE rn <= {THETA_K}),
th AS (SELECT event_type, max(h) AS theta FROM sk GROUP BY event_type),
pr AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b,
         least(a.theta, b.theta) AS theta
  FROM th a JOIN th b ON a.event_type < b.event_type
),
cm AS (
  SELECT pr.type_a, pr.type_b, pr.theta,
         CAST(count(*) AS BIGINT) AS common
  FROM pr
  LEFT JOIN sk sa ON sa.event_type = pr.type_a
  JOIN sk sb ON sb.event_type = pr.type_b AND sb.h = sa.h
  WHERE CAST(sa.h AS DOUBLE) <= CAST(pr.theta AS DOUBLE)
  GROUP BY 1, 2, 3
)
SELECT pr.type_a, pr.type_b,
       COALESCE(cm.common, 0) AS common,
       round(COALESCE(cm.common, 0) * 18446744073709551616.0
             / CAST(pr.theta AS DOUBLE), 2) AS est_inter
FROM pr LEFT JOIN cm ON cm.type_a = pr.type_a AND cm.type_b = pr.type_b
ORDER BY pr.type_a, pr.type_b
"""


@entry("events_theta_intersect", sql=_theta_sql())
def q_events_theta_intersect(sf_dir: str) -> pd.DataFrame:
    """Theta-sketch set intersection (Dasgupta et al., KMV/theta
    framework): per event type keep the bottom-{THETA_K} fmix64 hashes
    of its distinct user set; for every type pair the intersection
    estimate is ``|A_k ∩ B_k ∩ [0, θ)| · 2^64 / θ`` with
    ``θ = min(max A_k, max B_k)``.  Scale shape: partials are per-batch
    per-type bottom-K (constant size), merged once on the driver;
    distinct users never shuffle.  The SQL twin replays the identical
    fmix64 chain so common counts and estimates match bit-for-bit."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["event_type", "user_id"]).aggregate([])
        types, hashes = [], []
        et = g["event_type"].to_numpy(zero_copy_only=False)
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = fmix64(uid.astype(np.uint64))
        for t in np.unique(et):
            ht = np.sort(h[et == t])[:THETA_K]
            types.extend([t] * len(ht))
            hashes.append(ht)
        return pa.table({"event_type": pa.array(types, type=pa.string()),
                         "h": pa.array(np.concatenate(hashes) if hashes
                                       else np.zeros(0, np.uint64), type=pa.uint64())})

    parts = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)).to_pandas()
    sketches: dict[str, np.ndarray] = {}
    for t, grp in parts.groupby("event_type"):
        sketches[t] = np.unique(grp["h"].to_numpy())[:THETA_K]
    ts = sorted(sketches)
    rows = []
    for i, ta in enumerate(ts):
        for tb in ts[i + 1:]:
            a, b = sketches[ta], sketches[tb]
            theta = min(float(a[-1]), float(b[-1]))
            common = np.intersect1d(a, b)
            common = common[common.astype(np.float64) <= theta]
            est = len(common) * float(_M64) / theta
            rows.append((ta, tb, len(common), round_half_away(est, 2)))
    return pd.DataFrame(rows, columns=["type_a", "type_b", "common", "est_inter"]) \
        .astype({"common": "int64"}) \
        .sort_values(["type_a", "type_b"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# seq_dup_gram_coverage — duplicated-n-gram token coverage (Lee et al. 2022)

DGC_K = 8


SQL_SEQ_DUP_GRAM_COVERAGE = f"""
WITH d AS (
  SELECT row_number() OVER () AS rid, tokens, len(tokens) AS L
  FROM {SEQ_SQL}
),
g AS (
  SELECT rid, CAST(t.p AS BIGINT) AS p,
         list_slice(tokens, CAST(t.p AS BIGINT),
                    CAST(t.p AS BIGINT) + {DGC_K - 1}) AS gram
  FROM d, unnest(range(1, L - {DGC_K} + 2)) AS t(p)
  WHERE L >= {DGC_K}
),
dup AS (SELECT gram FROM g GROUP BY gram HAVING count(*) >= 2),
dstart AS (SELECT g.rid, g.p FROM g JOIN dup USING (gram)),
pos AS (
  SELECT rid, CAST(t.j AS BIGINT) AS j
  FROM d, unnest(range(1, L + 1)) AS t(j)
  WHERE L >= {DGC_K}
),
cov AS (
  SELECT DISTINCT pos.rid, pos.j
  FROM pos JOIN dstart
    ON dstart.rid = pos.rid
   AND pos.j BETWEEN dstart.p AND dstart.p + {DGC_K - 1}
),
tot AS (SELECT CAST(COALESCE(sum(L), 0) AS BIGINT) AS total_tokens FROM d),
cv AS (SELECT CAST(count(*) AS BIGINT) AS covered_tokens FROM cov)
SELECT tot.total_tokens, cv.covered_tokens,
       round(CAST(cv.covered_tokens AS DOUBLE) / tot.total_tokens, 6) AS frac
FROM tot, cv
"""


@entry("seq_dup_gram_coverage", sql=SQL_SEQ_DUP_GRAM_COVERAGE)
def q_seq_dup_gram_coverage(sf_dir: str) -> pd.DataFrame:
    """What fraction of corpus tokens sit inside a duplicated
    {DGC_K}-token gram (>= 2 occurrences corpus-wide)?  The headline
    diagnostic from Lee et al. (ACL 2022) that motivates ExactSubstr
    dedup.  Distributed shape in
    `functions/dedup.py token_dup_gram_coverage`: rows collapse to
    distinct-content rowkeys with multiplicities, windows shuffle once
    by gram hash, dup starts shuffle once by rowkey, interval unions
    are computed per part — integer partials only, nothing corpus-sized
    on the driver."""
    from jesse_ray.functions.dedup import token_dup_gram_coverage

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])
    total, covered = token_dup_gram_coverage(ds, k=DGC_K)
    return pd.DataFrame({
        "total_tokens": pd.array([total], dtype="int64"),
        "covered_tokens": pd.array([covered], dtype="int64"),
        "frac": [round_half_away(covered / total, 6) if total else 0.0],
    })


# ---------------------------------------------------------------------------
# seq_cross_source_dup_matrix — which sources duplicate into which


SQL_SEQ_CROSS_SOURCE_DUP_MATRIX = f"""
WITH c AS (
  SELECT tokens, source, CAST(count(*) AS BIGINT) AS cnt
  FROM {SEQ_SQL} WHERE tokens IS NOT NULL GROUP BY 1, 2
),
x AS (
  SELECT a.source AS source_a, b.source AS source_b,
         CAST(sum(a.cnt * b.cnt) AS BIGINT) AS n_pairs
  FROM c a JOIN c b ON a.tokens = b.tokens AND a.source < b.source
  GROUP BY 1, 2
  UNION ALL
  SELECT source, source, CAST(sum(cnt * (cnt - 1) // 2) AS BIGINT)
  FROM c GROUP BY source
  HAVING sum(cnt * (cnt - 1) // 2) > 0
)
SELECT source_a, source_b, n_pairs FROM x ORDER BY source_a, source_b
"""


@entry("seq_cross_source_dup_matrix", sql=SQL_SEQ_CROSS_SOURCE_DUP_MATRIX)
def q_seq_cross_source_dup_matrix(sf_dir: str) -> pd.DataFrame:
    """Curation diagnostic: the (source x source) matrix of exact
    duplicate PAIRS over token content — how much of each source is a
    copy of another (mirrors the per-source contamination tables in
    dedup papers).  Pair counts are derived per content-hash group from
    per-source counts (``c_a*c_b`` cross, ``c*(c-1)/2`` within), so no
    pair set is ever materialized; rows pre-aggregate per batch to
    (content-hash, source, count) partials, ship once to a coarse
    hash part, and only the tiny (source_a, source_b, n) partials
    leave the parts."""
    from jesse_ray.functions.dedup import add_token_hash

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens", "source"])
    ds = ds.map_batches(
        lambda b: b.filter(pc.is_valid(b["tokens"])),
        batch_format="pyarrow", zero_copy_batch=True)
    hashed = add_token_hash(ds, out_col="__rk")

    def keyed(b: pa.Table) -> pa.Table:
        g = b.select(["__rk", "source"]).group_by(["__rk", "source"]) \
            .aggregate([([], "count_all")])
        return pa.table({
            "rk": g["__rk"],
            "source": g["source"],
            "cnt": g["count_all"].cast(pa.int64()),
        })

    def pair_counts(grp: pd.DataFrame) -> pd.DataFrame:
        c = grp.groupby(["rk", "source"], sort=False)["cnt"].sum().reset_index()
        out: dict[tuple[str, str], int] = {}
        for _, sub in c.groupby("rk", sort=False):
            if sub["cnt"].sum() < 2:
                continue
            srcs = sub["source"].to_numpy()
            cnts = sub["cnt"].to_numpy(dtype=np.int64)
            order = np.argsort(srcs, kind="stable")
            srcs, cnts = srcs[order], cnts[order]
            for i in range(len(srcs)):
                same = int(cnts[i] * (cnts[i] - 1) // 2)
                if same:
                    key = (srcs[i], srcs[i])
                    out[key] = out.get(key, 0) + same
                for j in range(i + 1, len(srcs)):
                    key = (srcs[i], srcs[j])
                    out[key] = out.get(key, 0) + int(cnts[i] * cnts[j])
        if not out:
            return pd.DataFrame({"source_a": pd.Series([], dtype="object"),
                                 "source_b": pd.Series([], dtype="object"),
                                 "n_pairs": pd.Series([], dtype="int64")})
        ks = sorted(out)
        return pd.DataFrame({"source_a": [k[0] for k in ks],
                             "source_b": [k[1] for k in ks],
                             "n_pairs": pd.array([out[k] for k in ks], dtype="int64")})

    parts = map_key_buckets(hashed.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True),
                            ["rk"], pair_counts).to_pandas()
    if parts.empty or "source_a" not in parts.columns:
        return pd.DataFrame({"source_a": pd.Series([], dtype="object"),
                             "source_b": pd.Series([], dtype="object"),
                             "n_pairs": pd.Series([], dtype="int64")})
    out = parts.groupby(["source_a", "source_b"], sort=True)["n_pairs"] \
        .sum().reset_index()
    out["n_pairs"] = out["n_pairs"].astype("int64")
    return out


# ---------------------------------------------------------------------------
# doc_dict_encoding_plan — storage-layout planner for string columns

DICT_COLS = ("lang", "source")


def _dict_plan_sql() -> str:
    selects = []
    for c in DICT_COLS:
        selects.append(f"""
SELECT '{c}' AS col,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(DISTINCT {c}) AS BIGINT) AS n_distinct,
       CAST(sum(strlen({c})) AS BIGINT) AS plain_bytes,
       CAST((SELECT sum(strlen(v)) FROM
               (SELECT DISTINCT {c} AS v FROM documents WHERE {c} IS NOT NULL))
            + count(*) * (CASE WHEN count(DISTINCT {c}) <= 256 THEN 1
                               WHEN count(DISTINCT {c}) <= 65536 THEN 2
                               ELSE 4 END) AS BIGINT) AS dict_bytes,
       (SELECT sum(strlen(v)) FROM
          (SELECT DISTINCT {c} AS v FROM documents WHERE {c} IS NOT NULL))
         + count(*) * (CASE WHEN count(DISTINCT {c}) <= 256 THEN 1
                            WHEN count(DISTINCT {c}) <= 65536 THEN 2
                            ELSE 4 END)
         < sum(strlen({c})) AS use_dict
FROM documents WHERE {c} IS NOT NULL""")
    return " UNION ALL ".join(selects) + " ORDER BY col"


@entry("doc_dict_encoding_plan", sql=_dict_plan_sql())
def q_doc_dict_encoding_plan(sf_dir: str) -> pd.DataFrame:
    """Storage-optimizer planner: per string column, would dictionary
    encoding shrink it?  Exact byte accounting — plain = Σ octet
    lengths, dict = Σ distinct-value octet lengths + rows x index width
    (1/2/4 bytes by cardinality) — from ONE streaming pass per column
    (per-batch Arrow value counts partials, merged on the driver;
    distinct sets here are column vocabularies, bounded like the BPE
    vocab stages)."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=list(DICT_COLS))

    def partial(b: pa.Table) -> pa.Table:
        cols, vals, cnts, blens = [], [], [], []
        for c in DICT_COLS:
            g = b.select([c]).group_by(c).aggregate([([], "count_all")])
            v = g[c]
            if isinstance(v, pa.ChunkedArray):
                v = v.combine_chunks()
            keep = pc.is_valid(v)
            v2 = v.filter(keep)
            n = g["count_all"].filter(keep).cast(pa.int64())
            cols.extend([c] * len(v2))
            vals.extend(v2.to_pylist())
            cnts.extend(n.to_pylist())
            blens.extend(pc.binary_length(v2).to_pylist())
        return pa.table({"col": pa.array(cols, type=pa.string()),
                         "val": pa.array(vals, type=pa.string()),
                         "cnt": pa.array(cnts, type=pa.int64()),
                         "blen": pa.array(blens, type=pa.int64())})

    t = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    rows = []
    for c in DICT_COLS:
        sub = t[t["col"] == c].groupby(["val", "blen"], sort=False)["cnt"] \
            .sum().reset_index()
        n_rows = int(sub["cnt"].sum())
        n_distinct = len(sub)
        plain = int((sub["cnt"] * sub["blen"]).sum())
        width = 1 if n_distinct <= 256 else 2 if n_distinct <= 65536 else 4
        dictb = int(sub["blen"].sum()) + n_rows * width
        rows.append((c, n_rows, n_distinct, plain, dictb, dictb < plain))
    out = pd.DataFrame(rows, columns=["col", "n_rows", "n_distinct",
                                      "plain_bytes", "dict_bytes", "use_dict"])
    for c in ("n_rows", "n_distinct", "plain_bytes", "dict_bytes"):
        out[c] = out[c].astype("int64")
    return out.sort_values("col").reset_index(drop=True)


# ---------------------------------------------------------------------------
# doc_overlap_dups — overlap-coefficient (containment) all-pairs dedup


SQL_DOC_OVERLAP_DUPS = """
WITH s AS (
  SELECT doc_id, shingles
  FROM read_parquet('/tmp/jesse_ray_data/shinglesov_sigs_sf0.01.parquet')
), sz AS (
  SELECT doc_id, len(shingles) AS n FROM s
), e AS (
  SELECT doc_id, unnest(shingles) AS sh FROM s
), p AS (
  SELECT a.doc_id AS l, b.doc_id AS r, count(*) AS inter
  FROM e a JOIN e b ON a.sh = b.sh AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT l AS "left", r AS "right",
       round(inter * 1.0 / least(sa.n, sb.n), 4) AS overlap
FROM p JOIN sz sa ON sa.doc_id = p.l JOIN sz sb ON sb.doc_id = p.r
WHERE inter * 1.0 / least(sa.n, sb.n) >= 0.8
ORDER BY 1, 2
"""


@entry("doc_overlap_dups", sql=SQL_DOC_OVERLAP_DUPS)
def q_doc_overlap_dups(sf_dir: str) -> pd.DataFrame:
    """Asymmetric-containment near-dup pairs: overlap coefficient
    ``|A∩B|/min(|A|,|B|) >= 0.8`` over 5-byte shingles — the
    quote/subset detector Jaccard-LSH structurally misses.  Candidate
    generation is exact Bayardo prefix filtering (recall 1.0 by
    construction, integer prefix arithmetic), so the engine must
    reproduce the oracle's brute-force all-pairs enumeration exactly
    (`functions/dedup.py overlap_coeff_dups`)."""
    from jesse_ray.functions.dedup import _shingle_hashes, overlap_coeff_dups
    from jesse_ray.pipelines.queries import _sig_parquet_path

    import pyarrow.parquet as _pq

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def shingle_sets(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        sets = [np.unique(_shingle_hashes(t or "", 5)) for t in texts]
        offs = np.concatenate([[0], np.cumsum([len(s) for s in sets])]).astype(np.int64)
        flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.uint64)
        lists = pa.ListArray.from_arrays(pa.array(offs), pa.array(flat, type=pa.uint64()))
        return pa.table({"doc_id": batch["doc_id"], "shingles": lists})

    _pq.write_table(
        _collect(ds.map_batches(shingle_sets, batch_format="pyarrow")).sort_by("doc_id"),
        _sig_parquet_path(sf_dir, "shinglesov"),
    )
    pdf = overlap_coeff_dups(ds, threshold_num=4, threshold_den=5).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"left": pd.Series([], dtype="int64"),
                             "right": pd.Series([], dtype="int64"),
                             "overlap": pd.Series([], dtype="float64")})
    pdf["overlap"] = round_half_away(pdf["overlap"], 4)
    return pdf.sort_values(["left", "right"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# seq_boilerplate_prefixes — templated-prefix (boilerplate header) report

BP_K, BP_TOP = 8, 10


SQL_SEQ_BOILERPLATE_PREFIXES = f"""
WITH d AS (
  SELECT array_to_string(
           list_transform(list_slice(tokens, 1, {BP_K}),
                          x -> CAST(x AS VARCHAR)), '-') AS prefix,
         source
  FROM {SEQ_SQL} WHERE len(tokens) >= {BP_K}
),
g AS (
  SELECT prefix, CAST(count(*) AS BIGINT) AS n_docs,
         CAST(count(DISTINCT source) AS BIGINT) AS n_sources
  FROM d GROUP BY prefix
)
SELECT prefix, n_docs, n_sources FROM g
ORDER BY n_docs DESC, prefix LIMIT {BP_TOP}
"""


@entry("seq_boilerplate_prefixes", sql=SQL_SEQ_BOILERPLATE_PREFIXES)
def q_seq_boilerplate_prefixes(sf_dir: str) -> pd.DataFrame:
    """Boilerplate detector: the top-{BP_TOP} most repeated first-
    {BP_K}-token prefixes (templated headers a cleaning pass should
    strip), with how many sources each spans.  Scale shape: the prefix
    string is built fully vectorized in Arrow (list_slice → cast →
    binary_join), per-batch (prefix, source) count partials shuffle on
    a coarse prefix-hash part, each part resolves its own exact counts
    and local top-{BP_TOP}, and the driver merges ≤ 64x{BP_TOP} rows —
    exact because a prefix's whole count lives in one part."""
    ds = read_sequences(_seq_path(sf_dir), columns=["tokens", "source"])

    def partial(b: pa.Table) -> pa.Table:
        toks = b["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        ln = pc.fill_null(pc.list_value_length(toks), 0)
        t = b.filter(pc.greater_equal(ln, BP_K))
        if t.num_rows == 0:
            return pa.table({"prefix": pa.array([], type=pa.string()),
                             "source": pa.array([], type=pa.string()),
                             "cnt": pa.array([], type=pa.int64())})
        col = t["tokens"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        sl = pc.list_slice(col, 0, BP_K)
        strs = sl.cast(pa.list_(pa.string()))
        prefix = pc.binary_join(strs, "-")
        g = pa.table({"prefix": prefix, "source": t["source"]}) \
            .group_by(["prefix", "source"]).aggregate([([], "count_all")])
        return pa.table({"prefix": g["prefix"], "source": g["source"],
                         "cnt": g["count_all"].cast(pa.int64())})

    def local_top(grp: pd.DataFrame) -> pd.DataFrame:
        agg = grp.groupby("prefix", sort=False)["cnt"].sum() \
            .rename("n_docs").reset_index()
        d = grp.dropna(subset=["source"]).drop_duplicates(subset=["prefix", "source"])
        ns = d.groupby("prefix", sort=False).size().rename("n_sources")
        agg = agg.merge(ns, left_on="prefix", right_index=True, how="left")
        agg["n_sources"] = agg["n_sources"].fillna(0).astype("int64")
        return agg.sort_values(["n_docs", "prefix"], ascending=[False, True],
                               kind="mergesort").head(BP_TOP)

    parts = map_key_buckets(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
                            ["prefix"], local_top).to_pandas()
    out = parts.sort_values(["n_docs", "prefix"], ascending=[False, True],
                            kind="mergesort").head(BP_TOP).reset_index(drop=True)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_sources"] = out["n_sources"].astype("int64")
    return out[["prefix", "n_docs", "n_sources"]]


# ---------------------------------------------------------------------------
# media_bmp_real — REAL BMP container decode (bottom-up, BGR, stride pad)

N_BMP = 36


SQL_MEDIA_BMP_REAL = f"""
WITH img AS (
  SELECT i,
         10 + (i % 15)       AS w,
         8 + ((i * 3) % 9)   AS h,
         1 + (i % 6)         AS a,
         2 + (i % 5)         AS b
  FROM (SELECT unnest(range(0, {N_BMP})) AS i)
),
xs AS (SELECT i, unnest(range(0, w)) AS x FROM img),
ys AS (SELECT i, unnest(range(0, h)) AS y FROM img),
cs AS (SELECT i, unnest(range(0, 3)) AS c FROM img),
px AS (
  SELECT img.i, img.w, img.h, cs.c,
         (img.a * xs.x + img.b * ys.y + 3 * img.i + 17 * cs.c) % 256 AS v
  FROM img
  JOIN xs ON xs.i = img.i
  JOIN ys ON ys.i = img.i
  JOIN cs ON cs.i = img.i
)
SELECT printf('bmp-%06d', i) AS media_id,
       CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
       CAST(sum(CASE WHEN c = 0 THEN v END) AS BIGINT) AS sum_r,
       CAST(sum(CASE WHEN c = 1 THEN v END) AS BIGINT) AS sum_g,
       CAST(sum(CASE WHEN c = 2 THEN v END) AS BIGINT) AS sum_b
FROM px GROUP BY i, w, h ORDER BY media_id
"""


@entry("media_bmp_real", sql=SQL_MEDIA_BMP_REAL)
def q_media_bmp_real(sf_dir: str) -> pd.DataFrame:
    """REAL BMP decode with no codec library: formula pixels → real
    24-bit BI_RGB container bytes (little-endian headers, BOTTOM-UP
    rows, BGR order, 4-byte stride padding — every classic BMP decode
    trap) → header-walk + numpy gather in an actor pool → exact int64
    channel sums.  The twin regenerates each pixel from the closed
    form, so a wrong flip/swap/stride shows up as a value mismatch."""
    import ray.data

    from jesse_ray.functions.multimodal import (
        bmp_channel_sums,
        make_synthetic_bmp_table,
    )

    ds = ray.data.from_arrow(make_synthetic_bmp_table(N_BMP))
    out = _collect(bmp_channel_sums(ds)).to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    return out.astype({"width": "int64", "height": "int64"})


# ---------------------------------------------------------------------------
# tpch_q22ish — global-anti-join customer prospecting (TPC-H Q22 shape)


SQL_TPCH_Q22ISH = """
WITH avg_bal AS (
  SELECT avg(c_acctbal) AS a FROM customer WHERE c_acctbal > 0
)
SELECT CAST(c.c_nationkey AS BIGINT) AS c_nationkey,
       CAST(count(*) AS BIGINT) AS n_cust,
       round(sum(c.c_acctbal), 2) AS total_bal
FROM customer c, avg_bal
WHERE c.c_acctbal > avg_bal.a
  AND NOT EXISTS (
    SELECT 1 FROM orders o
    WHERE o.o_custkey = c.c_custkey
      AND o.o_orderpriority = '1-URGENT'
      AND o.o_orderdate >= TIMESTAMP '1997-06-01')
GROUP BY c.c_nationkey
ORDER BY c_nationkey
"""


@entry("tpch_q22ish", sql=SQL_TPCH_Q22ISH)
def q_tpch_q22ish(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q22-shaped composite: per nation, count + balance sum of
    customers whose account balance exceeds the GLOBAL average positive
    balance and who placed NO urgent order since 1997-06 (this corpus
    gives every customer SOME order, so the anti-join side is the
    filtered fact — same plan shape, non-degenerate result).  Scale
    shape: the scalar
    average is one combiner pass (sum/count partials); the no-orders
    predicate is a distributed ANTI hash-join of customers against the
    distinct order custkeys (the r2-verdict-mandated replacement for
    driver-collected id sets); the final per-nation aggregate is a tiny
    combiner groupby.  The avg is carried as exact integer partials
    (sum as float, count int) so both engines divide once."""
    from jesse_ray.pipelines.relational import grouped_agg, hash_join

    cust = read_table(f"{sf_dir}/customer.parquet",
                      columns=["c_custkey", "c_nationkey", "c_acctbal"])
    # scalar subquery: avg positive balance (one combiner pass)
    def bal_partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater(b["c_acctbal"], pa.scalar(0.0)))
        s = pc.sum(t["c_acctbal"]).as_py() or 0.0
        return pa.table({"s": pa.array([s], type=pa.float64()),
                         "n": pa.array([t.num_rows], type=pa.int64())})

    parts = _collect(cust.map_batches(bal_partial, batch_format="pyarrow",
                                      zero_copy_batch=True)).to_pandas()
    avg_bal = float(parts["s"].sum()) / int(parts["n"].sum())

    rich = cust.map_batches(
        lambda b, t=avg_bal: b.filter(pc.greater(b["c_acctbal"], pa.scalar(t))),
        batch_format="pyarrow", zero_copy_batch=True)

    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_custkey", "o_orderpriority", "o_orderdate"])

    def okeys(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(b["o_orderpriority"], pa.scalar("1-URGENT")),
                    pc.greater_equal(b["o_orderdate"],
                                     pa.scalar(pd.Timestamp("1997-06-01"))))
        g = b.filter(m).select(["o_custkey"]).group_by("o_custkey").aggregate([])
        return g.rename_columns(["c_custkey"])

    okey_ds = orders.map_batches(okeys, batch_format="pyarrow", zero_copy_batch=True)
    no_orders = hash_join(rich, okey_ds, on="c_custkey", how="anti")
    agg = grouped_agg(no_orders, ["c_nationkey"], sums=["c_acctbal"]).to_pandas()
    if agg.empty:
        return pd.DataFrame({"c_nationkey": pd.Series([], dtype="int64"),
                             "n_cust": pd.Series([], dtype="int64"),
                             "total_bal": pd.Series([], dtype="float64")})
    out = pd.DataFrame({
        "c_nationkey": agg["c_nationkey"].astype("int64"),
        "n_cust": agg["cnt"].astype("int64"),
        "total_bal": round_half_away(agg["sum_c_acctbal"], 2),
    })
    return out.sort_values("c_nationkey").reset_index(drop=True)


# ---------------------------------------------------------------------------
# emb_truncation_audit — Matryoshka-style dimension-truncation quality


SQL_EMB_TRUNCATION_AUDIT = """
WITH v AS (
  SELECT label,
         CAST(list_sum(list_transform(embedding[1:16],
              x -> CAST(x AS DOUBLE) * x)) AS DOUBLE) AS p16,
         CAST(list_sum(list_transform(embedding[1:32],
              x -> CAST(x AS DOUBLE) * x)) AS DOUBLE) AS p32,
         CAST(list_sum(list_transform(embedding,
              x -> CAST(x AS DOUBLE) * x)) AS DOUBLE) AS tot
  FROM embeddings
)
SELECT CAST(label AS BIGINT) AS label,
       CAST(count(*) AS BIGINT) AS n,
       round(avg(sqrt(p16 / tot)), 6) AS mean_cos16,
       round(avg(sqrt(p32 / tot)), 6) AS mean_cos32
FROM v GROUP BY label ORDER BY label
"""


@entry("emb_truncation_audit", sql=SQL_EMB_TRUNCATION_AUDIT)
def q_emb_truncation_audit(sf_dir: str) -> pd.DataFrame:
    """Embedding-compression audit: if vectors were truncated to their
    first 16 / 32 of 64 dims (the Matryoshka-representation deployment
    trick), how much cosine similarity to the full vector survives,
    per label?  cos(full, zero-padded truncation) reduces to
    ``sqrt(partial_energy / total_energy)`` — one vectorized numpy
    pass per batch, (sum, count) partials per label, driver divides
    once.  Scale: no shuffle at all (label cardinality is tiny)."""
    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["embedding", "label"])

    def partial(b: pa.Table) -> pa.Table:
        col = b["embedding"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        n = len(col)
        mat = flat.astype(np.float64).reshape(n, -1)
        sq = mat * mat
        tot = sq.sum(axis=1)
        p16 = sq[:, :16].sum(axis=1)
        p32 = sq[:, :32].sum(axis=1)
        c16 = np.sqrt(p16 / tot)
        c32 = np.sqrt(p32 / tot)
        lab = b["label"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        out = pd.DataFrame({"label": lab, "c16": c16, "c32": c32})
        g = out.groupby("label", sort=False).agg(
            s16=("c16", "sum"), s32=("c32", "sum"), n=("c16", "size")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    t = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    g = t.groupby("label", sort=True).sum().reset_index()
    return pd.DataFrame({
        "label": g["label"].astype("int64"),
        "n": g["n"].astype("int64"),
        "mean_cos16": round_half_away((g["s16"] / g["n"]), 6),
        "mean_cos32": round_half_away((g["s32"] / g["n"]), 6),
    })


# ---------------------------------------------------------------------------
# orders_monthly_growth — month-over-month revenue growth report


SQL_ORDERS_MONTHLY_GROWTH = """
WITH m AS (
  SELECT date_trunc('month', o_orderdate) AS month,
         CAST(count(*) AS BIGINT) AS n_orders,
         sum(o_totalprice) AS rev
  FROM orders GROUP BY 1
)
SELECT month, n_orders, round(rev, 2) AS revenue,
       round(rev / lag(rev) OVER (ORDER BY month) - 1.0, 6) AS growth
FROM m ORDER BY month
"""


@entry("orders_monthly_growth", sql=SQL_ORDERS_MONTHLY_GROWTH)
def q_orders_monthly_growth(sf_dir: str) -> pd.DataFrame:
    """Monthly revenue series with month-over-month growth: map-side
    Arrow month-sums (one combiner pass over the fact table), the tiny
    month series finishes on the driver with one LAG division — the
    standard reporting shape where ALL heavy work is the partial
    aggregation."""
    ds = read_table(f"{sf_dir}/orders.parquet",
                    columns=["o_orderdate", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        ts = b["o_orderdate"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        month = pc.floor_temporal(ts, unit="month")
        g = pa.table({"month": month, "rev": b["o_totalprice"]}) \
            .group_by("month").aggregate([("rev", "sum"), ([], "count_all")])
        return g.rename_columns(["month", "rev", "n"])

    t = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    g = t.groupby("month", sort=True).agg(rev=("rev", "sum"),
                                          n=("n", "sum")).reset_index()
    prev = g["rev"].shift(1)
    growth = round_half_away((g["rev"] / prev - 1.0), 6)
    return pd.DataFrame({
        "month": g["month"],
        "n_orders": g["n"].astype("int64"),
        "revenue": round_half_away(g["rev"], 2),
        "growth": growth,
    })


# ---------------------------------------------------------------------------
# events_transition_conformance — protocol / state-machine validation

# the allowed user-journey protocol; anything else is a conformance
# violation (the streaming analogue of the engine's enum checks)
ALLOWED_TRANSITIONS = (
    ("signup", "view"), ("view", "view"), ("view", "click"),
    ("click", "view"), ("click", "cart_unused"), ("click", "purchase"),
    ("purchase", "view"), ("error", "view"), ("view", "error"),
)


def _transition_conformance_sql() -> str:
    allowed = ", ".join(f"('{a}', '{b}')" for a, b in ALLOWED_TRANSITIONS)
    return f"""
WITH o AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev_type
  FROM events
)
SELECT prev_type AS from_type, event_type AS to_type,
       CAST(count(*) AS BIGINT) AS n
FROM o
WHERE prev_type IS NOT NULL
  AND (prev_type, event_type) NOT IN ({allowed})
GROUP BY 1, 2
ORDER BY 1, 2
"""


@entry("events_transition_conformance", sql=_transition_conformance_sql())
def q_events_transition_conformance(sf_dir: str) -> pd.DataFrame:
    """State-machine conformance validation over per-user event
    streams: every adjacent (prev_type, event_type) transition outside
    the ALLOWED_TRANSITIONS protocol is a violation, reported as the
    (from, to, n) violation matrix.  Rides the deterministic
    `relational.transition_counts` pass (one coarse entity-hash
    shuffle, per-part lexsort, (ts, event_id) tiebreak so equal
    timestamps order identically in both engines); the conformance
    filter touches only the tiny type x type matrix."""
    from jesse_ray.pipelines.relational import transition_counts

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["user_id", "event_type", "ts", "event_id"])
    t = transition_counts(ds, entity_col="user_id", type_col="event_type",
                          ts_col="ts", order_col="event_id").to_pandas()
    # vectorized membership test over the tiny transition matrix
    key = t["from_type"].astype(str) + "\x1f" + t["to_type"].astype(str)
    allowed_keys = {a + "\x1f" + b for a, b in ALLOWED_TRANSITIONS}
    bad = t[~key.isin(allowed_keys)].copy()
    out = pd.DataFrame({
        "from_type": bad["from_type"],
        "to_type": bad["to_type"],
        "n": bad["cnt"].astype("int64"),
    })
    return out.sort_values(["from_type", "to_type"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# doc_lr_calibration — reliability report for the distributed classifier


SQL_DOC_LR_CALIBRATION = """
WITH w AS (
  SELECT max(CASE WHEN k = 0 THEN w END) AS w0,
         max(CASE WHEN k = 1 THEN w END) AS w1,
         max(CASE WHEN k = 2 THEN w END) AS w2,
         max(CASE WHEN k = 3 THEN w END) AS w3
  FROM read_parquet('/tmp/jesse_ray_data/lr_weights_cal_sigs_sf0.01.parquet')
),
f AS (
  SELECT doc_id, lang,
         CAST(length(text) AS BIGINT) AS q_len,
         CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS BIGINT) AS n_alpha,
         CAST(length(text) - length(replace(text, ' ', '')) AS BIGINT) AS n_space
  FROM documents
),
s AS (
  SELECT doc_id, CASE WHEN lang = 'en' THEN 1 ELSE 0 END AS y,
         round(((w.w0 + w.w1 * (CAST(q_len AS DOUBLE) / 1000.0))
                + w.w2 * (CAST(n_alpha AS DOUBLE) / CAST(greatest(q_len, 1) AS DOUBLE)))
                + w.w3 * (CAST(n_space AS DOUBLE) / CAST(greatest(q_len, 1) AS DOUBLE)), 6) AS z
  FROM f, w
)
SELECT CAST(floor(z * 200.0) AS BIGINT) AS bin,
       CAST(count(*) AS BIGINT) AS n,
       round(sum(z) / count(*), 6) AS mean_logit,
       round(CAST(sum(y) AS DOUBLE) / count(*), 6) AS pos_rate
FROM s GROUP BY 1 ORDER BY 1
"""


@entry("doc_lr_calibration", sql=SQL_DOC_LR_CALIBRATION)
def q_doc_lr_calibration(sf_dir: str) -> pd.DataFrame:
    """Calibration / reliability report for the distributed linear
    quality classifier (`functions/linear.logreg_fit`): docs bucketed
    by 0.005-wide logit bin, each bin reporting volume, mean logit and the
    empirical positive rate — the ML-ops diagnostic that decides
    whether classifier scores can gate a curation pass.  One gradient-
    descent fit (streaming partials, driver holds 4 weights) + one
    scoring pass emitting per-bin integer partials; no shuffle.  The
    SQL twin rescores from the exported weight sidecar and must land
    every doc in the same bin (logits rounded to 6 dp on both sides
    BEFORE binning, so bin edges cannot flip)."""
    from jesse_ray.functions.linear import logreg_fit
    from jesse_ray.pipelines.queries import (
        _lr_features,
        _sig_parquet_path,
    )

    import pyarrow.parquet as _pq
    import ray

    ds = read_table(f"{sf_dir}/documents.parquet",
                    columns=["doc_id", "text", "lang"])

    def label(batch: pa.Table) -> np.ndarray:
        lang = batch["lang"]
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        return pc.equal(lang, "en").to_numpy(zero_copy_only=False).astype(np.float64)

    w = logreg_fit(ds, _lr_features, label, n_features=4, lr=0.5, n_steps=25)
    _pq.write_table(
        pa.table({"k": pa.array(np.arange(4), type=pa.int64()),
                  "w": pa.array(w, type=pa.float64())}),
        _sig_parquet_path(sf_dir, "lr_weights_cal"),
    )
    ref = ray.put(w) if ray.is_initialized() else w

    def partial(batch: pa.Table) -> pa.Table:
        wk = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        x = _lr_features(batch)
        z = wk[0] + wk[1] * x[:, 1]
        z = z + wk[2] * x[:, 2]
        z = z + wk[3] * x[:, 3]
        z = round_half_away(z, 6)
        y = label(batch)
        bin_ = np.floor(z * 200.0).astype(np.int64)  # 0.005-logit bins
        df = pd.DataFrame({"bin": bin_, "z": z, "y": y})
        g = df.groupby("bin", sort=False).agg(
            n=("z", "size"), sz=("z", "sum"), pos=("y", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    t = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    g = t.groupby("bin", sort=True).sum().reset_index()
    return pd.DataFrame({
        "bin": g["bin"].astype("int64"),
        "n": g["n"].astype("int64"),
        "mean_logit": round_half_away((g["sz"] / g["n"]), 6),
        "pos_rate": round_half_away((g["pos"] / g["n"]), 6),
    })


# ---------------------------------------------------------------------------
# seq_expectations — declarative table-level expectation suite in ONE pass


# (name, kind) — kinds wired below; thresholds are part of the suite and
# replicated verbatim in the SQL twin.  This is the table-level analogue of
# the row-level schema compiler (reference: jesse validates one document
# against one schema; an expectation suite validates one TABLE against a
# declarative contract a la Great Expectations) — every expectation reduces
# to integer/mergeable partials so the whole suite is one streaming pass.
EXPECTATION_SUITE = [
    ("row_count_at_least_1", "rows >= 1"),
    ("doc_id_null_count_is_0", "null doc_id == 0"),
    ("n_tok_null_count_is_0", "null n_tok == 0"),
    ("n_tok_min_at_least_1", "min(n_tok) >= 1"),
    ("n_tok_max_at_most_8192", "max(n_tok) <= 8192"),
    ("n_tok_mean_between_1_4096", "1 <= mean(n_tok) <= 4096"),
    ("source_all_in_allowed", "rows with source not in allowed == 0"),
]


SQL_SEQ_EXPECTATIONS_T = """
WITH a AS (
  SELECT CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CASE WHEN doc_id IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS null_doc,
         CAST(sum(CASE WHEN n_tok IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS null_nt,
         CAST(count(n_tok) AS BIGINT) AS n_valid,
         CAST(min(n_tok) AS BIGINT) AS mn,
         CAST(max(n_tok) AS BIGINT) AS mx,
         CAST(sum(n_tok) AS BIGINT) AS s,
         CAST(sum(CASE WHEN source NOT IN ({allowed}) THEN 1 ELSE 0 END) AS BIGINT) AS bad_src
  FROM {seq}
)
SELECT * FROM (
  SELECT 'row_count_at_least_1' AS expectation, CAST(n AS DOUBLE) AS observed,
         CAST(CASE WHEN n >= 1 THEN 1 ELSE 0 END AS BIGINT) AS passed FROM a
  UNION ALL SELECT 'doc_id_null_count_is_0', CAST(null_doc AS DOUBLE),
         CASE WHEN null_doc = 0 THEN 1 ELSE 0 END FROM a
  UNION ALL SELECT 'n_tok_null_count_is_0', CAST(null_nt AS DOUBLE),
         CASE WHEN null_nt = 0 THEN 1 ELSE 0 END FROM a
  UNION ALL SELECT 'n_tok_min_at_least_1', CAST(mn AS DOUBLE),
         CASE WHEN mn >= 1 THEN 1 ELSE 0 END FROM a
  UNION ALL SELECT 'n_tok_max_at_most_8192', CAST(mx AS DOUBLE),
         CASE WHEN mx <= 8192 THEN 1 ELSE 0 END FROM a
  UNION ALL SELECT 'n_tok_mean_between_1_4096',
         round(CAST(s AS DOUBLE) / n_valid, 6),
         CASE WHEN round(CAST(s AS DOUBLE) / n_valid, 6) BETWEEN 1.0 AND 4096.0
              THEN 1 ELSE 0 END FROM a
  UNION ALL SELECT 'source_all_in_allowed', CAST(bad_src AS DOUBLE),
         CASE WHEN bad_src = 0 THEN 1 ELSE 0 END FROM a
) ORDER BY expectation
"""


def _sql_seq_expectations() -> str:
    from jesse_ray.pipelines.queries import ALLOWED_SQL

    return SQL_SEQ_EXPECTATIONS_T.format(seq=SEQ_SQL, allowed=ALLOWED_SQL)


@entry("seq_expectations", sql=_sql_seq_expectations())
def q_seq_expectations(sf_dir: str) -> pd.DataFrame:
    """Declarative expectation-suite runner (the table-level twin of the
    row-level schema engine; cf. reference `src/jesse.erl:117-175` where
    a schema is a declarative contract evaluated against one instance —
    here the contract is evaluated against the WHOLE table).  Every
    expectation in ``EXPECTATION_SUITE`` compiles to integer mergeable
    partials (count / null-count / min / max / sum / bad-source count),
    so the full suite costs ONE ``map_batches`` pass over the corpus plus
    a driver merge of 7 numbers per block — no shuffle, no second read,
    constant driver state.  At 10^12 rows this is the cheapest possible
    audit: the same single-pass partial-aggregation shape as
    ``seq_ntok_stats``, amortized across every expectation at once."""
    from jesse_ray.pipelines.queries import ALLOWED

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "n_tok", "source"])
    I64MAX = np.iinfo(np.int64).max

    def partial(b: pa.Table) -> pa.Table:
        n = b.num_rows
        null_doc = n - pc.count(b["doc_id"], mode="only_valid").as_py()
        nt = b["n_tok"]
        n_valid = pc.count(nt, mode="only_valid").as_py()
        null_nt = n - n_valid
        mn = pc.min(nt).as_py() if n_valid else I64MAX
        mx = pc.max(nt).as_py() if n_valid else -I64MAX
        s = pc.sum(nt).as_py() if n_valid else 0
        bad_src = n - pc.sum(
            pc.is_in(b["source"], value_set=pa.array(ALLOWED)).cast(pa.int64())
        ).as_py()
        return pa.table({
            "n": pa.array([n], type=pa.int64()),
            "null_doc": pa.array([null_doc], type=pa.int64()),
            "null_nt": pa.array([null_nt], type=pa.int64()),
            "n_valid": pa.array([n_valid], type=pa.int64()),
            "mn": pa.array([mn], type=pa.int64()),
            "mx": pa.array([mx], type=pa.int64()),
            "s": pa.array([int(s)], type=pa.int64()),
            "bad_src": pa.array([int(bad_src)], type=pa.int64()),
        })

    t = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    n = int(t["n"].sum()); null_doc = int(t["null_doc"].sum())
    null_nt = int(t["null_nt"].sum()); n_valid = int(t["n_valid"].sum())
    mn = int(t["mn"].min()); mx = int(t["mx"].max()); s = int(t["s"].sum())
    bad_src = int(t["bad_src"].sum())
    mean = round_half_away(float(s) / n_valid, 6) if n_valid else 0.0
    rows = [
        ("row_count_at_least_1", float(n), n >= 1),
        ("doc_id_null_count_is_0", float(null_doc), null_doc == 0),
        ("n_tok_null_count_is_0", float(null_nt), null_nt == 0),
        ("n_tok_min_at_least_1", float(mn), mn >= 1),
        ("n_tok_max_at_most_8192", float(mx), mx <= 8192),
        ("n_tok_mean_between_1_4096", mean, 1.0 <= mean <= 4096.0),
        ("source_all_in_allowed", float(bad_src), bad_src == 0),
    ]
    return pd.DataFrame({
        "expectation": [r[0] for r in rows],
        "observed": [r[1] for r in rows],
        "passed": [int(r[2]) for r in rows],
    }).sort_values("expectation").reset_index(drop=True)


# ---------------------------------------------------------------------------
# orders_benford — Benford first-significant-digit audit


# P(d) = log10(1 + 1/d) pre-rounded to 6 decimals as DECIMAL LITERALS so both
# engines parse the identical correctly-rounded double (strtod) instead of
# each computing its own libm log10 (last-ulp hazard).
_BENFORD_P = {1: "0.30103", 2: "0.176091", 3: "0.124939", 4: "0.09691",
              5: "0.079181", 6: "0.066947", 7: "0.057992", 8: "0.051153",
              9: "0.045757"}


def _sql_orders_benford() -> str:
    case = " ".join(f"WHEN {d} THEN {p}" for d, p in _BENFORD_P.items())
    return f"""
WITH d AS (
  SELECT CAST(substring(CAST(CAST(abs(floor(o_totalprice * 100.0 + 0.5)) AS BIGINT)
                             AS VARCHAR), 1, 1) AS BIGINT) AS digit
  FROM orders
)
SELECT digit, CAST(count(*) AS BIGINT) AS n,
       round(CAST(count(*) AS DOUBLE) / (SELECT count(*) FROM d), 6) AS share,
       CASE digit {case} END AS benford_p
FROM d GROUP BY digit ORDER BY digit
"""


@entry("orders_benford", sql=_sql_orders_benford())
def q_orders_benford(sf_dir: str) -> pd.DataFrame:
    """Benford first-significant-digit audit over ``o_totalprice`` — the
    classic forensic data-quality check (Benford 1938; Nigrini 1996):
    naturally-arising multiplicative amounts follow P(d)=log10(1+1/d),
    and a synthetic / tampered / truncated column does not.  Digit
    extraction avoids every rounding hazard: ``floor(x*100 + 0.5)`` is
    the identical IEEE mul/add/floor chain in numpy and DuckDB (no
    round-half-even vs half-away divergence), the first digit comes off
    the integer's decimal string, and the Benford reference shares are
    parsed from the same 6-decimal literals on both sides.  One
    map_batches pass of 9-bucket integer partials, driver merges
    blocks x 9 rows — no shuffle."""
    ds = read_table(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        v = b["o_totalprice"].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        first = pc.utf8_slice_codeunits(
            pc.cast(pa.array(np.abs(cents)), pa.string()), 0, 1)
        d = pc.cast(first, pa.int64()).to_numpy(zero_copy_only=False)
        cnt = np.bincount(d, minlength=10)[1:10]
        return pa.table({"digit": pa.array(np.arange(1, 10), type=pa.int64()),
                         "n": pa.array(cnt, type=pa.int64())})

    t = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    g = t.groupby("digit", sort=True)["n"].sum().reset_index()
    total = int(g["n"].sum())
    return pd.DataFrame({
        "digit": g["digit"].astype("int64"),
        "n": g["n"].astype("int64"),
        "share": round_half_away((g["n"] / total), 6),
        "benford_p": [float(_BENFORD_P[d]) for d in g["digit"]],
    })


# ---------------------------------------------------------------------------
# events_freshness — per-partition staleness / freshness SLA audit


FRESHNESS_SLA_S = 7 * 24 * 3600  # stale if > 7 days behind the corpus max


SQL_EVENTS_FRESHNESS = f"""
WITH g AS (
  SELECT event_type, CAST(epoch_us(max(ts)) AS BIGINT) AS max_ts_us
  FROM events GROUP BY 1
)
SELECT event_type, max_ts_us,
       ((SELECT max(max_ts_us) FROM g) - max_ts_us) // 1000000 AS lag_s,
       CAST(CASE WHEN ((SELECT max(max_ts_us) FROM g) - max_ts_us) // 1000000
                      > {FRESHNESS_SLA_S} THEN 1 ELSE 0 END AS BIGINT) AS stale
FROM g ORDER BY event_type
"""


@entry("events_freshness", sql=SQL_EVENTS_FRESHNESS)
def q_events_freshness(sf_dir: str) -> pd.DataFrame:
    """Freshness / staleness audit per event_type: the ingestion-SLA
    check a validation engine runs before admitting a partition (is any
    stream lagging the corpus high-water mark by more than the SLA?).
    Per-group max(ts) is a mergeable partial — one map_batches pass
    emits per-block (type, max_us) pairs, the driver folds blocks x
    |types| rows, and the global high-water mark falls out of the same
    fold.  Lag is integer microseconds floor-divided to whole seconds:
    bit-identical in both engines."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def partial(b: pa.Table) -> pa.Table:
        us = b["ts"].cast(pa.int64())
        df = pd.DataFrame({"event_type": b["event_type"].to_pandas(),
                           "us": us.to_pandas()})
        g = df.groupby("event_type", sort=False)["us"].max().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    t = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    g = t.groupby("event_type", sort=True)["us"].max().reset_index()
    hwm = int(g["us"].max())
    lag_s = (hwm - g["us"].astype("int64")) // 1_000_000
    return pd.DataFrame({
        "event_type": g["event_type"],
        "max_ts_us": g["us"].astype("int64"),
        "lag_s": lag_s.astype("int64"),
        "stale": (lag_s > FRESHNESS_SLA_S).astype("int64"),
    })


# ---------------------------------------------------------------------------
# doc_token_fertility — tokenizer fertility (subword tokens per word) by lang


FERTILITY_PAT = r"[A-Za-z]+|[0-9]|[^A-Za-z0-9 ]"


SQL_DOC_TOKEN_FERTILITY = f"""
WITH f AS (
  SELECT lang,
         CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words,
         CAST(len(regexp_extract_all(text, '{FERTILITY_PAT}')) AS BIGINT) AS n_subtok
  FROM documents
)
SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_words) AS BIGINT) AS n_words,
       CAST(sum(n_subtok) AS BIGINT) AS n_subtok,
       round(CAST(sum(n_subtok) AS DOUBLE) / sum(n_words), 6) AS fertility
FROM f GROUP BY lang ORDER BY lang
"""


@entry("doc_token_fertility", sql=SQL_DOC_TOKEN_FERTILITY)
def q_doc_token_fertility(sf_dir: str) -> pd.DataFrame:
    """Tokenizer fertility per language: subword-ish tokens per
    whitespace word (the standard multilingual-tokenizer diagnostic —
    a fertility spike on one language means the vocab under-serves it
    and its effective context shrinks).  Both engines count matches of
    the SAME RE2 pattern (pyarrow count_substring_regex / DuckDB
    regexp_extract_all are both RE2), sums are exact integers, and the
    single fertility division is one identical IEEE op per group.  One
    pass, per-block (lang, words, subtoks, docs) integer partials."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["lang", "text"])

    def partial(b: pa.Table) -> pa.Table:
        words = pc.list_value_length(pc.split_pattern(b["text"], " ")).cast(pa.int64())
        subs = pc.count_substring_regex(b["text"], FERTILITY_PAT).cast(pa.int64())
        df = pd.DataFrame({
            "lang": b["lang"].to_pandas(),
            "n_words": words.to_pandas(),
            "n_subtok": subs.to_pandas(),
        })
        g = df.groupby("lang", sort=False).agg(
            n_docs=("n_words", "size"), n_words=("n_words", "sum"),
            n_subtok=("n_subtok", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    t = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    g = t.groupby("lang", sort=True).sum().reset_index()
    return pd.DataFrame({
        "lang": g["lang"],
        "n_docs": g["n_docs"].astype("int64"),
        "n_words": g["n_words"].astype("int64"),
        "n_subtok": g["n_subtok"].astype("int64"),
        "fertility": round_half_away((g["n_subtok"] / g["n_words"]), 6),
    })


# ---------------------------------------------------------------------------
# events_unpivot — UNPIVOT / melt of a wide per-type aggregate to long form


SQL_EVENTS_UNPIVOT = """
WITH w AS (
  SELECT event_type,
         CAST(count(*) AS BIGINT) AS n_events,
         CAST(sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS sum_cents,
         CAST(max(CAST(floor(value * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS max_cents
  FROM events GROUP BY 1
)
SELECT event_type, metric, value FROM (
  SELECT event_type, 'n_events' AS metric, n_events AS value FROM w
  UNION ALL SELECT event_type, 'sum_cents', sum_cents FROM w
  UNION ALL SELECT event_type, 'max_cents', max_cents FROM w
) ORDER BY event_type, metric
"""


@entry("events_unpivot", sql=SQL_EVENTS_UNPIVOT)
def q_events_unpivot(sf_dir: str) -> pd.DataFrame:
    """UNPIVOT (melt) relational shape: a wide per-event-type aggregate
    (n_events, sum_cents, max_cents) melted to long (event_type, metric,
    value) — the standard hand-off shape for metric stores / time-series
    sinks.  The wide aggregate is the distributed part (per-block
    integer partials, driver folds blocks x |types|); the melt itself is
    O(|types| x metrics) driver rows.  Cents via the same floor(x*100
    + 0.5) IEEE chain as the Benford audit — no rounding divergence."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        v = b["value"].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        df = pd.DataFrame({"event_type": b["event_type"].to_pandas(), "c": cents})
        g = df.groupby("event_type", sort=False).agg(
            n_events=("c", "size"), sum_cents=("c", "sum"),
            max_cents=("c", "max")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    t = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    g = t.groupby("event_type", sort=True).agg(
        n_events=("n_events", "sum"), sum_cents=("sum_cents", "sum"),
        max_cents=("max_cents", "max")).reset_index()
    long = g.melt(id_vars=["event_type"], var_name="metric", value_name="value")
    long["value"] = long["value"].astype("int64")
    return long.sort_values(["event_type", "metric"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# seq_val_exemplars — k distinct exemplar docs per error type


EXEMPLARS_K = 3


def _sql_seq_val_exemplars() -> str:
    from jesse_ray import testgen
    from jesse_ray.pipelines.queries import ALLOWED_SQL

    return f"""
WITH offenders AS (
  SELECT 'wrong_size' AS error, coalesce(doc_id, '') AS doc_key
  FROM {SEQ_SQL} WHERE len(tokens) != n_tok
  UNION
  SELECT 'not_in_range', coalesce(doc_id, '')
  FROM {SEQ_SQL} WHERE n_tok < 1 OR n_tok > 2048
  UNION
  SELECT 'not_in_range', coalesce(doc_id, '')
  FROM {SEQ_SQL} WHERE EXISTS (
    SELECT 1 FROM unnest(tokens) AS u(t) WHERE t < 0 OR t >= {testgen.VOCAB})
  UNION
  SELECT 'missing_required_property', coalesce(doc_id, '')
  FROM {SEQ_SQL} WHERE doc_id IS NULL
  UNION
  SELECT 'no_match', doc_id FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND NOT regexp_matches(doc_id, '^doc-[0-9]{{8}}$')
  UNION
  SELECT 'not_in_enum', coalesce(doc_id, '') FROM {SEQ_SQL}
  WHERE source NOT IN ({ALLOWED_SQL})
  UNION
  SELECT 'not_unique', doc_id FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL GROUP BY doc_id HAVING count(*) > 1
)
SELECT error, rnk, doc_key FROM (
  SELECT error, doc_key,
         row_number() OVER (PARTITION BY error ORDER BY doc_key) AS rnk
  FROM offenders
) WHERE rnk <= {EXEMPLARS_K} ORDER BY error, rnk
"""


@entry("seq_val_exemplars", sql=_sql_seq_val_exemplars())
def q_seq_val_exemplars(sf_dir: str) -> pd.DataFrame:
    """Stratified violation exemplars: the first K distinct offending
    doc keys per error type, drawn from the REAL engine run (row +
    referential violations Dataset ∪ uniqueness pass).  This is the
    triage view an operator reads when a 10^12-row run reports millions
    of violations — counts alone don't debug anything; K concrete
    examples per error class do.  Scale shape: per-block distinct
    (error, doc_key) + per-block top-K ascending (the K smallest
    distinct values of a union are each locally among the K smallest
    distinct of any block containing them, so local top-K is a superset)
    — the driver folds blocks × errors × K rows.  doc_key coalesces the
    NULL doc_id of missing_required_property rows to '' so ordering is
    total in both engines."""
    from jesse_ray.engine import validate_dataset
    from jesse_ray.pipelines.queries import _seq_spec

    ds = read_sequences(_seq_path(sf_dir))
    res = validate_dataset(ds, _seq_spec())

    def local(b: pa.Table) -> pa.Table:
        key = pc.coalesce(b["doc_id"], pa.scalar("", type=pa.string()))
        df = pd.DataFrame({"error": b["error"].to_pandas(), "doc_key": key.to_pandas()})
        df = df.drop_duplicates().sort_values(["error", "doc_key"])
        return pa.Table.from_pandas(df.groupby("error", sort=False)
                                    .head(EXEMPLARS_K), preserve_index=False)

    # resolving the uniqueness rows first pins the fused pass's output,
    # so the map below reads violation blocks, not the corpus again
    uniq = res.unique_violations
    parts = [
        _collect(res.violations.map_batches(local, batch_format="pyarrow",
                                            zero_copy_batch=True))
    ]
    if uniq.num_rows:
        parts.append(local(uniq))
    t = pa.concat_tables([p for p in parts if p is not None and p.num_rows])
    df = t.to_pandas().drop_duplicates().sort_values(["error", "doc_key"])
    out = df.groupby("error", sort=True).head(EXEMPLARS_K).reset_index(drop=True)
    out["rnk"] = out.groupby("error").cumcount() + 1
    return out[["error", "rnk", "doc_key"]]


# ---------------------------------------------------------------------------
# seq_expectations_by_source — the expectation suite scoped per group


SQL_SEQ_EXPECTATIONS_BY_SOURCE = f"""
WITH a AS (
  SELECT source,
         CAST(count(*) AS BIGINT) AS n,
         CAST(sum(CASE WHEN doc_id IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS null_doc,
         CAST(count(n_tok) AS BIGINT) AS n_valid,
         CAST(sum(n_tok) AS BIGINT) AS s
  FROM {SEQ_SQL} GROUP BY source
)
SELECT source, expectation, observed, passed FROM (
  SELECT source, 'doc_id_null_count_is_0' AS expectation,
         CAST(null_doc AS DOUBLE) AS observed,
         CAST(CASE WHEN null_doc = 0 THEN 1 ELSE 0 END AS BIGINT) AS passed FROM a
  UNION ALL
  SELECT source, 'n_tok_mean_between_1_4096',
         round(CAST(s AS DOUBLE) / n_valid, 6),
         CASE WHEN round(CAST(s AS DOUBLE) / n_valid, 6) BETWEEN 1.0 AND 4096.0
              THEN 1 ELSE 0 END FROM a
  UNION ALL
  SELECT source, 'row_count_at_least_1', CAST(n AS DOUBLE),
         CASE WHEN n >= 1 THEN 1 ELSE 0 END FROM a
) ORDER BY source, expectation
"""


@entry("seq_expectations_by_source", sql=SQL_SEQ_EXPECTATIONS_BY_SOURCE)
def q_seq_expectations_by_source(sf_dir: str) -> pd.DataFrame:
    """Group-scoped expectation suite: the same declarative-contract
    machinery as ``seq_expectations`` but evaluated PER SOURCE (per
    tenant / per stream — how a multi-source ingest actually gates
    partitions: web may pass while forums fails).  Still one streaming
    pass: per-block pandas-groupby integer partials keyed by source,
    driver folds blocks × |sources| rows, thresholds replicated
    verbatim in the twin."""
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "n_tok", "source"])

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "source": b["source"].to_pandas(),
            "null_doc": b["doc_id"].is_null().to_pandas().astype(np.int64),
            "nt": b["n_tok"].to_pandas(),
        })
        g = df.groupby("source", sort=False).agg(
            n=("null_doc", "size"), null_doc=("null_doc", "sum"),
            n_valid=("nt", "count"), s=("nt", "sum")).reset_index()
        g["s"] = g["s"].fillna(0).astype(np.int64)
        g["n_valid"] = g["n_valid"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    t = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    g = t.groupby("source", sort=True).agg(
        n=("n", "sum"), null_doc=("null_doc", "sum"),
        n_valid=("n_valid", "sum"), s=("s", "sum")).reset_index()
    rows = []
    for _, r in g.iterrows():
        mean = round_half_away(float(r["s"]) / r["n_valid"], 6) if r["n_valid"] else 0.0
        rows.append((r["source"], "doc_id_null_count_is_0",
                     float(r["null_doc"]), int(r["null_doc"] == 0)))
        rows.append((r["source"], "n_tok_mean_between_1_4096",
                     mean, int(1.0 <= mean <= 4096.0)))
        rows.append((r["source"], "row_count_at_least_1",
                     float(r["n"]), int(r["n"] >= 1)))
    out = pd.DataFrame(rows, columns=["source", "expectation", "observed", "passed"])
    return out.sort_values(["source", "expectation"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# ref_integrity_audit — FK orphan audit across every edge of the star schema


FK_EDGES = [
    ("lineitem.l_orderkey->orders.o_orderkey",
     "lineitem", "l_orderkey", "orders", "o_orderkey"),
    ("lineitem.l_partkey->part.p_partkey",
     "lineitem", "l_partkey", "part", "p_partkey"),
    ("lineitem.l_suppkey->supplier.s_suppkey",
     "lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ("orders.o_custkey->customer.c_custkey",
     "orders", "o_custkey", "customer", "c_custkey"),
    ("customer.c_nationkey->nation.n_nationkey",
     "customer", "c_nationkey", "nation", "n_nationkey"),
    ("supplier.s_nationkey->nation.n_nationkey",
     "supplier", "s_nationkey", "nation", "n_nationkey"),
    ("nation.n_regionkey->region.r_regionkey",
     "nation", "n_regionkey", "region", "r_regionkey"),
]


def _sql_ref_integrity_audit() -> str:
    parts = []
    for edge, child, fk, parent, pk in FK_EDGES:
        parts.append(f"""
  SELECT '{edge}' AS edge,
         CAST((SELECT count(*) FROM {child}) AS BIGINT) AS child_rows,
         CAST((SELECT count(*) FROM {child} c
               WHERE NOT EXISTS (SELECT 1 FROM {parent} p
                                 WHERE p.{pk} = c.{fk})) AS BIGINT) AS orphan_rows""")
    inner = "\n  UNION ALL".join(parts)
    return (f"SELECT edge, child_rows, orphan_rows,\n"
            f"       CAST(CASE WHEN orphan_rows = 0 THEN 1 ELSE 0 END AS BIGINT) AS ok\n"
            f"FROM ({inner}\n) ORDER BY edge")


@entry("ref_integrity_audit", sql=_sql_ref_integrity_audit())
def q_ref_integrity_audit(sf_dir: str) -> pd.DataFrame:
    """Referential-integrity audit of EVERY foreign-key edge in the
    star schema — the whole-warehouse generalization of the engine's
    single-column referential check (reference analogue: `$ref` /
    enum membership gate one value against one schema; this gates every
    child row against its parent key set).  Per edge: child row count
    (one column pruned at the read) and orphan count via the
    distributed anti-join (`relational.hash_join(how="anti")` — cogroup
    by coarse key hash, neither side broadcast, so a 100-TB fact table
    never ships its parent as a value set).  Output is one verdict row
    per edge, the shape a warehouse conformance dashboard ingests."""
    from jesse_ray.pipelines.relational import hash_join

    rows = []
    for edge, child, fk, parent, pk in FK_EDGES:
        c = read_table(f"{sf_dir}/{child}.parquet", columns=[fk])
        p = read_table(f"{sf_dir}/{parent}.parquet", columns=[pk])
        n_child = c.count()
        if fk != pk:
            p = p.map_batches(
                lambda b, _pk=pk, _fk=fk: b.rename_columns([_fk]),
                batch_format="pyarrow", zero_copy_batch=True)
        orphans = hash_join(c, p, on=fk, how="anti").count()
        rows.append((edge, int(n_child), int(orphans), int(orphans == 0)))
    return pd.DataFrame(rows, columns=["edge", "child_rows", "orphan_rows", "ok"])\
        .sort_values("edge").reset_index(drop=True)


# ---------------------------------------------------------------------------
# emb_quality_audit — embedding-column QA (NaN / zero / dim conformance)


EMB_EXPECT_DIM = 64


SQL_EMB_QUALITY_AUDIT = f"""
WITH v AS (
  SELECT CAST(label AS BIGINT) AS label,
         CASE WHEN len(list_filter(embedding, x -> isnan(x))) > 0
              THEN 1 ELSE 0 END AS is_nan,
         CASE WHEN len(embedding) > 0
                   AND len(list_filter(embedding, x -> x = 0.0)) = len(embedding)
              THEN 1 ELSE 0 END AS is_zero,
         CASE WHEN len(embedding) != {EMB_EXPECT_DIM} THEN 1 ELSE 0 END AS wrong_dim
  FROM embeddings
)
SELECT label, CAST(count(*) AS BIGINT) AS n_vecs,
       CAST(sum(is_nan) AS BIGINT) AS n_nan,
       CAST(sum(is_zero) AS BIGINT) AS n_zero,
       CAST(sum(wrong_dim) AS BIGINT) AS n_wrong_dim,
       CAST(CASE WHEN sum(is_nan) = 0 AND sum(is_zero) = 0
                      AND sum(wrong_dim) = 0 THEN 1 ELSE 0 END AS BIGINT) AS ok
FROM v GROUP BY label ORDER BY label
"""


@entry("emb_quality_audit", sql=SQL_EMB_QUALITY_AUDIT)
def q_emb_quality_audit(sf_dir: str) -> pd.DataFrame:
    """Embedding-column quality audit per label: vector count, vectors
    containing any NaN, exact all-zero vectors, and wrong-dimension
    vectors — the ingest gate an embedding store runs before an index
    build (a single NaN poisons a matmul top-k; a zero vector breaks
    cosine).  All four metrics are ORDER-INDEPENDENT integer predicates
    (no float reductions cross engines — a norm sum would hit pairwise-
    vs-sequential summation divergence), emitted as per-block grouped
    partials and folded on the driver."""
    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    def partial(b: pa.Table) -> pa.Table:
        emb = b["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        lens = pc.list_value_length(emb).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(emb).to_numpy(zero_copy_only=False)
        offs = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offs[1:])
        nan_flat = np.isnan(flat)
        zero_flat = flat == 0.0
        # per-vector any-NaN / all-zero via segment sums over the flat buffer
        nan_per = np.add.reduceat(nan_flat.astype(np.int64), offs[:-1]) \
            if len(lens) else np.zeros(0, np.int64)
        zero_per = np.add.reduceat(zero_flat.astype(np.int64), offs[:-1]) \
            if len(lens) else np.zeros(0, np.int64)
        nan_per[lens == 0] = 0
        zero_per[lens == 0] = 0
        df = pd.DataFrame({
            "label": b["label"].to_numpy(zero_copy_only=False).astype(np.int64),
            "is_nan": (nan_per > 0).astype(np.int64),
            "is_zero": ((zero_per == lens) & (lens > 0)).astype(np.int64),
            "wrong_dim": (lens != EMB_EXPECT_DIM).astype(np.int64),
        })
        g = df.groupby("label", sort=False).agg(
            n_vecs=("is_nan", "size"), n_nan=("is_nan", "sum"),
            n_zero=("is_zero", "sum"), n_wrong_dim=("wrong_dim", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    t = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    g = t.groupby("label", sort=True).sum().reset_index()
    out = g.astype({"label": "int64", "n_vecs": "int64", "n_nan": "int64",
                    "n_zero": "int64", "n_wrong_dim": "int64"})
    out["ok"] = ((out["n_nan"] == 0) & (out["n_zero"] == 0)
                 & (out["n_wrong_dim"] == 0)).astype("int64")
    return out


# ---------------------------------------------------------------------------
# seq_token_budget_sample — cap every source at a fixed token budget


TOKEN_BUDGET = 20_000


def _sql_token_budget() -> str:
    M = 1 << 64
    c1, c2 = 0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53

    def mul(e, c):
        c_hi, c_lo = c >> 32, c & 0xFFFFFFFF
        return (f"CAST(((CAST({e} AS HUGEINT) * {c_lo})"
                f" + ((CAST({e} AS HUGEINT) * {c_hi}) % 4294967296) * 4294967296)"
                f" % {M} AS UBIGINT)")

    def xsh(e):
        return f"xor({e}, {e} >> 33)"

    return f"""
WITH rows0 AS (
  SELECT source, CAST(n_tok AS BIGINT) AS n_tok,
         CAST(substr(doc_id, 5) AS UBIGINT) AS h
  FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND regexp_matches(doc_id, '^doc-[0-9]{{8}}$')
    AND n_tok IS NOT NULL
),
h1 AS (SELECT source, n_tok, {mul(xsh('h'), c1)} AS h FROM rows0),
h2 AS (SELECT source, n_tok, {mul(xsh('h'), c2)} AS h FROM h1),
h3 AS (SELECT source, n_tok, {xsh('h')} AS h FROM h2),
s AS (
  SELECT source, n_tok,
         sum(n_tok) OVER (PARTITION BY source ORDER BY h) AS running
  FROM h3
)
SELECT source,
       CAST(count(*) AS BIGINT) AS total_rows,
       CAST(sum(n_tok) AS BIGINT) AS total_tokens,
       CAST(sum(CASE WHEN running <= {TOKEN_BUDGET} THEN 1 ELSE 0 END) AS BIGINT) AS kept_rows,
       CAST(sum(CASE WHEN running <= {TOKEN_BUDGET} THEN n_tok ELSE 0 END) AS BIGINT) AS kept_tokens
FROM s GROUP BY source ORDER BY source
"""


@entry("seq_token_budget_sample", sql=_sql_token_budget())
def q_seq_token_budget_sample(sf_dir: str) -> pd.DataFrame:
    """Token-budget-capped mixing: every source keeps rows in
    fmix64(doc-key) order until its running token total exceeds the
    budget — the "cap source X at N tokens" primitive of corpus mixing
    (the deterministic, engine-reproducible cousin of temperature
    sampling).  Distributed as `relational.budget_prefix_sample`: one
    sort by (source, hash) + a two-pass prefix scan with O(blocks)
    driver state and EXACT RANGE tie semantics, so the SQL twin's
    windowed SUM reproduces every verdict bit-for-bit (the twin
    re-derives the same fmix64 chain)."""
    from jesse_ray.hashutil import fmix64
    from jesse_ray.pipelines.relational import budget_prefix_sample

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "n_tok", "source"])

    def prep(b: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_valid(b["doc_id"]),
                     pc.match_substring_regex(b["doc_id"], r"^doc-[0-9]{8}$"))
        ok = pc.and_(ok, pc.is_valid(b["n_tok"]))
        b = b.filter(pc.fill_null(ok, False))
        key = pc.cast(pc.utf8_slice_codeunits(b["doc_id"], 4, 12), pa.uint64())
        h = fmix64(key.to_numpy(zero_copy_only=False).astype(np.uint64))
        return pa.table({
            "source": b["source"],
            "n_tok": b["n_tok"].cast(pa.int64()),
            "h": pa.array(h, type=pa.uint64()),
        })

    clean = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    kept = budget_prefix_sample(clean, group_col="source", hash_col="h",
                                weight_col="n_tok", budget=TOKEN_BUDGET)

    def agg(b: pa.Table, col: str) -> pa.Table:
        df = pd.DataFrame({"source": b["source"].to_pandas(),
                           "nt": b["n_tok"].to_numpy(zero_copy_only=False)})
        g = df.groupby("source", sort=False).agg(
            **{f"{col}_rows": ("nt", "size"), f"{col}_tokens": ("nt", "sum")}
        ).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    tot = _collect(clean.map_batches(lambda b: agg(b, "total"),
                                     batch_format="pyarrow")).to_pandas()
    kpt = _collect(kept.map_batches(lambda b: agg(b, "kept"),
                                    batch_format="pyarrow")).to_pandas()
    tot = tot.groupby("source", sort=True).sum().reset_index()
    kpt = kpt.groupby("source", sort=True).sum().reset_index()
    out = tot.merge(kpt, on="source", how="left").fillna(0)
    for c in ["total_rows", "total_tokens", "kept_rows", "kept_tokens"]:
        out[c] = out[c].astype("int64")
    return out[["source", "total_rows", "total_tokens", "kept_rows", "kept_tokens"]]


# ---------------------------------------------------------------------------
# seq_val_regression — validation regression diff between two snapshots


def _sql_seq_val_regression() -> str:
    from jesse_ray import testgen
    from jesse_ray.pipelines.queries import ALLOWED_SQL

    clean = "read_parquet('/tmp/jesse_ray_data/sf0.01/sequences_clean.parquet')"

    def counts(src: str) -> str:
        return f"""
  SELECT 'wrong_size' AS error, count(*)::BIGINT AS cnt FROM {src} WHERE len(tokens) != n_tok
  UNION ALL
  SELECT 'not_in_range', (
      (SELECT count(*) FROM {src} WHERE n_tok < 1 OR n_tok > 2048)
    + (SELECT count(*) FROM (SELECT unnest(tokens) AS t FROM {src}) WHERE t < 0 OR t >= {testgen.VOCAB})
  )::BIGINT
  UNION ALL
  SELECT 'missing_required_property', count(*)::BIGINT FROM {src} WHERE doc_id IS NULL
  UNION ALL
  SELECT 'no_match', count(*)::BIGINT FROM {src}
    WHERE doc_id IS NOT NULL AND NOT regexp_matches(doc_id, '^doc-[0-9]{{8}}$')
  UNION ALL
  SELECT 'not_in_enum', count(*)::BIGINT FROM {src} WHERE source NOT IN ({ALLOWED_SQL})
  UNION ALL
  SELECT 'not_unique', count(*)::BIGINT FROM (
      SELECT doc_id FROM {src} WHERE doc_id IS NOT NULL GROUP BY doc_id HAVING count(*) > 1
  )"""

    return f"""
WITH b AS ({counts(clean)}),
     c AS ({counts(SEQ_SQL)}),
     m AS (
  SELECT coalesce(b.error, c.error) AS error,
         coalesce(b.cnt, 0) AS baseline_cnt,
         coalesce(c.cnt, 0) AS current_cnt
  FROM b FULL OUTER JOIN c ON b.error = c.error
)
SELECT error, baseline_cnt, current_cnt,
       current_cnt - baseline_cnt AS delta,
       CASE WHEN baseline_cnt = 0 AND current_cnt > 0 THEN 'new'
            WHEN baseline_cnt > 0 AND current_cnt = 0 THEN 'fixed'
            WHEN current_cnt > baseline_cnt THEN 'grew'
            WHEN current_cnt < baseline_cnt THEN 'shrank'
            ELSE 'same' END AS status
FROM m WHERE baseline_cnt > 0 OR current_cnt > 0 ORDER BY error
"""


@entry("seq_val_regression", sql=_sql_seq_val_regression())
def q_seq_val_regression(sf_dir: str) -> pd.DataFrame:
    """Validation regression report between two corpus snapshots (the
    nightly-vs-baseline gate: which error classes appeared, grew, or
    were fixed after an ingest/transform change).  Runs the REAL engine
    on both snapshots (dirty vs cleaned corpus), outer-merges the two
    per-error count tables, and emits per-class deltas — the engine-run
    cost is two validation passes; the diff is |error classes| rows."""
    from jesse_ray import testgen
    from jesse_ray.engine import validate_dataset
    from jesse_ray.pipelines.queries import _seq_spec

    sf = testgen.sf_name_of(sf_dir)
    testgen.generate(sf)
    base = read_sequences(str(testgen.corpus_dir(sf) / "sequences_clean.parquet"))
    cur = read_sequences(_seq_path(sf_dir))
    c_base = validate_dataset(base, _seq_spec()).counts_by_error()
    c_cur = validate_dataset(cur, _seq_spec()).counts_by_error()
    errs = sorted(set(c_base) | set(c_cur))
    rows = []
    for e in errs:
        b, c = int(c_base.get(e, 0)), int(c_cur.get(e, 0))
        status = ("new" if b == 0 and c > 0 else
                  "fixed" if b > 0 and c == 0 else
                  "grew" if c > b else "shrank" if c < b else "same")
        rows.append((e, b, c, c - b, status))
    return pd.DataFrame(rows, columns=["error", "baseline_cnt", "current_cnt",
                                       "delta", "status"])


# ---------------------------------------------------------------------------
# seq_band_filter — quantile-band curation gate (keep p10..p90 per source)


BAND_LO, BAND_HI = 0.1, 0.9


SQL_SEQ_BAND_FILTER = f"""
WITH b AS (
  SELECT source,
         CAST(quantile_disc(n_tok, {BAND_LO}) AS BIGINT) AS lo,
         CAST(quantile_disc(n_tok, {BAND_HI}) AS BIGINT) AS hi
  FROM {SEQ_SQL} GROUP BY source
)
SELECT s.source,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CASE WHEN s.n_tok BETWEEN b.lo AND b.hi THEN 1 ELSE 0 END) AS BIGINT) AS kept,
       any_value(b.lo) AS lo, any_value(b.hi) AS hi
FROM {SEQ_SQL} s JOIN b ON s.source = b.source
GROUP BY s.source ORDER BY s.source
"""


@entry("seq_band_filter", sql=SQL_SEQ_BAND_FILTER)
def q_seq_band_filter(sf_dir: str) -> pd.DataFrame:
    """Quantile-band curation gate: keep sequences whose n_tok lies
    within [p10, p90] of their OWN source (per-stream length trimming —
    the robust alternative to global min/max bounds when sources have
    wildly different length regimes).  Two passes: exact per-group
    discrete quantiles (bounded (group, value) partials — no row
    shuffle), bands broadcast as a tiny dict, then one vectorized
    filter pass emitting per-source keep counts."""
    from jesse_ray.pipelines.relational import grouped_discrete_quantiles

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"])
    bands = grouped_discrete_quantiles(ds, "source", "n_tok",
                                       [BAND_LO, BAND_HI]).to_pandas()
    lo = dict(zip(bands["source"], bands[f"p{int(BAND_LO * 100)}"]))
    hi = dict(zip(bands["source"], bands[f"p{int(BAND_HI * 100)}"]))

    def part(b: pa.Table) -> pa.Table:
        src = b["source"].to_pandas()
        nt = b["n_tok"].to_numpy(zero_copy_only=False)
        lo_v = src.map(lo).to_numpy()
        hi_v = src.map(hi).to_numpy()
        keep = (nt >= lo_v) & (nt <= hi_v)
        df = pd.DataFrame({"source": src, "k": keep.astype(np.int64)})
        g = df.groupby("source", sort=False).agg(
            n=("k", "size"), kept=("k", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    t = _collect(ds.map_batches(part, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    g = t.groupby("source", sort=True).sum().reset_index()
    out = pd.DataFrame({
        "source": g["source"],
        "n": g["n"].astype("int64"),
        "kept": g["kept"].astype("int64"),
        "lo": [int(lo[s]) for s in g["source"]],
        "hi": [int(hi[s]) for s in g["source"]],
    })
    return out


# ---------------------------------------------------------------------------
# seq_val_errors_by_source — per-tenant attribution of engine violations


def _sql_val_errors_by_source() -> str:
    from jesse_ray import testgen
    from jesse_ray.pipelines.queries import ALLOWED_SQL

    return f"""
WITH offenders AS (
  SELECT 'wrong_size' AS error, doc_id FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND len(tokens) != n_tok
  UNION ALL
  SELECT 'not_in_range', doc_id FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND (n_tok < 1 OR n_tok > 2048)
  UNION ALL
  SELECT 'not_in_range', doc_id FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND EXISTS (
    SELECT 1 FROM unnest(tokens) AS u(t) WHERE t < 0 OR t >= {testgen.VOCAB})
  UNION ALL
  SELECT 'no_match', doc_id FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND NOT regexp_matches(doc_id, '^doc-[0-9]{{8}}$')
  UNION ALL
  SELECT 'not_in_enum', doc_id FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND source NOT IN ({ALLOWED_SQL})
  UNION ALL
  SELECT 'not_unique', doc_id FROM (
      SELECT doc_id FROM {SEQ_SQL} WHERE doc_id IS NOT NULL
      GROUP BY doc_id HAVING count(*) > 1
  )
)
SELECT s.source, o.error, CAST(count(*) AS BIGINT) AS cnt
FROM offenders o JOIN {SEQ_SQL} s ON o.doc_id = s.doc_id
GROUP BY s.source, o.error ORDER BY s.source, o.error
"""


@entry("seq_val_errors_by_source", sql=_sql_val_errors_by_source())
def q_seq_val_errors_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source attribution of the engine's violation rows: which
    tenant/stream produces which error class (the ownership view an
    ingest dashboard pages teams with).  Violations whose doc_id is
    NULL (missing_required_property) are unattributable and excluded on
    BOTH engines.  Scale shape: violations (small) hash-join back to a
    key→source projection of the corpus — a distributed cogroup join,
    no driver value sets — then per-(source, error) integer counts.
    Duplicate doc_ids attribute once per matching corpus row, exactly
    like the SQL join."""
    from jesse_ray.engine import validate_dataset
    from jesse_ray.pipelines.queries import _seq_spec
    from jesse_ray.pipelines.relational import hash_join

    ds = read_sequences(_seq_path(sf_dir))
    res = validate_dataset(ds, _seq_spec())

    def viol_rows(b: pa.Table) -> pa.Table:
        t = pa.table({"doc_id": b["doc_id"], "error": b["error"]})
        return t.filter(pc.is_valid(t["doc_id"]))

    import ray.data as rd

    uniq = res.unique_violations  # first: pins the fused pass's output
    v = res.violations.map_batches(viol_rows, batch_format="pyarrow",
                                   zero_copy_batch=True)
    if uniq.num_rows:
        parts = [viol_rows(uniq)]
        v = v.union(rd.from_arrow(pa.concat_tables(parts)))
    src = read_sequences(_seq_path(sf_dir), columns=["doc_id", "source"]) \
        .map_batches(lambda b: b.filter(pc.is_valid(b["doc_id"])),
                     batch_format="pyarrow", zero_copy_batch=True)
    joined = hash_join(v, src, on="doc_id", how="inner")

    def cnt(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({"source": b["source"].to_pandas(),
                           "error": b["error"].to_pandas()})
        g = df.groupby(["source", "error"], sort=False).size().rename("cnt").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    t = _collect(joined.map_batches(cnt, batch_format="pyarrow")).to_pandas()
    g = t.groupby(["source", "error"], sort=True)["cnt"].sum().reset_index()
    g["cnt"] = g["cnt"].astype("int64")
    return g


# ---------------------------------------------------------------------------
# emb_label_balance — training-set label-balance audit


SQL_EMB_LABEL_BALANCE = """
WITH g AS (
  SELECT CAST(label AS BIGINT) AS label, CAST(count(*) AS BIGINT) AS n
  FROM embeddings GROUP BY label
)
SELECT label, n,
       round(CAST(n AS DOUBLE) / (SELECT sum(n) FROM g), 6) AS share,
       round(CAST(n AS DOUBLE) / (SELECT max(n) FROM g), 6) AS majority_ratio,
       CAST(CASE WHEN 4 * (SELECT count(*) FROM g) * n >= (SELECT sum(n) FROM g)
                 THEN 1 ELSE 0 END AS BIGINT) AS ok
FROM g ORDER BY label
"""


@entry("emb_label_balance", sql=SQL_EMB_LABEL_BALANCE)
def q_emb_label_balance(sf_dir: str) -> pd.DataFrame:
    """Label-balance audit of a classifier training set: per-label
    counts, share, ratio to the majority class, and a pass flag
    (share >= 1/(4*k) — no class under a quarter of uniform).  The
    pre-training sanity gate for the logreg/quality-classifier stages:
    a silently skewed label column invalidates every downstream
    calibration.  One grouped-count pass; all comparisons integer
    cross-multiplications (4*k*n_label >= n_total) so the verdict has
    no float tolerance."""
    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["label"])

    def part(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({"label": b["label"].to_numpy(zero_copy_only=False)
                           .astype(np.int64)})
        g = df.groupby("label", sort=False).size().rename("n").reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    t = _collect(ds.map_batches(part, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    g = t.groupby("label", sort=True)["n"].sum().reset_index()
    total = int(g["n"].sum())
    k = len(g)
    n_max = int(g["n"].max())
    return pd.DataFrame({
        "label": g["label"].astype("int64"),
        "n": g["n"].astype("int64"),
        "share": round_half_away((g["n"] / total), 6),
        "majority_ratio": round_half_away((g["n"] / n_max), 6),
        "ok": (4 * k * g["n"] >= total).astype("int64"),
    })

