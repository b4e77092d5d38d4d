"""Catalog wave 23: iterative/streaming corpus-analysis operators —
k-core decomposition of the token co-occurrence graph (iterative peel
to fixpoint), session path mining (top first-3-event journeys),
three-step strict funnel, rendezvous-hash (HRW) sharding with a resize
relocation audit, per-type OLS trend, and bounded-memory SpaceSaving
top-k with certified exact refine.

Same driver contract as :mod:`.queries`.  The k-core twin unrolls a
FIXED number of peel rounds (idempotent once converged — peeling is
monotone, so extra rounds are no-ops); the Ray side asserts convergence
within that budget.  The HRW entry follows the repo's sidecar
convention (assignment parquet + invariant-gated re-aggregation twin,
like seq_stratified_sample) because fmix64 is not expressible in
portable SQL.
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
# seq_token_kcore — k-core of the token adjacency graph: nodes are
# token ids, an undirected edge joins tokens adjacent >= KCORE_MINCNT
# times anywhere in the corpus; the KCORE_K-core is the maximal
# subgraph where every node keeps degree >= K.  The "core vocabulary"
# of the corpus — the iterative-peel primitive (Matula & Beck 1983).

KCORE_K = 64
KCORE_MINCNT = 8
KCORE_ROUNDS = 8  # fixpoint budget; Ray asserts convergence within it


def _adjacent_pair_counts(b: pa.Table) -> pa.Table:
    """Per-batch counts of undirected adjacent token pairs ``(u, v, pn)``
    (u < v, self-pairs dropped); pairs never span a row boundary, and
    empty or null token lists contribute nothing."""
    toks = b["tokens"]
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    lens = pc.list_value_length(toks).fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
    if len(flat) == 0:
        return pa.table({"u": pa.array([], type=pa.int64()),
                         "v": pa.array([], type=pa.int64()),
                         "pn": pa.array([], type=pa.int64())})
    # adjacent pairs, excluding row boundaries: pair i is (flat[i],
    # flat[i+1]), so the pair starting at a row's last element is cut.
    # Row ends of 0 (leading empty rows) or len(flat) (trailing empty
    # rows) have no such pair — unguarded, end 0 wraps to index -1.
    ends = np.cumsum(lens)[:-1]
    ends = ends[(ends > 0) & (ends < len(flat))]
    a, b2 = flat[:-1], flat[1:]
    boundary = np.zeros(len(flat) - 1, dtype=bool)
    boundary[ends - 1] = True
    m = (~boundary) & (a != b2)
    u = np.minimum(a[m], b2[m])
    v = np.maximum(a[m], b2[m])
    t = pa.table({"u": pa.array(u), "v": pa.array(v)})
    g = t.group_by(["u", "v"]).aggregate([([], "count_all")])
    return g.rename_columns(["u", "v", "pn"])


def _kcore_sql() -> str:
    from jesse_ray.pipelines.queries import SEQ_SQL

    parts = [f"""WITH t AS (SELECT tokens FROM {SEQ_SQL} WHERE tokens IS NOT NULL),
e0 AS MATERIALIZED (
  SELECT LEAST(a, b) AS u, GREATEST(a, b) AS v FROM (
    SELECT CAST(tokens[i] AS BIGINT) AS a, CAST(tokens[i+1] AS BIGINT) AS b
    FROM (SELECT tokens, unnest(generate_series(1, len(tokens) - 1)) AS i FROM t))
  WHERE a <> b
  GROUP BY 1, 2 HAVING count(*) >= {KCORE_MINCNT}
)"""]
    prev = "e0"
    for r in range(1, KCORE_ROUNDS + 1):
        parts.append(f"""n{r} AS MATERIALIZED (
  SELECT node FROM (SELECT u AS node FROM {prev} UNION ALL SELECT v FROM {prev})
  GROUP BY 1 HAVING count(*) >= {KCORE_K}
),
e{r} AS MATERIALIZED (
  SELECT u, v FROM {prev}
  WHERE u IN (SELECT node FROM n{r}) AND v IN (SELECT node FROM n{r})
)""")
        prev = f"e{r}"
    return ",\n".join(parts) + f"""
SELECT node AS token, CAST(count(*) AS BIGINT) AS core_deg
FROM (SELECT u AS node FROM {prev} UNION ALL SELECT v FROM {prev})
GROUP BY 1 ORDER BY 1
"""


@entry("seq_token_kcore", sql=_kcore_sql())
def q_seq_token_kcore(sf_dir: str) -> pd.DataFrame:
    """Distributed peel: the edge list is built from per-batch adjacent
    undirected pair partials (one groupby-sum shuffle, domain bounded
    by vocab², pruned by the count floor); each peel round is ONE
    degree aggregation over the surviving edges plus one broadcast
    keep-set filter (node set is vocab-bounded, ray.put once per
    round).  Converges when an entire round removes nothing; asserts
    convergence within KCORE_ROUNDS so the unrolled SQL twin (same
    budget, idempotent after the fixpoint) is provably equivalent."""
    import ray

    from jesse_ray.pipelines.queries import _seq_path
    from jesse_ray.sources import read_sequences

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])

    # coarse (u,v)-hash merge instead of Ray's native 2-key groupby
    # (the native sort-based path measured 41 s on a 600k-row 2-key
    # stream; the coarse-part pattern is the repo discipline)
    def merge_edges(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby(["u", "v"], as_index=False)["pn"].sum()
        return m[m["pn"] >= KCORE_MINCNT].rename(columns={"pn": "n"})

    pair_counts = ds.map_batches(_adjacent_pair_counts, batch_format="pyarrow", zero_copy_batch=True)
    edges = map_key_buckets(pair_counts, ["u", "v"], merge_edges).materialize()

    def deg_partial(b: pa.Table) -> pa.Table:
        nodes = pa.concat_arrays([b["u"].combine_chunks() if isinstance(b["u"], pa.ChunkedArray) else b["u"],
                                  b["v"].combine_chunks() if isinstance(b["v"], pa.ChunkedArray) else b["v"]])
        t = pa.table({"node": nodes})
        g = t.group_by("node").aggregate([([], "count_all")])
        return g.rename_columns(["node", "pd"])

    _DEG_CAP = 8_000_000  # vocab-bounded partials; enforce the contract

    def _degrees(eds) -> pd.DataFrame:
        batches = list(eds.map_batches(deg_partial, batch_format="pyarrow",
                                       zero_copy_batch=True)
                       .iter_batches(batch_format="pyarrow"))
        if not batches:  # empty core (K above the graph's degeneracy)
            return pd.DataFrame({"node": pd.array([], dtype="int64"),
                                 "pd": pd.array([], dtype="int64")})
        parts = pa.concat_tables(batches)
        if parts.num_rows > _DEG_CAP:
            raise ValueError(
                f"k-core degree partials exceed {_DEG_CAP} rows — node domain "
                f"is not vocab-bounded; shard the degree merge")
        return parts.to_pandas().groupby("node", as_index=False)["pd"].sum()

    rounds = 0
    n_edges = edges.count()
    while True:
        if rounds > KCORE_ROUNDS:
            raise RuntimeError(
                f"k-core peel did not converge within {KCORE_ROUNDS} rounds — "
                f"raise KCORE_ROUNDS (and the twin's unroll budget) together")
        deg = _degrees(edges)
        keep = np.sort(deg.loc[deg["pd"] >= KCORE_K, "node"].to_numpy())
        kref = ray.put(keep) if ray.is_initialized() else keep

        def kfilter(b: pa.Table, _kref=kref) -> pa.Table:
            kk = ray.get(_kref) if ray.is_initialized() else _kref
            if len(kk) == 0:
                return b.slice(0, 0)
            u = b["u"].to_numpy(zero_copy_only=False)
            v = b["v"].to_numpy(zero_copy_only=False)
            # exact sorted-membership: position in bounds AND holds the key
            pu = np.clip(np.searchsorted(kk, u), 0, len(kk) - 1)
            pv = np.clip(np.searchsorted(kk, v), 0, len(kk) - 1)
            m = (kk[pu] == u) & (kk[pv] == v)
            return b.filter(pa.array(m))

        edges = edges.map_batches(kfilter, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()
        n2 = edges.count()
        rounds += 1
        if n2 == n_edges:
            break
        n_edges = n2

    final = _degrees(edges).sort_values("node").reset_index(drop=True)
    return pd.DataFrame({"token": final["node"].astype("int64"),
                         "core_deg": final["pd"].astype("int64")})


# ---------------------------------------------------------------------------
# events_session_paths — top first-3-event journeys per session
# (30-minute inactivity sessions, the same gap rule as events_sessions).

PATHS_TOPK = 10


def _session_paths_sql() -> str:
    from jesse_ray.pipelines.queries import SESSION_GAP_S

    return f"""
WITH o AS (
  SELECT user_id, event_id, event_type, epoch_us(ts) AS e,
         LAG(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pe
  FROM events
), s AS (
  SELECT user_id, event_id, event_type, e,
         SUM(CASE WHEN pe IS NULL OR e - pe > {SESSION_GAP_S * 1_000_000} THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY e, event_id ROWS UNBOUNDED PRECEDING) AS sid
  FROM o
), r AS (
  SELECT user_id, sid, event_type,
         row_number() OVER (PARTITION BY user_id, sid ORDER BY e, event_id) AS rn
  FROM s
), p AS (
  SELECT user_id, sid, string_agg(event_type, '>' ORDER BY rn) AS path
  FROM r WHERE rn <= 3 GROUP BY 1, 2
)
SELECT path, CAST(count(*) AS BIGINT) AS n_sessions
FROM p GROUP BY 1
ORDER BY n_sessions DESC, path
LIMIT {PATHS_TOPK}
"""


@entry("events_session_paths", sql=_session_paths_sql())
def q_events_session_paths(sf_dir: str) -> pd.DataFrame:
    """Session path mining: one coarse user-hash shuffle, per-part
    mergesort by (user, ts, event_id), vectorized gap/session-boundary
    marks, then the first-3-type join per session via segment-head
    indexing — no per-session Python.  Global path counts fold through
    a tiny groupby; top-10 by (count desc, path asc)."""
    from jesse_ray.pipelines.queries import SESSION_GAP_S

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "user_id", "ts", "event_type"])
    gap_us = np.int64(SESSION_GAP_S * 1_000_000)

    def paths(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts = g["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        new_user = np.empty(len(g), dtype=bool)
        new_user[0] = True
        new_user[1:] = uid[1:] != uid[:-1]
        gap = np.empty(len(g), dtype=bool)
        gap[0] = True
        gap[1:] = (ts[1:] - ts[:-1]) > gap_us
        start = new_user | gap
        starts = np.flatnonzero(start)
        lens = np.diff(np.append(starts, len(g)))
        path = et[starts].astype(object).copy()
        m2 = lens >= 2
        path[m2] = path[m2] + ">" + et[starts[m2] + 1].astype(object)
        m3 = lens >= 3
        path[m3] = path[m3] + ">" + et[starts[m3] + 2].astype(object)
        out = pd.DataFrame({"path": path})
        return out.groupby("path", as_index=False).size().rename(columns={"size": "pn"})

    parts = map_key_buckets(ds, ["user_id"], paths)
    merged = _collect(parts).to_pandas().groupby("path", as_index=False)["pn"].sum()
    merged = merged.rename(columns={"pn": "n_sessions"})
    merged = merged.sort_values(["n_sessions", "path"],
                                ascending=[False, True]).head(PATHS_TOPK)
    merged["n_sessions"] = merged["n_sessions"].astype("int64")
    return merged.reset_index(drop=True)


# ---------------------------------------------------------------------------
# events_funnel3 — strict three-step funnel signup → purchase → click,
# conversion bounded by a 7-day window from the first signup.

F3_WINDOW_DAYS = 7


SQL_EVENTS_FUNNEL3 = f"""
WITH s AS (
  SELECT user_id, min(epoch_us(ts)) AS st FROM events
  WHERE event_type = 'signup' GROUP BY 1
), p AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS pt, any_value(s.st) AS st
  FROM events e JOIN s USING (user_id)
  WHERE e.event_type = 'purchase' AND epoch_us(e.ts) >= s.st GROUP BY 1
), c AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS ct, any_value(p.st) AS st
  FROM events e JOIN p USING (user_id)
  WHERE e.event_type = 'click' AND epoch_us(e.ts) >= p.pt GROUP BY 1
)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM s) AS n_signup,
       (SELECT CAST(count(*) AS BIGINT) FROM p) AS n_purchase,
       (SELECT CAST(count(*) AS BIGINT) FROM c) AS n_click,
       (SELECT CAST(count(*) AS BIGINT) FROM c
        WHERE ct - st <= {F3_WINDOW_DAYS * 86_400_000_000}) AS n_converted
"""


@entry("events_funnel3_windowed", sql=SQL_EVENTS_FUNNEL3)
def q_events_funnel3(sf_dir: str) -> pd.DataFrame:
    """Per user: first signup s, first purchase at-or-after s, first
    click at-or-after that purchase; converted when click − signup ≤ 7
    days.  One coarse user-hash shuffle of the three-type slice; inside
    a part each stage is a groupby-min + merge (users co-locate, so no
    cross-part state), partial stage counts fold to one global row."""
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["user_id", "ts", "event_type"])
    win_us = np.int64(F3_WINDOW_DAYS * 86_400_000_000)

    def three_types(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b["event_type"], value_set=pa.array(["signup", "purchase", "click"])))

    def stage(g: pd.DataFrame) -> pd.DataFrame:
        e = g["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
        g = g.assign(e=e)
        s = (g[g["event_type"] == "signup"].groupby("user_id", as_index=False)["e"]
             .min().rename(columns={"e": "st"}))
        p = g[g["event_type"] == "purchase"].merge(s, on="user_id")
        p = (p[p["e"] >= p["st"]].groupby("user_id", as_index=False)
             .agg(pt=("e", "min"), st=("st", "first")))
        c = g[g["event_type"] == "click"].merge(p, on="user_id")
        c = (c[c["e"] >= c["pt"]].groupby("user_id", as_index=False)
             .agg(ct=("e", "min"), st=("st", "first")))
        conv = c[c["ct"] - c["st"] <= win_us]
        return pd.DataFrame({"n_signup": [len(s)], "n_purchase": [len(p)],
                             "n_click": [len(c)], "n_converted": [len(conv)]})

    slim = ds.map_batches(three_types, batch_format="pyarrow", zero_copy_batch=True)
    parts = map_key_buckets(slim, ["user_id"], stage)
    agg = _collect(parts).to_pandas().sum()
    return pd.DataFrame({k: pd.array([int(agg[k])], dtype="int64")
                         for k in ["n_signup", "n_purchase", "n_click", "n_converted"]})


# ---------------------------------------------------------------------------
# doc_hrw_shards — rendezvous (highest-random-weight) sharding:
# owner(doc) = argmax over nodes of fmix64(hash(doc) ^ salt(node)).
# Emits the per-shard counts at N=8 plus the relocation count when a
# 9th node joins — HRW's guarantee is that ONLY docs whose argmax is
# the new node move (~1/(N+1) of the corpus), vs ~8/9 for mod-N.

HRW_N = 8


SQL_DOC_HRW_SHARDS = """
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/hrw_shards_sigs_sf0.01.parquet')),
ok AS (
  SELECT (SELECT count(*) FROM s) = (SELECT count(*) FROM documents)
     AND (SELECT count(*) FROM s WHERE NOT EXISTS (
            SELECT 1 FROM documents d WHERE d.doc_id = s.doc_id)) = 0
     AND (SELECT count(DISTINCT doc_id) FROM s) = (SELECT count(*) FROM s)
     AND (SELECT count(*) FROM s WHERE shard8 < 0 OR shard8 >= 8
                                    OR shard9 < 0 OR shard9 >= 9) = 0
     AND (SELECT count(*) FROM s WHERE shard9 <> shard8 AND shard9 <> 8) = 0 AS good
)
SELECT shard8, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CASE WHEN shard9 = 8 THEN 1 ELSE 0 END) AS BIGINT) AS relocated
FROM s GROUP BY shard8
HAVING (SELECT good FROM ok)
ORDER BY shard8
"""


@entry("doc_hrw_shards", sql=SQL_DOC_HRW_SHARDS)
def q_doc_hrw_shards(sf_dir: str) -> pd.DataFrame:
    """One map_batches pass computes both assignments (vectorized
    argmax over the N-column fmix64 weight matrix, no per-doc Python);
    the sidecar parquet carries (doc_id, shard8, shard9) and the twin
    gates on HRW's defining invariants — assignment is a permutation of
    the corpus, every shard in range, and NO doc moved to a shard other
    than the new node — then re-aggregates the counts (fmix64 itself is
    not portable SQL; same convention as seq_stratified_sample)."""
    from jesse_ray.hashutil import fmix64, hash64_strings
    from jesse_ray.pipelines.queries import _sig_parquet_path

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def assign(b: pa.Table) -> pa.Table:
        ids = b["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        h = hash64_strings(ids).astype(np.uint64)
        w = np.empty((len(h), HRW_N + 1), dtype=np.uint64)
        for node in range(HRW_N + 1):
            salt = np.uint64(0x9E3779B97F4A7C15) * np.uint64(node + 1)
            w[:, node] = fmix64(h ^ salt)
        s8 = np.argmax(w[:, :HRW_N], axis=1).astype(np.int64)
        s9 = np.argmax(w, axis=1).astype(np.int64)
        return pa.table({"doc_id": b["doc_id"],
                         "shard8": pa.array(s8), "shard9": pa.array(s9)})

    t = _collect(ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True))
    pq.write_table(t.sort_by("doc_id"), _sig_parquet_path(sf_dir, "hrw_shards"))
    pdf = t.to_pandas()
    out = (pdf.groupby("shard8", as_index=False)
           .agg(n_docs=("doc_id", "size"),
                relocated=("shard9", lambda s: int((s == HRW_N).sum()))))
    out["shard8"] = out["shard8"].astype("int64")
    out["n_docs"] = out["n_docs"].astype("int64")
    out["relocated"] = out["relocated"].astype("int64")
    return out.sort_values("shard8").reset_index(drop=True)


# ---------------------------------------------------------------------------
# events_ols_by_type — per-type OLS trend of purchase-value cents on
# day number: slope/intercept from one int64-exact combiner pass.

SQL_EVENTS_OLS_BY_TYPE = """
WITH m AS (
  SELECT event_type, CAST(count(*) AS BIGINT) AS n,
         sum(x) AS sx, sum(y) AS sy, sum(x * y) AS sxy, sum(x * x) AS sxx
  FROM (SELECT event_type,
               CAST(floor((epoch_us(ts) - epoch_us(TIMESTAMP '2024-01-01')) / 86400000000.0) AS BIGINT) AS x,
               CAST(round(value * 100) AS BIGINT) AS y
        FROM events WHERE value IS NOT NULL)
  GROUP BY 1
)
SELECT event_type, n,
       round((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
             / (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)), 6)
         AS slope_cents_per_day,
       round((CAST(sy AS DOUBLE)
              - ((CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
                 / (CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE) - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE)))
                * CAST(sx AS DOUBLE)) / CAST(n AS DOUBLE), 4) AS intercept_cents
FROM m ORDER BY event_type
"""


@entry("events_ols_by_type", sql=SQL_EVENTS_OLS_BY_TYPE)
def q_events_ols_by_type(sf_dir: str) -> pd.DataFrame:
    """Closed-form OLS per group from (n, Σx, Σy, Σxy, Σx²) — x is the
    integer day number since 2024-01-01, y integer cents, so every sum
    is exact int64 and the float slope/intercept evaluate in the twin's
    exact op order."""
    from ray.data.aggregate import Sum as _Sum

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_type", "ts", "value"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["value"]))
        e = t["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        epoch0 = np.int64(np.datetime64("2024-01-01", "us").astype(np.int64))
        x = pc.cast(pc.floor(pc.divide(pc.subtract(e, pa.scalar(int(epoch0), type=pa.int64())),
                                       pa.scalar(86_400_000_000.0))), pa.int64())
        y = pc.cast(pc.round(pc.multiply(t["value"], 100.0)), pa.int64())
        g = pa.table({
            "event_type": t["event_type"], "n": pa.array(np.ones(t.num_rows, dtype=np.int64)),
            "sx": x, "sy": y, "sxy": pc.multiply(x, y), "sxx": pc.multiply(x, x),
        })
        return (g.group_by("event_type")
                .aggregate([("n", "sum"), ("sx", "sum"), ("sy", "sum"),
                            ("sxy", "sum"), ("sxx", "sum")])
                .rename_columns(["event_type", "n", "sx", "sy", "sxy", "sxx"]))

    m = _collect(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(_Sum("n", alias_name="n"), _Sum("sx", alias_name="sx"),
                   _Sum("sy", alias_name="sy"), _Sum("sxy", alias_name="sxy"),
                   _Sum("sxx", alias_name="sxx"))
    ).to_pandas().sort_values("event_type").reset_index(drop=True)

    n = m["n"].to_numpy(dtype=np.float64)
    sx = m["sx"].to_numpy(dtype=np.float64)
    sy = m["sy"].to_numpy(dtype=np.float64)
    sxy = m["sxy"].to_numpy(dtype=np.float64)
    sxx = m["sxx"].to_numpy(dtype=np.float64)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return pd.DataFrame({
        "event_type": m["event_type"],
        "n": m["n"].astype("int64"),
        "slope_cents_per_day": round_half_away(slope, 6),
        "intercept_cents": round_half_away(intercept, 4),
    })


# ---------------------------------------------------------------------------
# seq_spacesaving_topk — bounded-memory heavy hitters: per-block
# truncated summaries with a per-block dropped-mass ceiling, merged
# bounds CERTIFY the exact top-k identity, then one broadcast-probe
# pass refines exact counts (candidate-generation + exact-refine, the
# at-scale pattern; Metwally et al. 2005).

SS_CAPACITY = 16384
SS_K = 5


def _spacesaving_sql() -> str:
    from jesse_ray.pipelines.queries import SEQ_SQL

    return f"""
SELECT CAST(t AS BIGINT) AS token, CAST(count(*) AS BIGINT) AS cnt
FROM (SELECT unnest(tokens) AS t FROM {SEQ_SQL} WHERE tokens IS NOT NULL)
GROUP BY 1 ORDER BY cnt DESC, token LIMIT {SS_K}
"""


@entry("seq_spacesaving_topk", sql=_spacesaving_sql())
def q_seq_spacesaving_topk(sf_dir: str) -> pd.DataFrame:
    """Each block keeps only its top-``SS_CAPACITY`` tokens by exact
    local count plus the max dropped count t_b; merging sums the kept
    counts (lower bound) while any token absent from a block can hide
    at most that block's t_b (upper bound).  The run ASSERTS the
    certification gap — the k-th candidate's lower bound must exceed
    every non-candidate's upper bound — so the reported identity is
    provably the exact top-k, and the final exact pass (broadcast the k
    tokens, one filtered count) makes the emitted counts exact."""
    import ray

    from jesse_ray.pipelines.queries import _seq_path
    from jesse_ray.sources import read_sequences
    from ray.data.aggregate import Sum as _Sum

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])

    def summary(b: pa.Table) -> pa.Table:
        toks = b["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(flat) == 0:
            return pa.table({"token": pa.array([], type=pa.int64()),
                             "cnt": pa.array([], type=pa.int64()),
                             "tb": pa.array([], type=pa.int64())})
        vals, counts = np.unique(flat, return_counts=True)
        if len(vals) > SS_CAPACITY:
            o = np.lexsort((vals, -counts))
            kept, dropped = o[:SS_CAPACITY], o[SS_CAPACITY:]
            tb = int(counts[dropped].max())
            vals, counts = vals[kept], counts[kept]
        else:
            tb = 0
        # tb_first carries the block's ceiling on its FIRST row only, so
        # T = plain sum survives any downstream re-batching (splitting a
        # summary would double-count a per-batch scalar; a row-level
        # one-hot cannot)
        tbf = np.zeros(len(vals), dtype=np.int64)
        if len(tbf):
            tbf[0] = tb
        return pa.table({"token": pa.array(vals), "cnt": pa.array(counts),
                         "tb": pa.array(np.full(len(vals), tb, dtype=np.int64)),
                         "tb_first": pa.array(tbf)})

    summaries = ds.map_batches(summary, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=None).materialize()
    tbs = _collect(summaries.map_batches(
        lambda b: pa.table({"t": pa.array([int(pc.sum(b["tb_first"]).as_py() or 0)],
                                          type=pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True))
    T = int(pc.sum(tbs["t"]).as_py() or 0)

    merged = _collect(summaries.groupby("token").aggregate(
        _Sum("cnt", alias_name="est"), _Sum("tb", alias_name="tb_present"))).to_pandas()
    merged["upper"] = merged["est"] + (T - merged["tb_present"])
    merged = merged.sort_values(["est", "token"],
                                ascending=[False, True]).reset_index(drop=True)
    cand = merged.head(SS_K)
    kth_lower = int(cand["est"].iloc[-1])
    rest_upper = int(merged["upper"].iloc[SS_K:].max()) if len(merged) > SS_K else T
    if kth_lower <= max(rest_upper, T):
        raise RuntimeError(
            f"SpaceSaving certification failed: kth lower bound {kth_lower} does not "
            f"dominate the residual upper bound {max(rest_upper, T)} — raise SS_CAPACITY")

    want = np.sort(cand["token"].to_numpy())
    wref = ray.put(want) if ray.is_initialized() else want

    def exact_partial(b: pa.Table, _wref=wref) -> pa.Table:
        ww = ray.get(_wref) if ray.is_initialized() else _wref
        toks = b["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(ww, flat)
        m = (pos < len(ww))
        m &= np.where(m, np.take(ww, np.minimum(pos, len(ww) - 1)) == flat, False)
        vals, counts = np.unique(flat[m], return_counts=True)
        return pa.table({"token": pa.array(vals), "pn": pa.array(counts)})

    exact = _collect(ds.map_batches(exact_partial, batch_format="pyarrow",
                                    zero_copy_batch=True)
                     .groupby("token").aggregate(_Sum("pn", alias_name="cnt"))).to_pandas()
    exact = exact.sort_values(["cnt", "token"], ascending=[False, True]).reset_index(drop=True)
    return pd.DataFrame({"token": exact["token"].astype("int64"),
                         "cnt": exact["cnt"].astype("int64")})

