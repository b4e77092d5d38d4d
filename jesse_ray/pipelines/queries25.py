"""Catalog wave 25: data-selection and IR-evaluation operators —
greedy k-center coreset selection (farthest-point-first, Gonzalez
1985), rank-biased overlap between two retrieval rankings (Webber et
al. 2010), and blocked exact WEIGHTED Jaccard near-dup pairs (the
tf-weighted dedup family member; integer-truth emission).

Same driver contract as :mod:`.queries`."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.rounding import round_half_away
from jesse_ray.sources import read_table

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


# ---------------------------------------------------------------------------
# emb_kcenter_coreset — greedy k-center over cosine distance from seed
# vec_id=0: each step one distributed argmax pass (ranks-only emission,
# the emb_topk float-discipline convention).

KC_K = 5


def _kcenter_sql() -> str:
    parts = ["WITH s1 AS (SELECT vec_id, embedding FROM embeddings WHERE vec_id = 0)"]
    prev = ["s1"]
    for t in range(2, KC_K + 1):
        union = " UNION ALL ".join(f"SELECT vec_id FROM {p}" for p in prev)
        dists = " , ".join(
            f"(SELECT 1.0 - list_cosine_similarity(e.embedding, s.embedding) FROM {p} s)"
            for p in prev)
        dmin = f"least({dists})" if len(prev) > 1 else dists
        parts.append(
            f"s{t} AS (SELECT e.vec_id, e.embedding FROM embeddings e "
            f"WHERE e.vec_id NOT IN ({union}) "
            f"ORDER BY {dmin} DESC, e.vec_id ASC LIMIT 1)")
        prev.append(f"s{t}")
    sel = " UNION ALL ".join(
        f"SELECT {i + 1} AS rank, vec_id FROM s{i + 1}" for i in range(KC_K))
    return ",\n".join(parts) + (
        f"\nSELECT CAST(rank AS BIGINT) AS rank, vec_id FROM ({sel}) ORDER BY rank")


@entry("emb_kcenter_coreset", sql=_kcenter_sql())
def q_emb_kcenter_coreset(sf_dir: str) -> pd.DataFrame:
    """similarity.kcenter_select: the selected set broadcasts once per
    step, every batch emits a 1-row local farthest-point partial, the
    driver reduces n_blocks rows.  The twin unrolls the same greedy
    loop as chained CTEs with LEAST-over-selected min-distances."""
    from jesse_ray.functions.similarity import kcenter_select

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return kcenter_select(ds, k=KC_K, seed_id=0)


# ---------------------------------------------------------------------------
# doc_rbo_rankers — rank-biased overlap (truncated RBO_min, p=0.9,
# depth 20) between the BM25 ranking and the plain term-frequency
# ranking for the same disjunctive query.  Emits the per-depth
# intersection sizes (integer truth) plus the RBO sum.

RBO_P = 0.9
RBO_DEPTH = 20


def _rbo_sql() -> str:
    from jesse_ray.pipelines.queries import SEARCH_TERMS, SQL_DOC_BM25

    terms_sql = ", ".join(f"'{t}'" for t in SEARCH_TERMS)
    bm25_body = SQL_DOC_BM25.strip().rstrip()
    return f"""
WITH a AS MATERIALIZED (
  SELECT doc_id, row_number() OVER (ORDER BY score DESC, doc_id) AS ra
  FROM ({bm25_body})
),
w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word FROM documents),
btf AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS tf FROM w
        WHERE word IN ({terms_sql}) GROUP BY doc_id),
b AS MATERIALIZED (
  SELECT doc_id, row_number() OVER (ORDER BY tf DESC, doc_id) AS rb
  FROM btf ORDER BY tf DESC, doc_id LIMIT {RBO_DEPTH}
),
m AS (SELECT greatest(a.ra, b.rb) AS first_depth
      FROM a JOIN b USING (doc_id)),
d AS (SELECT unnest(generate_series(1, {RBO_DEPTH})) AS depth),
grid AS (
  SELECT d.depth,
         CAST((SELECT count(*) FROM m WHERE first_depth <= d.depth) AS BIGINT) AS inter
  FROM d
),
rbo AS (
  SELECT round((1.0 - {RBO_P}) * sum(power({RBO_P}, depth - 1) * inter / depth
                                      ORDER BY depth), 6) AS v
  FROM grid
)
SELECT depth, inter, (SELECT v FROM rbo) AS rbo_min
FROM grid ORDER BY depth
"""


@entry("doc_rbo_rankers", sql=_rbo_sql())
def q_doc_rbo_rankers(sf_dir: str) -> pd.DataFrame:
    """Both rankings run distributed (text.bm25_search and a sum-tf
    scorer with the same per-batch top-k partial shape); the RBO fold
    is a 20-term closed form on the driver evaluated in the twin's
    exact op order (ascending depth, identical per-term doubles)."""
    from jesse_ray.functions.text import bm25_search
    from jesse_ray.pipelines.queries import SEARCH_TERMS

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    a = bm25_search(ds, SEARCH_TERMS, k=RBO_DEPTH)
    a_ids = list(a["doc_id"].to_pylist() if isinstance(a, pa.Table) else a["doc_id"])

    # ranker B: plain summed term frequency (desc, doc_id asc)
    terms = set(SEARCH_TERMS)

    def tf_partial(b: pa.Table) -> pa.Table:
        txt = pc.fill_null(b["text"], "")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        words = pc.split_pattern(txt, " ")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        m = pc.is_in(flat, value_set=pa.array(sorted(terms)))
        hits = parent.filter(m).to_numpy(zero_copy_only=False)
        cnt = np.bincount(hits, minlength=b.num_rows).astype(np.int64)
        ids = b["doc_id"]
        t = pa.table({"doc_id": ids, "tf": pa.array(cnt)})
        t = t.filter(pc.greater(t["tf"], 0))
        # local top-k partial
        p = t.to_pandas().sort_values(["tf", "doc_id"],
                                      ascending=[False, True]).head(RBO_DEPTH)
        return pa.Table.from_pandas(p, preserve_index=False)

    bt = _collect(ds.map_batches(tf_partial, batch_format="pyarrow",
                                 zero_copy_batch=True)).to_pandas()
    bt = bt.sort_values(["tf", "doc_id"], ascending=[False, True]).head(RBO_DEPTH)
    b_ids = bt["doc_id"].tolist()

    ra = {d: i + 1 for i, d in enumerate(a_ids)}
    rb = {d: i + 1 for i, d in enumerate(b_ids)}
    both = set(ra) & set(rb)
    depth_of = sorted(max(ra[d], rb[d]) for d in both)
    inter = [int(np.searchsorted(depth_of, d, side="right")) for d in range(1, RBO_DEPTH + 1)]
    rbo = 0.0
    for d in range(1, RBO_DEPTH + 1):
        rbo = rbo + (RBO_P ** (d - 1)) * inter[d - 1] / d
    rbo = (1.0 - RBO_P) * rbo
    return pd.DataFrame({
        "depth": pd.array(range(1, RBO_DEPTH + 1), dtype="int64"),
        "inter": pd.array(inter, dtype="int64"),
        "rbo_min": pd.array([round_half_away(rbo, 6)] * RBO_DEPTH, dtype="float64"),
    })


# ---------------------------------------------------------------------------
# doc_weighted_jaccard — blocked exact WEIGHTED Jaccard pairs:
# J_w(A,B) = Σ_w min(tf_A, tf_B) / Σ_w max(tf_A, tf_B), candidates
# blocked on the docs' dominant word (max tf, ties to the smallest
# word).  Integer-truth emission: (inter_w, union_w) exact int64.

WJ_MIN_NUM = 1  # emit pairs with J_w >= 1/3 (3*inter >= union)
WJ_MIN_DEN = 3


SQL_DOC_WEIGHTED_JACCARD = f"""
WITH tf AS MATERIALIZED (
  SELECT doc_id, word, CAST(count(*) AS BIGINT) AS tf
  FROM (SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS word
        FROM documents)
  GROUP BY 1, 2
),
r AS (
  SELECT doc_id, word,
         row_number() OVER (PARTITION BY doc_id ORDER BY tf DESC, word) AS rn
  FROM tf
),
k AS MATERIALIZED (
  SELECT doc_id,
         max(CASE WHEN rn = 1 THEN word END) || '|'
           || coalesce(max(CASE WHEN rn = 2 THEN word END), '') AS block
  FROM r WHERE rn <= 2 GROUP BY doc_id
),
cand AS MATERIALIZED (
  SELECT a.doc_id AS l, b.doc_id AS r
  FROM k a JOIN k b ON a.block = b.block AND a.doc_id < b.doc_id
),
inter AS (
  SELECT c.l, c.r, sum(least(ta.tf, tb.tf)) AS iw
  FROM cand c
  JOIN tf ta ON ta.doc_id = c.l
  JOIN tf tb ON tb.doc_id = c.r AND tb.word = ta.word
  GROUP BY 1, 2
),
tot AS (SELECT doc_id, sum(tf) AS s FROM tf GROUP BY 1)
SELECT c.l AS "left", c.r AS "right",
       CAST(coalesce(i.iw, 0) AS BIGINT) AS inter_w,
       CAST(tl.s + tr.s - coalesce(i.iw, 0) AS BIGINT) AS union_w
FROM cand c
LEFT JOIN inter i ON i.l = c.l AND i.r = c.r
JOIN tot tl ON tl.doc_id = c.l
JOIN tot tr ON tr.doc_id = c.r
WHERE {WJ_MIN_DEN} * coalesce(i.iw, 0) >= {WJ_MIN_NUM} * (tl.s + tr.s - coalesce(i.iw, 0))
ORDER BY 1, 2
"""


@entry("doc_weighted_jaccard", sql=SQL_DOC_WEIGHTED_JACCARD)
def q_doc_weighted_jaccard(sf_dir: str) -> pd.DataFrame:
    """One (top-2 dominant words)-keyed coarse shuffle co-locates each
    block's docs with their tf vectors; inside a part the pair grid is
    a vectorized double merge (pairs × words via two tf joins), and the
    min/max sums are integer-exact.  Blocking is a RECALL choice (only
    pairs sharing their two highest-tf words — ties to the smaller
    word — are candidates); the twin uses the identical blocking rule.

    Scale contract: on real text (vocabulary >> documents) dominant-pair
    blocks are small and the pair grid is near-linear.  On the synthetic
    corpus at sf1 the 40-word vocabulary makes >20k of 50k docs share a
    top-2 pair AND most of those pairs genuinely exceed J_w >= 1/3 — the
    TRUE answer is quadratic (billions of pairs), so the per-block guard
    REFUSES loudly instead of silently attempting it (the same
    raise-on-skew discipline as prefix_jaccard's skew cap).  Tighten the
    threshold or add a similarity-preserving sub-key to proceed on such
    corpora."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def tf_rows(b: pa.Table) -> pd.DataFrame:
        txt = pc.fill_null(b["text"], "")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        words = pc.split_pattern(txt, " ")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        ids = b["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        t = pa.table({"doc_id": ids.take(parent), "word": flat})
        g = (t.group_by(["doc_id", "word"]).aggregate([([], "count_all")])
             .rename_columns(["doc_id", "word", "tf"])).to_pandas()
        # top-2 words per doc in THIS batch == global top-2 because a
        # doc's text never splits across batches (one row per doc)
        srt = g.sort_values(["doc_id", "tf", "word"],
                            ascending=[True, False, True], kind="mergesort")
        top2 = srt.groupby("doc_id").head(2).copy()
        top2["rn"] = top2.groupby("doc_id").cumcount()
        w1 = top2[top2["rn"] == 0][["doc_id", "word"]].rename(columns={"word": "w1"})
        w2 = top2[top2["rn"] == 1][["doc_id", "word"]].rename(columns={"word": "w2"})
        key = w1.merge(w2, on="doc_id", how="left")
        key["block"] = key["w1"] + "|" + key["w2"].fillna("")
        return g.merge(key[["doc_id", "block"]], on="doc_id")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        key = g[["doc_id", "block"]].drop_duplicates()
        bmax = int(key.groupby("block").size().max()) if len(key) else 0
        if bmax > 10_000:
            raise ValueError(
                f"weighted-jaccard block of {bmax} docs exceeds the quadratic "
                f"pair budget — refine the blocking key (add a second term)")
        cand = key.merge(key, on="block")
        cand = cand[cand["doc_id_x"] < cand["doc_id_y"]][["doc_id_x", "doc_id_y"]]
        if cand.empty:
            return pd.DataFrame({"left": [], "right": [], "inter_w": [], "union_w": []})
        tf = g[["doc_id", "word", "tf"]]
        a = cand.merge(tf, left_on="doc_id_x", right_on="doc_id")[
            ["doc_id_x", "doc_id_y", "word", "tf"]].rename(columns={"tf": "fa"})
        b = cand.merge(tf, left_on="doc_id_y", right_on="doc_id")[
            ["doc_id_x", "doc_id_y", "word", "tf"]].rename(columns={"tf": "fb"})
        u = a.merge(b, on=["doc_id_x", "doc_id_y", "word"], how="outer")
        u["fa"] = u["fa"].fillna(0).astype(np.int64)
        u["fb"] = u["fb"].fillna(0).astype(np.int64)
        u["mn"] = np.minimum(u["fa"], u["fb"])
        u["mx"] = np.maximum(u["fa"], u["fb"])
        s = u.groupby(["doc_id_x", "doc_id_y"], as_index=False).agg(
            inter_w=("mn", "sum"), union_w=("mx", "sum"))
        s = s[WJ_MIN_DEN * s["inter_w"] >= WJ_MIN_NUM * s["union_w"]]
        return s.rename(columns={"doc_id_x": "left", "doc_id_y": "right"})

    rows = ds.map_batches(tf_rows, batch_format="pyarrow")
    out = _collect(map_key_buckets(rows, ["block"], pairs)).to_pandas()
    out = out.sort_values(["left", "right"]).reset_index(drop=True)
    return pd.DataFrame({
        "left": out["left"], "right": out["right"],
        "inter_w": out["inter_w"].astype("int64"),
        "union_w": out["union_w"].astype("int64"),
    })

