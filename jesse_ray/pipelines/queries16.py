"""Catalog wave 16: embedding-label consistency and per-source
duplication mass — k-NN label purity (is the label structure visible
in the embedding geometry?) and the share of each source's rows that
are exact content duplicates.

Same driver contract as :mod:`.queries`."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, entry
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.rounding import round_half_away


# ---------------------------------------------------------------------------
# emb_knn_purity — mean share of each vector's 5 nearest cosine
# neighbors that carry ITS label, averaged per label.

_KNN_PURITY_K = 5


SQL_EMB_KNN_PURITY = f"""
WITH e AS (
  SELECT vec_id, unnest(embedding) AS x, generate_subscripts(embedding, 1) AS i
  FROM embeddings
),
nrm AS (SELECT vec_id, sqrt(sum(x * x)) AS nv FROM e GROUP BY 1),
u AS (SELECT e.vec_id, e.i, e.x / nrm.nv AS x FROM e JOIN nrm USING (vec_id)),
d AS (
  SELECT a.vec_id AS va, b.vec_id AS vb, sum(a.x * b.x) AS s
  FROM u a JOIN u b ON a.i = b.i AND a.vec_id <> b.vec_id
  GROUP BY 1, 2
),
r AS (SELECT va, vb, row_number() OVER (PARTITION BY va ORDER BY s DESC, vb ASC) AS rn FROM d),
n5 AS (SELECT va, vb FROM r WHERE rn <= {_KNN_PURITY_K}),
lj AS (
  SELECT n5.va, la.label AS own, lb.label AS nb
  FROM n5 JOIN embeddings la ON la.vec_id = n5.va
          JOIN embeddings lb ON lb.vec_id = n5.vb
),
pp AS (SELECT va, own, avg(CASE WHEN nb = own THEN 1.0 ELSE 0.0 END) AS pur
       FROM lj GROUP BY 1, 2)
SELECT CAST(own AS BIGINT) AS label, CAST(count(*) AS BIGINT) AS n,
       round(avg(pur), 5) AS purity
FROM pp GROUP BY 1 ORDER BY 1
"""


@entry("emb_knn_purity", sql=SQL_EMB_KNN_PURITY)
def q_emb_knn_purity(sf_dir: str) -> pd.DataFrame:
    """Label-consistency audit of the embedding space: purity(v) =
    |{top-5 neighbors with label(v)}| / 5, averaged per label — random
    labels score ≈ label share, separable classes ≈ 1.  Scale shape:
    the distributed exact k-NN graph (block streaming), labels
    attached via two hash cogroup joins (never a broadcast of the
    corpus-sized label column), per-vector purity in one vec-hash
    shuffle, a ≤ #labels mean grid."""
    from jesse_ray.functions.similarity import knn_graph
    from jesse_ray.pipelines.relational import hash_join

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    labels = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label"]) \
        .map_batches(lambda b: pa.table({"vec_id": b["vec_id"],
                                         "label": b["label"].cast(pa.int64())}),
                     batch_format="pyarrow", zero_copy_batch=True)
    g = knn_graph(ds, k=_KNN_PURITY_K)
    own = hash_join(g, labels, on="vec_id", how="inner")
    nb_labels = labels.map_batches(
        lambda b: pa.table({"neighbor_id": b["vec_id"], "nb_label": b["label"]}),
        batch_format="pyarrow", zero_copy_batch=True)
    both = hash_join(own, nb_labels, on="neighbor_id", how="inner")

    def per_part(g2: pd.DataFrame) -> pd.DataFrame:
        g2["hit"] = (g2["label"] == g2["nb_label"]).astype("float64")
        per_vec = g2.groupby(["vec_id", "label"], as_index=False)["hit"].mean()
        out = per_vec.groupby("label", as_index=False).agg(
            s=("hit", "sum"), n=("hit", "count"))
        return out.astype({"label": "int64", "n": "int64"})

    m = _collect(map_key_buckets(both, ["vec_id"], per_part)) \
        .to_pandas().groupby("label", as_index=False).sum().sort_values("label")
    return pd.DataFrame({"label": m["label"].astype("int64").to_numpy(),
                         "n": m["n"].astype("int64").to_numpy(),
                         "purity": round_half_away(m["s"] / m["n"], 5)}).reset_index(drop=True)


# ---------------------------------------------------------------------------
# seq_dup_mass_by_source — which sources carry the duplication?  Share
# of each source's rows whose token content occurs ≥ 2 times WITHIN the
# source.


SQL_SEQ_DUP_MASS_BY_SOURCE = f"""
WITH g AS (SELECT source, tokens, count(*) AS c FROM {SEQ_SQL} GROUP BY 1, 2)
SELECT source, CAST(sum(c) AS BIGINT) AS n_rows,
       CAST(sum(CASE WHEN c >= 2 THEN c ELSE 0 END) AS BIGINT) AS dup_rows,
       round(sum(CASE WHEN c >= 2 THEN c ELSE 0 END) * 1.0 / sum(c), 5) AS dup_share
FROM g GROUP BY 1 ORDER BY 1
"""


@entry("seq_dup_mass_by_source", sql=SQL_SEQ_DUP_MASS_BY_SOURCE)
def q_seq_dup_mass_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source duplicate-row mass: rows in within-source content
    clusters of size ≥ 2, as count and share.  Scale shape: 128-bit
    content hashing, one coarse (source, hash) shuffle, per-part
    cluster sizes → per-source (rows, dup_rows) partials; the twin
    groups by the raw token list so collisions would fail it."""
    from jesse_ray.functions.dedup import add_token_hash

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "tokens"])
    hashed = add_token_hash(ds, tokens_col="tokens", out_col="__h") \
        .map_batches(lambda b: pa.table({"source": b["source"], "__h": b["__h"]}),
                     batch_format="pyarrow", zero_copy_batch=True)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        sz = g.groupby(["source", "__h"], as_index=False).size()
        tot = sz.groupby("source", as_index=False)["size"].sum() \
            .rename(columns={"size": "n_rows"})
        dups = sz[sz["size"] >= 2].groupby("source", as_index=False)["size"].sum() \
            .rename(columns={"size": "dup_rows"})
        out = tot.merge(dups, on="source", how="left").fillna({"dup_rows": 0})
        return out.astype({"n_rows": "int64", "dup_rows": "int64"})

    m = _collect(map_key_buckets(hashed, ["source", "__h"], per_part)) \
        .to_pandas().groupby("source", as_index=False).sum().sort_values("source")
    return pd.DataFrame({
        "source": m["source"].to_numpy(),
        "n_rows": m["n_rows"].astype("int64").to_numpy(),
        "dup_rows": m["dup_rows"].astype("int64").to_numpy(),
        "dup_share": round_half_away(m["dup_rows"].to_numpy(dtype=np.float64)
                              / m["n_rows"].to_numpy(dtype=np.float64), 5),
    }).reset_index(drop=True)

