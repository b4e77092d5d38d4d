"""Catalog wave 34: entity-resolution evaluation — blocking quality
metrics (reduction ratio and pair completeness) for the top-2-
dominant-word blocking key against the exact-duplicate ground truth.
The standard ER diagnostic pair (Christen 2012): RR measures how much
of the quadratic comparison space the blocking prunes, PC how many
true matches survive the pruning.

Same driver contract as :mod:`.queries`; all metrics emitted as exact
integers (pair counts) so the twin is bit-identical.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.sources import read_table

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


SQL_DOC_BLOCKING_QUALITY = """
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
  SELECT d.doc_id,
         coalesce(r1.word, '') || '|' || coalesce(r2.word, '') AS block,
         md5(coalesce(d.text, '')) AS th
  FROM documents d
  LEFT JOIN (SELECT doc_id, word FROM r WHERE rn = 1) r1 USING (doc_id)
  LEFT JOIN (SELECT doc_id, word FROM r WHERE rn = 2) r2 USING (doc_id)
),
bs AS (SELECT block, CAST(count(*) AS BIGINT) AS c FROM k GROUP BY 1),
gs AS (SELECT th, CAST(count(*) AS BIGINT) AS c FROM k GROUP BY 1),
cs AS (SELECT block, th, CAST(count(*) AS BIGINT) AS c FROM k GROUP BY 1, 2)
SELECT (SELECT CAST(count(*) AS BIGINT) FROM documents) AS n_docs,
       (SELECT CAST(count(*) * (count(*) - 1) // 2 AS BIGINT) FROM documents) AS total_pairs,
       (SELECT CAST(sum(c * (c - 1) // 2) AS BIGINT) FROM bs) AS candidate_pairs,
       (SELECT CAST(sum(c * (c - 1) // 2) AS BIGINT) FROM gs) AS true_dup_pairs,
       (SELECT CAST(sum(c * (c - 1) // 2) AS BIGINT) FROM cs) AS captured_dup_pairs
"""


@entry("doc_blocking_quality", sql=SQL_DOC_BLOCKING_QUALITY)
def q_doc_blocking_quality(sf_dir: str) -> pd.DataFrame:
    """Candidate pairs = docs sharing the top-2-dominant-word key
    (Σ C(block,2) from a block-size grid — never materialized); true
    matches = identical-text pairs (Σ C(group,2) from a text-hash
    grid); captured matches = identical-text pairs whose members also
    share the blocking key (same-text docs have the same key by
    construction, so captured == true — asserted, and the emission
    proves it to the twin).  One combiner pass builds both grids."""
    from jesse_ray.hashutil import hash64_strings

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def keys(b: pa.Table) -> pa.Table:
        txt = pc.fill_null(b["text"], "")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        words = pc.split_pattern(txt, " ")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        g = pa.table({"i": parent, "word": flat}).to_pandas()
        tf = g.groupby(["i", "word"], as_index=False).size()
        srt = tf.sort_values(["i", "size", "word"],
                             ascending=[True, False, True], kind="mergesort")
        top2 = srt.groupby("i").head(2).copy()
        top2["rn"] = top2.groupby("i").cumcount()
        w1 = top2[top2["rn"] == 0][["i", "word"]].rename(columns={"word": "w1"})
        w2 = top2[top2["rn"] == 1][["i", "word"]].rename(columns={"word": "w2"})
        key = w1.merge(w2, on="i", how="left")
        key["block"] = key["w1"] + "|" + key["w2"].fillna("")
        key = key.set_index("i")["block"]
        blocks = np.array([key.get(i, "|") for i in range(b.num_rows)], dtype=object)
        th = hash64_strings(txt).astype(np.uint64).view(np.int64)
        return pa.table({"block": pa.array(blocks.tolist(), type=pa.string()),
                         "th": pa.array(th)})

    t = _collect(ds.map_batches(keys, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    n = len(t)
    bsz = t.groupby("block").size().to_numpy()
    cand = int((bsz * (bsz - 1) // 2).sum())
    gsz = t.groupby("th").size().to_numpy()
    true_pairs = int((gsz * (gsz - 1) // 2).sum())
    # identical text ⇒ identical blocking key ⇒ every true pair is a
    # candidate; the grid identity below asserts that invariant
    cap = t.groupby(["block", "th"]).size().to_numpy()
    captured = int((cap * (cap - 1) // 2).sum())
    if captured != true_pairs:
        raise RuntimeError(f"blocking captured {captured} of {true_pairs} true pairs")
    total = n * (n - 1) // 2
    return pd.DataFrame({
        "n_docs": pd.array([n], dtype="int64"),
        "total_pairs": pd.array([total], dtype="int64"),
        "candidate_pairs": pd.array([cand], dtype="int64"),
        "true_dup_pairs": pd.array([true_pairs], dtype="int64"),
        "captured_dup_pairs": pd.array([captured], dtype="int64"),
    })

