"""Catalog wave 38: the corpus datasheet — a one-call data-card
summary (Gebru et al., "Datasheets for Datasets") of the sequences
corpus: volume, token mass, vocabulary, source mix, duplication, null
hygiene and length quantiles, emitted as a tidy (metric, value) table
of exact integers.

Same driver contract as :mod:`.queries`; every number is a composition
of already-verified primitives folded in ONE pass over the corpus plus
the bounded count-grid quantile walk."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


def _datasheet_sql() -> str:
    from jesse_ray.pipelines.queries import SEQ_SQL

    return f"""
WITH c AS MATERIALIZED (SELECT * FROM {SEQ_SQL})
SELECT * FROM (
  SELECT 'n_rows' AS metric, CAST(count(*) AS BIGINT) AS value FROM c
  UNION ALL SELECT 'n_tokens', CAST(coalesce(sum(len(tokens)), 0) AS BIGINT) FROM c
  UNION ALL SELECT 'vocab_size', CAST(count(DISTINCT t) AS BIGINT)
    FROM (SELECT unnest(tokens) AS t FROM c)
  UNION ALL SELECT 'n_sources', CAST(count(DISTINCT source) AS BIGINT) FROM c
  UNION ALL SELECT 'null_doc_ids', CAST(count(*) - count(doc_id) AS BIGINT) FROM c
  UNION ALL SELECT 'null_token_rows', CAST(sum(CASE WHEN tokens IS NULL THEN 1 ELSE 0 END) AS BIGINT) FROM c
  UNION ALL SELECT 'duplicated_doc_ids', CAST(count(*) AS BIGINT) FROM (
      SELECT doc_id FROM c WHERE doc_id IS NOT NULL
      GROUP BY doc_id HAVING count(*) > 1)
  UNION ALL SELECT 'p50_n_tok', CAST(quantile_disc(n_tok, 0.5) AS BIGINT) FROM c
  UNION ALL SELECT 'p90_n_tok', CAST(quantile_disc(n_tok, 0.9) AS BIGINT) FROM c
  UNION ALL SELECT 'p99_n_tok', CAST(quantile_disc(n_tok, 0.99) AS BIGINT) FROM c
)
"""


@entry("seq_datasheet", sql=_datasheet_sql())
def q_seq_datasheet(sf_dir: str) -> pd.DataFrame:
    """One map_batches pass emits a fixed partial-row per batch (counts,
    token mass, null tallies, per-batch distinct-token and dup-key
    partials ride separate bounded grids); the driver folds O(blocks)
    rows plus the vocab- and key-bounded grids.  Discrete n_tok
    quantiles walk the (value, count) grid under the enforced cell
    cap."""
    from ray.data.aggregate import Sum as _Sum

    from jesse_ray.pipelines.queries import _seq_path
    from jesse_ray.sources import read_sequences

    ds = read_sequences(_seq_path(sf_dir))

    def partial(b: pa.Table) -> pa.Table:
        toks = b["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        return pa.table({
            "rows": pa.array([b.num_rows], type=pa.int64()),
            "null_doc_id": pa.array([b["doc_id"].null_count], type=pa.int64()),
            "null_tokens": pa.array([toks.null_count], type=pa.int64()),
            "n_tokens": pa.array([len(flat)], type=pa.int64()),
        })

    base = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                   zero_copy_batch=True)).to_pandas().sum()

    # vocab: per-batch distinct tokens -> global distinct (vocab-bounded)
    def vocab_partial(b: pa.Table) -> pa.Table:
        toks = b["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        u = pc.unique(pc.list_flatten(toks))
        return pa.table({"t": pc.cast(u, pa.int64())})

    vocab = (ds.map_batches(vocab_partial, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby("t").count()).count()

    # duplicate doc_ids: per-batch (id, count) partials -> keys with >1
    def key_partial(b: pa.Table) -> pa.Table:
        ids = b["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ids = ids.drop_null()
        t = pa.table({"doc_id": ids})
        return (t.group_by("doc_id").aggregate([([], "count_all")])
                .rename_columns(["doc_id", "pn"]))

    keys = (ds.map_batches(key_partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("doc_id").aggregate(_Sum("pn", alias_name="n")))
    dup_keys = keys.map_batches(
        lambda b: pa.table({"d": pa.array(
            [int(pc.sum(pc.cast(pc.greater(b["n"], 1), pa.int64())).as_py() or 0)],
            type=pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)
    n_dup_keys = int(_collect(dup_keys).to_pandas()["d"].sum())

    # sources + n_tok quantiles via the bounded grids
    from jesse_ray.pipelines.relational import grouped_quantile_grid

    n_sources = (ds.map_batches(
        lambda b: pa.table({"s": pc.unique((b["source"].combine_chunks()
                                            if isinstance(b["source"], pa.ChunkedArray)
                                            else b["source"]).drop_null())}),
        batch_format="pyarrow", zero_copy_batch=True)
        .groupby("s").count()).count()

    def one(b: pa.Table) -> pa.Table:
        return pa.table({"g": pa.array(np.zeros(b.num_rows, dtype=np.int64)),
                         "n_tok": b["n_tok"]})

    qs = grouped_quantile_grid(
        ds.map_batches(one, batch_format="pyarrow", zero_copy_batch=True),
        "g", "n_tok", (0.5, 0.9, 0.99), mode="disc")
    qmap = {q: int(v) for _, q, v in qs}

    rows = [
        ("n_rows", int(base["rows"])),
        ("n_tokens", int(base["n_tokens"])),
        ("vocab_size", int(vocab)),
        ("n_sources", int(n_sources)),
        ("null_doc_ids", int(base["null_doc_id"])),
        ("null_token_rows", int(base["null_tokens"])),
        ("duplicated_doc_ids", n_dup_keys),
        ("p50_n_tok", qmap[0.5]),
        ("p90_n_tok", qmap[0.9]),
        ("p99_n_tok", qmap[0.99]),
    ]
    return pd.DataFrame(rows, columns=["metric", "value"]).astype({"value": "int64"})

