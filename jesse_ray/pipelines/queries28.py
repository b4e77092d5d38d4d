"""Catalog wave 28: spec-inference cross-validation — infer the
tightest draft-04 spec from the CLEAN corpus snapshot (the
profile→propose step), compile it, and validate the DIRTY corpus with
the REAL engine; emit violation counts per (column, error class) plus
the confirmed duplicate-key count for the uniqueness hypothesis.

This is the production workflow the inference module exists for
(propose on a trusted snapshot, enforce on the live feed), and it ties
the inferred constraints to the reference's keyword semantics
end-to-end: the emitted classes are jesse's own error atoms
(src/jesse_error.erl) raised by the compiled vectorized checks.  The
DuckDB twin re-derives every inferred bound from the clean corpus as
scalar subqueries and re-counts each class against the dirty corpus
independently.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


def _crossval_sql() -> str:
    clean = "read_parquet('/tmp/jesse_ray_data/sf0.01/sequences_clean.parquet')"
    from jesse_ray.pipelines.queries import SEQ_SQL as dirty

    return f"""
WITH c AS MATERIALIZED (SELECT * FROM {clean}),
d AS MATERIALIZED (SELECT * FROM {dirty}),
v AS (
  SELECT 'doc_id' AS col, 'missing_required_property' AS error,
         count(*)::BIGINT AS cnt FROM d WHERE doc_id IS NULL
  UNION ALL SELECT 'tokens', 'missing_required_property', count(*)::BIGINT
    FROM d WHERE tokens IS NULL
  UNION ALL SELECT 'n_tok', 'missing_required_property', count(*)::BIGINT
    FROM d WHERE n_tok IS NULL
  UNION ALL SELECT 'source', 'missing_required_property', count(*)::BIGINT
    FROM d WHERE source IS NULL
  UNION ALL SELECT 'doc_id', 'wrong_length', count(*)::BIGINT FROM d
    WHERE doc_id IS NOT NULL
      AND (length(doc_id) < (SELECT min(length(doc_id)) FROM c)
        OR length(doc_id) > (SELECT max(length(doc_id)) FROM c))
  UNION ALL SELECT 'source', 'wrong_length', count(*)::BIGINT FROM d
    WHERE source IS NOT NULL
      AND (length(source) < (SELECT min(length(source)) FROM c)
        OR length(source) > (SELECT max(length(source)) FROM c))
  UNION ALL SELECT 'n_tok', 'not_in_range', count(*)::BIGINT FROM d
    WHERE n_tok IS NOT NULL
      AND (n_tok < (SELECT min(n_tok) FROM c) OR n_tok > (SELECT max(n_tok) FROM c))
  UNION ALL SELECT 'source', 'not_in_enum', count(*)::BIGINT FROM d
    WHERE source IS NOT NULL AND source NOT IN (SELECT DISTINCT source FROM c)
  UNION ALL SELECT 'tokens', 'not_in_range', (
      SELECT count(*)::BIGINT FROM (SELECT unnest(tokens) AS t FROM d)
      WHERE t < (SELECT min(t) FROM (SELECT unnest(tokens) AS t FROM c))
         OR t > (SELECT max(t) FROM (SELECT unnest(tokens) AS t FROM c)))
  UNION ALL SELECT 'tokens', 'wrong_size', count(*)::BIGINT FROM d
    WHERE tokens IS NOT NULL
      AND (len(tokens) < (SELECT min(len(tokens)) FROM c WHERE tokens IS NOT NULL)
        OR len(tokens) > (SELECT max(len(tokens)) FROM c WHERE tokens IS NOT NULL))
  UNION ALL SELECT 'doc_id', 'not_unique', count(*)::BIGINT FROM (
      SELECT doc_id FROM d WHERE doc_id IS NOT NULL
      GROUP BY doc_id HAVING count(*) > 1)
)
SELECT col, error, cnt FROM v WHERE cnt > 0 ORDER BY col, error
"""


@entry("seq_infer_crossval", sql=_crossval_sql())
def q_seq_infer_crossval(sf_dir: str) -> pd.DataFrame:
    """infer_spec on sequences_clean → compile_spec → row_violations +
    duplicate_keys over the dirty corpus (the real validation path,
    whole-block fused batches); one tiny groupby of the violation
    stream by (first path segment, error)."""
    from jesse_ray import testgen
    from jesse_ray.compiler import compile_spec
    from jesse_ray.engine import duplicate_keys, row_violations
    from jesse_ray.infer import infer_spec
    from jesse_ray.sources import read_sequences

    sf = testgen.sf_name_of(sf_dir)
    testgen.generate(sf)
    clean = str(testgen.corpus_dir(sf) / "sequences_clean.parquet")
    dirty = str(testgen.corpus_dir(sf) / "sequences.parquet")

    spec, _constraints = infer_spec(read_sequences(clean), key_column="doc_id")
    compiled = compile_spec(spec)

    v = _collect(row_violations(read_sequences(dirty), compiled)).to_pandas()
    v["col"] = v["path"].apply(lambda p: str(p[0]) if len(p) else "")
    counts = (v.groupby(["col", "error"], as_index=False).size()
              .rename(columns={"size": "cnt"}))
    n_dups = duplicate_keys(read_sequences(dirty), "doc_id").count()
    counts = pd.concat([counts, pd.DataFrame(
        {"col": ["doc_id"], "error": ["not_unique"], "cnt": [n_dups]})],
        ignore_index=True)
    counts = counts[counts["cnt"] > 0]
    counts["cnt"] = counts["cnt"].astype("int64")
    return counts.sort_values(["col", "error"]).reset_index(drop=True)

