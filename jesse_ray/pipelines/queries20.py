"""Catalog wave 20: violation-structure audit — which validation
errors CO-OCCUR on the same document?  The engine side runs the real
fused validator; the twin re-derives each error set from the raw table
with the SAME predicates the (driver-verified) seq_val twins use, so
the pairing is checked end-to-end against the engine's actual error
emission.

Same driver contract as :mod:`.queries`."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.pipelines.queries import ALLOWED_SQL, SEQ_SQL, _seq_path, _seq_spec, entry
from jesse_ray.sources import read_sequences


_COOC_ERRORS = ["not_in_enum", "not_in_range", "wrong_size"]


SQL_SEQ_VAL_ERROR_COOC = f"""
WITH v AS (
  SELECT DISTINCT doc_id, 'wrong_size' AS error FROM {SEQ_SQL}
  WHERE len(tokens) != n_tok AND doc_id IS NOT NULL
  UNION
  SELECT DISTINCT doc_id, 'not_in_range' FROM {SEQ_SQL}
  WHERE (n_tok < 1 OR n_tok > 2048) AND doc_id IS NOT NULL
  UNION
  SELECT DISTINCT doc_id, 'not_in_enum' FROM {SEQ_SQL}
  WHERE source NOT IN ({ALLOWED_SQL}) AND doc_id IS NOT NULL
)
,
pairs AS (
  SELECT 'not_in_enum' AS ea, 'not_in_range' AS eb
  UNION ALL SELECT 'not_in_enum', 'wrong_size'
  UNION ALL SELECT 'not_in_range', 'wrong_size'
),
cnt AS (
  SELECT a.error AS ea, b.error AS eb, CAST(count(*) AS BIGINT) AS n
  FROM v a JOIN v b ON a.doc_id = b.doc_id AND a.error < b.error
  GROUP BY 1, 2
)
SELECT p.ea, p.eb, CAST(coalesce(cnt.n, 0) AS BIGINT) AS n_docs_both
FROM pairs p LEFT JOIN cnt ON cnt.ea = p.ea AND cnt.eb = p.eb
ORDER BY 1, 2
"""


@entry("seq_val_error_cooc", sql=SQL_SEQ_VAL_ERROR_COOC)
def q_seq_val_error_cooc(sf_dir: str) -> pd.DataFrame:
    """Pairwise document co-occurrence counts of the three SQL-
    expressible validation errors, computed from the REAL engine pass
    (`validate_dataset` — one fused row + referential pass), not a
    re-implementation: violations are filtered to the three families,
    deduped per (doc, error), and paired.  Null doc ids carry no
    identity and are excluded; duplicate ids pool (a doc ID's error
    set is the union over its rows — the twin's DISTINCT does the
    same).  Violations are rare by assumption (the engine's violation
    stream), so the pairing grid is driver-side."""
    from jesse_ray.engine import validate_dataset

    ds = read_sequences(_seq_path(sf_dir))
    res = validate_dataset(ds, _seq_spec())
    v = res.all_violations_table()
    t = v.filter(pc.and_(pc.is_valid(v["doc_id"]),
                         pc.is_in(v["error"], value_set=pa.array(_COOC_ERRORS))))
    pdf = pa.table({"doc_id": t["doc_id"], "error": t["error"]}).to_pandas() \
        .drop_duplicates(["doc_id", "error"])
    out = []
    sets = {e: set(pdf[pdf["error"] == e]["doc_id"]) for e in _COOC_ERRORS}
    for i in range(len(_COOC_ERRORS)):
        for j in range(i + 1, len(_COOC_ERRORS)):
            ea, eb = _COOC_ERRORS[i], _COOC_ERRORS[j]
            out.append((ea, eb, len(sets[ea] & sets[eb])))
    return pd.DataFrame(out, columns=["ea", "eb", "n_docs_both"])

