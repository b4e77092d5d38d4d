"""Catalog wave 36: optimal-transport drift and conformal calibration
— exact Wasserstein-1 distance between each source's n_tok
distribution and the pooled rest (integer-truth emission over the
bounded value grid), and split-conformal quantile calibration of the
distributed quality classifier (finite-sample coverage check).

Same driver contract as :mod:`.queries`."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.sources import read_table

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


# ---------------------------------------------------------------------------
# seq_wasserstein_ntok — exact W1 (earth mover's) distance between each
# source's n_tok distribution and the pooled REST, on the integer value
# grid: W1 = Σ_v |F_a(v) − F_b(v)| = Σ_v |cumA·nB − cumB·nA| / (nA·nB).
# The integer numerator is emitted exactly; the drift family's
# optimal-transport member (KS = max of the same differences, already
# covered by exact_ks_by_group).

def _wasserstein_sql() -> str:
    from jesse_ray.pipelines.queries import SEQ_SQL

    return f"""
WITH d AS MATERIALIZED (
  SELECT source, CAST(n_tok AS BIGINT) AS v
  FROM {SEQ_SQL} WHERE n_tok IS NOT NULL AND source IS NOT NULL
),
vals AS (SELECT DISTINCT v FROM d),
srcs AS (SELECT DISTINCT source FROM d),
g AS MATERIALIZED (SELECT source, v, CAST(count(*) AS BIGINT) AS a FROM d GROUP BY 1, 2),
tv AS MATERIALIZED (SELECT v, CAST(count(*) AS BIGINT) AS c FROM d GROUP BY 1),
cnt AS (
  SELECT s.source, vals.v,
         coalesce(g.a, 0) AS a,
         tv.c - coalesce(g.a, 0) AS b
  FROM srcs s CROSS JOIN vals
  LEFT JOIN g ON g.source = s.source AND g.v = vals.v
  JOIN tv ON tv.v = vals.v
),
cum AS (
  SELECT source, v,
         sum(a) OVER (PARTITION BY source ORDER BY v ROWS UNBOUNDED PRECEDING) AS ca,
         sum(b) OVER (PARTITION BY source ORDER BY v ROWS UNBOUNDED PRECEDING) AS cb,
         lead(v) OVER (PARTITION BY source ORDER BY v) AS nv
  FROM cnt
),
tot AS (SELECT source, CAST(sum(a) AS BIGINT) AS na, CAST(sum(b) AS BIGINT) AS nb
        FROM cnt GROUP BY 1)
SELECT c.source,
       CAST(sum(abs(c.ca * t.nb - c.cb * t.na) * (c.nv - c.v)) AS BIGINT) AS w1_num,
       t.na, t.nb
FROM cum c JOIN tot t USING (source)
WHERE c.nv IS NOT NULL
GROUP BY c.source, t.na, t.nb
ORDER BY c.source
"""


@entry("seq_wasserstein_ntok", sql=_wasserstein_sql())
def q_seq_wasserstein_ntok(sf_dir: str) -> pd.DataFrame:
    """One (source, n_tok) count-grid combiner (bounded by the value
    domain — the grouped_quantile_grid contract), then per-source
    cumulative walks on the driver over the ≤ sources × distinct grid.
    Emits (source, w1_num, na, nb) with w1_num = Σ|cumA·nB − cumB·nA|
    — exact integers, no float division anywhere."""
    from ray.data.aggregate import Sum as _Sum

    from jesse_ray.pipelines.queries import _seq_path
    from jesse_ray.sources import read_sequences

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.and_(pc.is_valid(b["n_tok"]), pc.is_valid(b["source"])))
        g = (t.select(["source", "n_tok"])
             .group_by(["source", "n_tok"]).aggregate([([], "count_all")]))
        return g.rename_columns(["source", "n_tok", "pn"])

    grid = _collect(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["source", "n_tok"]).aggregate(_Sum("pn", alias_name="n"))
    ).to_pandas()
    grid["n_tok"] = grid["n_tok"].astype(np.int64)
    vals = np.sort(grid["n_tok"].unique())
    total = grid.groupby("n_tok")["n"].sum().reindex(vals, fill_value=0).to_numpy(np.int64)
    N = int(total.sum())
    rows = []
    for src, g in grid.groupby("source", sort=True):
        a = g.groupby("n_tok")["n"].sum().reindex(vals, fill_value=0).to_numpy(np.int64)
        b = total - a
        na, nb = int(a.sum()), int(b.sum())
        cuma = np.cumsum(a, dtype=object)
        cumb = np.cumsum(b, dtype=object)
        # TRUE W1 on the integer line: each |F gap| weighted by the
        # actual spacing to the next observed value (F is constant on
        # the open interval between observed points)
        gaps = np.diff(vals)
        num = int(sum(abs(int(x) * nb - int(y) * na) * int(gp)
                      for x, y, gp in zip(cuma[:-1], cumb[:-1], gaps)))
        rows.append((src, num, na, nb))
    return (pd.DataFrame(rows, columns=["source", "w1_num", "na", "nb"])
            .astype({"w1_num": "int64", "na": "int64", "nb": "int64"}))


# ---------------------------------------------------------------------------
# doc_conformal_coverage — split-conformal calibration of a
# deterministic quality score: the calibration half fixes the
# ceil((n+1)(1−α))-th smallest score as the threshold, the evaluation
# half counts coverage.  Finite-sample guarantee: expected coverage
# ≥ 1−α.  Score = doc length in words (deterministic, engine-side
# vectorized); α = 0.1.

CONF_ALPHA_NUM, CONF_ALPHA_DEN = 1, 10  # alpha = 1/10


def _conformal_sql() -> str:
    # the fmix64 hash split is not portable SQL, so the split rides a
    # sidecar (invariant-gated: permutation of the corpus); the twin
    # re-derives the ceil-rank threshold and the coverage count from
    # the RAW corpus text + the assignment alone
    return f"""
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/conformal_sigs_sf0.01.parquet')),
ok AS (
  SELECT (SELECT count(*) FROM s) = (SELECT count(*) FROM documents)
     AND (SELECT count(*) FROM s WHERE NOT EXISTS (
            SELECT 1 FROM documents d WHERE d.doc_id = s.doc_id)) = 0
     AND (SELECT count(DISTINCT doc_id) FROM s) = (SELECT count(*) FROM s) AS good
),
j AS (
  SELECT s.calib, len(string_split(coalesce(d.text, ''), ' ')) AS nw
  FROM s JOIN documents d USING (doc_id)
),
cal AS (SELECT nw FROM j WHERE calib),
n AS (SELECT CAST(count(*) AS BIGINT) AS n FROM cal),
rank_ AS (
  SELECT least((SELECT n FROM n),
               CAST(ceil(((SELECT n FROM n) + 1) * {CONF_ALPHA_DEN - CONF_ALPHA_NUM}.0
                         / {CONF_ALPHA_DEN}) AS BIGINT)) AS r
),
thr AS (
  SELECT nw AS t FROM (SELECT nw, row_number() OVER (ORDER BY nw) AS rn FROM cal)
  WHERE rn = (SELECT r FROM rank_)
)
SELECT (SELECT n FROM n) AS n_calib,
       CAST((SELECT t FROM thr) AS BIGINT) AS threshold,
       (SELECT CAST(count(*) AS BIGINT) FROM j WHERE NOT calib) AS n_eval,
       (SELECT CAST(count(*) AS BIGINT) FROM j WHERE NOT calib
          AND nw <= (SELECT t FROM thr)) AS n_covered
HAVING (SELECT good FROM ok)
"""


@entry("doc_conformal_coverage", sql=_conformal_sql())
def q_doc_conformal_coverage(sf_dir: str) -> pd.DataFrame:
    """Deterministic fmix64 hash split (calibration = even bucket),
    exact discrete-quantile threshold from the calibration half
    (ceil-rank on the bounded word-count grid), one counting pass over
    the evaluation half.  All emissions integer."""
    from jesse_ray.hashutil import fmix64, hash64_strings

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def prep(b: pa.Table) -> pa.Table:
        txt = pc.fill_null(b["text"], "")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        nw = pc.list_value_length(pc.split_pattern(txt, " ")).cast(pa.int64())
        ids = b["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        h = fmix64(hash64_strings(pc.cast(ids, pa.string())).astype(np.uint64))
        calib = (h % np.uint64(2) == 0)
        # ONE pass carries id + score + split together: collecting ids
        # and assignments in separate executions would pair them by
        # position across independently-ordered block streams
        return pa.table({"doc_id": ids, "nw": nw, "calib": pa.array(calib)})

    t = _collect(ds.map_batches(prep, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    # sidecar: the split assignment, so the twin re-derives threshold
    # and coverage from the raw corpus + this assignment alone
    from jesse_ray.pipelines.queries import _sig_parquet_path
    import pyarrow.parquet as _pq

    side = pa.Table.from_pandas(t[["doc_id", "calib"]].sort_values("doc_id"),
                                preserve_index=False)
    _pq.write_table(side, _sig_parquet_path(sf_dir, "conformal"))
    cal = np.sort(t.loc[t["calib"], "nw"].to_numpy(np.int64))
    ev = t.loc[~t["calib"], "nw"].to_numpy(np.int64)
    n = len(cal)
    # rank = ceil((n+1) * (1 - alpha)) clipped to n
    rank = min(n, -(-((n + 1) * (CONF_ALPHA_DEN - CONF_ALPHA_NUM)) // CONF_ALPHA_DEN))
    thr = int(cal[rank - 1])
    covered = int((ev <= thr).sum())
    return pd.DataFrame({
        "n_calib": pd.array([n], dtype="int64"),
        "threshold": pd.array([thr], dtype="int64"),
        "n_eval": pd.array([len(ev)], dtype="int64"),
        "n_covered": pd.array([covered], dtype="int64"),
    })

