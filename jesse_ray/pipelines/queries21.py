"""Catalog wave 21: the packed IVF-PQ ANN path under an oracle gate.

Same driver contract as :mod:`.queries`: column names match the DuckDB
twin exactly.  The ANN entry runs the FULL residual-IVFADC pipeline
(coarse quantizer → residual codebooks → packed 16 B/row codes →
cell-partitioned ADC scan → exact cosine re-rank) in its EXHAUSTIVE
configuration — probe every cell, candidate pool ≥ corpus — so the
result provably equals the exact top-k and can carry a strict SQL
twin.  Pruning quality (probe 16/256, refine 16 → recall@10 0.926 at
1M×64-d, 2.5× faster than exact) is certified separately in
``tools/bench_ann.py`` / BASELINE.md; this entry gates the PLUMBING:
encoding, per-cell lookup tables, scan, global merge and re-rank."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from jesse_ray.sources import read_table

from jesse_ray.pipelines.queries import entry


SQL_EMB_IVF_PQ_TOPK = """
SELECT CAST(row_number() OVER (
           ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id
       ) AS BIGINT) AS rank,
       e.vec_id
FROM embeddings e, (SELECT embedding FROM embeddings WHERE vec_id = 0) q
ORDER BY rank LIMIT 10
"""


@entry("emb_ivf_pq_topk", sql=SQL_EMB_IVF_PQ_TOPK)
def q_emb_ivf_pq_topk(sf_dir: str) -> pd.DataFrame:
    """Residual IVF-PQ (IVFADC) top-10 for query vec_id=0, exhaustive
    probe — equals the exact twin by construction (see module
    docstring)."""
    import ray

    from jesse_ray.functions.clustering import _mat
    from jesse_ray.functions.similarity import (
        _nearest_centroid,
        build_ivf_centroids,
        cosine_topk,
        ivf_pq_search,
        pq_encode_packed,
        pq_fit,
    )

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    n = ds.count()
    qvec = np.asarray(
        pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .filter(pc.equal(pc.field("vec_id"), 0))["embedding"].to_pylist()[0],
        dtype=np.float64,
    )[None, :]
    dim = qvec.shape[1]

    cents = build_ivf_centroids(ds, 8)
    cents_ref = ray.put(cents) if ray.is_initialized() else cents

    def to_residual(b: pa.Table) -> pa.Table:
        cc = ray.get(cents_ref) if isinstance(cents_ref, ray.ObjectRef) else cents_ref
        x = _mat(b["embedding"])
        r = x - cc[_nearest_centroid(x, cc)]
        m = r.shape[0]
        arr = pa.ListArray.from_arrays(
            pa.array(np.arange(0, (m + 1) * dim, dim, dtype=np.int64), type=pa.int32()),
            pa.array(r.ravel(), type=pa.float64()))
        return pa.table({"vec_id": b["vec_id"], "embedding": arr})

    res_ds = ds.map_batches(to_residual, batch_format="pyarrow", zero_copy_batch=True)
    m_sub = 8 if dim % 8 == 0 else 4
    books = pq_fit(res_ds, m=m_sub, k=16, n_iters=3)
    codes = pq_encode_packed(ds, books, cell_centroids=cents, residual=True)

    # exhaustive: probe all cells, candidate pool >= corpus
    probe = np.ones((1, len(cents)), dtype=bool)
    refine = (n + 9) // 10 + 1
    cand = ivf_pq_search(codes, books, qvec, k=10, refine=refine,
                         probe_cells=probe, cell_centroids=cents)
    cset = np.sort(np.unique(cand["vec_id"].to_numpy()))
    if len(cset) != n:  # plumbing gate: every row scanned once
        raise RuntimeError(f"exhaustive probe scanned {len(cset)} distinct rows of {n}")

    def keep(b: pa.Table) -> pa.Table:
        vid = b["vec_id"].to_numpy(zero_copy_only=False)
        return b.filter(pa.array(np.isin(vid, cset)))

    sub = ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)
    out = cosine_topk(sub, qvec, k=10)
    return pd.DataFrame({
        "rank": out["rank"].astype("int64"),
        "vec_id": out["vec_id"].astype("int64"),
    })

