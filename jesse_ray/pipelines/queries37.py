"""Catalog wave 37: training-order and exact-ML operators — a
deterministic round-robin source interleave (the data-loader ordering
primitive: every source stream advances in lockstep, order fixed by
hash rank) and a depth-1 decision-stump split grid over integer
thresholds (the gradient-boosting building block, all counts exact).

Same driver contract as :mod:`.queries`."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.rounding import round_half_away
from jesse_ray.sources import read_table

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


# ---------------------------------------------------------------------------
# seq_interleave_plan — deterministic round-robin interleave across
# sources: within a source, docs order by (fmix64(doc-hash), doc_id);
# globally, position = within-source rank × n_sources + source index.
# Emits the first INTERLEAVE_K rows of the plan — the reproducible
# "epoch order" a distributed loader would follow.

INTERLEAVE_K = 20


def _interleave_sql() -> str:
    return f"""
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/interleave_sigs_sf0.01.parquet')),
r AS (
  SELECT doc_id, source,
         row_number() OVER (PARTITION BY source ORDER BY h, doc_id) - 1 AS rk,
         dense_rank() OVER (ORDER BY source) - 1 AS si,
         (SELECT count(DISTINCT source) FROM s) AS ns
  FROM s
)
SELECT CAST(rk * ns + si AS BIGINT) AS pos, doc_id, source
FROM r
WHERE rk * ns + si < {INTERLEAVE_K}
ORDER BY pos
"""


@entry("seq_interleave_plan", sql=_interleave_sql())
def q_seq_interleave_plan(sf_dir: str) -> pd.DataFrame:
    """The within-source rank is a distributed sort by (source, h) +
    O(blocks) boundary offsets (the seq_global_sort discipline); only
    the ≤K head rows reach the driver.  The fmix64 order rides a
    sidecar so the twin can rank identically."""
    from jesse_ray.hashutil import fmix64, hash64_strings
    from jesse_ray.pipelines.queries import _seq_path, _sig_parquet_path
    from jesse_ray.sources import read_sequences

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "source"])

    def keyed(b: pa.Table) -> pa.Table:
        ids = b["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        src = b["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        m = pc.and_(pc.is_valid(ids), pc.is_valid(src))
        t = pa.table({"doc_id": ids, "source": src}).filter(m)
        idc = t["doc_id"].combine_chunks() if isinstance(t["doc_id"], pa.ChunkedArray) else t["doc_id"]
        h = fmix64(hash64_strings(idc).astype(np.uint64)).view(np.int64)
        return pa.table({"doc_id": t["doc_id"], "source": t["source"],
                         "h": pa.array(h)})

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    import pyarrow.parquet as _pq

    side = _collect(keyed_ds).sort_by("doc_id")
    _pq.write_table(side, _sig_parquet_path(sf_dir, "interleave"))

    srt = keyed_ds.sort(["source", "h", "doc_id"]).materialize()

    def summarize(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table({"src": pa.array([], type=pa.string()),
                             "cnt": pa.array([], type=pa.int64()),
                             "fh": pa.array([], type=pa.int64()),
                             "fid": pa.array([], type=pa.string())})
        # one row per SOURCE RUN inside the block, keyed by the run's
        # OWN first (h, doc_id) — a boundary block's global first key
        # belongs to the previous source and would order that block's
        # runs wrongly within their own source
        s = np.asarray(b["source"].to_pandas(), dtype=object)
        hh = b["h"].to_numpy(zero_copy_only=False)
        ids = np.asarray(b["doc_id"].to_pandas(), dtype=object)
        starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
        lens = np.diff(np.append(starts, len(s)))
        return pa.table({
            "src": pa.array(s[starts].tolist(), type=pa.string()),
            "cnt": pa.array(lens.astype(np.int64)),
            "fh": pa.array(hh[starts].astype(np.int64)),
            "fid": pa.array(ids[starts].tolist(), type=pa.string()),
        })

    bounds = _collect(srt.map_batches(summarize, batch_format="pyarrow",
                                      batch_size=None)).to_pandas()
    bounds = bounds.sort_values(["src", "fh", "fid"]).reset_index(drop=True)
    bounds["off"] = bounds.groupby("src")["cnt"].cumsum() - bounds["cnt"]
    srcs = sorted(bounds["src"].unique())
    sidx = {s: i for i, s in enumerate(srcs)}
    n_src = len(srcs)
    offmap = {(r["src"], int(r["fh"]), r["fid"]): int(r["off"])
              for _, r in bounds.iterrows()}
    import ray
    oref = ray.put((offmap, sidx, n_src)) if ray.is_initialized() else (offmap, sidx, n_src)

    def head(b: pa.Table, _oref=oref) -> pa.Table:
        om, si, ns = ray.get(_oref) if ray.is_initialized() else _oref
        if b.num_rows == 0:
            return pa.table({"pos": pa.array([], type=pa.int64()),
                             "doc_id": pa.array([], type=pa.string()),
                             "source": pa.array([], type=pa.string())})
        s = np.asarray(b["source"].to_pandas(), dtype=object)
        ids = np.asarray(b["doc_id"].to_pandas(), dtype=object)
        starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
        lens = np.diff(np.append(starts, len(s)))
        pos = np.empty(len(s), dtype=np.int64)
        for st, ln in zip(starts, lens):
            off = om[(s[st], int(b["h"][int(st)].as_py()), ids[st])]
            rank = off + np.arange(ln, dtype=np.int64)
            pos[st:st + ln] = rank * ns + si[s[st]]
        keep = pos < INTERLEAVE_K
        return pa.table({"pos": pa.array(pos[keep]),
                         "doc_id": pa.array(ids[keep].tolist(), type=pa.string()),
                         "source": pa.array(s[keep].tolist(), type=pa.string())})

    out = _collect(srt.map_batches(head, batch_format="pyarrow",
                                   batch_size=None)).to_pandas()
    return (out.sort_values("pos").reset_index(drop=True)
            .astype({"pos": "int64"}))


# ---------------------------------------------------------------------------
# lineitem_stump_grid — depth-1 decision stump over integer quantity
# thresholds for the returnflag='R' outcome: the full split grid in
# exact integers plus the Gini-argmin flag (float impurity in matched
# op order, threshold-ascending tie-break).

SQL_LINEITEM_STUMP_GRID = """
WITH g AS (
  SELECT CAST(round(l_quantity) AS BIGINT) AS q,
         sum(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END)::BIGINT AS pos,
         count(*)::BIGINT AS n
  FROM lineitem GROUP BY 1
),
c AS (
  SELECT q,
         sum(pos) OVER (ORDER BY q ROWS UNBOUNDED PRECEDING) AS cpos,
         sum(n) OVER (ORDER BY q ROWS UNBOUNDED PRECEDING) AS cn,
         row_number() OVER (ORDER BY q DESC) AS rdesc
  FROM g
),
tot AS (SELECT sum(pos)::BIGINT AS p, sum(n)::BIGINT AS t FROM g),
grid AS (
  SELECT q AS threshold,
         CAST(cpos AS BIGINT) AS pos_left, CAST(cn AS BIGINT) AS n_left,
         CAST((SELECT p FROM tot) - cpos AS BIGINT) AS pos_right,
         CAST((SELECT t FROM tot) - cn AS BIGINT) AS n_right,
         2.0 * (CAST(cpos AS DOUBLE) * (cn - cpos) / cn
                + CAST((SELECT p FROM tot) - cpos AS DOUBLE)
                  * (((SELECT t FROM tot) - cn) - ((SELECT p FROM tot) - cpos))
                  / ((SELECT t FROM tot) - cn)) AS gini_raw
  FROM c WHERE rdesc > 1
),
best AS (SELECT threshold FROM grid ORDER BY gini_raw, threshold LIMIT 1)
SELECT threshold, pos_left, n_left, pos_right, n_right,
       round(gini_raw, 6) AS gini,
       threshold = (SELECT threshold FROM best) AS is_best
FROM grid ORDER BY threshold
"""


@entry("lineitem_stump_grid", sql=SQL_LINEITEM_STUMP_GRID)
def q_lineitem_stump_grid(sf_dir: str) -> pd.DataFrame:
    """One (quantity, outcome) count-grid combiner (domain ≤ 50), the
    cumulative split grid and the weighted-Gini argmin on the driver —
    the boosting inner loop with nothing approximate."""
    from ray.data.aggregate import Sum as _Sum

    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_quantity", "l_returnflag"])

    def partial(b: pa.Table) -> pa.Table:
        qi = pc.cast(pc.round(b["l_quantity"]), pa.int64())
        pos = pc.cast(pc.equal(b["l_returnflag"], "R"), pa.int64())
        t = pa.table({"q": qi, "pos": pos,
                      "one": pa.array(np.ones(b.num_rows, dtype=np.int64))})
        g = t.group_by("q").aggregate([("pos", "sum"), ("one", "sum")])
        return g.rename_columns(["q", "pp", "pn"])

    g = _collect(li.map_batches(partial, batch_format="pyarrow",
                                zero_copy_batch=True)
                 .groupby("q").aggregate(_Sum("pp", alias_name="pos"),
                                         _Sum("pn", alias_name="n"))
                 ).to_pandas().sort_values("q").reset_index(drop=True)
    q = g["q"].to_numpy(np.int64)
    pos = g["pos"].to_numpy(np.int64)
    n = g["n"].to_numpy(np.int64)
    cpos = np.cumsum(pos)
    cn = np.cumsum(n)
    POS, N = int(cpos[-1]), int(cn[-1])
    # split at threshold t: left = q <= t (all but the last grid value)
    pl, nl = cpos[:-1], cn[:-1]
    pr, nr = POS - pl, N - nl
    # weighted Gini = 2*(pl*ql/nl + pr*qr/nr); matched float op order
    gini = 2.0 * (pl * (nl - pl) / nl + pr * (nr - pr) / nr)
    best = int(np.lexsort((q[:-1], gini))[0])
    out = pd.DataFrame({
        "threshold": q[:-1].astype("int64"),
        "pos_left": pl.astype("int64"), "n_left": nl.astype("int64"),
        "pos_right": pr.astype("int64"), "n_right": nr.astype("int64"),
        "gini": round_half_away(gini, 6),
    })
    out["is_best"] = False
    out.loc[best, "is_best"] = True
    return out

