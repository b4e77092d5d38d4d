"""Catalog wave 27: distribution-drift and temporal-coverage operators
— quadratic-kernel MMD two-sample test between embedding groups
(closed moment form, integer-exact emission) and per-type sliding
interval-union coverage (sweep-line islands).

Same driver contract as :mod:`.queries`."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.sources import read_table

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


# ---------------------------------------------------------------------------
# emb_mmd_quadratic — kernel two-sample drift between label groups 0
# and 1 with the quadratic kernel k(x,y) = (x·y)²: the V-statistic
# MMD² collapses to the squared Frobenius distance of the second-moment
# matrices, ||S_a/n_a − S_b/n_b||²_F — ONE streaming moment pass per
# group, no pairwise anything.  Embeddings are quantized to integer
# 1e-4 units so the moment matrices are exact int64 and the emitted
# statistic is the exact integer ||n_b·S_a − n_a·S_b||²_F (scale-free
# up to the known (n_a·n_b·10^8)² factor), bit-identical to the twin.

MMD_LABELS = (0, 1)
MMD_SCALE = 10_000


SQL_EMB_MMD_QUADRATIC = f"""
WITH e AS (
  SELECT vec_id, label, embedding FROM embeddings
  WHERE label IN ({MMD_LABELS[0]}, {MMD_LABELS[1]})
),
u AS MATERIALIZED (
  SELECT vec_id, label, i,
         CAST(round(CAST(embedding[i] AS DOUBLE) * {MMD_SCALE}) AS BIGINT) AS v
  FROM (SELECT vec_id, label, embedding,
               unnest(generate_series(1, len(embedding))) AS i FROM e)
),
s AS MATERIALIZED (
  SELECT a.label, a.i, b.i AS j, sum(CAST(a.v AS HUGEINT) * b.v) AS m
  FROM u a JOIN u b ON a.vec_id = b.vec_id
  GROUP BY 1, 2, 3
),
n AS (SELECT label, CAST(count(*) AS HUGEINT) AS c FROM e GROUP BY 1),
d AS (
  SELECT sa.i, sa.j,
         (SELECT c FROM n WHERE label = {MMD_LABELS[1]}) * sa.m
           - (SELECT c FROM n WHERE label = {MMD_LABELS[0]}) * sb.m AS diff
  FROM (SELECT * FROM s WHERE label = {MMD_LABELS[0]}) sa
  JOIN (SELECT * FROM s WHERE label = {MMD_LABELS[1]}) sb USING (i, j)
)
SELECT (SELECT CAST(c AS BIGINT) FROM n WHERE label = {MMD_LABELS[0]}) AS n_a,
       (SELECT CAST(c AS BIGINT) FROM n WHERE label = {MMD_LABELS[1]}) AS n_b,
       CAST(sum(diff * diff) AS DOUBLE) AS mmd_stat
FROM d
"""


@entry("emb_mmd_quadratic", sql=SQL_EMB_MMD_QUADRATIC)
def q_emb_mmd_quadratic(sf_dir: str) -> pd.DataFrame:
    """Per-batch int64 moment partials S = Σ v·vᵀ per label (dim² cells,
    32 KB at dim=64) merged on the driver; the cross-group statistic is
    computed in unbounded python ints and emitted as the
    nearest-double of the exact integer (DuckDB's HUGEINT→DOUBLE
    conversion rounds identically)."""
    ds = read_table(f"{sf_dir}/embeddings.parquet",
                    columns=["vec_id", "embedding", "label"])

    def partial(b: pa.Table) -> pa.Table:
        lab = b["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        emb = b["embedding"]
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        flat = pc.list_flatten(emb).to_numpy(zero_copy_only=False).astype(np.float64)
        dim = len(flat) // max(len(lab), 1) if len(lab) else 0
        rows = []
        for want in MMD_LABELS:
            m = lab == want
            if not m.any():
                continue
            # half-away tie mode matches the twin's round(); a float32
            # value CAN scale to an exact .5 (m odd, suitable exponent)
            from jesse_ray.rounding import round_half_away

            x = round_half_away(flat.reshape(len(lab), dim)[m] * MMD_SCALE).astype(np.int64)
            s = x.T @ x  # exact: |v| <= ~2e4, n<=batch, fits int64
            rows.append((want, int(m.sum()), s.ravel()))
        if not rows:
            return pa.table({"label": pa.array([], type=pa.int64()),
                             "n": pa.array([], type=pa.int64()),
                             "s": pa.array([], type=pa.list_(pa.int64()))})
        return pa.table({
            "label": pa.array([r[0] for r in rows], type=pa.int64()),
            "n": pa.array([r[1] for r in rows], type=pa.int64()),
            "s": pa.array([r[2].tolist() for r in rows], type=pa.list_(pa.int64())),
        })

    parts = _collect(ds.map_batches(partial, batch_format="pyarrow",
                                    zero_copy_batch=True)).to_pandas()
    agg = {}
    for lab in MMD_LABELS:
        sub = parts[parts["label"] == lab]
        n = int(sub["n"].sum())
        s = np.zeros_like(np.asarray(sub["s"].iloc[0]), dtype=np.int64) if len(sub) else None
        for v in sub["s"]:
            s = s + np.asarray(v, dtype=np.int64)
        agg[lab] = (n, s)
    na, sa = agg[MMD_LABELS[0]]
    nb, sb = agg[MMD_LABELS[1]]
    # exact integer statistic in unbounded ints (entries ~1e13, squares ~1e27)
    stat = sum((int(nb) * int(x) - int(na) * int(y)) ** 2
               for x, y in zip(sa.tolist(), sb.tolist()))
    return pd.DataFrame({
        "n_a": pd.array([na], dtype="int64"),
        "n_b": pd.array([nb], dtype="int64"),
        "mmd_stat": pd.array([float(stat)], dtype="float64"),
    })


# ---------------------------------------------------------------------------
# events_interval_coverage — per-type union of [ts, ts + 5 min)
# intervals: total covered microseconds and island count (the
# sweep-line / gaps-and-islands continuous-time primitive).

COV_WIN_S = 300


SQL_EVENTS_INTERVAL_COVERAGE = f"""
WITH o AS (
  SELECT event_type, epoch_us(ts) AS s, epoch_us(ts) + {COV_WIN_S * 1_000_000} AS e,
         max(epoch_us(ts) + {COV_WIN_S * 1_000_000})
           OVER (PARTITION BY event_type ORDER BY ts
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS pmax
  FROM events
),
m AS (
  SELECT event_type, s, e,
         SUM(CASE WHEN pmax IS NULL OR s > pmax THEN 1 ELSE 0 END)
           OVER (PARTITION BY event_type ORDER BY s
                 ROWS UNBOUNDED PRECEDING) AS isl
  FROM o
)
SELECT event_type,
       CAST(sum(cov) AS BIGINT) AS covered_us,
       CAST(count(*) AS BIGINT) AS n_islands
FROM (SELECT event_type, isl, max(e) - min(s) AS cov
      FROM m GROUP BY 1, 2)
GROUP BY 1 ORDER BY 1
"""


@entry("events_interval_coverage", sql=SQL_EVENTS_INTERVAL_COVERAGE)
def q_events_interval_coverage(sf_dir: str) -> pd.DataFrame:
    """Coarse type-hash shuffle, per-part mergesort by (type, ts), then
    ONE vectorized island pass: running cummax of interval ends, island
    starts where ts exceeds the previous cummax, per-island coverage =
    last_end − first_start, all exact int64 microseconds."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    win_us = np.int64(COV_WIN_S * 1_000_000)

    def cover(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({"event_type": [], "covered_us": [], "n_islands": []})
        g = g.sort_values(["event_type", "ts"], kind="mergesort")
        ts = g["ts"].to_numpy().astype("datetime64[us]").view(np.int64)
        et = g["event_type"].to_numpy(dtype=object)
        end = ts + win_us
        new_type = np.concatenate([[True], et[1:] != et[:-1]])
        run_starts = np.flatnonzero(new_type)
        # one vectorized island pass per TYPE RUN (types-bounded loop,
        # <= |event types| iterations — not per row, not per island)
        rows = []
        for s0, s1 in zip(run_starts, np.append(run_starts[1:], len(ts))):
            t, e = ts[s0:s1], end[s0:s1]
            cm = np.maximum.accumulate(e)
            prev = np.concatenate([[t[0] - 1], cm[:-1]])
            isl_start = t > prev  # first row always starts an island
            starts = np.flatnonzero(isl_start)
            lens = np.diff(np.append(starts, s1 - s0))
            cov = cm[starts + lens - 1] - t[starts]
            rows.append((et[s0], int(cov.sum()), int(len(starts))))
        return pd.DataFrame(rows, columns=["event_type", "covered_us", "n_islands"])

    out = (_collect(map_key_buckets(ds, ["event_type"], cover, n_parts=16))
           .to_pandas().groupby("event_type", as_index=False).sum())
    out["covered_us"] = out["covered_us"].astype("int64")
    out["n_islands"] = out["n_islands"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)

