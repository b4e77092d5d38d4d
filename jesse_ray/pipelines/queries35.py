"""Catalog wave 35: one exact ALS (alternating least squares) step of
rank-2 matrix factorization over the user × event-type count matrix —
the collaborative-filtering training loop expressed as Dataset
combiners, with the user-factor intermediate QUANTIZED to integer 1e-6
units so the item-side sums are order-independent and the emitted
factors are bit-identical to the SQL twin.

Flow: deterministic item-factor init V0 → per-user closed-form 2×2
ridge solve x_u = (Σ v v^T + λI)^{-1} Σ r_uv v (floats from integer
inputs, one stated op order) → quantize x_u → item update from EXACT
integer moment sums → emit V1.  Same driver contract as
:mod:`.queries`."""

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


ALS_TYPES = ["click", "error", "purchase", "signup", "view"]  # rank order
ALS_LAM = 0.1
ALS_Q = 1_000_000  # user-factor quantization: integer 1e-6 units


def _v0() -> np.ndarray:
    T = len(ALS_TYPES)
    return np.stack([np.ones(T), (np.arange(T, dtype=np.float64) + 1.0) / T], axis=1)


def _als_sql() -> str:
    T = len(ALS_TYPES)
    vals = ", ".join(f"('{t}', {i}, 1.0, {(i + 1)}.0 / {T})"
                     for i, t in enumerate(ALS_TYPES))
    return f"""
WITH v0(event_type, ti, v1, v2) AS (VALUES {vals}),
r AS MATERIALIZED (
  SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS cnt
  FROM events GROUP BY 1, 2
),
ru AS (
  SELECT r.user_id,
         sum(v0.v1 * v0.v1 ORDER BY v0.ti) + {ALS_LAM} AS a,
         sum(v0.v1 * v0.v2 ORDER BY v0.ti) AS b,
         sum(v0.v2 * v0.v2 ORDER BY v0.ti) + {ALS_LAM} AS c,
         sum(CAST(r.cnt AS DOUBLE) * v0.v1 ORDER BY v0.ti) AS b1,
         sum(CAST(r.cnt AS DOUBLE) * v0.v2 ORDER BY v0.ti) AS b2
  FROM r JOIN v0 USING (event_type)
  GROUP BY 1
),
x AS MATERIALIZED (
  SELECT user_id,
         CAST(round((c * b1 - b * b2) / (a * c - b * b) * {ALS_Q}) AS BIGINT) AS x1q,
         CAST(round((a * b2 - b * b1) / (a * c - b * b) * {ALS_Q}) AS BIGINT) AS x2q
  FROM ru
),
m AS (
  SELECT v0.ti,
         sum(x.x1q * x.x1q) AS sxx11,
         sum(x.x1q * x.x2q) AS sxx12,
         sum(x.x2q * x.x2q) AS sxx22,
         sum(r.cnt * x.x1q) AS sb1,
         sum(r.cnt * x.x2q) AS sb2
  FROM r JOIN x USING (user_id) JOIN v0 USING (event_type)
  GROUP BY 1
),
f AS (
  SELECT ti,
         CAST(sxx11 AS DOUBLE) / ({ALS_Q}.0 * {ALS_Q}.0) + {ALS_LAM} AS a,
         CAST(sxx12 AS DOUBLE) / ({ALS_Q}.0 * {ALS_Q}.0) AS b,
         CAST(sxx22 AS DOUBLE) / ({ALS_Q}.0 * {ALS_Q}.0) + {ALS_LAM} AS c,
         CAST(sb1 AS DOUBLE) / {ALS_Q}.0 AS b1,
         CAST(sb2 AS DOUBLE) / {ALS_Q}.0 AS b2
  FROM m
)
SELECT v0.event_type,
       round((f.c * f.b1 - f.b * f.b2) / (f.a * f.c - f.b * f.b), 6) AS v1,
       round((f.a * f.b2 - f.b * f.b1) / (f.a * f.c - f.b * f.b), 6) AS v2
FROM f JOIN v0 USING (ti)
ORDER BY v0.ti
"""


@entry("events_als_step", sql=_als_sql())
def q_events_als_step(sf_dir: str) -> pd.DataFrame:
    """User solves ride a coarse user-hash shuffle (each part solves
    its users vectorized — closed-form 2×2, no LAPACK); the item
    update folds exact int64 moment partials (Σ x x^T, Σ r·x in 1e-6
    and 1e-12 units) through one tiny groupby.  Every float step is a
    stated closed form over integers, so the twin reproduces the
    factors bit-for-bit."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])
    v0 = _v0()
    tidx = {t: i for i, t in enumerate(ALS_TYPES)}

    def solve_users(g: pd.DataFrame) -> pd.DataFrame:
        r = g.groupby(["user_id", "event_type"], as_index=False).size()
        r["ti"] = r["event_type"].map(tidx)
        r = r.sort_values(["user_id", "ti"], kind="mergesort")
        uid = r["user_id"].to_numpy()
        ti = r["ti"].to_numpy(dtype=np.int64)
        cnt = r["size"].to_numpy(dtype=np.float64)
        v1 = v0[ti, 0]
        v2 = v0[ti, 1]
        # per-user sums in ascending type order (groupby preserves it)
        d = pd.DataFrame({
            "user_id": uid,
            "a": v1 * v1, "b": v1 * v2, "c": v2 * v2,
            "b1": cnt * v1, "b2": cnt * v2,
        })
        s = d.groupby("user_id", sort=True).sum()
        a = s["a"].to_numpy() + ALS_LAM
        bb = s["b"].to_numpy()
        c = s["c"].to_numpy() + ALS_LAM
        b1 = s["b1"].to_numpy()
        b2 = s["b2"].to_numpy()
        det = a * c - bb * bb
        x1 = (c * b1 - bb * b2) / det
        x2 = (a * b2 - bb * b1) / det
        # quantize so downstream sums are exact integers
        x1q = round_half_away(x1 * ALS_Q).astype(np.int64)
        x2q = round_half_away(x2 * ALS_Q).astype(np.int64)
        xdf = pd.DataFrame({"user_id": s.index.to_numpy(),
                            "x1q": x1q, "x2q": x2q})
        m = r.merge(xdf, on="user_id")
        # item-side integer moment partials per type
        m["sxx11"] = m["x1q"] * m["x1q"]
        m["sxx12"] = m["x1q"] * m["x2q"]
        m["sxx22"] = m["x2q"] * m["x2q"]
        m["sb1"] = m["size"].astype(np.int64) * m["x1q"]
        m["sb2"] = m["size"].astype(np.int64) * m["x2q"]
        # one partial row per (type) per part — dedup to user level first
        mu = m.drop_duplicates(["user_id", "ti"])
        out = mu.groupby("ti", as_index=False)[
            ["sxx11", "sxx12", "sxx22", "sb1", "sb2"]].sum()
        return out

    parts = (_collect(map_key_buckets(ds, ["user_id"], solve_users))
             .to_pandas().groupby("ti", as_index=False).sum()
             .sort_values("ti").reset_index(drop=True))
    # item solve from exact integer sums (converted once to float64)
    q = float(ALS_Q)
    a = parts["sxx11"].to_numpy(np.float64) / (q * q) + ALS_LAM
    bb = parts["sxx12"].to_numpy(np.float64) / (q * q)
    c = parts["sxx22"].to_numpy(np.float64) / (q * q) + ALS_LAM
    b1 = parts["sb1"].to_numpy(np.float64) / q
    b2 = parts["sb2"].to_numpy(np.float64) / q
    det = a * c - bb * bb
    w1 = (c * b1 - bb * b2) / det
    w2 = (a * b2 - bb * b1) / det
    return pd.DataFrame({
        "event_type": [ALS_TYPES[int(t)] for t in parts["ti"]],
        "v1": round_half_away(w1, 6),
        "v2": round_half_away(w2, 6),
    })

