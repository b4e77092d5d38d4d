"""Catalog wave 39: perceptual image dedup over the REAL codec path —
difference hash (dHash) of every synthetic PPM image via real decode +
real nearest-neighbor resize to 9×8 and horizontal brightness diffs —
plus a per-entity event cap (the rate-limit / fair-exposure curation
primitive).

Same driver contract as :mod:`.queries`.  The dHash twin regenerates
the sampled pixels analytically from the PPM formula and re-derives
every hash bit in SQL, so decode, resize floor-mapping and bit packing
are all genuinely under test."""

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
# media_ppm_dhash — perceptual difference hash over the real PPM path:
# decode → nearest resize to (8 rows × 9 cols) → brightness = r+g+b →
# bit(row, col) = 1 if v[row, col+1] > v[row, col] → 64-bit hash.

N_PPM_DH = 48
DH_ROWS, DH_COLS = 8, 9


def _dhash_sql() -> str:
    # regenerate the sampled brightness analytically: pixel(x,y,c) =
    # (a*x + b*y + i + 11c) % 256; brightness = sum over c; sampled at
    # ys = row*h // 8, xs = col*w // 9 (the resize floor mapping)
    return f"""
WITH img AS (
  SELECT i,
         16 + (i % 17)       AS w,
         12 + ((i * 7) % 13) AS h,
         1 + (i % 5)         AS a,
         2 + (i % 7)         AS b
  FROM (SELECT unnest(range(0, {N_PPM_DH})) AS i)
),
grid AS (
  SELECT img.i, img.a, img.b, r.r, c.c,
         (r.r * img.h) // {DH_ROWS} AS y,
         (c.c * img.w) // {DH_COLS} AS x
  FROM img
  CROSS JOIN (SELECT unnest(range(0, {DH_ROWS})) AS r) r
  CROSS JOIN (SELECT unnest(range(0, {DH_COLS})) AS c) c
),
bright AS (
  SELECT i, r, c,
         ((a * x + b * y + i) % 256)
         + ((a * x + b * y + i + 11) % 256)
         + ((a * x + b * y + i + 22) % 256) AS v
  FROM grid
),
bits AS (
  SELECT b1.i, b1.r, b1.c AS col,
         CASE WHEN b2.v > b1.v THEN 1 ELSE 0 END AS bit
  FROM bright b1
  JOIN bright b2 ON b2.i = b1.i AND b2.r = b1.r AND b2.c = b1.c + 1
  WHERE b1.c < {DH_COLS - 1}
),
h AS (
  SELECT i,
         CAST(sum(CASE WHEN bit = 1
                       THEN CASE WHEN r * {DH_COLS - 1} + col = 63
                                 THEN -9223372036854775808
                                 ELSE (CAST(1 AS BIGINT) << (r * {DH_COLS - 1} + col)) END
                       ELSE 0 END) AS BIGINT) AS dhash
  FROM bits GROUP BY i
)
SELECT printf('ppm-%06d', i) AS media_id, dhash
FROM h ORDER BY media_id
"""


@entry("media_ppm_dhash", sql=_dhash_sql())
def q_media_ppm_dhash(sf_dir: str) -> pd.DataFrame:
    """Actor-pool decode + the library's real resize_nearest; the hash
    packs row-major with bit 0 = (row 0, col diff 0).  Emitted as
    int64 (two's complement of the uint64 hash, the BIGINT convention)."""
    import ray.data

    from jesse_ray.functions.multimodal import (
        decode_ppm,
        make_synthetic_ppm_table,
        resize_nearest,
    )

    ds = ray.data.from_arrow(make_synthetic_ppm_table(N_PPM_DH))

    def dhash(b: pa.Table) -> pa.Table:
        pays = b["payload"].to_pylist()
        out = np.empty(len(pays), dtype=np.uint64)
        for i, p in enumerate(pays):
            px = decode_ppm(p)
            small = resize_nearest(px, DH_ROWS, DH_COLS).astype(np.int64)
            bright = small.sum(axis=2)  # r+g+b, exact ints
            bits = (bright[:, 1:] > bright[:, :-1]).ravel()
            h = np.uint64(0)
            for j, bit in enumerate(bits):
                if bit:
                    h |= np.uint64(1) << np.uint64(j)
            out[i] = h
        return pa.table({"media_id": b["media_id"],
                         "dhash": pa.array(out.view(np.int64))})

    t = _collect(ds.map_batches(dhash, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=16)).to_pandas()
    return t.sort_values("media_id").reset_index(drop=True)


# ---------------------------------------------------------------------------
# events_per_user_cap — keep each user's first CAP_N events by
# (ts, event_id): the rate-limit / fair-exposure curation primitive.
# Emits kept counts per event type plus the total dropped.

CAP_N = 5


SQL_EVENTS_PER_USER_CAP = f"""
WITH r AS (
  SELECT event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
),
k AS (SELECT event_type, CAST(count(*) AS BIGINT) AS kept
      FROM r WHERE rn <= {CAP_N} GROUP BY 1)
SELECT event_type, kept,
       (SELECT CAST(count(*) AS BIGINT) FROM events)
         - (SELECT CAST(sum(kept) AS BIGINT) FROM k) AS dropped_total
FROM k ORDER BY 1
"""


@entry("events_per_user_cap", sql=SQL_EVENTS_PER_USER_CAP)
def q_events_per_user_cap(sf_dir: str) -> pd.DataFrame:
    """Coarse user-hash shuffle; per part one mergesort + a vectorized
    within-user rank (cumcount), cap filter, per-type partial counts."""
    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "user_id", "ts", "event_type"])

    def cap(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        rank = g.groupby("user_id").cumcount()
        kept = g[(rank < CAP_N).to_numpy()]
        out = kept.groupby("event_type", as_index=False).size()
        out = out.rename(columns={"size": "kept"})
        out["dropped"] = np.int64(0)
        # one part-level dropped partial under a reserved key
        drop = pd.DataFrame({"event_type": ["__dropped__"], "kept": [0],
                             "dropped": [len(g) - len(kept)]})
        return pd.concat([out, drop], ignore_index=True)

    t = _collect(map_key_buckets(ds, ["user_id"], cap)).to_pandas()
    dropped_total = int(t["dropped"].sum())
    agg = (t[t["event_type"] != "__dropped__"]
           .groupby("event_type", as_index=False)["kept"].sum())
    agg["kept"] = agg["kept"].astype("int64")
    agg["dropped_total"] = np.int64(dropped_total)
    return agg.sort_values("event_type").reset_index(drop=True)

