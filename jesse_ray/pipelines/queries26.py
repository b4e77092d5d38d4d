"""Catalog wave 26: the REAL GIF87a codec path — a genuinely different
compression algorithm from PNG's DEFLATE: variable-width LZW with
LSB-first bit packing, clear/EOI codes, dictionary growth with code
widening (and the decoder's one-entry-lag early widening), the KwKwK
corner case and 255-byte sub-block framing, in pure python/numpy with
no codec library.

Same driver contract as :mod:`.queries`: the synthetic corpus is a
closed-form palette-index field, so the DuckDB twin regenerates every
pixel AND the deterministic palette, putting the whole compressed
round-trip (LZW encode → frame → reassemble → LZW decode → palette
map) genuinely under test."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


N_GIF = 40


SQL_MEDIA_GIF_REAL = f"""
WITH img AS (
  SELECT i,
         24 + (i % 17)       AS w,
         20 + ((i * 5) % 13) AS h,
         2 + (i % 4)         AS a,
         1 + (i % 6)         AS b
  FROM (SELECT unnest(range(0, {N_GIF})) AS i)
),
xs AS (SELECT i, unnest(range(0, w)) AS x FROM img),
ys AS (SELECT i, unnest(range(0, h)) AS y FROM img),
px AS (
  SELECT img.i, img.w, img.h,
         (img.a * xs.x + img.b * ys.y + xs.x * ys.y + 2 * img.i) % 256 AS v
  FROM img
  JOIN xs ON xs.i = img.i
  JOIN ys ON ys.i = img.i
)
SELECT printf('gif-%06d', i) AS media_id,
       CAST(w AS BIGINT) AS width, CAST(h AS BIGINT) AS height,
       CAST(sum(v) AS BIGINT) AS sum_r,
       CAST(sum((7 * v) % 256) AS BIGINT) AS sum_g,
       CAST(sum((13 * v) % 256) AS BIGINT) AS sum_b
FROM px GROUP BY i, w, h ORDER BY media_id
"""


@entry("media_gif_real", sql=SQL_MEDIA_GIF_REAL)
def q_media_gif_real(sf_dir: str) -> pd.DataFrame:
    """REAL GIF87a decode in an actor pool: formula pixels → GIF bytes
    (LZW, images sized so the 9→10-bit widening fires) → real decode →
    palette-mapped exact int64 channel sums."""
    import ray.data

    from jesse_ray.functions.multimodal import (
        gif_channel_sums,
        make_synthetic_gif_table,
    )

    ds = ray.data.from_arrow(make_synthetic_gif_table(N_GIF))
    out = _collect(gif_channel_sums(ds)).to_pandas()
    out = out.sort_values("media_id").reset_index(drop=True)
    return out.astype({"width": "int64", "height": "int64"})

