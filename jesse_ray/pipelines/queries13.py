"""Catalog wave 13: duplication-structure and uncertainty audits — the
exact-duplicate cluster-size histogram (how is duplication mass
distributed?), the per-user event-type entropy profile, and Wilson
95% confidence intervals on event-type shares.

Same driver contract as :mod:`.queries`: bounded grids, shuffles only
where an entity/hash must be co-located, exact integers wherever the
twin compares them."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, entry
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.rounding import round_half_away


# ---------------------------------------------------------------------------
# seq_dup_cluster_hist — duplication-structure audit: histogram of
# exact-duplicate cluster sizes over token content.


SQL_SEQ_DUP_CLUSTER_HIST = f"""
WITH g AS (SELECT tokens, count(*) AS sz FROM {SEQ_SQL} GROUP BY tokens)
SELECT CAST(sz AS BIGINT) AS cluster_size, CAST(count(*) AS BIGINT) AS n_clusters
FROM g GROUP BY 1 ORDER BY 1
"""


@entry("seq_dup_cluster_hist", sql=SQL_SEQ_DUP_CLUSTER_HIST)
def q_seq_dup_cluster_hist(sf_dir: str) -> pd.DataFrame:
    """How many content clusters of each size does the corpus hold?
    (size 1 = unique rows; the planted hot keys surface as big
    clusters.)  Scale shape: 128-bit content hashing
    (`dedup.add_token_hash`, the exact-dedup convention — collisions
    are negligible at 2^128), ONE coarse hash shuffle, per-part
    cluster sizes, a tiny (size → count) histogram merge.  The twin
    groups by the raw token LIST, so a hash collision would fail the
    compare."""
    from jesse_ray.functions.dedup import add_token_hash

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])
    hashed = add_token_hash(ds, tokens_col="tokens", out_col="__h") \
        .map_batches(lambda b: pa.table({"__h": b["__h"]}),
                     batch_format="pyarrow", zero_copy_batch=True)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        sizes = g["__h"].value_counts().to_numpy()
        sz, cnt = np.unique(sizes, return_counts=True)
        return pd.DataFrame({"cluster_size": sz.astype("int64"),
                             "n_clusters": cnt.astype("int64")})

    m = _collect(map_key_buckets(hashed, ["__h"], per_part)) \
        .to_pandas().groupby("cluster_size", as_index=False)["n_clusters"].sum()
    return (m.astype({"cluster_size": "int64", "n_clusters": "int64"})
            .sort_values("cluster_size").reset_index(drop=True))


# ---------------------------------------------------------------------------
# events_user_entropy — behavioral-diversity profile: Shannon entropy
# of each user's event-type mix, summarized over users.


SQL_EVENTS_USER_ENTROPY = """
WITH c AS (SELECT user_id, event_type, count(*) AS n FROM events GROUP BY 1, 2),
t AS (SELECT user_id, sum(n) AS tot FROM c GROUP BY 1),
h AS (
  SELECT c.user_id, -sum((n * 1.0 / tot) * ln(n * 1.0 / tot)) AS ent
  FROM c JOIN t USING (user_id) GROUP BY 1
)
SELECT CAST(count(*) AS BIGINT) AS n_users,
       round(avg(ent), 5) AS mean_entropy,
       round(min(ent), 5) AS min_entropy,
       round(max(ent), 5) AS max_entropy
FROM h
"""


@entry("events_user_entropy", sql=SQL_EVENTS_USER_ENTROPY)
def q_events_user_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-user event-type entropy (nats), reported as (n_users, mean,
    min, max) — the single-note-user vs generalist profile.  Scale
    shape: a (user × type) count combiner, one user-hash shuffle so a
    part holds complete users, per-part entropy + (n, Σ, min, max)
    partials, driver merges ≤ #parts rows."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by(["user_id", "event_type"]).aggregate([([], "count_all")])
        return g.rename_columns(["user_id", "event_type", "n"])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["user_id", "event_type"], as_index=False)["n"].sum()
        # vectorized per-user entropy: H_u = ln(T_u) − Σ n ln n / T_u
        u = g["user_id"].to_numpy()
        n = g["n"].to_numpy(dtype=np.float64)
        order = np.argsort(u, kind="stable")
        u2, n2 = u[order], n[order]
        starts = np.flatnonzero(np.concatenate([[True], u2[1:] != u2[:-1]])) \
            if len(u2) else np.empty(0, dtype=np.int64)
        tot = np.add.reduceat(n2, starts) if len(starts) else n2[:0]
        snln = np.add.reduceat(n2 * np.log(n2), starts) if len(starts) else n2[:0]
        e = np.log(tot) - snln / tot
        if not len(e):
            return pd.DataFrame({"n": pd.Series([], dtype="int64"),
                                 "s": pd.Series([], dtype="float64"),
                                 "mn": pd.Series([], dtype="float64"),
                                 "mx": pd.Series([], dtype="float64")})
        return pd.DataFrame({"n": [len(e)], "s": [e.sum()],
                             "mn": [e.min()], "mx": [e.max()]})

    rows = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    m = _collect(map_key_buckets(rows, ["user_id"], per_part)).to_pandas()
    n = int(m["n"].sum())
    return pd.DataFrame({
        "n_users": pd.array([n], dtype="int64"),
        "mean_entropy": [round_half_away(float(m["s"].sum() / n), 5)],
        "min_entropy": [round_half_away(float(m["mn"].min()), 5)],
        "max_entropy": [round_half_away(float(m["mx"].max()), 5)],
    })


# ---------------------------------------------------------------------------
# events_type_share_wilson — Wilson 95% CI on each event type's share
# (the right interval for proportions, unlike the Wald normal).

_WZ = 1.96


SQL_EVENTS_TYPE_SHARE_WILSON = f"""
WITH c AS (SELECT event_type, CAST(count(*) AS BIGINT) AS k FROM events GROUP BY 1),
t AS (SELECT sum(k) AS n FROM c)
SELECT event_type, k,
       round(k * 1.0 / n, 5) AS share,
       round((k + {_WZ}*{_WZ}/2) / (n + {_WZ}*{_WZ})
             - {_WZ} / (n + {_WZ}*{_WZ}) * sqrt(k * 1.0 * (n - k) / n + {_WZ}*{_WZ}/4), 5) AS ci_lo,
       round((k + {_WZ}*{_WZ}/2) / (n + {_WZ}*{_WZ})
             + {_WZ} / (n + {_WZ}*{_WZ}) * sqrt(k * 1.0 * (n - k) / n + {_WZ}*{_WZ}/4), 5) AS ci_hi
FROM c, t ORDER BY event_type
"""


@entry("events_type_share_wilson", sql=SQL_EVENTS_TYPE_SHARE_WILSON)
def q_events_type_share_wilson(sf_dir: str) -> pd.DataFrame:
    """Share of each event type with the Wilson score interval:
    center (k + z²/2)/(n + z²), margin z/(n + z²)·√(k(n−k)/n + z²/4).
    Scale shape: a ≤ #types count combiner; the interval algebra is
    driver-side on exact integers."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type"])

    def partial(b: pa.Table) -> pa.Table:
        g = b.group_by("event_type").aggregate([([], "count_all")])
        return g.rename_columns(["event_type", "n"])

    m = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)) \
        .group_by("event_type").aggregate([("n", "sum")]).sort_by("event_type").to_pandas()
    k = m["n_sum"].to_numpy(dtype=np.float64)
    n = k.sum()
    z2 = _WZ * _WZ
    center = (k + z2 / 2.0) / (n + z2)
    margin = _WZ / (n + z2) * np.sqrt(k * (n - k) / n + z2 / 4.0)
    return pd.DataFrame({
        "event_type": m["event_type"].to_numpy(),
        "k": pd.array(k.astype(np.int64), dtype="int64"),
        "share": round_half_away(k / n, 5),
        "ci_lo": round_half_away(center - margin, 5),
        "ci_hi": round_half_away(center + margin, 5),
    })

