"""Catalog wave 9: the token-set exact similarity join over the
pre-tokenized corpus (the north-rule's own table shape), the FORWARD
as-of join (next-event attribution), and exact interpolated
(quantile_cont) per-group percentiles.

Same driver contract as :mod:`.queries`: column names match the DuckDB
twin exactly; the similarity join emits EXACT integer (inter, union)
truth columns so no float-rounding tie can split the engines."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.pipelines.queries import SEQ_SQL, _collect, _seq_path, entry
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.rounding import round_half_away


# ---------------------------------------------------------------------------
# seq_prefix_jaccard — EXACT token-set Jaccard similarity self-join over
# a deterministic corpus slice: distinct-token sets, AllPairs/PPJoin
# prefix filtering, no LSH, recall 1.0 by construction.

_SPJ_MOD = 11  # deterministic slice: numeric doc id ≡ 0 (mod 11)


SQL_SEQ_PREFIX_JACCARD = f"""
WITH m AS (
  SELECT {_SPJ_MOD} * GREATEST(1, ((SELECT count(*) FROM {SEQ_SQL}) + 30000) // 60000) AS mod
),
raw AS (
  SELECT CAST(substr(doc_id, 5) AS BIGINT) AS k, tokens
  FROM {SEQ_SQL}
  WHERE CAST(substr(doc_id, 5) AS BIGINT) % (SELECT mod FROM m) = 0
),
uniq AS (SELECT k FROM raw GROUP BY k HAVING count(*) = 1),
s AS (SELECT raw.k, list_distinct(tokens) AS ts FROM raw JOIN uniq ON uniq.k = raw.k),
sz AS (SELECT k, len(ts) AS n FROM s),
e AS (SELECT k, unnest(ts) AS tok FROM s),
p AS (
  SELECT a.k AS l, b.k AS r, CAST(count(*) AS BIGINT) AS inter
  FROM e a JOIN e b ON a.tok = b.tok AND a.k < b.k
  GROUP BY 1, 2
)
SELECT l AS "left", r AS "right", inter,
       CAST(sa.n + sb.n - inter AS BIGINT) AS union_sz
FROM p JOIN sz sa ON sa.k = p.l JOIN sz sb ON sb.k = p.r
WHERE inter * 1.0 / (sa.n + sb.n - inter) >= 0.3
ORDER BY 1, 2
"""


@entry("seq_prefix_jaccard", sql=SQL_SEQ_PREFIX_JACCARD)
def q_seq_prefix_jaccard(sf_dir: str) -> pd.DataFrame:
    """Token-SET Jaccard ≥ 0.3 join over the tokenized sequences slice
    (`functions/dedup.py token_prefix_jaccard_join`): each row's
    element set is its distinct token ids — the pre-tokenized-corpus
    variant of the prefix-filter join.  Output carries EXACT integer
    (inter, union_sz) so the brute-force twin matches bit-for-bit.
    The slice (numeric id ≡ 0 mod a SCALE-INVARIANT modulus — 11 at the
    driver's sf0.01, growing with row count so the slice stays ~5-6k
    docs at every sf) bounds the twin's all-pairs cost AND keeps the
    exact join's per-token runs under its skew cap; a zero-drop
    assertion on the DropCounter makes any cap engagement a loud
    failure rather than silent recall loss (found at sf0.1 round 4:
    the fixed mod-11 slice grew to 45k docs and the cap silently
    dropped 60% of the true pairs).  Rows whose doc id is DUPLICATED
    are excluded first (the corpus plants duplicate ids for the
    uniqueness family — a set-similarity join needs one set per key),
    via one coarse key shuffle."""
    from jesse_ray.functions.dedup import DropCounter, token_prefix_jaccard_join

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens"])
    n_raw = read_sequences(_seq_path(sf_dir), columns=["doc_id"]).count()
    # integer-exact scale factor (no float round: half-even vs
    # half-away would split the engines at a .5 boundary)
    mod = _SPJ_MOD * max(1, (n_raw + 30_000) // 60_000)

    def slice_and_key(b: pa.Table) -> pa.Table:
        k = pc.cast(pc.utf8_slice_codeunits(b["doc_id"], 4, 99), pa.int64())
        t = pa.table({"doc_id": k, "tokens": b["tokens"]})
        return t.filter(pc.equal(pc.subtract(k, pc.multiply(pc.divide(k, mod), mod)), 0))

    def only_unique_ids(g: pa.Table) -> pa.Table:
        # all-Arrow (a pandas hop would mangle the list column into the
        # tensor extension type): keep ids appearing exactly once
        cnt = g.group_by("doc_id").aggregate([([], "count_all")])
        once = cnt.filter(pc.equal(cnt["count_all"], 1))["doc_id"]
        return g.filter(pc.is_in(g["doc_id"], value_set=once.combine_chunks()))

    sl = map_key_buckets(ds.map_batches(slice_and_key, batch_format="pyarrow", zero_copy_batch=True),
                         ["doc_id"], only_unique_ids, batch_format="pyarrow")
    import ray as _ray

    counter = DropCounter.remote() if _ray.is_initialized() else None
    pdf = token_prefix_jaccard_join(sl, threshold_num=3, threshold_den=10,
                                    emit_counts=True, drop_counter=counter).to_pandas()
    if counter is not None:
        drops = _ray.get(counter.get.remote())
        if drops["dropped_buckets"]:
            raise RuntimeError(
                f"seq_prefix_jaccard: exactness violated — skew cap dropped "
                f"{drops['dropped_rows']} candidate rows; shrink the slice "
                f"or raise bucket_cap ({drops})")
    if pdf.empty:
        return pd.DataFrame({"left": pd.array([], dtype="int64"),
                             "right": pd.array([], dtype="int64"),
                             "inter": pd.array([], dtype="int64"),
                             "union_sz": pd.array([], dtype="int64")})
    return (pdf[["left", "right", "inter", "union_sz"]]
            .sort_values(["left", "right"]).reset_index(drop=True))


# ---------------------------------------------------------------------------
# events_asof_forward — FORWARD as-of join: every click picks the
# user's NEXT purchase (earliest purchase at ts >= click ts).


SQL_EVENTS_ASOF_FORWARD = """
WITH c AS (SELECT user_id, ts FROM events WHERE event_type = 'click'),
p AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase'),
j AS (
  SELECT c.user_id, c.ts, p.ts AS ts2
  FROM c ASOF LEFT JOIN p ON c.user_id = p.user_id AND c.ts <= p.ts
)
SELECT CAST(count(*) AS BIGINT) AS n_clicks,
       CAST(count(ts2) AS BIGINT) AS n_matched,
       round(CAST(sum(epoch_us(ts2 - ts)) AS DOUBLE) / count(ts2) / 1e6, 3) AS avg_delay_s
FROM j
"""


@entry("events_asof_forward", sql=SQL_EVENTS_ASOF_FORWARD)
def q_events_asof_forward(sf_dir: str) -> pd.DataFrame:
    """Next-event attribution via `relational.asof_join(
    direction="forward")` (DuckDB ``ASOF LEFT JOIN ... ON l.ts <= r.ts``
    parity): clicks matched to the same user's next purchase; reports
    match rate and mean click→purchase delay.  Scale shape: one
    entity-hash cogroup, per-part C-level merge_asof — no global
    sort."""
    from jesse_ray.pipelines.relational import asof_join

    ev = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "user_id", "ts"])

    def pick(kind):
        def f(b: pa.Table) -> pa.Table:
            t = b.filter(pc.equal(b["event_type"], kind))
            return t.select(["user_id", "ts"])
        return f

    clicks = ev.map_batches(pick("click"), batch_format="pyarrow", zero_copy_batch=True)
    purch = ev.map_batches(pick("purchase"), batch_format="pyarrow", zero_copy_batch=True)
    j = asof_join(clicks, purch, by="user_id", left_ts="ts", right_ts="ts",
                  right_cols=[], direction="forward")

    def agg(b: pa.Table) -> pa.Table:
        l = b["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        r = b["ts_r"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        ok = pc.is_valid(b["ts_r"]).to_numpy(zero_copy_only=False)
        return pa.table({
            "n": pa.array([len(l)], type=pa.int64()),
            "m": pa.array([int(ok.sum())], type=pa.int64()),
            "d": pa.array([int((r[ok] - l[ok]).sum())], type=pa.int64()),
        })

    m = _collect(j.map_batches(agg, batch_format="pyarrow"))
    n = int(pc.sum(m["n"]).as_py())
    mm = int(pc.sum(m["m"]).as_py())
    dd = int(pc.sum(m["d"]).as_py())
    return pd.DataFrame({
        "n_clicks": pd.array([n], dtype="int64"),
        "n_matched": pd.array([mm], dtype="int64"),
        "avg_delay_s": [round_half_away(dd / mm / 1e6, 3)],
    })


# ---------------------------------------------------------------------------
# events_value_pctl_cont — exact INTERPOLATED per-type percentiles
# (quantile_cont / numpy linear parity), complementing the exact
# discrete-quantile path.

_PCTL_QS = [0.5, 0.9, 0.99]


SQL_EVENTS_VALUE_PCTL_CONT = """
SELECT event_type, q, pctl FROM (
  SELECT event_type, 0.5 AS q, round(quantile_cont(value, 0.5), 5) AS pctl
  FROM events WHERE value IS NOT NULL GROUP BY 1
  UNION ALL
  SELECT event_type, 0.9, round(quantile_cont(value, 0.9), 5)
  FROM events WHERE value IS NOT NULL GROUP BY 1
  UNION ALL
  SELECT event_type, 0.99, round(quantile_cont(value, 0.99), 5)
  FROM events WHERE value IS NOT NULL GROUP BY 1
)
ORDER BY event_type, q
"""


@entry("events_value_pctl_cont", sql=SQL_EVENTS_VALUE_PCTL_CONT)
def q_events_value_pctl_cont(sf_dir: str) -> pd.DataFrame:
    """quantile_cont(value, q) per event type for q ∈ {0.5, 0.9, 0.99}
    — the linear-interpolation rule (x[f] + frac·(x[c]−x[f]) at
    pos = q·(n−1)), identical to numpy's default.  Scale shape: the
    bounded (event_type × distinct-value) count grid
    (relational.grouped_quantile_grid) — a per-batch count combiner, a
    distributed grid merge, and a driver lerp over cumulative counts;
    no task ever holds or sorts one type's full value set."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    from jesse_ray.pipelines.relational import grouped_quantile_grid

    rows = [
        (et, q, round_half_away(val, 5))
        for et, q, val in grouped_quantile_grid(ds, "event_type", "value", _PCTL_QS)
    ]
    return (pd.DataFrame(rows, columns=["event_type", "q", "pctl"])
            .sort_values(["event_type", "q"]).reset_index(drop=True))

