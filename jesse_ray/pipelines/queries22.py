"""Catalog wave 22: the remaining classic TPC-H decision-support shapes
(Q4 EXISTS semi-join, Q12 delay-bucket pivot, Q13 outer-join
distribution, Q17 correlated-average gate, Q21 only-late-supplier
multi-EXISTS) re-expressed over the synthetic warehouse, plus two new
operators: per-entity running balance (ordered prefix sum,
relational.grouped_cumsum) and a Neyman-allocation stratified sampling
plan (the optimal-variance corpus-mixing design).

Same driver contract as :mod:`.queries`: column names match the DuckDB
twin exactly; currency aggregates ride exact int64 cents so emitted
floats are bit-identical to the twin (the r5 strict-sweep discipline).
The reference has no warehouse operators — these rows extend SURVEY
§2.5's corpus-scale redesign, citing the reference only for the
validation-engine contract they compose with (src/jesse.erl:1-40).
"""

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


def _cents(arr) -> pc.Expression | pa.Array:
    """Exact integer cents from a 2-decimal float column."""
    return pc.cast(pc.round(pc.multiply(arr, 100.0)), pa.int64())


# ---------------------------------------------------------------------------
# tpch_q4ish — order-priority checking: orders in a quarter with at
# least one LATE line (shipped >30 days after the order date), counted
# by priority.  The classic EXISTS semi-join.

Q4_LO, Q4_HI = "1996-01-01", "1996-04-01"
Q4_LATE_DAYS = 30


SQL_TPCH_Q4ISH = f"""
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders
FROM orders
WHERE o_orderdate >= TIMESTAMP '{Q4_LO}' AND o_orderdate < TIMESTAMP '{Q4_HI}'
  AND EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey
                AND l_shipdate > o_orderdate + INTERVAL {Q4_LATE_DAYS} DAY)
GROUP BY 1 ORDER BY 1
"""


@entry("tpch_q4ish", sql=SQL_TPCH_Q4ISH)
def q_tpch_q4ish(sf_dir: str) -> pd.DataFrame:
    """Q4 shape: the EXISTS turns into an inner hash join (lineitem is
    the big side, the quarter's orders the small-but-not-broadcast
    side), a vectorized lateness filter on the joined batch, then a
    distinct-orderkey collapse (group_by) before the tiny priority
    count — the semi-join never materializes duplicate orders."""
    from jesse_ray.pipelines.relational import hash_join

    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])

    def owin(b: pa.Table) -> pa.Table:
        lo = pa.scalar(np.datetime64(Q4_LO, "us"), type=pa.timestamp("us"))
        hi = pa.scalar(np.datetime64(Q4_HI, "us"), type=pa.timestamp("us"))
        m = pc.and_(pc.greater_equal(b["o_orderdate"], lo),
                    pc.less(b["o_orderdate"], hi))
        t = b.filter(m)
        return pa.table({"l_orderkey": t["o_orderkey"],
                         "o_orderdate": t["o_orderdate"],
                         "o_orderpriority": t["o_orderpriority"]})

    owin_ds = orders.map_batches(owin, batch_format="pyarrow", zero_copy_batch=True)
    li = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"])
    j = hash_join(li, owin_ds, on="l_orderkey", how="inner")

    def late_orders(b: pa.Table) -> pa.Table:
        cutoff = pc.add(b["o_orderdate"],
                        pa.scalar(Q4_LATE_DAYS * 86_400_000_000, type=pa.duration("us")))
        t = b.filter(pc.greater(b["l_shipdate"], cutoff))
        # batch-local distinct collapse before the shuffle
        return (t.select(["l_orderkey", "o_orderpriority"])
                .group_by(["l_orderkey", "o_orderpriority"]).aggregate([]))

    dist = (j.map_batches(late_orders, batch_format="pyarrow", zero_copy_batch=True)
            .groupby(["l_orderkey", "o_orderpriority"]).count())

    def pcount(b: pa.Table) -> pa.Table:
        g = b.group_by("o_orderpriority").aggregate([([], "count_all")])
        return g.rename_columns(["o_orderpriority", "pn"])

    from ray.data.aggregate import Sum as _Sum

    agg = _collect(dist.map_batches(pcount, batch_format="pyarrow",
                                    zero_copy_batch=True)
                   .groupby("o_orderpriority")
                   .aggregate(_Sum("pn", alias_name="n_orders"))).to_pandas()
    agg["n_orders"] = agg["n_orders"].astype("int64")
    return agg.sort_values("o_orderpriority").reset_index(drop=True)


# ---------------------------------------------------------------------------
# tpch_q12ish — shipping-delay buckets x order priority (Q12's
# shipmode/priority pivot with delay buckets standing in for shipmode).

SQL_TPCH_Q12ISH = """
SELECT CASE WHEN d < 0 THEN 'early' WHEN d <= 30 THEN 'd00_30'
            WHEN d <= 90 THEN 'd31_90' ELSE 'd90_plus' END AS bucket,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END) AS BIGINT) AS high_lines,
       CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH') THEN 0 ELSE 1 END) AS BIGINT) AS low_lines
FROM (SELECT o_orderpriority, datediff('day', o_orderdate, l_shipdate) AS d
      FROM lineitem JOIN orders ON l_orderkey = o_orderkey)
GROUP BY 1 ORDER BY 1
"""


@entry("tpch_q12ish", sql=SQL_TPCH_Q12ISH)
def q_tpch_q12ish(sf_dir: str) -> pd.DataFrame:
    """Q12 shape: lineitem joins the order header, the delay bucket is
    one vectorized timestamp diff, and the CASE-priority pivot is two
    conditional int sums per bucket folded through combiner partials."""
    from jesse_ray.pipelines.relational import grouped_agg, hash_join

    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_orderdate", "o_orderpriority"])
    orders_k = orders.map_batches(
        lambda b: b.rename_columns(["l_orderkey", "o_orderdate", "o_orderpriority"]),
        batch_format="pyarrow", zero_copy_batch=True)
    li = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"])
    j = hash_join(li, orders_k, on="l_orderkey", how="inner")

    def prep(b: pa.Table) -> pa.Table:
        days = pc.cast(pc.days_between(b["o_orderdate"], b["l_shipdate"]), pa.int64())
        bucket = pc.if_else(
            pc.less(days, 0), "early",
            pc.if_else(pc.less_equal(days, 30), "d00_30",
                       pc.if_else(pc.less_equal(days, 90), "d31_90", "d90_plus")))
        hi = pc.is_in(b["o_orderpriority"],
                      value_set=pa.array(["1-URGENT", "2-HIGH"]))
        hi64 = pc.cast(hi, pa.int64())
        return pa.table({"bucket": bucket, "high_line": hi64,
                         "low_line": pc.subtract(pa.scalar(1, type=pa.int64()), hi64)})

    pre = j.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(grouped_agg(pre, ["bucket"], sums=["high_line", "low_line"],
                               count_alias=None)).to_pandas()
    pdf = pd.DataFrame({
        "bucket": out["bucket"],
        "high_lines": out["sum_high_line"].astype("int64"),
        "low_lines": out["sum_low_line"].astype("int64"),
    })
    return pdf.sort_values("bucket").reset_index(drop=True)


# ---------------------------------------------------------------------------
# tpch_q13ish — customer order-count distribution (Q13's LEFT JOIN +
# double aggregation), restricted to non-final orders.

SQL_TPCH_Q13ISH = """
SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
FROM (SELECT c_custkey, CAST(count(o_orderkey) AS BIGINT) AS c_count
      FROM customer LEFT JOIN orders
        ON c_custkey = o_custkey AND o_orderstatus <> 'F'
      GROUP BY c_custkey)
GROUP BY c_count
ORDER BY custdist DESC, c_count DESC
"""


@entry("tpch_q13ish", sql=SQL_TPCH_Q13ISH)
def q_tpch_q13ish(sf_dir: str) -> pd.DataFrame:
    """Q13 shape WITHOUT the outer join: per-customer order counts from
    one groupby over the filtered fact side; the zero-order bucket is
    total customers minus customers seen — the histogram is closed-form
    from the aggregate, so nothing left-joins a dimension at scale."""
    from jesse_ray.pipelines.relational import grouped_agg

    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_custkey", "o_orderstatus"])

    def keep(b: pa.Table) -> pa.Table:
        t = b.filter(pc.not_equal(b["o_orderstatus"], "F"))
        return pa.table({"o_custkey": t["o_custkey"],
                         "one": pa.array(np.ones(t.num_rows, dtype=np.int64))})

    per_cust = _collect(grouped_agg(
        orders.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True),
        ["o_custkey"], sums=["one"], count_alias=None)).to_pandas()
    cust = read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey"]).to_pandas()
    n_cust = len(cust)
    # semi-filter: orders referencing a custkey outside the dimension
    # (referential dirt) must not mint phantom histogram rows — the SQL
    # twin's LEFT JOIN only counts per existing customer
    per_cust = per_cust[per_cust["o_custkey"].isin(cust["c_custkey"])]
    hist = per_cust["sum_one"].value_counts().sort_index()
    rows = [(0, int(n_cust - len(per_cust)))] + [
        (int(k), int(v)) for k, v in hist.items()]
    pdf = pd.DataFrame(rows, columns=["c_count", "custdist"])
    pdf = pdf[pdf["custdist"] > 0]
    return (pdf.sort_values(["custdist", "c_count"], ascending=[False, False])
            .reset_index(drop=True).astype({"c_count": "int64", "custdist": "int64"}))


# ---------------------------------------------------------------------------
# tpch_q17ish — small-quantity-order revenue (Q17's correlated per-part
# average gate), integer-exact.

Q17_BRAND = "Brand#11"


SQL_TPCH_Q17ISH = f"""
WITH b AS (
  SELECT l_partkey, CAST(round(l_quantity) AS BIGINT) AS qi,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS cents
  FROM lineitem JOIN part ON l_partkey = p_partkey AND p_brand = '{Q17_BRAND}'
), a AS (
  SELECT l_partkey, sum(qi) AS sq, CAST(count(*) AS BIGINT) AS cnt
  FROM b GROUP BY 1
)
SELECT round(CAST(sum(b.cents) AS DOUBLE) / 700.0, 2) AS avg_yearly
FROM b JOIN a USING (l_partkey)
WHERE 5 * b.qi * a.cnt < a.sq
"""


@entry("tpch_q17ish", sql=SQL_TPCH_Q17ISH)
def q_tpch_q17ish(sf_dir: str) -> pd.DataFrame:
    """Q17 shape: the correlated AVG subquery becomes one grouped_agg
    over the brand's lineitems (sum + count per part) joined back to
    the same slice; the gate l_quantity < 0.2*avg is evaluated in exact
    integer cross-multiplied form (5*q*cnt < sq — quantities are
    integral), and revenue sums exact cents before the single /7.0."""
    from jesse_ray.pipelines.relational import grouped_agg, hash_join

    part = read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand"])

    def bkeep(b: pa.Table) -> pa.Table:
        t = b.filter(pc.equal(b["p_brand"], Q17_BRAND))
        return pa.table({"l_partkey": t["p_partkey"]})

    bparts = part.map_batches(bkeep, batch_format="pyarrow", zero_copy_batch=True)
    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_partkey", "l_quantity", "l_extendedprice"])
    # brand slice first: both later stages run over lineitem/25
    sli = hash_join(li, bparts, on="l_partkey", how="inner")

    def q_int(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_partkey": b["l_partkey"],
            "qi": pc.cast(pc.round(b["l_quantity"]), pa.int64()),
            "cents": _cents(b["l_extendedprice"]),
        })

    sli = sli.map_batches(q_int, batch_format="pyarrow", zero_copy_batch=True).materialize()
    avg = grouped_agg(sli, ["l_partkey"], sums=["qi"], count_alias="cnt")
    avg = avg.map_batches(
        lambda b: pa.table({"l_partkey": b["l_partkey"], "sq": b["sum_qi"],
                            "cnt": pc.cast(b["cnt"], pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(sli, avg, on="l_partkey", how="inner")

    def gate(b: pa.Table) -> pa.Table:
        # l_quantity < 0.2 * (sq / cnt)  <=>  5 * qi * cnt < sq  (exact)
        lhs = pc.multiply(pc.multiply(b["qi"], pa.scalar(5, type=pa.int64())), b["cnt"])
        t = b.filter(pc.less(lhs, b["sq"]))
        return pa.table({"cents": t["cents"]})

    kept = j.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)
    total = 0
    for b in kept.iter_batches(batch_format="pyarrow"):
        s = pc.sum(b["cents"]).as_py()
        total += int(s) if s is not None else 0
    avg_yearly = round_half_away(float(total) / 700.0, 2)
    return pd.DataFrame({"avg_yearly": pd.array([avg_yearly], dtype="float64")})


# ---------------------------------------------------------------------------
# tpch_q21ish — suppliers who were the ONLY late shipper on
# multi-supplier orders (Q21's EXISTS / NOT EXISTS pair).

Q21_LATE_DAYS = 45
Q21_TOPK = 20


SQL_TPCH_Q21ISH = f"""
WITH pair AS (
  SELECT l_orderkey, l_suppkey,
         max(CASE WHEN l_shipdate > o_orderdate + INTERVAL {Q21_LATE_DAYS} DAY
                  THEN 1 ELSE 0 END) AS late
  FROM lineitem JOIN orders ON l_orderkey = o_orderkey
  GROUP BY 1, 2
), o AS (
  SELECT l_orderkey, CAST(count(*) AS BIGINT) AS ns,
         CAST(sum(late) AS BIGINT) AS nl,
         max(CASE WHEN late = 1 THEN l_suppkey END) AS lsup
  FROM pair GROUP BY 1
)
SELECT s_name, CAST(count(*) AS BIGINT) AS numwait
FROM o JOIN supplier ON s_suppkey = lsup
WHERE ns >= 2 AND nl = 1
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT {Q21_TOPK}
"""


@entry("tpch_q21ish", sql=SQL_TPCH_Q21ISH)
def q_tpch_q21ish(sf_dir: str) -> pd.DataFrame:
    """Q21 shape WITHOUT the triple self-join: one lineitem⋈orders hash
    join stamps lateness, then a single per-order aggregate computes
    (distinct suppliers, distinct late suppliers, the single late
    supplier id) — EXISTS(other supplier) is ns >= 2 and NOT EXISTS
    (other late supplier) is nl == 1, read straight off the aggregate.
    Per-supplier counts then join the supplier dimension (broadcast
    scale: |supplier| = |lineitem|/600)."""
    from jesse_ray.pipelines.relational import hash_join

    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_orderdate"])
    orders_k = orders.map_batches(
        lambda b: b.rename_columns(["l_orderkey", "o_orderdate"]),
        batch_format="pyarrow", zero_copy_batch=True)
    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_orderkey", "l_suppkey", "l_shipdate"])
    j = hash_join(li, orders_k, on="l_orderkey", how="inner")

    def stamp(b: pa.Table) -> pa.Table:
        cutoff = pc.add(b["o_orderdate"],
                        pa.scalar(Q21_LATE_DAYS * 86_400_000_000, type=pa.duration("us")))
        late = pc.greater(b["l_shipdate"], cutoff)
        t = pa.table({"l_orderkey": b["l_orderkey"], "l_suppkey": b["l_suppkey"],
                      "late": pc.cast(late, pa.int64())})
        # batch-local (order, supplier) collapse: max(late) per pair
        return (t.group_by(["l_orderkey", "l_suppkey"])
                .aggregate([("late", "max")])
                .rename_columns(["l_orderkey", "l_suppkey", "late"]))

    # ONE coarse order-hash shuffle; inside a part both the global
    # (order, supplier) max-combine and the per-order (ns, nl, lsup)
    # aggregate run as vectorized pandas groupbys — Ray's native
    # sort-based groupby on the raw 2-key pair stream measured 41 s at
    # sf0.1 vs ~1 s for the coarse-part pattern (the repo discipline)
    def per_order(g: pd.DataFrame) -> pd.DataFrame:
        pairs = (g.groupby(["l_orderkey", "l_suppkey"], as_index=False)["late"]
                 .max())
        lsup = pairs["l_suppkey"].where(pairs["late"] == 1)
        pairs = pairs.assign(lsup=lsup)
        o = pairs.groupby("l_orderkey").agg(
            ns=("l_suppkey", "size"), nl=("late", "sum"), lsup=("lsup", "max"))
        hit = o[(o["ns"] >= 2) & (o["nl"] == 1)]
        out = hit.groupby("lsup", as_index=False).size()
        return out.rename(columns={"lsup": "s_suppkey", "size": "pn"})

    stamped = j.map_batches(stamp, batch_format="pyarrow", zero_copy_batch=True)
    per_supp = _collect(map_key_buckets(stamped, ["l_orderkey"], per_order)).to_pandas().groupby("s_suppkey", as_index=False)["pn"].sum()
    per_supp = per_supp.rename(columns={"pn": "sum(one)"})
    per_supp["s_suppkey"] = per_supp["s_suppkey"].astype("int64")
    supp = read_table(f"{sf_dir}/supplier.parquet",
                      columns=["s_suppkey", "s_name"]).to_pandas()
    out = per_supp.merge(supp, on="s_suppkey", how="inner")
    out = pd.DataFrame({"s_name": out["s_name"],
                        "numwait": out["sum(one)"].astype("int64")})
    out = out.sort_values(["numwait", "s_name"],
                          ascending=[False, True]).head(Q21_TOPK)
    return out.reset_index(drop=True)


# ---------------------------------------------------------------------------
# events_running_balance — per-user cumulative value (ordered prefix
# sum), the account running-balance window.

SQL_EVENTS_RUNNING_BALANCE = """
SELECT event_id, user_id,
       SUM(CAST(round(coalesce(value, 0) * 100) AS BIGINT))
         OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS UNBOUNDED PRECEDING) / 100.0 AS run_sum
FROM events
ORDER BY event_id
"""


@entry("events_running_balance", sql=SQL_EVENTS_RUNNING_BALANCE)
def q_events_running_balance(sf_dir: str) -> pa.Table:
    """SUM(value) OVER (PARTITION BY user ORDER BY ts, event_id ROWS
    UNBOUNDED PRECEDING) via relational.grouped_cumsum — coarse
    key-hash shuffle + one segmented int64-cents cumsum per part; no
    per-key Python, no cross-block prefix exchange (keys co-locate)."""
    from jesse_ray.pipelines.relational import grouped_cumsum

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "user_id", "ts", "value"])

    def fill(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b["event_id"], "user_id": b["user_id"], "ts": b["ts"],
            "value": pc.fill_null(b["value"], 0.0),
        })

    ds = ds.map_batches(fill, batch_format="pyarrow", zero_copy_batch=True)
    out = grouped_cumsum(ds, "user_id", ["ts", "event_id"], "value",
                         alias="run_sum", exact_decimals=2)
    t = _collect(out)
    return pa.table({
        "event_id": t["event_id"].cast(pa.int64()),
        "user_id": t["user_id"].cast(pa.int64()),
        "run_sum": t["run_sum"].cast(pa.float64()),
    }).sort_by("event_id")


# ---------------------------------------------------------------------------
# seq_neyman_alloc — Neyman-allocation stratified sampling plan:
# n_h ∝ N_h * S_h (optimal variance for a fixed total sample budget).

NEYMAN_TOTAL = 1000


def _neyman_sql() -> str:
    from jesse_ray.pipelines.queries import SEQ_SQL

    return f"""
WITH m AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n,
         sum(CAST(n_tok AS BIGINT)) AS s,
         sum(CAST(n_tok AS BIGINT) * CAST(n_tok AS BIGINT)) AS s2
  FROM {SEQ_SQL} WHERE n_tok IS NOT NULL GROUP BY 1
), d AS (
  SELECT source, n,
         sqrt((CAST(s2 AS DOUBLE) - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
              / (CAST(n AS DOUBLE) - 1.0)) AS sd
  FROM m
)
SELECT source, n AS n_rows, round(sd, 6) AS stddev,
       CAST(round({NEYMAN_TOTAL} * (CAST(n AS DOUBLE) * sd)
                  / (SELECT sum(CAST(n AS DOUBLE) * sd) FROM d)) AS BIGINT) AS alloc_n
FROM d ORDER BY source
"""


@entry("seq_neyman_alloc", sql=_neyman_sql())
def q_seq_neyman_alloc(sf_dir: str) -> pd.DataFrame:
    """Per-source stratum size, n_tok dispersion and the Neyman
    allocation of a {NEYMAN_TOTAL}-row budget.  One combiner pass
    (count, Σx, Σx² per source — int64-exact) feeds the closed-form
    allocation on the driver; every float op (variance, sqrt, weight,
    rounding) is evaluated in the identical order as the twin, so the
    emitted plan is bit-identical."""
    from jesse_ray.pipelines.queries import _seq_path
    from jesse_ray.sources import read_sequences

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"])

    def partial(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_valid(b["n_tok"]))
        nt = pc.cast(t["n_tok"], pa.int64())
        sq = pc.multiply(nt, nt)
        g = pa.table({"source": t["source"], "n": pa.array(
            np.ones(t.num_rows, dtype=np.int64)), "s": nt, "s2": sq})
        return (g.group_by("source")
                .aggregate([("n", "sum"), ("s", "sum"), ("s2", "sum")])
                .rename_columns(["source", "n", "s", "s2"]))

    from ray.data.aggregate import Sum as _Sum

    merged = _collect(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("source")
        .aggregate(_Sum("n", alias_name="n"), _Sum("s", alias_name="s"),
                   _Sum("s2", alias_name="s2"))
    ).to_pandas().sort_values("source").reset_index(drop=True)

    n = merged["n"].to_numpy(dtype=np.float64)
    s = merged["s"].to_numpy(dtype=np.float64)
    s2 = merged["s2"].to_numpy(dtype=np.float64)
    # sample stddev in the twin's exact op order
    var = (s2 - s * s / n) / (n - 1.0)
    sd = np.sqrt(var)
    w = n * sd
    alloc = round_half_away(NEYMAN_TOTAL * w / w.sum())
    return pd.DataFrame({
        "source": merged["source"],
        "n_rows": merged["n"].astype("int64"),
        "stddev": round_half_away(sd, 6),
        "alloc_n": alloc.astype("int64"),
    })

