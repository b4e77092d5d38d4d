"""Catalog wave 31: the remaining partsupp-free TPC-H shapes — Q1
(pricing summary with averages), Q6 (predicate-scan forecast revenue),
Q8 (nation market share), Q9-shaped (profit-proxy by nation × year).
With these the warehouse covers 19 of the 22 classic shapes; Q11/Q20
(and true Q9 cost) need the partsupp table the synthetic schema does
not carry.

Same driver contract as :mod:`.queries`; all currency math rides exact
integer units (cents, 1e-4 for one discount factor, 1e-6 for
discount × tax) so emitted floats are bit-identical to the twins.
"""

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


def _c100(arr):
    return pc.cast(pc.round(pc.multiply(arr, 100.0)), pa.int64())


# ---------------------------------------------------------------------------
# tpch_q1ish — pricing summary report: per (returnflag, linestatus)
# sums / averages / count over lineitems shipped before a cutoff.

Q1_CUTOFF = "2000-09-01"


SQL_TPCH_Q1ISH = f"""
WITH b AS (
  SELECT l_returnflag, l_linestatus,
         CAST(round(l_quantity) AS BIGINT) AS qi,
         CAST(round(l_extendedprice * 100) AS BIGINT) AS ep,
         CAST(round(l_discount * 100) AS BIGINT) AS dc,
         CAST(round(l_tax * 100) AS BIGINT) AS tx
  FROM lineitem WHERE l_shipdate <= TIMESTAMP '{Q1_CUTOFF}'
)
SELECT l_returnflag, l_linestatus,
       sum(qi)::BIGINT AS sum_qty,
       round(CAST(sum(ep) AS DOUBLE) / 100.0, 2) AS sum_base_price,
       round(CAST(sum(ep * (100 - dc)) AS DOUBLE) / 10000.0, 2) AS sum_disc_price,
       round(CAST(sum(ep * (100 - dc) * (100 + tx)) AS DOUBLE) / 1000000.0, 2) AS sum_charge,
       round(CAST(sum(qi) AS DOUBLE) / count(*), 4) AS avg_qty,
       round(CAST(sum(ep) AS DOUBLE) / 100.0 / count(*), 4) AS avg_price,
       round(CAST(sum(dc) AS DOUBLE) / 100.0 / count(*), 6) AS avg_disc,
       count(*)::BIGINT AS count_order
FROM b GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("tpch_q1ish", sql=SQL_TPCH_Q1ISH)
def q_tpch_q1ish(sf_dir: str) -> pd.DataFrame:
    """Q1 shape: one filtered scan, int64 combiner partials per
    (flag, status) cell — qty integral, base price in cents, discounted
    price in 1e-4, charge (disc × tax) in 1e-6 — then the averages as
    float ratios of exact sums in the twin's op order."""
    from jesse_ray.pipelines.relational import grouped_agg

    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_returnflag", "l_linestatus", "l_shipdate",
                             "l_quantity", "l_extendedprice", "l_discount", "l_tax"])

    def prep(b: pa.Table) -> pa.Table:
        cut = pa.scalar(np.datetime64(Q1_CUTOFF, "us"), type=pa.timestamp("us"))
        t = b.filter(pc.less_equal(b["l_shipdate"], cut))
        qi = pc.cast(pc.round(t["l_quantity"]), pa.int64())
        ep = _c100(t["l_extendedprice"])
        dc = _c100(t["l_discount"])
        tx = _c100(t["l_tax"])
        disc = pc.multiply(ep, pc.subtract(pa.scalar(100, type=pa.int64()), dc))
        charge = pc.multiply(disc, pc.add(pa.scalar(100, type=pa.int64()), tx))
        return pa.table({
            "l_returnflag": t["l_returnflag"], "l_linestatus": t["l_linestatus"],
            "qty": qi, "base": ep, "disc_price": disc, "charge": charge,
            "disc_c": dc,
        })

    pre = li.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    g = _collect(grouped_agg(pre, ["l_returnflag", "l_linestatus"],
                             sums=["qty", "base", "disc_price", "charge", "disc_c"],
                             count_alias="cnt")).to_pandas()
    cnt = g["cnt"].to_numpy(dtype=np.float64)
    out = pd.DataFrame({
        "l_returnflag": g["l_returnflag"], "l_linestatus": g["l_linestatus"],
        "sum_qty": g["sum_qty"].astype("int64"),
        "sum_base_price": round_half_away(g["sum_base"].to_numpy(np.float64) / 100.0, 2),
        "sum_disc_price": round_half_away(g["sum_disc_price"].to_numpy(np.float64) / 10000.0, 2),
        "sum_charge": round_half_away(g["sum_charge"].to_numpy(np.float64) / 1000000.0, 2),
        "avg_qty": round_half_away(g["sum_qty"].to_numpy(np.float64) / cnt, 4),
        "avg_price": round_half_away(g["sum_base"].to_numpy(np.float64) / 100.0 / cnt, 4),
        "avg_disc": round_half_away(g["sum_disc_c"].to_numpy(np.float64) / 100.0 / cnt, 6),
        "count_order": g["cnt"].astype("int64"),
    })
    return out.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# tpch_q6ish — forecast-revenue predicate scan: shipped in 1996,
# discount 5-7 cents, quantity < 24.

SQL_TPCH_Q6ISH = """
SELECT round(CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                     * CAST(round(l_discount * 100) AS BIGINT)) AS DOUBLE)
             / 10000.0, 2) AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1997-01-01'
  AND CAST(round(l_discount * 100) AS BIGINT) BETWEEN 5 AND 7
  AND CAST(round(l_quantity) AS BIGINT) < 24
"""


@entry("tpch_q6ish", sql=SQL_TPCH_Q6ISH)
def q_tpch_q6ish(sf_dir: str) -> pd.DataFrame:
    """Q6 shape: the pure predicate-pushdown scan — one vectorized
    filter + an exact 1e-4-unit revenue sum, no join, no shuffle."""
    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_shipdate", "l_quantity", "l_extendedprice", "l_discount"])

    def gate(b: pa.Table) -> pa.Table:
        lo = pa.scalar(np.datetime64("1996-01-01", "us"), type=pa.timestamp("us"))
        hi = pa.scalar(np.datetime64("1997-01-01", "us"), type=pa.timestamp("us"))
        dc = _c100(b["l_discount"])
        qi = pc.cast(pc.round(b["l_quantity"]), pa.int64())
        m = pc.and_(pc.and_(pc.greater_equal(b["l_shipdate"], lo),
                            pc.less(b["l_shipdate"], hi)),
                    pc.and_(pc.and_(pc.greater_equal(dc, pa.scalar(5, type=pa.int64())),
                                    pc.less_equal(dc, pa.scalar(7, type=pa.int64()))),
                            pc.less(qi, pa.scalar(24, type=pa.int64()))))
        t = b.filter(m)
        ep = _c100(t["l_extendedprice"])
        dc2 = _c100(t["l_discount"])
        return pa.table({"rev": pc.multiply(ep, dc2)})

    total = 0
    for b in (li.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)
              .iter_batches(batch_format="pyarrow")):
        s = pc.sum(b["rev"]).as_py()
        total += int(s) if s is not None else 0
    return pd.DataFrame({"revenue": pd.array(
        [round_half_away(float(total) / 10000.0, 2)], dtype="float64")})


# ---------------------------------------------------------------------------
# tpch_q8ish — nation market share: NATION_3 suppliers' share of
# STANDARD-part revenue delivered to AMERICA-region customers, by
# order year.  Integer-truth emission: (num_e4, den_e4) exact.

Q8_NATION = "NATION_3"
Q8_REGION = "AMERICA"
Q8_PTYPE = "STANDARD"


SQL_TPCH_Q8ISH = f"""
SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
       sum(CASE WHEN s.s_nationkey = (SELECT n_nationkey FROM nation WHERE n_name = '{Q8_NATION}')
                THEN CAST(round(l_extendedprice * 100) AS BIGINT)
                     * (100 - CAST(round(l_discount * 100) AS BIGINT)) ELSE 0 END)::BIGINT AS num_e4,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT)
           * (100 - CAST(round(l_discount * 100) AS BIGINT)))::BIGINT AS den_e4
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
JOIN nation cn ON c_nationkey = cn.n_nationkey
JOIN region ON cn.n_regionkey = r_regionkey AND r_name = '{Q8_REGION}'
JOIN part ON l_partkey = p_partkey AND p_type = '{Q8_PTYPE}'
JOIN supplier s ON l_suppkey = s.s_suppkey
GROUP BY 1 ORDER BY 1
"""


@entry("tpch_q8ish", sql=SQL_TPCH_Q8ISH)
def q_tpch_q8ish(sf_dir: str) -> pd.DataFrame:
    """Q8 shape: the six-table join tree — part (type filter) and the
    customer-side region gate ride broadcast dimensions; the fact path
    is lineitem⋈orders (key-hash cogroup) with vectorized year
    extraction; shares emitted as exact integer numerator/denominator
    (the r4 dyadic-tie discipline)."""
    from jesse_ray.pipelines.relational import grouped_agg, hash_join

    nation = read_table(f"{sf_dir}/nation.parquet").to_pandas()
    region = read_table(f"{sf_dir}/region.parquet").to_pandas()
    rk = int(region.loc[region["r_name"] == Q8_REGION, "r_regionkey"].iloc[0])
    nk_in_region = set(nation.loc[nation["n_regionkey"] == rk, "n_nationkey"].astype(int))
    nk_target = int(nation.loc[nation["n_name"] == Q8_NATION, "n_nationkey"].iloc[0])

    cust = read_table(f"{sf_dir}/customer.parquet",
                      columns=["c_custkey", "c_nationkey"]).to_pandas()
    cust_keys = np.sort(cust.loc[cust["c_nationkey"].isin(nk_in_region),
                                 "c_custkey"].to_numpy(np.int64))
    part = read_table(f"{sf_dir}/part.parquet",
                      columns=["p_partkey", "p_type"]).to_pandas()
    part_keys = np.sort(part.loc[part["p_type"] == Q8_PTYPE,
                                 "p_partkey"].to_numpy(np.int64))
    supp = read_table(f"{sf_dir}/supplier.parquet",
                      columns=["s_suppkey", "s_nationkey"]).to_pandas()
    target_supp = np.sort(supp.loc[supp["s_nationkey"] == nk_target,
                                   "s_suppkey"].to_numpy(np.int64))

    import ray
    refs = (ray.put((cust_keys, part_keys, target_supp))
            if ray.is_initialized() else (cust_keys, part_keys, target_supp))

    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def owin(b: pa.Table, _refs=refs) -> pa.Table:
        ck, _, _ = ray.get(_refs) if ray.is_initialized() else _refs
        oc = b["o_custkey"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(ck, oc), 0, max(len(ck) - 1, 0))
        m = (len(ck) > 0) & (ck[pos] == oc) if len(ck) else np.zeros(len(oc), bool)
        t = b.filter(pa.array(m))
        yr = pc.year(t["o_orderdate"]).cast(pa.int64())
        return pa.table({"l_orderkey": t["o_orderkey"], "o_year": yr})

    owin_ds = orders.map_batches(owin, batch_format="pyarrow", zero_copy_batch=True)
    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_orderkey", "l_partkey", "l_suppkey",
                             "l_extendedprice", "l_discount"])

    def lprep(b: pa.Table, _refs=refs) -> pa.Table:
        _, pk, ts = ray.get(_refs) if ray.is_initialized() else _refs
        lp = b["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(pk, lp), 0, max(len(pk) - 1, 0))
        m = (pk[pos] == lp) if len(pk) else np.zeros(len(lp), bool)
        t = b.filter(pa.array(m))
        ep = _c100(t["l_extendedprice"])
        dc = _c100(t["l_discount"])
        rev = pc.multiply(ep, pc.subtract(pa.scalar(100, type=pa.int64()), dc))
        ls = t["l_suppkey"].to_numpy(zero_copy_only=False)
        pos2 = np.clip(np.searchsorted(ts, ls), 0, max(len(ts) - 1, 0))
        is_t = (ts[pos2] == ls) if len(ts) else np.zeros(len(ls), bool)
        num = pc.if_else(pa.array(is_t), rev, pa.scalar(0, type=pa.int64()))
        return pa.table({"l_orderkey": t["l_orderkey"], "rev": rev, "num": num})

    lds = li.map_batches(lprep, batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(lds, owin_ds, on="l_orderkey", how="inner")
    g = _collect(grouped_agg(j, ["o_year"], sums=["rev", "num"],
                             count_alias=None)).to_pandas()
    out = pd.DataFrame({
        "o_year": g["o_year"].astype("int64"),
        "num_e4": g["sum_num"].astype("int64"),
        "den_e4": g["sum_rev"].astype("int64"),
    })
    return out.sort_values("o_year").reset_index(drop=True)


# ---------------------------------------------------------------------------
# tpch_q9ish — profit-proxy by supplier nation × order year for parts
# whose name contains a token (true Q9 needs partsupp's supplycost).

Q9_TOKEN = "widget"


SQL_TPCH_Q9ISH = f"""
SELECT n_name AS nation, CAST(year(o_orderdate) AS BIGINT) AS o_year,
       round(CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                      * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS DOUBLE)
             / 10000.0, 2) AS revenue
FROM lineitem
JOIN part ON l_partkey = p_partkey AND contains(p_name, '{Q9_TOKEN}')
JOIN supplier ON l_suppkey = s_suppkey
JOIN nation ON s_nationkey = n_nationkey
JOIN orders ON l_orderkey = o_orderkey
GROUP BY 1, 2 ORDER BY 1, 2 DESC
"""


@entry("tpch_q9ish", sql=SQL_TPCH_Q9ISH)
def q_tpch_q9ish(sf_dir: str) -> pd.DataFrame:
    """Q9 shape minus partsupp: part-name filter broadcast, lineitem
    ⋈ orders cogroup for the year, supplier→nation via broadcast map,
    exact 1e-4 revenue per (nation, year) cell."""
    from jesse_ray.pipelines.relational import grouped_agg, hash_join

    nation = read_table(f"{sf_dir}/nation.parquet").to_pandas()
    nmap = dict(zip(nation["n_nationkey"].astype(int), nation["n_name"]))
    part = read_table(f"{sf_dir}/part.parquet",
                      columns=["p_partkey", "p_name"]).to_pandas()
    pk = np.sort(part.loc[part["p_name"].str.contains(Q9_TOKEN, regex=False),
                          "p_partkey"].to_numpy(np.int64))
    supp = read_table(f"{sf_dir}/supplier.parquet",
                      columns=["s_suppkey", "s_nationkey"]).to_pandas()
    smap_keys = np.sort(supp["s_suppkey"].to_numpy(np.int64))
    smap_vals = supp.set_index("s_suppkey").loc[smap_keys, "s_nationkey"].to_numpy(np.int64)

    import ray
    refs = ray.put((pk, smap_keys, smap_vals)) if ray.is_initialized() else (pk, smap_keys, smap_vals)

    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_orderdate"])
    orders_k = orders.map_batches(
        lambda b: pa.table({"l_orderkey": b["o_orderkey"],
                            "o_year": pc.year(b["o_orderdate"]).cast(pa.int64())}),
        batch_format="pyarrow", zero_copy_batch=True)
    li = read_table(f"{sf_dir}/lineitem.parquet",
                    columns=["l_orderkey", "l_partkey", "l_suppkey",
                             "l_extendedprice", "l_discount"])

    def lprep(b: pa.Table, _refs=refs) -> pa.Table:
        pk_, sk, sv = ray.get(_refs) if ray.is_initialized() else _refs
        lp = b["l_partkey"].to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(pk_, lp), 0, max(len(pk_) - 1, 0))
        m = (pk_[pos] == lp) if len(pk_) else np.zeros(len(lp), bool)
        t = b.filter(pa.array(m))
        ep = _c100(t["l_extendedprice"])
        dc = _c100(t["l_discount"])
        rev = pc.multiply(ep, pc.subtract(pa.scalar(100, type=pa.int64()), dc))
        ls = t["l_suppkey"].to_numpy(zero_copy_only=False)
        nk = sv[np.searchsorted(sk, ls)]
        return pa.table({"l_orderkey": t["l_orderkey"],
                         "nk": pa.array(nk.astype(np.int64)), "rev": rev})

    lds = li.map_batches(lprep, batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(lds, orders_k, on="l_orderkey", how="inner")
    g = _collect(grouped_agg(j, ["nk", "o_year"], sums=["rev"],
                             count_alias=None)).to_pandas()
    out = pd.DataFrame({
        "nation": g["nk"].astype(int).map(nmap),
        "o_year": g["o_year"].astype("int64"),
        "revenue": round_half_away(g["sum_rev"].to_numpy(np.float64) / 10000.0, 2),
    })
    return out.sort_values(["nation", "o_year"],
                           ascending=[True, False]).reset_index(drop=True)

