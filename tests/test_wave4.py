"""Wave-4 catalog operators: sessionization, fixed-window unit dedup,
union-by-name schema alignment, and the bloom semi-join pattern (DuckDB
parity is covered by tools/check_oracles.py; these pin the kernels on
crafted corpora with planted structure)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray


def _ds(table: pa.Table):
    return ray.data.from_arrow(table)


def test_union_by_name_aligns_and_pads(ray_session):
    from jesse_ray.pipelines.relational import union_by_name

    a = _ds(pa.table({"k": pa.array([1, 2], type=pa.int64()),
                      "x": pa.array(["a", "b"], type=pa.string())}))
    b = _ds(pa.table({"k": pa.array([3], type=pa.int64()),
                      "y": pa.array([7.5], type=pa.float64())}))
    u = union_by_name(a, b).to_pandas().sort_values("k").reset_index(drop=True)
    assert list(u.columns) == ["k", "x", "y"]
    assert u["k"].tolist() == [1, 2, 3]
    assert u["x"].tolist()[:2] == ["a", "b"] and pd.isna(u["x"][2])
    assert pd.isna(u["y"][0]) and u["y"][2] == 7.5


def test_union_by_name_type_promotion_via_cast(ray_session):
    from jesse_ray.pipelines.relational import union_by_name

    # A's int64 wins; B's int32 column casts up losslessly
    a = _ds(pa.table({"k": pa.array([1], type=pa.int64())}))
    b = _ds(pa.table({"k": pa.array([2], type=pa.int32())}))
    u = union_by_name(a, b)
    assert u.schema().types[0] == pa.int64()
    assert sorted(u.to_pandas()["k"].tolist()) == [1, 2]


def test_sessionize_gap_semantics(ray_session, tmp_path):
    """Two users; user 1 has a 7h gap (splits at the 6h threshold),
    user 2 stays within it (one session)."""
    from jesse_ray.pipelines.queries4 import q_events_sessionize

    base = np.datetime64("2024-01-01T00:00:00", "us")
    hours = lambda h: base + np.timedelta64(h * 3600 * 1_000_000, "us")
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6], type=pa.int64()),
        "ts": pa.array([hours(0), hours(1), hours(8), hours(9),
                        hours(0), hours(5)], type=pa.timestamp("us")),
        "user_id": pa.array([1, 1, 1, 1, 2, 2], type=pa.int64()),
    })
    import pyarrow.parquet as pq

    pq.write_table(t, tmp_path / "events.parquet")
    out = q_events_sessionize(str(tmp_path))
    got = {int(r.user_id): (int(r.n_sessions), int(r.n_events),
                            int(r.max_session_events))
           for r in out.itertuples()}
    assert got == {1: (2, 4, 2), 2: (1, 2, 2)}


def test_unit_dedup_planted_duplicates(ray_session, tmp_path):
    """A 10-word unit repeated across two docs is flagged in both
    sources; unique tails are not."""
    from jesse_ray.pipelines.queries4 import UNIT_W, q_doc_unit_dedup

    dup_unit = " ".join(f"w{i}" for i in range(UNIT_W))
    uniq_a = " ".join(f"a{i}" for i in range(UNIT_W))
    uniq_b = " ".join(f"b{i}" for i in range(3))  # short tail unit
    t = pa.table({
        "text": pa.array([f"{dup_unit} {uniq_a}", f"{dup_unit} {uniq_b}"],
                         type=pa.string()),
        "source": pa.array(["s1", "s2"], type=pa.string()),
    })
    import pyarrow.parquet as pq

    pq.write_table(t, tmp_path / "documents.parquet")
    out = q_doc_unit_dedup(str(tmp_path)).set_index("source")
    assert out.loc["s1", "n_units"] == 2 and out.loc["s1", "dup_units"] == 1
    assert out.loc["s2", "n_units"] == 2 and out.loc["s2", "dup_units"] == 1
    assert out.loc["s1", "dup_frac"] == 0.5


def test_exact_discrete_quantiles_duckdb_parity(ray_session):
    """quantile_disc parity: sorted[max(ceil(q*n)-1, 0)] — verified
    against DuckDB for several n at the tercile points."""
    import duckdb

    from jesse_ray.pipelines.relational import exact_discrete_quantiles

    rng = np.random.default_rng(11)
    for n in (3, 4, 5, 10, 17):
        vals = rng.integers(0, 50, size=n).astype(np.int64)
        ds = _ds(pa.table({"x": pa.array(vals, type=pa.int64())}))
        got = exact_discrete_quantiles(ds, "x", [1.0 / 3, 2.0 / 3])
        want = duckdb.sql(
            "SELECT quantile_disc(x, 1.0/3), quantile_disc(x, 2.0/3) "
            "FROM (SELECT unnest($v) AS x)", params={"v": vals.tolist()}
        ).fetchone()
        assert tuple(got) == want, (n, vals)


def test_bloom_semijoin_kills_false_positives(ray_session):
    """A deliberately tiny bloom produces false positives; the exact
    semi-join must remove every one of them."""
    from jesse_ray.functions.bloom import build_bloom, bloom_flag
    from jesse_ray.pipelines.relational import hash_join

    keys = [f"k{i}" for i in range(2000)]
    big = _ds(pa.table({"ukey": pa.array(keys, type=pa.string())}))
    members = [f"k{i}" for i in range(0, 2000, 100)]  # 20 true members
    small = _ds(pa.table({"ukey": pa.array(members, type=pa.string())}))
    bloom = build_bloom(small, "ukey", num_bits=1 << 8)  # lossy on purpose
    flagged = bloom_flag(big, bloom, "ukey").to_pandas()
    assert flagged[flagged["ukey"].isin(members)]["maybe_member"].all()
    pre = _ds(pa.Table.from_pandas(
        flagged[flagged["maybe_member"]][["ukey"]], preserve_index=False))
    exact = hash_join(pre, small, on="ukey", how="semi").to_pandas()
    assert sorted(exact["ukey"].tolist()) == sorted(members)


def test_skew_join_matches_hash_join_all_modes(ray_session):
    """Salted replication must be row-identical to the plain join on a
    corpus where half the left rows share ONE hot key."""
    from jesse_ray.pipelines.relational import hash_join, skew_join

    rng = np.random.default_rng(3)
    n = 6000
    keys = np.where(rng.random(n) < 0.5, 7, rng.integers(0, 200, n)).astype(np.int64)
    left = _ds(pa.table({"k": keys, "x": np.arange(n, dtype=np.int64)}))
    rk = np.arange(0, 150, dtype=np.int64)  # keys 150..199 unmatched
    right = _ds(pa.table({"k": rk, "y": rk * 10}))
    for how in ("inner", "left", "semi", "anti"):
        a = hash_join(left, right, on="k", how=how).to_pandas()
        b = skew_join(left, right, on="k", how=how,
                      hot_count=500, salt=8).to_pandas()
        a = a.sort_values(list(a.columns)).reset_index(drop=True)
        b = b[a.columns].sort_values(list(a.columns)).reset_index(drop=True)
        assert a.equals(b), how


def test_skew_join_defuses_hot_partition(ray_session):
    """The composite (key, salt) hash must spread a hot key's rows over
    ~salt distinct buckets instead of one."""
    import pyarrow.compute as pc

    from jesse_ray.hashutil import key_parts

    hot = pa.array(["doc-7"] * 8000, type=pa.string())
    plain_parts = np.unique(key_parts(hot, 64))
    assert len(plain_parts) == 1  # the problem: one reducer gets all 8000
    salts = (np.arange(8000) % 8).astype("U")
    jk = pc.binary_join_element_wise(hot, pa.array(salts, type=pa.string()), "#")
    salted_parts = np.unique(key_parts(jk, 64))
    assert len(salted_parts) >= 5  # 8 composite keys spread over parts


def test_skew_join_no_hot_keys_falls_back(ray_session):
    from jesse_ray.pipelines.relational import hash_join, skew_join

    left = _ds(pa.table({"k": pa.array([1, 2, 3], type=pa.int64()),
                         "x": pa.array([10, 20, 30], type=pa.int64())}))
    right = _ds(pa.table({"k": pa.array([2, 3], type=pa.int64()),
                          "y": pa.array([5, 6], type=pa.int64())}))
    got = skew_join(left, right, on="k", hot_count=1000).to_pandas()
    want = hash_join(left, right, on="k").to_pandas()
    cols = list(want.columns)
    assert got[cols].sort_values(cols).values.tolist() == \
        want.sort_values(cols).values.tolist()


def test_funnel_steps_chained_ordering(ray_session):
    """Step 2 counts only events at-or-after the entity's step-1 time;
    step 3 chains off step 2 — out-of-order events must not convert."""
    from jesse_ray.pipelines.relational import funnel_steps

    base = np.datetime64("2024-01-01T00:00:00", "us")
    mins = lambda m: base + np.timedelta64(m * 60_000_000, "us")
    # u1: full ordered chain. u2: click BEFORE signup (stops at step 1).
    # u3: signup+click ordered, purchase before click (stops at step 2).
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2, 3, 3, 3], type=pa.int64()),
        "ts": pa.array([mins(0), mins(5), mins(9),
                        mins(5), mins(0),
                        mins(0), mins(8), mins(4)], type=pa.timestamp("us")),
        "event_type": pa.array(["signup", "click", "purchase",
                                "signup", "click",
                                "signup", "click", "purchase"],
                               type=pa.string()),
    })
    out = funnel_steps(_ds(t), ["signup", "click", "purchase"],
                       entity_col="user_id", ts_col="ts",
                       type_col="event_type").to_pandas()
    assert out["n"].tolist() == [3, 2, 1]
