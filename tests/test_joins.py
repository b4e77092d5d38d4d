"""hash_join / asof_join tests (cogroup-via-union repartition joins)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from jesse_ray.pipelines.relational import asof_join, hash_join


def _pdf(ds) -> pd.DataFrame:
    return ds.to_pandas()


def _mk(rng, n, keys):
    return pd.DataFrame(
        {
            "k": rng.choice(keys, size=n),
            "v": rng.integers(0, 1000, size=n),
        }
    )


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_hash_join_matches_pandas(ray_session, how):
    rng = np.random.default_rng(5)
    left = _mk(rng, 300, np.arange(50)).rename(columns={"v": "lv"})
    right = _mk(rng, 200, np.arange(30, 80)).rename(columns={"v": "rv"})
    got = _pdf(
        hash_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            on="k",
            how=how,
            n_parts=8,
        )
    )
    if how in ("semi", "anti"):
        mask = left["k"].isin(set(right["k"]))
        want = left[mask if how == "semi" else ~mask]
        assert sorted(map(tuple, got[["k", "lv"]].values.tolist())) == sorted(
            map(tuple, want[["k", "lv"]].values.tolist())
        )
    else:
        want = left.merge(right, on="k", how=how)
        gk = sorted(map(tuple, got[["k", "lv", "rv"]].fillna(-1).values.tolist()))
        wk = sorted(map(tuple, want[["k", "lv", "rv"]].fillna(-1).values.tolist()))
        assert gk == wk


@pytest.mark.parametrize("how", ["inner", "semi"])
def test_hash_join_int32_left_key_meets_int64_right_key(ray_session, how):
    """Equal keys of different integer widths land in one bucket, so the
    join matches them."""
    left = pa.table({"k": pa.array(range(40), pa.int32()), "lv": pa.array(range(40), pa.int64())})
    right = pa.table({"k": pa.array(range(20, 60, 2), pa.int64()), "rv": pa.array(range(20), pa.int64())})
    got = hash_join(ray.data.from_arrow(left), ray.data.from_arrow(right), on="k", how=how,
                    n_parts=8).to_pandas()
    want = left.to_pandas().merge(right.to_pandas(), on="k", how="inner")
    if how == "semi":
        want = want[["k", "lv"]]
    assert sorted(map(tuple, got[list(want.columns)].values.tolist())) == sorted(
        map(tuple, want.values.tolist()))
    assert len(got) == 10


@pytest.mark.parametrize("how", ["inner", "semi"])
def test_hash_join_blocks_have_hashable_schemas(ray_session, how):
    """Join outputs carry no pandas schema metadata (a dict), so Ray
    Data can hash their schemas when it unifies them."""
    rng = np.random.default_rng(3)
    left = _mk(rng, 200, np.arange(40)).rename(columns={"v": "lv"})
    right = _mk(rng, 100, np.arange(20, 60)).rename(columns={"v": "rv"})
    out = hash_join(ray.data.from_pandas(left), ray.data.from_pandas(right), on="k",
                    how=how, n_parts=8)
    tables = ray.get(out.to_arrow_refs())
    assert tables and sum(t.num_rows for t in tables) > 0
    for t in tables:
        assert t.schema.metadata is None
        hash(t.schema)


def test_hash_join_suffixes_colliding_columns(ray_session):
    left = pd.DataFrame({"k": [1, 2], "v": [10, 20]})
    right = pd.DataFrame({"k": [1, 2], "v": [100, 200]})
    got = _pdf(
        hash_join(ray.data.from_pandas(left), ray.data.from_pandas(right), on="k", n_parts=2)
    ).sort_values("k")
    assert sorted(got.columns) == ["k", "v", "v_r"]
    assert got["v_r"].tolist() == [100, 200]


def test_hash_join_rejects_bad_how(ray_session):
    ds = ray.data.from_pandas(pd.DataFrame({"k": [1]}))
    with pytest.raises(ValueError):
        hash_join(ds, ds, on="k", how="cross")


def test_asof_join_matches_pandas_merge_asof(ray_session):
    rng = np.random.default_rng(9)
    n_l, n_r = 400, 150
    left = pd.DataFrame(
        {
            "ent": rng.integers(0, 20, size=n_l),
            "ts": rng.integers(0, 10_000, size=n_l),
            "lv": np.arange(n_l),
        }
    )
    right = pd.DataFrame(
        {
            "ent": rng.integers(0, 25, size=n_r),  # some entities have no right rows
            "ts": rng.integers(0, 10_000, size=n_r),
            "rv": np.arange(n_r) * 10,
        }
    )
    got = _pdf(
        asof_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            by="ent",
            left_ts="ts",
            right_ts="ts",
            right_cols=["ts", "rv"],
            n_parts=4,
        )
    )
    want = pd.merge_asof(
        left.sort_values("ts", kind="mergesort"),
        right.sort_values("ts", kind="mergesort").rename(columns={"ts": "ts_r", "rv": "rv"}),
        left_on="ts",
        right_on="ts_r",
        by="ent",
        direction="backward",
    )
    g = got.sort_values("lv").reset_index(drop=True)
    w = want.sort_values("lv").reset_index(drop=True)
    assert g["lv"].tolist() == w["lv"].tolist()
    assert g["ts_r"].fillna(-1).tolist() == w["ts_r"].fillna(-1).tolist()
    assert g["rv"].fillna(-1).tolist() == w["rv"].fillna(-1).tolist()


def test_asof_join_inclusive_ties(ray_session):
    left = pd.DataFrame({"ent": [1, 1], "ts": [5, 3], "lv": [0, 1]})
    right = pd.DataFrame({"ent": [1, 1], "ts": [5, 2], "rv": [50, 20]})
    got = _pdf(
        asof_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            by="ent",
            left_ts="ts",
            right_ts="ts",
            right_cols=["ts", "rv"],
            n_parts=2,
        )
    ).sort_values("lv")
    # ts=5 matches the equal-ts right row (inclusive); ts=3 falls back to ts=2
    assert got["rv"].tolist() == [50, 20]


# ---------------------------------------------------------------------------
# interval_count_join / latest_by_key


def test_interval_count_join_matches_bruteforce(ray_session):
    rng = np.random.default_rng(11)
    n_p, n_i = 500, 300
    g = 1000  # max interval length
    pts = pd.DataFrame(
        {
            "pid": np.arange(n_p, dtype=np.int64),
            "t": rng.integers(0, 50_000, size=n_p).astype(np.int64),
        }
    )
    s = rng.integers(0, 50_000, size=n_i).astype(np.int64)
    ln = rng.integers(1, g + 1, size=n_i).astype(np.int64)
    iv = pd.DataFrame({"s": s, "e": s + ln})

    from jesse_ray.pipelines.relational import interval_count_join

    got = _pdf(
        interval_count_join(
            ray.data.from_pandas(pts),
            ray.data.from_pandas(iv),
            point_col="t",
            id_col="pid",
            start_col="s",
            end_col="e",
            max_len_us=g,
            count_alias="n",
            n_parts=8,
        )
    ).sort_values("pid").reset_index(drop=True)
    want = np.array(
        [((iv["s"].values <= t) & (t < iv["e"].values)).sum() for t in pts["t"]],
        dtype=np.int64,
    )
    assert len(got) == n_p  # left semantics: every point present
    assert got["n"].tolist() == want.tolist()


def test_interval_count_join_rejects_overlong(ray_session):
    pts = pd.DataFrame({"pid": [1], "t": [5]})
    iv = pd.DataFrame({"s": [0], "e": [100]})
    from jesse_ray.pipelines.relational import interval_count_join

    with pytest.raises(Exception):
        _pdf(
            interval_count_join(
                ray.data.from_pandas(pts),
                ray.data.from_pandas(iv),
                point_col="t",
                id_col="pid",
                start_col="s",
                end_col="e",
                max_len_us=10,
                n_parts=2,
            )
        )


def test_latest_by_key_matches_pandas(ray_session):
    rng = np.random.default_rng(12)
    n = 800
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 60, size=n).astype(np.int64),
            "ts": rng.integers(0, 100, size=n).astype(np.int64),
            "id": np.arange(n, dtype=np.int64),
            "v": rng.normal(size=n),
        }
    )
    from jesse_ray.pipelines.relational import latest_by_key

    got = (
        _pdf(latest_by_key(ray.data.from_pandas(df), "k", ["ts", "id"], n_parts=8))
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        df.sort_values(["k", "ts", "id"], kind="mergesort")
        .drop_duplicates(subset=["k"], keep="last")
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got["k"].tolist() == want["k"].tolist()
    assert got["id"].tolist() == want["id"].tolist()
    # int key dtype survives the pandas round-trip (the hash_join fix)
    assert got["k"].dtype == np.int64


def test_latest_by_key_keep_first(ray_session):
    df = pd.DataFrame(
        {
            "k": [1, 1, 2, 2],
            "ts": [5, 3, 9, 9],
            "id": [10, 11, 12, 13],
        }
    )
    from jesse_ray.pipelines.relational import latest_by_key

    got = (
        _pdf(latest_by_key(ray.data.from_pandas(df), "k", ["ts", "id"], keep="first", n_parts=2))
        .sort_values("k")
        .reset_index(drop=True)
    )
    # k=1 -> earliest ts 3 (id 11); k=2 -> ts tie, smaller id 12 wins
    assert got["id"].tolist() == [11, 12]


def test_scd2_intervals_matches_pandas_lead(ray_session):
    rng = np.random.default_rng(21)
    n = 600
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 40, size=n).astype(np.int64),
            "ts": rng.integers(0, 50, size=n).astype(np.int64),
            "id": np.arange(n, dtype=np.int64),
        }
    )
    from jesse_ray.pipelines.relational import scd2_intervals

    got = (
        _pdf(scd2_intervals(ray.data.from_pandas(df), "k", ["ts", "id"],
                            valid_from="ts", n_parts=8))
        .sort_values("id")
        .reset_index(drop=True)
    )
    want = df.sort_values(["k", "ts", "id"], kind="mergesort").copy()
    want["valid_to"] = want.groupby("k")["ts"].shift(-1)
    want = want.sort_values("id").reset_index(drop=True)
    assert len(got) == n
    got_vt = got["valid_to"].astype(float)
    want_vt = want["valid_to"].astype(float)
    assert got_vt.isna().equals(want_vt.isna())
    assert (got_vt.dropna().values == want_vt.dropna().values).all()
    # exactly one open (current) version per key
    assert int(got["valid_to"].isna().sum()) == df["k"].nunique()


def test_merge_upsert_semantics(ray_session):
    import ray.data

    from jesse_ray.pipelines.relational import merge_upsert

    base = pa.table({
        "k": pa.array(["a", "b", "c", "d"]),
        "v": pa.array([1, 2, 3, 4], type=pa.int64()),
    })
    upd = pa.table({
        "k": pa.array(["b", "e", "d"]),
        "v": pa.array([20, 50, 0], type=pa.int64()),
        "__op": pa.array(["upsert", "upsert", "delete"]),
    })
    out = (merge_upsert(ray.data.from_arrow(base), ray.data.from_arrow(upd), key="k")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["k"].tolist() == ["a", "b", "c", "e"]
    assert out["v"].tolist() == [1, 20, 3, 50]
    # schema preserved exactly (no pandas float upcast of int columns)
    assert str(out["v"].dtype) == "int64"


def test_merge_upsert_rejects_schema_mismatch(ray_session):
    import pytest
    import ray.data

    from jesse_ray.pipelines.relational import merge_upsert

    base = ray.data.from_arrow(pa.table({"k": ["a"], "v": [1]}))
    upd = ray.data.from_arrow(pa.table({"k": ["a"], "other": [1], "__op": ["upsert"]}))
    with pytest.raises(ValueError):
        merge_upsert(base, upd, key="k")


def test_rolling_distinct_entities_exact(ray_session):
    import ray.data

    from jesse_ray.pipelines.relational import rolling_distinct_entities

    day = 86_400_000_000
    rows = [(1, 0), (1, 1), (1, 9), (2, 3), (3, 3), (3, 4)]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] * day + 5 for r in rows], type=pa.timestamp("us")),
    })
    out = rolling_distinct_entities(ray.data.from_arrow(t), window_days=3)
    got = dict(zip(out["day"], out["rolling_distinct"]))
    # brute-force check: W=3 windows over days 0..9
    import collections
    active = collections.defaultdict(set)
    for u, d in rows:
        active[d].add(u)
    for D in range(0, 10):
        want = len(set().union(*[active.get(x, set()) for x in range(D - 2, D + 1)]))
        assert got[D] == want, (D, got[D], want)


def test_hash_join_outer(ray_session):
    import ray.data

    from jesse_ray.pipelines.relational import hash_join

    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], type=pa.int64()),
        "lv": pa.array([10, 20, 30], type=pa.int64()),
    }))
    right = ray.data.from_arrow(pa.table({
        "k": pa.array([2, 3, 4], type=pa.int64()),
        "rv": pa.array([200, 300, 400], type=pa.int64()),
    }))
    out = (hash_join(left, right, on="k", how="outer")
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["k"].tolist() == [1, 2, 3, 4]
    assert out["lv"].tolist()[1:3] == [20, 30] and pd.isna(out["lv"][3])
    assert pd.isna(out["rv"][0]) and out["rv"].tolist()[1:] == [200, 300, 400]


def test_drop_duplicate_keys_broadcast_and_antijoin_agree(ray_session):
    """The broadcast fast path and the >cap anti-join fallback must drop
    exactly the same rows (dup ids gone entirely, nulls survive)."""
    import pyarrow as pa

    from jesse_ray.pipelines.relational import drop_duplicate_keys

    tbl = pa.table({
        "doc_id": pa.array(["a", "b", "b", "c", None, "d", "d", "d"]),
        "n_tok": pa.array([1, 2, 3, 4, 5, 6, 7, 8], type=pa.int32()),
    })
    fast = drop_duplicate_keys(ray.data.from_arrow(tbl), "doc_id") \
        .to_pandas().sort_values("n_tok").reset_index(drop=True)
    slow = drop_duplicate_keys(ray.data.from_arrow(tbl), "doc_id",
                               broadcast_cap=0) \
        .to_pandas().sort_values("n_tok").reset_index(drop=True)
    assert fast["n_tok"].tolist() == [1, 4, 5]
    assert slow["n_tok"].tolist() == fast["n_tok"].tolist()
