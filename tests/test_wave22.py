"""Wave-22 unit tests: grouped_cumsum semantics and the TPC-H shapes'
invariants (the strict oracle sweep covers value equality; these cover
edge cases the sf0.01 data can't)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from jesse_ray.pipelines.relational import grouped_cumsum


def _collect(ds):
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow"))).to_pandas()


def test_grouped_cumsum_matches_pandas(ray_session):
    rng = np.random.default_rng(5)
    n = 5000
    df = pd.DataFrame({
        "k": rng.integers(0, 40, n),
        "o": rng.permutation(n),
        "v": np.round(rng.normal(0, 10, n), 2),
    })
    out = _collect(grouped_cumsum(
        ray.data.from_pandas(df), "k", ["o"], "v", alias="rs", exact_decimals=2))
    out = out.sort_values(["k", "o"]).reset_index(drop=True)
    want = df.sort_values(["k", "o"]).reset_index(drop=True)
    cents = np.rint(want["v"].to_numpy() * 100).astype(np.int64)
    want["rs"] = (pd.Series(cents).groupby(want["k"]).cumsum() / 100.0)
    assert np.array_equal(out["rs"].to_numpy(), want["rs"].to_numpy())


def test_grouped_cumsum_exact_under_accumulated_error(ray_session):
    """10k equal cents must sum EXACTLY (float cumsum drifts)."""
    n = 10_000
    df = pd.DataFrame({"k": np.zeros(n, dtype=np.int64),
                       "o": np.arange(n), "v": np.full(n, 0.01)})
    out = _collect(grouped_cumsum(
        ray.data.from_pandas(df), "k", ["o"], "v", alias="rs", exact_decimals=2))
    out = out.sort_values("o").reset_index(drop=True)
    # row i holds exactly (i+1) cents
    want = (np.arange(1, n + 1, dtype=np.int64)) / 100.0
    assert np.array_equal(out["rs"].to_numpy(), want)


def test_grouped_cumsum_float_mode(ray_session):
    df = pd.DataFrame({"k": [1, 1, 2, 2], "o": [0, 1, 0, 1],
                       "v": [1.5, 2.5, 10.0, -3.0]})
    out = _collect(grouped_cumsum(ray.data.from_pandas(df), "k", ["o"], "v",
                                  alias="rs"))
    out = out.sort_values(["k", "o"])
    assert out["rs"].tolist() == [1.5, 4.0, 10.0, 7.0]


def test_grouped_cumsum_refuses_duplicate_order_key(ray_session):
    """A tied (key, order) tuple would sum in shuffle arrival order."""
    df = pd.DataFrame({"k": [1, 1, 1, 2], "o": [0, 1, 1, 0],
                       "v": [1.0, 2.0, 3.0, 4.0]})
    with pytest.raises(ValueError, match="not unique"):
        _collect(grouped_cumsum(ray.data.from_pandas(df), "k", ["o"], "v"))


def test_q13_histogram_conserves_customers(ray_session):
    from jesse_ray.pipelines.queries22 import q_tpch_q13ish

    pdf = q_tpch_q13ish("/root/testdata/sf0.001")
    assert int(pdf["custdist"].sum()) == 150  # every customer in one bucket


def test_q21_counts_only_late_supplier(ray_session):
    from jesse_ray.pipelines.queries22 import q_tpch_q21ish

    pdf = q_tpch_q21ish("/root/testdata/sf0.001")
    assert (pdf["numwait"] > 0).all()
    assert pdf["numwait"].is_monotonic_decreasing
