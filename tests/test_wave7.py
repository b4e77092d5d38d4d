"""Wave-7 catalog operators: Benford digits, Kendall τ-b, Theil–Sen,
ROC-AUC, Gini, weighted median, CUBE totals (DuckDB parity is covered
by tools/check_oracles.py; these pin the kernels on crafted corpora
with hand-computable structure)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _write_events(tmp_path, ts, value, event_type=None, user_id=None):
    n = len(ts)
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(pd.to_datetime(ts)).cast(pa.timestamp("us")),
        "user_id": pa.array(np.asarray(user_id if user_id is not None else np.zeros(n),
                                       dtype=np.int64)),
        "event_type": pa.array(event_type if event_type is not None else ["x"] * n),
        "value": pa.array(np.asarray(value, dtype=np.float64)),
        "props": pa.array(["{}"] * n),
    })
    pq.write_table(t, tmp_path / "events.parquet")


@pytest.mark.usefixtures("ray_session")
def test_benford_first_digits(tmp_path):
    from jesse_ray.pipelines.queries7 import q_orders_benford

    vals = [1.5, 19.0, 250.0, 3000.0, 9.99, 0.00042, 777.0, 1.0]
    # first digits: 1,1,2,3,9,4,7,1
    t = pa.table({"o_totalprice": pa.array(vals, type=pa.float64())})
    pq.write_table(t, tmp_path / "orders.parquet")
    got = q_orders_benford(str(tmp_path)).set_index("digit")
    assert got.loc[1, "n"] == 3
    assert got.loc[2, "n"] == 1 and got.loc[3, "n"] == 1
    assert got.loc[4, "n"] == 1 and got.loc[7, "n"] == 1 and got.loc[9, "n"] == 1
    assert abs(got.loc[1, "benford"] - round(np.log10(2), 5)) < 1e-12
    assert abs(got["share"].sum() - 1.0) < 1e-3


@pytest.mark.usefixtures("ray_session")
def test_kendall_taub_hand_case(tmp_path):
    from jesse_ray.pipelines.queries7 import q_events_kendall_daily

    # 3 days: counts (1, 2, 3), daily mean values (1, 3, 2):
    # pairs (d1,d2) conc, (d1,d3) conc, (d2,d3) disc → τ = (2-1)/3
    ts = (["2024-01-01"] * 1 + ["2024-01-02"] * 2 + ["2024-01-03"] * 3)
    value = [1.0, 3.0, 3.0, 2.0, 2.0, 2.0]
    _write_events(tmp_path, ts, value)
    got = q_events_kendall_daily(str(tmp_path))
    assert int(got["conc"].iloc[0]) == 2 and int(got["disc"].iloc[0]) == 1
    assert abs(got["tau_b"].iloc[0] - round(1 / 3, 5)) < 1e-12


@pytest.mark.usefixtures("ray_session")
def test_theilsen_exact_linear(tmp_path):
    from jesse_ray.pipelines.queries7 import q_events_theilsen_daily

    # daily counts 1,3,5 on consecutive days → every pairwise slope = 2
    ts = (["2024-02-01"] * 1 + ["2024-02-02"] * 3 + ["2024-02-03"] * 5)
    _write_events(tmp_path, ts, np.ones(9))
    got = q_events_theilsen_daily(str(tmp_path))
    assert got["n_days"].iloc[0] == 3
    assert abs(got["slope"].iloc[0] - 2.0) < 1e-12


@pytest.mark.usefixtures("ray_session")
def test_roc_auc_perfect_separation(tmp_path):
    import jesse_ray.pipelines.queries7  # noqa: F401 (module import)
    from jesse_ray.pipelines.queries6 import q_emb_roc_auc

    # positives (label<5) have MORE positive dims than every negative
    emb, lab = [], []
    for i in range(20):
        pos = i < 10
        dims = np.full(8, 1.0 if pos else -1.0, dtype=np.float32)
        if pos:
            dims[:2] = 1.0
        else:
            dims[:1] = 1.0  # one positive dim → score 1 < positives' 8
        emb.append(dims)
        lab.append(0 if pos else 9)
    t = pa.table({
        "vec_id": pa.array(np.arange(20, dtype=np.int64)),
        "embedding": pa.array([list(map(float, e)) for e in emb], type=pa.list_(pa.float32())),
        "label": pa.array(lab, type=pa.int32()),
    })
    pq.write_table(t, tmp_path / "embeddings.parquet")
    got = q_emb_roc_auc(str(tmp_path))
    assert got["n_pos"].iloc[0] == 10 and got["n_neg"].iloc[0] == 10
    assert abs(got["auc"].iloc[0] - 1.0) < 1e-12


@pytest.mark.usefixtures("ray_session")
def test_gini_concentration(tmp_path):
    from jesse_ray.pipelines.queries7 import q_events_gini

    # user counts (1, 1, 1, 97): G = 2*(1+2+3+4*97)/(4*100) - 5/4 = 0.72
    users = [0, 1, 2] + [3] * 97
    ts = ["2024-01-01"] * 100
    _write_events(tmp_path, ts, np.ones(100), user_id=users)
    got = q_events_gini(str(tmp_path))
    assert got["n_users"].iloc[0] == 4
    assert abs(got["gini"].iloc[0] - 0.72) < 1e-12


@pytest.mark.usefixtures("ray_session")
def test_weighted_median_crossing_rule(tmp_path):
    from jesse_ray.pipelines.queries7 import q_lineitem_weighted_median

    # quantities (1,2,3) with weights (1,1,2): first 2*cum >= total at q=2
    t = pa.table({
        "l_returnflag": pa.array(["A", "A", "A"]),
        "l_quantity": pa.array([1.0, 2.0, 3.0]),
        "l_extendedprice": pa.array([1.0, 1.0, 2.0]),
    })
    pq.write_table(t, tmp_path / "lineitem.parquet")
    got = q_lineitem_weighted_median(str(tmp_path))
    assert got["wmedian_qty"].iloc[0] == 2.0


@pytest.mark.usefixtures("ray_session")
def test_cube_margins_consistent(tmp_path):
    from jesse_ray.pipelines.queries7 import q_events_cube

    ts = ["2024-03-01T05:30:00"] * 3 + ["2024-03-01T07:10:00"] * 2
    _write_events(tmp_path, ts, np.ones(5), event_type=["a", "a", "b", "b", "b"])
    got = q_events_cube(str(tmp_path))
    grand = got[(got["event_type"] == "ALL") & (got["hr"] == -1)]["n"].iloc[0]
    assert grand == 5
    detail = got[(got["event_type"] != "ALL") & (got["hr"] != -1)]
    assert detail["n"].sum() == 5
    a_total = got[(got["event_type"] == "a") & (got["hr"] == -1)]["n"].iloc[0]
    assert a_total == 2
    hr5 = got[(got["event_type"] == "ALL") & (got["hr"] == 5)]["n"].iloc[0]
    assert hr5 == 3
