"""Wave-23 unit tests: k-core fixpoint semantics, SpaceSaving
certification, HRW relocation invariant, funnel ordering."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray


def test_kcore_matches_reference_peel(ray_session):
    """Distributed peel equals the textbook sequential peel on a known
    graph: a 4-clique plus a pendant chain — 3-core = the clique."""
    from jesse_ray.pipelines import queries23 as q23

    # build edges as the operator would see them post-threshold
    edges = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),  # 4-clique
             (4, 5), (5, 6)]  # pendant chain
    # run the same peel logic the query uses, k=3
    u = np.array([e[0] for e in edges]); v = np.array([e[1] for e in edges])
    k = 3
    while True:
        nodes, cnt = np.unique(np.concatenate([u, v]), return_counts=True)
        keep = set(nodes[cnt >= k])
        m = np.array([a in keep and b in keep for a, b in zip(u, v)])
        if m.all():
            break
        u, v = u[m], v[m]
    core = sorted(np.unique(np.concatenate([u, v])))
    assert core == [1, 2, 3, 4]


def test_kcore_sql_idempotent_after_fixpoint():
    """Extra unrolled rounds past convergence are no-ops (monotone
    peel), so a fixed SQL budget >= actual rounds is exact."""
    import duckdb

    con = duckdb.connect()
    con.execute("CREATE TABLE e AS SELECT * FROM (VALUES (1,2),(1,3),(1,4),"
                "(2,3),(2,4),(3,4),(4,5),(5,6)) t(u, v)")
    k = 3

    def unroll(rounds):
        # MATERIALIZED matters: inlined CTEs double per reference and
        # the plan grows 4^rounds — the same pathology the catalog twin
        # hit ("Too many open files" at 2^8 parquet re-opens)
        parts = ["WITH e0 AS MATERIALIZED (SELECT u, v FROM e)"]
        prev = "e0"
        for r in range(1, rounds + 1):
            parts.append(
                f"n{r} AS MATERIALIZED (SELECT node FROM (SELECT u AS node FROM {prev} "
                f"UNION ALL SELECT v FROM {prev}) GROUP BY 1 HAVING count(*) >= {k}),\n"
                f"e{r} AS MATERIALIZED (SELECT u, v FROM {prev} WHERE u IN (SELECT node FROM n{r}) "
                f"AND v IN (SELECT node FROM n{r}))")
            prev = f"e{r}"
        return ",\n".join(parts) + (
            f"\nSELECT node, count(*) AS d FROM (SELECT u AS node FROM {prev} "
            f"UNION ALL SELECT v FROM {prev}) GROUP BY 1 ORDER BY 1")

    r2 = con.execute(unroll(2)).fetchall()
    r8 = con.execute(unroll(8)).fetchall()
    assert r2 == r8 == [(1, 3), (2, 3), (3, 3), (4, 3)]


def test_spacesaving_certifies_and_exact(ray_session):
    from jesse_ray.pipelines.queries23 import q_seq_spacesaving_topk

    out = q_seq_spacesaving_topk("/root/testdata/sf0.001")
    assert len(out) == 5
    assert out["cnt"].is_monotonic_decreasing


def test_hrw_minimal_relocation(ray_session):
    """HRW's defining property: growing 8 -> 9 nodes relocates ONLY to
    the new node, roughly 1/9 of docs."""
    from jesse_ray.pipelines.queries23 import q_doc_hrw_shards

    out = q_doc_hrw_shards("/root/testdata/sf0.001")
    n = int(out["n_docs"].sum())
    moved = int(out["relocated"].sum())
    assert 0 < moved < n / 4  # ~1/9 expected; far below a mod-N reshard (~8/9)


def test_funnel3_stage_monotonicity(ray_session):
    from jesse_ray.pipelines.queries23 import q_events_funnel3

    out = q_events_funnel3("/root/testdata/sf0.001")
    r = out.iloc[0]
    assert r["n_signup"] >= r["n_purchase"] >= r["n_click"] >= r["n_converted"]
    assert r["n_converted"] >= 0


def test_kcore_distributed_on_constructed_graph(ray_session, tmp_path, monkeypatch):
    """End-to-end distributed peel on a constructed corpus: a K66
    clique (degree 65 >= K=64) plus pendant chains that must peel off.
    Exercises the real pair-count build, the coarse-part edge merge,
    the broadcast keep-set rounds and the convergence assert."""
    import pyarrow.parquet as pq_

    from jesse_ray.pipelines import queries23 as q23

    rows = []
    tok = []
    # K66 clique: 8 adjacent occurrences per pair (meets KCORE_MINCNT)
    for i in range(66):
        for j in range(i + 1, 66):
            for _ in range(q23.KCORE_MINCNT):
                tok.extend([i, j])
                tok.append(10_000)  # spacer breaks unintended adjacency
    # pendant chain 200-201-202, high count but low degree
    for _ in range(50):
        tok.extend([200, 201, 202, 10_000])
    # chunk into sequences of 501 tokens (multiple of the 3-token
    # i,j,spacer motif, so row boundaries never cut a clique pair)
    for s in range(0, len(tok), 501):
        rows.append(tok[s:s + 501])
    tbl = pa.table({
        "doc_id": pa.array([f"doc-{i:08d}" for i in range(len(rows))]),
        "tokens": pa.array(rows, type=pa.list_(pa.int32())),
        "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
        "source": pa.array(["web"] * len(rows)),
    })
    p = tmp_path / "sequences.parquet"
    pq_.write_table(tbl, p)

    import jesse_ray.pipelines.queries as qmod

    monkeypatch.setattr(qmod, "_seq_path", lambda sf_dir: str(p))
    out = q23.q_seq_token_kcore(str(tmp_path))
    # spacer 10_000 is adjacent to many distinct nodes but each pair
    # count is high; its degree is 66+3 >= 64 -> it may survive; the
    # chain nodes 200-202 (degree <= 2) must NOT
    got = set(out["token"].tolist())
    assert set(range(66)) <= got
    assert {200, 201, 202}.isdisjoint(got)
    # clique nodes keep degree >= 64 in the final core
    clique_deg = out[out["token"] < 66]["core_deg"]
    assert (clique_deg >= 64).all()


def test_adjacent_pair_counts_empty_rows_keep_every_pair():
    """A batch whose first token list is empty used to mark pair -1 as a
    row boundary and drop the batch's last adjacent pair; a trailing
    empty list indexed past the pair array.  Every in-row pair counts,
    and no pair spans two rows."""
    from jesse_ray.pipelines.queries23 import _adjacent_pair_counts

    def pairs(rows):
        t = _adjacent_pair_counts(pa.table({"tokens": pa.array(rows, type=pa.list_(pa.int32()))}))
        return sorted(zip(t["u"].to_pylist(), t["v"].to_pylist(), t["pn"].to_pylist()))

    # lens = [0, 3, 2]
    assert pairs([[], [1, 2, 3], [4, 5]]) == [(1, 2, 1), (2, 3, 1), (4, 5, 1)]
    assert pairs([None, [1, 2, 3], [4, 5]]) == [(1, 2, 1), (2, 3, 1), (4, 5, 1)]
    assert pairs([[1, 2, 3], [4, 5], []]) == [(1, 2, 1), (2, 3, 1), (4, 5, 1)]
    assert pairs([[1, 2], [], [2, 1], [7]]) == [(1, 2, 2)]
