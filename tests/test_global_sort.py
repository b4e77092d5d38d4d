"""The driver fold of ``q_seq_global_sort``: block partials of a sorted
corpus, folded in any arrival order, give the exact global Σ pos·n_tok."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from jesse_ray.pipelines.queries import _fold_global_sort_partials, _global_sort_block_partial


def _sorted_corpus() -> pa.Table:
    """(doc_id, n_tok) sorted by (n_tok, doc_id), nulls last: distinct
    rows, a 12-row duplicated (n_tok, doc_id) run, equal-n_tok ties and a
    tail of null n_tok rows."""
    rng = np.random.default_rng(11)
    n_tok = [int(x) for x in rng.integers(1, 40, 60)] + [7] * 12 + [None] * 9
    doc_id = [f"d{i:03d}" for i in range(60)] + ["d-dup"] * 12 + [f"z{i}" for i in range(9)]
    t = pa.table({"doc_id": pa.array(doc_id, pa.string()), "n_tok": pa.array(n_tok, pa.int32())})
    return t.sort_by([("n_tok", "ascending"), ("doc_id", "ascending")], null_placement="at_end")


def _brute_force(t: pa.Table) -> int:
    nt = pc.fill_null(t["n_tok"].cast(pa.int64()), 0).to_pylist()
    return sum(pos * v for pos, v in enumerate(nt))


def _blocks(t: pa.Table) -> list[pa.Table]:
    """Cut so that two blocks lie wholly inside the duplicated run, two
    blocks hold only null n_tok rows and one block is empty."""
    dup = pc.equal(t["doc_id"], "d-dup").to_numpy(zero_copy_only=False).nonzero()[0]
    first_null = t.num_rows - 9
    mid = (int(dup[9]) + first_null) // 2
    cuts = [0, 0, int(dup[1]), int(dup[5]), int(dup[9]), mid, first_null - 2,
            first_null + 3, first_null + 6, t.num_rows]
    assert cuts == sorted(cuts)
    return [t.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]


@pytest.mark.parametrize("seed", range(6))
def test_fold_matches_brute_force_in_any_order(seed):
    t = _sorted_corpus()
    blocks = _blocks(t)
    # the cuts really produce the degenerate blocks the fold must order
    assert any(b.num_rows == 0 for b in blocks)
    assert sum(b.num_rows > 1 and pc.all(pc.equal(b["doc_id"], "d-dup")).as_py() for b in blocks) == 2
    assert sum(b.num_rows > 0 and b["n_tok"].null_count == b.num_rows for b in blocks) == 2

    parts = pa.concat_tables([_global_sort_block_partial(b) for b in blocks]).to_pandas()
    order = np.random.default_rng(seed).permutation(len(parts))
    n, total = _fold_global_sort_partials(parts.iloc[order])
    assert n == t.num_rows
    assert total == _brute_force(t)


def test_fold_orders_a_block_starting_at_a_null_doc_id_last_in_its_tie():
    """Null doc_id sorts last within equal n_tok, so a block that starts
    at one follows the blocks that start at a non-null doc_id of the same
    n_tok."""
    t = pa.table({
        "doc_id": pa.array(["a", "b", None, "x"], pa.string()),
        "n_tok": pa.array([5, 5, 5, 6], pa.int32()),
    })
    parts = pa.concat_tables([_global_sort_block_partial(b) for b in (t.slice(2), t.slice(0, 2))]).to_pandas()
    assert _fold_global_sort_partials(parts) == (4, _brute_force(t))
