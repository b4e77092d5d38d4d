"""Distributed connected components over a (left, right) pair Dataset.

The step every dedup pipeline needs after near-dup pair generation:
pairs only say "A ~ B"; to DROP duplicates you need the transitive
closure (A~B, B~C => {A,B,C} is one cluster, keep one canonical member).
The algorithm is iterative min-label propagation (the classic
Pregel/"hash-min" formulation, e.g. Rastogi et al. 2013 "Finding
Connected Components in Map-Reduce in Logarithmic Rounds" — the HASH-MIN
variant): every node starts labelled with its own id; each round every
node takes the min of its own label and its neighbours' labels; at
fixpoint the label is the min node id of the component.

Rounds needed = max eccentricity over components.  Dedup clusters are
small and dense (LSH buckets emit near-cliques), so this converges in a
handful of rounds; ``max_rounds`` is a loud guard, not a tuning knob.

Scale design (nothing on the driver, no high-cardinality groupby):
- the edge list is symmetrized ONCE and materialized (it is re-read
  every round; re-executing the upstream LSH pipeline per round would
  be absurd at 100 TB);
- per round: one cogroup-via-union coarse shuffle attaches L[src] to
  each directed edge (messages), one coarse groupby-min folds messages
  into the new labels — both bucketed on the node by ``map_key_buckets``
  (<= n_parts distinct shuffle keys, many nodes per part, vectorized
  numpy inside each part; Ray's sort shuffle never sees a
  high-cardinality key — see memory: groupby on raw ids is ~1.2k
  rows/s);
- convergence is detected from the same pass (new < old per node,
  summed), no extra join.

Labels datasets are bounded by the number of nodes that appear in any
pair — the dup-candidate sub-population, not the corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from ray.data import Dataset

from jesse_ray.hashutil import map_key_buckets

_LABEL_SCHEMA = pa.schema([pa.field("node", pa.int64()), pa.field("label", pa.int64())])


def _symmetrize(edges: Dataset, left_col: str, right_col: str) -> Dataset:
    """(u,v) -> both (u,v) and (v,u); drops nulls and self-loops."""

    def sym(batch: pa.Table) -> pa.Table:
        t = batch.select([left_col, right_col]).drop_null()
        l = t[left_col].cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.int64)
        r = t[right_col].cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = l != r
        l, r = l[keep], r[keep]
        return pa.table(
            {
                "src": pa.array(np.concatenate([l, r])),
                "dst": pa.array(np.concatenate([r, l])),
            }
        )

    return edges.map_batches(sym, batch_format="pyarrow", zero_copy_batch=True)


def _init_labels(sym: Dataset, n_parts: int) -> Dataset:
    """Distinct endpoints, each labelled with itself (distinct via the
    coarse-partition pattern — one np.unique per part, never a
    groupby(node))."""

    def distinct_src(batch: pa.Table) -> pa.Table:
        u = np.unique(batch["src"].to_numpy(zero_copy_only=False))  # per-batch pre-dedup shrinks the shuffle
        return pa.table({"node": pa.array(u)})

    def uniq(batch: pa.Table) -> pa.Table:
        u = np.unique(batch["node"].to_numpy(zero_copy_only=False))
        return pa.table({"node": pa.array(u), "label": pa.array(u)}, schema=_LABEL_SCHEMA)

    return map_key_buckets(sym.map_batches(distinct_src, batch_format="pyarrow", zero_copy_batch=True),
                           ["node"], uniq, batch_format="pyarrow", n_parts=n_parts)


def _messages(sym: Dataset, labels: Dataset, n_parts: int) -> Dataset:
    """One propagation half-round: (dst, L[src]) for every directed edge.

    Cogroup-via-union keyed on src: label rows kind=0 carry
    (node, label); edge rows kind=1 carry (src, dst).  Inside a part the
    lookup is a sort + searchsorted — numpy only."""

    def tag_labels(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": pa.array(np.zeros(batch.num_rows, dtype=np.int8)),
                "key": batch["node"],
                "lab": batch["label"],
                "dst": pa.nulls(batch.num_rows, type=pa.int64()),
            }
        )

    def tag_edges(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
                "key": batch["src"],
                "lab": pa.nulls(batch.num_rows, type=pa.int64()),
                "dst": batch["dst"],
            }
        )

    both = labels.map_batches(tag_labels, batch_format="pyarrow", zero_copy_batch=True).union(
        sym.map_batches(tag_edges, batch_format="pyarrow", zero_copy_batch=True)
    )

    def cogroup(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        kind = g["kind"].to_numpy(zero_copy_only=False)
        key = g["key"].to_numpy(zero_copy_only=False)
        # null-filled on the opposite kind's rows: fill to keep int64
        lab = pc.fill_null(g["lab"], 0).to_numpy(zero_copy_only=False)
        dst = pc.fill_null(g["dst"], 0).to_numpy(zero_copy_only=False)
        is_lab = kind == 0
        lk, lv = key[is_lab], lab[is_lab]
        order = np.argsort(lk, kind="stable")
        lk, lv = lk[order], lv[order]
        ek, ed = key[~is_lab], dst[~is_lab]
        pos = np.searchsorted(lk, ek)
        # every edge src has a label row by construction
        return pa.table(
            {"node": pa.array(ed.astype(np.int64)), "label": pa.array(lv[pos].astype(np.int64))},
            schema=_LABEL_SCHEMA,
        )

    return map_key_buckets(both, ["key"], cogroup, batch_format="pyarrow", n_parts=n_parts)


def _fold_min(labels: Dataset, msgs: Dataset, n_parts: int) -> Dataset:
    """new L[node] = min(old L[node], incoming messages); emits a
    ``changed`` column so convergence costs no extra pass."""

    def tag(self_flag: int):
        def t(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                        "node": batch["node"],
                    "lab": batch["label"],
                    "self": pa.array(np.full(batch.num_rows, self_flag, dtype=np.int8)),
                }
            )

        return t

    both = labels.map_batches(tag(1), batch_format="pyarrow", zero_copy_batch=True).union(
        msgs.map_batches(tag(0), batch_format="pyarrow", zero_copy_batch=True)
    )

    def fold(g: pa.Table) -> pa.Table:
        node = g["node"].to_numpy(zero_copy_only=False)
        lab = g["lab"].to_numpy(zero_copy_only=False)
        selfm = g["self"].to_numpy(zero_copy_only=False)
        order = np.lexsort((lab, node))
        node, lab, selfm = node[order], lab[order], selfm[order]
        starts = np.flatnonzero(np.concatenate([[True], node[1:] != node[:-1]]))
        new = lab[starts]  # sorted by (node, lab): first row per run is the min
        nodes_u = node[starts]
        # the old label is the unique self row per node
        self_idx = np.flatnonzero(selfm == 1)
        old = np.empty(len(starts), dtype=np.int64)
        old_pos = np.searchsorted(starts, self_idx, side="right") - 1
        old[old_pos] = lab[self_idx]
        changed = (new < old).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(nodes_u.astype(np.int64)),
                "label": pa.array(new.astype(np.int64)),
                "changed": pa.array(changed),
            }
        )

    return map_key_buckets(both, ["node"], fold, batch_format="pyarrow", n_parts=n_parts)


def _compress(labels: Dataset, n_parts: int) -> Dataset:
    """Pointer doubling: L[u] <- L[L[u]].  Every label value is itself a
    node id (mins only ever propagate real ids), so the lookup is the
    same cogroup-via-union as :func:`_messages` with the label table
    playing both sides.  Min-propagation alone needs diameter rounds on
    a path graph; alternating it with this halving step converges in
    O(log diameter) rounds (Rastogi et al. 2013, HASH-TO-MIN)."""

    def tag_lut(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": pa.array(np.zeros(batch.num_rows, dtype=np.int8)),
                "key": batch["node"],
                "lab": batch["label"],
                "dst": pa.nulls(batch.num_rows, type=pa.int64()),
            }
        )

    def tag_query(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kind": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
                "key": batch["label"],
                "lab": pa.nulls(batch.num_rows, type=pa.int64()),
                "dst": batch["node"],
            }
        )

    both = labels.map_batches(tag_lut, batch_format="pyarrow", zero_copy_batch=True).union(
        labels.map_batches(tag_query, batch_format="pyarrow", zero_copy_batch=True)
    )

    def cogroup(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        kind = g["kind"].to_numpy(zero_copy_only=False)
        key = g["key"].to_numpy(zero_copy_only=False)
        lab = pc.fill_null(g["lab"], 0).to_numpy(zero_copy_only=False)
        dst = pc.fill_null(g["dst"], 0).to_numpy(zero_copy_only=False)
        is_lut = kind == 0
        lk, lv = key[is_lut], lab[is_lut]
        order = np.argsort(lk, kind="stable")
        lk, lv = lk[order], lv[order]
        qk, qn = key[~is_lut], dst[~is_lut]
        pos = np.searchsorted(lk, qk)
        return pa.table(
            {"node": pa.array(qn.astype(np.int64)), "label": pa.array(lv[pos].astype(np.int64))},
            schema=_LABEL_SCHEMA,
        )

    return map_key_buckets(both, ["key"], cogroup, batch_format="pyarrow", n_parts=n_parts)


def _local_components(sym: Dataset) -> Dataset:
    """Exact components of a SMALL symmetrized edge list, solved on the
    driver with the same hash-min + pointer-doubling fixpoint but fully
    vectorized in numpy (no per-round shuffles).  O(E log V) total; a
    1M-edge graph takes tens of milliseconds.  Only ever called under
    ``local_threshold`` — the caller guarantees the edge list is bounded
    (dup-candidate pairs, not the corpus)."""
    tbl = pa.concat_tables(list(sym.iter_batches(batch_format="pyarrow")))
    src = tbl["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    dst = tbl["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    si, di = inv[: len(src)], inv[len(src) :]
    lab = np.arange(len(nodes), dtype=np.int64)
    for _ in range(64):
        new = lab.copy()
        np.minimum.at(new, di, lab[si])
        new = new[new]  # pointer doubling
        if np.array_equal(new, lab):
            break
        lab = new
    else:  # pragma: no cover - log2(V) << 64 always
        raise RuntimeError("local connected components did not converge")
    # nodes from np.unique are ascending, so min index == min node id
    return ray.data.from_arrow(
        pa.table({"node": pa.array(nodes), "component": pa.array(nodes[lab])})
    )


def connected_components(
    edges: Dataset,
    *,
    left_col: str = "left",
    right_col: str = "right",
    n_parts: int = 64,
    max_rounds: int = 50,
    local_threshold: int = 1_000_000,
) -> Dataset:
    """Label every node of the undirected pair graph with the min node id
    of its connected component.  Returns a Dataset ``(node, component)``.

    Each round is one neighbour-min propagation (diameter-shrinking)
    plus one pointer-doubling compression (path-halving), so rounds
    needed ~ log2(max component diameter); ``max_rounds=50`` covers any
    physically-possible graph.  Convergence is exact: a round where the
    neighbour fold changes no label is the global fixpoint (for every
    edge L[u]==L[v] => labels constant per component).

    Raises ``RuntimeError`` if not converged within ``max_rounds``
    (fail loud rather than return a partial clustering)."""
    # Coalesce before every materialize: Ray's sort-based groupby emits
    # one output block per input block, and the per-round unions stack
    # block lists, so without an explicit coalesce the block count
    # roughly doubles per round and task-launch overhead dominates
    # (measured: round 0 = 1.6 s, round 4 = 98 s on a 300-node graph).
    n_blocks = max(8, n_parts // 4)
    sym = _symmetrize(edges, left_col, right_col).repartition(n_blocks).materialize()
    n_edges = sym.count()
    if n_edges == 0:
        return ray.data.from_arrow(
            pa.table({"node": pa.array([], type=pa.int64()), "component": pa.array([], type=pa.int64())})
        )
    if n_edges <= local_threshold:
        # Dup-pair graphs are bounded by the dup-candidate population;
        # below the threshold the driver fixpoint is strictly faster than
        # even one distributed round (each round costs 2 sort shuffles).
        return _local_components(sym)
    labels = _init_labels(sym, n_parts).repartition(n_blocks).materialize()
    for _ in range(max_rounds):
        msgs = _messages(sym, labels, n_parts)
        folded = _fold_min(labels, msgs, n_parts).repartition(n_blocks).materialize()
        n_changed = folded.sum("changed")
        labels = folded.drop_columns(["changed"])
        if not n_changed:
            break
        labels = _compress(labels, n_parts).repartition(n_blocks).materialize()
    else:
        raise RuntimeError(f"connected_components did not converge in {max_rounds} rounds")

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch["node"], "component": batch["label"]})

    return labels.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def dedup_by_components(
    ds: Dataset,
    components: Dataset,
    *,
    key_col: str = "doc_id",
    n_parts: int = 64,
) -> Dataset:
    """Keep one canonical row per dup cluster: drop every row whose key
    appears in ``components`` with ``node != component`` (the canonical
    member of each cluster is its min id, which keeps itself; rows never
    seen in any pair pass through untouched).

    The drop set (non-canonical nodes) is typically a small fraction of
    the corpus; it is shipped via the same broadcast-once pattern as the
    referential checker (one ``ray.put``, resolved once per worker)."""

    import pyarrow.compute as pc

    def non_canon(batch: pa.Table) -> pa.Table:
        mask = pc.not_equal(batch["node"], batch["component"])
        return batch.filter(mask).select(["node"])

    drop_tbl = components.map_batches(non_canon, batch_format="pyarrow", zero_copy_batch=True)
    # bounded: non-canonical dup members only (a small fraction of the corpus)
    drop_ids = np.sort(
        np.concatenate(
            [b["node"].to_numpy(zero_copy_only=False).astype(np.int64)
             for b in drop_tbl.iter_batches(batch_format="pyarrow")]
            or [np.empty(0, dtype=np.int64)]
        )
    )
    ref = ray.put(drop_ids)

    class Drop:
        def __init__(self):
            self.ids = ray.get(ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            if len(self.ids) == 0:
                return batch
            keys = batch[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.int64)
            pos = np.searchsorted(self.ids, keys)
            pos_c = np.minimum(pos, len(self.ids) - 1)
            hit = self.ids[pos_c] == keys
            return batch.filter(pa.array(~hit))

    return ds.map_batches(Drop, batch_format="pyarrow", zero_copy_batch=True, concurrency=(1, 8))


# ---------------------------------------------------------------------------
# Fixed-point PageRank over a weighted edge list

PR_SCALE = 10**12  # total mass in fixed-point units
PR_D_NUM, PR_D_DEN = 85, 100  # damping 0.85 as an exact rational


def pagerank_fixedpoint(
    edges: Dataset,
    *,
    src_col: str = "src",
    dst_col: str = "dst",
    weight_col: str = "w",
    n_iters: int = 5,
    node_capacity: int = 1 << 22,
) -> "pa.Table":
    """Weighted PageRank in EXACT int64 fixed-point arithmetic: every
    per-edge contribution is ``floor(r[src] * w / out_w[src])``, the
    damped update is ``base + (sum * 85) // 100`` — floor divisions and
    integer sums are order-independent and bit-identical across
    engines, so an SQL twin (unrolled iterations) matches EXACTLY,
    with no float-drift tolerance games.  Simplified formulation:
    dangling mass is not redistributed (documented; nodes with no
    out-edges only receive).

    Scale shape: the rank VECTOR is dense over the node-id domain and
    must fit one worker (``node_capacity`` guards it loudly) — the
    right trade for bounded vocabularies (token graphs, label graphs);
    unbounded-id graphs need the label-propagation machinery above
    instead.  Per iteration: broadcast ranks once (``ray.put``), one
    ``map_batches`` over the materialized edge list computing per-batch
    ``bincount`` partials, and a driver reduction of per-batch partial
    vectors — no shuffle at all in the loop.

    Returns an Arrow table (node, score) over all participating nodes.
    """
    # one pass: per-batch (max id, out-weight partials, node presence)
    edges = edges.materialize()

    def probe(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        m = int(max(s.max(), d.max())) if len(s) else -1
        return pa.table({"mx": pa.array([m], type=pa.int64())})

    mx = max(r["mx"] for r in edges.map_batches(probe, batch_format="pyarrow").take_all())
    size = mx + 1
    if size > node_capacity:
        raise ValueError(
            f"node domain {size} exceeds node_capacity {node_capacity}: "
            "dense-vector PageRank is for bounded id domains (remap ids first)")

    def outw_part(b: pa.Table) -> pa.Table:
        s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
        d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = b[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # int64 accumulation: float64 bincount would lose exactness past 2^53
        ow = np.zeros(size, dtype=np.int64)
        np.add.at(ow, s, w)
        present = np.zeros(size, dtype=bool)
        present[s] = True
        present[d] = True
        return pa.table({"ow": pa.array(ow), "present": pa.array(present)})

    ow = np.zeros(size, dtype=np.int64)
    present = np.zeros(size, dtype=bool)
    for part in edges.map_batches(outw_part, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        ow += part["ow"].to_numpy(zero_copy_only=False).astype(np.int64)
        present |= part["present"].to_numpy(zero_copy_only=False).astype(bool)

    n_nodes = int(present.sum())
    if n_nodes == 0:
        return pa.table({"node": pa.array([], type=pa.int64()),
                         "score": pa.array([], type=pa.int64())})
    base = (PR_SCALE * (PR_D_DEN - PR_D_NUM) // PR_D_DEN) // n_nodes
    r = np.where(present, PR_SCALE // n_nodes, 0).astype(np.int64)
    ow_safe = np.maximum(ow, 1)  # floor(r*w/ow) only read where ow>0

    for _ in range(n_iters):
        r_ref = ray.put(r) if ray.is_initialized() else r
        ow_ref = ray.put(ow_safe) if ray.is_initialized() else ow_safe

        def contrib(b: pa.Table, r_ref=r_ref, ow_ref=ow_ref) -> pa.Table:
            rv = ray.get(r_ref) if ray.is_initialized() else r_ref
            owv = ray.get(ow_ref) if ray.is_initialized() else ow_ref
            s = b[src_col].to_numpy(zero_copy_only=False).astype(np.int64)
            d = b[dst_col].to_numpy(zero_copy_only=False).astype(np.int64)
            w = b[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
            c = (rv[s] * w) // owv[s]
            inc = np.zeros(len(rv), dtype=np.int64)
            np.add.at(inc, d, c)
            return pa.table({"inc": pa.array(inc)})

        inc = np.zeros(size, dtype=np.int64)
        for part in edges.map_batches(contrib, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None):
            inc += part["inc"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = np.where(present, base + (inc * PR_D_NUM) // PR_D_DEN, 0).astype(np.int64)

    nodes = np.flatnonzero(present).astype(np.int64)
    return pa.table({"node": pa.array(nodes), "score": pa.array(r[nodes])})


def triangle_count(
    edges: Dataset,
    *,
    left_col: str = "left",
    right_col: str = "right",
    n_parts: int = 64,
) -> int:
    """Exact triangle count over an undirected edge list (dup-cluster
    density / community structure of near-dup graphs).  The classic
    degree-ordered node-iterator: orient every edge from its
    (degree, id)-smaller endpoint, generate wedges from each center's
    out-neighbors, and close them against the oriented edge set — each
    triangle is produced exactly once and wedge work is bounded by the
    orientation (Σ out-deg² with out-deg ≤ √(2m)).

    Scale shape: degrees come from one combiner pass (driver holds the
    node-degree map — bounded by the dup-candidate population, same
    contract as connected_components); wedges are generated per
    center-hash part with one vectorized self-merge; closure is a
    coarse packed-key cogroup against the oriented edges — no
    broadcast of the edge set."""
    import pandas as pd

    edges = edges.materialize()

    def deg_partial(b: pa.Table) -> pa.Table:
        l = b[left_col].to_numpy(zero_copy_only=False).astype(np.int64)
        r = b[right_col].to_numpy(zero_copy_only=False).astype(np.int64)
        uk, cnt = np.unique(np.concatenate([l, r]), return_counts=True)
        return pa.table({"node": pa.array(uk), "d": pa.array(cnt.astype(np.int64))})

    deg: dict = {}
    for part in edges.map_batches(deg_partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow"):
        for n_, d_ in zip(part["node"].to_pylist(), part["d"].to_pylist()):
            deg[n_] = deg.get(n_, 0) + d_
    if not deg:
        return 0
    nodes = np.array(sorted(deg), dtype=np.int64)
    dvec = np.array([deg[n_] for n_ in nodes], dtype=np.int64)
    # rank = position in (degree, id) order — a dense orientation key
    order = np.lexsort((nodes, dvec))
    rank = np.empty(len(nodes), dtype=np.int64)
    rank[order] = np.arange(len(nodes))
    rank_of = dict(zip(nodes.tolist(), rank.tolist()))
    rank_ref = ray.put(rank_of) if ray.is_initialized() else rank_of

    def orient(b: pa.Table, ref=rank_ref) -> pa.Table:
        m = ray.get(ref) if ray.is_initialized() else ref
        l = b[left_col].to_numpy(zero_copy_only=False).astype(np.int64)
        r = b[right_col].to_numpy(zero_copy_only=False).astype(np.int64)
        rl = np.array([m[x] for x in l.tolist()], dtype=np.int64)
        rr = np.array([m[x] for x in r.tolist()], dtype=np.int64)
        src = np.where(rl < rr, rl, rr)
        dst = np.where(rl < rr, rr, rl)
        return pa.table({"src": pa.array(src), "dst": pa.array(dst)})

    oriented = edges.map_batches(orient, batch_format="pyarrow", zero_copy_batch=True)

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        d = g[["src", "dst"]].drop_duplicates()
        w = d.merge(d, on="src")
        w = w[w["dst_x"] < w["dst_y"]]
        return pd.DataFrame({"a": w["dst_x"].to_numpy(dtype=np.int64),
                             "b": w["dst_y"].to_numpy(dtype=np.int64)})

    wset = map_key_buckets(oriented, ["src"], wedges, n_parts=n_parts)

    def tag_wedge(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        bb = b["b"].to_numpy(zero_copy_only=False)
        key = (a.astype(np.int64) << np.int64(32)) | bb.astype(np.int64)
        return pa.table({"key": pa.array(key),
                         "kind": pa.array(np.zeros(len(key), dtype=np.int8))})

    def tag_edge(b: pa.Table) -> pa.Table:
        key = (b["src"].to_numpy(zero_copy_only=False).astype(np.int64) << np.int64(32)) \
              | b["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"key": pa.array(key),
                         "kind": pa.array(np.ones(len(key), dtype=np.int8))})

    tagged = wset.map_batches(tag_wedge, batch_format="pyarrow").union(
        oriented.map_batches(tag_edge, batch_format="pyarrow"))

    def count_part(g: pd.DataFrame) -> pd.DataFrame:
        e = set(g.loc[g["kind"] == 1, "key"].drop_duplicates())
        w = g.loc[g["kind"] == 0, "key"]
        return pd.DataFrame({"n": [int(w.isin(e).sum())]})

    parts = map_key_buckets(tagged, ["key"], count_part, n_parts=n_parts).to_pandas()
    return int(parts["n"].sum())
