"""Distribution-drift stage: per-batch drift summaries + shuffle-free tree merge.

Each input batch contributes one serialized :class:`SketchBundle` (exact
counts of the ``n_tok`` values and of the token ids).  Merging is
addition, so no key-based shuffle is ever needed and the merged summary
does not depend on the order blocks arrive in: the merge tree is built by
letting ``map_batches`` COALESCE up to ``_FAN_IN`` single-row summary
blocks per task (Ray Data's batcher bundles consecutive blocks until
``batch_size`` rows — a streaming, sort-free operation), repeated for
``_LEVELS`` rounds.  A level applied to an already-small stream is one
near-no-op task, so extra levels cost nothing; at 64 × 3 the driver
never merges more than 64 summaries even for ~64^4 ≈ 16M input blocks
(a 10^12-row corpus at 65k rows/block).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from jesse_ray.compiler import _combine
from jesse_ray.sketches import SketchBundle, drift_report

_SKETCH_SCHEMA = pa.schema([pa.field("sketch", pa.large_binary())])
_FAN_IN, _LEVELS = 64, 3


def batch_sketch(batch: pa.Table, n_tok_col: str = "n_tok", tokens_col: str = "tokens",
                 vocab: int = 50_000) -> SketchBundle:
    """One batch's SketchBundle; an absent column contributes nothing.
    The per-batch unit of both ``sketch_dataset`` and the fused
    validation pass (``validate(sketch=True)``)."""
    b = SketchBundle.empty(vocab)
    n_tok = np.empty(0, dtype=np.float64)
    flat = np.empty(0, dtype=np.int64)
    if n_tok_col in batch.column_names:
        n_tok = batch[n_tok_col].cast(pa.float64()).to_numpy(zero_copy_only=False)
    if tokens_col in batch.column_names:
        flat = pc.list_flatten(_combine(batch[tokens_col])).to_numpy(zero_copy_only=False)
    b.add_batch(n_tok, flat)
    return b


def _build_sketch_fn(n_tok_col: str, tokens_col: str, vocab: int):
    def build(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"sketch": pa.array([batch_sketch(batch, n_tok_col, tokens_col, vocab).to_bytes()],
                                type=pa.large_binary())},
            schema=_SKETCH_SCHEMA,
        )

    return build


def _fold(blobs) -> Optional[SketchBundle]:
    """The sum of serialized bundles (Arrow binary scalars); None for none."""
    merged = None
    for raw in blobs:
        b = SketchBundle.from_bytes(raw.as_py())
        merged = b if merged is None else merged.merge(b)
    return merged


def _merge_batch(batch: pa.Table) -> pa.Table:
    merged = _fold(batch["sketch"])
    return pa.table({"sketch": pa.array([] if merged is None else [merged.to_bytes()], type=pa.large_binary())},
                    schema=_SKETCH_SCHEMA)


def merge_sketch_rows(sk: Dataset, *, vocab: int = 50_000) -> SketchBundle:
    """Tree-merge a Dataset of one-sketch-per-row binary blocks down to a
    single :class:`SketchBundle` without any all-to-all shuffle."""
    for _ in range(_LEVELS):
        sk = sk.map_batches(
            _merge_batch,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=_FAN_IN,
        )
    merged = _fold(raw for b in sk.iter_batches(batch_format="pyarrow") for raw in b["sketch"])
    return merged if merged is not None else SketchBundle.empty(vocab)


def sketch_dataset(
    ds: Dataset,
    *,
    n_tok_col: str = "n_tok",
    tokens_col: str = "tokens",
    vocab: int = 50_000,
    batch_size: Optional[int] = None,
) -> SketchBundle:
    """Build one merged SketchBundle for a whole Dataset; the result does
    not depend on ``batch_size`` or block order."""
    sk = ds.select_columns([n_tok_col, tokens_col]).map_batches(
        _build_sketch_fn(n_tok_col, tokens_col, vocab),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
    return merge_sketch_rows(sk, vocab=vocab)


def exact_psi_by_group(
    ds: Dataset,
    group_col: str,
    col: str,
    *,
    bins: int = 10,
    eps: float = 1e-9,
    batch_size: Optional[int] = None,
) -> "pa.Table":
    """EXACT population-stability-index drift per group: bin ``col`` at
    the corpus's exact discrete deciles (quantile cuts at 1/bins …
    (bins-1)/bins), then PSI of each group's bin distribution against
    the whole corpus:

        psi(g) = Σ_b (p_g,b − p_ref,b) · ln((p_g,b + eps)/(p_ref,b + eps))

    This is the per-group counterpart of the corpus-level
    :func:`jesse_ray.sketches.psi_deciles`: two small passes — exact corpus
    quantiles (bounded-cardinality two-phase) and a (group, bin) count
    shuffle of ≤ groups × bins × blocks combiner rows.  NULL values and
    NULL groups are excluded (SQL aggregate semantics)."""
    from jesse_ray.pipelines.relational import exact_discrete_quantiles

    def valid_rows(batch: pa.Table) -> pa.Table:
        t = batch.select([group_col, col])
        return t.filter(pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[col])))

    # cuts and counts both over the SAME population (non-null group AND
    # value), or the reference distribution would include rows the
    # per-group distributions can't
    ds = ds.map_batches(valid_rows, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    qs = [i / bins for i in range(1, bins)]
    cuts = np.array(
        [c for c in exact_discrete_quantiles(ds, col, qs, batch_size=batch_size) if c is not None],
        dtype=np.float64,
    )

    def bin_counts(batch: pa.Table) -> pa.Table:
        t = batch
        x = t[col].cast(pa.float64()).to_numpy(zero_copy_only=False)
        b = np.searchsorted(cuts, x, side="left")  # = #cuts strictly < x
        g = pa.table({group_col: t[group_col], "bin": pa.array(b, type=pa.int64())})
        out = g.group_by([group_col, "bin"]).aggregate([([], "count_all")])
        return out.rename_columns([group_col, "bin", "__pc"])

    parts = list(
        ds.map_batches(bin_counts, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
        .iter_batches(batch_format="pyarrow")
    )
    if not parts:
        return pa.table({group_col: pa.array([]), "psi": pa.array([], type=pa.float64())})
    merged = (
        pa.concat_tables(parts).group_by([group_col, "bin"]).aggregate([("__pc", "sum")]).to_pandas()
    )
    # pivot to groups × (bins observed corpus-wide), zero-filled
    pivot = merged.pivot_table(
        index=group_col, columns="bin", values="__pc_sum", fill_value=0, aggfunc="sum"
    ).sort_index()
    counts = pivot.to_numpy(dtype=np.float64)
    ref = counts.sum(axis=0)
    p_ref = ref / ref.sum()
    p_g = counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)
    psi = ((p_g - p_ref) * np.log((p_g + eps) / (p_ref + eps))).sum(axis=1)
    return pa.table(
        {
            group_col: pa.array(list(pivot.index)),
            "psi": pa.array(psi, type=pa.float64()),
        }
    )


def drift_check(ref_ds: Dataset, new_ds: Dataset, **kw) -> dict:
    """KS and PSI (exact ``n_tok`` counts) + chi-square and PSI (token
    frequencies) drift report between a reference corpus and a new
    corpus; ``kw`` goes to :func:`sketch_dataset`."""
    return drift_report(sketch_dataset(ref_ds, **kw), sketch_dataset(new_ds, **kw))


def exact_ks_by_group(
    ds: Dataset,
    group_col: str,
    col: str,
    *,
    batch_size: Optional[int] = None,
) -> "pa.Table":
    """EXACT Kolmogorov-Smirnov distance per group against the whole
    corpus: ``ks(g) = max_v |F_g(v) − F_all(v)|`` over the observed
    value grid — the per-group counterpart of the corpus-level KS gate
    (sketches.ks_statistic), for bounded-cardinality value columns.

    One two-phase (group, value) count shuffle (combiner rows ≤ groups
    × distinct values × blocks); the driver evaluates both ECDFs on the
    shared sorted grid with integer cumsums (one float division at the
    end, so any SQL twin computing the same ratios matches bit-for-bit
    up to the final rounding).  NULL groups/values are excluded."""

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.select([group_col, col])
        t = t.filter(pc.and_(pc.is_valid(t[group_col]), pc.is_valid(t[col])))
        g = t.group_by([group_col, col]).aggregate([([], "count_all")])
        return g.rename_columns([group_col, col, "__pc"])

    parts = list(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=batch_size).iter_batches(batch_format="pyarrow")
    )
    if not parts:
        return pa.table({group_col: pa.array([]), "ks": pa.array([], type=pa.float64())})
    m = pa.concat_tables(parts).group_by([group_col, col]).aggregate([("__pc", "sum")])
    groups = m[group_col].to_numpy(zero_copy_only=False)
    vals = m[col].cast(pa.float64()).to_numpy(zero_copy_only=False)
    cnts = m["__pc_sum"].to_numpy(zero_copy_only=False).astype(np.int64)

    grid = np.unique(vals)
    vidx = np.searchsorted(grid, vals)
    all_counts = np.zeros(len(grid), dtype=np.int64)
    np.add.at(all_counts, vidx, cnts)
    fa = np.cumsum(all_counts) / all_counts.sum()

    out_g, out_ks = [], []
    ug = np.unique(groups)
    for gv in ug:
        sel = groups == gv
        gc = np.zeros(len(grid), dtype=np.int64)
        np.add.at(gc, vidx[sel], cnts[sel])
        fg = np.cumsum(gc) / gc.sum()
        out_g.append(gv)
        out_ks.append(float(np.abs(fg - fa).max()))
    return pa.table(
        {group_col: pa.array(out_g, type=m.schema.field(group_col).type),
         "ks": pa.array(out_ks, type=pa.float64())}
    )


def exact_jsd_by_group(
    ds: Dataset,
    group_col: str,
    tokens_col: str,
    *,
    batch_size: Optional[int] = None,
) -> "pa.Table":
    """EXACT Jensen-Shannon divergence of each group's token
    distribution against the whole corpus (natural-log JSD ∈ [0, ln 2])
    — the symmetric, always-finite member of the drift family (PSI, KS,
    chi-square live alongside).  One two-phase (group, token) count
    shuffle; the driver evaluates the closed form over the bounded
    vocabulary:

        jsd(g) = ½ Σ_{t∈g} P ln(P/M) + ½ [Σ_{t∈g} Q ln(Q/M) + ln2 · Q(g∌t)]

    with P the group's distribution, Q the corpus's, M = (P+Q)/2; the
    last term covers tokens absent from the group, where M = Q/2."""

    def partial(batch: pa.Table) -> pa.Table:
        toks = batch[tokens_col]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        grp = batch[group_col]
        if isinstance(grp, pa.ChunkedArray):
            grp = grp.combine_chunks()
        g = grp.take(parent)
        t = pa.table({group_col: g, "t": flat}).filter(
            pc.and_(pc.is_valid(g), pc.is_valid(flat))
        )
        out = t.group_by([group_col, "t"]).aggregate([([], "count_all")])
        return out.rename_columns([group_col, "t", "__pc"])

    parts = list(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=batch_size).iter_batches(batch_format="pyarrow")
    )
    m = pa.concat_tables(parts).group_by([group_col, "t"]).aggregate([("__pc", "sum")])
    groups = m[group_col].to_numpy(zero_copy_only=False)
    toks = m["t"].to_numpy(zero_copy_only=False)
    cnts = m["__pc_sum"].to_numpy(zero_copy_only=False).astype(np.int64)

    grid = np.unique(toks)
    vidx = np.searchsorted(grid, toks)
    tot_t = np.zeros(len(grid), dtype=np.int64)
    np.add.at(tot_t, vidx, cnts)
    T = tot_t.sum()
    q_full = tot_t / T

    out_g, out_j = [], []
    for gv in np.unique(groups):
        sel = groups == gv
        Ts = cnts[sel].sum()
        p = cnts[sel] / Ts
        q = q_full[vidx[sel]]
        mmid = 0.5 * (p + q)
        kl_p = float(np.sum(p * np.log(p / mmid)))
        kl_q_in = float(np.sum(q * np.log(q / mmid)))
        q_out = 1.0 - float(q.sum())
        out_g.append(gv)
        out_j.append(0.5 * kl_p + 0.5 * (kl_q_in + np.log(2.0) * q_out))
    return pa.table(
        {group_col: pa.array(out_g, type=m.schema.field(group_col).type),
         "jsd": pa.array(out_j, type=pa.float64())}
    )
