"""Approximate distinct counting over a Dataset: per-batch HyperLogLog
partials + the same shuffle-free coalescing tree as the drift sketches
(stages/drift.py:63-78) — no groupby, no sort; each partial is ~4 KB at
p=12, so even a 16M-block corpus funnels through three near-no-op merge
levels before the driver touches at most ``fan_in`` sketches."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from jesse_ray.hashutil import hash64_strings, map_key_buckets
from jesse_ray.sketches import HyperLogLog

_HLL_SCHEMA = pa.schema([pa.field("hll", pa.large_binary())])


def _one_row(h: HyperLogLog) -> pa.Table:
    return pa.table({"hll": pa.array([h.to_bytes()], type=pa.large_binary())}, schema=_HLL_SCHEMA)


def _merge_batch(batch: pa.Table) -> pa.Table:
    merged: HyperLogLog | None = None
    for raw in batch["hll"]:
        h = HyperLogLog.from_bytes(raw.as_py())
        merged = h if merged is None else merged.merge(h)
    if merged is None:
        return pa.table({"hll": pa.array([], type=pa.large_binary())}, schema=_HLL_SCHEMA)
    return _one_row(merged)


def _merge_rows(sk: Dataset, p: int, *, fan_in: int = 64, levels: int = 3) -> HyperLogLog:
    for _ in range(levels):
        sk = sk.map_batches(_merge_batch, batch_format="pyarrow", zero_copy_batch=True, batch_size=fan_in)
    merged: HyperLogLog | None = None
    for b in sk.iter_batches(batch_format="pyarrow"):
        for raw in b["hll"]:
            h = HyperLogLog.from_bytes(raw.as_py())
            merged = h if merged is None else merged.merge(h)
    return merged if merged is not None else HyperLogLog(p)


# persistent per-process scratch: this box erratically pays a ~30x
# first-touch page-fault tax on fresh multi-MB allocations (measured —
# a single 104 MB astype took 13 s while the arithmetic kernels on the
# same data took <0.2 s), so the hash walk streams fixed-size chunks
# through two reused 8 MB buffers instead of materializing casts.
_CHUNK = 1 << 20
_scratch: dict[str, np.ndarray] = {}


def _bufs(n: int) -> tuple[np.ndarray, np.ndarray]:
    if "h" not in _scratch:
        _scratch["h"] = np.empty(_CHUNK, dtype=np.uint64)
        _scratch["t"] = np.empty(_CHUNK, dtype=np.uint64)
    return _scratch["h"][:n], _scratch["t"][:n]


def _np_valid(arr: pa.Array) -> np.ndarray:
    return pc.is_valid(arr).to_numpy(zero_copy_only=False)


def _add_column_hashes(hll: HyperLogLog, col, flatten: bool) -> None:
    from jesse_ray.hashutil import fmix64_inplace

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if flatten:
        col = pc.list_flatten(col)
    col = col.drop_null()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        for s in range(0, len(col), _CHUNK):
            h = hash64_strings(col.slice(s, _CHUNK))
            _t = _bufs(len(h))[1]
            hll.add_hashes(fmix64_inplace(h, _t))
        return
    vals = col.to_numpy(zero_copy_only=False)  # zero-copy for non-null ints
    for s in range(0, len(vals), _CHUNK):
        c = vals[s : s + _CHUNK]
        h, t = _bufs(len(c))
        np.copyto(h, c, casting="unsafe")
        hll.add_hashes(fmix64_inplace(h, t))


def hll_distinct(
    ds: Dataset,
    column: str,
    *,
    flatten: bool = False,
    p: int = 12,
    fan_in: int = 64,
    levels: int = 3,
    batch_size: Optional[int] = None,
) -> float:
    """Approximate COUNT(DISTINCT column) (or of the flattened list
    elements with ``flatten=True``).  Relative error ~1.04/sqrt(2^p)."""

    def build(batch: pa.Table) -> pa.Table:
        h = HyperLogLog(p)
        _add_column_hashes(h, batch[column], flatten)
        return _one_row(h)

    sk = ds.select_columns([column]).map_batches(
        build, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )
    return _merge_rows(sk, p, fan_in=fan_in, levels=levels).estimate()


def hll_distinct_by_group(
    ds: Dataset,
    col: str,
    group_col: str,
    *,
    p: int = 12,
    flatten: bool = False,
    batch_size: Optional[int] = None,
) -> pa.Table:
    """Approximate distinct count PER GROUP — the scale path for
    grouped count-distinct over a high-cardinality value column (the
    exact operator must shuffle every (group, value) pair; this one
    shuffles a ~4 KB mergeable register blob per (group, block)).
    Group cardinality is assumed bounded (sources / event types / langs
    — the grouped_agg assumption).

    Per batch the partial is FULLY VECTORIZED (no per-group Python
    work): dictionary-encode the group column once, hash every value
    once, fold (group, register) → max-rank with one sort + reduceat,
    then emit ONE register blob per group — SPARSE ([0xff, p, n_u32,
    idx_u32[], rank_u8[]]) when a group touched few registers (the
    high-cardinality regime: ~5 bytes per distinct-ish value instead of
    a dense 4 KB page per group), dense ([p, regs]) otherwise.  merge =
    elementwise max per group.  Group cardinality may be high — the
    blob bytes scale with actual distinct mass, not groups × 2^p.
    Returns (group, estimate float64)."""
    from jesse_ray.hashutil import fmix64_inplace
    from jesse_ray.sketches import hll_idx_rank

    m = 1 << p
    dense_cut = max(1, m // 8)  # sparse wins below ~m/8 occupied registers

    def partial(batch: pa.Table) -> pa.Table:
        gtype = batch.schema.field(group_col).type
        gcol = batch[group_col]
        if isinstance(gcol, pa.ChunkedArray):
            gcol = gcol.combine_chunks()
        n = len(gcol)
        empty = pa.table({group_col: pa.array([], type=gtype),
                          "hll": pa.array([], type=pa.large_binary())})
        if n == 0:
            return empty
        enc = pc.dictionary_encode(gcol)
        gdict = enc.dictionary
        n_g = len(gdict)  # id n_g = the null group, if present
        gidx = pc.fill_null(enc.indices.cast(pa.int64()), n_g).to_numpy(
            zero_copy_only=False)
        vals = batch[col]
        if isinstance(vals, pa.ChunkedArray):
            vals = vals.combine_chunks()
        if flatten:
            lens = pc.fill_null(pc.list_value_length(vals), 0).cast(
                pa.int64()).to_numpy(zero_copy_only=False)
            gidx = np.repeat(gidx, lens)
            vals = pc.list_flatten(vals)
        vmask = _np_valid(vals)
        if not vmask.all():
            gidx = gidx[vmask]
            vals = vals.drop_null()
        if len(vals) == 0:
            return empty
        # hash every value once (chunked through the persistent scratch
        # buffers), reduce (group, register) → max rank per chunk
        is_str = pa.types.is_string(vals.type) or pa.types.is_large_string(vals.type)
        nums = None if is_str else vals.to_numpy(zero_copy_only=False)
        keys_parts, rank_parts = [], []
        for s in range(0, len(vals), _CHUNK):
            if is_str:
                h = hash64_strings(vals.slice(s, _CHUNK))
                hh = fmix64_inplace(h, _bufs(len(h))[1])
            else:
                c = nums[s:s + _CHUNK]
                hb, tb = _bufs(len(c))
                np.copyto(hb, c, casting="unsafe")
                hh = fmix64_inplace(hb, tb)
            idx, rank = hll_idx_rank(hh, p)
            key = gidx[s:s + len(idx)] * m + idx
            order = np.argsort(key, kind="stable")
            ks, rs = key[order], rank[order]
            starts = np.concatenate([[0], np.flatnonzero(np.diff(ks)) + 1])
            keys_parts.append(ks[starts])
            rank_parts.append(np.maximum.reduceat(rs, starts))
        key = np.concatenate(keys_parts)
        rank = np.concatenate(rank_parts)
        if len(keys_parts) > 1:  # re-reduce across chunk partials
            order = np.argsort(key, kind="stable")
            key, rank = key[order], rank[order]
            starts = np.concatenate([[0], np.flatnonzero(np.diff(key)) + 1])
            key, rank = key[starts], np.maximum.reduceat(rank, starts)
        gid = key // m
        reg = (key % m).astype(np.uint32)
        g_starts = np.concatenate([[0], np.flatnonzero(np.diff(gid)) + 1])
        g_ends = np.append(g_starts[1:], len(gid))
        blobs, out_gids = [], gid[g_starts]
        for s, e in zip(g_starts, g_ends):
            nnz = e - s
            if nnz <= dense_cut:
                blobs.append(b"\xff" + bytes([p])
                             + np.uint32(nnz).tobytes()
                             + reg[s:e].tobytes() + rank[s:e].tobytes())
            else:
                regs = np.zeros(m, dtype=np.uint8)
                regs[reg[s:e]] = rank[s:e]
                blobs.append(bytes([p]) + regs.tobytes())
        # id n_g (and everything when the column is all-null) = null group
        take_idx = pa.array(
            [int(g) if g < n_g else None for g in out_gids], type=pa.int64())
        out_groups = (gdict.take(take_idx) if n_g
                      else pa.array([None] * len(out_gids), type=gtype))
        return pa.table({group_col: out_groups,
                         "hll": pa.array(blobs, type=pa.large_binary())})

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=batch_size)

    import pandas as pd

    alpha_m2 = (0.7213 / (1.0 + 1.079 / m)) * m * m

    def _estimate(inv_sum: float, zeros: int) -> float:
        raw = alpha_m2 / inv_sum
        if raw <= 2.5 * m and zeros:
            return float(m * np.log(m / zeros))
        return float(raw)

    def merge_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(group_col, na_position="last", kind="stable")
        gv = g[group_col].to_numpy()
        blobs = g["hll"].to_numpy()
        ser = g[group_col]
        change = (ser != ser.shift()) & ~(ser.isna() & ser.shift().isna())
        change.iloc[0] = True
        bounds = np.append(np.flatnonzero(change.to_numpy()), len(gv))
        out_g, out_e = [], []
        for bi in range(len(bounds) - 1):
            s, e = bounds[bi], bounds[bi + 1]
            run = blobs[s:e]
            if len(run) == 1 and run[0][0] == 0xFF:
                # single sparse blob — estimate without touching 2^p regs
                raw = run[0]
                nnz = int(np.frombuffer(raw, dtype=np.uint32, count=1, offset=2)[0])
                rk = np.frombuffer(raw, dtype=np.uint8, count=nnz, offset=6 + 4 * nnz)
                inv_sum = float(np.ldexp(1.0, -rk.astype(np.int64)).sum()) + (m - nnz)
                out_e.append(_estimate(inv_sum, m - nnz))
            else:
                regs = np.zeros(m, dtype=np.uint8)
                for raw in run:
                    if raw[0] == 0xFF:
                        nnz = int(np.frombuffer(raw, dtype=np.uint32, count=1, offset=2)[0])
                        idx = np.frombuffer(raw, dtype=np.uint32, count=nnz, offset=6)
                        rk = np.frombuffer(raw, dtype=np.uint8, count=nnz, offset=6 + 4 * nnz)
                        np.maximum.at(regs, idx.astype(np.int64), rk)
                    else:
                        np.maximum(regs, np.frombuffer(raw, dtype=np.uint8, offset=1),
                                   out=regs)
                inv_sum = float(np.ldexp(1.0, -regs.astype(np.int64)).sum())
                out_e.append(_estimate(inv_sum, int((regs == 0).sum())))
            out_g.append(gv[s])
        return pd.DataFrame({group_col: out_g, "estimate": out_e})

    # coarse 64-part group-hash shuffle instead of a per-group map_groups:
    # at high group cardinality Ray's per-group pandas invocation
    # dominates wall time; 64 parts keep the merge in 64 vectorizable tasks
    out = map_key_buckets(partials, [group_col], merge_part)
    t = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    base = getattr(ds.schema(), "base_schema", None)
    gout = t[group_col]
    if isinstance(base, pa.Schema):  # pandas-block datasets have no Arrow schema
        gtype = base.field(group_col).type
        if gout.type != gtype:  # pandas may have widened (e.g. object→string)
            gout = gout.cast(gtype)
    return pa.table({group_col: gout, "estimate": t["estimate"].cast(pa.float64())})


def tdigest_quantiles_by_group(
    ds: Dataset,
    col: str,
    group_col: str,
    qs,
    *,
    compression: int = 200,
    batch_size: Optional[int] = None,
) -> pa.Table:
    """Approximate quantiles PER GROUP via mergeable t-digests — the
    scale path for continuous value columns where the exact grouped
    quantile operator's bounded-cardinality assumption breaks: each
    (group, block) contributes one ~2 KB digest blob, merge =
    centroid-merge per group (the HLL-by-group shuffle shape).  Returns
    one row per (group, q) with the estimate."""
    from jesse_ray.sketches import TDigest

    def partial(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.and_(pc.is_valid(batch[group_col]), pc.is_valid(batch[col])))
        groups = t[group_col]
        if isinstance(groups, pa.ChunkedArray):
            groups = groups.combine_chunks()
        uniq = pc.unique(groups)
        out_g, out_b = [], []
        for gv in uniq:
            sub = t.filter(pc.equal(groups, gv))
            d = TDigest(compression)
            d.add(sub[col].cast(pa.float64()).to_numpy(zero_copy_only=False))
            out_g.append(gv.as_py())
            out_b.append(d.to_bytes())
        return pa.table(
            {group_col: pa.array(out_g, type=groups.type),
             "td": pa.array(out_b, type=pa.large_binary())}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=batch_size)

    import pandas as pd

    from jesse_ray.sketches import TDigest as _TD

    qs = list(qs)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        merged = None
        for raw in g["td"]:
            d = _TD.from_bytes(raw)
            merged = d if merged is None else merged.merge(d)
        return pd.DataFrame(
            {group_col: [g[group_col].iloc[0]] * len(qs),
             "q": qs,
             "est": [float(merged.quantile(q)) for q in qs]}
        )

    out = partials.groupby(group_col).map_groups(merge, batch_format="pandas")
    t = pa.concat_tables(out.iter_batches(batch_format="pyarrow"))
    return pa.table(
        {group_col: t[group_col], "q": t["q"].cast(pa.float64()),
         "est": t["est"].cast(pa.float64())}
    )
