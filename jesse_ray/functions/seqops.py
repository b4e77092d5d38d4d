"""Token-sequence shaping ops for pre-tokenized corpora (the
input_hint's (doc_id, tokens:list<int32>, n_tok) shape): truncation to
a max length and EOS-append, both fully Arrow-vectorized (list_slice /
offset surgery — no per-row Python).

These are the pre-packing normalization steps of an LLM training
pipeline (clip overlong documents, terminate each with EOS before
concat-then-chunk packing — see functions/pack.py for the packing
itself)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from jesse_ray.hashutil import map_key_buckets
from jesse_ray.rounding import round_half_away


def _combine(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def truncate_sequences(
    ds: Dataset,
    *,
    max_len: int,
    tokens_col: str = "tokens",
    n_tok_col: str | None = "n_tok",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Clip every token list to its first ``max_len`` elements and
    recompute ``n_tok`` from the ACTUAL clipped list (not the incoming
    n_tok column, which the validation suite treats as an assertion
    target, not ground truth)."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")

    def clip(batch: pa.Table) -> pa.Table:
        toks = _combine(batch[tokens_col])
        clipped = pc.list_slice(toks, 0, max_len)
        n = pc.list_value_length(clipped).cast(pa.int32())
        out = batch.set_column(batch.schema.get_field_index(tokens_col), tokens_col, clipped)
        if n_tok_col is not None:
            if n_tok_col in batch.column_names:
                out = out.set_column(out.schema.get_field_index(n_tok_col), n_tok_col, n)
            else:
                out = out.append_column(n_tok_col, n)
        return out

    return ds.map_batches(clip, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def append_eos(
    ds: Dataset,
    *,
    eos: int,
    tokens_col: str = "tokens",
    n_tok_col: str | None = "n_tok",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Append an EOS token to every sequence — offset surgery on the
    flat values buffer (one interleaved copy per batch, no Python rows):
    new_values[new_off[i] : new_off[i+1]-1] = old row i, then EOS."""

    def add(batch: pa.Table) -> pa.Table:
        toks = _combine(batch[tokens_col])
        if toks.null_count:
            toks = pc.fill_null(toks, [])
        # normalize large_list vs list
        typ = toks.type
        value_type = typ.value_type
        flat = pc.list_flatten(toks)
        n_rows = len(toks)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        new_off = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(lens + 1, out=new_off[1:])
        vals = flat.to_numpy(zero_copy_only=False)
        new_vals = np.empty(len(vals) + n_rows, dtype=vals.dtype)
        # positions of the EOS slots are new_off[1:]-1; everything else
        # is the old values shifted by how many EOS precede them
        eos_pos = new_off[1:] - 1
        keep = np.ones(len(new_vals), dtype=bool)
        keep[eos_pos] = False
        new_vals[keep] = vals
        new_vals[eos_pos] = eos
        arr = pa.ListArray.from_arrays(
            pa.array(new_off, type=pa.int64()).cast(pa.int32()),
            pa.array(new_vals, type=value_type),
        )
        out = batch.set_column(batch.schema.get_field_index(tokens_col), tokens_col, arr)
        if n_tok_col is not None:
            n = pa.array((lens + 1).astype(np.int32), type=pa.int32())
            if n_tok_col in batch.column_names:
                out = out.set_column(out.schema.get_field_index(n_tok_col), n_tok_col, n)
            else:
                out = out.append_column(n_tok_col, n)
        return out

    return ds.map_batches(add, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def chunk_sequences(
    ds: Dataset,
    *,
    max_len: int,
    stride: int | None = None,
    tokens_col: str = "tokens",
    n_tok_col: str | None = "n_tok",
    chunk_col: str = "chunk_id",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Context-window chunking: split every token sequence into chunks
    of ``max_len`` starting at 0, stride, 2·stride, … (``stride``
    defaults to ``max_len`` — non-overlapping; a smaller stride gives
    the standard overlapping-window training prep for long documents).
    1→many row expansion; all other columns are carried through
    (``take``), ``chunk_id`` is the 0-based window index and ``n_tok``
    is recomputed per chunk.  Empty/null sequences produce no chunks.

    Fully vectorized offset surgery: per batch, one ``np.repeat`` row
    expansion, one fancy gather over the flat values buffer, one
    ``ListArray.from_arrays`` — no per-row Python.  The expansion factor
    is bounded by ``⌈len/stride⌉``, so block sizes stay predictable (at
    100 TB pick batch_size so batch × ⌈max_seq/stride⌉ fits the heap).
    """
    if max_len <= 0:
        raise ValueError("max_len must be > 0")
    stride = max_len if stride is None else stride
    if stride <= 0:
        raise ValueError("stride must be > 0")

    def chunk(batch: pa.Table) -> pa.Table:
        toks = _combine(batch[tokens_col])
        if toks.null_count:
            toks = pc.fill_null(toks, [])
        value_type = toks.type.value_type
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        n_chunks = np.where(lens > 0, (lens - 1) // stride + 1, 0)
        total = int(n_chunks.sum())
        row_idx = np.repeat(np.arange(len(lens)), n_chunks)
        cstart_excl = np.concatenate([[0], np.cumsum(n_chunks)])[:-1]
        chunk_id = np.arange(total) - np.repeat(cstart_excl, n_chunks)
        start = chunk_id * stride
        chunk_len = np.minimum(max_len, lens[row_idx] - start)
        row_off = np.concatenate([[0], np.cumsum(lens)])[:-1]
        abs_start = row_off[row_idx] + start
        new_off = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(chunk_len, out=new_off[1:])
        vals = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        idx = (
            np.arange(int(new_off[-1]))
            - np.repeat(new_off[:-1], chunk_len)
            + np.repeat(abs_start, chunk_len)
        )
        arr = pa.ListArray.from_arrays(
            pa.array(new_off, type=pa.int64()).cast(pa.int32()),
            pa.array(vals[idx], type=value_type),
        )
        out = batch.take(pa.array(row_idx, type=pa.int64()))
        out = out.set_column(out.schema.get_field_index(tokens_col), tokens_col, arr)
        if n_tok_col is not None:
            n = pa.array(chunk_len.astype(np.int32), type=pa.int32())
            if n_tok_col in out.column_names:
                out = out.set_column(out.schema.get_field_index(n_tok_col), n_tok_col, n)
            else:
                out = out.append_column(n_tok_col, n)
        return out.append_column(chunk_col, pa.array(chunk_id, type=pa.int64()))

    return ds.map_batches(chunk, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


# ---------------------------------------------------------------------------
# vocabulary coverage / OOV rate


def token_vocabulary(ds: Dataset, *, tokens_col: str = "tokens") -> np.ndarray:
    """Distinct token ids of a (reference) corpus slice, as a sorted
    numpy array ready to broadcast.

    Map-side uniques shrink each block to its distinct ids before
    anything leaves the worker; the driver unions the per-block partial
    vocabularies (bounded by vocabulary size — token id spaces are
    ~1e5-1e6 even when the corpus is 100 TB, so the driver union is a
    few MB, never corpus-shaped)."""

    def partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(_combine(batch[tokens_col]))
        u = np.unique(flat.to_numpy(zero_copy_only=False))
        return pa.table({"token": pa.array(u)})

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    blocks = [b["token"].to_numpy(zero_copy_only=False)
              for b in parts.iter_batches(batch_format="pyarrow")]
    if not blocks:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(blocks))


def oov_stats_by_group(
    ds: Dataset,
    vocab: np.ndarray,
    *,
    tokens_col: str = "tokens",
    group_col: str = "source",
) -> Dataset:
    """Vocabulary coverage per group: ``(group, n_oov, n_tok)`` where
    ``n_oov`` counts token occurrences outside ``vocab``.  The curation
    metric behind "how much of source X does my tokenizer/reference
    vocabulary actually cover".

    ``vocab`` is broadcast once (``ray.put``); each batch does one
    vectorized sorted-membership probe (np.isin over the flattened
    Arrow buffer) and emits per-group PARTIAL sums, so the final
    groupby shuffles a handful of rows per block — group cardinality is
    assumed small (sources/languages), exactly like grouped_agg."""
    import ray as _ray

    vocab = np.sort(np.asarray(vocab))
    ref = _ray.put(vocab) if _ray.is_initialized() else vocab

    class Partial:
        def __init__(self):
            v = ref
            self.vocab = _ray.get(v) if isinstance(v, _ray.ObjectRef) else v

        def __call__(self, batch: pa.Table) -> pa.Table:
            toks = _combine(batch[tokens_col])
            flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
            parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
            vocab = self.vocab.astype(flat.dtype, copy=False)
            oov = ~np.isin(flat, vocab)
            groups = batch[group_col].to_numpy(zero_copy_only=False)
            uniq, inv = np.unique(groups, return_inverse=True)
            n_tok = np.bincount(inv[parent], minlength=len(uniq)) if len(parent) else np.zeros(len(uniq), np.int64)
            n_oov = np.bincount(inv[parent[oov]], minlength=len(uniq)) if len(parent) else np.zeros(len(uniq), np.int64)
            return pa.table(
                {
                    group_col: pa.array(uniq),
                    "n_oov": pa.array(n_oov.astype(np.int64)),
                    "n_tok": pa.array(n_tok.astype(np.int64)),
                }
            )

    from ray.data.aggregate import Sum

    partials = ds.map_batches(Partial, batch_format="pyarrow", zero_copy_batch=True,
                              concurrency=(1, 8))
    return partials.groupby(group_col).aggregate(
        Sum("n_oov", alias_name="n_oov"), Sum("n_tok", alias_name="n_tok")
    )


#: per-worker grow-only scratch for token_pair_counts (see its body)
_PAIR_SCRATCH: dict = {}


def token_pair_counts(
    ds: Dataset,
    *,
    k: int = 20,
    tokens_col: str = "tokens",
    n_parts: int = 64,
    batch_size: Optional[int] = None,
) -> pa.Table:
    """Exact top-k ADJACENT token-pair counts — one iteration of the
    BPE merge loop (count every within-sequence bigram of token ids,
    pick the most frequent pairs).  Tokenizer training over a 100 TB
    pre-tokenized corpus is exactly this loop, so the shuffle
    discipline matters: the map side collapses each block to distinct
    (packed pair, partial count) rows (the combiner), pairs are packed
    into ONE int64 key (a<<32 | b — token ids are int32, so the pack is
    lossless and its ascending order IS the (a, b) lexicographic
    tiebreak), and the shuffle moves only those partials on a coarse
    pair-hash partition.  Every pair key lives wholly in one part, so
    per-part top-k then a driver merge of ≤ n_parts × k candidate rows
    is globally exact (relational.topk_from_partials discipline).

    Pairs containing a negative token id are excluded (the corpora use
    dense non-negative vocab ids; negatives are the validation suite's
    out-of-range sentinels, and packing them would alias).  Nulls: a
    null/empty token list contributes no pairs.
    """
    from jesse_ray.pipelines.relational import topk_from_partials

    def partial(batch: pa.Table) -> pa.Table:
        # PERSISTENT per-worker scratch: the original per-batch temps
        # (int64 upcast copy, diff array, boolean masks, compress,
        # np.unique's sort copy) totalled ~100 MB of FRESH pages per
        # batch — this sandbox's first-touch page tax makes those ~30x
        # slower than warm writes.  All big intermediates now live in
        # grow-only module scratch; the distinct-pair reduction is an
        # IN-PLACE sort + boundary diff instead of np.unique.
        empty = pa.table(
            {
                "elem": pa.array([], type=pa.int64()),
                "__pc": pa.array([], type=pa.int64()),
            }
        )
        toks = _combine(batch[tokens_col])
        values32 = toks.values.to_numpy(zero_copy_only=False)
        nf = len(values32)
        if nf < 2:
            return empty
        S = _PAIR_SCRATCH
        if S.get("cap", 0) < nf + 1:
            cap = max(nf + 1, 2 * S.get("cap", 1 << 16))
            S["cap"] = cap
            S["v"] = np.empty(cap, dtype=np.int64)
            S["pk"] = np.empty(cap, dtype=np.int64)
            S["d"] = np.zeros(cap + 1, dtype=np.int32)
            S["cs"] = np.empty(cap, dtype=np.int32)
            S["b1"] = np.empty(cap, dtype=bool)
            S["b2"] = np.empty(cap, dtype=bool)
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        v = S["v"][:nf]
        v[...] = values32
        # valid pair start positions: j and j+1 in the same list.  Mark
        # each list's [start, end-1) run via a diff array — vectorized,
        # no per-row loop, robust to empty/null lists (end-start < 2).
        s, e = off[:-1], off[1:]
        ok = (e - s) >= 2
        d = S["d"][: nf + 1]
        d[...] = 0
        np.add.at(d, s[ok], 1)
        np.add.at(d, e[ok] - 1, -1)
        cs = S["cs"][:nf]
        np.cumsum(d[:nf], out=cs)
        vb = S["b1"][: nf - 1]
        np.greater(cs[: nf - 1], 0, out=vb)
        b2 = S["b2"][: nf - 1]
        np.greater_equal(v[:-1], 0, out=b2)
        vb &= b2
        np.greater_equal(v[1:], 0, out=b2)
        vb &= b2
        if not vb.any():
            return empty
        pk = S["pk"][: nf - 1]
        np.left_shift(v[:-1], np.int64(32), out=pk)
        np.bitwise_or(pk, v[1:], out=pk)
        # sentinel the invalid slots: -1 sorts before every valid packed
        # pair (both halves are non-negative), so it lands in one leading
        # run that the boundary walk drops
        np.logical_not(vb, out=b2)
        pk[b2] = -1
        pk.sort(kind="quicksort")  # in-place: no np.unique copy
        chg = S["b1"][: nf - 1]
        chg[0] = True
        np.not_equal(pk[1:], pk[:-1], out=chg[1:])
        runs = np.flatnonzero(chg)
        uk = pk[runs]
        cnt = np.diff(np.append(runs, nf - 1))
        if uk[0] == -1:
            uk, cnt = uk[1:], cnt[1:]
        if not len(uk):
            return empty
        return pa.table(
            {
                "elem": pa.array(uk, type=pa.int64()),
                "__pc": pa.array(cnt.astype(np.int64)),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=batch_size)
    top = topk_from_partials(partials, k, elem_alias="packed", count_alias="cnt", n_parts=n_parts)
    packed = top["packed"].to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table(
        {
            "a": pa.array((packed >> 32).astype(np.int32)),
            "b": pa.array((packed & 0xFFFFFFFF).astype(np.int32)),
            "cnt": top["cnt"].cast(pa.int64()),
        }
    )


def apply_bpe_merge(
    ds: Dataset,
    *,
    a: int,
    b: int,
    new_id: int,
    tokens_col: str = "tokens",
    n_tok_col: str | None = "n_tok",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Apply ONE BPE merge rule corpus-wide: every greedy left-to-right
    non-overlapping adjacent occurrence of ``(a, b)`` becomes the single
    token ``new_id``.  With :func:`token_pair_counts` picking the next
    pair, this is the tokenizer-training iteration (and the tokenizer
    APPLICATION inner step) as a streaming corpus transform.

    Fully vectorized offset surgery: candidate starts come from one
    shifted compare over the flat values buffer (masked to within-list
    positions), the ``a == b`` overlap rule (in ``aaa`` merge positions
    0-1, not 1-2) is resolved by keeping alternating members of each
    consecutive-candidate run (for ``a != b`` occurrences can never
    overlap, so every candidate survives), and the output ListArray is
    rebuilt from per-list merge counts — no per-row Python.  Null
    token lists pass through as nulls."""
    if new_id < 0:
        raise ValueError("new_id must be >= 0")

    def merge(batch: pa.Table) -> pa.Table:
        toks = _combine(batch[tokens_col])
        values = toks.values.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        nv = len(values)
        if nv >= 2:
            s, e = off[:-1], off[1:]
            ok = (e - s) >= 2
            d = np.zeros(nv + 1, dtype=np.int32)
            np.add.at(d, s[ok], 1)
            np.add.at(d, e[ok] - 1, -1)
            within = np.cumsum(d[:-1])[:-1] > 0
            cand = within & (values[:-1] == a) & (values[1:] == b)
            idx = np.flatnonzero(cand)
        else:
            idx = np.empty(0, dtype=np.int64)
        if len(idx) and a == b:
            # greedy left-to-right: in each run of consecutive candidate
            # positions keep the 0th, 2nd, ... member
            new_run = np.empty(len(idx), dtype=bool)
            new_run[0] = True
            np.greater(np.diff(idx), 1, out=new_run[1:])
            run_start = idx[new_run]
            run_id = np.cumsum(new_run) - 1
            offset_in_run = idx - run_start[run_id]
            idx = idx[(offset_in_run & 1) == 0]
        # rebuild: position k in `idx` takes value new_id, position k+1 drops
        if len(idx):
            keep = np.ones(nv, dtype=bool)
            keep[idx + 1] = False
            in_slice = np.zeros(nv, dtype=bool)
            in_slice[off[0] : off[-1]] = True
            out_vals = values.copy()
            out_vals[idx] = new_id
            out_vals = out_vals[keep & in_slice]
            merged_parent = np.searchsorted(off, idx, side="right") - 1
            m = np.zeros(len(off) - 1, dtype=np.int64)
            np.add.at(m, merged_parent, 1)
            new_lens = (off[1:] - off[:-1]) - m
        else:
            out_vals = values[off[0] : off[-1]]
            new_lens = off[1:] - off[:-1]
        new_off = np.concatenate([[0], np.cumsum(new_lens)])
        mask = pc.is_null(toks) if toks.null_count else None
        arr = pa.ListArray.from_arrays(
            pa.array(new_off, type=pa.int32()),
            pa.array(out_vals, type=toks.type.value_type),
            mask=mask,
        )
        out = batch.set_column(batch.schema.get_field_index(tokens_col), tokens_col, arr)
        if n_tok_col is not None and n_tok_col in batch.column_names:
            n = pc.list_value_length(arr).cast(pa.int32())
            out = out.set_column(out.schema.get_field_index(n_tok_col), n_tok_col, n)
        return out

    return ds.map_batches(merge, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def length_bucket_stats(
    ds: Dataset,
    *,
    n_tok_col: str = "n_tok",
    batch_size: Optional[int] = None,
):
    """Static length-bucketing plan for training batches: assign every
    sequence to its power-of-two length bucket and report, per bucket,
    the sequence count, the real token mass, and the PADDING WASTE
    (bucket_len × count − tokens) a pad-to-bucket batcher would burn —
    the number that decides bucket granularity for a packing/padding
    strategy.  One vectorized bucket computation per batch + the
    grouped_agg combiner shuffle (≤ ~32 bucket rows move).  Rows with
    null or negative ``n_tok`` are excluded (validation's job, not the
    batcher's)."""
    from jesse_ray.pipelines.relational import grouped_agg

    def bucketize(batch: pa.Table) -> pa.Table:
        n = _combine(batch[n_tok_col])
        keep = pc.and_(pc.is_valid(n), pc.greater_equal(n, 0))
        nn = n.filter(keep).cast(pa.int64()).to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore"):
            bucket = np.where(nn <= 1, 1, 2 ** np.ceil(np.log2(np.maximum(nn, 1)))).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(bucket, type=pa.int64()),
                n_tok_col: pa.array(nn, type=pa.int64()),
            }
        )

    slim = ds.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)
    agg = grouped_agg(slim, ["bucket"], sums=[n_tok_col], count_alias="n_seqs")

    def finish(batch: pa.Table) -> pa.Table:
        b = _combine(batch["bucket"]).to_numpy(zero_copy_only=False)
        c = _combine(batch["n_seqs"]).to_numpy(zero_copy_only=False).astype(np.int64)
        t = _combine(batch[f"sum_{n_tok_col}"]).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(b, type=pa.int64()),
                "n_seqs": pa.array(c, type=pa.int64()),
                "sum_tok": pa.array(t, type=pa.int64()),
                "padding": pa.array(b * c - t, type=pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def token_pmi_topk(
    ds: Dataset,
    *,
    k: int = 20,
    min_count: int = 5,
    tokens_col: str = "tokens",
    n_parts: int = 64,
    batch_size: Optional[int] = None,
) -> pa.Table:
    """Collocation mining: top-k adjacent token pairs by PMI
    ``ln((c_ab/Np) / ((c_a/Nt)(c_b/Nt)))`` among pairs occurring at
    least ``min_count`` times — the phrase-detection pass of tokenizer
    and n-gram pipeline work.  ``min_count`` is the scale knob: the
    driver sees only pairs above it (plus the bounded vocabulary).

    Ranking is float-exact across engines: pairs are ordered by the
    single IEEE division ``c_ab / (c_a · c_b)`` (monotone in PMI for
    fixed totals, and exactly rounded from integers, so any SQL twin
    computing the same division ranks identically), ties by (a, b).
    Phase A counts unigrams + total valid pairs (sentinel row) with a
    coarse token-hash merge; phase B reuses the packed-pair combiner
    of :func:`token_pair_counts`.  Negative ids are excluded like
    token_pair_counts."""
    def uni_partial(batch: pa.Table) -> pa.Table:
        toks = _combine(batch[tokens_col])
        values = toks.values.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        sl = values[off[0] : off[-1]]
        sl = sl[sl >= 0]
        uk, cnt = (np.unique(sl, return_counts=True) if len(sl)
                   else (np.empty(0, np.int64), np.empty(0, np.int64)))
        # count valid (within-list, non-negative) pair slots -> sentinel -1
        n_pairs = 0
        if len(values) >= 2:
            s, e = off[:-1], off[1:]
            ok = (e - s) >= 2
            d = np.zeros(len(values) + 1, dtype=np.int32)
            np.add.at(d, s[ok], 1)
            np.add.at(d, e[ok] - 1, -1)
            valid = np.cumsum(d[:-1])[:-1] > 0
            valid &= (values[:-1] >= 0) & (values[1:] >= 0)
            n_pairs = int(valid.sum())
        tok = np.concatenate([uk, [-1]])
        c = np.concatenate([cnt, [n_pairs]]).astype(np.int64)
        return pa.table({"token": pa.array(tok, type=pa.int64()), "__pc": pa.array(c)})

    uni = ds.map_batches(uni_partial, batch_format="pyarrow", zero_copy_batch=True,
                         batch_size=batch_size)

    def merge_uni(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("token", sort=False)["__pc"].sum().reset_index()

    uni_m = map_key_buckets(uni, ["token"], merge_uni, n_parts=n_parts)
    ut = pa.concat_tables(uni_m.iter_batches(batch_format="pyarrow"))
    toks = ut["token"].to_numpy(zero_copy_only=False)
    cs = ut["__pc"].to_numpy(zero_copy_only=False).astype(np.int64)
    np_total = int(cs[toks == -1].sum())
    mask = toks >= 0
    toks, cs = toks[mask], cs[mask]
    nt_total = int(cs.sum())
    order = np.argsort(toks)
    toks, cs = toks[order], cs[order]

    def pair_partial(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "elem": pa.array([], type=pa.int64()),
                "__pc": pa.array([], type=pa.int64()),
            }
        )
        t = _combine(batch[tokens_col])
        values = t.values.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        if len(values) < 2:
            return empty
        off = t.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        s, e = off[:-1], off[1:]
        ok = (e - s) >= 2
        d = np.zeros(len(values) + 1, dtype=np.int32)
        np.add.at(d, s[ok], 1)
        np.add.at(d, e[ok] - 1, -1)
        valid = np.cumsum(d[:-1])[:-1] > 0
        valid &= (values[:-1] >= 0) & (values[1:] >= 0)
        packed = ((values[:-1] << np.int64(32)) | values[1:])[valid]
        if not len(packed):
            return empty
        uk, cnt = np.unique(packed, return_counts=True)
        return pa.table(
            {
                "elem": pa.array(uk, type=pa.int64()),
                "__pc": pa.array(cnt.astype(np.int64)),
            }
        )

    pairs = ds.map_batches(pair_partial, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=batch_size)

    def merge_pairs(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("elem", sort=False)["__pc"].sum().reset_index()
        return m[m["__pc"] >= min_count]

    pm = pa.concat_tables(
        map_key_buckets(pairs, ["elem"], merge_pairs, n_parts=n_parts)
        .iter_batches(batch_format="pyarrow")
    )
    if pm.num_rows == 0:
        return pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
                         "cnt": pa.array([], pa.int64()), "pmi": pa.array([], pa.float64())})
    packed = pm["elem"].to_numpy(zero_copy_only=False).astype(np.int64)
    c_ab = pm["__pc"].to_numpy(zero_copy_only=False).astype(np.int64)
    a = packed >> 32
    b = packed & 0xFFFFFFFF
    c_a = cs[np.searchsorted(toks, a)]
    c_b = cs[np.searchsorted(toks, b)]
    ratio = c_ab / (c_a * c_b).astype(np.float64)
    ordkey = np.lexsort((b, a, -ratio))[:k]
    pmi = np.log(ratio[ordkey] * (float(nt_total) * float(nt_total) / float(np_total)))
    return pa.table(
        {
            "a": pa.array(a[ordkey], type=pa.int64()),
            "b": pa.array(b[ordkey], type=pa.int64()),
            "cnt": pa.array(c_ab[ordkey], type=pa.int64()),
            "pmi": pa.array(round_half_away(pmi, 4), type=pa.float64()),
        }
    )


def vocab_coverage_curve(
    ds: Dataset,
    ks,
    *,
    tokens_col: str = "tokens",
    n_parts: int = 64,
    batch_size: Optional[int] = None,
) -> pa.Table:
    """Vocabulary-sizing curve: for each candidate vocab size k, how
    many token OCCURRENCES the k most frequent token ids cover (rank
    ties broken by ascending id) — the coverage/OOV tradeoff curve that
    picks a tokenizer's vocab size.  Two-phase (token, count) combiner
    on a coarse token-hash partition; the driver sorts the bounded
    vocabulary once and reads the cumsum at each k.  Negative ids are
    excluded (the corpus's out-of-range sentinels).  Returns exact
    integers (k, covered_cnt, total_cnt)."""
    def partial(batch: pa.Table) -> pa.Table:
        toks = _combine(batch[tokens_col])
        values = toks.values.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        sl = values[off[0] : off[-1]]
        sl = sl[sl >= 0]
        if not len(sl):
            return pa.table({"token": pa.array([], pa.int64()),
                             "__pc": pa.array([], pa.int64())})
        uk, cnt = np.unique(sl, return_counts=True)
        return pa.table({"token": pa.array(uk, type=pa.int64()),
                         "__pc": pa.array(cnt.astype(np.int64))})

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=batch_size)

    import pandas as pd

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("token", sort=False)["__pc"].sum().reset_index()

    t = pa.concat_tables(
        map_key_buckets(partials, ["token"], merge, n_parts=n_parts)
        .iter_batches(batch_format="pyarrow")
    )
    toks = t["token"].to_numpy(zero_copy_only=False)
    cnts = t["__pc"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((toks, -cnts))
    csum = np.cumsum(cnts[order])
    total = int(csum[-1]) if len(csum) else 0
    ks = sorted(int(k) for k in ks)
    covered = [int(csum[min(k, len(csum)) - 1]) if len(csum) and k > 0 else 0 for k in ks]
    return pa.table(
        {
            "k": pa.array(ks, type=pa.int64()),
            "covered_cnt": pa.array(covered, type=pa.int64()),
            "total_cnt": pa.array([total] * len(ks), type=pa.int64()),
        }
    )


def token_frequency_remap(ds: Dataset, *, tokens_col: str = "tokens"):
    """Frequency-ranked vocabulary compaction map: token id -> dense new
    id, most frequent token first (ties break on the smaller token id).
    The standard embedding-table compaction step before training — hot
    ids become small ids so the embedding rows that matter sit together.

    Map-side Arrow ``group_by`` count partials shrink each block to
    (token, partial count) rows; the driver merges partials bounded by
    vocabulary size x n_blocks (token id spaces are ~1e5-1e6 even at
    100 TB — the driver never sees corpus-shaped data).  Negative ids
    (this corpus's out-of-range sentinels) are excluded — they keep
    their value downstream.

    Returns ``(tokens_sorted, new_ids)`` numpy arrays ready for
    ``ray.put`` + per-batch ``np.searchsorted`` lookup.
    """

    def partial(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(_combine(batch[tokens_col])).drop_null()
        g = pa.table({"token": flat}).group_by("token").aggregate([([], "count_all")])
        return g.rename_columns(["token", "__pc"])

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    blocks = list(parts.iter_batches(batch_format="pyarrow"))
    if not blocks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    merged = (
        pa.concat_tables([pa.table(b) for b in blocks])
        .group_by("token")
        .aggregate([("__pc", "sum")])
    )
    tok = merged["token"].to_numpy(zero_copy_only=False).astype(np.int64)
    cnt = merged["__pc_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
    keep = tok >= 0
    tok, cnt = tok[keep], cnt[keep]
    order = np.lexsort((tok, -cnt))  # cnt desc, token asc
    new_ids = np.empty(len(tok), dtype=np.int64)
    new_ids[order] = np.arange(len(tok), dtype=np.int64)
    srt = np.argsort(tok, kind="stable")
    return tok[srt], new_ids[srt]


def remap_checksums_by_group(
    ds: Dataset,
    remap_ref,
    *,
    tokens_col: str = "tokens",
    group_col: str = "source",
    batch_size: Optional[int] = None,
) -> pa.Table:
    """Apply a token remap corpus-wide and return per-group
    position-weighted checksums — integer-exact evidence that every
    token of every sequence was remapped identically to the oracle
    (sum over positions of ``pos * new_id``; negative sentinel ids pass
    through unchanged).

    ``remap_ref``: ``ray.put`` handle (or plain tuple) of the
    ``token_frequency_remap`` result — broadcast once, resolved per
    worker into a dense id->rank lookup table (token id spaces are
    dense tokenizer vocabularies; a sparse/huge id space falls back to
    searchsorted), applied with one gather per batch over the flattened
    Arrow list values (no per-row Python).  Runs in TASK mode with
    lazily-resolved state (the engine.fused_violations pattern) — a
    per-run actor pool costs 10-40 s startup on short jobs.

    The hot loop streams the flattened token array through FIXED-SIZE
    (~2 MB) per-worker scratch buffers in row-aligned chunks instead of
    allocating batch-sized temporaries: this box services first-touch
    page faults at ~5 MB/s in cold phases (measured: one np.take into
    a fresh 33 MB output = 7 s, warm = 0.03 s — see BASELINE round-2
    machine findings), so total fresh-page footprint per worker must
    stay ~10 MB regardless of batch size.  Per chunk the row checksum
    is two ``np.add.reduceat`` calls against a cached chunk-local ramp:
    sum_i m_i*(i_local+1) = reduceat(m*ramp) - start_local*reduceat(m).
    """
    import ray

    _LUT_MAX = 50_000_000  # dense-LUT cutoff; beyond this, searchsorted
    _CHUNK = 1 << 18  # tokens per scratch chunk (2 MB int64 buffers)

    class Remap:
        def __init__(self, ref):
            self._ref = ref
            self.tok = None  # resolved lazily per worker
            self._scratch: dict = {}

        def _resolve(self):
            p = self._ref
            self.tok, self.new = ray.get(p) if isinstance(p, ray.ObjectRef) else p
            self.lut = None
            if len(self.tok) and int(self.tok[-1]) <= _LUT_MAX:
                lut = np.full(int(self.tok[-1]) + 1, -1, dtype=np.int64)
                lut[self.tok] = self.new
                self.lut = lut

        def _buf(self, name: str, n: int, dtype) -> np.ndarray:
            b = self._scratch.get(name)
            if b is None or len(b) < n:
                b = np.empty(max(n, _CHUNK), dtype=dtype)
                if name == "ramp":
                    b[:] = np.arange(1, len(b) + 1, dtype=np.int64)
                self._scratch[name] = b
            return b[:n]

        def _chunk_checksums(self, flat: np.ndarray, starts: np.ndarray,
                             c0: int, c1: int) -> np.ndarray:
            """Row checksums for the token slice [c0, c1) covering rows
            whose starts lie in it (row-aligned by construction)."""
            fc = flat[c0:c1]
            nv = len(fc)
            m = self._buf("mapped", nv, np.int64)
            if self.lut is not None:
                clip = self._buf("clip", nv, fc.dtype)
                np.maximum(fc, 0, out=clip)
                np.take(self.lut, clip, out=m)
                neg = self._buf("neg", nv, bool)
                np.less(fc, 0, out=neg)
                m[neg] = fc[neg]
            else:
                m[:] = fc
                nonneg = fc >= 0
                m[nonneg] = self.new[np.searchsorted(self.tok, fc[nonneg])]
            ramp = self._buf("ramp", nv, np.int64)
            term = self._buf("term", nv, np.int64)
            np.multiply(m, ramp, out=term)
            sl = starts - c0  # chunk-local row starts
            si = np.minimum(sl, nv - 1)  # guard reduceat on empty tail rows
            a = np.add.reduceat(term, si)
            bsum = np.add.reduceat(m, si)
            return a - sl * bsum

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self.tok is None:
                self._resolve()
            # .values + offset-rebased slicing (the apply_bpe_merge
            # pattern) so a zero-copy SLICED ListArray stays aligned;
            # assumes no null list rows (the validated-corpus contract)
            col = _combine(batch[tokens_col])
            offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            flat = col.values[offs[0]: offs[-1]].to_numpy(zero_copy_only=False)
            starts, ends = offs[:-1] - offs[0], offs[1:] - offs[0]
            nv = len(flat)
            n_rows = len(starts)
            row_sum = np.zeros(n_rows, dtype=np.int64)
            r0 = 0
            while r0 < n_rows and nv:
                # largest r1 with ends[r1-1] - starts[r0] <= _CHUNK,
                # but always at least one row (rows are small; a row
                # longer than _CHUNK just grows the scratch once)
                r1 = int(np.searchsorted(ends, starts[r0] + _CHUNK, side="right"))
                r1 = max(r1, r0 + 1)
                c0, c1 = int(starts[r0]), int(ends[r1 - 1])
                if c1 > c0:
                    row_sum[r0:r1] = self._chunk_checksums(
                        flat, starts[r0:r1], c0, c1)
                row_sum[r0:r1][ends[r0:r1] == starts[r0:r1]] = 0
                r0 = r1
            part = pa.table({
                group_col: batch[group_col],
                "__ck": pa.array(row_sum, type=pa.int64()),
            })
            g = part.group_by(group_col).aggregate([("__ck", "sum"), ([], "count_all")])
            return g.rename_columns([group_col, "__ck", "__n"])

    fn = Remap(remap_ref)
    parts = ds.map_batches(fn.__call__, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=batch_size)
    blocks = list(parts.iter_batches(batch_format="pyarrow"))
    merged = (
        pa.concat_tables([pa.table(b) for b in blocks])
        .group_by(group_col)
        .aggregate([("__ck", "sum"), ("__n", "sum")])
    )
    out = merged.sort_by(group_col)
    return pa.table({
        group_col: out[group_col],
        "n_docs": out["__n_sum"].cast(pa.int64()),
        "checksum": out["__ck_sum"].cast(pa.int64()),
    })


def fim_split(
    ds: Dataset,
    *,
    tokens_col: str = "tokens",
    key_col: str = "doc_id",
    keep_cols: tuple = ("source",),
    salt: str = "fim",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Fill-in-the-middle (FIM) preprocessing (Bavarian et al. 2022,
    "Efficient Training of Language Models to Fill in the Middle"):
    split each token sequence at two uniform cut points into
    (prefix, middle, suffix) and score the SPM reordering
    suffix‖prefix‖middle.  Cut points are DETERMINISTIC uniform draws —
    ``u = fmix64(hash64(salt|doc_id)) / 2^64``, the repo-wide seeded-RNG
    convention — so reruns and the SQL twin reproduce them exactly
    (the u draws are emitted for the audit sidecar).

    Everything is vectorized over the flat token buffer: one
    ``np.repeat`` parent map, one arithmetic new-position formula (SPM
    keeps prefix+middle contiguous, so new_pos = pos+|suffix| before the
    cut and pos-hi after), one exact int64 ``np.add.reduceat`` per batch
    for the per-doc position-weighted checksum.  Per-row output only —
    no shuffle; downstream aggregation is the caller's.

    Emits per doc: u1, u2, n_prefix, n_middle, n_suffix and
    ``spm_checksum`` = Σ new_pos(i)·token(i) (1-based new positions) —
    integer-exact evidence that the reordering is positionally correct.
    """
    from jesse_ray.functions.split import _key_hash

    def split(batch: pa.Table) -> pa.Table:
        toks = _combine(batch[tokens_col])
        nrows = len(batch)
        u1 = _key_hash(batch, key_col, salt + "1|").astype(np.float64) / float(2**64)
        u2 = _key_hash(batch, key_col, salt + "2|").astype(np.float64) / float(2**64)
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        s, e = off[:-1], off[1:]
        lengths = e - s
        c1 = np.floor(u1 * (lengths + 1)).astype(np.int64)
        c2 = np.floor(u2 * (lengths + 1)).astype(np.int64)
        lo = np.minimum(c1, c2)
        hi = np.maximum(c1, c2)

        values = toks.values.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        vals = values[off[0]:off[-1]]
        total = len(vals)
        parent = np.repeat(np.arange(nrows, dtype=np.int64), lengths)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        pos = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
        hi_p = hi[parent]
        n_p = lengths[parent]
        new_pos = np.where(pos >= hi_p, pos - hi_p + 1, pos + (n_p - hi_p) + 1)
        contrib = new_pos * vals
        checksum = np.zeros(nrows, dtype=np.int64)
        nz = lengths > 0
        if nz.any():
            sums = np.add.reduceat(contrib, starts[nz])
            checksum[nz] = sums

        out = {key_col: batch[key_col]}
        for c in keep_cols:
            out[c] = batch[c]
        out.update({
            "u1": pa.array(u1, type=pa.float64()),
            "u2": pa.array(u2, type=pa.float64()),
            "n_prefix": pa.array(lo, type=pa.int64()),
            "n_middle": pa.array(hi - lo, type=pa.int64()),
            "n_suffix": pa.array(lengths - hi, type=pa.int64()),
            "spm_checksum": pa.array(checksum, type=pa.int64()),
        })
        return pa.table(out)

    return ds.map_batches(split, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def loss_mask_split(
    ds: Dataset,
    *,
    sep: int,
    tokens_col: str = "tokens",
    keep_cols: tuple = ("doc_id", "source"),
    batch_size: Optional[int] = None,
) -> Dataset:
    """Instruction-tuning loss masking: everything up to and INCLUDING
    the first ``sep`` token is prompt (loss-masked); the rest is the
    completion the model trains on.  Sequences without a separator are
    fully trainable (cut = 0).

    Vectorized over the flat token buffer: one equality mask, one
    ``np.minimum.reduceat`` for the first-occurrence position per doc,
    one masked int64 reduceat for the trainable-span checksum — no
    per-row Python, no shuffle.  Emits per row: ``cut`` (1-based prompt
    length), ``masked_toks``, ``train_toks`` and ``train_checksum`` =
    Σ (orig_pos+1)·token over trainable positions — integer-exact
    evidence the mask boundary lands on the right position in every
    row."""

    def mask(batch: pa.Table) -> pa.Table:
        toks = _combine(batch[tokens_col])
        nrows = len(batch)
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        s, e = off[:-1], off[1:]
        lengths = e - s
        values = toks.values.to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        vals = values[off[0]:off[-1]]
        total = len(vals)
        parent = np.repeat(np.arange(nrows, dtype=np.int64), lengths)
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        pos = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)

        n_p = lengths[parent]
        hitpos = np.where(vals == sep, pos, n_p)
        first = lengths.copy()          # "not found" sentinel
        nz = lengths > 0
        if nz.any():
            first[nz] = np.minimum.reduceat(hitpos, starts[nz])
        cut = np.where(first < lengths, first + 1, 0)

        trainable = (pos >= cut[parent]).astype(np.int64)
        contrib = (pos + 1) * vals * trainable
        checksum = np.zeros(nrows, dtype=np.int64)
        if nz.any():
            checksum[nz] = np.add.reduceat(contrib, starts[nz])

        out = {c: batch[c] for c in keep_cols}
        out.update({
            "cut": pa.array(cut, type=pa.int64()),
            "masked_toks": pa.array(cut, type=pa.int64()),
            "train_toks": pa.array(lengths - cut, type=pa.int64()),
            "train_checksum": pa.array(checksum, type=pa.int64()),
        })
        return pa.table(out)

    return ds.map_batches(mask, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def add_fixity_checksum(
    ds: Dataset,
    *,
    tokens_col: str = "tokens",
    out_col: str = "ck",
    mod: int = 2**31 - 1,
    batch_size: Optional[int] = None,
) -> Dataset:
    """Append a per-document content checksum: Σ_i token_i · (i+1)
    (1-based position weighting, so reorderings change it) reduced
    ``mod`` a 31-bit prime (keeps downstream BIGINT sums exact in both
    the engine and the SQL twin even over 10^12 docs).

    The per-shard SUM of these checksums is a fixity manifest — the
    ingest-integrity audit a resumable 100 TB run records per input
    shard so re-reads / re-transfers can be verified without byte
    comparison (content-level, ordering-sensitive, schema-independent).

    One vectorized pass per batch over the FLAT token buffer: local
    1-based positions from offset arithmetic, one int64 multiply, one
    ``np.add.reduceat`` at row starts (empty rows guarded) — no per-row
    Python.  Per-doc sums fit int64 by construction (vocab < 2^16,
    n_tok < 2^16 ⇒ < 2^47)."""

    def add_ck(batch: pa.Table) -> pa.Table:
        col = _combine(batch[tokens_col])
        n = len(col)
        # null-list-safe lengths (null rows contribute 0 values to the
        # flat buffer and checksum 0)
        lens = pc.fill_null(pc.list_value_length(col), 0).to_numpy(
            zero_copy_only=False).astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(lens)[:-1])) if n else np.zeros(0, np.int64)
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.arange(len(flat), dtype=np.int64) - np.repeat(starts, lens) + 1
        contrib = flat * pos
        ck = np.zeros(n, dtype=np.int64)
        nz = lens > 0
        if nz.any():
            ck[nz] = np.add.reduceat(contrib, starts[nz])
        ck %= mod
        return batch.append_column(out_col, pa.array(ck, type=pa.int64()))

    return ds.map_batches(add_ck, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=batch_size)


def token_run_stats(
    ds: Dataset,
    *,
    tokens_col: str = "tokens",
    id_col: str = "doc_id",
    batch_size: Optional[int] = None,
) -> Dataset:
    """Per-sequence run-length stats over the token stream: ``n_runs``
    (count of maximal equal-value runs) and ``max_run`` (longest run) —
    the degenerate-repetition signal for tokenized corpora (a sequence
    that is one token repeated 2048 times has n_runs=1), complementing
    the text-side ``add_ngram_repetition_stats``.

    One vectorized pass per batch over the flattened Arrow list values:
    run starts are ``vals[1:] != vals[:-1]`` with list boundaries forced
    on, run lengths a ``diff`` over start indices, and the per-sequence
    reduction two ``reduceat`` calls — no per-row Python, no shuffle
    (embarrassingly parallel).  Empty/null token lists are dropped
    (un-scorable), matching the SQL twin's ``len(tokens) > 0`` filter."""

    def stats(batch: pa.Table) -> pa.Table:
        toks = _combine(batch[tokens_col])
        keep = pc.and_(pc.is_valid(toks), pc.greater(pc.list_value_length(toks), 0))
        if not pc.all(keep).as_py():
            batch = batch.filter(keep)
            toks = _combine(batch[tokens_col])
        n = len(toks)
        if n == 0:
            return pa.table({
                id_col: batch[id_col],
                "n_runs": pa.array([], type=pa.int64()),
                "max_run": pa.array([], type=pa.int64()),
            })
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        vals = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
        starts = np.empty(len(vals), dtype=bool)
        starts[0] = True
        np.not_equal(vals[1:], vals[:-1], out=starts[1:])
        starts[off[:-1]] = True  # every list's first element opens a run
        run_start = np.flatnonzero(starts)
        run_len = np.diff(np.append(run_start, len(vals)))
        n_runs = np.add.reduceat(starts.astype(np.int64), off[:-1])
        first_run = np.zeros(n, dtype=np.int64)
        np.cumsum(n_runs[:-1], out=first_run[1:])
        max_run = np.maximum.reduceat(run_len, first_run)
        return pa.table({
            id_col: batch[id_col],
            "n_runs": pa.array(n_runs, type=pa.int64()),
            "max_run": pa.array(max_run, type=pa.int64()),
        })

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
