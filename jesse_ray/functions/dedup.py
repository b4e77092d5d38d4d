"""Deduplication operators over document tables.

Exact dedup: content-hash inside ``map_batches`` (vectorized) → hash
groupby → keep-first per group.  Near-dup families (MinHash+LSH,
SimHash, n-gram Jaccard, embedding cosine) follow the standard public
recipes (Broder 1997 shingling/minhash; Charikar 2002 simhash;
Leskovec-Rajaraman-Ullman ch.3 LSH banding): per-batch VECTORIZED
signature computation (numpy over Arrow buffers — no per-document
Python loops in the hot path), explode to bucket rows, groupby bucket
for candidates, verify exact similarity on the candidates only.

Scale notes: the only all-to-all exchanges are the groupbys on hash /
bucket keys — uniform by construction, so no skew defense is needed
beyond banding + the bucket-size caps.  Candidate verification touches
candidate pairs only, never the full cross product, and every pair
stream stays a Dataset end-to-end (the driver never materializes an
unbounded pair set).
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from jesse_ray.hashutil import FNV_OFFSET as _FNV_OFFSET
from jesse_ray.hashutil import hash64_strings as _hash64_strings
from jesse_ray.hashutil import map_key_buckets
from jesse_ray.hashutil import string_buffers as _string_buffers

_MERSENNE = (1 << 61) - 1
_POLY_B = np.uint64(1099511628211)

_PAIR_SCHEMA = pa.schema(
    [pa.field("left", pa.int64()), pa.field("right", pa.int64())]
)


class DropStats:
    """Over-``bucket_cap`` skew-guard drops for one part — VERDICT r2
    finding #4: a dropped bucket must be REPORTED, never swallowed."""

    __slots__ = ("buckets", "rows")

    def __init__(self, buckets: int = 0, rows: int = 0):
        self.buckets = buckets
        self.rows = rows


@ray.remote(num_cpus=0)
class DropCounter:
    """Tiny zero-CPU actor accumulating skew-guard drops across all
    parts of a pair stage; read with ``ray.get(counter.get.remote())``
    after the pair Dataset is consumed."""

    def __init__(self):
        self.buckets = 0
        self.rows = 0

    def add(self, buckets: int, rows: int) -> None:
        self.buckets += buckets
        self.rows += rows

    def get(self) -> dict:
        return {"dropped_buckets": self.buckets, "dropped_rows": self.rows}


def _report_drops(stage: str, stats: "DropStats", drop_counter=None) -> None:
    """Surface a part's skew-guard drops: always log, and accumulate
    into the optional ``DropCounter`` actor handle."""
    if stats.buckets == 0:
        return
    logging.getLogger(__name__).warning(
        "%s: bucket_cap skew guard dropped %d bucket(s) / %d member row(s) "
        "— recall is not exhaustive for those buckets",
        stage, stats.buckets, stats.rows)
    if drop_counter is not None:
        # synchronous: guarantees the counter is visible once the pair
        # Dataset is consumed (rare path — only over-cap parts block)
        ray.get(drop_counter.add.remote(stats.buckets, stats.rows))


def _pairs_within_runs(buckets: np.ndarray, keys: np.ndarray, bucket_cap: int | None,
                       payload: np.ndarray | None = None,
                       stats: "DropStats | None" = None):
    """All within-bucket (left, right) pairs for many buckets at once.

    Sorts by (bucket, key), walks the bucket runs, and emits the upper
    triangle per run — numpy only, no per-bucket pandas.  Duplicate keys
    within a run are dropped; runs above ``bucket_cap`` emit nothing
    (skew guard) — each such run increments ``stats`` so the caller can
    surface the drop.  When ``payload`` is given, returns the pair
    payload arrays (payload[left_idx], payload[right_idx]) as well.
    """
    order = np.lexsort((keys, buckets))
    bk, ks = buckets[order], keys[order]
    pl = payload[order] if payload is not None else None
    # dedup identical (bucket, key) rows
    keep = np.concatenate([[True], (bk[1:] != bk[:-1]) | (ks[1:] != ks[:-1])])
    bk, ks = bk[keep], ks[keep]
    if pl is not None:
        pl = pl[keep]
    starts = np.flatnonzero(np.concatenate([[True], bk[1:] != bk[:-1]]))
    ends = np.concatenate([starts[1:], [len(bk)]])
    out_l, out_r, out_pl, out_pr = [], [], [], []
    for s, e in zip(starts, ends):
        m = e - s
        if m < 2:
            continue
        if bucket_cap is not None and m > bucket_cap:
            if stats is not None:
                stats.buckets += 1
                stats.rows += m
            continue
        iu = np.triu_indices(m, k=1)
        out_l.append(ks[s:e][iu[0]])
        out_r.append(ks[s:e][iu[1]])
        if pl is not None:
            out_pl.append(pl[s:e][iu[0]])
            out_pr.append(pl[s:e][iu[1]])
    if not out_l:
        empty = np.empty(0, dtype=keys.dtype)
        if payload is not None:
            pe = np.empty(0, dtype=payload.dtype)
            return empty, empty, pe, pe
        return empty, empty
    if payload is not None:
        return (np.concatenate(out_l), np.concatenate(out_r),
                np.concatenate(out_pl), np.concatenate(out_pr))
    return np.concatenate(out_l), np.concatenate(out_r)


def _dedup_pairs(cand: Dataset, extra: str | None = None, n_parts: int = 64) -> Dataset:
    """Distributed (left, right) pair dedup: shuffle on a COARSE hash of
    the pair, then one C-level ``drop_duplicates`` per part.

    Neither ``groupby(pair)`` nor ``groupby(pair).aggregate`` is usable
    here: Ray's multi-key aggregate merged 185k pair rows at ~1.2k
    rows/s (153 s measured), and per-pair map_groups pays Python per
    pair.  The coarse shuffle keys on ≤``n_parts`` values; duplicates of
    a pair always hash to the same part.  ``extra`` names a payload
    column to keep (identical across duplicates of a pair)."""
    cols = ["left", "right"] + ([extra] if extra else [])

    def dd(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=["left", "right"])[cols]

    return map_key_buckets(cand.select_columns(cols), ["left", "right"], dd, n_parts=n_parts)


# ---------------------------------------------------------------------------
# exact dedup


def add_content_hash(ds: Dataset, text_col: str = "text", out_col: str = "content_hash",
                     *, batch_size: int = 8192) -> Dataset:
    """128-bit content hash of the exact text (two independent
    vectorized 64-bit FNV passes packed into binary(16)), replacing the
    round-1 per-row md5 loop.  128 bits keeps birthday collisions
    negligible at the 10^12-document target (~3e-14) — a single 64-bit
    hash would expect ~30k collisions there, each silently merging
    distinct documents."""

    from jesse_ray.hashutil import FNV_PRIME, hash64_strings_multi

    def h(batch: pa.Table) -> pa.Table:
        col = batch[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = pc.fill_null(col, "")
        h1, h2 = hash64_strings_multi(
            col,
            [(_FNV_OFFSET, FNV_PRIME),
             (np.uint64(0x6C62272E07BB0142), np.uint64(0x9E3779B97F4A7C15))],
        )
        packed = np.empty(len(h1) * 2, dtype=np.uint64)
        packed[0::2] = h1
        packed[1::2] = h2
        vals = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(16), len(h1), [None, pa.py_buffer(packed.tobytes())]
        )
        return batch.append_column(out_col, vals)

    return ds.map_batches(h, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


def exact_duplicate_groups(ds: Dataset, text_col: str = "text") -> Dataset:
    """(content_hash, cnt) for texts appearing more than once — two-phase
    count (map-side combiner before the shuffle), same pattern as key
    uniqueness in the validation engine."""
    from ray.data.aggregate import Sum

    hashed = add_content_hash(ds.select_columns([text_col]), text_col)

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["content_hash"]).group_by("content_hash").aggregate([([], "count_all")])
        return g.rename_columns(["content_hash", "partial_cnt"])

    partials = hashed.map_batches(partial, batch_format="pyarrow")
    counts = partials.groupby("content_hash").aggregate(Sum("partial_cnt", alias_name="cnt"))
    return counts.map_batches(
        lambda t: t.filter(pc.greater(t["cnt"], 1)), batch_format="pyarrow"
    )


def dedup_exact(ds: Dataset, text_col: str = "text", key_col: str = "doc_id") -> Dataset:
    """Keep the first row (smallest key) per distinct text."""
    hashed = add_content_hash(ds, text_col)

    def first(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(key_col).head(1)

    return hashed.groupby("content_hash").map_groups(first, batch_format="pandas")


#: per-worker grow-only scratch for add_token_hash (see its docstring)
_TOKEN_HASH_SCRATCH: dict = {}


def add_token_hash(ds: Dataset, tokens_col: str = "tokens", out_col: str = "content_hash",
                   *, batch_size: int = 8192) -> Dataset:
    """128-bit content hash of an integer-list column (token payloads),
    fully vectorized: two independent positional polynomial hashes over
    the flattened values (token * B^position summed per row via
    ``np.add.reduceat``), packed into binary(16).  The sequence-corpus
    analogue of add_content_hash."""
    B1, B2 = np.uint64(1099511628211), np.uint64(0x9E3779B97F4A7C15)

    def h(batch: pa.Table) -> pa.Table:
        # PERSISTENT per-worker scratch (module-level, grow-only): fresh
        # multi-MB temporaries per batch pay this sandbox's erratic
        # first-touch page tax (~30x; measured 16s/task vs 0.13s warm
        # for identical work) — the same mitigation as the signature
        # stages.  Closure state would NOT survive across Ray tasks
        # (re-pickled per task); the module dict lives per worker
        # process.
        s = _TOKEN_HASH_SCRATCH
        col = batch[tokens_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat32 = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(col).to_numpy(zero_copy_only=False)
        n = len(col)
        nf = len(flat32)
        if s.get("cap", 0) < nf:
            cap = max(nf, 2 * s.get("cap", 1 << 16))
            s["cap"] = cap
            for k in ("v", "g", "prod"):
                s[k] = np.empty(cap, dtype=np.uint64)
            s["gi"] = np.empty(cap, dtype=np.int64)
            s["iota"] = np.arange(cap, dtype=np.int64)
        cnt = np.bincount(parent, minlength=n) if nf else np.zeros(n, dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(cnt)])[:-1]
        maxlen = int(cnt.max()) + 1 if n else 1
        if s.get("plen", 0) < maxlen:
            with np.errstate(over="ignore"):
                p1 = np.empty(maxlen, dtype=np.uint64)
                p2 = np.empty(maxlen, dtype=np.uint64)
                p1[0] = p2[0] = np.uint64(1)
                for j in range(1, maxlen):
                    p1[j] = p1[j - 1] * B1
                    p2[j] = p2[j - 1] * B2
            s.update(plen=maxlen, p1=p1, p2=p2)
        h1 = np.zeros(n, dtype=np.uint64)
        h2 = np.zeros(n, dtype=np.uint64)
        nonempty = cnt > 0
        if nf and nonempty.any():
            with np.errstate(over="ignore"):
                # +1 so a zero token still contributes per position.
                # reduceat runs over NON-EMPTY rows only: their starts are
                # strictly increasing and < len(flat), so each segment sums
                # exactly its own row (clipping starts instead would make a
                # trailing empty row steal the last element of the final
                # non-empty row).  All big intermediates land in the
                # persistent scratch via out= (no fresh pages).
                v = s["v"][:nf]
                v[...] = flat32  # sign-extending cast, same as astype(uint64)
                v += np.uint64(1)
                pos = s["gi"][:nf]
                np.take(starts, parent, out=pos)
                np.subtract(s["iota"][:nf], pos, out=pos)
                g = s["g"][:nf]
                prod = s["prod"][:nf]
                np.take(s["p1"], pos, out=g)
                np.multiply(v, g, out=prod)
                h1[nonempty] = np.add.reduceat(prod, starts[nonempty])
                np.take(s["p2"], pos, out=g)
                np.multiply(v, g, out=prod)
                h2[nonempty] = np.add.reduceat(prod, starts[nonempty])
        # fold the length in so [1,2] != [1,2,<absent>] prefix artifacts
        with np.errstate(over="ignore"):
            h1 ^= cnt.astype(np.uint64) * B1
            h2 ^= cnt.astype(np.uint64) * B2
        packed = np.empty(n * 2, dtype=np.uint64)
        packed[0::2] = h1
        packed[1::2] = h2
        vals = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(16), n, [None, pa.py_buffer(packed.tobytes())]
        )
        return batch.append_column(out_col, vals)

    return ds.map_batches(h, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


# ---------------------------------------------------------------------------
# shingling + MinHash + LSH


def _shingle_hashes(text: str, k: int = 5) -> np.ndarray:
    """Hashes of the k-char shingles of ONE text (Broder-style).  Driver/
    verify-path helper; the batch stage uses _batch_shingle_hashes."""
    b = text.encode("utf-8", "ignore")
    if len(b) < k:
        b = b + b"\x00" * (k - len(b))
    win = np.lib.stride_tricks.sliding_window_view(np.frombuffer(b, dtype=np.uint8), k)
    h = np.zeros(len(win), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            h = h * _POLY_B + win[:, j].astype(np.uint64)
    return np.unique(h)


def _batch_shingle_hashes(arr: pa.Array, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized k-byte-shingle polynomial hashes for EVERY string in an
    Arrow array at once.

    Returns ``(hashes, starts)``: a flat uint64 array of per-document
    shingle hashes and the int64 offsets of each document's slice
    (len = n_docs + 1).  One polynomial pass over the concatenated utf8
    buffer hashes all windows; windows crossing document boundaries are
    dropped by a vectorized gather.  Documents shorter than ``k`` get
    one hash of their zero-padded bytes (matching _shingle_hashes).
    """
    offsets, data = _string_buffers(arr)
    lens = np.diff(offsets)
    n = len(lens)
    counts = np.maximum(lens - k + 1, 1).astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)])
    out = np.zeros(int(starts[-1]), dtype=np.uint64)

    N = len(data)
    if N >= k:
        # hash every window of the whole buffer in one vectorized pass
        W = N - k + 1
        h = np.zeros(W, dtype=np.uint64)
        d64 = data.astype(np.uint64)
        with np.errstate(over="ignore"):
            for j in range(k):
                h = h * _POLY_B + d64[j : j + W]
        # gather the in-document windows: doc i owns h[off[i] : off[i]+cnt]
        long_mask = lens >= k
        if long_mask.any():
            cnt_long = (lens[long_mask] - k + 1).astype(np.int64)
            src0 = offsets[:-1][long_mask]
            dst0 = starts[:-1][long_mask]
            total = int(cnt_long.sum())
            rel = np.arange(total, dtype=np.int64) - np.repeat(
                np.concatenate([[0], np.cumsum(cnt_long)])[:-1], cnt_long
            )
            out[np.repeat(dst0, cnt_long) + rel] = h[np.repeat(src0, cnt_long) + rel]
    # short docs: zero-padded single hash (rare; tiny loop)
    short_idx = np.flatnonzero(lens < k)
    with np.errstate(over="ignore"):
        for i in short_idx:
            hv = np.uint64(0)
            for byte in data[offsets[i] : offsets[i + 1]]:
                hv = hv * _POLY_B + np.uint64(byte)
            out[starts[i]] = hv * _POLY_B ** np.uint64(k - lens[i])
    return out, starts


class MinHasher:
    """Batch-vectorized minhash signatures.

    Hash coefficient banks are generated once per worker in ``__init__``
    from a fixed seed, so every worker (and every run) produces
    identical signatures.  Per batch: ONE polynomial pass hashes all
    shingles of all documents, then each hash bank maps the flat
    shingle array and ``np.minimum.reduceat`` takes per-document mins —
    no per-document Python loop.
    """

    def __init__(self, num_hashes: int = 64, shingle_k: int = 5, seed: int = 1234):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_hashes, dtype=np.int64).astype(np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_hashes, dtype=np.int64).astype(np.uint64)
        self.k = shingle_k
        self.num_hashes = num_hashes

    def _grams(self, arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
        """Gram-hash source — overridden by TokenMinHasher to hash token
        k-grams instead of byte shingles; the minhash math is shared."""
        return _batch_shingle_hashes(arr, self.k)

    def signatures(self, arr: pa.Array) -> np.ndarray:
        """(num_hashes, n_docs) uint64 signature matrix."""
        flat, starts = self._grams(arr)
        n = len(starts) - 1
        sig = np.empty((self.num_hashes, n), dtype=np.uint64)
        chunk = 16  # bound the (chunk × n_shingles) temp at ~40 MB/256k shingles
        M = np.uint64(_MERSENNE)
        s61 = np.uint64(61)
        # persistent scratch, grown monotonically and reused across
        # batches (the instance is cached per worker): first-touch page
        # faults on fresh large allocations are ~0.5 ms/page in this
        # sandbox, so re-allocating the 38 MB temps per batch cost more
        # than the arithmetic
        W = len(flat)
        if getattr(self, "_vbuf", None) is None or self._vbuf.shape[1] < W:
            self._vbuf = np.empty((chunk, W), dtype=np.uint64)
            self._tbuf = np.empty((chunk, W), dtype=np.uint64)
        v_all, t_all = self._vbuf[:, :W], self._tbuf[:, :W]
        with np.errstate(over="ignore"):
            for c0 in range(0, self.num_hashes, chunk):
                a = self.a[c0 : c0 + chunk][:, None]
                b = self.b[c0 : c0 + chunk][:, None]
                k = min(chunk, self.num_hashes - c0)
                v, t = v_all[:k], t_all[:k]
                np.multiply(flat[None, :], a, out=v)
                v += b
                # v % M via the Mersenne identity 2^61 ≡ 1 (mod 2^61-1):
                # z = (v & M) + (v >> 61) < M + 8, one conditional
                # subtract finishes.  Bit-identical to v % M, but avoids
                # the integer-division unit, which this sandbox executes
                # ~30x slower on cold pages (measured 8 s vs 0.3 s for a
                # 5M-element uint64 %).
                np.right_shift(v, s61, out=t)
                np.bitwise_and(v, M, out=v)
                v += t
                np.subtract(v, M, out=v, where=v >= M)
                sig[c0 : c0 + k] = np.minimum.reduceat(v, starts[:-1], axis=1)
        return sig

    def signature(self, text: str) -> np.ndarray:
        return self.signatures(pa.array([text or ""], type=pa.string()))[:, 0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        sig = self.signatures(pc.fill_null(col, ""))  # (H, n)
        lists = pa.FixedSizeListArray.from_arrays(
            pa.array(sig.T.reshape(-1).astype(np.int64)), self.num_hashes
        )
        return batch.append_column("minhash", lists.cast(pa.list_(pa.int64())))


def minhash_signatures(ds: Dataset, *, num_hashes: int = 64, shingle_k: int = 5,
                       batch_size: Optional[int] = None, **_ignored) -> Dataset:
    return ds.map_batches(
        MinHasher(num_hashes=num_hashes, shingle_k=shingle_k).__call__,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )


def lsh_candidate_pairs(ds: Dataset, *, num_hashes: int = 64, bands: int = 16,
                        key_col: str = "doc_id", bucket_cap: int | None = None,
                        drop_counter=None, **kw) -> Dataset:
    """MinHash-LSH banding: signature → (band bucket) rows → groupby
    bucket → candidate pairs within each bucket → distributed pair dedup.

    rows_per_band = num_hashes // bands controls the similarity knee
    (s ≈ (1/bands)^(1/rows_per_band), standard LSH S-curve).
    ``bucket_cap`` skips degenerate buckets larger than the cap (emits
    no pairs for them) — the skew guard for adversarial corpora where
    one band value collects a huge fraction of documents.
    """
    if bands < 1 or num_hashes % bands:
        raise ValueError(f"num_hashes ({num_hashes}) must be a multiple of bands ({bands})")
    sigs = minhash_signatures(ds.select_columns([key_col, "text"]), num_hashes=num_hashes, **kw)
    return _lsh_pairs_from_sigs(sigs, num_hashes=num_hashes, bands=bands,
                                key_col=key_col, bucket_cap=bucket_cap,
                                drop_counter=drop_counter)


def _lsh_pairs_from_sigs(sigs: Dataset, *, num_hashes: int, bands: int,
                         key_col: str, bucket_cap: int | None,
                         drop_counter=None) -> Dataset:
    """Shared LSH banding → bucket shuffle → within-bucket pairs →
    distributed pair dedup, over any Dataset carrying a ``minhash``
    signature column (text shingles or token grams)."""
    rpb = num_hashes // bands

    def explode(batch: pa.Table) -> pa.Table:
        col = batch["minhash"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        sig = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(col)
        S = sig.reshape(n, num_hashes)
        # polynomial band hash, vectorized over (n_docs, bands)
        bh = np.zeros((n, bands), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for r in range(rpb):
                for b in range(bands):
                    bh[:, b] = bh[:, b] * _POLY_B + S[:, b * rpb + r]
            # fold the band id in so one column keys the shuffle
            bh ^= (np.arange(bands, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))[None, :]
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                key_col: pa.array(np.repeat(keys, bands)),
                "bucket": pa.array(bh.reshape(-1), type=pa.uint64()),
            }
        )

    exploded = sigs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    # COARSE hash partitions, not one group per bucket: Ray's map_groups
    # pays Python+pandas overhead PER GROUP, and bucket counts grow with
    # the corpus (measured 138 s for 5k docs with per-bucket groups).
    # Each of the ~n_parts coarse groups handles MANY buckets with one
    # vectorized sort + run scan.
    def pairs_many(g: pd.DataFrame) -> pd.DataFrame:
        ks = g[key_col].to_numpy()
        bk = g["bucket"].to_numpy(dtype=np.uint64)
        stats = DropStats()
        out_l, out_r = _pairs_within_runs(bk, ks, bucket_cap, stats=stats)
        _report_drops("lsh_candidate_pairs", stats, drop_counter)
        return pd.DataFrame({"left": out_l, "right": out_r})

    cand = map_key_buckets(exploded, ["bucket"], pairs_many)
    return _dedup_pairs(cand)


def _shingle_blobs(ds: Dataset, key_col: str, shingle_k: int,
                   keys_filter: pa.Array | None = None) -> Dataset:
    """(key, blob) rows: each document's UNIQUE-sorted shingle hashes as
    one binary blob.  Computed distributed and vectorized (one
    polynomial pass per batch via _batch_shingle_hashes, segment-sorted
    dedup); ``keys_filter`` (a small broadcast value set of candidate
    keys — keys, never texts) prunes the stream before shingling."""

    def build(batch: pa.Table) -> pa.Table:
        if keys_filter is not None:
            batch = batch.filter(pc.is_in(batch[key_col], value_set=keys_filter))
        txt = batch["text"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(txt, "")
        h, starts = _batch_shingle_hashes(txt, shingle_k)
        n = batch.num_rows
        # unique-per-document without a per-doc loop: sort (doc, hash)
        counts = np.diff(starts)
        seg = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((h, seg))
        hs, ss = h[order], seg[order]
        keep = np.concatenate([[True], (hs[1:] != hs[:-1]) | (ss[1:] != ss[:-1])]) if len(hs) else np.empty(0, bool)
        hs, ss = hs[keep], ss[keep]
        ucounts = np.bincount(ss, minlength=n)
        ustarts = np.concatenate([[0], np.cumsum(ucounts)])
        blobs = [hs[ustarts[i]:ustarts[i + 1]].tobytes() for i in range(n)]
        return pa.table(
            {
                "key": batch[key_col],
                "blob": pa.array(blobs, type=pa.large_binary()),
            }
        )

    return ds.select_columns([key_col, "text"]).map_batches(
        build, batch_format="pyarrow", zero_copy_batch=True
    )


def _pair_jaccard_from_blobs(left_blob, right_blob, threshold: float,
                             metric: str = "jaccard"):
    """(keep mask, score) for one batch of blob pairs — C-level
    intersect1d on precomputed unique-sorted arrays.  ``metric`` is
    "jaccard" (|∩|/|∪|) or "overlap" (the overlap coefficient
    |∩|/min(|A|,|B|) — the asymmetric-containment detector)."""
    n = len(left_blob)
    jac = np.zeros(n, dtype=np.float64)
    inters = np.zeros(n, dtype=np.int64)
    unions = np.zeros(n, dtype=np.int64)
    for i in range(n):
        lb, rb = left_blob[i], right_blob[i]
        if lb is None or rb is None:
            continue
        s1 = np.frombuffer(lb, dtype=np.uint64)
        s2 = np.frombuffer(rb, dtype=np.uint64)
        # blobs are sorted-unique by construction: probe the smaller
        # into the larger with searchsorted — O(m log n), no re-sort
        # (intersect1d would concat+argsort both arrays per pair)
        if len(s1) > len(s2):
            s1, s2 = s2, s1
        if len(s1) == 0 or len(s2) == 0:
            inter = 0
        else:
            idx = np.searchsorted(s2, s1)
            np.minimum(idx, len(s2) - 1, out=idx)
            inter = int(np.count_nonzero(s2[idx] == s1))
        inters[i] = inter
        unions[i] = len(s1) + len(s2) - inter
        if metric == "overlap":
            jac[i] = inter / max(min(len(s1), len(s2)), 1)
        else:
            jac[i] = inter / max(len(s1) + len(s2) - inter, 1)
    return jac >= threshold, jac, inters, unions


class _BlobVerifier:
    """Broadcast-mode pair verification: key→shingle-blob dict rides
    plasma once (candidates are rare by assumption); the per-pair work
    is one C-level sorted intersect on PREcomputed blobs (shingling cost
    was paid once, distributed, in _shingle_blobs)."""

    def __init__(self, blobs_ref, threshold: float, metric: str = "jaccard",
                 emit_counts: bool = False):
        self._blobs_ref = blobs_ref
        self.threshold = threshold
        self.metric = metric
        self.emit_counts = emit_counts
        self._blobs = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._blobs is None:
            self._blobs = ray.get(self._blobs_ref) if isinstance(self._blobs_ref, ray.ObjectRef) else self._blobs_ref
        lk = batch["left"].to_pylist()
        rk = batch["right"].to_pylist()
        lb = [self._blobs.get(k) for k in lk]
        rb = [self._blobs.get(k) for k in rk]
        keep, jac, inters, unions = _pair_jaccard_from_blobs(
            lb, rb, self.threshold, self.metric)
        out = batch.append_column("jaccard", pa.array(jac, type=pa.float64()))
        if self.emit_counts:
            # exact integer (|∩|, |∪|) — the tie-proof truth columns for
            # oracle comparison (a rounded float jaccard hits cross-engine
            # half-even-vs-half-away skew on dyadic rationals)
            out = out.append_column("inter", pa.array(inters)) \
                     .append_column("union_sz", pa.array(unions))
        return out.filter(pa.array(keep))


def verify_jaccard_pairs(ds: Dataset, pairs: Dataset, *, threshold: float = 0.8,
                         shingle_k: int = 5, key_col: str = "doc_id",
                         mode: str = "broadcast", n_parts: int = 64,
                         metric: str = "jaccard",
                         blob_ds: "Dataset | None" = None,
                         emit_counts: bool = False) -> Dataset:
    """Exact shingle-Jaccard verification of LSH candidate pairs.

    ``mode="broadcast"`` (default): the driver collects only the
    candidate KEY SET; shingle sets are computed distributed/vectorized
    and broadcast as a key→blob dict (right when candidates are rare —
    the usual LSH regime).  ``mode="shuffle"``: nothing is materialized
    on the driver; shingle blobs meet their pairs through two coarse
    hash-partition cogroups (scale path for adversarial corpora where
    even the candidate set is huge).  ``blob_ds`` overrides the default
    text-shingle blobs with a caller-supplied (key, blob) Dataset —
    the hook the token-set similarity join uses (broadcast mode only)."""
    if mode == "shuffle":
        return _verify_jaccard_shuffle(ds, pairs, threshold=threshold,
                                       shingle_k=shingle_k, key_col=key_col,
                                       n_parts=n_parts, metric=metric)
    pairs = pairs.materialize()
    # pair rows are tiny (16 B) — a large candidate set can land in ONE
    # block (under target_max_block_size), serializing the verify map
    # onto a single task; split so every core verifies
    n_pairs = pairs.count()
    if n_pairs > 65536 and pairs.num_blocks() < 16:
        pairs = pairs.repartition(64).materialize()
    key_set: set = set()
    for b in pairs.iter_batches(batch_format="pyarrow"):
        key_set.update(b["left"].to_pylist())
        key_set.update(b["right"].to_pylist())
    if not key_set:
        return pairs.map_batches(
            lambda t: t.append_column("jaccard", pa.array([0.0] * t.num_rows, type=pa.float64())),
            batch_format="pyarrow",
        )
    need = pa.array(sorted(key_set))
    if blob_ds is not None:
        src = blob_ds.map_batches(
            lambda t, _n=need: t.filter(pc.is_in(t["key"], value_set=_n)),
            batch_format="pyarrow", zero_copy_batch=True)
    else:
        src = _shingle_blobs(ds, key_col, shingle_k, keys_filter=need)
    blobs: dict = {}
    for b in src.iter_batches(batch_format="pyarrow"):
        for k, blob in zip(b["key"].to_pylist(), b["blob"].to_pylist()):
            blobs[k] = blob
    blobs_ref = ray.put(blobs) if ray.is_initialized() else blobs
    verifier = _BlobVerifier(blobs_ref, threshold, metric, emit_counts=emit_counts)
    return pairs.map_batches(verifier.__call__, batch_format="pyarrow", zero_copy_batch=True)


def _verify_jaccard_shuffle(ds: Dataset, pairs: Dataset, *, threshold: float,
                            shingle_k: int, key_col: str, n_parts: int = 64,
                            metric: str = "jaccard") -> Dataset:
    """Shuffle-mode verify: cogroup-via-union.  Round 1 partitions pair
    rows by hash(left) together with shingle rows by hash(key) and
    attaches the LEFT blob per part; round 2 repeats on right.  Driver
    never sees texts, blobs or pairs; every stage is a bounded
    (≤ n_parts) coarse shuffle, robust to skew because parts hold MANY
    keys each."""
    blobs = _shingle_blobs(ds, key_col, shingle_k)

    def _attach(pair_ds: Dataset, side: str, out_col: str) -> Dataset:
        """Union pair rows (kind=1, keyed by `side`) with blob rows
        (kind=0) on one ``key`` column, then per key bucket build the
        key→blob lookup and annotate the pair rows."""

        def tag_blob(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "kind": pa.array(np.zeros(batch.num_rows, dtype=np.int8)),
                    "key": batch["key"].cast(pa.int64()),
                    "blob": batch["blob"],
                }
            )

        def tag_pair(batch: pa.Table) -> pa.Table:
            cols = {
                "kind": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
                "key": batch[side].cast(pa.int64()),
                "blob": pa.nulls(batch.num_rows, type=pa.large_binary()),
                "left": batch["left"].cast(pa.int64()),
                "right": batch["right"].cast(pa.int64()),
            }
            if "blob_left" in batch.column_names:
                cols["blob_left"] = batch["blob_left"]
            return pa.table(cols)

        def pad_blob(batch: pa.Table) -> pa.Table:
            # align blob rows to the pair schema (null pair columns)
            cols = {name: batch[name] for name in batch.column_names}
            cols["left"] = pa.nulls(batch.num_rows, type=pa.int64())
            cols["right"] = pa.nulls(batch.num_rows, type=pa.int64())
            if with_prev:
                cols["blob_left"] = pa.nulls(batch.num_rows, type=pa.large_binary())
            return pa.table(cols)

        with_prev = "blob_left" in pair_ds.schema().names
        tagged_pairs = pair_ds.map_batches(tag_pair, batch_format="pyarrow", zero_copy_batch=True)
        tagged_blobs = blobs.map_batches(tag_blob, batch_format="pyarrow", zero_copy_batch=True) \
                            .map_batches(pad_blob, batch_format="pyarrow", zero_copy_batch=True)
        both = tagged_blobs.union(tagged_pairs)

        def cogroup(g: pd.DataFrame) -> pd.DataFrame:
            is_blob = g["kind"].to_numpy() == 0
            lut = dict(zip(g.loc[is_blob, "key"], g.loc[is_blob, "blob"]))
            p = g.loc[~is_blob].copy()
            p[out_col] = p["key"].map(lambda k: lut.get(k))
            keep = ["left", "right", out_col] + (["blob_left"] if with_prev else [])
            return p[keep]

        return map_key_buckets(both, ["key"], cogroup, n_parts=n_parts)

    step1 = _attach(pairs, "left", "blob_left")
    step2 = _attach(step1, "right", "blob_right")

    def finish(batch: pa.Table) -> pa.Table:
        lb = batch["blob_left"].to_pylist()
        rb = batch["blob_right"].to_pylist()
        keep, jac, _, _ = _pair_jaccard_from_blobs(lb, rb, threshold, metric)
        out = pa.table(
            {
                "left": batch["left"],
                "right": batch["right"],
                "jaccard": pa.array(jac, type=pa.float64()),
            }
        )
        return out.filter(pa.array(keep))

    return step2.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# SimHash


class SimHasher:
    """Charikar simhash over word features: 64-bit signature; documents
    within ``max_hamming`` bits are near-dup candidates.

    Vectorized per batch: Arrow lowercase + regex split → flat word
    array + parent indices → FNV word hashes → per-(doc, word) dedup →
    ±1 bit votes summed per document with ``np.add.reduceat``.  Note the
    word splitter is RE2 ``\\W+`` (ASCII word classes), vs Python
    ``re \\w+`` (unicode) — identical on ASCII corpora.
    """

    def signatures(self, arr: pa.Array) -> np.ndarray:
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        n = len(arr)
        low = pc.utf8_lower(pc.fill_null(arr, ""))
        words_list = pc.split_pattern_regex(low, r"\W+")
        flat = pc.list_flatten(words_list)
        parent = pc.list_parent_indices(words_list).to_numpy(zero_copy_only=False)
        nonempty = pc.greater(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
        if len(parent) == 0 or not nonempty.any():
            return np.zeros(n, dtype=np.uint64)
        flat = flat.filter(pa.array(nonempty))
        parent = parent[nonempty].astype(np.uint64)
        h = _hash64_strings(flat)
        # unique (doc, word-hash) — each distinct word votes once per doc
        dw = np.unique(np.stack([parent, h], axis=1), axis=0)
        parent_u, h_u = dw[:, 0].astype(np.int64), dw[:, 1]
        bits = ((h_u[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
        votes = 2 * bits - 1  # (n_words, 64)
        doc_ids, starts = np.unique(parent_u, return_index=True)
        acc = np.add.reduceat(votes, starts, axis=0)  # (n_present_docs, 64)
        sig_present = ((acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        sig = np.zeros(n, dtype=np.uint64)
        sig[doc_ids] = sig_present
        return sig

    def signature(self, text: str) -> np.uint64:
        return self.signatures(pa.array([text or ""], type=pa.string()))[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch["text"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return batch.append_column("simhash", pa.array(self.signatures(col), type=pa.uint64()))


def simhash_signatures(ds: Dataset, *, batch_size: Optional[int] = None, **_ignored) -> Dataset:
    return ds.map_batches(
        SimHasher().__call__, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )


_POPCNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    return _POPCNT_TABLE[x.view(np.uint8).reshape(len(x), 8)].sum(axis=1).astype(np.int64)


def simhash_near_dups(ds: Dataset, *, max_hamming: int = 3, key_col: str = "doc_id",
                      blocks: int = 6, bucket_cap: int | None = None,
                      drop_counter=None, **kw) -> Dataset:
    """Near-dup pairs by simhash hamming distance, candidates by the
    generalized block-combination trick (Manku et al., WWW 2007): split
    the 64-bit signature into ``blocks`` chunks; a pair within
    ``max_hamming`` (< blocks) bits differs in at most ``max_hamming``
    chunks, so it agrees EXACTLY on at least ``blocks - max_hamming``
    chunks — in particular on one specific (blocks - max_hamming)-sized
    combination.  Emit one bucket row per combination (key = mix of the
    selected chunk values + combination id), groupby, verify hamming
    inside buckets, distributed pair dedup.  Recall is exactly 1
    (pigeonhole, not probabilistic) for ANY blocks > max_hamming, so the
    output pair set is invariant to ``blocks`` — only candidate density
    changes.  Returns a Dataset of (left, right, hamming).

    DENSITY: each table keys on (blocks - max_hamming) chunks ≈
    64·(1 - max_hamming/blocks) signature bits.  blocks=4/h=3 is the
    classic 1-chunk scheme (16-bit keys) whose within-bucket load blew
    up ~quadratic on clustered corpora (measured sf1: 50k word-salad
    docs → 21× the per-doc cost of 5k); the default blocks=6/h=3 keys
    on 32 signature bits across C(6,3)=20 tables — 5× the shuffle rows
    for ~2^16× the key space, which keeps bucket runs tiny even on
    low-diversity text.  ``bucket_cap`` remains the skew guard: runs
    above the cap emit nothing and increment ``drop_counter`` so the
    loss is visible, not silent.
    """
    if max_hamming >= blocks:
        raise ValueError(
            f"pigeonhole completeness needs max_hamming < blocks, got {max_hamming} >= {blocks}"
        )
    from itertools import combinations

    from jesse_ray.hashutil import fmix64

    sigs = simhash_signatures(ds.select_columns([key_col, "text"]), **kw)
    # uneven split when 64 % blocks != 0: first (64 % blocks) chunks get
    # the extra bit so every signature bit lands in exactly one chunk
    base_w = 64 // blocks
    widths = [base_w + (1 if b < 64 % blocks else 0) for b in range(blocks)]
    offsets = np.cumsum([0] + widths[:-1])
    combos = list(combinations(range(blocks), blocks - max_hamming))

    def explode(batch: pa.Table) -> pa.Table:
        s = batch["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        n = len(s)
        chunks = np.empty((blocks, n), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for b in range(blocks):
                chunks[b] = (s >> np.uint64(offsets[b])) & np.uint64((1 << widths[b]) - 1)
            buckets = np.empty((len(combos), n), dtype=np.uint64)
            for ci, combo in enumerate(combos):
                acc = np.full(n, np.uint64(ci) * np.uint64(0x9E3779B97F4A7C15))
                for b in combo:
                    acc = fmix64(acc ^ chunks[b])
                buckets[ci] = acc
        return pa.table(
            {
                key_col: pa.array(np.tile(keys, len(combos))),
                "bucket": pa.array(buckets.reshape(-1), type=pa.uint64()),
                "sig": pa.array(np.tile(s, len(combos)), type=pa.uint64()),
            }
        )

    def pairs_many(g: pd.DataFrame) -> pd.DataFrame:
        keys = g[key_col].to_numpy()
        bk = g["bucket"].to_numpy(dtype=np.uint64)
        s = g["sig"].to_numpy(dtype=np.uint64)
        stats = DropStats()
        l, r, sl, sr = _pairs_within_runs(bk, keys, bucket_cap, payload=s,
                                          stats=stats)
        _report_drops("simhash_near_dups", stats, drop_counter)
        if len(l) == 0:
            return pd.DataFrame({"left": pd.Series(l), "right": pd.Series(r),
                                 "hamming": pd.Series([], dtype=np.int64)})
        ham = _popcount64(np.bitwise_xor(sl, sr))
        hit = ham <= max_hamming
        return pd.DataFrame({"left": l[hit], "right": r[hit], "hamming": ham[hit]})

    exploded = sigs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    cand = map_key_buckets(exploded, ["bucket"], pairs_many)
    return _dedup_pairs(cand, extra="hamming")


# ---------------------------------------------------------------------------
# n-gram Jaccard (LSH-pruned candidates + exact verify)


def ngram_jaccard_dups(ds: Dataset, *, threshold: float = 0.5, shingle_k: int = 5,
                       key_col: str = "doc_id", num_hashes: int = 64, bands: int = 32,
                       emit_counts: bool = False, **kw) -> Dataset:
    """Near-dup pairs by exact n-gram Jaccard, LSH-pruned (lower banding
    threshold so the verify step sees looser candidates).
    ``emit_counts=True`` adds the exact integer (inter, union_sz) truth
    columns (see _BlobVerifier)."""
    cand = lsh_candidate_pairs(ds, num_hashes=num_hashes, bands=bands, key_col=key_col, **kw)
    return verify_jaccard_pairs(ds, cand, threshold=threshold, shingle_k=shingle_k,
                                key_col=key_col, emit_counts=emit_counts)


# ---------------------------------------------------------------------------
# embedding-cosine near-dup (banded multi-table hyperplane LSH)


def embedding_near_dups(ds: Dataset, *, threshold: float = 0.95, key_col: str = "vec_id",
                        vec_col: str = "embedding", n_tables: int = 16, n_bits: int = 12,
                        seed: int = 7, bucket_cap: int = 4096,
                        batch_size: Optional[int] = None, drop_counter=None) -> Dataset:
    """Near-duplicate pairs by embedding cosine via BANDED MULTI-TABLE
    random-hyperplane LSH (Charikar 2002):

    - ``n_tables`` independent tables of ``n_bits`` hyperplane sign bits
      each → up to ``n_tables × 2^n_bits`` buckets; recall for a pair at
      cosine θ is 1-(1-p^n_bits)^n_tables with p = 1 - arccos(θ)/π, so
      tables trade shuffle volume for recall without any O(n²) stage.
    - Stage 1 (map_batches, one matmul per batch against the fixed plane
      tensor): emit (bucket, key, vec) rows — the shuffle ships each
      vector n_tables times; that multiplicative cost is the standard
      LSH trade and bounds all-to-all volume at n_tables × corpus.
    - Stage 2: per-bucket dense cosine verify (``groupby(bucket)``,
      vectorized), with ``bucket_cap`` as the skew guard: a degenerate
      bucket larger than the cap emits no pairs (at 2^n_bits buckets per
      table a cap hit means the planes were fed near-constant vectors).
    - Stage 3: distributed pair dedup across tables
      (``groupby(left,right)``) — the driver never sees the pair stream.

    Defaults (16×12 → 65k buckets/table) target the high-threshold
    regime (≥0.9).  Tests at lower thresholds should widen recall with
    fewer bits, e.g. ``n_bits=2, n_tables=16`` for θ≥0.5.
    Returns a Dataset of (left, right, cosine).
    """

    def assign(batch: pa.Table, _state={}) -> pa.Table:
        col = batch[vec_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.float64)
        n = len(col)
        mat = flat.reshape(n, -1)
        if "planes" not in _state:
            rng = np.random.default_rng(seed)
            _state["planes"] = rng.normal(size=(mat.shape[1], n_tables * n_bits))
        proj = mat @ _state["planes"] > 0  # (n, tables*bits)
        codes = proj.reshape(n, n_tables, n_bits)
        weights = (1 << np.arange(n_bits, dtype=np.int64))[None, None, :]
        code = (codes * weights).sum(axis=2)  # (n, tables)
        bucket = code + (np.arange(n_tables, dtype=np.int64) << n_bits)[None, :]
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        dim = mat.shape[1]
        vecs = pa.ListArray.from_arrays(
            pa.array(np.arange(n_tables * n + 1, dtype=np.int64) * dim),
            pa.array(np.repeat(mat, n_tables, axis=0).reshape(-1).astype(np.float32)),
        )
        return pa.table(
            {
                "bucket": pa.array(bucket.reshape(-1), type=pa.int64()),
                key_col: pa.array(np.repeat(keys, n_tables)),
                "vec": vecs,
            }
        )

    def verify_many(g: pd.DataFrame) -> pd.DataFrame:
        # one coarse group = many complete buckets: sort by (bucket, key),
        # dedup, dense-cosine verify per bucket run (matmul per run)
        keys = g[key_col].to_numpy()
        bk = g["bucket"].to_numpy(dtype=np.int64)
        order = np.lexsort((keys, bk))
        bk, keys = bk[order], keys[order]
        vecs = g["vec"].to_numpy()[order]
        keep = np.concatenate([[True], (bk[1:] != bk[:-1]) | (keys[1:] != keys[:-1])])
        bk, keys, vecs = bk[keep], keys[keep], vecs[keep]
        starts = np.flatnonzero(np.concatenate([[True], bk[1:] != bk[:-1]]))
        ends = np.concatenate([starts[1:], [len(bk)]])
        out_l, out_r, out_c = [], [], []
        stats = DropStats()
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            if m > bucket_cap:
                stats.buckets += 1
                stats.rows += m
                continue
            mat = np.stack([np.asarray(v, dtype=np.float64) for v in vecs[s:e]])
            normed = mat / np.clip(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12, None)
            sim = normed @ normed.T
            iu = np.triu_indices(m, k=1)
            hit = sim[iu] >= threshold
            out_l.append(keys[s:e][iu[0][hit]])
            out_r.append(keys[s:e][iu[1][hit]])
            out_c.append(sim[iu][hit])
        _report_drops("embedding_near_dups", stats, drop_counter)
        if not out_l:
            return pd.DataFrame({"left": pd.Series([], dtype=keys.dtype),
                                 "right": pd.Series([], dtype=keys.dtype),
                                 "cosine": pd.Series([], dtype=np.float64)})
        return pd.DataFrame(
            {"left": np.concatenate(out_l), "right": np.concatenate(out_r),
             "cosine": np.concatenate(out_c)}
        )

    assigned = ds.select_columns([key_col, vec_col]).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )
    cand = map_key_buckets(assigned, ["bucket"], verify_many)
    return _dedup_pairs(cand, extra="cosine")


# ---------------------------------------------------------------------------
# line-level exact dedup (RefinedWeb / Falcon-style: drop lines that are
# repeated across many documents — boilerplate headers, nav bars, cookie
# banners).  Penedo et al. 2023 (RefinedWeb) §4.2; same two-phase
# count-then-rewrite shape as the engine's duplicate_keys.


def repeated_lines(
    ds: Dataset,
    *,
    text_col: str = "text",
    doc_col: str = "doc_id",
    min_chars: int = 8,
    min_docs: int = 2,
    n_parts: int = 64,
    batch_size: Optional[int] = None,
    sep: str = "\n",
) -> pa.Table:
    """Lines (``sep``-separated, ``\\n`` by default) of at least
    ``min_chars`` characters that occur in at least ``min_docs``
    DISTINCT documents.

    Two-phase exact count: per-batch distinct (doc, line) via Arrow
    ``group_by`` (exact globally — each document's row lives in exactly
    one batch), partial counts per line, then a coarse hash-partition
    shuffle (≤ ``n_parts`` keys, never a groupby on the raw line) and a
    vectorized per-part merge.  Returns a (line, n_docs) table — the
    repeated-line set is assumed SMALL relative to the corpus
    (boilerplate, not content); at 100 TB this table is what you'd feed
    a bloom/exact broadcast filter, and it is the only thing the driver
    ever materializes."""

    def partial(batch: pa.Table) -> pa.Table:
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        lines = pc.split_pattern(pc.fill_null(text, ""), sep)
        flat = pc.list_flatten(lines)
        parent = pc.list_parent_indices(lines)
        cand = pc.greater_equal(pc.utf8_length(flat), min_chars)
        doc = batch[doc_col]
        if isinstance(doc, pa.ChunkedArray):
            doc = doc.combine_chunks()
        pairs = pa.table({"doc": doc.take(parent), "line": flat}).filter(cand)
        distinct = pairs.group_by(["line", "doc"]).aggregate([])
        g = distinct.select(["line"]).group_by("line").aggregate([([], "count_all")])
        return g.rename_columns(["line", "__pc"])

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("line", sort=False)["__pc"].sum()
        agg = agg[agg >= min_docs]
        return pd.DataFrame({"line": agg.index.to_numpy(), "n_docs": agg.to_numpy().astype(np.int64)})

    out = map_key_buckets(partials, ["line"], merge, n_parts=n_parts)
    batches = list(out.iter_batches(batch_format="pyarrow"))
    if not batches:
        return pa.table({"line": pa.array([], type=pa.string()), "n_docs": pa.array([], type=pa.int64())})
    return pa.concat_tables([pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b for b in batches])


def dedup_lines(
    ds: Dataset,
    *,
    text_col: str = "text",
    doc_col: str = "doc_id",
    min_chars: int = 8,
    min_docs: int = 2,
    n_parts: int = 64,
    batch_size: Optional[int] = None,
    sep: str = "\n",
    repeated: pa.Table | None = None,
) -> Dataset:
    """Rewrite every document with its cross-document repeated lines
    removed (keeping original line order); appends ``text_dedup`` and
    ``n_removed``.  Lines shorter than ``min_chars`` are never removed.

    The repeated-line set is broadcast once (``ray.put``) and the
    rewrite is a single vectorized pass: split → membership mask
    (``pc.is_in``) → list rebuild from kept offsets → ``binary_join``.
    No shuffle in the rewrite; the only exchange is phase 1's coarse
    count."""
    if repeated is None:
        repeated = repeated_lines(
            ds, text_col=text_col, doc_col=doc_col, min_chars=min_chars,
            min_docs=min_docs, n_parts=n_parts, batch_size=batch_size, sep=sep,
        )
    flagged = repeated["line"].combine_chunks() if isinstance(repeated["line"], pa.ChunkedArray) else repeated["line"]
    flag_ref = ray.put(flagged) if ray.is_initialized() else flagged

    def rewrite(batch: pa.Table) -> pa.Table:
        value_set = ray.get(flag_ref) if isinstance(flag_ref, ray.ObjectRef) else flag_ref
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        lines = pc.split_pattern(pc.fill_null(text, ""), sep)
        flat = pc.list_flatten(lines)
        parent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
        removed = pc.and_(
            pc.greater_equal(pc.utf8_length(flat), min_chars),
            pc.is_in(flat, value_set=value_set),
        ).to_numpy(zero_copy_only=False)
        n = batch.num_rows
        kept_counts = np.bincount(parent[~removed], minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(kept_counts, out=offsets[1:])
        kept_lines = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), flat.filter(pa.array(~removed))
        )
        joined = pc.fill_null(pc.binary_join(kept_lines, sep), "")
        n_removed = np.bincount(parent[removed], minlength=n).astype(np.int64)
        return batch.append_column("text_dedup", joined).append_column(
            "n_removed", pa.array(n_removed, type=pa.int64())
        )

    return ds.map_batches(rewrite, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


# ---------------------------------------------------------------------------
# exact substring-match dedup (ExactSubstr, Lee et al. 2022
# "Deduplicating Training Data Makes Language Models Better": two
# documents are duplicates if they share any length->=k verbatim span)


_GRAM_MULT2 = np.uint64(0xC2B2AE3D27D4EB4F)  # xxhash64 prime2 (odd)
_FNV_OFFSET2 = np.uint64(0x84222325CBF29CE4)
_FNV_PRIME2 = np.uint64(0x00000100000001B5)


def _gram_hashes128(
    txt: pa.Array, k: int, *, return_flat: bool = False
):
    """128-bit rolling k-word-gram hashes for a batch of texts.

    Tokenization is the corpus/SQL convention (split on single spaces,
    decontam._word_lists); each word is hashed with TWO independent
    FNV walks sharing one pass over the utf8 buffer, and each window
    combines its k word hashes with two independent shift-add
    accumulators (wraparound mod 2^64 — no division).  Equal 128-bit
    keys are treated as equal spans, the same contract as the 128-bit
    content hash in :func:`add_content_hash` (collision odds ~n^2/2^128).

    Returns (g1, g2, parent_row_index) for every in-document window;
    with ``return_flat=True`` additionally returns (flat_start_idx,
    flat_words, word_parent) — the window's start offset in the
    batch-flattened word array, the flattened words themselves, and
    every word's row index (for span-rewrite stages).
    """
    from jesse_ray.functions.decontam import _GRAM_MULT, _word_lists

    from jesse_ray.hashutil import FNV_PRIME, hash64_strings_multi

    flat, parent = _word_lists(txt)
    wh1, wh2 = hash64_strings_multi(
        flat, [(_FNV_OFFSET, FNV_PRIME), (_FNV_OFFSET2, _FNV_PRIME2)]
    )
    m = len(wh1) - k + 1
    if m <= 0:
        e64 = np.empty(0, np.uint64)
        empty = (e64, e64, np.empty(0, np.int64))
        if return_flat:
            return (*empty, np.empty(0, np.int64), flat, parent)
        return empty
    acc1 = np.zeros(m, dtype=np.uint64)
    acc2 = np.zeros(m, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(k):
            acc1 = acc1 * _GRAM_MULT + wh1[j : m + j]
            acc2 = acc2 * _GRAM_MULT2 + wh2[j : m + j]
    valid = parent[:m] == parent[k - 1 :]
    out = (acc1[valid], acc2[valid], parent[:m][valid].astype(np.int64))
    if return_flat:
        return (*out, np.flatnonzero(valid).astype(np.int64), flat, parent)
    return out


def _substring_windows(ds: Dataset, *, k: int, key_col: str, text_col: str) -> Dataset:
    """Shared explode stage: one ``(g1, g2, doc)`` row per DISTINCT
    in-document k-word window (per-document pre-dedup before the
    shuffle — a window repeated inside one document ships once); the
    callers bucket it on ``g1``."""

    def windows(batch: pa.Table) -> pa.Table:
        g1, g2, parent = _gram_hashes128(batch[text_col], k)
        docs = batch[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)[parent]
        order = np.lexsort((docs, g2, g1))
        g1, g2, docs = g1[order], g2[order], docs[order]
        if len(g1):
            keep = np.concatenate(
                [[True], (g1[1:] != g1[:-1]) | (g2[1:] != g2[:-1]) | (docs[1:] != docs[:-1])]
            )
            g1, g2, docs = g1[keep], g2[keep], docs[keep]
        return pa.table(
            {
                "g1": pa.array(g1),
                "g2": pa.array(g2),
                "doc": pa.array(docs),
            }
        )

    return ds.map_batches(windows, batch_format="pyarrow", zero_copy_batch=True)


def substring_dup_pairs(
    ds: Dataset,
    *,
    k: int = 8,
    key_col: str = "doc_id",
    text_col: str = "text",
    n_parts: int = 64,
    bucket_cap: int | None = None,
) -> Dataset:
    """All distinct document pairs sharing at least one verbatim k-word
    window (exact substring-match dedup at word granularity).  Returns a
    ``(left, right)`` Dataset with ``left < right``.

    Scale design mirrors the LSH stages: per-batch vectorized 128-bit
    window hashing with per-document pre-dedup (a window repeated inside
    one document ships once), coarse-partition shuffle on ≤``n_parts``
    hash values, one vectorized run-walk per part emitting the upper
    triangle of each >=2-doc window group, then the distributed pair
    dedup.  ``bucket_cap`` skips windows shared by more than that many
    documents (skew guard for boilerplate spans — at 100 TB a span in
    10^5 documents would emit 10^10 pairs; cap and route such spans to
    the repeated-line scrub or :func:`substring_dup_docs` instead).
    Default None = exact (the oracle setting)."""

    def pairs_many(g: pd.DataFrame) -> pd.DataFrame:
        g1 = g["g1"].to_numpy(dtype=np.uint64)
        g2 = g["g2"].to_numpy(dtype=np.uint64)
        docs = g["doc"].to_numpy(dtype=np.int64)
        order = np.lexsort((docs, g2, g1))
        a, b, d = g1[order], g2[order], docs[order]
        newrun = np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
        starts = np.flatnonzero(newrun)
        ends = np.concatenate([starts[1:], [len(a)]])
        out_l, out_r = [], []
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2 or (bucket_cap is not None and m > bucket_cap):
                continue
            iu = np.triu_indices(m, k=1)
            out_l.append(d[s:e][iu[0]])
            out_r.append(d[s:e][iu[1]])
        if not out_l:
            return pd.DataFrame({"left": pd.array([], dtype="int64"),
                                 "right": pd.array([], dtype="int64")})
        return pd.DataFrame({"left": np.concatenate(out_l), "right": np.concatenate(out_r)})

    exploded = _substring_windows(ds, k=k, key_col=key_col, text_col=text_col)
    cand = map_key_buckets(exploded, ["g1"], pairs_many, n_parts=n_parts)
    return _dedup_pairs(cand)


def substring_dup_docs(
    ds: Dataset,
    *,
    k: int = 8,
    key_col: str = "doc_id",
    text_col: str = "text",
    n_parts: int = 64,
) -> Dataset:
    """The flagging form: ``(doc_id, n_dup_grams)`` for every document
    containing at least one k-word window that also appears verbatim in
    ANOTHER document (``n_dup_grams`` counts its distinct such windows).
    Pair-free — cost stays linear in corpus windows even when a
    boilerplate span is shared by millions of documents."""

    def flag_many(g: pd.DataFrame) -> pd.DataFrame:
        g1 = g["g1"].to_numpy(dtype=np.uint64)
        g2 = g["g2"].to_numpy(dtype=np.uint64)
        docs = g["doc"].to_numpy(dtype=np.int64)
        order = np.lexsort((docs, g2, g1))
        a, b, d = g1[order], g2[order], docs[order]
        newrun = np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
        run_id = np.cumsum(newrun) - 1
        run_sizes = np.bincount(run_id)
        # a (gram, doc) row is already unique: run size == #distinct docs
        dup = run_sizes[run_id] >= 2
        if not dup.any():
            return pd.DataFrame({"doc_id": pd.array([], dtype="int64"),
                                 "n_dup_grams": pd.array([], dtype="int64")})
        dd = d[dup]
        uniq, cnt = np.unique(dd, return_counts=True)
        return pd.DataFrame({"doc_id": uniq, "n_dup_grams": cnt.astype(np.int64)})

    exploded = _substring_windows(ds, k=k, key_col=key_col, text_col=text_col)
    per_part = map_key_buckets(exploded, ["g1"], flag_many, n_parts=n_parts)

    # a doc's windows land in many parts: one final coarse fold sums the
    # per-part counts (keyed on <=n_parts values, vectorized per part)
    def fold(gdf: pd.DataFrame) -> pd.DataFrame:
        out = gdf.groupby("doc_id", as_index=False)["n_dup_grams"].sum()
        return out[["doc_id", "n_dup_grams"]]

    return map_key_buckets(per_part, ["doc_id"], fold, n_parts=n_parts)


def dup_span_grams(
    ds: Dataset,
    *,
    k: int = 8,
    key_col: str = "doc_id",
    text_col: str = "text",
    n_parts: int = 64,
) -> Dataset:
    """Phase 1 of span removal: every k-word gram that appears in >= 2
    DISTINCT documents, with its keeper (the min doc id containing it).
    Output ``(g1, g2, keeper)`` — bounded by the duplicated-span volume
    (a small fraction of corpus windows by the same argument as
    repeated_lines' broadcast set), never the corpus."""

    def keepers_many(g: pd.DataFrame) -> pd.DataFrame:
        g1 = g["g1"].to_numpy(dtype=np.uint64)
        g2 = g["g2"].to_numpy(dtype=np.uint64)
        docs = g["doc"].to_numpy(dtype=np.int64)
        order = np.lexsort((docs, g2, g1))
        a, b, d = g1[order], g2[order], docs[order]
        newrun = np.concatenate([[True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])])
        run_id = np.cumsum(newrun) - 1
        sizes = np.bincount(run_id)
        starts = np.flatnonzero(newrun)
        dup = sizes >= 2  # rows are distinct (gram, doc): size == n docs
        if not dup.any():
            return pd.DataFrame({"g1": pd.array([], dtype="uint64"),
                                 "g2": pd.array([], dtype="uint64"),
                                 "keeper": pd.array([], dtype="int64")})
        s = starts[dup]
        # sorted by (g1, g2, doc): the first row of each run is min doc
        return pd.DataFrame({"g1": a[s], "g2": b[s], "keeper": d[s]})

    exploded = _substring_windows(ds, k=k, key_col=key_col, text_col=text_col)
    return map_key_buckets(exploded, ["g1"], keepers_many, n_parts=n_parts)


def remove_dup_spans(
    ds: Dataset,
    *,
    k: int = 8,
    key_col: str = "doc_id",
    text_col: str = "text",
    n_parts: int = 64,
    batch_size: Optional[int] = None,
    dup_grams: pa.Table | None = None,
) -> Dataset:
    """The removal form of ExactSubstr dedup (Lee et al. 2022 §3):
    rewrite every document with its cross-document duplicated k-word
    spans removed, keeping the copy in the keeper document (min doc id
    containing the span — a deterministic stand-in for the paper's
    arbitrary surviving occurrence).  Appends ``text_scrubbed`` and
    ``n_removed`` (words dropped).

    Phase 2 broadcasts the dup-gram table once (``ray.put``) and
    rewrites in a single shuffle-free pass: recompute window hashes per
    batch (vectorized), probe the sorted dup set, mark covered word
    positions with a difference array + cumsum, and rebuild the kept
    words with Arrow list offsets + ``binary_join`` — the same rewrite
    machinery as :func:`dedup_lines`.  Within-document repeats of a
    span that no OTHER document shares are kept (per-doc pre-dedup in
    phase 1 makes them invisible by design)."""
    if dup_grams is None:
        parts = list(
            dup_span_grams(
                ds, k=k, key_col=key_col, text_col=text_col, n_parts=n_parts
            ).iter_batches(batch_format="pyarrow")
        )
        dup_grams = (
            pa.concat_tables(parts)
            if parts
            else pa.table({"g1": pa.array([], pa.uint64()),
                           "g2": pa.array([], pa.uint64()),
                           "keeper": pa.array([], pa.int64())})
        )
    G1 = dup_grams["g1"].to_numpy(zero_copy_only=False).astype(np.uint64)
    G2 = dup_grams["g2"].to_numpy(zero_copy_only=False).astype(np.uint64)
    KP = dup_grams["keeper"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((G2, G1))
    G1, G2, KP = G1[order], G2[order], KP[order]
    bundle = (G1, G2, KP)
    ref = ray.put(bundle) if ray.is_initialized() else bundle

    def rewrite(batch: pa.Table) -> pa.Table:
        g1s, g2s, kps = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        g1, g2, gparent, gstart, flat, parent = _gram_hashes128(
            batch[text_col], k, return_flat=True
        )
        docs_all = batch[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        n = batch.num_rows
        covered = np.zeros(len(flat), dtype=bool)
        if len(g1) and len(g1s):
            lo = np.searchsorted(g1s, g1, side="left")
            hi = np.searchsorted(g1s, g1, side="right")
            # primary path: unique g1 in the dup set (the overwhelming case)
            one = hi - lo == 1
            lo_c = np.minimum(lo, len(g1s) - 1)
            hit = one & (g2s[lo_c] == g2) & (g1s[lo_c] == g1)
            keeper = np.where(hit, kps[lo_c], -1)
            # rare path: several dup grams share a g1 prefix — scan the run
            multi = np.flatnonzero(hi - lo > 1)
            for i in multi:
                for j in range(lo[i], hi[i]):
                    if g2s[j] == g2[i]:
                        hit[i] = True
                        keeper[i] = kps[j]
                        break
            remove = hit & (docs_all[gparent] != keeper)
            if remove.any():
                diff = np.zeros(len(flat) + 1, dtype=np.int32)
                np.add.at(diff, gstart[remove], 1)
                np.add.at(diff, gstart[remove] + k, -1)
                covered = np.cumsum(diff[:-1]) > 0
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        kept_counts = np.bincount(parent[~covered], minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(kept_counts, out=offsets[1:])
        kept_words = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), flat.filter(pa.array(~covered))
        )
        joined = pc.fill_null(pc.binary_join(kept_words, " "), "")
        n_removed = np.bincount(parent[covered], minlength=n).astype(np.int64)
        return batch.append_column("text_scrubbed", joined).append_column(
            "n_removed", pa.array(n_removed, type=pa.int64())
        )

    return ds.map_batches(rewrite, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


# ---------------------------------------------------------------------------
# token-sequence near-dup dedup (MinHash-LSH over the PRE-TOKENIZED
# corpus — the input_hint's (doc_id, tokens:list<int32>) shape; no text)


def _batch_token_gram_hashes(col, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized k-token-gram hashes for every sequence in a list<int>
    Arrow array — the token analogue of _batch_shingle_hashes: each
    element is avalanche-mixed (fmix64(token+1)) and windows combine
    with one polynomial pass over the batch-flattened stream; windows
    crossing sequence boundaries are dropped by the same gather.
    Sequences shorter than ``k`` (incl. null/empty) get one zero-padded
    hash.  Returns (hashes, starts) with len(starts) = n_seqs + 1."""
    from jesse_ray.hashutil import fmix64

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lens = pc.fill_null(pc.list_value_length(col), 0).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
    elem = fmix64(flat.astype(np.uint64) + np.uint64(1))
    offsets = np.concatenate([[0], np.cumsum(lens)])
    counts = np.maximum(lens - k + 1, 1).astype(np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)])
    out = np.zeros(int(starts[-1]), dtype=np.uint64)

    N = len(elem)
    if N >= k:
        W = N - k + 1
        h = np.zeros(W, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for j in range(k):
                h = h * _POLY_B + elem[j : j + W]
        long_mask = lens >= k
        if long_mask.any():
            cnt_long = (lens[long_mask] - k + 1).astype(np.int64)
            src0 = offsets[:-1][long_mask]
            dst0 = starts[:-1][long_mask]
            total = int(cnt_long.sum())
            rel = np.arange(total, dtype=np.int64) - np.repeat(
                np.concatenate([[0], np.cumsum(cnt_long)])[:-1], cnt_long
            )
            out[np.repeat(dst0, cnt_long) + rel] = h[np.repeat(src0, cnt_long) + rel]
    short_idx = np.flatnonzero(lens < k)
    with np.errstate(over="ignore"):
        for i in short_idx:
            hv = np.uint64(0)
            for e in elem[offsets[i] : offsets[i + 1]]:
                hv = hv * _POLY_B + e
            out[starts[i]] = hv * _POLY_B ** np.uint64(k - lens[i])
    return out, starts


class TokenMinHasher(MinHasher):
    """MinHash signatures over token k-grams of pre-tokenized sequences
    (shares MinHasher's vectorized a·x+b mod 2^61-1 bank and per-worker
    scratch discipline; only the gram source differs)."""

    def __init__(self, num_hashes: int = 64, gram_k: int = 8, seed: int = 1234,
                 tokens_col: str = "tokens"):
        super().__init__(num_hashes=num_hashes, shingle_k=gram_k, seed=seed)
        self.tokens_col = tokens_col

    def _grams(self, arr) -> tuple[np.ndarray, np.ndarray]:
        return _batch_token_gram_hashes(arr, self.k)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sig = self.signatures(batch[self.tokens_col])  # (H, n)
        lists = pa.FixedSizeListArray.from_arrays(
            pa.array(sig.T.reshape(-1).astype(np.int64)), self.num_hashes
        )
        return batch.append_column("minhash", lists.cast(pa.list_(pa.int64())))


def token_minhash_signatures(ds: Dataset, *, num_hashes: int = 64, gram_k: int = 8,
                             tokens_col: str = "tokens", batch_size: int = 1024) -> Dataset:
    return ds.map_batches(
        TokenMinHasher(num_hashes=num_hashes, gram_k=gram_k, tokens_col=tokens_col).__call__,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )


def token_lsh_candidate_pairs(
    ds: Dataset,
    *,
    num_hashes: int = 64,
    bands: int = 16,
    gram_k: int = 8,
    key_col: str = "doc_id",
    tokens_col: str = "tokens",
    bucket_cap: int | None = None,
    batch_size: Optional[int] = None,
    drop_counter=None,
) -> Dataset:
    """Near-dup candidate pairs over PRE-TOKENIZED sequences: token-gram
    MinHash + LSH banding, same shuffle discipline as the text path
    (coarse bucket partitions, within-run pairs, distributed dedup)."""
    if bands < 1 or num_hashes % bands:
        raise ValueError(f"num_hashes ({num_hashes}) must be a multiple of bands ({bands})")

    def drop_null_keys(batch: pa.Table) -> pa.Table:
        # a row with a null key can't be reported as a pair member (the
        # validation layer flags it separately); it would also poison
        # the within-run key sort for string keys
        return batch.filter(pc.is_valid(batch[key_col]))

    sigs = token_minhash_signatures(
        ds.select_columns([key_col, tokens_col]).map_batches(
            drop_null_keys, batch_format="pyarrow", zero_copy_batch=True
        ),
        num_hashes=num_hashes, gram_k=gram_k, tokens_col=tokens_col,
        batch_size=batch_size,
    )
    return _lsh_pairs_from_sigs(sigs, num_hashes=num_hashes, bands=bands,
                                key_col=key_col, bucket_cap=bucket_cap,
                                drop_counter=drop_counter)


# ---------------------------------------------------------------------------
# semantic dedup: cluster-then-exact-cosine (SemDeDup)


def semantic_near_dups(
    ds: Dataset,
    *,
    k: int = 8,
    threshold: float = 0.95,
    key_col: str = "vec_id",
    vec_col: str = "embedding",
    n_iters: int = 5,
    cluster_cap: int = 4096,
    block: int = 1024,
    batch_size: Optional[int] = None,
) -> tuple[np.ndarray, Dataset, Dataset]:
    """SemDeDup (Abbas et al. 2023, "SemDeDup: Data-efficient learning
    at web-scale through semantic deduplication" — method only):
    k-means-cluster the embeddings, then report exact cosine near-dup
    pairs WITHIN each cluster.  The cluster count is the scale knob —
    SemDeDup runs k ∝ N/⟨cluster size⟩, so the per-cluster dense pass
    stays O(⟨cluster size⟩²), never O(N²).

    Returns ``(centroids, assigned, pairs)``: the (k, dim) centroid
    matrix, the input with ``cluster`` appended (for audit sidecars),
    and a Dataset of ``(left, right, cosine)`` with ``left < right`` by
    key.  Per-cluster work is one blocked matmul over unit-normalized
    vectors (``block`` rows at a time, so peak memory is
    block × cluster_size doubles); a cluster larger than ``cluster_cap``
    raises — at that size the right move is a larger k, not a bigger
    dense pass.  ``groupby("cluster")`` here is a ≤k-group shuffle; for
    k ≫ 64 route through a coarse hash of the cluster id (the
    `_dedup_pairs` discipline) instead of one group per cluster.
    """
    from jesse_ray.functions.clustering import _mat, kmeans

    cents, assigned = kmeans(
        ds, k, vec_col=vec_col, key_col=key_col, n_iters=n_iters, batch_size=batch_size
    )
    sel = assigned.select_columns([key_col, vec_col, "cluster"])
    key_type = None
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=8):
        key_type = b.schema.field(key_col).type
        break

    def pairs_in(g: pa.Table) -> pa.Table:
        n = g.num_rows
        empty = pa.table(
            {
                "left": pa.array([], type=key_type),
                "right": pa.array([], type=key_type),
                "cosine": pa.array([], type=pa.float64()),
            }
        )
        if n < 2:
            return empty
        if n > cluster_cap:
            raise ValueError(
                f"cluster of {n} rows exceeds cluster_cap={cluster_cap}; "
                "increase k (SemDeDup scales k with the corpus)"
            )
        x = _mat(g[vec_col])
        norms = np.sqrt((x * x).sum(axis=1))
        x = x / np.maximum(norms, 1e-12)[:, None]
        keys = g[key_col].to_numpy(zero_copy_only=False)
        cols = np.arange(n)
        outs = []
        for i0 in range(0, n, block):
            sims = x[i0 : i0 + block] @ x.T
            valid = cols[None, :] > (np.arange(i0, min(i0 + block, n))[:, None])
            ii, jj = np.nonzero((sims >= threshold) & valid)
            if len(ii):
                a, b = keys[ii + i0], keys[jj]
                outs.append(
                    pa.table(
                        {
                            "left": pa.array(np.minimum(a, b), type=key_type),
                            "right": pa.array(np.maximum(a, b), type=key_type),
                            "cosine": pa.array(sims[ii, jj], type=pa.float64()),
                        }
                    )
                )
        return pa.concat_tables(outs) if outs else empty

    pairs = sel.groupby("cluster").map_groups(pairs_in, batch_format="pyarrow")
    return cents, assigned, pairs


# ---------------------------------------------------------------------------
# winnowing fingerprints (Schleimer/Wilkerson/Aiken 2003, the MOSS scheme)


def winnow_fingerprints(ds: Dataset, *, k: int = 4, w: int = 4,
                        key_col: str = "doc_id", text_col: str = "text",
                        batch_size: int = 8192) -> Dataset:
    """Winnowing document fingerprints: k-word grams, one fingerprint
    per window of ``w`` consecutive gram positions = the window MINIMUM,
    deduplicated per document.  Guarantees any shared run of
    ``w + k - 1`` words between two documents yields a shared
    fingerprint, with ~2/(w+1) of grams selected — the bounded-size
    overlap/plagiarism-detection sketch between exact substring dedup
    (all grams) and MinHash (global sample).

    Deliberate delta from the paper: window minima use LEXICOGRAPHIC
    gram order, not a hash order, so the DuckDB twin's
    ``MIN(gram) OVER (ROWS BETWEEN CURRENT ROW AND w-1 FOLLOWING)``
    replicates selection exactly (windows shrink at document end, so
    every trailing gram run keeps a fingerprint and short documents
    with ≥1 gram are never empty).  Lexicographic selection biases
    toward alphabetically-small grams but preserves the winnowing
    guarantee, which only needs a consistent total order.

    Fully vectorized per batch: one split, object-array gram join,
    np.unique ranks, and w-1 shifted-minimum passes; no per-document
    Python.  Returns a Dataset of (key_col, fingerprint)."""

    def fp(batch: pa.Table) -> pa.Table:
        keys = batch[key_col]
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(pc.fill_null(text, ""), " ")
        flat = pc.list_flatten(words).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        empty = pa.table({key_col: keys.slice(0, 0),
                          "fingerprint": pa.array([], type=pa.string())})
        m = len(flat) - (k - 1)
        if m <= 0:
            return empty
        # gram strings via vectorized object concat (k-1 passes)
        g = flat[:m].copy()
        for j in range(1, k):
            g = g + " "
            g = g + flat[j:m + j]
        gvalid = parent[:m] == parent[k - 1:]
        grams, gparent = g[gvalid], parent[:m][gvalid]
        if len(grams) == 0:
            return empty
        uniq, inv = np.unique(grams, return_inverse=True)
        # shrinking-window minimum: wmin[j] = min(rank[j : j+w] ∩ same doc)
        wmin = inv.copy()
        n = len(inv)
        for d in range(1, w):
            ok = np.zeros(n, dtype=bool)
            ok[: n - d] = gparent[d:] == gparent[: n - d]
            np.minimum(wmin[: n - d], np.where(ok[: n - d], inv[d:], np.iinfo(inv.dtype).max),
                       out=wmin[: n - d])
        sel = np.unique(np.stack([gparent, wmin]), axis=1)
        docs, ranks = sel[0], sel[1]
        return pa.table({
            key_col: keys.take(pa.array(docs, type=pa.int64())),
            "fingerprint": pa.array(uniq[ranks], type=pa.string()),
        })

    return ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def winnow_overlap_pairs(ds: Dataset, *, k: int = 4, w: int = 4,
                         min_shared: int = 2, key_col: str = "doc_id",
                         text_col: str = "text", n_parts: int = 64,
                         bucket_cap: int | None = None,
                         drop_counter=None) -> Dataset:
    """Document pairs sharing ≥ ``min_shared`` winnowing fingerprints —
    the MOSS overlap report.  Distributed shape: fingerprint rows →
    coarse fingerprint-hash shuffle → within-run pairs (one pair row
    per SHARED fingerprint) → coarse pair-hash shuffle counting
    multiplicity exactly.  Returns (left, right, n_shared)."""
    from jesse_ray.hashutil import hash64_strings

    fps = winnow_fingerprints(ds, k=k, w=w, key_col=key_col, text_col=text_col)

    def bucketed(batch: pa.Table) -> pa.Table:
        col = batch["fingerprint"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return batch.append_column(
            "bucket", pa.array(hash64_strings(col), type=pa.uint64()))

    def pairs_many(g: pd.DataFrame) -> pd.DataFrame:
        ks = g[key_col].to_numpy()
        bk = g["bucket"].to_numpy(dtype=np.uint64)
        stats = DropStats()
        out_l, out_r = _pairs_within_runs(bk, ks, bucket_cap, stats=stats)
        _report_drops("winnow_overlap_pairs", stats, drop_counter)
        return pd.DataFrame({"left": out_l, "right": out_r})

    cand = map_key_buckets(
        fps.map_batches(bucketed, batch_format="pyarrow", zero_copy_batch=True),
        ["bucket"], pairs_many, n_parts=n_parts)

    def count(g: pd.DataFrame) -> pd.DataFrame:
        c = (g.groupby(["left", "right"], sort=False).size()
              .reset_index(name="n_shared"))
        return c[c["n_shared"] >= min_shared]

    return map_key_buckets(cand, ["left", "right"], count, n_parts=n_parts)


# ---------------------------------------------------------------------------
# bag-of-words (word-multiset) dedup — order-insensitive exact dedup


def add_bow_canonical(ds: Dataset, *, text_col: str = "text",
                      out_col: str = "bow_canon",
                      batch_size: int = 8192) -> Dataset:
    """Append the word-MULTISET canonical form of each document: words
    sorted within the document and re-joined.  Exact dedup on this
    column catches reordered boilerplate (shuffled nav bars, templated
    listings, spun text) that byte-exact dedup misses while staying
    exact — no similarity threshold to tune.  Vectorized per batch: one
    split, one (parent, word) lexsort, one list rebuild +
    ``pc.binary_join``; the twin is ``list_sort(string_split(...))``."""

    def canon(batch: pa.Table) -> pa.Table:
        text = batch[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(pc.fill_null(text, ""), " ")
        flat = pc.list_flatten(words).to_numpy(zero_copy_only=False)
        parent = pc.list_parent_indices(words).to_numpy(zero_copy_only=False)
        order = np.lexsort((flat, parent))
        offsets = pc.list_value_length(words).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        offs = np.zeros(len(words) + 1, dtype=np.int32)
        np.cumsum(offsets, out=offs[1:])
        sorted_lists = pa.ListArray.from_arrays(
            pa.array(offs, type=pa.int32()),
            pa.array(flat[order], type=pa.string()))
        return batch.append_column(out_col, pc.binary_join(sorted_lists, " "))

    return ds.map_batches(canon, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=batch_size)


def bow_duplicate_clusters(ds: Dataset, *, text_col: str = "text",
                           key_col: str = "doc_id", n_parts: int = 64,
                           batch_size: int = 8192) -> Dataset:
    """Word-multiset duplicate clusters: (keeper = min key, size) for
    every canonical form appearing more than once.  Map-side combiner
    (per-batch min/count per canonical hash) → coarse 64-part shuffle →
    exact per-part reduce; ships one row per distinct canonical per
    block, never the texts."""
    canoned = add_bow_canonical(ds.select_columns([key_col, text_col]),
                                text_col=text_col, batch_size=batch_size)

    def partial(batch: pa.Table) -> pa.Table:
        g = (batch.select([key_col, "bow_canon"]).group_by("bow_canon")
             .aggregate([([key_col], "min"), ([], "count_all")]))
        return g.rename_columns(["bow_canon", "min_key", "partial_cnt"])

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby("bow_canon", sort=False).agg(
            keeper=("min_key", "min"), size=("partial_cnt", "sum")).reset_index()
        agg = agg[agg["size"] > 1]
        return agg[["keeper", "size"]]

    return map_key_buckets(canoned.map_batches(partial, batch_format="pyarrow",
                                               zero_copy_batch=True, batch_size=batch_size),
                           ["bow_canon"], reduce_part, n_parts=n_parts)


# ---------------------------------------------------------------------------
# duplicated-n-gram token coverage (Lee et al. 2022 dedup diagnostic)


def token_dup_gram_coverage(
    ds: Dataset,
    *,
    k: int = 8,
    tokens_col: str = "tokens",
    n_parts: int = 64,
    broadcast_cap: int = 64_000_000,
) -> tuple[int, int]:
    """Fraction-of-corpus diagnostic from "Deduplicating Training Data
    Makes Language Models Better" (Lee et al., ACL 2022): how many
    corpus TOKENS sit inside at least one k-token gram that occurs >= 2
    times corpus-wide?  Returns ``(total_tokens, covered_tokens)``.

    Scale shape (round-4 redesign): the original two window-volume
    shuffles moved every k-gram window row twice (~34 B x ~1 row/token
    x 2) and their sort-spill exceeded this sandbox's free disk at sf1
    (~1 B tokens).  Now:

    1. ONE count shuffle of per-batch DISTINCT (gram, count) partials
       (16 B/row, roughly half the old volume, once instead of twice)
       finds the corpus-wide duplicated grams;
    2. the duplicated-gram set — a small fraction of the gram space by
       the diagnostic's own premise — is broadcast once (``ray.put`` of
       a sorted uint64 array) and a second READ pass probes it with one
       searchsorted per batch, computing each row's interval union
       (gap-clip at k, the Lee et al. rule) IN-BATCH: integer partials
       only ever reach the driver, and no window row is ever shuffled;
    3. a duplicated-gram set larger than ``broadcast_cap`` (512 MB at
       the 64M default) falls back to the fully-shuffled original
       (kept as :func:`_dup_gram_coverage_2shuffle`), which never
       materializes the dup set anywhere.

    Counts are bit-identical to the shuffled path (same gram hash, same
    union rule; verified by the seq_dup_gram_coverage oracle and the
    unit suite at both scales).
    """

    def gram_partial(batch: pa.Table) -> pa.Table:
        col = batch[tokens_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lens = pc.fill_null(pc.list_value_length(col), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g, starts = _batch_token_gram_hashes(col, k)
        counts = np.diff(starts)
        valid = lens >= k
        gk = g[np.repeat(valid, counts)]
        ug, cnt = np.unique(gk, return_counts=True)
        return pa.table({
            "g": pa.array(ug.view(np.int64)),
            "cnt": pa.array(cnt.astype(np.int64)),
        })

    def part_dups(grp: pd.DataFrame) -> pd.DataFrame:
        g = grp["g"].to_numpy(dtype=np.int64).view(np.uint64)
        c = grp["cnt"].to_numpy(dtype=np.int64)
        uniq, inv = np.unique(g, return_inverse=True)
        tot = np.bincount(inv, weights=c).astype(np.int64)
        return pd.DataFrame({"g": uniq[tot >= 2].view(np.int64)})

    dup_parts = map_key_buckets(ds.select_columns([tokens_col])
                                .map_batches(gram_partial, batch_format="pyarrow",
                                             zero_copy_batch=True),
                                ["g"], part_dups, n_parts=n_parts)
    dbatches = list(dup_parts.iter_batches(batch_format="pyarrow"))
    if dbatches:
        dup_arr = np.sort(pa.concat_tables(dbatches)["g"]
                          .to_numpy(zero_copy_only=False).view(np.uint64))
    else:
        dup_arr = np.empty(0, dtype=np.uint64)
    if len(dup_arr) > broadcast_cap:
        return _dup_gram_coverage_2shuffle(ds, k=k, tokens_col=tokens_col,
                                           n_parts=n_parts)
    ref = ray.put(dup_arr) if ray.is_initialized() else dup_arr

    class _Cover:
        def __init__(self):
            self.dups = None

        def __call__(self, batch: pa.Table) -> pa.Table:
            if self.dups is None:
                self.dups = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            col = batch[tokens_col]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            lens = pc.fill_null(pc.list_value_length(col), 0) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            total = int(lens.sum())
            covered = 0
            if len(self.dups):
                g, starts = _batch_token_gram_hashes(col, k)
                counts = np.diff(starts)
                valid = lens >= k
                n_win = np.where(valid, counts, 0)
                keepw = np.repeat(valid, counts)
                gk = g[keepw]
                if len(gk):
                    rel = np.arange(len(gk), dtype=np.int64) - np.repeat(
                        np.concatenate([[0], np.cumsum(n_win)])[:-1], n_win)
                    parent = np.repeat(np.arange(len(lens), dtype=np.int64), n_win)
                    idx = np.searchsorted(self.dups, gk)
                    idx[idx >= len(self.dups)] = len(self.dups) - 1
                    hit = self.dups[idx] == gk
                    hp, hpar = rel[hit], parent[hit]
                    if len(hp):
                        newrun = np.concatenate([[True], hpar[1:] != hpar[:-1]])
                        gap = np.empty(len(hp), dtype=np.int64)
                        gap[0] = k
                        if len(hp) > 1:
                            step = hp[1:] - hp[:-1]
                            gap[1:] = np.where(newrun[1:], k, np.minimum(step, k))
                        covered = int(gap.sum())
            return pa.table({"total": pa.array([total], type=pa.int64()),
                             "covered": pa.array([covered], type=pa.int64())})

    parts = pa.concat_tables(list(
        ds.select_columns([tokens_col])
        .map_batches(_Cover(), batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow")))
    import pyarrow.compute as _pc

    return int(_pc.sum(parts["total"]).as_py() or 0), \
        int(_pc.sum(parts["covered"]).as_py() or 0)


def _dup_gram_coverage_2shuffle(
    ds: Dataset,
    *,
    k: int = 8,
    tokens_col: str = "tokens",
    n_parts: int = 64,
) -> tuple[int, int]:
    """Fraction-of-corpus diagnostic from "Deduplicating Training Data
    Makes Language Models Better" (Lee et al., ACL 2022): how many
    corpus TOKENS sit inside at least one k-token gram that occurs >= 2
    times corpus-wide?  Returns ``(total_tokens, covered_tokens)``.

    Fully distributed, no driver-side dup sets, ONE corpus read:
    1. rows collapse to DISTINCT token-content rowkeys (128-bit
       positional-poly hash) with a multiplicity count — identical rows
       have identical coverage, so one union computation serves all
       copies;
    2. a single pass emits every k-gram window (partitioned by gram
       hash) PLUS one per-row stats record (multiplicity + length) into
       the same stream; the first coarse shuffle finds dup grams
       (corpus count >= 2) and passes the stats records through
       untouched;
    3. the second coarse shuffle keys everything on the rowkey and
       computes interval-union lengths per rowkey (sorted starts,
       gap-clip at k) against the co-located multiplicities — integer
       partials only ever reach the driver.
    """
    hashed = add_token_hash(ds, tokens_col=tokens_col, out_col="__rk")

    def _rk_split(col) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        raw = np.frombuffer(col.buffers()[1], dtype=np.uint64,
                            count=2 * (len(col) + col.offset))
        raw = raw[2 * col.offset:]
        return raw[0::2].copy(), raw[1::2].copy()

    def windows_and_stats(batch: pa.Table) -> pa.Table:
        col = batch[tokens_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lens = pc.fill_null(pc.list_value_length(col), 0) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        g, starts = _batch_token_gram_hashes(col, k)
        rk1, rk2 = _rk_split(batch["__rk"])
        counts = np.diff(starts)
        # drop the zero-padded slot _batch_token_gram_hashes emits for
        # sequences shorter than k — they have no true k-gram
        valid = lens >= k
        n_win = np.where(valid, counts, 0)
        parent = np.repeat(np.arange(len(lens)), n_win)
        keep = np.repeat(valid, counts)
        gk = g[keep]
        rel = np.arange(len(gk), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(n_win)])[:-1], n_win)
        nw, nr = len(gk), len(lens)
        return pa.table({
            # window rows (p >= 0, m == 0) bucket by gram; stats rows
            # (p == -1, m == 1) by rowkey — find_dups forwards them
            "bk": pa.array(np.concatenate([gk, rk1])),
            "g": pa.array(np.concatenate([gk, np.zeros(nr, np.uint64)])),
            "rk1": pa.array(np.concatenate([rk1[parent], rk1])),
            "rk2": pa.array(np.concatenate([rk2[parent], rk2])),
            # int32 throughout: p < 2^31 tokens/doc, m and L are
            # per-batch partials; union_len widens to int64 before any
            # product/sum.  25% less shuffle volume on 100M+ window rows.
            "p": pa.array(np.concatenate([
                rel, np.full(nr, -1, dtype=np.int64)]).astype(np.int32)),
            "m": pa.array(np.concatenate([
                np.zeros(nw, np.int32), np.ones(nr, np.int32)])),
            "L": pa.array(np.concatenate(
                [np.zeros(nw, np.int64), lens]).astype(np.int32)),
        })

    def find_dups(grp: pd.DataFrame) -> pd.DataFrame:
        p = grp["p"].to_numpy(dtype=np.int64)
        is_win = p >= 0
        g = grp["g"].to_numpy(dtype=np.uint64)[is_win]
        if len(g):
            order = np.argsort(g, kind="stable")
            gs = g[order]
            newrun = np.concatenate([[True], gs[1:] != gs[:-1]])
            run_id = np.cumsum(newrun) - 1
            sizes = np.bincount(run_id)
            dup_row = (sizes >= 2)[run_id]
            widx = np.flatnonzero(is_win)[order[dup_row]]
        else:
            widx = np.empty(0, dtype=np.int64)
        sidx = np.flatnonzero(~is_win)
        take = np.concatenate([widx, sidx])
        rk1 = grp["rk1"].to_numpy(dtype=np.uint64)[take]
        return pd.DataFrame({
            "rk1": rk1,
            "rk2": grp["rk2"].to_numpy(dtype=np.uint64)[take],
            "p": p[take].astype(np.int32),
            "m": grp["m"].to_numpy(dtype=np.int32)[take],
            "L": grp["L"].to_numpy(dtype=np.int32)[take],
        })

    def union_len(grp: pd.DataFrame) -> pd.DataFrame:
        rk1 = grp["rk1"].to_numpy(dtype=np.uint64)
        rk2 = grp["rk2"].to_numpy(dtype=np.uint64)
        p = grp["p"].to_numpy(dtype=np.int64)
        m = grp["m"].to_numpy(dtype=np.int64)
        L = grp["L"].to_numpy(dtype=np.int64)
        total = int((m * L).sum())  # multiplicity rows only (p == -1)
        is_start = p >= 0
        covered = 0
        if is_start.any():
            # interval union per rowkey: sort (rk, p), clip gaps at k
            s1, s2, sp = rk1[is_start], rk2[is_start], p[is_start]
            order = np.lexsort((sp, s2, s1))
            s1, s2, sp = s1[order], s2[order], sp[order]
            newrun = np.concatenate([[True], (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])])
            # identical rows merged upstream can repeat a start; dedup
            uniq = newrun | np.concatenate([[True], sp[1:] != sp[:-1]])
            s1, s2, sp, newrun = s1[uniq], s2[uniq], sp[uniq], newrun[uniq]
            gap = np.empty(len(sp), dtype=np.int64)
            gap[0] = k
            if len(sp) > 1:
                step = sp[1:] - sp[:-1]
                gap[1:] = np.where(newrun[1:], k, np.minimum(step, k))
            cov_per_row = np.add.reduceat(gap, np.flatnonzero(newrun))
            mult = pd.Series(m[~is_start],
                             index=pd.MultiIndex.from_arrays(
                                 [rk1[~is_start], rk2[~is_start]])) \
                .groupby(level=[0, 1]).sum()
            run_keys = pd.MultiIndex.from_arrays(
                [s1[np.flatnonzero(newrun)], s2[np.flatnonzero(newrun)]])
            mvals = mult.reindex(run_keys).fillna(0).to_numpy(dtype=np.int64)
            covered = int((cov_per_row * mvals).sum())
        return pd.DataFrame({"total": pd.array([total], dtype="int64"),
                             "covered": pd.array([covered], dtype="int64")})

    stream = hashed.map_batches(windows_and_stats, batch_format="pyarrow",
                                zero_copy_batch=True)
    dups = map_key_buckets(stream, ["bk"], find_dups, n_parts=n_parts)
    parts = map_key_buckets(dups, ["rk1"], union_len, n_parts=n_parts).to_pandas()
    return int(parts["total"].sum()), int(parts["covered"].sum())


# ---------------------------------------------------------------------------
# all-pairs overlap-coefficient dedup with prefix filtering


def overlap_coeff_dups(
    ds: Dataset,
    *,
    threshold_num: int = 4,
    threshold_den: int = 5,
    shingle_k: int = 5,
    key_col: str = "doc_id",
    n_parts: int = 64,
    bucket_cap: int = 4096,
    drop_counter=None,
) -> Dataset:
    """Exact all-pairs search on the OVERLAP COEFFICIENT
    ``|A∩B| / min(|A|,|B|)`` — the asymmetric-containment detector that
    catches a small document quoted inside a big one, which Jaccard
    LSH structurally misses (low Jaccard, high containment).

    Candidate generation is Bayardo et al. (WWW 2007) prefix filtering
    instead of LSH: with t = threshold_num/threshold_den, any pair at
    overlap >= t must share one of the smaller doc's
    ``n - ceil(t*n) + 1`` smallest shingle hashes (by the global hash
    order).  Only those prefix entries are INDEXED; every shingle
    PROBES.  The guarantee is exact (integer prefix arithmetic, no
    float ceil), so recall is 1.0 by construction — the SQL twin
    enumerates all pairs from the raw shingle sets.  Probe volume is
    one corpus pass; index volume is the (1-t) fraction of it; hot
    shingles hit the ``bucket_cap`` skew guard and are REPORTED via
    ``drop_counter`` (never silently swallowed).

    Returns (left, right, overlap) with left < right, overlap >= t,
    verified EXACTLY from per-doc shingle blobs."""
    threshold = threshold_num / threshold_den

    def prefix_rows(batch: pa.Table) -> pa.Table:
        txt = batch["text"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(txt, "")
        h, starts = _batch_shingle_hashes(txt, shingle_k)
        n = batch.num_rows
        counts = np.diff(starts)
        seg = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((h, seg))
        hs, ss = h[order], seg[order]
        keep = (np.concatenate([[True], (hs[1:] != hs[:-1]) | (ss[1:] != ss[:-1])])
                if len(hs) else np.empty(0, bool))
        hs, ss = hs[keep], ss[keep]
        ucounts = np.bincount(ss, minlength=n)
        ustarts = np.concatenate([[0], np.cumsum(ucounts)])
        pos = np.arange(len(hs), dtype=np.int64) - np.repeat(ustarts[:-1], ucounts)
        # exact integer prefix size: n - ceil(t*n) + 1, ceil via int div
        pi = ucounts - (threshold_num * ucounts + threshold_den - 1) // threshold_den + 1
        pi = np.maximum(pi, 1)
        pfx = pos < np.repeat(pi, ucounts)
        keys = batch[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)[ss]
        return pa.table({
            "sh": pa.array(hs),
            "key": pa.array(keys),
            "pfx": pa.array(pfx),
        })

    def cand_pairs(grp: pd.DataFrame) -> pd.DataFrame:
        sh = grp["sh"].to_numpy(dtype=np.uint64)
        key = grp["key"].to_numpy(dtype=np.int64)
        pfx = grp["pfx"].to_numpy(dtype=bool)
        order = np.lexsort((key, sh))
        sh, key, pfx = sh[order], key[order], pfx[order]
        starts = np.flatnonzero(np.concatenate([[True], sh[1:] != sh[:-1]]))
        ends = np.concatenate([starts[1:], [len(sh)]])
        stats = DropStats()
        out_l, out_r = [], []
        for s, e in zip(starts, ends):
            m = e - s
            if m < 2:
                continue
            if m > bucket_cap:
                stats.buckets += 1
                stats.rows += m
                continue
            kk = key[s:e]
            ip = np.flatnonzero(pfx[s:e])
            if len(ip) == 0:
                continue
            l = np.repeat(kk[ip], m)
            r = np.tile(kk, len(ip))
            neq = l != r
            l, r = l[neq], r[neq]
            out_l.append(np.minimum(l, r))
            out_r.append(np.maximum(l, r))
        _report_drops("overlap_coeff_dups", stats, drop_counter)
        if not out_l:
            return pd.DataFrame({"left": pd.Series([], dtype="int64"),
                                 "right": pd.Series([], dtype="int64")})
        return pd.DataFrame({"left": np.concatenate(out_l),
                             "right": np.concatenate(out_r)}).drop_duplicates()

    rows = ds.select_columns([key_col, "text"]).map_batches(
        prefix_rows, batch_format="pyarrow", zero_copy_batch=True)
    cand = map_key_buckets(rows, ["sh"], cand_pairs, n_parts=n_parts)
    pairs = _dedup_pairs(cand)
    verified = verify_jaccard_pairs(ds, pairs, threshold=threshold,
                                    shingle_k=shingle_k, key_col=key_col,
                                    metric="overlap")

    def rename(b: pa.Table) -> pa.Table:
        return pa.table({"left": b["left"], "right": b["right"],
                         "overlap": b["jaccard"]})

    return verified.map_batches(rename, batch_format="pyarrow", zero_copy_batch=True)


def prefix_jaccard_join(
    ds: Dataset,
    *,
    threshold_num: int = 2,
    threshold_den: int = 5,
    shingle_k: int = 5,
    key_col: str = "doc_id",
    n_parts: int = 64,
    bucket_cap: int = 4096,
    drop_counter=None,
    emit_counts: bool = False,
) -> Dataset:
    """Exact all-pairs Jaccard SIMILARITY JOIN via AllPairs/PPJoin
    prefix filtering (Bayardo et al., WWW 2007; Xiao et al., PPJoin) —
    the deterministic complement to MinHash LSH: no signatures, no
    probabilistic recall; every pair at shingle-Jaccard >= t is emitted,
    so the result EQUALS brute force.

    Why it is complete: under ANY global total order on shingles, a
    pair with |A∩B|/|A∪B| >= t places its SMALLEST common shingle
    inside both docs' first ``n - ceil(t*n) + 1`` shingles — were every
    common shingle outside A's prefix, the common count would be
    <= ceil(t*|A|) - 1 < t*|A| <= t*|A∪B| <= |A∩B|, a contradiction.
    Hence bucketing ONLY prefix entries by shingle finds all
    qualifying pairs.

    The order used is (document frequency ASC, hash ASC) — the
    CANONICAL AllPairs ordering, and the part that makes the filter
    FAST, not just correct: rare shingles fill the prefixes, so pair
    buckets stay tiny (a first hash-ordered implementation measured
    124 s at 5k docs because common shingles landed in prefixes and
    candidate volume went quadratic; df-ordering collapses it).  A
    df=1 prefix entry can never meet a partner, so it is dropped
    BEFORE the pair shuffle (it still occupies its prefix slot for the
    position math — dropping happens after positions are assigned).

    Scale shape: four bounded coarse shuffles of the unique-shingle
    mass — (1) explode to (shingle, doc, size) rows partitioned by
    shingle, (2) per part compute each shingle's GLOBAL df (a part
    holds every row of its shingles) and re-key by doc, (3) per doc
    sort (df, hash), take the integer-exact prefix
    ``n - ceil(t*n) + 1`` (ceil via int div), emit df>=2 prefix
    entries re-keyed by shingle, (4) pairs within shingle runs with
    the PPJoin LENGTH FILTER in exact integers
    (min*den >= max*num  ⟺  min >= t*max), distributed pair dedup,
    exact blob verification (float division + compare identical to
    the SQL twin's).  Hot shingles above ``bucket_cap`` are dropped
    but REPORTED via ``drop_counter`` — never silently swallowed.

    Returns (left, right, jaccard) with left < right, jaccard >= t.
    """
    threshold = threshold_num / threshold_den

    def explode(batch: pa.Table) -> pa.Table:
        txt = batch["text"]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(txt, "")
        h, starts = _batch_shingle_hashes(txt, shingle_k)
        n = batch.num_rows
        counts = np.diff(starts)
        seg = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((h, seg))
        hs, ss = h[order], seg[order]
        keep = (np.concatenate([[True], (hs[1:] != hs[:-1]) | (ss[1:] != ss[:-1])])
                if len(hs) else np.empty(0, bool))
        hs, ss = hs[keep], ss[keep]
        ucounts = np.bincount(ss, minlength=n)
        keys = batch[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)[ss]
        return pa.table({
            "sh": pa.array(hs.view(np.int64)),
            "key": pa.array(keys),
            "sz": pa.array(np.repeat(ucounts, ucounts)),
        })

    ex = ds.select_columns([key_col, "text"]).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True)
    pairs = _prefix_filter_pairs(ex, threshold_num=threshold_num,
                                 threshold_den=threshold_den, n_parts=n_parts,
                                 bucket_cap=bucket_cap, drop_counter=drop_counter)
    return verify_jaccard_pairs(ds, pairs, threshold=threshold,
                                shingle_k=shingle_k, key_col=key_col,
                                metric="jaccard", emit_counts=emit_counts)


def _prefix_filter_pairs(ex: Dataset, *, threshold_num: int, threshold_den: int,
                         n_parts: int, bucket_cap: int | None,
                         drop_counter=None) -> Dataset:
    """Shared AllPairs/PPJoin candidate machine over an exploded
    (``sh``, ``key``, ``sz``) element stream (one row per UNIQUE (doc,
    element)): global-df annotation per element bucket, (df asc, element
    asc) prefix selection per doc bucket with the exact integer prefix
    size, within-bucket pair generation under the exact length +
    positional filters, distributed pair dedup.  Used by both the
    text-shingle and token-set joins."""
    threshold = threshold_num / threshold_den

    def annotate_df(g: pd.DataFrame) -> pd.DataFrame:
        # a part holds EVERY (element, doc) row of its elements, so the
        # run length per element IS the global document frequency
        sh = g["sh"].to_numpy(dtype=np.int64)
        _, inv, cnt = np.unique(sh, return_inverse=True, return_counts=True)
        key = g["key"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "key": key,
            "sh": sh,
            "df": cnt[inv].astype(np.int64),
            "sz": g["sz"].to_numpy(dtype=np.int64),
        })

    def prefix_rows(g: pd.DataFrame) -> pd.DataFrame:
        key = g["key"].to_numpy(dtype=np.int64)
        sh = g["sh"].to_numpy(dtype=np.int64)
        df = g["df"].to_numpy(dtype=np.int64)
        sz = g["sz"].to_numpy(dtype=np.int64)
        order = np.lexsort((sh, df, key))  # per doc: (df asc, element asc)
        key, sh, df, sz = key[order], sh[order], df[order], sz[order]
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]])) \
            if len(key) else np.empty(0, dtype=np.int64)
        runlen = np.diff(np.concatenate([starts, [len(key)]]))
        pos = np.arange(len(key), dtype=np.int64) - np.repeat(starts, runlen)
        # exact integer prefix size: n - ceil(t*n) + 1, ceil via int div
        pi = sz - (threshold_num * sz + threshold_den - 1) // threshold_den + 1
        keep = (pos < np.maximum(pi, 1)) & (df >= 2)  # df=1 can't pair
        sh, key = sh[keep], key[keep]
        # pack (size, position) into one int64 payload for the pair stage.
        # The packing assumes per-doc distinct element count < 2^31 —
        # enforce it loudly rather than silently corrupting the exact
        # length/positional filters (ADVICE r3)
        if len(sz) and int(sz.max()) >= (1 << 31):
            raise ValueError(
                "prefix_jaccard_join: a document has >= 2^31 distinct "
                f"elements ({int(sz.max())}) — szpos int64 packing would "
                "overflow; widen the payload before rerunning")
        szpos = (sz[keep] << np.int64(31)) | pos[keep]
        return pd.DataFrame({"sh": sh, "key": key, "szpos": szpos})

    def cand_pairs(grp: pd.DataFrame) -> pd.DataFrame:
        sh = grp["sh"].to_numpy(dtype=np.int64)
        key = grp["key"].to_numpy(dtype=np.int64)
        szpos = grp["szpos"].to_numpy(dtype=np.int64)
        stats = DropStats()
        l, r, zl, zr = _pairs_within_runs(sh, key, bucket_cap,
                                          payload=szpos, stats=stats)
        _report_drops("prefix_jaccard_join", stats, drop_counter)
        if len(l):
            sl, pl = zl >> np.int64(31), zl & np.int64((1 << 31) - 1)
            sr, pr = zr >> np.int64(31), zr & np.int64((1 << 31) - 1)
            # PPJoin length filter, exact integers (prune-only, never lossy:
            # Jaccard >= t  ⟹  min(|A|,|B|) >= t * max(|A|,|B|))
            ok = (np.minimum(sl, sr) * threshold_den
                  >= np.maximum(sl, sr) * threshold_num)
            # PPJoin POSITIONAL filter (also exact): a pair meeting at
            # prefix positions (i, j) can overlap at most
            # min(|A|−i, |B|−j); Jaccard >= t needs overlap
            # >= ceil(t/(1+t)·(|A|+|B|)) = ceil(tn·(|A|+|B|)/(tn+td))
            alpha = ((threshold_num * (sl + sr) + threshold_num + threshold_den - 1)
                     // (threshold_num + threshold_den))
            ok &= np.minimum(sl - pl, sr - pr) >= alpha
            l, r = l[ok], r[ok]
        if not len(l):
            return pd.DataFrame({"left": pd.Series([], dtype="int64"),
                                 "right": pd.Series([], dtype="int64")})
        return pd.DataFrame({"left": l, "right": r}).drop_duplicates()

    by_doc = map_key_buckets(ex, ["sh"], annotate_df, n_parts=n_parts)
    pfx = map_key_buckets(by_doc, ["key"], prefix_rows, n_parts=n_parts)
    cand = map_key_buckets(pfx, ["sh"], cand_pairs, n_parts=n_parts)
    return _dedup_pairs(cand)


def _token_set_blobs(ds: Dataset, key_col: str, tokens_col: str) -> Dataset:
    """(key, blob) rows: each row's UNIQUE-sorted token VALUES (uint64)
    as one binary blob — the token-set analogue of ``_shingle_blobs``
    (no hashing needed: token ids are already a total order)."""

    def build(batch: pa.Table) -> pa.Table:
        col = batch[tokens_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.uint64)
        counts = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch.num_rows
        seg = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((flat, seg))
        hs, ss = flat[order], seg[order]
        keep = (np.concatenate([[True], (hs[1:] != hs[:-1]) | (ss[1:] != ss[:-1])])
                if len(hs) else np.empty(0, bool))
        hs, ss = hs[keep], ss[keep]
        ucounts = np.bincount(ss, minlength=n)
        ustarts = np.concatenate([[0], np.cumsum(ucounts)])
        blobs = [hs[ustarts[i]:ustarts[i + 1]].tobytes() for i in range(n)]
        return pa.table({
            "key": batch[key_col].cast(pa.int64()),
            "blob": pa.array(blobs, type=pa.large_binary()),
        })

    return ds.select_columns([key_col, tokens_col]).map_batches(
        build, batch_format="pyarrow", zero_copy_batch=True)


def token_prefix_jaccard_join(
    ds: Dataset,
    *,
    threshold_num: int = 1,
    threshold_den: int = 2,
    tokens_col: str = "tokens",
    key_col: str = "doc_id",
    n_parts: int = 64,
    bucket_cap: int = 4096,
    drop_counter=None,
    emit_counts: bool = False,
) -> Dataset:
    """Exact all-pairs Jaccard similarity join over TOKEN SETS — the
    prefix-filter join (:func:`prefix_jaccard_join`, same AllPairs/
    PPJoin machinery and exactness guarantees) applied to pre-tokenized
    corpora: each row's element set is its distinct token ids, no text
    or shingling anywhere.  The (df asc, token asc) order, integer
    prefix/length/positional filters, reported skew drops and exact
    blob verification are shared via ``_prefix_filter_pairs`` /
    ``verify_jaccard_pairs(blob_ds=...)``.

    Returns (left, right, jaccard) with left < right, jaccard >= t."""
    threshold = threshold_num / threshold_den

    def explode(batch: pa.Table) -> pa.Table:
        col = batch[tokens_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.uint64)
        counts = pc.list_value_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
        n = batch.num_rows
        seg = np.repeat(np.arange(n, dtype=np.int64), counts)
        order = np.lexsort((flat, seg))
        hs, ss = flat[order], seg[order]
        keep = (np.concatenate([[True], (hs[1:] != hs[:-1]) | (ss[1:] != ss[:-1])])
                if len(hs) else np.empty(0, bool))
        hs, ss = hs[keep], ss[keep]
        ucounts = np.bincount(ss, minlength=n)
        keys = batch[key_col].cast(pa.int64()).to_numpy(zero_copy_only=False)[ss]
        return pa.table({
            "sh": pa.array(hs.view(np.int64)),
            "key": pa.array(keys),
            "sz": pa.array(np.repeat(ucounts, ucounts)),
        })

    ex = ds.select_columns([key_col, tokens_col]).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True)
    pairs = _prefix_filter_pairs(ex, threshold_num=threshold_num,
                                 threshold_den=threshold_den, n_parts=n_parts,
                                 bucket_cap=bucket_cap, drop_counter=drop_counter)
    return verify_jaccard_pairs(ds, pairs, threshold=threshold, key_col=key_col,
                                metric="jaccard", emit_counts=emit_counts,
                                blob_ds=_token_set_blobs(ds, key_col, tokens_col))
