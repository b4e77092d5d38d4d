"""Shared hashing: the key-bucket shuffle and vectorized string hashes.

- ``map_key_buckets`` is the one key-grouped shuffle.  It buckets rows by
  the pandas hash of the key columns (``pd.util.hash_pandas_object``);
  ``engine.duplicate_keys``, the relational window/dedup operators and
  the catalog's per-key stages all group through it.
- ``hash64_strings`` / ``hash64_strings_multi`` are one FNV-1a walk over
  Arrow utf8 buffers, used where a hash is itself data: the dedup and
  bloom signatures, split/shuffle assignment and the masks over an
  already-hashed column (``dedup._by_coarse_part``); ``fmix64``
  finalizes it where the low bits must be well mixed."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

FNV_OFFSET = np.uint64(0xCBF29CE484222325)
FNV_PRIME = np.uint64(0x100000001B3)


def string_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets int64, data uint8) views of a string array's buffers."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if not pa.types.is_large_string(arr.type):
        arr = arr.cast(pa.large_string())
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int64, count=len(arr) + 1 + arr.offset)
    offsets = offsets[arr.offset:]
    data_buf = arr.buffers()[2]
    data = np.frombuffer(data_buf, dtype=np.uint8) if data_buf is not None else np.empty(0, np.uint8)
    return offsets, data


def hash64_strings(arr: pa.Array, offset: np.uint64 = FNV_OFFSET,
                   prime: np.uint64 = FNV_PRIME) -> np.ndarray:
    """Vectorized 64-bit FNV-1a over each string's utf8 bytes.  Pass a
    different (offset, prime) pair for an independent second hash."""
    return hash64_strings_multi(arr, [(offset, prime)])[0]


def hash64_strings_multi(
    arr: pa.Array, params: list[tuple[np.uint64, np.uint64]]
) -> list[np.ndarray]:
    """One byte-walk, N independent FNV accumulators (the alive/index
    gather is shared, so a 128-bit hash costs one walk, not two)."""
    offsets, data = string_buffers(arr)
    n = len(offsets) - 1
    outs = [np.full(n, off, dtype=np.uint64) for off, _p in params]
    lens = np.diff(offsets)
    maxlen = int(lens.max()) if n else 0
    with np.errstate(over="ignore"):
        for j in range(maxlen):
            alive = lens > j
            idx = offsets[:-1][alive] + j
            byte = data[idx].astype(np.uint64)
            for out, (_off, prime) in zip(outs, params):
                out[alive] = (out[alive] ^ byte) * prime
    return outs


def fmix64(h: np.ndarray) -> np.ndarray:
    """MurmurHash3's 64-bit finalizer (public domain, Appleby): full
    avalanche for weakly-mixed inputs (FNV high bits, sequential ints).
    Vectorized, wraparound multiply."""
    h = h.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        h ^= h >> np.uint64(33)
    return h


def fmix64_inplace(h: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """In-place fmix64 using a caller-provided shift scratch (same
    length) — zero allocations, for hot paths that must avoid the
    sandbox's fresh-large-allocation page-fault tax."""
    with np.errstate(over="ignore"):
        np.right_shift(h, np.uint64(33), out=tmp)
        np.bitwise_xor(h, tmp, out=h)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        np.right_shift(h, np.uint64(33), out=tmp)
        np.bitwise_xor(h, tmp, out=h)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        np.right_shift(h, np.uint64(33), out=tmp)
        np.bitwise_xor(h, tmp, out=h)
    return h


def map_key_buckets(ds, cols: list[str], fn, *, batch_format: str = "pandas", n_parts: int = 64):
    """The one key-grouped shuffle: ``fn`` over every key bucket of ``ds``.

    Each whole block is tagged with ``__part``, the pandas hash of its
    ``cols`` (``pd.util.hash_pandas_object`` of a Series for one column,
    of a DataFrame for more) masked to a power-of-two ``n_parts`` — a
    coarse bucket, never one group per key.  Only the key columns are
    converted to pandas.  The tagged rows are then grouped on ``__part``
    (Ray Data's sort shuffle) and ``fn`` sees each bucket once, with the
    ``__part`` column, in ``batch_format``: every row of a key reaches
    the same call.  A map-side combiner is a plain ``map_batches`` before
    this call."""
    import pandas as pd

    if n_parts < 1 or n_parts & (n_parts - 1):
        raise ValueError(f"n_parts must be a power of two (mask partitioning), got {n_parts}")
    mask = np.uint64(n_parts - 1)

    def tag(batch: pa.Table) -> pa.Table:
        keys = batch.select(cols).to_pandas()
        h = pd.util.hash_pandas_object(keys if len(cols) > 1 else keys[cols[0]], index=False)
        part = (h.to_numpy(dtype=np.uint64) & mask).astype(np.int32)
        return batch.append_column("__part", pa.array(part))

    tagged = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return tagged.groupby("__part").map_groups(fn, batch_format=batch_format)
