"""Shared hashing: the one key -> part function, the key-bucket shuffle
and vectorized string hashes.

- ``key_parts`` is the one key -> part decision, computed on the Arrow
  columns (no pandas, no Python objects): multiply-shift for integers
  and other fixed-width keys, FNV-1a for strings and binaries, fmix64 of
  the canonical bits for floats.  ``events_skew_report``'s SQL twin
  re-derives its integer values, so the partitioning math is proved
  against DuckDB.
- ``map_key_buckets`` is the one key-grouped shuffle: it tags rows with
  ``key_parts`` of the key columns and groups on the tag.
  ``engine.duplicate_keys``, the relational joins and window operators,
  the dedup, graph and text stages and the catalog's per-key stages all
  group through it; no other module makes a bucket column.
- ``hash64_strings`` / ``hash64_strings_multi`` are one FNV-1a walk over
  Arrow utf8 buffers, also used where a hash is itself data: the dedup
  and bloom signatures and split/shuffle assignment; ``fmix64``
  finalizes it where the low bits must be well mixed."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

FNV_OFFSET = np.uint64(0xCBF29CE484222325)
FNV_PRIME = np.uint64(0x100000001B3)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def string_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets int64, data uint8) views of a string or binary array's
    buffers (a fixed-size binary is cast to large_binary)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    t = arr.type
    if pa.types.is_binary(t) or pa.types.is_fixed_size_binary(t):
        arr = arr.cast(pa.large_binary())
    elif not (pa.types.is_large_string(t) or pa.types.is_large_binary(t)):
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


def key_parts(keys, n_parts: int) -> np.ndarray:
    """The one key -> part function: int32 bucket ids in ``[0, n_parts)``
    for a key array, or a list of arrays for a key of several columns.

    One column hashes by its type, nulls always to 0:

    - integers (any width, signed or not), booleans, dates, times,
      timestamps and durations: multiply-shift of the int64 value,
      ``(v * 0x9E3779B97F4A7C15 mod 2^64) >> 33`` — ``events_skew_report``'s
      SQL twin re-derives it;
    - strings and binaries (large, small or fixed-size): FNV-1a over the
      bytes (``hash64_strings``);
    - floats: ``fmix64`` of the float64 bits, with -0.0 made 0.0 and
      every NaN one NaN.

    A key of several columns folds the column hashes through ``fmix64``.
    Equal values land in one part whatever their width, chunking or
    string/large_string layout.  Any other type raises ``TypeError``.
    ``n_parts`` must be a power of two: the part is a mask, never the
    div unit."""
    mask = _part_mask(n_parts)
    cols = [keys] if isinstance(keys, (pa.Array, pa.ChunkedArray)) else list(keys)
    h = _column_hash(cols[0])
    with np.errstate(over="ignore"):
        for col in cols[1:]:
            h = fmix64(h * FNV_PRIME + _column_hash(col))
    return (h & mask).astype(np.int32)


def _part_mask(n_parts: int) -> np.uint64:
    if n_parts < 1 or n_parts & (n_parts - 1):
        raise ValueError(f"n_parts must be a power of two (mask partitioning), got {n_parts}")
    return np.uint64(n_parts - 1)


def _column_hash(arr) -> np.ndarray:
    """uint64 hash per value of one key column (see ``key_parts``)."""
    if isinstance(arr, pa.ChunkedArray):
        return np.concatenate([np.empty(0, np.uint64), *(_column_hash(c) for c in arr.chunks)])
    t = arr.type
    if pa.types.is_floating(t):
        v = pc.fill_null(arr.cast(pa.float64()), 0.0).to_numpy()
        v = np.where(np.isnan(v), np.nan, v + 0.0)  # -0.0 + 0.0 is 0.0
        h = fmix64(v.view(np.uint64))
    elif (pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t)
          or pa.types.is_large_binary(t) or pa.types.is_fixed_size_binary(t)):
        h = hash64_strings(arr)
    else:
        if pa.types.is_temporal(t):
            arr = arr.view(pa.int32() if t.bit_width == 32 else pa.int64())
        elif not (pa.types.is_integer(t) or pa.types.is_boolean(t)):
            # a decimal or nested key has no canonical hash here — fail
            # loudly rather than split equal keys across parts
            raise TypeError(f"unsupported partition key type {t}; cast to int or string")
        v = pc.fill_null(arr.cast(pa.int64(), safe=False), 0).to_numpy().astype(np.uint64)
        with np.errstate(over="ignore"):
            h = (v * _GOLDEN) >> np.uint64(33)
    if arr.null_count:
        h[~pc.is_valid(arr).to_numpy(zero_copy_only=False)] = 0
    return h


def map_key_buckets(ds, cols: list[str], fn, *, batch_format: str = "pandas", n_parts: int = 64):
    """The one key-grouped shuffle: ``fn`` over every key bucket of ``ds``.

    Each whole block is tagged with ``__part = key_parts(<cols>, n_parts)``
    — a coarse bucket, never one group per key — computed on the Arrow
    columns (no pandas), grouped on it (Ray Data's sort shuffle), and
    ``fn`` sees each bucket once, without the tag, in ``batch_format``:
    every row of a key reaches the same call.  A map-side combiner is a
    plain ``map_batches`` before this call; a two-sided cogroup unions
    both sides (one schema, a side column) before it."""
    from ray.data.block import BlockAccessor

    _part_mask(n_parts)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column("__part", pa.array(key_parts([batch[c] for c in cols], n_parts)))

    def bucket(group: pa.Table):
        return fn(BlockAccessor.for_block(group.drop_columns(["__part"])).to_batch_format(batch_format))

    bucket.__name__ = getattr(fn, "__name__", "bucket")
    tagged = ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
    return tagged.groupby("__part").map_groups(bucket, batch_format="pyarrow")
