"""Flagship training-data curation pipeline: validate → exact-dedup →
curated corpus, end-to-end over the sequences table.

This is the composite a user of the reference validator actually runs
before training: drop every row with a validation violation
(filter_valid — jesse's pass verdict per document), then keep ONE row
per distinct token payload (exact dedup on a vectorized 128-bit
positional content hash), streaming the survivors to partitioned
parquet.  Two full-width passes total: the filter fuses with the read,
and the dedup shuffle moves each surviving row once — which a curated
write-out needs anyway — keyed by a ≤64-value coarse hash partition.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset

from jesse_ray.compiler import CompiledSpec, compile_spec
from jesse_ray.engine import filter_valid, prepare_compiled
from jesse_ray.functions.dedup import add_token_hash
from jesse_ray.hashutil import map_key_buckets
from jesse_ray.spec import TableSpec


def curate_sequences(
    ds: Dataset,
    spec: TableSpec | CompiledSpec,
    *,
    tokens_col: str = "tokens",
    key_col: str = "doc_id",
    n_parts: int = 64,
    batch_size: int = 8192,
    include_referential: bool = True,
) -> Dataset:
    """Rows passing EVERY check (row-level keywords AND the referential
    dimension rules — jesse's full pass verdict), deduplicated to the
    first row per distinct token payload (smallest ``key_col`` within
    each content-hash group)."""
    compiled = spec if isinstance(spec, CompiledSpec) else compile_spec(spec)
    compiled = prepare_compiled(compiled, ds)
    clean = filter_valid(
        ds, compiled, batch_size=batch_size, include_referential=include_referential
    )
    hashed = add_token_hash(clean, tokens_col)

    # Arrow end-to-end through the shuffle: a pandas round-trip here
    # would convert every token list to a per-row Python/numpy object
    # (measured 2-3x the whole pipeline's wall time at sf0.1) just to
    # drop duplicates
    def first(g: pa.Table) -> pa.Table:
        t = g.sort_by([("content_hash", "ascending"), (key_col, "ascending")])
        col = t["content_hash"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        keep = np.ones(t.num_rows, dtype=bool)
        if t.num_rows > 1:
            neq = pc.not_equal(col.slice(1), col.slice(0, len(col) - 1))
            keep[1:] = neq.to_numpy(zero_copy_only=False)
        return t.filter(pa.array(keep)).drop_columns(["content_hash"])

    return map_key_buckets(hashed, ["content_hash"], first, batch_format="pyarrow", n_parts=n_parts)
