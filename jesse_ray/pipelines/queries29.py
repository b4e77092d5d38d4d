"""Catalog wave 29: corpus integrity manifest — a two-level Merkle
digest over deterministic corpus partitions (the shard-fixity
primitive: a resumable 100-TB pipeline detects corrupted / modified /
reordered shards by comparing 16 partition digests instead of
re-hashing content against a remote copy byte-by-byte).

Same driver contract as :mod:`.queries`; digests are md5 hex so the
DuckDB twin recomputes them with its built-in md5() over the exact
same canonical row serialization and ordering rules.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray.pipelines.queries import entry


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


MERKLE_PARTS = 16


def _merkle_sql() -> str:
    from jesse_ray.pipelines.queries import SEQ_SQL

    return f"""
WITH r AS MATERIALIZED (
  SELECT coalesce(
           CASE WHEN doc_id IS NOT NULL AND starts_with(doc_id, 'doc-')
                THEN TRY_CAST(doc_id[5:] AS BIGINT) % {MERKLE_PARTS} END,
           -1) AS p,
         md5(coalesce(doc_id, '\\N') || '|'
             || coalesce(CAST(n_tok AS VARCHAR), '\\N') || '|'
             || coalesce(source, '\\N') || '|'
             || CASE WHEN tokens IS NULL THEN '\\N'
                     ELSE array_to_string(tokens, ',') END) AS rh
  FROM {SEQ_SQL}
),
pd AS MATERIALIZED (
  SELECT p, md5(string_agg(rh, '' ORDER BY rh)) AS digest,
         CAST(count(*) AS BIGINT) AS n_rows
  FROM r GROUP BY p
),
root AS (SELECT md5(string_agg(digest, '' ORDER BY p)) AS v FROM pd)
SELECT p AS partition, digest, n_rows, (SELECT v FROM root) AS root
FROM pd ORDER BY partition
"""


@entry("seq_merkle_manifest", sql=_merkle_sql())
def q_seq_merkle_manifest(sf_dir: str) -> pd.DataFrame:
    """Two-level integrity digest of the (dirty) sequences corpus.

    Row hash = md5 of the canonical serialization
    ``coalesce(doc_id,'\\N') | n_tok | source | tokens joined by ','``
    (nulls spelled ``\\N``); partition = numeric doc-id suffix mod 16
    (malformed / null ids land in partition -1) — a rule both engines
    state in one line.  Level 1: per-partition digest = md5 of the
    row hashes concatenated in sorted order (sorting by the HASH makes
    the digest insensitive to scan order but sensitive to any content
    change; equal hashes concatenate identically).  Level 2: root =
    md5 of the partition digests in partition order.  Distributed
    shape: per-batch row hashing (hashlib over a vectorized canonical
    string column), ONE 17-key shuffle of (partition, row-hash), per-
    partition sort + chain."""
    from jesse_ray.pipelines.queries import _seq_path
    from jesse_ray.sources import read_sequences

    ds = read_sequences(_seq_path(sf_dir))

    def row_hashes(b: pa.Table) -> pa.Table:
        ids = b["doc_id"].to_pylist()
        nts = b["n_tok"].to_pylist()
        srcs = b["source"].to_pylist()
        toks = b["tokens"].to_pylist()
        rh = []
        pnum = np.full(b.num_rows, -1, dtype=np.int64)
        for i in range(b.num_rows):
            tok_s = ",".join(map(str, toks[i])) if toks[i] is not None else "\\N"
            canon = (f"{ids[i] if ids[i] is not None else chr(92) + 'N'}|"
                     f"{nts[i] if nts[i] is not None else chr(92) + 'N'}|"
                     f"{srcs[i] if srcs[i] is not None else chr(92) + 'N'}|{tok_s}")
            rh.append(hashlib.md5(canon.encode()).hexdigest())
            d = ids[i]
            if d is not None and d.startswith("doc-"):
                try:
                    pnum[i] = int(d[4:]) % MERKLE_PARTS
                except ValueError:
                    pass
        return pa.table({"p": pa.array(pnum), "rh": pa.array(rh)})

    t = _collect(ds.map_batches(row_hashes, batch_format="pyarrow",
                                zero_copy_batch=True)).to_pandas()
    rows = []
    for p, g in t.groupby("p", sort=True):
        chain = "".join(sorted(g["rh"].tolist()))
        rows.append((int(p), hashlib.md5(chain.encode()).hexdigest(),
                     len(g)))
    pdf = pd.DataFrame(rows, columns=["partition", "digest", "n_rows"])
    root = hashlib.md5("".join(pdf["digest"]).encode()).hexdigest()
    pdf["root"] = root
    pdf["n_rows"] = pdf["n_rows"].astype("int64")
    pdf["partition"] = pdf["partition"].astype("int64")
    return pdf

