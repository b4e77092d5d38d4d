"""The query catalog: one entry per operator/pipeline (SURVEY §2), each
with a DuckDB-oracle SQL twin where SQL can express it.

Contract (driver): each callable takes ``sf_dir`` (a /root/testdata/sfX
directory) and returns a Dataset / DataFrame / pyarrow Table whose
column NAMES and VALUES match the oracle SQL exactly (the driver
compares order-insensitively after sorting columns by name).

The sequences corpus (BASELINE.json input_hint shape) is synthesized
deterministically by :mod:`jesse_ray.testgen` under /tmp; oracle SQL for
those queries reads the same parquet via ``read_parquet`` (the driver
runs oracles at sf0.01 only, so the oracle strings hardcode the sf0.01
corpus path).

Float discipline: aggregate outputs that are sums of doubles are
``round(x, 2)`` on BOTH sides; counts/mins/maxes/sums of integers are
cast to int64/BIGINT so hashes are exact.

Registration: every entry is one ``@entry(name, sql=...)`` line on its
function, in this module or in any other module of
:mod:`jesse_ray.pipelines`.  :func:`queries` / :func:`oracle_sql` import
every module of the package and return the registry's two views; this
module imports none of them when it loads (they import :func:`entry`
and helpers from here).
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from pathlib import Path
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from jesse_ray import testgen
from jesse_ray.compiler import compile_spec
from jesse_ray.engine import (
    duplicate_keys,
    filter_valid,
    row_violations,
    validate_dataset,
)
from jesse_ray.pipelines.relational import (
    broadcast_join,
    grouped_agg,
    grouped_count_distinct,
    tumbling_window,
)
from jesse_ray.sources import read_sequences, read_table
from jesse_ray.spec import ColumnSpec, ConsistencyRule, TableSpec, sequences_spec
from jesse_ray.rounding import round_half_away

SEQ_SQL = "read_parquet('/tmp/jesse_ray_data/sf0.01/sequences.parquet')"
ALLOWED = list(testgen.SOURCES)
ALLOWED_SQL = ", ".join(f"'{s}'" for s in ALLOWED)
DOC_LANGS = ["en", "de", "fr", "es"]  # zh intentionally excluded → violations
DOC_LANGS_SQL = ", ".join(f"'{x}'" for x in DOC_LANGS)


def _seq_path(sf_dir: str) -> str:
    sf = testgen.sf_name_of(sf_dir)
    testgen.generate(sf)
    return str(testgen.corpus_path(sf))


def _seq_spec() -> TableSpec:
    return sequences_spec(allowed_sources=ALLOWED)


def _collect(ds) -> pa.Table:
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    return pa.concat_tables(batches) if batches else None


# name -> (query function, DuckDB twin SQL)
_CATALOG: dict[str, tuple[Callable, str]] = {}


def entry(name: str, *, sql: str) -> Callable[[Callable], Callable]:
    """Register the decorated function as catalog entry ``name`` with its
    oracle ``sql`` and return the function unchanged.  A name that is
    already registered raises ``ValueError``: no entry silently shadows
    another."""
    if not isinstance(sql, str) or not sql.strip():
        raise ValueError(f"catalog entry {name!r}: sql must be a non-empty str")

    def register(fn: Callable) -> Callable:
        if name in _CATALOG:
            prev = _CATALOG[name][0]
            raise ValueError(
                f"catalog entry {name!r} is already registered by "
                f"{prev.__module__}.{prev.__qualname__}"
            )
        _CATALOG[name] = (fn, sql)
        return fn

    return register


def _load_catalog() -> dict[str, tuple[Callable, str]]:
    """Import every module of :mod:`jesse_ray.pipelines`, which runs
    their ``@entry`` registrations, and return the registry."""
    import jesse_ray.pipelines as pkg

    for mod in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{pkg.__name__}.{mod.name}")
    return _CATALOG


def queries() -> dict[str, Callable]:
    # ensure the corpora the driver's oracle SQL reads exist before any
    # SQL runs (sf0.1 is generated lazily by bench.py only)
    testgen.generate("sf0.001")
    testgen.generate("sf0.01")
    return {name: fn for name, (fn, _) in _load_catalog().items()}


def oracle_sql() -> dict[str, str]:
    return {name: sql for name, (_, sql) in _load_catalog().items()}


# ---------------------------------------------------------------------------
# sequences-corpus validation queries (engine ↔ SQL twins)


SQL_SEQ_VAL_CONSISTENCY = f"""
SELECT doc_id,
       CAST(len(tokens) AS BIGINT) AS len_tokens,
       CAST(n_tok AS BIGINT) AS n_tok,
       'wrong_size' AS error
FROM {SEQ_SQL}
WHERE len(tokens) != n_tok
"""


@entry("seq_val_consistency", sql=SQL_SEQ_VAL_CONSISTENCY)
def q_seq_val_consistency(sf_dir: str) -> pa.Table:
    """wrong_size rows: len(tokens) != n_tok (ConsistencyRule list_len_eq)."""
    ds = read_sequences(_seq_path(sf_dir))

    def find(batch: pa.Table) -> pa.Table:
        toks = batch["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        ln = pc.list_value_length(toks).cast(pa.int64())
        nt = batch["n_tok"].cast(pa.int64())
        bad = pc.not_equal(ln, nt)
        t = batch.filter(bad)
        ln_b = pc.list_value_length(t["tokens"]).cast(pa.int64())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "len_tokens": ln_b,
                "n_tok": t["n_tok"].cast(pa.int64()),
                "error": pa.array(["wrong_size"] * t.num_rows, type=pa.string()),
            }
        )

    return _collect(ds.map_batches(find, batch_format="pyarrow", zero_copy_batch=True))


SQL_SEQ_VAL_NTOK_RANGE = f"""
SELECT doc_id, CAST(n_tok AS BIGINT) AS n_tok, 'not_in_range' AS error
FROM {SEQ_SQL}
WHERE n_tok < 1 OR n_tok > 2048
"""


@entry("seq_val_ntok_range", sql=SQL_SEQ_VAL_NTOK_RANGE)
def q_seq_val_ntok_range(sf_dir: str) -> pa.Table:
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "n_tok"])

    def find(batch: pa.Table) -> pa.Table:
        nt = batch["n_tok"].cast(pa.int64())
        bad = pc.or_(pc.less(nt, 1), pc.greater(nt, 2048))
        t = batch.filter(bad)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tok": t["n_tok"].cast(pa.int64()),
                "error": pa.array(["not_in_range"] * t.num_rows, type=pa.string()),
            }
        )

    return _collect(ds.map_batches(find, batch_format="pyarrow", zero_copy_batch=True))


SQL_SEQ_VAL_SOURCE_ENUM = f"""
SELECT doc_id, source, 'not_in_enum' AS error
FROM {SEQ_SQL}
WHERE source NOT IN ({ALLOWED_SQL})
"""


@entry("seq_val_source_enum", sql=SQL_SEQ_VAL_SOURCE_ENUM)
def q_seq_val_source_enum(sf_dir: str) -> pa.Table:
    """Referential check alone: the fused pass over a referential-only
    spec (zero row checks, no uniqueness) with the broadcast dimension."""
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "source"])
    spec = TableSpec(key_column="doc_id", referential=_seq_spec().referential)
    v = validate_dataset(ds, spec, check_unique=False).all_violations_table()
    src = pa.array([json.loads(x) for x in v["value_json"].to_pylist()], type=pa.string())
    return pa.table({"doc_id": v["doc_id"], "source": src, "error": v["error"]})


SQL_SEQ_VAL_REQUIRED = f"""
SELECT 'missing_required_property' AS error, CAST(count(*) AS BIGINT) AS cnt
FROM {SEQ_SQL} WHERE doc_id IS NULL
"""


@entry("seq_val_required", sql=SQL_SEQ_VAL_REQUIRED)
def q_seq_val_required(sf_dir: str) -> pd.DataFrame:
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id"])

    def cnt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows - pc.sum(pc.is_valid(batch["doc_id"]).cast(pa.int64())).as_py()
        return pa.table({"p": pa.array([n], type=pa.int64())})

    total = sum(
        sum(b["p"].to_pylist())
        for b in ds.map_batches(cnt, batch_format="pyarrow").iter_batches(batch_format="pyarrow")
    )
    return pd.DataFrame({"error": ["missing_required_property"], "cnt": pd.array([total], dtype="int64")})


SQL_SEQ_VAL_PATTERN = f"""
SELECT doc_id, 'no_match' AS error
FROM {SEQ_SQL}
WHERE doc_id IS NOT NULL AND NOT regexp_matches(doc_id, '^doc-[0-9]{{8}}$')
"""


@entry("seq_val_pattern", sql=SQL_SEQ_VAL_PATTERN)
def q_seq_val_pattern(sf_dir: str) -> pa.Table:
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id"])

    def find(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"]
        ok = pc.match_substring_regex(d, r"^doc-[0-9]{8}$")
        bad = pc.and_(pc.is_valid(d), pc.invert(pc.fill_null(ok, False)))
        t = batch.filter(bad)
        return pa.table(
            {"doc_id": t["doc_id"], "error": pa.array(["no_match"] * t.num_rows, type=pa.string())}
        )

    return _collect(ds.map_batches(find, batch_format="pyarrow", zero_copy_batch=True))


SQL_SEQ_VAL_TOKEN_BOUNDS = f"""
SELECT doc_id, CAST(t AS BIGINT) AS token, 'not_in_range' AS error
FROM (SELECT doc_id, unnest(tokens) AS t FROM {SEQ_SQL})
WHERE t < 0 OR t >= {testgen.VOCAB}
"""


@entry("seq_val_token_bounds", sql=SQL_SEQ_VAL_TOKEN_BOUNDS)
def q_seq_val_token_bounds(sf_dir: str) -> pa.Table:
    """Per-element bounds via the compiled items check (vectorized
    flatten + parent-index mapping)."""
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens"])
    spec = TableSpec(key_column="doc_id")
    spec.columns["tokens"] = ColumnSpec(
        items=ColumnSpec(minimum=0, maximum=testgen.VOCAB, exclusive_maximum=True)
    )
    compiled = compile_spec(spec)
    v = _collect(row_violations(ds, compiled))
    if v is None or v.num_rows == 0:
        return pa.table(
            {"doc_id": pa.array([], type=pa.string()),
             "token": pa.array([], type=pa.int64()),
             "error": pa.array([], type=pa.string())}
        )
    tok = pa.array([int(json.loads(x)) for x in v["value_json"].to_pylist()], type=pa.int64())
    return pa.table({"doc_id": v["doc_id"], "token": tok, "error": v["error"]})


SQL_SEQ_VAL_DOCID_DUPS = f"""
SELECT doc_id, CAST(count(*) AS BIGINT) AS cnt
FROM {SEQ_SQL}
WHERE doc_id IS NOT NULL
GROUP BY doc_id HAVING count(*) > 1
"""


@entry("seq_val_docid_dups", sql=SQL_SEQ_VAL_DOCID_DUPS)
def q_seq_val_docid_dups(sf_dir: str) -> pa.Table:
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id"])
    dups = duplicate_keys(ds, "doc_id")
    t = _collect(dups)
    if t is None:
        return pa.table({"doc_id": pa.array([], type=pa.string()), "cnt": pa.array([], type=pa.int64())})
    return pa.table({"doc_id": t["doc_id"], "cnt": t["cnt"].cast(pa.int64())})


SQL_SEQ_STATS_BY_SOURCE = f"""
SELECT source,
       CAST(count(*) AS BIGINT) AS cnt,
       CAST(min(n_tok) AS BIGINT) AS min_n_tok,
       CAST(max(n_tok) AS BIGINT) AS max_n_tok,
       CAST(sum(n_tok) AS BIGINT) AS sum_n_tok
FROM {SEQ_SQL} GROUP BY source
"""


@entry("seq_stats_by_source", sql=SQL_SEQ_STATS_BY_SOURCE)
def q_seq_stats_by_source(sf_dir: str) -> pa.Table:
    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"])
    out = grouped_agg(ds, ["source"], sums=["n_tok"], mins=["n_tok"], maxs=["n_tok"])
    t = _collect(out)
    return pa.table(
        {
            "source": t["source"],
            "cnt": t["cnt"].cast(pa.int64()),
            "min_n_tok": t["min_n_tok"].cast(pa.int64()),
            "max_n_tok": t["max_n_tok"].cast(pa.int64()),
            "sum_n_tok": t["sum_n_tok"].cast(pa.int64()),
        }
    )


SQL_SEQ_OOV = f"""
WITH vocab AS (
  SELECT DISTINCT unnest(tokens) AS t FROM {SEQ_SQL} WHERE source = 'books'
),
f AS (SELECT source, unnest(tokens) AS t FROM {SEQ_SQL})
SELECT source,
       CAST(count(*) FILTER (WHERE v.t IS NULL) AS BIGINT) AS n_oov,
       CAST(count(*) AS BIGINT) AS n_tok
FROM f LEFT JOIN vocab v ON f.t = v.t
GROUP BY source ORDER BY source
"""


@entry("seq_oov", sql=SQL_SEQ_OOV)
def q_seq_oov(sf_dir: str) -> pa.Table:
    """Vocabulary coverage: token occurrences outside the 'books'
    reference vocabulary, per source.  Vocab built distributedly
    (map-side uniques, driver union — bounded by vocab size), broadcast
    once, then one sorted-membership probe per batch with per-group
    partial sums (seqops.token_vocabulary / oov_stats_by_group)."""
    from jesse_ray.functions.seqops import oov_stats_by_group, token_vocabulary

    ref = read_sequences(_seq_path(sf_dir), columns=["source", "tokens"])
    vocab = token_vocabulary(
        ref.filter(expr="source == 'books'"), tokens_col="tokens"
    )
    out = oov_stats_by_group(
        read_sequences(_seq_path(sf_dir), columns=["source", "tokens"]), vocab
    )
    t = _collect(out)
    return pa.table(
        {
            "source": t["source"],
            "n_oov": t["n_oov"].cast(pa.int64()),
            "n_tok": t["n_tok"].cast(pa.int64()),
        }
    ).sort_by("source")


SQL_SEQ_DISTINCT_TOKENS_BY_SOURCE = f"""
SELECT source, CAST(count(DISTINCT t) AS BIGINT) AS n_distinct_tokens
FROM (SELECT source, unnest(tokens) AS t FROM {SEQ_SQL})
GROUP BY source
"""


@entry("seq_distinct_tokens_by_source", sql=SQL_SEQ_DISTINCT_TOKENS_BY_SOURCE)
def q_seq_distinct_tokens_by_source(sf_dir: str) -> pa.Table:
    """KVC @distinctUnionOfArrays analogue: distinct token ids per
    source (map-side flatten+unique, shuffle carries distinct pairs)."""
    from jesse_ray.pipelines.relational import grouped_distinct_elements

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "tokens"])
    out = grouped_distinct_elements(ds, "source", "tokens", alias="n_distinct_tokens")
    t = _collect(out)
    return pa.table(
        {
            "source": t["source"],
            "n_distinct_tokens": t["n_distinct_tokens"].cast(pa.int64()),
        }
    )


SQL_SEQ_TOP_DOCS_BY_SOURCE = f"""
SELECT source, doc_id, CAST(n_tok AS BIGINT) AS n_tok
FROM (
  SELECT source, doc_id, n_tok,
         row_number() OVER (PARTITION BY source ORDER BY n_tok DESC, doc_id) AS rn
  FROM {SEQ_SQL} WHERE doc_id IS NOT NULL
) WHERE rn <= 2
"""


@entry("seq_top_docs_by_source", sql=SQL_SEQ_TOP_DOCS_BY_SOURCE)
def q_seq_top_docs_by_source(sf_dir: str) -> pa.Table:
    """Ranked-window analogue: the 2 longest documents per source
    (ROW_NUMBER over partition), deterministic via doc_id tie-break."""
    from jesse_ray.pipelines.relational import grouped_topn

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "doc_id", "n_tok"])

    def drop_null(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch["doc_id"]))

    out = grouped_topn(
        ds.map_batches(drop_null, batch_format="pyarrow"),
        ["source"], "n_tok", 2, descending=True, tiebreak="doc_id",
    )
    t = _collect(out)
    return pa.table(
        {
            "source": t["source"],
            "doc_id": t["doc_id"],
            "n_tok": t["n_tok"].cast(pa.int64()),
        }
    )


SQL_SEQ_DEDUP_EXACT = f"""
SELECT CAST(count(*) AS BIGINT) AS dup_groups,
       CAST(coalesce(sum(cnt), 0) AS BIGINT) AS dup_rows
FROM (SELECT count(*) AS cnt FROM {SEQ_SQL} GROUP BY tokens HAVING count(*) > 1)
"""


@entry("seq_dedup_exact", sql=SQL_SEQ_DEDUP_EXACT)
def q_seq_dedup_exact(sf_dir: str) -> pd.DataFrame:
    """Exact dedup over the token payload: hash tokens per batch →
    two-phase group count → groups with >1 row."""
    import hashlib

    from ray.data.aggregate import Sum

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])

    def partial(batch: pa.Table) -> pa.Table:
        col = batch["tokens"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
        offs = np.concatenate([[0], np.cumsum(lens)])
        hashes = [
            hashlib.blake2b(flat[offs[i] : offs[i + 1]].tobytes(), digest_size=16).hexdigest()
            for i in range(len(lens))
        ]
        t = pa.table({"h": pa.array(hashes, type=pa.string())})
        g = t.group_by("h").aggregate([([], "count_all")])
        return g.rename_columns(["h", "p"])

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    counts = partials.groupby("h").aggregate(Sum("p", alias_name="cnt"))
    dup_groups = 0
    dup_rows = 0
    for b in counts.iter_batches(batch_format="pyarrow"):
        c = b["cnt"].to_numpy(zero_copy_only=False)
        dup = c[c > 1]
        dup_groups += int(len(dup))
        dup_rows += int(dup.sum())
    return pd.DataFrame(
        {"dup_groups": pd.array([dup_groups], dtype="int64"), "dup_rows": pd.array([dup_rows], dtype="int64")}
    )


# the clean-row predicate mirrors SQL_SEQ_VAL_CLEAN_COUNT; keep-first per
# distinct token payload = min(doc_id) per tokens group
SQL_SEQ_CURATED = f"""
WITH clean AS (
  SELECT doc_id, tokens FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL
    AND regexp_matches(doc_id, '^doc-[0-9]{{8}}$')
    AND len(tokens) = n_tok
    AND n_tok BETWEEN 1 AND 2048
    AND len(tokens) BETWEEN 1 AND 2048
    AND len(list_filter(tokens, x -> x < 0 OR x >= {testgen.VOCAB})) = 0
    AND source IS NOT NULL
    AND source IN ({ALLOWED_SQL})
), kept AS (
  SELECT min(doc_id) AS doc_id FROM clean GROUP BY tokens
)
SELECT CAST(count(*) AS BIGINT) AS curated_rows,
       substr(sha256(string_agg(doc_id, chr(10) ORDER BY doc_id)), 1, 16) AS ids_sha
FROM kept
"""


@entry("seq_curated", sql=SQL_SEQ_CURATED)
def q_seq_curated(sf_dir: str) -> pd.DataFrame:
    """Flagship curation pipeline end-to-end: rows passing EVERY check
    (row-level keywords AND the referential source dimension),
    deduplicated to one row per distinct token payload (keep smallest
    doc_id).  The SQL twin re-derives both counts AND a checksum of the
    surviving doc_ids, so the validate→filter→dedup composition is
    verified exactly."""
    from jesse_ray.pipelines.curate import curate_sequences

    ds = read_sequences(_seq_path(sf_dir))
    curated = curate_sequences(ds, _seq_spec())
    t = _collect(curated.select_columns(["doc_id"]))
    ids = sorted(t["doc_id"].to_pylist())
    import hashlib as _hl

    digest = _hl.sha256("\n".join(ids).encode()).hexdigest()[:16]
    return pd.DataFrame(
        {"curated_rows": pd.array([len(ids)], dtype="int64"), "ids_sha": [digest]}
    )


SQL_SEQ_HASH_SPLIT = f"""
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/split_sigs_sf0.01.parquet'))
SELECT split, CAST(count(*) AS BIGINT) AS cnt FROM s
GROUP BY split
HAVING (SELECT count(*) FROM s) = (SELECT count(*) FROM {SEQ_SQL})
ORDER BY split
"""


@entry("seq_hash_split", sql=SQL_SEQ_HASH_SPLIT)
def q_seq_hash_split(sf_dir: str) -> pd.DataFrame:
    """Deterministic hash split (80/10/10 on doc_id): the assignment
    parquet is written as a side input and the SQL twin re-derives the
    per-split counts AND verifies the split is a PARTITION (every row in
    exactly one split; counts sum to the corpus)."""
    from jesse_ray.functions.split import add_hash_split

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id"])
    out = add_hash_split(ds, "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1})
    t = _collect(out)
    pq.write_table(t.sort_by("doc_id"), _sig_parquet_path(sf_dir, "split"))
    g = t.group_by("split").aggregate([([], "count_all")]).rename_columns(["split", "cnt"])
    pdf = g.to_pandas().sort_values("split").reset_index(drop=True)
    pdf["cnt"] = pdf["cnt"].astype("int64")
    return pdf


SAMPLE_RATES = {"web": 0.2, "books": 0.5, "code": 0.25, "wiki": 1.0, "forums": 0.0}


SQL_SEQ_STRATIFIED_SAMPLE = f"""
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/strat_sample_sigs_sf0.01.parquet')),
corpus AS (SELECT * FROM {SEQ_SQL}),
ok AS (
  SELECT (SELECT count(*) FROM s WHERE NOT EXISTS (
            SELECT 1 FROM corpus c
            WHERE c.doc_id IS NOT DISTINCT FROM s.doc_id
              AND c.source IS NOT DISTINCT FROM s.source)) = 0
     AND (SELECT count(*) FROM s WHERE source = 'wiki') =
         (SELECT count(*) FROM corpus WHERE source = 'wiki')
     AND (SELECT count(*) FROM s WHERE source = 'forums') = 0 AS good
)
SELECT source, CAST(count(*) AS BIGINT) AS cnt FROM s GROUP BY source
HAVING (SELECT good FROM ok)
ORDER BY source
"""


@entry("seq_stratified_sample", sql=SQL_SEQ_STRATIFIED_SAMPLE)
def q_seq_stratified_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic per-source downsampling (corpus mixing): keep-rate
    by stratum via the fmix64 hash threshold.  The SQL twin verifies the
    sample is a true subset (every sampled (doc_id, source) exists in
    the corpus), that the rate-1.0 stratum is kept in full and the
    rate-0.0 stratum fully dropped, then re-derives per-source counts
    from the assignment sidecar."""
    from jesse_ray.functions.split import stratified_hash_sample

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "source"])
    out = stratified_hash_sample(ds, "doc_id", SAMPLE_RATES, strata_col="source")
    t = _collect(out)
    pq.write_table(t.sort_by("doc_id"), _sig_parquet_path(sf_dir, "strat_sample"))
    g = t.group_by("source").aggregate([([], "count_all")]).rename_columns(["source", "cnt"])
    pdf = g.to_pandas().sort_values("source").reset_index(drop=True)
    pdf["cnt"] = pdf["cnt"].astype("int64")
    return pdf


SQL_SEQ_TEMPERATURE_SAMPLE = f"""
WITH corpus AS (SELECT doc_id, source FROM {SEQ_SQL}),
n AS (SELECT source, CAST(count(*) AS DOUBLE) AS n FROM corpus WHERE source IS NOT NULL GROUP BY source),
tot AS (SELECT sum(n) AS N FROM n),
qs AS (SELECT source, n, pow(n / (SELECT N FROM tot), 0.5) AS q FROM n),
qn AS (SELECT sum(q) AS Q FROM qs),
r AS (
  SELECT source, n,
         least(1.0, 0.5 * (SELECT N FROM tot) * (q / (SELECT Q FROM qn)) / greatest(n, 1.0)) AS rate
  FROM qs
),
s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/temp_sample_sigs_sf0.01.parquet')),
k AS (SELECT source, CAST(count(*) AS DOUBLE) AS kept FROM s GROUP BY source),
chk AS (
  SELECT bool_and(abs(coalesce(k.kept, 0) - r.rate * r.n) <= 0.05 * r.n + 50) AS good
  FROM r LEFT JOIN k USING (source)
),
sub AS (
  SELECT count(*) = 0 AS good FROM s WHERE NOT EXISTS (
    SELECT 1 FROM corpus c
    WHERE c.doc_id IS NOT DISTINCT FROM s.doc_id
      AND c.source IS NOT DISTINCT FROM s.source)
)
SELECT source, CAST(count(*) AS BIGINT) AS cnt FROM s GROUP BY source
HAVING (SELECT good FROM chk) AND (SELECT good FROM sub)
ORDER BY source
"""


@entry("seq_temperature_sample", sql=SQL_SEQ_TEMPERATURE_SAMPLE)
def q_seq_temperature_sample(sf_dir: str) -> pd.DataFrame:
    """Temperature-scaled corpus mixing (T=2, half-corpus budget): tiny
    grouped count → driver rate derivation → shuffle-free hash-threshold
    sample.  The twin re-derives the rates in SQL from the corpus
    counts, checks the sample is a true subset AND that every stratum's
    kept count adheres to its derived rate (±5% + 50), then re-counts
    the sample sidecar per source."""
    from jesse_ray.functions.split import mixture_sample

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "source"])
    out, _rates = mixture_sample(ds, "doc_id", temperature=2.0, budget_frac=0.5)
    t = _collect(out)
    pq.write_table(t.sort_by("doc_id"), _sig_parquet_path(sf_dir, "temp_sample"))
    g = t.group_by("source").aggregate([([], "count_all")]).rename_columns(["source", "cnt"])
    pdf = g.to_pandas().sort_values("source").reset_index(drop=True)
    pdf["cnt"] = pdf["cnt"].astype("int64")
    return pdf


SQL_SEQ_HLL_TOKENS = f"""
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/hll_tokens_sigs_sf0.01.parquet')),
exact AS (SELECT count(DISTINCT t) AS d FROM (SELECT unnest(tokens) AS t FROM {SEQ_SQL}))
SELECT CAST(est AS BIGINT) AS hll_distinct_tokens FROM s
WHERE abs(CAST(est AS DOUBLE) / (SELECT d FROM exact) - 1.0) <= 0.05
"""


@entry("seq_hll_tokens", sql=SQL_SEQ_HLL_TOKENS)
def q_seq_hll_tokens(sf_dir: str) -> pd.DataFrame:
    """Approximate distinct token ids corpus-wide (HyperLogLog p=12,
    shuffle-free mergeable partials).  The twin computes the EXACT
    distinct count in SQL and only yields the engine's estimate row when
    it is within the sketch's error envelope (±5% >> the ~1.6% stderr)
    — an out-of-envelope estimate returns zero rows and fails the
    compare."""
    from jesse_ray.stages.distinct import hll_distinct

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])
    est = int(round_half_away(hll_distinct(ds, "tokens", flatten=True, p=12)))
    t = pa.table({"est": pa.array([est], type=pa.int64())})
    pq.write_table(t, _sig_parquet_path(sf_dir, "hll_tokens"))
    return pd.DataFrame({"hll_distinct_tokens": pd.array([est], dtype="int64")})


TDIGEST_QS = [0.25, 0.5, 0.75, 0.9, 0.99]


SQL_SEQ_TDIGEST_NTOK = f"""
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/tdigest_ntok_sigs_sf0.01.parquet')),
tot AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM {SEQ_SQL} WHERE n_tok IS NOT NULL),
chk AS (
  SELECT bool_and(abs(
           (SELECT count(*) FROM {SEQ_SQL} WHERE n_tok <= s.est) / (SELECT n FROM tot)
           - s.q) <= 0.02) AS good
  FROM s
)
SELECT q, round(est, 4) AS est FROM s
WHERE (SELECT good FROM chk)
ORDER BY q
"""


@entry("seq_tdigest_ntok", sql=SQL_SEQ_TDIGEST_NTOK)
def q_seq_tdigest_ntok(sf_dir: str) -> pd.DataFrame:
    """t-digest quantile estimates over n_tok (Dunning's sketch as a
    first-class query), fed the drift summary's exact n_tok counts as
    weights.  The twin holds the estimates to the sketch's actual
    guarantee — RANK error: the true CDF at each estimate must be within
    ±0.02 of the requested q (t-digest's edge-biased rank error is ≪
    that at compression 200) — and only then emits the sidecar estimates."""
    from jesse_ray.sketches import TDigest
    from jesse_ray.stages.drift import sketch_dataset

    ds = read_sequences(_seq_path(sf_dir), columns=["n_tok", "tokens"])
    counts = sketch_dataset(ds).n_tok
    digest = TDigest()
    digest.add(counts.keys, counts.counts)
    est = [float(digest.quantile(q)) for q in TDIGEST_QS]
    t = pa.table(
        {
            "q": pa.array(TDIGEST_QS, type=pa.float64()),
            "est": pa.array(est, type=pa.float64()),
        }
    )
    pq.write_table(t, _sig_parquet_path(sf_dir, "tdigest_ntok"))
    return pd.DataFrame({"q": TDIGEST_QS, "est": [round_half_away(e, 4) for e in est]})


CMS_PROBE_TOKENS = list(range(16))


SQL_SEQ_CMS_TOKENS = f"""
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/cms_tokens_sigs_sf0.01.parquet')),
flat AS (SELECT unnest(tokens) AS t FROM {SEQ_SQL}),
n AS (SELECT CAST(count(*) AS DOUBLE) AS total FROM flat),
ex AS (SELECT t AS token, CAST(count(*) AS BIGINT) AS cnt FROM flat
       WHERE t BETWEEN 0 AND 15 GROUP BY t),
j AS (SELECT s.token, s.est, coalesce(ex.cnt, 0) AS cnt
      FROM s LEFT JOIN ex ON s.token = ex.token),
chk AS (
  SELECT bool_and(est >= cnt AND
                  est <= cnt + 2 * 2.718281828 / 16384.0 * (SELECT total FROM n)) AS good
  FROM j
)
SELECT token, CAST(est AS BIGINT) AS est FROM s
WHERE (SELECT good FROM chk)
ORDER BY token
"""


@entry("seq_cms_tokens", sql=SQL_SEQ_CMS_TOKENS)
def q_seq_cms_tokens(sf_dir: str) -> pd.DataFrame:
    """Count-min point-frequency estimates for 16 probe token ids
    (Cormode-Muthukrishnan sketch as a first-class query), fed the drift
    summary's exact token counts.  The twin enforces the CMS guarantee
    in SQL — exact ≤ est ≤ exact + 2e/w·N (w=16384, N = total token
    occurrences) — before emitting the estimates."""
    from jesse_ray.sketches import CountMin
    from jesse_ray.stages.drift import sketch_dataset

    ds = read_sequences(_seq_path(sf_dir), columns=["n_tok", "tokens"])
    counts = sketch_dataset(ds).tokens
    cms = CountMin()
    cms.add(counts.keys, counts.counts)
    keys = np.array(CMS_PROBE_TOKENS, dtype=np.int64)
    est = cms.query(keys).astype(np.int64)
    t = pa.table(
        {
            "token": pa.array(keys, type=pa.int64()),
            "est": pa.array(est, type=pa.int64()),
        }
    )
    pq.write_table(t, _sig_parquet_path(sf_dir, "cms_tokens"))
    return pd.DataFrame({"token": keys, "est": est})


KMEANS_K = 8


SQL_EMB_KMEANS = """
WITH a AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/kmeans_assign_sigs_sf0.01.parquet')),
c AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/kmeans_cents_sigs_sf0.01.parquet')),
d AS (
  SELECT a.vec_id, a.cluster,
         min(list_distance(CAST(e.embedding AS DOUBLE[]), CAST(c2.centroid AS DOUBLE[]))) AS mind,
         min(CASE WHEN c2.cluster = a.cluster
                  THEN list_distance(CAST(e.embedding AS DOUBLE[]), CAST(c2.centroid AS DOUBLE[])) END) AS own
  FROM a JOIN embeddings e USING (vec_id) CROSS JOIN c c2
  GROUP BY a.vec_id, a.cluster
),
ok AS (SELECT count(*) = 0 AS good FROM d WHERE own > mind + 1e-9)
SELECT CAST(cluster AS BIGINT) AS cluster, CAST(count(*) AS BIGINT) AS size FROM a
GROUP BY cluster
HAVING (SELECT good FROM ok)
ORDER BY cluster
"""


@entry("emb_kmeans", sql=SQL_EMB_KMEANS)
def q_emb_kmeans(sf_dir: str) -> pd.DataFrame:
    """Distributed k-means (Lloyd, k=8, 5 iterations, deterministic
    min-key init) over the embeddings table.  Assignments + final
    centroids land in sidecar parquets; the twin re-verifies the Lloyd
    fixed-point property IN SQL — every vector's recorded cluster is its
    true argmin centroid by L2 distance — and only then re-derives the
    cluster sizes."""
    from jesse_ray.functions.clustering import kmeans

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    cents, assigned = kmeans(ds, KMEANS_K, n_iters=5)
    t = _collect(assigned.select_columns(["vec_id", "cluster"]))
    pq.write_table(t.sort_by("vec_id"), _sig_parquet_path(sf_dir, "kmeans_assign"))
    cent_t = pa.table(
        {
            "cluster": pa.array(range(KMEANS_K), type=pa.int32()),
            "centroid": pa.array([list(map(float, c)) for c in cents],
                                 type=pa.list_(pa.float64())),
        }
    )
    pq.write_table(cent_t, _sig_parquet_path(sf_dir, "kmeans_cents"))
    g = t.group_by("cluster").aggregate([([], "count_all")]).rename_columns(["cluster", "size"])
    pdf = g.to_pandas().sort_values("cluster").reset_index(drop=True)
    pdf["cluster"] = pdf["cluster"].astype("int64")
    pdf["size"] = pdf["size"].astype("int64")
    return pdf


SEMDEDUP_THRESHOLD = 0.4


SQL_EMB_SEMDEDUP = f"""
WITH a AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/semdedup_assign_sigs_sf0.01.parquet')),
c AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/semdedup_cents_sigs_sf0.01.parquet')),
d AS (
  SELECT a.vec_id, a.cluster,
         min(list_distance(CAST(e.embedding AS DOUBLE[]), CAST(c2.centroid AS DOUBLE[]))) AS mind,
         min(CASE WHEN c2.cluster = a.cluster
                  THEN list_distance(CAST(e.embedding AS DOUBLE[]), CAST(c2.centroid AS DOUBLE[])) END) AS own
  FROM a JOIN embeddings e USING (vec_id) CROSS JOIN c c2
  GROUP BY a.vec_id, a.cluster
),
ok AS (SELECT count(*) = 0 AS good FROM d WHERE own > mind + 1e-9)
SELECT la.vec_id AS "left", rb.vec_id AS "right",
       round(CAST(list_cosine_similarity(el.embedding, er.embedding) AS DOUBLE), 4) AS cosine
FROM a la JOIN a rb ON la.cluster = rb.cluster AND la.vec_id < rb.vec_id
JOIN embeddings el ON el.vec_id = la.vec_id
JOIN embeddings er ON er.vec_id = rb.vec_id
WHERE list_cosine_similarity(el.embedding, er.embedding) >= {SEMDEDUP_THRESHOLD}
  AND (SELECT good FROM ok)
ORDER BY 1, 2
"""


@entry("emb_semdedup", sql=SQL_EMB_SEMDEDUP)
def q_emb_semdedup(sf_dir: str) -> pd.DataFrame:
    """SemDeDup composite (cluster-then-exact-cosine within clusters):
    k-means over the embeddings, then exact near-dup pairs inside each
    cluster only.  The twin re-verifies the Lloyd fixed point from the
    sidecars, then re-derives EVERY within-cluster pair ≥ threshold in
    SQL from the assignment sidecar — the engine's pair set must match
    exactly.  (Threshold 0.4 because the synthetic embeddings are
    near-uniform — max pairwise cosine ≈0.51; production SemDeDup runs
    ≥0.95 with k ∝ corpus.)"""
    from jesse_ray.functions.dedup import semantic_near_dups

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    cents, assigned, pairs = semantic_near_dups(
        ds, k=KMEANS_K, threshold=SEMDEDUP_THRESHOLD
    )
    a = _collect(assigned.select_columns(["vec_id", "cluster"]))
    pq.write_table(a.sort_by("vec_id"), _sig_parquet_path(sf_dir, "semdedup_assign"))
    cent_t = pa.table(
        {
            "cluster": pa.array(range(KMEANS_K), type=pa.int32()),
            "centroid": pa.array([list(map(float, c)) for c in cents],
                                 type=pa.list_(pa.float64())),
        }
    )
    pq.write_table(cent_t, _sig_parquet_path(sf_dir, "semdedup_cents"))
    pdf = _collect(pairs).to_pandas()
    pdf["cosine"] = round_half_away(pdf["cosine"], 4)
    return pdf.sort_values(["left", "right"]).reset_index(drop=True)


EPOCH_WEIGHTS = {"src0": 2.5, "src1": 0.0, "src2": 3.0, "src3": 0.25}


_EPOCH_W_SQL = " ".join(f"WHEN '{k}' THEN {v}" for k, v in sorted(EPOCH_WEIGHTS.items()))

SQL_DOC_EPOCH_UPSAMPLE = f"""
WITH u AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/epoch_u01_sigs_sf0.01.parquet')),
up AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/epoch_up_sigs_sf0.01.parquet')),
w AS (
  SELECT doc_id, source, u01,
         CASE source {_EPOCH_W_SQL} ELSE 1.0 END AS wt
  FROM u
),
exp AS (
  SELECT doc_id, source,
         CAST(floor(wt) AS BIGINT)
           + CASE WHEN u01 < wt - floor(wt) THEN 1 ELSE 0 END AS copies
  FROM w
),
got AS (
  SELECT doc_id, count(*) AS cnt, min(copy_idx) AS mn, max(copy_idx) AS mx,
         count(DISTINCT copy_idx) AS dc
  FROM up GROUP BY 1
),
ok AS (
  SELECT (SELECT count(*) FROM documents) = (SELECT count(*) FROM u)
     AND (SELECT count(*) FROM u LEFT JOIN documents d USING (doc_id)
          WHERE d.doc_id IS NULL OR d.source <> u.source) = 0
     AND (SELECT count(*) FROM exp LEFT JOIN got USING (doc_id)
          WHERE coalesce(got.cnt, 0) <> exp.copies) = 0
     AND (SELECT count(*) FROM got LEFT JOIN exp USING (doc_id)
          WHERE exp.doc_id IS NULL OR got.mn <> 0 OR got.mx <> got.cnt - 1
             OR got.dc <> got.cnt) = 0 AS good
)
SELECT source, CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs,
       CAST(count(*) AS BIGINT) AS n_rows
FROM up GROUP BY source
HAVING (SELECT good FROM ok)
ORDER BY source
"""


@entry("doc_epoch_upsample", sql=SQL_DOC_EPOCH_UPSAMPLE)
def q_doc_epoch_upsample(sf_dir: str) -> pd.DataFrame:
    """Deterministic non-integer-epoch upsampling (train high-quality
    sources >1 epoch): each doc emitted floor(w) times + 1 more iff its
    fmix64 u01 < frac(w), copy_idx tagging the copies.  Two sidecars —
    the per-doc u01 assignment (weights≡1 run of the same op, same
    salt) and the expanded output — let the twin re-derive EVERY copy
    count exactly and check copy-index integrity; the query returns
    per-source (n_docs, n_rows) of the expanded corpus."""
    from jesse_ray.functions.split import epoch_upsample

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    assign = epoch_upsample(ds, "doc_id", {}, default_weight=1.0, u01_col="u01")
    pq.write_table(
        _collect(assign.select_columns(["doc_id", "source", "u01"])).sort_by("doc_id"),
        _sig_parquet_path(sf_dir, "epoch_u01"),
    )
    up = epoch_upsample(ds, "doc_id", EPOCH_WEIGHTS, default_weight=1.0)
    t = _collect(up)
    pq.write_table(t.sort_by([("doc_id", "ascending"), ("copy_idx", "ascending")]),
                   _sig_parquet_path(sf_dir, "epoch_up"))
    pdf = (
        t.group_by("source")
        .aggregate([("doc_id", "count_distinct"), ([], "count_all")])
        .rename_columns(["source", "n_docs", "n_rows"])
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    pdf["n_docs"] = pdf["n_docs"].astype("int64")
    pdf["n_rows"] = pdf["n_rows"].astype("int64")
    return pdf


SQL_SEQ_BPE_STEP = f"""
WITH corpus AS (SELECT * FROM {SEQ_SQL}),
idx0 AS (SELECT generate_subscripts(tokens, 1) AS i, tokens FROM corpus),
pair AS (
  SELECT tokens[i] AS a, tokens[i+1] AS b
  FROM idx0
  WHERE i < len(tokens) AND tokens[i] >= 0 AND tokens[i+1] >= 0
    AND tokens[i] <> tokens[i+1]
  GROUP BY 1, 2 ORDER BY count(*) DESC, a ASC, b ASC LIMIT 1
),
mx AS (SELECT max(t) + 1 AS new_id FROM (SELECT unnest(tokens) AS t FROM corpus)),
rows_in AS (
  SELECT row_number() OVER () AS rid, doc_id, tokens
  FROM corpus WHERE tokens IS NOT NULL AND len(tokens) > 0
),
t AS (SELECT rid, doc_id, generate_subscripts(tokens, 1) AS i, tokens FROM rows_in),
m AS (
  SELECT rid, doc_id, i,
         CASE WHEN tokens[i] = (SELECT a FROM pair) AND i < len(tokens)
                   AND tokens[i+1] = (SELECT b FROM pair)
              THEN (SELECT new_id FROM mx) ELSE tokens[i] END AS val,
         (i > 1 AND tokens[i-1] = (SELECT a FROM pair)
                AND tokens[i] = (SELECT b FROM pair)) AS is_follower
  FROM t
),
sel AS (
  SELECT rid, doc_id, val,
         row_number() OVER (PARTITION BY rid ORDER BY i) - 1 AS pos
  FROM m WHERE NOT is_follower
)
SELECT any_value(doc_id) AS doc_id,
       CAST(count(*) AS BIGINT) AS n_tok_new,
       CAST(sum(val) AS BIGINT) AS tok_sum,
       CAST(sum(pos * val) AS BIGINT) AS tok_possum
FROM sel GROUP BY rid
"""


@entry("seq_bpe_step", sql=SQL_SEQ_BPE_STEP)
def q_seq_bpe_step(sf_dir: str) -> pa.Table:
    """One full BPE TRAINING iteration: count adjacent pairs, pick the
    most frequent pair with a != b (cnt desc, then (a, b) asc — a != b
    occurrences can never overlap, so greedy merge = all occurrences),
    mint new_id = max token id + 1, and apply the merge corpus-wide
    (seqops.apply_bpe_merge offset surgery).  Output is checksum-shaped
    per row (new length, token sum, position-weighted sum — the last
    catches ordering bugs); the twin re-derives the pair choice, the
    new id, AND the merged sequences entirely in SQL."""
    from jesse_ray.functions.seqops import apply_bpe_merge, token_pair_counts

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens"])
    pairs = token_pair_counts(ds, k=25).to_pandas()
    pairs = pairs[pairs["a"] != pairs["b"]]
    if pairs.empty:
        raise ValueError("no mergeable pair with a != b in top-25")
    a, b = int(pairs["a"].iloc[0]), int(pairs["b"].iloc[0])

    def mx(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(batch["tokens"])
        m = pc.max(flat).as_py() if len(flat) else None
        return pa.table({"m": pa.array([m if m is not None else -1], type=pa.int64())})

    parts = _collect(ds.map_batches(mx, batch_format="pyarrow", zero_copy_batch=True))
    new_id = int(pc.max(parts["m"]).as_py()) + 1

    def nonempty(batch: pa.Table) -> pa.Table:
        lens = pc.list_value_length(batch["tokens"])
        return batch.filter(pc.greater(pc.fill_null(lens, 0), 0))

    kept = ds.map_batches(nonempty, batch_format="pyarrow", zero_copy_batch=True)
    merged = apply_bpe_merge(kept, a=a, b=b, new_id=new_id, n_tok_col=None)

    def summarize(batch: pa.Table) -> pa.Table:
        toks = batch["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).cast(pa.int64()).to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(toks).cast(pa.int64()).to_numpy(zero_copy_only=False)
        off = np.zeros(len(toks) + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        pos = np.arange(len(flat), dtype=np.int64) - np.repeat(off[:-1], lens)
        sums = np.add.reduceat(flat, off[:-1]) if len(flat) else np.zeros(len(toks), np.int64)
        psums = np.add.reduceat(flat * pos, off[:-1]) if len(flat) else np.zeros(len(toks), np.int64)
        empty = off[:-1] == off[1:]
        sums[empty] = 0
        psums[empty] = 0
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tok_new": pa.array(lens, type=pa.int64()),
                "tok_sum": pa.array(sums, type=pa.int64()),
                "tok_possum": pa.array(psums, type=pa.int64()),
            }
        )

    return _collect(merged.map_batches(summarize, batch_format="pyarrow", zero_copy_batch=True))


SQL_SEQ_LENGTH_BUCKETS = f"""
WITH b AS (
  SELECT CASE WHEN n_tok <= 1 THEN 1
              ELSE CAST(power(2, ceil(log2(n_tok))) AS BIGINT) END AS bucket,
         CAST(n_tok AS BIGINT) AS n_tok
  FROM {SEQ_SQL} WHERE n_tok IS NOT NULL AND n_tok >= 0
)
SELECT bucket, CAST(count(*) AS BIGINT) AS n_seqs,
       CAST(sum(n_tok) AS BIGINT) AS sum_tok,
       CAST(bucket * count(*) - sum(n_tok) AS BIGINT) AS padding
FROM b GROUP BY bucket ORDER BY bucket
"""


@entry("seq_length_buckets", sql=SQL_SEQ_LENGTH_BUCKETS)
def q_seq_length_buckets(sf_dir: str) -> pd.DataFrame:
    """Length-bucketed batching plan: per power-of-two n_tok bucket, the
    sequence count, token mass, and padding waste of a pad-to-bucket
    batcher (seqops.length_bucket_stats — combiner + ≤32-row shuffle)."""
    from jesse_ray.functions.seqops import length_bucket_stats

    ds = read_sequences(_seq_path(sf_dir), columns=["n_tok"])
    out = length_bucket_stats(ds).to_pandas()
    return out.sort_values("bucket").reset_index(drop=True)


PROJ_DIM = 8


SQL_EMB_PROJECT = """
WITH p AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/proj_matrix_sigs_sf0.01.parquet')),
e AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i, embedding
  FROM embeddings
)
SELECT e.vec_id, p.j, round(sum(CAST(e.embedding[e.i] AS DOUBLE) * p.p), 4) AS val
FROM e JOIN p USING (i)
GROUP BY e.vec_id, p.j
ORDER BY e.vec_id, p.j
"""


@entry("emb_project", sql=SQL_EMB_PROJECT)
def q_emb_project(sf_dir: str) -> pd.DataFrame:
    """Gaussian random projection (JL dim reduction, 64→8): seeded
    driver-drawn matrix broadcast once, one BLAS matmul per batch
    (similarity.random_projection).  The twin re-derives EVERY projected
    coordinate in SQL from the exported matrix sidecar (long form:
    vec_id × output dim)."""
    from jesse_ray.functions.similarity import random_projection

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out, P = random_projection(ds, PROJ_DIM)
    dim, od = P.shape
    ii, jj = np.meshgrid(np.arange(1, dim + 1), np.arange(od), indexing="ij")
    pq.write_table(
        pa.table({"i": pa.array(ii.ravel(), type=pa.int32()),
                  "j": pa.array(jj.ravel(), type=pa.int32()),
                  "p": pa.array(P.ravel(), type=pa.float64())}),
        _sig_parquet_path(sf_dir, "proj_matrix"),
    )

    def longform(batch: pa.Table) -> pa.Table:
        proj = batch["proj"]
        if isinstance(proj, pa.ChunkedArray):
            proj = proj.combine_chunks()
        n = len(proj)
        vals = pc.list_flatten(proj).to_numpy(zero_copy_only=False)
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(vid, PROJ_DIM), type=pa.int64()),
                "j": pa.array(np.tile(np.arange(PROJ_DIM, dtype=np.int32), n)),
                "val": pa.array(round_half_away(vals, 4), type=pa.float64()),
            }
        )

    return _collect(out.map_batches(longform, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()


ES_K = 50


SQL_DOC_WEIGHTED_SAMPLE = f"""
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/es_sample_sigs_sf0.01.parquet')),
a AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/es_assign_sigs_sf0.01.parquet')),
derived AS (
  SELECT d.doc_id, d.source, d.n_chars, a.u01,
         pow(a.u01, 1.0 / d.n_chars) AS es_key
  FROM a JOIN documents d USING (doc_id)
),
top AS (
  SELECT * FROM derived ORDER BY es_key DESC, doc_id ASC LIMIT {ES_K}
),
ok AS (
  SELECT (SELECT count(*) FROM a) =
           (SELECT count(*) FROM documents WHERE n_chars > 0)
     AND (SELECT count(*) FROM a JOIN derived USING (doc_id)
          WHERE abs(a.es_key - derived.es_key) > 1e-12) = 0
     AND (SELECT count(*) FROM s) = {ES_K}
     AND (SELECT count(*) FROM s JOIN top USING (doc_id)) = {ES_K}
         AS good
)
SELECT doc_id, source, n_chars FROM top
WHERE (SELECT good FROM ok)
ORDER BY doc_id
"""


@entry("doc_weighted_sample", sql=SQL_DOC_WEIGHTED_SAMPLE)
def q_doc_weighted_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic Efraimidis-Spirakis weighted k-sample (weights =
    n_chars): keep the 50 docs with the largest u^(1/w) keys
    (split.weighted_sample_k — map-side local top-k, ≤ k×blocks rows
    shuffled).  The u01 sidecar lets the twin re-derive every selection
    key and the exact top-k in SQL."""
    from jesse_ray.functions.split import weighted_sample_k

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"])
    # full-assignment sidecar (k >= corpus): every doc's u01 + ES key,
    # so the twin re-derives the exact top-k itself
    assign = weighted_sample_k(ds, "doc_id", "n_chars", 10**9,
                               u01_col="u01", es_col="es_key")
    pq.write_table(_collect(assign).sort_by("doc_id"),
                   _sig_parquet_path(sf_dir, "es_assign"))
    out = weighted_sample_k(ds, "doc_id", "n_chars", ES_K, u01_col="u01", es_col="es_key")
    t = _collect(out)
    pq.write_table(t.sort_by("doc_id"), _sig_parquet_path(sf_dir, "es_sample"))
    pdf = t.select(["doc_id", "source", "n_chars"]).to_pandas()
    return pdf.sort_values("doc_id").reset_index(drop=True)


SQL_SEQ_KS_BY_SOURCE = f"""
WITH v AS (
  SELECT source, n_tok FROM {SEQ_SQL}
  WHERE n_tok IS NOT NULL AND source IS NOT NULL
),
gv AS (SELECT source, n_tok, count(*) AS c FROM v GROUP BY 1, 2),
grid AS (SELECT DISTINCT n_tok FROM v),
srcs AS (SELECT DISTINCT source FROM v),
tot_g AS (SELECT source, sum(c) AS t FROM gv GROUP BY 1),
allv AS (SELECT n_tok, sum(c) AS c FROM gv GROUP BY 1),
fa AS (
  SELECT n_tok,
         CAST(sum(c) OVER (ORDER BY n_tok) AS DOUBLE)
           / (SELECT sum(c) FROM allv) AS fa
  FROM allv
),
fg AS (
  SELECT s.source, g.n_tok,
         CAST(sum(coalesce(gv.c, 0)) OVER (PARTITION BY s.source ORDER BY g.n_tok) AS DOUBLE)
           / tg.t AS fg
  FROM srcs s CROSS JOIN grid g
  LEFT JOIN gv ON gv.source = s.source AND gv.n_tok = g.n_tok
  JOIN tot_g tg ON tg.source = s.source
)
SELECT fg.source, round(max(abs(fg.fg - fa.fa)), 6) AS ks
FROM fg JOIN fa USING (n_tok)
GROUP BY fg.source ORDER BY fg.source
"""


@entry("seq_ks_by_source", sql=SQL_SEQ_KS_BY_SOURCE)
def q_seq_ks_by_source(sf_dir: str) -> pd.DataFrame:
    """Exact per-source KS drift of n_tok against the whole corpus
    (stages/drift.exact_ks_by_group — one bounded (group, value) count
    shuffle, integer-cumsum ECDFs).  The per-source counterpart of the
    corpus-level KS drift gate."""
    from jesse_ray.stages.drift import exact_ks_by_group

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"])
    t = exact_ks_by_group(ds, "source", "n_tok")
    pdf = t.to_pandas()
    pdf["ks"] = round_half_away(pdf["ks"], 6)
    return pdf.sort_values("source").reset_index(drop=True)


SQL_SEQ_MODE_BY_SOURCE = f"""
WITH c AS (
  SELECT source, n_tok, count(*) AS cnt FROM {SEQ_SQL}
  WHERE source IS NOT NULL AND n_tok IS NOT NULL
  GROUP BY 1, 2
),
r AS (
  SELECT source, n_tok, cnt,
         row_number() OVER (PARTITION BY source ORDER BY cnt DESC, n_tok ASC) AS rn
  FROM c
)
SELECT source, CAST(n_tok AS BIGINT) AS mode, CAST(cnt AS BIGINT) AS cnt
FROM r WHERE rn = 1 ORDER BY source
"""


@entry("seq_mode_by_source", sql=SQL_SEQ_MODE_BY_SOURCE)
def q_seq_mode_by_source(sf_dir: str) -> pd.DataFrame:
    """Most frequent n_tok per source (grouped mode, ties to the
    smallest value) — relational.grouped_mode two-phase combiner."""
    from jesse_ray.pipelines.relational import grouped_mode

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"])
    t = grouped_mode(ds, "source", "n_tok")
    pdf = t.to_pandas()
    pdf["mode"] = pdf["mode"].astype("int64")
    pdf["cnt"] = pdf["cnt"].astype("int64")
    return pdf.sort_values("source").reset_index(drop=True)


SQL_SEQ_MAD_BY_SOURCE = f"""
WITH v AS (
  SELECT source, CAST(n_tok AS DOUBLE) AS x FROM {SEQ_SQL}
  WHERE source IS NOT NULL AND n_tok IS NOT NULL
),
med AS (SELECT source, quantile_disc(x, 0.5) AS m FROM v GROUP BY 1),
dev AS (
  SELECT v.source, abs(v.x - med.m) AS d
  FROM v JOIN med USING (source)
)
SELECT med.source, round(med.m, 1) AS median,
       round(quantile_disc(dev.d, 0.5), 1) AS mad
FROM dev JOIN med USING (source)
GROUP BY med.source, med.m
ORDER BY med.source
"""


@entry("seq_mad_by_source", sql=SQL_SEQ_MAD_BY_SOURCE)
def q_seq_mad_by_source(sf_dir: str) -> pd.DataFrame:
    """Per-source robust spread of n_tok: exact discrete median + MAD
    (relational.grouped_mad — two exact-quantile passes with a
    broadcast between).  quantile_disc parity on both levels."""
    from jesse_ray.pipelines.relational import grouped_mad

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"])
    t = grouped_mad(ds, "source", "n_tok")
    pdf = t.to_pandas()
    pdf["median"] = round_half_away(pdf["median"], 1)
    pdf["mad"] = round_half_away(pdf["mad"], 1)
    return pdf.sort_values("source").reset_index(drop=True)


TDG_QS = [0.25, 0.5, 0.9]


SQL_EVENTS_VALUE_TDIGEST = """
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/tdg_events_sigs_sf0.01.parquet')),
tot AS (SELECT event_type, CAST(count(*) AS DOUBLE) AS n FROM events WHERE value IS NOT NULL GROUP BY 1),
chk AS (
  SELECT bool_and(abs(
           (SELECT count(*) FROM events e WHERE e.event_type = s.event_type AND e.value <= s.est)
             / tot.n - s.q) <= 0.02) AS good
  FROM s JOIN tot USING (event_type)
)
SELECT event_type, q, round(est, 4) AS est FROM s
WHERE (SELECT good FROM chk)
ORDER BY event_type, q
"""


@entry("events_value_tdigest", sql=SQL_EVENTS_VALUE_TDIGEST)
def q_events_value_tdigest(sf_dir: str) -> pd.DataFrame:
    """Approximate per-type quantiles of the CONTINUOUS value column via
    grouped t-digests (distinct.tdigest_quantiles_by_group — the scale
    path where exact grouped quantiles' bounded-cardinality assumption
    breaks).  Envelope twin: the true CDF at each estimate must be
    within ±0.02 of the requested rank, per group."""
    from jesse_ray.stages.distinct import tdigest_quantiles_by_group

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    t = tdigest_quantiles_by_group(ds, "value", "event_type", TDG_QS)
    pdf = t.to_pandas().sort_values(["event_type", "q"]).reset_index(drop=True)
    pq.write_table(pa.Table.from_pandas(pdf, preserve_index=False),
                   _sig_parquet_path(sf_dir, "tdg_events"))
    pdf["est"] = round_half_away(pdf["est"], 4)
    return pdf


SQL_SEQ_JSD_BY_SOURCE = f"""
WITH gv AS (
  SELECT source, t, count(*)::DOUBLE AS c
  FROM (SELECT source, unnest(tokens) AS t FROM {SEQ_SQL} WHERE source IS NOT NULL)
  WHERE t IS NOT NULL
  GROUP BY 1, 2
),
tg AS (SELECT source, sum(c) AS ts FROM gv GROUP BY 1),
allv AS (SELECT t, sum(c) AS ct FROM gv GROUP BY 1),
tot AS (SELECT sum(ct) AS T FROM allv),
terms AS (
  SELECT gv.source,
         gv.c / tg.ts AS p,
         allv.ct / (SELECT T FROM tot) AS q
  FROM gv JOIN tg USING (source) JOIN allv USING (t)
),
agg AS (
  SELECT source,
         sum(p * ln(p / (0.5 * (p + q)))) AS kl_p,
         sum(q * ln(q / (0.5 * (p + q)))) AS kl_q_in,
         1.0 - sum(q) AS q_out
  FROM terms GROUP BY 1
)
SELECT source, round(0.5 * kl_p + 0.5 * (kl_q_in + ln(2.0) * q_out), 6) AS jsd
FROM agg ORDER BY source
"""


@entry("seq_jsd_by_source", sql=SQL_SEQ_JSD_BY_SOURCE)
def q_seq_jsd_by_source(sf_dir: str) -> pd.DataFrame:
    """Exact Jensen-Shannon divergence of each source's token
    distribution vs the corpus (stages/drift.exact_jsd_by_group —
    bounded (group, token) count shuffle + closed-form driver pass).
    The twin evaluates the same closed form in SQL."""
    from jesse_ray.stages.drift import exact_jsd_by_group

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "tokens"])
    t = exact_jsd_by_group(ds, "source", "tokens")
    pdf = t.to_pandas()
    pdf["jsd"] = round_half_away(pdf["jsd"], 6)
    return pdf.sort_values("source").reset_index(drop=True)


SQL_SEQ_SOURCE_OVERLAP = f"""
WITH v AS (
  SELECT DISTINCT source, t
  FROM (SELECT source, unnest(tokens) AS t FROM {SEQ_SQL} WHERE source IS NOT NULL)
  WHERE t IS NOT NULL
),
sz AS (SELECT source, count(*) AS n FROM v GROUP BY 1),
inter AS (
  SELECT a.source AS src_a, b.source AS src_b, count(*) AS i
  FROM v a JOIN v b ON a.t = b.t AND a.source < b.source
  GROUP BY 1, 2
)
SELECT src_a, src_b, CAST(i AS BIGINT) AS inter,
       CAST(sa.n + sb.n - i AS BIGINT) AS union_sz
FROM inter JOIN sz sa ON sa.source = src_a JOIN sz sb ON sb.source = src_b
ORDER BY src_a, src_b
"""


@entry("seq_source_overlap", sql=SQL_SEQ_SOURCE_OVERLAP)
def q_seq_source_overlap(sf_dir: str) -> pd.DataFrame:
    """Corpus-similarity matrix: pairwise Jaccard of source token
    VOCABULARIES (which sources speak the same token space — the
    mixing-design diagnostic).  Map side shrinks each block to its
    distinct (source, token) pairs; the driver intersects the bounded
    per-source vocabularies.  Integer-exact (inter, union sizes)."""
    ds = read_sequences(_seq_path(sf_dir), columns=["source", "tokens"])

    def partial(batch: pa.Table) -> pa.Table:
        toks = batch["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        src = batch["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        g = src.take(parent)
        t = pa.table({"source": g, "t": flat}).filter(
            pc.and_(pc.is_valid(g), pc.is_valid(flat))
        )
        return t.group_by(["source", "t"]).aggregate([])

    parts = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True))
    merged = parts.group_by(["source", "t"]).aggregate([])
    srcs = merged["source"].to_numpy(zero_copy_only=False)
    toks = merged["t"].to_numpy(zero_copy_only=False)
    vocabs = {g: set(toks[srcs == g].tolist()) for g in np.unique(srcs)}
    rows = []
    names = sorted(vocabs)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            inter = len(vocabs[a] & vocabs[b])
            union = len(vocabs[a] | vocabs[b])
            rows.append({"src_a": a, "src_b": b, "inter": inter, "union_sz": union})
    out = pd.DataFrame(rows)
    out["inter"] = out["inter"].astype("int64")
    out["union_sz"] = out["union_sz"].astype("int64")
    return out.sort_values(["src_a", "src_b"]).reset_index(drop=True)


SQL_EMB_QUANTIZE = """
WITH n AS (
  SELECT vec_id, sqrt(list_sum(list_transform(embedding,
           x -> CAST(x AS DOUBLE) * CAST(x AS DOUBLE)))) AS nrm
  FROM embeddings
),
e AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i, embedding FROM embeddings
)
SELECT e.vec_id, e.i,
       CAST(trunc(127.0 * CAST(e.embedding[e.i] AS DOUBLE) / greatest(n.nrm, 1e-30)) AS BIGINT) AS q
FROM e JOIN n USING (vec_id)
ORDER BY e.vec_id, e.i
"""


@entry("emb_quantize", sql=SQL_EMB_QUANTIZE)
def q_emb_quantize(sf_dir: str) -> pd.DataFrame:
    """Int8 embedding quantization (unit-norm + trunc(127·x/‖x‖)) in
    long form — every code re-derived in SQL from the raw embeddings
    (trunc, not round: deterministic across engines).  The 4x-memory
    ANN-prep op (similarity.quantize_embeddings)."""
    from jesse_ray.functions.similarity import quantize_embeddings

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = quantize_embeddings(ds)

    def longform(batch: pa.Table) -> pa.Table:
        q = batch["q8"]
        if isinstance(q, pa.ChunkedArray):
            q = q.combine_chunks()
        n = len(q)
        d = len(q[0]) if n else 0
        vals = pc.list_flatten(q).cast(pa.int64()).to_numpy(zero_copy_only=False)
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(vid, d), type=pa.int64()),
                "i": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int32), n)),
                "q": pa.array(vals, type=pa.int64()),
            }
        )

    return _collect(out.map_batches(longform, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()


SQL_SEQ_VAL_CLEAN_COUNT = f"""
SELECT CAST(count(*) AS BIGINT) AS clean_rows
FROM {SEQ_SQL}
WHERE doc_id IS NOT NULL
  AND regexp_matches(doc_id, '^doc-[0-9]{{8}}$')
  AND len(tokens) = n_tok
  AND n_tok BETWEEN 1 AND 2048
  AND len(tokens) BETWEEN 1 AND 2048
  AND len(list_filter(tokens, x -> x < 0 OR x >= {testgen.VOCAB})) = 0
"""


@entry("seq_val_clean_count", sql=SQL_SEQ_VAL_CLEAN_COUNT)
def q_seq_val_clean_count(sf_dir: str) -> pd.DataFrame:
    """Rows passing ALL row-level checks (filter_valid end-to-end)."""
    ds = read_sequences(_seq_path(sf_dir))
    compiled = compile_spec(_seq_spec())
    n = filter_valid(ds, compiled).count()
    return pd.DataFrame({"clean_rows": pd.array([n], dtype="int64")})


# The CASE order mirrors the compiled emission order exactly:
# doc_id(required → pattern) → tokens(required → size → element bounds)
# → n_tok(required → range) → source(required) → consistency
SQL_SEQ_VAL_FIRST_ERROR = f"""
WITH fe AS (
  SELECT CASE
    WHEN doc_id IS NULL THEN 'missing_required_property'
    WHEN NOT regexp_matches(doc_id, '^doc-[0-9]{{8}}$') THEN 'no_match'
    WHEN tokens IS NULL THEN 'missing_required_property'
    WHEN len(tokens) < 1 OR len(tokens) > 2048 THEN 'wrong_size'
    WHEN len(list_filter(tokens, x -> x < 0 OR x >= {testgen.VOCAB})) > 0 THEN 'not_in_range'
    WHEN n_tok IS NULL THEN 'missing_required_property'
    WHEN n_tok < 1 OR n_tok > 2048 THEN 'not_in_range'
    WHEN source IS NULL THEN 'missing_required_property'
    WHEN len(tokens) != n_tok THEN 'wrong_size'
    ELSE NULL END AS error
  FROM {SEQ_SQL}
)
SELECT error, CAST(count(*) AS BIGINT) AS cnt
FROM fe WHERE error IS NOT NULL GROUP BY error ORDER BY error
"""


@entry("seq_val_first_error", sql=SQL_SEQ_VAL_FIRST_ERROR)
def q_seq_val_first_error(sf_dir: str) -> pd.DataFrame:
    """allowed_errors=0 (jesse's default stop-at-first budget,
    src/jesse_error.erl:71-78): per-error counts when each row reports
    only its FIRST violation in compiled keyword order."""
    ds = read_sequences(_seq_path(sf_dir))
    compiled = compile_spec(_seq_spec())
    v = _collect(row_violations(ds, compiled, allowed_errors=0))
    if v is None or v.num_rows == 0:
        return pd.DataFrame({"error": [], "cnt": pd.array([], dtype="int64")})
    g = v.group_by("error").aggregate([([], "count_all")])
    pdf = pd.DataFrame({"error": g["error"].to_pylist(), "cnt": g["count_all"].to_pylist()})
    pdf["cnt"] = pdf["cnt"].astype("int64")
    return pdf.sort_values("error").reset_index(drop=True)


SQL_SEQ_NTOK_STATS = f"""
SELECT source,
       CAST(count(*) AS BIGINT) AS cnt,
       CAST(count(*) - count(n_tok) AS BIGINT) AS n_null,
       CAST(min(n_tok) AS DOUBLE) AS vmin,
       CAST(max(n_tok) AS DOUBLE) AS vmax,
       round(avg(n_tok), 4) AS vmean
FROM {SEQ_SQL} GROUP BY source ORDER BY source
"""


@entry("seq_ntok_stats", sql=SQL_SEQ_NTOK_STATS)
def q_seq_ntok_stats(sf_dir: str) -> pa.Table:
    """column_stats over n_tok grouped by source: count / nulls / min /
    max / mean via the two-phase Arrow combiner (KVC @count/@min/@max/
    @avg analogue, src/jesse_json_path.erl:173-209)."""
    from jesse_ray.engine import column_stats

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"])
    t = column_stats(ds, "n_tok", "source")
    return pa.table(
        {
            "source": t["group"],
            "cnt": t["cnt"].cast(pa.int64()),
            "n_null": t["n_null"].cast(pa.int64()),
            "vmin": t["vmin"],
            "vmax": t["vmax"],
            "vmean": pa.array(round_half_away(t["vmean"], 4), type=pa.float64()),
        }
    ).sort_by("source")


SQL_SEQ_VAL_DEPENDENCY = f"""
SELECT doc_id, 'not_in_range' AS error
FROM {SEQ_SQL}
WHERE source IS NOT NULL AND n_tok IS NOT NULL AND n_tok > 2000
ORDER BY doc_id
"""


@entry("seq_val_dependency", sql=SQL_SEQ_VAL_DEPENDENCY)
def q_seq_val_dependency(sf_dir: str) -> pa.Table:
    """Schema-form dependencies through the compiled engine
    (src/jesse_validator_draft4.erl:656-668): source present ⇒ the row
    must satisfy {n_tok: {maximum: 2000}} — the dependent sub-spec's
    violations propagate with their own atoms."""
    from jesse_ray.spec import from_json_schema

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "source", "n_tok"])
    spec = from_json_schema(
        {
            "properties": {"source": {"type": "string"}},
            "dependencies": {"source": {"properties": {"n_tok": {"maximum": 2000}}}},
        }
    )
    v = _collect(row_violations(ds, compile_spec(spec)))
    if v is None or v.num_rows == 0:
        return pa.table(
            {"doc_id": pa.array([], type=pa.string()), "error": pa.array([], type=pa.string())}
        )
    return pa.table({"doc_id": v["doc_id"], "error": v["error"]}).sort_by("doc_id")


SQL_SEQ_VAL_CONDITIONAL = f"""
SELECT doc_id, 'conditional_not_valid' AS error
FROM {SEQ_SQL}
WHERE n_tok IS NOT NULL
  AND CASE WHEN source IS NOT NULL AND source = 'code'
           THEN NOT (n_tok <= 1024)
           ELSE NOT (n_tok >= 4) END
ORDER BY doc_id
"""


@entry("seq_val_conditional", sql=SQL_SEQ_VAL_CONDITIONAL)
def q_seq_val_conditional(sf_dir: str) -> pa.Table:
    """Table-level if/then/else through the compiled engine (draft-7-
    STYLE extension beyond the reference's draft-6 ceiling; the
    reference ignores the unknown keywords,
    src/jesse_validator_draft4.erl:259-260): if source == 'code' the
    row must keep n_tok <= 1024, every other row must keep n_tok >= 4.
    One vectorized branch-mask pass per batch (ConditionalRule)."""
    from jesse_ray.spec import from_json_schema

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "source", "n_tok"])
    spec = from_json_schema(
        {
            "properties": {"source": {"type": "string"}, "n_tok": {"type": "integer"}},
            "if": {"properties": {"source": {"enum": ["code"]}}},
            "then": {"properties": {"n_tok": {"maximum": 1024}}},
            "else": {"properties": {"n_tok": {"minimum": 4}}},
        }
    )
    v = _collect(row_violations(ds, compile_spec(spec)))
    if v is None or v.num_rows == 0:
        return pa.table(
            {"doc_id": pa.array([], type=pa.string()), "error": pa.array([], type=pa.string())}
        )
    out = v.filter(pc.equal(v["error"], "conditional_not_valid"))
    return pa.table({"doc_id": out["doc_id"], "error": out["error"]}).sort_by("doc_id")


SQL_SEQ_VAL_MIGRATE = f"""
WITH flags AS (
  SELECT
    (doc_id IS NULL OR NOT regexp_matches(doc_id, '^doc-[0-9]{{8}}$')
     OR (n_tok IS NOT NULL AND (n_tok < 1 OR n_tok > 2048))) AS bad_old,
    (doc_id IS NULL OR NOT regexp_matches(doc_id, '^doc-[0-9]{{8}}$')
     OR (n_tok IS NOT NULL AND (n_tok < 4 OR n_tok > 2500))
     OR source IS NULL OR source NOT IN ({ALLOWED_SQL})) AS bad_new
  FROM {SEQ_SQL}
)
SELECT status, CAST(count(*) AS BIGINT) AS n
FROM (
  SELECT CASE
    WHEN NOT bad_old AND bad_new THEN 'broke_in_new'
    WHEN NOT bad_old AND NOT bad_new THEN 'clean_both'
    WHEN bad_old AND bad_new THEN 'dirty_both'
    ELSE 'fixed_in_new' END AS status
  FROM flags
) GROUP BY status ORDER BY status
"""


@entry("seq_val_migrate", sql=SQL_SEQ_VAL_MIGRATE)
def q_seq_val_migrate(sf_dir: str) -> pa.Table:
    """Schema-migration impact audit (engine.migration_report): classify
    every row against spec v1 AND the tightened spec v2 in one corpus
    pass — the 4-way clean/broke/fixed/dirty contingency a spec rollout
    review needs.  v2 raises the n_tok floor to 4, loosens the ceiling
    to 2500 and pins source to the allowed enum, so every cell of the
    contingency is exercised."""
    from jesse_ray.engine import migration_report
    from jesse_ray.spec import from_json_schema

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "source", "n_tok"])
    v1 = from_json_schema(
        {
            "properties": {
                "doc_id": {"type": "string", "pattern": "^doc-[0-9]{8}$"},
                "n_tok": {"type": "integer", "minimum": 1, "maximum": 2048},
            },
            "required": ["doc_id"],
        }
    )
    v2 = from_json_schema(
        {
            "properties": {
                "doc_id": {"type": "string", "pattern": "^doc-[0-9]{8}$"},
                "n_tok": {"type": "integer", "minimum": 4, "maximum": 2500},
                "source": {"enum": ALLOWED},
            },
            "required": ["doc_id", "source"],
        }
    )
    t = migration_report(ds, compile_spec(v1), compile_spec(v2))
    return t.filter(pc.greater(t["n"], 0))


SQL_EVENTS_USERS_PER_TYPE = """
SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type
"""


@entry("events_users_per_type", sql=SQL_EVENTS_USERS_PER_TYPE)
def q_events_users_per_type(sf_dir: str) -> pa.Table:
    """Exact grouped count-distinct (two-phase dedup shuffle)."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    out = grouped_count_distinct(ds, ["event_type"], "user_id")
    t = _collect(out)
    return pa.table(
        {"event_type": t["event_type"], "n_users": t["n_distinct"].cast(pa.int64())}
    )


# ---------------------------------------------------------------------------
# documents / events / TPC-H-ish tables (driver-provided testdata)


SQL_DOC_LANGS_BY_SOURCE = """
SELECT source, lang FROM documents GROUP BY source, lang ORDER BY source, lang
"""


@entry("doc_langs_by_source", sql=SQL_DOC_LANGS_BY_SOURCE)
def q_doc_langs_by_source(sf_dir: str) -> pa.Table:
    """KVC @distinctUnionOfObjects VALUE form (src/jesse_json_path.erl:173-209):
    the distinct (source, lang) pairs of the documents table."""
    from jesse_ray.pipelines.relational import grouped_distinct_values

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["source", "lang"])
    t = _collect(grouped_distinct_values(ds, ["source"], "lang"))
    return t.sort_by([("source", "ascending"), ("lang", "ascending")])


SQL_SEQ_UNION_TOKENS_SMALL = f"""
SELECT source, CAST(t AS BIGINT) AS token
FROM (SELECT source, unnest(tokens) AS t FROM {SEQ_SQL} WHERE source = 'forums')
GROUP BY source, t ORDER BY source, t
"""


@entry("seq_union_tokens_small", sql=SQL_SEQ_UNION_TOKENS_SMALL)
def q_seq_union_tokens_small(sf_dir: str) -> pa.Table:
    """KVC @distinctUnionOfArrays VALUE form: the distinct token ids of
    the 'forums' source (smallest group), as (source, token) rows."""
    from jesse_ray.pipelines.relational import grouped_union_elements

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "tokens"])

    def only_forums(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch["source"], "forums"))

    out = grouped_union_elements(
        ds.map_batches(only_forums, batch_format="pyarrow"), "source", "tokens",
        distinct=True, elem_alias="token",
    )
    t = _collect(out)
    return pa.table(
        {"source": t["source"], "token": t["token"].cast(pa.int64())}
    ).sort_by([("source", "ascending"), ("token", "ascending")])


SQL_DOC_VAL_NCHARS = """
SELECT doc_id, 'wrong_length' AS error FROM documents WHERE length(text) != n_chars
"""


@entry("doc_val_nchars", sql=SQL_DOC_VAL_NCHARS)
def q_doc_val_nchars(sf_dir: str) -> pa.Table:
    """Consistency rule n_chars == utf8_len(text) via the engine."""
    from jesse_ray import errors as E

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "n_chars"])
    spec = TableSpec(key_column="doc_id")
    spec.consistency.append(
        ConsistencyRule(kind="str_len_eq", left="text", right="n_chars", error_atom=E.WRONG_LENGTH)
    )
    v = _collect(row_violations(ds, compile_spec(spec)))
    if v is None or v.num_rows == 0:
        return pa.table({"doc_id": pa.array([], type=pa.int64()), "error": pa.array([], type=pa.string())})
    return pa.table({"doc_id": v["doc_id"].cast(pa.int64()), "error": v["error"]})


SQL_DOC_LANG_ENUM = f"""
SELECT doc_id, lang, 'not_in_enum' AS error FROM documents WHERE lang NOT IN ({DOC_LANGS_SQL})
"""


@entry("doc_lang_enum", sql=SQL_DOC_LANG_ENUM)
def q_doc_lang_enum(sf_dir: str) -> pa.Table:
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])
    spec = TableSpec(key_column="doc_id")
    spec.columns["lang"] = ColumnSpec(enum=DOC_LANGS)
    v = _collect(row_violations(ds, compile_spec(spec)))
    if v is None or v.num_rows == 0:
        return pa.table(
            {"doc_id": pa.array([], type=pa.int64()),
             "lang": pa.array([], type=pa.string()),
             "error": pa.array([], type=pa.string())}
        )
    lang = pa.array([json.loads(x) for x in v["value_json"].to_pylist()], type=pa.string())
    return pa.table({"doc_id": v["doc_id"].cast(pa.int64()), "lang": lang, "error": v["error"]})


SQL_DOC_TOKEN_COUNTS = """
SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words FROM documents
"""


@entry("doc_token_counts", sql=SQL_DOC_TOKEN_COUNTS)
def q_doc_token_counts(sf_dir: str) -> pa.Table:
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def count(batch: pa.Table) -> pa.Table:
        ws = pc.list_value_length(pc.split_pattern(batch["text"], " ")).cast(pa.int64())
        return pa.table({"doc_id": batch["doc_id"], "n_words": ws})

    return _collect(ds.map_batches(count, batch_format="pyarrow", zero_copy_batch=True))


SQL_DOC_QUALITY_COUNTS = """
SELECT doc_id,
       CAST(length(text) AS BIGINT) AS q_len,
       CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS BIGINT) AS n_alpha,
       CAST(length(text) - length(replace(text, ' ', '')) AS BIGINT) AS n_space
FROM documents
"""


@entry("doc_quality_counts", sql=SQL_DOC_QUALITY_COUNTS)
def q_doc_quality_counts(sf_dir: str) -> pa.Table:
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def qual(batch: pa.Table) -> pa.Table:
        txt = batch["text"]
        n_chars = pc.utf8_length(txt).cast(pa.int64())
        n_alpha = pc.utf8_length(pc.replace_substring_regex(txt, "[^A-Za-z]", "")).cast(pa.int64())
        n_space = pc.subtract(
            pc.utf8_length(txt), pc.utf8_length(pc.replace_substring(txt, " ", ""))
        ).cast(pa.int64())
        return pa.table(
            {"doc_id": batch["doc_id"], "q_len": n_chars, "n_alpha": n_alpha, "n_space": n_space}
        )

    return _collect(ds.map_batches(qual, batch_format="pyarrow", zero_copy_batch=True))


SQL_DOC_CHAR_ENTROPY = """
WITH ch AS (
  SELECT doc_id, unnest(string_split_regex(text, '')) AS c
  FROM documents WHERE text <> ''
),
cnt AS (SELECT doc_id, c, count(*)::DOUBLE AS n FROM ch WHERE c <> '' GROUP BY 1, 2),
tot AS (SELECT doc_id, sum(n) AS t FROM cnt GROUP BY 1)
SELECT cnt.doc_id, round(-sum((n/t) * log2(n/t)), 6) AS char_entropy
FROM cnt JOIN tot USING (doc_id)
GROUP BY cnt.doc_id
"""


@entry("doc_char_entropy", sql=SQL_DOC_CHAR_ENTROPY)
def q_doc_char_entropy(sf_dir: str) -> pa.Table:
    """Per-document codepoint Shannon entropy (bits/char) — the cheap
    gibberish/boilerplate filter.  Engine decodes each batch's Arrow
    UTF-8 buffer once and counts (doc, codepoint) pairs with one packed
    np.unique; the twin re-derives the same entropy per document from a
    per-character unnest (DuckDB's regex split is codepoint-aware, so
    both sides count codepoints)."""
    from jesse_ray.functions.text import add_char_entropy

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    scored = add_char_entropy(ds)

    def out(batch: pa.Table) -> pa.Table:
        keep = pc.greater(pc.utf8_length(pc.fill_null(batch["text"], "")), 0)
        b = batch.filter(keep)
        return pa.table(
            {
                "doc_id": b["doc_id"],
                "char_entropy": pa.array(round_half_away(b["char_entropy"], 6), type=pa.float64()),
            }
        )

    return _collect(scored.map_batches(out, batch_format="pyarrow", zero_copy_batch=True))


SQL_DOC_DSIR = """
WITH w AS (
  SELECT doc_id, lang, unnest(string_split(text, ' ')) AS word FROM documents
),
t AS (SELECT word, count(*)::DOUBLE AS c FROM w WHERE lang = 'en' GROUP BY 1),
s AS (SELECT word, count(*)::DOUBLE AS c FROM w WHERE lang <> 'en' GROUP BY 1),
v AS (
  SELECT word, coalesce(t.c, 0) AS tc, coalesce(s.c, 0) AS sc
  FROM t FULL JOIN s USING (word)
),
tot AS (
  SELECT sum(tc) AS T, sum(sc) AS S, count(*)::DOUBLE AS V FROM v
),
lr AS (
  SELECT word, ln((tc + 1.0) / (T + V)) - ln((sc + 1.0) / (S + V)) AS l
  FROM v, tot
)
SELECT w.doc_id, round(sum(l), 4) AS dsir_lw
FROM w JOIN lr USING (word)
GROUP BY w.doc_id
"""


@entry("doc_dsir", sql=SQL_DOC_DSIR)
def q_doc_dsir(sf_dir: str) -> pa.Table:
    """DSIR importance weighting (data selection by importance
    resampling): unigram importance model built from target = lang 'en'
    docs vs source = the rest (two two-phase word-count shuffles +
    bounded-vocab driver join), then every document scored with one
    broadcast hash probe + weighted bincount.  The twin recomputes BOTH
    the smoothed log-ratio model and the per-doc occurrence sums
    entirely in SQL — no sidecars."""
    from jesse_ray.functions.text import add_dsir_weight, dsir_log_ratio_model

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])
    target = ds.filter(expr="lang == 'en'")
    source = ds.filter(expr="lang != 'en'")
    model = dsir_log_ratio_model(target, source)
    scored = add_dsir_weight(ds, model)

    def out(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "dsir_lw": pa.array(round_half_away(batch["dsir_lw"], 4), type=pa.float64()),
            }
        )

    return _collect(scored.map_batches(out, batch_format="pyarrow", zero_copy_batch=True))


SQL_DOC_NGRAM_REPETITION = """
WITH arr AS (SELECT doc_id, string_split(text, ' ') AS a, length(text) AS n_chars FROM documents),
i2 AS (SELECT doc_id, a, generate_subscripts(a, 1) AS i FROM arr),
g2 AS (SELECT doc_id, a[i] || ' ' || a[i+1] AS g FROM i2 WHERE i + 1 <= len(a)),
c2 AS (SELECT doc_id, g, count(*) AS cnt, length(g) AS nch FROM g2 GROUP BY 1, 2),
m2 AS (SELECT doc_id, max(cnt) AS mc FROM c2 GROUP BY 1),
t2 AS (
  SELECT c2.doc_id, max(cnt * nch) AS top2_chars
  FROM c2 JOIN m2 ON c2.doc_id = m2.doc_id AND c2.cnt = m2.mc
  GROUP BY 1
),
g5 AS (
  SELECT doc_id, a[i] || ' ' || a[i+1] || ' ' || a[i+2] || ' ' || a[i+3] || ' ' || a[i+4] AS g
  FROM i2 WHERE i + 4 <= len(a)
),
c5 AS (SELECT doc_id, g, count(*) AS cnt, length(g) AS nch FROM g5 GROUP BY 1, 2),
d5 AS (SELECT doc_id, sum(cnt * nch) AS dup5_chars FROM c5 WHERE cnt >= 2 GROUP BY 1)
SELECT arr.doc_id, CAST(arr.n_chars AS BIGINT) AS n_chars,
       CAST(coalesce(t2.top2_chars, 0) AS BIGINT) AS top2_chars,
       CAST(coalesce(d5.dup5_chars, 0) AS BIGINT) AS dup5_chars
FROM arr LEFT JOIN t2 USING (doc_id) LEFT JOIN d5 USING (doc_id)
ORDER BY doc_id
"""


@entry("doc_ngram_repetition", sql=SQL_DOC_NGRAM_REPETITION)
def q_doc_ngram_repetition(sf_dir: str) -> pa.Table:
    """Gopher n-gram repetition features as exact integers: per doc,
    the char coverage of the most frequent 2-gram (ties toward larger
    coverage), the char coverage of all duplicated 5-grams, and the
    codepoint length (the fraction denominator).  One space-split +
    shifted-view n-gram join + Arrow group_by per batch; no shuffle
    (the stats are per-document)."""
    from jesse_ray.functions.text import add_ngram_repetition_stats

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    rep = add_ngram_repetition_stats(ds, n_top=2, n_dup=5)
    return _collect(
        rep.select_columns(["doc_id", "n_chars", "top2_chars", "dup5_chars"])
    ).sort_by("doc_id")


SQL_DOC_NGRAM_NOVELTY = """
WITH arr AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents),
i AS (SELECT doc_id, a, generate_subscripts(a, 1) AS i FROM arr),
g AS (
  SELECT doc_id, a[i] || ' ' || a[i+1] || ' ' || a[i+2] AS gm
  FROM i WHERE i + 2 <= len(a)
),
df AS (SELECT gm, count(DISTINCT doc_id) AS d FROM g GROUP BY 1)
SELECT g.doc_id,
       CAST(count(*) AS BIGINT) AS total_grams,
       CAST(coalesce(sum(CASE WHEN df.d >= 2 THEN 1 ELSE 0 END), 0) AS BIGINT) AS shared_grams
FROM g JOIN df USING (gm)
GROUP BY g.doc_id
ORDER BY g.doc_id
"""


@entry("doc_ngram_novelty", sql=SQL_DOC_NGRAM_NOVELTY)
def q_doc_ngram_novelty(sf_dir: str) -> pd.DataFrame:
    """Cross-document verbatim-overlap rate: per doc, total word
    3-gram occurrences vs occurrences of 3-grams shared with ≥2
    distinct docs (text.ngram_novelty_stats — gram-hash shuffle with
    in-partition df join-back, NO broadcast: the n-gram space is not
    vocabulary-bounded)."""
    from jesse_ray.functions.text import ngram_novelty_stats

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ngram_novelty_stats(ds, n=3).to_pandas()
    out["total_grams"] = out["total_grams"].astype("int64")
    out["shared_grams"] = out["shared_grams"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_DOC_SNAPSHOT_DIFF = """
WITH old AS (
  SELECT doc_id,
         CASE WHEN doc_id % 5 = 0 THEN text || ' OLD' ELSE text END AS text
  FROM documents WHERE doc_id < 400
),
new AS (SELECT doc_id, text FROM documents WHERE doc_id >= 100)
SELECT coalesce(old.doc_id, new.doc_id) AS doc_id,
       CASE WHEN new.doc_id IS NULL THEN 'removed'
            WHEN old.doc_id IS NULL THEN 'added'
            WHEN old.text = new.text THEN 'unchanged'
            ELSE 'changed' END AS status
FROM old FULL JOIN new USING (doc_id)
ORDER BY doc_id
"""


@entry("doc_snapshot_diff", sql=SQL_DOC_SNAPSHOT_DIFF)
def q_doc_snapshot_diff(sf_dir: str) -> pd.DataFrame:
    """Snapshot diff between two deterministic corpus versions (old =
    doc_id < 400 with every 5th text amended; new = doc_id >= 100
    verbatim): per doc, added / removed / changed / unchanged —
    relational.dataset_diff (slim-to-hash map, one coarse key-hash
    cogroup, payload never shuffles)."""
    from jesse_ray.pipelines.relational import dataset_diff

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def mk_old(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.less(batch["doc_id"], 400))
        ids = t["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        is5 = (ids.to_numpy(zero_copy_only=False) % 5) == 0
        amended = pc.if_else(
            pa.array(is5),
            pc.binary_join_element_wise(t["text"], " OLD", ""),
            t["text"],
        )
        return pa.table({"doc_id": t["doc_id"], "text": amended})

    def mk_new(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["doc_id"], 100))

    old = ds.map_batches(mk_old, batch_format="pyarrow", zero_copy_batch=True)
    new = ds.map_batches(mk_new, batch_format="pyarrow", zero_copy_batch=True)
    out = dataset_diff(old, new, key_col="doc_id", content_col="text").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_DOC_PCT_RANK = """
SELECT doc_id, source,
       round(percent_rank() OVER (PARTITION BY source ORDER BY n_chars), 6) AS pct_rank
FROM documents WHERE n_chars IS NOT NULL
ORDER BY doc_id
"""


@entry("doc_pct_rank", sql=SQL_DOC_PCT_RANK)
def q_doc_pct_rank(sf_dir: str) -> pd.DataFrame:
    """Per-source percentile calibration of a raw per-doc feature
    (n_chars): SQL percent_rank parity incl. min-rank ties
    (relational.grouped_percent_rank — coarse group-hash co-location,
    one C-level rank pass per part)."""
    from jesse_ray.pipelines.relational import grouped_percent_rank

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"])
    out = grouped_percent_rank(ds, group_col="source", value_col="n_chars").to_pandas()
    out["pct_rank"] = round_half_away(out["pct_rank"], 6)
    return out[["doc_id", "source", "pct_rank"]].sort_values("doc_id").reset_index(drop=True)


SQL_DOC_BACKOFF_LP = """
WITH arr AS (SELECT doc_id, string_split(text, ' ') AS a FROM documents),
pos AS (SELECT doc_id, a, generate_subscripts(a, 1) AS i FROM arr),
bg AS (SELECT doc_id, a[i] AS w1, a[i+1] AS w2 FROM pos WHERE i < len(a)),
bc AS (SELECT w1, w2, count(*)::DOUBLE AS c FROM bg WHERE doc_id % 2 = 0 GROUP BY 1, 2),
pfx AS (SELECT w1, sum(c) AS t FROM bc GROUP BY 1),
uc AS (
  SELECT word, count(*)::DOUBLE AS c
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS word FROM documents)
  WHERE doc_id % 2 = 0 GROUP BY 1
),
nt AS (SELECT sum(c) AS t FROM uc),
sc AS (
  SELECT bg.doc_id,
         CASE WHEN bc.c IS NOT NULL THEN ln(bc.c / pfx.t)
              WHEN u2.c IS NOT NULL THEN ln(0.4 * u2.c / (SELECT t FROM nt))
              ELSE ln(0.4 / ((SELECT t FROM nt) + 1.0)) END AS lp
  FROM bg
  LEFT JOIN bc ON bc.w1 = bg.w1 AND bc.w2 = bg.w2
  LEFT JOIN pfx ON pfx.w1 = bg.w1
  LEFT JOIN uc u2 ON u2.word = bg.w2
)
SELECT doc_id, round(avg(lp), 2) AS mean_sb FROM sc GROUP BY doc_id
"""


@entry("doc_backoff_lp", sql=SQL_DOC_BACKOFF_LP)
def q_doc_backoff_lp(sf_dir: str) -> pa.Table:
    """Stupid-Backoff LM quality scoring: bigram+unigram models trained
    on the EVEN-doc_id half of the corpus, every document scored with
    mean ln P_SB(w_i | w_{i-1}) (seen bigram → conditional; unseen →
    0.4-discounted unigram; OOV → floor).  Training on a half-corpus
    makes all three branches fire; the twin re-derives models and
    scores entirely in SQL."""
    from jesse_ray.functions.text import add_backoff_logprob, bigram_model, unigram_model

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def even_only(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return batch.filter(pa.array((ids.to_numpy(zero_copy_only=False) % 2) == 0))

    even = ds.map_batches(even_only, batch_format="pyarrow", zero_copy_batch=True)
    bg = bigram_model(even)
    uni = unigram_model(even)
    scored = add_backoff_logprob(ds, bg, uni)

    def out(batch: pa.Table) -> pa.Table:
        nw = pc.list_value_length(pc.split_pattern(pc.fill_null(batch["text"], ""), " "))
        t = batch.filter(pc.greater_equal(nw, 2))
        return pa.table({"doc_id": t["doc_id"], "mean_sb": pa.array(round_half_away(t["mean_sb"], 2), type=pa.float64())})

    return _collect(scored.map_batches(out, batch_format="pyarrow", zero_copy_batch=True))


SQL_EVENTS_WINDOW = """
SELECT event_type,
       CAST(floor(epoch(ts) / 3600) AS BIGINT) AS window,
       CAST(count(*) AS BIGINT) AS cnt,
       round(sum(value), 2) AS sum_value
FROM events GROUP BY 1, 2
"""


@entry("events_window", sql=SQL_EVENTS_WINDOW)
def q_events_window(sf_dir: str) -> pa.Table:
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])
    out = tumbling_window(ds, "ts", window_s=3600, keys=["event_type"], sums=["value"])
    t = _collect(out)
    return pa.table(
        {
            "event_type": t["event_type"],
            "window": t["window"].cast(pa.int64()),
            "cnt": t["cnt"].cast(pa.int64()),
            "sum_value": pa.array(round_half_away(t["sum_value"], 2), type=pa.float64()),
        }
    )


SQL_EVENTS_SLIDING = """
WITH e AS (
  SELECT event_type, CAST(floor(epoch(ts) / 3600) AS BIGINT) AS base, value FROM events
), w AS (
  SELECT event_type, unnest(generate_series(base - 1, base)) AS w_id, value FROM e
)
SELECT event_type, CAST(w_id AS BIGINT) AS "window",
       CAST(count(*) AS BIGINT) AS cnt,
       round(sum(value), 2) AS sum_value
FROM w GROUP BY 1, 2
"""


@entry("events_sliding", sql=SQL_EVENTS_SLIDING)
def q_events_sliding(sf_dir: str) -> pa.Table:
    """Sliding windows (2h window, 1h slide): each event lands in 2
    windows; per (event_type, window) count + value sum."""
    from jesse_ray.pipelines.relational import sliding_window

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])
    out = sliding_window(ds, "ts", window_s=7200, slide_s=3600, keys=["event_type"], sums=["value"])
    t = _collect(out)
    return pa.table(
        {
            "event_type": t["event_type"],
            "window": t["window"].cast(pa.int64()),
            "cnt": t["cnt"].cast(pa.int64()),
            "sum_value": pa.array(round_half_away(t["sum_value"], 2), type=pa.float64()),
        }
    )


SQL_EVENTS_LAG = """
SELECT event_id, user_id,
       CAST(COALESCE(
         LAG(event_id) OVER (PARTITION BY user_id ORDER BY ts, event_id), -1
       ) AS BIGINT) AS prev_event_id
FROM events ORDER BY event_id
"""


@entry("events_lag", sql=SQL_EVENTS_LAG)
def q_events_lag(sf_dir: str) -> pa.Table:
    """Per-user previous event (LAG over PARTITION BY user_id ORDER BY
    ts, event_id) via the coarse-partitioned grouped_lag operator."""
    from jesse_ray.pipelines.relational import grouped_lag

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    out = grouped_lag(ds, "user_id", ["ts", "event_id"], "event_id", alias="prev_event_id")
    t = _collect(out)
    return pa.table(
        {
            "event_id": t["event_id"].cast(pa.int64()),
            "user_id": t["user_id"].cast(pa.int64()),
            "prev_event_id": t["prev_event_id"].cast(pa.int64()),
        }
    ).sort_by("event_id")


SQL_EVENTS_ROLLING = """
SELECT event_id, user_id,
       SUM(CAST(round(value * 100) AS BIGINT)) OVER w / 100.0 AS roll_sum,
       CAST(COUNT(*) OVER w AS BIGINT) AS roll_cnt
FROM events
WINDOW w AS (
  PARTITION BY user_id ORDER BY ts
  RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW
)
ORDER BY event_id
"""


@entry("events_rolling", sql=SQL_EVENTS_ROLLING)
def q_events_rolling(sf_dir: str) -> pa.Table:
    """Per-user trailing 1-hour rolling SUM/COUNT of event value (ANSI
    RANGE frame incl. equal-ts peers) via the coarse-partitioned
    grouped_rolling operator — banded prefix-sum frames, no per-key
    Python."""
    from jesse_ray.pipelines.relational import grouped_rolling

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )
    out = grouped_rolling(ds, "user_id", "ts", "value", window_us=3_600_000_000,
                          exact_decimals=2)
    t = _collect(out)
    return pa.table(
        {
            "event_id": t["event_id"].cast(pa.int64()),
            "user_id": t["user_id"].cast(pa.int64()),
            "roll_sum": t["roll_sum"].cast(pa.float64()),
            "roll_cnt": t["roll_cnt"].cast(pa.int64()),
        }
    ).sort_by("event_id")


SESSION_GAP_S = 1800  # 30-minute inactivity gap


SQL_EVENTS_SESSIONS = f"""
WITH o AS (
  SELECT user_id, event_id, epoch_us(ts) AS e,
         LAG(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS pe
  FROM events
), s AS (
  SELECT user_id, e,
         SUM(CASE WHEN pe IS NULL OR e - pe > {SESSION_GAP_S * 1_000_000} THEN 1 ELSE 0 END)
           OVER (PARTITION BY user_id ORDER BY e, event_id ROWS UNBOUNDED PRECEDING) AS sid
  FROM o
)
SELECT user_id, CAST(sid AS BIGINT) AS session_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(max(e) - min(e) AS BIGINT) AS duration_us
FROM s GROUP BY 1, 2
"""


@entry("events_sessions", sql=SQL_EVENTS_SESSIONS)
def q_events_sessions(sf_dir: str) -> pa.Table:
    """Inactivity-gap sessionization (30 min): one row per (user,
    session) with event count and duration — coarse-partitioned
    sessionize operator vs a LAG + windowed-SUM SQL twin."""
    from jesse_ray.pipelines.relational import sessionize

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])
    out = sessionize(ds, "user_id", "ts", gap_s=SESSION_GAP_S, order_cols=["event_id"])
    t = _collect(out)
    return pa.table(
        {
            "user_id": t["user_id"].cast(pa.int64()),
            "session_id": t["session_id"].cast(pa.int64()),
            "n_events": t["n_events"].cast(pa.int64()),
            "duration_us": t["duration_us"].cast(pa.int64()),
        }
    )


SQL_EVENTS_FUNNEL = """
WITH a AS (
  SELECT user_id, min(ts) AS first_a FROM events WHERE event_type = 'signup' GROUP BY 1
),
b AS (
  SELECT e.user_id, min(e.ts) AS first_b
  FROM events e JOIN a USING (user_id)
  WHERE e.event_type = 'purchase' AND e.ts >= a.first_a
    AND e.ts <= a.first_a + INTERVAL 3 DAY
  GROUP BY 1
)
SELECT user_id, first_a, first_b FROM a JOIN b USING (user_id)
"""


@entry("events_funnel", sql=SQL_EVENTS_FUNNEL)
def q_events_funnel(sf_dir: str) -> pa.Table:
    """Two-step funnel (signup → purchase within 3 days): per user, the
    first signup and the first purchase at-or-after it inside the
    window; converted users only.  One coarse user-hash shuffle of the
    filtered two-type event slice, per-part groupby-min + forward
    merge_asof (relational.funnel_conversions)."""
    from jesse_ray.pipelines.relational import funnel_conversions

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"])
    out = funnel_conversions(
        ds, entity_col="user_id", ts_col="ts", type_col="event_type",
        step_a="signup", step_b="purchase", within=pd.Timedelta(days=3),
    )
    return _collect(out).sort_by("user_id")


SQL_EVENTS_WINSORIZED = """
WITH b AS (
  SELECT event_type, quantile_disc(value, 0.05) AS lo, quantile_disc(value, 0.95) AS hi
  FROM events GROUP BY 1
)
SELECT e.event_type, CAST(count(*) AS BIGINT) AS n,
       round(sum(greatest(b.lo, least(e.value, b.hi))), 2) AS wsum
FROM events e JOIN b USING (event_type)
GROUP BY 1 ORDER BY 1
"""


@entry("events_winsorized", sql=SQL_EVENTS_WINSORIZED)
def q_events_winsorized(sf_dir: str) -> pd.DataFrame:
    """Outlier-robust per-type aggregation: winsorize value at each
    event_type's exact [p5, p95] discrete quantiles, then sum/count per
    type (relational.winsorize_by_group — exact grouped quantile bounds
    broadcast into a vectorized clip stage)."""
    from jesse_ray.pipelines.relational import grouped_agg, winsorize_by_group

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    clipped = winsorize_by_group(ds, "event_type", "value", q_lo=0.05, q_hi=0.95)
    agg = grouped_agg(clipped.select_columns(["event_type", "value_w"]),
                      ["event_type"], sums=["value_w"], count_alias="n")
    pdf = agg.to_pandas().sort_values("event_type").reset_index(drop=True)
    pdf["n"] = pdf["n"].astype("int64")
    pdf["wsum"] = round_half_away(pdf["sum_value_w"], 2)
    return pdf[["event_type", "n", "wsum"]]


DECAY_HALF_LIFE_S = 7 * 86400.0


SQL_EVENTS_DECAYED_SUM = f"""
WITH m AS (SELECT max(ts) AS tmax FROM events)
SELECT event_type,
       round(sum(value * exp(-ln(2) * epoch(tmax - ts) / {DECAY_HALF_LIFE_S})), 2) AS decayed_sum
FROM events, m
WHERE ts IS NOT NULL AND value IS NOT NULL
GROUP BY event_type ORDER BY event_type
"""


@entry("events_decayed_sum", sql=SQL_EVENTS_DECAYED_SUM)
def q_events_decayed_sum(sf_dir: str) -> pd.DataFrame:
    """Recency-weighted per-type value sum (exponential decay, 7-day
    half-life, anchored at the corpus max timestamp) —
    relational.decayed_grouped_sum, a scalar-partial pass + combiner
    shuffle of ≤ #groups rows."""
    from jesse_ray.pipelines.relational import decayed_grouped_sum

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])
    out = decayed_grouped_sum(
        ds, group_col="event_type", ts_col="ts", value_col="value",
        half_life_s=DECAY_HALF_LIFE_S,
    ).to_pandas()
    out["decayed_sum"] = round_half_away(out["decayed_sum"], 2)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_EVENTS_ZSCORE = """
WITH s AS (
  SELECT event_type, avg(value) AS mu, stddev_pop(value) AS sd
  FROM events WHERE value IS NOT NULL GROUP BY 1
)
SELECT e.event_type, CAST(count(*) AS BIGINT) AS n,
       CAST(sum(CASE WHEN abs(e.value - s.mu) / s.sd > 2.5 THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers
FROM events e JOIN s USING (event_type)
WHERE e.value IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


@entry("events_zscore", sql=SQL_EVENTS_ZSCORE)
def q_events_zscore(sf_dir: str) -> pd.DataFrame:
    """Per-type z-score outlier counts (|z| > 2.5 against the exact
    group mean / population stddev) — relational.grouped_zscore_outliers
    two-pass moments+probe."""
    from jesse_ray.pipelines.relational import grouped_zscore_outliers

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    t = grouped_zscore_outliers(ds, group_col="event_type", value_col="value", z=2.5)
    return t.to_pandas().sort_values("event_type").reset_index(drop=True)


SQL_EVENTS_WINDOW_DEDUP = """
WITH x AS (
  SELECT event_type,
         ts - lag(ts) OVER (PARTITION BY user_id, event_type ORDER BY ts) AS gap
  FROM events
)
SELECT event_type,
       CAST(sum(CASE WHEN gap IS NULL OR gap > INTERVAL 30 MINUTE THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       CAST(count(*) AS BIGINT) AS n_total
FROM x GROUP BY event_type ORDER BY event_type
"""


@entry("events_window_dedup", sql=SQL_EVENTS_WINDOW_DEDUP)
def q_events_window_dedup(sf_dir: str) -> pd.DataFrame:
    """Event-stream debounce dedup: per (user, type) stream, drop
    repeats whose previous identical-key event is ≤ 30 minutes older
    (keep the first of each burst); kept/total counts per type
    (relational.window_dedup_counts — one coarse entity-hash shuffle,
    per-part lexsort + shifted compare)."""
    from jesse_ray.pipelines.relational import window_dedup_counts

    ds = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts"])
    out = window_dedup_counts(
        ds, entity_col="user_id", type_col="event_type", ts_col="ts",
        window=pd.Timedelta(minutes=30),
    ).to_pandas()
    out["n_kept"] = out["n_kept"].astype("int64")
    out["n_total"] = out["n_total"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_EVENTS_USERS_HLL = """
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/hll_users_sigs_sf0.01.parquet')),
exact AS (
  SELECT event_type, count(DISTINCT user_id) AS d FROM events GROUP BY 1
)
SELECT s.event_type, CAST(s.est AS BIGINT) AS est
FROM s JOIN exact USING (event_type)
WHERE abs(CAST(s.est AS DOUBLE) / exact.d - 1.0) <= 0.05
ORDER BY s.event_type
"""


@entry("events_users_hll", sql=SQL_EVENTS_USERS_HLL)
def q_events_users_hll(sf_dir: str) -> pd.DataFrame:
    """Approximate distinct users per event type (grouped HyperLogLog
    p=12 — ~4 KB mergeable blob per (group, block) instead of the exact
    operator's full (group, user) shuffle).  Envelope twin: the exact
    grouped count(DISTINCT) gates each estimate to ±5 %; any
    out-of-envelope group drops its row and fails the compare."""
    from jesse_ray.stages.distinct import hll_distinct_by_group

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])
    t = hll_distinct_by_group(ds, "user_id", "event_type", p=12)
    pdf = t.to_pandas()
    pdf["est"] = round_half_away(pdf["estimate"]).astype("int64")
    pdf = pdf[["event_type", "est"]].sort_values("event_type").reset_index(drop=True)
    pq.write_table(pa.Table.from_pandas(pdf, preserve_index=False),
                   _sig_parquet_path(sf_dir, "hll_users"))
    return pdf


SQL_EVENTS_CAST_REPORT = """
WITH d AS (
  SELECT event_type,
         CASE WHEN event_id % 7 = 0 THEN 'N/A'
              ELSE CAST(CAST(trunc(value * 100.0) AS BIGINT) AS VARCHAR) END AS s
  FROM events
)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_total,
       CAST(sum(CASE WHEN TRY_CAST(s AS BIGINT) IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_fail,
       CAST(coalesce(sum(TRY_CAST(s AS BIGINT)), 0) AS BIGINT) AS sum_cast
FROM d GROUP BY 1 ORDER BY 1
"""


@entry("events_cast_report", sql=SQL_EVENTS_CAST_REPORT)
def q_events_cast_report(sf_dir: str) -> pd.DataFrame:
    """TRY_CAST coercion audit before a typed migration: a string
    column derived deterministically from the corpus (every 7th event
    is the planted dirt 'N/A', the rest integer cents) is try-cast to
    int64 per event type (relational.grouped_cast_report — one RE2
    match + one Arrow cast per batch, combiner partials)."""
    from jesse_ray.pipelines.relational import grouped_cast_report

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"])

    def derive(batch: pa.Table) -> pa.Table:
        ids = batch["event_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        dirty = (ids.to_numpy(zero_copy_only=False) % 7) == 0
        cents = pc.cast(pc.trunc(pc.multiply(batch["value"], pa.scalar(100.0))), pa.int64())
        s = pc.if_else(pa.array(dirty), pa.scalar("N/A"), pc.cast(cents, pa.string()))
        return pa.table({"event_type": batch["event_type"], "s": s})

    d = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    t = grouped_cast_report(d, group_col="event_type", col="s")
    return t.to_pandas().sort_values("event_type").reset_index(drop=True)


SQL_EVENTS_TRANSITIONS = """
WITH x AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS nxt
  FROM events
)
SELECT event_type AS from_type, nxt AS to_type, CAST(count(*) AS BIGINT) AS cnt
FROM x WHERE nxt IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("events_transitions", sql=SQL_EVENTS_TRANSITIONS)
def q_events_transitions(sf_dir: str) -> pd.DataFrame:
    """Event-type transition matrix (user-journey Markov counts): per
    user timeline ordered by (ts, event_id), every adjacent type pair
    counted corpus-wide (relational.transition_counts — one entity-hash
    cogroup, per-part lexsort, tiny type×type merge)."""
    from jesse_ray.pipelines.relational import transition_counts

    ds = read_table(f"{sf_dir}/events.parquet",
                    columns=["user_id", "event_type", "ts", "event_id"])
    t = transition_counts(ds, entity_col="user_id", type_col="event_type",
                          ts_col="ts", order_col="event_id")
    return t.to_pandas().sort_values(["from_type", "to_type"]).reset_index(drop=True)


SQL_EVENTS_CORR = """
SELECT event_type,
       round(corr(epoch(ts - TIMESTAMP '2024-01-01') / 86400.0, value), 5) AS corr
FROM events WHERE ts IS NOT NULL AND value IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


@entry("events_corr", sql=SQL_EVENTS_CORR)
def q_events_corr(sf_dir: str) -> pd.DataFrame:
    """Pearson correlation of value vs time-of-corpus (days since
    2024-01-01) per event type, in one combiner pass
    (relational.grouped_corr).  Inputs are centered to day units so the
    one-pass moment sums stay well-conditioned (documented caveat)."""
    from jesse_ray.pipelines.relational import grouped_corr

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])
    t0 = pd.Timestamp("2024-01-01")

    def derive(batch: pa.Table) -> pa.Table:
        ts = batch["ts"].cast(pa.timestamp("us")).cast(pa.int64())
        days = pc.divide(pc.cast(pc.subtract(ts, pa.scalar(int(t0.value // 1000))), pa.float64()),
                         pa.scalar(86400.0 * 1e6))
        return pa.table({"event_type": batch["event_type"], "days": days, "value": batch["value"]})

    d = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    t = grouped_corr(d, group_col="event_type", x_col="days", y_col="value")
    pdf = t.to_pandas()
    pdf["corr"] = round_half_away(pdf["corr"], 5)
    return pdf.sort_values("event_type").reset_index(drop=True)


# Distributed position checksum of a global sort by (n_tok, doc_id) — the
# sorted corpus NEVER lands on the driver.  Per block: (count, Σ
# local_pos·n_tok, Σ n_tok) plus the block's first and last sort keys; the
# checksum is invariant under permutation within equal-n_tok ties (pos·n_tok
# sums the same), so folding block partials in first-key order with a prefix
# offset reproduces the global Σ pos·n_tok exactly.  Integer-exact: int64
# within a block, unbounded python ints in the O(blocks) driver fold.  Null
# n_tok contributes 0 (SQL sum semantics) and sorts last on both sides.


def _global_sort_block_partial(b: pa.Table) -> pa.Table:
    """One sorted block's ``(fn, fid, ln, lid, cnt, local, ntsum)`` row."""
    nt64 = b["n_tok"].cast(pa.int64())
    if isinstance(nt64, pa.ChunkedArray):
        nt64 = nt64.combine_chunks()
    nt0 = pc.fill_null(nt64, 0).to_numpy(zero_copy_only=False)
    pos = np.arange(b.num_rows, dtype=np.int64)
    # the block's exact FIRST boundary key under the global
    # sort([n_tok, doc_id]) order (null n_tok -> +inf sentinel, a null
    # doc_id stays null and the fold sorts it last, as the sort does):
    # block order on (fn, fid) is the true total order, with no reliance
    # on stable tie-breaking over a (min, max) summary or on iter_batches
    # order
    if b.num_rows:
        fn_v, ln_v = nt64[0].as_py(), nt64[-1].as_py()
        fn = int(fn_v) if fn_v is not None else (1 << 62)
        ln = int(ln_v) if ln_v is not None else (1 << 62)
        fid = b["doc_id"][0].as_py()
        lid = b["doc_id"][-1].as_py()
    else:
        fn, fid, ln, lid = (1 << 62), "", (1 << 62), ""
    return pa.table({
        "fn": pa.array([fn], type=pa.int64()),
        "fid": pa.array([fid], type=pa.string()),
        "ln": pa.array([ln], type=pa.int64()),
        "lid": pa.array([lid], type=pa.string()),
        "cnt": pa.array([b.num_rows], type=pa.int64()),
        "local": pa.array([int((pos * nt0).sum())], type=pa.int64()),
        "ntsum": pa.array([int(nt0.sum())], type=pa.int64()),
    })


def _fold_global_sort_partials(parts: pd.DataFrame) -> tuple[int, int]:
    """``(n_rows, Σ pos·n_tok)`` from block partials in any order.

    (fn, fid) is the true total order of block starts; (ln, lid) breaks
    the one degenerate tie — an entire block being a single duplicated
    (n_tok, doc_id) run — where remaining equal-first-key permutations
    are checksum-invariant (same n_tok throughout)."""
    parts = parts.sort_values(["fn", "fid", "ln", "lid"], na_position="last").reset_index(drop=True)
    total, off, n = 0, 0, 0
    for cnt, local, ntsum in zip(parts["cnt"], parts["local"], parts["ntsum"]):
        total += int(local) + off * int(ntsum)
        off += int(cnt)
        n += int(cnt)
    return n, total


SQL_SEQ_GLOBAL_SORT = f"""
WITH s AS (
  SELECT n_tok, row_number() OVER (ORDER BY n_tok ASC NULLS LAST, doc_id ASC NULLS LAST) - 1 AS pos
  FROM {SEQ_SQL}
)
SELECT CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(pos * n_tok) AS BIGINT) AS pos_checksum
FROM s
"""


@entry("seq_global_sort", sql=SQL_SEQ_GLOBAL_SORT)
def q_seq_global_sort(sf_dir: str) -> pd.DataFrame:
    """Global sort as a first-class wide op: order the corpus by
    (n_tok, doc_id) with Ray's distributed sort and checksum the
    resulting POSITIONS (Σ pos·hash-independent key rank is order-
    sensitive, so any mis-sort changes the value).  Null n_tok sorts
    last on both sides."""
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "n_tok"])
    srt = ds.sort(["n_tok", "doc_id"])
    parts = _collect(
        srt.map_batches(_global_sort_block_partial, batch_format="pyarrow", batch_size=None)
    ).to_pandas()
    n, total = _fold_global_sort_partials(parts)
    return pd.DataFrame({
        "n_rows": pd.array([n], dtype="int64"),
        "pos_checksum": pd.array([total], dtype="int64"),
    })


SQL_DOC_TTR_BY_SOURCE = """
SELECT source, CAST(count(DISTINCT w) AS BIGINT) AS n_types,
       CAST(count(*) AS BIGINT) AS n_tokens
FROM (SELECT source, unnest(string_split(text, ' ')) AS w FROM documents)
GROUP BY source ORDER BY source
"""


@entry("doc_ttr_by_source", sql=SQL_DOC_TTR_BY_SOURCE)
def q_doc_ttr_by_source(sf_dir: str) -> pd.DataFrame:
    """Lexical diversity per source (type-token ratio ingredients):
    distinct words vs total word occurrences, integer-exact.  Distinct
    side = per-batch distinct (source, word) combiner then a global
    distinct + count; totals = one bincount pass."""
    ds = read_table(f"{sf_dir}/documents.parquet", columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        txt = pc.fill_null(batch["text"], "")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        words = pc.split_pattern(txt, " ")
        flat = pc.list_flatten(words)
        parent = pc.list_parent_indices(words)
        src = batch["source"]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        g = src.take(parent)
        t = pa.table({"source": g, "w": flat})
        distinct = t.group_by(["source", "w"]).aggregate([([], "count_all")])
        return distinct.rename_columns(["source", "w", "__pc"])

    parts = _collect(ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True))
    merged = parts.group_by(["source", "w"]).aggregate([("__pc", "sum")])
    agg = merged.group_by("source").aggregate([([], "count_all"), ("__pc_sum", "sum")])
    pdf = agg.rename_columns(["source", "n_types", "n_tokens"]).to_pandas()
    pdf["n_types"] = pdf["n_types"].astype("int64")
    pdf["n_tokens"] = pdf["n_tokens"].astype("int64")
    return pdf.sort_values("source").reset_index(drop=True)


SQL_EVENTS_HOURLY = """
SELECT CAST(date_part('hour', ts) AS BIGINT) AS hour,
       CAST(count(*) AS BIGINT) AS n,
       round(sum(value), 2) AS value_sum
FROM events GROUP BY 1 ORDER BY 1
"""


@entry("events_hourly", sql=SQL_EVENTS_HOURLY)
def q_events_hourly(sf_dir: str) -> pd.DataFrame:
    """Temporal seasonality profile: event counts and value sums per
    hour of day — vectorized hour extraction + the grouped_agg combiner
    (≤24 rows shuffle)."""
    from jesse_ray.pipelines.relational import grouped_agg

    ds = read_table(f"{sf_dir}/events.parquet", columns=["ts", "value"])

    def derive(batch: pa.Table) -> pa.Table:
        hour = pc.hour(batch["ts"].cast(pa.timestamp("us"))).cast(pa.int64())
        return pa.table({"hour": hour, "value": batch["value"]})

    d = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    out = grouped_agg(d, ["hour"], sums=["value"]).to_pandas()
    out["n"] = out["cnt"].astype("int64")
    out["value_sum"] = round_half_away(out["sum_value"], 2)
    return out[["hour", "n", "value_sum"]].sort_values("hour").reset_index(drop=True)


HIST_LO, HIST_HI, HIST_BINS = 0.0, 500.0, 20


SQL_EVENTS_HISTOGRAM = f"""
SELECT CAST(least(greatest(floor((value - {HIST_LO}) / {(HIST_HI - HIST_LO) / HIST_BINS}), 0),
                  {HIST_BINS - 1}) AS BIGINT) AS bin,
       CAST(count(*) AS BIGINT) AS n
FROM events WHERE value IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


@entry("events_histogram", sql=SQL_EVENTS_HISTOGRAM)
def q_events_histogram(sf_dir: str) -> pd.DataFrame:
    """Fixed-width histogram of value (profiling primitive): 20 bins
    over [0, 500), out-of-range clamped to the edge bins — one
    vectorized binning pass + the ≤bins-row combiner shuffle."""
    from jesse_ray.pipelines.relational import grouped_agg

    ds = read_table(f"{sf_dir}/events.parquet", columns=["value"])
    width = (HIST_HI - HIST_LO) / HIST_BINS

    def binify(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.is_valid(batch["value"]))
        v = t["value"].cast(pa.float64()).to_numpy(zero_copy_only=False)
        b = np.clip(np.floor((v - HIST_LO) / width).astype(np.int64), 0, HIST_BINS - 1)
        return pa.table({"bin": pa.array(b, type=pa.int64())})

    d = ds.map_batches(binify, batch_format="pyarrow", zero_copy_batch=True)
    out = grouped_agg(d, ["bin"]).to_pandas()
    out["n"] = out["cnt"].astype("int64")
    return out[["bin", "n"]].sort_values("bin").reset_index(drop=True)


SQL_SEQ_TOP_TOKENS = f"""
SELECT CAST(t AS BIGINT) AS token, CAST(count(*) AS BIGINT) AS cnt
FROM (SELECT unnest(tokens) AS t FROM {SEQ_SQL})
GROUP BY 1 ORDER BY cnt DESC, token ASC LIMIT 20
"""


@entry("seq_top_tokens", sql=SQL_SEQ_TOP_TOKENS)
def q_seq_top_tokens(sf_dir: str) -> pa.Table:
    """Exact corpus-wide top-20 token frequencies (heavy hitters) over
    the tokenized sequences — two-phase combiner + coarse element-hash
    shuffle; the driver merges only n_parts × k candidate rows."""
    from jesse_ray.pipelines.relational import top_k_elements

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])
    top = top_k_elements(ds, "tokens", k=20, elem_alias="token", count_alias="cnt")
    return pa.table(
        {
            "token": top["token"].cast(pa.int64()),
            "cnt": top["cnt"].cast(pa.int64()),
        }
    )


SQL_SEQ_BPE_PAIRS = f"""
WITH idx AS (
  SELECT generate_subscripts(tokens, 1) AS i, tokens FROM {SEQ_SQL}
)
SELECT CAST(tokens[i] AS BIGINT) AS a, CAST(tokens[i+1] AS BIGINT) AS b,
       CAST(count(*) AS BIGINT) AS cnt
FROM idx
WHERE i < len(tokens) AND tokens[i] >= 0 AND tokens[i+1] >= 0
GROUP BY 1, 2
ORDER BY cnt DESC, a ASC, b ASC
LIMIT 20
"""


@entry("seq_bpe_pairs", sql=SQL_SEQ_BPE_PAIRS)
def q_seq_bpe_pairs(sf_dir: str) -> pa.Table:
    """One BPE merge iteration: exact top-20 adjacent token-pair counts
    across the corpus (tokenizer-training inner loop).  Map side packs
    each bigram into one int64 and emits per-block distinct-pair
    partials; the shuffle carries only (pair, count) rows on a coarse
    pair-hash partition (per-part top-k is globally exact).  Pairs with
    a negative id (the corpus's out-of-range sentinels) are excluded on
    both sides."""
    from jesse_ray.functions.seqops import token_pair_counts

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])
    top = token_pair_counts(ds, k=20)
    return pa.table(
        {
            "a": top["a"].cast(pa.int64()),
            "b": top["b"].cast(pa.int64()),
            "cnt": top["cnt"],
        }
    )


SQL_SEQ_PMI_PAIRS = f"""
WITH corpus AS (SELECT * FROM {SEQ_SQL}),
u AS (
  SELECT t, CAST(count(*) AS BIGINT) AS c
  FROM (SELECT unnest(tokens) AS t FROM corpus) WHERE t >= 0 GROUP BY 1
),
nt AS (SELECT CAST(sum(c) AS DOUBLE) AS v FROM u),
idx AS (SELECT generate_subscripts(tokens, 1) AS i, tokens FROM corpus),
p AS (
  SELECT CAST(tokens[i] AS BIGINT) AS a, CAST(tokens[i+1] AS BIGINT) AS b,
         CAST(count(*) AS BIGINT) AS c_ab
  FROM idx WHERE i < len(tokens) AND tokens[i] >= 0 AND tokens[i+1] >= 0
  GROUP BY 1, 2
),
npair AS (SELECT CAST(sum(c_ab) AS DOUBLE) AS v FROM p),
sel AS (
  SELECT a, b, c_ab, CAST(c_ab AS DOUBLE) / (ua.c * ub.c) AS ratio
  FROM p JOIN u ua ON ua.t = p.a JOIN u ub ON ub.t = p.b
  WHERE c_ab >= 5
)
SELECT a, b, c_ab AS cnt,
       round(ln(ratio * ((SELECT v FROM nt) * (SELECT v FROM nt) / (SELECT v FROM npair))), 4) AS pmi
FROM sel ORDER BY ratio DESC, a ASC, b ASC LIMIT 20
"""


@entry("seq_pmi_pairs", sql=SQL_SEQ_PMI_PAIRS)
def q_seq_pmi_pairs(sf_dir: str) -> pa.Table:
    """Collocation mining: top-20 adjacent token pairs by PMI among
    pairs with count ≥ 5 (seqops.token_pmi_topk).  Ranking uses the
    raw IEEE division c_ab/(c_a·c_b) — exactly rounded from integers on
    both engines, so order matches bit-for-bit; PMI itself is rounded
    for display."""
    from jesse_ray.functions.seqops import token_pmi_topk

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])
    return token_pmi_topk(ds, k=20, min_count=5)


VOCAB_KS = [100, 1000, 10000]


SQL_SEQ_VOCAB_COVERAGE = f"""
WITH u AS (
  SELECT t, CAST(count(*) AS BIGINT) AS c
  FROM (SELECT unnest(tokens) AS t FROM {SEQ_SQL}) WHERE t >= 0 GROUP BY 1
),
r AS (SELECT t, c, row_number() OVER (ORDER BY c DESC, t ASC) AS rn FROM u),
ks AS (SELECT unnest([{", ".join(str(k) for k in VOCAB_KS)}]) AS k)
SELECT CAST(ks.k AS BIGINT) AS k,
       CAST((SELECT coalesce(sum(c), 0) FROM r WHERE rn <= ks.k) AS BIGINT) AS covered_cnt,
       CAST((SELECT sum(c) FROM u) AS BIGINT) AS total_cnt
FROM ks ORDER BY k
"""


@entry("seq_vocab_coverage", sql=SQL_SEQ_VOCAB_COVERAGE)
def q_seq_vocab_coverage(sf_dir: str) -> pd.DataFrame:
    """Vocab-sizing curve: token occurrences covered by the top-k most
    frequent ids, k in {100, 1k, 10k} (seqops.vocab_coverage_curve —
    bounded-vocab two-phase counts, integer-exact)."""
    from jesse_ray.functions.seqops import vocab_coverage_curve

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens"])
    return vocab_coverage_curve(ds, VOCAB_KS).to_pandas()


NTOK_QS = [0.25, 0.5, 0.75, 0.9, 0.99]


SQL_SEQ_NTOK_PERCENTILES = f"""
WITH v AS (
  SELECT quantile_disc(n_tok, [{", ".join(str(q) for q in NTOK_QS)}]) AS a FROM {SEQ_SQL}
)
SELECT unnest([{", ".join(str(q) for q in NTOK_QS)}]) AS q,
       CAST(unnest(a) AS BIGINT) AS n_tok_q
FROM v
"""


@entry("seq_ntok_percentiles", sql=SQL_SEQ_NTOK_PERCENTILES)
def q_seq_ntok_percentiles(sf_dir: str) -> pa.Table:
    """Exact discrete quantiles of n_tok (quantile_disc parity) via the
    bounded-cardinality two-phase value-count operator."""
    from jesse_ray.pipelines.relational import exact_discrete_quantiles

    ds = read_sequences(_seq_path(sf_dir), columns=["n_tok"])
    vals = exact_discrete_quantiles(ds, "n_tok", NTOK_QS)
    return pa.table(
        {
            "q": pa.array(NTOK_QS, type=pa.float64()),
            "n_tok_q": pa.array([int(v) for v in vals], type=pa.int64()),
        }
    )


SQL_DOC_DF_TOPK = r"""
SELECT word, CAST(count(*) AS BIGINT) AS df FROM (
  SELECT DISTINCT doc_id, w AS word FROM (
    SELECT doc_id, unnest(regexp_split_to_array(lower(text), '\W+')) AS w FROM documents
  ) WHERE w <> ''
) GROUP BY 1 ORDER BY df DESC, word ASC LIMIT 20
"""


@entry("doc_df_topk", sql=SQL_DOC_DF_TOPK)
def q_doc_df_topk(sf_dir: str) -> pa.Table:
    """Top-20 words by DOCUMENT frequency (the IDF denominator):
    vectorized RE2 tokenization + per-batch distinct-(doc, word) +
    coarse word-hash shuffle; DuckDB twin tokenizes with the same RE2
    regex engine."""
    from jesse_ray.functions.text import document_frequency_topk

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    top = document_frequency_topk(ds, k=20)
    return pa.table({"word": top["word"], "df": top["df"].cast(pa.int64())})


SQL_DOC_DECONTAM = """
WITH bench AS (
  SELECT DISTINCT array_to_string((string_split(text,' '))[1:3],' ') AS probe
  FROM documents WHERE doc_id % 17 = 3
),
w AS (SELECT doc_id, string_split(text,' ') AS ws FROM documents WHERE doc_id % 17 != 3),
grams AS (
  SELECT doc_id, array_to_string(ws[i:i+2],' ') AS gram
  FROM (SELECT doc_id, ws, unnest(generate_series(1, len(ws)-2)) AS i FROM w)
)
SELECT doc_id, CAST(count(DISTINCT g.gram) AS BIGINT) AS n_probes
FROM grams g JOIN bench b ON g.gram = b.probe
GROUP BY doc_id
"""


@entry("doc_decontam", sql=SQL_DOC_DECONTAM)
def q_doc_decontam(sf_dir: str) -> pa.Table:
    """Benchmark decontamination: documents sharing any 3-gram with the
    deterministic pseudo-benchmark (docs with doc_id % 17 == 3; their
    first 3 words are the probe set).  Broadcast hashed-probe membership
    scan — no shuffle; the twin recomputes the word-boundary n-gram
    overlap exactly in SQL."""
    from jesse_ray.functions.decontam import flag_contaminated, probe_hashes

    bench = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    mask = pa.array((bench["doc_id"].to_numpy() % 17) == 3)
    probes_txt = [
        " ".join((t or "").split(" ")[:3]) for t in bench.filter(mask)["text"].to_pylist()
    ]
    probes = probe_hashes(probes_txt, n_words=3)

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    flagged = flag_contaminated(ds, probes, n_words=3)

    def hits(batch: pa.Table) -> pa.Table:
        t = batch.filter(
            pc.and_(
                pc.greater(batch["n_probes"], 0),
                pa.array((batch["doc_id"].to_numpy() % 17) != 3),
            )
        )
        return pa.table({"doc_id": t["doc_id"], "n_probes": t["n_probes"]})

    return _collect(flagged.map_batches(hits, batch_format="pyarrow", zero_copy_batch=True))


REPETITION_PCT = 12  # Gopher-style gate: top word covers >= 12% of the doc


SQL_DOC_REPETITION = f"""
WITH w AS (SELECT doc_id, unnest(string_split(text,' ')) AS word FROM documents),
c AS (SELECT doc_id, word, count(*) AS cnt FROM w GROUP BY 1, 2),
agg AS (SELECT doc_id, max(cnt) AS mx, CAST(sum(cnt) AS BIGINT) AS n, count(*) AS nd
        FROM c GROUP BY 1)
SELECT doc_id, CAST(mx AS BIGINT) AS top_word_cnt, n AS n_words,
       CAST(nd AS BIGINT) AS n_distinct_words
FROM agg WHERE 100 * mx >= {REPETITION_PCT} * n
"""


@entry("doc_repetition", sql=SQL_DOC_REPETITION)
def q_doc_repetition(sf_dir: str) -> pa.Table:
    """Repetition quality gate (Gopher rule): documents whose most
    frequent word covers >= 12% of all words.  Integer columns only —
    the fraction threshold is the exact integer predicate
    100*top_cnt >= 12*n_words."""
    from jesse_ray.functions.text import add_repetition_stats

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    rep = add_repetition_stats(ds)

    def gate(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(
            pc.multiply(batch["top_word_cnt"], 100),
            pc.multiply(batch["n_words"], REPETITION_PCT),
        )
        t = batch.filter(keep)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "top_word_cnt": t["top_word_cnt"],
                "n_words": t["n_words"],
                "n_distinct_words": t["n_distinct_words"],
            }
        )

    return _collect(rep.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True))


LINE_DEDUP_PCT = 78  # drop "lines" present in >= 78% of distinct docs
LINE_DEDUP_MIN_CHARS = 4


SQL_DOC_LINE_DEDUP = f"""
WITH ls AS (
  SELECT doc_id, string_split(coalesce(text,''), ' ') AS l FROM documents
),
lines AS (
  SELECT doc_id, unnest(l) AS line, unnest(range(len(l))) AS idx FROM ls
),
rep AS (
  SELECT line FROM lines WHERE length(line) >= {LINE_DEDUP_MIN_CHARS}
  GROUP BY line
  HAVING 100 * count(DISTINCT doc_id) >= {LINE_DEDUP_PCT} * (SELECT count(*) FROM documents)
)
SELECT li.doc_id,
       coalesce(string_agg(CASE WHEN r.line IS NULL THEN li.line END, ' ' ORDER BY li.idx), '') AS text_dedup,
       CAST(count(*) FILTER (WHERE r.line IS NOT NULL) AS BIGINT) AS n_removed
FROM lines li LEFT JOIN rep r USING (line)
GROUP BY li.doc_id
"""


@entry("doc_line_dedup", sql=SQL_DOC_LINE_DEDUP)
def q_doc_line_dedup(sf_dir: str) -> pa.Table:
    """Cross-document repeated-line removal (RefinedWeb/Falcon-style
    boilerplate scrub; Penedo et al. 2023 §4.2): drop every line that
    appears in >= LINE_DEDUP_PCT % of distinct documents, preserving
    line order.  The corpus text is single-line, so the catalog query
    runs the operator at word granularity (sep=" ") — the semantics and
    both phases (coarse-partition exact count, broadcast rewrite) are
    identical to the newline case the API defaults to.  Integer-exact
    threshold: 100*n_docs(line) >= PCT*n_docs."""
    from jesse_ray.functions.dedup import dedup_lines

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    n = ds.count()  # parquet metadata count — no scan
    min_docs = -(-LINE_DEDUP_PCT * n // 100)  # smallest k with 100k >= PCT*n
    out = dedup_lines(ds, sep=" ", min_chars=LINE_DEDUP_MIN_CHARS, min_docs=min_docs)

    def pick(batch: pa.Table) -> pa.Table:
        return batch.select(["doc_id", "text_dedup", "n_removed"])

    return _collect(out.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True))


SQL_DOC_NORMALIZE = """
WITH n AS (
  SELECT doc_id,
         trim(regexp_replace(regexp_replace(lower(coalesce(text,'')), '[^a-z0-9 ]', ' ', 'g'), ' +', ' ', 'g'), ' ') AS text_norm
  FROM documents
)
SELECT doc_id, text_norm, CAST(length(text_norm) AS BIGINT) AS n_chars_norm FROM n
"""


@entry("doc_normalize", sql=SQL_DOC_NORMALIZE)
def q_doc_normalize(sf_dir: str) -> pa.Table:
    """Canonical normalization (lowercase, punct→space, collapse
    spaces, trim) — the standard pre-hash step of a dedup pipeline
    (text.normalize_text).  Exact twin: both engines run the same RE2
    replacements."""
    from jesse_ray.functions.text import normalize_text

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = normalize_text(ds)

    def pick(batch: pa.Table) -> pa.Table:
        t = batch["text_norm"]
        if isinstance(t, pa.ChunkedArray):
            t = t.combine_chunks()
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "text_norm": t,
                "n_chars_norm": pc.utf8_length(t).cast(pa.int64()),
            }
        )

    return _collect(out.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True))


SHUFFLE_SALT = "epoch-0"


SQL_SEQ_SHUFFLE = f"""
WITH s AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/shuffle_sigs_sf0.01.parquet')),
ordered AS (SELECT shuffle_hash, rank, lag(shuffle_hash) OVER (ORDER BY rank) AS prev FROM s),
uniq AS (
  SELECT doc_id FROM {SEQ_SQL} WHERE doc_id IS NOT NULL
  GROUP BY doc_id HAVING count(*) = 1
),
m AS (
  SELECT CAST((SELECT count(*) FROM s) AS BIGINT) AS n,
         CAST((SELECT count(DISTINCT doc_id) FROM s) AS BIGINT) AS n_docs,
         CAST((SELECT sum(rank) FROM s) AS BIGINT) AS rank_sum,
         CAST((SELECT count(*) FROM ordered WHERE prev IS NOT NULL AND prev > shuffle_hash) AS BIGINT) AS inversions
)
SELECT n, n_docs, rank_sum, inversions FROM m
WHERE n = (SELECT count(*) FROM uniq)
  AND n_docs = n
  AND rank_sum = n * (n - 1) // 2
  AND NOT EXISTS (SELECT 1 FROM s LEFT JOIN uniq USING (doc_id) WHERE uniq.doc_id IS NULL)
"""


@entry("seq_shuffle", sql=SQL_SEQ_SHUFFLE)
def q_seq_shuffle(sf_dir: str) -> pa.Table:
    """Deterministic global shuffle (reproducible training order):
    order = fmix64(hash64(doc_id) ^ salt), executed as one
    range-partitioned sort; global ranks via the pack_offsets prefix
    sum (functions/shuffle.py).  Writes the (doc_id, rank,
    shuffle_hash) sidecar; the SQL twin checks the same three
    invariants this query returns — the shuffled stream is a
    PERMUTATION of the corpus (row and distinct-doc counts match the
    corpus exactly, enforced in the twin by re-counting the corpus),
    ranks are exactly 0..n-1 (sum check), and rank order is hash order
    (zero inversions)."""
    from jesse_ray.functions.shuffle import shuffle_with_ranks

    from jesse_ray.pipelines.relational import drop_duplicate_keys

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id"])

    # shuffle runs on the DEDUPED corpus (duplicate doc_ids hash to the
    # same shuffle position — same contract as packing); dup ids are
    # removed with the distributed anti-join, never a driver id set
    def nonnull(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.is_valid(batch["doc_id"]))

    out = shuffle_with_ranks(
        drop_duplicate_keys(
            ds.map_batches(nonnull, batch_format="pyarrow", zero_copy_batch=True),
            "doc_id"),
        "doc_id",
        salt=SHUFFLE_SALT,
    )
    t = _collect(out)
    pq.write_table(t.sort_by("rank"), _sig_parquet_path(sf_dir, "shuffle"))

    ranks = t["rank"].to_numpy(zero_copy_only=False)
    order = np.argsort(ranks)
    h = t["shuffle_hash"].to_numpy(zero_copy_only=False)[order]
    inversions = int((h[:-1] > h[1:]).sum()) if len(h) > 1 else 0
    return pa.table(
        {
            "n": pa.array([t.num_rows], type=pa.int64()),
            "n_docs": pa.array([pc.count_distinct(t["doc_id"]).as_py()], type=pa.int64()),
            "rank_sum": pa.array([int(ranks.sum())], type=pa.int64()),
            "inversions": pa.array([inversions], type=pa.int64()),
        }
    )


TRUNC_MAX_LEN = 128
EOS_TOKEN = 50256


SQL_SEQ_TRUNCATE_EOS = f"""
SELECT doc_id,
       CAST(least(coalesce(len(tokens), 0), {TRUNC_MAX_LEN}) + 1 AS BIGINT) AS n_tok_new,
       CAST(coalesce(list_aggregate(tokens[1:{TRUNC_MAX_LEN}], 'sum'), 0) + {EOS_TOKEN} AS BIGINT) AS tok_sum
FROM {SEQ_SQL}
"""


@entry("seq_truncate_eos", sql=SQL_SEQ_TRUNCATE_EOS)
def q_seq_truncate_eos(sf_dir: str) -> pa.Table:
    """Pre-packing sequence shaping: clip every token list to
    TRUNC_MAX_LEN and terminate with EOS (functions/seqops.py — pure
    Arrow list_slice + offset surgery, zero per-row Python).  Output is
    checksum-shaped (new length + token sum) so the twin compares exact
    values without list-representation drift."""
    from jesse_ray.functions.seqops import append_eos, truncate_sequences

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens"])
    shaped = append_eos(truncate_sequences(ds, max_len=TRUNC_MAX_LEN), eos=EOS_TOKEN)

    def summarize(batch: pa.Table) -> pa.Table:
        toks = batch["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(toks).cast(pa.int64())
        flat = pc.list_flatten(toks).cast(pa.int64()).to_numpy(zero_copy_only=False)
        off = np.zeros(len(toks) + 1, dtype=np.int64)
        np.cumsum(lens.to_numpy(zero_copy_only=False), out=off[1:])
        sums = np.add.reduceat(flat, off[:-1]) if len(flat) else np.zeros(len(toks), dtype=np.int64)
        sums[off[:-1] == off[1:]] = 0  # reduceat quirk on empty segments
        return pa.table(
            {"doc_id": batch["doc_id"], "n_tok_new": lens, "tok_sum": pa.array(sums, type=pa.int64())}
        )

    return _collect(shaped.map_batches(summarize, batch_format="pyarrow", zero_copy_batch=True))


PREFIX_KEY_WORDS = 3


SQL_DOC_INCREMENTAL_DEDUP = f"""
WITH keyed AS (
  SELECT doc_id,
         array_to_string(string_split(coalesce(text,''), ' ')[1:{PREFIX_KEY_WORDS}], ' ') AS key
  FROM documents
)
SELECT d.doc_id, d.key FROM keyed d
WHERE d.doc_id % 2 = 1
  AND EXISTS (SELECT 1 FROM keyed s WHERE s.doc_id % 2 = 0 AND s.key = d.key)
"""


@entry("doc_incremental_dedup", sql=SQL_DOC_INCREMENTAL_DEDUP)
def q_doc_incremental_dedup(sf_dir: str) -> pa.Table:
    """Incremental dedup of a new batch against a prior corpus snapshot
    (bloom-filter prefilter + exact confirm — functions/bloom.py).
    Snapshot = even doc_ids, new batch = odd doc_ids; the dedup key is
    the document's first-3-words prefix (a title/URL-key analogue).
    Bloom has no false negatives and the confirm removes the false
    positives, so the result is EXACTLY the semi-join the SQL twin
    computes."""
    from jesse_ray.functions.bloom import incremental_members

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def keyed(parity: int):
        def f(batch: pa.Table) -> pa.Table:
            t = batch.filter(
                pc.equal(pc.bit_wise_and(batch["doc_id"], 1), parity)
            )
            text = t["text"]
            if isinstance(text, pa.ChunkedArray):
                text = text.combine_chunks()
            words = pc.split_pattern(pc.fill_null(text, ""), " ")
            key = pc.binary_join(pc.list_slice(words, 0, PREFIX_KEY_WORDS), " ")
            return pa.table({"doc_id": t["doc_id"], "key": key})
        return f

    snapshot = ds.map_batches(keyed(0), batch_format="pyarrow", zero_copy_batch=True)
    new = ds.map_batches(keyed(1), batch_format="pyarrow", zero_copy_batch=True)
    members = incremental_members(new, snapshot.select_columns(["key"]), "key",
                                  num_bits=1 << 16)
    return _collect(members)


SCRUB_BLOCKLIST = r"\b(spark|merge|sort)\b"


SQL_DOC_SCRUB = rf"""
SELECT source,
       CAST(sum(len(regexp_extract_all(text, '{SCRUB_BLOCKLIST}'))) AS BIGINT) AS total_hits,
       CAST(sum(CASE WHEN regexp_matches(text, '{SCRUB_BLOCKLIST}') THEN 1 ELSE 0 END) AS BIGINT) AS docs_changed
FROM documents GROUP BY source
"""


@entry("doc_scrub", sql=SQL_DOC_SCRUB)
def q_doc_scrub(sf_dir: str) -> pa.Table:
    """Redaction stage over a term blocklist (the PII-scrub machinery
    with a blocklist bank — the corpus has no synthetic PII, so the
    demo bank is three vocabulary words): per-source documents changed
    + total redactions; RE2 on both sides so counts match exactly."""
    from jesse_ray.functions.text import Scrubber
    from jesse_ray.pipelines.relational import grouped_agg

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"])
    scrubbed = Scrubber.apply(ds, [("block", SCRUB_BLOCKLIST, "[X]")], concurrency=2)

    def per_doc(batch: pa.Table) -> pa.Table:
        hits = batch["scrub_block"]
        return pa.table(
            {
                "source": batch["source"],
                "hits": hits,
                "changed": pc.cast(pc.greater(hits, 0), pa.int64()),
            }
        )

    per = scrubbed.map_batches(per_doc, batch_format="pyarrow", zero_copy_batch=True)
    g = grouped_agg(per, ["source"], sums=["hits", "changed"], count_alias=None)
    pdf = g.to_pandas().sort_values("source").reset_index(drop=True)
    pdf = pdf.rename(columns={"sum_hits": "total_hits", "sum_changed": "docs_changed"})
    pdf["total_hits"] = pdf["total_hits"].astype("int64")
    pdf["docs_changed"] = pdf["docs_changed"].astype("int64")
    return pdf[["source", "total_hits", "docs_changed"]]


PACK_CHUNK = 4096


SQL_SEQ_PACK_OFFSETS = f"""
WITH uniq AS (
  SELECT doc_id, n_tok FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL AND n_tok > 0
    AND doc_id NOT IN (SELECT doc_id FROM {SEQ_SQL} WHERE doc_id IS NOT NULL
                       GROUP BY doc_id HAVING count(*) > 1)
),
s AS (
  SELECT doc_id, n_tok,
         CAST(coalesce(sum(n_tok) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS off
  FROM uniq
)
SELECT doc_id, off AS "offset",
       CAST(off // {PACK_CHUNK} AS BIGINT) AS first_chunk,
       CAST((off + n_tok - 1) // {PACK_CHUNK} AS BIGINT) AS last_chunk
FROM s
"""


@entry("seq_pack_offsets", sql=SQL_SEQ_PACK_OFFSETS)
def q_seq_pack_offsets(sf_dir: str) -> pa.Table:
    """Sequence packing (concat-then-chunk): every unique valid document
    gets its global token offset and chunk span in the packed stream
    (order = doc_id).  Distributed prefix sum over the range-partitioned
    sort; duplicate doc_ids are excluded first (packing runs on a
    deduped corpus by contract — the twin excludes them identically)."""
    from jesse_ray.functions.pack import pack_offsets

    from jesse_ray.pipelines.relational import drop_duplicate_keys

    # duplicate keys excluded via the distributed anti-join — the dup
    # set never lands on the driver
    ds = drop_duplicate_keys(
        read_sequences(_seq_path(sf_dir), columns=["doc_id", "n_tok"]), "doc_id")

    packed = pack_offsets(ds, chunk_len=PACK_CHUNK)

    def out(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "offset": batch["offset"],
                "first_chunk": batch["first_chunk"],
                "last_chunk": batch["last_chunk"],
            }
        )

    return _collect(packed.map_batches(out, batch_format="pyarrow", zero_copy_batch=True))


E2E_MAX_LEN = 128
E2E_EOS = testgen.VOCAB  # one past the valid id range


SQL_SEQ_E2E_PIPELINE = f"""
WITH clean AS (
  SELECT doc_id, tokens FROM {SEQ_SQL}
  WHERE doc_id IS NOT NULL
    AND regexp_matches(doc_id, '^doc-[0-9]{{8}}$')
    AND len(tokens) = n_tok
    AND n_tok BETWEEN 1 AND 2048
    AND len(tokens) BETWEEN 1 AND 2048
    AND len(list_filter(tokens, x -> x < 0 OR x >= {testgen.VOCAB})) = 0
    AND source IS NOT NULL
    AND source IN ({ALLOWED_SQL})
),
kept AS (SELECT min(doc_id) AS doc_id, len(tokens) AS n0 FROM clean GROUP BY tokens),
uniqk AS (
  SELECT doc_id, n0 FROM kept
  WHERE doc_id IN (SELECT doc_id FROM kept GROUP BY doc_id HAVING count(*) = 1)
),
shaped AS (SELECT doc_id, least(n0, {E2E_MAX_LEN}) + 1 AS n1 FROM uniqk),
sp AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/e2e_split_sigs_sf0.01.parquet')),
ok AS (
  SELECT (SELECT count(*) FROM sp) = (SELECT count(*) FROM shaped)
     AND (SELECT count(*) FROM sp LEFT JOIN shaped USING (doc_id)
          WHERE shaped.doc_id IS NULL) = 0 AS good
),
train AS (
  SELECT shaped.doc_id, n1 FROM shaped JOIN sp USING (doc_id)
  WHERE sp.split = 'train' AND (SELECT good FROM ok)
),
s AS (
  SELECT doc_id, n1,
         CAST(coalesce(sum(n1) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS off
  FROM train
)
SELECT doc_id, CAST(n1 AS BIGINT) AS n_tok_new, off AS "offset",
       CAST(off // {PACK_CHUNK} AS BIGINT) AS first_chunk,
       CAST((off + n1 - 1) // {PACK_CHUNK} AS BIGINT) AS last_chunk
FROM s
"""


@entry("seq_e2e_pipeline", sql=SQL_SEQ_E2E_PIPELINE)
def q_seq_e2e_pipeline(sf_dir: str) -> pa.Table:
    """END-TO-END training-data prep, one oracle-checked composite:
    validate (row + referential) → payload exact-dedup (curate) →
    key-dedup (drop colliding doc_ids entirely) → truncate to 128 +
    EOS-append → deterministic 80/10/10 hash split, keep train →
    concat-then-chunk packing offsets.  Every stage is one of the
    catalog's primitives; the twin re-derives the WHOLE chain in SQL
    (split assignment via the exported sidecar) and compares the final
    per-document pack layout."""
    from jesse_ray.functions.pack import pack_offsets
    from jesse_ray.functions.seqops import append_eos, truncate_sequences
    from jesse_ray.functions.split import add_hash_split
    from jesse_ray.pipelines.curate import curate_sequences

    from jesse_ray.pipelines.relational import drop_duplicate_keys

    ds = read_sequences(_seq_path(sf_dir))
    curated = drop_duplicate_keys(curate_sequences(ds, _seq_spec()), "doc_id")

    shaped = append_eos(truncate_sequences(curated, max_len=E2E_MAX_LEN), eos=E2E_EOS)
    split = add_hash_split(shaped, "doc_id", {"train": 0.8, "val": 0.1, "test": 0.1})
    assign = _collect(split.select_columns(["doc_id", "split"]))
    pq.write_table(assign.sort_by("doc_id"), _sig_parquet_path(sf_dir, "e2e_split"))
    train = split.filter(expr="split == 'train'").select_columns(["doc_id", "n_tok"])
    packed = pack_offsets(train, chunk_len=PACK_CHUNK)

    def out(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tok_new": batch["n_tok"].cast(pa.int64()),
                "offset": batch["offset"],
                "first_chunk": batch["first_chunk"],
                "last_chunk": batch["last_chunk"],
            }
        )

    return _collect(packed.map_batches(out, batch_format="pyarrow", zero_copy_batch=True))


SQL_ORDERS_LINEITEM_JOIN = """
SELECT o_orderpriority,
       CAST(count(*) AS BIGINT) AS cnt,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority
"""


@entry("orders_lineitem_join", sql=SQL_ORDERS_LINEITEM_JOIN)
def q_orders_lineitem_join(sf_dir: str) -> pd.DataFrame:
    """Large x large repartition join (neither side broadcastable at
    scale): lineitem ⋈ orders on orderkey through the coarse-partition
    cogroup, then revenue per order priority via the two-phase grouped
    agg."""
    from jesse_ray.pipelines.relational import grouped_agg, hash_join

    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )

    def prep(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        return pa.table({"o_orderkey": batch["l_orderkey"], "revenue": rev})

    line = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    joined = hash_join(line, orders, on="o_orderkey", how="inner")
    g = grouped_agg(joined, ["o_orderpriority"], sums=["revenue"])
    pdf = g.to_pandas().sort_values("o_orderpriority").reset_index(drop=True)
    pdf["revenue"] = round_half_away(pdf["sum_revenue"], 2)
    pdf["cnt"] = pdf["cnt"].astype("int64")
    return pdf[["o_orderpriority", "cnt", "revenue"]]


SQL_EVENTS_ASOF_LOGIN = """
SELECT l.event_id, l.user_id, r.ts AS last_signup_ts
FROM (SELECT * FROM events WHERE event_type != 'signup') l
ASOF LEFT JOIN (SELECT * FROM events WHERE event_type = 'signup') r
  ON l.user_id = r.user_id AND l.ts >= r.ts
"""


@entry("events_asof_login", sql=SQL_EVENTS_ASOF_LOGIN)
def q_events_asof_login(sf_dir: str) -> pa.Table:
    """AS-OF join: every non-signup event picks the user's most recent
    signup at-or-before its timestamp (backward inclusive).  DuckDB's
    native ASOF LEFT JOIN is the oracle."""
    from jesse_ray.pipelines.relational import asof_join

    def _split(want_login: bool):
        def f(batch: pa.Table) -> pa.Table:
            m = pc.equal(batch["event_type"], "signup")
            return batch.filter(m if want_login else pc.invert(m))

        return read_table(
            f"{sf_dir}/events.parquet", columns=["event_id", "ts", "user_id", "event_type"]
        ).map_batches(f, batch_format="pyarrow", zero_copy_batch=True)

    left = _split(False)
    right = _split(True)
    joined = asof_join(
        left, right, by="user_id", left_ts="ts", right_ts="ts", right_cols=["ts"]
    )

    def out(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch["event_id"],
                "user_id": batch["user_id"],
                "last_signup_ts": batch["ts_r"],
            }
        )

    return _collect(joined.map_batches(out, batch_format="pyarrow", zero_copy_batch=True))


SQL_DOC_UNIGRAM_LP = """
WITH w AS (SELECT doc_id, unnest(string_split(text,' ')) AS word FROM documents),
cnt AS (SELECT word, count(*) AS c FROM w GROUP BY 1),
tot AS (SELECT sum(c) AS t FROM cnt),
lp AS (SELECT word, ln(CAST(c AS DOUBLE) / (SELECT t FROM tot)) AS l FROM cnt)
SELECT w.doc_id, round(avg(l), 2) AS mean_lp
FROM w JOIN lp USING (word)
GROUP BY w.doc_id
"""


@entry("doc_unigram_lp", sql=SQL_DOC_UNIGRAM_LP)
def q_doc_unigram_lp(sf_dir: str) -> pa.Table:
    """CCNet-style LM quality scoring with a unigram model: phase 1
    builds the corpus word-count model (combiner + coarse word-hash
    merge), phase 2 broadcasts it and scores every document's mean
    ln P(word) in one hash-probe + weighted-bincount pass.  The twin
    recomputes both phases exactly in SQL."""
    from jesse_ray.functions.text import add_unigram_logprob, unigram_model

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    model = unigram_model(ds)
    scored = add_unigram_logprob(ds, model)

    def out(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "mean_lp": pa.array(round_half_away(batch["mean_lp"], 2), type=pa.float64()),
            }
        )

    return _collect(scored.map_batches(out, batch_format="pyarrow", zero_copy_batch=True))


SQL_DOC_BIGRAM_LP = """
WITH w AS (SELECT doc_id, string_split(coalesce(text, ''), ' ') AS ws FROM documents),
pos AS (SELECT doc_id, unnest(ws) AS word, generate_subscripts(ws, 1) AS i FROM w),
bg AS (
  SELECT p1.doc_id, p1.word AS w1, p2.word AS w2
  FROM pos p1 JOIN pos p2 ON p1.doc_id = p2.doc_id AND p2.i = p1.i + 1
),
cnt AS (SELECT w1, w2, count(*) AS c FROM bg GROUP BY 1, 2),
pfx AS (SELECT w1, sum(c) AS p FROM cnt GROUP BY 1),
lp AS (SELECT w1, w2, ln(CAST(c AS DOUBLE) / p) AS l FROM cnt JOIN pfx USING (w1)),
sc AS (SELECT bg.doc_id, avg(l) AS m FROM bg JOIN lp USING (w1, w2) GROUP BY 1)
SELECT d.doc_id, round(coalesce(sc.m, 0.0), 2) AS mean_lp2
FROM documents d LEFT JOIN sc USING (doc_id)
"""


@entry("doc_bigram_lp", sql=SQL_DOC_BIGRAM_LP)
def q_doc_bigram_lp(sf_dir: str) -> pa.Table:
    """Bigram-LM quality scoring (KenLM-shaped, n=2 so it stays exactly
    SQL-checkable): phase 1 builds the corpus bigram-count model
    (combiner + coarse key-hash merge), phase 2 broadcasts it and scores
    every document's mean ln P(w_i | w_{i-1}) with prefix-count
    denominators in one hash-probe + weighted-bincount pass.  The twin
    recomputes model and scores entirely in SQL."""
    from jesse_ray.functions.text import add_bigram_logprob, bigram_model

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    model = bigram_model(ds)
    scored = add_bigram_logprob(ds, model)

    def out(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "mean_lp2": pa.array(round_half_away(batch["mean_lp2"], 2), type=pa.float64()),
            }
        )

    return _collect(scored.map_batches(out, batch_format="pyarrow", zero_copy_batch=True))


SQL_DOC_TFIDF_TOP = r"""
WITH w AS (
  SELECT doc_id,
         unnest(list_filter(string_split_regex(lower(coalesce(text, '')), '\W+'),
                            x -> len(x) > 0)) AS word
  FROM documents
),
tf AS (SELECT doc_id, word, count(*) AS tf FROM w GROUP BY 1, 2),
df AS (SELECT word, count(DISTINCT doc_id) AS df FROM w GROUP BY 1),
n AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM documents),
sc AS (
  SELECT tf.doc_id, tf.word,
         round(tf.tf * ln((SELECT n FROM n) / df.df), 6) AS score
  FROM tf JOIN df USING (word)
),
r AS (
  SELECT doc_id, word, score,
         row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, word ASC) AS rn
  FROM sc
)
SELECT doc_id, word AS top_word, score FROM r WHERE rn = 1
"""


@entry("doc_tfidf_top", sql=SQL_DOC_TFIDF_TOP)
def q_doc_tfidf_top(sf_dir: str) -> pd.DataFrame:
    """Top TF-IDF term per document: phase 1 builds the full (word, df)
    model (distinct-per-doc combiner + coarse word-hash merge), phase 2
    broadcasts idf = ln(N/df) and takes each document's argmax of
    tf·idf (score rounded to 6 decimals before ranking on BOTH sides;
    ties break by word).  The twin recomputes df, idf, tf and the
    ranked pick entirely in SQL with the identical RE2 tokenization."""
    from jesse_ray.functions.text import add_tfidf_top_term, document_frequencies

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    df_table = document_frequencies(ds)
    n_docs = ds.count()
    out = add_tfidf_top_term(ds, df_table, n_docs)
    pdf = _collect(out).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pdf["score"] = round_half_away(pdf["score"], 6)
    return pdf


SQL_DOC_CCNET_BUCKETS = """
WITH w AS (SELECT doc_id, unnest(string_split(text,' ')) AS word FROM documents),
cnt AS (SELECT word, count(*) AS c FROM w GROUP BY 1),
tot AS (SELECT sum(c) AS t FROM cnt),
lp AS (SELECT word, ln(CAST(c AS DOUBLE) / (SELECT t FROM tot)) AS l FROM cnt),
doc AS (
  SELECT w.doc_id, CAST(round(avg(l) * 1000) AS BIGINT) AS lp_m
  FROM w JOIN lp USING (word) GROUP BY w.doc_id
),
cuts AS (
  SELECT quantile_disc(lp_m, [0.3333333333333333, 0.6666666666666666]) AS c FROM doc
),
b AS (
  SELECT d.doc_id,
         CASE WHEN d.lp_m > c[2] THEN 'head'
              WHEN d.lp_m > c[1] THEN 'middle'
              ELSE 'tail' END AS bucket
  FROM doc d, cuts
)
SELECT s.source, b.bucket, CAST(count(*) AS BIGINT) AS cnt
FROM b JOIN documents s USING (doc_id)
GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("doc_ccnet_buckets", sql=SQL_DOC_CCNET_BUCKETS)
def q_doc_ccnet_buckets(sf_dir: str) -> pa.Table:
    """CCNet-style quality bucketing (Wenzek et al. 2020): score every
    document with the corpus unigram LM, cut the score distribution at
    exact terciles, and label head/middle/tail.  Composes three
    existing distributed stages — unigram model build + broadcast
    scoring, exact discrete quantiles over the milli-quantized score
    (bounded-cardinality two-phase), and a small grouped count — and
    the twin re-derives all three in SQL."""
    from jesse_ray.functions.text import add_unigram_logprob, unigram_model
    from jesse_ray.pipelines.relational import exact_discrete_quantiles, grouped_agg

    ds = read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
    )
    model = unigram_model(ds)
    scored = add_unigram_logprob(ds, model)

    def quantize(batch: pa.Table) -> pa.Table:
        lp_m = pc.cast(pa.array(round_half_away(pc.multiply(batch["mean_lp"], 1000.0)), type=pa.float64()), pa.int64())
        return pa.table({"source": batch["source"], "lp_m": lp_m})

    q = scored.map_batches(quantize, batch_format="pyarrow", zero_copy_batch=True)
    q = q.materialize()  # two consumers: quantile pass + bucket count
    c1, c2 = exact_discrete_quantiles(q, "lp_m", [1 / 3, 2 / 3])

    def bucket(batch: pa.Table) -> pa.Table:
        v = batch["lp_m"].to_numpy(zero_copy_only=False)
        lab = np.where(v > c2, "head", np.where(v > c1, "middle", "tail"))
        return pa.table({"source": batch["source"], "bucket": pa.array(lab)})

    out = grouped_agg(
        q.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True),
        ["source", "bucket"],
    )
    t = _collect(out)
    return pa.table(
        {
            "source": t["source"],
            "bucket": t["bucket"],
            "cnt": t["cnt"].cast(pa.int64()),
        }
    ).sort_by([("source", "ascending"), ("bucket", "ascending")])


VALUE_TIERS = [(0.0, 10.0, "low"), (10.0, 50.0, "mid"), (50.0, 1e9, "high")]


SQL_EVENTS_VALUE_TIERS = """
WITH tiers(lo, hi, tier) AS (VALUES (0.0, 10.0, 'low'), (10.0, 50.0, 'mid'), (50.0, 1e9, 'high'))
SELECT e.event_type, t.tier,
       CAST(count(*) AS BIGINT) AS cnt,
       round(sum(e.value), 2) AS sum_value
FROM events e JOIN tiers t ON e.value >= t.lo AND e.value < t.hi
GROUP BY 1, 2
"""


@entry("events_value_tiers", sql=SQL_EVENTS_VALUE_TIERS)
def q_events_value_tiers(sf_dir: str) -> pa.Table:
    """Broadcast RANGE JOIN: each event joins the value tier with
    lo <= value < hi (vectorized searchsorted probe, no shuffle), then a
    grouped count+sum per (event_type, tier)."""
    from jesse_ray.pipelines.relational import broadcast_range_join

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    tiers = pd.DataFrame(VALUE_TIERS, columns=["lo", "hi", "tier"])
    joined = broadcast_range_join(ds, tiers, value_col="value", lo_col="lo", hi_col="hi")
    out = grouped_agg(joined.select_columns(["event_type", "tier", "value"]),
                      ["event_type", "tier"], sums=["value"])
    t = _collect(out)
    return pa.table(
        {
            "event_type": t["event_type"],
            "tier": t["tier"],
            "cnt": t["cnt"].cast(pa.int64()),
            "sum_value": pa.array(round_half_away(t["sum_value"], 2), type=pa.float64()),
        }
    )


SQL_EVENTS_NESTED_STRUCT = """
SELECT event_id, 'evt/value' AS path, 'not_in_range' AS error
FROM events WHERE value > 100
UNION ALL
SELECT event_id, 'evt/user_id', 'not_in_range' FROM events WHERE user_id < 0
UNION ALL
SELECT event_id, 'evt/user_id', 'missing_required_property' FROM events WHERE user_id IS NULL
ORDER BY event_id, path
"""


@entry("events_nested_struct", sql=SQL_EVENTS_NESTED_STRUCT)
def q_events_nested_struct(sf_dir: str) -> pa.Table:
    """Nested STRUCT validation through the engine: events packed into a
    struct column {user_id, value}, validated against a nested object
    schema (per-property descent: value ≤ 100, user_id ≥ 0, required
    user_id).  Returns (event_id, path, error) rows."""
    from jesse_ray.spec import from_json_schema

    ds = read_table(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "value"]
    )

    from jesse_ray.compiler import _combine as _cc

    def pack(batch: pa.Table) -> pa.Table:
        evt = pa.StructArray.from_arrays(
            [_cc(batch["user_id"]), _cc(batch["value"])], names=["user_id", "value"]
        )
        return pa.table({"event_id": batch["event_id"], "evt": evt})

    spec = from_json_schema(
        {
            "properties": {"evt": {
                "type": "object",
                "properties": {"user_id": {"minimum": 0}, "value": {"maximum": 100}},
                "required": ["user_id"],
            }},
        },
        key_column="event_id",
    )
    packed = ds.map_batches(pack, batch_format="pyarrow", zero_copy_batch=True)
    v = _collect(row_violations(packed, compile_spec(spec)))
    if v is None or v.num_rows == 0:
        return pa.table(
            {"event_id": pa.array([], type=pa.int64()),
             "path": pa.array([], type=pa.string()),
             "error": pa.array([], type=pa.string())}
        )
    return pa.table(
        {
            "event_id": v["doc_id"].cast(pa.int64()),
            "path": pa.array(["/".join(p) for p in v["path"].to_pylist()], type=pa.string()),
            "error": v["error"],
        }
    ).sort_by([("event_id", "ascending"), ("path", "ascending")])


SQL_EVENTS_PROPS_SUM = """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS cnt,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k
FROM events GROUP BY event_type
"""


@entry("events_props_sum", sql=SQL_EVENTS_PROPS_SUM)
def q_events_props_sum(sf_dir: str) -> pa.Table:
    """parser_fun analogue (src/jesse.erl:79): a pluggable decode stage
    ahead of the aggregation — here a VECTORIZED JSON-field extraction
    (RE2 kernel) instead of per-row json.loads."""
    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "props"])

    def decode(batch: pa.Table) -> pa.Table:
        k = pc.extract_regex(batch["props"], r'"k":\s*(?P<k>-?[0-9]+)')
        kv = pc.cast(pc.struct_field(k, "k"), pa.int64())
        return pa.table({"event_type": batch["event_type"], "k": kv})

    decoded = ds.map_batches(decode, batch_format="pyarrow", zero_copy_batch=True)
    out = grouped_agg(decoded, ["event_type"], sums=["k"])
    t = _collect(out)
    return pa.table(
        {
            "event_type": t["event_type"],
            "cnt": t["cnt"].cast(pa.int64()),
            "sum_k": t["sum_k"].cast(pa.int64()),
        }
    )


Q3_CUTOFF = "1998-06-01"


SQL_TPCH_Q3ISH = f"""
SELECT l_orderkey,
       round(sum(l_extendedprice * (1.0 - l_discount)), 2) AS revenue,
       o_orderdate, o_orderpriority
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
WHERE c_mktsegment = 'BUILDING'
  AND o_orderdate < TIMESTAMP '{Q3_CUTOFF}'
  AND l_shipdate > TIMESTAMP '{Q3_CUTOFF}'
GROUP BY l_orderkey, o_orderdate, o_orderpriority
ORDER BY revenue DESC, o_orderdate ASC, l_orderkey ASC
LIMIT 10
"""


@entry("tpch_q3ish", sql=SQL_TPCH_Q3ISH)
def q_tpch_q3ish(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q3-shaped composite (shipping-priority top-10): filter the
    BUILDING segment, two large-x-large hash joins
    (customer⋈orders⋈lineitem on coarse key-hash cogroups), then the
    revenue aggregate on a coarse orderkey-hash partition with per-part
    exact top-10 (each order lives wholly in one part) and a 640-row
    driver merge — no corpus-wide Ray groupby on the high-cardinality
    key."""
    from jesse_ray.hashutil import map_key_buckets
    from jesse_ray.pipelines.relational import hash_join

    cutoff = pd.Timestamp(Q3_CUTOFF)
    cust = read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    cust = cust.filter(expr="c_mktsegment == 'BUILDING'").select_columns(["c_custkey"])
    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    )

    def o_filter(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["o_orderdate"], pa.scalar(cutoff)))

    orders = orders.map_batches(o_filter, batch_format="pyarrow", zero_copy_batch=True)
    cust_k = cust.map_batches(
        lambda b: b.rename_columns(["o_custkey"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    co = hash_join(orders, cust_k, on="o_custkey", how="semi")
    co_k = co.map_batches(
        lambda b: pa.table(
            {"l_orderkey": b["o_orderkey"], "o_orderdate": b["o_orderdate"],
             "o_orderpriority": b["o_orderpriority"]}
        ),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    li = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def l_filter(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater(batch["l_shipdate"], pa.scalar(cutoff)))
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"l_orderkey": t["l_orderkey"], "rev": rev})

    li = li.map_batches(l_filter, batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(li, co_k, on="l_orderkey", how="inner")

    def topn(g: pd.DataFrame) -> pd.DataFrame:
        agg = (
            g.groupby(["l_orderkey", "o_orderdate", "o_orderpriority"], sort=False)["rev"]
            .sum().reset_index().rename(columns={"rev": "revenue"})
        )
        agg["revenue"] = round_half_away(agg["revenue"], 2)
        return agg.sort_values(
            ["revenue", "o_orderdate", "l_orderkey"], ascending=[False, True, True],
            kind="mergesort",
        ).head(10)

    cand = map_key_buckets(j, ["l_orderkey"], topn).to_pandas()
    out = cand.sort_values(
        ["revenue", "o_orderdate", "l_orderkey"], ascending=[False, True, True],
        kind="mergesort",
    ).head(10).reset_index(drop=True)
    return out[["l_orderkey", "revenue", "o_orderdate", "o_orderpriority"]]


Q18_QTY = 250.0


SQL_TPCH_Q18ISH = f"""
WITH big AS (
  SELECT l_orderkey, CAST(sum(l_quantity) AS BIGINT) AS total_qty
  FROM lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > {Q18_QTY}
)
SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_orderdate, o.o_totalprice, b.total_qty
FROM big b
JOIN orders o ON o.o_orderkey = b.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
ORDER BY o.o_totalprice DESC, o.o_orderkey
LIMIT 100
"""


@entry("tpch_q18ish", sql=SQL_TPCH_Q18ISH)
def q_tpch_q18ish(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q18-shaped composite (large-volume customers): a
    high-cardinality groupby-HAVING over lineitem (per-batch Arrow
    group_by combiner → coarse orderkey-hash parts → per-part exact
    merge + HAVING filter — never a corpus-wide Ray groupby), then the
    small qualifying set joins back through orders and customer as
    broadcast-once dimension joins; the HAVING threshold bounds the
    broadcast by construction."""
    from jesse_ray.hashutil import map_key_buckets
    from jesse_ray.pipelines.relational import broadcast_join

    li = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("l_orderkey").aggregate([("l_quantity", "sum")])
        return g.rename_columns(["l_orderkey", "__q"])

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("l_orderkey", sort=False)["__q"].sum().reset_index()
        return m[m["__q"] > Q18_QTY]

    big = pa.concat_tables(list(
        map_key_buckets(li.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
                        ["l_orderkey"], merge)
        .iter_batches(batch_format="pyarrow")
    )).to_pandas()

    orders = read_table(f"{sf_dir}/orders.parquet",
                        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    oj = broadcast_join(orders, big, left_on="o_orderkey", right_on="l_orderkey",
                        columns=["__q"])
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name"]).to_pandas()
    out = _collect(broadcast_join(oj, cust, left_on="o_custkey", right_on="c_custkey",
                                  columns=["c_name"])).to_pandas()
    out["total_qty"] = out["__q"].astype("int64")
    out["c_custkey"] = out["o_custkey"]  # Arrow join coalesces the key pair
    out = (
        out.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True])
        .head(100)
        .reset_index(drop=True)
    )
    return out[["c_custkey", "c_name", "o_orderkey", "o_orderdate", "o_totalprice", "total_qty"]]


SQL_LINEITEM_ROLLUP = """
SELECT l_returnflag, l_linestatus,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(l_quantity) AS BIGINT) AS sum_qty
FROM lineitem
GROUP BY ROLLUP (l_returnflag, l_linestatus)
ORDER BY l_returnflag NULLS LAST, l_linestatus NULLS LAST
"""


@entry("lineitem_rollup", sql=SQL_LINEITEM_ROLLUP)
def q_lineitem_rollup(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP parity: (returnflag, linestatus) leaf sums, per-
    returnflag subtotals, and the grand total — three combiner-shuffled
    grouped_agg levels unioned with NULL markers, the OLAP rollup shape
    without any corpus re-read beyond the three cheap passes."""
    from jesse_ray.pipelines.relational import grouped_agg

    ds = read_table(f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_linestatus", "l_quantity"])
    leaf = grouped_agg(ds, ["l_returnflag", "l_linestatus"], sums=["l_quantity"]).to_pandas()
    mid = grouped_agg(ds, ["l_returnflag"], sums=["l_quantity"]).to_pandas()
    top = grouped_agg(ds.map_batches(
        lambda b: b.append_column("__all", pa.array(np.zeros(b.num_rows, dtype=np.int8))),
        batch_format="pyarrow", zero_copy_batch=True,
    ), ["__all"], sums=["l_quantity"]).to_pandas().drop(columns="__all")
    mid["l_linestatus"] = None
    top["l_returnflag"] = None
    top["l_linestatus"] = None
    out = pd.concat([leaf, mid, top], ignore_index=True)
    out["n"] = out["cnt"].astype("int64")
    out["sum_qty"] = out["sum_l_quantity"].astype("int64")
    out = out[["l_returnflag", "l_linestatus", "n", "sum_qty"]]
    return out.sort_values(["l_returnflag", "l_linestatus"], na_position="last").reset_index(drop=True)


SQL_ORDERS_BY_SEGMENT = """
SELECT c.c_mktsegment,
       CAST(count(*) AS BIGINT) AS n_orders,
       round(sum(o.o_totalprice), 2) AS total_price
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY c.c_mktsegment
"""


@entry("orders_by_segment", sql=SQL_ORDERS_BY_SEGMENT)
def q_orders_by_segment(sf_dir: str) -> pa.Table:
    orders = read_table(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    joined = broadcast_join(orders, cust, left_on="o_custkey", right_on="c_custkey")
    out = grouped_agg(joined, ["c_mktsegment"], sums=["o_totalprice"])
    t = _collect(out)
    return pa.table(
        {
            "c_mktsegment": t["c_mktsegment"],
            "n_orders": t["cnt"].cast(pa.int64()),
            "total_price": pa.array(round_half_away(t["sum_o_totalprice"], 2), type=pa.float64()),
        }
    )


SQL_LINEITEM_PRICING = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(l_quantity) AS BIGINT) AS sum_qty,
       round(sum(l_extendedprice), 2) AS sum_base_price,
       round(sum(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
       CAST(count(*) AS BIGINT) AS cnt
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""


@entry("lineitem_pricing", sql=SQL_LINEITEM_PRICING)
def q_lineitem_pricing(sf_dir: str) -> pa.Table:
    """TPC-H Q1-style wide aggregate with a pushed-down date filter."""
    import pyarrow.dataset as pads

    ds = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
        predicate=pads.field("l_shipdate") <= pads.scalar(np.datetime64("1998-09-02T00:00:00", "us")),
    )

    def prep(batch: pa.Table) -> pa.Table:
        disc = pc.multiply(batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return pa.table(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "l_quantity": batch["l_quantity"],
                "l_extendedprice": batch["l_extendedprice"],
                "disc_price": disc,
            }
        )

    prepped = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    out = grouped_agg(
        prepped, ["l_returnflag", "l_linestatus"], sums=["l_quantity", "l_extendedprice", "disc_price"]
    )
    t = _collect(out)
    return pa.table(
        {
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "sum_qty": t["sum_l_quantity"].cast(pa.int64()),
            "sum_base_price": pa.array(round_half_away(t["sum_l_extendedprice"], 2), type=pa.float64()),
            "sum_disc_price": pa.array(round_half_away(t["sum_disc_price"], 2), type=pa.float64()),
            "cnt": t["cnt"].cast(pa.int64()),
        }
    )


SQL_ORDERS_TOP10 = """
SELECT o_orderkey, round(o_totalprice, 2) AS o_totalprice
FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


@entry("orders_top10", sql=SQL_ORDERS_TOP10)
def q_orders_top10(sf_dir: str) -> pa.Table:
    """Distributed sort + limit (ds.sort is a range-partitioned shuffle;
    the limit consumes only the first partitions)."""
    ds = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    top = ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)
    t = _collect(top)
    return pa.table(
        {
            "o_orderkey": t["o_orderkey"].cast(pa.int64()),
            "o_totalprice": pa.array(round_half_away(t["o_totalprice"], 2), type=pa.float64()),
        }
    )


def _emb_finite_check(tbl: pa.Table) -> "np.ndarray":
    """external_validator hook: every embedding element is finite."""
    col = tbl["embedding"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
    parent = pc.list_parent_indices(col).to_numpy(zero_copy_only=False)
    bad = ~np.isfinite(flat)
    ok = np.ones(tbl.num_rows, dtype=bool)
    if bad.any():
        ok[np.unique(parent[bad])] = False
    return ok


SQL_EMB_VALIDATE = """
SELECT CAST(count(*) AS BIGINT) AS checked_rows,
       CAST(sum(CASE WHEN len(embedding) != 64 THEN 1 ELSE 0 END) AS BIGINT) AS dim_violations,
       CAST(sum(CASE WHEN len(list_filter(embedding, x -> isnan(x) OR isinf(x))) > 0 THEN 1 ELSE 0 END) AS BIGINT) AS nonfinite_rows
FROM embeddings
"""


@entry("emb_validate", sql=SQL_EMB_VALIDATE)
def q_emb_validate(sf_dir: str) -> pd.DataFrame:
    """Validation over the embeddings modality: fixed dimension via
    min/maxItems + finiteness via the external-validator hook, both
    through the compiled engine."""
    from jesse_ray.spec import CustomCheck

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    spec = TableSpec(key_column="vec_id")
    spec.columns["embedding"] = ColumnSpec(required=True, min_items=64, max_items=64)
    spec.custom_checks.append(
        CustomCheck(name="finite_embedding", fn=_emb_finite_check, column="vec_id")
    )
    v = _collect(row_violations(ds, compile_spec(spec)))
    n_rows = ds.count()
    errs = v["error"].to_pylist() if v is not None else []
    return pd.DataFrame(
        {
            "checked_rows": pd.array([n_rows], dtype="int64"),
            "dim_violations": pd.array([errs.count("wrong_size")], dtype="int64"),
            "nonfinite_rows": pd.array([errs.count("external")], dtype="int64"),
        }
    )


SQL_EMB_TOPK = """
SELECT CAST(row_number() OVER (
           ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC, e.vec_id
       ) AS BIGINT) AS rank,
       e.vec_id
FROM embeddings e, (SELECT embedding FROM embeddings WHERE vec_id = 0) q
ORDER BY rank LIMIT 10
"""


@entry("emb_topk", sql=SQL_EMB_TOPK)
def q_emb_topk(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-10 for the query vector vec_id=0."""
    from jesse_ray.functions.similarity import cosine_topk

    qvec = (
        pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .filter(pc.equal(pc.field("vec_id"), 0))["embedding"]
        .to_pylist()[0]
    )
    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = cosine_topk(ds, np.asarray([qvec]), k=10, concurrency=(1, 2))
    return pd.DataFrame(
        {
            "rank": out["rank"].astype("int64"),
            "vec_id": out["vec_id"].astype("int64"),
        }
    )


SQL_EMB_KNN_GRAPH = """
SELECT vec_id, rank, neighbor_id FROM (
  SELECT a.vec_id, b.vec_id AS neighbor_id,
         CAST(row_number() OVER (
             PARTITION BY a.vec_id
             ORDER BY list_cosine_similarity(a.embedding, b.embedding) DESC,
                      b.vec_id
         ) AS BIGINT) AS rank
  FROM embeddings a JOIN embeddings b ON a.vec_id <> b.vec_id
) WHERE rank <= 5
ORDER BY vec_id, rank
"""


@entry("emb_knn_graph", sql=SQL_EMB_KNN_GRAPH)
def q_emb_knn_graph(sf_dir: str) -> pd.DataFrame:
    """Exact cosine 5-NN graph over the embeddings table — the all-pairs
    baseline behind SemDeDup / graph-ANN indexes (similarity.knn_graph:
    broadcast-once float64-normalized corpus matrix, one BLAS matmul +
    vectorized per-row top-k per batch; only k rows per vector leave a
    worker)."""
    from jesse_ray.functions.similarity import knn_graph

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = _collect(knn_graph(ds, k=5, batch_size=256))
    pdf = out.to_pandas().sort_values(["vec_id", "rank"]).reset_index(drop=True)
    for c in pdf.columns:
        pdf[c] = pdf[c].astype("int64")
    return pdf


# ---------------------------------------------------------------------------
# operators SQL cannot recompute directly: their twins read pinned
# verdicts, golden files or side-input parquet the query writes


# The drifted fixture shifts the n_tok lognormal mean 5.0→5.6 and the
# token zipf 1.3→1.05 — both far past the 0.01 alphas, so the expected
# verdicts are pinned literals; the row counts come from the parquet.
DRIFT_SQL = "read_parquet('/tmp/jesse_ray_data/sf0.01/drift_reference.parquet')"
SQL_DRIFT_REPORT = f"""
SELECT 'ref_vs_drifted' AS pair,
       (SELECT count(*) FROM {DRIFT_SQL})::BIGINT AS rows_ref,
       (SELECT count(*) FROM read_parquet('/tmp/jesse_ray_data/sf0.01/drift_drifted.parquet'))::BIGINT AS rows_new,
       TRUE AS ks_drifted, TRUE AS chi2_drifted,
       TRUE AS psi_drifted, TRUE AS psi_tokens_drifted
UNION ALL
SELECT 'ref_vs_self',
       (SELECT count(*) FROM {DRIFT_SQL})::BIGINT,
       (SELECT count(*) FROM {DRIFT_SQL})::BIGINT,
       FALSE, FALSE, FALSE, FALSE
"""


@entry("drift_report", sql=SQL_DRIFT_REPORT)
def q_drift_report(sf_dir: str) -> pd.DataFrame:
    """Drift gate verdicts between the fixture corpora.

    The statistics are exact and do not depend on block order, but only
    the boolean verdicts and row counts are returned: the twin pins them
    as literals, and the fixtures sit far from the alpha thresholds on
    both sides (drifted pair: p ≈ 0; self pair: p ≈ 1)."""
    from jesse_ray.stages import drift_check

    sf = testgen.sf_name_of(sf_dir)
    testgen.generate(sf)
    d = testgen.corpus_dir(sf)
    ref = read_table(str(d / "drift_reference.parquet"))
    new = read_table(str(d / "drift_drifted.parquet"))
    rep = drift_check(ref, new)
    rep_self = drift_check(ref, ref)
    return pd.DataFrame(
        [
            {"pair": "ref_vs_drifted", "rows_ref": rep["rows_ref"], "rows_new": rep["rows_new"],
             "ks_drifted": rep["ks_drifted"], "chi2_drifted": rep["chi2_drifted"],
             "psi_drifted": rep["psi_drifted"], "psi_tokens_drifted": rep["psi_tokens_drifted"]},
            {"pair": "ref_vs_self", "rows_ref": rep_self["rows_ref"], "rows_new": rep_self["rows_new"],
             "ks_drifted": rep_self["ks_drifted"], "chi2_drifted": rep_self["chi2_drifted"],
             "psi_drifted": rep_self["psi_drifted"], "psi_tokens_drifted": rep_self["psi_tokens_drifted"]},
        ]
    ).astype({"rows_ref": "int64", "rows_new": "int64"})


def _langid_sql() -> str:
    """The LangId heuristic re-expressed in SQL: count non-overlapping
    marker-word hits per language over ' '||lower(text)||' ', argmax
    with first-language-wins ties (the np.argmax tie-break), 'und' when
    every score is zero."""
    from jesse_ray.functions.text import _LANG_MARKERS

    langs = list(_LANG_MARKERS)
    scores = ", ".join(
        f"len(regexp_extract_all(padded, '{'|'.join(_LANG_MARKERS[lang])}')) AS s_{lang}"
        for lang in langs
    )
    zero = " AND ".join(f"s_{lang} = 0" for lang in langs)
    cases = []
    for i, lang in enumerate(langs):
        rest = [f"s_{lang} >= s_{other}" for other in langs[i + 1 :]]
        cond = " AND ".join(rest) if rest else "TRUE"
        cases.append(f"WHEN {cond} THEN '{lang}'")
    return f"""
WITH scored AS (
  SELECT doc_id, {scores}
  FROM (SELECT doc_id, ' ' || lower(text) || ' ' AS padded FROM documents)
)
SELECT doc_id,
       CASE WHEN {zero} THEN 'und' {' '.join(cases)} END AS lang_pred
FROM scored ORDER BY doc_id
"""


@entry("doc_langid", sql=_langid_sql())
def q_doc_langid(sf_dir: str) -> pd.DataFrame:
    from jesse_ray.functions.text import LangId

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = LangId.apply(ds, concurrency=(1, 2))
    pdf = out.to_pandas()[["doc_id", "lang_pred"]]
    return pdf.sort_values("doc_id").reset_index(drop=True)


def _sig_parquet_path(sf_dir: str, kind: str) -> str:
    import os

    base = os.path.basename(str(sf_dir).rstrip("/"))
    os.makedirs("/tmp/jesse_ray_data", exist_ok=True)
    return f"/tmp/jesse_ray_data/{kind}_sigs_{base}.parquet"


SQL_SEQ_MINHASH_PAIRS = """
WITH sig AS (
  SELECT doc_id, minhash
  FROM read_parquet('/tmp/jesse_ray_data/tokmh_sigs_sf0.01.parquet')
), bands AS (
  SELECT doc_id, b, list_slice(minhash, b*4 + 1, b*4 + 4) AS band
  FROM sig, generate_series(0, 15) t(b)
)
SELECT a.doc_id AS "left", b.doc_id AS "right"
FROM bands a JOIN bands b ON a.b = b.b AND a.band = b.band AND a.doc_id < b.doc_id
GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("seq_minhash_pairs", sql=SQL_SEQ_MINHASH_PAIRS)
def q_seq_minhash_pairs(sf_dir: str) -> pd.DataFrame:
    """Near-dup candidate pairs over the PRE-TOKENIZED sequences corpus
    (token-gram MinHash + LSH banding, no text anywhere — the
    input_hint's native shape).  Same oracle scheme as the text path:
    the signatures ride a parquet sidecar and the twin re-derives the
    banding (16 bands x 4 hashes, self-join on band equality)."""
    from jesse_ray.functions.dedup import token_lsh_candidate_pairs, token_minhash_signatures
    from jesse_ray.hashutil import hash64_strings

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens"])

    # the corpus has no cross-key token near-dups, which would make the
    # twin vacuous (0 == 0) — plant a deterministic ~0.8% of rows as
    # one-token-truncated copies under a derived key, so the banding +
    # bucket-shuffle + pair machinery produces a real, checkable set
    def plant(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        valid = pc.is_valid(ids).to_numpy(zero_copy_only=False)
        h = hash64_strings(pc.fill_null(ids, ""))
        sel = np.flatnonzero(valid & ((h & np.uint64(127)) == 0))
        if len(sel) == 0:
            return batch
        dup_ids, dup_toks = [], []
        toks = batch["tokens"]
        for i in sel.tolist():
            dup_ids.append(ids[i].as_py() + "~dup")
            dup_toks.append((toks[i].as_py() or [])[:-1])
        planted = pa.table(
            {"doc_id": pa.array(dup_ids, type=ids.type),
             "tokens": pa.array(dup_toks, type=batch.schema.field("tokens").type)}
        )
        return pa.concat_tables([batch.select(["doc_id", "tokens"]), planted])

    ds = ds.map_batches(plant, batch_format="pyarrow", zero_copy_batch=True)
    sigs = token_minhash_signatures(ds, num_hashes=64, gram_k=8)
    pq.write_table(
        _collect(sigs.select_columns(["doc_id", "minhash"])).sort_by("doc_id"),
        _sig_parquet_path(sf_dir, "tokmh"),
    )
    pairs = token_lsh_candidate_pairs(ds, num_hashes=64, bands=16, gram_k=8)
    pdf = pairs.to_pandas()
    if pdf.empty:
        return pd.DataFrame({"left": pd.array([], dtype="str"), "right": pd.array([], dtype="str")})
    return pdf[["left", "right"]].sort_values(["left", "right"]).reset_index(drop=True)


SQL_DOC_MINHASH_PAIRS = """
WITH sig AS (
  SELECT doc_id, minhash
  FROM read_parquet('/tmp/jesse_ray_data/minhash_sigs_sf0.01.parquet')
), bands AS (
  SELECT doc_id, b, list_slice(minhash, b*4 + 1, b*4 + 4) AS band
  FROM sig, generate_series(0, 15) t(b)
)
SELECT a.doc_id AS "left", b.doc_id AS "right"
FROM bands a JOIN bands b ON a.b = b.b AND a.band = b.band AND a.doc_id < b.doc_id
GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("doc_minhash_pairs", sql=SQL_DOC_MINHASH_PAIRS)
def q_doc_minhash_pairs(sf_dir: str) -> pd.DataFrame:
    """LSH candidate pairs, plus a signatures parquet the oracle reads:
    the SQL twin re-derives the banding from the SAME signatures (unnest
    into 16 bands of 4 hashes, self-join on band equality), so the whole
    distributed explode→bucket-shuffle→pair→dedup machinery is verified
    exactly; the signature math itself is unit-tested against per-doc
    recomputation in tests/test_functions.py."""
    from jesse_ray.functions.dedup import lsh_candidate_pairs, minhash_signatures

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    sigs = minhash_signatures(ds, num_hashes=64)
    pq.write_table(
        _collect(sigs.select_columns(["doc_id", "minhash"])).sort_by("doc_id"),
        _sig_parquet_path(sf_dir, "minhash"),
    )
    pairs = lsh_candidate_pairs(ds, num_hashes=64, bands=16)
    pdf = pairs.to_pandas()[["left", "right"]]
    if pdf.empty:
        return pd.DataFrame({"left": pd.array([], dtype="int64"), "right": pd.array([], dtype="int64")})
    return pdf.sort_values(["left", "right"]).reset_index(drop=True)


SQL_DOC_SIMHASH_PAIRS = """
WITH s AS (
  SELECT doc_id, simhash FROM read_parquet('/tmp/jesse_ray_data/simhash_sigs_sf0.01.parquet')
)
SELECT a.doc_id AS "left", b.doc_id AS "right",
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM s a JOIN s b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
ORDER BY 1, 2
"""


@entry("doc_simhash_pairs", sql=SQL_DOC_SIMHASH_PAIRS)
def q_doc_simhash_pairs(sf_dir: str) -> pd.DataFrame:
    """SimHash near-dup pairs; the oracle recomputes ALL-pairs hamming
    distance from the signatures parquet (bit_count(xor(...)) <= 3) —
    the block-permutation candidate scheme has recall exactly 1 for
    max_hamming < blocks (pigeonhole), so the SQL brute force is a
    strict ground truth for the distributed blocking + verify."""
    from jesse_ray.functions.dedup import simhash_near_dups, simhash_signatures

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    sigs = simhash_signatures(ds)
    pq.write_table(
        _collect(sigs.select_columns(["doc_id", "simhash"])).sort_by("doc_id"),
        _sig_parquet_path(sf_dir, "simhash"),
    )
    pdf = simhash_near_dups(ds, max_hamming=3).to_pandas()
    pdf["hamming"] = pdf["hamming"].astype("int64")
    return pdf.sort_values(["left", "right"]).reset_index(drop=True)


SQL_DOC_NGRAM_JACCARD = """
WITH s AS (
  SELECT doc_id, shingles FROM read_parquet('/tmp/jesse_ray_data/shingles_sigs_sf0.01.parquet')
), sz AS (
  SELECT doc_id, len(shingles) AS n FROM s
), e AS (
  SELECT doc_id, unnest(shingles) AS sh FROM s
), p AS (
  SELECT a.doc_id AS l, b.doc_id AS r, count(*) AS inter
  FROM e a JOIN e b ON a.sh = b.sh AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT l AS "left", r AS "right", CAST(inter AS BIGINT) AS inter,
       CAST(sa.n + sb.n - inter AS BIGINT) AS union_sz
FROM p JOIN sz sa ON sa.doc_id = p.l JOIN sz sb ON sb.doc_id = p.r
WHERE inter * 1.0 / (sa.n + sb.n - inter) >= 0.5
ORDER BY 1, 2
"""


@entry("doc_ngram_jaccard", sql=SQL_DOC_NGRAM_JACCARD)
def q_doc_ngram_jaccard(sf_dir: str) -> pd.DataFrame:
    """n-gram Jaccard near-dup pairs (LSH-pruned candidates + exact
    shingle-Jaccard verify) vs an exact all-pairs SQL twin computed from
    the SAME per-document shingle sets (written as a parquet side
    input): the oracle derives every pair with Jaccard ≥ 0.5 by
    unnest+join+count, so the whole LSH recall + distributed verify
    pipeline must match it exactly (recall 1.0 verified on this corpus
    at bands=32)."""
    from jesse_ray.functions.dedup import _shingle_hashes, ngram_jaccard_dups

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def shingle_sets(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        sets = [np.unique(_shingle_hashes(t or "", 5)) for t in texts]
        offs = np.concatenate([[0], np.cumsum([len(s) for s in sets])]).astype(np.int64)
        flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.uint64)
        lists = pa.ListArray.from_arrays(pa.array(offs), pa.array(flat, type=pa.uint64()))
        return pa.table({"doc_id": batch["doc_id"], "shingles": lists})

    pq.write_table(
        _collect(ds.map_batches(shingle_sets, batch_format="pyarrow")).sort_by("doc_id"),
        _sig_parquet_path(sf_dir, "shingles"),
    )
    pdf = ngram_jaccard_dups(ds, threshold=0.5, num_hashes=64, bands=32,
                             emit_counts=True).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"left": pd.array([], dtype="int64"),
                             "right": pd.array([], dtype="int64"),
                             "inter": pd.array([], dtype="int64"),
                             "union_sz": pd.array([], dtype="int64")})
    # exact integer (inter, union_sz) truth columns ONLY — a rounded
    # float jaccard split the engines at sf0.1 on the dyadic tie
    # 157/160 = 0.98125 (python half-even vs DuckDB half-away)
    return (pdf[["left", "right", "inter", "union_sz"]]
            .sort_values(["left", "right"]).reset_index(drop=True))


SQL_DOC_CROSS_DECONTAM = """
WITH s AS (
  SELECT doc_id, shingles FROM read_parquet('/tmp/jesse_ray_data/shinglesx_sigs_sf0.01.parquet')
), sz AS (
  SELECT doc_id, len(shingles) AS n FROM s
), e AS (
  SELECT doc_id, unnest(shingles) AS sh FROM s
), p AS (
  SELECT a.doc_id AS l, b.doc_id AS r, count(*) AS inter
  FROM e a JOIN e b ON a.sh = b.sh AND a.doc_id < b.doc_id
  GROUP BY 1, 2
), j AS (
  SELECT l, r, inter * 1.0 / (sa.n + sb.n - inter) AS jac
  FROM p JOIN sz sa ON sa.doc_id = p.l JOIN sz sb ON sb.doc_id = p.r
  WHERE inter * 1.0 / (sa.n + sb.n - inter) >= 0.5 AND (l % 2) <> (r % 2)
)
SELECT CASE WHEN l % 2 = 1 THEN l ELSE r END AS eval_doc,
       CASE WHEN l % 2 = 1 THEN r ELSE l END AS train_doc,
       round(jac, 4) AS jaccard
FROM j ORDER BY 1, 2
"""


@entry("doc_cross_decontam", sql=SQL_DOC_CROSS_DECONTAM)
def q_doc_cross_decontam(sf_dir: str) -> pd.DataFrame:
    """Near-dup DECONTAMINATION between splits (the GPT-3-style
    train-eval overlap scrub): train = even doc_ids, eval = odd; the
    full LSH + exact-Jaccard near-dup pipeline runs over the union and
    only cross-split pairs ≥ 0.5 survive — each one an eval doc that
    leaks (near-verbatim) into train.  The twin re-derives every cross
    pair exactly from the shingle-set sidecar."""
    from jesse_ray.functions.dedup import _shingle_hashes, ngram_jaccard_dups

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def shingle_sets(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        sets = [np.unique(_shingle_hashes(t or "", 5)) for t in texts]
        offs = np.concatenate([[0], np.cumsum([len(x) for x in sets])]).astype(np.int64)
        flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.uint64)
        lists = pa.ListArray.from_arrays(pa.array(offs), pa.array(flat, type=pa.uint64()))
        return pa.table({"doc_id": batch["doc_id"], "shingles": lists})

    pq.write_table(
        _collect(ds.map_batches(shingle_sets, batch_format="pyarrow")).sort_by("doc_id"),
        _sig_parquet_path(sf_dir, "shinglesx"),
    )
    pdf = ngram_jaccard_dups(ds, threshold=0.5, num_hashes=64, bands=32).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"eval_doc": pd.array([], dtype="int64"),
                             "train_doc": pd.array([], dtype="int64"),
                             "jaccard": pd.array([], dtype="float64")})
    cross = pdf[(pdf["left"] % 2) != (pdf["right"] % 2)].copy()
    cross["eval_doc"] = np.where(cross["left"] % 2 == 1, cross["left"], cross["right"]).astype("int64")
    cross["train_doc"] = np.where(cross["left"] % 2 == 1, cross["right"], cross["left"]).astype("int64")
    cross["jaccard"] = round_half_away(cross["jaccard"], 4)
    return (cross[["eval_doc", "train_doc", "jaccard"]]
            .sort_values(["eval_doc", "train_doc"]).reset_index(drop=True))


SQL_DOC_DUP_CLUSTERS = """
WITH RECURSIVE
e AS (
  SELECT "left" AS u, "right" AS v
  FROM read_parquet('/tmp/jesse_ray_data/ccpairs_sigs_sf0.01.parquet')
),
sym AS (SELECT u, v FROM e UNION SELECT v AS u, u AS v FROM e),
nodes AS (SELECT DISTINCT u AS n FROM sym),
reach(node, r) AS (
  SELECT n, n FROM nodes
  UNION
  SELECT reach.node, sym.v FROM reach JOIN sym ON sym.u = reach.r
)
SELECT node, min(r) AS component FROM reach GROUP BY node ORDER BY node
"""


@entry("doc_dup_clusters", sql=SQL_DOC_DUP_CLUSTERS)
def q_doc_dup_clusters(sf_dir: str) -> pd.DataFrame:
    """Connected components over the verified near-dup pair graph
    (min-label propagation, functions/graph.py) — the transitive-closure
    step a dedup pipeline needs to pick one canonical doc per cluster.
    The engine's pairs are written as a parquet side input and the SQL
    twin computes components from the SAME edges via a recursive
    reachability CTE + min, so the distributed fixpoint must match the
    exact closure node-for-node."""
    from jesse_ray.functions.dedup import ngram_jaccard_dups
    from jesse_ray.functions.graph import connected_components

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs = ngram_jaccard_dups(ds, threshold=0.5, num_hashes=64, bands=32).materialize()
    pq.write_table(
        _collect(pairs.select_columns(["left", "right"])).sort_by([("left", "ascending"), ("right", "ascending")]),
        _sig_parquet_path(sf_dir, "ccpairs"),
    )
    cc = connected_components(pairs)
    pdf = cc.to_pandas()
    if pdf.empty:
        return pd.DataFrame({"node": pd.array([], dtype="int64"),
                             "component": pd.array([], dtype="int64")})
    return pdf.sort_values("node").reset_index(drop=True)


SQL_DOC_SUBSTRING_DUPS = """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
g AS (
  SELECT DISTINCT doc_id, array_to_string(ws[i:i+7], ' ') AS gram
  FROM (SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 7)) AS i FROM w)
)
SELECT a.doc_id AS "left", b.doc_id AS "right"
FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id
GROUP BY 1, 2
ORDER BY 1, 2
"""


@entry("doc_substring_dups", sql=SQL_DOC_SUBSTRING_DUPS)
def q_doc_substring_dups(sf_dir: str) -> pd.DataFrame:
    """Exact substring-match dedup (ExactSubstr, Lee et al. 2022): every
    document pair sharing a verbatim 8-word window.  The SQL twin is
    fully independent — it re-derives the pairs from the raw documents
    table by exact string-equality of word 8-grams, so the engine's
    128-bit rolling-hash pipeline must reproduce exact-match truth."""
    from jesse_ray.functions.dedup import substring_dup_pairs

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pdf = substring_dup_pairs(ds, k=8).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"left": pd.array([], dtype="int64"),
                             "right": pd.array([], dtype="int64")})
    return pdf.sort_values(["left", "right"]).reset_index(drop=True)


SQL_DOC_SPAN_SCRUB = """
WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws FROM documents),
occ AS (
  SELECT doc_id, i, array_to_string(ws[i:i+7], ' ') AS gram
  FROM (SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 7)) AS i FROM w)
),
gd AS (
  SELECT gram, min(doc_id) AS keeper
  FROM (SELECT DISTINCT doc_id, gram FROM occ)
  GROUP BY gram HAVING count(*) >= 2
),
cov AS (
  SELECT DISTINCT o.doc_id, o.i + off AS pos
  FROM occ o JOIN gd USING (gram), unnest(generate_series(0, 7)) AS t(off)
  WHERE o.doc_id != gd.keeper
),
words AS (
  SELECT doc_id, i AS pos, ws[i] AS word
  FROM w, unnest(generate_series(1, len(ws))) AS t(i)
),
kept AS (
  SELECT wo.doc_id,
         coalesce(string_agg(wo.word, ' ' ORDER BY wo.pos)
                  FILTER (WHERE c.pos IS NULL), '') AS text_scrubbed,
         CAST(count(*) FILTER (WHERE c.pos IS NOT NULL) AS BIGINT) AS n_removed
  FROM words wo LEFT JOIN cov c ON c.doc_id = wo.doc_id AND c.pos = wo.pos
  GROUP BY wo.doc_id
)
SELECT doc_id, text_scrubbed, n_removed FROM kept ORDER BY doc_id
"""


@entry("doc_span_scrub", sql=SQL_DOC_SPAN_SCRUB)
def q_doc_span_scrub(sf_dir: str) -> pa.Table:
    """ExactSubstr REMOVAL (Lee et al. 2022 §3): rewrite every document
    with its cross-document duplicated 8-word spans removed (keeper =
    min doc id).  The twin re-derives keeper assignment, per-position
    span coverage, and the word-level rewrite entirely in SQL from the
    raw documents view."""
    from jesse_ray.functions.dedup import remove_dup_spans

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = remove_dup_spans(ds, k=8)
    t = _collect(out.select_columns(["doc_id", "text_scrubbed", "n_removed"]))
    return pa.table(
        {
            "doc_id": t["doc_id"].cast(pa.int64()),
            "text_scrubbed": t["text_scrubbed"],
            "n_removed": t["n_removed"].cast(pa.int64()),
        }
    ).sort_by("doc_id")


# Pinned golden (the rolling hash is pure wraparound uint64 arithmetic —
# not SQL-expressible; tests/test_text.py re-derives a sample of rows
# with an independent naive Python implementation to justify the pin).
_FINGERPRINTS_GOLDEN = Path(__file__).resolve().parents[2] / "tests" / "goldens" / "doc_fingerprints_sf0.01.parquet"
SQL_DOC_FINGERPRINTS = f"""
SELECT doc_id, fingerprint
FROM read_parquet('{_FINGERPRINTS_GOLDEN}')
ORDER BY doc_id
"""


@entry("doc_fingerprints", sql=SQL_DOC_FINGERPRINTS)
def q_doc_fingerprints(sf_dir: str) -> pd.DataFrame:
    from jesse_ray.functions.text import add_fingerprints

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = add_fingerprints(ds).to_pandas()[["doc_id", "fingerprint"]]
    out["fingerprint"] = out["fingerprint"].astype("uint64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_EMB_NEAR_DUPS = """
SELECT a.vec_id AS "left", b.vec_id AS "right",
       round(CAST(list_cosine_similarity(a.embedding, b.embedding) AS DOUBLE), 4) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.5
ORDER BY 1, 2
"""


@entry("emb_near_dups", sql=SQL_EMB_NEAR_DUPS)
def q_emb_near_dups(sf_dir: str) -> pd.DataFrame:
    """Banded multi-table hyperplane-LSH near-dup pairs vs an EXACT
    brute-force SQL twin.  Threshold 0.5 is the test-scale choice (the
    sf corpora have no pairs above 0.52); n_bits=2/n_tables=16 widens
    recall to ~1-7e-5 at that threshold (production defaults 12/16
    target the ≥0.9 regime — see embedding_near_dups docstring)."""
    from jesse_ray.functions.dedup import embedding_near_dups

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    pdf = embedding_near_dups(ds, threshold=0.5, n_tables=16, n_bits=2).to_pandas()
    if pdf.empty:
        return pd.DataFrame({"left": pd.array([], dtype="int64"), "right": pd.array([], dtype="int64"), "cosine": pd.array([], dtype="float64")})
    pdf["cosine"] = round_half_away(pdf["cosine"], 4)
    return pdf.sort_values(["left", "right"]).reset_index(drop=True)


SQL_EMB_IVF_TOPK = SQL_EMB_TOPK


@entry("emb_ivf_topk", sql=SQL_EMB_IVF_TOPK)
def q_emb_ivf_topk(sf_dir: str) -> pd.DataFrame:
    """IVF top-10 vs the exact SQL twin.  n_probe=6 of 8 cells is the
    test-scale setting that recovers the exact top-10 on this corpus
    (the sf embeddings are near-uniform — max pairwise cosine 0.51 — so
    neighbors spread across cells; clustered production corpora probe
    far fewer).  tests/test_functions.py pins the recall behavior at
    lower probe counts."""
    from jesse_ray.functions.similarity import ivf_topk

    qvec = (
        pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
        .filter(pc.equal(pc.field("vec_id"), 0))["embedding"]
        .to_pylist()[0]
    )
    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = ivf_topk(ds, np.asarray([qvec]), k=10, n_centroids=8, n_probe=6)
    return pd.DataFrame(
        {"rank": out["rank"].astype("int64"), "vec_id": out["vec_id"].astype("int64")}
    )


MEDIA_PARQUET = "/tmp/jesse_ray_data/media_64.parquet"


def _ensure_media_parquet() -> str:
    import os

    if not os.path.exists(MEDIA_PARQUET):
        from jesse_ray.functions.multimodal import make_fake_media_table

        os.makedirs(os.path.dirname(MEDIA_PARQUET), exist_ok=True)
        pq.write_table(make_fake_media_table(64), MEDIA_PARQUET)
    return MEDIA_PARQUET


SQL_MEDIA_FEATURES = f"""
SELECT media_id, mime,
       CAST(width AS BIGINT) AS width, CAST(height AS BIGINT) AS height,
       CAST(8 AS BIGINT) AS n_feat, CAST(4 AS BIGINT) AS n_frames
FROM read_parquet('{MEDIA_PARQUET}') ORDER BY media_id
"""


@entry("media_features", sql=SQL_MEDIA_FEATURES)
def q_media_features(sf_dir: str) -> pd.DataFrame:
    """Multimodal plumbing end-to-end over the deterministic fake corpus:
    binary payloads → actor-pool fake decode (8-float feature vector) →
    frame-sampling 1→many expansion → per-media feature/frame counts.
    The decode itself is a documented stub (no codec libs in container);
    what the oracle verifies is the Ray-side plumbing: schema, row
    preservation, feature length, frame multiplication."""
    from jesse_ray.functions.multimodal import decode_features, sample_frames

    path = _ensure_media_parquet()
    ds = read_table(path)
    out = decode_features(ds, fake=True, concurrency=(1, 2))

    def featlen(batch: pa.Table) -> pa.Table:
        nf = pc.list_value_length(batch["features"]).cast(pa.int64())
        return pa.table(
            {"media_id": batch["media_id"], "mime": batch["mime"],
             "width": batch["width"].cast(pa.int64()), "height": batch["height"].cast(pa.int64()),
             "n_feat": nf}
        )

    feats = _collect(out.map_batches(featlen, batch_format="pyarrow")).to_pandas()

    frames = sample_frames(read_table(path), n_frames=4, fake=True, concurrency=(1, 2))
    fcnt = (
        _collect(frames)
        .group_by("media_id")
        .aggregate([([], "count_all")])
        .rename_columns(["media_id", "n_frames"])
        .to_pandas()
    )
    pdf = feats.merge(fcnt, on="media_id")
    pdf["n_frames"] = pdf["n_frames"].astype("int64")
    return pdf.sort_values("media_id").reset_index(drop=True)


SQL_SEQ_VALIDATION_FULL = f"""
WITH v AS (
  SELECT 'wrong_size' AS error, count(*)::BIGINT AS cnt FROM {SEQ_SQL} WHERE len(tokens) != n_tok
  UNION ALL
  SELECT 'not_in_range', (
      (SELECT count(*) FROM {SEQ_SQL} WHERE n_tok < 1 OR n_tok > 2048)
    + (SELECT count(*) FROM (SELECT unnest(tokens) AS t FROM {SEQ_SQL}) WHERE t < 0 OR t >= {testgen.VOCAB})
  )::BIGINT
  UNION ALL
  SELECT 'missing_required_property', count(*)::BIGINT FROM {SEQ_SQL} WHERE doc_id IS NULL
  UNION ALL
  SELECT 'no_match', count(*)::BIGINT FROM {SEQ_SQL}
    WHERE doc_id IS NOT NULL AND NOT regexp_matches(doc_id, '^doc-[0-9]{{8}}$')
  UNION ALL
  SELECT 'not_in_enum', count(*)::BIGINT FROM {SEQ_SQL} WHERE source NOT IN ({ALLOWED_SQL})
  UNION ALL
  SELECT 'not_unique', count(*)::BIGINT FROM (
      SELECT doc_id FROM {SEQ_SQL} WHERE doc_id IS NOT NULL GROUP BY doc_id HAVING count(*) > 1
  )
)
SELECT error, cnt FROM v WHERE cnt > 0 ORDER BY error
"""


@entry("seq_validation_full", sql=SQL_SEQ_VALIDATION_FULL)
def q_seq_validation_full(sf_dir: str) -> pd.DataFrame:
    """Flagship: full engine run (row + referential + uniqueness) →
    per-error counts."""
    ds = read_sequences(_seq_path(sf_dir))
    res = validate_dataset(ds, _seq_spec())
    counts = res.counts_by_error()
    rows = sorted(counts.items())
    return pd.DataFrame(
        {"error": [r[0] for r in rows], "cnt": pd.array([r[1] for r in rows], dtype="int64")}
    )


SQL_SEQ_NTOK_QUANTILES_BY_SOURCE = f"""
SELECT source,
       CAST(quantile_disc(n_tok, 0.50) AS BIGINT) AS p50,
       CAST(quantile_disc(n_tok, 0.90) AS BIGINT) AS p90,
       CAST(quantile_disc(n_tok, 0.99) AS BIGINT) AS p99
FROM {SEQ_SQL}
GROUP BY source
ORDER BY source
"""


@entry("seq_ntok_quantiles_by_source", sql=SQL_SEQ_NTOK_QUANTILES_BY_SOURCE)
def q_seq_ntok_quantiles_by_source(sf_dir: str) -> pd.DataFrame:
    """Exact PER-GROUP discrete quantiles (p50/p90/p99 of n_tok per
    source) — the grouped analogue of seq_ntok_percentiles, two-phase
    (group, value) counts so the driver merges bounded partials only.
    DuckDB ``quantile_disc`` is the oracle (same ceil-rank formula)."""
    from jesse_ray.pipelines.relational import grouped_discrete_quantiles

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"])
    t = grouped_discrete_quantiles(ds, "source", "n_tok", [0.5, 0.9, 0.99])
    pdf = t.to_pandas()
    for c in ("p50", "p90", "p99"):
        pdf[c] = pdf[c].astype("int64")
    return pdf.sort_values("source").reset_index(drop=True)


SQL_ORDERS_NO_RECENT_LINEITEM = """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS cnt
FROM orders o
WHERE NOT EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_orderkey = o.o_orderkey AND l.l_shipdate >= TIMESTAMP '1995-06-01'
)
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


@entry("orders_no_recent_lineitem", sql=SQL_ORDERS_NO_RECENT_LINEITEM)
def q_orders_no_recent_lineitem(sf_dir: str) -> pd.DataFrame:
    """ANTI join through the large×large repartition cogroup: orders
    with NO lineitem shipped on/after 1995-06-01, counted per priority
    (the retention/exclusion query shape — 'rows with no match in the
    other table').  SQL twin: NOT EXISTS."""
    from jesse_ray.pipelines.relational import grouped_agg, hash_join

    orders = read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    )
    cutoff = pa.scalar(pd.Timestamp("1995-06-01"), type=pa.timestamp("us"))

    def prep(batch: pa.Table) -> pa.Table:
        keep = pc.greater_equal(batch["l_shipdate"], cutoff)
        return pa.table({"o_orderkey": batch.filter(keep)["l_orderkey"]})

    line = read_table(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    kept = hash_join(orders, line, on="o_orderkey", how="anti")
    g = grouped_agg(kept, ["o_orderpriority"])
    pdf = g.to_pandas().sort_values("o_orderpriority").reset_index(drop=True)
    pdf["cnt"] = pdf["cnt"].astype("int64")
    return pdf[["o_orderpriority", "cnt"]]


SQL_DOC_GOPHER_RULES = """
WITH base AS (
  SELECT doc_id, coalesce(text, '') AS t FROM documents
),
stats AS (
  SELECT doc_id,
         CAST(len(string_split(t, ' ')) AS BIGINT) AS n_words,
         CAST(length(t) - (len(string_split(t, ' ')) - 1) AS BIGINT) AS sum_word_len,
         CAST(len(list_filter(string_split(t, ' '),
                              w -> regexp_matches(w, '[A-Za-z]'))) AS BIGINT) AS n_alpha_words,
         CAST(len(list_filter(string_split(t, ' '),
                              w -> list_contains(['the','be','to','of','and','that','have','with'],
                                                 lower(w)))) AS BIGINT) AS n_stop_words,
         CAST((length(t) - length(replace(t, '#', '')))
              + (length(t) - length(replace(t, '...', ''))) // 3 AS BIGINT) AS n_sym
  FROM base
)
SELECT doc_id, n_words, sum_word_len, n_alpha_words, n_stop_words, n_sym,
       CAST(n_words BETWEEN 50 AND 100000
            AND 3 * n_words <= sum_word_len AND sum_word_len <= 10 * n_words
            AND 10 * n_sym <= n_words
            AND 10 * n_alpha_words >= 8 * n_words
            AND n_stop_words >= 2 AS BIGINT) AS gopher_pass
FROM stats
ORDER BY doc_id
"""


@entry("doc_gopher_rules", sql=SQL_DOC_GOPHER_RULES)
def q_doc_gopher_rules(sf_dir: str) -> pd.DataFrame:
    """Gopher document-quality rule set (Rae et al. 2021 §A1.1) as
    integer-exact per-document stats + the combined pass gate; the twin
    recomputes every rule in SQL from the raw text (same space-split and
    RE2 semantics)."""
    from jesse_ray.functions.text import add_gopher_stats

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = add_gopher_stats(ds)
    cols = ["doc_id", "n_words", "sum_word_len", "n_alpha_words",
            "n_stop_words", "n_sym", "gopher_pass"]
    pdf = _collect(out.select_columns(cols)).to_pandas()
    return pdf.sort_values("doc_id").reset_index(drop=True)


SQL_DOC_DUP_LINE_STATS = """
WITH l AS (
  SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS line FROM documents
),
g AS (
  SELECT doc_id, line, count(*) AS c, sum(length(line)) AS chars
  FROM l GROUP BY 1, 2
)
SELECT doc_id,
       CAST(sum(c) AS BIGINT) AS n_lines,
       CAST(sum(CASE WHEN c >= 2 THEN c ELSE 0 END) AS BIGINT) AS n_dup_lines,
       CAST(sum(chars) AS BIGINT) AS chars_total,
       CAST(sum(CASE WHEN c >= 2 THEN chars ELSE 0 END) AS BIGINT) AS chars_dup,
       CAST(100 * sum(CASE WHEN c >= 2 THEN chars ELSE 0 END)
            <= 20 * sum(chars) AS BIGINT) AS dup_line_pass
FROM g GROUP BY doc_id
ORDER BY doc_id
"""


@entry("doc_dup_line_stats", sql=SQL_DOC_DUP_LINE_STATS)
def q_doc_dup_line_stats(sf_dir: str) -> pd.DataFrame:
    """Within-document duplicate-line repetition stats (Gopher
    'fraction of characters in duplicate lines' rule; word granularity
    because the corpus text is single-line) — exact integers + the
    integer-predicate gate, fully re-derived in SQL."""
    from jesse_ray.functions.text import add_dup_line_stats

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = add_dup_line_stats(ds, sep=" ")
    cols = ["doc_id", "n_lines", "n_dup_lines", "chars_total", "chars_dup", "dup_line_pass"]
    pdf = _collect(out.select_columns(cols)).to_pandas()
    return pdf.sort_values("doc_id").reset_index(drop=True)


SQL_SEQ_PSI_BY_SOURCE = f"""
WITH nn AS (
  SELECT source, CAST(n_tok AS DOUBLE) AS x FROM {SEQ_SQL}
  WHERE n_tok IS NOT NULL AND source IS NOT NULL
),
cuts AS (
  SELECT unnest(quantile_disc(x, [0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9])) AS c FROM nn
),
b AS (SELECT source, (SELECT count(*) FROM cuts WHERE c < x) AS bin FROM nn),
ref AS (SELECT bin, CAST(count(*) AS DOUBLE) AS cr FROM b GROUP BY bin),
tot AS (SELECT sum(cr) AS n FROM ref),
g AS (SELECT source, bin, CAST(count(*) AS DOUBLE) AS cs FROM b GROUP BY 1, 2),
ns AS (SELECT source, sum(cs) AS n_s FROM g GROUP BY 1),
combos AS (
  SELECT s.source, r.bin, r.cr FROM (SELECT DISTINCT source FROM b) s CROSS JOIN ref r
),
p AS (
  SELECT combos.source,
         coalesce(g.cs, 0) / ns.n_s AS ps,
         combos.cr / (SELECT n FROM tot) AS pr
  FROM combos
  LEFT JOIN g ON g.source = combos.source AND g.bin = combos.bin
  JOIN ns ON ns.source = combos.source
)
SELECT source, round(sum((ps - pr) * ln((ps + 1e-9) / (pr + 1e-9))), 4) AS psi
FROM p GROUP BY source ORDER BY source
"""


@entry("seq_psi_by_source", sql=SQL_SEQ_PSI_BY_SOURCE)
def q_seq_psi_by_source(sf_dir: str) -> pd.DataFrame:
    """EXACT per-source PSI drift of n_tok against the whole corpus
    (deciles at exact discrete quantiles, eps=1e-9 guard) — the
    oracle-checkable complement of the sketch-based drift_report.  The
    twin re-derives cuts, bins, and the PSI sum entirely in SQL."""
    from jesse_ray.stages.drift import exact_psi_by_group

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok"])
    t = exact_psi_by_group(ds, "source", "n_tok", bins=10)
    pdf = t.to_pandas()
    pdf["psi"] = round_half_away(pdf["psi"], 4)
    return pdf.sort_values("source").reset_index(drop=True)


CHUNK_MAX_LEN, CHUNK_STRIDE = 512, 384


SQL_SEQ_CHUNKS = f"""
WITH s AS (
  SELECT doc_id, tokens, len(tokens) AS n FROM {SEQ_SQL}
  WHERE tokens IS NOT NULL AND len(tokens) > 0
),
st AS (
  SELECT doc_id, tokens, n,
         unnest(range(0, CAST(n AS BIGINT), {CHUNK_STRIDE})) AS s
  FROM s
),
c AS (
  SELECT doc_id,
         s // {CHUNK_STRIDE} AS chunk_id,
         tokens[s + 1 : least(s + {CHUNK_MAX_LEN}, n)] AS chunk
  FROM st
)
SELECT doc_id, chunk_id,
       CAST(len(chunk) AS BIGINT) AS n_tok,
       CAST(list_sum(chunk) AS BIGINT) AS tok_sum,
       CAST(chunk[1] AS BIGINT) AS first_tok,
       CAST(chunk[len(chunk)] AS BIGINT) AS last_tok
FROM c
"""


@entry("seq_chunks", sql=SQL_SEQ_CHUNKS)
def q_seq_chunks(sf_dir: str) -> pd.DataFrame:
    """Context-window chunking (max_len=512, stride=384 — overlapping
    windows, the long-document training prep): every sequence explodes
    into ⌈len/stride⌉ chunks via one vectorized offset-surgery pass.
    The twin re-derives every chunk with a lateral generate_series +
    1-based list slice in SQL and compares per-chunk length, token sum
    and end tokens (the list-content checksum convention)."""
    from jesse_ray.functions.seqops import chunk_sequences

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens"])
    out = chunk_sequences(ds, max_len=CHUNK_MAX_LEN, stride=CHUNK_STRIDE)

    def summarize(batch: pa.Table) -> pa.Table:
        toks = batch["tokens"]
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        vals = pc.list_flatten(toks).cast(pa.int64()).to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
        off = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        sums = np.add.reduceat(vals, off[:-1]) if len(vals) else np.zeros(0, dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "chunk_id": batch["chunk_id"],
                "n_tok": batch["n_tok"].cast(pa.int64()),
                "tok_sum": pa.array(sums, type=pa.int64()),
                "first_tok": pa.array(vals[off[:-1]], type=pa.int64()),
                "last_tok": pa.array(vals[off[1:] - 1], type=pa.int64()),
            }
        )

    pdf = _collect(out.map_batches(summarize, batch_format="pyarrow", zero_copy_batch=True)).to_pandas()
    return pdf.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)


FIXED_SAMPLE_K = 50


SQL_SEQ_FIXED_SAMPLE = f"""
WITH allh AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/fixed_all_sigs_sf0.01.parquet')),
sel AS (
  SELECT doc_id, source FROM (
    SELECT doc_id, source,
           row_number() OVER (PARTITION BY source ORDER BY h, doc_id) AS rn
    FROM allh
  ) WHERE rn <= {FIXED_SAMPLE_K}
),
eng AS (SELECT doc_id, source FROM read_parquet('/tmp/jesse_ray_data/fixed_sel_sigs_sf0.01.parquet')),
chk AS (
  SELECT (SELECT count(*) FROM (SELECT * FROM sel EXCEPT SELECT * FROM eng)) = 0
     AND (SELECT count(*) FROM (SELECT * FROM eng EXCEPT SELECT * FROM sel)) = 0
     AND (SELECT count(*) FROM allh) = (SELECT count(*) FROM {SEQ_SQL}) AS good
)
SELECT source, CAST(count(*) AS BIGINT) AS cnt FROM eng GROUP BY source
HAVING (SELECT good FROM chk)
ORDER BY source
"""


@entry("seq_fixed_sample", sql=SQL_SEQ_FIXED_SAMPLE)
def q_seq_fixed_sample(sf_dir: str) -> pd.DataFrame:
    """Deterministic FIXED-COUNT per-source sample (bottom-k by fmix64
    hash — a deterministic reservoir).  The engine writes BOTH the
    full-corpus hash sidecar and its selected rows; the twin re-derives
    the bottom-k-per-stratum selection from the hashes with a SQL window
    and requires exact set equality before re-counting the sample."""
    from jesse_ray.functions.split import _key_hash, fixed_size_sample

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "source"])

    def with_hash(batch: pa.Table) -> pa.Table:
        h = _key_hash(batch, "doc_id", "fixed")
        signed = (h - np.uint64(1 << 63)).view(np.int64)
        return batch.append_column("h", pa.array(signed, type=pa.int64()))

    full = _collect(ds.map_batches(with_hash, batch_format="pyarrow", zero_copy_batch=True))
    pq.write_table(full.sort_by("h"), _sig_parquet_path(sf_dir, "fixed_all"))

    out = fixed_size_sample(ds, "doc_id", FIXED_SAMPLE_K, strata_col="source")
    t = _collect(out)
    pq.write_table(t.sort_by("doc_id"), _sig_parquet_path(sf_dir, "fixed_sel"))
    g = t.group_by("source").aggregate([([], "count_all")]).rename_columns(["source", "cnt"])
    pdf = g.to_pandas().sort_values("source").reset_index(drop=True)
    pdf["cnt"] = pdf["cnt"].astype("int64")
    return pdf


SQL_EVENTS_CLICK_ATTRIBUTION = """
SELECT p.event_id, CAST(count(c.event_id) AS BIGINT) AS n_clicks_30m
FROM events p LEFT JOIN events c
  ON c.event_type = 'click' AND c.ts <= p.ts AND p.ts < c.ts + INTERVAL 30 MINUTE
WHERE p.event_type = 'purchase'
GROUP BY p.event_id
ORDER BY p.event_id
"""


@entry("events_click_attribution", sql=SQL_EVENTS_CLICK_ATTRIBUTION)
def q_events_click_attribution(sf_dir: str) -> pa.Table:
    """Distributed NON-EQUI interval join (no shared key between the
    sides): every purchase event joins the count of click events whose
    30-minute attribution window [click_ts, click_ts+30min) covers it
    (relational.interval_count_join — time-bucket replication factor
    ≤ 2, coarse bucket-hash shuffle, two searchsorted calls per part;
    the global trailing count that grouped_rolling can't parallelize
    because there is no partition key)."""
    from jesse_ray.pipelines.relational import interval_count_join

    WIN_US = 30 * 60 * 1_000_000
    ev = read_table(f"{sf_dir}/events.parquet", columns=["event_id", "ts", "event_type"])
    points = ev.map_batches(
        lambda b: b.filter(pc.equal(b["event_type"], "purchase")),
        batch_format="pyarrow", zero_copy_batch=True)

    def to_interval(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.equal(batch["event_type"], "click"))
        ts = t["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        ts_i = ts.cast(pa.timestamp("us")).cast(pa.int64())
        return pa.table({"ts_start": ts_i, "ts_end": pc.add(ts_i, WIN_US)})

    intervals = ev.map_batches(to_interval, batch_format="pyarrow", zero_copy_batch=True)
    out = interval_count_join(
        points, intervals,
        point_col="ts", id_col="event_id",
        start_col="ts_start", end_col="ts_end",
        max_len_us=WIN_US, count_alias="n_clicks_30m",
    )
    return _collect(out).sort_by("event_id")


SQL_EVENTS_LATEST_STATE = """
SELECT user_id, ts, event_type, value FROM (
  SELECT user_id, ts, event_type, value,
         row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
) WHERE rn = 1
ORDER BY user_id
"""


@entry("events_latest_state", sql=SQL_EVENTS_LATEST_STATE)
def q_events_latest_state(sf_dir: str) -> pa.Table:
    """CDC latest-state compaction (upsert / merge-on-read): the current
    row per user after applying the event stream as a changelog —
    greatest (ts, event_id) wins (relational.latest_by_key: per-batch
    keep-one combiner, coarse key-hash shuffle, vectorized
    sort+drop_duplicates per part)."""
    from jesse_ray.pipelines.relational import latest_by_key

    ev = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "user_id", "ts", "event_type", "value"])
    out = latest_by_key(ev, "user_id", ["ts", "event_id"])
    return (
        _collect(out)
        .select(["user_id", "ts", "event_type", "value"])
        .sort_by("user_id")
    )


SQL_EVENTS_SCD2 = """
SELECT event_id, user_id, ts, event_type,
       lead(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS valid_to
FROM events
ORDER BY event_id
"""


@entry("events_scd2", sql=SQL_EVENTS_SCD2)
def q_events_scd2(sf_dir: str) -> pa.Table:
    """SCD type-2 intervalization: the event stream as a per-user version
    history with half-open validity windows — valid_to is the NEXT
    change's ts for the same user, null for the current version
    (lead() semantics; relational.scd2_intervals — coarse key-hash
    shuffle + one vectorized mergesort+shift per part, never a
    per-user groupby)."""
    from jesse_ray.pipelines.relational import scd2_intervals

    ev = read_table(f"{sf_dir}/events.parquet",
                    columns=["event_id", "user_id", "ts", "event_type"])
    out = scd2_intervals(ev, "user_id", ["ts", "event_id"],
                         valid_from="ts", valid_to="valid_to")
    return _collect(out).sort_by("event_id")


SEARCH_TERMS = ("sort", "vector", "stream")


SQL_DOC_SEARCH = f"""
WITH w AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS word FROM documents
),
tf AS (
  SELECT doc_id, word, count(*) AS tf FROM w
  WHERE word IN ({", ".join(f"'{t}'" for t in SEARCH_TERMS)})
  GROUP BY doc_id, word
),
hits AS (
  SELECT doc_id, CAST(sum(tf) AS BIGINT) AS score
  FROM tf GROUP BY doc_id
  HAVING count(DISTINCT word) = {len(SEARCH_TERMS)}
)
SELECT doc_id, score FROM hits ORDER BY score DESC, doc_id LIMIT 20
"""


@entry("doc_search", sql=SQL_DOC_SEARCH)
def q_doc_search(sf_dir: str) -> pa.Table:
    """Conjunctive (AND) full-text search over the documents corpus,
    top 20 by summed term frequency (text.conjunctive_search — one
    vectorized streaming scan, per-batch top-k partials, zero shuffle;
    the driver merges k × n_blocks candidate rows only)."""
    from jesse_ray.functions.text import conjunctive_search

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return conjunctive_search(ds, SEARCH_TERMS, k=20)


SQL_SEQ_FIM_SPLIT = f"""
WITH u AS (
  -- DISTINCT: the dirty corpus carries duplicate doc_ids; the u draw is a
  -- pure function of doc_id, so collapsing keeps the join 1:1 per input row
  SELECT DISTINCT doc_id, u1, u2
  FROM read_parquet('/tmp/jesse_ray_data/fim_u_sigs_sf0.01.parquet')
),
s AS (SELECT row_number() OVER () AS rid, COALESCE(doc_id, '') AS doc_id, source,
             tokens, len(tokens) AS n FROM {SEQ_SQL}),
cuts AS (
  SELECT s.rid, s.source, s.n, s.tokens,
         least(CAST(floor(u.u1 * (s.n + 1)) AS BIGINT),
               CAST(floor(u.u2 * (s.n + 1)) AS BIGINT)) AS lo,
         greatest(CAST(floor(u.u1 * (s.n + 1)) AS BIGINT),
                  CAST(floor(u.u2 * (s.n + 1)) AS BIGINT)) AS hi
  FROM s JOIN u ON u.doc_id = s.doc_id
),
pos AS (
  SELECT rid, source, n, lo, hi, tokens,
         generate_subscripts(tokens, 1) AS i
  FROM cuts
),
terms AS (
  SELECT rid,
         (CASE WHEN i - 1 >= hi THEN i - hi ELSE i + (n - hi) END)
           * CAST(tokens[i] AS BIGINT) AS term
  FROM pos
),
per_doc AS (
  SELECT c.rid, c.source, c.lo AS n_prefix, c.hi - c.lo AS n_middle,
         c.n - c.hi AS n_suffix, COALESCE(t.cs, 0) AS cs
  FROM cuts c LEFT JOIN
       (SELECT rid, CAST(sum(term) AS BIGINT) AS cs FROM terms GROUP BY rid) t
       USING (rid)
)
SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_prefix) AS BIGINT) AS prefix_toks,
       CAST(sum(n_middle) AS BIGINT) AS middle_toks,
       CAST(sum(n_suffix) AS BIGINT) AS suffix_toks,
       CAST(sum(cs) AS BIGINT) AS checksum
FROM per_doc GROUP BY source ORDER BY source
"""


@entry("seq_fim_split", sql=SQL_SEQ_FIM_SPLIT)
def q_seq_fim_split(sf_dir: str) -> pd.DataFrame:
    """Fill-in-the-middle preprocessing over the tokenized corpus:
    deterministic uniform cut points (seeded fmix64 u01 draws — the
    sidecar lets the twin re-derive EVERY cut exactly), SPM reorder
    suffix‖prefix‖middle, per-source span-length sums + an integer
    position-weighted checksum of the reordered sequences — any doc
    split at the wrong point or reordered wrongly changes the sum
    (seqops.fim_split — one vectorized pass over the flat token buffer,
    exact int64 reduceat per batch, no shuffle)."""
    from jesse_ray.functions.seqops import fim_split

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens", "source"])
    per_doc = _collect(fim_split(ds))
    sidecar = per_doc.select(["doc_id", "u1", "u2"])
    # nulls → '' so the twin's join keeps null-keyed rows (the engine's
    # u draw already hashes a null doc_id as the empty string)
    sidecar = sidecar.set_column(0, "doc_id", pc.fill_null(sidecar["doc_id"], ""))
    pq.write_table(sidecar.sort_by("doc_id"), _sig_parquet_path(sf_dir, "fim_u"))
    agg = (
        per_doc.group_by("source")
        .aggregate([([], "count_all"), ("n_prefix", "sum"), ("n_middle", "sum"),
                    ("n_suffix", "sum"), ("spm_checksum", "sum")])
        .rename_columns(["source", "n_docs", "prefix_toks", "middle_toks",
                         "suffix_toks", "checksum"])
    )
    pdf = agg.to_pandas().sort_values("source").reset_index(drop=True)
    for c in ["n_docs", "prefix_toks", "middle_toks", "suffix_toks", "checksum"]:
        pdf[c] = pdf[c].astype("int64")
    return pdf


PROFILE_COLS = ("event_id", "user_id", "ts", "event_type", "value")


SQL_EVENTS_PROFILE = "\nUNION ALL\n".join(
    f"SELECT '{c}' AS column, CAST(count(*) AS BIGINT) AS n_rows, "
    f"CAST(count(*) - count({c}) AS BIGINT) AS n_null, "
    f"CAST(count(DISTINCT {c}) AS BIGINT) AS n_distinct FROM events"
    for c in PROFILE_COLS
)


@entry("events_profile", sql=SQL_EVENTS_PROFILE)
def q_events_profile(sf_dir: str) -> pa.Table:
    """Deequ-style data-quality profile of the events table: per column,
    exact (n_rows, n_null, n_distinct) — one narrow column-pruned read
    per column, per-batch Arrow unique combiner, coarse value-hash
    partition, exact count-distinct per part
    (relational.column_profile)."""
    from jesse_ray.pipelines.relational import column_profile

    return column_profile(f"{sf_dir}/events.parquet", PROFILE_COLS)


SQL_SEQ_PARTITIONED_WRITE = f"""
WITH terms AS (
  SELECT source, generate_subscripts(tokens, 1) AS i, tokens
  FROM {SEQ_SQL}
),
cs AS (
  SELECT source, CAST(sum(CAST(i AS BIGINT) * CAST(tokens[i] AS BIGINT)) AS BIGINT) AS checksum
  FROM terms GROUP BY source
)
SELECT s.source, CAST(count(*) AS BIGINT) AS n_rows,
       CAST(min(s.n_tok) AS BIGINT) AS min_ntok,
       CAST(max(s.n_tok) AS BIGINT) AS max_ntok,
       COALESCE(any_value(cs.checksum), 0) AS checksum
FROM {SEQ_SQL} s LEFT JOIN cs ON cs.source = s.source
GROUP BY s.source ORDER BY s.source
"""


@entry("seq_partitioned_write", sql=SQL_SEQ_PARTITIONED_WRITE)
def q_seq_partitioned_write(sf_dir: str) -> pd.DataFrame:
    """Resumable partitioned-sink round-trip: write the sequences corpus
    hive-partitioned by source with a stats manifest
    (sources.write_partitioned — streaming, shuffle-free, manifest
    written last for crash-safe idempotence), then read every written
    partition BACK and prove fidelity: per source, manifest row counts,
    read-back row counts and an integer position-weighted token checksum
    that must equal the same checksum over the original corpus (the SQL
    twin re-derives it from the raw parquet)."""
    import shutil

    from jesse_ray.sources.parquet import write_partitioned

    out_dir = f"/tmp/jesse_ray_data/part_sink_{testgen.sf_name_of(sf_dir)}"
    shutil.rmtree(out_dir, ignore_errors=True)
    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens", "n_tok", "source"])
    manifest = write_partitioned(ds, out_dir, by="source", stats_col="n_tok")

    rows = []
    for part, meta in sorted(manifest["partitions"].items()):
        back = pa.concat_tables([pq.read_table(f) for f in meta["files"]])
        toks = back["tokens"].combine_chunks()
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        vals = toks.values.to_numpy(zero_copy_only=False).astype(np.int64)[off[0]:off[-1]]
        lengths = off[1:] - off[:-1]
        starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
        pos = np.arange(len(vals), dtype=np.int64) - np.repeat(starts, lengths)
        checksum = int(((pos + 1) * vals).sum())
        if meta["n_rows"] != len(back):
            raise RuntimeError("manifest/readback row drift")
        rows.append({"source": part, "n_rows": len(back),
                     "min_ntok": int(meta["lo"]), "max_ntok": int(meta["hi"]),
                     "checksum": checksum})
    return pd.DataFrame(rows).sort_values("source").reset_index(drop=True)


def _zorder_term_sql(col: str, odd: bool) -> str:
    return " | ".join(
        f"((({col} >> {i}) & 1) << {2 * i + (1 if odd else 0)})" for i in range(16)
    )


SQL_EVENTS_ZORDER = f"""
WITH base AS (
  SELECT event_id,
         user_id & 65535 AS a,
         (CAST(date_part('epoch', ts) AS BIGINT) // 60) & 65535 AS b
  FROM events
),
keys AS (
  SELECT event_id,
         CAST(({_zorder_term_sql('a', False)}) | ({_zorder_term_sql('b', True)}) AS BIGINT) AS z
  FROM base
)
SELECT event_id, z FROM keys ORDER BY z, event_id LIMIT 50
"""


@entry("events_zorder", sql=SQL_EVENTS_ZORDER)
def q_events_zorder(sf_dir: str) -> pa.Table:
    """Z-order (Morton) layout clustering over (user_id, event minute):
    bit-interleaved sort keys make min/max file stats prune BOTH columns
    (the Delta/Iceberg OPTIMIZE ZORDER trick).  Returns the head of the
    curve — 50 smallest keys — via per-batch vectorized interleave +
    partial bottom-k (shuffle.zorder_key: magic-number bit spread; the
    twin recomputes every bit with 32 explicit shift terms)."""
    from jesse_ray.functions.shuffle import zorder_bottomk

    ev = read_table(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])

    def add_minute(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        m = pc.divide(ts.cast(pa.timestamp("us")).cast(pa.int64()), 60_000_000)
        return batch.append_column("ts_min", m)

    ev = ev.map_batches(add_minute, batch_format="pyarrow", zero_copy_batch=True)
    return zorder_bottomk(ev, a_col="user_id", b_col="ts_min", id_col="event_id", k=50)


DECON_N = 8
DECON_EVAL_SOURCE = "crawl-x"


SQL_SEQ_NGRAM_DECONTAM = f"""
WITH ev AS (
  SELECT DISTINCT array_to_string(tokens[i:i+{DECON_N - 1}], ',') AS g
  FROM (SELECT tokens, unnest(range(1, len(tokens) - {DECON_N - 2})) AS i
        FROM {SEQ_SQL} WHERE source = '{DECON_EVAL_SOURCE}')
),
tr AS (
  SELECT COALESCE(doc_id, '') AS doc_id, source,
         array_to_string(tokens[i:i+{DECON_N - 1}], ',') AS g
  FROM (SELECT doc_id, source, tokens, unnest(range(1, len(tokens) - {DECON_N - 2})) AS i
        FROM {SEQ_SQL} WHERE source <> '{DECON_EVAL_SOURCE}')
),
fl AS (SELECT DISTINCT doc_id, source FROM tr JOIN ev USING (g))
SELECT source, CAST(count(*) AS BIGINT) AS n_flagged
FROM fl GROUP BY source ORDER BY source
"""


@entry("seq_ngram_decontam", sql=SQL_SEQ_NGRAM_DECONTAM)
def q_seq_ngram_decontam(sf_dir: str) -> pd.DataFrame:
    """Token-level benchmark decontamination (GPT-3 appendix C recipe at
    token granularity): the small 'crawl-x' slice plays the eval set;
    any training row sharing an 8-token-gram with it is flagged.
    Broadcast-once sorted gram-hash probe, searchsorted membership per
    batch, per-row any-hit via logical reduceat — no shuffle
    (decontam.token_gram_set / flag_token_contaminated).  Returns
    per-source distinct flagged doc counts; the twin re-derives every
    flag with exact string-gram joins."""
    from jesse_ray.functions.decontam import flag_token_contaminated, token_gram_set

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens", "source"])
    ev = ds.filter(expr=f"source == '{DECON_EVAL_SOURCE}'")
    probes = token_gram_set(ev, n=DECON_N)
    tr = ds.filter(expr=f"source != '{DECON_EVAL_SOURCE}'")
    flagged = flag_token_contaminated(tr, probes, n=DECON_N)

    def keep(batch: pa.Table) -> pa.Table:
        t = batch.filter(batch["contaminated"])
        return pa.table({"doc_id": pc.fill_null(t["doc_id"], ""), "source": t["source"]})

    hits = _collect(flagged.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True))
    pdf = hits.to_pandas().drop_duplicates(["doc_id", "source"])
    out = (
        pdf.groupby("source").size().rename("n_flagged").reset_index()
        .sort_values("source").reset_index(drop=True)
    )
    out["n_flagged"] = out["n_flagged"].astype("int64")
    return out


SQL_EVENTS_EQUIDEPTH = """
WITH b AS (
  SELECT event_type,
         quantile_disc(value, 0.25) AS b1,
         quantile_disc(value, 0.50) AS b2,
         quantile_disc(value, 0.75) AS b3
  FROM events WHERE value IS NOT NULL GROUP BY event_type
)
SELECT e.event_type,
       CAST(1 + (e.value > b.b1)::INT + (e.value > b.b2)::INT + (e.value > b.b3)::INT AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n
FROM events e JOIN b USING (event_type)
WHERE e.value IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("events_equidepth", sql=SQL_EVENTS_EQUIDEPTH)
def q_events_equidepth(sf_dir: str) -> pa.Table:
    """Per-type equi-depth (quartile) histogram of the value column —
    boundaries are exact discrete quantiles, bucket = 1 + #{boundaries
    < v} (relational.equidepth_histogram: exact grouped-quantile pass →
    broadcast boundaries → per-batch vectorized bucket counts; the
    shuffle carries ≤ groups × 4 combiner rows per block)."""
    from jesse_ray.pipelines.relational import equidepth_histogram

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "value"])
    return equidepth_histogram(ds, "event_type", "value")


KANON_K = 10


SQL_EVENTS_KANON = f"""
SELECT event_type, CAST(date_part('hour', ts) AS BIGINT) AS hour,
       CAST(date_part('dow', ts) AS BIGINT) AS dow,
       CAST(count(*) AS BIGINT) AS cnt
FROM events
GROUP BY 1, 2, 3 HAVING count(*) < {KANON_K}
ORDER BY 1, 2, 3
"""


@entry("events_kanon", sql=SQL_EVENTS_KANON)
def q_events_kanon(sf_dir: str) -> pa.Table:
    """k-anonymity audit over the quasi-identifier (event_type,
    hour-of-day, day-of-week): any combination observed fewer than K=10
    times is a re-identification risk and must be suppressed/generalized
    before release.  Vectorized hour/dow extraction + the
    bounded-cardinality combiner shuffle (≤ 5×24×7 groups) —
    grouped_agg + a driver-side HAVING filter over the tiny group
    table."""
    from jesse_ray.pipelines.relational import grouped_agg

    ev = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def add_qi(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        hour = pc.hour(ts).cast(pa.int64())
        # Arrow day_of_week: Mon=0; DuckDB dow: Sun=0 — shift by one
        dow = pc.add(pc.day_of_week(ts).cast(pa.int64()), 1)
        dow = pc.subtract(dow, pc.multiply(pc.divide(dow, 7), 7))
        return pa.table({"event_type": batch["event_type"], "hour": hour, "dow": dow})

    ev = ev.map_batches(add_qi, batch_format="pyarrow", zero_copy_batch=True)
    g = _collect(grouped_agg(ev, ["event_type", "hour", "dow"]))
    g = g.set_column(g.schema.get_field_index("cnt"), "cnt", g["cnt"].cast(pa.int64()))
    risky = g.filter(pc.less(g["cnt"], KANON_K))
    return risky.sort_by([("event_type", "ascending"), ("hour", "ascending"),
                          ("dow", "ascending")])


SQL_SEQ_TOP_TOKENS_BY_SOURCE = f"""
WITH c AS (
  SELECT source, t AS elem, count(*) AS cnt
  FROM (SELECT source, unnest(tokens) AS t FROM {SEQ_SQL})
  WHERE t >= 0 GROUP BY source, t
),
r AS (
  SELECT source, CAST(elem AS BIGINT) AS elem, CAST(cnt AS BIGINT) AS cnt,
         row_number() OVER (PARTITION BY source ORDER BY cnt DESC, elem) AS rn
  FROM c
)
SELECT source, elem, cnt FROM r WHERE rn <= 3
ORDER BY source, cnt DESC, elem
"""


@entry("seq_top_tokens_by_source", sql=SQL_SEQ_TOP_TOKENS_BY_SOURCE)
def q_seq_top_tokens_by_source(sf_dir: str) -> pa.Table:
    """Exact per-source top-3 token ids (grouped heavy hitters — the
    per-group form of seq_top_tokens; relational.grouped_top_k_elements:
    (group, element) combiner counts, element-hash-only shuffle so each
    element's per-group counts land whole in one part, per-part grouped
    top-k, ≤ parts × groups × k candidate rows on the driver)."""
    from jesse_ray.pipelines.relational import grouped_top_k_elements

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens", "source"])
    return grouped_top_k_elements(ds, "tokens", "source", k=3)


_CLEAN_SQL = "read_parquet('/tmp/jesse_ray_data/sf0.01/sequences_clean.parquet')"

SQL_SEQ_INFER_SPEC = f"""
WITH c AS (SELECT * FROM {_CLEAN_SQL}),
rows_ AS (
  SELECT 'doc_id' AS "column", 'required' AS "constraint",
         CASE WHEN count(*) = count(doc_id) THEN 'true' END AS value FROM c
  UNION ALL SELECT 'tokens', 'required', CASE WHEN count(*) = count(tokens) THEN 'true' END FROM c
  UNION ALL SELECT 'n_tok', 'required', CASE WHEN count(*) = count(n_tok) THEN 'true' END FROM c
  UNION ALL SELECT 'source', 'required', CASE WHEN count(*) = count(source) THEN 'true' END FROM c
  UNION ALL SELECT 'n_tok', 'minimum', CAST(min(n_tok) AS VARCHAR) FROM c
  UNION ALL SELECT 'n_tok', 'maximum', CAST(max(n_tok) AS VARCHAR) FROM c
  UNION ALL SELECT 'doc_id', 'min_length', CAST(min(length(doc_id)) AS VARCHAR) FROM c
  UNION ALL SELECT 'doc_id', 'max_length', CAST(max(length(doc_id)) AS VARCHAR) FROM c
  UNION ALL SELECT 'source', 'min_length', CAST(min(length(source)) AS VARCHAR) FROM c
  UNION ALL SELECT 'source', 'max_length', CAST(max(length(source)) AS VARCHAR) FROM c
  UNION ALL SELECT 'source', 'enum', string_agg(DISTINCT source, ',' ORDER BY source) FROM c
  UNION ALL SELECT 'tokens', 'min_items', CAST(min(len(tokens)) AS VARCHAR) FROM c
  UNION ALL SELECT 'tokens', 'max_items', CAST(max(len(tokens)) AS VARCHAR) FROM c
  UNION ALL SELECT 'tokens', 'item_minimum',
    CAST((SELECT min(t) FROM (SELECT unnest(tokens) AS t FROM c)) AS VARCHAR)
  UNION ALL SELECT 'tokens', 'item_maximum',
    CAST((SELECT max(t) FROM (SELECT unnest(tokens) AS t FROM c)) AS VARCHAR)
  UNION ALL SELECT '_engine', 'violations_on_inferred_spec', '0'
  UNION ALL SELECT '_engine', 'duplicate_keys_confirmed', '0'
)
SELECT * FROM rows_ WHERE value IS NOT NULL
ORDER BY "column", "constraint", value
"""


@entry("seq_infer_spec", sql=SQL_SEQ_INFER_SPEC)
def q_seq_infer_spec(sf_dir: str) -> pa.Table:
    """Spec inference (profile → propose → verify): one streaming pass
    over the CLEAN corpus derives the tightest draft-04 constraints it
    satisfies (required / numeric + item bounds / length + item-count
    bounds / capped enum — jesse_ray.infer.infer_spec, per-batch Arrow
    partials, small rows to the driver, never a distinct shuffle), then
    the inferred spec is compiled and the corpus re-validated against
    it — the final row proves zero violations, and the doc_id
    uniqueness HYPOTHESIS is confirmed by the engine's duplicate pass.
    The twin re-derives every constraint value in SQL."""
    from jesse_ray.engine import duplicate_keys, row_violations
    from jesse_ray.infer import infer_spec

    sf = testgen.sf_name_of(sf_dir)
    testgen.generate(sf)
    clean = str(testgen.corpus_dir(sf) / "sequences_clean.parquet")
    ds = read_sequences(clean)
    spec, constraints = infer_spec(ds, key_column="doc_id")
    compiled = compile_spec(spec)
    n_viol = row_violations(read_sequences(clean), compiled).count()
    n_dups = duplicate_keys(read_sequences(clean), "doc_id").count() if spec.unique_keys else -1
    tail = pa.table({
        "column": ["_engine", "_engine"],
        "constraint": ["violations_on_inferred_spec", "duplicate_keys_confirmed"],
        "value": [str(n_viol), str(n_dups)],
    })
    return pa.concat_tables([constraints, tail])


SEP_TOKEN = 13


SQL_SEQ_LOSS_MASK = f"""
WITH s AS (
  SELECT source, tokens, len(tokens) AS n,
         COALESCE(list_position(tokens, {SEP_TOKEN}), 0) AS cut
  FROM {SEQ_SQL}
),
counts AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(cut) AS BIGINT) AS masked_toks,
         CAST(sum(n - cut) AS BIGINT) AS train_toks
  FROM s GROUP BY source
),
terms AS (
  SELECT source,
         CASE WHEN i > cut THEN i * CAST(tokens[i] AS BIGINT) ELSE 0 END AS term
  FROM (SELECT source, cut, tokens, generate_subscripts(tokens, 1) AS i FROM s)
),
sums AS (SELECT source, CAST(sum(term) AS BIGINT) AS checksum FROM terms GROUP BY source)
SELECT c.source, c.n_docs, c.masked_toks, c.train_toks,
       COALESCE(m.checksum, 0) AS checksum
FROM counts c LEFT JOIN sums m USING (source)
ORDER BY c.source
"""


@entry("seq_loss_mask", sql=SQL_SEQ_LOSS_MASK)
def q_seq_loss_mask(sf_dir: str) -> pd.DataFrame:
    """Instruction-tuning loss masking: prompt = everything up to and
    including the first SEP token (token id 13), completion trains.
    Per-source masked/trainable token sums + an integer
    position-weighted checksum of the TRAINABLE spans — a mask boundary
    off by one token on any row changes the sum
    (seqops.loss_mask_split — equality mask + minimum.reduceat
    first-occurrence + masked int64 reduceat, no shuffle)."""
    from jesse_ray.functions.seqops import loss_mask_split

    ds = read_sequences(_seq_path(sf_dir), columns=["doc_id", "tokens", "source"])
    t = _collect(loss_mask_split(ds, sep=SEP_TOKEN))
    pdf = (
        t.group_by("source")
        .aggregate([([], "count_all"), ("masked_toks", "sum"),
                    ("train_toks", "sum"), ("train_checksum", "sum")])
        .rename_columns(["source", "n_docs", "masked_toks", "train_toks", "checksum"])
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    for c in ["n_docs", "masked_toks", "train_toks", "checksum"]:
        pdf[c] = pdf[c].astype("int64")
    return pdf


SQL_SEQ_REMAP_TOKENS = f"""
WITH counts AS (
  SELECT t, count(*) AS cnt
  FROM (SELECT unnest(tokens) AS t FROM {SEQ_SQL})
  WHERE t >= 0 GROUP BY t
),
vocab AS (
  SELECT t AS token,
         CAST(row_number() OVER (ORDER BY cnt DESC, t ASC) - 1 AS BIGINT) AS new_id
  FROM counts
),
pos AS (
  SELECT source, generate_subscripts(tokens, 1) AS i, tokens FROM {SEQ_SQL}
),
terms AS (
  SELECT p.source,
         CAST(p.i AS BIGINT)
           * (CASE WHEN p.tokens[p.i] >= 0 THEN v.new_id
                   ELSE CAST(p.tokens[p.i] AS BIGINT) END) AS term
  FROM pos p LEFT JOIN vocab v ON v.token = p.tokens[p.i]
),
sums AS (SELECT source, CAST(sum(term) AS BIGINT) AS checksum FROM terms GROUP BY source),
docs AS (SELECT source, CAST(count(*) AS BIGINT) AS n_docs FROM {SEQ_SQL} GROUP BY source)
SELECT d.source, d.n_docs, COALESCE(s.checksum, 0) AS checksum
FROM docs d LEFT JOIN sums s ON d.source = s.source
ORDER BY d.source
"""


@entry("seq_remap_tokens", sql=SQL_SEQ_REMAP_TOKENS)
def q_seq_remap_tokens(sf_dir: str) -> pa.Table:
    """Vocabulary compaction: rank every token id by global frequency
    (ties → smaller id) and remap the whole corpus old-id → rank;
    negative sentinel ids pass through.  The embedding-table compaction
    step before training.  Evidence is integer-exact per-source
    position-weighted checksums of the REMAPPED sequences — any
    misranked or misapplied token changes the sum
    (seqops.token_frequency_remap + remap_checksums_by_group:
    combiner-partial counts, driver merge bounded by vocab size,
    broadcast-once remap, one searchsorted per batch)."""
    from jesse_ray.functions.seqops import (
        remap_checksums_by_group,
        token_frequency_remap,
    )

    ds = read_sequences(_seq_path(sf_dir), columns=["tokens", "source"])
    tok, new = token_frequency_remap(ds, tokens_col="tokens")
    ref = ray.put((tok, new)) if ray.is_initialized() else (tok, new)
    return remap_checksums_by_group(ds, ref, tokens_col="tokens", group_col="source")


SQL_EMB_OUTLIERS = """
WITH dims AS (
  SELECT vec_id, label, generate_subscripts(embedding, 1) AS d,
         CAST(unnest(embedding) AS DOUBLE) AS x
  FROM embeddings
),
cent AS (SELECT label, d, avg(x) AS c FROM dims GROUP BY label, d),
dist AS (
  SELECT e.vec_id, e.label, sum((e.x - cent.c) * (e.x - cent.c)) AS d2
  FROM dims e JOIN cent ON e.label = cent.label AND e.d = cent.d
  GROUP BY e.vec_id, e.label
)
SELECT CAST(label AS BIGINT) AS label,
       CAST(row_number() OVER (PARTITION BY label ORDER BY d2 DESC, vec_id ASC) AS BIGINT) AS rnk,
       vec_id
FROM dist
QUALIFY rnk <= 5
ORDER BY label, rnk
"""


@entry("emb_outliers", sql=SQL_EMB_OUTLIERS)
def q_emb_outliers(sf_dir: str) -> pa.Table:
    """Embedding QC: the 5 vectors furthest from their own label's
    centroid, per label (mislabel / noisy-embedding screen).  Exact
    centroids from combiner partials, broadcast once; per-batch partial
    top-k keeps the driver merge at n_blocks × n_labels × k rows
    (clustering.centroid_outliers).  Output is ids + ranks only —
    integer-exact for the hash compare."""
    from jesse_ray.functions.clustering import centroid_outliers

    ds = read_table(f"{sf_dir}/embeddings.parquet",
                    columns=["vec_id", "embedding", "label"])
    out = centroid_outliers(ds, vec_col="embedding", label_col="label",
                            id_col="vec_id", k=5)
    return pa.table({
        "label": out["label"].cast(pa.int64()),
        "rnk": out["rnk"],
        "vec_id": out["vec_id"],
    })


Q5_LO, Q5_HI = "1996-01-01", "1997-01-01"


SQL_TPCH_Q5ISH = f"""
SELECT n_name, round(sum(l_extendedprice * (1.0 - l_discount)), 2) AS revenue
FROM customer
JOIN orders ON c_custkey = o_custkey
JOIN lineitem ON l_orderkey = o_orderkey
JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
WHERE r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '{Q5_LO}' AND o_orderdate < TIMESTAMP '{Q5_HI}'
GROUP BY n_name
ORDER BY revenue DESC, n_name
"""


@entry("tpch_q5ish", sql=SQL_TPCH_Q5ISH)
def q_tpch_q5ish(sf_dir: str) -> pa.Table:
    """TPC-H Q5-shaped six-table composite (local-supplier revenue by
    nation): two large-x-large hash joins for the fact chain
    (orders⋈customer, lineitem⋈orders — coarse key-hash cogroups, never
    a high-cardinality Ray groupby), broadcast-once Arrow joins for the
    dims that stay dim-sized at any SF (supplier ~10k rows/SF, nation
    25, region 5), and the c_nationkey == s_nationkey "local supplier"
    filter applied per batch after the broadcast.  The final aggregate
    has <= 25 keys — grouped_agg combiner partials, trivial shuffle."""
    from jesse_ray.pipelines.relational import grouped_agg, hash_join

    lo = pd.Timestamp(Q5_LO)
    hi = pd.Timestamp(Q5_HI)

    # driver-side dim prep: nation ⋈ region (25 x 5 rows) → the ASIA
    # nationkey set + names, shipped inside the broadcast supplier table
    nat = pq.read_table(f"{sf_dir}/nation.parquet")
    reg = pq.read_table(f"{sf_dir}/region.parquet")
    nr = nat.join(reg, keys=["n_regionkey"], right_keys=["r_regionkey"])
    nr = nr.filter(pc.equal(nr["r_name"], "ASIA"))
    sup = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
    sup = sup.join(nr.select(["n_nationkey", "n_name"]), keys=["s_nationkey"],
                   right_keys=["n_nationkey"], join_type="inner")  # ASIA suppliers only
    sup_ref = ray.put(sup) if ray.is_initialized() else sup

    orders = read_table(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"])

    def o_filter(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.greater_equal(batch["o_orderdate"], pa.scalar(lo)),
            pc.less(batch["o_orderdate"], pa.scalar(hi)),
        )
        t = batch.filter(m)
        return pa.table({"o_orderkey": t["o_orderkey"], "o_custkey": t["o_custkey"]})

    orders = orders.map_batches(o_filter, batch_format="pyarrow", zero_copy_batch=True)
    cust = read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
    cust_k = cust.map_batches(
        lambda b: b.rename_columns(["o_custkey", "c_nationkey"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    oc = hash_join(orders, cust_k, on="o_custkey", how="inner")
    oc_k = oc.map_batches(
        lambda b: pa.table({"l_orderkey": b["o_orderkey"], "c_nationkey": b["c_nationkey"]}),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    li = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def l_prep(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"]))
        return pa.table({
            "l_orderkey": batch["l_orderkey"], "l_suppkey": batch["l_suppkey"], "rev": rev,
        })

    li = li.map_batches(l_prep, batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(li, oc_k, on="l_orderkey", how="inner")

    def sup_join(batch: pa.Table) -> pa.Table:
        dim = ray.get(sup_ref) if isinstance(sup_ref, ray.ObjectRef) else sup_ref
        t = batch.join(dim, keys=["l_suppkey"], right_keys=["s_suppkey"], join_type="inner")
        t = t.filter(pc.equal(t["c_nationkey"], t["s_nationkey"]))
        return pa.table({"n_name": t["n_name"], "rev": t["rev"]})

    j = j.map_batches(sup_join, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(grouped_agg(j, ["n_name"], sums=["rev"], count_alias=None))
    if out is None or out.num_rows == 0:
        return pa.table({"n_name": pa.array([], type=pa.string()),
                         "revenue": pa.array([], type=pa.float64())})
    return pa.table({
        "n_name": out["n_name"],
        "revenue": pa.array(round_half_away(out["sum_rev"], 2), type=pa.float64()),
    }).sort_by([("revenue", "descending"), ("n_name", "ascending")])


SQL_TPCH_Q14ISH = """
SELECT CAST(year(l_shipdate) * 100 + month(l_shipdate) AS BIGINT) AS ym,
       round(100.0 * CAST(sum(CASE WHEN p_type = 'PROMO'
                              THEN CAST(round(l_extendedprice * 100) AS BIGINT)
                                   * (100 - CAST(round(l_discount * 100) AS BIGINT))
                              ELSE 0 END) AS DOUBLE)
             / CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                        * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS DOUBLE),
             6) AS promo_share,
       round(CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                      * (100 - CAST(round(l_discount * 100) AS BIGINT))) AS DOUBLE)
             / 10000.0, 2) AS revenue
FROM lineitem JOIN part ON l_partkey = p_partkey
GROUP BY ym
ORDER BY ym
"""


@entry("tpch_q14ish", sql=SQL_TPCH_Q14ISH)
def q_tpch_q14ish(sf_dir: str) -> pa.Table:
    """TPC-H Q14-shaped promo-revenue share per ship month: one
    large-x-medium hash join (lineitem⋈part — part is 1/30 of lineitem
    at every SF, NOT broadcast-safe at 100 TB, so it rides the same
    coarse key-hash cogroup as the fact side), then a <=84-key monthly
    grouped_agg of (promo_rev, rev) combiner partials and the share
    ratio computed on the collected driver rows."""
    from jesse_ray.pipelines.relational import grouped_agg, hash_join

    part = read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    part_k = part.map_batches(
        lambda b: b.rename_columns(["l_partkey", "p_type"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )
    li = read_table(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def l_prep(batch: pa.Table) -> pa.Table:
        # exact integer revenue units of 1e-4: cents x (100 - disc_cents),
        # so the grouped sums are order-independent int64 and the emitted
        # floats are bit-identical to the twin (r5 strict-sweep fix: the
        # float sum landed one cent off the twin at a .005 boundary)
        ep_c = pc.cast(pc.round(pc.multiply(batch["l_extendedprice"], 100.0)), pa.int64())
        dc_c = pc.cast(pc.round(pc.multiply(batch["l_discount"], 100.0)), pa.int64())
        rev = pc.multiply(ep_c, pc.subtract(pa.scalar(100, type=pa.int64()), dc_c))
        sd = batch["l_shipdate"]
        if isinstance(sd, pa.ChunkedArray):
            sd = sd.combine_chunks()
        ym = pc.add(
            pc.multiply(pc.year(sd).cast(pa.int64()), pa.scalar(100, type=pa.int64())),
            pc.month(sd).cast(pa.int64()),
        )
        return pa.table({"l_partkey": batch["l_partkey"], "ym": ym, "rev": rev})

    li = li.map_batches(l_prep, batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(li, part_k, on="l_partkey", how="inner")

    def promo(batch: pa.Table) -> pa.Table:
        is_promo = pc.equal(batch["p_type"], "PROMO")
        prev = pc.if_else(is_promo, batch["rev"], pa.scalar(0, type=pa.int64()))
        return pa.table({"ym": batch["ym"], "rev": batch["rev"], "promo_rev": prev})

    j = j.map_batches(promo, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(grouped_agg(j, ["ym"], sums=["rev", "promo_rev"], count_alias=None))
    rev = out["sum_rev"].to_numpy(zero_copy_only=False).astype(np.float64)
    prev = out["sum_promo_rev"].to_numpy(zero_copy_only=False).astype(np.float64)
    return pa.table({
        "ym": out["ym"].cast(pa.int64()),
        "promo_share": pa.array(round_half_away(100.0 * prev / rev, 6)),
        "revenue": pa.array(round_half_away(rev / 10000.0, 2), type=pa.float64()),
    }).sort_by("ym")


_WEEK_US = 7 * 24 * 3600 * 1_000_000


SQL_EVENTS_COHORT_RETENTION = f"""
WITH firsts AS (
  SELECT user_id,
         CAST(floor(epoch_us(min(ts)) / {_WEEK_US}.0) AS BIGINT) AS cohort_w
  FROM events GROUP BY user_id
),
j AS (
  SELECT e.user_id, f.cohort_w,
         CAST(floor(epoch_us(e.ts) / {_WEEK_US}.0) AS BIGINT) - f.cohort_w AS offset_w
  FROM events e JOIN firsts f USING (user_id)
)
SELECT cohort_w, offset_w, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM j GROUP BY cohort_w, offset_w
ORDER BY cohort_w, offset_w
"""


@entry("events_cohort_retention", sql=SQL_EVENTS_COHORT_RETENTION)
def q_events_cohort_retention(sf_dir: str) -> pa.Table:
    """Weekly cohort retention matrix: users are anchored to the week
    of their FIRST event (relational.latest_by_key keep='first' — the
    same coarse key-hash compaction as CDC latest-state, flipped), the
    anchor joins back to the full stream on a cogroup hash join, and
    the matrix cell (cohort_week, offset_weeks) counts DISTINCT users
    (grouped_count_distinct: per-batch pair dedup before anything
    moves).  The product-analytics workhorse over an append-only event
    log."""
    from jesse_ray.functions.seqops import _combine
    from jesse_ray.pipelines.relational import (
        grouped_count_distinct,
        hash_join,
        latest_by_key,
    )

    ev = read_table(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    first = latest_by_key(ev, "user_id", ["ts"], keep="first")

    def to_cohort(batch: pa.Table) -> pa.Table:
        ts = _combine(batch["ts"]).cast(pa.timestamp("us")).cast(pa.int64())
        w = pc.floor(pc.divide(ts.cast(pa.float64()), float(_WEEK_US))).cast(pa.int64())
        return pa.table({"user_id": batch["user_id"], "cohort_w": w})

    first = first.map_batches(to_cohort, batch_format="pyarrow", zero_copy_batch=True)

    def to_week(batch: pa.Table) -> pa.Table:
        ts = _combine(batch["ts"]).cast(pa.timestamp("us")).cast(pa.int64())
        w = pc.floor(pc.divide(ts.cast(pa.float64()), float(_WEEK_US))).cast(pa.int64())
        return pa.table({"user_id": batch["user_id"], "week": w})

    weeks = ev.map_batches(to_week, batch_format="pyarrow", zero_copy_batch=True)
    j = hash_join(weeks, first, on="user_id", how="inner")

    def offset(batch: pa.Table) -> pa.Table:
        return pa.table({
            "cohort_w": batch["cohort_w"],
            "offset_w": pc.subtract(batch["week"], batch["cohort_w"]),
            "user_id": batch["user_id"],
        })

    j = j.map_batches(offset, batch_format="pyarrow", zero_copy_batch=True)
    out = _collect(grouped_count_distinct(j, ["cohort_w", "offset_w"], "user_id",
                                          alias="n_users"))
    return pa.table({
        "cohort_w": out["cohort_w"].cast(pa.int64()),
        "offset_w": out["offset_w"].cast(pa.int64()),
        "n_users": out["n_users"].cast(pa.int64()),
    }).sort_by([("cohort_w", "ascending"), ("offset_w", "ascending")])


PQ_M, PQ_K = 8, 16


SQL_EMB_PQ = """
WITH codes AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/pq_codes_sigs_sf0.01.parquet')),
cents AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/pq_cents_sigs_sf0.01.parquet')),
dims AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(unnest(embedding) AS DOUBLE) AS x
  FROM embeddings
),
dist AS (
  SELECT d.vec_id, c.j, c.c, sum((d.x - c.v) * (d.x - c.v)) AS d2
  FROM dims d JOIN cents c ON c.i = d.i
  GROUP BY d.vec_id, c.j, c.c
),
best AS (SELECT vec_id, j, min(d2) AS mind FROM dist GROUP BY vec_id, j),
own AS (
  SELECT dist.vec_id, dist.j, dist.d2 AS ownd
  FROM dist JOIN codes ON codes.vec_id = dist.vec_id
                      AND codes.j = dist.j AND codes.code = dist.c
),
ok AS (
  SELECT count(*) = 0 AS good
  FROM own JOIN best USING (vec_id, j) WHERE ownd > mind + 1e-9
)
SELECT j, code, CAST(count(*) AS BIGINT) AS n FROM codes
GROUP BY j, code
HAVING (SELECT good FROM ok)
ORDER BY j, code
"""


@entry("emb_pq", sql=SQL_EMB_PQ)
def q_emb_pq(sf_dir: str) -> pa.Table:
    """Product-quantization encode (Jegou et al., TPAMI 2011 — the
    memory-compression step for billion-scale ANN): train m=8 × k=16
    sub-codebooks with ALL subspaces Lloyd-updated in one streaming
    pass per iteration (similarity.pq_fit), then encode every vector
    (one argmin matmul per subspace, codebook broadcast once).  The
    twin re-checks from the code + centroid sidecars that every
    assigned code is within 1e-9 of the subspace-optimal distance,
    then aggregates the (j, code) histogram — exactly the
    emb_kmeans envelope discipline."""
    from jesse_ray.functions.similarity import pq_assign, pq_fit

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    books = pq_fit(ds, m=PQ_M, k=PQ_K, n_iters=4)
    codes = _collect(pq_assign(ds, books))
    pq.write_table(codes.sort_by([("vec_id", "ascending"), ("j", "ascending")]),
                   _sig_parquet_path(sf_dir, "pq_codes"))
    m, k, sub = books.shape
    jj, cc, ii = np.meshgrid(np.arange(m), np.arange(k), np.arange(sub), indexing="ij")
    pq.write_table(
        pa.table({
            "j": pa.array(jj.ravel(), type=pa.int64()),
            "c": pa.array(cc.ravel(), type=pa.int64()),
            # global 1-based embedding dim this centroid coord scores
            "i": pa.array((jj * sub + ii + 1).ravel(), type=pa.int64()),
            "v": pa.array(books.ravel(), type=pa.float64()),
        }),
        _sig_parquet_path(sf_dir, "pq_cents"),
    )
    hist = (
        codes.group_by(["j", "code"]).aggregate([([], "count_all")])
        .rename_columns(["j", "code", "n"])
    )
    return pa.table({
        "j": hist["j"], "code": hist["code"], "n": hist["n"].cast(pa.int64()),
    }).sort_by([("j", "ascending"), ("code", "ascending")])


PCA_DIM = 8


SQL_EMB_PCA = """
WITH m AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/pca_mean_sigs_sf0.01.parquet')),
w AS (SELECT * FROM read_parquet('/tmp/jesse_ray_data/pca_comp_sigs_sf0.01.parquet')),
e AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS i,
         CAST(unnest(embedding) AS DOUBLE) AS x
  FROM embeddings
),
centered AS (
  SELECT e.vec_id, e.i, e.x - m.mu AS xc FROM e JOIN m USING (i)
)
SELECT c.vec_id, w.j, round(sum(c.xc * w.w), 4) AS val
FROM centered c JOIN w ON w.i = c.i
GROUP BY c.vec_id, w.j
ORDER BY c.vec_id, w.j
"""


@entry("emb_pca", sql=SQL_EMB_PCA)
def q_emb_pca(sf_dir: str) -> pa.Table:
    """Exact distributed PCA (64→8): one streaming moment-partials pass
    (n, Σx, Σxxᵀ per block — driver merge bounded by n_blocks × dim²),
    driver eigh of the 64×64 covariance with sign-canonicalized
    components, broadcast-once projection matmul
    (similarity.pca_fit/pca_transform).  The twin re-derives EVERY
    projected coordinate in SQL from the mean + component sidecars —
    the emb_project discipline."""
    from jesse_ray.functions.similarity import pca_fit, pca_transform

    ds = read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    mu, W = pca_fit(ds, PCA_DIM)
    dim, od = W.shape
    pq.write_table(
        pa.table({
            "i": pa.array(np.arange(1, dim + 1), type=pa.int64()),
            "mu": pa.array(mu, type=pa.float64()),
        }),
        _sig_parquet_path(sf_dir, "pca_mean"),
    )
    ii, jj = np.meshgrid(np.arange(1, dim + 1), np.arange(od), indexing="ij")
    pq.write_table(
        pa.table({
            "i": pa.array(ii.ravel(), type=pa.int64()),
            "j": pa.array(jj.ravel(), type=pa.int64()),
            "w": pa.array(W.ravel(), type=pa.float64()),
        }),
        _sig_parquet_path(sf_dir, "pca_comp"),
    )
    out = pca_transform(ds, mu, W)

    def longform(batch: pa.Table) -> pa.Table:
        proj = batch["pca"]
        if isinstance(proj, pa.ChunkedArray):
            proj = proj.combine_chunks()
        n = len(proj)
        vals = pc.list_flatten(proj).to_numpy(zero_copy_only=False)
        vid = batch["vec_id"].to_numpy(zero_copy_only=False)
        return pa.table({
            "vec_id": pa.array(np.repeat(vid, PCA_DIM), type=pa.int64()),
            "j": pa.array(np.tile(np.arange(PCA_DIM, dtype=np.int64), n)),
            "val": pa.array(round_half_away(vals, 4), type=pa.float64()),
        })

    return _collect(out.map_batches(longform, batch_format="pyarrow", zero_copy_batch=True))


def _lr_features(batch: pa.Table) -> np.ndarray:
    """Design matrix for the quality classifier — integer counts the
    SQL twin reproduces exactly, turned into ratios by SINGLE divisions
    (same operands ⇒ same IEEE result on both sides): [1, q_len/1000,
    n_alpha/q_len, n_space/q_len]."""
    txt = batch["text"]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    q_len = pc.utf8_length(txt).cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)
    n_alpha = (
        pc.utf8_length(pc.replace_substring_regex(txt, "[^A-Za-z]", ""))
        .cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)
    )
    n_space = (
        pc.subtract(pc.utf8_length(txt), pc.utf8_length(pc.replace_substring(txt, " ", "")))
        .cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)
    )
    d = np.maximum(q_len, 1.0)
    return np.column_stack([
        np.ones(len(q_len)), q_len / 1000.0, n_alpha / d, n_space / d,
    ])


SQL_DOC_LR_QUALITY = """
WITH w AS (
  SELECT max(CASE WHEN k = 0 THEN w END) AS w0,
         max(CASE WHEN k = 1 THEN w END) AS w1,
         max(CASE WHEN k = 2 THEN w END) AS w2,
         max(CASE WHEN k = 3 THEN w END) AS w3
  FROM read_parquet('/tmp/jesse_ray_data/lr_weights_sigs_sf0.01.parquet')
),
f AS (
  SELECT doc_id,
         CAST(length(text) AS BIGINT) AS q_len,
         CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS BIGINT) AS n_alpha,
         CAST(length(text) - length(replace(text, ' ', '')) AS BIGINT) AS n_space
  FROM documents
)
SELECT doc_id,
       round(((w.w0 + w.w1 * (CAST(q_len AS DOUBLE) / 1000.0))
              + w.w2 * (CAST(n_alpha AS DOUBLE) / CAST(greatest(q_len, 1) AS DOUBLE)))
              + w.w3 * (CAST(n_space AS DOUBLE) / CAST(greatest(q_len, 1) AS DOUBLE)), 6) AS logit
FROM f, w
ORDER BY doc_id
"""


@entry("doc_lr_quality", sql=SQL_DOC_LR_QUALITY)
def q_doc_lr_quality(sf_dir: str) -> pa.Table:
    """Fasttext-style linear quality classifier trained DISTRIBUTED
    (functions.linear.logreg_fit: each GD step is one streaming pass of
    per-batch gradient partials, driver holds only the 4-dim weight
    vector), predicting is-English from length/alpha/space ratio
    features, then scored corpus-wide with the weights broadcast once.
    Output is the raw log-odds (no exp — libm ulp differences would
    poison the twin); the per-doc linear term is evaluated with the
    SAME sequential adds as the SQL expression, so scores from the
    exported weight sidecar are IEEE-identical."""
    from jesse_ray.functions.linear import logreg_fit

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])

    def label(batch: pa.Table) -> np.ndarray:
        lang = batch["lang"]
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        return pc.equal(lang, "en").to_numpy(zero_copy_only=False).astype(np.float64)

    w = logreg_fit(ds, _lr_features, label, n_features=4, lr=0.5, n_steps=25)
    pq.write_table(
        pa.table({"k": pa.array(np.arange(4), type=pa.int64()),
                  "w": pa.array(w, type=pa.float64())}),
        _sig_parquet_path(sf_dir, "lr_weights"),
    )
    ref = ray.put(w) if ray.is_initialized() else w

    def score(batch: pa.Table) -> pa.Table:
        wk = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        x = _lr_features(batch)
        # sequential adds mirroring the SQL twin term order exactly
        z = wk[0] + wk[1] * x[:, 1]
        z = z + wk[2] * x[:, 2]
        z = z + wk[3] * x[:, 3]
        return pa.table({
            "doc_id": batch["doc_id"],
            "logit": pa.array(round_half_away(z, 6), type=pa.float64()),
        })

    return _collect(ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True))


_BM25_TERMS_SQL = ", ".join(f"'{t}'" for t in SEARCH_TERMS)
SQL_DOC_BM25 = f"""
WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word FROM documents),
dl AS (SELECT doc_id, count(*) AS dl FROM w GROUP BY doc_id),
corpus AS (SELECT count(*) AS n,
                  avg(coalesce(dl.dl, 0)) AS avgdl
           FROM documents d LEFT JOIN dl USING (doc_id)),
tf AS (SELECT doc_id, word, count(*) AS tf FROM w
       WHERE word IN ({_BM25_TERMS_SQL}) GROUP BY doc_id, word),
df AS (SELECT word, count(DISTINCT doc_id) AS df FROM tf GROUP BY word),
terms AS (SELECT unnest([{_BM25_TERMS_SQL}]) AS word),
idf AS (SELECT t.word,
               ln(1 + ((SELECT n FROM corpus) - coalesce(df.df, 0) + 0.5)
                      / (coalesce(df.df, 0) + 0.5)) AS idf
        FROM terms t LEFT JOIN df USING (word)),
scored AS (
  SELECT tf.doc_id,
         round(sum(idf.idf * (tf.tf * (1.2 + 1.0)) /
               (tf.tf + 1.2 * (1.0 - 0.75 + 0.75 * dl.dl / (SELECT avgdl FROM corpus)))),
               6) AS score
  FROM tf JOIN idf USING (word) JOIN dl USING (doc_id)
  GROUP BY tf.doc_id)
SELECT doc_id, score FROM scored ORDER BY score DESC, doc_id LIMIT 20
"""


@entry("doc_bm25", sql=SQL_DOC_BM25)
def q_doc_bm25(sf_dir: str) -> pa.Table:
    """Disjunctive BM25 top-20 over documents (text.bm25_search): a
    corpus-stats streaming pass (N, avgdl, per-term df via one-row-per-
    batch partials), then the scoring scan with per-batch top-k
    partials — no shuffle, driver merges k × n_blocks rows.  Scores
    rounded to 6 dp on BOTH sides before ranking."""
    from jesse_ray.functions.text import bm25_search

    ds = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return bm25_search(ds, SEARCH_TERMS, k=20)


SQL_EVENTS_PIVOT = (
    "SELECT event_type, "
    + ", ".join(
        f"CAST(count(*) FILTER (WHERE extract(hour FROM ts) = {i}) AS BIGINT) AS h{i:02d}"
        for i in range(24)
    )
    + " FROM events GROUP BY event_type ORDER BY event_type"
)


@entry("events_pivot", sql=SQL_EVENTS_PIVOT)
def q_events_pivot(sf_dir: str) -> pa.Table:
    """Hour-of-day × event-type crosstab (relational.pivot_counts):
    per-batch one dictionary_encode + one 2-D np.bincount combiner
    emitting ONE wide row per type per block, then a tiny
    groupby(type).Sum — the wide re-expression of 24 SQL FILTER
    aggregates."""
    from jesse_ray.pipelines.relational import pivot_counts

    ds = read_table(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])

    def add_hour(batch: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": batch["event_type"],
            "hour": pc.hour(batch["ts"]).cast(pa.int64()),
        })

    hds = ds.map_batches(add_hour, batch_format="pyarrow", zero_copy_batch=True)
    return pivot_counts(hds, "event_type", "hour", 24, prefix="h")


SQL_SEQ_FIXITY_MANIFEST = f"""
WITH per_doc AS (
  SELECT source, n_tok,
         (SELECT coalesce(sum(CAST(u.tok AS BIGINT) * u.pos), 0) % 2147483647
          FROM (SELECT unnest(tokens) AS tok,
                       generate_subscripts(tokens, 1) AS pos) u) AS ck
  FROM {SEQ_SQL}
)
SELECT source,
       CAST(count(*) AS BIGINT) AS cnt,
       CAST(sum(n_tok) AS BIGINT) AS sum_n_tok,
       CAST(sum(ck) AS BIGINT) AS checksum
FROM per_doc GROUP BY source
"""


@entry("seq_fixity_manifest", sql=SQL_SEQ_FIXITY_MANIFEST)
def q_seq_fixity_manifest(sf_dir: str) -> pa.Table:
    """Per-shard fixity manifest — the ingest-integrity record a
    resumable 100 TB run keeps per input shard: row count, token
    totals, and a position-weighted content checksum (Σ tokenᵢ·(i+1)
    mod 2³¹−1 per doc, summed per shard) that changes under any token
    edit, drop, or reorder (seqops.add_fixity_checksum — one reduceat
    pass over the flat buffer; then the grouped_agg combiner)."""
    from jesse_ray.functions.seqops import add_fixity_checksum

    ds = read_sequences(_seq_path(sf_dir), columns=["source", "n_tok", "tokens"])
    ck = add_fixity_checksum(ds)
    t = _collect(grouped_agg(ck, ["source"], sums=["n_tok", "ck"]))
    return pa.table({
        "source": t["source"],
        "cnt": t["cnt"].cast(pa.int64()),
        "sum_n_tok": t["sum_n_tok"].cast(pa.int64()),
        "checksum": t["sum_ck"].cast(pa.int64()),
    })


SQL_EMB_HARD_NEGATIVES = """
WITH a AS (SELECT vec_id AS anchor_id, label AS alabel, embedding AS avec
           FROM embeddings WHERE vec_id < 16),
ranked AS (
  SELECT a.anchor_id,
         CAST(row_number() OVER (
             PARTITION BY a.anchor_id
             ORDER BY list_cosine_similarity(a.avec, e.embedding) DESC, e.vec_id
         ) AS BIGINT) AS rank,
         e.vec_id
  FROM a JOIN embeddings e
    ON e.label <> a.alabel AND e.vec_id <> a.anchor_id
)
SELECT anchor_id, rank, vec_id FROM ranked WHERE rank <= 5
ORDER BY anchor_id, rank
"""


@entry("emb_hard_negatives", sql=SQL_EMB_HARD_NEGATIVES)
def q_emb_hard_negatives(sf_dir: str) -> pa.Table:
    """Hard-negative mining for the first 16 vectors: top-5 most
    cosine-similar vectors with a DIFFERENT label per anchor
    (similarity.hard_negatives — anchors broadcast once, corpus
    streamed, per-batch |A|×|B| matmul + label mask + partial top-k;
    rank-only output so the twin hashes exactly)."""
    from jesse_ray.functions.similarity import hard_negatives

    ds = read_table(f"{sf_dir}/embeddings.parquet",
                    columns=["vec_id", "embedding", "label"])
    return hard_negatives(ds, list(range(16)), k=5, batch_size=2048)

