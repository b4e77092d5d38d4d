"""The Ray Data validation engine.

Pipeline shape (SURVEY §3.4): the planned parquet read → ONE fused pass
(zero-copy Arrow) running every row-level keyword check plus the
referential broadcast-dimension checks (one ``ray.put`` state object
resolved lazily in each task) and emitting each task's row count, exact
key counts and (when asked) drift sketch → corpus-level key uniqueness
(the same exact counts summed on the driver under a byte cap, per key
bucket in tasks above it — ``hashutil.map_key_buckets``, ``key_parts``
of the key) → violation blocks + per-run metrics.  A validation reads
the corpus once, at every size: above the cap the bucket sum takes the
partials the pass already made, never the keys again.  ``validate`` runs
the fused pass as plain Ray tasks, one per read task the parquet source
planned, so a planned read starts no Ray Data execution (above the
uniqueness cap, one: the bucket sum); an input already in the object
store (``from_arrow``) goes to the same tasks block by block.  Any
other input runs the pass as a Ray Data ``map_batches`` fused into its
read, one execution, its blocks in input order.  Every route makes one
result, ``_check_tables``: the violation rows, a ``(rows, tally, sketch,
partial sizes)`` side and one ``(key, partial_cnt)`` table per unique
key.  A plain task returns them as separate objects; the Ray Data map
returns them pickled in one row per batch, and the driver puts the
violation rows and the partials back, so the drain sees one shape.
``fused_violations`` is the violation rows alone as a ``map_batches``.
``uniqueness_check`` is a key-only validation.

This replaces the reference's per-document recursive walk
(reference: src/jesse_schema_validator.erl:82-98) with a streaming,
block-parallel execution; the reference's single-threaded design has
nothing to parallelize (SURVEY §4.1), so the distribution strategy here
is original: hash-shuffles only where semantics demand (uniqueness
above a driver byte cap),
broadcast instead of shuffle for small dimensions, partial aggregation
before every groupby.
"""

from __future__ import annotations

import json
import pickle
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data import Dataset
from ray.data.aggregate import Max, Min, Sum
from ray.data.dataset import MaterializedDataset
from ray.data.datasource import ReadTask

from jesse_ray import errors as E
from jesse_ray.compiler import (
    VIOLATION_SCHEMA,
    CompiledSpec,
    compile_spec,
    empty_violations,
    _combine,
    _doc_ids,
    _json_text,
    _np_mask,
    _patched,
    _quoted,
    _repeat,
    _violations_table,
)
from jesse_ray.hashutil import map_key_buckets
from jesse_ray.sketches import SketchBundle
from jesse_ray.sources.parquet import cluster_cpus, planned_read_tasks
from jesse_ray.spec import ReferentialRule, TableSpec


# ---------------------------------------------------------------------------
# row-level checks (stateless map_batches)


def row_violations(
    ds: Dataset,
    compiled: CompiledSpec,
    *,
    batch_size: Optional[int] = None,
    allowed_errors: Optional[int] = None,
    error_handler=None,
) -> Dataset:
    """All per-row keyword checks as one stateless vectorized stage.

    One pass emits violations for every compiled check (the reference
    walks keywords sequentially per document,
    src/jesse_validator_draft4.erl:84-260; we walk documents in bulk per
    keyword).  ``batch_size=None`` (whole blocks) is the default: an
    explicit batch size forces Ray Data to re-slice blocks into exact
    batches, which BLOCKS ReadParquet→map operator fusion and
    round-trips the full decoded corpus through the object store
    (measured: 2.2× wall at num_cpus=4 on a 6M-row corpus).

    ``allowed_errors``: per-row error budget (None ≡ 'infinity';
    0 ≡ jesse's stop-at-first default — see CompiledSpec.check_batch).
    """

    def check(batch: pa.Table) -> pa.Table:
        return compiled.check_batch(
            batch, allowed_errors=allowed_errors, error_handler=error_handler
        )

    return ds.map_batches(
        check, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )


def filter_valid(
    ds: Dataset,
    compiled: CompiledSpec,
    *,
    batch_size: Optional[int] = None,
    include_referential: bool = False,
) -> Dataset:
    """Keep only rows with zero row-level violations — the vectorized
    analogue of jesse's pass verdict under ``allowed_errors=0``
    (src/jesse_error.erl:71-78).  ``include_referential=True`` also
    drops rows failing the spec's broadcast-dimension membership rules
    (jesse's verdict covers every check; the flag is opt-in because the
    plain row filter needs no dimension load)."""
    rules = _referential_rules(compiled.spec) if include_referential else []
    # only the tiny state ref rides the serialized callable; the validator
    # fetches the spec and the dimension values once per worker
    fv = FusedValidator(_broadcast(compiled, rules), compiled.spec.key_column)

    def keep(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(~fv.invalid_row_mask(batch)))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


MIGRATION_STATUSES = ["broke_in_new", "clean_both", "dirty_both", "fixed_in_new"]


def migration_report(
    ds: Dataset,
    old_compiled: CompiledSpec,
    new_compiled: CompiledSpec,
    *,
    batch_size: Optional[int] = None,
) -> "pa.Table":
    """Schema-migration impact audit (engine extension — jesse validates
    one schema at a time; evolving a production spec needs the DELTA):
    classify every row against BOTH compiled specs in ONE pass over the
    corpus and return the 4-way contingency table

        clean_both | broke_in_new | fixed_in_new | dirty_both

    Scale shape: each batch reduces to ≤4 partial-count rows (map-side
    combiner), so the "shuffle" moves a handful of ints per block —
    the corpus is read once and never rematerialized."""

    def classify(batch: pa.Table) -> pa.Table:
        bad_old = old_compiled.invalid_row_mask(batch)
        bad_new = new_compiled.invalid_row_mask(batch)
        counts = [
            int((~bad_old & bad_new).sum()),   # broke_in_new
            int((~bad_old & ~bad_new).sum()),  # clean_both
            int((bad_old & bad_new).sum()),    # dirty_both
            int((bad_old & ~bad_new).sum()),   # fixed_in_new
        ]
        return pa.table(
            {
                "status": pa.array(MIGRATION_STATUSES, type=pa.string()),
                "partial_n": pa.array(counts, type=pa.int64()),
            }
        )

    parts = ds.map_batches(
        classify, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )
    merged: dict[str, int] = {s: 0 for s in MIGRATION_STATUSES}
    for b in parts.iter_batches(batch_format="pyarrow"):
        for s, n in zip(b["status"].to_pylist(), b["partial_n"].to_pylist()):
            merged[s] += n
    return pa.table(
        {
            "status": pa.array(MIGRATION_STATUSES, type=pa.string()),
            "n": pa.array([merged[s] for s in MIGRATION_STATUSES], type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# corpus-level uniqueness: one exact algorithm at both scales.  Every route
# sums the same exact ``(key, partial_cnt)`` partials (a map-side
# combiner that collapses hot keys before anything moves, SURVEY §7.3) with
# ``_sum_key_counts`` and keeps ``cnt > 1``; only where the sum runs
# differs, chosen once per key by ``_uniqueness_report``: on the driver when
# the partials total at most ``UNIQ_DRIVER_CAP_BYTES``, per key bucket inside
# a task above it (``_bucket_dups``).


def _batch_key_counts(batch: pa.Table, key: str) -> pa.Table:
    """Exact ``(key, partial_cnt)`` rows of one batch, one per distinct
    non-null key — the map-side combiner of every uniqueness route and
    of the fused pass."""
    # NULL keys are excluded: absence is missing_required_property
    # territory, not uniqueness (presence semantics, SURVEY §2.3)
    t = batch.select([key]).filter(pc.is_valid(batch[key]))
    g = t.group_by(key).aggregate([([], "count_all")])
    return g.rename_columns([key, "partial_cnt"])


def _sum_key_counts(parts: list[pa.Table], key: str) -> pa.Table:
    t = parts[0] if len(parts) == 1 else pa.concat_tables(parts)
    g = t.group_by(key).aggregate([("partial_cnt", "sum")])
    return g.rename_columns([key, "partial_cnt"])


def _only_dups(counts: pa.Table, key: str) -> pa.Table:
    """Summed ``(key, partial_cnt)`` rows → ``(key, cnt)`` rows with
    ``cnt > 1``."""
    g = counts.rename_columns([key, "cnt"])
    return g.filter(pc.greater(g["cnt"], 1))


def _bucket_dups(partials: Dataset, key: str) -> Dataset:
    """Per key bucket (``hashutil.map_key_buckets``: ``key_parts`` of the
    key masked to 64 buckets), the sum of ``partials``' ``(key,
    partial_cnt)`` rows, kept where ``cnt > 1``, inside a task."""

    def merge(group: pa.Table) -> pa.Table:
        return _only_dups(_sum_key_counts([group], key), key)

    return map_key_buckets(partials, [key], merge, batch_format="pyarrow")


def duplicate_keys(ds: Dataset, key: str) -> Dataset:
    """Distinct non-null ``key`` values occurring more than once in
    ``ds``, as unordered ``(key, cnt)`` rows.

    Each batch's exact ``(key, partial_cnt)`` partials are summed per key
    bucket (``_bucket_dups``).  The key itself travels with its partial
    row, so the count is exact with no confirm pass and no second read,
    and only the duplicate set leaves the tasks.
    """
    partials = ds.map_batches(_batch_key_counts, fn_args=(key,), batch_format="pyarrow", zero_copy_batch=True)
    return _bucket_dups(partials, key)


#: byte cap on the key partials summed on the driver; past it a key's
#: partials are summed per key bucket in tasks (``_bucket_dups``)
UNIQ_DRIVER_CAP_BYTES = 64 << 20


def uniqueness_violations(ds: Dataset, key: str) -> pa.Table:
    """Corpus-level `not_unique` violations — one row per duplicated
    key, sorted by key.

    Corpus analogue of ``uniqueItems`` (src/jesse_validator_draft4.erl:831-873)
    lifted from within-array to across-table; see ``uniqueness_check``.
    Only the duplicate set is materialized as a table, never the corpus.
    """
    return uniqueness_check(ds, [key])[0]


def uniqueness_check(ds: Dataset, keys: list[str]) -> tuple[pa.Table, dict[str, Any]]:
    """``not_unique`` violations for every key in ``keys``, each key's
    rows sorted by key, plus the route report
    ``uniqueness.{route, partial_rows, partial_bytes, dup_keys}``.

    A key-only validation: the fused pass reads ``ds`` once for all keys
    and its drain sums the partials (see ``ValidationResult``)."""
    res = validate_dataset(ds, TableSpec(unique_keys=list(keys))).materialize()
    return res.unique_violations, {k: v for k, v in res.metrics.items() if k.startswith("uniqueness.")}


def _uniqueness_report(partials: dict[str, list[tuple[int, int, ray.ObjectRef]]]) -> tuple[pa.Table, dict[str, Any]]:
    """Violations and route report from each key's ``(rows, nbytes, ref)``
    partials, the route chosen once per key.  One partial, or partials
    totalling at most ``UNIQ_DRIVER_CAP_BYTES``, are fetched and summed
    on the driver (a single partial, its keys distinct, is its own sum);
    more are summed per key bucket in tasks (``_bucket_dups``, one Ray
    Data execution) and only the duplicates reach the driver.  The counts
    are summed over keys; the route is ``shuffle`` if any key took the
    bucket sum, else ``driver_merge``."""
    parts = []
    metrics: dict[str, Any] = {
        "uniqueness.route": "driver_merge",
        "uniqueness.partial_rows": 0,
        "uniqueness.partial_bytes": 0,
        "uniqueness.dup_keys": 0,
    }
    for key, got in partials.items():
        if not got:
            continue
        rows, nbytes, refs = zip(*got)
        metrics["uniqueness.partial_rows"] += sum(rows)
        metrics["uniqueness.partial_bytes"] += sum(nbytes)
        if len(refs) == 1 or sum(nbytes) <= UNIQ_DRIVER_CAP_BYTES:
            tables = ray.get(list(refs))
            dups = [_only_dups(tables[0] if len(tables) == 1 else _sum_key_counts(tables, key), key)]
        else:
            metrics["uniqueness.route"] = "shuffle"
            summed = _bucket_dups(ray.data.from_arrow_refs(list(refs)), key)
            dups = list(summed.iter_batches(batch_format="pyarrow", batch_size=None))
        tbl = pa.concat_tables(dups).sort_by(key) if dups else None
        if tbl is not None and tbl.num_rows:
            metrics["uniqueness.dup_keys"] += tbl.num_rows
            parts.append(_not_unique_rows(tbl, key))
    if not parts:
        return empty_violations(), metrics
    return (parts[0] if len(parts) == 1 else pa.concat_tables(parts)), metrics


def _ascii_json(arr: pa.Array) -> pa.Array:
    """``json.dumps(v)`` of every value, with json's default
    ``ensure_ascii`` (``é`` renders as ``\\u00e9`` and DEL as ``\\u007f``).
    Integers are cast and strings of printable ASCII other than ``"`` and
    ``\\`` are quoted by Arrow kernels; only the other values are dumped
    one at a time."""
    t = arr.type
    if pa.types.is_integer(t):
        return pc.cast(arr, pa.string())
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        esc = np.flatnonzero(_np_mask(pc.match_substring_regex(arr, r'[^ -~]|["\\]'), len(arr)))
        return _patched(_quoted(arr), esc, lambda i: json.dumps(arr[i].as_py()))
    return pa.array([json.dumps(v) for v in arr.to_pylist()], type=pa.string())


def _not_unique_rows(tbl: pa.Table, key: str) -> pa.Table:
    """One ``not_unique`` violation per ``(key, cnt)`` row of ``tbl``:
    ``doc_id`` is ``str(key)`` and ``value_json`` is
    ``json.dumps({"value": key, "count": cnt})`` in compact form, joined
    column-wise from the key's :func:`_ascii_json` text and the count."""
    n = tbl.num_rows
    keys, cnts = _combine(tbl[key]), _combine(tbl["cnt"])
    doc = _doc_ids(keys, np.arange(n))
    value = pc.binary_join_element_wise(
        '{"value":', _ascii_json(keys), ',"count":', pc.cast(cnts, pa.string()), "}", ""
    )
    frag = '{"uniqueKeys":[' + _ascii_json(pa.array([key]))[0].as_py() + "]}"
    return _violations_table(
        [doc], [_repeat([key], n)], [_repeat(E.NOT_UNIQUE, n)],
        [value], [_repeat(frag, n)],
    )


# ---------------------------------------------------------------------------
# referential checks (broadcast dimension membership)


def _load_allowed_values(rule: ReferentialRule) -> frozenset:
    if rule.values is not None:
        return frozenset(rule.values)
    if rule.dim_path is None:
        raise E.SchemaInvalidError(E.SCHEMA_INVALID, f"referential rule for {rule.column} has no source")
    import pyarrow.parquet as pq

    cols = [rule.dim_column] + ([rule.dim_filter_column] if rule.dim_filter_column else [])
    dim = pq.read_table(rule.dim_path, columns=cols)
    if rule.dim_filter_column:
        dim = dim.filter(pc.equal(dim[rule.dim_filter_column], True))
    return frozenset(dim[rule.dim_column].to_pylist())


def _referential_rules(spec: TableSpec) -> list:
    """``(column, allowed values, error atom)`` per referential rule —
    the broadcast state of every membership check."""
    return [(r.column, _load_allowed_values(r), r.error_atom) for r in spec.referential]


def _sorted_values(values) -> list:
    """Allowed values in sorted order; a set whose members do not
    compare with each other (``[1, "a"]``) sorts as its string forms."""
    try:
        return sorted(values)
    except TypeError:
        return sorted(str(v) for v in values)


def _rule_value_set(values) -> pa.Array:
    """Compile an allowed-values set into the Arrow value_set of its
    ``ReferentialChecker`` rule.
    Type is INFERRED so integer dimension keys stay integers; mixed or
    unhashable sets fall back to their string forms."""
    try:
        return pa.array(_sorted_values(values))
    except (pa.ArrowInvalid, pa.ArrowTypeError, TypeError):
        return pa.array(sorted(str(v) for v in values), type=pa.string())


class ReferentialChecker:
    """Per-batch membership of columns against allowed-values dimensions
    (semi/anti-join semantics; anti-join rows become violations).
    ``rules`` is ``_referential_rules``'s list; ``FusedValidator``
    fetches it from the object store once per worker and runs this
    checker on every batch (``bad_rows`` for ``filter_valid``, the
    violation rows otherwise).  This is the reference's ``enum``
    (src/jesse_validator_draft4.erl:960-970) against an external
    dimension, per the north star.
    """

    def __init__(self, rules, key_column: str):
        self.key_column = key_column
        # (column, pa.Array value_set, error_atom, fragment_json)
        self.compiled_rules = []
        for column, values, error_atom in rules:
            vs = _rule_value_set(values)
            frag = json.dumps({"enum": _sorted_values(values)}, separators=(",", ":"), default=str)
            self.compiled_rules.append((column, vs, error_atom, frag))

    def _bad_masks(self, batch: pa.Table) -> Iterator[tuple[str, str, str, np.ndarray]]:
        """``(column, error_atom, fragment, bad-row mask)`` per rule whose
        column is in the batch; the mask is True where a PRESENT value is
        outside the dimension (anti-join semantics)."""
        for column, value_set, error_atom, frag in self.compiled_rules:
            if column in batch.column_names:
                arr = _combine(batch[column])
                present = _np_mask(pc.is_valid(arr), len(arr))
                ok = _np_mask(pc.is_in(arr, value_set=value_set), len(arr))
                yield column, error_atom, frag, present & ~ok

    def bad_rows(self, batch: pa.Table) -> np.ndarray:
        """True where a row fails any rule (``filter_valid``'s mask)."""
        out = np.zeros(batch.num_rows, dtype=bool)
        for *_, bad in self._bad_masks(batch):
            out |= bad
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        """The batch's membership violations, rendered column by column
        as ``CompiledSpec.check_batch`` renders its rows: ``doc_id`` from
        the key column, ``value_json`` from ``_json_text`` and the
        constant path, error and fragment from one-element arrays."""
        cols = ([], [], [], [], [])  # doc_id, path, error, value_json, schema_fragment chunks
        key_arr = _combine(batch[self.key_column]) if self.key_column in batch.column_names else None
        for column, error_atom, frag, bad in self._bad_masks(batch):
            idx = np.flatnonzero(bad)
            if len(idx) == 0:
                continue
            n = len(idx)
            cols[0].append(_doc_ids(key_arr, idx))
            cols[1].append(_repeat([column], n))
            cols[2].append(_repeat(error_atom, n))
            cols[3].append(_json_text(_combine(batch[column]).take(pa.array(idx, type=pa.int64()))))
            cols[4].append(_repeat(frag, n))
        return _violations_table(*cols) if cols[0] else empty_violations()


class FusedValidator:
    """Task-mode stage fusing ALL row-level keyword checks with the
    referential (broadcast-dimension) checks in ONE pass over the data.

    At corpus scale the input read dominates: running row checks and
    referential checks as separate branches would read every block
    twice and union two heavy streams.  This stage reads once.  State
    (the compiled spec + the broadcast allowed-value sets, one
    ``(compiled, rules)`` object) is fetched from the object store once
    per task on its first batch — never re-shipped per batch (SURVEY
    §7.2).

    ``violations`` checks one table.  ``_check_tables`` runs it over a
    task's tables and adds what the driver would otherwise need further
    passes for: the row count, per ``unique_keys`` entry the exact
    ``(key, partial_cnt)`` table (the map side of the corpus uniqueness
    check, so the key columns are not read a second time), and with
    ``sketch`` the drift ``SketchBundle`` (none is built otherwise).
    """

    def __init__(self, state_ref, key_column: Optional[str], allowed_errors=None,
                 error_handler=None, unique_keys: tuple[str, ...] = (), sketch: bool = False):
        self._state_ref = state_ref
        self._key_column = key_column
        self.allowed_errors = allowed_errors
        self.error_handler = error_handler
        self.unique_keys = tuple(dict.fromkeys(unique_keys))
        self.sketch = sketch
        self._resolved = False
        self.compiled: Optional[CompiledSpec] = None
        self._ref: Optional[ReferentialChecker] = None

    def _resolve(self) -> None:
        # Lazy broadcast fetch: the ObjectRef rides the (tiny) serialized
        # validator; the actual state is fetched from the local plasma
        # store once per task, on its first batch.
        state = self._state_ref
        self.compiled, rules = ray.get(state) if isinstance(state, ray.ObjectRef) else state
        self._ref = ReferentialChecker(rules, self._key_column) if rules else None
        self._resolved = True

    def invalid_row_mask(self, batch: pa.Table) -> np.ndarray:
        """True where a row fails a row-level or a referential check."""
        if not self._resolved:
            self._resolve()
        bad = self.compiled.invalid_row_mask(batch)
        return bad | self._ref.bad_rows(batch) if self._ref is not None else bad

    def violations(self, batch: pa.Table) -> pa.Table:
        """The row-level then the referential violation rows of
        ``batch``; ``error_handler`` sees the row-level ones."""
        if not self._resolved:
            self._resolve()
        row = self.compiled.check_batch(
            batch, allowed_errors=self.allowed_errors, error_handler=self.error_handler
        )
        ref = self._ref(batch) if self._ref is not None else None
        if ref is not None and ref.num_rows:
            row = pa.concat_tables([row, ref]) if row.num_rows else ref
        return row


def _tally(viol: pa.Table) -> dict[str, int]:
    """``{error: count}`` of VIOLATION_SCHEMA rows."""
    if not viol.num_rows:
        return {}
    g = viol.group_by("error").aggregate([([], "count_all")])
    return dict(zip(g["error"].to_pylist(), g["count_all"].to_pylist()))


def _merge_sketch(acc: Optional[SketchBundle], b: SketchBundle) -> SketchBundle:
    return b if acc is None else acc.merge(b)


def _check_tables(fv: FusedValidator, tables) -> tuple:
    """The fused pass over ``tables``, the one result of every route:
    ``fv.violations`` over each table as it comes, empty tables skipped
    (one empty table is checked if none has rows).

    Returns the concatenated violation rows, one chunk per column, the
    side ``(rows, tally, sketch, sizes)`` — the input row count, the
    violation rows' ``_tally``, the merged drift ``SketchBundle`` (with
    ``fv.sketch``, else None) and per key in ``fv.unique_keys`` its
    partial's ``(rows, nbytes)`` — and per key one ``_batch_key_counts``
    table over all the rows (None when no table has the column)."""
    viols, cols, rows, sketch = [], {k: [] for k in fv.unique_keys}, 0, None

    def check(t: pa.Table) -> None:
        nonlocal rows, sketch
        viols.append(fv.violations(t).cast(VIOLATION_SCHEMA))
        rows += t.num_rows
        for k, got in cols.items():
            if k in t.column_names:
                got.append(t.select([k]))
        if fv.sketch:
            from jesse_ray.stages.drift import batch_sketch

            sketch = _merge_sketch(sketch, batch_sketch(t))

    for t in tables:
        if t.num_rows:
            check(t)
    if not viols:
        check(pa.table({}))
    # one chunk per column: each chunk costs the object store's reducer a call
    viol = (viols[0] if len(viols) == 1 else pa.concat_tables(viols)).combine_chunks()
    parts = [_batch_key_counts(pa.concat_tables(got), k) if got else None for k, got in cols.items()]
    side = (rows, _tally(viol), sketch, [(0, 0) if p is None else (p.num_rows, p.nbytes) for p in parts])
    return (viol, side, *parts)


@ray.remote
def _validate_block(fv: FusedValidator, read_task: Optional[ReadTask], *blocks: pa.Table):
    """``_check_tables`` as a plain task, started with ``num_returns=2 +
    len(fv.unique_keys)``, over each file piece of a planned ``read_task``
    as it is read (the tables a Ray Data read fused with ``map_batches``
    hands the map, so an ``error_handler`` sees the same calls), or over
    each input block."""
    return _check_tables(fv, read_task() if read_task is not None else blocks)


def _pickled_result(batch: pa.Table, fv: FusedValidator) -> pa.Table:
    """The Ray Data route's map: ``_check_tables`` of one batch, pickled
    into a one-row block (its tables have different schemas)."""
    blob = pickle.dumps(_check_tables(fv, [batch]), protocol=pickle.HIGHEST_PROTOCOL)
    return pa.table({"result": pa.array([blob], type=pa.large_binary())})


def _fused_blocks(
    ds: Dataset, fv: FusedValidator
) -> Iterator[tuple[ray.ObjectRef, tuple, list]]:
    """Run the fused pass over ``ds`` and yield, per block in order, the
    ref to its violation rows, its side ``(rows, tally, sketch, sizes)``
    and per key in ``fv.unique_keys`` the ref to its ``(key,
    partial_cnt)`` table (see ``_check_tables``).

    Three routes, by input:

    * a Dataset ``read_sequences`` / ``read_table`` returned unchanged:
      one ``_validate_block`` task per planned read task, so no Ray Data
      execution starts and blocks follow the read plan;
    * a ``MaterializedDataset`` (``from_arrow``, ``.materialize()``): its
      blocks are in the object store already, one task per bundle;
    * any other Dataset (``read_json``, ``.limit``, ``.select_columns``):
      ``_check_tables`` runs per batch inside its Ray Data execution,
      fused into the read (``_pickled_result``), so only the small
      results reach the object store; the driver unpickles each and puts
      its violation rows and key partials back.  The execution preserves
      order, so blocks follow the input.

    At most two tasks per cluster CPU are in flight; sides are fetched in
    task order whatever order the tasks finish in."""
    read_tasks = planned_read_tasks(ds)
    if read_tasks is None and not isinstance(ds, MaterializedDataset):
        mapped = ds.map_batches(_pickled_result, fn_args=(fv,), batch_format="pyarrow", zero_copy_batch=True)
        # the map shares its context with ``ds``: set the flag for this
        # one execution and put it back after
        opts = mapped.context.execution_options
        preserve, opts.preserve_order = opts.preserve_order, True
        try:
            for b in mapped.iter_internal_ref_bundles():
                for ref in b.block_refs:
                    t = ray.get(ref)
                    # one row per batch; Ray Data passes empty blocks on without a schema
                    for blob in t["result"] if t.num_rows else ():
                        viol, side, *parts = pickle.loads(blob.as_buffer())
                        refs = [ray.put(p) if n else None for (n, _), p in zip(side[3], parts)]
                        yield ray.put(viol), side, refs
        finally:
            opts.preserve_order = preserve
        return
    if read_tasks is not None:
        args = ((t,) for t in read_tasks)
    else:
        args = ((None, *b.block_refs) for b in ds.iter_internal_ref_bundles())
    task = _validate_block.options(num_returns=2 + len(fv.unique_keys))

    def done(refs):
        viol, side, *parts = refs
        return viol, ray.get(side), parts

    window = 2 * cluster_cpus()
    running: deque = deque()
    for a in args:
        running.append(task.remote(fv, *a))
        if len(running) == window:
            yield done(running.popleft())
    for refs in running:
        yield done(refs)


@ray.remote
def _write_block(viol: pa.Table, path: str) -> tuple[int, int]:
    """Write one block's violation rows to the parquet file ``path`` — a
    plain task, like ``_validate_block``; returns (rows, bytes) written."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(os.path.dirname(path), exist_ok=True)
    pq.write_table(viol, path)
    return viol.num_rows, os.path.getsize(path)


def _broadcast(compiled: CompiledSpec, rules: list):
    """The validator state ``(compiled, rules)`` as ONE object: ``ray.put``
    when Ray is up (the ref, not the value, rides each serialized
    validator), the tuple itself otherwise."""
    return ray.put((compiled, rules)) if ray.is_initialized() else (compiled, rules)


def _fused_validator(compiled: CompiledSpec, *args) -> FusedValidator:
    """A FusedValidator for ``compiled`` and its spec's referential rules,
    broadcast as one object (``_broadcast``) that each task resolves on
    its first batch."""
    spec = compiled.spec
    return FusedValidator(_broadcast(compiled, _referential_rules(spec)), spec.key_column, *args)


def fused_violations(
    ds: Dataset,
    compiled: CompiledSpec,
    *,
    batch_size: Optional[int] = None,
    allowed_errors: Optional[int] = None,
    error_handler=None,
) -> Dataset:
    """Single-pass row + referential violations (see FusedValidator) as a
    lazy Ray Data ``map_batches`` of ``FusedValidator.violations``: the
    violation rows alone, no key partials, row count or sketch.
    ``validate`` runs the same validator through ``_check_tables``
    (``_fused_blocks``).

    The pass runs in TASK mode: the validator state (compiled spec +
    broadcast allowed-value sets) is ``ray.put`` once as one object, the
    tiny ObjectRef rides the serialized closure, and each worker fetches
    + caches the state on its first batch (Ray's per-worker function
    cache) — broadcast-once semantics without per-run actor-pool
    startup.  Measured at sf0.1 / 32 CPUs, task mode is both faster and
    far more stable (8.3/5.7/6.9 s across reps) than a fresh 16-actor
    pool per run (43.9/20.2/5.4 s): a short job pays actor startup every
    run, and on a long-lived cluster tasks reuse warm workers just the
    same.
    """
    fv = _fused_validator(compiled, allowed_errors, error_handler)
    return ds.map_batches(fv.violations, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)


# ---------------------------------------------------------------------------
# column stats (partial per batch → small groupby merge)


def column_stats(
    ds: Dataset,
    value_column: str,
    group_column: Optional[str] = None,
    *,
    batch_size: Optional[int] = None,
) -> pa.Table:
    """count / nulls / min / max / mean (and sum) of ``value_column``,
    optionally per ``group_column``.

    Partial aggregation inside ``map_batches`` (one row per group per
    batch) before the groupby — the shuffle moves O(groups × batches)
    rows, not the corpus.  Mirrors the reference's KVC collection
    operators @count/@min/@max/@avg/@sum (src/jesse_json_path.erl:173-209)
    lifted to distributed execution.
    """

    def partial(batch: pa.Table) -> pa.Table:
        # Arrow-native map-side combiner: one group_by per batch, no
        # Python per-group loop (same pattern as relational.grouped_agg)
        v = _combine(batch[value_column]).cast(pa.float64())
        if group_column is None:
            grp = pa.array([""] * batch.num_rows, type=pa.string())
        else:
            grp = pc.fill_null(pc.cast(_combine(batch[group_column]), pa.string()), "")
        nulls = pc.cast(pc.is_null(v), pa.int64())
        t = pa.table({"group": grp, "v": v, "nulls": nulls})
        g = t.group_by("group").aggregate(
            [("v", "count"), ("nulls", "sum"), ("v", "min"), ("v", "max"), ("v", "sum")]
        )
        out = pa.table(
            {
                "group": g["group"],
                "p_cnt": pc.add(g["v_count"].cast(pa.int64()), g["nulls_sum"].cast(pa.int64())),
                "p_null": g["nulls_sum"].cast(pa.int64()),
                "p_min": pc.fill_null(g["v_min"], float("inf")),
                "p_max": pc.fill_null(g["v_max"], float("-inf")),
                "p_sum": pc.fill_null(g["v_sum"], 0.0),
            }
        )
        return out

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size)
    merged = partials.groupby("group").aggregate(
        Sum("p_cnt", alias_name="cnt"),
        Sum("p_null", alias_name="n_null"),
        Min("p_min", alias_name="vmin"),
        Max("p_max", alias_name="vmax"),
        Sum("p_sum", alias_name="vsum"),
    )
    tbl = pa.concat_tables(list(merged.iter_batches(batch_format="pyarrow")))
    nn = pc.subtract(tbl["cnt"], tbl["n_null"])
    mean = pc.divide(tbl["vsum"], pc.cast(pc.max_element_wise(nn, pa.scalar(1)), pa.float64()))
    return tbl.append_column("vmean", mean)


# ---------------------------------------------------------------------------
# top-level orchestration


@dataclass
class ValidationResult:
    """Violations + metrics for one validation run.

    Everything comes from the one fused pass (see FusedValidator), which
    runs once, at the first entry point (``_fused_blocks``): one plain
    Ray task per read task ``read_sequences`` / ``read_table`` planned or
    per bundle of a materialized input, or a Ray Data ``map_batches``
    for any other input.  Each block of the pass is one
    ``_check_tables`` result: its violation rows and key partials, which
    stay in the object store, and a side ``(rows, {error: count},
    sketch, partial sizes)``, which the driver drains in task order
    whatever order the tasks finish in: the read plan's order for a
    planned read, Ray Data's bundle order otherwise.  A plain task
    returns the result as separate objects, with one key partial per key
    for the whole task; the Ray Data route's map returns it pickled, one
    per batch, and the driver puts its violation rows and partials back.
    A planned read so
    starts no Ray Data execution at all, a materialized input at most
    one that only lists its blocks, and any other input the one that
    runs the pass.

    The drain folds the tallies into ``counts_by_error`` (and each
    block's sum into its row count), the row counts into
    ``metrics["rows"]``, each key's partial refs with their sizes into
    one list, and with ``validate(sketch=True)`` the bundles into
    ``sketch``; it fetches no partial while tasks run.  At its end
    ``_uniqueness_report`` sums each key's partials, on the driver up to
    ``UNIQ_DRIVER_CAP_BYTES``, per key bucket in tasks past it, so no key
    is read twice (the route report, ``uniqueness_check``'s keys, goes
    into ``metrics``).  ``counts_by_error`` / ``passed`` need only
    that drain; ``all_violations_table`` fetches the pinned blocks;
    ``write_violations`` writes them with one plain task each;
    ``violations`` is a Dataset over them, exactly VIOLATION_SCHEMA rows.
    """

    spec_version: str
    metrics: dict[str, Any] = field(default_factory=dict)
    #: the drained drift sketch (``validate(sketch=True)``), else None
    sketch: Optional[SketchBundle] = None
    _cached: Optional[pa.Table] = None
    _uniq: Optional[pa.Table] = None
    _counts: Optional[dict[str, int]] = None
    #: the input and the validator of the fused pass, until it has run
    _ds: Optional[Dataset] = None
    _validator: Optional[FusedValidator] = None
    _unique_keys: tuple[str, ...] = ()
    #: per block, in task order: the ref to its violation rows and their
    #: count (the block's tally summed)
    _blocks: Optional[list] = None
    _block_rows: Optional[list[int]] = None
    _violations: Optional[Dataset] = None

    def _drain(self, sides) -> None:
        """Fold the sides and partial refs ``_fused_blocks`` yields, in
        block order, and resolve the uniqueness result."""
        partials: dict[str, list] = {k: [] for k in self._unique_keys}
        counts: dict[str, int] = {}
        rows = 0
        self._block_rows = []
        for (block_rows, tally, sketch, sizes), refs in sides:
            self._block_rows.append(sum(tally.values()))
            rows += block_rows
            for key, (n, nbytes), ref in zip(self._unique_keys, sizes, refs):
                if n:
                    partials[key].append((n, nbytes, ref))
            if sketch is not None:
                self.sketch = _merge_sketch(self.sketch, sketch)
            for e, c in tally.items():
                counts[e] = counts.get(e, 0) + c
        self._counts = counts
        self.metrics["rows"] = rows
        self._uniq, uniq_metrics = _uniqueness_report(partials)
        self.metrics.update(uniq_metrics)

    @property
    def unique_violations(self) -> pa.Table:
        if self._uniq is None:
            self.materialize()
        return self._uniq

    @property
    def violations(self) -> Dataset:
        """The violation rows of the fused pass (not the uniqueness rows)
        as a Dataset over the pinned blocks, one block per task."""
        if self._violations is None:
            self.materialize()
            self._violations = ray.data.from_arrow_refs(self._blocks or [ray.put(empty_violations())])
        return self._violations

    def materialize(self) -> "ValidationResult":
        """Run the fused pass ONCE and pin the (small) violation blocks in
        the object store — NOT on the driver, except for the moment the
        driver splits a block of the Ray Data route — so that subsequent
        writes/aggregations don't re-run the full validation.  The corpus
        itself is never materialized; only violations are, and violations
        are rare by assumption."""
        if self._ds is not None:
            blocks = []

            def sides():
                for viol, side, refs in _fused_blocks(self._ds, self._validator):
                    blocks.append(viol)
                    yield side, refs

            self._drain(sides())
            self._blocks, self._ds, self._validator = blocks, None, None
        return self

    def write_violations(self, out_dir: str) -> None:
        """Write the violation rows to a directory of parquet part files
        (never one giant file; never via the driver) — the scale-correct
        sink.  Each block with violation rows is written by one plain
        task to ``part-{block index:05d}.parquet``; a block without
        any gets no file.  No Ray Data execution starts, and only the
        tasks' ``(rows, bytes)`` reach the driver, into
        ``metrics["sink.files" / "sink.rows" / "sink.bytes"]`` (the part
        files only).  The ``part-*.parquet`` files already in ``out_dir``
        are removed first, so writing again — a checkpoint partition
        redone on resume — leaves exactly this result's rows.
        ``unique_violations`` (already a small driver table) is written
        as one extra file, ``unique_violations.parquet``."""
        import pyarrow.parquet as pq

        from pathlib import Path

        self.materialize()
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for stale in out.glob("part-*.parquet"):
            stale.unlink()
        written = ray.get([
            _write_block.remote(block, str(out / f"part-{i:05d}.parquet"))
            for i, (block, n) in enumerate(zip(self._blocks, self._block_rows))
            if n
        ])
        self.metrics["sink.files"] = len(written)
        self.metrics["sink.rows"] = sum(r for r, _ in written)
        self.metrics["sink.bytes"] = sum(b for _, b in written)
        pq.write_table(self.unique_violations, out / "unique_violations.parquet")

    def all_violations_table(self) -> pa.Table:
        """Every violation row on the driver: the pinned blocks in block
        order, then ``unique_violations``.  Cached, because the violation
        set is small relative to the corpus by assumption."""
        if self._cached is None:
            self.materialize()
            parts = ray.get(self._blocks) + [self.unique_violations]
            self._cached = pa.concat_tables(
                [p for p in parts if p.num_rows] or [empty_violations()]
            )
        return self._cached

    def counts_by_error(self) -> dict[str, int]:
        """``{error: count}`` over every violation, uniqueness included;
        from the drained tallies, never the violation rows."""
        self.materialize()
        out = dict(self._counts)
        for e, c in _tally(self.unique_violations).items():
            out[e] = out.get(e, 0) + c
        return out

    @property
    def passed(self) -> bool:
        # per-run verdict: jesse's {ok, Value} iff the error list is empty
        # (src/jesse_schema_validator.erl:70-77); the counts include the
        # uniqueness rows
        return not self.counts_by_error()


def prepare_compiled(compiled: CompiledSpec, ds: Dataset) -> CompiledSpec:
    """Launch-time spec preparation shared by every validation entry
    point (engine.validate AND the checkpoint runner): resolve
    patternProperties against the actual column names (SURVEY §2.3) and
    run the schema gates (additionalProperties / min-maxProperties /
    propertyNames) when the spec has any."""
    spec = compiled.spec
    if spec.column_patterns:
        compiled = compile_spec(spec.resolve_patterns(ds.schema().names))
        spec = compiled.spec
    needs_gate = (
        not spec.additional_columns_allowed
        or spec.min_columns is not None
        or spec.max_columns is not None
        or spec.property_names is not None
    )
    if needs_gate:
        sch = ds.schema()
        arrow_schema = getattr(sch, "base_schema", None)
        if arrow_schema is None:
            arrow_schema = pa.schema([pa.field(n, t) for n, t in zip(sch.names, sch.types)])
        compiled.check_schema(arrow_schema)
    return compiled


def default_schema_loader(name: str):
    """Default schema_loader_fun: ``file://`` URIs and existing ``.json``
    paths load from disk; ``http(s)://`` is fetched with urllib (works
    on clusters with egress; this sandbox has none).  Returns None on a
    miss — jesse's ?not_found (src/jesse_database.erl:316-336)."""
    import os

    path = None
    if name.startswith("file://"):
        path = name[len("file://"):]
    elif name.startswith(("http://", "https://")):
        try:
            from urllib.request import urlopen

            with urlopen(name, timeout=10) as r:  # pragma: no cover (no network in sandbox)
                return json.loads(r.read().decode())
        except Exception:
            return None
    elif name.endswith(".json"):
        path = name
    if path and os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    return None


class ValidationEngine:
    """Compile once on the driver; validate many Datasets.

    The driver-side spec registry replaces jesse's ETS schema store
    (src/jesse_database.erl:165-220): specs are immutable per run, so a
    plain dict + closure capture is the idiomatic Ray equivalent.
    """

    def __init__(self, schema_loader_fun=None):
        """``schema_loader_fun`` — jesse's pluggable schema resolver
        (src/jesse.erl:89-92, used from src/jesse_database.erl:316-336):
        called with the unknown spec name/URI on a registry miss and may
        return a TableSpec, a JSON-Schema dict, or None (miss).  The
        default loader resolves ``file://`` URIs and plain ``*.json``
        paths; ``http(s)://`` fetches use urllib when the cluster has
        network access (this sandbox does not — documented)."""
        self._specs: dict[str, CompiledSpec] = {}
        #: name -> (source path, mtime at load) for mtime-refresh
        #: (src/jesse_database.erl:276-283 ETS row shape)
        self._sources: dict[str, tuple[str, float]] = {}
        self._loader = schema_loader_fun if schema_loader_fun is not None else default_schema_loader

    # jesse:add_schema/2 analogue (src/jesse.erl:116-130)
    def add_spec(self, name: str, spec: TableSpec) -> CompiledSpec:
        compiled = compile_spec(spec)
        self._specs[name] = compiled
        return compiled

    def del_spec(self, name: str) -> None:
        self._specs.pop(name, None)

    def load_specs(self, dir_path: str) -> list[str]:
        """Bulk-load every ``*.json`` draft-04 spec file in a directory
        (the file stem becomes the spec name) — jesse:load_schemas
        analogue (src/jesse.erl:153-182).  Each entry records its source
        file's mtime, the reference's ETS cache shape
        (src/jesse_database.erl:276-283 stores {SourceKey, Key, Mtime,
        Schema}); :meth:`refresh_specs` then re-reads only outdated
        files, the jesse_database:list_outdated/1 contract
        (src/jesse_database.erl:251-283)."""
        import glob as _glob
        import os as _os

        from jesse_ray.spec import from_json_schema

        loaded = []
        for p in sorted(_glob.glob(_os.path.join(str(dir_path), "*.json"))):
            name = _os.path.splitext(_os.path.basename(p))[0]
            with open(p) as f:
                schema = json.load(f)
            self.add_spec(name, from_json_schema(schema, name=name))
            self._sources[name] = (p, _os.stat(p).st_mtime)
            loaded.append(name)
        return loaded

    def list_outdated(self, dir_path: str) -> list[str]:
        """Spec files in ``dir_path`` that are new or newer than their
        cached entry — jesse_database:list_outdated/1
        (src/jesse_database.erl:251-283): a file with no cache entry is
        outdated; a cached one is outdated when CurrentMtime > Mtime."""
        import glob as _glob
        import os as _os

        out = []
        for p in sorted(_glob.glob(_os.path.join(str(dir_path), "*.json"))):
            name = _os.path.splitext(_os.path.basename(p))[0]
            src = self._sources.get(name)
            if src is None or _os.stat(p).st_mtime > src[1]:
                out.append(p)
        return out

    def refresh_specs(self, dir_path: str) -> list[str]:
        """Recompile ONLY the outdated spec files (the incremental
        update jesse_database:add_path/2 performs on every store touch,
        src/jesse_database.erl:117-133 + 251-283).  Unchanged specs keep
        their compiled form — on a long-lived validation service this is
        the live-reload path; batch runs never need it."""
        import os as _os

        from jesse_ray.spec import from_json_schema

        refreshed = []
        for p in self.list_outdated(dir_path):
            name = _os.path.splitext(_os.path.basename(p))[0]
            with open(p) as f:
                schema = json.load(f)
            self.add_spec(name, from_json_schema(schema, name=name))
            self._sources[name] = (p, _os.stat(p).st_mtime)
            refreshed.append(name)
        return refreshed

    def get(self, name: str) -> CompiledSpec:
        if name not in self._specs:
            loaded = self._loader(name) if self._loader is not None else None
            if loaded is None:
                raise KeyError(f"{E.SCHEMA_INVALID}: no spec named {name!r}")
            if isinstance(loaded, dict):
                from jesse_ray.spec import from_json_schema

                loaded = from_json_schema(loaded, name=name)
            self.add_spec(name, loaded)
        return self._specs[name]

    # jesse:validate/2 analogue (src/jesse.erl:185-216)
    def validate(
        self,
        ds: Dataset,
        spec_or_name: TableSpec | CompiledSpec | str,
        *,
        check_unique: bool = True,
        sketch: bool = False,
        allowed_errors: Optional[int] = None,
        error_handler=None,
        key_ds: Optional[Dataset] = None,
    ) -> ValidationResult:
        """Validate ``ds`` against a spec; nothing runs until the result's
        first entry point.  ``error_handler`` (see
        ``CompiledSpec.check_batch``) is called once per table the fused
        pass checks: each file piece of a planned read (a read task's
        row groups of one file, decoded as one table), each block of a
        materialized input, each batch of the Ray Data map otherwise —
        the tables a Ray Data ``map_batches`` over the same input gets.
        ``key_ds`` is accepted and ignored (``perfbench`` still passes
        it): the fused pass computes every key partial, so no key is read
        from anywhere else."""
        if isinstance(spec_or_name, str):
            compiled = self.get(spec_or_name)
        elif isinstance(spec_or_name, CompiledSpec):
            compiled = spec_or_name
        else:
            compiled = compile_spec(spec_or_name)
        compiled = prepare_compiled(compiled, ds)

        # ONE pass over the full-width data for row + referential checks,
        # the key partials and the drift sketch — at 100 TB the read
        # dominates.  Nothing runs until the result's first entry point.
        keys = tuple(dict.fromkeys(compiled.spec.unique_keys)) if check_unique else ()
        return ValidationResult(
            spec_version=compiled.version,
            _ds=ds,
            _validator=_fused_validator(compiled, allowed_errors, error_handler, keys, sketch),
            _unique_keys=keys,
        )


def validate_dataset(ds: Dataset, spec: TableSpec | CompiledSpec, **kw) -> ValidationResult:
    """One-shot convenience — jesse:validate_with_schema/2 analogue
    (src/jesse.erl:220-248)."""
    return ValidationEngine().validate(ds, spec, **kw)


def violations_to_json(tbl: pa.Table) -> str:
    """Render violation rows in the reference CLI's ``--json`` report
    shape — ``{"reasons": [{"invalid": "data", "schema": ..., "error":
    ..., "data": ..., "path": [...]}, ...]}`` per
    src/jesse_error.erl:107-138 (reason_to_jsx / to_json).  Path index
    elements become integers, as in the reference's mixed
    name/0-based-index paths."""
    reasons = []
    for i in range(tbl.num_rows):
        path = [int(p) if p.isdigit() else p for p in tbl["path"][i].as_py()]
        reasons.append(
            {
                "invalid": "data",
                "schema": json.loads(tbl["schema_fragment"][i].as_py()),
                "error": tbl["error"][i].as_py(),
                "data": json.loads(tbl["value_json"][i].as_py()),
                "path": path,
                "doc_id": tbl["doc_id"][i].as_py(),
            }
        )
    return json.dumps({"reasons": reasons}, ensure_ascii=False)
