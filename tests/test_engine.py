"""End-to-end engine tests over the deterministic dirty corpus (F1).

The golden answers are the ``expected_error`` side column written by the
generator; the engine never sees it (the reader prunes to the canonical
4 columns).  Parity with the row-wise Python oracle is asserted
record-for-record (SURVEY §5.2).
"""

import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import ray.data

from jesse_ray import errors as E
from jesse_ray import testgen
from jesse_ray.compiler import compile_spec
from jesse_ray.engine import (
    ReferentialChecker,
    ValidationEngine,
    column_stats,
    duplicate_keys,
    filter_valid,
    fused_violations,
    row_violations,
    uniqueness_check,
    uniqueness_violations,
    validate_dataset,
)
from jesse_ray.oracle import validate_row
from jesse_ray.sketches import SketchBundle, drift_report
from jesse_ray.sources import read_sequences
from jesse_ray.spec import sequences_spec
from jesse_ray.stages import drift_check, sketch_dataset

#: the checkout these tests run from (subprocesses import the same tree)
REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def spec(corpus_sf0001):
    return sequences_spec(
        allowed_sources_path=str(testgen.allowed_sources_path("sf0.001"))
    )


@pytest.fixture(scope="module")
def corpus_path(corpus_sf0001):
    return str(testgen.corpus_path("sf0.001"))


@pytest.fixture(scope="module")
def golden(corpus_path):
    tbl = pq.read_table(corpus_path)
    return tbl


def test_row_violations_match_golden_atoms(corpus_path, golden, spec):
    ds = read_sequences(corpus_path)
    compiled = compile_spec(spec)
    v = pa.concat_tables(
        list(row_violations(ds, compiled).iter_batches(batch_format="pyarrow"))
    )
    got = {}
    for d, e in zip(v["doc_id"].to_pylist(), v["error"].to_pylist()):
        got.setdefault(d, set()).add(e)

    exp = golden.to_pydict()
    for doc, err, n_tok in zip(exp["doc_id"], exp["expected_error"], exp["n_tok"]):
        if err in ("", "not_unique", "not_in_enum"):
            continue  # corpus-level / referential classes tested separately
        atom = "not_in_range" if err == "token_not_in_range" else err
        key = doc  # None doc_id rows keyed by None
        assert atom in got.get(key, set()), (doc, err, got.get(key))


def test_row_violations_no_false_positives(corpus_path, golden, spec):
    ds = read_sequences(corpus_path)
    compiled = compile_spec(spec)
    v = pa.concat_tables(
        list(row_violations(ds, compiled).iter_batches(batch_format="pyarrow"))
    )
    flagged = {d for d in v["doc_id"].to_pylist() if d is not None}
    clean_docs = {
        d
        for d, e in zip(golden["doc_id"].to_pylist(), golden["expected_error"].to_pylist())
        if e == "" and d is not None
    }
    dirty_docs = {
        d
        for d, e in zip(golden["doc_id"].to_pylist(), golden["expected_error"].to_pylist())
        if e not in ("", "not_unique", "not_in_enum") and d is not None
    }
    # a clean doc_id must not be flagged by row-level checks
    assert flagged & (clean_docs - dirty_docs) == set()


def test_oracle_parity_rowlevel(corpus_path, spec):
    """Engine violation records == row-wise oracle records, field for field."""
    tbl = pq.read_table(corpus_path).slice(0, 4000)
    seq = tbl.select(["doc_id", "tokens", "n_tok", "source"])
    compiled = compile_spec(spec)
    v = compiled.check_batch(seq)
    engine_recs = sorted(
        (d, tuple(p), e, vj)
        for d, p, e, vj in zip(
            v["doc_id"].to_pylist(),
            v["path"].to_pylist(),
            v["error"].to_pylist(),
            v["value_json"].to_pylist(),
        )
        if d is not None
    )
    oracle_recs = []
    spec_no_ref = sequences_spec()  # oracle handles referential separately
    for row in seq.to_pylist():
        oracle_recs.extend(
            (d, p, e, vj) for d, p, e, vj in validate_row(spec_no_ref, row) if d is not None
        )
    assert engine_recs == sorted(oracle_recs)


def test_token_array_equality_invariant(corpus_path, spec):
    """Per-row invariant vs the reference pass: the engine must not mutate
    tokens (BASELINE.json input_hint)."""
    ds = read_sequences(corpus_path)
    compiled = compile_spec(spec)
    before = pq.read_table(corpus_path, columns=["doc_id", "tokens"])
    after = pa.concat_tables(
        list(
            filter_valid(ds, compiled)
            .select_columns(["doc_id", "tokens"])
            .iter_batches(batch_format="pyarrow")
        )
    )
    # every surviving row's token array is byte-identical to its input row
    idx = {d: i for i, d in enumerate(before["doc_id"].to_pylist())}
    before_tok = before["tokens"].to_pylist()
    for d, toks in zip(after["doc_id"].to_pylist(), after["tokens"].to_pylist()):
        assert toks == before_tok[idx[d]]


def test_uniqueness_two_phase(corpus_path, golden):
    ds = read_sequences(corpus_path, columns=["doc_id"])
    uv = uniqueness_violations(ds, "doc_id")
    got = {json.loads(v)["value"]: json.loads(v)["count"] for v in uv["value_json"].to_pylist()}
    # golden: doc_ids that appear more than once
    ids = [d for d in golden["doc_id"].to_pylist() if d is not None]
    import collections

    exact = {k: c for k, c in collections.Counter(ids).items() if c > 1}
    assert got == exact
    assert set(uv["error"].to_pylist()) == {E.NOT_UNIQUE}


def test_referential_only_fused_pass(corpus_path, spec, golden):
    """A referential-only spec through the fused pass flags exactly the
    rows whose source is outside the broadcast dimension."""
    from jesse_ray.spec import TableSpec

    ds = read_sequences(corpus_path)
    ref_spec = TableSpec(key_column="doc_id", referential=spec.referential)
    rv = fused_violations(ds, compile_spec(ref_spec))
    v = pa.concat_tables(list(rv.iter_batches(batch_format="pyarrow")))
    bad_docs = {
        d
        for d, e in zip(golden["doc_id"].to_pylist(), golden["expected_error"].to_pylist())
        if e == "not_in_enum"
    }
    assert set(v["doc_id"].to_pylist()) == bad_docs
    assert set(v["error"].to_pylist()) == {E.NOT_IN_ENUM}
    assert set(json.loads(x) for x in v["value_json"].to_pylist()) == {testgen.BAD_SOURCE}


def test_referential_mixed_type_values(ray_session):
    """Allowed values that do not sort together (``[1, "a"]``) match as
    their string forms: validate_dataset flags exactly the rows
    filter_valid(include_referential=True) drops, and the fragment lists
    the string forms.  A set that sorts keeps its own values."""
    from jesse_ray.spec import ReferentialRule, TableSpec

    tbl = pa.table({
        "doc_id": [f"d{i}" for i in range(6)],
        "source": ["1", "a", "b", None, "2", "a"],
    })
    spec = TableSpec(key_column="doc_id",
                     referential=[ReferentialRule(column="source", values=[1, "a"])])
    v = validate_dataset(ray.data.from_arrow(tbl), spec).all_violations_table()
    kept = pa.concat_tables(list(filter_valid(
        ray.data.from_arrow(tbl), compile_spec(spec), include_referential=True
    ).iter_batches(batch_format="pyarrow")))
    dropped = set(tbl["doc_id"].to_pylist()) - set(kept["doc_id"].to_pylist())
    assert dropped == {"d2", "d4"}
    assert sorted(v["doc_id"].to_pylist()) == sorted(dropped)
    assert set(v["schema_fragment"].to_pylist()) == {'{"enum":["1","a"]}'}
    checker = ReferentialChecker([("source", frozenset([1, 2.5]), E.NOT_IN_ENUM)], "doc_id")
    assert checker.compiled_rules[0][3] == '{"enum":[1,2.5]}'


def test_full_validate_and_counts(corpus_path, spec, golden):
    ds = read_sequences(corpus_path)
    res = validate_dataset(ds, spec)
    counts = res.counts_by_error()
    exp = [e for e in golden["expected_error"].to_pylist() if e]
    assert counts.get(E.NOT_IN_ENUM, 0) == sum(1 for e in exp if e == "not_in_enum")
    assert counts.get(E.MISSING_REQUIRED_PROPERTY, 0) == sum(
        1 for e in exp if e == "missing_required_property"
    )
    assert not res.passed


def test_clean_corpus_passes(corpus_sf0001):
    ds = read_sequences(str(testgen.clean_corpus_path("sf0.001")))
    spec = sequences_spec(allowed_sources=list(testgen.SOURCES))
    res = validate_dataset(ds, spec)
    assert res.counts_by_error() == {}
    assert res.passed


def test_column_stats_per_source(corpus_path, golden):
    ds = read_sequences(corpus_path, columns=["n_tok", "source"])
    stats = column_stats(ds, "n_tok", "source")
    got = {
        g: (c, mn, mx)
        for g, c, mn, mx in zip(
            stats["group"].to_pylist(),
            stats["cnt"].to_pylist(),
            stats["vmin"].to_pylist(),
            stats["vmax"].to_pylist(),
        )
    }
    src = golden["source"].to_pylist()
    ntk = golden["n_tok"].to_pylist()
    import collections

    exp_cnt = collections.Counter(src)
    for s, c in exp_cnt.items():
        assert got[s][0] == c
        vals = [n for x, n in zip(src, ntk) if x == s]
        assert got[s][1] == min(vals) and got[s][2] == max(vals)


def test_drift_detects_shift_not_self(corpus_sf0001):
    ref = ray.data.read_parquet(str(corpus_sf0001 / "drift_reference.parquet"))
    drifted = ray.data.read_parquet(str(corpus_sf0001 / "drift_drifted.parquet"))
    rep_self = drift_check(ref, ref)
    assert not rep_self["ks_drifted"] and not rep_self["chi2_drifted"]
    rep = drift_check(ref, drifted)
    assert rep["ks_drifted"] and rep["chi2_drifted"]


def test_sketch_merge_is_distribution_invariant(corpus_sf0001):
    """Sketching the same data at different batch sizes gives the same
    summary byte for byte and the same drift report (merge
    associativity at the pipeline level), and the summary is the exact
    value counts of the raw columns.  Three files, so 2048-row batches
    make several bundles where 16384-row batches make one."""
    files = [str(corpus_sf0001 / "drift_reference.parquet"), str(corpus_sf0001 / "drift_drifted.parquet"),
             str(testgen.corpus_path("sf0.001"))]
    ds = ray.data.read_parquet(files, columns=["n_tok", "tokens"])
    b1 = sketch_dataset(ds, batch_size=2048)
    b2 = sketch_dataset(ds, batch_size=16384)
    assert b1.rows == b2.rows
    assert b1.to_bytes() == b2.to_bytes()
    other = sketch_dataset(ray.data.read_parquet(str(corpus_sf0001 / "drift_drifted.parquet")))
    assert drift_report(b1, other) == drift_report(b2, other)
    raw = pa.concat_tables([pq.read_table(f, columns=["n_tok", "tokens"]) for f in files])
    n_tok = raw["n_tok"].to_numpy().astype(np.float64)
    keys, counts = np.unique(n_tok[~np.isnan(n_tok)], return_counts=True)
    assert np.array_equal(b1.n_tok.keys, keys) and np.array_equal(b1.n_tok.counts, counts)
    flat = pc.list_flatten(raw["tokens"]).to_numpy().astype(np.int64)
    ids, counts = np.unique(flat[(flat >= 0) & (flat < b1.vocab)], return_counts=True)
    assert np.array_equal(b1.tokens.keys, ids) and np.array_equal(b1.tokens.counts, counts)


def test_sketch_dataset_type_hints_resolve():
    """The drift stage's annotations name only imported types."""
    import typing

    assert typing.get_type_hints(sketch_dataset)["batch_size"] == typing.Optional[int]


def _collected_dups(ds, key):
    """``duplicate_keys(ds, key)`` on the driver, sorted by key."""
    batches = list(duplicate_keys(ds, key).iter_batches(batch_format="pyarrow", batch_size=None))
    return pa.concat_tables(batches).sort_by(key)


def test_duplicate_keys_matches_group_by(corpus_sf0001):
    """Both scales of the one exact uniqueness algorithm — the per-bucket
    sum of ``duplicate_keys`` and the driver merge of ``uniqueness_check``
    — match an in-process ``group_by`` over the whole ``doc_id`` column."""
    path = str(testgen.corpus_path("sf0.001"))
    whole = pq.read_table(path, columns=["doc_id"])
    g = whole.filter(pc.is_valid(whole["doc_id"])).group_by("doc_id").aggregate([([], "count_all")])
    plain = g.filter(pc.greater(g["count_all"], 1)).sort_by("doc_id")
    assert plain.num_rows > 0

    dups = _collected_dups(read_sequences(path, columns=["doc_id"]), "doc_id")
    assert dups["doc_id"].to_pylist() == plain["doc_id"].to_pylist()
    assert dups["cnt"].to_pylist() == plain["count_all"].to_pylist()

    driver, m = uniqueness_check(read_sequences(path, columns=["doc_id"]), ["doc_id"])
    assert m["uniqueness.route"] == "driver_merge"
    assert driver["doc_id"].to_pylist() == plain["doc_id"].to_pylist()
    assert [json.loads(v)["count"] for v in driver["value_json"].to_pylist()] == plain["count_all"].to_pylist()


def test_fused_matches_inprocess_reference(corpus_sf0001):
    """validate_dataset emits exactly the rows of an in-process reference
    over the whole table: the compiled row checks, the referential
    checker and the standalone uniqueness check."""
    from jesse_ray.pipelines.queries import _seq_spec

    path = str(testgen.corpus_path("sf0.001"))
    spec = _seq_spec()

    def canon(t):
        return sorted(
            zip(
                [x or "" for x in t["doc_id"].to_pylist()],
                ["/".join(p) for p in t["path"].to_pylist()],
                t["error"].to_pylist(),
                t["value_json"].to_pylist(),
                t["schema_fragment"].to_pylist(),
            )
        )

    whole = pa.concat_tables(list(read_sequences(path).iter_batches(batch_format="pyarrow")))
    rules = [(r.column, frozenset(r.values), r.error_atom) for r in spec.referential]
    want = (
        canon(compile_spec(spec).check_batch(whole))
        + canon(ReferentialChecker(rules, "doc_id")(whole))
        + canon(uniqueness_violations(read_sequences(path), "doc_id"))
    )
    got = canon(validate_dataset(read_sequences(path), spec).all_violations_table())
    assert got == sorted(want)
    assert {e for _, _, e, _, _ in got} >= {E.NOT_IN_ENUM, E.NOT_UNIQUE}


def test_load_specs_and_json_report(tmp_path, corpus_sf0001):
    """jesse:load_schemas + jesse_error:to_json analogues."""
    import json

    import pyarrow as pa

    from jesse_ray.engine import ValidationEngine, violations_to_json

    (tmp_path / "a.json").write_text(json.dumps({"properties": {"x": {"minimum": 0}}}))
    (tmp_path / "b.json").write_text(json.dumps({"properties": {"y": {"type": "string"}}}))
    eng = ValidationEngine()
    assert eng.load_specs(str(tmp_path)) == ["a", "b"]
    compiled = eng.get("a")
    v = compiled.check_batch(pa.table({"x": pa.array([-1, 2]), "doc_id": pa.array(["d1", "d2"])}))
    rep = json.loads(violations_to_json(v))
    assert rep["reasons"][0]["error"] == "not_in_range"
    assert rep["reasons"][0]["invalid"] == "data"
    assert rep["reasons"][0]["path"] == ["x"]
    assert rep["reasons"][0]["data"] == -1


def test_uniqueness_hot_key_skew(ray_session):
    """Skew stressor: one doc_id with 50k copies must not blow up the
    shuffle — the map-side combiner collapses it to one row per batch
    before anything moves (SURVEY §7.3 skew defense)."""
    n = 60_000
    ids = np.array([f"doc-{i:08d}" for i in range(n)], dtype=object)
    ids[10_000:] = "doc-hot"  # 50k copies of one key
    tbl = pa.table({"doc_id": pa.array(ids, type=pa.string())})
    ds = ray.data.from_arrow([tbl.slice(i, 8192) for i in range(0, n, 8192)])
    driver, m = uniqueness_check(ds, ["doc_id"])
    # 10k distinct keys, then one hot-key partial row in each of the 7
    # batches that hold any of its copies
    assert m["uniqueness.partial_rows"] == 10_000 + 7
    assert driver["doc_id"].to_pylist() == ["doc-hot"]
    assert json.loads(driver["value_json"][0].as_py()) == {"value": "doc-hot", "count": 50_000}
    dups = _collected_dups(ds, "doc_id")
    assert dups.num_rows == 1
    assert dups["doc_id"][0].as_py() == "doc-hot"
    assert dups["cnt"][0].as_py() == 50_000


def _majority_duplicate_keys(n_rows=40_000, n_distinct=3_000, seed=7):
    """Key column where most rows repeat a key and ~10% are null."""
    rng = np.random.default_rng(seed)
    keys = np.array([f"k{i:06d}" for i in rng.integers(0, n_distinct, n_rows)], dtype=object)
    keys[rng.random(n_rows) < 0.1] = None
    keys[:5] = ["solo-a", "solo-b", None, "solo-c", "solo-d"]  # some singletons
    return keys


def _int_keys(keys):
    """The same key column as int64 values, nulls kept."""
    ids = {k: 1_000 * i for i, k in enumerate(sorted({k for k in keys if k is not None}))}
    return np.array([None if k is None else ids[k] for k in keys], dtype=object)


@pytest.mark.parametrize("key_type", [pa.string(), pa.int64()], ids=["string", "int64"])
def test_uniqueness_cap_trips_to_shuffle(ray_session, monkeypatch, key_type):
    """A majority-duplicate corpus with null keys: past a tiny driver cap
    the partials are summed per key bucket, and that sum gives the same
    violations table, byte for byte, as the uncapped driver route — for
    string keys and for non-string keys, which ``map_key_buckets`` hashes
    in their own dtype."""
    import collections

    from jesse_ray import engine

    keys = _majority_duplicate_keys()
    if key_type == pa.int64():
        keys = _int_keys(keys)
    tbl = pa.table({"doc_id": pa.array(keys, type=key_type)})
    blocks = [tbl.slice(i, 5_000) for i in range(0, tbl.num_rows, 5_000)]
    ds = ray.data.from_arrow(blocks)

    exact = {k: c for k, c in collections.Counter(k for k in keys if k is not None).items() if c > 1}
    driver_tbl, driver_m = engine.uniqueness_check(ds, ["doc_id"])
    assert driver_m["uniqueness.route"] == "driver_merge"
    assert driver_m["uniqueness.partial_bytes"] <= engine.UNIQ_DRIVER_CAP_BYTES
    assert driver_m["uniqueness.dup_keys"] == len(exact) == driver_tbl.num_rows

    monkeypatch.setattr(engine, "UNIQ_DRIVER_CAP_BYTES", 16 << 10)
    shuffle_tbl, shuffle_m = engine.uniqueness_check(ds, ["doc_id"])
    assert shuffle_m["uniqueness.route"] == "shuffle"
    assert shuffle_m["uniqueness.partial_bytes"] > 16 << 10
    # the bucket sum takes every partial row
    assert shuffle_m["uniqueness.partial_rows"] == driver_m["uniqueness.partial_rows"]
    assert shuffle_m["uniqueness.dup_keys"] == len(exact)

    assert shuffle_tbl.equals(driver_tbl)
    got = {json.loads(v)["value"]: json.loads(v)["count"] for v in driver_tbl["value_json"].to_pylist()}
    assert got == exact
    assert driver_tbl["doc_id"].to_pylist() == [str(k) for k in sorted(exact)]


def test_validation_metrics_report_uniqueness_route(tmp_path, corpus_path, spec):
    """Both validation entry points report the uniqueness route with the
    same schema: ``ValidationResult.metrics`` once the uniqueness future
    resolves, and the ``run_validation`` summary."""
    from jesse_ray.checkpoint import run_validation

    want = {
        "uniqueness.route": str,
        "uniqueness.partial_rows": int,
        "uniqueness.partial_bytes": int,
        "uniqueness.dup_keys": int,
    }

    res = validate_dataset(read_sequences(corpus_path), spec)
    n_dup = res.unique_violations.num_rows
    summary = run_validation([corpus_path], spec, tmp_path / "out")
    assert n_dup > 0
    for m in (res.metrics, summary):
        assert {k: type(m[k]) for k in want} == want
        assert m["uniqueness.route"] == "driver_merge"
        assert m["uniqueness.dup_keys"] == n_dup
        assert m["uniqueness.partial_rows"] > 0 and m["uniqueness.partial_bytes"] > 0
    assert summary["unique_violations"] == n_dup


def _keyed_corpus(seed=7, n_blocks=8):
    """Majority-duplicate ``doc_id`` (~10% null), a second key ``alt`` with
    a few duplicates, and an ``n`` column with some out-of-range values,
    as ``n_blocks`` blocks; plus the spec checking all of it."""
    from jesse_ray.spec import ColumnSpec, TableSpec

    keys = _majority_duplicate_keys(seed=seed)
    n = len(keys)
    alt = np.array([f"a{i % (n - 50)}" for i in range(n)], dtype=object)
    tbl = pa.table({
        "doc_id": pa.array(keys, type=pa.string()),
        "alt": pa.array(alt, type=pa.string()),
        "n": pa.array(np.arange(n) % 1_000, type=pa.int64()),
    })
    step = -(-n // n_blocks)
    blocks = [tbl.slice(i, step) for i in range(0, n, step)]
    spec = TableSpec(name="keyed", key_column="doc_id",
                     columns={"n": ColumnSpec(type="integer", minimum=0, maximum=990)},
                     unique_keys=["doc_id"])
    return blocks, spec


def _ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _row_set(t: pa.Table) -> list:
    return sorted(zip([x or "" for x in t["doc_id"].to_pylist()], ["/".join(p) for p in t["path"].to_pylist()],
                      t["error"].to_pylist(), t["value_json"].to_pylist(), t["schema_fragment"].to_pylist()))


def _counted(ds, log_dir):
    """``ds`` behind a ``map_batches`` that logs each batch's row count to
    a file in ``log_dir``, and a function summing the logged rows."""
    import uuid

    log_dir.mkdir()

    def count(batch: pa.Table) -> pa.Table:
        (log_dir / uuid.uuid4().hex).write_text(str(batch.num_rows))
        return batch

    mapped = ds.map_batches(count, batch_format="pyarrow", zero_copy_batch=True)
    return mapped, lambda: sum(int(p.read_text()) for p in log_dir.iterdir())


def test_validate_reads_each_block_once(ray_session, tmp_path):
    """The uniqueness partials come from the fused pass: both sink paths
    process every input row once, not once more for the keys."""
    blocks, spec = _keyed_corpus()
    n = sum(b.num_rows for b in blocks)

    ds, seen = _counted(ray.data.from_arrow(blocks), tmp_path / "lazy")
    res = validate_dataset(ds, spec)
    res.all_violations_table()
    assert res.unique_violations.num_rows and res.passed is False
    assert seen() == n

    ds, seen = _counted(ray.data.from_arrow(blocks), tmp_path / "mat")
    res = validate_dataset(ds, spec).materialize()
    res.write_violations(str(tmp_path / "out"))
    assert res.counts_by_error()[E.NOT_UNIQUE] == res.unique_violations.num_rows
    assert seen() == n


def test_inband_uniqueness_matches_standalone(ray_session):
    """The fused pass's key partials give the standalone uniqueness table
    byte for byte, in any block arrival order, with the route reported."""
    blocks, spec = _keyed_corpus()
    want = uniqueness_violations(ray.data.from_arrow(blocks), "doc_id")
    assert want.num_rows > 1_000
    order = np.random.default_rng(3).permutation(len(blocks))
    for bs in (blocks, [blocks[i] for i in order]):
        res = validate_dataset(ray.data.from_arrow(bs), spec)
        got = res.unique_violations
        assert _ipc(got) == _ipc(want)
        assert res.metrics["uniqueness.route"] == "driver_merge"
        assert res.metrics["uniqueness.dup_keys"] == want.num_rows
        assert res.metrics["uniqueness.partial_rows"] > 0


@pytest.mark.parametrize("route", ["planned", "from_arrow", "limit"])
def test_inband_uniqueness_cap_trips_to_shuffle(ray_session, monkeypatch, tmp_path, route):
    """Past the driver cap the fused pass's partials are summed per key
    bucket and give the same table on every input route: a planned read,
    a materialized input and the Ray Data route (``.limit``).  Row
    violations are unchanged, and every partial reaches
    ``_uniqueness_report`` as an object ref."""
    from jesse_ray import engine

    blocks, spec = _keyed_corpus()
    path = _keyed_parquet(tmp_path)

    def read():
        if route == "from_arrow":
            return ray.data.from_arrow(blocks)
        ds = read_sequences(path, columns=["doc_id", "alt", "n"])
        return ds.limit(10**9) if route == "limit" else ds

    base = validate_dataset(read(), spec)
    base_all = base.all_violations_table()
    base_rows = base_all.filter(pc.not_equal(base_all["error"], E.NOT_UNIQUE))
    assert base.metrics["uniqueness.route"] == "driver_merge" and base_rows.num_rows

    monkeypatch.setattr(engine, "UNIQ_DRIVER_CAP_BYTES", 16 << 10)
    report, refs = engine._uniqueness_report, []

    def spy(partials):
        refs.extend(ref for got in partials.values() for *_, ref in got)
        return report(partials)

    monkeypatch.setattr(engine, "_uniqueness_report", spy)
    lazy = validate_dataset(read(), spec)
    mat = validate_dataset(read(), spec).materialize()
    for res, rows in ((lazy, lazy.all_violations_table()), (mat, mat.all_violations_table())):
        assert res.metrics["uniqueness.route"] == "shuffle"
        assert res.metrics["uniqueness.partial_bytes"] > 16 << 10
        assert _ipc(res.unique_violations) == _ipc(base.unique_violations)
        assert _row_set(rows.filter(pc.not_equal(rows["error"], E.NOT_UNIQUE))) == _row_set(base_rows)
    assert refs and all(isinstance(r, ray.ObjectRef) for r in refs)


def test_uniqueness_fallback_reads_keys_once(ray_session, tmp_path, monkeypatch):
    """Keys are read once, by the fused pass, at every size: under the
    default cap and past a forced 16 KiB cap a counting map on the input
    sees each row once, and a ``key_ds`` passed in is never read."""
    from jesse_ray import engine

    blocks, spec = _keyed_corpus()
    n = sum(b.num_rows for b in blocks)
    want = validate_dataset(ray.data.from_arrow(blocks), spec).unique_violations
    for cap, route in ((engine.UNIQ_DRIVER_CAP_BYTES, "driver_merge"), (16 << 10, "shuffle")):
        monkeypatch.setattr(engine, "UNIQ_DRIVER_CAP_BYTES", cap)
        ds, seen = _counted(ray.data.from_arrow(blocks), tmp_path / f"in-{cap}")
        key_ds, key_seen = _counted(ray.data.from_arrow(blocks).select_columns(["doc_id"]), tmp_path / f"keys-{cap}")
        res = validate_dataset(ds, spec, key_ds=key_ds)
        assert _ipc(res.unique_violations) == _ipc(want)
        assert res.metrics["uniqueness.route"] == route
        assert (seen(), key_seen()) == (n, 0)


def test_uniqueness_check_reads_input_once(ray_session, tmp_path):
    """``uniqueness_check`` over two keys reads its input once: one
    validation computes both keys' partials."""
    blocks, _ = _keyed_corpus()
    ds, seen = _counted(ray.data.from_arrow(blocks), tmp_path / "in")
    got, m = uniqueness_check(ds, ["doc_id", "alt"])
    assert seen() == sum(b.num_rows for b in blocks)
    assert m["uniqueness.dup_keys"] == got.num_rows
    assert [p[0] for p in got["path"].to_pylist()].count("alt") == 50


def _keyed_parquet(tmp_path) -> str:
    """``_keyed_corpus()`` as one parquet file of 16 row groups."""
    blocks, _ = _keyed_corpus()
    path = str(tmp_path / "keyed.parquet")
    pq.write_table(pa.concat_tables(blocks), path, row_group_size=2_500)
    return path


def test_key_partials_are_one_per_task(ray_session, tmp_path):
    """On a planned read each fused task returns one key partial for all
    its row groups: ``uniqueness.partial_rows`` is the sum, over the read
    tasks, of the distinct non-null keys each task reads, and the
    uniqueness rows are those of the same rows in memory."""
    from jesse_ray.sources.parquet import planned_read_tasks

    blocks, spec = _keyed_corpus()
    path = _keyed_parquet(tmp_path)
    ds = read_sequences(path, columns=["doc_id", "alt", "n"])
    tasks = planned_read_tasks(ds)
    assert 1 < len(tasks) < pq.read_metadata(path).num_row_groups
    want_rows = sum(pc.count_distinct(pa.concat_tables(list(t()))["doc_id"]).as_py() for t in tasks)
    res = validate_dataset(ds, spec).materialize()
    assert res.metrics["uniqueness.partial_rows"] == want_rows
    assert _ipc(res.unique_violations) == _ipc(validate_dataset(ray.data.from_arrow(blocks), spec).unique_violations)


def test_tripped_merge_keeps_task_partials_in_the_object_store(ray_session, tmp_path, monkeypatch):
    """Past a forced 16 KiB cap the bucket sum takes each task's key
    partial as the ref the task returned: the engine ``ray.put``s
    nothing, and the uniqueness rows are the default cap's, byte for
    byte."""
    import sys

    from jesse_ray import engine
    from jesse_ray.sources.parquet import planned_read_tasks

    _, spec = _keyed_corpus()
    path = _keyed_parquet(tmp_path)

    def read():
        return read_sequences(path, columns=["doc_id", "alt", "n"])

    assert len(planned_read_tasks(read())) > 1
    want = validate_dataset(read(), spec).unique_violations
    monkeypatch.setattr(engine, "UNIQ_DRIVER_CAP_BYTES", 16 << 10)
    res = validate_dataset(read(), spec)
    put, puts = engine.ray.put, []

    def counted(value, **kw):
        # Ray Data's own puts (the bucket sum's execution) are not counted
        if sys._getframe(1).f_globals.get("__name__") == engine.__name__:
            puts.append(value)
        return put(value, **kw)

    monkeypatch.setattr(engine.ray, "put", counted)
    res.materialize()
    monkeypatch.setattr(engine.ray, "put", put)
    assert res.metrics["uniqueness.route"] == "shuffle"
    assert puts == []
    assert _ipc(res.unique_violations) == _ipc(want)


def test_merge_tripped_by_its_last_partial_stays_on_the_driver(ray_session, tmp_path, monkeypatch):
    """A one-task input past a forced 16 KiB cap has one partial per key,
    which is already the exact sum, so it stays on the driver: the engine
    ``ray.put``s no key table, no Ray Data execution starts, the route
    reads ``driver_merge`` and the uniqueness rows are the default
    cap's."""
    import sys

    from jesse_ray import engine
    from jesse_ray.sources.parquet import planned_read_tasks

    blocks, spec = _keyed_corpus()
    path = str(tmp_path / "one_task.parquet")
    pq.write_table(pa.concat_tables(blocks), path)

    def read():
        return read_sequences(path, columns=["doc_id", "alt", "n"])

    assert len(planned_read_tasks(read())) == 1
    want = validate_dataset(read(), spec).unique_violations
    monkeypatch.setattr(engine, "UNIQ_DRIVER_CAP_BYTES", 16 << 10)
    put, puts = engine.ray.put, []

    def counted(value, **kw):
        if sys._getframe(1).f_globals.get("__name__") == engine.__name__ and isinstance(value, pa.Table):
            puts.append(value)
        return put(value, **kw)

    monkeypatch.setattr(engine.ray, "put", counted)
    started = _count_executions(monkeypatch)
    res = validate_dataset(read(), spec).materialize()
    assert puts == [] and started == []
    assert res.metrics["uniqueness.route"] == "driver_merge"
    assert res.metrics["uniqueness.partial_bytes"] > 16 << 10
    assert _ipc(res.unique_violations) == _ipc(want)


def test_inband_key_rows_never_leak(ray_session, tmp_path):
    """``violations`` is exactly VIOLATION_SCHEMA rows on the lazy path,
    after ``materialize()``, in ``counts_by_error()`` and in the
    ``write_violations`` files — no ``__keys`` column, no key row (a key
    row has a null ``error``)."""
    from jesse_ray.compiler import VIOLATION_SCHEMA

    blocks, spec = _keyed_corpus()

    def exact(t: pa.Table) -> None:
        assert t.schema.names == VIOLATION_SCHEMA.names
        assert t.schema.types == VIOLATION_SCHEMA.types
        assert t["error"].null_count == 0

    lazy = validate_dataset(ray.data.from_arrow(blocks), spec)
    exact(pa.concat_tables(list(lazy.violations.iter_batches(batch_format="pyarrow"))))
    exact(lazy.all_violations_table())
    assert None not in lazy.counts_by_error()

    mat = validate_dataset(ray.data.from_arrow(blocks), spec).materialize()
    exact(pa.concat_tables(list(mat.violations.iter_batches(batch_format="pyarrow"))))
    counts = mat.counts_by_error()
    assert None not in counts and counts == lazy.counts_by_error()
    mat.write_violations(str(tmp_path / "out"))
    written = [pq.read_table(p) for p in sorted((tmp_path / "out").glob("*.parquet"))]
    for t in written:
        exact(t)
    assert sum(t.num_rows for t in written) == lazy.all_violations_table().num_rows


def test_inband_uniqueness_two_keys(ray_session):
    """Two unique keys: each key's rows as the standalone check gives them,
    counts summed in the route report."""
    import collections
    from dataclasses import replace

    blocks, spec = _keyed_corpus()
    spec = replace(spec, unique_keys=["doc_id", "alt"])
    ds = ray.data.from_arrow(blocks)
    want, want_m = uniqueness_check(ds, ["doc_id", "alt"])
    alt = [k for b in blocks for k in b["alt"].to_pylist()]
    assert sum(c > 1 for c in collections.Counter(alt).values()) == 50
    res = validate_dataset(ds, spec)
    assert _ipc(res.unique_violations) == _ipc(want)
    assert res.metrics["uniqueness.dup_keys"] == want_m["uniqueness.dup_keys"]
    assert [p[0] for p in want["path"].to_pylist()].count("alt") == 50


def test_map_key_buckets_rejects_non_power_of_two(ray_session):
    from jesse_ray.hashutil import key_parts, map_key_buckets

    ds = ray.data.from_arrow(pa.table({"u": [1, 2, 3]}))
    got = map_key_buckets(ds, ["u"], lambda g: g, n_parts=4).to_pandas()
    assert sorted(got["u"]) == [1, 2, 3] and list(got.columns) == ["u"]  # no tag in fn's rows
    parts = key_parts(pa.array([1, 2, 3]), 4)
    assert parts.dtype == np.int32 and ((parts >= 0) & (parts <= 3)).all()
    for bad in (48, 0):
        with pytest.raises(ValueError, match="power of two"):
            key_parts(pa.array([1, 2, 3]), bad)
        with pytest.raises(ValueError, match="power of two"):
            map_key_buckets(ds, ["u"], lambda g: g, n_parts=bad)


_BUCKET_KEYS = {
    "int64": pa.array([i % 37 - 18 for i in range(600)], type=pa.int64()),
    "int32": pa.array([(i * 7) % 41 for i in range(600)], type=pa.int32()),
    "string": pa.array([None if i % 11 == 0 else f"k{i % 29}é漢\u00ff" for i in range(600)]),
    "float64": pa.array([float("nan") if i % 13 == 0 else (i % 31) / 4 for i in range(600)]),
    "date32": pa.array([i % 43 for i in range(600)], type=pa.int32()).cast(pa.date32()),
    "timestamp": pa.array([(i % 47) * 1_000_003 for i in range(600)], type=pa.int64()).cast(pa.timestamp("us")),
    "bool": pa.array([None if i % 17 == 0 else i % 3 == 0 for i in range(600)]),
    "fixed_size_binary": pa.array([(i % 23).to_bytes(4, "little") for i in range(600)], type=pa.binary(4)),
    "large_string": pa.array([f"k{i % 29}é" for i in range(600)], type=pa.large_string()),
    "signed_zero": pa.array([(-0.0 if i % 2 else 0.0) if i % 5 == 0 else (i % 7) / 2 for i in range(600)]),
}

_STRS = pa.array([None if i % 9 == 0 else f"doc-{i % 40}" for i in range(120)])

# the same key values in two layouts: key_parts must bucket them alike
_EQUAL_KEY_LAYOUTS = {
    "int32_vs_int64": (pa.array(range(-60, 60), pa.int32()), pa.array(range(-60, 60), pa.int64())),
    "string_vs_large_string": (_STRS, _STRS.cast(pa.large_string())),
    "chunked_vs_contiguous": (pa.chunked_array([_STRS.slice(0, 50), _STRS.slice(50)]), _STRS),
    "negative_vs_positive_zero": (pa.array([-0.0, 0.0, float("nan"), 1.5]),
                                  pa.array([0.0, -0.0, -float("nan"), 1.5])),
}


@pytest.mark.parametrize("case", list(_EQUAL_KEY_LAYOUTS))
def test_key_parts_buckets_equal_values_alike(ray_session, case):
    """Equal key values land in one part whatever their width, string
    layout, chunking or sign of zero, through ``map_key_buckets`` too
    (one block of each layout in one Dataset)."""
    import uuid

    from jesse_ray.hashutil import key_parts, map_key_buckets

    a, b = _EQUAL_KEY_LAYOUTS[case]
    for n_parts in (1, 4, 64):
        assert (key_parts(a, n_parts) == key_parts(b, n_parts)).all()
    blocks = [pa.table({"k": a}), pa.table({"k": b})]
    if case != "chunked_vs_contiguous":  # one Dataset holds one layout of a column
        ds = ray.data.from_arrow(blocks)
        got = map_key_buckets(ds, ["k"], lambda g: g.assign(call=uuid.uuid4().hex)).to_pandas()
        assert len(got) == 2 * len(b)
        assert (got.groupby("k", dropna=False)["call"].nunique() == 1).all()


def test_key_parts_refuses_keys_without_a_canonical_hash():
    from jesse_ray.hashutil import key_parts

    with pytest.raises(TypeError, match="unsupported partition key type"):
        key_parts(pa.array([1], pa.decimal128(5, 2)), 64)
    with pytest.raises(TypeError, match="unsupported partition key type"):
        key_parts(pa.array([[1]]), 64)


@pytest.mark.parametrize("key", [*_BUCKET_KEYS, "two_columns"])
def test_map_key_buckets_keeps_each_key_in_one_call(ray_session, key):
    """Every distinct key value, null and NaN included, reaches exactly
    one ``fn`` call, and the calls are exactly the ``hashutil.key_parts``
    buckets of the key: rows share a call iff they share a part."""
    import uuid

    from jesse_ray.hashutil import key_parts, map_key_buckets

    if key == "two_columns":
        cols = {"k0": _BUCKET_KEYS["string"], "k1": _BUCKET_KEYS["int32"]}
    else:
        cols = {"k0": _BUCKET_KEYS[key]}
    tbl = pa.table({**cols, "row": pa.array(range(600), type=pa.int64())})
    ds = ray.data.from_arrow([tbl.slice(i, 150) for i in range(0, 600, 150)])
    keys = tbl.select(list(cols)).to_pandas()

    def tag_call(g):
        return g.assign(call=uuid.uuid4().hex)

    for n_parts in (1, 4, 64):
        want = key_parts(list(tbl.select(list(cols)).columns), n_parts)
        got = map_key_buckets(ds, list(cols), tag_call, n_parts=n_parts).to_pandas().sort_values("row")
        assert got["row"].tolist() == list(range(600))
        assert "__part" not in got.columns
        part_of_call = dict(zip(got["call"], want[got["row"].to_numpy()]))
        assert len(part_of_call) == len(set(part_of_call.values())) == len(np.unique(want))
        assert (np.array([part_of_call[c] for c in got["call"]]) == want[got["row"].to_numpy()]).all()
        calls = got.groupby(list(cols), dropna=False)["call"].nunique()
        assert len(calls) == len(keys.drop_duplicates()) and (calls == 1).all()
        assert got["call"].nunique() <= n_parts


def test_multimodal_plumbing(ray_session):
    """Stubbed decode/resize/frame-sample stages: real Ray actor-pool
    plumbing, deterministic fake codec work."""
    import pytest

    import ray.data

    from jesse_ray.functions.multimodal import (
        DecodeImage,
        ResizeImage,
        SampleFrames,
        make_fake_media_table,
        sample_frames,
    )

    # compressed payloads still refuse to pretend without fake=True
    png_batch = make_fake_media_table(2)
    with pytest.raises(NotImplementedError):
        DecodeImage(fake=False)(png_batch)
    with pytest.raises(NotImplementedError):
        ResizeImage(fake=False)(png_batch)
    with pytest.raises(NotImplementedError):
        SampleFrames(fake=False)

    tbl = make_fake_media_table(16)
    ds = ray.data.from_arrow(tbl)
    frames = sample_frames(ds, n_frames=3, concurrency=(1, 2)).to_pandas()
    assert len(frames) == 16 * 3
    assert set(frames.columns) == {"media_id", "frame", "frame_digest"}
    # determinism: same payload + frame index → same digest
    again = sample_frames(ray.data.from_arrow(tbl), n_frames=3, concurrency=(1, 2)).to_pandas()
    a = frames.sort_values(["media_id", "frame"]).reset_index(drop=True)
    b = again.sort_values(["media_id", "frame"]).reset_index(drop=True)
    assert (a["frame_digest"] == b["frame_digest"]).all()

    resized = ds.map_batches(
        ResizeImage, fn_constructor_kwargs={"target": 224, "fake": True},
        batch_format="pyarrow", batch_size=8, concurrency=(1, 2),
    ).to_pandas()
    assert (resized["width"] == 224).all() and (resized["height"] == 224).all()


def test_checkpoint_drift_gate(tmp_path, corpus_sf0001):
    """Per-partition drift gating: a partition from the drifted corpus
    must be flagged against a clean-reference digest; the clean corpus
    itself must not."""
    from jesse_ray import testgen
    from jesse_ray.checkpoint import build_reference_digest, run_validation
    from jesse_ray.spec import TableSpec, ColumnSpec

    d = testgen.corpus_dir("sf0.001")
    ref_path = str(tmp_path / "ref.bin")
    build_reference_digest([str(d / "drift_reference.parquet")], ref_path)

    spec = TableSpec(key_column="doc_id")
    spec.columns["n_tok"] = ColumnSpec(type="integer", minimum=1)

    s_clean = run_validation(
        [str(d / "drift_reference.parquet")], spec, tmp_path / "clean",
        drift_reference=ref_path,
    )
    assert s_clean.get("drifted_partitions", 0) == 0

    s_drift = run_validation(
        [str(d / "drift_drifted.parquet")], spec, tmp_path / "drift",
        drift_reference=ref_path,
    )
    assert s_drift["drifted_partitions"] == 1


def test_checkpoint_drift_gate_on_a_zero_row_partition(tmp_path, corpus_sf0001):
    """A partition with no rows gets a defined, JSON-valid, not-drifted
    report against the reference: statistics 0, p-values 1."""
    from jesse_ray import testgen
    from jesse_ray.checkpoint import Manifest, build_reference_digest, run_validation
    from jesse_ray.pipelines.queries import _seq_spec

    d = testgen.corpus_dir("sf0.001")
    ref_path = str(tmp_path / "ref.bin")
    build_reference_digest([str(d / "drift_reference.parquet")], ref_path)
    empty = tmp_path / "empty.parquet"
    pq.write_table(pq.read_table(str(testgen.corpus_path("sf0.001")),
                                 columns=["doc_id", "tokens", "n_tok", "source"]).slice(0, 0), empty)
    s = run_validation([str(empty)], _seq_spec(), tmp_path / "out", drift_reference=ref_path)
    assert s["partitions"] == 1 and s["drifted_partitions"] == 0 and s["passed"]
    (rec,) = Manifest(tmp_path / "out" / "manifest.jsonl").load().values()
    json.dumps(rec.metrics, allow_nan=False)
    assert rec.metrics["rows"] == 0 and rec.metrics["drifted"] is False
    assert rec.metrics["drift"] == {"ks_stat": 0.0, "ks_pvalue": 1.0, "ks_drifted": False,
                                    "chi2_stat": 0.0, "chi2_pvalue": 1.0, "chi2_drifted": False}


def test_drift_reference_in_an_older_format_names_the_file(tmp_path, corpus_sf0001):
    """A pickled reference written by an older version is refused before
    any partition runs, naming the file and how to rebuild it."""
    import pickle

    from jesse_ray.checkpoint import run_validation
    from jesse_ray.pipelines.queries import _seq_spec

    ref_path = tmp_path / "old.digest"
    ref_path.write_bytes(pickle.dumps({"d": b"", "f": b"", "c": b"", "r": 0}, protocol=4))
    with pytest.raises(ValueError, match=f"{ref_path}.*build_reference_digest"):
        run_validation([str(testgen.corpus_path("sf0.001"))], _seq_spec(), tmp_path / "out",
                       drift_reference=str(ref_path))
    assert not (tmp_path / "out" / "manifest.jsonl").exists()


def test_driver_entry_contract(ray_session):
    """__ray_entry__ contract: entry() runs the flagship pipeline at
    sf0.001 with a stable schema; queries() and oracle_sql() name the
    same entries (the driver's correctness gate requires both)."""
    import sys

    sys.path.insert(0, str(REPO_ROOT))
    import __ray_entry__ as e

    t = e.entry()
    assert t.num_rows > 0
    assert t.schema.names == ["doc_id", "path", "error", "value_json", "schema_fragment"]
    q, o = e.queries(), e.oracle_sql()
    assert set(o) == set(q)
    assert len(q) >= 30


def test_multi_partition_resume(tmp_path, corpus_sf0001):
    """3 input files → 3 partitions; a rerun skips all; adding a file
    revalidates only the new partition (the 100 TB resume story)."""
    import pyarrow.parquet as pq

    from jesse_ray import testgen
    from jesse_ray.checkpoint import run_validation
    from jesse_ray.pipelines.queries import _seq_spec

    tbl = pq.read_table(str(testgen.corpus_path("sf0.001")))
    n = tbl.num_rows
    files = []
    for i in range(3):
        p = tmp_path / f"shard-{i}.parquet"
        pq.write_table(tbl.slice(i * n // 3, n // 3), p)
        files.append(str(p))

    out = tmp_path / "out"
    s1 = run_validation(files, _seq_spec(), out, files_per_partition=1)
    assert s1["partitions"] == 3 and s1["skipped"] == 0

    s2 = run_validation(files, _seq_spec(), out, files_per_partition=1)
    assert s2["skipped"] == 3
    assert s2["violations"] == s1["violations"]

    p4 = tmp_path / "shard-3.parquet"
    pq.write_table(tbl.slice(0, 100), p4)
    s3 = run_validation(files + [str(p4)], _seq_spec(), out, files_per_partition=1)
    assert s3["partitions"] == 4 and s3["skipped"] == 3


def test_checkpoint_drift_resume_and_fail_on_drift(tmp_path, corpus_sf0001):
    """Resumed runs restore drifted_partitions from the manifest, and
    fail_on_drift flips a drifted partition's verdict."""
    from jesse_ray import testgen
    from jesse_ray.checkpoint import build_reference_digest, run_validation
    from jesse_ray.spec import TableSpec, ColumnSpec

    d = testgen.corpus_dir("sf0.001")
    ref_path = str(tmp_path / "ref.bin")
    build_reference_digest([str(d / "drift_reference.parquet")], ref_path)

    spec = TableSpec(key_column="doc_id")
    spec.columns["n_tok"] = ColumnSpec(type="integer", minimum=1)

    out = tmp_path / "drift"
    s1 = run_validation([str(d / "drift_drifted.parquet")], spec, out, drift_reference=ref_path)
    assert s1["drifted_partitions"] == 1
    assert s1["passed"]  # advisory by default: clean rows, drift recorded only
    s2 = run_validation([str(d / "drift_drifted.parquet")], spec, out, drift_reference=ref_path)
    assert s2["skipped"] == 1
    assert s2["drifted_partitions"] == 1  # restored from the manifest

    s3 = run_validation(
        [str(d / "drift_drifted.parquet")], spec, tmp_path / "gate",
        drift_reference=ref_path, fail_on_drift=True,
    )
    assert s3["failed"] == 1 and not s3["passed"]


def _sf0001_shards(tmp_path, n=4):
    """The sf0.001 corpus as ``n`` parquet shards plus jsonl twins."""
    import json as _json

    from jesse_ray import testgen

    tbl = pq.read_table(str(testgen.corpus_path("sf0.001")), columns=["doc_id", "tokens", "n_tok", "source"])
    step = -(-tbl.num_rows // n)
    pfiles, jfiles = [], []
    for i in range(n):
        part = tbl.slice(i * step, step)
        pfiles.append(str(tmp_path / f"shard-{i}.parquet"))
        pq.write_table(part, pfiles[-1])
        jfiles.append(str(tmp_path / f"shard-{i}.jsonl"))
        with open(jfiles[-1], "w") as f:
            f.writelines(_json.dumps(r) + "\n" for r in part.to_pylist())
    return pfiles, jfiles


def _count_executions(monkeypatch) -> list:
    """A list that gets one item per streaming executor started in-process
    (one per Ray Data execution)."""
    from ray.data._internal.plan import ExecutionPlan

    started = []
    create = ExecutionPlan.create_executor
    monkeypatch.setattr(ExecutionPlan, "create_executor",
                        lambda self: started.append(1) or create(self))
    return started


def test_checkpoint_executions_per_partition(tmp_path, corpus_sf0001, monkeypatch):
    """A fresh checkpoint partition is the fused pass plus plain write
    tasks.  On parquet, with or without a drift reference, the fused pass
    is plain tasks over the planned read and starts no Ray Data
    execution; on jsonl it starts one, the pass fused into the read.  The
    corpus-wide uniqueness pass is a key-only validation of the same
    kind, so a parquet run starts none in total and a jsonl run one per
    partition plus one.
    The counts, row count and sketch ride in-band.  After
    ``materialize()``, ``counts_by_error()`` starts none.  Counted as
    streaming executors started in-process."""
    from jesse_ray import checkpoint, testgen
    from jesse_ray.pipelines.queries import _seq_spec

    started = _count_executions(monkeypatch)
    per_partition = []
    append = checkpoint.Manifest.append

    def record(self, rec):
        per_partition.append(len(started))
        started.clear()
        return append(self, rec)

    monkeypatch.setattr(checkpoint.Manifest, "append", record)

    pfiles, jfiles = _sf0001_shards(tmp_path)
    ref_path = str(tmp_path / "ref.bin")
    checkpoint.build_reference_digest([str(testgen.corpus_dir("sf0.001") / "drift_reference.parquet")], ref_path)
    rows = pq.read_metadata(str(testgen.corpus_path("sf0.001"))).num_rows
    for name, files, kw, want, uniq in (
        ("parquet", pfiles, {}, [0, 0], 0),
        ("drift", pfiles, {"drift_reference": ref_path}, [0, 0], 0),
        ("jsonl", jfiles, {"input_format": "jsonl"}, [1, 1], 1),
    ):
        per_partition.clear()
        started.clear()
        s = checkpoint.run_validation(files, _seq_spec(), tmp_path / name, files_per_partition=2, **kw)
        assert s["partitions"] == 2 and s["violations"] > 0 and s["unique_violations"] > 0
        assert per_partition == want, (name, per_partition)
        # the corpus-wide uniqueness pass, after the last manifest append
        assert len(started) == uniq, (name, len(started))
        records = checkpoint.Manifest(tmp_path / name / "manifest.jsonl").load().values()
        assert sum(r.metrics["rows"] for r in records) == rows
        assert all(("drift" in r.metrics) == ("drift_reference" in kw) for r in records)

    res = validate_dataset(read_sequences(pfiles[0]), _seq_spec()).materialize()
    started.clear()
    counts = res.counts_by_error()
    assert counts and not res.passed and res.metrics["rows"] > 0
    assert started == []


def test_write_violations_starts_no_execution(ray_session, tmp_path, monkeypatch):
    """After ``materialize()``, ``write_violations`` writes the pinned
    blocks with plain tasks: no Ray Data execution starts."""
    blocks, spec = _keyed_corpus()
    res = validate_dataset(ray.data.from_arrow(blocks), spec).materialize()
    started = _count_executions(monkeypatch)
    res.write_violations(str(tmp_path / "out"))
    assert started == []
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        f"part-{i:05d}.parquet" for i in range(len(blocks))
    ] + ["unique_violations.parquet"]


def test_all_violations_table_after_materialize_starts_no_execution(ray_session, monkeypatch):
    """After ``materialize()``, ``all_violations_table()`` fetches the
    pinned blocks: no Ray Data execution starts, and the table is the
    lazy route's, byte for byte."""
    blocks, spec = _keyed_corpus()
    lazy = validate_dataset(ray.data.from_arrow(blocks), spec).all_violations_table()
    res = validate_dataset(ray.data.from_arrow(blocks), spec).materialize()
    started = _count_executions(monkeypatch)
    pinned = res.all_violations_table()
    assert started == []
    assert pinned.num_rows > 0 and _ipc(pinned) == _ipc(lazy)


def test_write_violations_sink_counters(ray_session, tmp_path):
    """``metrics["sink.*"]`` count the part files, their rows and bytes;
    with ``unique_violations`` the rows are every violation counted."""
    blocks, spec = _keyed_corpus()
    res = validate_dataset(ray.data.from_arrow(blocks), spec).materialize()
    res.write_violations(str(tmp_path))
    parts = sorted(tmp_path.glob("part-*.parquet"))
    assert res.metrics["sink.files"] == len(parts) == len(blocks)
    assert res.metrics["sink.rows"] == sum(pq.read_metadata(p).num_rows for p in parts)
    assert res.metrics["sink.bytes"] == sum(p.stat().st_size for p in parts)
    assert res.metrics["sink.rows"] + res.unique_violations.num_rows == sum(res.counts_by_error().values())


def _row_group_file(tmp_path) -> str:
    """The sf0.001 corpus rewritten with small row groups: 9 groups, which
    the read planner packs into 4 read tasks at 4 CPUs."""
    path = str(tmp_path / "row_groups.parquet")
    pq.write_table(pq.read_table(str(testgen.corpus_path("sf0.001"))), path, row_group_size=250)
    return path


def test_validation_row_order_follows_read_plan(corpus_sf0001, tmp_path):
    """At 4 CPUs the violation rows come in read-plan order whatever
    order the tasks finish in: the lazy and the materialized
    ``all_violations_table()`` are the same bytes, and two runs write the
    same part files."""
    from jesse_ray.pipelines.queries import _seq_spec
    from jesse_ray.sources.parquet import planned_read_tasks

    path = _row_group_file(tmp_path)
    assert len(planned_read_tasks(read_sequences(path))) >= 4
    written = []
    for run in range(3):
        lazy = validate_dataset(read_sequences(path), _seq_spec()).all_violations_table()
        res = validate_dataset(read_sequences(path), _seq_spec()).materialize()
        assert lazy.num_rows > 0 and _ipc(res.all_violations_table()) == _ipc(lazy), run
        out = tmp_path / f"out{run}"
        res.write_violations(str(out))
        written.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(written[0]) > 2 and written[1] == written[0] and written[2] == written[0]


def test_ray_data_route_follows_input_order(ray_session, tmp_path):
    """At 4 CPUs a multi-file ``read_json`` input (the Ray Data route)
    gives its violation rows in file order even when the first file's
    block finishes last: the rows are the per-file results concatenated
    in file order."""
    import time

    blocks, spec = _keyed_corpus(n_blocks=4)
    files = []
    for i, b in enumerate(blocks):
        files.append(str(tmp_path / f"part-{i}.jsonl"))
        rows = b.append_column("file", pa.array([i] * b.num_rows)).to_pylist()
        Path(files[-1]).write_text("".join(json.dumps(r) + "\n" for r in rows))

    def first_file_last(batch: pa.Table) -> pa.Table:
        if batch.num_rows and batch["file"][0].as_py() == 0:
            time.sleep(2)
        return batch

    def violations(paths):
        ds = ray.data.read_json(paths, override_num_blocks=len(paths))
        ds = ds.map_batches(first_file_last, batch_format="pyarrow", zero_copy_batch=True)
        return validate_dataset(ds, spec, check_unique=False).all_violations_table()

    want = pa.concat_tables([violations([f]) for f in files])
    assert set(want["error"].to_pylist()) == {E.NOT_IN_RANGE}
    assert violations(files).equals(want)
    assert not ray.data.DataContext.get_current().execution_options.preserve_order


def test_read_sequences_validation_starts_no_execution(corpus_sf0001, monkeypatch, tmp_path):
    """A validation of a ``read_sequences`` Dataset runs plain tasks over
    the planned read: the lazy ``all_violations_table()``,
    ``materialize()`` + ``write_violations()`` and ``counts_by_error()``
    each start no Ray Data execution."""
    from jesse_ray.pipelines.queries import _seq_spec

    path = str(testgen.corpus_path("sf0.001"))
    started = _count_executions(monkeypatch)
    assert validate_dataset(read_sequences(path), _seq_spec()).all_violations_table().num_rows > 0
    res = validate_dataset(read_sequences(path), _seq_spec()).materialize()
    res.write_violations(str(tmp_path / "out"))
    assert res.metrics["sink.rows"] > 0
    assert validate_dataset(read_sequences(path), _seq_spec()).counts_by_error()
    assert started == []


def test_counts_by_error_fetches_no_violation_block(corpus_sf0001, monkeypatch):
    """``counts_by_error()`` on a fresh result drains only the tallies: the
    same dict as the counted rows, and no violation block reaches the
    driver — the only Arrow tables fetched are the tasks' ``(doc_id,
    partial_cnt)`` key partials, which the uniqueness merge sums."""
    import collections

    from jesse_ray.pipelines.queries import _seq_spec

    path = str(testgen.corpus_path("sf0.001"))
    rows = validate_dataset(read_sequences(path), _seq_spec()).all_violations_table()
    want = dict(collections.Counter(rows["error"].to_pylist()))
    fetched = []
    get = ray.get
    monkeypatch.setattr(ray, "get", lambda refs, **kw: fetched.append(get(refs, **kw)) or fetched[-1])
    res = validate_dataset(read_sequences(path), _seq_spec())
    assert res.counts_by_error() == want and not res.passed
    flat = [y for x in fetched for y in (x if isinstance(x, (list, tuple)) else [x])]
    tables = [x for x in flat if isinstance(x, pa.Table)]
    assert fetched and tables
    assert all(t.column_names == ["doc_id", "partial_cnt"] for t in tables)


def test_violation_blocks_are_one_chunk_per_column(corpus_sf0001, tmp_path, monkeypatch):
    """Every violation block ``all_violations_table()`` fetches holds each
    column in one chunk, however many tables its task checked and
    whether or not they had referential rows: a planned read whose first
    task spans two files, a materialized input and the Ray Data map."""
    from jesse_ray.pipelines.queries import _seq_spec

    t = pq.read_table(str(testgen.corpus_path("sf0.001")))
    pq.write_table(t.slice(0, 250), tmp_path / "a.parquet", row_group_size=250)
    pq.write_table(t.slice(250), tmp_path / "b.parquet", row_group_size=250)
    inputs = {
        "planned": read_sequences(str(tmp_path)),
        "materialized": read_sequences(str(tmp_path)).materialize(),
        "ray_data_map": read_sequences(str(tmp_path)).limit(10**9),
    }
    get = ray.get
    for name, ds in inputs.items():
        res = validate_dataset(ds, _seq_spec()).materialize()
        fetched = []
        monkeypatch.setattr(ray, "get", lambda refs, **kw: fetched.append(get(refs, **kw)) or fetched[-1])
        got = res.all_violations_table()
        monkeypatch.undo()
        blocks = [b for x in fetched for b in x if b.num_rows]
        assert blocks and sum(b.num_rows for b in blocks) == got.num_rows - res.unique_violations.num_rows
        assert {c.num_chunks for b in blocks for c in b.columns} == {1}, name


def test_planned_and_block_routes_agree(corpus_sf0001, tmp_path, monkeypatch):
    """``read_sequences`` / ``read_table`` Datasets returned unchanged run
    the planned read tasks and start no Ray Data execution; a
    materialized input (``from_arrow``, ``.materialize()``) runs on its
    blocks (listing them may start one execution, which runs no task);
    any other input
    (``.limit``, ``.select_columns``) runs the pass as one Ray Data map.
    All give the same violations, counts, uniqueness rows and row count,
    and with ``sketch=True`` the same drift sketch bytes (built per task
    on the plain-task routes, per batch in-band on the Ray Data one)."""
    from jesse_ray.pipelines.queries import _seq_spec
    from jesse_ray.sources import read_table
    from jesse_ray.sources.parquet import SEQUENCE_COLUMNS, planned_read_tasks
    import pyarrow.dataset as pds

    path = _row_group_file(tmp_path)
    planned = {
        "read_sequences": read_sequences(path),
        # a predicate every row passes
        "predicate": read_sequences(path, predicate=pds.field("doc_id").is_null() | pds.field("doc_id").is_valid()),
        "read_table": read_table(path, columns=SEQUENCE_COLUMNS),
        "from_arrow": ray.data.from_arrow(pq.read_table(path, columns=SEQUENCE_COLUMNS)),
        "materialize": read_sequences(path).materialize(),
    }
    mapped = {
        "limit": read_sequences(path).limit(10**9),
        "select_columns": read_sequences(path).select_columns(SEQUENCE_COLUMNS),
    }
    assert [planned_read_tasks(ds) is not None for ds in planned.values()] == [True] * 3 + [False] * 2
    assert all(planned_read_tasks(ds) is None for ds in mapped.values())

    started = _count_executions(monkeypatch)

    def outputs(ds):
        started.clear()
        res = validate_dataset(ds, _seq_spec())
        got = (_row_set(res.all_violations_table()), res.counts_by_error(),
               _ipc(res.unique_violations), res.metrics["rows"])
        n = len(started)
        sketch = validate_dataset(ds, _seq_spec(), sketch=True).materialize().sketch
        return (*got, sketch.to_bytes(), n)

    want = outputs(planned["read_sequences"])
    assert want[3] == pq.read_metadata(path).num_rows and want[1] and want[5] == 0
    assert SketchBundle.from_bytes(want[4]).rows == want[3]
    executions = {"from_arrow": {0, 1}, "materialize": {0, 1}, "limit": {1}, "select_columns": {1}}
    for name, ds in {**planned, **mapped}.items():
        *got, n = outputs(ds)
        assert got == list(want[:5]) and n in executions.get(name, {0}), name


def test_error_handler_runs_once_per_block(corpus_sf0001, tmp_path):
    """``validate(error_handler=...)`` is called once per file piece of a
    planned read (one call per read task of this one-file input), as the
    map of a Ray Data read is: a per-call cap keeps one row per task, the
    rows ``fused_violations``' Ray Data map keeps over the same read.  On
    any other input the pass is that map."""
    import dataclasses

    from jesse_ray.pipelines.queries import _seq_spec
    from jesse_ray.sources.parquet import planned_read_tasks

    # row checks only: the handler does not see the referential rows
    spec = dataclasses.replace(_seq_spec(), referential=[])
    path = _row_group_file(tmp_path)
    tasks = len(planned_read_tasks(read_sequences(path)))
    # keeps at most one violation per call (defined here: workers cannot
    # import this module)
    kw = {"error_handler": lambda viol, allowed: viol.slice(0, 1)}

    def validated(ds):
        return validate_dataset(ds, spec, check_unique=False, **kw).all_violations_table()

    def mapped(ds):
        refs = fused_violations(ds, compile_spec(spec), **kw).materialize().to_arrow_refs()
        return pa.concat_tables(ray.get(refs))

    got = validated(read_sequences(path))
    assert got.num_rows == tasks
    assert _row_set(got) == _row_set(mapped(read_sequences(path)))
    limited = read_sequences(path).limit(10**9)
    assert _row_set(validated(limited)) == _row_set(mapped(limited))


def test_write_violations_replaces_part_files(ray_session, tmp_path):
    """Writing into one directory again — from a result with fewer
    non-empty blocks, and from a lazily drained one — leaves exactly the
    last result's rows: its own part files replace the old ones, and
    no other file is touched."""
    import json as _json

    blocks, spec = _keyed_corpus()

    def rows(t: pa.Table) -> list:
        return sorted(_json.dumps(r, sort_keys=True) for r in t.to_pylist())

    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept")
    for bs, lazy in ((blocks, False), (blocks, False), (blocks[:3], False), (blocks[:5], True)):
        res = validate_dataset(ray.data.from_arrow(bs), spec)
        if lazy:
            want = res.all_violations_table()
        else:
            want = res.materialize().all_violations_table()
        res.write_violations(str(out))
        got = pa.concat_tables([pq.read_table(p) for p in sorted(out.glob("*.parquet"))])
        assert rows(got) == rows(want)
    assert sorted(p.name for p in out.glob("part-*.parquet")) == [f"part-{i:05d}.parquet" for i in range(5)]
    assert (out / "notes.txt").read_text() == "kept"


def test_partition_sketch_matches_standalone(tmp_path, corpus_sf0001):
    """The partition sketch built in the fused pass and folded by the
    drain is the standalone ``sketch_dataset`` bundle byte for byte,
    whatever order the blocks arrive in."""
    from jesse_ray.checkpoint import run_validation
    from jesse_ray.pipelines.queries import _seq_spec

    files, _ = _sf0001_shards(tmp_path)
    run_validation(files, _seq_spec(), tmp_path / "out", files_per_partition=len(files), sketch=True)
    (part,) = [p for p in (tmp_path / "out").iterdir() if p.is_dir()]
    want = sketch_dataset(ray.data.read_parquet(files, columns=["n_tok", "tokens"]))
    assert want.rows > 1_000
    assert (part / "sketch.bin").read_bytes() == want.to_bytes()


def test_jsonl_corpus_parity(tmp_path, corpus_sf0001):
    """A jsonl corpus (the reference CLI's native instance format) must
    validate identically to the same rows read from parquet."""
    import json as _json

    import pyarrow.parquet as pq

    from jesse_ray import testgen
    from jesse_ray.engine import validate_dataset
    from jesse_ray.pipelines.queries import _seq_spec
    from jesse_ray.sources import read_corpus, read_sequences

    pq_path = str(testgen.corpus_path("sf0.001"))
    rows = pq.read_table(pq_path, columns=["doc_id", "tokens", "n_tok", "source"]).to_pylist()
    jl = tmp_path / "seq.jsonl"
    with open(jl, "w") as f:
        for r in rows:
            f.write(_json.dumps(r) + "\n")

    res_pq = validate_dataset(read_sequences(pq_path), _seq_spec(), check_unique=False)
    res_jl = validate_dataset(
        read_corpus(str(jl), format="jsonl"), _seq_spec(), check_unique=False
    )
    assert res_pq.counts_by_error() == res_jl.counts_by_error()


def test_cross_partition_duplicate_keys(tmp_path, ray_session):
    """Corpus-wide uniqueness: a doc_id duplicated across two checkpoint
    PARTITIONS must be reported (the per-partition check missed it)."""
    import pyarrow.parquet as pq

    from jesse_ray.checkpoint import run_validation
    from jesse_ray.spec import TableSpec, ColumnSpec

    def mk(path, ids):
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, type=pa.string()),
                      "n_tok": pa.array([1] * len(ids), type=pa.int32())}),
            path,
        )

    a, b = tmp_path / "a.parquet", tmp_path / "b.parquet"
    mk(str(a), ["x-1", "x-2"])
    mk(str(b), ["x-2", "x-3"])  # x-2 duplicated ACROSS files

    spec = TableSpec(key_column="doc_id")
    spec.columns["doc_id"] = ColumnSpec(type="string", required=True)
    spec.unique_keys = ["doc_id"]

    s = run_validation([str(a), str(b)], spec, tmp_path / "out", files_per_partition=1)
    assert s["partitions"] == 2
    assert s["unique_violations"] == 1
    assert not s["passed"]
    uv = pq.read_table(tmp_path / "out" / "unique_violations.parquet")
    assert uv["doc_id"].to_pylist() == ["x-2"]


def test_csv_corpus_parity(tmp_path, ray_session):
    """A flat csv corpus must validate identically to the same rows read
    from parquet (csv carries no list columns — flat schemas only)."""
    import pyarrow.parquet as pq

    from jesse_ray.engine import validate_dataset
    from jesse_ray.sources import read_corpus
    from jesse_ray.spec import ColumnSpec, TableSpec

    tbl = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "n_tok": pa.array([5, -1, 900, 30], type=pa.int64()),
        "source": pa.array(["web", "web", "book", "??"]),
    })
    pq_path = tmp_path / "flat.parquet"
    pq.write_table(tbl, pq_path)
    csv_path = tmp_path / "flat.csv"
    with open(csv_path, "w") as f:
        f.write("doc_id,n_tok,source\n")
        for r in tbl.to_pylist():
            f.write(f"{r['doc_id']},{r['n_tok']},{r['source']}\n")

    spec = TableSpec(
        columns={
            "doc_id": ColumnSpec(required=True),
            "n_tok": ColumnSpec(minimum=0, maximum=512),
            "source": ColumnSpec(pattern="^[a-z]+$"),
        }
    )
    from jesse_ray.sources import read_table

    res_pq = validate_dataset(read_table(str(pq_path)), spec, check_unique=False)
    res_csv = validate_dataset(
        read_corpus(str(csv_path), format="csv"), spec, check_unique=False
    )
    assert res_pq.counts_by_error() == res_csv.counts_by_error()
    assert sum(res_csv.counts_by_error().values()) > 0


def test_infer_spec_roundtrip(ray_session):
    import pyarrow as pa
    from jesse_ray.compiler import compile_spec
    from jesse_ray.engine import row_violations
    from jesse_ray.infer import infer_spec

    t = pa.table({
        "doc_id": ["a", "b", "c"],
        "tokens": pa.array([[1, 2], [3], [4, 5, 6]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([2, 1, 3], type=pa.int32()),
        "source": ["x", "y", "x"],
    })
    spec, ev = infer_spec(ray.data.from_arrow(t), key_column="doc_id")
    assert spec.columns["source"].enum == ["x", "y"]
    assert spec.columns["n_tok"].minimum == 1 and spec.columns["n_tok"].maximum == 3
    assert spec.columns["tokens"].min_items == 1 and spec.columns["tokens"].max_items == 3
    assert spec.columns["tokens"].items.minimum == 1 and spec.columns["tokens"].items.maximum == 6
    assert spec.unique_keys == ["doc_id"]
    # the corpus passes its own inferred spec
    assert row_violations(ray.data.from_arrow(t), compile_spec(spec)).count() == 0
    # a row outside the inferred bounds violates it
    bad = pa.table({
        "doc_id": ["z"],
        "tokens": pa.array([[99]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([9], type=pa.int32()),
        "source": ["nope"],
    })
    assert row_violations(ray.data.from_arrow(bad), compile_spec(spec)).count() > 0
    kinds = set(zip(ev["column"].to_pylist(), ev["constraint"].to_pylist()))
    assert ("source", "enum") in kinds and ("tokens", "item_maximum") in kinds


def test_infer_spec_json_schema_roundtrip(ray_session):
    """to_json_schema → from_json_schema rebuilds the SAME checks:
    the CLI's --infer-spec writes the schema then validates through the
    public loader, so serialization must preserve every constraint
    (including the uniqueKeys extension keyword)."""
    import json

    import pyarrow as pa
    from jesse_ray.compiler import compile_spec
    from jesse_ray.engine import row_violations
    from jesse_ray.infer import infer_spec, to_json_schema
    from jesse_ray.spec import from_json_schema

    t = pa.table({
        "doc_id": ["a", "b", "c"],
        "tokens": pa.array([[1, 2], [3], [4, 5, 6]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([2, 1, 3], type=pa.int32()),
        "source": ["x", "y", "x"],
    })
    spec, _ = infer_spec(ray.data.from_arrow(t), key_column="doc_id")
    doc = json.loads(json.dumps(to_json_schema(spec)))  # through-the-file fidelity
    assert doc["$schema"] == "http://json-schema.org/draft-04/schema#"
    assert sorted(doc["required"]) == ["doc_id", "n_tok", "source", "tokens"]
    assert doc["uniqueKeys"] == ["doc_id"]
    spec2 = from_json_schema(doc)
    assert spec2.unique_keys == ["doc_id"]
    assert spec2.columns["source"].enum == ["x", "y"]
    assert spec2.columns["tokens"].items.maximum == 6
    # reloaded spec accepts the corpus and rejects the same bad row
    assert row_violations(ray.data.from_arrow(t), compile_spec(spec2)).count() == 0
    bad = pa.table({
        "doc_id": ["z"],
        "tokens": pa.array([[99]], type=pa.list_(pa.int32())),
        "n_tok": pa.array([9], type=pa.int32()),
        "source": ["nope"],
    })
    errs = row_violations(ray.data.from_arrow(bad), compile_spec(spec2))
    assert errs.count() == row_violations(
        ray.data.from_arrow(bad), compile_spec(spec)
    ).count() > 0


def test_orc_and_feather_readers_roundtrip(ray_session, tmp_path):
    import pyarrow.feather as feather
    import pyarrow.orc as orc

    import ray.data

    from jesse_ray.sources import read_corpus

    t = pa.table({
        "doc_id": pa.array([f"d{i}" for i in range(500)]),
        "tokens": pa.array([[i, i + 1, i + 2] for i in range(500)],
                           type=pa.list_(pa.int32())),
        "n_tok": pa.array([3] * 500, type=pa.int32()),
    })
    op = str(tmp_path / "c.orc")
    fp = str(tmp_path / "c.feather")
    orc.write_table(t, op, stripe_size=4096)
    feather.write_feather(t, fp, chunksize=64, compression="uncompressed")

    for path, fmt in [(op, "orc"), (fp, "feather")]:
        ds = read_corpus(path, format=fmt, columns=["doc_id", "n_tok"])
        got = ds.to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert len(got) == 500
        assert list(got.columns) == ["doc_id", "n_tok"]
        assert int(got["n_tok"].sum()) == 1500


def test_cli_curate_mode(ray_session, tmp_path, corpus_sf0001):
    """--curate writes the deduped clean corpus as source-partitioned
    parquet with a crash-safe manifest, alongside the validation run."""
    import glob as _glob

    from jesse_ray import run as cli

    out = str(tmp_path / "val")
    cur = str(tmp_path / "curated")
    rc = cli.main([
        "--input", str(testgen.corpus_path("sf0.001")),
        "--allowed-sources", str(testgen.allowed_sources_path("sf0.001")),
        "--output", out, "--curate", cur, "--no-resume",
    ])
    assert rc == 1  # dirty corpus still fails validation
    man = json.load(open(f"{cur}/_manifest.json"))
    assert man["n_rows"] > 0 and man["by"] == "source"
    files = _glob.glob(f"{cur}/source=*/*.parquet")
    assert files
    t = pa.concat_tables([pq.read_table(f) for f in files])
    # curated = unique doc ids, all from the allowed dimension
    ids = t["doc_id"].to_pylist()
    assert len(ids) == len(set(ids)) == man["n_rows"]
    assert set(t["source"].to_pylist()) <= set(testgen.SOURCES)


def test_sigkill_mid_run_resume_consistency(ray_session, tmp_path):
    """Checkpoint-scale e2e (VERDICT r2 item #10): a run_validation with
    drift gating + corpus uniqueness is SIGKILLed mid-run in a child
    process; the resume (a) skips exactly the partitions whose manifest
    records survived the kill, (b) tolerates a torn last manifest line,
    (c) re-executes the corpus-scoped uniqueness pass, and (d) lands on
    the same totals as an uninterrupted run."""
    import os
    import signal
    import subprocess
    import sys
    import time as _time

    from jesse_ray import testgen
    from jesse_ray.checkpoint import (
        Manifest, build_reference_digest, run_validation,
    )
    from jesse_ray.pipelines.queries import _seq_spec

    testgen.generate("sf0.01")
    tbl = pq.read_table(str(testgen.corpus_path("sf0.01")))
    n = tbl.num_rows
    files = []
    for i in range(4):
        p = tmp_path / f"shard-{i}.parquet"
        pq.write_table(tbl.slice(i * n // 4, n // 4), p)
        files.append(str(p))
    ref_path = str(tmp_path / "ref.bin")
    build_reference_digest([str(testgen.clean_corpus_path("sf0.01"))], ref_path)

    out = tmp_path / "out"
    child_code = f"""
import ray, sys
sys.path.insert(0, {str(REPO_ROOT)!r})
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from jesse_ray.checkpoint import run_validation
from jesse_ray.pipelines.queries import _seq_spec
run_validation({files!r}, _seq_spec(), {str(out)!r}, files_per_partition=1,
               drift_reference={ref_path!r}, fail_on_drift=True)
"""
    child = subprocess.Popen([sys.executable, "-c", child_code], cwd=REPO_ROOT,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    manifest_path = out / "manifest.jsonl"
    deadline = _time.time() + 180
    while _time.time() < deadline:
        if manifest_path.exists() and manifest_path.read_text().count("\n") >= 1:
            break
        if child.poll() is not None:
            break  # finished before we could kill — still a valid resume test
        _time.sleep(0.02)
    if child.poll() is None:
        os.kill(child.pid, signal.SIGKILL)
    child.wait()

    survived = Manifest(manifest_path).load()
    n_survived = len(survived)
    assert n_survived >= 1, "kill landed before any partition completed"
    # simulate the worst-case torn write the SIGKILL can leave behind
    with open(manifest_path, "a") as f:
        f.write('{"partition_id": "part-torn", "fragm')

    resumed = run_validation(files, _seq_spec(), out, files_per_partition=1,
                             drift_reference=ref_path, fail_on_drift=True)
    assert resumed["partitions"] == 4
    assert resumed["skipped"] == n_survived  # only un-checkpointed work reran
    # uniqueness is corpus-scoped: it must re-execute on resume
    uniq = out / "unique_violations.parquet"
    assert uniq.exists() and uniq.stat().st_mtime >= _time.time() - 120

    fresh = run_validation(files, _seq_spec(), tmp_path / "fresh",
                           files_per_partition=1,
                           drift_reference=ref_path, fail_on_drift=True)
    for k in ("violations", "failed", "unique_violations", "passed",
              "drifted_partitions"):
        assert resumed[k] == fresh[k], k
    # manifest is now complete and self-consistent: 4 valid records
    final = Manifest(manifest_path).load()
    assert len(final) == 4
    assert all(r.spec_version == next(iter(final.values())).spec_version
               for r in final.values())


def test_spec_store_mtime_refresh(tmp_path):
    """jesse_database:list_outdated/1 parity (src/jesse_database.erl:
    251-283): a new file is outdated; a touched file is outdated; an
    unchanged file keeps its compiled entry."""
    import json as _json
    import os as _os
    import time as _time

    from jesse_ray.engine import ValidationEngine

    d = tmp_path / "specs"
    d.mkdir()
    (d / "a.json").write_text(_json.dumps(
        {"properties": {"n_tok": {"type": "integer", "minimum": 0}}}))
    eng = ValidationEngine()
    assert eng.load_specs(str(d)) == ["a"]
    a0 = eng.get("a")
    assert eng.list_outdated(str(d)) == []
    assert eng.refresh_specs(str(d)) == []
    assert eng.get("a") is a0  # unchanged file keeps its compiled form

    # new file -> outdated -> refresh loads it
    (d / "b.json").write_text(_json.dumps(
        {"properties": {"source": {"type": "string"}}}))
    assert [p.endswith("b.json") for p in eng.list_outdated(str(d))] == [True]
    assert eng.refresh_specs(str(d)) == ["b"]
    assert eng.get("b").spec.columns

    # touched file (newer mtime) -> recompiled
    _time.sleep(0.01)
    (d / "a.json").write_text(_json.dumps(
        {"properties": {"n_tok": {"type": "integer", "minimum": 5}}}))
    _os.utime(d / "a.json")
    assert eng.refresh_specs(str(d)) == ["a"]
    assert eng.get("a") is not a0
