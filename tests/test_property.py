"""Property-based engine ↔ single-row-oracle parity (SURVEY §5.2).

Random batches (seeded by hypothesis) over a spec exercising most
keyword families; the vectorized engine's violation records must match
the pure-Python draft-04 oracle record-for-record.  No Ray needed —
check_batch is pure Arrow.
"""

import json

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from jesse_ray.compiler import compile_spec
from jesse_ray.oracle import validate_row
from jesse_ray.spec import ColumnSpec, ConsistencyRule, TableSpec


#: element dtypes of ``xs``: int64, the corpus's int32, a narrow and an
#: unsigned width (the range kernel compares on the column's own dtype)
XS_TYPES = [pa.int64(), pa.int32(), pa.int8(), pa.uint16()]
#: ``xs`` items (minimum, exclusiveMinimum, maximum, exclusiveMaximum):
#: the first three fit every XS_TYPES dtype; each later one holds a bound
#: some dtype cannot represent (non-integral, beyond int32 or int8,
#: negative on uint16)
XS_BOUNDS = [
    (0, False, 50, False),
    (0, False, 50, True),
    (2, True, 49, False),
    (0.5, False, 50, False),
    (0, False, 2**40, False),
    (-1, False, 300, True),
    (-200, False, 49.5, False),
]


def _spec(bounds: tuple) -> TableSpec:
    spec = TableSpec(key_column="doc_id")
    spec.columns["doc_id"] = ColumnSpec(type="string", required=True, pattern=r"^d-[0-9]+$")
    spec.columns["n"] = ColumnSpec(
        type="integer", minimum=0, maximum=100, exclusive_maximum=True, multiple_of=2
    )
    spec.columns["s"] = ColumnSpec(enum=["a", "b", "c"], min_length=1, max_length=2)
    spec.columns["xs"] = ColumnSpec(
        min_items=1,
        max_items=6,
        unique_items=True,
        items=ColumnSpec(minimum=bounds[0], exclusive_minimum=bounds[1],
                         maximum=bounds[2], exclusive_maximum=bounds[3]),
    )
    spec.columns["m"] = ColumnSpec(divisible_by=3)
    spec.consistency.append(ConsistencyRule(kind="list_len_eq", left="xs", right="n_xs"))
    return spec


SPECS = {b: _spec(b) for b in XS_BOUNDS}
COMPILED = {b: compile_spec(spec) for b, spec in SPECS.items()}


def _row_st(elem):
    return st.fixed_dictionaries(
        {
            "doc_id": st.one_of(
                st.none(),
                st.from_regex(r"^d-[0-9]{1,4}$", fullmatch=True),
                st.text(alphabet="xyz-", min_size=0, max_size=5),
            ),
            "n": st.one_of(st.none(), st.integers(min_value=-5, max_value=105)),
            "s": st.one_of(st.none(), st.sampled_from(["a", "b", "c", "zz", "", "q"])),
            "xs": st.one_of(st.none(), st.lists(elem, min_size=0, max_size=8)),
            "m": st.one_of(st.none(), st.integers(min_value=-9, max_value=9)),
            "n_xs": st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
        }
    )


@st.composite
def batch_st(draw, max_rows):
    """(xs dtype, xs bounds, rows, pad): ``pad`` rows precede ``rows`` in
    the built table and are sliced off, so the checked table (and its
    flattened ``xs`` values) starts at a non-zero offset.  Null list
    elements appear in about half the batches, leading rows may carry
    empty or null ``xs`` lists."""
    typ = draw(st.sampled_from(XS_TYPES))
    bounds = draw(st.sampled_from(XS_BOUNDS))
    elem = st.integers(min_value=0 if typ == pa.uint16() else -3, max_value=55)
    if draw(st.booleans()):
        elem = st.one_of(st.none(), elem)
    rows = draw(st.lists(_row_st(elem), min_size=1, max_size=max_rows))
    lead = draw(st.integers(min_value=0, max_value=min(3, len(rows))))
    rows = [{**r, "xs": draw(st.sampled_from([None, []]))} for r in rows[:lead]] + rows[lead:]
    pad = draw(st.lists(_row_st(elem), max_size=3))
    return typ, bounds, rows, pad


def _table(rows: list[dict], xs_type: pa.DataType, pad: list[dict]) -> pa.Table:
    rows = pad + rows
    return pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in rows], type=pa.string()),
            "n": pa.array([r["n"] for r in rows], type=pa.int64()),
            "s": pa.array([r["s"] for r in rows], type=pa.string()),
            "xs": pa.array([r["xs"] for r in rows], type=pa.list_(xs_type)),
            "m": pa.array([r["m"] for r in rows], type=pa.int64()),
            "n_xs": pa.array([r["n_xs"] for r in rows], type=pa.int64()),
        }
    ).slice(len(pad))


def _canon_engine(tbl: pa.Table) -> list[tuple]:
    out = []
    for i in range(tbl.num_rows):
        out.append(
            (
                tbl["doc_id"][i].as_py(),
                tuple(tbl["path"][i].as_py()),
                tbl["error"][i].as_py(),
                json.loads(tbl["value_json"][i].as_py()),
            )
        )
    return sorted(out, key=repr)


def _canon_oracle(recs: list[tuple]) -> list[tuple]:
    return sorted(
        [(d, tuple(p), e, json.loads(v)) for (d, p, e, v) in recs], key=repr
    )


@settings(max_examples=300, deadline=None)
@given(batch_st(max_rows=20))
def test_engine_matches_oracle(batch):
    typ, bounds, rows, pad = batch
    got = _canon_engine(COMPILED[bounds].check_batch(_table(rows, typ, pad)))
    want = _canon_oracle([rec for r in rows for rec in validate_row(SPECS[bounds], r)])
    assert got == want


@settings(max_examples=150, deadline=None)
@given(batch_st(max_rows=12))
def test_invalid_row_mask_matches_oracle_verdicts(batch):
    typ, bounds, rows, pad = batch
    mask = COMPILED[bounds].invalid_row_mask(_table(rows, typ, pad))
    for i, r in enumerate(rows):
        assert bool(mask[i]) == (len(validate_row(SPECS[bounds], r)) > 0)


# ---------------------------------------------------------------------------
# canonicalization property (the reference's prop_get_equal analogue,
# test/prop_get_equal.erl: normalize_and_sort preserves is_equal)

json_value = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.text(alphabet="abc", max_size=4),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(alphabet="xy", min_size=1, max_size=2), children, max_size=3),
    ),
    max_leaves=8,
)


def _shuffle_keys(v, seed=0):
    """Structurally identical value with reversed dict key order."""
    if isinstance(v, dict):
        return {k: _shuffle_keys(v[k]) for k in reversed(list(v))}
    if isinstance(v, list):
        return [_shuffle_keys(x) for x in v]
    return v


def _floatify(v):
    """ints → equal floats (1 → 1.0), recursively."""
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return float(v)
    if isinstance(v, dict):
        return {k: _floatify(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_floatify(x) for x in v]
    return v


@settings(max_examples=200, deadline=None)
@given(json_value)
def test_canon_key_is_key_order_insensitive_and_cross_numeric(v):
    from jesse_ray.compiler import _canon_key

    # key order must not matter (src/jesse_lib.erl:148-197)
    assert _canon_key(v) == _canon_key(_shuffle_keys(v))
    # 1 == 1.0 deep equality (src/jesse_lib.erl:177-181)
    assert _canon_key(v) == _canon_key(_floatify(v))


@settings(max_examples=200, deadline=None)
@given(json_value, json_value)
def test_canon_key_distinguishes_unequal(a, b):
    from jesse_ray.compiler import _canon_key

    # soundness: equal canon ⟹ values are deep-equal under the
    # reference's semantics (numbers cross-type, dict order free)
    if _canon_key(a) == _canon_key(b):
        assert _canon_key(_floatify(a)) == _canon_key(_floatify(b))


# ---------------------------------------------------------------------------
# round-2 keywords: schema-form dependencies, anyOf, draft-6 integer
# leniency, uniqueItems over lists with nulls — engine ↔ oracle parity


def _spec2() -> TableSpec:
    spec = TableSpec(key_column="doc_id", dialect="draft6")
    spec.columns["doc_id"] = ColumnSpec(type="string", required=True)
    spec.columns["f"] = ColumnSpec(type="integer")  # float column + draft-6 leniency
    spec.columns["a"] = ColumnSpec(
        any_of=[ColumnSpec(type="string", pattern="^x"), ColumnSpec(type="string", min_length=4)]
    )
    spec.columns["ys"] = ColumnSpec(unique_items=True)
    dep = TableSpec(key_column="doc_id")
    dep.columns["f"] = ColumnSpec(minimum=0)
    spec.schema_dependencies["a"] = dep
    return spec


SPEC2 = _spec2()
COMPILED2 = compile_spec(SPEC2)

row2_st = st.fixed_dictionaries(
    {
        "doc_id": st.one_of(st.none(), st.sampled_from(["r1", "r2", "r3"])),
        "f": st.one_of(st.none(), st.sampled_from([-2.0, -1.5, 0.0, 1.0, 1.5, 2.0])),
        "a": st.one_of(st.none(), st.sampled_from(["xab", "ab", "long-enough", "q"])),
        "ys": st.one_of(
            st.none(),
            st.lists(
                st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
                min_size=0, max_size=5,
            ),
        ),
    }
)


def _table2(rows: list[dict]) -> pa.Table:
    return pa.table(
        {
            "doc_id": pa.array([r["doc_id"] for r in rows], type=pa.string()),
            "f": pa.array([r["f"] for r in rows], type=pa.float64()),
            "a": pa.array([r["a"] for r in rows], type=pa.string()),
            "ys": pa.array([r["ys"] for r in rows], type=pa.list_(pa.int64())),
        }
    )


@given(st.lists(row2_st, min_size=1, max_size=24))
@settings(max_examples=120, deadline=None)
def test_engine_matches_oracle_round2_keywords(rows):
    tbl = _table2(rows)
    got = set()
    v = COMPILED2.check_batch(tbl)
    for i in range(v.num_rows):
        got.add((v["doc_id"][i].as_py(), tuple(v["path"][i].as_py()), v["error"][i].as_py()))
    want = set()
    for r in rows:
        for d, p, e, _val in validate_row(SPEC2, r):
            want.add((d, p, e))
    assert got == want


# ---------------------------------------------------------------------------
# nested struct properties / patternProperties / required fuzz


NESTED_SPEC = None
NESTED_COMPILED = None


def _nested():
    global NESTED_SPEC, NESTED_COMPILED
    if NESTED_SPEC is None:
        from jesse_ray.spec import from_json_schema

        NESTED_SPEC = from_json_schema(
            {"properties": {"meta": {
                "type": "object",
                "properties": {"lang": {"type": "string", "pattern": "^[a-z]{2}$"},
                               "score": {"minimum": 0, "maximum": 10}},
                "patternProperties": {"^x_": {"type": "integer", "multipleOf": 2}},
                "required": ["lang"],
            }}},
            key_column=None,
        )
        NESTED_COMPILED = compile_spec(NESTED_SPEC)
    return NESTED_SPEC, NESTED_COMPILED


_NESTED_TYP = pa.struct([("lang", pa.string()), ("score", pa.int64()), ("x_a", pa.int64())])

nested_meta_st = st.one_of(
    st.none(),
    st.fixed_dictionaries({
        "lang": st.one_of(st.none(), st.sampled_from(["en", "EN", "e", "de", "xyz"])),
        "score": st.one_of(st.none(), st.integers(min_value=-3, max_value=13)),
        "x_a": st.one_of(st.none(), st.integers(min_value=-4, max_value=5)),
    }),
)


@given(st.lists(nested_meta_st, min_size=1, max_size=20))
@settings(max_examples=150, deadline=None)
def test_nested_struct_matches_oracle(vals):
    spec, compiled = _nested()
    t = pa.table({"meta": pa.array(vals, type=_NESTED_TYP)})
    v = compiled.check_batch(t)
    got = sorted((tuple(v["path"][i].as_py()), v["error"][i].as_py()) for i in range(v.num_rows))
    want = sorted((p, e) for val in vals for _d, p, e, _x in validate_row(spec, {"meta": val}))
    assert got == want
