"""Compiler unit tests — no Ray needed; pure Arrow-batch checks.

Re-expresses the reference's keyword conformance cases (the official
JSON-Schema-Test-Suite draft-04 semantics the reference passes via
test/jesse_tests_draft4_SUITE.erl) as Dataset-batch assertions per
FIXTURES.md F3.
"""

import decimal
import json

import numpy as np
import pyarrow as pa
import pytest

from jesse_ray import errors as E
from jesse_ray.compiler import compile_spec
from jesse_ray.spec import (
    ColumnSpec,
    ConsistencyRule,
    TableSpec,
    from_json_schema,
    sequences_spec,
)


def _spec_one(col: str, cs: ColumnSpec, key: str | None = None) -> TableSpec:
    s = TableSpec(key_column=key)
    s.columns[col] = cs
    return s


def _errors(compiled, tbl):
    v = compiled.check_batch(tbl)
    return [(tuple(p), e) for p, e in zip(v["path"].to_pylist(), v["error"].to_pylist())]


def test_required_null_and_missing_column():
    # missing_required_property (src/jesse_validator_draft4.erl:1044-1058)
    c = compile_spec(_spec_one("x", ColumnSpec(required=True)))
    tbl = pa.table({"x": pa.array(["a", None, "b"])})
    assert _errors(c, tbl) == [(("x",), E.MISSING_REQUIRED_PROPERTY)]
    # column absent entirely → every row violates
    tbl2 = pa.table({"y": pa.array([1, 2])})
    assert _errors(c, tbl2) == [(("x",), E.MISSING_REQUIRED_PROPERTY)] * 2


def test_empty_required_array_is_schema_invalid():
    # draft-04 rejects required: [] (src/jesse_validator_draft4.erl:1044-1047)
    with pytest.raises(E.SchemaInvalidError):
        from_json_schema({"properties": {"x": {}}, "required": []})


def test_enum_membership_and_cross_numeric_equality():
    # enum with 1.0 == 1 deep equality (src/jesse_lib.erl:177-181)
    c = compile_spec(_spec_one("x", ColumnSpec(enum=[1, "a"])))
    tbl = pa.table({"x": pa.array([1.0, 2.0])})
    assert _errors(c, tbl) == [(("x",), E.NOT_IN_ENUM)]
    c2 = compile_spec(_spec_one("s", ColumnSpec(enum=["web", "books"])))
    t2 = pa.table({"s": pa.array(["web", "crawl-x", None])})
    assert _errors(c2, t2) == [(("s",), E.NOT_IN_ENUM)]  # null skipped


def test_minimum_maximum_exclusive_bounds():
    # draft-04 boolean exclusive modifiers (src/jesse_validator_draft4.erl:149-184)
    cs = ColumnSpec(minimum=1, maximum=10, exclusive_maximum=True)
    c = compile_spec(_spec_one("n", cs))
    tbl = pa.table({"n": pa.array([0, 1, 5, 10, 11], type=pa.int32())})
    errs = _errors(c, tbl)
    assert errs == [(("n",), E.NOT_IN_RANGE)] * 3  # 0, 10, 11
    cs2 = ColumnSpec(minimum=1, exclusive_minimum=True)
    c2 = compile_spec(_spec_one("n", cs2))
    assert _errors(c2, pa.table({"n": pa.array([1])})) == [(("n",), E.NOT_IN_RANGE)]


def test_multiple_of_int_and_float():
    # reference formula (src/jesse_validator_draft4.erl:1019-1029)
    c = compile_spec(_spec_one("n", ColumnSpec(multiple_of=3)))
    assert _errors(c, pa.table({"n": pa.array([6, 7])})) == [(("n",), E.NOT_MULTIPLE_OF)]
    cf = compile_spec(_spec_one("n", ColumnSpec(multiple_of=0.5)))
    assert _errors(cf, pa.table({"n": pa.array([1.5, 1.7])})) == [(("n",), E.NOT_MULTIPLE_OF)]


def test_pattern_unanchored():
    # unanchored re:run semantics (src/jesse_validator_draft4.erl:888-893)
    c = compile_spec(_spec_one("s", ColumnSpec(pattern="a+b")))
    tbl = pa.table({"s": pa.array(["xxaab", "b", "aab"])})
    assert _errors(c, tbl) == [(("s",), E.NO_MATCH)]


def test_min_max_length_unicode():
    # unicode codepoint lengths (src/jesse_validator_draft4.erl:915-943)
    c = compile_spec(_spec_one("s", ColumnSpec(min_length=2, max_length=3)))
    tbl = pa.table({"s": pa.array(["é", "éé", "ééé", "éééé"])})
    errs = _errors(c, tbl)
    assert errs == [(("s",), E.WRONG_LENGTH)] * 2


def test_min_max_items_and_consistency():
    spec = TableSpec(key_column=None)
    spec.columns["t"] = ColumnSpec(min_items=1, max_items=3)
    spec.columns["n"] = ColumnSpec()
    spec.consistency.append(ConsistencyRule(kind="list_len_eq", left="t", right="n"))
    c = compile_spec(spec)
    tbl = pa.table(
        {
            "t": pa.array([[1], [], [1, 2, 3, 4], [1, 2]], type=pa.list_(pa.int32())),
            "n": pa.array([1, 0, 4, 99], type=pa.int32()),
        }
    )
    errs = _errors(c, tbl)
    assert (("t",), E.WRONG_SIZE) in errs  # minItems/maxItems rows
    # consistency rule fires for the n=99 row only
    assert errs.count((("t",), E.WRONG_SIZE)) == 3  # [], [1,2,3,4] via items_len; [1,2] via consistency


def test_unique_items_cross_numeric():
    # [1.0, 1] IS a duplicate (extra/uniqueItemsExtra.json:16-20 semantics)
    c = compile_spec(_spec_one("t", ColumnSpec(unique_items=True)))
    tbl = pa.table({"t": pa.array([[1.0, 1.5], [1.0, 1.0], [2.0, 2.5, 2.0]], type=pa.list_(pa.float64()))})
    assert _errors(c, tbl) == [(("t",), E.NOT_UNIQUE)] * 2


def test_unique_items_null_elements_numeric():
    # null == null in the reference's deep equality (src/jesse_lib.erl:219-261):
    # the numeric fast path must not let [null, null, 5] slip through via
    # the NaN != NaN float cast (round-2 advisory finding)
    c = compile_spec(_spec_one("t", ColumnSpec(unique_items=True)))
    tbl = pa.table({
        "t": pa.array([[None, None, 5], [None, 3], [1, 2]], type=pa.list_(pa.int64()))
    })
    assert _errors(c, tbl) == [(("t",), E.NOT_UNIQUE)]  # only the double-null row


def test_items_subspec_paths_and_atoms():
    # per-element range with 0-based index paths (src/jesse_error.erl:85-92)
    cs = ColumnSpec(items=ColumnSpec(minimum=0, maximum=9))
    c = compile_spec(_spec_one("t", cs))
    tbl = pa.table({"t": pa.array([[1, -1, 3], [10, 2]], type=pa.list_(pa.int32()))})
    v = c.check_batch(tbl)
    rows = sorted(zip([tuple(p) for p in v["path"].to_pylist()], v["value_json"].to_pylist()))
    assert rows == [(("t", "0"), "10"), (("t", "1"), "-1")]
    assert set(v["error"].to_pylist()) == {E.NOT_IN_RANGE}


def test_combinators():
    # anyOf / oneOf / not atoms (src/jesse_validator_draft4.erl:1125-1242)
    any_spec = ColumnSpec(any_of=[ColumnSpec(minimum=10), ColumnSpec(maximum=0)])
    c = compile_spec(_spec_one("n", any_spec))
    assert _errors(c, pa.table({"n": pa.array([5])})) == [(("n",), E.ANY_SCHEMAS_NOT_VALID)]
    assert _errors(c, pa.table({"n": pa.array([11, -1])})) == []

    one_spec = ColumnSpec(one_of=[ColumnSpec(minimum=0), ColumnSpec(maximum=10)])
    c2 = compile_spec(_spec_one("n", one_spec))
    errs = _errors(c2, pa.table({"n": pa.array([5, -5, 15])}))  # 5 matches both
    assert (("n",), E.MORE_THAN_ONE_SCHEMA_VALID) in errs
    assert errs.count((("n",), E.NOT_ONE_SCHEMA_VALID)) == 0

    not_spec = ColumnSpec(not_=ColumnSpec(enum=["bad"]))
    c3 = compile_spec(_spec_one("s", not_spec))
    assert _errors(c3, pa.table({"s": pa.array(["bad", "ok"])})) == [(("s",), E.NOT_SCHEMA_VALID)]


def test_all_of():
    all_spec = ColumnSpec(all_of=[ColumnSpec(minimum=0), ColumnSpec(maximum=10)])
    c = compile_spec(_spec_one("n", all_spec))
    assert _errors(c, pa.table({"n": pa.array([5, 11, -2])})) == [
        (("n",), E.ALL_SCHEMAS_NOT_VALID)
    ] * 2


def test_dependencies_array_form():
    # col present ⇒ deps present (src/jesse_validator_draft4.erl:637-694)
    spec = TableSpec(key_column=None)
    spec.columns["a"] = ColumnSpec()
    spec.dependencies["a"] = ["b"]
    c = compile_spec(spec)
    tbl = pa.table({"a": pa.array([1, None, 2]), "b": pa.array([None, None, 5])})
    assert _errors(c, tbl) == [(("a",), E.MISSING_DEPENDENCY)]


def test_wrong_type_static_dtype():
    c = compile_spec(_spec_one("x", ColumnSpec(type="integer")))
    tbl = pa.table({"x": pa.array([1.5, 2.5])})  # float column, draft-4: floats aren't integers
    assert _errors(c, tbl) == [(("x",), E.WRONG_TYPE)] * 2
    tbl2 = pa.table({"x": pa.array([1, 2])})
    assert _errors(c, tbl2) == []


def test_format_checks():
    # only the formats the reference checks (src/jesse_validator_draft4.erl:975-1004)
    c = compile_spec(_spec_one("s", ColumnSpec(format="ipv4")))
    tbl = pa.table({"s": pa.array(["127.0.0.1", "999.1.1.1", "nope"])})
    assert _errors(c, tbl) == [(("s",), E.WRONG_FORMAT)] * 2
    cdt = compile_spec(_spec_one("s", ColumnSpec(format="date-time")))
    t2 = pa.table({"s": pa.array(["2024-01-01T10:00:00Z", "2024-13-01T10:00:00Z", "x"])})
    assert _errors(cdt, t2) == [(("s",), E.WRONG_FORMAT)] * 2
    # hostname/uri are accept-all no-ops
    ch = compile_spec(_spec_one("s", ColumnSpec(format="hostname")))
    assert _errors(ch, pa.table({"s": pa.array(["anything goes !!"])})) == []


def test_json_schema_loader_with_refs():
    schema = {
        "definitions": {"tok": {"type": "integer", "minimum": 0}},
        "properties": {
            "n": {"$ref": "#/definitions/tok"},
        },
        "required": ["n"],
    }
    spec = from_json_schema(schema, key_column=None)
    c = compile_spec(spec)
    tbl = pa.table({"n": pa.array([-1, 3])})
    assert _errors(c, tbl) == [(("n",), E.NOT_IN_RANGE)]


def test_violation_row_shape_matches_f4():
    spec = sequences_spec(allowed_sources=["web"])
    c = compile_spec(spec)
    tbl = pa.table(
        {
            "doc_id": pa.array(["BAD"]),
            "tokens": pa.array([[1, 2]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2], type=pa.int32()),
            "source": pa.array(["web"]),
        }
    )
    v = c.check_batch(tbl)
    assert v.schema.names == ["doc_id", "path", "error", "value_json", "schema_fragment"]
    row = v.to_pylist()[0]
    assert row["error"] == E.NO_MATCH
    frag = json.loads(row["schema_fragment"])
    assert frag == {"pattern": "^doc-[0-9]{8}$"}


def test_invalid_row_mask_matches_checks():
    spec = sequences_spec()
    c = compile_spec(spec)
    tbl = pa.table(
        {
            "doc_id": pa.array(["doc-00000001", None]),
            "tokens": pa.array([[1], [2]], type=pa.list_(pa.int32())),
            "n_tok": pa.array([1, 1], type=pa.int32()),
            "source": pa.array(["web", "web"]),
        }
    )
    assert c.invalid_row_mask(tbl).tolist() == [False, True]



def test_nested_decimal_value_json_is_exact():
    # a decimal128(38,20) element inside a list reaches value_json
    # through enum / const violations; its 20 fractional digits must
    # survive (a float round-trip keeps ~17 significant digits), and an
    # integral element of scale > 0 prints as N.0, as a top-level one does
    d = "0.12345678901234567891"
    typ = pa.list_(pa.decimal128(38, 20))
    c = compile_spec(from_json_schema(
        {"properties": {"v": {"enum": [[1]]}, "w": {"const": [1]}}}, key_column=None
    ))
    tbl = pa.table({
        "v": pa.array([[decimal.Decimal(d)]], type=typ),
        "w": pa.array([[decimal.Decimal(d), decimal.Decimal("2.50"), decimal.Decimal("3.00")]],
                      type=typ),
    })
    v = c.check_batch(tbl)
    got = {p[0]: val for p, val in zip(v["path"].to_pylist(), v["value_json"].to_pylist())}
    assert got == {"v": f"[{d}]", "w": f"[{d},2.5,3.0]"}
    assert v["error"].to_pylist() == [E.NOT_IN_ENUM, E.NOT_IN_ENUM]


def test_compiled_spec_pickles_as_its_spec():
    # a CompiledSpec ships as its TableSpec and is rebuilt on unpickle:
    # the same violation rows, and a pickle far smaller than the emit
    # closures pickled by value
    import cloudpickle

    c = compile_spec(sequences_spec(allowed_sources=["web"]))
    c.check_batch(pa.table({"doc_id": ["doc-00000001"]}))  # fills the per-batch memo
    blob = cloudpickle.dumps(c)
    assert len(blob) < 4096
    tbl = pa.table(
        {
            "doc_id": pa.array(["doc-00000001", "BAD", None, "doc-00000004"]),
            "tokens": pa.array([[1, 2], [3, 70_000], [], None], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2, 5, 0, 9_999], type=pa.int32()),
            "source": pa.array(["web", "web", "ftp", None]),
        }
    )
    got = cloudpickle.loads(blob)
    assert got.version == c.version
    want = c.check_batch(tbl)
    assert want.num_rows > 4
    assert got.check_batch(tbl).equals(want)
