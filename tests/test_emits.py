"""The compiled keyword emits: every keyword at top level, inside a nested
struct, inside ``items`` and as draft-3 union / ``disallow`` members gives
the same emission units and the same ``check_batch`` bytes as the pinned
snapshot ``tests/goldens/emits.json``; oneOf and positional items are
evaluated once per batch; ``not`` is reported after ``contains``."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pyarrow as pa
import pytest

from jesse_ray import errors as E
from jesse_ray.compiler import CompiledSpec, compile_spec
from jesse_ray.spec import ColumnSpec, TableSpec, from_json_schema

GOLDEN = Path(__file__).resolve().parent / "goldens" / "emits.json"

#: a numeric sub-schema carrying every keyword a number can fail,
#: combinators included; the first anyOf member fails ``not`` and
#: ``divisibleBy`` together, so its shortest error list holds both
_NUM = {
    "type": "integer",
    "enum": list(range(-2, 40)),
    "minimum": 0,
    "maximum": 36,
    "exclusiveMaximum": True,
    "multipleOf": 2,
    "allOf": [{"minimum": 1}],
    "anyOf": [
        {"not": {"minimum": 0}, "divisibleBy": 4},
        {"enum": [99], "multipleOf": 7, "minimum": 50},
    ],
    "oneOf": [{"minimum": 30}, {"maximum": 5}, {"multipleOf": 10}],
    "not": {"enum": [13, 14]},
    "divisibleBy": 3,
    "disallow": ["boolean", {"minimum": 33}],
}
#: a string sub-schema carrying every string keyword
_STR = {
    "type": "string",
    "enum": ["a", "ab", "abc", "b", "x@y.io"],
    "pattern": "^[a-c]",
    "minLength": 1,
    "maxLength": 3,
    "format": "email",
    "not": {"enum": ["b"]},
    "disallow": [{"maxLength": 1}],
}

SCHEMA = {
    "$schema": "http://json-schema.org/draft-06/schema#",
    "type": "object",
    "required": ["doc_id", "n"],
    "properties": {
        "doc_id": {"type": "string", "pattern": "^d-[0-9]+$", "maxLength": 6},
        "n": _NUM,
        "s": _STR,
        "c": {"const": "k"},
        "fl": {"type": "integer", "minimum": 0},
        "xs": {
            "type": "array",
            "minItems": 1,
            "maxItems": 5,
            "uniqueItems": True,
            "items": {
                "type": "integer",
                "enum": list(range(0, 19)),
                "minimum": 0,
                "maximum": 18,
                "multipleOf": 1,
                "allOf": [{"maximum": 17}],
                "anyOf": [{"minimum": 2}, {"enum": [0]}],
                "oneOf": [{"minimum": 5}, {"maximum": 12}],
                "not": {"enum": [7]},
                "divisibleBy": 1,
                "disallow": [{"enum": [9]}],
            },
            "contains": {"minimum": 15},
        },
        "ss": {"type": "array", "uniqueItems": True, "items": _STR},
        "ps": {
            "type": "array",
            "items": [{"type": "integer", "maximum": 10}, {"minimum": 3}],
            "additionalItems": False,
        },
        "pz": {"items": [{"enum": [1, 2, 3]}], "additionalItems": {"maximum": 5}},
        "u": {"type": ["integer", _STR]},
        "dis": {"disallow": ["string", {"minimum": 10, "maximum": 20, "not": {"enum": [12]}}]},
        "obj": {
            "type": "object",
            "required": ["a", "b"],
            "additionalProperties": False,
            "properties": {
                "a": _NUM,
                "b": {**_STR, "format": "date-time"},
                "l": {
                    "type": "array",
                    "minItems": 1,
                    "maxItems": 3,
                    "uniqueItems": True,
                    "items": {"minimum": 0, "maximum": 9},
                    "contains": {"enum": [4]},
                },
                "pl": {"type": "array", "items": [{"maximum": 5}], "additionalItems": False},
                "inner": {
                    "type": "object",
                    "required": ["x"],
                    "properties": {"x": {"minimum": 0, "not": {"enum": [3]}, "divisibleBy": 2}},
                },
            },
            "patternProperties": {"^p_": {"maximum": 5}},
        },
    },
}


def _spec() -> TableSpec:
    spec = from_json_schema(SCHEMA)
    # two fragments that are not a projection of ``to_fragment()``: an
    # exclusive flag without its bound, a string type with schema members
    spec.columns["m"] = ColumnSpec(maximum=9, exclusive_minimum=True)
    spec.columns["t"] = ColumnSpec(type="string", type_schemas=[ColumnSpec(minimum=2)])
    return spec


def _batch(n: int = 240, seed: int = 7) -> pa.Table:
    rng = np.random.default_rng(seed)

    def nulls(vals, p=0.1):
        return [None if rng.random() < p else v for v in vals]

    def ints(lo, hi):
        return [int(v) for v in rng.integers(lo, hi, n)]

    def pick(pool):
        return [pool[i] for i in rng.integers(0, len(pool), n)]

    def lists(lo, hi, max_len):
        out = []
        for k in rng.integers(0, max_len + 1, n):
            out.append([None if rng.random() < 0.05 else int(v) for v in rng.integers(lo, hi, k)])
        return nulls(out)

    strs = ["a", "ab", "abc", "abcd", "b", "", "x@y.io", "bad", "é", 'a"b', "2024-02-30T00:00:00Z",
            "2024-02-28T10:00:00Z", "1.2.3.4"]
    obj = []
    for _ in range(n):
        if rng.random() < 0.08:
            obj.append(None)
            continue
        obj.append({
            "a": None if rng.random() < 0.1 else int(rng.integers(-3, 42)),
            "b": None if rng.random() < 0.1 else strs[int(rng.integers(0, len(strs)))],
            "l": [int(v) for v in rng.integers(0, 12, int(rng.integers(0, 5)))],
            "pl": [int(v) for v in rng.integers(0, 9, int(rng.integers(0, 3)))],
            "inner": None if rng.random() < 0.1 else {
                "x": None if rng.random() < 0.2 else int(rng.integers(-2, 8))},
            "p_1": int(rng.integers(0, 9)),
            "zz": None if rng.random() < 0.7 else int(rng.integers(0, 3)),
        })
    return pa.table({
        "doc_id": pa.array(nulls([f"d-{i}" if i % 17 else f"x{i}" for i in range(n)], 0.05)),
        "n": pa.array(nulls(ints(-3, 42)), type=pa.int64()),
        "s": pa.array(nulls(pick(strs)), type=pa.string()),
        "c": pa.array(nulls(pick(["k", "j"])), type=pa.string()),
        "fl": pa.array(nulls(pick([1.0, 2.5, -3.0, 4.0])), type=pa.float64()),
        "xs": pa.array(lists(0, 21, 6), type=pa.list_(pa.int64())),
        "ss": pa.array(nulls([pick(strs)[:k] for k in rng.integers(0, 4, n)]),
                       type=pa.list_(pa.string())),
        "ps": pa.array(lists(0, 14, 4), type=pa.list_(pa.int64())),
        "pz": pa.array(lists(0, 8, 4), type=pa.list_(pa.int64())),
        "u": pa.array(nulls(pick(strs)), type=pa.string()),
        "dis": pa.array(nulls(ints(5, 25)), type=pa.int64()),
        "obj": pa.array(obj),
        "m": pa.array(nulls(ints(0, 14)), type=pa.int64()),
        "t": pa.array(nulls(ints(0, 5)), type=pa.int64()),
    })


def _ipc_sha256(t: pa.Table) -> str:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def snapshot() -> dict:
    """The emits of :func:`_spec` and the ``check_batch`` digests of
    :func:`_batch`, in the layout of ``tests/goldens/emits.json``."""
    compiled = compile_spec(_spec())
    tbl = _batch()
    return {
        "emits": [[em.name, em.error, em.path, em.fragment] for em in compiled._emits],
        "check_batch_sha256": {
            str(a): _ipc_sha256(compiled.check_batch(tbl, allowed_errors=a))
            for a in (None, 0, 2)
        },
    }


def test_emits_match_snapshot():
    """Each emit keeps its name, error, path and fragment, in order, and
    ``check_batch`` gives the same Arrow IPC bytes at every budget."""
    assert snapshot() == json.loads(GOLDEN.read_text())


def _count_evaluations(monkeypatch, subs) -> list[int]:
    """Calls of ``_spec_valid_mask`` on each of ``subs``, as a live list."""
    counts = [0] * len(subs)
    real = CompiledSpec._spec_valid_mask

    def counting(self, cs, arr):
        for k, sub in enumerate(subs):
            if cs is sub:
                counts[k] += 1
        return real(self, cs, arr)

    monkeypatch.setattr(CompiledSpec, "_spec_valid_mask", counting)
    return counts


def test_one_of_members_evaluated_once_per_batch(monkeypatch):
    """The not_one_schema_valid and more_than_one_schema_valid emits
    share one evaluation of each member."""
    cs = ColumnSpec(one_of=[ColumnSpec(minimum=30), ColumnSpec(maximum=5), ColumnSpec(multiple_of=10)])
    compiled = compile_spec(TableSpec(key_column="doc_id", columns={"n": cs}))
    counts = _count_evaluations(monkeypatch, cs.one_of)
    tbl = pa.table({"doc_id": ["a", "b", "c", "d"], "n": [0, 10, 17, None]})
    v = compiled.check_batch(tbl)
    assert list(zip(v["doc_id"].to_pylist(), v["error"].to_pylist())) == [
        ("c", E.NOT_ONE_SCHEMA_VALID), ("a", E.MORE_THAN_ONE_SCHEMA_VALID)]
    assert counts == [1, 1, 1]


def test_positional_items_evaluated_once_per_batch(monkeypatch):
    """posItems and addItems share one positional evaluation."""
    cs = ColumnSpec(items_positional=[ColumnSpec(maximum=10), ColumnSpec(minimum=3)],
                    additional_items=False)
    compiled = compile_spec(TableSpec(key_column="doc_id", columns={"xs": cs}))
    counts = _count_evaluations(monkeypatch, cs.items_positional)
    tbl = pa.table({"doc_id": ["a", "b", "c"], "xs": [[11, 4], [1, 2, 3], None]})
    v = compiled.check_batch(tbl)
    assert list(zip(v["doc_id"].to_pylist(), v["path"].to_pylist(), v["error"].to_pylist())) == [
        ("a", ["xs", "0"], E.NOT_SCHEMA_VALID),
        ("b", ["xs", "1"], E.NOT_SCHEMA_VALID),
        ("b", ["xs"], E.NO_EXTRA_ITEMS_ALLOWED),
    ]
    assert counts == [1, 1]


def test_not_is_reported_after_divisible_by_disallow_and_contains():
    """Sub-schema errors follow emission order, where ``not`` comes after
    divisibleBy, disallow and contains: in anyOf's shortest error list,
    in the rows of a nested struct, and so in the one error
    ``allowed_errors=0`` keeps for a nested field failing both."""
    x = ColumnSpec(not_=ColumnSpec(minimum=0), divisible_by=4, disallow_schemas=[ColumnSpec(maximum=2)])
    worse = ColumnSpec(type="string", enum=["q"], minimum=50, multiple_of=7)
    spec = TableSpec(key_column="doc_id", columns={
        "n": ColumnSpec(any_of=[x, worse]),
        "obj": ColumnSpec(properties={"x": x}),
    })
    tbl = pa.table({"doc_id": ["a", "b"], "n": [1, 8], "obj": [{"x": 1}, {"x": 8}]})
    v = compile_spec(spec).check_batch(tbl)
    got = list(zip(v["doc_id"].to_pylist(), v["path"].to_pylist(), v["error"].to_pylist(),
                   v["value_json"].to_pylist()))
    assert got == [
        ("a", ["n"], E.ANY_SCHEMAS_NOT_VALID,
         '{"value":1,"shortest_errors":["not_divisible","not_allowed","not_schema_valid"]}'),
        ("b", ["n"], E.ANY_SCHEMAS_NOT_VALID, '{"value":8,"shortest_errors":["not_schema_valid"]}'),
        ("a", ["obj", "x"], E.NOT_DIVISIBLE, "1"),
        ("a", ["obj", "x"], E.NOT_ALLOWED, "1"),
        ("a", ["obj", "x"], E.NOT_SCHEMA_VALID, "1"),
        ("b", ["obj", "x"], E.NOT_SCHEMA_VALID, "8"),
    ]
    del spec.columns["n"]
    first = compile_spec(spec).check_batch(tbl, allowed_errors=0)
    assert list(zip(first["doc_id"].to_pylist(), first["error"].to_pylist())) == [
        ("a", E.NOT_DIVISIBLE), ("b", E.NOT_SCHEMA_VALID)]
