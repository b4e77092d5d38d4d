"""Columnar violation rendering is byte-identical to the row-at-a-time
renderers it replaced.

The oracles are the per-row renderers: ``_json_val`` (kept as the
fallback of ``_json_text``) and, copied below, the former
``_not_unique_rows``, the former ``ReferentialChecker`` value rendering
and the former per-violation ``allowed_errors`` loop of ``check_batch``.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jesse_ray import compiler
from jesse_ray import errors as E
from jesse_ray.compiler import VIOLATION_SCHEMA, CompiledSpec, _Emit, _json_text, _json_val, compile_spec
from jesse_ray.engine import ReferentialChecker, _not_unique_rows
from jesse_ray.spec import ColumnSpec, ConsistencyRule, TableSpec


# ---------------------------------------------------------------------------
# oracles: the row-at-a-time renderers


def _oracle_not_unique_rows(tbl: pa.Table, key: str) -> pa.Table:
    n = tbl.num_rows
    keys = tbl[key].to_pylist()
    cnts = tbl["cnt"].to_pylist()
    frag = json.dumps({"uniqueKeys": [key]}, separators=(",", ":"))
    return pa.table(
        {
            "doc_id": pa.array([str(k) for k in keys], type=pa.string()),
            "path": pa.array([[key]] * n, type=pa.list_(pa.string())),
            "error": pa.array([E.NOT_UNIQUE] * n, type=pa.string()),
            "value_json": pa.array(
                [json.dumps({"value": k, "count": int(c)}, separators=(",", ":")) for k, c in zip(keys, cnts)],
                type=pa.string(),
            ),
            "schema_fragment": pa.array([frag] * n, type=pa.string()),
        },
        schema=VIOLATION_SCHEMA,
    )


def _oracle_referential_value(v) -> str:
    return json.dumps(v, ensure_ascii=False)


def _oracle_capped(emits: list[tuple], n_rows: int, cap: int) -> list[tuple]:
    """The per-violation cap loop: (row, value, path, atom) kept, in order."""
    row_counts = np.zeros(n_rows, dtype=np.int32)
    out = []
    for idx, vals, paths, atoms in emits:
        idx = np.asarray(idx, dtype=np.int64)
        keep = np.flatnonzero(row_counts[idx] < cap)
        sel = []
        for k in keep:
            r = idx[k]
            if row_counts[r] < cap:
                row_counts[r] += 1
                sel.append(int(k))
        out.extend((int(idx[k]), vals[k], paths[k], atoms[k]) for k in sel)
    return out


# ---------------------------------------------------------------------------
# _json_text

_INT_TYPES = [pa.int8(), pa.int16(), pa.int32(), pa.int64(),
              pa.uint8(), pa.uint16(), pa.uint32(), pa.uint64()]

# every character JSON must escape, plus ones it must not touch
_SPECIAL = ['"', "\\", "\x7f", "\u2028", "\u2029", "\U0001F600", "\u00e9", "\u65e5"] + [chr(c) for c in range(0x20)]
_text = st.text(alphabet=st.one_of(st.sampled_from(_SPECIAL), st.characters(blacklist_categories=("Cs",))),
                max_size=8)


@st.composite
def _typed_arrays(draw):
    kind = draw(st.sampled_from(["int", "string", "large_string", "float", "bool",
                                 "decimal", "list", "struct"]))
    n = draw(st.integers(0, 12))

    def vals(elem):
        return draw(st.lists(st.one_of(st.none(), elem), min_size=n, max_size=n))

    if kind == "int":
        t = draw(st.sampled_from(_INT_TYPES))
        lo, hi = (-(1 << (t.bit_width - 1)), (1 << (t.bit_width - 1)) - 1) if pa.types.is_signed_integer(t) \
            else (0, (1 << t.bit_width) - 1)
        arr = pa.array(vals(st.one_of(st.sampled_from([lo, hi, 0, -1 if lo else 1]),
                                      st.integers(lo, hi))), type=t)
    elif kind in ("string", "large_string"):
        t = pa.string() if kind == "string" else pa.large_string()
        arr = pa.array(vals(st.one_of(st.just(""), _text)), type=t)
    elif kind == "float":
        arr = pa.array(vals(st.floats(allow_nan=False, width=64)), type=pa.float64())
    elif kind == "bool":
        arr = pa.array(vals(st.booleans()), type=pa.bool_())
    elif kind == "decimal":
        arr = pa.array(vals(st.decimals(min_value=-10**6, max_value=10**6, places=3)),
                       type=pa.decimal128(12, 3))
    elif kind == "list":
        arr = pa.array(vals(st.lists(st.integers(-5, 5), max_size=3)), type=pa.list_(pa.int64()))
    else:
        arr = pa.array(vals(st.fixed_dictionaries({"a": st.integers(-5, 5), "b": _text})),
                       type=pa.struct([("a", pa.int64()), ("b", pa.string())]))
    off = draw(st.integers(0, len(arr)))
    return arr.slice(off)


@settings(max_examples=400, deadline=None)
@given(_typed_arrays())
def test_json_text_matches_json_val(arr):
    got = _json_text(arr)
    assert got.type == pa.string()
    assert got.to_pylist() == [_json_val(v) for v in arr.to_pylist()]


def test_json_text_extremes_and_escapes():
    for t in _INT_TYPES:
        info = np.iinfo(t.to_pandas_dtype())
        arr = pa.array([int(info.min), int(info.max), 0, None], type=t)
        assert _json_text(arr).to_pylist() == [_json_val(v) for v in arr.to_pylist()]
    strs = [chr(c) for c in range(0x20)] + ['"', "\\", "\x7f", "\u2028", "\U0001F600", "", "a\"b\\c", "plain"]
    for t in (pa.string(), pa.large_string()):
        arr = pa.array(strs, type=t)
        assert _json_text(arr).to_pylist() == [_json_val(v) for v in strs]


# ---------------------------------------------------------------------------
# _not_unique_rows


@pytest.mark.parametrize("keys, type_", [
    (["\u00e9", "plain", 'q"uote', "back\\slash", "tab\there", "日本", "\U0001F600", "", "\x7f"], pa.string()),
    (["\u00e9", "plain", 'q"uote'], pa.large_string()),
    ([-(2**63), 2**63 - 1, 0, 42], pa.int64()),
    ([1, 255], pa.uint8()),
])
def test_not_unique_rows_exact(keys, type_):
    cnts = [2, 3, 10**12, 7, 2, 9, 4, 5, 6][: len(keys)]
    tbl = pa.table({"k": pa.array(keys, type=type_), "cnt": pa.array(cnts, type=pa.int64())})
    got = _not_unique_rows(tbl, "k")
    want = _oracle_not_unique_rows(tbl, "k")
    assert got.equals(want), (got.to_pylist(), want.to_pylist())
    if type_ == pa.string():
        assert got["value_json"][0].as_py() == '{"value":"\\u00e9","count":2}'


# ---------------------------------------------------------------------------
# no Python JSON on plain rows


def _plain_batch() -> tuple[TableSpec, pa.Table]:
    spec = TableSpec(name="plain", key_column="doc_id")
    spec.columns["doc_id"] = ColumnSpec(type="string", required=True, pattern=r"^d[0-9]$")
    spec.columns["tokens"] = ColumnSpec(type="array", min_items=1,
                                        items=ColumnSpec(type="integer", minimum=0, maximum=9))
    spec.columns["n_tok"] = ColumnSpec(type="integer", required=True, minimum=1)
    spec.columns["source"] = ColumnSpec(type="string", enum=["web", "book"])
    spec.consistency.append(ConsistencyRule(kind="list_len_eq", left="tokens", right="n_tok"))
    tbl = pa.table({
        "doc_id": ["d1", "bad", "d3", "d4", "d5"],
        "tokens": [[1, 2], [50, -1, 3], [], None, [4]],
        "n_tok": [2, 3, 0, None, 9],
        "source": ["web", "news", "book", "wiki", None],
    })
    return spec, tbl


def test_plain_violation_rows_render_without_python_json(monkeypatch):
    spec, tbl = _plain_batch()
    compiled = compile_spec(spec)
    checker = ReferentialChecker([("source", frozenset(["web", "book"]), E.NOT_IN_ENUM)], "doc_id")
    dups = pa.table({"doc_id": ["d1", "d3"], "cnt": pa.array([2, 5], type=pa.int64())})
    int_dups = pa.table({"k": pa.array([7, -3], type=pa.int64()), "cnt": pa.array([2, 3], type=pa.int64())})
    want = (compiled.check_batch(tbl), checker(tbl), _not_unique_rows(dups, "doc_id"),
            _not_unique_rows(int_dups, "k"))

    calls = []
    real_dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append("dumps") or real_dumps(*a, **k))
    monkeypatch.setattr(compiler, "_json_val", lambda v: calls.append("_json_val") or _json_val(v))
    got = (compiled.check_batch(tbl), checker(tbl), _not_unique_rows(dups, "doc_id"),
           _not_unique_rows(int_dups, "k"))
    assert calls == []
    for g, w in zip(got, want):
        assert g.equals(w)
    rows, ref = got[0], got[1]
    # int and string violations both rendered, item paths indexed
    assert {"not_in_range", "no_match", "not_in_enum", "wrong_size", "missing_required_property"} \
        <= set(rows["error"].to_pylist())
    assert ["tokens", "0"] in rows["path"].to_pylist()
    assert '"news"' in rows["value_json"].to_pylist() and "50" in rows["value_json"].to_pylist()
    assert ref["value_json"].to_pylist() == [_oracle_referential_value(v) for v in ["news", "wiki"]]


# ---------------------------------------------------------------------------
# allowed_errors cap


def _random_emits(rng, n_rows: int) -> list[tuple]:
    """Emits as (idx, values, paths, atoms); some hit one row several
    times, as per-element ``items`` checks do, in unsorted order."""
    emits = []
    for e in range(int(rng.integers(1, 7))):
        m = int(rng.integers(0, 3 * n_rows))
        idx = rng.integers(0, n_rows, size=m)
        if rng.random() < 0.5:
            idx = np.sort(idx)
        vals = [f"v{e}.{k}" for k in range(m)]
        paths = [["c", str(e), str(k)] for k in range(m)]
        atoms = [f"atom{e}" if rng.random() < 0.5 else f"alt{e}" for _ in range(m)]
        emits.append((idx.astype(np.int64), vals, paths, atoms))
    return emits


def _as_emit(e: int, idx, vals, paths, atoms) -> _Emit:
    multi = e % 2 == 1

    def fn(tbl):
        out = (idx, pa.array(vals, type=pa.string()),
               pa.array(paths, type=pa.list_(pa.string())) if e % 3 else None)
        return out + (pa.array(atoms, type=pa.string()),) if multi else out

    return _Emit(name=f"e{e}", error="__multi__" if multi else f"atom{e}", path=["c"], fragment=f"f{e}", fn=fn)


@pytest.mark.parametrize("seed", range(40))
def test_allowed_errors_cap_matches_loop(seed):
    rng = np.random.default_rng(seed)
    n_rows = int(rng.integers(1, 12))
    tbl = pa.table({"doc_id": [f"r{i}" for i in range(n_rows)]})
    emits = _random_emits(rng, n_rows)
    compiled = CompiledSpec(TableSpec(name="cap", key_column="doc_id"))
    compiled._emits = [_as_emit(e, *em) for e, em in enumerate(emits)]
    for allowed_errors, cap in ((0, 1), (1, 2), (2, 3)):
        got = compiled.check_batch(tbl, allowed_errors=allowed_errors).to_pylist()
        # what each emit reports for a row: its value, path (constant
        # when the emit returns none) and atom (constant unless __multi__)
        want_emits = [
            (idx, vals, paths if e % 3 else [["c"]] * len(idx), atoms if e % 2 else [f"atom{e}"] * len(idx))
            for e, (idx, vals, paths, atoms) in enumerate(emits)
        ]
        want = _oracle_capped(want_emits, n_rows, cap)
        assert [(r["doc_id"], r["value_json"], r["path"], r["error"]) for r in got] == [
            (f"r{row}", v, p, a) for row, v, p, a in want
        ]
