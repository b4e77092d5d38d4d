"""Spec → vectorized batch checker compilation.

The reference validates one document at a time with a recursive keyword
walk (reference: src/jesse_validator_draft4.erl:84-260 ``check_value``).
Here a :class:`~jesse_ray.spec.TableSpec` is compiled ONCE on the driver
into a :class:`CompiledSpec` — a list of vectorized checks, each of which
evaluates a whole Arrow batch with pyarrow.compute / numpy kernels and
returns the indices of violating rows.  ``CompiledSpec.check_batch`` is
the function handed to ``Dataset.map_batches(..., batch_format="pyarrow")``.

Presence semantics: a NULL cell is the columnar analogue of an *absent*
property — keyword checks skip it (reference behavior for absent
properties: src/jesse_validator_draft4.erl:380-400) and only ``required``
turns it into ``missing_required_property``
(src/jesse_validator_draft4.erl:1044-1058).

Violation rows mirror the reference's error 5-tuple
``{data_invalid, Schema, ErrorType, Value, Path}``
(src/jesse_error.erl:85-92): ``(doc_id, path, error, value_json,
schema_fragment)``, with ``path`` = property names + stringified 0-based
array indices, outermost first.
"""

from __future__ import annotations

import decimal
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from jesse_ray import errors as E
from jesse_ray.spec import ColumnSpec, ConsistencyRule, TableSpec

_PATH_TYPE = pa.list_(pa.string())

VIOLATION_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("path", _PATH_TYPE),
        ("error", pa.string()),
        ("value_json", pa.string()),
        ("schema_fragment", pa.string()),
    ]
)


def empty_violations() -> pa.Table:
    return VIOLATION_SCHEMA.empty_table()


# ---------------------------------------------------------------------------
# small kernels


def _np_mask(arr, n: int) -> np.ndarray:
    """pyarrow boolean -> numpy bool, nulls -> False."""
    if arr is None:
        return np.zeros(n, dtype=bool)
    if isinstance(arr, np.ndarray):
        return arr
    return pc.fill_null(arr, False).to_numpy(zero_copy_only=False).astype(bool, copy=False)


def _combine(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        # single-chunk fast path: combine_chunks() COPIES even when there
        # is one chunk; chunk(0) is zero-copy (measured 0.45 s of a
        # 1.2 s check_batch over 6 row groups before this)
        if col.num_chunks == 1:
            return col.chunk(0)
        return col.combine_chunks()
    return col


def _is_numeric(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_decimal(t)


def _is_str(t: pa.DataType) -> bool:
    return pa.types.is_string(t) or pa.types.is_large_string(t)


def _is_list(t: pa.DataType) -> bool:
    return pa.types.is_list(t) or pa.types.is_large_list(t)


def _to_f64(arr: pa.Array) -> np.ndarray:
    return arr.cast(pa.float64()).to_numpy(zero_copy_only=False)


def _canon_key(x: Any):
    """Hashable canonical form for deep equality — the analogue of the
    reference's normalize_and_sort (src/jesse_lib.erl:148-197): numbers
    normalized to their EXACT mathematical value (1.0 == 1 per
    jesse_lib.erl:177-181, and Erlang bignums compare exactly per
    jesse_lib.erl:219-261 — a float64 normalization would collapse
    adjacent bignums), object keys order-insensitive, arrays
    order-preserving.  ``Fraction`` is exact for int / float /
    decimal.Decimal alike and hashes consistently across them."""
    if isinstance(x, bool):
        return ("b", x)
    if isinstance(x, (int, float, decimal.Decimal)):
        try:
            return ("n", Fraction(x))
        except (ValueError, OverflowError):  # nan/inf — not JSON, defensive
            return ("n", float(x))
    if isinstance(x, dict):
        return ("o", tuple(sorted((k, _canon_key(v)) for k, v in x.items())))
    if isinstance(x, (list, tuple)):
        return ("a", tuple(_canon_key(v) for v in x))
    return ("s", x) if isinstance(x, str) else ("x", repr(x))


class _NestedDecimal(Exception):
    """A Decimal inside a list or struct value: json's default hook can
    only return another object, never a raw numeric literal, so the
    value is re-encoded by :func:`_json_exact`."""


def _decimal_default(v: Any):
    if isinstance(v, decimal.Decimal):
        raise _NestedDecimal
    raise TypeError(f"not JSON serializable: {type(v)}")


def _json_exact(v: Any) -> str:
    """Compact JSON text with every Decimal, at any depth, printed as its
    exact :func:`_decimal_literal` (a float round-trip would drop digits
    past the 17th)."""
    if isinstance(v, decimal.Decimal):
        return _decimal_literal(v)
    if isinstance(v, dict):
        return "{" + ",".join(
            json.dumps(k, ensure_ascii=False) + ":" + _json_exact(x) for k, x in v.items()
        ) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_exact(x) for x in v) + "]"
    return json.dumps(v, ensure_ascii=False)


def _decimal_literal(v: decimal.Decimal) -> str:
    """Exact decimal literal, unbounded precision — the same exact text
    Erlang prints for bignums (src/jesse_lib.erl): scale-0 integrals as
    the integer, scale>0 integrals as N.0 (aligned with the float
    canonical rule: 2.0 prints as 2.0), non-integrals as the exact
    fixed-point string with trailing zeros stripped.  Only exact
    operations are used — int(v), Decimal==int comparison and
    format(v, 'f') ignore context precision, unlike normalize() /
    to_integral_value() which silently ROUND past 28 significant
    digits (the default context) and would corrupt a 41-digit value."""
    iv = int(v)  # exact truncation, no context
    if v == iv:
        txt = str(iv)
        return txt + ".0" if v.as_tuple().exponent < 0 else txt
    s = format(v, "f")  # exact fixed-point, never scientific
    return s.rstrip("0") if "." in s else s


def _json_val(v: Any) -> str:
    if isinstance(v, decimal.Decimal):
        return _decimal_literal(v)
    if isinstance(v, float) and v.is_integer():
        # canonical: 3.0 prints as 3.0 (json default) — keep json default
        return json.dumps(v)
    try:
        return json.dumps(v, ensure_ascii=False, separators=(",", ":"),
                          default=_decimal_default)
    except _NestedDecimal:
        return _json_exact(v)


#: a character that JSON string quoting must escape
_JSON_ESCAPE_RE = r'[\x00-\x1f"\\]'


def _quoted(arr: pa.Array) -> pa.Array:
    """``'"' + s + '"'`` per string value, no escaping."""
    return pc.binary_join_element_wise('"', pc.cast(arr, pa.string()), '"', "")


def _patched(text: pa.Array, rows: np.ndarray, render: Callable[[int], str]) -> pa.Array:
    """``text`` with each position in ``rows`` replaced by ``render(pos)``."""
    if len(rows) == 0:
        return text
    mask = np.zeros(len(text), dtype=bool)
    mask[rows] = True
    return pc.replace_with_mask(
        text, pa.array(mask), pa.array([render(int(i)) for i in rows], type=pa.string())
    )


def _json_text(arr: pa.Array) -> pa.Array:
    """The JSON text of every value of ``arr`` as one string array, equal
    byte for byte to ``[_json_val(v) for v in arr.to_pylist()]``.

    Integers are cast and strings with nothing to escape are quoted by
    Arrow kernels; only the other values — strings needing escapes,
    floats, bools, decimals, lists and structs — go through
    :func:`_json_val` one at a time."""
    t = arr.type
    if pa.types.is_integer(t):
        text, rows = pc.cast(arr, pa.string()), ()
    elif _is_str(t):
        text = _quoted(arr)
        rows = np.flatnonzero(_np_mask(pc.match_substring_regex(arr, _JSON_ESCAPE_RE), len(arr)))
    else:
        return pa.array([_json_val(v) for v in arr.to_pylist()], type=pa.string())
    if arr.null_count:
        text = pc.fill_null(text, "null")
    return _patched(text, rows, lambda i: _json_val(arr[i].as_py()))


def _length_json(lengths: pa.Array) -> pa.Array:
    """``{"length":n}`` per list length."""
    return pc.binary_join_element_wise('{"length":', pc.cast(lengths, pa.string()), "}", "")


def _repeat(value: str | list[str], n: int) -> pa.Array:
    """``n`` copies of one string, or of one path: a take of a one-element
    list array (``pa.repeat`` of a list scalar is slow)."""
    if isinstance(value, str):
        return pa.repeat(pa.scalar(value, type=pa.string()), n)
    return pa.array([value], type=_PATH_TYPE).take(pa.array(np.zeros(n, dtype=np.int64)))


def _out_add(out, idx: np.ndarray, vals: pa.Array, path, atom: str) -> None:
    """Append one chunk of ``len(idx)`` violations to the nested walker's
    ``out`` = (rows, value_json, paths, atoms) chunk lists; ``path`` is one
    path for every row or a list array of per-row paths."""
    n = len(idx)
    out[0].append(idx)
    out[1].append(vals)
    out[2].append(_repeat(path, n) if isinstance(path, list) else path)
    out[3].append(_repeat(atom, n))


def _indexed_paths(path: list[str], item: np.ndarray) -> pa.Array:
    """``path + [str(i)]`` for each ``i`` in ``item``, as a list array
    built from offsets: every list is the ``path`` prefix followed by the
    element index."""
    n, m = len(item), len(path)
    pool = pa.concat_arrays([
        pa.array(path, type=pa.string()),
        pc.cast(pa.array(item, type=pa.int64()), pa.string()),
    ])
    take = np.empty((n, m + 1), dtype=np.int64)
    take[:, :m] = np.arange(m)
    take[:, m] = m + np.arange(n)
    offsets = pa.array(np.arange(0, (n + 1) * (m + 1), m + 1, dtype=np.int32))
    return pa.ListArray.from_arrays(offsets, pool.take(pa.array(take.ravel())))


def _doc_ids(key_arr: Optional[pa.Array], idx: np.ndarray) -> pa.Array:
    """The ``doc_id`` column for rows ``idx``: ``str(key)``, cast by Arrow
    for string and integer keys; null without a key column."""
    if key_arr is None:
        return pa.nulls(len(idx), type=pa.string())
    docs = key_arr.take(pa.array(idx, type=pa.int64()))
    t = docs.type
    if _is_str(t) or pa.types.is_integer(t):
        return pc.cast(docs, pa.string())
    return pa.array([None if d is None else str(d) for d in docs.to_pylist()], type=pa.string())


def _violations_table(doc, path, error, value, fragment) -> pa.Table:
    """A VIOLATION_SCHEMA table from per-column lists of Arrow chunks."""
    return pa.Table.from_arrays(
        [pa.concat_arrays(c) if len(c) > 1 else c[0] for c in (doc, path, error, value, fragment)],
        schema=VIOLATION_SCHEMA,
    )


def _occurrence_rank(idx: np.ndarray) -> np.ndarray:
    """For each position, how many earlier positions hold the same value."""
    order = np.argsort(idx, kind="stable")
    s = idx[order]
    pos = np.arange(len(s))
    start = np.maximum.accumulate(np.where(np.r_[True, s[1:] != s[:-1]], pos, 0))
    rank = np.empty(len(idx), dtype=np.int64)
    rank[order] = pos - start
    return rank


def _item_positions(col: pa.Array, flat_idx: np.ndarray):
    """(row, item index) of the given positions in ``pc.list_flatten(col)``.

    Derived from the cumulative list lengths (NULL lists count as empty,
    as in the flattened array) by a binary search per position, so the
    cost scales with the number of positions asked for, not with the
    number of elements."""
    cnt = pc.fill_null(pc.list_value_length(col), 0).to_numpy(zero_copy_only=False)
    ends = np.cumsum(cnt)
    rows = np.searchsorted(ends, flat_idx, side="right")
    return rows, flat_idx - (ends[rows] - cnt[rows])


def _list_layout(col: pa.Array):
    """Return (flat_values, parent_idx, item_idx, counts) for a list array.

    ``parent_idx[i]`` is the row owning flat element i; ``item_idx[i]`` is
    its 0-based position within the row's list (the path-index convention
    of the reference, src/jesse_error.erl:85-92).  NULL lists contribute
    no flat elements; the arithmetic below is robust to them because
    counts come from per-parent bincount of the parent indices.
    """
    flat = pc.list_flatten(col)
    parent = pc.list_parent_indices(col).to_numpy(zero_copy_only=False)
    n_rows = len(col)
    cnt = np.bincount(parent, minlength=n_rows) if len(parent) else np.zeros(n_rows, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(cnt)])[:-1]
    item_idx = np.arange(len(parent)) - starts[parent] if len(parent) else parent
    return flat, parent, item_idx, cnt


# ---------------------------------------------------------------------------
# per-keyword valid-mask kernels: (flat_or_col_array) -> np.bool mask,
# True where the value PASSES; positions with NULL values are garbage and
# must be masked by the caller with the presence mask.


_ARROW_TYPE_OK: dict[str, Callable[[pa.DataType], bool]] = {
    # draft-04 primitive membership (src/jesse_validator_draft4.erl:306-318);
    # integer ⊂ number; draft-4 floats are NOT integers even with zero
    # fraction (contrast draft-6, src/jesse_validator_draft6.erl:344-355)
    "string": _is_str,
    # scale-0 decimals are Erlang bignums (arbitrary-precision integers
    # beyond int64, src/jesse_lib.erl:219-261) — they hold ONLY integral
    # values, so they satisfy "integer"; scale>0 decimals are "number"
    "integer": lambda t: pa.types.is_integer(t)
    or (pa.types.is_decimal(t) and t.scale == 0),
    "number": _is_numeric,
    "boolean": pa.types.is_boolean,
    "array": lambda t: _is_list(t) or pa.types.is_fixed_size_list(t),
    "object": pa.types.is_struct,
    "null": pa.types.is_null,
    "any": lambda t: True,
}


def _type_ok(spec_type: str | list[str], dtype: pa.DataType) -> bool:
    types = [spec_type] if isinstance(spec_type, str) else spec_type
    return any(_ARROW_TYPE_OK.get(t, lambda _t: False)(dtype) for t in types)


def _enum_mask(arr: pa.Array, values: list[Any]) -> np.ndarray:
    """Membership with the reference's cross-numeric deep equality:
    1.0 == 1 (src/jesse_lib.erl:177-181, normalize numbers to float)."""
    n = len(arr)
    if _is_numeric(arr.type):
        if pa.types.is_decimal(arr.type):
            # bignum column: a float64 cast would collapse adjacent
            # >2^53 values — compare exactly via Fraction canonical keys
            # (the reference compares bignums exactly,
            # src/jesse_lib.erl:219-261; decimals are rare, so the
            # per-distinct python compare is off the hot path)
            keyset = {
                _canon_key(v)
                for v in values
                if isinstance(v, (int, float, decimal.Decimal))
                and not isinstance(v, bool)
            }
            if not keyset:
                return np.zeros(n, dtype=bool)
            return np.fromiter(
                (x is not None and _canon_key(x) in keyset for x in arr.to_pylist()),
                dtype=bool, count=n,
            )
        nums = [float(v) for v in values if isinstance(v, (int, float)) and not isinstance(v, bool)]
        if not nums:
            return np.zeros(n, dtype=bool)
        v = _to_f64(arr)
        return np.isin(v, np.asarray(nums, dtype=np.float64))
    try:
        vs = pa.array([v for v in values if v is not None], type=arr.type)
        return _np_mask(pc.is_in(arr, value_set=vs), n)
    except (pa.ArrowInvalid, pa.ArrowTypeError, pa.ArrowNotImplementedError):
        # mixed-type enum vs typed column, or a list/struct column Arrow
        # has no is_in kernel for: per-value deep equality on canonical
        # keys (src/jesse_lib.erl:148-197)
        keyset = {_canon_key(v) for v in values}
        return np.fromiter(
            (_canon_key(x) in keyset for x in arr.to_pylist()), dtype=bool, count=n
        )


def _native_values(arr) -> Optional[np.ndarray]:
    """Zero-copy numpy view of an integer array's value buffer (slice
    offset applied; NULL slots hold unspecified values), or None for any
    other array."""
    if not isinstance(arr, pa.Array) or not pa.types.is_integer(arr.type):
        return None
    dt = np.dtype(arr.type.to_pandas_dtype())
    if len(arr) == 0:
        return np.empty(0, dtype=dt)
    return np.frombuffer(arr.buffers()[1], dtype=dt, count=arr.offset + len(arr))[arr.offset:]


def _native_bound(b, dt: np.dtype):
    """Bound ``b`` as an integer ``dt`` scalar when that conversion is
    exact, else None (a non-integral bound, a bound outside the dtype's
    range, a bignum)."""
    if isinstance(b, bool) or not isinstance(b, (int, float, decimal.Decimal)):
        return None
    try:
        exact = Fraction(b)
    except (ValueError, OverflowError):  # nan / inf bound
        return None
    info = np.iinfo(dt)
    if exact.denominator == 1 and info.min <= exact <= info.max:
        return dt.type(int(exact))
    return None


def _range_mask(arr: pa.Array, lo, lo_ex, hi, hi_ex) -> np.ndarray:
    # NaN compares false -> out of range.  NULL positions are
    # unspecified (the native view reads whatever the value buffer
    # holds); every caller masks them with the presence mask.
    v = _native_values(arr)
    if v is not None:
        nlo = None if lo is None else _native_bound(lo, v.dtype)
        nhi = None if hi is None else _native_bound(hi, v.dtype)
        if (lo is None or nlo is not None) and (hi is None or nhi is not None):
            # compare on the column's own dtype over its value buffer:
            # the items check runs this over EVERY flattened token, and
            # an Arrow compare against a python-int scalar first upcasts
            # the whole array to int64 (over 10x slower on int32 tokens)
            ok = np.ones(len(v), dtype=bool) if nlo is None else (v > nlo if lo_ex else v >= nlo)
            if nhi is not None:
                ok &= v < nhi if hi_ex else v <= nhi
            return ok
    if pa.types.is_decimal(arr.type):
        # bignum column: Arrow can't compare decimals against plain
        # python-int bounds, and a float64 cast would round >2^53
        # values at the bound — compare exactly via Fraction
        # (src/jesse_lib.erl:219-261; decimal columns are off the
        # token hot path, so the per-value compare is acceptable)
        flo = Fraction(lo) if lo is not None else None
        fhi = Fraction(hi) if hi is not None else None
        out = np.zeros(len(arr), dtype=bool)
        for i, x in enumerate(arr.to_pylist()):
            if x is None:
                continue
            fx = Fraction(x)
            ok = True
            if flo is not None:
                ok = fx > flo if lo_ex else fx >= flo
            if ok and fhi is not None:
                ok = fx < fhi if hi_ex else fx <= fhi
            out[i] = ok
        return out
    # a bound the dtype cannot hold: Arrow picks a common type for the
    # compare (int32 vs 2**40 -> int64, int vs 0.5 -> float64)
    m = None
    if lo is not None:
        c = pc.greater(arr, lo) if lo_ex else pc.greater_equal(arr, lo)
        m = c
    if hi is not None:
        c = pc.less(arr, hi) if hi_ex else pc.less_equal(arr, hi)
        m = c if m is None else pc.and_kleene(m, c)
    if m is None:
        return np.ones(len(arr), dtype=bool)
    return _np_mask(m, len(arr))


def _multiple_of_mask(arr: pa.Array, m: float) -> np.ndarray:
    # reference formula: (V/M - trunc(V/M)) * M == 0.0
    # (src/jesse_validator_draft4.erl:1019-1025)
    v = _to_f64(arr)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = v / m
        return (q - np.trunc(q)) * m == 0.0


def _pattern_mask(arr: pa.Array, pattern: str) -> np.ndarray:
    """Unanchored regex match (reference: re:run unanchored,
    src/jesse_validator_draft4.erl:888-893).  Arrow's RE2 dialect covers
    the common cases; PCRE-only constructs (backrefs, lookaround) fall
    back to Python ``re`` per present value — documented dialect delta."""
    n = len(arr)
    try:
        return _np_mask(pc.match_substring_regex(arr, pattern), n)
    except pa.ArrowInvalid:
        # PCRE-only construct (backref/lookaround): run python `re` ONCE
        # PER DISTINCT VALUE (dictionary-encode first), then scatter the
        # per-distinct verdicts back with one numpy take — no per-row
        # python loop over the column; the regex cost is bounded by the
        # value domain, not the row count.
        rx = re.compile(pattern)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        enc = arr.dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        um = np.fromiter(
            (s is not None and rx.search(s) is not None for s in uniq),
            dtype=bool, count=len(uniq),
        )
        idx = pc.fill_null(enc.indices, -1).to_numpy(zero_copy_only=False)
        out = np.zeros(n, dtype=bool)
        present = idx >= 0
        out[present] = um[idx[present]]
        return out


def _strlen_mask(arr: pa.Array, lo, hi) -> np.ndarray:
    # unicode codepoint length (src/jesse_validator_draft4.erl:915-943)
    ln = pc.fill_null(pc.utf8_length(arr), 0).to_numpy(zero_copy_only=False)
    ok = np.ones(len(ln), dtype=bool)
    if lo is not None:
        ok &= ln >= lo
    if hi is not None:
        ok &= ln <= hi
    return ok


_EMAIL_RX = r"^[^@\s]+@[^@\s]+\.[^@\s]+$"
_IPV4_RX = r"^((25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)\.){3}(25[0-5]|2[0-4][0-9]|[01]?[0-9][0-9]?)$"
_DATETIME_RX = (
    r"^\d{4}-\d{2}-\d{2}[Tt]\d{2}:\d{2}:\d{2}(\.\d+)?([Zz]|[+-]\d{2}:\d{2})?$"
)


def _format_mask(arr: pa.Array, fmt: str) -> np.ndarray:
    """Only the formats the reference actually checks
    (src/jesse_validator_draft4.erl:975-1004): date-time, email,
    ipv4, ipv6; hostname/uri/uri-reference are accept-all no-ops."""
    n = len(arr)
    if fmt == "email":
        return _pattern_mask(arr, _EMAIL_RX)
    if fmt == "ipv4":
        return _pattern_mask(arr, _IPV4_RX)
    if fmt == "date-time":
        ok = _pattern_mask(arr, _DATETIME_RX)
        # refine regex hits with field validation (RFC3339 per the
        # reference's calendar:rfc3339_to_system_time,
        # src/jesse_validator_draft4.erl:1340-1354).  NOT
        # datetime.fromisoformat: Python rejects year 0000, which the
        # reference accepts ("minimal timestamp" extra case).
        idx = np.flatnonzero(ok)
        if len(idx):
            vals = arr.take(pa.array(idx)).to_pylist()
            for j, s in zip(idx, vals):
                if not _rfc3339_fields_ok(s):
                    ok[j] = False
        return ok
    if fmt == "ipv6":
        import ipaddress

        out = np.zeros(n, dtype=bool)
        for i, s in enumerate(arr.to_pylist()):
            if s is None:
                continue
            try:
                ipaddress.IPv6Address(s)
                out[i] = True
            except ValueError:
                pass
        return out
    return np.ones(n, dtype=bool)  # hostname / uri / unknown: no-op


def _rfc3339_fields_ok(s: str) -> bool:
    """Field-range validation for a string already matching the RFC3339
    shape regex: proleptic Gregorian (year 0000 allowed), leap-year day
    rule, leap second 60 allowed per the RFC grammar."""
    try:
        y, mo, d = int(s[0:4]), int(s[5:7]), int(s[8:10])
        hh, mi, ss = int(s[11:13]), int(s[14:16]), int(s[17:19])
    except ValueError:
        return False
    if not 1 <= mo <= 12:
        return False
    leap = y % 4 == 0 and (y % 100 != 0 or y % 400 == 0)
    days = (31, 29 if leap else 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
    if not 1 <= d <= days[mo - 1]:
        return False
    if hh > 23 or mi > 59 or ss > 60:
        return False
    off = s[-6:]
    if (off[0] in "+-") and off[3] == ":":
        if int(off[1:3]) > 23 or int(off[4:6]) > 59:
            return False
    return True


def _unique_items_dups(col: pa.Array):
    """Rows whose list has duplicate elements.

    Vectorized set-cardinality analogue of the reference's fast path
    (src/jesse_validator_draft4.erl:837-859): lexsort flattened
    (parent, value) pairs, adjacent-equal within a parent = duplicate.
    Cross-numeric 1.0 == 1 equality is honored by casting numeric
    element types to float64 (src/jesse_lib.erl:177-181).
    Returns (dup_row_idx, first_dup_value_per_row).
    """
    flat, parent, _item_idx, _cnt = _list_layout(col)
    if len(parent) == 0:
        return np.array([], dtype=np.int64), []
    # decimal128 elements (bignums beyond int64) take the generic
    # _canon_key path below — a float64 cast would collapse adjacent
    # bignums (reference compares them exactly, jesse_lib.erl:219-261)
    if _is_numeric(flat.type) and not pa.types.is_decimal(flat.type):
        # vectorized detection: lexsort flattened (parent, value) pairs,
        # adjacent-equal within a parent ⇒ that row has a duplicate
        nulls = ~_np_mask(pc.is_valid(flat), len(flat))
        if pa.types.is_integer(flat.type):
            # exact int compare — a float64 cast would equate int64
            # values that differ only past 2^53
            v = pc.fill_null(flat, 0).cast(pa.int64()).to_numpy(zero_copy_only=False)
        else:
            v = _to_f64(flat)
        order = np.lexsort((v, nulls, parent))
        pv, vv, nn = parent[order], v[order], nulls[order]
        # a fill_null(0) int must not pair with a real 0: require both
        # adjacent elements non-null (float nulls are NaN ⇒ never equal,
        # the guard is still correct)
        dup = (pv[1:] == pv[:-1]) & (vv[1:] == vv[:-1]) & ~nn[1:] & ~nn[:-1]
        flagged = np.unique(pv[1:][dup]).astype(np.int64)
        # null == null in the reference's deep equality
        # (src/jesse_lib.erl:219-261): flag any row with ≥2 nulls too
        if nulls.any():
            null_cnt = np.bincount(parent[nulls], minlength=len(col))
            flagged = np.union1d(flagged, np.flatnonzero(null_cnt >= 2)).astype(np.int64)
        # value reporting: jesse emits the FIRST value (in list order)
        # whose second occurrence appears — scan only the flagged rows
        # (duplicates are rare), using the original (typed) values
        vals = []
        for r in flagged:
            lst = col[int(r)].as_py()
            seen: set = set()
            found = lst[0] if lst else None
            for x in lst:
                k = _canon_key(x)
                if k in seen:
                    found = x
                    break
                seen.add(k)
            vals.append(found)
        return flagged, vals
    # generic (strings/structs/nested lists): per-row python sets over
    # canonical keys (_canon_key handles unhashable dict/list elements
    # with key-order-insensitive equality) — still batch-local
    rows, vals = [], []
    for i, lst in enumerate(col.to_pylist()):
        if not lst:
            continue
        seen = set()
        for x in lst:
            k = _canon_key(x)
            if k in seen:
                rows.append(i)
                vals.append(x)
                break
            seen.add(k)
    return np.asarray(rows, dtype=np.int64), vals


# ---------------------------------------------------------------------------
# compiled check objects


@dataclass
class _Emit:
    """One emission unit: evaluates a batch, returns violating rows."""

    name: str
    error: str
    path: list[str]
    fragment: str
    #: (tbl) -> (row_idx ndarray, value_json pa string array,
    #: path_override pa list<string> array | None); a ``__multi__`` emit
    #: adds a 4th element, the per-violation error atoms (pa string array)
    fn: Callable[[pa.Table], tuple[np.ndarray, pa.Array, Optional[pa.Array]]]


#: an emit's result when it finds nothing
_NO_VIOLATIONS = (np.array([], dtype=np.int64), pa.array([], type=pa.string()), None)


class CompiledSpec:
    """Driver-compiled, worker-executed batch validator."""

    def __init__(self, spec: TableSpec):
        self.spec = spec
        self.version = spec.version
        self.dialect = getattr(spec, "dialect", "draft4")
        self._emits: list[_Emit] = []
        #: schema-form dependencies: (trigger column, compiled sub-spec)
        self._schema_deps: list[tuple[str, "CompiledSpec"]] = [
            (col, CompiledSpec(sub)) for col, sub in spec.schema_dependencies.items()
        ]
        self._build()

    def __reduce__(self):
        # ship the spec and rebuild: ``_build`` is deterministic, and
        # pickling the emit closures by value costs far more (cloudpickle
        # scans ``sys.modules`` once per closure); the per-batch memo
        # (it pins an Arrow batch) is never shipped
        return (CompiledSpec, (self.spec,))

    def _type_valid_mask(self, cs: ColumnSpec, arr: pa.Array) -> Optional[np.ndarray]:
        """Value-level ``type`` mask: static primitive membership, the
        draft-6 ``integer`` leniency (floats with zero fraction pass,
        src/jesse_validator_draft6.erl:344-355), and draft-3 union
        schema members (src/jesse_validator_draft3.erl:304-328).  None
        when a primitive type the dtype satisfies passes every value."""
        if cs.type is not None and _type_ok(cs.type, arr.type):
            return None
        ok = np.zeros(len(arr), dtype=bool)
        if (
            self.dialect == "draft6"
            and cs.type is not None
            and ("integer" in ([cs.type] if isinstance(cs.type, str) else cs.type))
            and pa.types.is_floating(arr.type)
        ):
            v = _to_f64(arr)
            with np.errstate(invalid="ignore"):
                ok |= v == np.trunc(v)
        for sub in cs.type_schemas or ():
            ok |= self._spec_valid_mask(sub, arr)
        return ok

    def _disallow_match_mask(self, cs: ColumnSpec, arr: pa.Array) -> np.ndarray:
        """True where the value MATCHES the disallow union — primitive
        type members (static per Arrow dtype) OR any embedded schema
        member validating (draft-3 union semantics,
        src/jesse_validator_draft3.erl:878-889 + 304-328)."""
        n = len(arr)
        bad = (np.full(n, _type_ok(cs.disallow, arr.type), dtype=bool)
               if cs.disallow is not None else np.zeros(n, dtype=bool))
        for sub in cs.disallow_schemas or []:
            bad |= self._spec_valid_mask(sub, arr)
        return bad

    # -- mask evaluation for one ColumnSpec on one (possibly flat) array --
    def _spec_valid_mask(self, cs: ColumnSpec, arr: pa.Array) -> np.ndarray:
        """True where the value passes ALL keywords of ``cs`` (presence
        handled by caller): the AND of every :data:`_KEYWORDS` mask.
        Used for combinator sub-schemas and list items.  A primitive
        ``type`` the dtype satisfies passes every value, so its mask is
        not built; no value of the right type ends the walk."""
        ok = np.ones(len(arr), dtype=bool)
        for kw in _KEYWORDS:
            if not kw.applies(cs, arr.type):
                continue
            for _atom, m in kw.masks(self, cs, arr):
                if m is not None:
                    ok &= m
                    if kw is _TYPE and not ok.any():
                        return ok
        return ok

    def _failing_items(self, sub: ColumnSpec, col: pa.Array):
        """(flat, bad): the flattened elements of list array ``col`` and
        the flat positions of the non-null elements failing ``sub`` (NULL
        elements are vacuous, src/jesse_validator_draft4.erl:542-557)."""
        flat = pc.list_flatten(col)
        if len(flat) == 0:
            return flat, np.array([], dtype=np.int64)
        ok = self._spec_valid_mask(sub, flat)
        if flat.null_count:
            ok |= ~_np_mask(pc.is_valid(flat), len(flat))
        # invert in place: one fewer element-sized temporary
        return flat, np.flatnonzero(np.logical_not(ok, out=ok))

    def _failing_item_rows(self, sub: ColumnSpec, col: pa.Array) -> np.ndarray:
        """Rows of ``col`` holding at least one element failing ``sub``."""
        _flat, bad = self._failing_items(sub, col)
        return _item_positions(col, bad)[0] if len(bad) else bad

    def _item_violations(self, sub: ColumnSpec, col: pa.Array, gate: np.ndarray,
                         path: list[str]):
        """Per-element violations of list array ``col`` against ``sub`` in
        the rows where ``gate`` holds: (rows, value_json, paths), each
        path gaining the element's 0-based index (src/jesse_error.erl:85-92)."""
        flat, bad = self._failing_items(sub, col)
        if len(bad) == 0:
            return _NO_VIOLATIONS
        rows, item = _item_positions(col, bad)
        keep = gate[rows]
        rows, item, bad = rows[keep], item[keep], bad[keep]
        return (rows.astype(np.int64), _json_text(flat.take(pa.array(bad, type=pa.int64()))),
                _indexed_paths(path, item))

    def _struct_field(self, arr: pa.Array, name: str):
        """(field array, presence mask) for one struct field; a field
        absent from the TYPE is all-absent (the columnar reading of
        jesse's absent-property skip, src/jesse_validator_draft4.erl:380-400).
        A null parent struct makes every field absent too."""
        n = len(arr)
        if arr.type.get_field_index(name) < 0:
            return None, np.zeros(n, dtype=bool)
        f = pc.struct_field(arr, name)
        present = _np_mask(pc.is_valid(f), n) & _np_mask(pc.is_valid(arr), n)
        return f, present

    def _struct_props_mask(self, cs: ColumnSpec, arr: pa.Array) -> np.ndarray:
        """True where a struct value satisfies its nested ``properties``
        sub-schemas and ``required`` list."""
        n = len(arr)
        ok = np.ones(n, dtype=bool)
        for prop, sub in (cs.properties or {}).items():
            f, present = self._struct_field(arr, prop)
            if f is None or not present.any():
                continue
            sub_ok = self._spec_valid_mask(sub, f)
            ok &= ~present | sub_ok
        for prop in cs.required_props or []:
            _f, present = self._struct_field(arr, prop)
            ok &= present | ~_np_mask(pc.is_valid(arr), n)
        for pat, sub in (cs.pattern_props or {}).items():
            rx = re.compile(pat)
            for f in arr.type:
                if not rx.search(f.name):
                    continue
                fa, present = self._struct_field(arr, f.name)
                if fa is None or not present.any():
                    continue
                ok &= ~present | self._spec_valid_mask(sub, fa)
        if not cs.additional_props_allowed:
            ok &= ~self._struct_extra_props_mask(cs, arr)
        return ok

    def _walk_struct(self, arr: pa.Array, gate: np.ndarray, cs: ColumnSpec,
                     base_path: list[str], out) -> None:
        """Recursive nested-object violation emission: appends
        (idx_array, value_json, path, atom) chunks to ``out`` (see
        :func:`_out_add`) for every violation under a struct value array.
        ``gate`` marks rows whose value (and every ancestor) is present."""
        targets: list[tuple[str, ColumnSpec]] = list((cs.properties or {}).items())
        for pat, sub in (cs.pattern_props or {}).items():
            rx = re.compile(pat)
            targets.extend((f.name, sub) for f in arr.type if rx.search(f.name))
        for name, sub in targets:
            fa, fpresent = self._struct_field(arr, name)
            if fa is None:
                continue
            g = gate & fpresent
            if g.any():
                self._emit_value_violations(fa, g, sub, base_path + [name], out)
        for prop in cs.required_props or []:
            _fa, fpresent = self._struct_field(arr, prop)
            idx = np.flatnonzero(gate & ~fpresent)
            if len(idx):
                _out_add(out, idx, _repeat("null", len(idx)),
                         base_path + [prop], E.MISSING_REQUIRED_PROPERTY)
        if not cs.additional_props_allowed:
            declared = set((cs.properties or {}).keys())
            pats = [re.compile(p) for p in (cs.pattern_props or {})]
            extra_fields = [
                f.name for f in arr.type
                if f.name not in declared and not any(rx.search(f.name) for rx in pats)
            ]
            if extra_fields:
                masks = {
                    name: self._struct_field(arr, name)[1] for name in extra_fields
                }
                bad = gate & self._struct_extra_props_mask(cs, arr)
                idx = np.flatnonzero(bad)
                if len(idx):
                    # per-row: only the extras the row actually CARRIES
                    vals = pa.array([
                        _json_val({"extraProperties": sorted(
                            name for name in extra_fields if masks[name][i]
                        )})
                        for i in idx
                    ], type=pa.string())
                    _out_add(out, idx, vals, base_path, E.NO_EXTRA_PROPERTIES_ALLOWED)

    def _emit_value_violations(self, arr: pa.Array, gate: np.ndarray, cs: ColumnSpec,
                               path: list[str], out) -> None:
        """Violations of one (gated) value array against ``cs``, with
        per-element descent into object-form items and recursion into
        nested structs — items / struct-props are excluded from the
        coarse fail-atom roll-up and handled here with full paths."""
        for atom, mask in self._spec_fail_atoms(cs, arr, skip_items=True, skip_struct=True):
            idx = np.flatnonzero(gate & mask)
            if len(idx):
                _out_add(out, idx, self._values_json(arr, idx), path, atom)
        if _ITEMS.applies(cs, arr.type):
            rows, vals, paths = self._item_violations(cs.items, arr, gate, path)
            if len(rows):
                _out_add(out, rows, vals, paths, _items_atom(cs.items))
        if _PROPERTIES.applies(cs, arr.type):
            self._walk_struct(arr, gate, cs, path, out)

    def _struct_extra_props_mask(self, cs: ColumnSpec, arr: pa.Array) -> np.ndarray:
        """True where a struct row CARRIES (non-null — null ≡ absent, the
        engine's presence convention) a field not declared by properties
        or matched by a patternProperties regex."""
        n = len(arr)
        declared = set((cs.properties or {}).keys())
        pats = [re.compile(p) for p in (cs.pattern_props or {})]
        parent = _np_mask(pc.is_valid(arr), n)
        bad = np.zeros(n, dtype=bool)
        for f in arr.type:
            if f.name in declared or any(rx.search(f.name) for rx in pats):
                continue
            _fa, fpresent = self._struct_field(arr, f.name)
            bad |= parent & fpresent
        return bad

    def _spec_fail_atoms(
        self,
        cs: ColumnSpec,
        arr: pa.Array,
        *,
        skip_items: bool = False,
        skip_struct: bool = False,
    ) -> list[tuple[str, np.ndarray]]:
        """Per-keyword (error_atom, fail_mask) pairs for one sub-schema, in
        :data:`_KEYWORDS` order — the vectorized analogue of the child
        error lists jesse collects per anyOf attempt
        (src/jesse_validator_draft4.erl:1156-1179).  Combinator children
        are reported as their single combinator atom.  ``skip_items`` /
        ``skip_struct`` let the nested-struct walker handle those two
        keyword families itself with full per-element / per-property
        path descent instead of a coarse roll-up atom."""
        skip = (_ITEMS if skip_items else None, _PROPERTIES if skip_struct else None)
        out: list[tuple[str, np.ndarray]] = []
        for kw in _KEYWORDS:
            if kw in skip or not kw.applies(cs, arr.type):
                continue
            for atom, ok in kw.masks(self, cs, arr):
                if ok is not None:
                    fail = ~ok
                    if fail.any():
                        out.append((atom, fail))
        return out

    def _positional_bad_rows(self, cs: ColumnSpec, arr: pa.Array):
        """Positional-items evaluation (src/jesse_validator_draft4.erl:558-603).

        Returns (bad_row_idx, details, flat) where details holds
        (flat_i, row, item_idx, error_atom) tuples for violation
        emission and flat is the flattened element array for value
        extraction.
        """
        flat, parent, item_idx, _cnt = _list_layout(arr)
        n_pos = len(cs.items_positional)
        bad_rows: list[int] = []
        details: list[tuple[int, int, int, str]] = []  # (flat_i, row, item, atom)
        if len(parent) == 0:
            return np.array([], dtype=np.int64), details, flat
        elem_present = _np_mask(pc.is_valid(flat), len(flat))
        for j, sub in enumerate(cs.items_positional):
            sel = np.flatnonzero((item_idx == j) & elem_present)
            if len(sel) == 0:
                continue
            sub_ok = self._spec_valid_mask(sub, flat.take(pa.array(sel, type=pa.int64())))
            for k in np.flatnonzero(~sub_ok):
                fi = int(sel[k])
                details.append((fi, int(parent[fi]), j, E.NOT_SCHEMA_VALID))
                bad_rows.append(int(parent[fi]))
        extra = np.flatnonzero(item_idx >= n_pos)
        if len(extra):
            if cs.additional_items is False:
                # ONE no_extra_items_allowed per offending array, as the
                # reference emits (src/jesse_validator_draft4.erl:598-603);
                # item_idx -1 signals "whole array" to the emit fn
                for r in np.unique(parent[extra]):
                    details.append((int(extra[parent[extra] == r][0]), int(r), -1, E.NO_EXTRA_ITEMS_ALLOWED))
                    bad_rows.append(int(r))
            elif isinstance(cs.additional_items, ColumnSpec):
                sel = extra[elem_present[extra]]
                if len(sel):
                    sub_ok = self._spec_valid_mask(
                        cs.additional_items, flat.take(pa.array(sel, type=pa.int64()))
                    )
                    for k in np.flatnonzero(~sub_ok):
                        fi = int(sel[k])
                        details.append((fi, int(parent[fi]), int(item_idx[fi]), E.NOT_SCHEMA_VALID))
                        bad_rows.append(int(parent[fi]))
        return np.asarray(sorted(set(bad_rows)), dtype=np.int64), details, flat

    def _contains_mask(self, sub: ColumnSpec, arr: pa.Array) -> np.ndarray:
        """True where ≥1 list element validates ``sub``; empty lists fail
        (src/jesse_validator_draft6.erl:569-587)."""
        n = len(arr)
        flat, parent, _ii, _cnt = _list_layout(arr)
        ok = np.zeros(n, dtype=bool)
        if len(parent):
            elem_ok = self._spec_valid_mask(sub, flat)
            elem_ok &= _np_mask(pc.is_valid(flat), len(flat))
            good_rows = np.unique(parent[elem_ok])
            ok[good_rows] = True
        return ok

    # -- build emission units --
    def _build(self) -> None:
        for col, cs in self.spec.columns.items():
            self._build_column(col, cs)
        for rule in self.spec.consistency:
            self._build_consistency(rule)
        for rule in self.spec.conditionals:
            self._build_conditional(rule)
        for col, needs in self.spec.dependencies.items():
            self._build_dependency(col, needs)
        for cc in self.spec.custom_checks:
            self._build_custom(cc)

    def _build_custom(self, cc) -> None:
        """external_validator analogue: user predicate appended AFTER all
        keyword checks (src/jesse_validator_draft4.erl:1356-1362)."""
        col = cc.column or self.spec.key_column

        def fn(tbl, cc=cc, col=col):
            ok = np.asarray(cc.fn(tbl), dtype=bool)
            idx = np.flatnonzero(~ok)
            if len(idx) == 0:
                return _NO_VIOLATIONS
            if col and col in tbl.column_names:
                vals = self._values_json(_combine(tbl[col]), idx)
            else:
                vals = _repeat("null", len(idx))
            return idx, vals, None

        self._add(
            f"custom:{cc.name}",
            cc.error_atom,
            [col] if col else [],
            {"external": cc.name},
            fn,
        )

    def _memo(self, tbl: pa.Table, key, compute: Callable[[], Any]):
        """``compute()`` once per batch: the emission units of one batch
        share what they ask for twice (a column and its presence mask, a
        keyword evaluation that several emits report).  Keyed on the
        table identity; one batch is in flight per worker at a time."""
        cache = getattr(self, "_batch_memo", None)
        if cache is None or cache[0] is not tbl:
            cache = (tbl, {})
            self._batch_memo = cache
        if key not in cache[1]:
            cache[1][key] = compute()
        return cache[1][key]

    def _col_ctx(self, tbl: pa.Table, col: str):
        """(column array, presence mask), or (None, None) for a column the
        batch lacks; combined and masked once per batch."""

        def ctx():
            if col not in tbl.column_names:
                return None, None
            arr = _combine(tbl[col])
            return arr, _np_mask(pc.is_valid(arr), len(arr))

        return self._memo(tbl, col, ctx)

    def _add(self, name, error, path, fragment_obj, fn):
        self._emits.append(
            _Emit(
                name=name,
                error=error,
                path=path,
                fragment=json.dumps(fragment_obj, sort_keys=True, separators=(",", ":")),
                fn=fn,
            )
        )

    def _add_multi(self, name, path, fragment_obj, fn):
        """Emission unit whose fn returns a 4th element: a per-violation
        error-atom list (used by nested struct properties, where one
        field evaluation yields several keyword atoms)."""
        self._add(name, "__multi__", path, fragment_obj, fn)

    def _values_json(self, arr: pa.Array, idx: np.ndarray) -> pa.Array:
        return _json_text(arr.take(pa.array(idx, type=pa.int64())))

    def _build_column(self, col: str, cs: ColumnSpec) -> None:
        if cs.required:
            # missing_required_property (src/jesse_validator_draft4.erl:1044-1058);
            # Value in the reference is the enclosing object — we record JSON null.
            def req_fn(tbl, col=col):
                n = tbl.num_rows
                arr, present = self._col_ctx(tbl, col)
                if arr is None:
                    idx = np.arange(n, dtype=np.int64)
                else:
                    idx = np.flatnonzero(~present)
                return idx, _repeat("null", len(idx)), None

            self._add(f"required:{col}", E.MISSING_REQUIRED_PROPERTY, [col], {"required": [col]}, req_fn)

        for kw in _KEYWORDS:
            if kw.has(cs):
                (kw.emit or CompiledSpec._plain_emits)(self, col, cs, kw)

    def _plain_emits(self, col: str, cs: ColumnSpec, kw: "_Keyword") -> None:
        """One emit per atom of ``kw``: the present rows its ok mask fails,
        with their values (or ``kw.value``) as value_json."""
        frag = kw.frag(cs)
        for i, (name, atom) in enumerate(zip(kw.names, kw.atoms)):
            def fn(tbl, i=i):
                arr, present = self._col_ctx(tbl, col)
                if arr is None or not kw.dtype(arr.type):
                    return _NO_VIOLATIONS
                if len(kw.atoms) == 1:
                    ok = kw.ok(self, cs, arr)
                else:  # one evaluation serves the emit of every atom
                    ok = self._memo(tbl, (kw.names, col), lambda: kw.ok(self, cs, arr))[i]
                if ok is None:
                    return _NO_VIOLATIONS
                idx = np.flatnonzero(present & ~ok)
                if len(idx) == 0:
                    return _NO_VIOLATIONS
                vals = self._values_json(arr, idx) if kw.value is None else kw.value(self, cs, arr, idx)
                return idx, vals, None

            self._add(f"{name}:{col}", atom, [col], frag, fn)

    def _any_of_json(self, cs: ColumnSpec, arr: pa.Array, idx: np.ndarray) -> pa.Array:
        """anyOf's value_json: the value and the failing CHILD with the
        fewest errors, as the reference reports it ({any_schemas_not_valid,
        ShortestErrors}, src/jesse_validator_draft4.erl:1162-1179, ties
        keep the earlier sub 1365-1373).  Evaluated over ONLY the failing
        rows — violations are rare, so re-running every sub-keyword over
        the whole batch would double the anyOf column's cost for nothing."""
        taken = arr.take(pa.array(idx, type=pa.int64()))
        sub_fails = [self._spec_fail_atoms(s, taken) for s in cs.any_of]
        raw = taken.to_pylist()
        vals = []
        for pos in range(len(idx)):
            best: Optional[list[str]] = None
            for fails in sub_fails:
                atoms = [atom for atom, mask in fails if mask[pos]]
                if best is None or len(atoms) < len(best):
                    best = atoms
            vals.append(
                json.dumps(
                    {"value": raw[pos], "shortest_errors": best or []},
                    ensure_ascii=False,
                    separators=(",", ":"),
                )
            )
        return pa.array(vals, type=pa.string())

    def _unique_items_emit(self, col: str, cs: ColumnSpec, kw: "_Keyword") -> None:
        """uniqueItems: value_json is the first duplicated element."""
        def fn(tbl):
            arr, _present = self._col_ctx(tbl, col)
            if arr is None or not kw.dtype(arr.type):
                return _NO_VIOLATIONS
            # a null list has no elements, so every row found is present
            rows, vals = _unique_items_dups(arr)
            return rows, pa.array([_json_val(v) for v in vals], type=pa.string()), None

        self._add(f"{kw.names[0]}:{col}", kw.atoms[0], [col], kw.frag(cs), fn)

    def _items_emit(self, col: str, cs: ColumnSpec, kw: "_Keyword") -> None:
        """Object-form items: one violation per failing element, its path
        gaining the 0-based index (src/jesse_validator_draft4.erl:542-557;
        path convention src/jesse_error.erl:85-92)."""
        def fn(tbl):
            arr, present = self._col_ctx(tbl, col)
            if arr is None or not kw.dtype(arr.type):
                return _NO_VIOLATIONS
            return self._item_violations(cs.items, arr, present, [col])

        self._add(f"{kw.names[0]}:{col}", _items_atom(cs.items), [col], kw.frag(cs), fn)

    def _positional_emits(self, col: str, cs: ColumnSpec, kw: "_Keyword") -> None:
        """Array-form items + additionalItems
        (src/jesse_validator_draft4.erl:558-603): two atoms come out of
        one evaluation per batch, split into two emission units."""
        add_name, pos_name = kw.names

        def split(atom):
            def fn(tbl):
                arr, present = self._col_ctx(tbl, col)
                if arr is None or not kw.dtype(arr.type):
                    return _NO_VIOLATIONS
                _rows, details, flat = self._memo(
                    tbl, (pos_name, col), lambda: self._positional_bad_rows(cs, arr))
                details = [d for d in details if present[d[1]] and d[3] == atom]
                if not details:
                    return _NO_VIOLATIONS
                rows = np.asarray([d[1] for d in details], dtype=np.int64)
                ln = pc.list_value_length(arr)
                vals = [
                    _json_val({"length": ln[d[1]].as_py()}) if d[2] < 0 else _json_val(flat[d[0]].as_py())
                    for d in details
                ]
                # item_idx -1 = whole-array error: path is the column
                # itself (the reference's [] at instance root)
                paths = [[col] if d[2] < 0 else [col, str(d[2])] for d in details]
                return rows, pa.array(vals, type=pa.string()), pa.array(paths, type=_PATH_TYPE)

            return fn

        frag = kw.frag(cs)
        self._add(f"{pos_name}:{col}", E.NOT_SCHEMA_VALID, [col], frag, split(E.NOT_SCHEMA_VALID))
        if cs.additional_items is False:
            self._add(f"{add_name}:{col}", E.NO_EXTRA_ITEMS_ALLOWED, [col], frag,
                      split(E.NO_EXTRA_ITEMS_ALLOWED))

    def _nested_emit(self, col: str, cs: ColumnSpec, kw: "_Keyword") -> None:
        """Nested object properties on a STRUCT column: ONE recursive
        emission unit per column — the walker descends into nested structs
        and list items with full path extension, mirroring the reference's
        per-property recursion (src/jesse_validator_draft4.erl:380-400,
        path convention src/jesse_error.erl:266-271)."""
        def fn(tbl):
            arr, present = self._col_ctx(tbl, col)
            if arr is None or not kw.dtype(arr.type):
                return _NO_VIOLATIONS
            out = ([], [], [], [])
            self._walk_struct(arr, present, cs, [col], out)
            if not out[0]:
                return _NO_VIOLATIONS
            return (np.concatenate(out[0]),
                    *(pa.concat_arrays(chunks) for chunks in out[1:]))

        self._add_multi(f"{kw.names[0]}:{col}", [col], kw.frag(cs), fn)

    def _build_consistency(self, rule: ConsistencyRule) -> None:
        name = rule.name or f"{rule.kind}:{rule.left}~{rule.right}"
        frag_obj = {"consistency": {"kind": rule.kind, "left": rule.left, "right": rule.right}}
        # value_json is '{"len":a,"<right>":b}', as _json_val renders the dict
        right_key = "," + _json_val(rule.right) + ":"

        def fn(tbl, rule=rule, right_key=right_key):
            left, lp = self._col_ctx(tbl, rule.left)
            right, rp = self._col_ctx(tbl, rule.right)
            if left is None or right is None:
                return _NO_VIOLATIONS
            if rule.kind == "list_len_eq":
                if not _is_list(left.type):
                    return _NO_VIOLATIONS
                ln = pc.fill_null(pc.list_value_length(left), -1).to_numpy(zero_copy_only=False)
            elif rule.kind == "str_len_eq":
                ln = pc.fill_null(pc.utf8_length(left), -1).to_numpy(zero_copy_only=False)
            else:
                raise E.SchemaInvalidError(E.SCHEMA_INVALID, f"unknown consistency kind {rule.kind}")
            rv = _to_f64(right)
            with np.errstate(invalid="ignore"):
                bad = lp & rp & (ln.astype(np.float64) != rv)
            idx = np.flatnonzero(bad)
            if len(idx) == 0:
                return _NO_VIOLATIONS
            rv = rv[idx]
            if np.all(np.abs(rv) < 2.0**63):
                right_txt = pc.cast(pa.array(rv.astype(np.int64)), pa.string())
            else:  # past int64 (or NaN, which raises): Python's exact int()
                right_txt = pa.array([str(int(x)) for x in rv], type=pa.string())
            vals = pc.binary_join_element_wise(
                '{"len":', pc.cast(pa.array(ln[idx]), pa.string()), right_key, right_txt, "}", ""
            )
            return idx, vals, None

        self._add(name, rule.error_atom, [rule.left], frag_obj, fn)

    def _build_conditional(self, rule) -> None:
        """Draft-7-style table-level if/then/else (engine extension —
        the reference's keyword set stops at draft-6 and ignores the
        unknown keywords, src/jesse_validator_draft4.erl:259-260).

        Fully vectorized: the condition mask is the AND of per-column
        ``_spec_valid_mask`` calls (NULL condition values do NOT pass),
        and each branch's sub-specs are evaluated once per batch and
        gated by the branch mask — no per-row dispatch."""
        frag_obj = {
            "if": {"properties": {c: s.to_fragment() for c, s in rule.if_.items()}},
            "then": {"properties": {c: s.to_fragment() for c, s in rule.then_.items()}},
            "else": {"properties": {c: s.to_fragment() for c, s in rule.else_.items()}},
        }
        branch_cols = sorted(set(rule.then_) | set(rule.else_))

        def fn(tbl, rule=rule, branch_cols=branch_cols):
            n = tbl.num_rows
            cond = np.ones(n, dtype=bool)
            for col, sub in rule.if_.items():
                arr, present = self._col_ctx(tbl, col)
                if arr is None:
                    cond &= False
                    break
                cond &= present & self._spec_valid_mask(sub, arr)
            bad = np.zeros(n, dtype=bool)
            for branch_mask, branch in ((cond, rule.then_), (~cond, rule.else_)):
                if not branch or not branch_mask.any():
                    continue
                for col, sub in branch.items():
                    arr, present = self._col_ctx(tbl, col)
                    if arr is None:
                        # branch demands a column the batch lacks:
                        # every row in the branch fails
                        bad |= branch_mask
                        continue
                    bad |= branch_mask & present & ~self._spec_valid_mask(sub, arr)
            idx = np.flatnonzero(bad)
            if len(idx) == 0:
                return _NO_VIOLATIONS
            # value_json: the branch columns of each offending row
            cols = {}
            for col in branch_cols:
                arr, _p = self._col_ctx(tbl, col)
                if arr is not None:
                    cols[col] = arr.take(pa.array(idx, type=pa.int64())).to_pylist()
            vals = [
                _json_val({c: v[i] for c, v in cols.items()})
                for i in range(len(idx))
            ]
            return idx, pa.array(vals, type=pa.string()), None

        self._add(
            f"conditional:{rule.name}",
            E.CONDITIONAL_NOT_VALID,
            branch_cols,
            frag_obj,
            fn,
        )

    def _build_dependency(self, col: str, needs: list[str]) -> None:
        # property dependencies, array form: col present ⇒ needs present
        # (src/jesse_validator_draft4.erl:637-694)
        def fn(tbl, col=col, needs=needs):
            arr, present = self._col_ctx(tbl, col)
            if arr is None:
                return _NO_VIOLATIONS
            bad = np.zeros(tbl.num_rows, dtype=bool)
            for dep in needs:
                darr, dpresent = self._col_ctx(tbl, dep)
                miss = ~dpresent if darr is not None else np.ones(tbl.num_rows, dtype=bool)
                bad |= present & miss
            idx = np.flatnonzero(bad)
            return idx, self._values_json(arr, idx), None

        self._add(
            f"dependencies:{col}",
            E.MISSING_DEPENDENCY,
            [col],
            {"dependencies": {col: needs}},
            fn,
        )

    # -- public API --

    def check_schema(self, schema: pa.Schema) -> None:
        """Launch-time schema gate: the additionalProperties:false
        analogue — unexpected columns abort before the data plane starts
        (SURVEY §2.3 mapping of src/jesse_validator_draft4.erl:431-507)."""
        if not self.spec.additional_columns_allowed:
            extra = set(schema.names) - set(self.spec.columns)
            if self.spec.column_patterns:
                pats = [re.compile(p) for p in self.spec.column_patterns]
                extra = {c for c in extra if not any(rx.search(c) for rx in pats)}
            if extra:
                raise E.SchemaInvalidError(
                    E.NO_EXTRA_PROPERTIES_ALLOWED, f"unexpected columns {sorted(extra)}"
                )
        # propertyNames (draft-6): every column NAME must validate the
        # sub-spec (src/jesse_validator_draft6.erl:114-125,424-436) —
        # like additionalProperties, names are schema-side in the
        # columnar mapping, so this is a launch gate, not a data error.
        if self.spec.property_names is not None:
            names = pa.array(list(schema.names), type=pa.string())
            ok = self._spec_valid_mask(self.spec.property_names, names)
            if not ok.all():
                bad = [schema.names[i] for i in np.flatnonzero(~ok)]
                raise E.SchemaInvalidError(
                    E.NOT_SCHEMA_VALID, f"propertyNames: invalid column names {sorted(bad)}"
                )
        # min/maxProperties → column-count bounds at launch
        # (src/jesse_validator_draft4.erl:1073-1107, compile-time per SURVEY §2.3)
        n_cols = len(schema.names)
        if self.spec.max_columns is not None and n_cols > self.spec.max_columns:
            raise E.SchemaInvalidError(E.TOO_MANY_PROPERTIES, f"{n_cols} columns > {self.spec.max_columns}")
        if self.spec.min_columns is not None and n_cols < self.spec.min_columns:
            raise E.SchemaInvalidError(E.TOO_FEW_PROPERTIES, f"{n_cols} columns < {self.spec.min_columns}")

    def check_batch(
        self,
        tbl: pa.Table,
        *,
        allowed_errors: Optional[int] = None,
        error_handler: Optional[Callable[[pa.Table, Optional[int]], pa.Table]] = None,
    ) -> pa.Table:
        """All row-level checks over one Arrow batch → violations table.

        ``allowed_errors`` reproduces jesse's per-document error budget
        (src/jesse_error.erl:71-78; default wiring src/jesse_state.erl:138-141):
        ``None`` ≡ 'infinity' (collect everything, our default);
        ``0`` ≡ jesse's default stop-at-first (one violation per row);
        ``N>0`` ≡ collect up to N+1 violations per row (jesse appends
        until the budget is EXCEEDED, then throws carrying the list).
        Emission order is the spec's keyword order, so "first" is
        deterministic.

        Rows are rendered column by column: each emit contributes Arrow
        chunks (``doc_id`` a take of the key column, ``value_json`` from
        :func:`_json_text`, the constant path, error and fragment a take
        of a one-element array) and every column is concatenated once.
        Only values that need escaping or are not integers or strings are
        rendered one at a time.

        ``error_handler`` is the pluggable violation-sink hook — the
        batch analogue of jesse's per-error ``error_handler(Error,
        ErrorList, AllowedErrors)`` option (src/jesse.erl:61-66,
        default src/jesse_error.erl:67-78): it receives this batch's
        violations table plus the allowed_errors budget and returns the
        (possibly transformed/filtered) table to emit, or raises to
        abort the run.  Must be a picklable top-level callable — it
        ships to workers inside the fused validator state.
        """
        key = self.spec.key_column
        key_arr = _combine(tbl[key]) if key and key in tbl.column_names else None
        cap = None if allowed_errors is None else (1 if allowed_errors == 0 else allowed_errors + 1)
        row_counts = np.zeros(tbl.num_rows, dtype=np.int32) if cap is not None else None
        cols = ([], [], [], [], [])  # doc_id, path, error, value_json, schema_fragment chunks
        for em in self._emits:
            result = em.fn(tbl)
            idx, vals, paths = np.asarray(result[0], dtype=np.int64), result[1], result[2]
            atoms = result[3] if len(result) > 3 else None
            if len(idx) == 0:
                continue
            if cap is not None:
                # within one emit, several violations can hit the same row
                # (per-element items checks): a violation is kept iff the
                # row's count before this emit plus its earlier hits in
                # this emit stay under the cap
                sel = np.flatnonzero(row_counts[idx] + _occurrence_rank(idx) < cap)
                if len(sel) == 0:
                    continue
                np.add.at(row_counts, idx[sel], 1)
                if len(sel) < len(idx):
                    idx = idx[sel]
                    sel = pa.array(sel)
                    vals = vals.take(sel)
                    paths = None if paths is None else paths.take(sel)
                    atoms = None if atoms is None else atoms.take(sel)
            n = len(idx)
            cols[0].append(_doc_ids(key_arr, idx))
            cols[1].append(_repeat(em.path, n) if paths is None else paths)
            cols[2].append(_repeat(em.error, n) if atoms is None else atoms)
            cols[3].append(vals)
            cols[4].append(_repeat(em.fragment, n))
        result = _violations_table(*cols) if cols[0] else empty_violations()
        # schema-form dependencies: rows where the trigger column is
        # present are validated against the dependent sub-spec, and the
        # CHILD's violations propagate as-is — mirroring the reference's
        # recursive check of the enclosing object against the dependency
        # schema (src/jesse_validator_draft4.erl:656-668).  Runs outside
        # the allowed_errors budget (documented delta: the budget caps
        # keyword emissions per row; dependency children are appended).
        if self._schema_deps:
            parts = [result] if result.num_rows else []
            for col, sub in self._schema_deps:
                arr, present = self._col_ctx(tbl, col)
                if arr is None or not present.any():
                    continue
                filtered = tbl.filter(pa.array(present))
                child = sub.check_batch(filtered, allowed_errors=allowed_errors)
                if child.num_rows:
                    parts.append(child)
            if parts:
                result = pa.concat_tables(parts) if len(parts) > 1 else parts[0]
        if error_handler is not None:
            result = error_handler(result, allowed_errors)
        return result

    def invalid_row_mask(self, tbl: pa.Table) -> np.ndarray:
        """Per-row boolean: True where the row has ≥1 row-level violation.
        The vectorized analogue of jesse's default ``allowed_errors=0``
        early-exit verdict (src/jesse_error.erl:71-78): we don't need the
        error list, just pass/fail."""
        bad = np.zeros(tbl.num_rows, dtype=bool)
        for em in self._emits:
            idx = em.fn(tbl)[0]
            if len(idx):
                bad[np.asarray(idx, dtype=np.int64)] = True
        for col, sub in self._schema_deps:
            arr, present = self._col_ctx(tbl, col)
            if arr is None or not present.any():
                continue
            rows = np.flatnonzero(present)
            child_bad = sub.invalid_row_mask(tbl.filter(pa.array(present)))
            bad[rows[child_bad]] = True
        return bad


# ---------------------------------------------------------------------------
# the keyword table: one row per JSON-Schema keyword, read by
# ``_spec_valid_mask`` (the AND of every ok mask), ``_spec_fail_atoms``
# (an (atom, ~ok) pair per failing atom) and ``_build_column`` (one emit
# per atom).  Rows are in emission order, which decides the violation
# ``allowed_errors=0`` keeps.


def _any_dtype(_t: pa.DataType) -> bool:
    return True


def _items_atom(sub: ColumnSpec) -> str:
    """The atom of a failing element of object-form items."""
    return E.NOT_IN_RANGE if (sub.minimum is not None or sub.maximum is not None) else E.NOT_SCHEMA_VALID


def _pick(*keys: str) -> Callable[[ColumnSpec], dict]:
    """The emit fragment holding the ``to_fragment()`` entries ``keys``."""
    def frag(cs: ColumnSpec) -> dict:
        full = cs.to_fragment()
        return {k: full[k] for k in keys if k in full}
    return frag


@dataclass(frozen=True, eq=False)
class _Keyword:
    """One row of :data:`_KEYWORDS`."""

    #: emit name and error atom of each ok mask (oneOf and positional
    #: items have two)
    names: tuple[str, ...]
    atoms: tuple[str, ...]
    #: the emit's schema_fragment
    frag: Callable[[ColumnSpec], dict]
    #: the keyword is in the spec
    has: Callable[[ColumnSpec], bool]
    #: the Arrow dtypes it checks; a value of any other dtype passes
    dtype: Callable[[pa.DataType], bool]
    #: (compiled, spec, array) -> the ok mask, True where the value
    #: passes (NULL positions are garbage), or None when every value
    #: passes; a tuple of one mask per atom for a two-atom row
    ok: Callable[[CompiledSpec, ColumnSpec, pa.Array], Any]
    #: value_json of the failing rows of a column, for the plain emit
    #: (default: the values themselves)
    value: Optional[Callable[[CompiledSpec, ColumnSpec, pa.Array, np.ndarray], pa.Array]] = None
    #: an emit builder for a keyword whose rows, values or paths come
    #: from its own kernel rather than from the ok mask
    emit: Optional[Callable[[CompiledSpec, str, ColumnSpec, "_Keyword"], None]] = None

    def applies(self, cs: ColumnSpec, t: pa.DataType) -> bool:
        return self.has(cs) and self.dtype(t)

    def masks(self, c: CompiledSpec, cs: ColumnSpec, arr: pa.Array):
        """(atom, ok mask or None) pairs of this keyword on ``arr``."""
        m = self.ok(c, cs, arr)
        return zip(self.atoms, m) if len(self.atoms) > 1 else ((self.atoms[0], m),)


def _kw(names, atoms, frag, has, ok, *, dtype=_any_dtype, value=None, emit=None) -> _Keyword:
    as_tuple = lambda x: (x,) if isinstance(x, str) else tuple(x)
    return _Keyword(as_tuple(names), as_tuple(atoms), frag, has, dtype, ok, value, emit)


def _type_frag(cs: ColumnSpec) -> dict:
    if cs.type_schemas is None:
        return {"type": cs.type}
    prims = [cs.type] if isinstance(cs.type, str) else (cs.type or [])
    return {"type": prims + [s.to_fragment() for s in cs.type_schemas]}


def _range_frag(cs: ColumnSpec) -> dict:
    return {
        k: v
        for k, v in (
            ("minimum", cs.minimum),
            ("exclusiveMinimum", cs.exclusive_minimum or None),
            ("maximum", cs.maximum),
            ("exclusiveMaximum", cs.exclusive_maximum or None),
        )
        if v is not None
    }


def _items_len_ok(c, cs: ColumnSpec, a: pa.Array) -> np.ndarray:
    ln = pc.fill_null(pc.list_value_length(a), 0).to_numpy(zero_copy_only=False)
    ok = np.ones(len(a), dtype=bool)
    if cs.min_items is not None:
        ok &= ln >= cs.min_items
    if cs.max_items is not None:
        ok &= ln <= cs.max_items
    return ok


def _rows_ok(n: int, bad_rows: np.ndarray) -> np.ndarray:
    ok = np.ones(n, dtype=bool)
    ok[bad_rows] = False
    return ok


def _positional_ok(c, cs: ColumnSpec, a: pa.Array):
    """(no_extra_items_allowed ok, not_schema_valid ok): a row with extra
    items keeps that atom, its other failing items are not reported."""
    bad_rows, details, _flat = c._positional_bad_rows(cs, a)
    extra = np.zeros(len(a), dtype=bool)
    extra[[d[1] for d in details if d[3] == E.NO_EXTRA_ITEMS_ALLOWED]] = True
    return ~extra, _rows_ok(len(a), bad_rows) | extra


def _all_of_ok(c, cs: ColumnSpec, a: pa.Array) -> np.ndarray:
    ok = np.ones(len(a), dtype=bool)
    for sub in cs.all_of:
        ok &= c._spec_valid_mask(sub, a)
    return ok


def _any_of_ok(c, cs: ColumnSpec, a: pa.Array) -> np.ndarray:
    ok = np.zeros(len(a), dtype=bool)
    for sub in cs.any_of:
        ok |= c._spec_valid_mask(sub, a)
    return ok


def _one_of_ok(c, cs: ColumnSpec, a: pa.Array):
    """(some member valid, at most one valid): 0 valid is
    not_one_schema_valid, >1 more_than_one_schema_valid
    (src/jesse_validator_draft4.erl:1197-1223)."""
    cnt = np.zeros(len(a), dtype=np.int32)
    for sub in cs.one_of:
        cnt += c._spec_valid_mask(sub, a).astype(np.int32)
    return cnt >= 1, cnt <= 1


def _length_value(c, cs: ColumnSpec, a: pa.Array, idx: np.ndarray) -> pa.Array:
    # the full token array can be huge — record its length, not the payload
    return _length_json(pc.list_value_length(a).take(pa.array(idx, type=pa.int64())))


_TYPE = _kw(
    # wrong_type (src/jesse_validator_draft4.erl:288-318)
    "type", E.WRONG_TYPE, _type_frag,
    lambda cs: cs.type is not None or cs.type_schemas is not None,
    lambda c, cs, a: c._type_valid_mask(cs, a),
)
_ITEMS = _kw(
    "items", E.NOT_SCHEMA_VALID, lambda cs: {"items": cs.items.to_fragment()},
    lambda cs: cs.items is not None,
    lambda c, cs, a: _rows_ok(len(a), c._failing_item_rows(cs.items, a)),
    dtype=_is_list, emit=CompiledSpec._items_emit,
)
_PROPERTIES = _kw(
    "nested", E.NOT_SCHEMA_VALID, ColumnSpec.to_fragment,
    lambda cs: bool(cs.properties or cs.required_props or cs.pattern_props
                    or not cs.additional_props_allowed),
    lambda c, cs, a: c._struct_props_mask(cs, a),
    dtype=pa.types.is_struct, emit=CompiledSpec._nested_emit,
)

_KEYWORDS: tuple[_Keyword, ...] = (
    _TYPE,
    _kw("enum", E.NOT_IN_ENUM, _pick("enum"), lambda cs: cs.enum is not None,
        lambda c, cs, a: _enum_mask(a, cs.enum)),
    _kw("const", E.NOT_IN_ENUM, _pick("const"), lambda cs: cs.has_const,
        lambda c, cs, a: _enum_mask(a, [cs.const])),
    _kw("range", E.NOT_IN_RANGE, _range_frag,
        lambda cs: cs.minimum is not None or cs.maximum is not None,
        lambda c, cs, a: _range_mask(a, cs.minimum, cs.exclusive_minimum,
                                     cs.maximum, cs.exclusive_maximum),
        dtype=_is_numeric),
    _kw("multipleOf", E.NOT_MULTIPLE_OF, _pick("multipleOf"), lambda cs: cs.multiple_of is not None,
        lambda c, cs, a: _multiple_of_mask(a, cs.multiple_of), dtype=_is_numeric),
    _kw("pattern", E.NO_MATCH, _pick("pattern"), lambda cs: cs.pattern is not None,
        lambda c, cs, a: _pattern_mask(a, cs.pattern), dtype=_is_str),
    _kw("length", E.WRONG_LENGTH, _pick("minLength", "maxLength"),
        lambda cs: cs.min_length is not None or cs.max_length is not None,
        lambda c, cs, a: _strlen_mask(a, cs.min_length, cs.max_length), dtype=_is_str),
    _kw("format", E.WRONG_FORMAT, _pick("format"), lambda cs: cs.format is not None,
        lambda c, cs, a: _format_mask(a, cs.format), dtype=_is_str),
    _kw("items_len", E.WRONG_SIZE, _pick("minItems", "maxItems"),
        lambda cs: cs.min_items is not None or cs.max_items is not None,
        _items_len_ok, dtype=_is_list, value=_length_value),
    _kw("uniqueItems", E.NOT_UNIQUE, _pick("uniqueItems"), lambda cs: cs.unique_items,
        lambda c, cs, a: _rows_ok(len(a), _unique_items_dups(a)[0]),
        dtype=_is_list, emit=CompiledSpec._unique_items_emit),
    _ITEMS,
    _kw(("addItems", "posItems"), (E.NO_EXTRA_ITEMS_ALLOWED, E.NOT_SCHEMA_VALID),
        _pick("items", "additionalItems"), lambda cs: cs.items_positional is not None,
        _positional_ok, dtype=_is_list, emit=CompiledSpec._positional_emits),
    _kw("allOf", E.ALL_SCHEMAS_NOT_VALID, _pick("allOf"), lambda cs: bool(cs.all_of), _all_of_ok),
    _kw("anyOf", E.ANY_SCHEMAS_NOT_VALID, _pick("anyOf"), lambda cs: bool(cs.any_of), _any_of_ok,
        value=CompiledSpec._any_of_json),
    _kw(("oneOf0", "oneOfN"), (E.NOT_ONE_SCHEMA_VALID, E.MORE_THAN_ONE_SCHEMA_VALID),
        _pick("oneOf"), lambda cs: bool(cs.one_of), _one_of_ok),
    # draft-3 divisibleBy; divisor 0 ⇒ every value fails with
    # not_divisible (src/jesse_validator_draft3.erl:860-869)
    _kw("divisibleBy", E.NOT_DIVISIBLE, _pick("divisibleBy"), lambda cs: cs.divisible_by is not None,
        lambda c, cs, a: (np.zeros(len(a), dtype=bool) if cs.divisible_by == 0
                          else _multiple_of_mask(a, cs.divisible_by)),
        dtype=_is_numeric),
    # draft-3 disallow ⇒ not_allowed (src/jesse_validator_draft3.erl:878-889);
    # union members may embed schemas (draft3.erl:304-328)
    _kw("disallow", E.NOT_ALLOWED, _pick("disallow"),
        lambda cs: cs.disallow is not None or bool(cs.disallow_schemas),
        lambda c, cs, a: ~c._disallow_match_mask(cs, a)),
    # draft-6 contains; empty array fails; atom data_invalid
    # (src/jesse_validator_draft6.erl:151-156,569-587)
    _kw("contains", E.DATA_INVALID, _pick("contains"), lambda cs: cs.contains is not None,
        lambda c, cs, a: c._contains_mask(cs.contains, a), dtype=_is_list, value=_length_value),
    _kw("not", E.NOT_SCHEMA_VALID, _pick("not"), lambda cs: cs.not_ is not None,
        lambda c, cs, a: ~c._spec_valid_mask(cs.not_, a)),
    _PROPERTIES,
)


def compile_spec(spec: TableSpec) -> CompiledSpec:
    return CompiledSpec(spec)
