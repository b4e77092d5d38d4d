"""Re-expression of the reference's own edge-case conformance corpus
(test/jesse_tests_draft4_SUITE_data/extra/*.json — jesse's additions on
top of the official JSON-Schema-Test-Suite, whose submodule is not
checked out here) as Dataset-batch assertions (SURVEY §5.1 item 2).

Each case's instance becomes a 1-row Arrow table: object instances map
to one column per property (the engine's column model), scalar/array
instances to a single column ``v``.  The verdict (valid/invalid) must
match; compile-time schema gates (additionalProperties:false hitting an
unexpected column) count as invalid, mirroring jesse's verdict contract.

remoteRefExtra.json runs against a stdlib http.server fixture bound to
localhost:1234 (mirroring the reference's inets httpd,
test/jesse_tests_draft4_SUITE.erl:138-147) serving the PUBLIC
JSON-Schema-Test-Suite draft-4 remotes/subSchemas.json document (the
suite submodule is not checked out here, so the fixture synthesizes
that well-known two-entry document).  SKIP_FILES is empty — every
conformance file in both extras dirs runs.
"""

import http.client
import http.server
import json
import threading
import urllib.request
from pathlib import Path
from typing import Optional

import pyarrow as pa
import pytest

from jesse_ray import errors as E
from jesse_ray.compiler import compile_spec
from jesse_ray.spec import from_json_schema

EXTRA_DIRS = [
    (Path("/root/reference/test/jesse_tests_draft4_SUITE_data/extra"), "draft4"),
    # the draft-3 SUITE forces default_schema_ver draft3
    # (test/jesse_tests_draft3_SUITE.erl), so its extras compile under
    # the draft-3 dialect
    (Path("/root/reference/test/jesse_tests_draft3_SUITE_data/extra"), "draft3"),
]

SKIP_FILES: set = set()

# the public JSON-Schema-Test-Suite draft-4 remotes/subSchemas.json —
# what the reference's httpd serves from its remotes/ document root
_SUB_SCHEMAS = {
    "integer": {"type": "integer"},
    "refToInteger": {"$ref": "#/integer"},
}


def _uses_remote_ref(schema) -> bool:
    return "localhost:1234" in json.dumps(schema)


def _held_port_mismatch() -> Optional[str]:
    """None when whatever already holds localhost:1234 serves the
    expected subSchemas.json, else why its answers cannot be trusted."""
    try:
        with urllib.request.urlopen("http://127.0.0.1:1234/subSchemas.json", timeout=5) as r:
            body = json.loads(r.read())
    except (OSError, ValueError, http.client.HTTPException) as ex:
        return f"localhost:1234 is held by another process; GET /subSchemas.json failed ({ex})"
    if body != _SUB_SCHEMAS:
        return "localhost:1234 is held by another process serving a different /subSchemas.json"
    return None


@pytest.fixture(scope="module", autouse=True)
def _remote_ref_httpd():
    """Serve subSchemas.json on localhost:1234 for the remoteRefExtra
    cases (their $refs hardcode that origin, matching the reference's
    inets httpd on port 1234).  Yields None when those cases can run,
    else the reason to skip them: a process that already holds the port
    is trusted only if it serves the same document."""

    class H(http.server.BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802
            if self.path.split("#")[0] == "/subSchemas.json":
                body = json.dumps(_SUB_SCHEMAS).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
            else:
                self.send_error(404)

        def log_message(self, *a):  # quiet
            pass

    try:
        srv = http.server.ThreadingHTTPServer(("127.0.0.1", 1234), H)
    except OSError:  # port already bound, e.g. by a parallel test session
        yield _held_port_mismatch()
        return
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    try:
        yield None
    finally:
        srv.shutdown()
        srv.server_close()


# Erlang bignums ride Arrow decimals (decimal128 to 38 digits,
# decimal256 to 76 — see _instance_array); equality/enum/uniqueItems on
# them is exact via the compiler's _canon_key Fraction canonicalization,
# which is itself unbounded.  No skipped cases.
SKIP_CASES: set = set()


def _cases():
    out = []
    for extra_dir, dialect in EXTRA_DIRS:
        if not extra_dir.exists():
            continue
        for f in sorted(extra_dir.glob("*.json")):
            if f.name in SKIP_FILES:
                continue
            doc = json.loads(f.read_text())
            groups = doc if isinstance(doc, list) else [doc]
            for g in groups:
                for t in g.get("tests", []):
                    out.append(
                        pytest.param(
                            g["schema"],
                            dialect,
                            t["data"],
                            t["valid"],
                            id=f"{dialect}::{f.stem}::{g['description'][:30]}::{t['description'][:40]}",
                            marks=pytest.mark.skipif(
                                t["description"] in SKIP_CASES,
                                reason="Arrow int64 bignum delta (documented)",
                            ),
                        )
                    )
    return out


def _run(schema: dict, data, dialect: str = "draft4") -> tuple[bool, list[str]]:
    """(valid?, emitted error atoms) per the engine."""
    is_object_schema = ("properties" in schema or "patternProperties" in schema) and isinstance(
        data, dict
    )
    if is_object_schema:
        spec = from_json_schema(schema, key_column=None, default_schema_ver=dialect)
        cols = {k: pa.array([v]) for k, v in data.items()}
        tbl = pa.table(cols) if cols else pa.table({"__empty": pa.array([None], type=pa.null())})
        resolved = spec.resolve_patterns(list(data.keys()))
        compiled = compile_spec(resolved)
        try:
            compiled.check_schema(tbl.schema)
        except E.SchemaInvalidError as ex:
            if ex.error_atom == E.NO_EXTRA_PROPERTIES_ALLOWED:
                # jesse's data-side no_extra_properties_allowed verdict
                return False, [E.NO_EXTRA_PROPERTIES_ALLOWED]
            raise
        v = compiled.check_batch(tbl)
        return v.num_rows == 0, v["error"].to_pylist()
    # scalar / array instance → single column "v"
    spec = from_json_schema({"properties": {"v": schema}}, key_column=None,
                            default_schema_ver=dialect)
    compiled = compile_spec(spec)
    v = compiled.check_batch(pa.table({"v": _instance_array(data)}))
    return v.num_rows == 0, v["error"].to_pylist()


def _instance_array(data) -> pa.Array:
    """One-row Arrow column for the instance; integers beyond int64
    (Erlang bignums) land in decimal128(38, 0), and beyond that in
    decimal256(76, 0) — exact through 76 digits (the reference's widest
    test integer is 30 digits).  The engine's equality layer itself
    (compiler._canon_key Fraction canonicalization) is unbounded; the
    76-digit bound is Arrow's widest native decimal, i.e. an input
    representation limit, not an equality gap."""
    try:
        return pa.array([data])
    except (OverflowError, pa.ArrowInvalid):
        import decimal

        if isinstance(data, int) and not isinstance(data, bool):
            dec = decimal.Decimal(data)
            typ = pa.decimal128(38, 0) if len(str(abs(data))) <= 38 else pa.decimal256(76, 0)
            return pa.array([dec], type=typ)
        if isinstance(data, list) and all(
            isinstance(x, int) and not isinstance(x, bool) for x in data
        ):
            wide = max(len(str(abs(x))) for x in data)
            typ = pa.decimal128(38, 0) if wide <= 38 else pa.decimal256(76, 0)
            return pa.array([[decimal.Decimal(x) for x in data]],
                            type=pa.list_(typ))
        raise


@pytest.mark.parametrize("schema,dialect,data,valid", _cases())
def test_reference_extra_case(schema, dialect, data, valid, _remote_ref_httpd):
    if _remote_ref_httpd and _uses_remote_ref(schema):
        pytest.skip(_remote_ref_httpd)
    got_valid, atoms = _run(schema, data, dialect)
    if isinstance(valid, list):
        # harness form: `valid` is the exact expected error-atom list
        # (test/jesse_tests_util.erl:95-129)
        assert not got_valid
        assert sorted(atoms) == sorted(valid)
    else:
        assert got_valid == valid
