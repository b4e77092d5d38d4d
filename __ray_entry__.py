"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship validation pipeline at sf0.001;
``queries()`` / ``oracle_sql()`` expose the operator catalog from
:mod:`jesse_ray.pipelines.queries` (one entry per implemented operator
from SURVEY §2, each SQL-checkable one with a DuckDB twin).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: full corpus
    validation (one fused pass of row + referential checks, plus key
    uniqueness) over the deterministic sequences corpus; returns the
    violation rows (doc_id, path, error, value_json, schema_fragment)."""
    from jesse_ray import testgen
    from jesse_ray.engine import validate_dataset
    from jesse_ray.pipelines.queries import _seq_spec
    from jesse_ray.sources import read_sequences

    testgen.generate("sf0.001")
    ds = read_sequences(str(testgen.corpus_path("sf0.001")))
    res = validate_dataset(ds, _seq_spec())
    tbl = res.all_violations_table()
    # path is list<string>; flatten for a stable driver-friendly schema
    import pyarrow as pa

    return pa.table(
        {
            "doc_id": tbl["doc_id"],
            "path": pa.array(["/".join(p) for p in tbl["path"].to_pylist()], type=pa.string()),
            "error": tbl["error"],
            "value_json": tbl["value_json"],
            "schema_fragment": tbl["schema_fragment"],
        }
    )


def queries() -> dict[str, Callable[[str], Any]]:
    from jesse_ray.pipelines.queries import queries as _q

    return _q()


def oracle_sql() -> dict[str, str]:
    from jesse_ray.pipelines.queries import oracle_sql as _o

    return _o()
