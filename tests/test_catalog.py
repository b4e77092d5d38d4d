"""The catalog registry: ``queries()`` / ``oracle_sql()`` give the same
entries, functions and oracle SQL as the pinned snapshot, and a name is
registered at most once."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import jesse_ray
from jesse_ray.pipelines.queries import entry, oracle_sql, queries

REPO_ROOT = Path(jesse_ray.__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "goldens" / "catalog.json"


def _sql_sha256(sql: str) -> str:
    # one twin reads a golden file under the checkout: hash it path-free
    return hashlib.sha256(sql.replace(str(REPO_ROOT), "<repo>").encode()).hexdigest()


def test_catalog_matches_snapshot():
    """Each name maps to the same function (module + qualname) and the
    same oracle SQL as ``tests/goldens/catalog.json``, and both views
    carry exactly the snapshot's names."""
    want = json.loads(GOLDEN.read_text())
    q, o = queries(), oracle_sql()
    assert set(q) == set(want)
    assert set(o) == set(want)
    got = {
        name: {"fn": f"{fn.__module__}:{fn.__qualname__}", "sql_sha256": _sql_sha256(o[name])}
        for name, fn in q.items()
    }
    assert got == want


def test_entry_refuses_name_collision():
    """A catalog name registered twice is a data-contract error that
    must survive ``python -O``: ValueError, not assert; the registry
    keeps the first function."""
    o = oracle_sql()
    clash = next(iter(o))
    before = queries()[clash]
    with pytest.raises(ValueError, match=clash):
        entry(clash, sql="SELECT 1")(lambda sf_dir: None)
    assert queries()[clash] is before


@pytest.mark.parametrize("sql", ["", "  \n", None])
def test_entry_requires_sql(sql):
    with pytest.raises(ValueError, match="no_such_entry"):
        entry("no_such_entry", sql=sql)
    assert "no_such_entry" not in oracle_sql()
