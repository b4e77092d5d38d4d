"""Mini-driver: run every queries() entry and its oracle_sql() twin at a
given sf, compare row-count + column names + order-insensitive values.

Usage: python tools/check_oracles.py [--round N] [sf_dir] [query ...]

With ``--round N`` the sweep is also written to ``SWEEP_r<NN>.json`` in
the working directory: one record per entry with ``ok``, ``wall_s`` and
``sf``.  Stdout is the same either way, ending in ``ALL OK`` or
``<n> FAILURES``.
"""

from __future__ import annotations

import json
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    try:
        from ray.data import Dataset

        if isinstance(res, Dataset):
            return res.to_pandas()
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _float_strs(s: pd.Series) -> np.ndarray:
    """Canonical exact formatting: shortest round-trip repr of the float64
    bits (repr('nan') for NaN, '-0.0' kept distinct).  Two columns compare
    equal iff every value is BIT-identical — the same bar as the driver's
    value-hash, unlike the old np.allclose(1e-9) (VERDICT r4 task 8)."""
    v = s.astype(float).to_numpy()
    # normalize -0.0 -> 0.0: DuckDB prints both as 0.0 and the driver's
    # hash canonicalizes through formatting, so the sign of zero is not
    # an observable difference
    v = np.where(v == 0.0, 0.0, v)
    return np.array([repr(float(x)) for x in v], dtype=object)


def compare(name: str, got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(got.columns) != sorted(want.columns):
        problems.append(f"columns {sorted(got.columns)} != {sorted(want.columns)}")
        return problems
    if len(got) != len(want):
        problems.append(f"rows {len(got)} != {len(want)}")
    g, w = canon(got), canon(want)
    if len(g) == len(w):
        for c in g.columns:
            a, b = g[c], w[c]
            if pd.api.types.is_float_dtype(a) or pd.api.types.is_float_dtype(b):
                av, bv = _float_strs(a), _float_strs(b)
                if not (av == bv).all():
                    bad = np.flatnonzero(av != bv)[:3]
                    problems.append(f"float col {c} differs at rows {bad.tolist()}: got {av[bad].tolist()} want {bv[bad].tolist()}")
            else:
                if not (a.astype(str).values == b.astype(str).values).all():
                    bad = np.flatnonzero(a.astype(str).values != b.astype(str).values)[:3]
                    problems.append(f"col {c} differs at rows {bad.tolist()}: got {a.iloc[bad].tolist()} want {b.iloc[bad].tolist()}")
    return problems


def pop_round(argv: list[str]) -> int | None:
    """Remove ``--round N`` from ``argv`` and return N (None if absent)."""
    if "--round" not in argv:
        return None
    i = argv.index("--round")
    try:
        n = int(argv[i + 1])
    except (IndexError, ValueError):
        raise SystemExit("--round takes an integer round number") from None
    del argv[i:i + 2]
    return n


def main() -> int:
    sweep_round = pop_round(sys.argv)
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    # seq_* twins embed the generated-corpus path for the DEFAULT sf
    # (queries.SEQ_SQL); when checking another scale, point them at that
    # scale's corpus so both engines read the same rows
    from jesse_ray import testgen as _tg
    from jesse_ray.pipelines.queries import SEQ_SQL as _default_seq_sql

    _sf_here = _tg.sf_name_of(sf_dir)
    _default_dir = str(_tg.corpus_dir("sf0.01"))
    _dir_here = str(_tg.corpus_dir(_sf_here))
    if _dir_here != _default_dir:
        oracles = {k: v.replace(_default_dir + "/", _dir_here + "/")
                          .replace("_sigs_sf0.01.parquet", f"_sigs_{_sf_here}.parquet")
                   for k, v in oracles.items()}

    con = duckdb.connect()
    # big-sf twins (e.g. token pagerank at sf1 unnests ~1B tokens) spill;
    # keep the spill on /tmp and bounded rather than in the repo cwd
    con.execute("PRAGMA temp_directory='/tmp/duckdb_spill'")
    con.execute("PRAGMA memory_limit='48GB'")
    con.execute("PRAGMA max_temp_directory_size='40GB'")
    for t in TABLES:
        # partial corpora (e.g. the generated sf1 dir carries only the
        # sequences/documents/embeddings family) register the views
        # they have; a query touching a missing table fails loudly
        if os.path.exists(os.path.join(sf_dir, f"{t}.parquet")):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    failures = 0
    records: list[dict] = []

    def record(name: str, ok: bool, wall_s: float) -> None:
        records.append({"name": name, "ok": ok, "wall_s": round(wall_s, 3), "sf": _sf_here})

    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            # one retry: this box's cold-page/contention pathology can
            # make a first attempt raise transiently (observed ~1 in 10
            # full sweeps); a deterministic logic failure fails twice
            try:
                got = to_pandas(fn(sf_dir))
                print(f"note {name}: first attempt raised {type(e).__name__}, retry succeeded")
            except Exception as e2:  # noqa: BLE001
                print(f"FAIL {name}: query raised {type(e2).__name__}: {e2}")
                failures += 1
                record(name, False, time.time() - t0)
                continue
        dt = time.time() - t0
        try:
            want = con.execute(oracles[name]).df()
        except Exception as e:  # noqa: BLE001
            print(f"FAIL {name}: oracle raised {e}")
            failures += 1
            record(name, False, dt)
            continue
        problems = compare(name, got, want)
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)} ({dt:.1f}s)")
            failures += 1
        else:
            print(f"ok   {name}: rows={len(got)} match ({dt:.1f}s)")
        record(name, not problems, dt)
    ray.shutdown()
    if sweep_round is not None:
        with open(f"SWEEP_r{sweep_round:02d}.json", "w") as f:
            json.dump({"sf": _sf_here, "failures": failures, "entries": records}, f, indent=1)
            f.write("\n")
    print(f"{'ALL OK' if failures == 0 else f'{failures} FAILURES'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
