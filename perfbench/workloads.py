"""The benchmark workloads and their correctness gates.

BENCHMARK.json names ``validate_sharded`` and ``violation_heavy``;
``checkpoint_drift`` is run by hand (``metric_map.json`` says why), and
the checkpoint probe of every traced run calls it.

Each workload is one closed-loop call into the engine's public API over
a corpus made by ``corpus.py``.  ``run(corpus, span)`` returns whatever
the gate needs; ``span(name)`` is a context manager the traced run uses
to time each call into a layer (a no-op otherwise).  ``check`` compares
the result with the DuckDB golden answer and returns a list of
mismatches (empty when correct).  Clearing the output directory and
checking happen outside the timed region.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import corpus


def spec():
    from jesse_ray.spec import sequences_spec

    return sequences_spec(allowed_sources=corpus.SOURCES)


def violation_summary(tbl: pa.Table) -> dict:
    """Per-atom counts and the duplicated-key digest of a violations table."""
    counts: dict[str, int] = {}
    if tbl.num_rows:
        g = tbl.group_by("error").aggregate([([], "count_all")])
        counts = dict(zip(g["error"].to_pylist(), g["count_all"].to_pylist()))
    dup = tbl.filter(pc.equal(tbl["error"], "not_unique")) if tbl.num_rows else tbl
    pairs = [(k, json.loads(v)["count"]) for k, v in
             zip(dup["doc_id"].to_pylist(), dup["value_json"].to_pylist())]
    return {"counts": counts, "dup_keys": len(pairs), "dup_digest": corpus.dup_digest(pairs)}


def compare(got: dict, gold: dict, keys=("counts", "dup_keys", "dup_digest")) -> list[str]:
    return [f"{k}: got {got.get(k)!r}, want {gold.get(k)!r}" for k in keys if got.get(k) != gold.get(k)]


@dataclass
class Corpus:
    """A prepared corpus: its files, golden answer and scratch output dir."""

    dir: Path
    golden: dict
    out: Path

    @property
    def files(self) -> list[str]:
        return corpus.data_files(self.dir)

    @property
    def source(self) -> str:
        """What ``read_sequences`` is given: the directory when sharded."""
        files = self.files
        return files[0] if len(files) == 1 else str(corpus.data_dir(self.dir))

    def clear_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


@dataclass
class Workload:
    name: str
    rows: int  # default corpus size
    run: Callable[[Corpus, Callable], Any]
    check: Callable[[Any, Corpus], list[str]]


# ---------------------------------------------------------------- validate_sharded


def run_validate_sharded(c: Corpus, span) -> pa.Table:
    from jesse_ray.engine import validate_dataset
    from jesse_ray.sources import read_sequences

    with span("sources"):
        ds, key_ds = read_sequences(c.source), read_sequences(c.source, columns=["doc_id"])
    with span("engine.validate"):
        res = validate_dataset(ds, spec(), key_ds=key_ds)
    with span("engine.sink"):
        return res.all_violations_table()


def check_validate_sharded(tbl: pa.Table, c: Corpus) -> list[str]:
    return compare(violation_summary(tbl), c.golden)


# ---------------------------------------------------------------- checkpoint_drift

CKPT_FILES_PER_PARTITION = 4


def run_checkpoint_drift(c: Corpus, span) -> dict:
    from jesse_ray.checkpoint import run_validation

    with span("checkpoint"):
        return run_validation(c.files, spec(), c.out,
                              files_per_partition=CKPT_FILES_PER_PARTITION,
                              drift_reference=str(c.dir / "reference.digest"))


def read_manifest(out: Path) -> list[dict]:
    return [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines() if line.strip()]


def check_checkpoint_drift(summary: dict, c: Corpus) -> list[str]:
    """Gate the violation counts, the uniqueness result and one manifest
    record per partition.  Drift flags are recorded by the caller, never
    gated: they depend on the sketch, which may legitimately change."""
    records = read_manifest(c.out)
    counts: dict[str, int] = {}
    for r in records:
        for atom, n in r["metrics"]["by_error"].items():
            counts[atom] = counts.get(atom, 0) + n
    uniq = violation_summary(pq.read_table(c.out / "unique_violations.parquet"))
    counts.update(uniq["counts"])
    got = dict(uniq, counts=counts)
    bad = compare(got, c.golden)
    parts = -(-len(c.files) // CKPT_FILES_PER_PARTITION)
    ids = {r["partition_id"] for r in records}
    if len(records) != parts or len(ids) != parts:
        bad.append(f"manifest: {len(records)} records for {len(ids)} ids, want {parts}")
    want_total = sum(c.golden["counts"].values())
    if summary.get("violations") != want_total or summary.get("unique_violations") != c.golden["dup_keys"]:
        bad.append(f"summary: {summary}")
    return bad


# ---------------------------------------------------------------- violation_heavy


def run_violation_heavy(c: Corpus, span) -> Path:
    from jesse_ray.engine import validate_dataset
    from jesse_ray.sources import read_sequences

    with span("sources"):
        ds, key_ds = read_sequences(c.source), read_sequences(c.source, columns=["doc_id"])
    with span("engine.validate"):
        res = validate_dataset(ds, spec(), key_ds=key_ds).materialize()
    with span("engine.sink"):
        res.write_violations(str(c.out))
    return c.out


def check_violation_heavy(out: Path, c: Corpus) -> list[str]:
    parts = [pq.read_table(p) for p in sorted(out.glob("*.parquet"))]
    return compare(violation_summary(pa.concat_tables(parts)), c.golden)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("validate_sharded", 60_000, run_validate_sharded, check_validate_sharded),
        Workload("checkpoint_drift", 24_000, run_checkpoint_drift, check_checkpoint_drift),
        Workload("violation_heavy", 120_000, run_violation_heavy, check_violation_heavy),
    )
}
