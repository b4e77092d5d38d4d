"""Checkpointed, resumable validation runs.

The reference has no checkpoint/resume (single-document engine,
SURVEY §4.1); this is the corpus-scale design the north star requires:
input files are grouped into deterministic partitions; each partition's
validation writes its violations to its own output directory and appends
one manifest record with lineage ``(partition_id, fragments,
spec_version, stats digest, verdict, metrics)``.  A rerun skips
partitions whose manifest record is complete and whose spec_version
matches — so a failed 100 TB run resumes instead of restarting.

Manifest writes are atomic (write temp + rename) and idempotent: a
partition re-validated after a crash overwrites its own output directory
and re-appends; the reader keeps the LAST record per partition id.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Sequence

from jesse_ray.compiler import CompiledSpec, compile_spec
from jesse_ray.engine import ValidationEngine, uniqueness_check
from jesse_ray.sketches import SketchBundle, drift_report
from jesse_ray.spec import TableSpec


def partition_id(fragments: Sequence[str]) -> str:
    """Deterministic partition id from the input fragment paths — the
    idempotence key for retries (SURVEY §4.2 'idempotent writes')."""
    h = hashlib.sha256("\n".join(sorted(fragments)).encode()).hexdigest()[:12]
    return f"part-{h}"


@dataclass
class ManifestRecord:
    partition_id: str
    fragments: list[str]
    spec_version: str
    verdict: str  # "pass" | "fail"
    metrics: dict[str, Any] = field(default_factory=dict)
    output_dir: Optional[str] = None
    completed_at: float = 0.0

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "ManifestRecord":
        return cls(**json.loads(line))


class Manifest:
    """Append-only JSONL manifest; last record per partition wins."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def load(self) -> dict[str, ManifestRecord]:
        out: dict[str, ManifestRecord] = {}
        if not self.path.exists():
            return out
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = ManifestRecord.from_json(line)
            except (json.JSONDecodeError, TypeError):
                continue  # torn write from a crash — ignored, partition reruns
            out[rec.partition_id] = rec
        return out

    def append(self, rec: ManifestRecord) -> None:
        rec.completed_at = time.time()
        tmp = self.path.with_suffix(".tmp")
        existing = self.path.read_text() if self.path.exists() else ""
        if existing and not existing.endswith("\n"):
            # a torn final line from a crash mid-write must not swallow
            # the next record: terminate it so the new record starts on
            # its own line (the torn fragment is then skipped by load())
            existing += "\n"
        tmp.write_text(existing + rec.to_json() + "\n")
        os.replace(tmp, self.path)


def plan_partitions(input_paths: Sequence[str], files_per_partition: int = 8) -> list[list[str]]:
    """Group input files into deterministic partitions (sorted, chunked).
    One partition = one resumable unit of work."""
    files = sorted(str(p) for p in input_paths)
    return [files[i : i + files_per_partition] for i in range(0, len(files), files_per_partition)]


def run_validation(
    input_paths: Sequence[str],
    spec: TableSpec | CompiledSpec,
    out_dir: str | Path,
    *,
    files_per_partition: int = 8,
    resume: bool = True,
    columns: Optional[list[str]] = None,
    sketch: bool = False,
    engine: Optional[ValidationEngine] = None,
    allowed_errors: Optional[int] = None,
    drift_reference: Optional[str] = None,
    fail_on_drift: bool = False,
    input_format: str = "parquet",
) -> dict[str, Any]:
    """Validate a corpus partition-by-partition with checkpointing.

    Each fresh partition is one ``ValidationEngine.validate`` →
    ``materialize()`` → ``write_violations()`` → manifest record: the
    fused pass (on parquet one plain task per planned read task, no Ray
    Data execution; on jsonl one execution, the pass fused into the
    read, split on the driver), plus one plain write
    task per block with violation rows.  A partition redone on resume
    replaces its ``part-*.parquet`` files.  Everything the record
    needs rides in-band on the pass and is folded by the
    ``ValidationResult`` drain — the per-error counts, the input row
    count and, with ``sketch``/``drift_reference``, the drift summary —
    so each partition reads its files once, the wide ``tokens`` column
    included, in any input format.  The drift summary is exact value
    counts merged by addition, so ``sketch.bin``, ``stats_digest`` and
    the ``drift`` metrics do not depend on block arrival order.
    Partitions run sequentially on the driver but each is internally
    block-parallel across the cluster, and the unit of resume is the
    partition.  Returns the overall summary (exit-code semantics mirror
    the reference CLI: nonzero/fail if any partition fails,
    src/jesse_cli.erl:80-87 — but we process ALL partitions instead of
    halting at the first failure, recording each verdict).

    Key uniqueness is CORPUS-scoped: one column-pruned pass over ALL
    input files runs after the partition loop (a per-partition check
    would miss keys duplicated across partitions).  It is
    ``engine.uniqueness_check``, a key-only validation: on parquet plain
    tasks over the planned read of the key columns (no Ray Data
    execution), on jsonl one execution; the per-batch key counts are
    summed on the driver while the merged state stays under
    ``UNIQ_DRIVER_CAP_BYTES``, and above it the same partials are summed
    per key bucket in tasks, so each key row is read once at any size.
    The route report (``uniqueness.route``, ``.partial_rows``,
    ``.merged_bytes``, ``.dup_keys``) goes into the summary.  The pass
    reruns on every invocation — including resumes — because it reads
    only the key columns.

    ``fail_on_drift=True`` makes a drifted partition's verdict "fail";
    the default records drift per-partition and in the summary without
    affecting the verdict (advisory gate).
    """
    compiled = spec if isinstance(spec, CompiledSpec) else compile_spec(spec)
    eng = engine or ValidationEngine()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out / "manifest.jsonl")
    done = manifest.load() if resume else {}

    ref_bundle = None
    if drift_reference:
        ref_bundle = _load_reference_bundle(drift_reference)
    want_sketch = bool(sketch or drift_reference)

    parts = plan_partitions(input_paths, files_per_partition)
    summary = {"partitions": len(parts), "skipped": 0, "failed": 0, "violations": 0,
               "drifted_partitions": 0}

    for frag in parts:
        pid = partition_id(frag)
        prev = done.get(pid)
        if prev is not None and prev.spec_version == compiled.version:
            summary["skipped"] += 1
            summary["violations"] += prev.metrics.get("violations", 0)
            prev_drifted = bool(prev.metrics.get("drifted", False))
            summary["drifted_partitions"] += int(prev_drifted)
            # the manifest verdict may have been written under a
            # different fail_on_drift: re-derive it SYMMETRICALLY from
            # the recorded metrics (violations + drifted), so resuming
            # with a different flag matches what a fresh run would say
            if prev.metrics.get("violations", 0) > 0 or (fail_on_drift and prev_drifted):
                summary["failed"] += 1
            continue

        part_out = out / pid
        res = eng.validate(
            _read(frag, input_format, columns), compiled,
            check_unique=False, sketch=want_sketch, allowed_errors=allowed_errors,
        ).materialize()
        res.write_violations(part_out / "violations")
        by_error = res.counts_by_error()
        n_viol = sum(by_error.values())
        metrics = {"rows": res.metrics["rows"], "violations": n_viol, "by_error": by_error}
        drifted = False
        if want_sketch:
            bundle = res.sketch or SketchBundle.empty()
            blob = bundle.to_bytes()
            (part_out / "sketch.bin").write_bytes(blob)
            metrics["stats_digest"] = hashlib.sha256(blob).hexdigest()[:16]
            if ref_bundle is not None:
                # per-partition distribution-drift gate: KS on the n_tok
                # counts + chi-square on top-k token frequencies vs a
                # reference summary loaded ONCE per run (north-star drift
                # detection at partition granularity)
                rep = drift_report(ref_bundle, bundle)
                metrics["drift"] = {
                    k: rep[k]
                    for k in ("ks_stat", "ks_pvalue", "ks_drifted", "chi2_stat", "chi2_pvalue", "chi2_drifted")
                }
                drifted = bool(rep["ks_drifted"] or rep["chi2_drifted"])
                metrics["drifted"] = drifted
                summary["drifted_partitions"] += int(drifted)

        verdict = "fail" if n_viol > 0 or (fail_on_drift and drifted) else "pass"
        manifest.append(
            ManifestRecord(
                partition_id=pid,
                fragments=list(frag),
                spec_version=compiled.version,
                verdict=verdict,
                metrics=metrics,
                output_dir=str(part_out),
            )
        )
        summary["violations"] += n_viol
        if verdict == "fail":
            summary["failed"] += 1

    # corpus-wide key uniqueness (column-pruned read over ALL files)
    uk = compiled.spec.unique_keys
    n_unique_viol = 0
    if uk:
        import pyarrow.parquet as pq

        all_files = sorted(str(p) for p in input_paths)
        uniq_tbl, uniq_metrics = uniqueness_check(_read(all_files, input_format, list(uk)), list(uk))
        summary.update(uniq_metrics)
        n_unique_viol = uniq_tbl.num_rows
        pq.write_table(uniq_tbl, out / "unique_violations.parquet")
    summary["unique_violations"] = int(n_unique_viol)
    summary["violations"] += int(n_unique_viol)

    summary["passed"] = summary["failed"] == 0 and n_unique_viol == 0
    return summary


def _read(paths, input_format: str, columns):
    """Format-dispatching partition read (one place for the
    parquet/jsonl branch; run.py's --input-format routes here)."""
    from jesse_ray.sources import read_corpus, read_table

    if input_format == "parquet":
        return read_table(paths, columns=columns)
    return read_corpus(paths, format=input_format, columns=columns)


def _load_reference_bundle(path: str):
    """Reference drift summary — loaded once per run_validation call (no
    cross-call cache: a summary rebuilt at the same path must be re-read)."""
    try:
        return SketchBundle.from_bytes(Path(path).read_bytes())
    except ValueError as e:
        raise ValueError(f"drift reference {path}: {e}; rebuild it (an older version's pickled "
                         f"t-digest file, say) with jesse_ray.checkpoint.build_reference_digest") from None


def build_reference_digest(input_paths, out_path: str, *, columns=("n_tok", "tokens")) -> str:
    """Build and save the corpus-level reference SketchBundle that
    per-partition drift gates compare against."""
    from jesse_ray.sources import read_table
    from jesse_ray.stages import sketch_dataset

    bundle = sketch_dataset(read_table(list(input_paths), columns=list(columns)))
    Path(out_path).write_bytes(bundle.to_bytes())
    return out_path

