"""Traced run: spans around calls into each layer, and one probe per layer.

Every number here is measured from outside the engine: a span wraps a
call into a module's public function, or a probe calls that function on
the workload's corpus or on a fixed in-memory sample of it, and the fused
pass is read back from the public ``Dataset.stats()`` text.  Nothing in
``jesse_ray`` is instrumented.

Each probe returns ``{metric name: value}``; the ``per_layer`` list of
BENCHMARK.json names every metric with its unit.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

import corpus
import workloads as W

#: rows of the fixed in-memory sample the compiler and sketch probes use
SAMPLE_ROWS = 16_384
#: repetitions of each in-memory micro-measurement (the median is kept)
MICRO_REPS = 5


class Tracer:
    """Spans kept in memory: name, start, end and the enclosing span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


def no_span(_name: str):
    return nullcontext()


def _timed(fn, reps: int = MICRO_REPS) -> float:
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def sample(c: W.Corpus) -> pa.Table:
    """The first SAMPLE_ROWS rows of the corpus in file order."""
    parts, n = [], 0
    for f in c.files:
        t = pq.read_table(f, columns=["doc_id", "tokens", "n_tok", "source"])
        parts.append(t.slice(0, SAMPLE_ROWS - n))
        n += parts[-1].num_rows
        if n >= SAMPLE_ROWS:
            break
    return pa.concat_tables(parts).combine_chunks()


# ------------------------------------------------------------ Dataset.stats()

_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def _secs(text: str) -> float:
    m = re.fullmatch(r"([0-9.]+)(us|ms|s)", text.strip())
    if m is None:
        raise ValueError(f"unparsed duration {text!r}")
    return float(m.group(1)) * _UNIT[m.group(2)]


def parse_stats(text: str) -> list[dict]:
    """Operators from ``Dataset.stats()``: name, blocks, wall and the
    totals of remote CPU, UDF time, peak heap and output rows."""
    ops = []
    for line in text.splitlines():
        m = re.match(r"Operator \d+ (.+?): \d+ tasks executed, (\d+) blocks produced in ([0-9.]+(?:us|ms|s))", line)
        if m:
            ops.append({"name": m.group(1), "blocks": int(m.group(2)), "wall_s": _secs(m.group(3))})
            continue
        if not ops or not line.startswith("* "):
            continue
        key, _, vals = line[2:].partition(": ")
        op = ops[-1]
        if key in ("Remote cpu time", "UDF time"):
            op["cpu_s" if key.startswith("Remote") else "udf_s"] = _secs(vals.rsplit(",", 1)[1].replace("total", ""))
        elif key.startswith("Peak heap memory usage"):
            op["peak_heap_mb"] = float(vals.split(",")[1].replace("max", ""))
        elif key == "Output num rows per block":
            op["rows_out"] = int(vals.rsplit(",", 1)[1].replace("total", ""))
    return ops


def _op(ops: list[dict], prefix: str) -> dict:
    for op in ops:
        if prefix in op["name"]:
            return op
    raise ValueError(f"no operator matching {prefix!r} in {[o['name'] for o in ops]}")


# ------------------------------------------------------------ probes


def _read(c: W.Corpus, wl: str, columns=None):
    """The read the workload itself plans: ``read_sequences`` for the
    engine path, plain ``ray.data.read_parquet`` over the file list for
    the checkpoint runner (which is what it calls)."""
    if wl == "checkpoint_drift":
        import ray.data

        return ray.data.read_parquet(c.files, columns=columns)
    from jesse_ray.sources import read_sequences

    return read_sequences(c.source, columns=columns)


def _identity(batch):
    return batch


def probe_sources(c: W.Corpus, wl: str) -> dict:
    t0 = time.perf_counter()
    ds = _read(c, wl).map_batches(_identity, batch_format="pyarrow", zero_copy_batch=True).materialize()
    wall = time.perf_counter() - t0
    ops = parse_stats(ds.stats())
    return {
        "sources.read_s": wall,
        "sources.read_blocks": ops[0]["blocks"],
        "sources.read_fused": int(ops[0]["name"].startswith("ReadParquet->MapBatches")),
        "sources.bytes_out": ds.size_bytes(),
    }


def kernel_specs() -> dict:
    """One-keyword specs, each holding only that keyword of the flagship spec."""
    from jesse_ray.spec import ColumnSpec, TableSpec

    full = W.spec()
    cols = full.columns

    def one(**columns):
        return TableSpec(name="kernel", key_column="doc_id", columns=columns)

    return {
        "required": one(**{k: ColumnSpec(required=True) for k, cs in cols.items() if cs.required}),
        "type": one(**{k: ColumnSpec(type=cs.type) for k, cs in cols.items() if cs.type}),
        "pattern": one(doc_id=ColumnSpec(pattern=cols["doc_id"].pattern)),
        "items_count": one(tokens=ColumnSpec(min_items=cols["tokens"].min_items,
                                             max_items=cols["tokens"].max_items)),
        "items_range": one(tokens=ColumnSpec(items=cols["tokens"].items)),
        "range": one(n_tok=ColumnSpec(minimum=cols["n_tok"].minimum, maximum=cols["n_tok"].maximum)),
        "list_len_eq": TableSpec(name="kernel", key_column="doc_id", consistency=list(full.consistency)),
    }


def probe_compiler(smp: pa.Table) -> dict:
    from jesse_ray.compiler import compile_spec

    compiled = compile_spec(W.spec())
    check_s = _timed(lambda: compiled.check_batch(smp))
    mask_s = _timed(lambda: compiled.invalid_row_mask(smp))
    out = {
        "compiler.check_batch_s": check_s,
        "compiler.violation_rows": compiled.check_batch(smp).num_rows,
        "compiler.materialize_s": check_s - mask_s,
    }
    for name, ks in kernel_specs().items():
        k = compile_spec(ks)
        out[f"compiler.kernel.{name}_s"] = _timed(lambda k=k: k.check_batch(smp))
    return out


def probe_engine(c: W.Corpus, wl: str, smp: pa.Table) -> dict:
    """Fused pass alone, uniqueness alone, then the full validation with
    its sink; ``overlap_s`` is how much of fused + uniqueness the
    validation's concurrent driver thread hid."""
    from jesse_ray.compiler import compile_spec
    from jesse_ray.engine import (ReferentialChecker, fused_violations, prepare_compiled,
                                  uniqueness_violations, validate_dataset)
    from jesse_ray.sources import read_sequences

    ds = read_sequences(c.source)
    t0 = time.perf_counter()
    fused = fused_violations(ds, prepare_compiled(compile_spec(W.spec()), ds)).materialize()
    fused_wall = time.perf_counter() - t0
    op = _op(parse_stats(fused.stats()), "FusedValidator")
    del fused

    t0 = time.perf_counter()
    uniq = uniqueness_violations(read_sequences(c.source, columns=["doc_id"]), "doc_id")
    uniq_s = time.perf_counter() - t0

    rules = [(r.column, frozenset(r.values), r.error_atom) for r in W.spec().referential]
    checker = ReferentialChecker(rules, "doc_id")
    ref_s = _timed(lambda: checker(smp))

    t0 = time.perf_counter()
    res = validate_dataset(read_sequences(c.source), W.spec(),
                           key_ds=read_sequences(c.source, columns=["doc_id"])).materialize()
    _ = res.unique_violations  # joins the uniqueness thread
    validate_s = time.perf_counter() - t0
    c.clear_out()
    t0 = time.perf_counter()
    if wl == "violation_heavy":
        res.write_violations(str(c.out))
    else:
        res.all_violations_table()
    sink_s = time.perf_counter() - t0
    c.clear_out()
    return {
        "engine.fused.wall_s": op["wall_s"],
        "engine.fused.cpu_s": op["cpu_s"],
        "engine.fused.udf_s": op["udf_s"],
        "engine.fused.peak_heap_mb": op["peak_heap_mb"],
        "engine.fused.rows_out": op["rows_out"],
        "engine.referential_s": ref_s,
        "engine.uniqueness_s": uniq_s,
        "engine.uniqueness.dup_keys": uniq.num_rows,
        "engine.uniqueness.result_bytes": uniq.nbytes,
        "engine.overlap_s": fused_wall + uniq_s - validate_s,
        "engine.sink_s": sink_s,
    }


def probe_sketches(c: W.Corpus, smp: pa.Table) -> dict:
    """Sketch build on the sample, a fixed-order merge of per-slice
    bundles, the Ray tree-merge of the same bundles, and the drift report
    against the corpus's reference digest."""
    import numpy as np
    import pyarrow.compute as pc
    import ray.data

    from jesse_ray.sketches import SketchBundle, drift_report
    from jesse_ray.stages.drift import merge_sketch_rows

    def build(t: pa.Table) -> SketchBundle:
        b = SketchBundle.empty(corpus.VOCAB)
        b.add_batch(t["n_tok"].to_numpy().astype(np.float64),
                    pc.list_flatten(t["tokens"]).to_numpy().astype(np.int64))
        return b

    build_s = _timed(lambda: build(smp))
    step = -(-smp.num_rows // 16)
    blobs = [build(smp.slice(i, step)).to_bytes() for i in range(0, smp.num_rows, step)]

    def merge_in_order() -> SketchBundle:
        acc = SketchBundle.from_bytes(blobs[0])
        for raw in blobs[1:]:
            acc.merge(SketchBundle.from_bytes(raw))
        return acc

    merge_s = _timed(merge_in_order)
    rows = ray.data.from_arrow(pa.table({"sketch": pa.array(blobs, type=pa.large_binary())}))
    t0 = time.perf_counter()
    merged = merge_sketch_rows(rows)
    tree_s = time.perf_counter() - t0
    ref = SketchBundle.from_bytes((c.dir / "reference.digest").read_bytes())
    return {
        "sketches.build_s": build_s,
        "sketches.bundle_bytes": len(blobs[0]),
        "sketches.merge_s": merge_s,
        "drift.tree_merge_s": tree_s,
        "drift.report_s": _timed(lambda: drift_report(ref, merged)),
    }


def probe_checkpoint(c: W.Corpus) -> dict:
    """``run_validation`` as the checkpoint_drift workload calls it, then
    a resume on the same output directory."""
    c.clear_out()
    t0 = time.time()
    W.run_checkpoint_drift(c, no_span)
    t_end = time.time()
    done = sorted(r["completed_at"] for r in W.read_manifest(c.out))
    written = sum(p.stat().st_size for p in c.out.rglob("*") if p.is_file())
    t1 = time.perf_counter()
    W.run_checkpoint_drift(c, no_span)
    resume_s = time.perf_counter() - t1
    c.clear_out()
    return {
        "checkpoint.partition_s": statistics.median(b - a for a, b in zip([t0, *done], done)),
        "checkpoint.uniqueness_s": t_end - done[-1],
        "checkpoint.resume_s": resume_s,
        "checkpoint.bytes_written": written,
        "checkpoint.manifest_records": len(done),
    }


def probe_all(c: W.Corpus, wl: str, tracer: Tracer) -> dict:
    """Every layer probe, each inside its own top-level span."""
    smp = sample(c)
    out = {}
    for layer, fn in (
        ("sources", lambda: probe_sources(c, wl)),
        ("compiler", lambda: probe_compiler(smp)),
        ("engine", lambda: probe_engine(c, wl, smp)),
        ("sketches", lambda: probe_sketches(c, smp)),
        ("checkpoint", lambda: probe_checkpoint(c)),
    ):
        with tracer.span(f"probe.{layer}"):
            out.update(fn())
    return out


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(tracer.spans, indent=1))
