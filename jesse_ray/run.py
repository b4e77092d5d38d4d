"""CLI entry point: ``python -m jesse_ray.run --spec S --input GLOB --output DIR``.

Mirrors the reference CLI's contract (bin/jesse, src/jesse_cli.erl:36-87):
schema(s) + instance files in, per-file verdicts out, nonzero exit on
failure — except that, being a corpus engine, it validates ALL
partitions and exits 1 if ANY failed (the reference halts at the first
failing instance; halting a 100 TB run on the first bad row would waste
the cluster).

Designed to be the payload of ``ray job submit`` on a real cluster; in
the sandbox it initializes local Ray itself (guarded).
"""

from __future__ import annotations

import argparse
import glob
import json
import sys


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="jesse_ray corpus validation")
    p.add_argument("--spec", help="JSON-Schema-style spec file (draft-04 subset); default: built-in sequences spec")
    p.add_argument("--input", required=True, help="input parquet path or glob")
    p.add_argument("--output", required=True, help="output directory (violations + manifest)")
    p.add_argument("--allowed-sources", help="parquet dimension for the referential source check")
    p.add_argument(
        "--input-format",
        default="parquet",
        choices=["parquet", "jsonl", "csv", "orc", "feather"],
        help="corpus file format (jsonl = one JSON document per line, the "
        "reference CLI's native instance format; csv for flat tabular corpora)",
    )
    p.add_argument("--files-per-partition", type=int, default=8)
    p.add_argument("--no-resume", action="store_true")
    p.add_argument(
        "--allowed-errors",
        default=None,
        help="per-row error budget: 0 = stop at first error per row "
        "(jesse's default, src/jesse_state.erl:138-141); omit for "
        "'infinity' (collect all)",
    )
    p.add_argument("--sketch", action="store_true", help="record per-partition drift sketches")
    p.add_argument(
        "--fail-on-drift",
        action="store_true",
        help="a drifted partition's verdict becomes 'fail' (default: drift is advisory, recorded only)",
    )
    p.add_argument(
        "--drift-reference",
        help="reference drift summary (exact n_tok and token counts, written by "
        "jesse_ray.checkpoint.build_reference_digest; a file from an older version "
        "must be rebuilt with it); enables per-partition KS/chi-square drift gating",
    )
    p.add_argument(
        "--report",
        help="also write the reference-style reasons JSON "
        "({'reasons': [{'invalid': 'data', 'schema': ..., 'error': ..., "
        "'data': ..., 'path': [...]}, ...]}, src/jesse_error.erl:107-138) "
        "built from all violation rows to this path",
    )
    p.add_argument(
        "--infer-spec",
        metavar="PATH",
        help="profile the input FIRST, write the tightest passing draft-04 "
             "schema to PATH, and validate against it (profile → propose → "
             "verify); mutually exclusive with --spec",
    )
    p.add_argument(
        "--curate",
        help="also write the CURATED corpus (rows passing every check, "
        "exact-deduplicated on token payload) as partitioned parquet to "
        "this directory — the validate-then-clean composite a training "
        "run consumes",
    )
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument("--json", action="store_true", help="JSON summary to stdout (reference --json flag, src/jesse_cli.erl:48-49)")
    args = p.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )

    from jesse_ray.checkpoint import run_validation
    from jesse_ray.spec import from_json_schema, sequences_spec

    if args.spec and args.infer_spec:
        p.error("--spec and --infer-spec are mutually exclusive")
    # one glob expansion for every read path (validate / infer / curate):
    # a pattern --input must behave identically in all three
    files = sorted(glob.glob(args.input)) or [args.input]
    if args.infer_spec:
        from jesse_ray.infer import infer_spec, to_json_schema
        from jesse_ray.sources import read_corpus

        ds = read_corpus(files, format=args.input_format)
        inferred, _ = infer_spec(ds, key_column="doc_id")
        doc = to_json_schema(inferred)
        with open(args.infer_spec, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
        # reload through the public schema path — what we wrote is what
        # the validator runs
        spec = from_json_schema(doc)
    elif args.spec:
        with open(args.spec) as f:
            spec = from_json_schema(json.load(f))
        if args.allowed_sources:
            from jesse_ray.spec import ReferentialRule

            spec.referential.append(
                ReferentialRule(
                    column="source",
                    dim_path=args.allowed_sources,
                    dim_column="source",
                    dim_filter_column="active",
                )
            )
    else:
        spec = sequences_spec(allowed_sources_path=args.allowed_sources)

    ae = args.allowed_errors
    allowed_errors = None if ae in (None, "infinity") else int(ae)
    summary = run_validation(
        files,
        spec,
        args.output,
        files_per_partition=args.files_per_partition,
        resume=not args.no_resume,
        sketch=args.sketch,
        allowed_errors=allowed_errors,
        drift_reference=args.drift_reference,
        fail_on_drift=args.fail_on_drift,
        input_format=args.input_format,
    )
    if args.curate:
        from jesse_ray.pipelines.curate import curate_sequences
        from jesse_ray.sources import read_corpus, write_partitioned

        ds = read_corpus(files, format=args.input_format)
        curated = curate_sequences(ds, spec)
        manifest = write_partitioned(curated, args.curate, by="source", stats_col="n_tok")
        summary["curated_rows"] = int(manifest["n_rows"])

    if args.report:
        import glob as _glob

        import pyarrow as pa
        import pyarrow.parquet as pq

        from jesse_ray.compiler import empty_violations
        from jesse_ray.engine import violations_to_json

        parts = []
        for f in sorted(_glob.glob(f"{args.output}/**/*.parquet", recursive=True)):
            t = pq.read_table(f)
            if t.num_rows and set(empty_violations().column_names) <= set(t.column_names):
                parts.append(t.select(empty_violations().column_names))
        tbl = pa.concat_tables(parts) if parts else empty_violations()
        with open(args.report, "w") as fh:
            fh.write(violations_to_json(tbl))
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(
            f"partitions={summary['partitions']} skipped={summary['skipped']} "
            f"failed={summary['failed']} violations={summary['violations']} "
            f"verdict={'pass' if summary['passed'] else 'fail'}"
        )
    ray.shutdown()
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
