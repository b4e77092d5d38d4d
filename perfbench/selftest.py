"""Self-test of the benchmark at tiny size.

    python3 perfbench/selftest.py

Runs every workload on a tiny corpus, untraced and traced, through the
same command the benchmark uses, and checks that

* every metric named in BENCHMARK.json prints, with its unit, and every
  output passes the correctness gate;
* a deliberately perturbed golden answer makes every call fail: ``failed``
  equals ``attempted`` and ``ok_frac`` drops to 0;
* the traced run's layer spans cover the traced call within
  ``run.TRACE_COVERAGE_TOLERANCE``;
* without the engine next to it (only BENCHMARK.json and perfbench/), the
  command exits non-zero and prints no result.

Exits 0 when all checks hold.  Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402

TINY_ROWS = {"validate_sharded": 4_000, "checkpoint_drift": 4_000, "violation_heavy": 6_000}
SEED = 7


def bench(root: Path, workload: str, trace: int, seed: int = SEED) -> tuple[int, list[str]]:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--rows", str(TINY_ROWS[workload])],
        cwd=root, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, RAY_USAGE_STATS_ENABLED="0"))
    return p.returncode, p.stdout.strip().splitlines()


def result(lines: list[str]) -> dict:
    return json.loads(lines[-1])


def main() -> int:
    specs = run.metric_specs()
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    mapped = json.loads((HERE / "metric_map.json").read_text())
    expect(set(mapped["per_layer"]) == {m["name"] for m in specs["per_layer"]},
           "metric_map.json maps every per-layer metric")
    expect(set(mapped["workloads"]) == {w["name"] for w in specs["workloads"]},
           "metric_map.json describes every workload")
    expect(set(mapped["workloads"]) | set(mapped["by_hand_workloads"]) == set(TINY_ROWS),
           "the self-test runs every workload, by hand or not")

    for wl in TINY_ROWS:
        for trace, names in ((0, specs["end_to_end"]), (1, specs["per_layer"])):
            rc, lines = bench(run.ROOT, wl, trace)
            expect(rc == 0 and bool(lines), f"{wl} trace={trace} exits 0 with output")
            if rc or not lines:
                continue
            res = result(lines)
            got = res["metrics"]
            expect(set(got) == {m["name"] for m in names}, f"{wl} trace={trace} prints every metric")
            expect(all(got[m["name"]]["unit"] == m["unit"] for m in names if m["name"] in got),
                   f"{wl} trace={trace} prints every unit")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{wl} trace={trace} passes the correctness gate")
            if trace:
                cov = got["trace_coverage"]["value"]
                expect(cov >= 1.0 - run.TRACE_COVERAGE_TOLERANCE,
                       f"{wl} trace coverage {cov:.3f} within {run.TRACE_COVERAGE_TOLERANCE}")

    # perturb the cached golden answer of one tiny corpus
    wl = "validate_sharded"
    d = run.WORK / "corpus" / f"{wl}-r{TINY_ROWS[wl]}-s{SEED}-v{corpus.VERSION}"
    gold_path = d / "golden.json"
    gold = json.loads(gold_path.read_text())
    gold["counts"]["not_in_enum"] = gold["counts"].get("not_in_enum", 0) + 1
    gold_path.write_text(json.dumps(gold))
    try:
        rc, lines = bench(run.ROOT, wl, 0)
    finally:
        shutil.rmtree(d, ignore_errors=True)  # regenerated on next use
    res = result(lines) if rc == 0 and lines else {}
    expect(bool(res) and not res["correct"] and res["failed"] == res["attempted"]
           and res["metrics"]["ok_frac"]["value"] == 0.0,
           "a perturbed golden answer fails every call")

    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        rc, lines = bench(bare, wl, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(rc != 0 and not any(line.startswith('{"correct"') for line in lines),
           "without the engine the command exits non-zero with no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
