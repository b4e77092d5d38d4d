"""Layered benchmark for the flagship validator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--rows N]

Run from the root of a checkout.  The load is a closed loop with one
client: one validation call at a time from this driver process, on a
local Ray cluster started with ``num_cpus=1`` (NUM_CPUS).  The seed
makes the corpus (``corpus.py``, run in a child process and cached under
``.pbw/corpus``); generating it and computing its DuckDB golden answer
count toward no metric.

A run

* sets up SETUPS times, shutting Ray down in between: ``ray.init``
  through one primed full-size call, the cold run that would otherwise
  land in the first sample;
* moves this process and every Ray process onto one core (``pin``);
* warms up: calls until one starts no new Ray worker (at most
  WARMUP_MAX).  Ray starts workers one at a time and the first few calls
  each add one, paying its start and imports; timing those calls made
  the median bimodal;
* calls the workload back to back for ``--seconds``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:
``setup_s``, the median set-up; the medians over timed calls of
``rows_per_s`` (input rows / wall time from call to complete result) and
``cpu_s_per_mrow`` (CPU seconds of this process and its Ray workers,
from /proc, per million input rows); ``driver_peak_rss_mb`` (this
process's VmHWM); and ``ok_frac`` (the share of timed calls that
returned, within RUN_TIMEOUT_S, an output equal to the golden answer;
``failed`` counts the others).

``--trace 1`` prints the per-layer metrics instead: after one set-up,
pinning and warm-up, two untraced and two traced calls of the workload
(``trace_overhead_s`` is the difference of their medians,
``trace_coverage`` the smallest share of a traced call inside its layer
spans), then one probe per layer (``layers.py``).  The spans are written
to ``.pbw/trace-<workload>-<seed>.json``.

The last stdout line is the result object; the line before it holds the
details: environment stamp, corpus sizes, sample count and tail
percentile, mismatches and drift flags.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import corpus
import layers
import procstat
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".pbw"
#: Ray CPUs: the workloads are sized for one core, and a fixed count keeps
#: results independent of how many CPUs a shared machine happens to expose
NUM_CPUS = 1
#: idle Ray workers kept warm.  Ray's default is num_cpus, so with one CPU
#: it kills the second worker that validate_dataset's concurrent
#: uniqueness pass brings up, and every call pays a Python worker start
WARM_WORKERS = 4
#: Ray workers run at the driver's priority.  Ray's default (nice 15)
#: lets any other load on a shared machine preempt them, which made the
#: same call vary by 40% from one run to the next
WORKER_NICENESS = 0
#: set-ups per run; setup_s is their median
SETUPS = 3
#: most warm-up calls before timing, however many workers Ray still adds
WARMUP_MAX = 6
#: a single call slower than this counts as failed (timed out)
RUN_TIMEOUT_S = 60.0
#: object store cap; violations and sketches are small, the corpus streams
OBJECT_STORE_BYTES = 512 * 1024 * 1024
#: longest Ray temp dir whose session socket paths stay under the
#: 107-byte AF_UNIX limit
MAX_RAY_TMP_LEN = 43
#: cached corpora kept per workload
KEEP_CORPORA = 4
#: the traced call must sit within this share of the traced wall's spans
TRACE_COVERAGE_TOLERANCE = 0.10


def metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def prepare_corpus(workload: str, seed: int, rows: int) -> W.Corpus:
    base = WORK / "corpus"
    d = base / f"{workload}-r{rows}-s{seed}-v{corpus.VERSION}"
    if not (d / "done.json").exists():
        shutil.rmtree(d, ignore_errors=True)
        old = sorted(base.glob(f"{workload}-*"), key=lambda p: p.stat().st_mtime)
        for p in old[: max(0, len(old) - KEEP_CORPORA + 1)]:
            shutil.rmtree(p, ignore_errors=True)
        subprocess.run([sys.executable, str(HERE / "corpus.py"), workload, str(seed), str(rows), str(d)],
                       check=True, stdout=subprocess.DEVNULL, timeout=600)
    return W.Corpus(d, json.loads((d / "golden.json").read_text()), WORK / "out" / workload)


def ray_tmp_dir() -> Path:
    """Ray's temp dir: inside the checkout when its socket paths fit,
    else a private system temp dir.  Removed when the run ends."""
    d = WORK / "ray"
    if len(str(d)) <= MAX_RAY_TMP_LEN:
        d.mkdir(parents=True, exist_ok=True)
        return d
    return Path(tempfile.mkdtemp(prefix="pbray"))


def start_ray(tmp: Path) -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES, _temp_dir=str(tmp),
             _system_config={"num_workers_soft_limit": WARM_WORKERS,
                             "worker_niceness": WORKER_NICENESS})
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


class Call:
    """One closed-loop call: wall and tree CPU seconds, the mismatches
    (empty when correct), and how many Ray workers it started."""

    def __init__(self, wl, c, span):
        c.clear_out()
        cpu0, t0 = procstat.tree_cpu(), time.perf_counter()
        try:
            out = wl.run(c, span)
        except Exception as e:  # a failed call is counted, and the loop goes on
            out, self.bad = None, [f"raised {e!r}"]
        self.wall = time.perf_counter() - t0
        cpu1 = procstat.tree_cpu()
        self.cpu = procstat.cpu_delta(cpu0, cpu1)
        self.new_workers = len(cpu1.keys() - cpu0.keys())
        if out is not None:
            self.bad = wl.check(out, c)
        if self.wall > RUN_TIMEOUT_S:
            self.bad.append(f"timed out: {self.wall:.1f} s")


def set_up(wl, c, tmp: Path) -> tuple[float, list[str]]:
    """ray.init plus one primed call; returns (seconds, prime mismatches)."""
    t0 = time.perf_counter()
    start_ray(tmp)
    bad = Call(wl, c, layers.no_span).bad
    return time.perf_counter() - t0, bad


def pin(detail: dict) -> None:
    """Run the driver, Ray's head processes and its workers on one core.
    Spread over a VM's several vCPUs the same calls ran 40% faster in calm
    spells and 60% slower when the host throttled the VM, whose steal time
    tracked how many vCPUs were busy; on one core they barely vary.
    Set-up runs before this, on every core: it starts a dozen processes
    at once, which on one core took twice as long."""
    core = min(os.sched_getaffinity(0))
    detail["env"]["core"] = core
    detail["pinned_threads"] = procstat.pin_tree(core)


def warm_up(wl, c, detail: dict) -> list[str]:
    """Untimed calls until one starts no new Ray worker; returns their
    mismatches.  Their time is in the detail line, not in setup_s: it is
    paid once per run, after the last set-up."""
    bad, started, t0 = [], [], time.perf_counter()
    for _ in range(WARMUP_MAX):
        r = Call(wl, c, layers.no_span)
        bad += [f"warm-up: {m}" for m in r.bad]
        started.append(r.new_workers)
        if not r.new_workers:
            break
    detail.update(warmup_new_workers=started, warmup_s=time.perf_counter() - t0)
    return bad


def tail(values: list[float]) -> dict:
    """The low-throughput percentile with at least ten samples below it
    (the median when there are fewer than twenty)."""
    n = len(values)
    pct = 50.0 if n < 20 else 100.0 * 10 / n
    v = statistics.quantiles(values, n=100, method="inclusive")[max(0, round(pct) - 1)] if n >= 2 else values[0]
    return {"percentile": pct, "value": v, "samples": n}


def timed_run(wl, c, seconds: int, tmp: Path, detail: dict) -> tuple[dict, int, int, list[str]]:
    import ray

    setups, bad = [], []
    for i in range(SETUPS):
        s, prime_bad = set_up(wl, c, tmp)
        setups.append(s)
        bad += [f"prime: {m}" for m in prime_bad]
        if i < SETUPS - 1:
            ray.shutdown()
    pin(detail)
    bad += warm_up(wl, c, detail)
    rows = c.golden["rows"]
    walls, cpus, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while True:
        r = Call(wl, c, layers.no_span)
        attempted += 1
        if r.bad:
            failed += 1
            bad += r.bad
        else:
            walls.append(r.wall)
            cpus.append(r.cpu / rows * 1e6)
        if time.perf_counter() >= deadline:
            break
    rates = [rows / w for w in walls]
    detail.update(setups_s=setups, call_walls_s=walls, failed_frac=failed / attempted,
                  rows_per_s_tail=tail(rates) if rates else None)
    metrics = {
        "rows_per_s": statistics.median(rates) if rates else 0.0,
        "cpu_s_per_mrow": statistics.median(cpus) if cpus else 0.0,
        "driver_peak_rss_mb": procstat.peak_rss_mb(),
        "setup_s": statistics.median(setups),
        "ok_frac": 1.0 - failed / attempted,
    }
    return metrics, attempted, failed, bad


def traced_run(wl, c, seed: int, tmp: Path, detail: dict) -> tuple[dict, int, int, list[str]]:
    """Untraced and traced calls in ABBA order (so drift over the run
    cancels), then every layer probe."""
    tracer = layers.Tracer()
    _, prime_bad = set_up(wl, c, tmp)
    pin(detail)
    bad = [f"prime: {m}" for m in prime_bad] + warm_up(wl, c, detail)
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    coverage, failed = [], 0
    for mode in ("untraced", "traced", "traced", "untraced"):
        if mode == "traced":
            with tracer.span("workload") as top:
                r = Call(wl, c, tracer.span)
            inner = [s for s in tracer.spans if s["parent"] == top["id"]]
            coverage.append(sum(s["end"] - s["start"] for s in inner) / r.wall)
        else:
            r = Call(wl, c, layers.no_span)
        walls[mode].append(r.wall)
        failed += bool(r.bad)
        bad += r.bad
    metrics = layers.probe_all(c, wl.name, tracer)
    if metrics["engine.uniqueness.dup_keys"] != c.golden["dup_keys"]:
        bad.append(f"uniqueness probe: {metrics['engine.uniqueness.dup_keys']} dup keys, "
                   f"want {c.golden['dup_keys']}")
    metrics["trace_overhead_s"] = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
    metrics["trace_coverage"] = min(coverage)
    detail["walls_s"] = walls
    layers.write_spans(tracer, WORK / f"trace-{wl.name}-{seed}.json")
    return metrics, 4, failed, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", type=int, default=None, help="corpus size (default: the workload's)")
    args = ap.parse_args(argv)
    # a terminated run still shuts Ray down (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "jesse_ray" / "__init__.py").is_file():
        print(f"perfbench: no jesse_ray package under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(HERE)]
    # Ray workers import the engine and these modules by name
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(HERE)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    # one Arrow and BLAS thread per process (Ray workers inherit this), so
    # a run does not depend on how many cores the machine exposes
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    # a Ray call after shutdown must fail, not start a default cluster
    os.environ["RAY_ENABLE_AUTO_CONNECT"] = "0"

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload]
    specs = metric_specs()
    t0 = time.perf_counter()
    c = prepare_corpus(wl.name, args.seed, args.rows or wl.rows)
    # rows and violations are the gated answer: a call that passed the
    # gate returned exactly these
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "env": dict(procstat.env_stamp(ROOT), ray_num_cpus=NUM_CPUS),
              "corpus": {k: c.golden[k] for k in ("rows", "files", "bytes", "dup_keys")},
              "violations": sum(c.golden["counts"].values()),
              "prepare_s": time.perf_counter() - t0}
    tmp = ray_tmp_dir()
    try:
        if args.trace:
            metrics, attempted, failed, bad = traced_run(wl, c, args.seed, tmp, detail)
            names = specs["per_layer"]
        else:
            metrics, attempted, failed, bad = timed_run(wl, c, args.seconds, tmp, detail)
            names = specs["end_to_end"]
        if wl.name == "checkpoint_drift":
            detail["drifted_partitions"] = [
                r["metrics"].get("drifted") for r in W.read_manifest(c.out)
            ] if (c.out / "manifest.jsonl").exists() else None
    finally:
        import ray

        ray.shutdown()
        detail["killed_pids"] = procstat.reap_descendants() + procstat.kill_strays(str(tmp))
        shutil.rmtree(tmp, ignore_errors=True)
        c.clear_out()
    missing = {m["name"] for m in names} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    detail["mismatches"] = bad[:20]
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
