"""Process accounting from /proc (psutil is not available) and the
environment stamp every result carries."""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import time
from importlib import metadata
from pathlib import Path

_CLK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int):
    """(ppid, cpu seconds incl. reaped children) of one live process, or
    None for a process that is gone or a zombie."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    f = raw.rsplit(")", 1)[1].split()
    # fields after "(comm)": state ppid ... utime stime cutime cstime
    if f[0] == "Z":
        return None
    return int(f[1]), sum(int(x) for x in f[11:15]) / _CLK


def _table() -> dict[int, tuple[int, float]]:
    out = {}
    for d in os.listdir("/proc"):
        if d.isdigit():
            st = _stat(int(d))
            if st is not None:
                out[int(d)] = st
    return out


def descendants(root: int | None = None, table=None) -> list[int]:
    root = os.getpid() if root is None else root
    table = _table() if table is None else table
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], list(kids.get(root, []))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(kids.get(pid, []))
    return out


def _is_ray_worker(pid: int) -> bool:
    """Ray renames a worker's command line to ``ray::<task>`` (or
    ``ray::IDLE``); before that it is ``.../default_worker.py``."""
    try:
        cmd = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def tree_cpu() -> dict[int, float]:
    """CPU seconds of this process and of every live Ray worker under it,
    by pid.  The Ray head processes (GCS, raylet, agents) are left out:
    their background CPU follows wall time, not work done."""
    table = _table()
    me = os.getpid()
    pids = [me] + [p for p in descendants(me, table) if _is_ray_worker(p)]
    return {p: table[p][1] for p in pids if p in table}


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds the process tree spent between two ``tree_cpu`` samples.
    A process started in between counts in full; one that exited in
    between (Ray kills idle workers, and nothing in the tree reaps them)
    drops out, losing only what it spent after ``before``."""
    return sum(cpu - before.get(pid, 0.0) for pid, cpu in after.items())


def pin_tree(core: int) -> int:
    """Move every thread of this process and of its descendants onto
    ``core``; processes they start later inherit it.  Returns the number
    of threads moved."""
    moved = 0
    for pid in [os.getpid()] + descendants():
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), {core})
                moved += 1
            except OSError:  # the thread has exited
                pass
    return moved


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reap_descendants(timeout_s: float = 20.0) -> list[int]:
    """Wait for every descendant to exit; SIGKILL whatever is left after
    ``timeout_s``.  Returns the pids that had to be killed."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        _reap_zombies()
        if not descendants():
            return []
        time.sleep(0.2)
    killed = descendants()
    for pid in killed:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while descendants():
        time.sleep(0.1)
    _reap_zombies()
    return killed


def kill_strays(marker: str) -> list[int]:
    """SIGKILL processes outside this tree whose command line names
    ``marker`` (the Ray temp dir): a Ray agent orphaned when a run is
    interrupted during ``ray.init`` is reparented away from us."""
    me, killed = os.getpid(), []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == me:
            continue
        try:
            cmd = Path(f"/proc/{d}/cmdline").read_bytes()
        except OSError:
            continue
        if marker.encode() in cmd and _stat(int(d)) is not None:
            try:
                os.kill(int(d), signal.SIGKILL)
                killed.append(int(d))
            except ProcessLookupError:
                pass
    while any(_stat(pid) is not None for pid in killed):
        time.sleep(0.1)
    return killed


def _reap_zombies() -> None:
    """Collect exited direct children so none is left a zombie."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def cpus_available() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _mem_total_mb() -> float:
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _git_commit(root: Path) -> str | None:
    try:
        # the ceiling keeps git from reporting an enclosing repository
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                           timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest(root: Path) -> str:
    """sha256 over the engine's Python sources, for checkouts without git."""
    h = hashlib.sha256()
    for p in sorted((root / "jesse_ray").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def env_stamp(root: Path) -> dict:
    return {
        "cpus_available": cpus_available(),
        # what `nproc` prints: it honours OMP_NUM_THREADS
        "nproc": int(os.environ.get("OMP_NUM_THREADS") or cpus_available()),
        "cpu_model": _cpu_model(),
        "mem_total_mb": round(_mem_total_mb()),
        "versions": {p: metadata.version(p) for p in ("ray", "pyarrow", "numpy", "duckdb")},
        "git_commit": _git_commit(root),
        "source_sha": source_digest(root),
    }
