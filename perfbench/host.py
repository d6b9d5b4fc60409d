"""Host stamp, process-tree helpers and the peak-RSS sampler.

Everything reads ``/proc`` directly (no ``psutil``).
"""

from __future__ import annotations

import datetime
import hashlib
import os
import re
import signal
import subprocess
import threading
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def nproc() -> int:
    """What ``nproc`` prints: the usable cores, capped by
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when they are set."""
    try:
        r = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return int(r.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return len(os.sched_getaffinity(0))


def _ppids() -> dict[int, int]:
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name is parenthesised and may contain spaces
        out[int(d)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def descendants(pid: int | None = None) -> list[int]:
    pid = os.getpid() if pid is None else pid
    children: dict[int, list[int]] = {}
    for p, pp in _ppids().items():
        children.setdefault(pp, []).append(p)
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _rss(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * _PAGE
    except (OSError, IndexError, ValueError):
        return 0


def is_ray_worker(pid: int) -> bool:
    cmd = _cmdline(pid)
    return cmd.startswith("ray::") or "default_worker.py" in cmd


# Ray's temp dir of a benchmark run is <system temp>/pbray<owner pid>-XXXXXXXX
RAY_TMP_PREFIX = "pbray"
_RAY_TMP_OWNER = re.compile(r"/" + RAY_TMP_PREFIX + r"(\d+)-")


def stale_ray_tmp_owner(path: str) -> int | None:
    """The pid of the benchmark run that made Ray temp dir ``path`` (also
    found inside a command line) when that run has ended, else None."""
    m = _RAY_TMP_OWNER.search(path)
    if m is None:
        return None
    owner = int(m.group(1))
    return None if os.path.exists(f"/proc/{owner}") else owner


def stale_ray_processes() -> list[int]:
    """Ray processes left behind by benchmark runs that have ended: the
    daemons whose command line names such a run's Ray temp dir, and their
    descendants. Ray sessions of live runs, and any other Ray session on
    the host, are left alone."""
    out: list[int] = []
    for pid in _ppids():
        if stale_ray_tmp_owner(_cmdline(pid)) is not None:
            out += [pid, *descendants(pid)]
    return sorted(set(out))


def kill_descendants(wait_s: float = 10.0) -> None:
    """SIGKILL every descendant still alive and wait for it to go."""
    for p in descendants():
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wait_descendants_gone(wait_s)


def wait_descendants_gone(wait_s: float) -> bool:
    """Reap exited children until no descendant is left or ``wait_s``
    passes."""
    end = time.monotonic() + wait_s
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        live = [p for p in descendants() if not _is_zombie(p)]
        if not live:
            return True
        if time.monotonic() > end:
            return False
        time.sleep(0.1)


def _is_zombie(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class RssSampler:
    """Background thread summing the RSS of this process and its Ray
    worker descendants; ``peak_mb`` is the highest sum seen while
    running."""

    def __init__(self, period_s: float = 0.25) -> None:
        self.period_s = period_s
        self.peak = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def sample(self) -> int:
        me = os.getpid()
        total = _rss(me) + sum(_rss(p) for p in descendants(me) if is_ray_worker(p))
        self.peak = max(self.peak, total)
        return total

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            self.sample()

    def __enter__(self) -> RssSampler:
        self.sample()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak / 1e6


def _git_sha(root: str) -> str | None:
    try:
        r = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if r.returncode != 0:
        return None
    return r.stdout.strip() or None


def source_digest(root: str, package: str) -> str:
    """sha256 over the package's Python sources, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    base = os.path.join(root, package)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                p = os.path.join(dirpath, fn)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="milliseconds")


class HostStamp:
    """Host state around one workload run."""

    def __init__(self, root: str, package: str) -> None:
        import duckdb
        import pyarrow
        import ray

        self.data = {
            "start": _now(),
            "loadavg_before": list(os.getloadavg()),
            "git_sha": _git_sha(root),
            "source_sha256": source_digest(root, package),
            "nproc": nproc(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "versions": {
                "ray": ray.__version__,
                "pyarrow": pyarrow.__version__,
                "duckdb": duckdb.__version__,
            },
        }

    def finish(self) -> dict:
        self.data["end"] = _now()
        self.data["loadavg_after"] = list(os.getloadavg())
        return self.data
