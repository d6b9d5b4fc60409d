"""Ray session, scratch space and deadlines for one benchmark process."""

from __future__ import annotations

import os
import shutil
import signal
import sys
import tempfile
import threading
import time

from . import host, trace


class Watchdog:
    """Ends the process when an op or the whole run overruns.

    ``arm(seconds, what)`` sets the current deadline; if it passes, the
    watchdog reports ``what`` on stderr, kills every descendant process
    and exits with code 3 without printing a result."""

    def __init__(self, hard_s: float) -> None:
        self._hard = time.monotonic() + hard_s
        self._deadline: float | None = None
        self._what = ""
        self._lock = threading.Lock()
        self._cleanup: list = []
        t = threading.Thread(target=self._run, name="watchdog", daemon=True)
        t.start()

    def on_expiry(self, fn) -> None:
        self._cleanup.append(fn)

    def arm(self, seconds: float, what: str) -> None:
        with self._lock:
            self._deadline = time.monotonic() + seconds
            self._what = what

    def disarm(self) -> None:
        with self._lock:
            self._deadline = None

    def _run(self) -> None:
        while True:
            time.sleep(0.5)
            now = time.monotonic()
            with self._lock:
                late = self._deadline is not None and now > self._deadline
                what = self._what
            if late or now > self._hard:
                reason = f"deadline missed: {what}" if late else "run exceeded its time cap"
                print(f"perfbench: {reason}; stopping", file=sys.stderr, flush=True)
                host.kill_descendants(wait_s=10)
                for fn in self._cleanup:
                    try:
                        fn()
                    except OSError:
                        pass
                os._exit(3)


def clear_stale_ray(wait_s: float = 10.0) -> None:
    """Kill the Ray processes and remove the Ray temp dirs left behind by
    benchmark runs that have ended (killed before they could clean up)."""
    for p in host.stale_ray_processes():
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + wait_s
    while host.stale_ray_processes() and time.monotonic() < end:
        time.sleep(0.1)
    tmp = tempfile.gettempdir()
    for d in os.listdir(tmp):
        if d.startswith(host.RAY_TMP_PREFIX) and host.stale_ray_tmp_owner("/" + d):
            shutil.rmtree(os.path.join(tmp, d), ignore_errors=True)


class Scratch:
    """Scratch space, removed by ``close``: data under the checkout's
    ``.perfbench_work/``, and Ray's temp dir in the system temp dir, since
    Ray's unix socket paths under it must fit in 107 bytes."""

    def __init__(self, root: str) -> None:
        base = os.path.join(root, ".perfbench_work")
        os.makedirs(base, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"run{os.getpid()}-", dir=base)
        self._base = base
        self.ray_tmp = tempfile.mkdtemp(prefix=f"{host.RAY_TMP_PREFIX}{os.getpid()}-")

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def close(self) -> None:
        for d in (self.dir, self.ray_tmp):
            shutil.rmtree(d, ignore_errors=True)
        try:
            os.rmdir(self._base)  # only when no other run is using it
        except OSError:
            pass


def start_ray(root: str, ray_tmp: str, span_dir: str | None) -> float:
    """Start a local Ray session with one CPU slot per core this process
    may use; returns the seconds it took. Workers get the repository
    root on ``PYTHONPATH`` so they import the same package (and this
    benchmark's span hook) as the driver from any working directory. With
    ``span_dir`` every worker installs the span wrappers at start."""
    t0 = time.perf_counter()
    import ray
    import ray.data

    env = {"PYTHONPATH": root}
    runtime_env: dict = {"env_vars": env}
    if span_dir is not None:
        env[trace.SPAN_DIR_ENV] = span_dir
        runtime_env["worker_process_setup_hook"] = "perfbench.trace.worker_hook"
    ray.init(
        num_cpus=host.nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,
        _temp_dir=ray_tmp,
        runtime_env=runtime_env,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    return time.perf_counter() - t0


def stop_ray() -> None:
    import ray

    if ray.is_initialized():
        ray.shutdown()
    if not host.wait_descendants_gone(15):
        host.kill_descendants(wait_s=10)
