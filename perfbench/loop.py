"""The closed loop shared by the untraced and traced runs."""

from __future__ import annotations

import statistics
import sys
import time

OP_DEADLINE_S = 60.0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it (nearest rank). With fewer than eleven samples no
    percentile qualifies; p75 (nearest rank) stands in, since the maximum
    of a handful of ops is decided by one slow actor start."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        rank = -(-3 * n // 4)
        return v[rank - 1], 100.0 * rank / n
    return v[n - 11], 100.0 * (n - 10) / n


def release(timeout_s: float = 10.0) -> tuple[float, bool]:
    """Collect garbage and wait until every CPU slot is free again;
    returns (seconds taken, whether a slot was still held when called).

    An encode op's actor pool keeps its CPU slot after ``take_all()``
    returns, until the driver's next cyclic garbage collection; left to
    itself, the next op waits for the raylet to request one (10-20 s).
    Releasing between ops, outside the op's latency, keeps latencies
    about the op; throughput counts the release time, and the held share
    and the release time are reported."""
    import gc

    import ray

    total = ray.cluster_resources().get("CPU", 0)
    held = ray.available_resources().get("CPU", 0) < total
    t0 = time.perf_counter()
    gc.collect()
    while ray.available_resources().get("CPU", 0) < total:
        if time.perf_counter() - t0 > timeout_s:
            break
        time.sleep(0.02)
    return time.perf_counter() - t0, held


def run_loop(wl, seconds: float, watchdog, recorder=None, first_id: int = 0,
             after_op=None) -> list:
    """Closed loop: ops back to back in whole batches of ``wl.next_ops()``
    (one encode, or one query cycle for SQL) until ``seconds`` have passed
    and at least ``wl.min_batches`` batches ran. ``after_op(result)`` runs
    after each op, before its resources are released."""
    results = []
    t0 = time.perf_counter()
    op_id = first_id
    batch = 0
    while time.perf_counter() - t0 < seconds or batch < wl.min_batches:
        for label in wl.next_ops():
            watchdog.arm(OP_DEADLINE_S, f"{wl.name} op {op_id} ({label})")
            if recorder is not None:
                recorder.op = op_id
            r = wl.run_op(label, op_id)
            if recorder is not None:
                recorder.op = None
            watchdog.disarm()
            r.op_id, r.batch = op_id, batch
            if after_op is not None:
                after_op(r)
            r.release_s, r.held = release()
            if not r.ok:
                print(f"perfbench: op {op_id} ({label}) failed: {r.error}", file=sys.stderr)
            results.append(r)
            op_id += 1
        batch += 1
    return results


def setup(wl, reps: int) -> dict:
    times = [wl.setup(rep) for rep in range(reps)]
    return {"data_s": times, "data_median_s": statistics.median(times)}


def warmup(wl, watchdog) -> float:
    """One untimed batch of ops: worker start-up and first-call costs."""
    t0 = time.perf_counter()
    for i, label in enumerate(wl.next_ops()):
        watchdog.arm(OP_DEADLINE_S * 2, f"{wl.name} warm-up ({label})")
        r = wl.run_op(label, -1 - i)
        watchdog.disarm()
        release()
        if not r.ok:
            raise RuntimeError(f"warm-up op {label} failed: {r.error}")
    return time.perf_counter() - t0
