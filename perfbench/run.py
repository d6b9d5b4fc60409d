"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) against a Ray session started
once in set-up with one CPU slot per core this process may use. A
single client runs ops in a closed loop for ``--seconds`` (an SQL run
ends on a whole query cycle). Prints two JSON lines: a report (host
stamp, set-up breakdown, op latencies, codec census, format baselines)
and, last, the result ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``. With ``--trace 1`` span wrappers are installed in the
driver and in every Ray worker and the run measures twice in one
session, first with them off and then recording; the metrics are the
per-layer ones (see ``layers.py``), plus the tracing overhead.

Exit codes: 0 ok; 1 an op failed or gave a wrong result (result printed
with ``"correct": false``), or set-up failed (no result); 2 the program
or an argument is missing; 3 an op missed its deadline or the run its
time cap (no result).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "datafusion_orc_ray"

sys.path.insert(0, ROOT)
from perfbench.loop import tail  # noqa: E402  (needs ROOT on the path)

SETUP_REPS = 3
RUN_CAP_S = 170.0


def _parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def batches(results: list) -> list[tuple[float, int, int]]:
    """(wall, ops completed, raw bytes) of each batch. The wall counts
    each op and the wait for its CPU slot to be released after it."""
    out: dict[int, list] = {}
    for r in results:
        b = out.setdefault(r.batch, [0.0, 0, 0])
        b[0] += r.wall + r.release_s
        b[1] += r.ok
        b[2] += r.raw_bytes
    return [tuple(b) for _, b in sorted(out.items())]


def end_to_end(wl, results: list, timing: dict, rss_mb: float) -> dict:
    """Throughput is taken from the median batch, so one slow op (an
    actor start can take several times its usual ~2.5 s) does not decide
    a run; the mean-based figures are in the report. Unlike op latency,
    throughput counts the slot release between ops."""
    walls = [r.wall for r in results]
    ok = sum(r.ok for r in results)
    t, _ = tail(walls)
    per_batch = sorted(batches(results))
    mid = per_batch[len(per_batch) // 2]
    return {
        "setup_s": (timing["setup_s"], "s"),
        "ops_per_s": (mid[1] / mid[0], "1/s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (t, "s"),
        "raw_MBps": (mid[2] / mid[0] / 1e6, "MB/s"),
        "stored_bytes_per_raw_byte": (wl.stored_per_raw(), "ratio"),
        "ok_op_ratio": (ok / len(results), "ratio"),
        "peak_rss_MB": (rss_mb, "MB"),
    }


def op_summary(results: list) -> dict:
    walls = [r.wall for r in results]
    loop_s = sum(r.wall + r.release_s for r in results)
    t, pct = tail(walls)
    by_label: dict[str, list[float]] = {}
    for r in results:
        by_label.setdefault(r.label, []).append(r.wall)
    return {
        "n": len(walls),
        "p50_s": statistics.median(walls),
        "tail_s": t,
        "tail_pct": pct,
        "max_s": max(walls),
        "busy_s": sum(walls),
        "walls_s": [round(w, 4) for w in walls],
        "held_after_op_share": sum(r.held for r in results) / len(results),
        "release_s_mean": statistics.fmean(r.release_s for r in results),
        "batches": len(batches(results)),
        "mean_ops_per_s": sum(r.ok for r in results) / loop_s,
        "mean_raw_MBps": sum(r.raw_bytes for r in results) / loop_s / 1e6,
        "per_label_p50_s": {k: statistics.median(v) for k, v in by_label.items()},
        "failures": [r.error for r in results if not r.ok][:5],
    }


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"perfbench: {PACKAGE} not found under {ROOT}", file=sys.stderr)
        return 2
    from perfbench import host, layers, session
    from perfbench.loop import run_loop, setup, warmup
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # SIGTERM unwinds through the finally below, which stops Ray
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    watchdog = session.Watchdog(RUN_CAP_S)
    scratch = session.Scratch(ROOT)
    watchdog.on_expiry(scratch.close)
    try:
        stamp = host.HostStamp(ROOT, PACKAGE)
        session.clear_stale_ray()
        wl = WORKLOADS[args.workload](args.workload, scratch, args.seed)
        report: dict = {"workload": args.workload, "seed": args.seed,
                        "seconds": args.seconds, "trace": args.trace}
        if args.trace == 0:
            ray_s = session.start_ray(ROOT, scratch.ray_tmp, span_dir=None)
            timing = setup(wl, SETUP_REPS)
            warm_s = warmup(wl, watchdog)
            timing.update(ray_s=ray_s, warmup_s=warm_s,
                          setup_s=ray_s + timing["data_median_s"] + warm_s)
            with host.RssSampler() as rss:
                results = run_loop(wl, args.seconds, watchdog)
            metrics = end_to_end(wl, results, timing, rss.peak_mb)
            report["setup"] = timing
            report["ops"] = op_summary(results)
            if hasattr(wl, "source_tables"):
                from perfbench import baselines

                report["baselines"] = baselines.measure(
                    wl.source_tables(), ours=wl.stored_per_raw())
        else:
            span_dir = scratch.path("spans")
            os.makedirs(span_dir)
            session.start_ray(ROOT, scratch.ray_tmp, span_dir=span_dir)
            metrics, results, extra = layers.traced_run(wl, args.seconds, watchdog, span_dir)
            report.update(extra)
        report["census"] = wl.census()
        report["host"] = stamp.finish()
        failed = sum(not r.ok for r in results)
        print(json.dumps({"report": report}, default=float))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        sys.stdout.flush()
        return 0 if failed == 0 else 1
    finally:
        session.stop_ray()
        scratch.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
