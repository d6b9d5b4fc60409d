"""The traced run and its per-layer metrics.

Layers, from the kernels up:

* L0 ``codecs``: ``<kernel>_s`` is the time inside the kernel per op
  (inclusive), ``<kernel>_MBps`` the bytes passed in divided by that time;
  ``codecs.census.<codec>.streams|bytes`` are read from the manifests.
* L1 ``stripe``: self times of the stripe encode/decode functions,
  ``stripe.select_s`` (the bytes and integer selectors, trials included)
  and footer parses.
* L2 ``stages`` / ``state`` / ``io``: the fragment encoder's Parquet read,
  its own time, manifest writes, the decode stage and ranged reads.
* L3 ``pipelines`` / ``sources.datasource``: remote task wall from
  ``Dataset.stats()``, op wall minus that wall, read tasks and stripes
  pruned by stats.
* L4 ``sources.stripes`` / ``sources.sqlagg``: planner gate time, the
  share of ops per plan kind and each query's median latency.

Times and counts are per op, so runs with different op counts compare.
"""

from __future__ import annotations

import os
import statistics

CODEC_KERNELS = [
    "codecs.fsst.train",
    "codecs.fsst.encode",
    "codecs.fsst.decode",
    "codecs.bytes_codec.choose",
    "codecs.outer.compress",
    "codecs.outer.decompress",
    "codecs.integers.estimate_sizes",
    "codecs.integers.encode_ints",
    "codecs.integers.decode_ints",
    "codecs.bloom.build",
]
CENSUS_CODECS = [
    "raw", "bitpack", "for_bp", "delta", "rle", "patched_for", "bss", "fsst",
    "dict", "outer_zstd", "outer_none",
]
SELF_TIMED = [
    "stripe.encode_table",
    "stripe.encode_column",
    "stripe.decode_table",
    "stripe.decode_file",
    "stripe.decode_column",
    "stages.encode.encode_one",
    "stages.encode.fragment",
    "stages.decode",
    "sources.sqlagg.partial",
    "sources.stripes.sql",
]
PLAN_KINDS = [
    "stats_answer",
    "aggregate_pushdown",
    "topk_pushdown",
    "join_aggregate_pushdown",
    "join_topk_pushdown",
    "stream+semijoin_prefilter",
    "stream",
]
QUERIES = [
    "stats", "aggregate", "aggregate_text", "topk", "join_aggregate",
    "join_topk", "semijoin", "point",
]


def _metric_name(s: str) -> str:
    return s.replace("+", "_")


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name with its unit and better direction,
    in report order."""
    lo, hi = "lower", "higher"
    u: dict[str, tuple[str, str]] = {}
    for k in CODEC_KERNELS:
        u[f"{k}_s"] = ("s", lo)
        u[f"{k}_MBps"] = ("MB/s", hi)
    for c in CENSUS_CODECS:
        u[f"codecs.census.{c}.streams"] = ("count", lo)
        u[f"codecs.census.{c}.bytes"] = ("bytes", lo)
    for k in SELF_TIMED:
        u[f"{k}.self_s"] = ("s", lo)
    u.update({
        "stripe.select_s": ("s", lo),
        "stripe.read_footer.calls": ("count", lo),
        "stripe.read_footer.calls_per_stripe": ("ratio", lo),
        "stripe.encoded": ("count", lo),
        "stages.encode.read_s": ("s", lo),
        "state.manifest.write_stripe_s": ("s", lo),
        "io.ranged_read.calls": ("count", lo),
        "io.ranged_read.bytes": ("bytes", lo),
        "io.read_bytes.calls": ("count", lo),
        "io.read_bytes.bytes": ("bytes", lo),
        "pipelines.remote_wall_s": ("s", lo),
        "pipelines.overhead_s": ("s", lo),
        "pipelines.held_after_op": ("share", lo),
        "pipelines.release_s": ("s", lo),
        "sources.datasource.read_tasks": ("count", lo),
        "sources.datasource.stripes_pruned": ("count", hi),
        "sources.sqlagg.plan_s": ("s", lo),
    })
    for k in PLAN_KINDS:
        u[f"sources.stripes.plan.{_metric_name(k)}"] = ("share", lo if k == "stream" else hi)
    for q in QUERIES:
        u[f"sql.{q}.p50_s"] = ("s", lo)
    u.update({
        "trace.untraced_op_p50_s": ("s", lo),
        "trace.traced_op_p50_s": ("s", lo),
        "trace.overhead_s": ("s", lo),
        "trace.spans_per_op": ("count", lo),
    })
    return u


def per_layer(agg: dict, n_spans: int, untraced: list, traced: list,
              remote: dict[int, float], census: dict) -> dict[str, float]:
    """Per-layer metric values from a span summary (``trace.summarize``),
    the op results of both phases, remote wall per traced op and the
    codec census."""
    n = len(traced)

    def g(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    v: dict[str, float] = {}
    for k in CODEC_KERNELS:
        incl = g(k, "incl_s")
        v[f"{k}_s"] = incl / n
        v[f"{k}_MBps"] = g(k, "bytes") / incl / 1e6 if incl > 0 else 0.0
    for c in CENSUS_CODECS:
        v[f"codecs.census.{c}.streams"] = census.get(c, {}).get("streams", 0)
        v[f"codecs.census.{c}.bytes"] = census.get(c, {}).get("bytes", 0)
    for k in SELF_TIMED:
        v[f"{k}.self_s"] = g(k, "self_s") / n
    stripes = g("stripe.encode_table", "calls") or (
        g("stripe.decode_table", "calls") + g("stripe.decode_file", "calls"))
    footers = g("stripe.read_footer", "calls") + g("stripe.read_footer_from_file", "calls")
    v.update({
        "stripe.select_s": (g("codecs.bytes_codec.choose", "incl_s")
                            + g("codecs.integers.estimate_sizes", "incl_s")) / n,
        "stripe.read_footer.calls": footers / n,
        "stripe.read_footer.calls_per_stripe": footers / stripes if stripes else 0.0,
        "stripe.encoded": g("stripe.encode_table", "calls") / n,
        "stages.encode.read_s": g("stages.encode.read", "incl_s") / n,
        "state.manifest.write_stripe_s": g("state.manifest.write_stripe", "incl_s") / n,
        "io.ranged_read.calls": g("io.ranged_read", "calls") / n,
        "io.ranged_read.bytes": g("io.ranged_read", "bytes") / n,
        "io.read_bytes.calls": g("io.read_bytes", "calls") / n,
        "io.read_bytes.bytes": g("io.read_bytes", "bytes") / n,
        "pipelines.remote_wall_s": sum(remote.values()) / n,
        "pipelines.overhead_s": sum(r.wall - remote.get(r.op_id, 0.0) for r in traced) / n,
        "pipelines.held_after_op": sum(r.held for r in traced) / n,
        "pipelines.release_s": sum(r.release_s for r in traced) / n,
        "sources.datasource.read_tasks": g("sources.datasource.read_tasks", "bytes") / n,
        "sources.datasource.stripes_pruned":
            g("sources.datasource.stripes_pruned", "bytes") / n,
        "sources.sqlagg.plan_s": g("sources.sqlagg.plan", "incl_s") / n,
    })
    for k in PLAN_KINDS:
        v[f"sources.stripes.plan.{_metric_name(k)}"] = sum(r.plan == k for r in traced) / n
    by_q: dict[str, list[float]] = {}
    for r in untraced:
        by_q.setdefault(r.label, []).append(r.wall)
    for q in QUERIES:
        v[f"sql.{q}.p50_s"] = statistics.median(by_q[q]) if q in by_q else 0.0
    p_un = statistics.median(r.wall for r in untraced)
    p_tr = statistics.median(r.wall for r in traced)
    v.update({
        "trace.untraced_op_p50_s": p_un,
        "trace.traced_op_p50_s": p_tr,
        "trace.overhead_s": p_tr - p_un,
        "trace.spans_per_op": n_spans / n,
    })
    return v


def traced_run(wl, seconds: float, watchdog, span_dir: str):
    """Set up once, measure ``seconds`` untraced, then ``seconds`` with
    every wrapper recording; returns (metrics, all op results, report)."""
    from perfbench import trace
    from perfbench.loop import run_loop, setup, warmup

    rec = trace.RECORDER
    trace.install()
    captured: list = []
    trace.install_capture(captured)
    setup_info = setup(wl, 1)
    warmup(wl, watchdog)
    untraced = run_loop(wl, seconds, watchdog)
    flag = os.path.join(span_dir, trace.FLAG_NAME)
    open(flag, "w").close()
    rec.enabled = True
    remote: dict[int, float] = {}

    def read_stats(r) -> None:
        # read now and drop the Datasets: holding them would keep the
        # op's actor pool alive into the next op
        seen = {id(ds): ds for ds in captured}
        remote[r.op_id] = sum(trace.remote_wall_s(ds.stats()) for ds in seen.values())
        captured.clear()

    try:
        traced = run_loop(wl, seconds, watchdog, recorder=rec, first_id=len(untraced),
                          after_op=read_stats)
    finally:
        rec.enabled = False
        os.remove(flag)
    driver = [s if s[2] is not None else s[:2] + [s[1]] + s[3:] for s in rec.spans]
    off = len(driver)
    workers = [
        s[:3] + [None if s[3] is None else s[3] + off] + s[4:]
        for s in trace.load_worker_spans(span_dir)
    ]
    agg, counted = trace.summarize(
        driver + workers, [(r.op_id, r.start, r.end) for r in traced])
    values = per_layer(agg, counted, untraced, traced, remote, wl.census())
    metrics = {k: (values[k], unit) for k, (unit, _) in metric_units().items()}
    report = {
        "setup": setup_info,
        "ops_untraced": len(untraced),
        "ops_traced": len(traced),
        "spans": {k: {kk: round(vv, 6) for kk, vv in d.items()} for k, d in sorted(agg.items())},
        "failures": [r.error for r in untraced + traced if not r.ok][:5],
    }
    return metrics, untraced + traced, report
