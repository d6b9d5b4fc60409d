"""Span self times, the tail percentile and BENCHMARK.json consistency."""

import json
import os

import pytest

from perfbench import layers, trace
from perfbench.loop import tail


def _span(name, start, end, parent=None):
    return [name, start, end, parent, None, 10, 1]


def test_self_time_subtracts_children_and_recursion_counts_once():
    spans = [
        _span("outer", 0.0, 10.0),
        _span("inner", 1.0, 4.0, 0),
        _span("inner", 2.0, 3.0, 1),  # recursive call
        _span("other", 5.0, 6.0, 0),
    ]
    agg, counted = trace.summarize(spans, [(0, 0.0, 10.0)])
    assert counted == 4
    assert agg["outer"]["self_s"] == pytest.approx(6.0)
    assert agg["inner"]["self_s"] == pytest.approx(3.0)
    assert agg["inner"]["incl_s"] == pytest.approx(3.0)  # nested call not added
    assert agg["inner"]["calls"] == 2 and agg["inner"]["bytes"] == 10


def test_spans_outside_ops_are_dropped_and_children_follow_root():
    spans = [
        _span("a", 0.5, 1.5),        # starts inside op 7
        _span("b", 1.6, 1.7, 0),     # child ends after the op: still op 7
        _span("a", 3.0, 3.5),        # between ops: an output check
    ]
    agg, counted = trace.summarize(spans, [(7, 0.0, 1.55)])
    assert counted == 2
    assert agg["a"]["calls"] == 1 and agg["b"]["calls"] == 1


def test_remote_wall_parses_every_operator():
    text = (
        "Operator 0 FromItems: 1 tasks\n"
        "* Remote wall time: 1.93ms min, 5.02ms max, 3.19ms mean, 12.77ms total\n"
        "Operator 1 MapBatches(FragmentEncoder): 4 tasks\n"
        "* Remote wall time: 167.05ms min, 826.96ms max, 386.4ms mean, 1.55s total\n"
        "* Remote wall time: 3us min, 3us max, 3us mean, 40us total\n"
    )
    assert trace.remote_wall_s(text) == pytest.approx(0.01277 + 1.55 + 40e-6)


def test_tail_has_ten_samples_beyond():
    values = [float(i) for i in range(1, 41)]
    v, pct = tail(values)
    assert sum(x > v for x in values) == 10
    assert pct == pytest.approx(75.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert tail([5.0, 1.0, 2.0, 3.0, 4.0]) == (4.0, 80.0)  # p75 stands in


def test_benchmark_json_matches_the_metrics_printed():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == layers.metric_units()
    e2e = [m["name"] for m in spec["end_to_end"]]
    assert e2e == ["setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "raw_MBps",
                   "stored_bytes_per_raw_byte", "ok_op_ratio", "peak_rss_MB"]
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_watchdog_ends_a_hung_op_with_exit_code_3():
    import subprocess
    import sys
    import time

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1])\n"
        "from perfbench.session import Watchdog\n"
        "w = Watchdog(60.0); w.arm(0.5, 'hung op')\n"
        "time.sleep(30); print('not reached')\n"
    )
    t0 = time.monotonic()
    r = subprocess.run([sys.executable, "-c", code, root], capture_output=True,
                       text=True, timeout=60)
    assert r.returncode == 3
    assert "deadline missed: hung op" in r.stderr and "not reached" not in r.stdout
    assert time.monotonic() - t0 < 20
