"""compare.py: end-to-end deltas against the bounds, per-layer moves."""

import json

from perfbench import compare

SPEC = {
    "end_to_end": [
        {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]
}


def _write(path, runs):
    """runs: [(workload, trace, {metric: value})] as run.py prints them."""
    with open(path, "w") as f:
        for wl, trace, metrics in runs:
            f.write("noise from a library\n")
            f.write(json.dumps({"report": {"workload": wl, "trace": trace}}) + "\n")
            f.write(json.dumps({
                "correct": True, "attempted": 1, "failed": 0,
                "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
            }) + "\n")


def _run(tmp_path, base, new):
    _write(tmp_path / "a", base)
    _write(tmp_path / "b", new)
    return compare.compare(
        compare.load_runs(str(tmp_path / "a")), compare.load_runs(str(tmp_path / "b")), SPEC)


def test_regression_beyond_bound_is_flagged(tmp_path):
    base = [("w", 0, {"op_p50_s": 1.0, "ops_per_s": 1.0})] * 3
    new = [("w", 0, {"op_p50_s": 1.2, "ops_per_s": 0.95})] * 3
    lines, regressed = _run(tmp_path, base, new)
    assert regressed
    p50 = next(line for line in lines if "op_p50_s" in line)
    assert "REGRESSION" in p50 and "+20.0%" in p50
    ops = next(line for line in lines if "ops_per_s" in line)
    assert "worse, within bound" in ops


def test_improvement_and_direction(tmp_path):
    base = [("w", 0, {"op_p50_s": 1.0, "ops_per_s": 1.0})]
    new = [("w", 0, {"op_p50_s": 0.5, "ops_per_s": 2.0})]
    lines, regressed = _run(tmp_path, base, new)
    assert not regressed
    assert all("better" in line for line in lines if "op_" in line)


def test_medians_not_means(tmp_path):
    base = [("w", 0, {"op_p50_s": v, "ops_per_s": 1.0}) for v in (1.0, 1.0, 9.0)]
    new = [("w", 0, {"op_p50_s": v, "ops_per_s": 1.0}) for v in (1.05, 1.05, 1.0)]
    lines, regressed = _run(tmp_path, base, new)
    assert not regressed
    assert "+5.0%" in next(line for line in lines if "op_p50_s" in line)


def test_per_layer_moves_above_threshold(tmp_path):
    base = [("w", 1, {"a_s": 1.0, "b_s": 1.0, "c": 0.0})]
    new = [("w", 1, {"a_s": 1.05, "b_s": 1.5, "c": 3.0})]
    lines, regressed = _run(tmp_path, base, new)
    assert not regressed  # per-layer moves are reported, never gated
    listed = [line.split()[0] for line in lines if line.startswith("  ")]
    assert listed == ["b_s", "c"]


def test_workloads_kept_apart(tmp_path):
    base = [("x", 0, {"op_p50_s": 1.0, "ops_per_s": 1.0}),
            ("y", 0, {"op_p50_s": 5.0, "ops_per_s": 1.0})]
    new = [("x", 0, {"op_p50_s": 1.0, "ops_per_s": 1.0}),
           ("y", 0, {"op_p50_s": 6.0, "ops_per_s": 1.0})]
    lines, regressed = _run(tmp_path, base, new)
    assert regressed
    y = lines.index(next(line for line in lines if line.startswith("== y")))
    assert "REGRESSION" in lines[y + 1]
    assert "REGRESSION" not in "\n".join(lines[:y])


def test_main_exit_code(tmp_path, monkeypatch):
    _write(tmp_path / "a", [("w", 0, {"op_p50_s": 1.0, "ops_per_s": 1.0})])
    _write(tmp_path / "b", [("w", 0, {"op_p50_s": 2.0, "ops_per_s": 1.0})])
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(compare, "BENCH_JSON", str(tmp_path / "spec.json"))
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert compare.main([a, b]) == 1
    assert compare.main([b, a]) == 0
