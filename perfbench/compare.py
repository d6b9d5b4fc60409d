"""Compare two benchmark result files.

    python3 perfbench/compare.py BASE NEW

A result file is the standard output of one or more ``run.py`` runs
appended together (each run prints a report line, then its result
line). For each workload the script prints the median of every
end-to-end metric on both sides with its change, checked against the
metric's bound in ``BENCHMARK.json``, and then every per-layer metric
(from ``--trace 1`` runs) whose median moved by more than 10%.
Exit code 1 when an end-to-end metric got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

LAYER_THRESHOLD = 0.10
BENCH_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "BENCHMARK.json")


def load_runs(path: str) -> dict[tuple[str, int], list[dict]]:
    """{(workload, trace): [metrics of each run]} from a result file."""
    runs: dict[tuple[str, int], list[dict]] = {}
    report = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if "report" in obj:
                report = obj["report"]
            elif "metrics" in obj and report is not None:
                key = (report["workload"], int(report["trace"]))
                runs.setdefault(key, []).append(
                    {k: v["value"] for k, v in obj["metrics"].items()})
                report = None
    return runs


def medians(runs: list[dict]) -> dict[str, float]:
    names = {k for r in runs for k in r}
    return {k: statistics.median(r[k] for r in runs if k in r) for k in sorted(names)}


def change(base: float, new: float) -> float | None:
    """Relative change of ``new`` against ``base``; None when base is 0."""
    if base == 0:
        return None if new != 0 else 0.0
    return (new - base) / abs(base)


def compare(base: dict, new: dict, spec: dict,
            threshold: float = LAYER_THRESHOLD) -> tuple[list[str], bool]:
    """Report lines and whether any end-to-end metric regressed."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    out: list[str] = []
    regressed = False
    for wl in sorted({k[0] for k in [*base, *new]}):
        b_runs, n_runs = base.get((wl, 0), []), new.get((wl, 0), [])
        if b_runs and n_runs:
            out.append(f"== {wl}: end to end (runs: base {len(b_runs)}, new {len(n_runs)})")
            bm, nm = medians(b_runs), medians(n_runs)
            for name, m in e2e.items():
                if name not in bm or name not in nm:
                    out.append(f"  {name:28s} missing")
                    continue
                c = change(bm[name], nm[name])
                worse = c is not None and (c > 0 if m["better"] == "lower" else c < 0)
                verdict = "ok"
                if c is None:
                    verdict = "base is 0"
                elif worse and abs(c) > m["bound"]:
                    verdict = "REGRESSION"
                    regressed = True
                elif worse:
                    verdict = "worse, within bound"
                elif c != 0:
                    verdict = "better"
                pct = "n/a" if c is None else f"{100 * c:+.1f}%"
                out.append(
                    f"  {name:28s} {bm[name]:12.5g} -> {nm[name]:12.5g} {m['unit']:6s} "
                    f"{pct:>8s}  bound {100 * m['bound']:.0f}%  {verdict}")
        b_runs, n_runs = base.get((wl, 1), []), new.get((wl, 1), [])
        if b_runs and n_runs:
            bm, nm = medians(b_runs), medians(n_runs)
            moves = []
            for name in sorted(set(bm) & set(nm)):
                c = change(bm[name], nm[name])
                if c is None or abs(c) > threshold:
                    moves.append((name, bm[name], nm[name], c))
            out.append(f"== {wl}: per-layer moves above {100 * threshold:.0f}% "
                       f"(runs: base {len(b_runs)}, new {len(n_runs)}): {len(moves)}")
            for name, b, n, c in moves:
                pct = "new" if c is None else f"{100 * c:+.1f}%"
                out.append(f"  {name:44s} {b:12.5g} -> {n:12.5g} {pct:>8s}")
    return out, regressed


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(BENCH_JSON) as f:
        spec = json.load(f)
    lines, regressed = compare(load_runs(args.base), load_runs(args.new), spec)
    print("\n".join(lines) if lines else "no workload appears in both files")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
