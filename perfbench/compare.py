#!/usr/bin/env python3
"""Compare two result sets of the repository benchmark (the regression gate).

    python3 perfbench/compare.py BASE NEW     # deltas against the bounds
    python3 perfbench/compare.py SET          # spread of one set

A result set is a directory (searched recursively) or a list of record
files, separated by a comma, written by perfbench/run.py (--out, default
.bench_build/results/). Records are grouped by workload; each metric's
value is the median over the set's records (typically one per seed), and
its spread is (q3 - q1) / median over them, with the quartiles of Python's
statistics.quantiles(values, n=4).

End-to-end metrics are gated by the bounds in BENCHMARK.json: a metric
whose NEW median is worse than BASE by more than its bound is a regression
(exit status 1). When BASE's own spread exceeds the bound the verdict is
"unresolved" unless every NEW value beats every BASE value. The workload
figures (fault_evals_per_s, candidates_per_s, the serve hit/miss
quantiles) are gated the same way with the bounds in WORKLOAD_BOUNDS.
Per-layer metrics (from --trace 1 records) are printed with their deltas
and never gate.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Bounds for the user-visible figures that apply to one workload only and so
# cannot be BENCHMARK.json end_to_end metrics (those must be measured on
# every workload).
WORKLOAD_BOUNDS = {
    "fault_evals_per_s": 0.25,
    "candidates_per_s": 0.25,
    "hit_p50_ms": 0.25,
    "hit_p99_ms": 0.25,
    "miss_p50_ms": 0.25,
    "miss_p99_ms": 0.25,
}


def load_set(argument):
    paths = []
    for part in argument.split(","):
        path = Path(part)
        paths.extend(sorted(path.rglob("*.json")) if path.is_dir() else [path])
    groups = {}
    for path in paths:
        record = json.loads(path.read_text())
        if not {"workload", "trace", "metrics"} <= set(record):
            continue
        groups.setdefault(record["workload"], []).append(record)
    return groups


def values(records, name, trace):
    out = []
    for record in records:
        metric = record["metrics"].get(name)
        if record["trace"] == trace and metric and metric["value"] is not None:
            out.append(metric["value"])
    return out


def spread(vals):
    if len(vals) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / abs(median) if median else float("inf")


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: (m["better"] == "higher", m["bound"])
             for m in spec["end_to_end"]}
    layers = {m["name"]: m["better"] == "higher" for m in spec["per_layer"]}
    return gated, layers


def end_to_end_names(records):
    """(name, higher_is_better, bound) of every gated metric in the set."""
    gated, _ = declared_metrics()
    names = {}
    for record in records:
        if record["trace"] != 0:
            continue
        for name, metric in record["metrics"].items():
            if name in gated:
                names[name] = gated[name]
            elif name in WORKLOAD_BOUNDS:
                names[name] = (metric["better"] == "higher",
                               WORKLOAD_BOUNDS[name])
    return names


def fmt(value):
    return f"{value:.6g}"


def report_spread(groups):
    print(f"{'workload':14} {'metric':20} {'median':>12} {'spread':>8} "
          f"{'bound':>6} {'n':>3}  verdict")
    for workload, records in sorted(groups.items()):
        for name, (_, bound) in sorted(end_to_end_names(records).items()):
            vals = values(records, name, 0)
            s = spread(vals)
            verdict = ("steady" if s <= bound / 3 else
                       "within bound" if s <= bound else "TOO NOISY")
            print(f"{workload:14} {name:20} {fmt(statistics.median(vals)):>12} "
                  f"{s:8.4f} {bound:6.3f} {len(vals):3}  {verdict}")
    return 0


def report_compare(base, new):
    regressions = 0
    print(f"{'workload':14} {'metric':32} {'base':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(new)):
        b_records, n_records = base[workload], new[workload]
        for name, (higher, bound) in sorted(
                end_to_end_names(b_records).items()):
            b_vals = values(b_records, name, 0)
            n_vals = values(n_records, name, 0)
            if not b_vals or not n_vals:
                continue
            b_med, n_med = statistics.median(b_vals), statistics.median(n_vals)
            change = n_med / b_med - 1.0
            worse = -change if higher else change
            beats_all = (min(n_vals) > max(b_vals) if higher
                         else max(n_vals) < min(b_vals))
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif spread(b_vals) > bound and not beats_all:
                verdict = "unresolved (base spread > bound)"
            elif worse < -bound:
                verdict = "improved"
            else:
                verdict = "ok"
            print(f"{workload:14} {name:32} {fmt(b_med):>12} {fmt(n_med):>12} "
                  f"{change:+8.2%} {bound:6.3f}  {verdict}")
        _, layers = declared_metrics()
        for name, higher in layers.items():
            b_vals = values(b_records, name, 1)
            n_vals = values(n_records, name, 1)
            if not b_vals or not n_vals:
                continue
            b_med, n_med = statistics.median(b_vals), statistics.median(n_vals)
            if b_med == 0 and n_med == 0:
                continue
            change = f"{n_med / b_med - 1.0:+8.2%}" if b_med else "     new"
            print(f"{workload:14} {name:32} {fmt(b_med):>12} {fmt(n_med):>12} "
                  f"{change:>8} {'-':>6}  per-layer "
                  f"({'higher' if higher else 'lower'} is better)")
    print(f"{regressions} end-to-end regression(s)")
    return 1 if regressions else 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    if len(argv) == 2:
        return report_spread(load_set(argv[1]))
    return report_compare(load_set(argv[1]), load_set(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
