#!/usr/bin/env python3
"""Compares two sets of benchmark results against the BENCHMARK.json bounds.

    python3 benchmark/compare.py BASE NEW

BASE and NEW are result files written by benchmark/run.py, directories
holding them (e.g. .bench_build/results of two checkouts), or
benchmark/baseline.json, which bundles such records. Only end-to-end
records (--trace 0) are compared. For every end-to-end metric it prints one
row per workload: each side's median and quartiles, the gain of NEW's
median over BASE's (positive = better), and a verdict:

    ok          NEW's median is not worse than BASE's by more than the bound
    better      NEW's median is better by more than the bound
    REGRESSION  NEW's median is worse by more than the bound
    unresolved  a side's own spread (quartile distance / median) is wider
                than the bound, so the medians cannot be told apart; unless
                every NEW run reads better than every BASE run ("better")

Exits 1 if any row is a REGRESSION. Python standard library only.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(arg):
    """{workload: {metric: [values]}} from result files under `arg`."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out = {}
    for f in files:
        data = json.loads(f.read_text())
        for record in data.get("records", [data]):
            if record.get("trace") != 0:
                continue
            per_metric = out.setdefault(record["workload"], {})
            for name, m in record["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
    if not out:
        sys.exit(f"compare.py: no end-to-end result files in {arg}")
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, bound, higher_is_better):
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if higher_is_better else -1.0
    change = sign * (nm - bm) / bm
    if max((b3 - b1) / bm, (n3 - n1) / nm) > bound:
        if (min(new) > max(base)) if higher_is_better else (max(new) < min(base)):
            return change, "better"
        return change, "unresolved"
    if change < -bound:
        return change, "REGRESSION"
    return change, "better" if change > bound else "ok"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(sys.argv[1]), load(sys.argv[2])
    workloads = [w["name"] for w in spec["workloads"]]
    regression = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        print(f"{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {bound:.0%})")
        print(f"  {'workload':<16} {'base median [q1, q3]':<38} "
              f"{'new median [q1, q3]':<38} {'gain':>8}  verdict")
        for w in workloads:
            b = base.get(w, {}).get(name)
            n = new.get(w, {}).get(name)
            if not b or not n:
                print(f"  {w:<16} (missing on {'base' if not b else 'new'})")
                continue
            change, v = verdict(b, n, bound, metric["better"] == "higher")
            regression |= v == "REGRESSION"
            print(f"  {w:<16} {fmt(b):<38} {fmt(n):<38} {change:>+8.1%}  {v}")
        print()
    sys.exit(1 if regression else 0)


if __name__ == "__main__":
    main()
