#!/usr/bin/env python3
"""Compare two sets of benchmark outputs: parent and change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (or single files) of saved runs, as
written by `run.py --save FILE`: one run per line, tagged with its
workload, seed and trace flag. Only untraced runs (--trace 0) are
compared. Runs pair up by seed: run the parent and the change on the
same seeds, alternating which side runs first.

One row per workload x end-to-end metric, with a verdict:
  unresolved  fewer than 10 pairs; or the run-to-run spread (quartile
              distance / median) of either side exceeds the metric's
              bound, and not every change run beats every parent run
  improved    the change wins at least 9 of 10 pairs (ties count for
              neither side), the medians differ by more than the
              parent's quartile distance, and the change failed no more
              operations than the parent
  worse       the change's median is worse than the parent's by more
              than the bound
  unchanged   otherwise
Bounds and directions come from the repository's BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10


def load_runs(path):
    """{workload: {seed: (metrics, failed)}} from the saved runs under
    `path`."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = {}
    for name in files:
        with open(name) as f:
            for line in f:
                if not line.strip():
                    continue
                doc = json.loads(line)
                if doc["trace"]:
                    continue
                result = doc["result"]
                metrics = {k: v["value"]
                           for k, v in result["metrics"].items()}
                runs.setdefault(doc["workload"], {})[doc["seed"]] = (
                    metrics, result["failed"])
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent, change, metric, more_failures):
    """parent/change: paired value lists. Returns (verdict, wins)."""
    lower = metric["better"] == "lower"

    def better(a, b):
        return a < b if lower else a > b

    bound = metric["bound"]
    n = len(parent)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    if n < MIN_PAIRS:
        return "unresolved", wins
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread_p = (p3 - p1) / abs(pm) if pm else 0.0
    spread_c = (c3 - c1) / abs(cm) if cm else 0.0
    every = all(better(c, p) for c in change for p in parent)
    if (spread_p > bound or spread_c > bound) and not every:
        return "unresolved", wins
    if (wins >= 0.9 * n and better(cm, pm) and abs(cm - pm) > p3 - p1
            and not more_failures):
        return "improved", wins
    worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    if worse_by > bound:
        return "worse", wins
    return "unchanged", wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent = load_runs(args.parent)
    change = load_runs(args.change)

    print(f"{'workload':13s} {'metric':13s} {'unit':5s} "
          f"{'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'change':>8s} {'wins':>6s}  verdict")
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = sorted(set(parent.get(workload, {}))
                       & set(change.get(workload, {})))
        if not seeds:
            print(f"{workload:13s} (no paired runs)")
            continue
        failed_p = sum(parent[workload][s][1] for s in seeds)
        failed_c = sum(change[workload][s][1] for s in seeds)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[workload][s][0][name] for s in seeds]
            c = [change[workload][s][0][name] for s in seeds]
            result, wins = verdict(p, c, metric, failed_c > failed_p)
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            delta = (cm - pm) / abs(pm) * 100.0 if pm else 0.0
            print(f"{workload:13s} {name:13s} {metric['unit']:5s} "
                  f"{pm:12.6g} [{p1:9.4g}, {p3:9.4g}] "
                  f"{cm:12.6g} [{c1:9.4g}, {c3:9.4g}] "
                  f"{delta:+7.2f}% {wins:>2d}/{len(seeds):<3d} {result}")
            if result == "worse":
                status = 1
        print(f"{workload:13s} failed operations: parent {failed_p}, "
              f"change {failed_c}")
    sys.exit(status)


if __name__ == "__main__":
    main()
