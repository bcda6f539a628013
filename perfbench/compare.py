#!/usr/bin/env python3
"""Compares two sets of perfbench runs, metric by metric.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are JSON-lines files written by `run.py --record FILE`
(or directories holding such *.jsonl files). For every workload, trace
mode and metric the two sides share, it prints each side's median and
quartiles and a verdict:

  better      the change wins at least 9 of every 10 pairs (ties count for
              neither side) and the medians differ by more than the
              parent's own spread (the distance between its quartiles);
  worse       the same rule with the sides swapped;
  unresolved  anything else.

Runs pair up by seed when both sides ran the same seeds, else in the order
they were recorded. The last column says whether the change's median is
within the metric's BENCHMARK.json bound of the parent's (end-to-end
metrics only; per-layer metrics have no bound).
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(path):
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    """Lists of (parent value, change value)."""
    by_seed_p = {seed: v for seed, v in parent}
    by_seed_c = {seed: v for seed, v in change}
    if len(by_seed_p) == len(parent) and set(by_seed_p) == set(by_seed_c):
        return [(by_seed_p[s], by_seed_c[s]) for s in sorted(by_seed_p)]
    return list(zip([v for _, v in parent], [v for _, v in change]))


def verdict(parent, change, higher_is_better):
    """better / worse / unresolved, by pair wins and the parent's spread."""
    p_values = [v for _, v in parent]
    c_values = [v for _, v in change]
    p_q1, p_med, p_q3 = quartiles(p_values)
    c_med = statistics.median(c_values)
    spread = p_q3 - p_q1
    wins = losses = 0
    matched = pairs(parent, change)
    for p, c in matched:
        if c == p:
            continue
        if (c > p) == higher_is_better:
            wins += 1
        else:
            losses += 1
    n = len(matched)
    if n and wins >= 0.9 * n and abs(c_med - p_med) > spread:
        return "better"
    if n and losses >= 0.9 * n and abs(c_med - p_med) > spread:
        return "worse"
    return "unresolved"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    direction = {}
    bound = {}
    for m in spec["end_to_end"]:
        direction[m["name"]] = m["better"] == "higher"
        bound[m["name"]] = m["bound"]
    for m in spec["per_layer"]:
        direction[m["name"]] = m["better"] == "higher"

    sides = []
    for path in argv[1:]:
        grouped = defaultdict(lambda: defaultdict(list))
        for r in load_records(path):
            for name, m in r["metrics"].items():
                grouped[(r["workload"], r["trace"])][name].append(
                    (r["seed"], m["value"]))
        sides.append(grouped)
    parent, change = sides

    status = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        print("\n== %s (%s run) ==" % (workload, "traced" if trace else "untraced"))
        print("%-34s %6s %38s %38s  %-10s %s" % (
            "metric", "runs", "parent q1 / median / q3",
            "change q1 / median / q3", "verdict", "within bound"))
        for name in sorted(set(parent[key]) & set(change[key])):
            if name not in direction:
                continue
            p = parent[key][name]
            c = change[key][name]
            pq = quartiles([v for _, v in p])
            cq = quartiles([v for _, v in c])
            v = verdict(p, c, direction[name])
            within = "-"
            if name in bound and pq[1] != 0:
                worse_by = (pq[1] - cq[1]) / pq[1] if direction[name] else \
                           (cq[1] - pq[1]) / pq[1]
                within = "yes" if worse_by <= bound[name] else \
                         "NO (%.1f%% worse)" % (100 * worse_by)
                if within != "yes":
                    status = 1
            print("%-34s %3d/%-3d %12.5g %12.5g %12.5g %12.5g %12.5g %12.5g  %-10s %s"
                  % (name, len(p), len(c), *pq, *cq, v, within))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
