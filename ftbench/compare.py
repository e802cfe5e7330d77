#!/usr/bin/env python3
"""Compare two sets of ftbench results: a parent commit and a change.

    python3 ftbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]

Each directory holds the files `run.py --results-dir DIR` writes, one per
run (workload, seed, trace). Runs of the two sides pair up by workload,
trace mode and seed. For every workload and metric this prints each
side's median and quartiles (statistics.quantiles, n=4), the pair wins and
a verdict:

  gain         at least ten pairs, the change wins at least 9/10 of them
               (ties count for neither side), and the medians differ by more
               than the parent's interquartile range
  regression   the change's median is worse than the parent's by more than
               the metric's bound (BENCHMARK.json)
  unresolved   either side's spread (interquartile range / median) is wider
               than the bound, so "unchanged" cannot be told from noise --
               unless every change run beats every parent run ("better")
  unchanged    none of the above

Per-layer metrics have no bound: they get only the gain test. Exit status
1 when any metric regressed.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{(workload, trace): {seed: {metric: value}}} from a results dir."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        metrics = {name: m["value"]
                   for name, m in record["result"]["metrics"].items()}
        runs.setdefault((record["workload"], record["trace"]), {})[
            record["seed"]] = metrics
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent, change, better, bound):
    """Verdict for one metric. `parent`/`change` map seed -> value,
    `better` is "higher" or "lower", `bound` a share of the parent median
    or None (per-layer metrics). Returns (verdict, wins, pairs)."""
    sign = 1.0 if better == "higher" else -1.0
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    p_q1, p_med, p_q3 = quartiles(list(parent.values()))
    c_q1, c_med, c_q3 = quartiles(list(change.values()))
    gain = (len(seeds) >= 10 and wins >= 0.9 * len(seeds)
            and sign * (c_med - p_med) > p_q3 - p_q1)
    if gain:
        return "gain", wins, len(seeds)
    if bound is None:
        return "-", wins, len(seeds)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if spread > bound:
        every = (min(change.values()) > max(parent.values()) if sign > 0
                 else max(change.values()) < min(parent.values()))
        return ("better" if every else "unresolved"), wins, len(seeds)
    worse = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if worse > bound:
        return "regression", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def metric_specs(benchmark):
    """{name: (unit, better, bound or None)} from BENCHMARK.json."""
    specs = {}
    for m in benchmark.get("end_to_end", []):
        specs[m["name"]] = (m["unit"], m["better"], m["bound"])
    for m in benchmark.get("per_layer", []):
        specs[m["name"]] = (m["unit"], m["better"], None)
    return specs


def compare(parent_runs, change_runs, specs, out=sys.stdout):
    """Prints the comparison table; returns the number of regressions."""
    regressions = 0
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, trace = key
        parent, change = parent_runs[key], change_runs[key]
        out.write("\n%s (%s run)\n" % (workload, "traced" if trace else
                                       "untraced"))
        out.write("  %-28s %-8s %-30s %-30s %6s  %s\n" % (
            "metric", "unit", "parent median [q1, q3]",
            "change median [q1, q3]", "wins", "verdict"))
        names = sorted({n for runs in (parent, change)
                        for metrics in runs.values() for n in metrics})
        for name in names:
            if name not in specs:
                continue
            unit, better, bound = specs[name]
            p = {s: m[name] for s, m in parent.items() if name in m}
            c = {s: m[name] for s, m in change.items() if name in m}
            if not p or not c:
                continue
            verdict, wins, pairs = judge(p, c, better, bound)
            regressions += verdict == "regression"
            out.write("  %-28s %-8s %-30s %-30s %6s  %s\n" % (
                name, unit, "%.5g [%.5g, %.5g]" % swap(quartiles(list(p.values()))),
                "%.5g [%.5g, %.5g]" % swap(quartiles(list(c.values()))),
                "%d/%d" % (wins, pairs), verdict))
    return regressions


def swap(q):
    """(q1, median, q3) -> (median, q1, q3) for printing."""
    return q[1], q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        specs = metric_specs(json.load(f))
    regressions = compare(load(args.parent), load(args.change), specs)
    print("\n%d regression(s)" % regressions)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
