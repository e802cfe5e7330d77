#!/usr/bin/env python3
"""Perf-regression gate over BENCH_*.json result files.

Compares a fresh benchmark run against a committed baseline and fails
(exit 1) when any configuration got more than THRESHOLD times slower in
mean wall-clock per iteration. The default threshold of 2.5x is deliberately
loose: shared CI runners are noisy, and the gate exists to catch structural
regressions (an accidentally quadratic loop, a reintroduced per-evaluation
allocation), not percent-level jitter. Faster-than-baseline results are
reported but never fail; refresh the baseline deliberately when the
scheduler gets faster (see bench/baseline/).

Two additional, optional gates introduced with the event-core rebuild:

--reference REF.json --min-speedup X
    Every configuration present in both files must run at least X times
    faster (wall per iteration) than in REF. Used with the checked-in
    pre-rebuild measurement (BENCH_campaign.prerebuild.json) to pin the
    rebuild's throughput win so it cannot silently erode.

--min-reduction Z [--reduction-name certify_deep]
    Every record of the named benchmark that carries a derived
    branch_reduction field (the deep-certification bench emits one on its
    dedup gate config: brute-force branches over dedup branches) must
    report at least Z. Pins dedup's win — a dedup regression shows up as
    a reduction collapse long before it shows up as a wall-clock
    regression on fast runners.

--min-scaling Y [--scaling-name campaign_throughput]
    The named benchmark's threads=8 record must deliver at least Y times
    the threads=1 rate (records carry derived scenarios_per_s and
    hardware_threads fields). Hardware-aware: the requirement only fully
    applies when the runner has >= 8 hardware threads; with 2..7 it is
    scaled by hw/8, and with a single hardware thread the check is skipped
    (threads cannot help there and oversubscription legitimately costs).

Usage: compare_bench.py BASELINE.json CURRENT.json [--threshold 2.5]
           [--reference REF.json --min-speedup X] [--min-scaling Y]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        records = json.load(f)
    table = {}
    for r in records:
        table[(r["name"], r["params"])] = r
    return table


def wall(record):
    return float(record["wall_ms"])


def rate(record):
    """Iterations per second; prefers the bench's own derived rate field."""
    for key in ("scenarios_per_s", "branches_per_s"):
        if key in record:
            return float(record[key])
    ms = wall(record)
    return float(record.get("iters", 0)) / (ms / 1e3) if ms > 0 else 0.0


def threads_of(record):
    for part in record["params"].split(";"):
        if part.startswith("threads="):
            return int(part.split("=", 1)[1])
    return None


def check_regression(baseline, current, threshold):
    failures = []
    missing = []
    print(f"{'benchmark':<42} {'baseline':>12} {'current':>12} {'ratio':>8}")
    for key, base in sorted(baseline.items()):
        name = f"{key[0]}/{key[1]}"
        if key not in current:
            missing.append(name)
            print(f"{name:<42} {wall(base):>10.4f}ms {'MISSING':>12}")
            continue
        cur_ms = wall(current[key])
        base_ms = wall(base)
        ratio = cur_ms / base_ms if base_ms > 0 else float("inf")
        flag = " REGRESSION" if ratio > threshold else ""
        print(f"{name:<42} {base_ms:>10.4f}ms {cur_ms:>10.4f}ms "
              f"{ratio:>7.2f}x{flag}")
        if ratio > threshold:
            failures.append((name, ratio))

    for key in sorted(current.keys() - baseline.keys()):
        print(f"{key[0]}/{key[1]:<42} (new, no baseline)")
    return failures, missing


def check_speedup(reference, current, min_speedup):
    """Every shared configuration must be >= min_speedup faster than REF."""
    failures = []
    print(f"\n{'speedup vs reference':<42} {'reference':>12} "
          f"{'current':>12} {'speedup':>8}")
    for key, ref in sorted(reference.items()):
        if key not in current:
            continue
        name = f"{key[0]}/{key[1]}"
        ref_ms = wall(ref)
        cur_ms = wall(current[key])
        speedup = ref_ms / cur_ms if cur_ms > 0 else float("inf")
        flag = "" if speedup >= min_speedup else " TOO SLOW"
        print(f"{name:<42} {ref_ms:>10.4f}ms {cur_ms:>10.4f}ms "
              f"{speedup:>7.2f}x{flag}")
        if speedup < min_speedup:
            failures.append((name, speedup))
    return failures


def check_scaling(current, name, min_scaling):
    """threads=8 rate vs threads=1 rate, scaled by available hardware."""
    by_threads = {}
    hardware = None
    for (bench_name, _), record in current.items():
        if bench_name != name:
            continue
        t = threads_of(record)
        if t is not None:
            by_threads[t] = record
        if "hardware_threads" in record:
            hardware = int(record["hardware_threads"])
    if 1 not in by_threads or 8 not in by_threads:
        print(f"\nscaling check: {name} lacks threads=1/threads=8 records; "
              f"skipped")
        return []
    if hardware is None or hardware < 2:
        print(f"\nscaling check: {hardware or 'unknown'} hardware "
              f"thread(s); skipped (threads cannot help)")
        return []
    required = min_scaling * (1.0 if hardware >= 8 else hardware / 8.0)
    actual = rate(by_threads[8]) / rate(by_threads[1]) \
        if rate(by_threads[1]) > 0 else 0.0
    verdict = "ok" if actual >= required else "FAIL"
    print(f"\nscaling check: {name} 8T/1T = {actual:.2f}x "
          f"(required >= {required:.2f}x on {hardware} hw threads): "
          f"{verdict}")
    if actual < required:
        return [(f"{name} 8T/1T scaling", actual)]
    return []


def check_reduction(current, name, min_reduction):
    """Every branch_reduction the named bench reports must clear the gate."""
    failures = []
    found = False
    print(f"\n{'branch reduction':<42} {'reduction':>12} {'required':>12}")
    for (bench_name, params), record in sorted(current.items()):
        if bench_name != name or "branch_reduction" not in record:
            continue
        found = True
        reduction = float(record["branch_reduction"])
        verdict = "" if reduction >= min_reduction else " TOO LOW"
        print(f"{bench_name}/{params:<42} {reduction:>11.2f}x "
              f"{min_reduction:>11.2f}x{verdict}")
        if reduction < min_reduction:
            failures.append((f"{bench_name}/{params}", reduction))
    if not found:
        print(f"no {name} record carries branch_reduction")
        failures.append((f"{name} branch_reduction records", 0.0))
    return failures


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=2.5,
                        help="fail when current/baseline wall exceeds this "
                             "(default: 2.5)")
    parser.add_argument("--reference",
                        help="pre-optimization measurement to gate speedup "
                             "against (with --min-speedup)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail when current is not at least this many "
                             "times faster than --reference")
    parser.add_argument("--min-scaling", type=float, default=0.0,
                        help="fail when the 8-thread rate is below this "
                             "multiple of the 1-thread rate (hardware-aware)")
    parser.add_argument("--scaling-name", default="campaign_throughput",
                        help="benchmark name the scaling gate inspects")
    parser.add_argument("--min-reduction", type=float, default=0.0,
                        help="fail when any branch_reduction the reduction "
                             "benchmark reports is below this")
    parser.add_argument("--reduction-name", default="certify_deep",
                        help="benchmark name the reduction gate inspects")
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    failures, missing = check_regression(baseline, current, args.threshold)

    speedup_failures = []
    if args.reference and args.min_speedup > 0:
        speedup_failures = check_speedup(load(args.reference), current,
                                         args.min_speedup)

    scaling_failures = []
    if args.min_scaling > 0:
        scaling_failures = check_scaling(current, args.scaling_name,
                                         args.min_scaling)

    reduction_failures = []
    if args.min_reduction > 0:
        reduction_failures = check_reduction(current, args.reduction_name,
                                             args.min_reduction)

    status = 0
    if missing:
        print(f"\nFAIL: {len(missing)} baseline configuration(s) not "
              f"measured: {', '.join(missing)}", file=sys.stderr)
        status = 1
    if failures:
        print(f"\nFAIL: {len(failures)} configuration(s) more than "
              f"{args.threshold}x slower than baseline:", file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        status = 1
    if speedup_failures:
        print(f"\nFAIL: {len(speedup_failures)} configuration(s) below "
              f"{args.min_speedup}x the reference:", file=sys.stderr)
        for name, speedup in speedup_failures:
            print(f"  {name}: {speedup:.2f}x", file=sys.stderr)
        status = 1
    if scaling_failures:
        print(f"\nFAIL: thread scaling below the gate:", file=sys.stderr)
        for name, actual in scaling_failures:
            print(f"  {name}: {actual:.2f}x", file=sys.stderr)
        status = 1
    if reduction_failures:
        print(f"\nFAIL: branch reduction below {args.min_reduction}x:",
              file=sys.stderr)
        for name, actual in reduction_failures:
            print(f"  {name}: {actual:.2f}x", file=sys.stderr)
        status = 1
    if status == 0:
        print(f"\nOK: all gates passed (threshold {args.threshold}x"
              + (f", min-speedup {args.min_speedup}x" if args.min_speedup
                 else "")
              + (f", min-scaling {args.min_scaling}x" if args.min_scaling
                 else "")
              + (f", min-reduction {args.min_reduction}x"
                 if args.min_reduction else "") + ")")
    return status


if __name__ == "__main__":
    sys.exit(main())
