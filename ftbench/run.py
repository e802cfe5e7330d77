#!/usr/bin/env python3
"""Build and run the ftsched benchmark (see ftbench/README.md).

    python3 ftbench/run.py --workload serve_mixed --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark (a Release build of ftbench/ and the library layers it measures
under .bench_build/); later runs only rebuild what changed. Each workload
runs in its own process; its last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs every
workload in turn. `--results-dir DIR` also saves each run as
DIR/<workload>-seed<N>-trace<T>.json for ftbench/compare.py.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["serve_mixed", "certify_deep", "campaign_large", "repair_frontier"]


def fail(message):
    print("ftbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the ftbench target; output goes to
    stderr so stdout carries only the benchmark's own lines."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ftsched sources under " + os.path.join(ROOT, "src"))
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "ftbench"), "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    command = ["cmake", "--build", BUILD, "--target", "ftbench", "-j", "4"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def commit():
    """The checkout's commit when it is a git work tree, else "unknown"."""
    if os.environ.get("FTBENCH_COMMIT"):
        return os.environ["FTBENCH_COMMIT"]
    if not os.path.exists(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(args, workload):
    """Runs one workload; returns (exit code, parsed result or None)."""
    command = [os.path.join(BUILD, "ftbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-out", os.path.join(
            spans, "%s-seed%d.jsonl" % (workload, args.seed))]
    env = dict(os.environ, FTBENCH_COMMIT=commit())
    proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    meta = {}
    for line in lines:
        if line.startswith("meta "):
            meta = json.loads(line[len("meta "):])
    result = json.loads(lines[-1])
    if args.results_dir:
        os.makedirs(args.results_dir, exist_ok=True)
        path = os.path.join(args.results_dir, "%s-seed%d-trace%d.json"
                            % (workload, args.seed, args.trace))
        with open(path, "w") as out:
            json.dump({"workload": workload, "seed": args.seed,
                       "trace": args.trace, "meta": meta, "result": result},
                      out, indent=1)
    return 0, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results-dir")
    args = parser.parse_args()

    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    # One workload: its exit code (0 whenever it printed a result, correct
    # or not). All: also 1 when any result is incorrect.
    status = 0
    for workload in workloads:
        code, result = run_one(args, workload)
        if code != 0:
            print("ftbench: %s exited with %d" % (workload, code),
                  file=sys.stderr)
            return code
        if len(workloads) > 1 and not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
