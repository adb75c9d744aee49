#!/usr/bin/env python3
"""Repeats hignn_bench runs and summarizes their spread.

    python3 hignn_bench/collect.py --runs 10 [--sets 2] [--trace]
                                   [--workloads fit-small,serve-score]
                                   [--out hignn_bench/baseline/BENCH_perf.json]

Each set runs every workload once per seed (seeds 1..runs, workloads
interleaved), through run.py exactly as the benchmark command does. For
each end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), the spread (q3 - q1) / median against
a third of the metric's bound, and, with two or more sets, how far each
later set's median moved from the first set's. --trace adds one traced
run per workload. --out writes every raw value and summary as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def git_sha():
    """HEAD, suffixed -dirty when the working tree has changes."""
    try:
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, text=True,
                                  capture_output=True, check=True).stdout
        dirty = git("status", "--porcelain").strip()
        return git("rev-parse", "HEAD").strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    raw = {w: [] for w in workloads}  # per workload: one list per set
    host = None
    for s in range(args.sets):
        values = {w: {m: [] for m in bounds} for w in workloads}
        for seed in range(1, args.runs + 1):
            for w in workloads:
                report, line = run(w, seed, spec["run_seconds"], False)
                host = report.get("host", host)
                for m in bounds:
                    values[w][m].append(line["metrics"][m]["value"])
                print(f"set {s + 1} seed {seed} {w}: " + ", ".join(
                    f"{m}={v[-1]:.6g}" for m, v in values[w].items()),
                    file=sys.stderr, flush=True)
        for w in workloads:
            raw[w].append(values[w])

    summary = {}
    print(f"{'workload':12} {'metric':16} {'set':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound/3':>7} {'vs set 1':>8}")
    for w in workloads:
        summary[w] = {}
        for m, bound in bounds.items():
            sets = [summarize(values[m]) for values in raw[w]]
            for i, st in enumerate(sets):
                moved = sets[i]["median"] / sets[0]["median"] - 1
                st["vs_first_set"] = moved
                print(f"{w:12} {m:16} {i + 1:>3} {st['median']:12.6g} "
                      f"{st['q1']:12.6g} {st['q3']:12.6g} "
                      f"{st['spread']:7.3f} {bound / 3:7.3f} {moved:+8.3f}")
            summary[w][m] = sets

    traced = {}
    if args.trace:
        for w in workloads:
            report, line = run(w, 1, spec["run_seconds"], True)
            traced[w] = {"correct": line["correct"], "metrics": {
                k: v["value"] for k, v in line["metrics"].items()},
                "fit_trace": report.get("fit_trace")}

    if args.out:
        doc = {"git_sha": git_sha(), "host": host,
               "machine": platform.machine(), "run_seconds": spec["run_seconds"],
               "seeds": list(range(1, args.runs + 1)), "summary": summary,
               "raw": raw, "traced": traced}
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
