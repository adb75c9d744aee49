#!/usr/bin/env python3
"""Builds hignn_bench from source and runs one workload of BENCHMARK.json.

    python3 hignn_bench/run.py --workload fit-small --seed 1 --seconds 15 --trace 0
    python3 hignn_bench/run.py --smoke [--binary PATH]

A run builds the benchmark (CMake, into $CARGO_TARGET_DIR or .bench_build
at the repository root), writes the seeded fixtures in a separate process
so their cost stays out of the measurement, then runs the workload. It
prints the benchmark's own JSON line and, as the last line of stdout,
{"correct", "attempted", "failed", "metrics"} holding the end-to-end
metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). It exits 1 when a correctness check fails and 2 when the
build or the benchmark cannot run.

--smoke runs every workload untraced and traced at toy size and checks
that every metric of BENCHMARK.json is emitted with its unit and every
check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "hignn_bench")


def run_workload(binary, cache_dir, workload, seed, seconds, trace, toy):
    """Prepares fixtures, runs the workload, returns (exit code, report)."""
    common = ["--workload", workload, "--seed", str(seed),
              "--cache-dir", cache_dir] + (["--toy"] if toy else [])
    subprocess.run([binary, "--prepare"] + common +
                   (["--trace"] if trace else []),
                   stdout=sys.stderr, check=True)
    proc = subprocess.run([binary] + common +
                          ["--seconds", str(seconds), "--trace", str(int(trace))],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload}: benchmark exited {proc.returncode}")
    return proc.returncode, json.loads(lines[-1])


def contract_line(spec, report, trace):
    """The result object: exactly the metrics BENCHMARK.json declares."""
    metrics = {}
    for declared in spec["per_layer" if trace else "end_to_end"]:
        got = report["metrics"].get(declared["name"])
        if got is None or got["value"] is None:
            raise RuntimeError(f"metric {declared['name']} not emitted")
        if got["unit"] != declared["unit"]:
            raise RuntimeError(f"metric {declared['name']}: unit "
                               f"{got['unit']}, declared {declared['unit']}")
        metrics[declared["name"]] = {"value": got["value"],
                                     "unit": declared["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def smoke(spec, binary, cache_dir):
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            _, report = run_workload(binary, cache_dir, workload, 1, 1,
                                     trace, toy=True)
            try:
                line = contract_line(spec, report, trace)
                good = line["correct"] and line["failed"] == 0
            except RuntimeError as error:
                log(f"smoke {workload} trace={int(trace)}: {error}")
                good = False
            log(f"smoke {workload} trace={int(trace)}: "
                f"{'ok' if good else 'FAILED'} {report['checks']}")
            ok = ok and good
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="prebuilt hignn_bench (skip build)")
    parser.add_argument("--cache-dir", help="fixture directory")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = args.binary or build(build_dir)
        cache_dir = args.cache_dir or os.path.join(build_dir, "cache")
        if args.smoke:
            return smoke(spec, binary, cache_dir)
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            parser.error(f"unknown workload {args.workload!r}")
        code, report = run_workload(binary, cache_dir, args.workload,
                                    args.seed, args.seconds,
                                    bool(args.trace), toy=False)
        line = contract_line(spec, report, bool(args.trace))
    except (OSError, RuntimeError, subprocess.CalledProcessError) as error:
        log(f"hignn_bench: {error}")
        return 2
    print(json.dumps(report))
    print(json.dumps(line), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
