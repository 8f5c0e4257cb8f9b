#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. The benchmark is built from source into
$CARGO_TARGET_DIR (default .bench_build) under the root. Its report goes to
stdout; the last line is one JSON object holding the metrics that
BENCHMARK.json declares: the end_to_end ones with --trace 0, the per_layer
ones with --trace 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mix", "drain_posix", "ingest_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then (re)builds the perfbench binary."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    declared_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing; run from a full checkout")
    if not os.path.exists(declared_path):
        fail("BENCHMARK.json is missing")
    with open(declared_path) as f:
        declared = json.load(f)
    wanted = [m["name"] for m in
              declared["per_layer" if args.trace == "1" else "end_to_end"]]

    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    try:
        binary = build(build_dir)
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", os.path.join(build_dir, "work")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        fail("run failed with exit code %d" % proc.returncode)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    metrics = result["metrics"]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        fail("run did not report %s" % ", ".join(missing))
    result["metrics"] = {name: metrics[name] for name in wanted}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
