#!/usr/bin/env python3
"""Build aurora_bench and run one workload; print the result as one JSON line.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. The benchmark is configured and built
into .bench_build/ (a CMake project of its own that compiles src/ unchanged),
then run once. The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0, and its
per-layer metrics with --trace 1 (a run with tracing on; its spans go to
.bench_build/spans/). --save <dir> also keeps the benchmark's full result
there, the input of compare.py. Without a usable build or a result, the
script exits non-zero and prints no result.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "benchmark")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "aurora_bench")
# A run measures for --seconds and then finishes the trial in progress.
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "aurora_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="directory for the full benchmark result")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        spans = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace", os.path.join(
            spans, "%s-%d.json" % (args.workload, args.seed))]
    # The benchmark scrubs these itself; dropping them here as well keeps
    # the child's environment what the result header says it was.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HAM_AURORA_")}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit("aurora_bench exited with %d and no result" % proc.returncode)
    result = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = result["layers"] if args.trace else result["metrics"]
    metrics = {}
    for m in wanted:
        got = produced.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit("metric %s missing or not in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    if args.save:
        os.makedirs(args.save, exist_ok=True)
        name = "%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)
        with open(os.path.join(args.save, name), "w") as f:
            f.write(lines[-1] + "\n")
    print(json.dumps({
        "correct": bool(result["correct"]) and proc.returncode == 0,
        "attempted": int(result["ops_attempted"]),
        "failed": int(result["ops_failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    try:
        main()
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        sys.exit("run.py: %s" % e)
