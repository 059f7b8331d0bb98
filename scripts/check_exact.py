#!/usr/bin/env python3
"""Check aurora_bench's virtual results against their recorded exact values.

    python3 scripts/check_exact.py --bench .bench_build/aurora_bench [--literal]
    python3 scripts/check_exact.py --bench ... --record    # rewrite the file

Runs one traced 1 s aurora_bench run per workload at seeds 41-43 and keeps
every value the simulator fixes exactly:
  * the six virtual end-to-end metrics (latencies, virtual rates, the
    overload ratio, ok_pct);
  * every per-layer metric except sim.* (switch counts, switch cost),
    trace.* and any metric whose name contains "host" (real time and host
    allocations);
  * obs.dropped_events, except with --literal: a build with
    AURORA_SIM_LITERAL_POLL runs every idle pass, and the extra probe-counter
    events of those passes can overflow the trace ring.
None of these depend on how many trials a run fits into its second, nor on
whether idle polls park. Any difference from bench/baselines/virtual_exact.json
fails. A change that moves virtual time on purpose re-records the file with
--record and says why.

Exit codes: 0 every value matches, 1 a value differs or is missing, 2 a run
failed.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "bench", "baselines", "virtual_exact.json")
WORKLOADS = ("offload_empty", "data_path", "sched_skewed", "serving_overload",
             "cluster_4node")
SEEDS = (41, 42, 43)
VIRTUAL_END_TO_END = ("lat_p50_us", "lat_p99_us", "virt_ops_per_s",
                      "virt_gib_s", "victim_p99_ratio", "ok_pct")
RUN_TIMEOUT_S = 300


def kept(name, literal):
    if name.startswith(("sim.", "trace.")) or "host" in name:
        return False
    return not (literal and name == "obs.dropped_events")


def measure(bench, workload, seed, spans_dir, literal):
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds",
           "1", "--trace", os.path.join(spans_dir, "%s-%d.json" % (workload,
                                                                   seed))]
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HAM_AURORA_")}
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s seed %d: aurora_bench exited with %d" %
                 (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    values = {m: result["metrics"][m]["value"] for m in VIRTUAL_END_TO_END
              if m in result["metrics"]}
    values.update({m: v["value"] for m, v in result["layers"].items()
                   if kept(m, literal)})
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True, help="the aurora_bench binary")
    ap.add_argument("--baseline", default=BASELINE)
    ap.add_argument("--literal", action="store_true",
                    help="the binary was built with AURORA_SIM_LITERAL_POLL")
    ap.add_argument("--record", action="store_true",
                    help="write the measured values as the baseline")
    args = ap.parse_args()

    measured = {}
    with tempfile.TemporaryDirectory() as spans:
        for w in WORKLOADS:
            for seed in SEEDS:
                measured["%s/%d" % (w, seed)] = measure(
                    os.path.abspath(args.bench), w, seed, spans, args.literal)

    if args.record:
        with open(args.baseline, "w") as f:
            json.dump(measured, f, indent=1, sort_keys=True)
            f.write("\n")
        print("recorded %d values in %s" %
              (sum(len(v) for v in measured.values()), args.baseline))
        return 0

    with open(args.baseline) as f:
        want = json.load(f)
    bad = 0
    checked = 0
    for run, values in sorted(want.items()):
        got = measured.get(run, {})
        for name, value in sorted(values.items()):
            if not kept(name, args.literal):
                continue
            checked += 1
            if name not in got:
                print("MISSING %s %s (recorded %r)" % (run, name, value))
                bad += 1
            elif got[name] != value:
                print("DIFF    %s %s: %r, recorded %r" %
                      (run, name, got[name], value))
                bad += 1
        for name in sorted(set(got) - set(values)):
            print("NEW     %s %s = %r (not recorded)" % (run, name, got[name]))
    print("%d of %d exact values differ" % (bad, checked))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
