#!/usr/bin/env python3
"""Compare two sets of aurora_bench results against the bounds of BENCHMARK.json.

    python3 benchmark/compare.py <dir A> <dir B> [--layers]

Each directory holds result files, one aurora_bench JSON object each (the
last line of its stdout, as run.py --save writes them). Results are grouped
by workload. For every workload x end-to-end metric the script prints the
median and quartiles of A and B and a verdict:

  identical     exact (simulated-time) metric, equal for every seed both
                sets ran
  within-bound  B's median is not worse than A's by more than the bound
  regressed     B's median is worse than A's by more than the bound
  unresolved    a set's spread (quartile distance over median) exceeds the
                bound, so the medians cannot be told apart, and not every
                run of B beats every run of A

Exact metrics must match on every seed both sets ran; any difference is
reported as changed, and counts as regressed when it is worse by more than
the bound. Sets that share no seed compare exact metrics by their medians,
like the real ones.
--layers adds the per-layer medians of the traced results (no verdicts).
The exit code is 1 when any metric regressed or an exact metric changed.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, traced): [result, ...]} from every JSON file in directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = f.read().strip().splitlines()
        try:
            result = json.loads(lines[-1])
            header = result["header"]
        except (IndexError, ValueError, KeyError):
            continue  # not an aurora_bench result
        runs.setdefault((header["workload"], header["traced"]), []).append(result)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse_share(a, b, better):
    """How much worse b is than a, as a share of a (negative: better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    change = (b - a) / abs(a)
    return -change if better == "higher" else change


def verdict(metric, a_runs, b_runs):
    name, bound, better = metric["name"], metric["bound"], metric["better"]
    a = [r["metrics"][name]["value"] for r in a_runs]
    b = [r["metrics"][name]["value"] for r in b_runs]
    worse = worse_share(statistics.median(a), statistics.median(b), better)
    a_seed = {r["header"]["seed"]: r["metrics"][name]["value"] for r in a_runs}
    b_seed = {r["header"]["seed"]: r["metrics"][name]["value"] for r in b_runs}
    common = set(a_seed) & set(b_seed)
    if a_runs[0]["metrics"][name].get("exact") and common:
        if all(a_seed[s] == b_seed[s] for s in common):
            return a, b, worse, "identical"
        return a, b, worse, "regressed" if worse > bound else "changed"
    if max(spread(a), spread(b)) > bound:
        b_wins = (min(b) > max(a)) if better == "higher" else (max(b) < min(a))
        return a, b, worse, "within-bound" if b_wins else "unresolved"
    return a, b, worse, "regressed" if worse > bound else "within-bound"


def fmt(values):
    q1, med, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (med, q1, q3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--layers", action="store_true",
                    help="also print per-layer medians of traced results")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    runs_a, runs_b = load(args.a), load(args.b)

    failed = False
    print("%-16s %-17s %-38s %-38s %8s  %s" %
          ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
           "worse", "verdict"))
    for w in spec["workloads"]:
        a_runs = runs_a.get((w["name"], False), [])
        b_runs = runs_b.get((w["name"], False), [])
        if not a_runs or not b_runs:
            print("%-16s (no untraced results in %s)" %
                  (w["name"], "A" if not a_runs else "B"))
            continue
        for m in spec["end_to_end"]:
            a, b, worse, v = verdict(m, a_runs, b_runs)
            failed = failed or v in ("regressed", "changed")
            print("%-16s %-17s %-38s %-38s %7.2f%%  %s" %
                  (w["name"], m["name"], fmt(a), fmt(b), 100 * worse, v))
        if args.layers:
            ta = runs_a.get((w["name"], True), [])
            tb = runs_b.get((w["name"], True), [])
            for m in spec["per_layer"] if ta and tb else []:
                a = [r["layers"][m["name"]]["value"] for r in ta]
                b = [r["layers"][m["name"]]["value"] for r in tb]
                print("%-16s %-34s %-30s %-30s" %
                      (w["name"], m["name"], fmt(a), fmt(b)))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
