#!/usr/bin/env python3
"""Compare two checkouts on the benchmark with interleaved pairs.

    python3 tools/perf_pairs.py --parent DIR --change DIR [--pairs N] \\
        [--claim METRIC] -- PERFBENCH_ARGS...

Runs `python3 perfbench/run.py PERFBENCH_ARGS` once in each checkout per
pair, alternating which side goes first, and reads each run's result JSON
(its last line of stdout).  For every end-to-end metric that BENCHMARK.json
declares, it prints each side's median and quartiles, the pairs in which
the change was better (in the metric's declared direction), and the
acceptance rule for a claimed gain ("gain" or "no gain" in the rule
column):

  - the change is better in at least 9 of every 10 pairs, and
  - the medians differ, in the better direction, by more than the
    parent's quartile distance (third minus first quartile).

It also sets the change's median, relative to the parent's, beside the
metric's declared bound: "within", "beyond", or "unresolved" when either
side's quartile distance exceeds the bound (relative to its median) and
the change's runs do not all read better than all the parent's.

`--claim METRIC` names the end-to-end metric the change claims to improve
and turns the comparison into a gate: it also fails when that metric's
rule reads "no gain", or when any end-to-end metric's bound reads
"beyond".  Exit status: 1 if any run exits non-zero or fails one of its
output checks, or if a claim fails its gate; 2 on a usage error; 0
otherwise.  Standard library only.

Example, the acceptance run for a paper_grid claim:

    python3 tools/perf_pairs.py --parent ../parent --change . --pairs 10 \\
        --claim heap_peak_mb \\
        -- --workload paper_grid --seed 42 --seconds 30 --trace 0
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

WIN_SHARE = 0.9


def parse_args(argv):
    if "--" in argv:
        cut = argv.index("--")
        own, bench = argv[:cut], argv[cut + 1:]
    else:
        own, bench = argv, []
    p = argparse.ArgumentParser(
        prog="perf_pairs.py",
        description="Interleaved parent/change pairs of perfbench runs.")
    p.add_argument("--parent", required=True, help="parent checkout")
    p.add_argument("--change", required=True, help="change checkout")
    p.add_argument("--pairs", type=int, default=10, help="pairs to run (default 10)")
    p.add_argument("--claim", metavar="METRIC",
                   help="end-to-end metric the change claims to improve: exit 1 "
                        "unless it passes the rule and no metric is beyond its bound")
    args = p.parse_args(own)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    if not bench:
        p.error("give the perfbench arguments after --")
    names = [m["name"] for m in end_to_end(args.change)]
    if args.claim is not None and args.claim not in names:
        p.error("--claim must name an end-to-end metric: %s" % ", ".join(names))
    return args, bench


def end_to_end(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def run_once(checkout, bench):
    """One perfbench run; returns (metrics or None, problem or None)."""
    r = subprocess.run([sys.executable, "perfbench/run.py"] + bench,
                       cwd=checkout, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, "exited %d: %s" % (r.returncode, r.stderr.strip()[-400:])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, "last line is not JSON: %r" % lines[-1][:200]
    if not result.get("correct") or result.get("failed", 0) > 0:
        return None, "failed %s of %s session repetitions" % (
            result.get("failed"), result.get("attempted"))
    return {k: v["value"] for k, v in result["metrics"].items()}, None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


ROW = "%-13s %-8s %-34s %-34s %6s %8s  %-7s  %s"


def summary(xs):
    q1, q3 = quartiles(xs)
    return "%.5g [%.5g, %.5g]" % (statistics.median(xs), q1, q3)


def judge(metric, parent, change):
    """Summary row, rule verdict (True for a gain) and bound verdict."""
    lower = metric["better"] == "lower"
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    pm, cm = statistics.median(parent), statistics.median(change)
    pq1, pq3 = quartiles(parent)
    cq1, cq3 = quartiles(change)
    gain = (pm - cm) if lower else (cm - pm)
    passes = wins >= math.ceil(WIN_SHARE * len(parent)) and gain > pq3 - pq1
    rel = (cm - pm) / pm if pm else 0.0
    worse = rel if lower else -rel
    spread = max((pq3 - pq1) / pm if pm else 0.0,
                 (cq3 - cq1) / cm if cm else 0.0)
    separated = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if worse > metric["bound"]:
        verdict = "beyond"
    elif spread > metric["bound"] and not separated:
        verdict = "unresolved"
    else:
        verdict = "within"
    bound = "%s bound %.2f" % (verdict, metric["bound"])
    row = ROW % (metric["name"], metric["unit"], summary(parent), summary(change),
                 "%d/%d" % (wins, len(parent)), "%+.1f%%" % (100 * rel),
                 "gain" if passes else "no gain", bound)
    return row, passes, verdict


def main(argv):
    args, bench = parse_args(argv)
    metrics = end_to_end(args.change)
    sides = {"parent": args.parent, "change": args.change}
    values = {"parent": [], "change": []}
    failures = []
    print("perf_pairs: %d pairs; parent %s; change %s; perfbench %s" % (
        args.pairs, args.parent, args.change, " ".join(bench)))
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            result, problem = run_once(sides[side], bench)
            if problem:
                failures.append("pair %d %s: %s" % (i + 1, side, problem))
            got[side] = result
        if got["parent"] is not None and got["change"] is not None:
            for side in order:
                values[side].append(got[side])
        print("perf_pairs: pair %d done (%s first)" % (i + 1, order[0]), flush=True)
    gate = []
    if values["parent"]:
        print(ROW % ("metric", "unit", "parent median [q1, q3]",
                     "change median [q1, q3]", "wins", "shift", "rule", "bound"))
        for m in metrics:
            parent = [v[m["name"]] for v in values["parent"]]
            change = [v[m["name"]] for v in values["change"]]
            row, passes, verdict = judge(m, parent, change)
            print(row)
            if args.claim == m["name"]:
                print("perf_pairs: claim %s: %s" % (m["name"], "gain" if passes else "no gain"))
                if not passes:
                    gate.append("claim %s misses the acceptance rule" % m["name"])
            if args.claim is not None and verdict == "beyond":
                gate.append("%s is beyond its bound" % m["name"])
    for f in failures + gate:
        print("perf_pairs: FAIL " + f)
    print("perf_pairs: %s" % ("FAILED" if failures or gate else "ok"))
    return 1 if failures or gate else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
