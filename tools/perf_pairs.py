#!/usr/bin/env python3
"""Compare two checkouts on the benchmark with interleaved pairs.

    python3 tools/perf_pairs.py --parent DIR --change DIR [--pairs N] \\
        [--claim METRIC] [--ledger PATH] -- PERFBENCH_ARGS...

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

`--ledger PATH` appends the comparison to a perf ledger, a framed JSON-lines
stream (header line {"schema":"wfs-perf-ledger/1"}, created when PATH is
missing or empty, then one compact record per comparison).  A record names
each side by `git describe --always --dirty` (null outside a git checkout)
and by the build perfbench reported (profile, compiler, flambda, cores),
gives the perfbench arguments, the pair count and the claim, and for each
end-to-end metric both sides' medians and quartiles, the wins, the rule
verdict and the bound verdict.  A torn final line is cut off before the
append, as for every framed stream of the repository.

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
LEDGER_SCHEMA = "wfs-perf-ledger/1"
BUILD_KEYS = ("profile", "ocaml", "flambda", "nproc")


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
    p.add_argument("--ledger", metavar="PATH",
                   help="append this comparison to a wfs-perf-ledger/1 stream")
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
    """One perfbench run; returns (metrics or None, build, problem or None).

    build holds the BUILD_KEYS of the run's provenance line
    ("# wfs-perfbench/1 key=value ...")."""
    r = subprocess.run([sys.executable, "perfbench/run.py"] + bench,
                       cwd=checkout, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    build = {}
    for line in lines:
        if line.startswith("# wfs-perfbench/1 "):
            fields = dict(f.split("=", 1) for f in line.split()[2:] if "=" in f)
            build = {k: fields[k] for k in BUILD_KEYS if k in fields}
    if r.returncode != 0 or not lines:
        return None, build, "exited %d: %s" % (r.returncode, r.stderr.strip()[-400:])
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None, build, "last line is not JSON: %r" % lines[-1][:200]
    if not result.get("correct") or result.get("failed", 0) > 0:
        return None, build, "failed %s of %s session repetitions" % (
            result.get("failed"), result.get("attempted"))
    return {k: v["value"] for k, v in result["metrics"].items()}, build, None


def describe(checkout):
    """`git describe --always --dirty` of a checkout, or None outside git.
    Only a .git inside the checkout counts: never look above it."""
    if not os.path.exists(os.path.join(checkout, ".git")):
        return None
    r = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def append_ledger(path, record):
    """Append one record to a wfs-perf-ledger/1 stream, writing the header
    first when the file is missing or empty and cutting a torn final line."""
    text = ""
    if os.path.exists(path):
        with open(path, "rb") as f:
            text = f.read().decode("utf-8")
    if text:
        try:
            header = json.loads(text.split("\n", 1)[0])
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("schema") != LEDGER_SCHEMA:
            raise SystemExit("perf_pairs: %s is not a %s stream" % (path, LEDGER_SCHEMA))
        text = text[:text.rfind("\n") + 1]
    else:
        text = json.dumps({"schema": LEDGER_SCHEMA}, separators=(",", ":")) + "\n"
    text += json.dumps(record, separators=(",", ":")) + "\n"
    with open(path, "wb") as f:
        f.write(text.encode("utf-8"))


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


ROW = "%-13s %-8s %-34s %-34s %6s %8s  %-7s  %s"


def spread(xs):
    q1, q3 = quartiles(xs)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3}


def summary(xs):
    return "%(median).5g [%(q1).5g, %(q3).5g]" % spread(xs)


def judge(metric, parent, change):
    """Summary row, rule verdict (True for a gain), bound verdict and wins."""
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
    return row, passes, verdict, wins


def main(argv):
    args, bench = parse_args(argv)
    metrics = end_to_end(args.change)
    sides = {"parent": args.parent, "change": args.change}
    values = {"parent": [], "change": []}
    builds = {"parent": {}, "change": {}}
    failures = []
    print("perf_pairs: %d pairs; parent %s; change %s; perfbench %s" % (
        args.pairs, args.parent, args.change, " ".join(bench)))
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            result, build, problem = run_once(sides[side], bench)
            builds[side] = build or builds[side]
            if problem:
                failures.append("pair %d %s: %s" % (i + 1, side, problem))
            got[side] = result
        if got["parent"] is not None and got["change"] is not None:
            for side in order:
                values[side].append(got[side])
        print("perf_pairs: pair %d done (%s first)" % (i + 1, order[0]), flush=True)
    gate = []
    judged = []
    if values["parent"]:
        print(ROW % ("metric", "unit", "parent median [q1, q3]",
                     "change median [q1, q3]", "wins", "shift", "rule", "bound"))
        for m in metrics:
            parent = [v[m["name"]] for v in values["parent"]]
            change = [v[m["name"]] for v in values["change"]]
            row, passes, verdict, wins = judge(m, parent, change)
            print(row)
            judged.append({"name": m["name"], "unit": m["unit"],
                           "parent": spread(parent), "change": spread(change),
                           "wins": wins, "rule": "gain" if passes else "no gain",
                           "bound": verdict})
            if args.claim == m["name"]:
                print("perf_pairs: claim %s: %s" % (m["name"], "gain" if passes else "no gain"))
                if not passes:
                    gate.append("claim %s misses the acceptance rule" % m["name"])
            if args.claim is not None and verdict == "beyond":
                gate.append("%s is beyond its bound" % m["name"])
    for f in failures + gate:
        print("perf_pairs: FAIL " + f)
    print("perf_pairs: %s" % ("FAILED" if failures or gate else "ok"))
    if args.ledger is not None:
        append_ledger(args.ledger, {
            "parent": {"git": describe(args.parent), "build": builds["parent"]},
            "change": {"git": describe(args.change), "build": builds["change"]},
            "perfbench": bench,
            "pairs": len(values["parent"]),
            "claim": args.claim,
            "metrics": judged,
            "failures": failures + gate,
        })
    return 1 if failures or gate else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
