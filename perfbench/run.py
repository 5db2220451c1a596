#!/usr/bin/env python3
"""Build and run the wfs benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first form builds
perfbench/wfs_perfbench.exe with the release profile (chosen here, on the
dune command line; no build file names it) and runs it with the given
arguments; its last line of stdout is the result JSON.  The second form
runs every workload at a tiny size and checks the benchmark itself.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "wfs_perfbench.exe")

# Metrics whose value is a host timing; every other metric is a count or a
# ratio of counts and must repeat exactly from run to run.
TIMING_UNITS = {"s", "ms", "ns", "slots/s"}
NOT_EXACT = {"trace.overhead"}


def build():
    # The shared dune cache lives outside the checkout; keep the build inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    cmd = dune + ["build", "--root", ".", "--profile", "release",
                  "./perfbench/wfs_perfbench.exe"]
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, env=env).returncode == 0


def git_rev():
    # Only a .git inside the checkout counts: never look above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def run(args, capture=False):
    env = dict(os.environ, PERFBENCH_GIT_REV=git_rev())
    if capture:
        return subprocess.run([EXE] + args, cwd=ROOT, env=env, capture_output=True, text=True)
    return subprocess.run([EXE] + args, cwd=ROOT, env=env)


def result(args):
    r = run(args, capture=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise SystemExit("self-test: %s exited %d\n%s" % (args, r.returncode, r.stderr))
    return json.loads(lines[-1])


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            args = ["--workload", name, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--size", "tiny"]
            a, b = result(args), result(args)
            where = "%s --trace %s" % (name, trace)
            if sorted(a) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(a)))
            if not (a["correct"] and b["correct"] and a["failed"] == 0 and a["attempted"] >= 1):
                problems.append("%s: run not correct" % where)
            units = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in a["metrics"].items()}
            if got != units:
                problems.append("%s: metrics/units %s, declared %s" % (where, got, units))
            for k, v in a["metrics"].items():
                exact = v["unit"] not in TIMING_UNITS and k not in NOT_EXACT
                if exact and k in b["metrics"] and v["value"] != b["metrics"][k]["value"]:
                    problems.append("%s: %s read %r then %r" % (where, k, v["value"],
                                                                b["metrics"][k]["value"]))
        bad = result(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0",
                      "--size", "tiny", "--corrupt"])
        if bad["correct"] or bad["failed"] == 0:
            problems.append("%s: output check passed a corrupted artifact" % name)
        print("self-test: %s checked" % name)
    for p in problems:
        print("self-test: FAIL " + p)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    args = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args == ["--self-test"]:
        return self_test()
    return run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
