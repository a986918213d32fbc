#!/usr/bin/env python3
"""Compares saved ctlbench outputs of a base and a change.

    python3 ctlbench/compare.py --base base-*.log --change change-*.log

Each log is the stdout of one `ctlbench/run.py` invocation. Runs are
comparable only when their host and build fingerprints agree: same nproc, CPU
model, compiler, build type and invocation (workload, seconds, trace). The
commit must agree within each side. Otherwise nothing is compared and the
exit status is 3.

For every metric the script prints each side's median and quartiles. It then
gives the change's median relative to the base and a verdict against the
metric's bound in BENCHMARK.json:
- "worse than bound": the change is worse by more than the bound;
- "unresolved": the base's own spread exceeds the bound;
- "ok": neither.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HOST_KEYS = ("nproc", "cpu", "compiler", "build_type", "workload", "seconds", "trace")


def load(path):
    fingerprint, result = None, None
    with open(path) as f:
        for line in f:
            if line.startswith("fingerprint: "):
                fingerprint = json.loads(line[len("fingerprint: "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if fingerprint is None or result is None:
        sys.exit(f"compare: {path} has no fingerprint or result line")
    return fingerprint, result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()

    sides = {"base": [load(p) for p in args.base], "change": [load(p) for p in args.change]}
    reference = sides["base"][0][0]
    problems = []
    for side, runs in sides.items():
        commits = {fp.get("commit") for fp, _ in runs}
        if len(commits) > 1:
            problems.append(f"{side}: runs come from different commits {sorted(commits)}")
        for fp, _ in runs:
            for key in HOST_KEYS:
                if fp.get(key) != reference.get(key):
                    problems.append(f"{side}: {key} {fp.get(key)!r} != {reference.get(key)!r}")
    if problems:
        print("NOT COMPARABLE: fingerprints differ")
        for p in sorted(set(problems)):
            print("  " + p)
        return 3

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {reference['workload']}, {reference['nproc']} x {reference['cpu']}, "
          f"{reference['compiler']}, {reference['build_type']}")
    names = sorted(sides["base"][0][1]["metrics"])
    for name in names:
        values = {s: [r["metrics"][name]["value"] for _, r in runs if name in r["metrics"]]
                  for s, runs in sides.items()}
        if not values["base"] or not values["change"]:
            continue
        bq1, bmed, bq3 = quartiles(values["base"])
        cq1, cmed, cq3 = quartiles(values["change"])
        info = metrics.get(name, {})
        line = (f"{name:36s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}]")
        if bmed != 0:
            rel = (cmed - bmed) / abs(bmed)
            line += f"  {rel:+.2%}"
            bound = info.get("bound")
            if bound is not None:
                worse = -rel if info.get("better") == "higher" else rel
                spread = (bq3 - bq1) / abs(bmed)
                if worse > bound:
                    verdict = "worse than bound"
                elif spread > bound:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                line += f"  bound {bound:.0%}: {verdict}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
