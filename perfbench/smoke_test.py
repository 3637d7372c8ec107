#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Run from the repository root.  Runs every workload of BENCHMARK.json at
tiny sizes, once untraced and once traced, and checks that each run exits
0, passes its correctness gate, reports no failures, and prints exactly
the metrics BENCHMARK.json declares for its kind, each with the declared
unit and every end-to-end metric above 0.
"""

import json
import os
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    declared = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    problems = []

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in declared.items():
            run = subprocess.run(
                ["python3", os.path.join("perfbench", "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny"],
                capture_output=True, text=True)
            label = "%s --trace %d" % (workload, trace)
            if run.returncode != 0:
                problems.append("%s exited %d: %s" % (
                    label, run.returncode, run.stderr[-500:]))
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(label + ": wrong result keys")
            if result["correct"] is not True:
                problems.append(label + ": correctness gate failed")
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append(label + ": attempted/failed out of range")
            metrics = result["metrics"]
            if set(metrics) != expected:
                problems.append("%s: metrics %s, expected %s" % (
                    label, sorted(metrics), sorted(expected)))
            for name, metric in metrics.items():
                if metric.get("unit") != units.get(name):
                    problems.append("%s: %s has unit %r" % (
                        label, name, metric.get("unit")))
                if trace == 0 and not metric.get("value", 0) > 0:
                    problems.append("%s: %s is not above 0" % (label, name))
            print("ok   " if not problems else "FAIL ", label, flush=True)

    for problem in problems:
        print("problem:", problem)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
