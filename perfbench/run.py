#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload sweep|feed|replay --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root.  The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/ (or $CARGO_TARGET_DIR when set); later runs only re-check the
build.  The last line of standard output is the result JSON object
{"correct", "attempted", "failed", "metrics"}, holding every metric
BENCHMARK.json declares for the run's kind; the lines before it hold the
metadata of each program run it combines.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "feed", "replay")
SUBRUNS = 3


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_identity():
    """The git commit when there is one, else a hash of the source tree."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            return head.stdout.strip()
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr,
                          env=env).returncode != 0:
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "sscor_perfbench", "-j", jobs],
                      stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "sscor_perfbench")


def complete(result, declared, trace):
    """Puts the program's metrics into the order and the exact set that
    BENCHMARK.json declares for the run's kind, so every workload reports
    every metric.  A per-layer metric of a layer the workload does not run
    reads 0.  A missing end-to-end metric, an undeclared name or a unit
    other than the declared one is an error."""
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    for name, metric in metrics.items():
        if name not in names:
            fail("the program reported undeclared metric " + name)
    completed = {}
    for m in declared:
        metric = metrics.get(m["name"])
        if metric is None:
            if not trace:
                fail("the program reported no " + m["name"])
            metric = {"value": 0, "unit": m["unit"]}
        if metric["unit"] != m["unit"]:
            fail("%s reported in %s, declared in %s" % (
                m["name"], metric["unit"], m["unit"]))
        completed[m["name"]] = metric
    result["metrics"] = completed
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/ is missing")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    declared = manifest["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    # Compiler and program temporaries stay inside the build directory.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    binary = build(build_dir, env)
    work_dir = os.path.join(build_dir, "work", args.workload)
    reference_dir = os.path.join(BENCH_DIR, "reference",
                                 "tiny" if args.size == "tiny" else "full")
    commit = source_identity()

    def run_program(seed, seconds):
        """Runs the program once; returns its metadata lines and result."""
        command = [binary,
                   "--workload", args.workload,
                   "--seed", str(seed),
                   "--seconds", repr(seconds),
                   "--trace", str(args.trace),
                   "--size", args.size,
                   "--work-dir", work_dir,
                   "--reference-dir", reference_dir,
                   "--commit", commit]
        run = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                             text=True)
        lines = run.stdout.splitlines()
        if run.returncode != 0 or not lines:
            sys.stdout.write(run.stdout)
            sys.exit(run.returncode or 1)
        return lines[:-1], complete(json.loads(lines[-1]), declared,
                                    args.trace)

    # The traced run is one process: its per-layer numbers have no bound.
    # An untraced run is split over SUBRUNS processes, each with its own
    # inputs (sub-seed seed * SUBRUNS + i) and an equal share of the time,
    # and reports each metric's median across them.  On a shared VM a
    # process's speed depends on where its memory lands, and that stays
    # fixed for the process's life, so one process is one draw of it.
    subruns = 1 if args.trace else SUBRUNS
    results = []
    for i in range(subruns):
        meta, result = run_program(args.seed * subruns + i,
                                   args.seconds / subruns)
        for line in meta:
            print(line)
        results.append(result)
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {m["name"]: {
            "value": statistics.median(
                r["metrics"][m["name"]]["value"] for r in results),
            "unit": m["unit"]} for m in declared},
    }))
    sys.exit(0)


if __name__ == "__main__":
    main()
