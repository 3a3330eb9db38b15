#!/usr/bin/env python3
"""Builds bench_suite from source and runs it.

Run from the repository root:

  python3 bench/suite/run.py --workload q4_shed --seed 1 --seconds 20 --trace 0
  python3 bench/suite/run.py --smoke
  python3 bench/suite/run.py --record results.json --runs 10

The first form is one benchmark run: its last stdout line is the result
JSON.  --smoke runs all four workloads small, with every gate, and writes
BENCH_suite.json into the build directory.  --record runs all four
workloads round-robin (each round samples the same stretch of host noise)
for --runs rounds, round r with seed --seed + r, and writes every result
to one file that compare.py reads.

The build goes to $CARGO_TARGET_DIR/suite, or .bench_build/suite when the
variable is unset; relative paths resolve against the repository root.
Build output goes to stderr so the result stays the last stdout line.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["q4_shed", "ingest_k2", "durable_et_k2", "mq5_shed"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "suite")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "stream_engine.hpp")):
        sys.exit("run.py: engine sources not found under %s/src" % ROOT)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: %s" % " ".join(cmd))
    return os.path.join(out, "bench_suite")


def run_binary(binary, args, cwd=None, capture=False):
    """Runs bench_suite with a private scratch directory, always removed."""
    tmp = os.path.join(build_dir(), "tmp-%d" % os.getpid())
    proc = subprocess.Popen([binary] + args + ["--tmp", tmp], cwd=cwd,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    return proc.returncode, out


def record(binary, path, runs, seconds, first_seed):
    results = []
    for r in range(runs):
        for w in WORKLOADS:
            seed = first_seed + r
            code, out = run_binary(binary, ["--workload", w, "--seed", str(seed),
                                            "--seconds", str(seconds),
                                            "--trace", "0"], capture=True)
            lines = out.decode().strip().splitlines()
            if code != 0 or not lines:
                sys.exit("run.py: %s seed %d failed (exit %d)" % (w, seed, code))
            result = json.loads(lines[-1])
            results.append({"workload": w, "seed": seed, "result": result})
            print("round %d/%d %-14s %s" % (r + 1, runs, w, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()})),
                file=sys.stderr)
    with open(path, "w") as f:
        json.dump({"seconds": seconds, "runs": results}, f, indent=1)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--record", metavar="FILE")
    p.add_argument("--runs", type=int, default=10)
    a = p.parse_args()
    if not (a.smoke or a.record or a.workload):
        p.error("give --workload, --smoke or --record")

    binary = build()
    if a.record:
        record(binary, a.record, a.runs, a.seconds, a.seed)
        return 0
    if a.smoke:
        return run_binary(binary, ["--smoke"], cwd=build_dir())[0]
    return run_binary(binary, ["--workload", a.workload, "--seed", str(a.seed),
                               "--seconds", str(a.seconds), "--trace", a.trace])[0]


if __name__ == "__main__":
    sys.exit(main())
