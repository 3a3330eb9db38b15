#!/usr/bin/env python3
"""Compares two bench_suite results files against the bounds in BENCHMARK.json.

  python3 bench/suite/run.py --record base.json --runs 10   # parent commit
  python3 bench/suite/run.py --record change.json --runs 10 # the change
  python3 bench/suite/compare.py base.json change.json

For every workload x end-to-end metric it prints the two medians, each
side's quartile spread (IQR / median), the relative change (positive =
worse) and one verdict:

  worse       the change's median is worse than the base's by more than
              the metric's bound;
  better      the change won at least nine tenths of the seed-paired runs
              and the medians differ by more than the base's own quartile
              spread;
  unresolved  a side's quartile spread (IQR / median) is wider than the
              bound and the two sides' runs overlap (when they do not,
              the verdict is better or worse as above);
  unchanged   none of the above.

Exits 1 when any pairing is worse, 0 otherwise.  Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(path):
    """{workload: {seed: {metric: value}}} from a run.py --record file."""
    with open(path) as f:
        data = json.load(f)
    out = {}
    for run in data["runs"]:
        metrics = {k: v["value"] for k, v in run["result"]["metrics"].items()}
        out.setdefault(run["workload"], {})[run["seed"]] = metrics
    return out


def spread(values):
    """Quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


def verdict(base, change, bound, higher_is_better):
    """(verdict, median base, median change, relative change, +=worse)."""
    mb, mc = statistics.median(base.values()), statistics.median(change.values())
    sign = -1.0 if higher_is_better else 1.0
    worse_by = sign * (mc - mb) / mb if mb else 0.0

    def beats(c, b):
        return c > b if higher_is_better else c < b

    if max(spread(list(base.values())), spread(list(change.values()))) > bound:
        # Too noisy to judge by medians: only a complete separation counts.
        if all(beats(c, b) for c in change.values() for b in base.values()):
            return "better", mb, mc, worse_by
        if worse_by > bound and all(beats(b, c) for c in change.values()
                                    for b in base.values()):
            return "worse", mb, mc, worse_by
        return "unresolved", mb, mc, worse_by
    if worse_by > bound:
        return "worse", mb, mc, worse_by
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if beats(change[s], base[s]))
    base_iqr = spread(list(base.values())) * abs(mb)
    if seeds and wins >= 0.9 * len(seeds) and abs(mc - mb) > base_iqr:
        return "better", mb, mc, worse_by
    return "unchanged", mb, mc, worse_by


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    a = p.parse_args()

    with open(a.benchmark) as f:
        spec = json.load(f)
    base, change = load_runs(a.base), load_runs(a.change)
    regressions = 0
    print("%-14s %-16s %16s %16s %6s %6s %7s %6s  %s" % (
        "workload", "metric", "base median", "change median", "IQR%b",
        "IQR%c", "worse%", "bound%", "verdict"))
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in change:
            print("%-14s missing from a results file" % name)
            regressions += 1
            continue
        for m in spec["end_to_end"]:
            b = {s: v[m["name"]] for s, v in base[name].items()}
            c = {s: v[m["name"]] for s, v in change[name].items()}
            v, mb, mc, worse_by = verdict(b, c, m["bound"], m["better"] == "higher")
            regressions += v == "worse"
            print("%-14s %-16s %16.4f %16.4f %6.2f %6.2f %7.2f %6.1f  %s" % (
                name, m["name"], mb, mc, 100 * spread(list(b.values())),
                100 * spread(list(c.values())), 100 * worse_by,
                100 * m["bound"], v))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
