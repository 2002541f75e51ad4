#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or reports the spread of one.

    python3 bench_e2e/compare.py runs/parent [runs/change]

Each argument is a directory written by sweep.py (<workload>.jsonl, one
result per run). Prints one row per workload x metric: median and
quartiles (statistics.quantiles, n=4) of each set, and the spread, the
interquartile distance as a share of the median. End-to-end metrics carry
the bound fixed in BENCHMARK.json; a row reads

  regression  the change's median is worse than the base's by more than
              the bound,
  better      it is better by more than the bound,
  unresolved  a set's spread exceeds the bound, so a difference of the
              bound's size cannot be told from noise (unless every change
              run beats every base run, which reads as better),
  within      otherwise.

With one set, rows flag spreads above the bound and above a third of it.
Exits 1 if any row reads regression.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(directory, name)) as f:
            runs[name[:-len(".jsonl")]] = [json.loads(l) for l in f if l.strip()]
    return runs


def load_bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def summary(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def verdict(base, change, spec):
    """Verdict of one end-to-end metric (see the module docstring)."""
    bound, lower = spec["bound"], spec["better"] == "lower"
    b_med, _, _, b_spread = summary(base)
    c_med, _, _, c_spread = summary(change)
    worse = (c_med - b_med) / abs(b_med) * (1 if lower else -1)
    all_better = (max(change) < min(base)) if lower else (min(change) > max(base))
    if max(b_spread, c_spread) > bound:
        return ("better" if all_better else "unresolved"), worse
    if worse > bound:
        return "regression", worse
    if -worse > bound:
        return "better", worse
    return "within", worse


def fmt(values):
    median, q1, q3, spread = summary(values)
    return "%12.5g [%10.5g %10.5g] %6.1f%%" % (median, q1, q3, 100 * spread)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bounds = load_bounds()
    base = load_runs(argv[1])
    change = load_runs(argv[2]) if len(argv) == 3 else None
    regressions = 0
    header = "%-14s %-40s %-44s" % ("workload", "metric", "base median [q1 q3] spread")
    if change is not None:
        header += " %-44s %8s  %s" % ("change median [q1 q3] spread", "worse", "verdict")
    print(header)
    for workload, runs in base.items():
        names = list(runs[0]["metrics"])
        for name in names:
            b = [r["metrics"][name]["value"] for r in runs]
            row = "%-14s %-40s %s" % (workload, name, fmt(b))
            spec = bounds.get(name)
            if change is None:
                if spec is not None:
                    spread = summary(b)[3]
                    flag = ("OVER BOUND" if spread > spec["bound"] else
                            "over bound/3" if spread > spec["bound"] / 3 else "ok")
                    row += "  bound %4.0f%%  %s" % (100 * spec["bound"], flag)
                print(row)
                continue
            other = change.get(workload)
            if not other:
                print(row + "  (no change runs)")
                continue
            c = [r["metrics"][name]["value"] for r in other]
            row += " %s" % fmt(c)
            if spec is not None:
                word, worse = verdict(b, c, spec)
                regressions += word == "regression"
                row += " %+7.1f%%  %s" % (100 * worse, word)
            print(row)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
