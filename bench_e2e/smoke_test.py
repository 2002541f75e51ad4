#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 bench_e2e/smoke_test.py

Runs run.py on each workload with --trace 0 and --trace 1 at 2 % of the
documented input sizes, and checks that each run exits 0 with a result line
whose correctness check passed and whose metrics are exactly those
BENCHMARK.json names, each with its unit (end-to-end values non-zero).
Takes about a minute once the binaries are built.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def check_run(workload, trace, expected):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--scale", "0.02", "--trace",
         str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (where, proc.returncode, proc.stderr[-2000:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append("%s: correctness check failed: %s" % (where, result))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("%s: attempted %r" % (where, result.get("attempted")))
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        errors.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s"
                      % (where, sorted(set(expected) - set(metrics)),
                         sorted(set(metrics) - set(expected))))
    for name, spec in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        if metric.get("unit") != spec["unit"]:
            errors.append("%s: %s unit %r, expected %r"
                          % (where, name, metric.get("unit"), spec["unit"]))
        if not isinstance(metric.get("value"), (int, float)):
            errors.append("%s: %s value %r" % (where, name, metric.get("value")))
        elif trace == 0 and metric["value"] <= 0:
            errors.append("%s: %s reads %r" % (where, name, metric["value"]))
    print("%-28s %s" % (where, "ok" if not errors else "FAILED"), flush=True)
    return errors


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m for m in spec["end_to_end"]},
                1: {m["name"]: m for m in spec["per_layer"]}}
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors += check_run(workload, trace, expected[trace])
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
