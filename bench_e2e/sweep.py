#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records every result line.

    python3 bench_e2e/sweep.py --out runs/parent --runs 10 [--seconds 20]
        [--workloads file_bulk,geo_mixed]

Runs seeds 1..runs with --trace 0. Workloads and seconds default to those
BENCHMARK.json lists.

Appends one JSON result per run to <out>/<workload>.jsonl (seed added); a
failed run leaves its stderr in <out>/<workload>-<seed>.err.
Compare two such directories with bench_e2e/compare.py.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    failures = 0
    for workload in args.workloads.split(","):
        for seed in range(1, args.runs + 1):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                log = os.path.join(args.out, "%s-%d.err" % (workload, seed))
                with open(log, "w") as f:
                    f.write(proc.stderr)
                print("%s seed %d: FAILED (exit %d), see %s"
                      % (workload, seed, proc.returncode, log), flush=True)
                failures += 1
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            with open(os.path.join(args.out, workload + ".jsonl"), "a") as out:
                out.write(json.dumps(result) + "\n")
            print("%s seed %d (%.0f s): %s" % (
                workload, seed, time.monotonic() - started, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
