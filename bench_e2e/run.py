#!/usr/bin/env python3
"""End-to-end ingest benchmark (see bench_e2e/README.md).

Run from the repository root:

    python3 bench_e2e/run.py --workload file_bulk --seed 1 --seconds 20 --trace 0

Builds the benchmark binaries from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs the workload and prints, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of the untraced binary;
with --trace 1 they are the per-layer metrics: the untraced binary's
program counters and layer replay times, plus the traced binary's
allocation counts and stage latencies. Exits non-zero,
without a result line, when the build fails, a check fails or time runs out.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("file_bulk", "cascade_paced", "geo_mixed")

# Printed with --trace 0, in this order.
END_TO_END = [
    "records_per_s", "latency_p50_ms", "latency_p99_ms", "query_p50_ms",
    "query_p99_ms", "cpu_us_per_record", "rss_growth_mb", "setup_s",
]
# Printed with --trace 1. Counters read from the program after the
# untraced run:
COUNTERS = [
    "hyracks.pump_frames_per_wakeup", "feeds.frames_overflowed",
    "feeds.frames_spilled", "feeds.intake_peak_pending_bytes",
    "feeds.records_replayed", "feeds.soft_failures", "storage.lsm_flushes",
    "storage.lsm_merges", "storage.lsm_flush_p50_us", "storage.wal_syncs",
    "common.mempool_exhausted", "common.mempool_overdraft",
    "bench.generator_late_max_ms", "bench.backlog_at_gen_end_records",
]
# ...layer replays (times from the untraced binary, allocation counts from
# the traced one):
REPLAYS = [
    "adm.parse_ns_per_record", "adm.parse_allocs_per_record",
    "adm.serialize_ns_per_record", "hyracks.frame_append_ns_per_record",
    "feeds.joint_deliver_ns_per_record.subs1",
    "feeds.joint_deliver_ns_per_record.subs3",
    "feeds.udf_hashtags_ns_per_record", "feeds.udf_sentiment_ns_per_record",
    "feeds.udf_to_point_ns_per_record", "feeds.ack_ns_per_record",
    "storage.encode_key_ns_per_record", "storage.wal_append_ns_per_record",
    "storage.wal_bytes_per_record", "storage.lsm_insert_ns_per_record",
    "storage.secondary_insert_ns_per_record.btree",
    "storage.secondary_insert_ns_per_record.rtree",
    "storage.dataset_insert_ns_per_record",
    "storage.dataset_insert_allocs_per_record", "storage.lsm_get_ns",
]
# ...per-stage span latency of the traced binary's sampled frames:
STAGES = ["feeds.stage_p50_us." + s
          for s in ("source", "queue", "intake", "assign0", "store")]
# ...and the replay's share of the measured CPU, and the tracing cost.
DERIVED = ["trace.coverage_frac", "trace.overhead_frac"]
PER_LAYER = COUNTERS + REPLAYS + STAGES + DERIVED

# A run (build excluded) must end well inside the 180 s limit.
RUN_BUDGET_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds both binaries (incremental); False on failure."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    compile_ = ["cmake", "--build", build_dir, "-j", "4",
                "--target", "bench_e2e", "bench_e2e_traced"]
    return all(subprocess.run(cmd, stdout=sys.stderr).returncode == 0
               for cmd in (configure, compile_))


def run_binary(binary, args, deadline):
    """Runs one binary; returns its result object, or None on failure."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        log("bench_e2e: out of time before " + os.path.basename(binary))
        return None
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        log("bench_e2e: %s timed out" % os.path.basename(binary))
        return None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        log("bench_e2e: %s printed no result (exit %d)"
            % (os.path.basename(binary), proc.returncode))
        return None
    if proc.returncode != 0:
        log("bench_e2e: %s failed its checks (exit %d)"
            % (os.path.basename(binary), proc.returncode))
        return None
    return result


def pick(source, names):
    return {n: {"value": source[n]["value"], "unit": source[n]["unit"]}
            for n in names}


def describe(untraced):
    """Human-readable table of the end-to-end metrics."""
    e2e, counts = untraced["e2e"], untraced["counts"]
    poll = counts["bench.poll_period_us"]["value"]
    notes = {
        "latency_p50_ms": "median of %d passes, %d samples, poll period %.1f us"
                          % (counts["bench.passes"]["value"],
                             counts["bench.latency_samples"]["value"], poll),
        "query_p50_ms": "%d samples" % counts["bench.query_samples"]["value"],
    }
    notes["latency_p99_ms"] = notes["latency_p50_ms"]
    notes["query_p99_ms"] = notes["query_p50_ms"]
    for name in END_TO_END:
        log("%-18s %14.6g %-4s %s" % (name, e2e[name]["value"],
                                      e2e[name]["unit"], notes.get(name, "")))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input-size multiplier (smoke test)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        log("bench_e2e: build failed")
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S
    work_dir = os.path.abspath(os.path.join(
        ".bench_work", "%s-%d" % (args.workload, os.getpid())))
    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--scale", str(args.scale),
                   "--work-dir", work_dir]
    try:
        untraced = run_binary(os.path.join(build_dir, "bench_e2e"),
                              binary_args + ["--replay", str(args.trace)],
                              deadline)
        if untraced is None:
            return 1
        describe(untraced)
        if args.trace == 0:
            result = {"correct": untraced["correct"],
                      "attempted": untraced["attempted"],
                      "failed": untraced["failed"],
                      "metrics": pick(untraced["e2e"], END_TO_END)}
        else:
            traced = run_binary(os.path.join(build_dir, "bench_e2e_traced"),
                                binary_args, deadline)
            if traced is None:
                return 1
            counts, layers = untraced["counts"], untraced["layers"]
            cpu_ns = untraced["e2e"]["cpu_us_per_record"]["value"] * 1e3
            metrics = pick(counts, COUNTERS)
            metrics.update(pick(layers, REPLAYS))
            metrics.update(pick(traced["layers"],
                                [n for n in REPLAYS if "_allocs_" in n]))
            metrics.update(pick(traced["counts"], STAGES))
            metrics["trace.coverage_frac"] = {
                "value": layers["trace.layer_ns_per_record"]["value"] / cpu_ns,
                "unit": "frac"}
            # The traced binary runs one pass from a cold start: compare it
            # with the untraced binary's first pass.
            metrics["trace.overhead_frac"] = {
                "value": traced["counts"]["bench.cpu_us_per_record"]["value"]
                / counts["bench.first_pass_cpu_us_per_record"]["value"] - 1,
                "unit": "frac"}
            result = {"correct": untraced["correct"] and traced["correct"],
                      "attempted": untraced["attempted"] + traced["attempted"],
                      "failed": untraced["failed"] + traced["failed"],
                      "metrics": {n: metrics[n] for n in PER_LAYER}}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
