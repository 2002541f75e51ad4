// Sustained LSM ingest throughput vs. hash partition count — the storage
// side of the paper's "partitioned parallelism" claim (Chapter 7). W
// concurrent writers insert pre-generated records into a
// PartitionedLsmIndex configured with small memtables so flush/merge work
// dominates, exactly the regime where a single global-lock LSM stalls.
// Each partition holds 1/P of the data, so the total merge work drops
// ~P-fold (merges re-read the whole partition), and writers stop
// contending on one mutex. Flush and merge run on each partition's
// background maintenance thread, the only LSM write path: Insert only
// seals a full memtable. Reported records/s include draining the
// maintenance backlog, so deferred work cannot inflate the figure.
// Results go to BENCH_ingest.json.
//
// A second section measures the hot frame path's allocation cost: records
// pumped appender -> subscriber queue -> batched drain, with and without
// a FramePool, under the operator-new interposer (this TU defines it; see
// tests/testing_util.h). The pooled row's bytes-allocated-per-record is
// the memory-architecture headline and lands in BENCH_ingest.json as
// `frame_path` + `frame_alloc_reduction`.
#define ASTERIX_ALLOC_INTERPOSER 1

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "adm/value.h"
#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/mem_governor.h"
#include "feeds/policy.h"
#include "feeds/subscriber.h"
#include "hyracks/frame.h"
#include "hyracks/frame_pool.h"
#include "storage/key.h"
#include "storage/lsm_index.h"
#include "tests/testing_util.h"

namespace asterix {
namespace bench {
namespace {

using adm::Value;
using storage::LsmOptions;
using storage::LsmStats;
using storage::PartitionedLsmIndex;

constexpr size_t kMemtableBytes = 16 << 10;
constexpr size_t kMaxRuns = 4;
constexpr int kWriterThreads = 4;

struct RunResult {
  size_t partitions = 0;
  double insert_secs = 0;   // all Insert calls returned
  double total_secs = 0;    // ... and the maintenance backlog drained
  double records_per_sec = 0;
  LsmStats stats;
};

RunResult RunOnce(size_t partitions, const std::vector<std::string>& keys,
                  const std::string& payload) {
  LsmOptions options;
  options.memtable_bytes_limit = kMemtableBytes;
  options.max_runs = kMaxRuns;
  options.partitions = partitions;
  PartitionedLsmIndex index(options);

  const size_t n = keys.size();
  common::Stopwatch watch;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([&, t] {
      for (size_t i = static_cast<size_t>(t); i < n; i += kWriterThreads) {
        CHECK_OK(index.Insert(keys[i], Value::String(payload)));
      }
    });
  }
  for (auto& w : writers) w.join();
  double insert_secs = watch.ElapsedSeconds();
  index.Drain();
  double total_secs = watch.ElapsedSeconds();

  RunResult result;
  result.partitions = partitions;
  result.insert_secs = insert_secs;
  result.total_secs = total_secs;
  result.records_per_sec = static_cast<double>(n) / total_secs;
  result.stats = index.stats();
  return result;
}

struct FramePathResult {
  bool pooled = false;
  double records_per_sec = 0;
  double allocs_per_record = 0;
  double bytes_per_record = 0;
  int64_t block_hits = 0;
  int64_t vector_hits = 0;
};

// One producer==consumer thread pumps Int64 records through
// appender -> subscriber queue -> batched drain (the steady-state frame
// path), counting this thread's heap traffic with the interposer. The
// unpooled row rebuilds every frame and record vector from the heap; the
// pooled row recycles both, so its warm cost is the zero-allocation
// claim tests/mem_test.cc asserts exactly.
FramePathResult RunFramePath(bool pooled, size_t records) {
  common::MemGovernor governor(nullptr);
  hyracks::FramePool pool(governor.RegisterPool("frame_path", 256 << 20));

  feeds::SubscriberOptions options;
  options.mode = feeds::ExcessMode::kBlock;
  options.name = pooled ? "bench_pooled" : "bench_unpooled";
  options.memory_budget_bytes = 256 << 20;
  options.memory_pool = governor.RegisterPool("queue", 256 << 20);
  options.spill_pool = governor.RegisterPool("spill", 256 << 20);
  feeds::SubscriberQueue queue(options);

  struct QueueWriter : hyracks::IFrameWriter {
    feeds::SubscriberQueue* queue = nullptr;
    common::Status NextFrame(const hyracks::FramePtr& frame) override {
      queue->Deliver(frame);
      return common::Status::OK();
    }
  };
  QueueWriter writer;
  writer.queue = &queue;

  constexpr size_t kRecordsPerFrame = 128;
  hyracks::FrameAppender appender(&writer, kRecordsPerFrame, 1 << 20,
                                  pooled ? &pool : nullptr);

  std::vector<hyracks::FramePtr> drained;
  auto pump_frame = [&](size_t base) {
    for (size_t r = 0; r < kRecordsPerFrame; ++r) {
      CHECK_OK(appender.Append(
          adm::Value::Int64(static_cast<int64_t>(base + r))));
    }
    drained.clear();
    (void)queue.NextBatchInto(&drained, /*timeout_ms=*/1000);
  };

  // Warm-up: learn block sizes, grow vectors to capacity, fill free
  // lists — both modes get it so neither pays cold-start costs.
  for (size_t i = 0; i < 64; ++i) pump_frame(i * kRecordsPerFrame);
  drained.clear();

  const size_t frames = records / kRecordsPerFrame;
  asterix::testing::AllocScope scope;
  common::Stopwatch watch;
  for (size_t i = 0; i < frames; ++i) pump_frame(i * kRecordsPerFrame);
  double secs = watch.ElapsedSeconds();

  FramePathResult result;
  result.pooled = pooled;
  const double n = static_cast<double>(frames * kRecordsPerFrame);
  result.records_per_sec = n / secs;
  result.allocs_per_record = static_cast<double>(scope.count()) / n;
  result.bytes_per_record = static_cast<double>(scope.bytes()) / n;
  result.block_hits = pool.block_hits();
  result.vector_hits = pool.vector_hits();
  return result;
}

int Main(int argc, char** argv) {
  size_t records = 80000;
  if (argc > 1) records = static_cast<size_t>(std::atoll(argv[1]));

  Banner("BENCH ingest", "partitioned LSM write path: records/s vs. "
                         "partition count (incl. maintenance drain)");
  std::printf("records=%zu writers=%d memtable=%zuB max_runs=%zu "
              "hw_concurrency=%u\n",
              records, kWriterThreads, kMemtableBytes, kMaxRuns,
              std::thread::hardware_concurrency());

  std::vector<std::string> keys;
  keys.reserve(records);
  for (size_t i = 0; i < records; ++i) {
    keys.push_back(
        storage::EncodeKey(Value::Int64(static_cast<int64_t>(i))).value());
  }
  std::string payload(64, 'x');

  // Warm-up pass so allocator state does not favor the first config.
  RunOnce(1, keys, payload);

  std::vector<RunResult> results;
  for (size_t partitions : {1, 2, 4, 8}) {
    results.push_back(RunOnce(partitions, keys, payload));
  }

  std::printf("\n%-6s %12s %12s %14s %8s %7s\n", "parts", "insert_s",
              "total_s", "records/s", "flushes", "merges");
  double rate_1p = 0, rate_4p = 0;
  for (const RunResult& r : results) {
    std::printf("%-6zu %12.3f %12.3f %14.0f %8lld %7lld\n", r.partitions,
                r.insert_secs, r.total_secs, r.records_per_sec,
                static_cast<long long>(r.stats.flushes),
                static_cast<long long>(r.stats.merges));
    if (r.partitions == 1) rate_1p = r.records_per_sec;
    if (r.partitions == 4) rate_4p = r.records_per_sec;
  }
  double speedup = rate_1p > 0 ? rate_4p / rate_1p : 0;
  std::printf("\nspeedup 4 partitions vs 1: %.2fx\n", speedup);

  // --- frame-path allocation cost (pooled vs unpooled) ------------------
  const size_t frame_records = records;
  const bool interposed = asterix::testing::AllocInterposerActive();
  FramePathResult unpooled;
  FramePathResult pooled_fp;
  if (interposed) {
    RunFramePath(false, frame_records);  // warm-up (allocator state)
    unpooled = RunFramePath(false, frame_records);
    pooled_fp = RunFramePath(true, frame_records);
    std::printf("\nframe path (appender -> subscriber queue -> drain), "
                "%zu records:\n", frame_records);
    std::printf("%-10s %14s %16s %16s\n", "mode", "records/s",
                "allocs/record", "bytes/record");
    for (const FramePathResult* r : {&unpooled, &pooled_fp}) {
      std::printf("%-10s %14.0f %16.4f %16.1f\n",
                  r->pooled ? "pooled" : "unpooled", r->records_per_sec,
                  r->allocs_per_record, r->bytes_per_record);
    }
    double reduction = pooled_fp.bytes_per_record > 0
                           ? unpooled.bytes_per_record /
                                 pooled_fp.bytes_per_record
                           : 0;
    if (reduction > 0) {
      std::printf("bytes-allocated-per-record reduction: %.1fx\n",
                  reduction);
    } else {
      std::printf("bytes-allocated-per-record reduction: inf "
                  "(pooled steady state allocates nothing)\n");
    }
  } else {
    std::printf("\nframe path: alloc interposer inactive (sanitizer "
                "build); skipping\n");
  }

  // Registry view of the same work: flush/merge latency distributions
  // accumulated across every configuration above (Snapshot() is the
  // supported read path; LsmStats counters stay for per-run attribution).
  common::MetricsSnapshot snap = AsterixInstance::SnapshotMetrics();
  std::printf("\nstorage maintenance latency (process-wide registry):\n");
  PrintHistogramSummary(snap, "lsm_flush_duration_us");
  PrintHistogramSummary(snap, "lsm_merge_duration_us");
  std::printf("  lsm_flushes_total=%lld lsm_merges_total=%lld "
              "lsm_flush_backlog=%lld\n",
              static_cast<long long>(snap.CounterValue("lsm_flushes_total")),
              static_cast<long long>(snap.CounterValue("lsm_merges_total")),
              static_cast<long long>(snap.GaugeValue("lsm_flush_backlog")));

  std::FILE* out = std::fopen("BENCH_ingest.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_ingest.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"ingest_throughput\",\n"
               "  \"records\": %zu,\n  \"writer_threads\": %d,\n"
               "  \"memtable_bytes_limit\": %zu,\n  \"max_runs\": %zu,\n"
               "  \"hardware_concurrency\": %u,\n  \"results\": [\n",
               records, kWriterThreads, kMemtableBytes, kMaxRuns,
               std::thread::hardware_concurrency());
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(
        out,
        "    {\"partitions\": %zu, \"insert_secs\": %.6f, "
        "\"total_secs\": %.6f, \"records_per_sec\": %.1f, "
        "\"flushes\": %lld, \"merges\": %lld}%s\n",
        r.partitions, r.insert_secs, r.total_secs, r.records_per_sec,
        static_cast<long long>(r.stats.flushes),
        static_cast<long long>(r.stats.merges),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"speedup_4p_vs_1p\": %.3f,\n", speedup);
  if (interposed) {
    std::fprintf(
        out,
        "  \"frame_path\": [\n"
        "    {\"mode\": \"unpooled\", \"records_per_sec\": %.1f, "
        "\"allocs_per_record\": %.4f, \"bytes_per_record\": %.1f},\n"
        "    {\"mode\": \"pooled\", \"records_per_sec\": %.1f, "
        "\"allocs_per_record\": %.4f, \"bytes_per_record\": %.1f}\n"
        "  ],\n",
        unpooled.records_per_sec, unpooled.allocs_per_record,
        unpooled.bytes_per_record, pooled_fp.records_per_sec,
        pooled_fp.allocs_per_record, pooled_fp.bytes_per_record);
    // JSON has no infinity: a zero-allocation pooled run reports the
    // unpooled figure itself as the reduction floor.
    double reduction =
        pooled_fp.bytes_per_record > 0
            ? unpooled.bytes_per_record / pooled_fp.bytes_per_record
            : unpooled.bytes_per_record;
    std::fprintf(out, "  \"frame_alloc_reduction\": %.1f\n}\n", reduction);
  } else {
    std::fprintf(out, "  \"frame_path\": [],\n"
                      "  \"frame_alloc_reduction\": 0\n}\n");
  }
  std::fclose(out);
  std::printf("wrote BENCH_ingest.json\n");

  if (!WriteMetricsExport("BENCH_ingest_metrics.prom") ||
      !WriteMetricsManifest("BENCH_ingest_metrics.manifest")) {
    std::fprintf(stderr, "cannot write metrics export/manifest\n");
    return 1;
  }
  std::printf("wrote BENCH_ingest_metrics.prom + .manifest\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace asterix

int main(int argc, char** argv) { return asterix::bench::Main(argc, argv); }
