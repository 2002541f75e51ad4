// Shared declarations of the end-to-end ingest benchmark (see README.md).
//
// The benchmark drives real feeds through the public AsterixInstance API
// (workloads.cc) and, in the traced binary, replays each workload's seeded
// input through the public call of every layer (replay.cc). Nothing here
// changes or instruments the program under test.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "feeds/udf.h"

namespace bench_e2e {

struct Options {
  std::string workload;  // file_bulk | cascade_paced | geo_mixed
  uint64_t seed = 1;
  /// Timed-window budget of one run: workloads repeat passes (file_bulk,
  /// geo_mixed) or pace their open loop (cascade_paced) to fill it.
  double seconds = 10;
  /// Input-size multiplier (1 = the documented sizes; the smoke test
  /// shrinks every workload with ~0.02).
  double scale = 1.0;
  /// Directory for WALs, spill files and the feed input file. Removed by
  /// the caller.
  std::string work_dir;
  /// Workload run of the traced binary: tracer sampling on.
  bool traced = false;
  /// Run the layer replays after the workload (the traced binary always
  /// does).
  bool replay = false;
};

/// One named measurement with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

struct RunResult {
  /// Operations attempted/failed: records sent per target dataset, plus
  /// queries issued. Failures are missing or extra ids, records lacking
  /// their derived fields, failed queries and soft failures.
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (medians over the run's passes).
  MetricMap e2e;
  /// Program counters read after the run (SnapshotMetrics deltas,
  /// intake-queue stats, connection metrics) plus harness validity checks.
  MetricMap counts;
};

/// Runs one workload end to end. Prints progress lines to stdout.
RunResult RunWorkload(const Options& options);

/// Replays the workload's seeded input through each layer's public call;
/// ns/record and (with the interposer linked) allocs/record. The ns figures
/// the benchmark reports come from the untraced binary, where no
/// interposer adds to them.
MetricMap ReplayLayers(const Options& options);

/// True when this binary carries the allocation interposer.
bool AllocCountingActive();
/// Heap allocations made by the calling thread so far (0 without the
/// interposer).
int64_t ThreadAllocCount();

/// Seeded tweets as the external source ships them (ADM text), with their
/// primary keys. `created_at` is derived from the sequence number so the
/// same seed yields byte-identical input.
struct TweetInput {
  std::vector<std::string> ids;
  std::vector<std::string> texts;
};
TweetInput MakeTweets(int source_id, uint64_t seed, int64_t count);

/// The cascade's sentiment "Java" UDF (as in examples/cascade_network).
std::shared_ptr<asterix::feeds::Udf> SentimentUdf();
/// geo_mixed's AQL UDF: latitude/longitude -> point field `location`.
std::shared_ptr<asterix::feeds::AqlUdf> ToPointUdf();

/// Record counts of each workload at the given scale.
int64_t FileBulkRecords(double scale);
int64_t GeoFeedRecords(double scale);
int64_t GeoPreloadRecords(double scale);
int64_t CascadeRate(double scale);

}  // namespace bench_e2e
