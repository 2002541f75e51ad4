// Per-frame trace spans across the feed cascade (§7 observability).
//
// A trace is born when a source (or the intake, for frames arriving
// untraced) stamps a `hyracks::TraceContext` onto a frame. Hooks along the
// path — subscriber delivery, queue residency, the intake forward, each
// MetaFeed-wrapped operator, joints, UDF application, the store — record
// `TraceSpan`s describing where the frame spent its time. Every span's
// duration also lands in the process-wide MetricsRegistry histogram
// `feed_stage_latency_us{stage=...}`, so per-stage latency is visible even
// with the ring disabled.
//
// Span taxonomy:
//   * Primary spans tile a frame's path disjointly: "source" (adaptor
//     fetch + joint routing + delivery), "queue" (subscriber queue
//     residency), "intake", then one span per MetaFeed-wrapped operator
//     ("assign0"..., "store"). Their durations sum to ≈ end-to-end minus
//     task-queue hand-off gaps.
//   * Detail spans nest inside primaries and overlap them: "joint",
//     "udf", and the terminal/diagnostic spans "soft-failure", "replay",
//     "discarded", "throttled", "spilled".
//
// Cost discipline: with sampling off, StartTrace() is one relaxed atomic
// load and every downstream hook guards on `frame->trace().id == 0` (a
// plain member read). RecordSpan must never be called while holding a
// queue/joint/connection mutex (it takes the tracer mutex and, on a new
// stage, the registry mutex) — hooks collect span data under their locks
// and record after unlocking.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/mem_governor.h"
#include "common/observability.h"
#include "common/thread_annotations.h"
#include "hyracks/frame.h"

namespace asterix {
namespace feeds {

struct TraceSpan {
  uint64_t trace_id = 0;
  std::string stage;       // "source", "queue", "intake", "assign0", ...
  std::string where;       // joint id / queue name / operator detail
  int partition = -1;
  int64_t start_us = 0;    // steady-clock micros
  int64_t duration_us = 0;
  int64_t records = 0;
  bool detail = false;     // detail spans overlap primaries
  std::string status = "ok";
};

/// Process-wide trace collector. Sampling rate 0 (the default) disables
/// tracing entirely; 1.0 samples every frame. Sampled spans go into a
/// bounded in-memory ring, dumpable as JSON for debugging stuck
/// pipelines.
class Tracer {
 public:
  static Tracer& Instance();

  /// [0, 1]; 0 disables. Applies to traces started after the call.
  void SetSamplingRate(double rate);
  double sampling_rate() const;

  /// One relaxed load; true iff some frames are being sampled.
  // relaxed: standalone tuning knob (see SetSamplingRate).
  bool enabled() const {
    return sampling_permille_.load(std::memory_order_relaxed) > 0;
  }

  /// Mints a trace for a new frame, or a zero (unsampled) context when
  /// tracing is off or this frame loses the sampling draw.
  hyracks::TraceContext StartTrace();

  /// Records a span into the ring and its duration into the registry
  /// histogram `feed_stage_latency_us{stage=<stage>}`. Callers guard on
  /// span.trace_id != 0. Takes the tracer mutex — never call under a
  /// pipeline lock.
  void RecordSpan(TraceSpan span);

  /// Ring capacity in spans (default 64K). Shrinking drops oldest. The
  /// capacity's worst-case bytes are charged against the governor's
  /// "span_ring" pool (tracing must proceed, so an over-capacity resize
  /// is taken as a counted overdraft rather than an error).
  void SetRingCapacity(size_t capacity);

  std::vector<TraceSpan> Spans() const;
  std::vector<TraceSpan> SpansForTrace(uint64_t trace_id) const;

  /// Ids handed out by StartTrace since the last Reset, oldest first
  /// (bounded by the ring capacity).
  std::vector<uint64_t> StartedTraceIds() const;
  int64_t traces_started() const {
    // relaxed: monitoring read of a stats counter.
    return traces_started_.load(std::memory_order_relaxed);
  }

  /// Recent span trees as JSON: traces grouped by id, spans sorted by
  /// start time, newest traces last. At most `max_traces` trees.
  std::string DumpJson(size_t max_traces = 16) const;

  /// Clears spans, started ids and counters; keeps rate and capacity.
  void Reset();

 private:
  Tracer();

  common::Histogram* StageHistogramLocked(const std::string& stage)
      REQUIRES(mutex_);
  /// Trues the "span_ring" pool charge up/down to the current capacity's
  /// worst-case bytes (capacity * sizeof(TraceSpan)).
  void RechargeRingLocked() REQUIRES(mutex_);

  std::atomic<int> sampling_permille_{0};
  std::atomic<uint64_t> next_id_{1};
  std::atomic<int64_t> traces_started_{0};
  std::atomic<uint64_t> sample_counter_{0};  // fractional-rate stride

  // Resolved once at construction (Default() governor's "span_ring"
  // pool); reserve/release take the pool's leaf mutex (kMemGovernor),
  // which ranks below mutex_.
  common::MemPool* span_pool_ = nullptr;

  mutable common::Mutex mutex_{common::LockRank::kTracer};
  size_t ring_capacity_ GUARDED_BY(mutex_) = 64 * 1024;
  /// Bytes currently charged against span_pool_ for the ring bound.
  size_t ring_charged_ GUARDED_BY(mutex_) = 0;
  std::deque<TraceSpan> ring_ GUARDED_BY(mutex_);
  std::deque<uint64_t> started_ids_ GUARDED_BY(mutex_);
  // stage -> cached registry histogram (stable pointers).
  std::map<std::string, common::Histogram*> stage_histograms_
      GUARDED_BY(mutex_);
};

}  // namespace feeds
}  // namespace asterix

