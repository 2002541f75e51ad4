// Metrics for a feed connection (Table 7.1's symbols): arrival,
// processing and persistence counters plus an interval-binned recorder for
// instantaneous throughput timelines (the Chapter 6/7 figures).
#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/observability.h"
#include "common/thread_annotations.h"

namespace asterix {
namespace feeds {

class SubscriberQueue;

/// Counts events into fixed-width time bins from a start instant;
/// Series() yields per-bin totals — an instantaneous-throughput timeline.
class IntervalCounter {
 public:
  explicit IntervalCounter(int64_t bin_width_ms = 250)
      : bin_width_ms_(bin_width_ms), start_ms_(common::NowMillis()) {}

  void Add(int64_t n = 1) { AddAtMillis(common::NowMillis(), n); }

  /// Records `n` events at wall instant `now_ms` (test seam; Add() passes
  /// the current clock).
  void AddAtMillis(int64_t now_ms, int64_t n = 1) {
    common::MutexLock lock(mutex_);
    // start_ms_ is read under the lock: a concurrent Reset() can move it
    // past `now_ms`, making the bin negative — clamp to the first bin
    // instead of indexing out of bounds.
    int64_t bin = (now_ms - start_ms_) / bin_width_ms_;
    if (bin < 0) bin = 0;
    if (bin >= static_cast<int64_t>(bins_.size())) {
      // Geometric growth so a laggard bin doesn't reallocate on every Add.
      size_t needed = static_cast<size_t>(bin) + 1;
      if (needed > bins_.capacity()) {
        bins_.reserve(std::max(needed, bins_.capacity() * 2 + 16));
      }
      bins_.resize(needed, 0);
    }
    bins_[static_cast<size_t>(bin)] += n;
  }

  /// Per-bin counts from the start instant to now.
  std::vector<int64_t> Series() const {
    common::MutexLock lock(mutex_);
    return bins_;
  }

  int64_t bin_width_ms() const { return bin_width_ms_; }
  int64_t start_ms() const {
    // Reset() moves the start instant; read it under the same lock.
    common::MutexLock lock(mutex_);
    return start_ms_;
  }

  void Reset() {
    common::MutexLock lock(mutex_);
    bins_.clear();
    start_ms_ = common::NowMillis();
  }

 private:
  const int64_t bin_width_ms_;
  mutable common::Mutex mutex_{common::LockRank::kIntervalCounter};
  int64_t start_ms_ GUARDED_BY(mutex_);
  std::vector<int64_t> bins_ GUARDED_BY(mutex_);
};

/// Shared runtime metrics for one feed connection. Operators update the
/// counters. Constructing with a connection id publishes each counter, and
/// the intake queues' pending bytes, into the process-wide registry as a
/// provider-backed metric labeled {connection=<id>}; the congestion
/// monitor reads feed_intake_pending_bytes through
/// MetricsRegistry::Snapshot(). In-process readers (the end-to-end
/// benchmark's store poller) load the atomics directly. The providers
/// unregister in the destructor, so a torn-down connection stops
/// exporting.
struct ConnectionMetrics {
  ConnectionMetrics() = default;
  /// Registers registry providers for this connection. An empty id skips
  /// registration (unpublished scratch metrics, e.g. in unit tests).
  explicit ConnectionMetrics(const std::string& connection_id);

  // r_a, r_c, r_s of Table 7.1: records arriving from the source, records
  // through the compute stage, records persisted+indexed.
  std::atomic<int64_t> records_collected{0};
  std::atomic<int64_t> records_computed{0};
  std::atomic<int64_t> records_stored{0};
  std::atomic<int64_t> soft_failures{0};
  std::atomic<int64_t> records_replayed{0};  // at-least-once re-sends

  /// Instantaneous persisted-records throughput.
  IntervalCounter store_timeline{250};

  /// Intake-side subscriber queues (one per intake partition), for the
  /// congestion monitor. Guarded by `mutex`.
  common::Mutex mutex{common::LockRank::kConnectionMetrics};
  std::vector<std::shared_ptr<SubscriberQueue>> intake_queues
      GUARDED_BY(mutex);

  void RegisterIntakeQueue(std::shared_ptr<SubscriberQueue> queue) {
    common::MutexLock lock(mutex);
    intake_queues.push_back(std::move(queue));
  }
  std::vector<std::shared_ptr<SubscriberQueue>> IntakeQueues() {
    common::MutexLock lock(mutex);
    return intake_queues;
  }
  void ClearIntakeQueues() {
    common::MutexLock lock(mutex);
    intake_queues.clear();
  }

 private:
  // Declared last so providers unregister before any field they read is
  // destroyed.
  std::vector<common::MetricsRegistry::ProviderHandle> provider_handles_;
};

}  // namespace feeds
}  // namespace asterix

