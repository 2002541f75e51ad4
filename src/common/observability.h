// Process-wide observability: a registry of named counters, gauges and
// log-bucketed latency histograms with a Prometheus-style text exposition
// and a consistent Snapshot() API.
//
// Design constraints (mirrors the FailPoint discipline from PR 2):
//   * Recording on the hot path is lock-free: Counter::Add, Gauge::Set and
//     Histogram::Record are a handful of relaxed atomic ops and never take
//     a mutex, so they are safe to call from any thread while holding any
//     lock (including storage/queue mutexes).
//   * Metric objects are owned by the registry and never deallocated while
//     the registry lives; callers cache the returned pointers.
//   * Pull-style metrics (values derived from live objects, e.g. pending
//     intake bytes) register a provider callback; providers are evaluated
//     under the provider mutex at Snapshot()/Export() time and unregister
//     via an RAII handle, so a dead object can never be polled.
//
// Lock ordering: the registry uses TWO mutexes so its rank is coherent
// from both sides (see common/lock_rank.h).
//   * mutex_ (kMetricsRegistry, a leaf) guards the metric maps only. It
//     is safe to call Get* while holding any pipeline or storage lock.
//   * providers_mutex_ (kMetricsProviders, near the top of the feeds
//     band) guards the provider list. Snapshot()/Export()/List() hold it
//     while running the callbacks — which take object-level mutexes
//     (ConnectionMetrics, subscriber queues) — so code holding those
//     object locks must never call Snapshot()/Export()/List(), only the
//     lock-free record calls on cached pointers. mutex_ ranks below
//     providers_mutex_, so the export paths may nest them in that order.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace asterix {
namespace common {

/// Label set attached to a metric, e.g. {{"connection", "Feed->Sink"}}.
/// Order-insensitive: the registry canonicalises by sorting on key.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter.
// relaxed: metrics cells are export-only scalars — nothing is published
// through them and scrapes tolerate staleness, so no site needs
// ordering (applies to Counter and Gauge alike).
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time value that can move both ways.
class Gauge {
 public:
  // relaxed: see Counter — export-only metrics scalar.
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log2-bucketed latency histogram. Bucket i holds values in
/// (2^(i-1), 2^i]; bucket 0 holds values <= 1. 48 buckets cover any
/// microsecond duration we can produce. Record() is wait-free.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void Record(int64_t value);

  /// Upper bound of bucket i (for exposition).
  static int64_t BucketUpperBound(int i) { return int64_t{1} << i; }

 private:
  friend class MetricsRegistry;
  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// Immutable copy of one histogram, with quantile estimation. Quantiles
/// are bucket upper bounds clamped by the tracked max, which guarantees
/// Quantile(a) <= Quantile(b) <= Max() for a <= b.
struct HistogramSnapshot {
  std::array<int64_t, Histogram::kBuckets> buckets{};
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;

  /// q in [0, 1]. Returns 0 when empty.
  int64_t Quantile(double q) const;
  double Mean() const { return count == 0 ? 0.0 : double(sum) / double(count); }
};

/// Consistent point-in-time copy of every registered metric, including
/// provider-backed ones. Keys are canonical `name{k="v",...}` strings;
/// use the lookup helpers rather than building keys by hand.
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Canonical key for a (name, labels) pair: labels sorted by key,
  /// values escaped, `name` alone when labels are empty.
  static std::string Key(const std::string& name, const MetricLabels& labels);

  /// Value lookups; counters/gauges return 0 when absent, histogram
  /// lookup returns nullptr when absent.
  int64_t CounterValue(const std::string& name,
                       const MetricLabels& labels = {}) const;
  int64_t GaugeValue(const std::string& name,
                     const MetricLabels& labels = {}) const;
  const HistogramSnapshot* Histogram(const std::string& name,
                                     const MetricLabels& labels = {}) const;
};

/// One registered metric, for enumeration (the metrics-smoke harness
/// cross-checks this list against the Export() text).
struct MetricInfo {
  std::string kind;    // "counter" | "gauge" | "histogram"
  std::string name;
  std::string labels;  // canonical `{k="v",...}` or "" when unlabeled
};

class MetricsRegistry {
 public:
  enum class ProviderKind { kCounter, kGauge };

  /// RAII registration of a pull-style metric. Destroying (or Reset()-ing)
  /// the handle removes the provider under the registry mutex, so after it
  /// returns no further callback invocation is possible.
  class ProviderHandle {
   public:
    ProviderHandle() = default;
    ProviderHandle(ProviderHandle&& other) noexcept;
    ProviderHandle& operator=(ProviderHandle&& other) noexcept;
    ProviderHandle(const ProviderHandle&) = delete;
    ProviderHandle& operator=(const ProviderHandle&) = delete;
    ~ProviderHandle() { Reset(); }
    void Reset();

   private:
    friend class MetricsRegistry;
    ProviderHandle(MetricsRegistry* registry, int64_t id)
        : registry_(registry), id_(id) {}
    MetricsRegistry* registry_ = nullptr;
    int64_t id_ = 0;
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by the runtime. Tests may construct
  /// their own instances for isolation.
  static MetricsRegistry& Default();

  /// Get-or-create. Returned pointers are stable for the registry's
  /// lifetime — cache them and record lock-free.
  Counter* GetCounter(const std::string& name, const MetricLabels& labels = {});
  Gauge* GetGauge(const std::string& name, const MetricLabels& labels = {});
  Histogram* GetHistogram(const std::string& name,
                          const MetricLabels& labels = {});

  /// Registers a callback evaluated at Snapshot()/Export() time. The
  /// callback must stay valid until the returned handle is destroyed.
  ProviderHandle RegisterProvider(const std::string& name, ProviderKind kind,
                                  const MetricLabels& labels,
                                  std::function<int64_t()> fn);

  /// Point-in-time copy of everything (owned metrics + providers).
  MetricsSnapshot Snapshot() const;

  /// Prometheus text exposition format (one `# TYPE` line per metric
  /// name; histograms emit cumulative `_bucket{le=...}`, `_sum`,
  /// `_count`).
  std::string Export() const;

  /// Enumerates every registered metric (owned and provider-backed).
  std::vector<MetricInfo> List() const;

 private:
  struct Provider {
    int64_t id;
    ProviderKind kind;
    std::string key;  // canonical name{labels}
    std::string name;
    std::function<int64_t()> fn;
  };

  void Unregister(int64_t id) EXCLUDES(providers_mutex_);

  /// Provider list lock; held while callbacks run so ProviderHandle::Reset
  /// still guarantees no further invocation after it returns.
  mutable common::Mutex providers_mutex_{common::LockRank::kMetricsProviders};
  /// Metric-map lock, a leaf: Get* may run under any pipeline/storage lock.
  mutable common::Mutex mutex_{common::LockRank::kMetricsRegistry};
  // key -> metric; unique_ptr keeps addresses stable across rehash.
  std::map<std::string, std::unique_ptr<Counter>> counters_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      GUARDED_BY(mutex_);
  // key -> bare metric name (for # TYPE grouping in Export()).
  std::map<std::string, std::string> names_ GUARDED_BY(mutex_);
  std::vector<Provider> providers_ GUARDED_BY(providers_mutex_);
  int64_t next_provider_id_ GUARDED_BY(providers_mutex_) = 1;
};

}  // namespace common
}  // namespace asterix

