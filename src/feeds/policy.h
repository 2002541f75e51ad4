// Ingestion policies: a collection of (parameter, value) pairs dictating a
// feed's runtime behaviour under resource bottlenecks and failures
// (Tables 4.1 and 4.2). Users pick a built-in policy or derive a custom
// one by overriding parameters of an existing policy.
#pragma once

#include <map>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace asterix {
namespace feeds {

/// How a congestion point handles excess records (Table 4.2).
enum class ExcessMode {
  kBlock,     // Basic: buffer in memory (bounded by budget)
  kSpill,     // Spill: write excess to local disk, process later
  kDiscard,   // Discard: drop excess until the backlog clears
  kThrottle,  // Throttle: randomly sample records to match capacity
  kElastic,   // Elastic: scale the compute stage out/in
};

const char* ExcessModeName(ExcessMode mode);

class IngestionPolicy {
 public:
  // Policy parameter keys (Table 4.1 plus the Chapter 6/7 extensions).
  static constexpr const char* kExcessRecordsSpill = "excess.records.spill";
  static constexpr const char* kExcessRecordsDiscard =
      "excess.records.discard";
  static constexpr const char* kExcessRecordsThrottle =
      "excess.records.throttle";
  static constexpr const char* kExcessRecordsElastic =
      "excess.records.elastic";
  static constexpr const char* kRecoverSoftFailure = "recover.soft.failure";
  static constexpr const char* kRecoverHardFailure = "recover.hard.failure";
  static constexpr const char* kAtLeastOnceEnabled =
      "at.least.once.enabled";
  static constexpr const char* kMaxSpillSizeOnDisk =
      "max.spill.size.on.disk";
  static constexpr const char* kMemoryBudget = "memory.budget";
  static constexpr const char* kSoftFailureLogData = "soft.failure.log.data";
  static constexpr const char* kMaxConsecutiveSoftFailures =
      "max.consecutive.soft.failures";
  static constexpr const char* kThrottleSamplingRate =
      "throttle.sampling.rate";
  static constexpr const char* kAckWindowMs = "ack.window.ms";
  static constexpr const char* kAckTimeoutMs = "ack.timeout.ms";

  IngestionPolicy() = default;
  IngestionPolicy(std::string name,
                  std::map<std::string, std::string> params)
      : name_(std::move(name)), params_(std::move(params)) {}

  const std::string& name() const { return name_; }
  const std::map<std::string, std::string>& params() const {
    return params_;
  }

  void Set(const std::string& key, const std::string& value) {
    params_[key] = value;
  }

  bool GetBool(const std::string& key, bool default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;

  /// The excess-record mode implied by the excess.records.* flags.
  /// Priority (first set wins): spill, discard, throttle, elastic;
  /// none set = kBlock (the Basic policy).
  ExcessMode excess_mode() const;

  bool recover_soft_failure() const {
    return GetBool(kRecoverSoftFailure, true);
  }
  bool recover_hard_failure() const {
    return GetBool(kRecoverHardFailure, true);
  }
  bool at_least_once() const { return GetBool(kAtLeastOnceEnabled, false); }
  bool log_soft_failures_to_dataset() const {
    return GetBool(kSoftFailureLogData, false);
  }
  /// Bytes of excess the Spill policy may park on disk (then: fail or
  /// fall back to throttling if excess.records.throttle is also set).
  int64_t max_spill_bytes() const {
    return GetInt(kMaxSpillSizeOnDisk, 512LL << 20);
  }
  /// In-memory excess budget for the Basic policy, in bytes.
  int64_t memory_budget_bytes() const {
    return GetInt(kMemoryBudget, 32LL << 20);
  }
  int64_t max_consecutive_soft_failures() const {
    return GetInt(kMaxConsecutiveSoftFailures, 64);
  }
  /// Ack grouping window and replay timeout (at-least-once, §5.6).
  int64_t ack_window_ms() const { return GetInt(kAckWindowMs, 100); }
  int64_t ack_timeout_ms() const { return GetInt(kAckTimeoutMs, 2000); }

 private:
  std::string name_;
  std::map<std::string, std::string> params_;
};

// --- Congestion decision logic (Ch. 7) -------------------------------------
//
// The raw decision functions used by the congestion monitor and the
// throttle excess mode, factored out so they can be driven from a
// synthetic MetricsRegistry::Snapshot in tests. Thresholds relative to
// the policy's memory budget B:
//   * congestion when pending intake bytes > B / kCongestionBudgetDivisor
//   * idle when pending < (B / kCongestionBudgetDivisor) / kIdleDivisor
//   * scale out after kElasticScaleOutStreak consecutive congested ticks
//     (if compute width < alive nodes)
//   * scale in after kElasticScaleInStreak consecutive idle ticks (if
//     width > the connection's initial width)
//   * throttling engages when the queue is over budget or more than half
//     full; keep probability = clamp(1 - fill, kThrottleMinKeep, 1).

inline constexpr int kElasticScaleOutStreak = 3;
inline constexpr int kElasticScaleInStreak = 20;
inline constexpr int kCongestionBudgetDivisor = 4;
// A pull source (a file) reads ahead of each subscriber queue by at most
// B / kReadAheadBudgetDivisor pending bytes before it waits
// (SubscriberQueue::ReadAheadFull). Its excess exists only because it
// was read too fast, so a larger read-ahead buys nothing but memory.
inline constexpr int kReadAheadBudgetDivisor = 8;
inline constexpr int kIdleDivisor = 8;
inline constexpr double kThrottleMinKeep = 0.05;

/// Signals one monitor tick feeds into the Elastic decision (values read
/// from a MetricsRegistry snapshot plus cluster state).
struct CongestionSignals {
  int64_t intake_pending_bytes = 0;
  int compute_width = 1;
  int initial_compute_width = 1;
  int alive_nodes = 1;
};

/// Streak accumulators, persisted across ticks by the caller.
struct CongestionState {
  int congestion_streak = 0;
  int idle_streak = 0;
};

enum class ScaleDecision { kNone, kScaleOut, kScaleIn };

/// Applies one monitor tick. Updates `state`'s streaks and returns the
/// rescale decision (resetting the triggering streak). Non-Elastic
/// policies always return kNone.
ScaleDecision EvaluateElastic(const CongestionSignals& signals,
                              const IngestionPolicy& policy,
                              CongestionState* state);

/// Keep probability the Throttle excess mode applies to an arriving
/// frame: 1.0 while the queue is under half its budget and the frame
/// fits, else falling linearly with queue fill, floored at
/// kThrottleMinKeep.
double ThrottleKeepProbability(int64_t pending_bytes, int64_t incoming_bytes,
                               int64_t memory_budget_bytes);

/// The registry of built-in + user-created policies (the policy slice of
/// the Metadata dataverse).
class PolicyRegistry {
 public:
  /// Registers Basic, Spill, Discard, Throttle, Elastic, FaultTolerant.
  PolicyRegistry();

  /// `create ingestion policy <name> from policy <base> (overrides)`.
  [[nodiscard]] common::Status Create(const std::string& name, const std::string& base,
                        std::map<std::string, std::string> overrides);

  [[nodiscard]] common::Result<IngestionPolicy> Find(const std::string& name) const;

 private:
  mutable common::Mutex mutex_{common::LockRank::kPolicyRegistry};
  std::map<std::string, IngestionPolicy> policies_ GUARDED_BY(mutex_);
};

}  // namespace feeds
}  // namespace asterix

