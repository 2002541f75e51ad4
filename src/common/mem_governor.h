// MemGovernor: the central memory broker (ROADMAP item 3's MemMan-style
// manager). Every hot-path memory consumer — pooled frames, subscriber
// rings and their spill files, LSM memtables, merge inputs, the WAL, the
// tracer's span ring — draws from a *named pool* with a fixed byte
// capacity instead of allocating blind. Exhaustion is therefore a typed
// `Status::ResourceExhausted`, surfaced where the ingestion policies can
// act on it (Spill buffers to disk, Throttle sheds, Discard drops), not
// an allocator event.
//
// Concurrency design:
//   * Each pool grants, forces and releases under its own mutex, ranked
//     kMemGovernor: a leaf below every storage, feeds and tracer lock,
//     so any hot path may reserve or release while holding its own
//     lock. A grant is one short critical section on plain counters,
//     about one per frame. The invariant `used() <= capacity()` holds
//     at every instant (absent ForceReserve overdrafts) — the budget
//     property tests assert it concurrently.
//   * ForceReserve never fails: it can push `used` past capacity
//     (overdraft) for paths that must make progress regardless of budget
//     (spill restore, LSM merges). Overdrafts are counted and visible.
//   * Per-pool gauges (used/capacity/high-water) and counters
//     (exhausted/overdraft) are provider-backed in the MetricsRegistry;
//     the provider callbacks take the pool's leaf mutex only.
//
// The failpoint `common.memgov.reserve` forces TryReserve to report
// exhaustion; its policy instance selects the pool by name, so chaos
// tests can starve one pool (e.g. "frame_path") while others stay open.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/observability.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace asterix {
namespace common {

class MemGovernor;
class MemPool;

/// RAII holder of a pool reservation: releases its bytes back to the pool
/// when destroyed (or on explicit Release). Move-only — a lease can
/// change hands but never be double-released.
class MemLease {
 public:
  MemLease() = default;
  MemLease(MemLease&& other) noexcept
      : pool_(other.pool_), bytes_(other.bytes_) {
    other.pool_ = nullptr;
    other.bytes_ = 0;
  }
  MemLease& operator=(MemLease&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      bytes_ = other.bytes_;
      other.pool_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  MemLease(const MemLease&) = delete;
  MemLease& operator=(const MemLease&) = delete;
  ~MemLease() { Release(); }

  /// Returns the bytes to the pool now (idempotent).
  void Release();

  /// Relinquishes the lease WITHOUT releasing: the caller assumes the
  /// charge and owes the pool a matching Release(bytes). Returns the
  /// byte count transferred (0 if the lease held nothing).
  size_t Disown() {
    size_t bytes = bytes_;
    pool_ = nullptr;
    bytes_ = 0;
    return bytes;
  }

  bool held() const { return pool_ != nullptr; }
  size_t bytes() const { return bytes_; }

 private:
  friend class MemPool;
  MemLease(MemPool* pool, size_t bytes) : pool_(pool), bytes_(bytes) {}
  MemPool* pool_ = nullptr;
  size_t bytes_ = 0;
};

/// One named budget. Created and owned by a MemGovernor; pointers are
/// stable for the governor's lifetime, so consumers resolve their pool
/// once (constructor time) and then reserve/release under the pool's
/// own leaf mutex.
class MemPool {
 public:
  const std::string& name() const { return name_; }

  int64_t capacity() const EXCLUDES(mutex_);
  /// Runtime resize (tests, elastic reconfiguration). Shrinking below
  /// `used` is allowed: nothing is clawed back, but further TryReserve
  /// calls fail until enough is released.
  void SetCapacity(int64_t capacity_bytes) EXCLUDES(mutex_);

  int64_t used() const EXCLUDES(mutex_);
  int64_t available() const EXCLUDES(mutex_);
  int64_t high_water() const EXCLUDES(mutex_);
  int64_t exhausted_count() const EXCLUDES(mutex_);
  int64_t overdraft_count() const EXCLUDES(mutex_);

  /// Grants `bytes` if they fit within capacity, else ResourceExhausted;
  /// on OK the caller owes a matching Release(bytes).
  [[nodiscard]] Status TryReserve(size_t bytes) EXCLUDES(mutex_);

  /// TryReserve wrapped in an RAII lease (releases on scope exit).
  [[nodiscard]] Status TryLease(size_t bytes, MemLease* lease);

  /// Unconditional reservation for paths that must proceed regardless of
  /// budget (spill restore, merges). May push `used` past capacity; each
  /// overdrawn call is counted in overdraft_count().
  void ForceReserve(size_t bytes) EXCLUDES(mutex_);

  /// Returns bytes to the pool.
  void Release(size_t bytes) EXCLUDES(mutex_);

 private:
  friend class MemGovernor;
  explicit MemPool(std::string name, int64_t capacity_bytes);
  MemPool(const MemPool&) = delete;
  MemPool& operator=(const MemPool&) = delete;

  /// Counts a refusal and builds its status.
  Status Exhausted(size_t requested) EXCLUDES(mutex_);

  const std::string name_;
  mutable Mutex mutex_{LockRank::kMemGovernor};
  int64_t capacity_ GUARDED_BY(mutex_);
  int64_t used_ GUARDED_BY(mutex_) = 0;
  int64_t high_water_ GUARDED_BY(mutex_) = 0;
  int64_t exhausted_ GUARDED_BY(mutex_) = 0;
  int64_t overdraft_ GUARDED_BY(mutex_) = 0;
};

/// The broker: a registry of named pools plus the standard pool set used
/// by the runtime. Tests construct their own governors (with their own
/// MetricsRegistry) for isolation; production code uses Default().
class MemGovernor {
 public:
  // Standard pool names (the README "Memory governance" table and the
  // MEM-POOL lint rule stay in lockstep with these registrations).
  static constexpr const char* kFramePathPool = "frame_path";
  static constexpr const char* kMemtablePool = "memtable";
  static constexpr const char* kMergePool = "merge";
  static constexpr const char* kSpillPool = "spill";
  static constexpr const char* kSpanRingPool = "span_ring";
  static constexpr const char* kWalPool = "wal";

  /// `registry` may be null (no metrics export; unit tests).
  explicit MemGovernor(MetricsRegistry* registry);
  ~MemGovernor();
  MemGovernor(const MemGovernor&) = delete;
  MemGovernor& operator=(const MemGovernor&) = delete;

  /// Process-wide governor with the standard pools pre-registered
  /// (metrics in MetricsRegistry::Default()).
  static MemGovernor& Default();

  /// Get-or-create. On create the pool starts at `capacity_bytes`; an
  /// existing pool's capacity is left untouched. The returned pointer is
  /// stable for the governor's lifetime.
  MemPool* RegisterPool(const std::string& name, int64_t capacity_bytes)
      EXCLUDES(mutex_);

  /// Lookup only; nullptr when the pool was never registered.
  MemPool* GetPool(const std::string& name) const EXCLUDES(mutex_);

  std::vector<std::string> PoolNames() const EXCLUDES(mutex_);

 private:
  MetricsRegistry* const registry_;
  mutable Mutex mutex_{LockRank::kMemGovernor};
  // Declared before the provider handles so the handles (which capture
  // raw MemPool*) are destroyed first.
  std::map<std::string, std::unique_ptr<MemPool>> pools_ GUARDED_BY(mutex_);
  std::vector<MetricsRegistry::ProviderHandle> provider_handles_
      GUARDED_BY(mutex_);
};

}  // namespace common
}  // namespace asterix
