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
//   * TryReserve/Release are lock-free (a CAS loop on the pool's used
//     counter), so they are safe on any hot path while holding any lock.
//     The CAS (rather than fetch_add + rollback) keeps the observable
//     invariant `used() <= capacity()` true at every instant — the
//     budget property tests assert it concurrently.
//   * ReserveFor parks on a per-pool CondVar under a kMemGovernor-ranked
//     mutex; Release only touches that mutex when a waiter is registered
//     (Dekker-style eventcount handshake on `waiters_`). It
//     must be called with no locks held at rank <= kMemGovernor.
//   * ForceReserve never fails: it can push `used` past capacity
//     (overdraft) for paths that must make progress regardless of budget
//     (spill restore, LSM merges). Overdrafts are counted and visible.
//   * Per-pool gauges (used/capacity/high-water) and counters
//     (exhausted/overdraft) are provider-backed in the MetricsRegistry;
//     the provider callbacks read pool atomics only.
//
// The failpoint `common.memgov.reserve` forces TryReserve to report
// exhaustion; its policy instance selects the pool by name, so chaos
// tests can starve one pool (e.g. "frame_path") while others stay open.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/atomic_shim.h"
#include "common/observability.h"
#include "common/snapshot_ptr.h"  // lock-free callback swap
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
  ~MemLease() ASTERIX_MC_MAY_THROW { Release(); }

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
/// once (constructor time) and then reserve/release lock-free.
class MemPool {
 public:
  using ExhaustionCallback =
      std::function<void(const std::string& pool, size_t requested_bytes)>;

  const std::string& name() const { return name_; }

  int64_t capacity() const {
    // relaxed: monitoring read; TryChargeQuiet re-reads under its CAS.
    return capacity_.load(std::memory_order_relaxed);
  }
  /// Runtime resize (tests, elastic reconfiguration). Shrinking below
  /// `used` is allowed: nothing is clawed back, but further TryReserve
  /// calls fail until enough is released.
  void SetCapacity(int64_t capacity_bytes);

  // relaxed: monitoring gauge; the grant path orders via its own CAS.
  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t available() const { return capacity() - used(); }
  int64_t high_water() const {
    // relaxed: monitoring gauge, no gating decisions read it.
    return high_water_.load(std::memory_order_relaxed);
  }
  int64_t exhausted_count() const {
    // relaxed: monotonic stats counter for metrics export only.
    return exhausted_.load(std::memory_order_relaxed);
  }
  int64_t overdraft_count() const {
    // relaxed: monotonic stats counter for metrics export only.
    return overdraft_.load(std::memory_order_relaxed);
  }

  /// Lock-free reservation. ResourceExhausted (after invoking the
  /// governor's exhaustion callback) when the pool cannot cover `bytes`;
  /// on OK the caller owes a matching Release(bytes).
  [[nodiscard]] Status TryReserve(size_t bytes);

  /// TryReserve wrapped in an RAII lease (releases on scope exit).
  [[nodiscard]] Status TryLease(size_t bytes, MemLease* lease);

  /// Blocking reservation: parks until space frees up or `timeout_ms`
  /// elapses. Never returns OK past exhaustion — success always means
  /// the bytes fit within capacity at grant time. Must be called with no
  /// lock of rank <= kMemGovernor held.
  [[nodiscard]] Status ReserveFor(size_t bytes, int64_t timeout_ms)
      EXCLUDES(mutex_);

  /// Unconditional reservation for paths that must proceed regardless of
  /// budget (spill restore, merges). May push `used` past capacity; each
  /// overdrawn call is counted in overdraft_count().
  void ForceReserve(size_t bytes);

  /// Returns bytes to the pool and wakes ReserveFor waiters.
  void Release(size_t bytes);

 private:
  friend class MemGovernor;
  explicit MemPool(std::string name, int64_t capacity_bytes);
  MemPool(const MemPool&) = delete;
  MemPool& operator=(const MemPool&) = delete;

  /// CAS-grant within capacity; no failpoint, no callback.
  bool TryChargeQuiet(int64_t bytes);
  void NoteHighWater(int64_t used_now);
  Status Exhausted(size_t requested);

  const std::string name_;
  Atomic<int64_t> capacity_;
  Atomic<int64_t> used_{0};
  Atomic<int64_t> high_water_{0};
  Atomic<int64_t> exhausted_{0};
  Atomic<int64_t> overdraft_{0};
  /// ReserveFor registrations; Release takes mutex_ only when nonzero.
  Atomic<int64_t> waiters_{0};
  Mutex mutex_{LockRank::kMemGovernor};
  CondVar released_;
  /// Swapped in by MemGovernor::SetExhaustionCallback; loaded lock-free
  /// on the (cold) exhaustion path only.
  SnapshotPtr<const ExhaustionCallback> callback_;
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

  /// Policy hook invoked (outside any governor lock) every time a
  /// reservation is refused, with the pool name and the requested bytes.
  /// The callback must be lock-light: it runs on the reserving thread,
  /// which may hold storage/feeds locks.
  void SetExhaustionCallback(MemPool::ExhaustionCallback callback)
      EXCLUDES(mutex_);

 private:
  MetricsRegistry* const registry_;
  mutable Mutex mutex_{LockRank::kMemGovernor};
  // Declared before the provider handles so the handles (which capture
  // raw MemPool*) are destroyed first.
  std::map<std::string, std::unique_ptr<MemPool>> pools_ GUARDED_BY(mutex_);
  std::shared_ptr<const MemPool::ExhaustionCallback> callback_
      GUARDED_BY(mutex_);
  std::vector<MetricsRegistry::ProviderHandle> provider_handles_
      GUARDED_BY(mutex_);
};

}  // namespace common
}  // namespace asterix
