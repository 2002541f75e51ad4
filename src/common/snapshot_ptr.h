// SnapshotPtr<T>: an atomic publication slot for immutable copy-on-write
// snapshots (the joint's routing table, the MemGovernor exhaustion
// callback). Readers load() a shared_ptr to the current snapshot;
// writers publish a replacement with store().
//
// Rank exemption: SnapshotPtr carries NO LockRank. Its lock bit guards
// one shared_ptr refcount operation and is never held across another
// acquisition, so there is nothing for the deadlock detector to order.
// The linter's SPIN-PARK check confines raw atomic spin loops to this
// header (and the atomic shim), where the one spin is bounded by that
// refcount operation and yields when the holder is descheduled.
#pragma once

#include <memory>
#include <utility>

#include "common/atomic_shim.h"

// Historical-bug mutation (tests/model/ regression seed ONLY): it
// reintroduces the relaxed unlock that forced this class to exist, and
// the model checker must find it within its exploration budget. It is a
// compile error outside model builds so a stray define can never weaken
// production code.
#if defined(ASTERIX_MC_BUG_RELAXED_UNLOCK) && !defined(ASTERIX_MODEL_CHECK)
#error "ASTERIX_MC_BUG_* mutations are only legal under ASTERIX_MODEL_CHECK"
#endif

namespace asterix {
namespace common {

/// Atomic publication slot for immutable copy-on-write snapshots:
/// readers `load()` a shared_ptr to the current snapshot, writers
/// publish a replacement with `store()`. The narrow load/store surface
/// of std::atomic<std::shared_ptr<T>>, which it deliberately replaces.
///
/// Why not std::atomic<std::shared_ptr<T>>: libstdc++'s _Sp_atomic
/// guards a PLAIN pointer field with an embedded one-word lock bit, and
/// its load() releases that lock with a RELAXED fetch_sub
/// (bits/shared_ptr_atomic.h). A relaxed unlock synchronizes-with
/// nothing, so a reader's plain pointer read and the NEXT writer's
/// plain pointer write carry no happens-before edge — a formal data
/// race under the C++ memory model that only the hardware's temporal
/// mutual exclusion on the lock bit papers over. ThreadSanitizer
/// (correctly) reports it. This class is the same lock-bit design with
/// an acquire lock and a RELEASE unlock on BOTH paths, so consecutive
/// critical sections are ordered in every direction — for the model and
/// for TSan alike.
///
/// The spin is legitimate here (this header is the SPIN-PARK
/// allowlist): the critical section is one shared_ptr refcount
/// operation — a handful of instructions, no blocking call — so a
/// contender waits nanoseconds unless the holder is descheduled, and
/// then it yields its quantum instead of burning it.
template <typename T>
class SnapshotPtr {
 public:
  SnapshotPtr() = default;
  explicit SnapshotPtr(std::shared_ptr<T> initial)
      : ptr_(std::move(initial)) {}
  SnapshotPtr(const SnapshotPtr&) = delete;
  SnapshotPtr& operator=(const SnapshotPtr&) = delete;

  /// Returns the current snapshot. The refcount bump happens under the
  /// lock bit, so the snapshot cannot be released out from under the
  /// copy by a concurrent store().
  std::shared_ptr<T> load() const {
    Lock();
    std::shared_ptr<T> snapshot = ptr_.Copy();
    Unlock();
    return snapshot;
  }

  /// Publishes `next`. The displaced snapshot's refcount drop — and any
  /// destruction it triggers — runs after the lock bit is released, so
  /// a snapshot with a non-trivial destructor never extends the
  /// critical section.
  void store(std::shared_ptr<T> next) {
    Lock();
    ptr_.SwapWith(next);
    Unlock();
  }

 private:
  void Lock() const {
    // Test-and-test-and-set: the winning exchange's ACQUIRE pairs with
    // the RELEASE in Unlock, ordering the previous holder's ptr_ access
    // before this holder's.
    while (locked_.exchange(true, std::memory_order_acquire)) {
      SpinWaitWhile(locked_, true);
    }
  }

  void Unlock() const {
#ifdef ASTERIX_MC_BUG_RELAXED_UNLOCK
    // Mutation: libstdc++ _Sp_atomic's relaxed unlock — the data race
    // that forced this class to exist. The checker must flag the ptr_
    // access conflict between consecutive critical sections.
    locked_.store(false, std::memory_order_relaxed);
#else
    locked_.store(false, std::memory_order_release);
#endif
  }

  mutable Atomic<bool> locked_{false};
  DataCell<std::shared_ptr<T>> ptr_;  // guarded by locked_
};

}  // namespace common
}  // namespace asterix
