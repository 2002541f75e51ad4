// Lock-free data plane: the bounded MPMC frame ring for the task pump's
// hot hand-off, the copy-on-write snapshot slot behind the joint's
// fan-out, plus the parking layer that lets consumers block when idle
// instead of spinning.
//
// Three components:
//
//   * EventCount — a Dekker-style wait/notify gate (condvar fallback of a
//     futex eventcount). Waiters announce themselves with a sequenced
//     epoch read; notifiers bump the epoch and only touch the condvar
//     when a waiter is registered, so the notify fast path with no waiter
//     is one seq_cst load. This is the ONLY place the data plane takes a
//     mutex, and that mutex is the dedicated leaf rank kQueueParking:
//     nothing is ever acquired under it, so it can be taken while holding
//     any other lock in the system.
//
//   * MpmcQueue<T> — a bounded Vyukov MPMC ring. Each slot carries a
//     sequence counter; the slot protocol (below) makes a push/pop pair a
//     single CAS plus one release store, with no mutex on the fast path.
//     Batch APIs (TryPushN / PopAllBounded / PopAll) match
//     BlockingQueue's batching semantics so the pump-side "one wakeup
//     drains everything" speedup carries over.
//
//   * SnapshotPtr<T> — an atomic publication slot for immutable
//     copy-on-write snapshots (the joint's routing table).
//
// The joint -> subscriber hand-off does not use these: a subscriber
// queue applies its ingestion policy under its own mutex on every frame
// anyway, so it keeps a plain FIFO under that mutex (feeds/subscriber.h).
//
// Slot sequence protocol (the memory-ordering argument, also in
// DESIGN.md): slot i stores seq. Initially seq = i. Invariants:
//
//     seq == pos          slot is FREE for the producer whose ticket is
//                         pos (ticket = enqueue_pos_ value it CASed)
//     seq == pos + 1      slot is FULL for the consumer whose ticket is
//                         pos (ticket = dequeue_pos_ value it CASed)
//     otherwise           another thread's ticket owns the slot; retry
//                         with a fresh ticket or report empty/full
//
// A producer that wins the CAS on enqueue_pos_ owns slot
// (ticket & mask) exclusively: no other producer can obtain the same
// ticket, and consumers spin out until seq becomes ticket + 1. It
// constructs the element, then publishes with a RELEASE store of
// seq = ticket + 1. The consumer's ACQUIRE load of seq synchronizes
// with that store, so the element construction happens-before the
// consumer's read — the element itself needs no atomics. The consumer
// frees the slot for the next lap with a release store of
// seq = ticket + capacity. Ticket counters only move forward via CAS,
// so every (ticket, slot) pairing is unique: ABA cannot occur within
// 2^64 operations.
//
// Rank exemption: MpmcQueue and SnapshotPtr themselves carry NO LockRank —
// there is nothing to rank; the fast path performs no acquisition the
// deadlock detector could order. The parking mutex inside EventCount is
// ranked kQueueParking (the lowest rank in the table) so the slow path
// stays visible to the runtime checker. The linter's SPIN-PARK check
// keeps raw atomic spin loops confined to this header, where every spin
// is bounded and falls back to parking.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "common/atomic_shim.h"
#include "common/thread_annotations.h"

// Historical-bug mutations (tests/model/ regression seeds ONLY). Each
// reintroduces a real bug a past PR shipped and fixed; the model checker
// must find every one within its exploration budget, proving it would
// have caught them. They are compile errors outside model builds so a
// stray define can never weaken production code.
#if (defined(ASTERIX_MC_BUG_LOST_WAKEUP) ||  \
     defined(ASTERIX_MC_BUG_WAITER_LEAK) ||  \
     defined(ASTERIX_MC_BUG_RELAXED_UNLOCK)) && \
    !defined(ASTERIX_MODEL_CHECK)
#error "ASTERIX_MC_BUG_* mutations are only legal under ASTERIX_MODEL_CHECK"
#endif

namespace asterix {
namespace common {

/// Condvar-backed eventcount: the parking/wakeup layer under the
/// lock-free rings. Usage (the standard prepare/recheck/commit dance):
///
///     uint64_t epoch = ec.PrepareWait();
///     if (condition_now_true()) { ec.CancelWait(); return; }
///     ec.Wait(epoch);            // or ec.WaitFor(epoch, timeout)
///
/// Notify() is cheap when nobody waits: one seq_cst fence + one load of
/// the waiter count. The fence pairing between PrepareWait's seq_cst
/// fetch_add and the fence in NotifyAll guarantees a notifier either
/// sees the waiter (and takes the mutex to wake it) or the waiter's
/// recheck sees the notifier's state change — never neither.
class EventCount {
 public:
  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Registers this thread as a prospective waiter and returns the epoch
  /// to pass to Wait(). The caller MUST then re-check its condition and
  /// either Wait() or CancelWait().
  uint64_t PrepareWait() {
    waiters_.fetch_add(1, std::memory_order_seq_cst);
    return epoch_.load(std::memory_order_acquire);
  }

  void CancelWait() { waiters_.fetch_sub(1, std::memory_order_seq_cst); }

  /// Registered-waiter count (monitoring/tests). Transiently nonzero
  /// inside a PrepareWait..Wait/CancelWait window; a value that stays
  /// nonzero with no thread parked is a leaked registration, which
  /// permanently pessimizes the NotifyAll fast path.
  uint64_t waiters() const {
    return waiters_.load(std::memory_order_seq_cst);
  }

  /// Parks until the epoch moves past `epoch`. Consumes the PrepareWait
  /// registration.
  void Wait(uint64_t epoch) {
    MutexLock lock(mutex_);
    while (epoch_.load(std::memory_order_acquire) == epoch) {
      cv_.Wait(mutex_);
    }
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }

  /// Parks until the epoch moves or `timeout` elapses. Returns false on
  /// timeout. Consumes the PrepareWait registration either way.
  template <typename Rep, typename Period>
  bool WaitFor(uint64_t epoch,
               const std::chrono::duration<Rep, Period>& timeout) {
    auto deadline = SteadyNow() + timeout;
    bool woken = true;
    {
      MutexLock lock(mutex_);
      while (epoch_.load(std::memory_order_acquire) == epoch) {
        auto now = SteadyNow();
        if (now >= deadline) {
          woken = false;
          break;
        }
        (void)cv_.WaitFor(mutex_, deadline - now);
      }
    }
    waiters_.fetch_sub(1, std::memory_order_seq_cst);
    return woken;
  }

  /// Wakes every parked waiter (they re-check their condition). One
  /// fence + load when nobody waits.
  void NotifyAll() {
    // The caller's preceding condition change is typically only a
    // RELEASE store (closed_, a slot's seq, the subscriber's ended_),
    // and a release store followed by a load — even a seq_cst load —
    // may be StoreLoad-reordered (on x86 both compile to plain MOVs).
    // Without a full barrier here the notifier can read waiters_ == 0
    // while a concurrently registering waiter's recheck still reads the
    // stale condition: both sides miss and the waiter parks forever.
    // The seq_cst fence pairs with PrepareWait's seq_cst fetch_add
    // (the standard eventcount requirement): either this load observes
    // the registration, or the waiter's recheck observes the condition
    // change — never neither.
#ifndef ASTERIX_MC_BUG_LOST_WAKEUP  // mutation: drop the fence (PR 5 bug)
    AtomicFence(std::memory_order_seq_cst);
#endif
    if (waiters_.load(std::memory_order_seq_cst) == 0) return;
    {
      MutexLock lock(mutex_);
      epoch_.fetch_add(1, std::memory_order_release);
    }
    cv_.NotifyAll();
  }

 private:
  Atomic<uint64_t> epoch_{0};
  Atomic<uint64_t> waiters_{0};
  // The data plane's only mutex: a dedicated leaf rank, held for a few
  // instructions around the epoch bump / condvar wait.
  Mutex mutex_{LockRank::kQueueParking};
  CondVar cv_;
};

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

/// Bounded lock-free MPMC ring (Vyukov). Capacity is rounded up to a
/// power of two. Drop-in for the BlockingQueue hot-path surface:
/// Push/TryPush/Pop/PopAll/PopAllFor/TryPopAll/Close keep the same
/// semantics (Close lets consumers drain, then Pop returns nullopt and
/// PopAll returns empty; Push fails after Close).
template <typename T>
class MpmcQueue {
 public:
  explicit MpmcQueue(size_t capacity)
      : mask_(RoundUpPow2(capacity) - 1), slots_(mask_ + 1) {
    for (size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  ~MpmcQueue() {
    // Destroy whatever is still enqueued (no concurrent access by now).
    T item;
    while (TryPopInto(&item)) {
    }
  }

  size_t capacity() const { return mask_ + 1; }

  /// Approximate depth (exact when quiescent; transiently off by the
  /// number of in-flight operations otherwise). For monitoring only.
  size_t size() const {
    uint64_t tail = enqueue_pos_.load(std::memory_order_relaxed);
    uint64_t head = dequeue_pos_.load(std::memory_order_relaxed);
    return tail > head ? static_cast<size_t>(tail - head) : 0;
  }

  bool empty() const { return size() == 0; }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Prospective-consumer registrations on the not-empty gate
  /// (monitoring/tests): every timed-out or cancelled wait must return
  /// this to zero once no consumer is blocked.
  uint64_t consumer_waiters() const { return not_empty_.waiters(); }

  /// Non-blocking push. False when the ring is full or closed. The
  /// by-value overload consumes `item` either way; TryPushFrom leaves
  /// `item` intact on failure (for callers with a fallback path).
  bool TryPush(T item) { return TryPushFrom(item); }

  bool TryPushFrom(T& item) {
    if (closed()) return false;
    if (!TryPushQuiet(std::move(item))) return false;
    not_empty_.NotifyAll();
    return true;
  }

  /// Pushes as many of items[0..n) as fit, in order. Returns the number
  /// consumed (prefix); the rest stay with the caller. One wakeup for
  /// the whole batch.
  ///
  /// Bulk ticket claim: a run of free slots is *verified* first, then
  /// claimed with a single CAS on the producer ticket — one atomic RMW
  /// per batch instead of per item. The verify-then-claim is sound
  /// because a slot observed free at generation `pos` can only leave
  /// that state via a producer claiming it, which requires advancing
  /// enqueue_pos_ past it — exactly what our CAS rules out.
  size_t TryPushN(T* items, size_t n) {
    if (closed()) return 0;
    size_t pushed = 0;
    while (pushed < n) {
      uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
      const size_t limit = n - pushed;
      size_t run = 0;
      intptr_t first_dif = 0;
      while (run < limit) {
        uint64_t p = pos + run;
        uint64_t seq = slots_[p & mask_].seq.load(std::memory_order_acquire);
        intptr_t dif =
            static_cast<intptr_t>(seq) - static_cast<intptr_t>(p);
        if (dif != 0) {
          if (run == 0) first_dif = dif;
          break;
        }
        ++run;
      }
      if (run == 0) {
        if (first_dif > 0) continue;  // stale ticket read: reload
        break;                        // genuinely full
      }
      if (!enqueue_pos_.compare_exchange_strong(
              pos, pos + run, std::memory_order_relaxed)) {
        continue;  // another producer moved the ticket: re-verify
      }
      for (size_t k = 0; k < run; ++k) {
        uint64_t p = pos + k;
        Slot& slot = slots_[p & mask_];
        slot.value.Set(std::move(items[pushed + k]));
        slot.seq.store(p + 1, std::memory_order_release);
      }
      pushed += run;
    }
    if (pushed > 0) not_empty_.NotifyAll();
    return pushed;
  }

  /// Blocking push: parks (no spinning) until space frees up or the
  /// queue closes. False when closed.
  bool Push(T item) {
    for (int spin = 0; spin < kSpinLimit; ++spin) {
      if (closed()) return false;
      if (TryPushQuiet(std::move(item))) {
        not_empty_.NotifyAll();
        return true;
      }
      std::this_thread::yield();  // parking fallback below (SPIN-PARK)
    }
    for (;;) {
      if (closed()) return false;
      if (TryPushQuiet(std::move(item))) {
        not_empty_.NotifyAll();
        return true;
      }
      uint64_t epoch = not_full_.PrepareWait();
      if (closed() || !Full()) {
        not_full_.CancelWait();
        continue;
      }
      not_full_.Wait(epoch);
    }
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    T item;
    if (!TryPopInto(&item)) return std::nullopt;
    not_full_.NotifyAll();
    return item;
  }

  /// Blocking pop: drains even after Close; nullopt only when closed and
  /// drained.
  std::optional<T> Pop() {
    int spin = 0;
    for (;;) {
      std::optional<T> item = TryPop();
      if (item.has_value()) return item;
      if (closed()) {
        // Re-check: a racing producer may have published before Close.
        item = TryPop();
        return item;
      }
      if (spin < kSpinLimit) {
        ++spin;
        std::this_thread::yield();  // cedes the core to producers
        continue;
      }
      uint64_t epoch = not_empty_.PrepareWait();
      if (!empty() || closed()) {
        not_empty_.CancelWait();
        continue;
      }
      not_empty_.Wait(epoch);
    }
  }

  /// Pop with a deadline; nullopt on timeout or closed-and-drained.
  std::optional<T> PopFor(std::chrono::milliseconds timeout) {
    auto deadline = SteadyNow() + timeout;
    for (;;) {
      std::optional<T> item = TryPop();
      if (item.has_value()) return item;
      if (closed()) return TryPop();
      uint64_t epoch = not_empty_.PrepareWait();
      if (!empty() || closed()) {
        not_empty_.CancelWait();
        continue;
      }
      auto now = SteadyNow();
      if (now >= deadline) {
        // WaitFor never runs on this branch, so it cannot consume the
        // PrepareWait registration — release it here or waiters_ leaks
        // and every future NotifyAll takes the parking mutex.
#ifndef ASTERIX_MC_BUG_WAITER_LEAK  // mutation: re-leak it (PR 5 bug)
        not_empty_.CancelWait();
#endif
        return TryPop();  // last look on the way out
      }
      if (!not_empty_.WaitFor(epoch, deadline - now)) {
        return TryPop();
      }
    }
  }

  /// Drains up to `max` queued items without blocking. One producer-side
  /// wakeup for the whole batch — the batched-hand-off contract the pump
  /// loops rely on (BlockingQueue::PopAll's lock-free analogue).
  ///
  /// Bulk ticket claim, mirroring TryPushN: verify a run of published
  /// slots (seq == pos+1), claim the whole run with one CAS on the
  /// consumer ticket, then move the values out. Slots in a verified run
  /// cannot regress — consuming one requires advancing dequeue_pos_
  /// past it, which the CAS rules out; producers cannot reuse it until a
  /// consumer frees it. So CAS success means exclusive ownership of the
  /// full run: one atomic RMW per batch instead of per item.
  std::vector<T> PopAllBounded(size_t max) {
    std::vector<T> drained;
    PopAllBoundedInto(&drained, max);
    return drained;
  }

  /// PopAllBounded appending into the caller's vector — the zero-alloc
  /// drain: a pump that clears and reuses one batch vector pays no heap
  /// allocation per wakeup once the vector's capacity has grown to the
  /// high-water batch size. Returns the number of items appended.
  size_t PopAllBoundedInto(std::vector<T>* out, size_t max) {
    const size_t start = out->size();
    while (out->size() - start < max) {
      uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
      const size_t limit =
          std::min(max - (out->size() - start), capacity());
      size_t run = 0;
      intptr_t first_dif = 0;
      while (run < limit) {
        uint64_t p = pos + run;
        uint64_t seq = slots_[p & mask_].seq.load(std::memory_order_acquire);
        intptr_t dif =
            static_cast<intptr_t>(seq) - static_cast<intptr_t>(p + 1);
        if (dif != 0) {
          if (run == 0) first_dif = dif;
          break;
        }
        ++run;
      }
      if (run == 0) {
        if (first_dif > 0) continue;  // stale ticket read: reload
        break;                        // genuinely empty
      }
      if (!dequeue_pos_.compare_exchange_strong(
              pos, pos + run, std::memory_order_relaxed)) {
        continue;  // another consumer moved the ticket: re-verify
      }
      out->reserve(out->size() + run);
      for (size_t k = 0; k < run; ++k) {
        uint64_t p = pos + k;
        Slot& slot = slots_[p & mask_];
        // Take() also resets the slot: payload refs drop eagerly
        // (frames are counted).
        out->push_back(slot.value.Take());
        slot.seq.store(p + mask_ + 1, std::memory_order_release);
      }
      if (run < limit) break;  // partial run: nothing more published yet
    }
    const size_t appended = out->size() - start;
    if (appended > 0) not_full_.NotifyAll();
    return appended;
  }

  /// Non-blocking full drain.
  std::vector<T> TryPopAll() { return PopAllBounded(SIZE_MAX); }

  /// Blocks until at least one item is available (or closed), then
  /// drains everything queued. Empty only when closed and drained.
  std::vector<T> PopAll() {
    int spin = 0;
    for (;;) {
      std::vector<T> drained = TryPopAll();
      if (!drained.empty()) return drained;
      if (closed()) return TryPopAll();
      if (spin < kSpinLimit) {
        ++spin;
        std::this_thread::yield();  // cedes the core to producers
        continue;
      }
      uint64_t epoch = not_empty_.PrepareWait();
      if (!empty() || closed()) {
        not_empty_.CancelWait();
        continue;
      }
      not_empty_.Wait(epoch);
    }
  }

  /// Blocking PopAll appending into the caller's vector (see
  /// PopAllBoundedInto). Returns the number appended; 0 only when closed
  /// and drained.
  size_t PopAllInto(std::vector<T>* out) {
    int spin = 0;
    for (;;) {
      size_t appended = PopAllBoundedInto(out, SIZE_MAX);
      if (appended > 0) return appended;
      if (closed()) return PopAllBoundedInto(out, SIZE_MAX);
      if (spin < kSpinLimit) {
        ++spin;
        std::this_thread::yield();  // cedes the core to producers
        continue;
      }
      uint64_t epoch = not_empty_.PrepareWait();
      if (!empty() || closed()) {
        not_empty_.CancelWait();
        continue;
      }
      not_empty_.Wait(epoch);
    }
  }

  /// PopAll with a deadline; empty on timeout or closed-and-drained.
  std::vector<T> PopAllFor(std::chrono::milliseconds timeout) {
    auto deadline = SteadyNow() + timeout;
    for (;;) {
      std::vector<T> drained = TryPopAll();
      if (!drained.empty()) return drained;
      if (closed()) return TryPopAll();
      uint64_t epoch = not_empty_.PrepareWait();
      if (!empty() || closed()) {
        not_empty_.CancelWait();
        continue;
      }
      auto now = SteadyNow();
      if (now >= deadline) {
        not_empty_.CancelWait();  // WaitFor never ran; see PopFor
        return TryPopAll();
      }
      if (!not_empty_.WaitFor(epoch, deadline - now)) {
        return TryPopAll();
      }
    }
  }

  /// Closes the queue: Pushes fail, consumers drain then see empty.
  /// Idempotent.
  void Close() {
    closed_.store(true, std::memory_order_release);
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

 private:
  struct Slot {
    Atomic<uint64_t> seq{0};
    DataCell<T> value;
  };

  // On a single hardware thread spinning only burns the timeslice, so
  // the spin budget is deliberately tiny; parking does the real waiting.
  // Under TSan every instruction is ~10-20x slower and the scheduler is
  // already oversubscribed, so even a short yield loop can starve
  // unrelated timing-sensitive threads (heartbeats) — park immediately.
  // Under the model checker yields are no-ops and every atomic op costs
  // a scheduling decision, so spinning only inflates the state space.
#if defined(__SANITIZE_THREAD__) || defined(ASTERIX_MODEL_CHECK)
  static constexpr int kSpinLimit = 0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  static constexpr int kSpinLimit = 0;
#else
  static constexpr int kSpinLimit = 16;
#endif
#else
  static constexpr int kSpinLimit = 16;
#endif

  static size_t RoundUpPow2(size_t v) {
    size_t p = 2;  // capacity 1 would make `full` and `empty` coincide
    while (p < v && p < (size_t{1} << 62)) p <<= 1;
    return p;
  }

  bool Full() const { return size() >= capacity(); }

  /// TryPush without the wakeup (batch paths notify once). Moves from
  /// `item` only on success.
  bool TryPushQuiet(T&& item) {
    Slot* slot;
    uint64_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      uint64_t seq = slot->seq.load(std::memory_order_acquire);
      intptr_t dif =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(
                pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    slot->value.Set(std::move(item));
    slot->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// Core consumer step; no wakeup (callers batch their notifies).
  bool TryPopInto(T* out) {
    Slot* slot;
    uint64_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      uint64_t seq = slot->seq.load(std::memory_order_acquire);
      intptr_t dif = static_cast<intptr_t>(seq) -
                     static_cast<intptr_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(
                pos, pos + 1, std::memory_order_relaxed)) {
          break;
        }
      } else if (dif < 0) {
        return false;  // slot not yet published: empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    // Take() also resets the slot: payload refs drop eagerly (frames
    // are counted).
    *out = slot->value.Take();
    slot->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  const uint64_t mask_;
  std::vector<Slot> slots_;
  // Producer and consumer tickets. Kept apart from the slots so false
  // sharing between the two sides stays off the slot array.
  alignas(64) Atomic<uint64_t> enqueue_pos_{0};
  alignas(64) Atomic<uint64_t> dequeue_pos_{0};
  alignas(64) Atomic<bool> closed_{false};
  EventCount not_empty_;
  EventCount not_full_;
};

}  // namespace common
}  // namespace asterix
