// Bounded MPMC blocking queue: the one queue type in src/. It carries the
// task pump's input frames, the FramePool free lists, the TweetGen
// channel and the Storm baseline's tuple queues. Bounded capacity is the
// engine's back-pressure (the "Basic" ingestion policy): Push blocks on a
// full queue until a consumer makes room.
//
// Items live in a vector with a read cursor (live items are
// items_[head_, size)), the idiom SubscriberQueue uses for its FIFO. The
// cursor resets when the queue empties and a mostly-consumed prefix is
// compacted away, so the vector's capacity survives drains: a warm queue
// allocates nothing, and a consumer that never empties it cannot grow it
// without bound.
//
// The mutex carries the fixed leaf rank kBlockingQueue: nothing is ever
// acquired under it, so a queue may be used while holding any other lock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"

namespace asterix {
namespace common {

template <typename T>
class BlockingQueue {
 public:
  explicit BlockingQueue(size_t capacity = SIZE_MAX) : capacity_(capacity) {}

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Blocks until space is available or the queue is closed.
  /// Returns false if the queue was closed.
  bool Push(T item) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    not_full_.Wait(mutex_, [this]() REQUIRES(mutex_) {
      return closed_ || SizeLocked() < capacity_;
    });
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.NotifyOne();
    return true;
  }

  /// Non-blocking push. Returns false (item not consumed) when full/closed.
  bool TryPush(T item) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (closed_ || SizeLocked() >= capacity_) return false;
    items_.push_back(std::move(item));
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    not_empty_.Wait(mutex_, [this]() REQUIRES(mutex_) {
      return closed_ || SizeLocked() > 0;
    });
    if (SizeLocked() == 0) return std::nullopt;  // closed and drained
    return TakeFrontLocked();
  }

  /// Pop with a deadline; nullopt on timeout or on closed-and-drained.
  std::optional<T> PopFor(std::chrono::milliseconds timeout)
      EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (!not_empty_.WaitFor(mutex_, timeout, [this]() REQUIRES(mutex_) {
          return closed_ || SizeLocked() > 0;
        })) {
      return std::nullopt;
    }
    if (SizeLocked() == 0) return std::nullopt;
    return TakeFrontLocked();
  }

  std::optional<T> TryPop() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (SizeLocked() == 0) return std::nullopt;
    return TakeFrontLocked();
  }

  /// Blocks until at least one item is available (or the queue is closed
  /// and drained), then appends everything queued to `*out` under one
  /// lock acquisition. A caller that clears and reuses `*out` pays no
  /// heap allocation once its capacity reaches the high-water batch size.
  /// Returns the number appended; 0 only when closed and drained.
  size_t PopAllInto(std::vector<T>* out) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    not_empty_.Wait(mutex_, [this]() REQUIRES(mutex_) {
      return closed_ || SizeLocked() > 0;
    });
    return DrainLocked(out);
  }

  /// Non-blocking drain of everything currently queued.
  std::vector<T> TryPopAll() EXCLUDES(mutex_) {
    std::vector<T> drained;
    MutexLock lock(mutex_);
    drained.reserve(SizeLocked());
    DrainLocked(&drained);
    return drained;
  }

  /// Closes the queue: pending Pops drain remaining items then return
  /// nullopt; all Pushes fail. Idempotent.
  void Close() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    closed_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }

  size_t size() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return SizeLocked();
  }

  size_t capacity() const { return capacity_; }

  bool empty() const { return size() == 0; }

 private:
  size_t SizeLocked() const REQUIRES(mutex_) { return items_.size() - head_; }

  /// Removes the oldest item. Caller holds mutex_ and checked non-empty.
  T TakeFrontLocked() REQUIRES(mutex_) {
    T item = std::move(items_[head_++]);
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ * 2 >= items_.size()) {
      // Erasing the consumed prefix keeps the capacity and moves no more
      // items than were popped since the last compaction.
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    not_full_.NotifyOne();
    return item;
  }

  /// Moves every queued item onto `*out`. Caller holds mutex_.
  size_t DrainLocked(std::vector<T>* out) REQUIRES(mutex_) {
    const size_t n = SizeLocked();
    for (size_t i = head_; i < items_.size(); ++i) {
      out->push_back(std::move(items_[i]));
    }
    items_.clear();
    head_ = 0;
    if (n > 0) not_full_.NotifyAll();
    return n;
  }

  const size_t capacity_;
  mutable Mutex mutex_{LockRank::kBlockingQueue};
  CondVar not_empty_;
  CondVar not_full_;
  std::vector<T> items_ GUARDED_BY(mutex_);
  size_t head_ GUARDED_BY(mutex_) = 0;
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace common
}  // namespace asterix
