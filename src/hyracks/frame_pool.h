// FramePool: recycles the two allocations behind every frame on the
// pump -> joint -> subscriber path — the shared_ptr control block + Frame
// object (one allocate_shared block) and the record vector's element
// buffer — so the steady-state frame path performs ZERO heap allocations
// once warm (tests/mem_test.cc asserts exactly that with the allocation
// interposer).
//
// Recycling protocol:
//   * MakeFrame allocates the Frame through a single-size block
//     allocator whose free list is a bounded BlockingQueue<void*>. The
//     block size is learned from the first allocation (every
//     allocate_shared<Frame> request is the same size); odd-size
//     requests fall through to operator new.
//   * A pooled Frame remembers its pool; ~Frame (which runs when the
//     LAST subscriber drops its FramePtr) hands the record vector back,
//     clearing the elements but keeping the capacity. FrameAppender
//     re-acquires that capacity for the next frame it builds.
//
// Budget contract (MemGovernor "frame_path" pool): the pool charges only
// RETAINED memory — bytes parked in its free lists. Live frames are
// accounted where they queue (SubscriberQueue budgets); a frame in
// flight is owned by the pipeline, not the pool. Consequences:
//   * MakeFrame / AcquireRecords never fail — reuse RELEASES budget.
//   * Recycling is best-effort: if the budget refuses the retained
//     bytes (or a free list is full), the memory is simply freed.
//     A starved "frame_path" pool therefore degrades the pool to a
//     pass-through allocator, never an error.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "adm/value.h"
#include "common/mem_governor.h"
#include "common/blocking_queue.h"
#include "hyracks/frame.h"

namespace asterix {
namespace hyracks {

class FramePool {
 public:
  /// `budget` may be null (unbudgeted pool; unit tests). Capacities are
  /// free-list slots: blocks ~= frames simultaneously retained, vectors
  /// likewise.
  explicit FramePool(common::MemPool* budget = nullptr,
                     size_t max_blocks = 4096, size_t max_vectors = 4096);
  ~FramePool();
  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// An empty record vector, with recycled capacity when available.
  std::vector<adm::Value> AcquireRecords();

  /// Pooled MakeFrame: same overload set as the free functions in
  /// frame.h, but the Frame lives in a recycled block and returns its
  /// record buffer here on destruction.
  FramePtr MakeFrame(std::vector<adm::Value> records);
  FramePtr MakeFrame(std::vector<adm::Value> records, size_t approx_bytes);
  FramePtr MakeFrame(std::vector<adm::Value> records, TraceContext trace);
  FramePtr MakeFrame(std::vector<adm::Value> records, size_t approx_bytes,
                     TraceContext trace,
                     std::vector<int64_t> tracking_ids = {});

  // --- stats (tests + bench) ---
  // relaxed: monitoring reads of independent stats counters/gauges; no
  // caller orders program state by them (applies to all six accessors).
  int64_t block_hits() const {
    return block_hits_.load(std::memory_order_relaxed);
  }
  int64_t block_misses() const {
    return block_misses_.load(std::memory_order_relaxed);
  }
  int64_t vector_hits() const {
    // relaxed: monitoring read (see block_hits).
    return vector_hits_.load(std::memory_order_relaxed);
  }
  int64_t vector_misses() const {
    // relaxed: monitoring read (see block_hits).
    return vector_misses_.load(std::memory_order_relaxed);
  }
  /// Recycle attempts refused by the memory budget (memory was freed
  /// instead of retained).
  // relaxed: monitoring read (see block_hits).
  int64_t budget_drops() const {
    return budget_drops_.load(std::memory_order_relaxed);
  }
  /// Bytes currently parked in the free lists (== this pool's charge
  /// against its budget).
  // relaxed: monitoring read (see block_hits).
  int64_t retained_bytes() const {
    return retained_bytes_.load(std::memory_order_relaxed);
  }

 private:
  friend class Frame;  // ~Frame returns its record vector via RecycleRecords

  /// Minimal allocator over the block free list, for allocate_shared.
  /// Rebound by shared_ptr internals to its control-block type; every
  /// request through one FramePool therefore has one size.
  template <typename U>
  struct BlockAllocator {
    using value_type = U;
    explicit BlockAllocator(FramePool* p) : pool(p) {}
    template <typename V>
    BlockAllocator(const BlockAllocator<V>& other)  // NOLINT(runtime/explicit)
        : pool(other.pool) {}
    U* allocate(size_t n) {
      static_assert(alignof(U) <= alignof(std::max_align_t),
                    "block free list serves default-aligned types only");
      return static_cast<U*>(pool->AllocateBlock(n * sizeof(U)));
    }
    void deallocate(U* p, size_t n) {
      pool->DeallocateBlock(p, n * sizeof(U));
    }
    template <typename V>
    bool operator==(const BlockAllocator<V>& other) const {
      return pool == other.pool;
    }
    FramePool* pool;
  };

  void* AllocateBlock(size_t bytes);
  void DeallocateBlock(void* block, size_t bytes);
  /// Called from ~Frame: clears the elements, keeps the capacity if the
  /// budget accepts the retained bytes and the free list has room.
  void RecycleRecords(std::vector<adm::Value>&& records);

  common::MemPool* const budget_;
  /// allocate_shared request size, learned on first allocation (0 until
  /// then). All pooled frames share it.
  std::atomic<size_t> block_size_{0};
  common::BlockingQueue<void*> blocks_;
  common::BlockingQueue<std::vector<adm::Value>> vectors_;
  std::atomic<int64_t> block_hits_{0};
  std::atomic<int64_t> block_misses_{0};
  std::atomic<int64_t> vector_hits_{0};
  std::atomic<int64_t> vector_misses_{0};
  std::atomic<int64_t> budget_drops_{0};
  std::atomic<int64_t> retained_bytes_{0};
};

}  // namespace hyracks
}  // namespace asterix
