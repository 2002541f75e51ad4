#include "hyracks/frame_pool.h"

#include <new>
#include <utility>

namespace asterix {
namespace hyracks {

// Out-of-line so every translation unit that destroys a FramePtr shares
// this definition (the recycle hook must not be inlined away behind an
// older frame.h).
Frame::~Frame() {
  if (pool_ != nullptr) {
    pool_->RecycleRecords(std::move(records_));
  }
}

FramePool::FramePool(common::MemPool* budget, size_t max_blocks,
                     size_t max_vectors)
    : budget_(budget), blocks_(max_blocks), vectors_(max_vectors) {}

FramePool::~FramePool() {
  // relaxed: block_size_ is a write-once latch; by destruction time no
  // other thread touches the pool.
  const size_t block_bytes = block_size_.load(std::memory_order_relaxed);
  while (std::optional<void*> block = blocks_.TryPop()) {
    if (budget_ != nullptr) budget_->Release(block_bytes);
    ::operator delete(*block);
  }
  while (std::optional<std::vector<adm::Value>> v = vectors_.TryPop()) {
    if (budget_ != nullptr) {
      budget_->Release(v->capacity() * sizeof(adm::Value));
    }
  }
}

std::vector<adm::Value> FramePool::AcquireRecords() {
  if (std::optional<std::vector<adm::Value>> v = vectors_.TryPop()) {
    const int64_t retained =
        static_cast<int64_t>(v->capacity() * sizeof(adm::Value));
    if (budget_ != nullptr) budget_->Release(static_cast<size_t>(retained));
    // relaxed: retained_bytes_ is a gauge conserved by its RMWs and the
    // hit/miss cells are stats counters; the vector itself was handed
    // over by the free-list queue, whose mutex carries the ordering.
    retained_bytes_.fetch_sub(retained, std::memory_order_relaxed);
    vector_hits_.fetch_add(1, std::memory_order_relaxed);
    return std::move(*v);
  }
  // relaxed: stats counter.
  vector_misses_.fetch_add(1, std::memory_order_relaxed);
  return {};
}

void FramePool::RecycleRecords(std::vector<adm::Value>&& records) {
  // Element destructors run here (payload heap — strings, nested values —
  // is NOT retained); the element buffer's capacity survives clear().
  records.clear();
  const size_t retained = records.capacity() * sizeof(adm::Value);
  if (retained == 0) return;
  if (budget_ != nullptr && !budget_->TryReserve(retained).ok()) {
    // Budget refused: degrade gracefully, free instead of retaining.
    // relaxed: stats counter.
    budget_drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (vectors_.TryPush(std::move(records))) {
    // relaxed: gauge conserved by its RMWs (see AcquireRecords).
    retained_bytes_.fetch_add(static_cast<int64_t>(retained),
                              std::memory_order_relaxed);
  } else {
    // Free list full; the (consumed) vector already freed its buffer.
    if (budget_ != nullptr) budget_->Release(retained);
  }
}

void* FramePool::AllocateBlock(size_t bytes) {
  size_t expected = 0;
  // relaxed: block_size_ is a write-once size latch — no data hangs off
  // it (blocks travel through the free-list queue, whose mutex orders
  // their payload) and a stale zero only takes the plain-heap miss path.
  block_size_.compare_exchange_strong(expected, bytes,
                                      std::memory_order_relaxed);
  if (bytes == block_size_.load(std::memory_order_relaxed)) {
    if (std::optional<void*> block = blocks_.TryPop()) {
      if (budget_ != nullptr) budget_->Release(bytes);
      // relaxed: conserved gauge + stats counter (see AcquireRecords).
      retained_bytes_.fetch_sub(static_cast<int64_t>(bytes),
                                std::memory_order_relaxed);
      block_hits_.fetch_add(1, std::memory_order_relaxed);
      return *block;
    }
  }
  // relaxed: stats counter.
  block_misses_.fetch_add(1, std::memory_order_relaxed);
  return ::operator new(bytes);
}

void FramePool::DeallocateBlock(void* block, size_t bytes) {
  // relaxed: write-once size latch (see AllocateBlock).
  if (bytes == block_size_.load(std::memory_order_relaxed)) {
    if (budget_ == nullptr || budget_->TryReserve(bytes).ok()) {
      if (blocks_.TryPush(block)) {
        // relaxed: conserved gauge (see AcquireRecords).
        retained_bytes_.fetch_add(static_cast<int64_t>(bytes),
                                  std::memory_order_relaxed);
        return;
      }
      if (budget_ != nullptr) budget_->Release(bytes);
    } else {
      // relaxed: stats counter.
      budget_drops_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  ::operator delete(block);
}

FramePtr FramePool::MakeFrame(std::vector<adm::Value> records) {
  std::shared_ptr<Frame> frame = std::allocate_shared<Frame>(
      BlockAllocator<Frame>(this), std::move(records));
  frame->pool_ = this;
  return frame;
}

FramePtr FramePool::MakeFrame(std::vector<adm::Value> records,
                              size_t approx_bytes) {
  std::shared_ptr<Frame> frame = std::allocate_shared<Frame>(
      BlockAllocator<Frame>(this), std::move(records), approx_bytes);
  frame->pool_ = this;
  return frame;
}

FramePtr FramePool::MakeFrame(std::vector<adm::Value> records,
                              TraceContext trace) {
  std::shared_ptr<Frame> frame = std::allocate_shared<Frame>(
      BlockAllocator<Frame>(this), std::move(records), trace);
  frame->pool_ = this;
  return frame;
}

FramePtr FramePool::MakeFrame(std::vector<adm::Value> records,
                              size_t approx_bytes, TraceContext trace,
                              std::vector<int64_t> tracking_ids) {
  std::shared_ptr<Frame> frame = std::allocate_shared<Frame>(
      BlockAllocator<Frame>(this), std::move(records), approx_bytes, trace,
      std::move(tracking_ids));
  frame->pool_ = this;
  return frame;
}

common::Status FrameAppender::FlushFrame() {
  if (pending_.empty()) return common::Status::OK();
  if (!pending_tids_.empty()) pending_tids_.resize(pending_.size(), -1);
  FramePtr frame;
  if (pool_ != nullptr) {
    frame = pool_->MakeFrame(std::move(pending_), pending_bytes_,
                             pending_trace_, std::move(pending_tids_));
    // Steady state: the vector this frame's predecessor recycled.
    pending_ = pool_->AcquireRecords();
  } else {
    frame = hyracks::MakeFrame(std::move(pending_), pending_bytes_,
                               pending_trace_, std::move(pending_tids_));
    pending_.clear();
  }
  pending_tids_.clear();
  pending_bytes_ = 0;
  pending_trace_ = TraceContext{};
  return writer_->NextFrame(frame);
}

}  // namespace hyracks
}  // namespace asterix
