// Subscriber queues: the per-subscriber input queues hanging off a feed
// joint. This is where "excess records" accumulate when a pipeline cannot
// keep pace, and therefore where the ingestion policy's excess-record
// handling (Table 4.2) is enforced: block/buffer (Basic), spill to disk
// (Spill), drop (Discard), or sample (Throttle/Elastic-interim).
//
// Layout: one in-memory FIFO of entries and, in Spill mode, one spill
// file behind it, both guarded by the queue's mutex. The producer (joint
// routing thread) applies the policy and appends under the mutex; the
// consumer (intake pump) drains a whole batch per acquisition and parks
// on a condition variable of the same mutex when the queue is empty.
// Governor releases and trace spans for drained frames happen after
// unlocking.
//
// The paper's Data Bucket (§5.4.1) — a frame plus a count of the
// consumers still using it, recycled by the last one — is the FramePtr
// itself: each queue entry holds one reference, and the last release
// frees the frame (or recycles it into its FramePool).
#pragma once

#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/mem_governor.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "feeds/policy.h"
#include "hyracks/frame.h"

namespace asterix {
namespace feeds {

struct TraceSpan;

struct SubscriberOptions {
  ExcessMode mode = ExcessMode::kBlock;
  /// In-memory excess budget before the mode's action kicks in.
  int64_t memory_budget_bytes = 32 << 20;
  /// Spill mode: bytes of disk spillage allowed before fallback.
  int64_t max_spill_bytes = 512LL << 20;
  /// Spill mode: fall back to throttling (instead of failing) when the
  /// spill budget is exhausted — the Spill_then_Throttle custom policy.
  bool throttle_after_spill = false;
  /// Directory for spill files.
  std::string spill_dir = "/tmp";
  /// Queue identity for spill file naming / logs.
  std::string name = "subscriber";
  /// Governor pool charged for buffered frame bytes (the global bound
  /// over all subscribers, alongside the per-subscriber budget above).
  /// Null resolves to MemGovernor::Default()'s "frame_path" pool; a
  /// refused reservation is folded into the mode's over-budget action.
  common::MemPool* memory_pool = nullptr;
  /// Governor pool charged for spill-file bytes. Null resolves to the
  /// default "spill" pool; refusal acts like spill-budget exhaustion.
  common::MemPool* spill_pool = nullptr;
};

struct SubscriberStats {
  int64_t frames_delivered = 0;
  int64_t records_delivered = 0;
  int64_t records_discarded = 0;
  int64_t records_throttled_away = 0;
  int64_t frames_spilled = 0;
  int64_t bytes_spilled = 0;
  int64_t frames_restored = 0;
  int64_t peak_pending_bytes = 0;
  /// Always 0: the queue has a single in-memory tier, so no frame takes
  /// an overflow path. Kept because the end-to-end benchmark reports it.
  int64_t frames_overflowed = 0;
};

/// One subscriber's queue. Producer side: the feed joint Delivers frames
/// (one FramePtr reference per subscriber). Consumer side: the intake
/// operator of the subscribing pipeline Next()s frames at its own pace —
/// the asynchrony that gives the paper's Congestion Isolation.
class SubscriberQueue {
 public:
  explicit SubscriberQueue(SubscriberOptions options);
  ~SubscriberQueue();

  /// Producer side. Never blocks the producer (congestion isolation):
  /// excess handling follows the policy mode instead.
  void Deliver(hyracks::FramePtr frame);

  /// Marks clean end-of-feed; consumers drain then see nullopt + ended().
  void DeliverEnd();

  /// Consumer side: next frame, waiting up to `timeout_ms`.
  std::optional<hyracks::FramePtr> Next(int64_t timeout_ms);

  /// Consumer side, batched: waits up to `timeout_ms` for data, then
  /// drains up to `max_frames` queued frames under one lock acquisition.
  /// Empty result on timeout or when the queue ended/failed with nothing
  /// buffered.
  std::vector<hyracks::FramePtr> NextBatch(int64_t timeout_ms,
                                           size_t max_frames = SIZE_MAX);

  /// NextBatch appending into the caller's vector — with a reused
  /// capacity this drain allocates nothing per frame in steady state
  /// (the pooled-frame zero-alloc path; see hyracks/frame_pool.h).
  /// Returns the number of frames appended.
  size_t NextBatchInto(std::vector<hyracks::FramePtr>* out,
                       int64_t timeout_ms, size_t max_frames = SIZE_MAX);

  bool ended() const;
  /// Set when the Basic policy exhausted its memory budget (feed must
  /// terminate) or spillage overflowed without a throttle fallback.
  bool failed() const;
  [[nodiscard]] common::Status failure() const;

  SubscriberStats stats() const;
  int64_t pending_bytes() const {
    // relaxed: monitoring read of the budget gauge; lock-free because the
    // feed_intake_pending_bytes provider calls it under the registry lock.
    return pending_bytes_.load(std::memory_order_relaxed);
  }
  size_t pending_frames() const;
  const std::string& name() const { return options_.name; }

  /// True while the queue holds more than its read-ahead allowance: a
  /// pull source feeding it waits before fetching more. Elastic queues
  /// never ask, since their budget is rescaling headroom and their
  /// backlog must stay visible to the scale-out rule. Lock-free.
  bool ReadAheadFull() const {
    return options_.mode != ExcessMode::kElastic &&
           pending_bytes() >
               options_.memory_budget_bytes / kReadAheadBudgetDivisor;
  }

 private:
  struct Entry {
    hyracks::FramePtr frame;
    int64_t deliver_us = 0;  // enqueue instant, traced frames only
  };

  // Excess handling under mutex_; fills `span` (non-null iff the frame is
  // traced) with the delivery outcome. The caller records it after
  // unlocking — RecordSpan must not run under a queue mutex.
  void DeliverLocked(hyracks::FramePtr frame, TraceSpan* span)
      REQUIRES(mutex_);
  /// Appends to the FIFO; its capacity survives drains (see fifo_).
  void PushLocked(Entry entry) REQUIRES(mutex_);
  /// Moves up to `max_frames` entries off the FIFO head into `out`,
  /// restoring spilled frames first when the FIFO is empty.
  void PopLocked(std::vector<Entry>* out, size_t max_frames)
      REQUIRES(mutex_);
  size_t fifo_size() const REQUIRES(mutex_) { return fifo_.size() - head_; }
  /// Retires a popped/abandoned entry's byte accounting. Called with no
  /// lock held.
  void RetireEntry(const Entry& entry);
  void RecordQueueSpan(const Entry& entry, int64_t pop_us) const;
  void SpillLocked(const hyracks::FramePtr& frame) REQUIRES(mutex_);
  bool RestoreFromSpillLocked() REQUIRES(mutex_);
  hyracks::FramePtr SampleFrame(const hyracks::FramePtr& frame,
                                double keep_probability) REQUIRES(mutex_);

  const SubscriberOptions options_;
  // Resolved governor pools (options_ pools or the Default() governor's
  // standard pools). Charged under each pool's leaf mutex, which ranks
  // below mutex_; never null after construction.
  common::MemPool* const mem_pool_;
  common::MemPool* const spill_pool_;
  mutable common::Mutex mutex_{common::LockRank::kSubscriberQueue};
  // Signalled after every delivery, end, or failure.
  common::CondVar ready_;
  // The in-memory tier: live entries are fifo_[head_, size). A vector
  // with a read cursor rather than a deque, so that its capacity is kept
  // across drains and the steady state allocates nothing; PopLocked
  // resets it when empty and compacts a mostly-consumed prefix.
  std::vector<Entry> fifo_ GUARDED_BY(mutex_);
  size_t head_ GUARDED_BY(mutex_) = 0;
  // Budget gauge of buffered frame bytes. Relaxed atomic rather than
  // guarded: retirement runs after unlocking, and pending_bytes() is read
  // without the lock (see there). Its RMWs conserve the sum.
  std::atomic<int64_t> pending_bytes_{0};
  bool ended_ GUARDED_BY(mutex_) = false;
  bool failed_ GUARDED_BY(mutex_) = false;
  common::Status failure_ GUARDED_BY(mutex_);
  SubscriberStats stats_ GUARDED_BY(mutex_);
  common::Rng rng_ GUARDED_BY(mutex_);

  // Spill state: once active, all arrivals spill until fully drained
  // (preserves record order). The file holds one [u32 len][payload] entry
  // per frame, the payload one [u32 len][binary record] per record
  // (adm/binary.h); a record that does not decode fails the queue.
  std::FILE* spill_file_ GUARDED_BY(mutex_) = nullptr;
  std::string spill_path_;  // written once in the constructor
  /// Bytes this queue's spill file currently charges against spill_pool_
  /// (released when the drained file is reclaimed, and at destruction).
  int64_t spill_charged_ GUARDED_BY(mutex_) = 0;
  int64_t spill_pending_frames_ GUARDED_BY(mutex_) = 0;
  int64_t spill_read_offset_ GUARDED_BY(mutex_) = 0;
  bool throttling_ GUARDED_BY(mutex_) = false;   // spill overflow fallback
  bool discarding_ GUARDED_BY(mutex_) = false;   // Discard hysteresis:
                             // dropping until the backlog clears (§4.5)
};

}  // namespace feeds
}  // namespace asterix
