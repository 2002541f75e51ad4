// Feed joints (§5.2, §5.4): the "network taps" that make data flowing
// through an ingestion pipeline accessible and routable along additional
// paths. A joint sits at the output of a subscribable operator instance;
// it forwards frames to the in-job downstream (its "primary") and to any
// dynamically registered subscribers (the intake operators of dependent
// pipelines). Every subscriber gets its own reference to each frame, so
// the frame lives until the last subscriber consumes it (the paper's Data
// Bucket, §5.4.1) and each queue drains at its own pace: Guaranteed
// Delivery and Congestion Isolation.
//
// Data-plane layout: the routing table (primary + subscriber list +
// closed flag) is an immutable copy-on-write snapshot held by a
// shared_ptr under mutex_. The per-frame path copies that pointer under
// the lock (one refcount bump) and fans out with the lock released, so
// a slow subscriber or a blocking primary never holds up a membership
// change. Membership changes (subscribe, unsubscribe, detach, close)
// are rare control-path events: they publish a fresh snapshot under
// mutex_.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "feeds/subscriber.h"
#include "hyracks/frame.h"

namespace asterix {
namespace feeds {

class FeedJoint : public hyracks::IFrameWriter {
 public:
  explicit FeedJoint(std::string id) : id_(std::move(id)) {}

  const std::string& id() const { return id_; }

  /// The in-job downstream writer (router to the next stage). May be
  /// absent (a collect operator whose only consumers are subscribers).
  void SetPrimary(std::shared_ptr<hyracks::IFrameWriter> primary);

  /// Detaches and closes the in-job downstream — the partial dismantling
  /// of a disconnect when dependent feeds still consume this joint
  /// (§5.5 / Figure 5.10(b)).
  void DetachPrimary();

  /// Registers a new recipient; data flowing through the joint starts
  /// being routed to the returned queue. Thread-safe, any time.
  std::shared_ptr<SubscriberQueue> Subscribe(SubscriberOptions options);

  /// Unregisters; the queue stops receiving new frames.
  void Unsubscribe(const std::shared_ptr<SubscriberQueue>& queue);

  size_t subscriber_count() const;

  /// True while some subscriber queue is past its read-ahead allowance
  /// (SubscriberQueue::ReadAheadFull): a pull source paces itself by
  /// this. Copies the snapshot under mutex_, then reads each queue's
  /// counters with the joint's lock released.
  bool ReadAheadFull() const;

  /// Producer-side IFrameWriter API (the subscribable operator's output).
  [[nodiscard]] common::Status NextFrame(const hyracks::FramePtr& frame) override;
  void Fail() override;
  [[nodiscard]] common::Status Close() override;

  bool closed() const;
  int64_t frames_routed() const {
    // relaxed: monitoring read of a stats counter.
    return frames_routed_.load(std::memory_order_relaxed);
  }

 private:
  /// One immutable routing snapshot. Never mutated after publication;
  /// readers hold it alive via shared_ptr while delivering.
  struct Routes {
    std::shared_ptr<hyracks::IFrameWriter> primary;
    std::vector<std::shared_ptr<SubscriberQueue>> subscribers;
    bool closed = false;
  };

  /// Copies the current snapshot for a writer to edit; the caller
  /// publishes the result by assigning it to routes_.
  std::shared_ptr<Routes> CloneRoutes() const REQUIRES(mutex_);

  /// The current snapshot, copied under mutex_ for use after release.
  std::shared_ptr<const Routes> LoadRoutes() const EXCLUDES(mutex_);

  const std::string id_;
  // Held only to copy or replace routes_, never across a delivery.
  mutable common::Mutex mutex_{common::LockRank::kFeedJoint};
  std::shared_ptr<const Routes> routes_ GUARDED_BY(mutex_) =
      std::make_shared<const Routes>();
  std::atomic<int64_t> frames_routed_{0};
};

}  // namespace feeds
}  // namespace asterix
