#include "common/thread_annotations.h"
#include "feeds/joint.h"

#include <algorithm>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "feeds/trace.h"

namespace asterix {
namespace feeds {

using common::Status;
using hyracks::FramePtr;

std::shared_ptr<FeedJoint::Routes> FeedJoint::CloneRoutes() const {
  return std::make_shared<Routes>(*routes_);
}

std::shared_ptr<const FeedJoint::Routes> FeedJoint::LoadRoutes() const {
  common::MutexLock lock(mutex_);
  return routes_;
}

void FeedJoint::SetPrimary(std::shared_ptr<hyracks::IFrameWriter> primary) {
  common::MutexLock lock(mutex_);
  auto next = CloneRoutes();
  next->primary = std::move(primary);
  routes_ = std::move(next);
}

void FeedJoint::DetachPrimary() {
  std::shared_ptr<hyracks::IFrameWriter> primary;
  {
    common::MutexLock lock(mutex_);
    auto next = CloneRoutes();
    primary = std::move(next->primary);
    next->primary = nullptr;
    routes_ = std::move(next);
  }
  if (primary != nullptr) {
    Status close_status = primary->Close();
    if (!close_status.ok()) {
      // Detach is teardown: the pipeline downstream of the joint is going
      // away regardless, so a failed flush-on-close is reported, not
      // propagated (there is no caller left to retry it).
      LOG_MSG(kWarn) << "joint primary close failed during detach: "
                     << close_status.message();
    }
  }
}

std::shared_ptr<SubscriberQueue> FeedJoint::Subscribe(
    SubscriberOptions options) {
  auto queue = std::make_shared<SubscriberQueue>(std::move(options));
  common::MutexLock lock(mutex_);
  auto next = CloneRoutes();
  if (next->closed) {
    queue->DeliverEnd();
    return queue;
  }
  next->subscribers.push_back(queue);
  routes_ = std::move(next);
  return queue;
}

void FeedJoint::Unsubscribe(const std::shared_ptr<SubscriberQueue>& queue) {
  common::MutexLock lock(mutex_);
  auto next = CloneRoutes();
  next->subscribers.erase(std::remove(next->subscribers.begin(),
                                      next->subscribers.end(), queue),
                          next->subscribers.end());
  routes_ = std::move(next);
}

size_t FeedJoint::subscriber_count() const {
  return LoadRoutes()->subscribers.size();
}

bool FeedJoint::ReadAheadFull() const {
  std::shared_ptr<const Routes> routes = LoadRoutes();
  return std::any_of(routes->subscribers.begin(), routes->subscribers.end(),
                     [](const std::shared_ptr<SubscriberQueue>& queue) {
                       return queue->ReadAheadFull();
                     });
}

Status FeedJoint::NextFrame(const FramePtr& frame) {
  // Delay actions model a congested joint; error actions fail the
  // routing task (a hard pipeline fault).
  ASTERIX_FAILPOINT("feeds.joint.route");
  const hyracks::TraceContext tc = frame->trace();
  const int64_t route_start_us = tc.sampled() ? common::NowMicros() : 0;
  // One snapshot copy under mutex_; the shared_ptr keeps the recipient
  // list (and every queue on it) alive for the duration of the fan-out
  // even if an Unsubscribe publishes a new snapshot mid-delivery. The
  // fan-out runs with the lock released, and no per-frame copy of the
  // subscriber list is made.
  std::shared_ptr<const Routes> routes = LoadRoutes();
  // relaxed: stats counter for the joint gauge; delivery ordering is
  // carried by the queues, not this count.
  frames_routed_.fetch_add(1, std::memory_order_relaxed);
  for (const auto& subscriber : routes->subscribers) {
    subscriber->Deliver(frame);
  }
  if (tc.sampled()) {
    // Detail span for routing + subscriber deliveries (no pipeline lock
    // held here). The in-job primary forward is timed by downstream
    // spans, not this one.
    TraceSpan span;
    span.trace_id = tc.id;
    span.stage = "joint";
    span.where = id_;
    span.start_us = route_start_us;
    span.duration_us = common::NowMicros() - route_start_us;
    span.records = static_cast<int64_t>(frame->record_count());
    span.detail = true;
    Tracer::Instance().RecordSpan(std::move(span));
  }
  if (routes->primary != nullptr) {
    // In-job forwarding last: it may block under this pipeline's own
    // back-pressure without delaying subscribers.
    return routes->primary->NextFrame(frame);
  }
  return Status::OK();
}

void FeedJoint::Fail() {
  std::shared_ptr<const Routes> last;
  {
    common::MutexLock lock(mutex_);
    auto next = CloneRoutes();
    next->closed = true;
    last = std::move(next);
    routes_ = last;
  }
  for (const auto& subscriber : last->subscribers) subscriber->DeliverEnd();
  if (last->primary != nullptr) last->primary->Fail();
}

Status FeedJoint::Close() {
  std::shared_ptr<const Routes> last;
  {
    common::MutexLock lock(mutex_);
    auto next = CloneRoutes();
    next->closed = true;
    last = std::move(next);
    routes_ = last;
  }
  for (const auto& subscriber : last->subscribers) subscriber->DeliverEnd();
  if (last->primary != nullptr) return last->primary->Close();
  return Status::OK();
}

bool FeedJoint::closed() const {
  return LoadRoutes()->closed;
}

}  // namespace feeds
}  // namespace asterix
