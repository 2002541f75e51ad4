// At-least-once machinery (§5.6): the intake stage mints a tracking id per
// record, carried beside it in the frame's tracking-id column
// (hyracks::Frame::tracking_ids); store instances ack persisted ids
// (grouped over a fixed window to cut message counts); intake holds
// records until acked and replays them on timeout.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "adm/value.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/thread_annotations.h"

namespace asterix {
namespace feeds {

/// Tracking ids pack the intake partition and a sequence number so the
/// store stage can group acks per source adaptor instance.
inline int64_t MakeTrackingId(int intake_partition, int64_t seq) {
  return (static_cast<int64_t>(intake_partition) << 48) | seq;
}
inline int TrackingIdPartition(int64_t tid) {
  return static_cast<int>(tid >> 48);
}

/// In-process control-message bus for ack delivery (control messages
/// travel separately from the data path, §6.2.1).
class AckBus {
 public:
  using Handler = std::function<void(const std::vector<int64_t>& tids)>;

  /// Intake partition `partition` of connection `conn` registers to
  /// receive its acks.
  void Register(const std::string& conn, int partition, Handler handler) {
    common::MutexLock lock(mutex_);
    handlers_[Key(conn, partition)] = std::move(handler);
  }

  void Unregister(const std::string& conn, int partition) {
    common::MutexLock lock(mutex_);
    handlers_.erase(Key(conn, partition));
  }

  /// Store side: publishes a grouped ack message.
  void Publish(const std::string& conn, int partition,
               const std::vector<int64_t>& tids) {
    // Error action = the ack message is lost in transit (the records stay
    // pending at intake and replay after the timeout — at-least-once, not
    // exactly-once). Delay action = a slow control path.
    if (ASTERIX_FAILPOINT_TRIGGERED("feeds.ack.publish")) return;
    Handler handler;
    {
      common::MutexLock lock(mutex_);
      auto it = handlers_.find(Key(conn, partition));
      if (it == handlers_.end()) return;
      handler = it->second;
    }
    handler(tids);
    // relaxed: stats counter for tests/metrics; orders nothing.
    messages_published_.fetch_add(1, std::memory_order_relaxed);
  }

  int64_t messages_published() const { return messages_published_.load(); }

 private:
  static std::string Key(const std::string& conn, int partition) {
    return conn + "#" + std::to_string(partition);
  }

  common::Mutex mutex_{common::LockRank::kAckBus};
  std::map<std::string, Handler> handlers_ GUARDED_BY(mutex_);
  std::atomic<int64_t> messages_published_{0};
};

/// Intake-side ledger of unacked records. Records are held as the shared
/// values the frames carry (a copy is a reference count, not a clone).
class PendingTracker {
 public:
  using Entry = std::pair<int64_t, adm::Value>;  // (tracking id, record)

  explicit PendingTracker(int64_t timeout_ms) : timeout_ms_(timeout_ms) {}

  /// Registers an in-flight record under its tracking id.
  void Track(int64_t tid, adm::Value record) {
    common::MutexLock lock(mutex_);
    pending_[tid] = {std::move(record), common::NowMillis()};
  }

  /// Registers a frame's records under its tracking-id column (parallel
  /// spans; ids of -1 are skipped). Re-tracking an id restarts its timeout.
  void Track(std::span<const int64_t> tids,
             std::span<const adm::Value> records) {
    const int64_t now = common::NowMillis();
    common::MutexLock lock(mutex_);
    for (size_t i = 0; i < tids.size(); ++i) {
      if (tids[i] >= 0) pending_[tids[i]] = {records[i], now};
    }
  }

  /// Ack arrival: drops the records and reclaims memory.
  void Ack(const std::vector<int64_t>& tids) {
    common::MutexLock lock(mutex_);
    for (int64_t tid : tids) pending_.erase(tid);
  }

  /// Records whose ack window expired; their timestamps reset so a
  /// single stall does not replay twice immediately.
  std::vector<Entry> TakeExpired() {
    ASTERIX_FAILPOINT_HIT("feeds.ack.replay");
    std::vector<Entry> expired;
    int64_t now = common::NowMillis();
    common::MutexLock lock(mutex_);
    for (auto& [tid, pending] : pending_) {
      if (now - pending.tracked_at_ms >= timeout_ms_) {
        expired.emplace_back(tid, pending.record);
        pending.tracked_at_ms = now;
      }
    }
    return expired;
  }

  /// Removes and returns every pending record (handoff to a successor
  /// instance during pipeline resurrection).
  std::vector<Entry> TakeAll() {
    common::MutexLock lock(mutex_);
    std::vector<Entry> out;
    out.reserve(pending_.size());
    for (auto& [tid, pending] : pending_) {
      out.emplace_back(tid, std::move(pending.record));
    }
    pending_.clear();
    return out;
  }

  size_t pending_count() const {
    common::MutexLock lock(mutex_);
    return pending_.size();
  }

 private:
  struct Pending {
    adm::Value record;
    int64_t tracked_at_ms;
  };
  const int64_t timeout_ms_;
  mutable common::Mutex mutex_{common::LockRank::kPendingTracker};
  std::map<int64_t, Pending> pending_ GUARDED_BY(mutex_);
};

/// Store-side ack batcher: groups acked tracking ids per intake partition
/// over a fixed window, then publishes one encoded message per partition.
class AckCollector {
 public:
  AckCollector(std::shared_ptr<AckBus> bus, std::string conn,
               int64_t window_ms)
      : bus_(std::move(bus)), conn_(std::move(conn)),
        window_ms_(window_ms), window_start_ms_(common::NowMillis()) {}

  void OnPersisted(int64_t tid) { OnPersisted(std::span(&tid, 1)); }

  /// A stored frame's tracking-id column; ids of -1 are skipped.
  void OnPersisted(std::span<const int64_t> tids) {
    common::MutexLock lock(mutex_);
    for (int64_t tid : tids) {
      if (tid >= 0) grouped_[TrackingIdPartition(tid)].push_back(tid);
    }
    if (common::NowMillis() - window_start_ms_ >= window_ms_) {
      FlushLocked();
    }
  }

  void Flush() {
    common::MutexLock lock(mutex_);
    FlushLocked();
  }

 private:
  void FlushLocked() REQUIRES(mutex_) {
    for (auto& [partition, tids] : grouped_) {
      if (!tids.empty()) bus_->Publish(conn_, partition, tids);
    }
    grouped_.clear();
    window_start_ms_ = common::NowMillis();
  }

  std::shared_ptr<AckBus> bus_;
  const std::string conn_;
  const int64_t window_ms_;
  // Outer to the bus: FlushLocked publishes while holding this.
  common::Mutex mutex_{common::LockRank::kAckCollector};
  std::map<int, std::vector<int64_t>> grouped_ GUARDED_BY(mutex_);
  int64_t window_start_ms_ GUARDED_BY(mutex_);
};

}  // namespace feeds
}  // namespace asterix

