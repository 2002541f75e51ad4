// The operators of a data ingestion pipeline (§5.3):
//  - FeedCollectOperator   head section: drives the adaptor, parses raw
//                          payloads to ADM, emits into the feed joint;
//  - FeedIntakeOperator    tail section head: subscribes to a co-located
//                          joint, forwards frames downstream, and owns the
//                          at-least-once tracking (§5.6);
//  - AssignOperator        compute stage: applies the (inlined) UDF chain;
//  - FeedStoreOperator     store stage: inserts into the local dataset
//                          partition, updates secondary indexes, acks.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "feeds/ack.h"
#include "feeds/adaptor.h"
#include "feeds/feed_manager.h"
#include "feeds/metrics.h"
#include "feeds/policy.h"
#include "feeds/subscriber.h"
#include "feeds/udf.h"
#include "hyracks/operator.h"

namespace asterix {
namespace feeds {

/// Shared knobs for the pipeline's operators, derived from the feed's
/// ingestion policy at connect time.
struct PipelineConfig {
  std::string connection_id;  // "<feed>-><dataset>"
  IngestionPolicy policy;
  std::shared_ptr<ConnectionMetrics> metrics;
  std::shared_ptr<AckBus> ack_bus;
  std::string spill_dir = "/tmp";
  size_t frame_records = 64;
};

/// Subscriber-queue options of intake partition `partition`: shared by
/// the intake's Open and by the connect path, which subscribes the queue
/// before the tail job starts (CentralFeedManager::BuildTailLocked).
SubscriberOptions IntakeSubscriberOptions(const PipelineConfig& pipeline,
                                          int partition);

/// --- head section -----------------------------------------------------
class FeedCollectOperator : public hyracks::Operator {
 public:
  FeedCollectOperator(std::shared_ptr<AdaptorFactory> factory,
                      AdaptorConfig config, std::string joint_id,
                      PipelineConfig pipeline);

  bool is_source() const override { return true; }
  [[nodiscard]] common::Status Open(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status Run(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status ProcessFrame(const hyracks::FramePtr&,
                              hyracks::TaskContext*) override {
    return common::Status::NotSupported("source operator");
  }

 private:
  std::shared_ptr<AdaptorFactory> factory_;
  const AdaptorConfig config_;
  const std::string joint_id_;
  PipelineConfig pipeline_;
  std::unique_ptr<FeedAdaptor> adaptor_;
  std::shared_ptr<FeedJoint> own_joint_;
  int64_t consecutive_soft_failures_ = 0;
};

/// --- tail section: intake ----------------------------------------------
class FeedIntakeOperator : public hyracks::Operator {
 public:
  /// `source_joint_id`: the co-located joint to subscribe to.
  FeedIntakeOperator(std::string source_joint_id, PipelineConfig pipeline);

  bool is_source() const override { return true; }
  [[nodiscard]] common::Status Open(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status Run(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status Close(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status ProcessFrame(const hyracks::FramePtr&,
                              hyracks::TaskContext*) override {
    return common::Status::NotSupported("source operator");
  }

  /// Fault-tolerance protocol signals:
  ///  "buffer"  — hold output in memory instead of forwarding;
  ///  "forward" — resume forwarding (flushing the held buffer);
  ///  "handoff" — save held + queued frames as zombie state and exit.
  void OnSignal(const std::string& signal) override;

  static constexpr const char* kSignalBuffer = "buffer";
  static constexpr const char* kSignalForward = "forward";
  static constexpr const char* kSignalHandoff = "handoff";

 private:
  enum class Mode { kForward, kBuffer, kHandoff };

  /// Run's loop: forwards, buffers or hands off until the queue ends or
  /// the task stops.
  [[nodiscard]] common::Status Pump(hyracks::TaskContext* ctx);

  /// A frame from the subscriber queue, as this intake forwards it: under
  /// at-least-once with a fresh tracking-id column minted for intake
  /// partition `partition`; otherwise without any column (ids minted by
  /// another connection's intake mean nothing here).
  hyracks::FramePtr Tag(const hyracks::FramePtr& frame, int partition);
  /// Forwards a tagged frame (tracking its ids until acked).
  [[nodiscard]] common::Status ForwardFrame(const hyracks::FramePtr& frame,
                              hyracks::TaskContext* ctx);
  [[nodiscard]] common::Status ForwardTagged(const hyracks::FramePtr& frame,
                               const hyracks::TraceContext& tc,
                               hyracks::TaskContext* ctx);

  const std::string source_joint_id_;
  PipelineConfig pipeline_;
  std::shared_ptr<FeedManager> feed_manager_;
  std::shared_ptr<FeedJoint> source_joint_;
  std::shared_ptr<SubscriberQueue> queue_;
  std::atomic<Mode> mode_{Mode::kForward};
  std::vector<hyracks::FramePtr> held_;  // buffer-mode frames, tagged

  // At-least-once state.
  bool at_least_once_ = false;
  std::unique_ptr<PendingTracker> pending_;
  int64_t last_replay_check_ms_ = 0;
};

/// --- tail section: compute ----------------------------------------------
class AssignOperator : public hyracks::Operator {
 public:
  /// Applies `udfs` in order to every record (the inlined chain of
  /// Listing 5.6). Throws from UDFs escape to the MetaFeed sandbox.
  AssignOperator(std::vector<std::shared_ptr<Udf>> udfs,
                 PipelineConfig pipeline);

  [[nodiscard]] common::Status Open(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status ProcessFrame(const hyracks::FramePtr& frame,
                              hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status Close(hyracks::TaskContext* ctx) override;

 private:
  std::vector<std::shared_ptr<Udf>> udfs_;
  PipelineConfig pipeline_;
  // At-least-once: acks for the records the UDF chain filtered out.
  std::unique_ptr<AckCollector> acks_;
  std::vector<int64_t> filtered_tids_;  // one frame's, capacity reused
};

/// --- tail section: store -------------------------------------------------
class FeedStoreOperator : public hyracks::Operator {
 public:
  FeedStoreOperator(std::string dataset, PipelineConfig pipeline);

  [[nodiscard]] common::Status Open(hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status ProcessFrame(const hyracks::FramePtr& frame,
                              hyracks::TaskContext* ctx) override;
  [[nodiscard]] common::Status Close(hyracks::TaskContext* ctx) override;

 private:
  const std::string dataset_;
  PipelineConfig pipeline_;
  storage::DatasetPartition* partition_ = nullptr;
  std::unique_ptr<AckCollector> acks_;
  // Cached registry histogram: end-to-end intake->store latency for
  // traced frames. Record() is lock-free.
  common::Histogram* e2e_latency_ = nullptr;
};

}  // namespace feeds
}  // namespace asterix

