// Tasks: the runtime clones of an operator, one per partition, each driven
// by its own thread pumping a bounded input queue. The bounded queue is
// the engine's back-pressure mechanism.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/status.h"
#include "hyracks/job.h"
#include "hyracks/operator.h"

namespace asterix {
namespace hyracks {

class NodeController;

/// One running operator instance.
class Task : public TaskContext,
             public std::enable_shared_from_this<Task> {
 public:
  Task(JobId job_id, std::string op_name, int partition,
       int partition_count, NodeController* node,
       std::unique_ptr<Operator> op, size_t queue_capacity);
  ~Task() override;

  // --- TaskContext ---
  const std::string& node_id() const override;
  int partition() const override { return partition_; }
  int partition_count() const override { return partition_count_; }
  int64_t job_id() const override { return job_id_; }
  const std::string& operator_name() const override { return op_name_; }
  IFrameWriter* writer() override { return output_.get(); }
  bool ShouldStop() const override;
  bool GracefulStopRequested() const override {
    return finish_requested_.load() && !killed_.load();
  }
  NodeController* node() const override { return node_; }

  // --- wiring (before Start) ---
  void SetOutput(std::shared_ptr<IFrameWriter> output) {
    output_ = std::move(output);
  }
  void SetExpectedProducers(int n) { expected_producers_ = n; }

  // --- lifecycle ---
  void Start();
  /// Hard abort: the task thread exits without closing downstream
  /// (models process death / job abort).
  void Kill();
  /// Graceful finish for source operators: the run loop returns, buffered
  /// output is flushed and EOS propagates downstream.
  void RequestFinish();
  /// Kills the task and returns the input frames it never processed — the
  /// "runtime state" a zombie instance saves with its local Feed Manager
  /// in the fault-tolerance protocol (§6.2.2). Blocks until the task
  /// thread has exited.
  std::vector<FrameMessage> FreezeAndDrain();
  void Join();
  bool finished() const { return finished_.load(); }
  const common::Status& final_status() const { return final_status_; }

  /// Delivers an input message from an upstream router. Blocks on a full
  /// queue (back-pressure); returns false if the task is dead/killed.
  bool Enqueue(FrameMessage msg);

  /// Forwards an out-of-band control signal to the operator.
  void Signal(const std::string& signal);

  /// Current input queue depth (congestion monitoring).
  // Frames accepted but not yet processed: still queued, plus the tail of
  // the batch the pump thread has popped but not consumed.
  size_t queue_depth() const {
    // relaxed: congestion gauge; a point-in-time monitoring read.
    return input_.size() + batch_pending_.load(std::memory_order_relaxed);
  }
  size_t queue_capacity() const { return input_.capacity(); }

  Operator* op() { return op_.get(); }
  bool finish_requested() const { return finish_requested_.load(); }

 private:
  void ThreadMain();
  /// The single pump drain: blocks until input is available (or the
  /// queue closes), drains everything queued into `*batch` (cleared
  /// first, capacity reused across wakeups — the pump's zero-alloc
  /// steady state), and accounts exactly one wakeup + batch-size frames
  /// in the pump metrics — every drain path goes through here so
  /// queue-depth and wakeup counters agree. False when the queue is
  /// closed and drained.
  bool PumpBatch(std::vector<FrameMessage>* batch);

  const JobId job_id_;
  const std::string op_name_;
  const int partition_;
  const int partition_count_;
  NodeController* node_;
  std::unique_ptr<Operator> op_;
  // Bounded input queue: producers (routers) block here when it is full,
  // which is the engine's back-pressure. queue_capacity() reports exactly
  // the capacity passed in.
  common::BlockingQueue<FrameMessage> input_;
  // Unprocessed tail of the in-flight pop batch when the task is killed
  // mid-batch. Written only by the task thread; read by FreezeAndDrain
  // after Join() (the join is the synchronization point).
  std::vector<FrameMessage> residual_;
  std::atomic<size_t> batch_pending_{0};
  std::shared_ptr<IFrameWriter> output_;
  int expected_producers_ = 0;

  std::thread thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> killed_{false};
  std::atomic<bool> finish_requested_{false};
  std::atomic<bool> finished_{false};
  common::Status final_status_;
};

/// Routes frames from a producing task to the consuming tasks of one edge
/// according to the connector kind.
class Router : public IFrameWriter {
 public:
  Router(ConnectorDescriptor connector, int source_partition,
         std::vector<std::shared_ptr<Task>> targets);

  [[nodiscard]] common::Status NextFrame(const FramePtr& frame) override;
  void Fail() override;
  [[nodiscard]] common::Status Close() override;

 private:
  const ConnectorDescriptor connector_;
  const int source_partition_;
  std::vector<std::shared_ptr<Task>> targets_;
  size_t round_robin_ = 0;
};

/// Fans one task's output out to several routers (multi-out-edge DAGs).
class BroadcastWriter : public IFrameWriter {
 public:
  explicit BroadcastWriter(std::vector<std::shared_ptr<IFrameWriter>> outs)
      : outs_(std::move(outs)) {}
  [[nodiscard]] common::Status NextFrame(const FramePtr& frame) override {
    for (auto& out : outs_) RETURN_IF_ERROR(out->NextFrame(frame));
    return common::Status::OK();
  }
  void Fail() override {
    for (auto& out : outs_) out->Fail();
  }
  [[nodiscard]] common::Status Close() override {
    for (auto& out : outs_) RETURN_IF_ERROR(out->Close());
    return common::Status::OK();
  }

 private:
  std::vector<std::shared_ptr<IFrameWriter>> outs_;
};

/// Terminal writer: discards frames (the paper's NullSink operator).
class NullWriter : public IFrameWriter {
 public:
  [[nodiscard]] common::Status NextFrame(const FramePtr&) override {
    return common::Status::OK();
  }
};

}  // namespace hyracks
}  // namespace asterix

