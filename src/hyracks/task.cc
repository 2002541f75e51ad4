#include "hyracks/task.h"

#include <pthread.h>

#include <map>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/observability.h"
#include "hyracks/node.h"

namespace asterix {
namespace hyracks {

using common::Status;

Task::Task(JobId job_id, std::string op_name, int partition,
           int partition_count, NodeController* node,
           std::unique_ptr<Operator> op, size_t queue_capacity)
    : job_id_(job_id),
      op_name_(std::move(op_name)),
      partition_(partition),
      partition_count_(partition_count),
      node_(node),
      op_(std::move(op)),
      input_(queue_capacity) {}

Task::~Task() {
  Kill();
  Join();
}

const std::string& Task::node_id() const { return node_->id(); }

bool Task::ShouldStop() const {
  return killed_.load() || finish_requested_.load() || !node_->alive();
}

void Task::Start() {
  if (started_.exchange(true)) return;
  // "<op><partition>" ("collect0", "store2"): per-thread tools (top -H,
  // /proc/<pid>/task/*/comm) then show which stage is busy. The kernel
  // keeps 15 bytes.
  std::string name = (op_name_ + std::to_string(partition_)).substr(0, 15);
  thread_ = std::thread([this, name] {
    pthread_setname_np(pthread_self(), name.c_str());
    ThreadMain();
  });
}

void Task::Kill() {
  killed_.store(true);
  input_.Close();
}

void Task::RequestFinish() {
  finish_requested_.store(true);
  // Non-source tasks drain naturally via EOS; sources poll the flag.
}

std::vector<FrameMessage> Task::FreezeAndDrain() {
  killed_.store(true);
  input_.Close();
  Join();
  // Older-first: frames stranded in the thread's in-flight batch precede
  // anything still sitting in the queue.
  std::vector<FrameMessage> pending;
  for (FrameMessage& msg : residual_) {
    if (msg.kind == FrameMessage::Kind::kData) {
      pending.push_back(std::move(msg));
    }
  }
  residual_.clear();
  for (FrameMessage& msg : input_.TryPopAll()) {
    if (msg.kind == FrameMessage::Kind::kData) {
      pending.push_back(std::move(msg));
    }
  }
  return pending;
}

void Task::Join() {
  if (thread_.joinable()) thread_.join();
}

bool Task::Enqueue(FrameMessage msg) {
  if (killed_.load() || !node_->alive()) return false;
  return input_.Push(std::move(msg));
}

void Task::Signal(const std::string& signal) { op_->OnSignal(signal); }

bool Task::PumpBatch(std::vector<FrameMessage>* batch) {
  // Process-wide pump accounting. The invariant (checked by tests): after
  // a quiescent run, frames_total counts every message drained and
  // wakeups_total counts every PumpBatch return with data — one wakeup
  // per batch regardless of batch size, so
  //   frames_total / wakeups_total == mean drain batch size.
  static common::Counter* wakeups =
      common::MetricsRegistry::Default().GetCounter(
          "hyracks_task_pump_wakeups_total");
  static common::Counter* frames =
      common::MetricsRegistry::Default().GetCounter(
          "hyracks_task_pump_frames_total");
  batch->clear();  // message dtors run here; capacity is retained
  size_t drained = input_.PopAllInto(batch);
  if (drained > 0) {
    wakeups->Add(1);
    frames->Add(static_cast<int64_t>(drained));
  }
  return drained > 0;
}

void Task::ThreadMain() {
  Status status;
  bool failed = false;
  bool aborted = false;

  // A runtime exception escaping an operator carries non-resumable
  // semantics for the job (the feed MetaFeed wrapper catches exceptions
  // before they reach this boundary when soft-failure recovery is on).
  auto guarded = [&](auto&& fn) -> Status {
    try {
      return fn();
    } catch (const std::exception& e) {
      return Status::Internal(std::string("uncaught operator exception: ") +
                              e.what());
    } catch (...) {
      return Status::Internal("uncaught non-standard operator exception");
    }
  };

  status = guarded([&] { return op_->Open(this); });
  failed = !status.ok();

  if (!failed) {
    if (op_->is_source()) {
      status = guarded([&] { return op_->Run(this); });
      failed = !status.ok();
      aborted = killed_.load() || !node_->alive();
    } else {
      int eos_count = 0;
      bool done = false;
      // One batch vector for the task's lifetime: cleared and refilled
      // each wakeup, so the drain itself allocates nothing once the
      // capacity reaches the high-water batch size.
      std::vector<FrameMessage> batch;
      while (!done) {
        // One parked wakeup drains everything queued under a single
        // lock acquisition.
        if (!PumpBatch(&batch)) {
          // Queue closed: hard abort (node death / job abort).
          aborted = true;
          break;
        }
        for (size_t bi = 0; bi < batch.size(); ++bi) {
          // In-flight frame included: it is accepted but not yet done.
          // relaxed: congestion gauge read only by queue_depth()
          // monitoring; staleness is inherent to the measurement.
          batch_pending_.store(batch.size() - bi,
                               std::memory_order_relaxed);
          if (killed_.load() || !node_->alive()) {
            // Stash the unprocessed tail so FreezeAndDrain can reclaim it
            // — the frames would have still been queued under per-item
            // hand-off.
            for (size_t j = bi; j < batch.size(); ++j) {
              residual_.push_back(std::move(batch[j]));
            }
            aborted = true;
            done = true;
            break;
          }
          FrameMessage& msg = batch[bi];
          if (msg.kind == FrameMessage::Kind::kEos) {
            if (++eos_count >= expected_producers_) {
              done = true;
              break;
            }
            continue;
          }
          if (msg.kind == FrameMessage::Kind::kFail) {
            failed = true;
            done = true;
            break;
          }
          status = guarded([&] {
            // Delay = a slow pump; error = an operator-level task fault
            // (surfaces exactly like an operator returning non-OK).
            ASTERIX_FAILPOINT("hyracks.task.pump");
            return op_->ProcessFrame(msg.frame, this);
          });
          if (!status.ok()) {
            failed = true;
            done = true;
            break;
          }
        }
        // relaxed: congestion gauge (see above).
        batch_pending_.store(0, std::memory_order_relaxed);
      }
    }
  }

  if (aborted) {
    // Process death: no close()/EOS travels downstream; recovery (if any)
    // is the feed fault-tolerance protocol's job. final_status_ must be
    // assigned before the finished_ store publishes it to monitors.
    final_status_ = Status::Aborted("task killed");
    finished_.store(true);
    if (node_->alive()) node_->OnTaskFinished(this);
    return;
  }

  if (failed) {
    if (output_ != nullptr) output_->Fail();
    final_status_ =
        status.ok() ? Status::Internal("upstream failure") : status;
    LOG_MSG(kWarn) << "task " << op_name_ << "[" << partition_
                   << "] of job " << job_id_
                   << " failed: " << final_status_.ToString();
  } else {
    Status close_status = guarded([&] { return op_->Close(this); });
    if (output_ != nullptr) {
      Status out_status = output_->Close();
      if (close_status.ok()) close_status = out_status;
    }
    final_status_ = close_status;
  }
  finished_.store(true);
  node_->OnTaskFinished(this);
}

namespace {
// The target (of `targets`) a kMToNHash connector routes a record with
// extracted key `key` to.
size_t HashPartition(const std::string& key, size_t targets) {
  return std::hash<std::string>{}(key) % targets;
}
}  // namespace

ConnectorDescriptor PrimaryKeyHashConnector(std::string pk_field) {
  return {ConnectorKind::kMToNHash,
          [pk_field = std::move(pk_field)](const adm::Value& record) {
            const adm::Value* key = record.GetField(pk_field);
            return key != nullptr ? key->ToAdmString() : std::string();
          }};
}

size_t PrimaryKeyPartition(const adm::Value& primary_key, size_t targets) {
  return HashPartition(primary_key.ToAdmString(), targets);
}

Router::Router(ConnectorDescriptor connector, int source_partition,
               std::vector<std::shared_ptr<Task>> targets)
    : connector_(std::move(connector)),
      source_partition_(source_partition),
      targets_(std::move(targets)) {}

Status Router::NextFrame(const FramePtr& frame) {
  switch (connector_.kind) {
    case ConnectorKind::kOneToOne: {
      size_t target = static_cast<size_t>(source_partition_) %
                      targets_.size();
      targets_[target]->Enqueue(FrameMessage::Data(frame));
      return Status::OK();
    }
    case ConnectorKind::kMToNRandom: {
      targets_[round_robin_++ % targets_.size()]->Enqueue(
          FrameMessage::Data(frame));
      return Status::OK();
    }
    case ConnectorKind::kMToNHash: {
      // Re-batch records (and their tracking ids) per target partition.
      struct Bucket {
        std::vector<adm::Value> records;
        std::vector<int64_t> tids;
      };
      std::map<size_t, Bucket> buckets;
      const std::vector<adm::Value>& records = frame->records();
      for (size_t i = 0; i < records.size(); ++i) {
        std::string key = connector_.key_extractor
                              ? connector_.key_extractor(records[i])
                              : records[i].ToAdmString();
        Bucket& bucket = buckets[HashPartition(key, targets_.size())];
        bucket.records.push_back(records[i]);
        if (frame->tracked()) bucket.tids.push_back(frame->tracking_id(i));
      }
      for (auto& [target, bucket] : buckets) {
        // Bucket frames only queue at tasks: a record-count share of the
        // input's byte estimate stands in for a walk of every record.
        const size_t bytes =
            frame->ApproxBytes() * bucket.records.size() / records.size();
        targets_[target]->Enqueue(FrameMessage::Data(
            MakeFrame(std::move(bucket.records), bytes, frame->trace(),
                      std::move(bucket.tids))));
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

void Router::Fail() {
  for (auto& target : targets_) target->Enqueue(FrameMessage::Fail());
}

Status Router::Close() {
  switch (connector_.kind) {
    case ConnectorKind::kOneToOne: {
      size_t target = static_cast<size_t>(source_partition_) %
                      targets_.size();
      targets_[target]->Enqueue(FrameMessage::Eos());
      break;
    }
    case ConnectorKind::kMToNRandom:
    case ConnectorKind::kMToNHash:
      for (auto& target : targets_) {
        target->Enqueue(FrameMessage::Eos());
      }
      break;
  }
  return Status::OK();
}

}  // namespace hyracks
}  // namespace asterix
