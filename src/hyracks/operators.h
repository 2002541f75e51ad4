// Reusable built-in operators. Operators stay simple and generic — data
// concerns separate from fault-tolerance concerns (the MetaFeed wrapper in
// the feeds layer adds the latter).
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "hyracks/node.h"
#include "hyracks/operator.h"

namespace asterix {
namespace hyracks {

/// Applies a per-record function; null results are dropped. The function
/// may throw — a plain Hyracks job then fails (non-resumable semantics);
/// inside a feed pipeline the MetaFeed wrapper sandboxes the throw.
class MapOperator : public Operator {
 public:
  /// Returns the transformed record, or nullopt to filter it out.
  using Fn = std::function<std::optional<adm::Value>(const adm::Value&)>;

  explicit MapOperator(Fn fn, size_t frame_records = 128)
      : fn_(std::move(fn)), frame_records_(frame_records) {}

  [[nodiscard]] common::Status ProcessFrame(const FramePtr& frame,
                              TaskContext* ctx) override {
    FrameAppender appender(ctx->writer(), frame_records_);
    for (const adm::Value& record : frame->records()) {
      auto out = fn_(record);
      if (out.has_value()) {
        RETURN_IF_ERROR(appender.Append(std::move(*out)));
      }
    }
    return appender.FlushFrame();
  }

 private:
  Fn fn_;
  const size_t frame_records_;
};

/// Inserts each record into this node's partition of `dataset` (primary
/// index + co-located secondary indexes). The paper's IndexInsert.
class IndexInsertOperator : public Operator {
 public:
  using InsertHook = std::function<void(const adm::Value&)>;

  explicit IndexInsertOperator(std::string dataset,
                               InsertHook on_insert = nullptr)
      : dataset_(std::move(dataset)), on_insert_(std::move(on_insert)) {}

  [[nodiscard]] common::Status Open(TaskContext* ctx) override {
    partition_ = ctx->node()->storage().GetPartition(dataset_);
    if (partition_ == nullptr) {
      return common::Status::NotFound(
          "node " + ctx->node_id() + " hosts no partition of dataset '" +
          dataset_ + "'");
    }
    return common::Status::OK();
  }

  [[nodiscard]] common::Status ProcessFrame(const FramePtr& frame,
                              TaskContext* ctx) override {
    (void)ctx;
    RETURN_IF_ERROR(partition_->InsertFrame(frame->records()));
    if (on_insert_) {
      for (const adm::Value& record : frame->records()) on_insert_(record);
    }
    return common::Status::OK();
  }

 private:
  const std::string dataset_;
  InsertHook on_insert_;
  storage::DatasetPartition* partition_ = nullptr;
};

/// Collects records into a shared, lock-guarded vector (tests).
class CollectSinkOperator : public Operator {
 public:
  struct Shared {
    common::Mutex mutex{common::LockRank::kCollectSink};
    std::vector<adm::Value> records GUARDED_BY(mutex);

    size_t size() {
      common::MutexLock lock(mutex);
      return records.size();
    }
    std::vector<adm::Value> Snapshot() {
      common::MutexLock lock(mutex);
      return records;
    }
  };

  explicit CollectSinkOperator(std::shared_ptr<Shared> shared)
      : shared_(std::move(shared)) {}

  [[nodiscard]] common::Status ProcessFrame(const FramePtr& frame,
                              TaskContext* ctx) override {
    (void)ctx;
    common::MutexLock lock(shared_->mutex);
    for (const adm::Value& record : frame->records()) {
      shared_->records.push_back(record);
    }
    return common::Status::OK();
  }

 private:
  std::shared_ptr<Shared> shared_;
};

/// Emits a fixed vector of records then finishes (batch-insert source).
class VectorSourceOperator : public Operator {
 public:
  explicit VectorSourceOperator(std::vector<adm::Value> records,
                                size_t frame_records = 128)
      : records_(std::move(records)), frame_records_(frame_records) {}

  bool is_source() const override { return true; }

  [[nodiscard]] common::Status Run(TaskContext* ctx) override {
    FrameAppender appender(ctx->writer(), frame_records_);
    for (adm::Value& record : records_) {
      if (ctx->ShouldStop()) break;
      RETURN_IF_ERROR(appender.Append(std::move(record)));
    }
    return appender.FlushFrame();
  }

  [[nodiscard]] common::Status ProcessFrame(const FramePtr&, TaskContext*) override {
    return common::Status::NotSupported("source operator");
  }

 private:
  std::vector<adm::Value> records_;
  const size_t frame_records_;
};

/// The paper's NullSink: consumes and discards frames.
class NullSinkOperator : public Operator {
 public:
  [[nodiscard]] common::Status ProcessFrame(const FramePtr&, TaskContext*) override {
    return common::Status::OK();
  }
};

}  // namespace hyracks
}  // namespace asterix

