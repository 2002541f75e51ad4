// Frames: the unit of data movement between operators. As in Hyracks, data
// flows in fixed-size chunks of records; a frame is immutable once emitted
// so that a feed joint can route one frame along many paths without copies.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "adm/value.h"
#include "common/status.h"

namespace asterix {
namespace hyracks {

class FramePool;  // frame_pool.h: recycles frame blocks + record buffers

/// Trace identity carried by a frame through the cascade. id == 0 means
/// "not sampled" — every tracing hook guards on that before doing any
/// work, so an untraced frame costs a plain member read per hook.
/// Stamped at the source (or at intake for frames arriving untraced) and
/// propagated by operators that re-batch records into new frames.
struct TraceContext {
  uint64_t id = 0;
  int64_t start_us = 0;  // steady-clock micros at trace birth

  bool sampled() const { return id != 0; }
};

/// A batch of ADM records. Immutable after construction (shared between
/// subscribers of a feed joint via shared_ptr).
class Frame {
 public:
  Frame() = default;
  explicit Frame(std::vector<adm::Value> records)
      : records_(std::move(records)) {
    for (const auto& r : records_) approx_bytes_ += r.ApproxSizeBytes();
  }
  /// Constructor for producers that already know the payload size (e.g.
  /// FrameAppender tracks a running byte count), skipping the walk.
  Frame(std::vector<adm::Value> records, size_t approx_bytes)
      : records_(std::move(records)), approx_bytes_(approx_bytes) {}
  /// `tracking_ids` is empty (an untracked frame) or holds one
  /// at-least-once tracking id per record, -1 for an untracked record.
  Frame(std::vector<adm::Value> records, size_t approx_bytes,
        TraceContext trace, std::vector<int64_t> tracking_ids = {})
      : records_(std::move(records)),
        tracking_ids_(std::move(tracking_ids)),
        approx_bytes_(approx_bytes),
        trace_(trace) {}
  Frame(std::vector<adm::Value> records, TraceContext trace)
      : Frame(std::move(records)) {
    trace_ = trace;
  }
  Frame(const Frame&) = default;
  Frame& operator=(const Frame&) = default;
  /// Out-of-line (frame_pool.cc): a pooled frame hands its record buffer
  /// back to its FramePool when the last subscriber releases it.
  ~Frame();

  const std::vector<adm::Value>& records() const { return records_; }
  size_t record_count() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  /// Approximate payload bytes (memory budgeting for policies). Computed
  /// once at construction — frames are immutable — so per-frame policy and
  /// budget checks don't re-walk every record.
  size_t ApproxBytes() const { return approx_bytes_; }

  const TraceContext& trace() const { return trace_; }

  /// The at-least-once tracking-id column (§5.6): minted by the intake
  /// stage, carried beside the records by every operator that re-batches
  /// them, and acked by the store. Empty when the frame is untracked;
  /// otherwise parallel to records(), with -1 for an untracked record.
  const std::vector<int64_t>& tracking_ids() const { return tracking_ids_; }
  bool tracked() const { return !tracking_ids_.empty(); }
  /// Tracking id of record `i`, or -1.
  int64_t tracking_id(size_t i) const {
    return tracking_ids_.empty() ? -1 : tracking_ids_[i];
  }

 private:
  friend class FramePool;  // sets pool_ at pooled construction
  std::vector<adm::Value> records_;
  std::vector<int64_t> tracking_ids_;
  size_t approx_bytes_ = 0;
  TraceContext trace_;
  /// Owning pool for recycled frames; null for plain MakeFrame frames.
  FramePool* pool_ = nullptr;
};

using FramePtr = std::shared_ptr<const Frame>;

inline FramePtr MakeFrame(std::vector<adm::Value> records) {
  return std::make_shared<const Frame>(std::move(records));
}

inline FramePtr MakeFrame(std::vector<adm::Value> records,
                          size_t approx_bytes) {
  return std::make_shared<const Frame>(std::move(records), approx_bytes);
}

inline FramePtr MakeFrame(std::vector<adm::Value> records,
                          TraceContext trace) {
  return std::make_shared<const Frame>(std::move(records), trace);
}

inline FramePtr MakeFrame(std::vector<adm::Value> records, size_t approx_bytes,
                          TraceContext trace,
                          std::vector<int64_t> tracking_ids = {}) {
  return std::make_shared<const Frame>(std::move(records), approx_bytes,
                                       trace, std::move(tracking_ids));
}

/// Control-or-data message travelling between operator instances.
struct FrameMessage {
  enum class Kind {
    kData,  // carries a frame
    kEos,   // producer finished cleanly (close() in the paper)
    kFail,  // producer failed; non-resumable in a plain Hyracks job
  };
  Kind kind = Kind::kData;
  FramePtr frame;

  static FrameMessage Data(FramePtr f) {
    return {Kind::kData, std::move(f)};
  }
  static FrameMessage Eos() { return {Kind::kEos, nullptr}; }
  static FrameMessage Fail() { return {Kind::kFail, nullptr}; }
};

/// The paper's IFrameWriter: the handle an operator uses to push output
/// frames downstream, agnostic of what sits behind it (a connector, a feed
/// joint, a test sink, ...).
class IFrameWriter {
 public:
  virtual ~IFrameWriter() = default;
  [[nodiscard]] virtual common::Status Open() { return common::Status::OK(); }
  [[nodiscard]] virtual common::Status NextFrame(const FramePtr& frame) = 0;
  /// Signals abnormal termination of the producing operator.
  virtual void Fail() {}
  /// Signals clean end-of-data.
  [[nodiscard]] virtual common::Status Close() { return common::Status::OK(); }
};

/// Accumulates records and emits full frames to a writer. Frame capacity
/// is both a record-count and byte bound, whichever trips first.
///
/// With a FramePool the appender emits pooled frames and rebuilds each
/// new frame in a recycled record buffer: the warm steady state performs
/// no heap allocation per frame (see frame_pool.h).
class FrameAppender {
 public:
  FrameAppender(IFrameWriter* writer, size_t max_records = 128,
                size_t max_bytes = 32 * 1024, FramePool* pool = nullptr)
      : writer_(writer),
        max_records_(max_records),
        max_bytes_(max_bytes),
        pool_(pool) {}

  [[nodiscard]] common::Status Append(adm::Value record) {
    if (pending_.empty()) {
      // A new frame is born with this record: stamp its trace identity.
      pending_trace_ = trace_source_ ? trace_source_() : fixed_trace_;
    }
    pending_.push_back(std::move(record));
    pending_bytes_ += pending_.back().ApproxSizeBytes();
    if (pending_.size() >= max_records_ || pending_bytes_ >= max_bytes_) {
      return FlushFrame();
    }
    return common::Status::OK();
  }

  /// Appends a record with its tracking id; the emitted frame carries the
  /// id column (-1 for any record of it appended without an id).
  [[nodiscard]] common::Status Append(adm::Value record, int64_t tracking_id) {
    pending_tids_.resize(pending_.size(), -1);
    pending_tids_.push_back(tracking_id);
    return Append(std::move(record));
  }

  /// Emits any buffered records as a final (possibly short) frame.
  /// Out-of-line (frame_pool.cc): the pooled path recycles buffers.
  [[nodiscard]] common::Status FlushFrame();

  /// All emitted frames inherit this trace (operators that re-batch an
  /// input frame's records propagate the input trace this way).
  void SetTrace(TraceContext trace) {
    fixed_trace_ = trace;
    trace_source_ = nullptr;
  }

  /// Called once per emitted frame, when its first record is appended
  /// (sources that mint a fresh trace per frame).
  void SetTraceSource(std::function<TraceContext()> source) {
    trace_source_ = std::move(source);
  }

 private:
  IFrameWriter* writer_;
  const size_t max_records_;
  const size_t max_bytes_;
  FramePool* pool_;
  std::vector<adm::Value> pending_;
  std::vector<int64_t> pending_tids_;  // empty unless records came tracked
  size_t pending_bytes_ = 0;
  TraceContext pending_trace_;
  TraceContext fixed_trace_;
  std::function<TraceContext()> trace_source_;
};

}  // namespace hyracks
}  // namespace asterix

