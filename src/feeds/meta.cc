#include "feeds/meta.h"

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "feeds/trace.h"
#include "hyracks/node.h"

namespace asterix {
namespace feeds {

using adm::Value;
using common::Status;
using hyracks::FramePtr;
using hyracks::TaskContext;

Status MetaFeedOperator::Open(TaskContext* ctx) {
  RETURN_IF_ERROR(core_->Open(ctx));
  // Resurrect: take ownership of the unprocessed input a zombie
  // predecessor saved with the local Feed Manager (§6.2.2) and process it
  // before any new input — minimizing data loss from the failure.
  if (!options_.state_key_prefix.empty()) {
    auto fm = FeedManager::Of(ctx->node());
    std::string key = options_.state_key_prefix + ":" +
                      std::to_string(ctx->partition());
    auto frames = fm->TakeZombieState(key);
    for (const FramePtr& frame : frames) {
      RETURN_IF_ERROR(ProcessFrame(frame, ctx));
    }
    if (!frames.empty()) {
      LOG_MSG(kInfo) << "restored " << frames.size()
                     << " zombie frames for " << key;
    }
  }
  return Status::OK();
}

Status MetaFeedOperator::ProcessFrame(const FramePtr& frame,
                                      TaskContext* ctx) {
  ASTERIX_FAILPOINT("feeds.meta.process_frame");
  const hyracks::TraceContext tc = frame->trace();
  const int64_t start_us = tc.sampled() ? common::NowMicros() : 0;
  Status result = ProcessFrameSandboxed(frame, ctx);
  if (tc.sampled()) {
    // Primary span for this wrapped operator instance ("assign0",
    // "store", ...): the whole core call including soft-failure slicing.
    TraceSpan span;
    span.trace_id = tc.id;
    span.stage = ctx->operator_name();
    span.where = ctx->node_id();
    span.partition = ctx->partition();
    span.start_us = start_us;
    span.duration_us = common::NowMicros() - start_us;
    span.records = static_cast<int64_t>(frame->record_count());
    span.status = result.ok() ? "ok" : "error";
    Tracer::Instance().RecordSpan(std::move(span));
  }
  return result;
}

Status MetaFeedOperator::ProcessFrameSandboxed(const FramePtr& frame,
                                               TaskContext* ctx) {
  if (!options_.sandbox_soft_failures) {
    return core_->ProcessFrame(frame, ctx);
  }
  try {
    Status status = core_->ProcessFrame(frame, ctx);
    if (status.ok()) consecutive_failures_ = 0;
    return status;
  } catch (const std::exception& first) {
    // The frame contains at least one exception-generating record. The
    // paper slices the input frame past the offender and hands the
    // remnant back to the core operator; record-at-a-time reprocessing
    // below has identical semantics (every healthy record is processed
    // exactly once more, every offender is skipped and logged).
    const std::vector<Value>& records = frame->records();
    for (size_t i = 0; i < records.size(); ++i) {
      const Value& record = records[i];
      try {
        // Faults injected here hit the record-at-a-time remnant slice —
        // the second chance a record gets after a whole-frame failure.
        // The slice keeps the record's tracking id and a share of the
        // frame's byte estimate.
        ASTERIX_FAILPOINT_THROW("feeds.meta.slice");
        std::vector<int64_t> tid;
        if (frame->tracked()) tid.push_back(frame->tracking_id(i));
        RETURN_IF_ERROR(core_->ProcessFrame(
            hyracks::MakeFrame({record}, frame->ApproxBytes() / records.size(),
                               frame->trace(), std::move(tid)),
            ctx));
        consecutive_failures_ = 0;
      } catch (const std::exception& e) {
        ++soft_failures_;
        ++consecutive_failures_;
        if (options_.metrics != nullptr) {
          options_.metrics->soft_failures.fetch_add(1);
        }
        if (frame->trace().sampled()) {
          // Terminal detail span: this record left the pipeline here.
          TraceSpan span;
          span.trace_id = frame->trace().id;
          span.stage = "soft-failure";
          span.where = ctx->operator_name();
          span.partition = ctx->partition();
          span.start_us = common::NowMicros();
          span.records = 1;
          span.detail = true;
          span.status = "soft-failure";
          Tracer::Instance().RecordSpan(std::move(span));
        }
        LogSoftFailure(record, e.what(), ctx);
        if (consecutive_failures_ >
            options_.max_consecutive_soft_failures) {
          // A never-ending skip cycle indicates a bug or an invalid
          // assumption about the source; end the faulty feed (§6.1.2).
          return Status::Aborted(
              "feed exceeded " +
              std::to_string(options_.max_consecutive_soft_failures) +
              " consecutive soft failures: " + std::string(e.what()));
        }
      }
    }
    return Status::OK();
  }
}

void MetaFeedOperator::LogSoftFailure(const Value& record,
                                      const std::string& what,
                                      TaskContext* ctx) {
  // At minimum the exception and causing record go to the error log.
  LOG_MSG(kWarn) << "soft failure in " << ctx->operator_name() << "["
                 << ctx->partition() << "]: " << what
                 << " record=" << record.ToAdmString();
  if (!options_.log_to_dataset) return;
  // Optionally persist into a dedicated dataset for later diagnosis.
  auto* partition =
      ctx->node()->storage().GetPartition(options_.exception_dataset);
  if (partition == nullptr) return;
  Value entry = Value::Record({
      {"id", Value::String(ctx->node_id() + ":" + ctx->operator_name() +
                           ":" + std::to_string(ctx->partition()) + ":" +
                           std::to_string(exception_log_seq_++))},
      {"operator", Value::String(ctx->operator_name())},
      {"partition", Value::Int64(ctx->partition())},
      {"message", Value::String(what)},
      {"record", Value::String(record.ToAdmString())},
      {"at", Value::Datetime(common::NowMillis())},
  });
  Status insert_status = partition->Insert(entry);
  if (!insert_status.ok()) {
    // The record already went to the error log above; failing to ALSO
    // persist it into the exception dataset must not cascade into the
    // soft-failure path that is reporting it.
    LOG_MSG(kWarn) << "exception-dataset insert failed: "
                   << insert_status.message();
  }
}

std::unique_ptr<hyracks::Operator> WrapWithMetaFeed(
    std::unique_ptr<hyracks::Operator> core, const IngestionPolicy& policy,
    std::string state_key_prefix,
    std::shared_ptr<ConnectionMetrics> metrics) {
  MetaFeedOptions options;
  options.sandbox_soft_failures = policy.recover_soft_failure();
  options.max_consecutive_soft_failures =
      policy.max_consecutive_soft_failures();
  options.log_to_dataset = policy.log_soft_failures_to_dataset();
  options.state_key_prefix = std::move(state_key_prefix);
  options.metrics = std::move(metrics);
  return std::make_unique<MetaFeedOperator>(std::move(core),
                                            std::move(options));
}

}  // namespace feeds
}  // namespace asterix
