#include "feeds/operators.h"

#include <stdexcept>

#include "adm/parser.h"
#include "common/clock.h"
#include "common/logging.h"
#include "feeds/trace.h"

namespace asterix {
namespace feeds {

using adm::Value;
using common::Status;
using hyracks::FramePtr;
using hyracks::TaskContext;

namespace {

// How often a paced pull source re-checks its subscribers' backlog. A
// read-ahead of 1/8 of the default 32 MiB budget takes tens of ms to
// drain, so a waiting collect wakes often enough; polling faster only
// adds wake-ups on a host the pipeline already keeps busy.
constexpr int64_t kReadAheadPollMicros = 1000;

// Claims `count` tracking-id sequence numbers, unique in the process: a
// successor intake keeps its predecessor's unacked ids, and an ack for an
// old id must never match a fresh one.
int64_t ClaimTrackingSeqs(size_t count) {
  static std::atomic<int64_t> next{0};
  // relaxed: uniqueness needs only the atomicity of the RMW.
  return next.fetch_add(static_cast<int64_t>(count),
                        std::memory_order_relaxed);
}

// A frame of ledger entries under their own tracking ids (replay and
// handoff frames).
FramePtr LedgerFrame(std::vector<PendingTracker::Entry> entries,
                     hyracks::TraceContext tc) {
  std::vector<Value> records;
  std::vector<int64_t> tids;
  records.reserve(entries.size());
  tids.reserve(entries.size());
  size_t bytes = 0;
  for (auto& [tid, record] : entries) {
    bytes += record.ApproxSizeBytes();
    tids.push_back(tid);
    records.push_back(std::move(record));
  }
  return hyracks::MakeFrame(std::move(records), bytes, tc, std::move(tids));
}

}  // namespace

// --- FeedCollectOperator ------------------------------------------------

FeedCollectOperator::FeedCollectOperator(
    std::shared_ptr<AdaptorFactory> factory, AdaptorConfig config,
    std::string joint_id, PipelineConfig pipeline)
    : factory_(std::move(factory)),
      config_(std::move(config)),
      joint_id_(std::move(joint_id)),
      pipeline_(std::move(pipeline)) {}

Status FeedCollectOperator::Open(TaskContext* ctx) {
  // The joint at this operator's output is installed by the scheduler's
  // output interceptor and registered with the local Feed Manager before
  // tasks start; grab it to observe the subscriber count.
  own_joint_ = FeedManager::Of(ctx->node())->LookupJoint(joint_id_);
  return Status::OK();
}

Status FeedCollectOperator::Run(TaskContext* ctx) {
  hyracks::FrameAppender appender(ctx->writer(),
                                  pipeline_.frame_records);
  // Traces are born here, at the source: each emitted frame draws a fresh
  // sampling decision when its first record arrives.
  appender.SetTraceSource([] { return Tracer::Instance().StartTrace(); });
  const int64_t max_soft =
      pipeline_.policy.max_consecutive_soft_failures();
  const bool recover_soft = pipeline_.policy.recover_soft_failure();
  // A pull source reads no further ahead of its subscribers than their
  // read-ahead allowance, one frame at a time; a push source's pace is
  // the source's, so its excess is left to the ingestion policy.
  const bool paced = !factory_->push_based() && own_joint_ != nullptr;
  const size_t fetch_max = paced ? pipeline_.frame_records : 256;

  while (!ctx->ShouldStop()) {
    // Deferred adaptor creation (§5.3.1): no data is fetched from the
    // external source until someone asks for this feed's output.
    if (adaptor_ == nullptr) {
      if (own_joint_ != nullptr && own_joint_->subscriber_count() == 0) {
        common::SleepMillis(2);
        continue;
      }
      auto adaptor = factory_->Create(config_, ctx->partition(),
                                      ctx->partition_count());
      if (!adaptor.ok()) return adaptor.status();
      adaptor_ = std::move(adaptor).value();
    }
    if (paced && own_joint_->ReadAheadFull()) {
      common::SleepMicros(kReadAheadPollMicros);
      continue;
    }

    auto batch = adaptor_->Fetch(fetch_max, /*timeout_ms=*/20);
    if (!batch.ok()) {
      // External source failure: recovery is the adaptor's job (§6.2.3).
      Status reconnect = adaptor_->Reconnect();
      if (!reconnect.ok()) {
        LOG_MSG(kWarn) << "feed " << pipeline_.connection_id
                       << ": source lost and reconnect failed: "
                       << reconnect.ToString();
        return reconnect;  // the feed terminates
      }
      continue;
    }
    for (const std::string& payload : batch->payloads) {
      auto record = adm::ParseAdm(payload);
      if (!record.ok()) {
        // Formatting error in the content: a soft failure (§6.1).
        pipeline_.metrics->soft_failures.fetch_add(1);
        LOG_MSG(kWarn) << "feed " << pipeline_.connection_id
                       << ": dropped malformed record: "
                       << record.status().message();
        if (!recover_soft) return record.status();
        if (++consecutive_soft_failures_ > max_soft) {
          return Status::Aborted(
              "feed exceeded " + std::to_string(max_soft) +
              " consecutive soft failures at intake; likely a bad "
              "source or invalid assumption about its format");
        }
        continue;
      }
      consecutive_soft_failures_ = 0;
      pipeline_.metrics->records_collected.fetch_add(1);
      RETURN_IF_ERROR(appender.Append(std::move(*record)));
    }
    RETURN_IF_ERROR(appender.FlushFrame());
    if (batch->end_of_source) return Status::OK();
  }
  return appender.FlushFrame();
}

// --- FeedIntakeOperator ---------------------------------------------------

FeedIntakeOperator::FeedIntakeOperator(std::string source_joint_id,
                                       PipelineConfig pipeline)
    : source_joint_id_(std::move(source_joint_id)),
      pipeline_(std::move(pipeline)) {}

SubscriberOptions IntakeSubscriberOptions(const PipelineConfig& pipeline,
                                          int partition) {
  SubscriberOptions options;
  options.mode = pipeline.policy.excess_mode();
  options.memory_budget_bytes = pipeline.policy.memory_budget_bytes();
  options.max_spill_bytes = pipeline.policy.max_spill_bytes();
  options.throttle_after_spill = pipeline.policy.GetBool(
      IngestionPolicy::kExcessRecordsThrottle, false) &&
      options.mode == ExcessMode::kSpill;
  options.spill_dir = pipeline.spill_dir;
  options.name = pipeline.connection_id + ".p" + std::to_string(partition);
  return options;
}

Status FeedIntakeOperator::Open(TaskContext* ctx) {
  feed_manager_ = FeedManager::Of(ctx->node());
  // The search API (§5.2): discover the co-located subscribable instance.
  source_joint_ = feed_manager_->LookupJoint(source_joint_id_);
  if (source_joint_ == nullptr) {
    return Status::NotFound("node " + ctx->node_id() +
                            " has no feed joint '" + source_joint_id_ +
                            "' (intake must be co-located)");
  }

  SubscriberOptions options =
      IntakeSubscriberOptions(pipeline_, ctx->partition());
  at_least_once_ = pipeline_.policy.at_least_once() &&
                   options.mode != ExcessMode::kDiscard &&
                   options.mode != ExcessMode::kThrottle;
  if (at_least_once_) {
    pending_ = std::make_unique<PendingTracker>(
        pipeline_.policy.ack_timeout_ms());
    PendingTracker* tracker = pending_.get();
    pipeline_.ack_bus->Register(
        pipeline_.connection_id, ctx->partition(),
        [tracker](const std::vector<int64_t>& tids) {
          tracker->Ack(tids);
        });
  }

  // Resume any state handed off by a predecessor instance (recovery):
  // oldest first — the predecessor's unforwarded frames, already tagged
  // with its (process-unique) tracking ids...
  std::string state_key = pipeline_.connection_id + ":intake:" +
                          std::to_string(ctx->partition());
  for (FramePtr& frame : feed_manager_->TakeZombieState(state_key)) {
    held_.push_back(std::move(frame));
  }
  // ...then its still-subscribed input buffer (or the one the connect
  // path subscribed before this job started), adopted outright when the
  // producing joint is unchanged (no delivery gap), or drained into the
  // held buffer when the head was itself rebuilt.
  auto handoff = feed_manager_->TakeIntakeHandoff(state_key);
  if (handoff.has_value()) {
    if (handoff->joint == source_joint_) {
      queue_ = handoff->queue;
    } else {
      handoff->joint->Unsubscribe(handoff->queue);
      for (;;) {
        std::vector<FramePtr> batch = handoff->queue->NextBatch(0);
        if (batch.empty()) break;
        for (FramePtr& frame : batch) {
          held_.push_back(Tag(frame, ctx->partition()));
        }
      }
    }
  }
  if (queue_ == nullptr) queue_ = source_joint_->Subscribe(options);
  pipeline_.metrics->RegisterIntakeQueue(queue_);
  return Status::OK();
}

FramePtr FeedIntakeOperator::Tag(const FramePtr& frame, int partition) {
  if (!at_least_once_) {
    if (!frame->tracked()) return frame;
    return hyracks::MakeFrame(frame->records(), frame->ApproxBytes(),
                              frame->trace());
  }
  // Mint ids for every frame from the queue, even one carrying ids minted
  // upstream (a child feed reading its parent's joint): acks for this
  // connection must route back to this intake partition.
  const std::vector<Value>& records = frame->records();
  std::vector<int64_t> tids(records.size(), -1);
  const int64_t seq = ClaimTrackingSeqs(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    if (records[i].is_record()) {
      tids[i] = MakeTrackingId(partition, seq + static_cast<int64_t>(i));
    }
  }
  return hyracks::MakeFrame(records, frame->ApproxBytes(), frame->trace(),
                            std::move(tids));
}

Status FeedIntakeOperator::ForwardFrame(const FramePtr& frame,
                                        TaskContext* ctx) {
  hyracks::TraceContext tc = frame->trace();
  if (!tc.sampled()) {
    // Frames arriving untraced (zombie restores, spill round-trips, heads
    // built before sampling was enabled) get stamped at intake — one
    // relaxed load when sampling is off.
    tc = Tracer::Instance().StartTrace();
  }
  const int64_t start_us = tc.sampled() ? common::NowMicros() : 0;
  Status result = ForwardTagged(frame, tc, ctx);
  if (tc.sampled()) {
    // Primary span: augmentation + downstream router hand-off.
    TraceSpan span;
    span.trace_id = tc.id;
    span.stage = "intake";
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

Status FeedIntakeOperator::ForwardTagged(const FramePtr& frame,
                                         const hyracks::TraceContext& tc,
                                         TaskContext* ctx) {
  // Remember tracked records until the store stage acks them (§5.6).
  // Re-tracking a replayed record only restarts its timeout.
  if (at_least_once_ && frame->tracked()) {
    pending_->Track(frame->tracking_ids(), frame->records());
  }
  if (tc.sampled() && !frame->trace().sampled()) {
    // Re-wrap to carry the trace minted above (records are shared
    // values; only the frame shell is rebuilt).
    return ctx->writer()->NextFrame(
        hyracks::MakeFrame(frame->records(), frame->ApproxBytes(), tc,
                           frame->tracking_ids()));
  }
  return ctx->writer()->NextFrame(frame);
}

Status FeedIntakeOperator::Run(TaskContext* ctx) {
  Status status = Pump(ctx);
  // Unless handed to a successor, the input queue ends with this
  // instance: left subscribed, nothing would drain it, and a paced pull
  // source would wait on its backlog forever.
  if (queue_ != nullptr) source_joint_->Unsubscribe(queue_);
  return status;
}

Status FeedIntakeOperator::Pump(TaskContext* ctx) {
  // Tracking ids embed the partition for ack routing.
  const int partition = ctx->partition();

  while (true) {
    if (ctx->ShouldStop()) {
      if (!ctx->GracefulStopRequested()) return Status::OK();  // killed
      // Graceful disconnect: stop receiving new data, but let already
      // received records traverse the pipeline (§5.5).
      source_joint_->Unsubscribe(queue_);
      for (FramePtr& frame : held_) RETURN_IF_ERROR(ForwardFrame(frame, ctx));
      held_.clear();
      for (;;) {
        std::vector<FramePtr> batch = queue_->NextBatch(0);
        if (batch.empty()) break;
        for (FramePtr& frame : batch) {
          RETURN_IF_ERROR(ForwardFrame(Tag(frame, partition), ctx));
        }
      }
      return Status::OK();
    }

    Mode mode = mode_.load();
    if (mode == Mode::kHandoff) {
      // Hand everything to the successor instance (§6.2.3): the held
      // frames and the unacked at-least-once ledger go to the local Feed
      // Manager as zombie state, and the input queue is left SUBSCRIBED
      // and saved as an intake handoff — the successor takes ownership
      // of the input buffer, so no frame routed during the swap is lost.
      std::vector<FramePtr> state = std::move(held_);
      held_.clear();
      if (at_least_once_) {
        std::vector<PendingTracker::Entry> unacked = pending_->TakeAll();
        if (!unacked.empty()) {
          state.push_back(LedgerFrame(std::move(unacked), {}));
        }
      }
      std::string state_key = pipeline_.connection_id + ":intake:" +
                              std::to_string(partition);
      feed_manager_->SaveZombieState(state_key, std::move(state));
      // Moving queue_ out leaves it null: Run must not unsubscribe it.
      feed_manager_->SaveIntakeHandoff(state_key,
                                       {source_joint_, std::move(queue_)});
      return Status::OK();
    }

    if (mode == Mode::kForward && !held_.empty()) {
      for (FramePtr& frame : held_) {
        RETURN_IF_ERROR(ForwardFrame(frame, ctx));
      }
      held_.clear();
    }

    if (queue_->failed()) return queue_->failure();

    // Batched hand-off: one acquisition of the subscriber queue's mutex
    // drains every queued frame.
    std::vector<FramePtr> batch = queue_->NextBatch(/*timeout_ms=*/20);
    if (!batch.empty()) {
      for (FramePtr& frame : batch) {
        if (mode_.load() == Mode::kBuffer) {
          held_.push_back(Tag(frame, partition));
        } else {
          RETURN_IF_ERROR(ForwardFrame(Tag(frame, partition), ctx));
        }
      }
    } else if (queue_->ended()) {
      // Under at-least-once the pending ledger may still hold records whose
      // acks never arrived (e.g. the store stage soft-failed them). Closing
      // now would orphan them, so keep pumping the replay loop below until
      // the ledger drains.
      if (!at_least_once_ || pending_->pending_count() == 0) {
        return Status::OK();
      }
    }

    // Replay of unacked records on timeout (§5.6).
    if (at_least_once_) {
      int64_t now = common::NowMillis();
      if (now - last_replay_check_ms_ >
          pipeline_.policy.ack_timeout_ms() / 2) {
        last_replay_check_ms_ = now;
        std::vector<PendingTracker::Entry> expired = pending_->TakeExpired();
        if (!expired.empty()) {
          pipeline_.metrics->records_replayed.fetch_add(
              static_cast<int64_t>(expired.size()));
          const int64_t replayed = static_cast<int64_t>(expired.size());
          // A replay frame starts a fresh trace (the original frame's
          // trace already terminated, at the store or in a failure); the
          // "replay" span links the restart for trace-conservation
          // accounting.
          hyracks::TraceContext replay_tc = Tracer::Instance().StartTrace();
          FramePtr replay = LedgerFrame(std::move(expired), replay_tc);
          if (replay_tc.sampled()) {
            TraceSpan span;
            span.trace_id = replay_tc.id;
            span.stage = "replay";
            span.where = pipeline_.connection_id;
            span.partition = ctx->partition();
            span.start_us = replay_tc.start_us;
            span.records = replayed;
            span.detail = true;
            span.status = "replay";
            Tracer::Instance().RecordSpan(std::move(span));
          }
          if (mode_.load() == Mode::kBuffer) {
            held_.push_back(std::move(replay));
          } else {
            RETURN_IF_ERROR(ForwardFrame(replay, ctx));
          }
        }
      }
    }
  }
}

Status FeedIntakeOperator::Close(TaskContext* ctx) {
  if (at_least_once_) {
    pipeline_.ack_bus->Unregister(pipeline_.connection_id,
                                  ctx->partition());
  }
  return Status::OK();
}

void FeedIntakeOperator::OnSignal(const std::string& signal) {
  if (signal == kSignalBuffer) {
    mode_.store(Mode::kBuffer);
  } else if (signal == kSignalForward) {
    mode_.store(Mode::kForward);
  } else if (signal == kSignalHandoff) {
    mode_.store(Mode::kHandoff);
  }
}

// --- AssignOperator ---------------------------------------------------------

AssignOperator::AssignOperator(std::vector<std::shared_ptr<Udf>> udfs,
                               PipelineConfig pipeline)
    : udfs_(std::move(udfs)), pipeline_(std::move(pipeline)) {}

Status AssignOperator::Open(TaskContext* ctx) {
  (void)ctx;
  for (auto& udf : udfs_) udf->Initialize();
  if (pipeline_.policy.at_least_once()) {
    acks_ = std::make_unique<AckCollector>(
        pipeline_.ack_bus, pipeline_.connection_id,
        pipeline_.policy.ack_window_ms());
  }
  return Status::OK();
}

Status AssignOperator::Close(TaskContext* ctx) {
  (void)ctx;
  if (acks_ != nullptr) acks_->Flush();
  return Status::OK();
}

Status AssignOperator::ProcessFrame(const FramePtr& frame,
                                    TaskContext* ctx) {
  hyracks::FrameAppender appender(ctx->writer(), pipeline_.frame_records);
  // Output frames inherit the input frame's trace (re-batching preserves
  // identity through the compute stage).
  const hyracks::TraceContext tc = frame->trace();
  appender.SetTrace(tc);
  int64_t udf_us = 0;
  const int64_t udf_start_us = tc.sampled() ? common::NowMicros() : 0;
  const std::vector<Value>& records = frame->records();
  filtered_tids_.clear();
  for (size_t i = 0; i < records.size(); ++i) {
    Value current = records[i];
    bool filtered = false;
    const int64_t apply_start_us = tc.sampled() ? common::NowMicros() : 0;
    for (auto& udf : udfs_) {
      auto result = udf->Apply(current);  // may throw (soft failure)
      if (!result.has_value()) {
        filtered = true;
        break;
      }
      current = std::move(*result);
    }
    if (tc.sampled()) udf_us += common::NowMicros() - apply_start_us;
    if (filtered) {
      // No later stage sees a filtered record, so its journey ends here:
      // ack it, or the intake would replay it on every timeout.
      if (frame->tracked()) filtered_tids_.push_back(frame->tracking_id(i));
      continue;
    }
    pipeline_.metrics->records_computed.fetch_add(1);
    // The output record keeps its input's tracking id.
    RETURN_IF_ERROR(frame->tracked() ? appender.Append(std::move(current),
                                                       frame->tracking_id(i))
                                     : appender.Append(std::move(current)));
  }
  if (tc.sampled() && !frame->empty()) {
    // Detail span: pure UDF time, excluding downstream forwarding done
    // inside Append/FlushFrame.
    TraceSpan span;
    span.trace_id = tc.id;
    span.stage = "udf";
    span.where = ctx->operator_name();
    span.partition = ctx->partition();
    span.start_us = udf_start_us;
    span.duration_us = udf_us;
    span.records = static_cast<int64_t>(frame->record_count());
    span.detail = true;
    Tracer::Instance().RecordSpan(std::move(span));
  }
  if (acks_ != nullptr && !filtered_tids_.empty()) {
    acks_->OnPersisted(filtered_tids_);
  }
  return appender.FlushFrame();
}

// --- FeedStoreOperator ------------------------------------------------------

FeedStoreOperator::FeedStoreOperator(std::string dataset,
                                     PipelineConfig pipeline)
    : dataset_(std::move(dataset)), pipeline_(std::move(pipeline)) {}

Status FeedStoreOperator::Open(TaskContext* ctx) {
  partition_ = ctx->node()->storage().GetPartition(dataset_);
  if (partition_ == nullptr) {
    return Status::NotFound("node " + ctx->node_id() +
                            " hosts no partition of dataset '" + dataset_ +
                            "'");
  }
  if (pipeline_.policy.at_least_once()) {
    acks_ = std::make_unique<AckCollector>(
        pipeline_.ack_bus, pipeline_.connection_id,
        pipeline_.policy.ack_window_ms());
  }
  e2e_latency_ = common::MetricsRegistry::Default().GetHistogram(
      "feed_intake_to_store_latency_us",
      {{"connection", pipeline_.connection_id}});
  return Status::OK();
}

Status FeedStoreOperator::ProcessFrame(const FramePtr& frame,
                                       TaskContext* ctx) {
  (void)ctx;
  Status status = partition_->InsertFrame(frame->records());
  if (!status.ok()) {
    // Per-record insert problems (missing key, type violation) are soft
    // failures: surface as an exception for the MetaFeed sandbox, which
    // retries the frame a record at a time.
    throw std::runtime_error(status.ToString());
  }
  const int64_t stored = static_cast<int64_t>(frame->record_count());
  pipeline_.metrics->records_stored.fetch_add(stored);
  if (stored > 0) pipeline_.metrics->store_timeline.Add(stored);
  // After the frame's WAL group commit (and flush, when durable): acked
  // implies flushed.
  if (acks_ != nullptr && frame->tracked()) {
    acks_->OnPersisted(frame->tracking_ids());
  }
  if (frame->trace().sampled()) {
    // End of the line for this trace: trace birth -> durably inserted.
    e2e_latency_->Record(common::NowMicros() - frame->trace().start_us);
  }
  return Status::OK();
}

Status FeedStoreOperator::Close(TaskContext* ctx) {
  (void)ctx;
  if (acks_ != nullptr) acks_->Flush();
  return Status::OK();
}

}  // namespace feeds
}  // namespace asterix
