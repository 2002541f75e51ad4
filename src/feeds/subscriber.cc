#include "feeds/subscriber.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "adm/binary.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "feeds/trace.h"

namespace asterix {
namespace feeds {

using common::Status;
using hyracks::FramePtr;

namespace {
// Seed of the sampling RNG (Throttle mode and the spill-overflow
// throttle), fixed so a queue's sampling is reproducible.
constexpr uint64_t kSampleSeed = 17;
}  // namespace

SubscriberQueue::SubscriberQueue(SubscriberOptions options)
    : options_(std::move(options)),
      mem_pool_(options_.memory_pool != nullptr
                    ? options_.memory_pool
                    : common::MemGovernor::Default().GetPool(
                          common::MemGovernor::kFramePathPool)),
      spill_pool_(options_.spill_pool != nullptr
                      ? options_.spill_pool
                      : common::MemGovernor::Default().GetPool(
                            common::MemGovernor::kSpillPool)),
      rng_(kSampleSeed) {
  spill_path_ = options_.spill_dir + "/" + options_.name + "." +
                std::to_string(common::NowMicros()) + ".spill";
}

SubscriberQueue::~SubscriberQueue() {
  // No concurrent producers/consumers by now (shared_ptr ownership).
  std::vector<Entry> leftover;
  size_t head = 0;
  {
    common::MutexLock lock(mutex_);
    leftover.swap(fifo_);
    head = head_;
    if (spill_file_ != nullptr) {
      std::fclose(spill_file_);
      std::remove(spill_path_.c_str());
    }
    if (spill_pool_ != nullptr && spill_charged_ > 0) {
      spill_pool_->Release(static_cast<size_t>(spill_charged_));
      spill_charged_ = 0;
    }
  }
  // Returns the governor charge for every still-buffered frame; the
  // frames themselves go with `leftover`.
  for (size_t i = head; i < leftover.size(); ++i) RetireEntry(leftover[i]);
}

FramePtr SubscriberQueue::SampleFrame(const FramePtr& frame,
                                      double keep_probability) {
  std::vector<adm::Value> kept;
  for (const adm::Value& record : frame->records()) {
    if (rng_.Chance(keep_probability)) {
      kept.push_back(record);
    } else {
      ++stats_.records_throttled_away;
    }
  }
  if (kept.empty()) return nullptr;
  return hyracks::MakeFrame(std::move(kept), frame->trace());
}

void SubscriberQueue::SpillLocked(const FramePtr& frame) {
  // A prior spill I/O failure is terminal: appending after a torn record
  // would misframe everything behind it.
  if (failed_) return;
  if (spill_file_ == nullptr) {
    spill_file_ = std::fopen(spill_path_.c_str(), "w+b");
    if (spill_file_ == nullptr) {
      failed_ = true;
      failure_ = Status::IOError("cannot open spill file " + spill_path_);
      return;
    }
  }
  // One [len][payload] entry per frame; the payload is one [len][binary
  // record] entry per record (adm/binary.h).
  std::string payload;
  for (const adm::Value& record : frame->records()) {
    const size_t header = payload.size();
    payload.append(sizeof(uint32_t), '\0');
    Status encoded = adm::AppendBinary(record, &payload);
    if (!encoded.ok()) {
      // A record the encoder refuses (nested too deep) cannot be spilled
      // and, spill order being FIFO, cannot be kept back either: fail the
      // queue with the reason rather than lose it, before any byte of the
      // frame is written.
      failed_ = true;
      if (failure_.ok()) {
        failure_ = Status::InvalidArgument("cannot spill a record to " +
                                           spill_path_ + ": " +
                                           encoded.message());
      }
      return;
    }
    const uint32_t record_len =
        static_cast<uint32_t>(payload.size() - header - sizeof(uint32_t));
    std::memcpy(payload.data() + header, &record_len, sizeof(record_len));
  }
  std::fseek(spill_file_, 0, SEEK_END);
  uint32_t len = static_cast<uint32_t>(payload.size());
  if (std::fwrite(&len, sizeof(len), 1, spill_file_) != 1 ||
      std::fwrite(payload.data(), 1, payload.size(), spill_file_) !=
          payload.size()) {
    // Short write (disk full, I/O error): the record is unrecoverable
    // and must NOT be counted — spill_pending_frames_ only tracks
    // frames the restore path can actually read back; a ghost count
    // would make the consumer retry the restore forever.
    failed_ = true;
    if (failure_.ok()) {
      failure_ =
          Status::IOError("short write to spill file " + spill_path_);
    }
    return;
  }
  ++spill_pending_frames_;
  ++stats_.frames_spilled;
  stats_.bytes_spilled += static_cast<int64_t>(payload.size());
  if (spill_pool_ != nullptr) {
    // Charge the actual on-disk bytes. Forced: admission control already
    // ran on the caller's frame-byte estimate (DeliverLocked's spill
    // lease); the serialized payload may differ slightly, and a written
    // record must be accounted either way.
    const size_t on_disk = sizeof(len) + payload.size();
    spill_pool_->ForceReserve(on_disk);
    spill_charged_ += static_cast<int64_t>(on_disk);
  }
}

bool SubscriberQueue::RestoreFromSpillLocked() {
  if (spill_pending_frames_ == 0 || spill_file_ == nullptr) {
    return false;
  }
  std::fflush(spill_file_);
  std::fseek(spill_file_, spill_read_offset_, SEEK_SET);
  // Restore a small batch per call so memory stays bounded.
  int restored = 0;
  bool torn = false;
  std::string corrupt;  // why a fully read frame did not decode
  while (spill_pending_frames_ > 0 && restored < 8) {
    uint32_t len = 0;
    if (std::fread(&len, sizeof(len), 1, spill_file_) != 1) {
      torn = true;
      break;
    }
    std::string payload(len, '\0');
    if (len > 0 && std::fread(payload.data(), 1, len, spill_file_) != len) {
      torn = true;
      break;
    }
    std::vector<adm::Value> records;
    for (size_t at = 0; at < payload.size() && corrupt.empty();) {
      uint32_t record_len = 0;
      if (payload.size() - at < sizeof(record_len)) {
        corrupt = "record header cut at byte " + std::to_string(at);
        break;
      }
      std::memcpy(&record_len, payload.data() + at, sizeof(record_len));
      at += sizeof(record_len);
      if (payload.size() - at < record_len) {
        corrupt = "record length overruns its frame at byte " +
                  std::to_string(at);
        break;
      }
      auto decoded = adm::DecodeBinary(
          std::string_view(payload).substr(at, record_len));
      if (!decoded.ok()) {
        corrupt = decoded.status().ToString();
        break;
      }
      records.push_back(std::move(decoded).value());
      at += record_len;
    }
    // A frame that does not decode is not consumed: it stays pending, so
    // the failure below reports it among the lost frames.
    if (!corrupt.empty()) break;
    spill_read_offset_ += static_cast<int64_t>(sizeof(len)) + len;
    --spill_pending_frames_;
    ++stats_.frames_restored;
    ++restored;
    if (!records.empty()) {
      Entry entry;
      entry.frame = hyracks::MakeFrame(std::move(records));
      // relaxed: budget gauge — RMWs keep it conserved and no payload
      // is published through it (frames travel via fifo_).
      pending_bytes_.fetch_add(
          static_cast<int64_t>(entry.frame->ApproxBytes()),
          std::memory_order_relaxed);
      if (mem_pool_ != nullptr) {
        // Forced: the restore path must drain the spill file even under
        // a starved governor (a refusal here would livelock the drain);
        // the overdraft is counted and visible.
        mem_pool_->ForceReserve(entry.frame->ApproxBytes());
      }
      PushLocked(std::move(entry));
    }
  }
  if (!corrupt.empty()) {
    // Spill files hold only what SpillLocked encoded: a record that does
    // not decode means the file was damaged, and every frame from here on
    // is unrecoverable. Fail the queue rather than skip records silently.
    LOG_MSG(kWarn) << options_.name << ": spill file " << spill_path_
                   << " corrupt (" << corrupt << "); "
                   << spill_pending_frames_ << " frame(s) lost";
    failed_ = true;
    if (failure_.ok()) {
      failure_ = Status::Corruption("spill file " + spill_path_ +
                                    " corrupt: " + corrupt);
    }
    spill_pending_frames_ = 0;
  } else if (torn && restored == 0 && spill_pending_frames_ > 0) {
    // The counter claims frames the file cannot yield (truncated or
    // torn by a failed write). Every write the counter accounts for
    // completed under this mutex before the increment, so no more bytes
    // can ever appear: a zero-progress pass is permanent, and leaving
    // the count nonzero would make the consumer retry this restore
    // forever. Reconcile the count and surface the I/O error as the
    // queue's terminal state.
    LOG_MSG(kWarn) << options_.name << ": spill file " << spill_path_
                   << " unreadable; " << spill_pending_frames_
                   << " frame(s) lost";
    failed_ = true;
    if (failure_.ok()) {
      failure_ = Status::IOError("spill file truncated or unreadable: " +
                                 spill_path_);
    }
    spill_pending_frames_ = 0;
  }
  if (spill_pending_frames_ == 0) {
    // Fully drained (or reconciled): reclaim the file so a later burst
    // starts fresh, and return its governor charge.
    std::fclose(spill_file_);
    std::remove(spill_path_.c_str());
    spill_file_ = nullptr;
    spill_read_offset_ = 0;
    if (spill_pool_ != nullptr && spill_charged_ > 0) {
      spill_pool_->Release(static_cast<size_t>(spill_charged_));
      spill_charged_ = 0;
    }
  }
  return restored > 0;
}

void SubscriberQueue::RetireEntry(const Entry& entry) {
  const size_t frame_bytes = entry.frame->ApproxBytes();
  // relaxed: budget gauge (see RestoreFromSpillLocked) — the RMW keeps
  // conservation; admission tolerates one-frame staleness.
  pending_bytes_.fetch_sub(static_cast<int64_t>(frame_bytes),
                           std::memory_order_relaxed);
  // Mirror of the charge taken where pending_bytes_ was incremented
  // (DeliverLocked's append / the spill-restore path): the governor's
  // view of this queue is exactly its pending bytes.
  if (mem_pool_ != nullptr) mem_pool_->Release(frame_bytes);
}

void SubscriberQueue::PushLocked(Entry entry) {
  // hot-ok: fifo_ never gives back capacity (PopLocked clears or
  // compacts it in place), so once it has held the largest backlog this
  // push allocates nothing.
  fifo_.push_back(std::move(entry));
}

void SubscriberQueue::PopLocked(std::vector<Entry>* out, size_t max_frames) {
  // Spilled frames are newer than everything in memory, so they are
  // restored only once the in-memory tier has drained. Each pass that
  // returns true consumed at least one spilled frame, so this ends.
  while (fifo_size() == 0 && spill_pending_frames_ > 0 &&
         RestoreFromSpillLocked()) {
  }
  const size_t n = std::min(max_frames, fifo_size());
  for (size_t i = 0; i < n; ++i) {
    // hot-ok: consumer-owned scratch vector (NextBatchInto's
    // thread_local), whose capacity is kept across calls.
    out->push_back(std::move(fifo_[head_ + i]));
  }
  head_ += n;
  if (head_ == fifo_.size()) {
    fifo_.clear();
    head_ = 0;
  } else if (head_ * 2 >= fifo_.size()) {
    // A consumer that never fully catches up would otherwise grow fifo_
    // without bound. Erasing the consumed prefix keeps the capacity and
    // moves no more entries than were popped since the last compaction.
    fifo_.erase(fifo_.begin(),
                fifo_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void SubscriberQueue::Deliver(FramePtr frame) {
  // Delay action = a stalled subscriber back-pressuring the joint.
  // Deliberately before the lock so a stall never blocks Next() readers.
  ASTERIX_FAILPOINT_HIT("feeds.subscriber.deliver");
  const hyracks::TraceContext tc = frame->trace();
  TraceSpan span;
  const bool traced = tc.sampled();
  if (traced) {
    // The "source" primary span covers everything from trace birth at the
    // adaptor to arrival in this queue (fetch, batching, joint routing).
    span.trace_id = tc.id;
    span.where = options_.name;
    span.start_us = tc.start_us;
    span.duration_us = common::NowMicros() - tc.start_us;
    span.records = static_cast<int64_t>(frame->record_count());
  }
  {
    common::MutexLock lock(mutex_);
    DeliverLocked(std::move(frame), traced ? &span : nullptr);
  }
  // Wake parked consumers after unlocking. Covers data arrival AND the
  // failure transitions in DeliverLocked.
  ready_.NotifyAll();
  // Recorded after unlocking: RecordSpan takes the tracer (and possibly
  // registry) mutex, which a Snapshot() provider holds around this
  // queue's mutex.
  if (traced && !span.stage.empty()) {
    Tracer::Instance().RecordSpan(std::move(span));
  }
}

void SubscriberQueue::DeliverLocked(FramePtr frame, TraceSpan* span) {
  // A frame this queue does not append is released when `frame` goes out
  // of scope; only appended entries keep a reference.
  auto outcome = [&](const char* stage, const char* status) {
    if (span != nullptr) {
      span->stage = stage;
      span->status = status;
      span->detail = true;  // terminal drop spans don't tile the path
    }
  };
  if (ended_) {
    outcome("discarded", "ended");
    return;
  }
  int64_t frame_bytes = static_cast<int64_t>(frame->ApproxBytes());
  // Admission: the global governor pool AND the per-subscriber budget
  // must both admit the frame. A governor refusal (pool exhausted — or
  // chaos-starved via the common.memgov.reserve failpoint) folds into
  // the mode's over-budget action: kBlock fails the feed, kSpill spills,
  // kDiscard trips the drop hysteresis, kThrottle sheds harder.
  common::MemLease admission;
  bool governor_refused =
      mem_pool_ != nullptr &&
      !mem_pool_->TryLease(static_cast<size_t>(frame_bytes), &admission)
           .ok();
  bool over_budget =
      governor_refused ||
      // relaxed: budget gauge; missing one concurrent retire only
      // shifts the admission boundary by a single frame.
      pending_bytes_.load(std::memory_order_relaxed) + frame_bytes >
          options_.memory_budget_bytes;

  auto append = [&](FramePtr f) {
    if (mem_pool_ != nullptr) {
      // Keep the admission lease's charge (Disown) and true it up to the
      // exact appended bytes: a sampled frame is smaller than the leased
      // estimate, and Elastic appends even when the lease was refused
      // (the forced top-up shows as a counted overdraft).
      const size_t appended = f->ApproxBytes();
      const size_t leased = admission.Disown();
      if (appended > leased) {
        mem_pool_->ForceReserve(appended - leased);
      } else if (leased > appended) {
        mem_pool_->Release(leased - appended);
      }
    }
    // relaxed: budget gauge RMW (see RetireEntry).
    int64_t now_pending =
        pending_bytes_.fetch_add(static_cast<int64_t>(f->ApproxBytes()),
                                 std::memory_order_relaxed) +
        static_cast<int64_t>(f->ApproxBytes());
    stats_.peak_pending_bytes =
        std::max(stats_.peak_pending_bytes, now_pending);
    ++stats_.frames_delivered;
    stats_.records_delivered += static_cast<int64_t>(f->record_count());
    if (span != nullptr) {
      span->stage = "source";
      span->status = "ok";
      span->detail = false;
      span->records = static_cast<int64_t>(f->record_count());
    }
    Entry entry;
    entry.frame = std::move(f);
    if (span != nullptr) entry.deliver_us = common::NowMicros();
    PushLocked(std::move(entry));
  };

  if (throttling_) {
    // Spill-overflow fallback: regulate the inflow by sampling.
    FramePtr sampled = SampleFrame(frame, 0.5);
    if (sampled != nullptr) {
      append(std::move(sampled));
    } else {
      outcome("throttled", "throttled");
    }
    return;
  }

  switch (options_.mode) {
    case ExcessMode::kBlock:
    case ExcessMode::kElastic: {
      // Basic: buffer in memory. Exhausting the budget terminates the
      // feed (§4.5). Elastic buffers the same way while the system
      // re-structures the pipeline; the budget is its headroom.
      if (over_budget && options_.mode == ExcessMode::kBlock) {
        failed_ = true;
        // hot-ok: terminal failure branch — the feed is ending; the
        // status string is built once per subscriber lifetime.
        failure_ = Status::ResourceExhausted(
            "feed '" + options_.name + "' exhausted its memory budget (" +
            std::to_string(options_.memory_budget_bytes) + " bytes)");
        outcome("discarded", "error");
        return;
      }
      append(std::move(frame));
      return;
    }
    case ExcessMode::kSpill: {
      if (over_budget || spill_pending_frames_ > 0) {
        // The spill governor pool must also admit the frame (lease on
        // the in-memory estimate; SpillLocked charges the exact on-disk
        // bytes and this lease releases at scope exit). A refusal is
        // the same condition as an exhausted per-feed spill budget.
        common::MemLease spill_admission;
        const bool spill_refused =
            spill_pool_ != nullptr &&
            !spill_pool_
                 ->TryLease(static_cast<size_t>(frame_bytes),
                            &spill_admission)
                 .ok();
        if (spill_refused ||
            stats_.bytes_spilled >= options_.max_spill_bytes) {
          if (options_.throttle_after_spill) {
            throttling_ = true;
            LOG_MSG(kWarn) << options_.name
                           << ": spill budget exhausted; throttling";
            FramePtr sampled = SampleFrame(frame, 0.5);
            if (sampled != nullptr) {
              append(std::move(sampled));
            } else {
              outcome("throttled", "throttled");
            }
          } else {
            failed_ = true;
            failure_ = Status::ResourceExhausted(
                "feed '" + options_.name + "' exhausted its spill budget");
            outcome("discarded", "error");
          }
          return;
        }
        SpillLocked(frame);
        // The spill file stores raw records; the trace does not survive
        // the round-trip, so this span is the trace's terminal.
        outcome("spilled", "spilled");
        return;
      }
      append(std::move(frame));
      return;
    }
    case ExcessMode::kDiscard: {
      // Hysteresis per §4.5: once the budget is hit, excess records are
      // discarded ALTOGETHER until the existing backlog clears — the
      // "periods of discontinuity" of Figure 7.9.
      // relaxed: budget gauge; hysteresis tolerates staleness.
      if (discarding_ &&
          pending_bytes_.load(std::memory_order_relaxed) <=
              options_.memory_budget_bytes / 4) {
        discarding_ = false;
      }
      if (over_budget) discarding_ = true;
      if (discarding_) {
        stats_.records_discarded +=
            static_cast<int64_t>(frame->record_count());
        outcome("discarded", "discarded");
        return;
      }
      append(std::move(frame));
      return;
    }
    case ExcessMode::kThrottle: {
      // Adaptive sampling: the fuller the queue, the lower the keep
      // probability, regulating the effective arrival rate.
      // relaxed: budget gauge; the keep rate tolerates staleness.
      double keep = ThrottleKeepProbability(
          pending_bytes_.load(std::memory_order_relaxed), frame_bytes,
          options_.memory_budget_bytes);
      // Global pressure sheds too: a governor refusal halves the keep
      // rate even when this subscriber's own queue looks healthy.
      if (governor_refused) keep = std::min(keep, 0.5);
      if (keep < 1.0) {
        FramePtr sampled = SampleFrame(frame, keep);
        if (sampled != nullptr) {
          append(std::move(sampled));
        } else {
          outcome("throttled", "throttled");
        }
        return;
      }
      append(std::move(frame));
      return;
    }
  }
}

void SubscriberQueue::DeliverEnd() {
  {
    // Serialized with in-flight Delivers so "ended" cleanly partitions
    // the delivery order (frames after the end marker are dropped).
    common::MutexLock lock(mutex_);
    ended_ = true;
  }
  ready_.NotifyAll();
}

void SubscriberQueue::RecordQueueSpan(const Entry& entry,
                                      int64_t pop_us) const {
  // Called with no lock held. The "queue" primary span covers the
  // frame's residency in this subscriber queue.
  TraceSpan span;
  span.trace_id = entry.frame->trace().id;
  span.stage = "queue";
  span.where = options_.name;
  span.start_us = entry.deliver_us;
  span.duration_us = pop_us - entry.deliver_us;
  span.records = static_cast<int64_t>(entry.frame->record_count());
  Tracer::Instance().RecordSpan(std::move(span));
}

std::optional<FramePtr> SubscriberQueue::Next(int64_t timeout_ms) {
  std::vector<FramePtr> batch = NextBatch(timeout_ms, 1);
  if (batch.empty()) return std::nullopt;
  return std::move(batch.front());
}

std::vector<FramePtr> SubscriberQueue::NextBatch(int64_t timeout_ms,
                                                 size_t max_frames) {
  std::vector<FramePtr> batch;
  (void)NextBatchInto(&batch, timeout_ms, max_frames);
  return batch;
}

size_t SubscriberQueue::NextBatchInto(std::vector<FramePtr>* out,
                                      int64_t timeout_ms,
                                      size_t max_frames) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // Per-thread drain scratch: its capacity (and the caller's `out`
  // capacity) is what makes the steady-state consumer drain allocation-
  // free. Cleared before AND after use so no frame reference lingers in
  // an idle thread between calls.
  thread_local std::vector<Entry> popped;
  popped.clear();
  {
    common::MutexLock lock(mutex_);
    for (;;) {
      PopLocked(&popped, max_frames);
      // Empty after PopLocked means nothing is buffered in memory or on
      // disk, so a terminal flag now reports "drained".
      if (!popped.empty() || ended_ || failed_) break;
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      (void)ready_.WaitFor(mutex_, deadline - now);
    }
  }
  // Retirement and span recording run after unlocking: RecordSpan takes
  // the tracer's lock.
  // hot-ok: consumer-owned output vector — callers reuse a thread_local
  // scratch buffer, so the reserve/push_back growth amortizes to zero.
  out->reserve(out->size() + popped.size());
  bool any_traced = false;
  for (Entry& entry : popped) {
    RetireEntry(entry);
    if (entry.deliver_us != 0 && entry.frame->trace().sampled()) {
      any_traced = true;
    }
    // hot-ok: copy is a refcount bump, no allocation — the entry keeps
    // its reference for the span pass below; capacity was reserved above.
    out->push_back(entry.frame);
  }
  const size_t appended = popped.size();
  if (any_traced) {
    // Span recording happens with no queue lock held (see Deliver()).
    // Untraced drains (the common case) never reach this branch, so the
    // hot path stays allocation-free.
    int64_t pop_us = common::NowMicros();
    for (const Entry& entry : popped) {
      if (entry.deliver_us != 0 && entry.frame->trace().sampled()) {
        RecordQueueSpan(entry, pop_us);
      }
    }
  }
  popped.clear();
  return appended;
}

bool SubscriberQueue::ended() const {
  common::MutexLock lock(mutex_);
  return ended_ && fifo_size() == 0 && spill_pending_frames_ == 0;
}

bool SubscriberQueue::failed() const {
  common::MutexLock lock(mutex_);
  return failed_;
}

common::Status SubscriberQueue::failure() const {
  common::MutexLock lock(mutex_);
  return failure_;
}

SubscriberStats SubscriberQueue::stats() const {
  common::MutexLock lock(mutex_);
  return stats_;
}

size_t SubscriberQueue::pending_frames() const {
  common::MutexLock lock(mutex_);
  return fifo_size() + static_cast<size_t>(spill_pending_frames_);
}

}  // namespace feeds
}  // namespace asterix
