// Memory-governance tests: MemGovernor/MemPool semantics (reservation,
// leases, conservation under concurrency), FramePool
// recycling, and the headline claim of the pooled frame path — ZERO heap
// allocations per frame in the warm steady state, proven with the
// operator-new interposer from testing_util.h.
//
// This TU defines the binary's allocation interposer (exactly one TU per
// binary may; see testing_util.h). Under TSan/ASan the interposer is
// compiled out and the alloc-count assertions skip themselves; every
// other test here still runs and contributes race coverage — the file is
// part of the tsan-chaos preset.
#define ASTERIX_ALLOC_INTERPOSER 1

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adm/binary.h"
#include "common/blocking_queue.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/mem_governor.h"
#include "common/rng.h"
#include "feeds/policy.h"
#include "feeds/subscriber.h"
#include "hyracks/frame.h"
#include "hyracks/frame_pool.h"
#include "storage/dataset.h"
#include "storage/lsm_index.h"
#include "storage/wal.h"
#include "testing_util.h"

namespace asterix {
namespace {

using common::MemGovernor;
using common::MemLease;
using common::MemPool;
using common::Status;

// An isolated governor per test: no metrics registry, no interference
// with the process-wide Default() pools other components resolve.
std::unique_ptr<MemGovernor> TestGovernor() {
  return std::make_unique<MemGovernor>(nullptr);
}

// --- MemPool semantics --------------------------------------------------

TEST(MemPool, ReserveReleaseConservation) {
  auto gov = TestGovernor();
  MemPool* pool = gov->RegisterPool("p", 1000);
  EXPECT_EQ(pool->capacity(), 1000);
  EXPECT_EQ(pool->used(), 0);
  EXPECT_EQ(pool->available(), 1000);

  ASSERT_TRUE(pool->TryReserve(400).ok());
  EXPECT_EQ(pool->used(), 400);
  EXPECT_EQ(pool->available(), 600);
  ASSERT_TRUE(pool->TryReserve(600).ok());
  EXPECT_EQ(pool->used(), 1000);
  EXPECT_EQ(pool->available(), 0);

  // Exactly full: one more byte must be refused, and the refusal is
  // counted and typed.
  Status refused = pool->TryReserve(1);
  EXPECT_TRUE(refused.IsResourceExhausted());
  EXPECT_EQ(pool->exhausted_count(), 1);
  EXPECT_EQ(pool->used(), 1000);  // refusal charged nothing

  pool->Release(400);
  pool->Release(600);
  EXPECT_EQ(pool->used(), 0);
  EXPECT_EQ(pool->high_water(), 1000);
}

TEST(MemPool, ZeroByteReservationIsFree) {
  auto gov = TestGovernor();
  MemPool* pool = gov->RegisterPool("p", 0);
  EXPECT_TRUE(pool->TryReserve(0).ok());
  EXPECT_EQ(pool->used(), 0);
  EXPECT_TRUE(pool->TryReserve(1).IsResourceExhausted());
}

TEST(MemPool, SetCapacityShrinkBelowUsedClawsNothingBack) {
  auto gov = TestGovernor();
  MemPool* pool = gov->RegisterPool("p", 1000);
  ASSERT_TRUE(pool->TryReserve(800).ok());
  pool->SetCapacity(100);
  EXPECT_EQ(pool->used(), 800);  // nothing clawed back
  EXPECT_TRUE(pool->TryReserve(1).IsResourceExhausted());
  pool->Release(750);
  // 50 used against capacity 100: reservations fit again.
  EXPECT_TRUE(pool->TryReserve(50).ok());
  pool->Release(100);
}

TEST(MemPool, ForceReserveOverdraftIsCounted) {
  auto gov = TestGovernor();
  MemPool* pool = gov->RegisterPool("p", 100);
  pool->ForceReserve(50);
  EXPECT_EQ(pool->overdraft_count(), 0);  // within capacity: no overdraft
  pool->ForceReserve(100);
  EXPECT_EQ(pool->used(), 150);
  EXPECT_EQ(pool->overdraft_count(), 1);
  EXPECT_EQ(pool->high_water(), 150);
  pool->Release(150);
  EXPECT_EQ(pool->used(), 0);
}

TEST(MemPool, LeaseReleasesOnScopeExit) {
  auto gov = TestGovernor();
  MemPool* pool = gov->RegisterPool("p", 100);
  {
    MemLease lease;
    ASSERT_TRUE(pool->TryLease(60, &lease).ok());
    EXPECT_TRUE(lease.held());
    EXPECT_EQ(lease.bytes(), 60u);
    EXPECT_EQ(pool->used(), 60);
  }
  EXPECT_EQ(pool->used(), 0);  // no lease survives its RAII holder
}

TEST(MemPool, LeaseMoveTransfersOwnershipExactlyOnce) {
  auto gov = TestGovernor();
  MemPool* pool = gov->RegisterPool("p", 100);
  MemLease outer;
  {
    MemLease inner;
    ASSERT_TRUE(pool->TryLease(40, &inner).ok());
    outer = std::move(inner);
    EXPECT_FALSE(inner.held());
  }
  // inner died, but the charge moved out with `outer`.
  EXPECT_EQ(pool->used(), 40);
  outer.Release();
  EXPECT_EQ(pool->used(), 0);
  outer.Release();  // idempotent
  EXPECT_EQ(pool->used(), 0);
}

TEST(MemPool, LeaseDisownTransfersChargeToCaller) {
  auto gov = TestGovernor();
  MemPool* pool = gov->RegisterPool("p", 100);
  MemLease lease;
  ASSERT_TRUE(pool->TryLease(30, &lease).ok());
  EXPECT_EQ(lease.Disown(), 30u);
  EXPECT_FALSE(lease.held());
  EXPECT_EQ(pool->used(), 30);  // dtor must not release: caller owns it
  pool->Release(30);
  EXPECT_EQ(pool->used(), 0);
}

TEST(MemGovernor, RegisterPoolIsGetOrCreate) {
  auto gov = TestGovernor();
  MemPool* a = gov->RegisterPool("alpha", 100);
  MemPool* again = gov->RegisterPool("alpha", 999);
  EXPECT_EQ(a, again);
  EXPECT_EQ(a->capacity(), 100);  // existing capacity untouched
  EXPECT_EQ(gov->GetPool("alpha"), a);
  EXPECT_EQ(gov->GetPool("missing"), nullptr);
  auto names = gov->PoolNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "alpha");
}

TEST(MemGovernor, DefaultHasTheStandardPools) {
  MemGovernor& gov = MemGovernor::Default();
  for (const char* name :
       {MemGovernor::kFramePathPool, MemGovernor::kMemtablePool,
        MemGovernor::kMergePool, MemGovernor::kSpillPool,
        MemGovernor::kSpanRingPool, MemGovernor::kWalPool}) {
    MemPool* pool = gov.GetPool(name);
    ASSERT_NE(pool, nullptr) << name;
    EXPECT_GT(pool->capacity(), 0) << name;
  }
}

// --- budget property test (seeded, concurrent) --------------------------

// Invariants under random concurrent reserve/release traffic:
//   * used() <= capacity() at every instant (no ForceReserve in play);
//   * used() never goes negative;
//   * after all threads release everything, used() == 0 (conservation).
// Runs under the tsan-chaos and deadlock presets, so the claims are also
// TSan claims and the kMemGovernor lock rank is exercised.
TEST(MemPoolProperty, ConcurrentReserveReleaseConservation) {
  auto gov = TestGovernor();
  constexpr int64_t kCapacity = 1 << 20;
  MemPool* pool = gov->RegisterPool("prop", kCapacity);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  std::atomic<bool> stop_watching{false};
  std::atomic<bool> violated{false};

  // A dedicated observer: the invariant must hold at *every* instant,
  // not just at operation boundaries on the mutating threads.
  std::thread watcher([&] {
    while (!stop_watching.load(std::memory_order_relaxed)) {
      int64_t used = pool->used();
      if (used < 0 || used > pool->capacity()) {
        violated.store(true);
        return;
      }
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      common::Rng rng(1234 + t);
      std::vector<size_t> held;
      std::vector<MemLease> leases;
      for (int i = 0; i < kOpsPerThread; ++i) {
        switch (rng.Uniform(0, 3)) {
          case 0: {  // plain reserve
            size_t bytes = static_cast<size_t>(rng.Uniform(1, 8192));
            if (pool->TryReserve(bytes).ok()) held.push_back(bytes);
            break;
          }
          case 1: {  // lease
            MemLease lease;
            size_t bytes = static_cast<size_t>(rng.Uniform(1, 8192));
            if (pool->TryLease(bytes, &lease).ok()) {
              leases.push_back(std::move(lease));
            }
            break;
          }
          case 2: {  // release a random plain holding
            if (!held.empty()) {
              size_t idx =
                  static_cast<size_t>(rng.Uniform(0, held.size() - 1));
              pool->Release(held[idx]);
              held[idx] = held.back();
              held.pop_back();
            }
            break;
          }
          default: {  // drop a random lease (RAII release)
            if (!leases.empty()) {
              size_t idx =
                  static_cast<size_t>(rng.Uniform(0, leases.size() - 1));
              leases[idx] = std::move(leases.back());
              leases.pop_back();
            }
            break;
          }
        }
        int64_t used = pool->used();
        ASSERT_GE(used, 0);
        ASSERT_LE(used, kCapacity);
      }
      for (size_t bytes : held) pool->Release(bytes);
      leases.clear();  // RAII returns the rest
    });
  }
  for (auto& w : workers) w.join();
  stop_watching.store(true);
  watcher.join();

  EXPECT_FALSE(violated.load());
  EXPECT_EQ(pool->used(), 0);  // conservation: everything came back
  EXPECT_GT(pool->high_water(), 0);
  EXPECT_LE(pool->high_water(), kCapacity);
}

// --- forced exhaustion (failpoint) --------------------------------------

TEST(MemGovernorChaos, ReserveFailpointStarvesOnePoolOnly) {
  if (!common::kFailPointsCompiledIn) GTEST_SKIP();
  auto gov = TestGovernor();
  MemPool* starved = gov->RegisterPool("starved", 1 << 20);
  MemPool* open = gov->RegisterPool("open", 1 << 20);
  common::FailPointRegistry::Instance().Arm(
      "common.memgov.reserve",
      common::FailPointPolicy::Error(
          Status::ResourceExhausted("injected memory pressure"))
          .OnInstance("starved"));
  EXPECT_TRUE(starved->TryReserve(1).IsResourceExhausted());
  EXPECT_EQ(starved->used(), 0);
  EXPECT_TRUE(open->TryReserve(1).ok());  // other pools unaffected
  open->Release(1);
  common::FailPointRegistry::Instance().Disarm("common.memgov.reserve");
  EXPECT_TRUE(starved->TryReserve(1).ok());
  starved->Release(1);
}

// Discard feeds shed with accurate accounting when the governor refuses
// every frame: nothing delivered, every record counted as discarded.
TEST(MemGovernorChaos, DiscardShedsWithAccurateAccountingUnderStarvation) {
  if (!common::kFailPointsCompiledIn) GTEST_SKIP();
  auto gov = TestGovernor();
  feeds::SubscriberOptions options;
  options.mode = feeds::ExcessMode::kDiscard;
  options.name = "mem_discard";
  options.memory_pool = gov->RegisterPool("starved_frames", 1 << 20);
  options.spill_pool = gov->RegisterPool("spill", 1 << 20);
  feeds::SubscriberQueue queue(options);
  common::FailPointRegistry::Instance().Arm(
      "common.memgov.reserve",
      common::FailPointPolicy::Error(
          Status::ResourceExhausted("injected memory pressure"))
          .OnInstance("starved_frames"));
  constexpr int kFrames = 50;
  for (int i = 0; i < kFrames; ++i) {
    queue.Deliver(testing::FrameOf(10));
  }
  common::FailPointRegistry::Instance().Disarm("common.memgov.reserve");
  auto stats = queue.stats();
  EXPECT_FALSE(queue.failed());
  EXPECT_EQ(stats.records_delivered + stats.records_discarded,
            kFrames * 10);
  EXPECT_GT(stats.records_discarded, 0);
  EXPECT_EQ(queue.pending_bytes(), 0);  // dropped frames charge nothing
}

// --- consumer-facing exhaustion (WAL, LSM) ------------------------------

TEST(MemGovernorIntegration, WalAppendFailsTypedOnExhaustedPool) {
  auto gov = TestGovernor();
  MemPool* wal_pool = gov->RegisterPool("wal", 4);  // < any framed entry
  std::string path =
      std::string(::testing::TempDir()) + "mem_test_wal.log";
  std::remove(path.c_str());
  storage::Wal wal(path, /*durable=*/false, wal_pool);
  ASSERT_TRUE(wal.Open().ok());
  Status starved = wal.Append("payload");
  EXPECT_TRUE(starved.IsResourceExhausted());
  EXPECT_EQ(wal.entry_count(), 0);  // nothing landed
  wal_pool->SetCapacity(1 << 20);
  EXPECT_TRUE(wal.Append("payload").ok());
  EXPECT_EQ(wal.entry_count(), 1);
  EXPECT_EQ(wal_pool->used(), 0);  // per-append lease fully returned
  std::remove(path.c_str());
}

// A frame's WAL group commit leases the whole batch at once: a pool with
// room for a record but not for the frame fails the frame before any byte
// lands, and nothing reaches the primary index either.
TEST(MemGovernorIntegration, DatasetFrameFailsWholeOnExhaustedWalPool) {
  // DatasetPartition leases from the Default() governor's "wal" pool.
  MemPool* wal_pool =
      MemGovernor::Default().GetPool(MemGovernor::kWalPool);
  struct RestoreCapacity {
    MemPool* pool;
    int64_t capacity;
    ~RestoreCapacity() { pool->SetCapacity(capacity); }
  } restore{wal_pool, wal_pool->capacity()};
  ASSERT_EQ(wal_pool->used(), 0);

  storage::DatasetDef def;
  def.name = "Frames";
  def.primary_key_field = "id";
  def.durable_writes = true;
  std::string dir = std::string(::testing::TempDir()) + "mem_test_frame";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  storage::DatasetPartition partition(def, 0, dir, nullptr);
  ASSERT_TRUE(partition.Open().ok());
  std::vector<adm::Value> frame;
  for (int i = 0; i < 8; ++i) {
    frame.push_back(adm::Value::Record(
        {{"id", adm::Value::Int64(i)}, {"pad", adm::Value::String("xxxx")}}));
  }
  std::string encoded;
  ASSERT_TRUE(adm::AppendBinary(frame[0], &encoded).ok());
  const int64_t one_entry =
      static_cast<int64_t>(sizeof(uint32_t) + encoded.size());
  wal_pool->SetCapacity(2 * one_entry);  // a record fits, the frame not

  Status starved = partition.InsertFrame(frame);
  EXPECT_TRUE(starved.IsResourceExhausted()) << starved.ToString();
  EXPECT_EQ(partition.wal().entry_count(), 0);
  EXPECT_EQ(std::filesystem::file_size(partition.wal().path()), 0u);
  EXPECT_EQ(partition.record_count(), 0);
  EXPECT_EQ(wal_pool->used(), 0);

  wal_pool->SetCapacity(1 << 20);
  ASSERT_TRUE(partition.InsertFrame(frame).ok());
  EXPECT_EQ(partition.wal().entry_count(), 8);
  EXPECT_EQ(partition.record_count(), 8);
  EXPECT_EQ(wal_pool->used(), 0);  // the frame's lease fully returned
  std::filesystem::remove_all(dir);
}

TEST(MemGovernorIntegration, LsmInsertFailsTypedAndFlushReleases) {
  auto gov = TestGovernor();
  storage::LsmOptions options;
  // A row is "k" (1) + an encoded Int64 (tag + 8 = 9) + the row overhead:
  // the pool fits it once, not twice.
  const int64_t row =
      1 + 9 + static_cast<int64_t>(storage::kRowOverheadBytes);
  options.memtable_pool = gov->RegisterPool("memtable", row + row / 2);
  options.merge_pool = gov->RegisterPool("merge", 1 << 20);
  storage::LsmIndex index(options);
  ASSERT_TRUE(index.Insert("k", adm::Value::Int64(1)).ok());
  EXPECT_GT(options.memtable_pool->used(), 0);
  Status refused = index.Insert("l", adm::Value::Int64(2));
  EXPECT_TRUE(refused.IsResourceExhausted());
  // Flush moves the data out of the governed write path: the charge is
  // released and inserts are admitted again.
  index.Flush();
  EXPECT_EQ(options.memtable_pool->used(), 0);
  ASSERT_TRUE(index.Insert("l", adm::Value::Int64(2)).ok());
  index.Close();
  EXPECT_EQ(index.stats().inserts, 2);
}

// --- FramePool recycling -------------------------------------------------

TEST(FramePool, RecyclesBlocksAndRecordBuffers) {
  hyracks::FramePool pool(nullptr);
  {
    auto frame = pool.MakeFrame(std::vector<adm::Value>{
        adm::Value::Int64(1), adm::Value::Int64(2)});
    EXPECT_EQ(frame->record_count(), 2u);
  }  // last ref dropped: block + vector return to the pool
  EXPECT_EQ(pool.block_misses(), 1);
  EXPECT_EQ(pool.vector_hits(), 0);
  {
    std::vector<adm::Value> records = pool.AcquireRecords();
    EXPECT_TRUE(records.empty());
    EXPECT_GE(records.capacity(), 2u);  // recycled capacity
    records.push_back(adm::Value::Int64(3));
    auto frame = pool.MakeFrame(std::move(records));
    EXPECT_EQ(frame->records()[0].AsInt64(), 3);
  }
  EXPECT_EQ(pool.block_hits(), 1);  // second frame reused the block
  EXPECT_EQ(pool.vector_hits(), 1);
}

TEST(FramePool, StarvedBudgetDegradesToPassThrough) {
  auto gov = TestGovernor();
  MemPool* budget = gov->RegisterPool("tiny", 0);  // refuses everything
  hyracks::FramePool pool(budget);
  {
    auto frame =
        pool.MakeFrame(std::vector<adm::Value>{adm::Value::Int64(1)});
    EXPECT_EQ(frame->record_count(), 1u);  // allocation itself never fails
  }
  // Retention was refused: memory freed, drop counted, nothing charged.
  EXPECT_GT(pool.budget_drops(), 0);
  EXPECT_EQ(pool.retained_bytes(), 0);
  EXPECT_EQ(budget->used(), 0);
  {
    auto frame =
        pool.MakeFrame(std::vector<adm::Value>{adm::Value::Int64(2)});
    EXPECT_EQ(frame->record_count(), 1u);
  }
  EXPECT_EQ(pool.block_hits(), 0);  // pass-through: nothing was retained
}

TEST(FramePool, RetainedBytesMatchBudgetCharge) {
  auto gov = TestGovernor();
  MemPool* budget = gov->RegisterPool("frames", 1 << 20);
  {
    hyracks::FramePool pool(budget);
    { auto f = pool.MakeFrame({adm::Value::Int64(1)}); }
    EXPECT_GT(pool.retained_bytes(), 0);
    EXPECT_EQ(budget->used(), pool.retained_bytes());
    // Reuse releases the charge while the memory is live...
    auto f = pool.MakeFrame(pool.AcquireRecords());
    EXPECT_EQ(budget->used(), pool.retained_bytes());
  }
  // ...and the pool's destructor returns every parked byte.
  EXPECT_EQ(budget->used(), 0);
}

// --- the tentpole claim: zero allocations per frame once warm -----------

// Pump -> appender -> subscriber-queue -> batched drain, all on pooled
// frames: after a warm-up that populates the free lists, the loop below
// must not touch the heap at all.
TEST(ZeroAllocSteadyState, PooledFramePathAllocatesNothingPerFrame) {
  if (!testing::AllocInterposerActive()) {
    GTEST_SKIP() << "alloc interposer absent (sanitizer build)";
  }
  auto gov = TestGovernor();
  MemPool* frame_budget = gov->RegisterPool("frame_path", 64 << 20);
  hyracks::FramePool pool(frame_budget);

  feeds::SubscriberOptions options;
  options.mode = feeds::ExcessMode::kBlock;
  options.name = "zero_alloc";
  options.memory_pool = frame_budget;
  options.spill_pool = gov->RegisterPool("spill", 64 << 20);
  feeds::SubscriberQueue queue(options);

  struct QueueWriter : hyracks::IFrameWriter {
    feeds::SubscriberQueue* queue = nullptr;
    common::Status NextFrame(const hyracks::FramePtr& frame) override {
      queue->Deliver(frame);
      return common::Status::OK();
    }
  };
  QueueWriter writer;
  writer.queue = &queue;

  constexpr size_t kRecordsPerFrame = 8;
  hyracks::FrameAppender appender(&writer, kRecordsPerFrame,
                                  /*max_bytes=*/1 << 20, &pool);

  // Each frame then crosses a task input queue the way the pump drains
  // it: Push, then PopAllInto a batch vector reused across wakeups.
  common::BlockingQueue<hyracks::FrameMessage> task_input(64);
  std::vector<hyracks::FrameMessage> batch;

  std::vector<hyracks::FramePtr> drained;
  auto pump_one_frame = [&] {
    for (size_t r = 0; r < kRecordsPerFrame; ++r) {
      ASSERT_TRUE(
          appender.Append(adm::Value::Int64(static_cast<int64_t>(r))).ok());
    }
    drained.clear();
    (void)queue.NextBatchInto(&drained, /*timeout_ms=*/1000);
    ASSERT_EQ(drained.size(), 1u);
    ASSERT_EQ(drained[0]->record_count(), kRecordsPerFrame);
    ASSERT_TRUE(task_input.Push(hyracks::FrameMessage::Data(drained[0])));
    batch.clear();
    ASSERT_EQ(task_input.PopAllInto(&batch), 1u);
    ASSERT_EQ(batch[0].frame, drained[0]);
  };

  // Warm-up: learn the block size, grow the record vector to capacity,
  // populate free lists, size the drain scratch vectors and the task
  // queue's item vector.
  for (int i = 0; i < 64; ++i) pump_one_frame();
  drained.clear();  // drop the last frame so its buffers are pooled
  batch.clear();

  constexpr int kSteadyFrames = 256;
  testing::AllocScope scope;
  for (int i = 0; i < kSteadyFrames; ++i) pump_one_frame();
  EXPECT_ALLOCS_UNDER(scope, 0);
  if (HasFailure()) {
    ADD_FAILURE() << "block hits " << pool.block_hits() << " misses "
                  << pool.block_misses() << ", vector hits "
                  << pool.vector_hits() << " misses "
                  << pool.vector_misses() << ", budget drops "
                  << pool.budget_drops();
  }

  // Sanity: the steady phase really ran on recycled memory.
  EXPECT_GE(pool.block_hits(), kSteadyFrames);
  EXPECT_GE(pool.vector_hits(), kSteadyFrames);
}

// A consumer that pops one item at a time and never empties the queue
// (TweetGen's Channel::Drain, FramePool's free lists) never hits the
// reset-on-empty path, so only the prefix compaction keeps the item
// vector from growing with every push. Once warm, a long run of such
// traffic must allocate nothing.
TEST(ZeroAllocSteadyState, OneAtATimeConsumerKeepsQueueCapacityBounded) {
  if (!testing::AllocInterposerActive()) {
    GTEST_SKIP() << "alloc interposer absent (sanitizer build)";
  }
  constexpr int kBacklog = 8;
  common::BlockingQueue<int> queue;
  for (int i = 0; i < kBacklog; ++i) ASSERT_TRUE(queue.TryPush(i));
  int next = kBacklog;
  int expected = 0;
  auto cycle = [&] {
    ASSERT_TRUE(queue.TryPush(next++));
    std::optional<int> v = queue.TryPop();
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, expected++);  // still FIFO across compactions
  };
  for (int i = 0; i < 1000; ++i) cycle();

  testing::AllocScope scope;
  for (int i = 0; i < 100000; ++i) cycle();
  EXPECT_ALLOCS_UNDER(scope, 0);
  EXPECT_EQ(queue.size(), static_cast<size_t>(kBacklog));
}

}  // namespace
}  // namespace asterix
