// Model-checker suite (ASTERIX_MODEL_CHECK builds only; the `modelcheck`
// preset). Two layers:
//
//   * Litmus tests drive common::Atomic directly and pin down the memory
//     model the checker implements: relaxed message passing MUST fail
//     (stale reads are explorable), acquire/release and seq_cst
//     variants MUST pass, a seq_cst LOAD is not a fence (the plain-MOV
//     x86 mapping — the shape of the classic eventcount StoreLoad bug).
//
//   * Invariant tests run the repo's real lock-free primitives —
//     SnapshotPtr, MemGovernor — through small bounded programs (2-3
//     threads, a few ops each) and assert their core guarantees over
//     every explored interleaving: used() <= capacity(), no wedged
//     parking reserve, snapshot monotonicity, lease/Disown charge
//     conservation.
//
// The teeth are proven by the modelcheck_regression_relaxed_unlock
// binary next to this file: it compiles a historical bug back in behind
// an ASTERIX_MC_BUG_* flag and asserts the checker FINDS it; this suite
// asserts the clean build passes the same program.
//
// Every check prints "[modelcheck] <name>: explored N schedules (...)"
// so the CI log doubles as the EXPERIMENTS.md data source.

#include <cstdio>
#include <memory>

#include <gtest/gtest.h>

#include "common/atomic_shim.h"
#include "common/mem_governor.h"
#include "common/model_check.h"
#include "common/snapshot_ptr.h"
#include "common/status.h"

namespace asterix {
namespace {

using common::Atomic;
using common::DataCell;
using common::MemGovernor;
using common::MemLease;
using common::MemPool;
using common::SnapshotPtr;

mc::Result RunCheck(const char* name, long budget,
                    const std::function<void(mc::Execution&)>& body) {
  mc::Options opts;
  opts.max_executions = budget;
  mc::Result res = mc::Check(opts, body);
  std::printf("[modelcheck] %s: %s\n", name, res.Summary().c_str());
  if (!res.ok) {
    std::printf("%s  replay: %s\n", res.trace.c_str(), res.replay.c_str());
  }
  return res;
}

// ---- litmus: the memory model itself --------------------------------

TEST(ModelLitmus, MessagePassingRelaxedObservesStale) {
  mc::Result res =
      RunCheck("mp_relaxed", 50000, [](mc::Execution& ex) {
        auto x = std::make_shared<Atomic<int>>(0);
        auto f = std::make_shared<Atomic<int>>(0);
        auto seen = std::make_shared<int>(-1);
        ex.Spawn([=] {
          x->store(1, std::memory_order_relaxed);
          f->store(1, std::memory_order_relaxed);
        });
        ex.Spawn([=] {
          if (f->load(std::memory_order_relaxed) == 1) {
            *seen = x->load(std::memory_order_relaxed);
          }
        });
        ex.Join();
        if (*seen != -1) MODEL_ASSERT(*seen == 1);
      });
  // The whole point: a relaxed flag does NOT publish the payload.
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("MODEL_ASSERT"), std::string::npos)
      << res.failure;
}

TEST(ModelLitmus, MessagePassingAcquireReleaseHolds) {
  mc::Result res =
      RunCheck("mp_acq_rel", 50000, [](mc::Execution& ex) {
        auto x = std::make_shared<Atomic<int>>(0);
        auto f = std::make_shared<Atomic<int>>(0);
        ex.Spawn([=] {
          x->store(1, std::memory_order_relaxed);
          f->store(1, std::memory_order_release);
        });
        ex.Spawn([=] {
          if (f->load(std::memory_order_acquire) == 1) {
            MODEL_ASSERT(x->load(std::memory_order_relaxed) == 1);
          }
        });
        ex.Join();
      });
  EXPECT_TRUE(res.ok) << res.failure << "\n" << res.trace;
  EXPECT_TRUE(res.complete);
}

TEST(ModelLitmus, MessagePassingViaFencesHolds) {
  mc::Result res =
      RunCheck("mp_fences", 50000, [](mc::Execution& ex) {
        auto x = std::make_shared<Atomic<int>>(0);
        auto f = std::make_shared<Atomic<int>>(0);
        ex.Spawn([=] {
          x->store(1, std::memory_order_relaxed);
          common::AtomicFence(std::memory_order_release);
          f->store(1, std::memory_order_relaxed);
        });
        ex.Spawn([=] {
          if (f->load(std::memory_order_relaxed) == 1) {
            common::AtomicFence(std::memory_order_acquire);
            MODEL_ASSERT(x->load(std::memory_order_relaxed) == 1);
          }
        });
        ex.Join();
      });
  EXPECT_TRUE(res.ok) << res.failure << "\n" << res.trace;
  EXPECT_TRUE(res.complete);
}

TEST(ModelLitmus, StoreBufferingRelaxedReordersBoth) {
  mc::Result res =
      RunCheck("sb_relaxed", 50000, [](mc::Execution& ex) {
        auto x = std::make_shared<Atomic<int>>(0);
        auto y = std::make_shared<Atomic<int>>(0);
        auto r1 = std::make_shared<int>(-1);
        auto r2 = std::make_shared<int>(-1);
        ex.Spawn([=] {
          x->store(1, std::memory_order_relaxed);
          *r1 = y->load(std::memory_order_relaxed);
        });
        ex.Spawn([=] {
          y->store(1, std::memory_order_relaxed);
          *r2 = x->load(std::memory_order_relaxed);
        });
        ex.Join();
        MODEL_ASSERT(*r1 == 1 || *r2 == 1);  // forbidden only by seq_cst
      });
  EXPECT_FALSE(res.ok);
}

TEST(ModelLitmus, StoreBufferingSeqCstForbidden) {
  mc::Result res =
      RunCheck("sb_seq_cst", 50000, [](mc::Execution& ex) {
        auto x = std::make_shared<Atomic<int>>(0);
        auto y = std::make_shared<Atomic<int>>(0);
        auto r1 = std::make_shared<int>(-1);
        auto r2 = std::make_shared<int>(-1);
        ex.Spawn([=] {
          x->store(1, std::memory_order_seq_cst);
          *r1 = y->load(std::memory_order_seq_cst);
        });
        ex.Spawn([=] {
          y->store(1, std::memory_order_seq_cst);
          *r2 = x->load(std::memory_order_seq_cst);
        });
        ex.Join();
        MODEL_ASSERT(*r1 == 1 || *r2 == 1);
      });
  EXPECT_TRUE(res.ok) << res.failure << "\n" << res.trace;
  EXPECT_TRUE(res.complete);
}

// A seq_cst LOAD after a release STORE is not a StoreLoad barrier (both
// compile to plain MOVs on x86) — the shape of the classic eventcount
// lost-wakeup bug. The checker must expose the r1==r2==0 outcome; only
// a real fence (or the previous test's seq_cst stores) forbids it.
TEST(ModelLitmus, SeqCstLoadIsNotAFence) {
  mc::Result res =
      RunCheck("sb_sc_load_only", 50000, [](mc::Execution& ex) {
        auto x = std::make_shared<Atomic<int>>(0);
        auto y = std::make_shared<Atomic<int>>(0);
        auto r1 = std::make_shared<int>(-1);
        auto r2 = std::make_shared<int>(-1);
        ex.Spawn([=] {
          x->store(1, std::memory_order_release);
          *r1 = y->load(std::memory_order_seq_cst);
        });
        ex.Spawn([=] {
          y->store(1, std::memory_order_release);
          *r2 = x->load(std::memory_order_seq_cst);
        });
        ex.Join();
        MODEL_ASSERT(*r1 == 1 || *r2 == 1);
      });
  EXPECT_FALSE(res.ok);
}

TEST(ModelLitmus, DataCellRaceDetected) {
  mc::Result res =
      RunCheck("datacell_race", 50000, [](mc::Execution& ex) {
        auto cell = std::make_shared<DataCell<int>>();
        ex.Spawn([=] { cell->Set(1); });
        ex.Spawn([=] { cell->Set(2); });
        ex.Join();
      });
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.failure.find("data race"), std::string::npos)
      << res.failure;
}

// ---- SnapshotPtr -----------------------------------------------------

// Concurrent load/load/store with no data race on the guarded pointer
// (the lock bit's release unlock carries the happens-before) and
// monotonic observation. modelcheck_regression_relaxed_unlock downgrades
// the unlock to relaxed and must be reported as a data race.
TEST(ModelSnapshotPtr, PublicationIsRaceFreeAndMonotonic) {
  mc::Result res =
      RunCheck("snapshot_publication", 200000, [](mc::Execution& ex) {
        auto snap =
            std::make_shared<SnapshotPtr<int>>(std::make_shared<int>(0));
        ex.Spawn([=] { snap->store(std::make_shared<int>(1)); });
        ex.Spawn([=] {
          std::shared_ptr<int> a = snap->load();
          std::shared_ptr<int> b = snap->load();
          MODEL_ASSERT(a != nullptr && b != nullptr);
          MODEL_ASSERT(*b >= *a);  // snapshots never go backwards
        });
        ex.Join();
        MODEL_ASSERT(*snap->load() == 1);
      });
  EXPECT_TRUE(res.ok) << res.failure << "\n" << res.trace;
}

// ---- MemGovernor -----------------------------------------------------

TEST(ModelMemGovernor, UsedNeverExceedsCapacity) {
  mc::Result res = RunCheck(
      "memgov_used_le_capacity", 200000, [](mc::Execution& ex) {
        auto gov = std::make_shared<MemGovernor>(nullptr);
        MemPool* pool = gov->RegisterPool("p", 8);
        ex.Spawn([=] {
          common::Status s = pool->TryReserve(6);
          MODEL_ASSERT(pool->used() <= pool->capacity());
          if (s.ok()) pool->Release(6);
        });
        ex.Spawn([=] {
          common::Status s = pool->TryReserve(4);
          MODEL_ASSERT(pool->used() <= pool->capacity());
          if (s.ok()) pool->Release(4);
        });
        ex.Join();
        MODEL_ASSERT(pool->used() == 0);
      });
  EXPECT_TRUE(res.ok) << res.failure << "\n" << res.trace;
}

// ReserveFor against a concurrent Release: the waiter either gets the
// grant or times out cleanly — it never wedges (the Dekker handshake
// with Release) and never leaks its charge.
TEST(ModelMemGovernor, ReserveForNeverWedgesAndConservesCharge) {
  mc::Result res = RunCheck(
      "memgov_reservefor_release", 200000, [](mc::Execution& ex) {
        auto gov = std::make_shared<MemGovernor>(nullptr);
        MemPool* pool = gov->RegisterPool("p", 4);
        common::Status pre = pool->TryReserve(4);
        MODEL_ASSERT(pre.ok());
        ex.Spawn([=] {
          common::Status s = pool->ReserveFor(4, 10);
          if (s.ok()) {
            MODEL_ASSERT(pool->used() == 4);
            pool->Release(4);
          }
        });
        ex.Spawn([=] { pool->Release(4); });
        ex.Join();
        MODEL_ASSERT(pool->used() == 0);
      });
  EXPECT_TRUE(res.ok) << res.failure << "\n" << res.trace;
}

TEST(ModelMemGovernor, LeaseDisownConservesCharge) {
  mc::Result res = RunCheck(
      "memgov_lease_disown", 200000, [](mc::Execution& ex) {
        auto gov = std::make_shared<MemGovernor>(nullptr);
        MemPool* pool = gov->RegisterPool("p", 8);
        ex.Spawn([=] {
          MemLease lease;
          common::Status s = pool->TryLease(4, &lease);
          if (s.ok()) {
            MODEL_ASSERT(lease.held() && lease.bytes() == 4);
            size_t owed = lease.Disown();
            MODEL_ASSERT(owed == 4 && !lease.held());
            pool->Release(owed);  // the Disown contract
          }
        });
        ex.Spawn([=] {
          MemLease lease;
          common::Status s = pool->TryLease(8, &lease);
          if (s.ok()) MODEL_ASSERT(pool->used() == 8);
          // lease auto-releases on scope exit
        });
        ex.Join();
        MODEL_ASSERT(pool->used() == 0);
        MODEL_ASSERT(pool->high_water() <= pool->capacity());
      });
  EXPECT_TRUE(res.ok) << res.failure << "\n" << res.trace;
}

}  // namespace
}  // namespace asterix
