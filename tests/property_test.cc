// Property-based tests: randomized workloads checked against reference
// models and invariants, parameterized over seeds (TEST_P sweeps).
#include <map>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "adm/parser.h"
#include "common/clock.h"
#include "common/rng.h"
#include "feeds/joint.h"
#include "feeds/subscriber.h"
#include "gen/simcpu.h"
#include "gen/tweetgen.h"
#include "storage/key.h"
#include "storage/lsm_index.h"

namespace asterix {
namespace {

using adm::Value;

// --- LSM index vs std::map reference model ------------------------------

class LsmModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LsmModelTest, RandomUpsertsMatchReferenceModel) {
  common::Rng rng(GetParam());
  storage::LsmOptions options;
  options.memtable_bytes_limit = 1 << (6 + rng.Uniform(0, 8));  // 64B..16KB
  options.max_runs = static_cast<size_t>(rng.Uniform(2, 6));
  storage::LsmIndex index(options);
  std::map<std::string, int64_t> model;

  for (int op = 0; op < 2000; ++op) {
    int64_t key_space = rng.Uniform(1, 300);
    auto key =
        storage::EncodeKey(Value::Int64(rng.Uniform(0, key_space)))
            .value();
    int64_t value = rng.Uniform(0, 1 << 30);
    ASSERT_TRUE(index.Insert(key, Value::Int64(value)).ok());
    model[key] = value;

    if (op % 97 == 0) {
      // Point-lookup agreement on a random key (possibly absent).
      auto probe =
          storage::EncodeKey(Value::Int64(rng.Uniform(0, 400))).value();
      auto got = index.Get(probe);
      auto expected = model.find(probe);
      ASSERT_EQ(got.has_value(), expected != model.end());
      if (got.has_value()) {
        EXPECT_EQ(got->AsInt64(), expected->second);
      }
    }
  }
  // Full-scan agreement: same keys, same values, same (sorted) order.
  EXPECT_EQ(index.Size(), static_cast<int64_t>(model.size()));
  auto it = model.begin();
  index.Scan([&](const std::string& key, const Value& value) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(value.AsInt64(), it->second);
    ++it;
  });
  EXPECT_EQ(it, model.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmModelTest,
                         ::testing::Values(1, 7, 42, 1234, 99991, 31337,
                                           271828, 3141592));

// --- partitioned index: k-way merged Scan vs reference model -------------

class PartitionedScanTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionedScanTest, ScanMergesPartitionsInGlobalKeyOrder) {
  common::Rng rng(GetParam());
  storage::LsmOptions options;
  options.partitions = static_cast<size_t>(rng.Uniform(2, 5));
  options.memtable_bytes_limit = 1 << (6 + rng.Uniform(0, 8));
  options.max_runs = static_cast<size_t>(rng.Uniform(2, 6));
  storage::PartitionedLsmIndex index(options);
  std::map<std::string, int64_t> model;

  auto check_scan = [&] {
    // Scan must agree with the model key-for-key: strict global key order
    // across the k-way merge, the newest write for each key, and no
    // resurrected tombstones.
    std::string prev;
    bool first = true;
    auto it = model.begin();
    index.Scan([&](const std::string& key, const Value& value) {
      if (!first) EXPECT_LT(prev, key);
      prev = key;
      first = false;
      ASSERT_NE(it, model.end());
      EXPECT_EQ(key, it->first);
      EXPECT_EQ(value.AsInt64(), it->second);
      ++it;
    });
    EXPECT_EQ(it, model.end());
  };

  for (int op = 0; op < 3000; ++op) {
    int64_t key_space = rng.Uniform(1, 400);
    auto key =
        storage::EncodeKey(Value::Int64(rng.Uniform(0, key_space)))
            .value();
    if (rng.Uniform(0, 9) < 7) {
      // Upsert: a fresh insert or an update shadowing an older write.
      int64_t value = rng.Uniform(0, 1 << 30);
      ASSERT_TRUE(index.Insert(key, Value::Int64(value)).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE(index.Delete(key).ok());
      model.erase(key);
    }
    if (op % 389 == 0) check_scan();  // mid-stream, memtables half-full
  }
  index.Drain();  // settle background flush/merge, then re-check
  check_scan();
  EXPECT_EQ(index.Size(), static_cast<int64_t>(model.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionedScanTest,
                         ::testing::Values(2, 13, 42, 4096, 123457,
                                           271828, 999331));

// --- key encoding: total order matches value order -----------------------

class KeyOrderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyOrderTest, MixedNumericKeysSortConsistently) {
  common::Rng rng(GetParam());
  std::vector<double> doubles;
  for (int i = 0; i < 400; ++i) {
    doubles.push_back((rng.NextDouble() - 0.5) * std::pow(10, rng.Uniform(0, 12)));
  }
  std::vector<std::pair<std::string, double>> keyed;
  for (double d : doubles) {
    keyed.emplace_back(storage::EncodeKey(Value::Double(d)).value(), d);
  }
  std::sort(keyed.begin(), keyed.end());
  for (size_t i = 1; i < keyed.size(); ++i) {
    EXPECT_LE(keyed[i - 1].second, keyed[i].second)
        << keyed[i - 1].second << " vs " << keyed[i].second;
  }
  // And every key decodes back to its exact value.
  for (const auto& [key, d] : keyed) {
    auto decoded = storage::DecodeKey(key);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->AsDouble(), d);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyOrderTest,
                         ::testing::Values(3, 17, 2024, 777));

// --- ADM round trip over random TweetGen output --------------------------

class AdmFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AdmFuzzTest, GeneratedTweetsRoundTrip) {
  gen::TweetFactory factory(static_cast<int>(GetParam()), GetParam());
  for (int i = 0; i < 200; ++i) {
    Value tweet = factory.NextTweet();
    auto parsed = adm::ParseAdm(tweet.ToAdmString());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, tweet);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdmFuzzTest,
                         ::testing::Values(0, 5, 11, 23));

// --- subscriber queue invariants under every mode -------------------------

// Each mode runs twice: draining after the producer finished, and with a
// consumer draining in batches while the producer is still delivering,
// so spill restores, discard hysteresis and sampling interleave with
// live arrivals.
struct QueueCase {
  feeds::ExcessMode mode;
  bool concurrent_drain;
};

class QueueInvariantTest : public ::testing::TestWithParam<QueueCase> {};

TEST_P(QueueInvariantTest, AccountingIsExactAndOrderPreserved) {
  const feeds::ExcessMode mode = GetParam().mode;
  feeds::SubscriberOptions options;
  options.mode = mode;
  options.memory_budget_bytes = 4096;
  options.name = std::string("invariant_") + feeds::ExcessModeName(mode);
  feeds::SubscriberQueue queue(options);

  int64_t seen = 0;
  int64_t last_n = -1;
  auto consume = [&](const hyracks::FramePtr& frame) {
    for (const Value& record : frame->records()) {
      // Order is preserved: n strictly increases even across policy
      // actions (spill restore, sampling, discard).
      int64_t n = record.GetField("n")->AsInt64();
      EXPECT_GT(n, last_n);
      last_n = n;
      ++seen;
    }
  };
  std::thread consumer;
  if (GetParam().concurrent_drain) {
    consumer = std::thread([&] {
      common::Rng rng(7);
      for (;;) {
        std::vector<hyracks::FramePtr> batch = queue.NextBatch(500, 4);
        if (batch.empty()) return;
        for (const hyracks::FramePtr& frame : batch) consume(frame);
        // Now and then slower than the producer, so a backlog builds
        // past the budget and the mode's excess action engages.
        if (rng.Chance(0.3)) common::SleepMicros(200);
      }
    });
  }

  constexpr int kFrames = 150;
  constexpr int kPerFrame = 8;
  int64_t delivered_in = 0;
  for (int f = 0; f < kFrames && !queue.failed(); ++f) {
    std::vector<Value> records;
    for (int r = 0; r < kPerFrame; ++r) {
      int64_t n = f * kPerFrame + r;
      records.push_back(
          Value::Record({{"id", Value::String(std::to_string(n))},
                         {"n", Value::Int64(n)}}));
    }
    delivered_in += kPerFrame;
    queue.Deliver(hyracks::MakeFrame(std::move(records)), nullptr);
    // Bursts of 16 frames: each overruns the budget, and a concurrent
    // consumer is still draining (restoring) one when the next arrives.
    if (f % 16 == 15) common::SleepMicros(200);
  }
  queue.DeliverEnd();

  if (consumer.joinable()) {
    consumer.join();
  } else {
    while (auto frame = queue.Next(500)) consume(*frame);
  }
  auto stats = queue.stats();
  if (queue.failed()) {
    // Basic: accounting holds up to the failure point.
    EXPECT_EQ(mode, feeds::ExcessMode::kBlock);
    return;
  }
  // Conservation: in = out + discarded + sampled-away.
  EXPECT_EQ(delivered_in,
            seen + stats.records_discarded + stats.records_throttled_away)
      << "mode " << feeds::ExcessModeName(mode);
  // Spill round-trips losslessly.
  if (mode == feeds::ExcessMode::kSpill) {
    EXPECT_EQ(seen, delivered_in);
    EXPECT_EQ(stats.frames_restored, stats.frames_spilled);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, QueueInvariantTest,
    ::testing::ValuesIn([] {
      std::vector<QueueCase> cases;
      for (bool concurrent : {false, true}) {
        for (feeds::ExcessMode mode :
             {feeds::ExcessMode::kBlock, feeds::ExcessMode::kSpill,
              feeds::ExcessMode::kDiscard, feeds::ExcessMode::kThrottle,
              feeds::ExcessMode::kElastic}) {
          cases.push_back({mode, concurrent});
        }
      }
      return cases;
    }()),
    [](const ::testing::TestParamInfo<QueueCase>& info) {
      return std::string(feeds::ExcessModeName(info.param.mode)) +
             (info.param.concurrent_drain ? "_concurrent_drain" : "");
    });

// --- joint delivery: every subscriber sees every frame, in order ----------

class JointFanoutTest : public ::testing::TestWithParam<int> {};

TEST_P(JointFanoutTest, GuaranteedInOrderDeliveryToAllSubscribers) {
  int subscribers = GetParam();
  feeds::FeedJoint joint("prop");
  std::vector<std::shared_ptr<feeds::SubscriberQueue>> queues;
  feeds::SubscriberOptions options;
  options.memory_budget_bytes = 1LL << 40;
  for (int s = 0; s < subscribers; ++s) {
    queues.push_back(joint.Subscribe(options));
  }
  constexpr int kFrames = 200;
  for (int f = 0; f < kFrames; ++f) {
    ASSERT_TRUE(joint
                    .NextFrame(hyracks::MakeFrame({Value::Record(
                        {{"id", Value::String(std::to_string(f))},
                         {"n", Value::Int64(f)}})}))
                    .ok());
  }
  ASSERT_TRUE(joint.Close().ok());
  for (auto& queue : queues) {
    int64_t expected = 0;
    while (auto frame = queue->Next(500)) {
      EXPECT_EQ((*frame)->records()[0].GetField("n")->AsInt64(),
                expected);
      ++expected;
    }
    EXPECT_EQ(expected, kFrames);
    EXPECT_TRUE(queue->ended());
  }
}

INSTANTIATE_TEST_SUITE_P(Fanout, JointFanoutTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// --- SimulatedCpu: rate conformance and fairness ---------------------------

TEST(SimulatedCpuTest, GrantsApproximatelyConfiguredCapacity) {
  gen::SimulatedCpu cpu(2.0);  // 2 cores
  common::SleepMillis(5);      // let a little credit accrue
  common::Stopwatch watch;
  constexpr int kJobs = 400;
  constexpr int64_t kCostUs = 1000;  // 0.4 core-seconds of demand
  for (int i = 0; i < kJobs; ++i) cpu.Consume(kCostUs);
  double elapsed_s = watch.ElapsedSeconds();
  double ideal_s = kJobs * kCostUs / 1e6 / 2.0;  // 0.2s at 2 cores
  EXPECT_GE(elapsed_s, ideal_s * 0.45);  // burst credit can halve it
  EXPECT_LE(elapsed_s, ideal_s * 3.0);
}

TEST(SimulatedCpuTest, FifoFairnessBetweenCheapAndExpensiveConsumers) {
  gen::SimulatedCpu cpu(1.0);
  std::atomic<int> cheap{0};
  std::atomic<int> expensive{0};
  std::atomic<bool> run{true};
  std::thread cheap_thread([&] {
    while (run.load()) {
      cpu.Consume(200);
      cheap.fetch_add(1);
    }
  });
  std::thread expensive_thread([&] {
    while (run.load()) {
      cpu.Consume(1000);
      expensive.fetch_add(1);
    }
  });
  common::SleepMillis(400);
  run.store(false);
  cheap_thread.join();
  expensive_thread.join();
  // FIFO grants alternate between the two waiters, so their completion
  // COUNTS stay comparable (a greedy bucket would let the cheap one
  // finish ~5x as many).
  ASSERT_GT(expensive.load(), 0);
  double ratio =
      static_cast<double>(cheap.load()) / expensive.load();
  EXPECT_LT(ratio, 2.5) << "cheap=" << cheap << " expensive=" << expensive;
}

}  // namespace
}  // namespace asterix
