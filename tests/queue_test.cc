// Property and stress tests for common::BlockingQueue, the one queue type
// (common/blocking_queue.h), as the task pump drives it: conservation
// under multi-writer/multi-reader load, per-producer order, capacity
// back-pressure, Close semantics and the batched PopAllInto drain.
// The whole file runs under the tsan-chaos preset (see CMakePresets.json)
// so every interleaving claim here is also a ThreadSanitizer claim.
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/blocking_queue.h"
#include "common/clock.h"
#include "common/rng.h"
#include "testing_util.h"

namespace asterix {
namespace {

using common::BlockingQueue;

// Drains with PopAllInto until the queue is closed and drained.
std::vector<int> DrainUntilClosed(BlockingQueue<int>& q) {
  std::vector<int> all;
  std::vector<int> batch;
  for (;;) {
    batch.clear();
    if (q.PopAllInto(&batch) == 0) return all;
    all.insert(all.end(), batch.begin(), batch.end());
  }
}

TEST(BlockingQueue, CapacityIsExact) {
  BlockingQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(q.TryPush(i));
  EXPECT_FALSE(q.TryPush(3));
}

TEST(BlockingQueue, FifoSingleThread) {
  BlockingQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.TryPush(i));
  for (int i = 0; i < 8; ++i) {
    auto v = q.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueue, CloseUnblocksAndDrains) {
  BlockingQueue<int> q(4);
  EXPECT_TRUE(q.TryPush(7));
  q.Close();
  EXPECT_FALSE(q.TryPush(8));  // push refused after close
  auto v = q.Pop();            // drain still works
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(q.Pop().has_value());  // closed + drained -> nullopt
  std::vector<int> batch;
  EXPECT_EQ(q.PopAllInto(&batch), 0u);  // and PopAllInto agrees
  EXPECT_TRUE(batch.empty());
}

TEST(BlockingQueue, PopBlocksUntilPush) {
  BlockingQueue<int> q(4);
  std::thread later = testing::After(50, [&] { ASSERT_TRUE(q.Push(42)); });
  auto v = q.Pop();  // must park, then wake on the push
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  later.join();
}

// Back-pressure as the pump sees it: a producer blocked on a full queue
// is released by one batched drain.
TEST(BlockingQueue, PushBlocksUntilDrainMakesRoom) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Push(3));  // full: must park
    pushed.store(true);
  });
  EXPECT_TRUE(testing::StaysFalseFor([&] { return pushed.load(); }, 100));
  std::vector<int> batch;
  EXPECT_EQ(q.PopAllInto(&batch), 2u);  // frees both slots
  EXPECT_EQ(batch, (std::vector<int>{1, 2}));
  EXPECT_TRUE(testing::WaitFor([&] { return pushed.load(); }, 2000));
  producer.join();
  EXPECT_EQ(q.TryPopAll(), (std::vector<int>{3}));
}

TEST(BlockingQueue, PopForTimesOutEmpty) {
  BlockingQueue<int> q(4);
  EXPECT_FALSE(q.PopFor(std::chrono::milliseconds(30)).has_value());
}

// PopAllInto blocks while empty, drains everything queued once data
// arrives (appending to what the caller already holds), and returns 0
// only when closed and drained.
TEST(BlockingQueue, PopAllIntoBlocksThenDrainsEverything) {
  BlockingQueue<int> q(64);
  std::thread later = testing::After(30, [&] {
    ASSERT_TRUE(q.Push(1));
    ASSERT_TRUE(q.Push(2));
  });
  std::vector<int> batch = {0};
  size_t appended = q.PopAllInto(&batch);
  later.join();
  // One or both, depending on when the consumer wakes — but never none.
  ASSERT_GE(appended, 1u);
  EXPECT_EQ(batch.size(), 1 + appended);
  std::vector<int> rest = q.TryPopAll();
  batch.insert(batch.end(), rest.begin(), rest.end());
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));
  q.Close();
  EXPECT_EQ(q.PopAllInto(&batch), 0u);
}

// Close() must wake consumers parked in Pop and in PopAllInto; a lost
// wakeup hangs the joins.
TEST(BlockingQueue, CloseWakesParkedConsumers) {
  for (int i = 0; i < 200; ++i) {
    BlockingQueue<int> q(4);
    std::thread popper([&] { EXPECT_FALSE(q.Pop().has_value()); });
    std::thread drainer([&] { EXPECT_TRUE(DrainUntilClosed(q).empty()); });
    q.Close();
    popper.join();
    drainer.join();
  }
}

// The core property: with P producers each pushing K distinct values and
// C consumers draining, every value is seen exactly once — no loss, no
// duplication, no invention. K is a large multiple of the tiny capacity,
// so producers block constantly and the item vector is reset and reused
// on every drain.
TEST(BlockingQueue, MultiWriterMultiReaderConservation) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 2000;
  BlockingQueue<int> q(16);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<std::vector<int>> seen(kConsumers);
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&q, &seen, c] { seen[c] = DrainUntilClosed(q); });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  std::set<int> all;
  size_t total = 0;
  for (const auto& v : seen) {
    total += v.size();
    all.insert(v.begin(), v.end());
  }
  EXPECT_EQ(total, static_cast<size_t>(kProducers) * kPerProducer);
  EXPECT_EQ(all.size(), total);  // no duplicates
  EXPECT_EQ(*all.begin(), 0);
  EXPECT_EQ(*all.rbegin(), kProducers * kPerProducer - 1);
}

// With a single consumer, the subsequence of any one producer's values is
// strictly increasing: the queue preserves each producer's push order.
TEST(BlockingQueue, PerProducerOrderPreserved) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 1500;
  BlockingQueue<int> q(8);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<int> order;
  std::thread consumer([&] { order = DrainUntilClosed(q); });
  for (auto& t : producers) t.join();
  q.Close();
  consumer.join();

  ASSERT_EQ(order.size(), static_cast<size_t>(kProducers) * kPerProducer);
  std::vector<int> last(kProducers, -1);
  for (int v : order) {
    int p = v / kPerProducer;
    EXPECT_LT(last[p], v % kPerProducer);
    last[p] = v % kPerProducer;
  }
}

// tsan soak: sustained mixed traffic (non-blocking pushes, batched
// blocking drains) from several producers and consumers at once. The
// assertions are weak on purpose — the point is the interleavings
// ThreadSanitizer gets to observe when the tsan-chaos preset runs this
// suite.
TEST(QueueSoak, MixedTrafficUnderContention) {
  constexpr int kSeconds = 2;
  BlockingQueue<int> q(32);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> pushed{0}, popped{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&, p] {
      common::Rng rng(100 + p);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (q.TryPush(i)) pushed.fetch_add(1, std::memory_order_relaxed);
        if (rng.Chance(0.1)) common::SleepMicros(50);
        ++i;
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      std::vector<int> batch;
      for (;;) {
        batch.clear();
        size_t n = q.PopAllInto(&batch);
        if (n == 0) return;  // closed and drained
        popped.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
      }
    });
  }
  common::SleepMillis(kSeconds * 1000);
  stop.store(true);
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(pushed.load(), popped.load());  // conservation after drain
  EXPECT_GT(pushed.load(), 0);
}

}  // namespace
}  // namespace asterix
