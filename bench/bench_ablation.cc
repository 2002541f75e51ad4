// Ablation microbenchmarks (google-benchmark) for the design choices
// DESIGN.md calls out:
//   1. feed joint fan-out cost per subscriber,
//   2. frame size (records per frame) on the joint delivery path,
//   3. ack grouping window (messages saved by grouping, §5.6),
//   4. the storage write path (LSM insert, WAL group commit, dataset
//      insert per record vs per frame),
//   5. ADM parse/serialize (the intake translation step).
#include <filesystem>

#include <benchmark/benchmark.h>

#include "adm/binary.h"
#include "adm/parser.h"
#include "feeds/ack.h"
#include "feeds/joint.h"
#include "gen/tweetgen.h"
#include "storage/dataset.h"
#include "storage/key.h"
#include "storage/lsm_index.h"
#include "storage/wal.h"

namespace asterix {
namespace {

using adm::Value;
using hyracks::FramePtr;
using hyracks::MakeFrame;

FramePtr SampleFrame(int records) {
  gen::TweetFactory factory(0);
  std::vector<Value> batch;
  for (int i = 0; i < records; ++i) batch.push_back(factory.NextTweet());
  return MakeFrame(std::move(batch));
}

/// Ablation 1: joint delivery with N subscribers. Every subscriber gets
/// its own FramePtr reference, so the cost grows with N by one queue
/// hand-off (and one refcount bump) per subscriber.
void BM_JointDelivery(benchmark::State& state) {
  int subscribers = static_cast<int>(state.range(0));
  feeds::FeedJoint joint("bench");
  std::vector<std::shared_ptr<feeds::SubscriberQueue>> queues;
  feeds::SubscriberOptions options;
  options.memory_budget_bytes = 1LL << 40;  // never throttle here
  for (int s = 0; s < subscribers; ++s) {
    queues.push_back(joint.Subscribe(options));
  }
  FramePtr frame = SampleFrame(64);
  for (auto _ : state) {
    CHECK_OK(joint.NextFrame(frame));
    for (auto& queue : queues) {
      benchmark::DoNotOptimize(queue->Next(0));
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(subscribers == 1 ? "one subscriber" : "fan-out");
}
BENCHMARK(BM_JointDelivery)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// Ablation 2: frame size — batching granularity of the delivery path.
void BM_FrameSize(benchmark::State& state) {
  int records_per_frame = static_cast<int>(state.range(0));
  feeds::FeedJoint joint("bench");
  feeds::SubscriberOptions options;
  options.memory_budget_bytes = 1LL << 40;
  auto queue = joint.Subscribe(options);
  FramePtr frame = SampleFrame(records_per_frame);
  for (auto _ : state) {
    CHECK_OK(joint.NextFrame(frame));
    benchmark::DoNotOptimize(queue->Next(0));
  }
  state.SetItemsProcessed(state.iterations() * records_per_frame);
}
BENCHMARK(BM_FrameSize)->Arg(1)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

/// Ablation 3: ack grouping — messages published per 10k acks as the
/// grouping window varies (0ms = ungrouped).
void BM_AckGrouping(benchmark::State& state) {
  int64_t window_ms = state.range(0);
  for (auto _ : state) {
    auto bus = std::make_shared<feeds::AckBus>();
    int64_t received = 0;
    bus->Register("c", 0, [&](const std::vector<int64_t>& tids) {
      received += static_cast<int64_t>(tids.size());
    });
    feeds::AckCollector collector(bus, "c", window_ms);
    for (int i = 0; i < 10000; ++i) {
      collector.OnPersisted(feeds::MakeTrackingId(0, i));
    }
    collector.Flush();
    benchmark::DoNotOptimize(received);
    state.counters["msgs_per_10k_acks"] = static_cast<double>(
        bus->messages_published());
  }
}
BENCHMARK(BM_AckGrouping)->Arg(0)->Arg(10)->Arg(100);

/// Substrate: LSM insert path (memtable + periodic flush/merge).
void BM_LsmInsert(benchmark::State& state) {
  storage::LsmIndex index;
  gen::TweetFactory factory(0);
  int64_t i = 0;
  for (auto _ : state) {
    Value tweet = factory.NextTweet();
    auto key = storage::EncodeKey(Value::Int64(i++)).value();
    benchmark::DoNotOptimize(index.Insert(key, std::move(tweet)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LsmInsert);

/// Substrate: WAL group commit. Args: entries per Append (1/8/64) and
/// durable (0/1, one flush per Append). Items are entries, so the curve
/// shows the per-entry cost of the lease, lock, write and flush falling
/// with the batch. A fixed 8192 Appends per run bound the log file (at
/// most 512k entries, under 200 MB at batch 64).
void BM_WalAppend(benchmark::State& state) {
  const int64_t batch_entries = state.range(0);
  storage::Wal wal("/tmp/asterix_bench.wal", /*durable=*/state.range(1) != 0);
  CHECK_OK(wal.Open());
  gen::TweetFactory factory(0);
  storage::WalBatch batch;
  int64_t bytes = 0;
  for (int64_t i = 0; i < batch_entries; ++i) {
    std::string payload = factory.NextTweetText();
    bytes += static_cast<int64_t>(payload.size());
    batch.Add(payload);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.Append(batch));
  }
  state.SetItemsProcessed(state.iterations() * batch_entries);
  state.SetBytesProcessed(state.iterations() * bytes);
  std::remove("/tmp/asterix_bench.wal");
}
BENCHMARK(BM_WalAppend)
    ->ArgsProduct({{1, 8, 64}, {0, 1}})
    ->ArgNames({"batch", "durable"})
    ->Iterations(8192);

/// The store stage's write: a 64-record frame into a durable dataset
/// partition, as 64 Insert calls (arg 0) or one InsertFrame (arg 1).
/// Upserts of the same 64 keys keep the memtable bounded.
void BM_DatasetInsert(benchmark::State& state) {
  const bool per_frame = state.range(0) != 0;
  const std::string dir = "/tmp/asterix_bench_dataset";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  storage::DatasetDef def;
  def.name = "Bench";
  def.primary_key_field = "id";
  def.durable_writes = true;
  storage::DatasetPartition partition(def, 0, dir, nullptr);
  CHECK_OK(partition.Open());
  gen::TweetFactory factory(0);
  std::vector<Value> frame;
  for (int i = 0; i < 64; ++i) frame.push_back(factory.NextTweet());
  for (auto _ : state) {
    if (per_frame) {
      CHECK_OK(partition.InsertFrame(frame));
    } else {
      for (const Value& record : frame) CHECK_OK(partition.Insert(record));
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_DatasetInsert)->Arg(0)->Arg(1)->ArgName("per_frame")->Iterations(1024);

/// Intake translation: parse one serialized tweet into ADM.
void BM_AdmParse(benchmark::State& state) {
  gen::TweetFactory factory(0);
  std::string text = factory.NextTweetText();
  for (auto _ : state) {
    benchmark::DoNotOptimize(adm::ParseAdm(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_AdmParse);

/// Serialization: the inverse path, back to ADM text.
void BM_AdmSerialize(benchmark::State& state) {
  gen::TweetFactory factory(0);
  Value tweet = factory.NextTweet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tweet.ToAdmString());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdmSerialize);

/// The store's encode: one tweet into its binary form (the WAL payload
/// and the LSM's stored bytes).
void BM_AdmBinaryEncode(benchmark::State& state) {
  gen::TweetFactory factory(0);
  Value tweet = factory.NextTweet();
  std::string bytes;
  for (auto _ : state) {
    bytes.clear();
    CHECK_OK(adm::AppendBinary(tweet, &bytes));
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdmBinaryEncode);

/// A point read's decode: stored bytes back to a `Value`.
void BM_AdmBinaryDecode(benchmark::State& state) {
  gen::TweetFactory factory(0);
  std::string bytes;
  CHECK_OK(adm::AppendBinary(factory.NextTweet(), &bytes));
  for (auto _ : state) {
    benchmark::DoNotOptimize(adm::DecodeBinary(bytes));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdmBinaryDecode);

}  // namespace
}  // namespace asterix

BENCHMARK_MAIN();
