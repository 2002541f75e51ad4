// Figures 7.11 / 7.12 — Comparison with the 'glued' Storm + MongoDB
// assembly.
//
// Paper setup: the same bursty tweet workload is pushed through a Storm
// topology (spout -> parse -> hashtag UDF -> mongo-insert bolt) writing
// into MongoDB, once with DURABLE writes (Figure 7.11) and once with
// NON-DURABLE writes (Figure 7.12); AsterixDB runs the equivalent native
// feed. Paper result: with durable writes the glued system's throughput
// is far below AsterixDB's (per-document journaling in the driver path);
// non-durable writes close the gap but acknowledge data that a crash
// would lose — AsterixDB's WAL-based record-level durability does not
// have that window.
#include <thread>

#include "baseline/glue.h"
#include "bench/bench_util.h"

using namespace asterix;        // NOLINT
using namespace asterix::bench;  // NOLINT

namespace {

constexpr int64_t kLowTps = 300;
constexpr int64_t kHighTps = 2500;
constexpr int64_t kIntervalMs = 1500;
constexpr int kCycles = 2;

gen::Pattern Workload() {
  return gen::Pattern::Burst(kLowTps, kHighTps, kIntervalMs, kCycles);
}

struct GlueOutput {
  std::vector<int64_t> stored_timeline;
  int64_t sent = 0;
  int64_t stored = 0;
  int64_t journaled = 0;
  int64_t lost_on_crash = 0;
};

GlueOutput RunGlued(baseline::WriteConcern concern) {
  gen::TweetGenServer source(0, Workload());
  baseline::MongoServer mongo("/tmp/asterix_bench_mongo_" +
                              std::to_string(common::NowMicros()));
  CHECK_OK(mongo.CreateCollection("tweets", concern));
  baseline::MongoCollection* collection = mongo.GetCollection("tweets");

  feeds::IntervalCounter timeline(500);
  baseline::storm::LocalCluster cluster;
  baseline::storm::TopologyDef topology;
  topology.name = "glue";
  gen::Channel* channel = &source.channel();
  topology.spout = [channel](int) {
    return std::make_unique<baseline::ChannelSpout>(channel);
  };
  topology.bolts.push_back(
      {"parse",
       [](int) { return std::make_unique<baseline::ParseBolt>(); }, 2,
       baseline::storm::Grouping::kShuffle, nullptr});
  auto udf = feeds::AqlUdf::ExtractHashtags("tags");
  topology.bolts.push_back(
      {"tags",
       [udf](int) { return std::make_unique<baseline::UdfBolt>(udf); },
       2, baseline::storm::Grouping::kShuffle, nullptr});
  topology.bolts.push_back(
      {"mongo",
       [collection, &timeline](int) {
         return std::make_unique<baseline::MongoInsertBolt>(
             collection, [&timeline](int64_t) { timeline.Add(1); });
       },
       2, baseline::storm::Grouping::kFields,
       [](const adm::Value& v) {
         const adm::Value* id = v.GetField("id");
         return id != nullptr ? id->AsString() : std::string();
       }});
  CHECK_OK(cluster.Submit(std::move(topology)));

  // Track the worst journal lag during the run: documents acknowledged
  // to the client but not yet on disk (the non-durable loss window).
  std::atomic<bool> watching{true};
  std::atomic<int64_t> peak_lag{0};
  std::thread lag_watcher([&] {
    while (watching.load()) {
      int64_t lag = collection->Count() - collection->JournaledCount();
      int64_t prev = peak_lag.load();
      while (lag > prev && !peak_lag.compare_exchange_weak(prev, lag)) {
      }
      common::SleepMillis(20);
    }
  });

  source.Start();
  source.Join();
  cluster.WaitUntilDrained(60000);
  cluster.Shutdown();
  watching.store(false);
  lag_watcher.join();

  GlueOutput out;
  out.sent = source.tweets_sent();
  out.stored = collection->Count();
  out.journaled = collection->JournaledCount();
  out.stored_timeline = timeline.Series();
  out.lost_on_crash = peak_lag.load();
  return out;
}

struct NativeOutput {
  std::vector<int64_t> stored_timeline;
  int64_t sent = 0;
  int64_t stored = 0;
};

NativeOutput RunAsterix() {
  AsterixInstance db(InstanceOptions{.num_nodes = 3});
  CHECK_OK(db.Start());
  gen::TweetGenServer source(0, Workload());
  feeds::ExternalSourceRegistry::Instance().RegisterChannel(
      "cmp:1", &source.channel());
  // The row is labelled WAL-durable: each stored frame's WAL group
  // commit is flushed before its records count as stored.
  storage::DatasetDef def = TweetsDataset("Tweets");
  def.durable_writes = true;
  CHECK_OK(db.CreateDataset(def));
  CHECK_OK(db.InstallUdf(feeds::AqlUdf::ExtractHashtags("tags")));
  feeds::FeedDef feed;
  feed.name = "F";
  feed.adaptor_alias = "TweetGenAdaptor";
  feed.adaptor_config = {{"sockets", "cmp:1"}};
  feed.udf = "tags";
  CHECK_OK(db.CreateFeed(feed));
  CHECK_OK(db.ConnectFeed("F", "Tweets", "Basic"));
  auto metrics = db.FeedMetrics("F", "Tweets");

  source.Start();
  source.Join();
  WaitFor(
      [&] {
        return db.CountDataset("Tweets").value() >= source.tweets_sent();
      },
      30000);

  NativeOutput out;
  out.sent = source.tweets_sent();
  out.stored = db.CountDataset("Tweets").value();
  auto fine = metrics->store_timeline.Series();
  for (size_t i = 0; i < fine.size(); i += 2) {
    out.stored_timeline.push_back(
        fine[i] + (i + 1 < fine.size() ? fine[i + 1] : 0));
  }
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("cmp:1");
  return out;
}

}  // namespace

int main() {
  Banner("Figures 7.11/7.12", "Storm+MongoDB (glued) vs native feeds");

  GlueOutput durable = RunGlued(baseline::WriteConcern::kDurable);
  PrintTimeline(
      "Figure 7.11 — Storm+MongoDB, DURABLE write: instantaneous "
      "throughput",
      durable.stored_timeline, 500);
  std::printf("  sent=%lld stored=%lld journaled=%lld\n",
              static_cast<long long>(durable.sent),
              static_cast<long long>(durable.stored),
              static_cast<long long>(durable.journaled));

  GlueOutput fast = RunGlued(baseline::WriteConcern::kNonDurable);
  PrintTimeline(
      "Figure 7.12 — Storm+MongoDB, NON-DURABLE write: instantaneous "
      "throughput",
      fast.stored_timeline, 500);
  std::printf("  sent=%lld stored=%lld journaled-at-end=%lld; a crash "
              "mid-run would have lost up to %lld ACKNOWLEDGED "
              "documents (peak journal lag)\n",
              static_cast<long long>(fast.sent),
              static_cast<long long>(fast.stored),
              static_cast<long long>(fast.journaled),
              static_cast<long long>(fast.lost_on_crash));

  NativeOutput native = RunAsterix();
  PrintTimeline("AsterixDB native feed (same workload, WAL-durable)",
                native.stored_timeline, 500);
  std::printf("  sent=%lld stored=%lld\n",
              static_cast<long long>(native.sent),
              static_cast<long long>(native.stored));

  std::printf(
      "\nshape check (paper): the durable glued configuration trails the "
      "native feed (per-document journal in the driver path and the "
      "ack-per-tuple overhead); the non-durable one narrows the gap but "
      "leaves a data-loss window that the native WAL path does not.\n");
  return 0;
}
