// Observability layer tests: metrics registry primitives (counters,
// gauges, log-bucketed histograms, providers, Prometheus exposition), the
// IntervalCounter clock-skew fix, congestion decisions driven from a
// synthetic registry snapshot (no live pipeline), and an end-to-end
// pipeline run asserting the intake->store latency histogram and the
// per-frame trace spans it is built from.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "asterix/asterix.h"
#include "common/failpoint.h"
#include "common/observability.h"
#include "feeds/metrics.h"
#include "feeds/policy.h"
#include "feeds/trace.h"
#include "gen/tweetgen.h"
#include "testing_util.h"

namespace asterix {
namespace {

using asterix::testing::FastOptions;
using asterix::testing::TweetsDataset;
using asterix::testing::WaitFor;
using common::Gauge;
using common::Histogram;
using common::HistogramSnapshot;
using common::MetricsRegistry;
using common::MetricsSnapshot;
using feeds::CongestionSignals;
using feeds::CongestionState;
using feeds::EvaluateElastic;
using feeds::IngestionPolicy;
using feeds::ScaleDecision;
using feeds::ThrottleKeepProbability;
using feeds::Tracer;
using feeds::TraceSpan;

// --- histogram primitives --------------------------------------------------

TEST(HistogramTest, QuantilesAreMonotoneAndClampedByMax) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("t");
  for (int64_t v : {1, 2, 3, 100, 1000, 5000, 5000, 12345}) h->Record(v);
  MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* hs = snap.Histogram("t");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 8);
  EXPECT_EQ(hs->sum, 1 + 2 + 3 + 100 + 1000 + 5000 + 5000 + 12345);
  EXPECT_EQ(hs->max, 12345);
  int64_t p50 = hs->Quantile(0.50);
  int64_t p95 = hs->Quantile(0.95);
  int64_t p99 = hs->Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, hs->max);
  EXPECT_GE(p50, 3);  // half the samples are >= 100
}

TEST(HistogramTest, BucketBoundariesAreLog2) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("b");
  h->Record(1);   // bucket 0: <= 1
  h->Record(2);   // bucket 1: (1, 2]
  h->Record(3);   // bucket 2: (2, 4]
  h->Record(4);   // bucket 2
  h->Record(5);   // bucket 3: (4, 8]
  MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* hs = snap.Histogram("b");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->buckets[0], 1);
  EXPECT_EQ(hs->buckets[1], 1);
  EXPECT_EQ(hs->buckets[2], 2);
  EXPECT_EQ(hs->buckets[3], 1);
}

TEST(HistogramTest, EmptyHistogramQuantileIsZero) {
  MetricsRegistry reg;
  reg.GetHistogram("e");
  MetricsSnapshot snap = reg.Snapshot();
  const HistogramSnapshot* hs = snap.Histogram("e");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->Quantile(0.5), 0);
  EXPECT_EQ(hs->Mean(), 0.0);
}

// --- registry --------------------------------------------------------------

TEST(MetricsRegistryTest, GetOrCreateIsLabelOrderInsensitive) {
  MetricsRegistry reg;
  common::Counter* a = reg.GetCounter("c", {{"x", "1"}, {"y", "2"}});
  common::Counter* b = reg.GetCounter("c", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, reg.GetCounter("c", {{"x", "1"}}));
  a->Add(3);
  EXPECT_EQ(reg.Snapshot().CounterValue("c", {{"y", "2"}, {"x", "1"}}), 3);
}

TEST(MetricsRegistryTest, ProviderAppearsUntilHandleReset) {
  MetricsRegistry reg;
  int64_t value = 41;
  MetricsRegistry::ProviderHandle handle = reg.RegisterProvider(
      "pull_gauge", MetricsRegistry::ProviderKind::kGauge, {{"k", "v"}},
      [&value] { return value + 1; });
  EXPECT_EQ(reg.Snapshot().GaugeValue("pull_gauge", {{"k", "v"}}), 42);
  value = 10;
  EXPECT_EQ(reg.Snapshot().GaugeValue("pull_gauge", {{"k", "v"}}), 11);
  handle.Reset();
  EXPECT_EQ(reg.Snapshot().GaugeValue("pull_gauge", {{"k", "v"}}), 0);
  EXPECT_EQ(reg.Snapshot().gauges.count(
                MetricsSnapshot::Key("pull_gauge", {{"k", "v"}})),
            0u);
}

TEST(MetricsRegistryTest, ExportEmitsTypedSamplesAndEscapesLabels) {
  MetricsRegistry reg;
  reg.GetCounter("requests_total", {{"conn", "a\"b\\c\nd"}})->Add(7);
  reg.GetGauge("depth")->Set(-3);
  reg.GetHistogram("lat_us")->Record(5);
  std::string text = reg.Export();
  EXPECT_NE(text.find("# TYPE requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("requests_total{conn=\"a\\\"b\\\\c\\nd\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("depth -3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 1\n"), std::string::npos);
  // Cumulative buckets: the (4,8] bucket already counts the value 5.
  EXPECT_NE(text.find("lat_us_bucket{le=\"8\"} 1\n"), std::string::npos);
}

TEST(MetricsRegistryTest, ListCoversOwnedAndProviderMetrics) {
  MetricsRegistry reg;
  reg.GetCounter("c1");
  reg.GetHistogram("h1", {{"stage", "store"}});
  int64_t v = 0;
  auto handle = reg.RegisterProvider(
      "p1", MetricsRegistry::ProviderKind::kCounter, {}, [&v] { return v; });
  std::set<std::string> names;
  for (const auto& info : reg.List()) names.insert(info.kind + ":" + info.name);
  EXPECT_TRUE(names.count("counter:c1"));
  EXPECT_TRUE(names.count("histogram:h1"));
  EXPECT_TRUE(names.count("counter:p1"));
}

// --- IntervalCounter fix (clock skew after Reset) --------------------------

TEST(IntervalCounterTest, NegativeBinClampsToFirstBin) {
  feeds::IntervalCounter counter(100);
  int64_t start = counter.start_ms();
  // A racing Reset() can move start_ms_ past a sampled `now` — the add
  // must land in bin 0, not index out of bounds.
  counter.AddAtMillis(start - 5000, 2);
  counter.AddAtMillis(start + 50, 1);
  std::vector<int64_t> series = counter.Series();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0], 3);
}

TEST(IntervalCounterTest, LaggardBinGrowsGeometrically) {
  feeds::IntervalCounter counter(10);
  int64_t start = counter.start_ms();
  counter.AddAtMillis(start + 10 * 999, 1);  // bin 999 in one step
  counter.AddAtMillis(start + 5, 4);
  std::vector<int64_t> series = counter.Series();
  ASSERT_EQ(series.size(), 1000u);
  EXPECT_EQ(series[0], 4);
  EXPECT_EQ(series[999], 1);
}

// --- congestion decisions from a synthetic snapshot (satellite 2) ----------

class PolicyDecisionTest : public ::testing::Test {
 protected:
  // One monitor tick: publish `pending` into the (test-local) registry,
  // take a snapshot, and feed the read-back value to the decision
  // function — the exact read path CentralFeedManager::MonitorLoop uses.
  ScaleDecision Tick(int64_t pending, const IngestionPolicy& policy,
                     int width, int alive) {
    pending_->Set(pending);
    MetricsSnapshot snap = reg_.Snapshot();
    CongestionSignals signals;
    signals.intake_pending_bytes = snap.GaugeValue(
        "feed_intake_pending_bytes", {{"connection", "F->D"}});
    signals.compute_width = width;
    signals.initial_compute_width = 1;
    signals.alive_nodes = alive;
    return EvaluateElastic(signals, policy, &state_);
  }

  MetricsRegistry reg_;
  Gauge* pending_ = reg_.GetGauge("feed_intake_pending_bytes",
                                  {{"connection", "F->D"}});
  CongestionState state_;
  // budget 1024 => congestion above 256, idle below 32.
  IngestionPolicy elastic_{
      "Elastic",
      {{IngestionPolicy::kExcessRecordsElastic, "true"},
       {IngestionPolicy::kMemoryBudget, "1024"}}};
};

TEST_F(PolicyDecisionTest, ScaleOutOnThirdCongestedTick) {
  EXPECT_EQ(Tick(500, elastic_, 1, 4), ScaleDecision::kNone);
  EXPECT_EQ(Tick(500, elastic_, 1, 4), ScaleDecision::kNone);
  EXPECT_EQ(Tick(500, elastic_, 1, 4), ScaleDecision::kScaleOut);
  // The triggering streak resets: the next congested tick starts over.
  EXPECT_EQ(Tick(500, elastic_, 2, 4), ScaleDecision::kNone);
}

TEST_F(PolicyDecisionTest, NoScaleOutBeyondAliveNodes) {
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(Tick(500, elastic_, 4, 4), ScaleDecision::kNone);
  }
}

TEST_F(PolicyDecisionTest, MiddleBandResetsStreaks) {
  EXPECT_EQ(Tick(500, elastic_, 1, 4), ScaleDecision::kNone);
  EXPECT_EQ(Tick(500, elastic_, 1, 4), ScaleDecision::kNone);
  EXPECT_EQ(Tick(100, elastic_, 1, 4), ScaleDecision::kNone);  // 32..256
  EXPECT_EQ(Tick(500, elastic_, 1, 4), ScaleDecision::kNone);
  EXPECT_EQ(Tick(500, elastic_, 1, 4), ScaleDecision::kNone);
  EXPECT_EQ(Tick(500, elastic_, 1, 4), ScaleDecision::kScaleOut);
}

TEST_F(PolicyDecisionTest, ScaleInAfterSustainedIdleOnlyAboveInitialWidth) {
  // Idle at the initial width: never scales below it.
  for (int i = 0; i < 2 * feeds::kElasticScaleInStreak; ++i) {
    EXPECT_EQ(Tick(0, elastic_, 1, 4), ScaleDecision::kNone);
  }
  state_ = CongestionState();
  // Idle at width 3 (> initial 1): scales in on the 20th idle tick.
  for (int i = 0; i < feeds::kElasticScaleInStreak - 1; ++i) {
    EXPECT_EQ(Tick(0, elastic_, 3, 4), ScaleDecision::kNone) << "tick " << i;
  }
  EXPECT_EQ(Tick(0, elastic_, 3, 4), ScaleDecision::kScaleIn);
}

TEST_F(PolicyDecisionTest, NonElasticPoliciesNeverRescale) {
  IngestionPolicy basic("Basic", {});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(Tick(100000, basic, 1, 4), ScaleDecision::kNone);
  }
}

TEST(ThrottleDecisionTest, KeepProbabilityFollowsQueueFill) {
  const int64_t budget = 1000;
  // Under half budget and the frame fits: keep everything.
  EXPECT_EQ(ThrottleKeepProbability(0, 100, budget), 1.0);
  EXPECT_EQ(ThrottleKeepProbability(400, 100, budget), 1.0);
  // Over half full: keep falls linearly with fill.
  EXPECT_DOUBLE_EQ(ThrottleKeepProbability(600, 100, budget), 0.4);
  // Frame would blow the budget: engaged even from a low fill.
  EXPECT_DOUBLE_EQ(ThrottleKeepProbability(300, 800, budget), 0.7);
  // Floor at kThrottleMinKeep no matter how full.
  EXPECT_DOUBLE_EQ(ThrottleKeepProbability(990, 100, budget),
                   feeds::kThrottleMinKeep);
  EXPECT_DOUBLE_EQ(ThrottleKeepProbability(5000, 100, budget),
                   feeds::kThrottleMinKeep);
}

// --- end-to-end latency + trace spans (satellite 1) ------------------------

TEST(ObservabilityE2ETest, CascadeLatencyHistogramsAndSpanConservation) {
  Tracer& tracer = Tracer::Instance();
  tracer.Reset();
  tracer.SetRingCapacity(200000);
  tracer.SetSamplingRate(1.0);

  // The generator outlives the instance (declared first): collect tasks
  // may still poll its channel while the instance tears down.
  gen::TweetGenServer source(0, gen::Pattern::Constant(1500, 1200));

  AsterixInstance db(FastOptions(3));
  ASSERT_TRUE(db.Start().ok());
  // One store partition (nodegroup {C}) and one compute instance so the
  // per-trace primary spans form a single chain.
  ASSERT_TRUE(db.CreateDataset(TweetsDataset("ObsSink", {"C"})).ok());
  ASSERT_TRUE(db.InstallUdf(feeds::AqlUdf::ExtractHashtags("tags")).ok());

  feeds::ExternalSourceRegistry::Instance().RegisterChannel(
      "obs:1", &source.channel());
  feeds::FeedDef feed;
  feed.name = "ObsFeed";
  feed.adaptor_alias = "socket_adaptor";
  feed.adaptor_config = {{"sockets", "obs:1"}};
  feed.udf = "tags";
  ASSERT_TRUE(db.CreateFeed(feed).ok());
  ASSERT_TRUE(
      db.ConnectFeed("ObsFeed", "ObsSink", "Basic", {.compute_count = 1})
          .ok());

  source.Start();
  source.Join();
  int64_t sent = source.tweets_sent();
  ASSERT_GT(sent, 1000);
  ASSERT_TRUE(WaitFor(
      [&] { return db.CountDataset("ObsSink").value() == sent; }, 20000))
      << "sent=" << sent
      << " stored=" << db.CountDataset("ObsSink").value();
  tracer.SetSamplingRate(0);
  common::SleepMillis(200);  // let in-flight spans finish recording

  MetricsSnapshot snap = AsterixInstance::SnapshotMetrics();
  const common::MetricLabels conn = {{"connection", "ObsFeed->ObsSink"}};

  // Intake->store end-to-end histogram: populated and monotone.
  const HistogramSnapshot* e2e =
      snap.Histogram("feed_intake_to_store_latency_us", conn);
  ASSERT_NE(e2e, nullptr);
  ASSERT_GT(e2e->count, 0);
  int64_t p50 = e2e->Quantile(0.50), p95 = e2e->Quantile(0.95),
          p99 = e2e->Quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, e2e->max);
  EXPECT_GT(p50, 0);

  // Per-stage histograms: every primary stage of this cascade recorded.
  int populated = 0;
  for (const std::string& stage :
       {"source", "queue", "intake", "assign0", "store"}) {
    const HistogramSnapshot* h =
        snap.Histogram("feed_stage_latency_us", {{"stage", stage}});
    if (h != nullptr && h->count > 0) ++populated;
  }
  EXPECT_GE(populated, 3) << "stage histograms populated: " << populated;

  // Registry counters agree with the run. Collection happens in the head
  // (intake-side) pipeline, which carries its own connection label.
  EXPECT_EQ(snap.CounterValue("feed_records_collected_total",
                              {{"connection", "head:ObsFeed"}}),
            sent);
  EXPECT_EQ(snap.CounterValue("feed_records_stored_total", conn), sent);

  // Span conservation per trace: primary spans tile the path, so their
  // durations sum to at most the trace's end-to-end extent (plus small
  // boundary overlaps), and the uninstrumented task hand-off gaps keep
  // the sum below it.
  std::map<uint64_t, std::vector<TraceSpan>> by_trace;
  for (const TraceSpan& span : tracer.Spans()) {
    by_trace[span.trace_id].push_back(span);
  }
  int checked = 0;
  for (const auto& [id, spans] : by_trace) {
    int64_t begin = -1, end = -1, primary_sum = 0;
    bool stored = false;
    for (const TraceSpan& s : spans) {
      if (s.detail) continue;
      if (begin < 0 || s.start_us < begin) begin = s.start_us;
      primary_sum += s.duration_us;
      if (s.stage == "store") {
        stored = true;
        end = std::max(end, s.start_us + s.duration_us);
      }
    }
    if (!stored || begin < 0) continue;
    int64_t extent = end - begin;
    EXPECT_GE(extent, 0) << "trace " << id;
    EXPECT_LE(primary_sum, extent + extent / 10 + 5000)
        << "trace " << id << ": primary spans sum " << primary_sum
        << "us exceeds end-to-end extent " << extent << "us";
    EXPECT_GT(primary_sum, 0) << "trace " << id;
    ++checked;
  }
  EXPECT_GE(checked, 5) << "too few traces reached the store span";

  // The JSON dump renders non-trivially.
  std::string json = tracer.DumpJson(4);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\":\"store\""), std::string::npos);

  ASSERT_TRUE(db.DisconnectFeed("ObsFeed", "ObsSink").ok());
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("obs:1");
  tracer.Reset();
}

// --- thread names (per-thread CPU attribution) -------------------------------

// The names of this process's threads, as per-thread tools (top -H,
// /proc/<pid>/task/*/comm) show them.
std::set<std::string> ThreadNames() {
  std::set<std::string> names;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) names.insert(name);
  }
  return names;
}

// Every long-lived engine thread is named, so per-thread CPU can be
// attributed to a stage or a control loop rather than to the binary.
TEST(ThreadNamesTest, EngineThreadsAreNamedWhileAFeedRuns) {
  gen::TweetGenServer source(0, gen::Pattern::Constant(500, 20000));
  AsterixInstance db(FastOptions(2));
  ASSERT_TRUE(db.Start().ok());
  ASSERT_TRUE(db.CreateDataset(TweetsDataset("NamedSink")).ok());
  feeds::ExternalSourceRegistry::Instance().RegisterChannel(
      "names:1", &source.channel());
  feeds::FeedDef feed;
  feed.name = "NamedFeed";
  feed.adaptor_alias = "socket_adaptor";
  feed.adaptor_config = {{"sockets", "names:1"}};
  ASSERT_TRUE(db.CreateFeed(feed).ok());
  ASSERT_TRUE(db.ConnectFeed("NamedFeed", "NamedSink", "Basic").ok());
  // A step far in the future keeps the chaos driver parked for the test.
  common::ChaosSchedule chaos;
  chaos.DisarmAt(60000, "feeds.joint.route");
  chaos.Start();
  source.Start();

  const std::vector<std::string> expected = {
      "lsm_maint",   "heartbeat", "cluster_mon",
      "central_mon", "tweetgen",  "chaos_driver"};
  std::set<std::string> seen;
  EXPECT_TRUE(WaitFor(
      [&] {
        seen = ThreadNames();
        return std::all_of(expected.begin(), expected.end(),
                           [&](const std::string& name) {
                             return seen.count(name) > 0;
                           }) &&
               db.CountDataset("NamedSink").value() > 0;
      },
      10000));
  for (const std::string& name : expected) {
    EXPECT_EQ(seen.count(name), 1u) << "no thread named " << name;
  }

  chaos.Stop();
  source.Stop();
  source.Join();
  ASSERT_TRUE(db.DisconnectFeed("NamedFeed", "NamedSink").ok());
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("names:1");
}

}  // namespace
}  // namespace asterix
