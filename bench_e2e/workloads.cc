// The three feed workloads, driven through the public AsterixInstance API.
//
// A run is a sequence of passes. Each pass sets up a fresh instance (timed
// as setup_s), connects the feed (the timed window starts at the
// ConnectFeed call), polls every target connection's records_stored
// counter until all records are stored, issues the workload's queries, and
// finally checks each target dataset record by record against the ids
// sent. Passes repeat until their timed windows fill `--seconds` (at least
// kMinPasses), and every run sets up at least kMinSetups instances, so the
// end-to-end metrics are medians over passes.
#include <fcntl.h>
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_set>

#include "asterix/asterix.h"
#include "bench_e2e.h"
#include "common/rng.h"
#include "feeds/subscriber.h"
#include "feeds/trace.h"
#include "feeds/udf.h"
#include "gen/tweetgen.h"

namespace bench_e2e {
namespace {

using asterix::AsterixInstance;
using asterix::adm::Value;
namespace adm = asterix::adm;
namespace common = asterix::common;
namespace feeds = asterix::feeds;
namespace storage = asterix::storage;

/// Sleep between polls of the records_stored counters (with a 1 µs timer
/// slack; the measured poll period is printed with each run).
constexpr int64_t kPollSleepNs = 40'000;
constexpr size_t kMinSetups = 3;
constexpr size_t kMinPasses = 3;
constexpr int kNodes = 3;
/// geo_mixed's point reads during ingest: open loop at this rate.
constexpr double kQueryRate = 2000;
/// Point reads on the settled store after each file_bulk and cascade_paced
/// pass (closed loop, one client).
constexpr int64_t kFileBulkReads = 5000;
constexpr int64_t kCascadeReads = 10000;
/// Generator tick of the paced open loop: 10 records per tick at 10k/s.
constexpr int64_t kGeneratorTickNs = 1'000'000;
/// Length of one cascade_paced pass (shorter when `--seconds` cannot hold
/// kMinPasses of them).
constexpr double kCascadePassSeconds = 2;
/// A pass that has not stored every record this long after its window
/// opened is failed (keeps a broken program inside the run's time limit).
constexpr int64_t kStoreTimeoutNs = 60'000'000'000;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t deadline_ns) {
  int64_t delta = deadline_ns - NowNs();
  if (delta > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(delta));
}

/// Lets a benchmark thread (generator, poller, query client) sleep in
/// short steps: the default 50 µs timer slack would stretch each sleep.
void FineTimerSlack() { prctl(PR_SET_TIMERSLACK, 1000UL); }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

int64_t RssBytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  long long size_pages = 0, resident_pages = 0;
  int fields = std::fscanf(statm, "%lld %lld", &size_pages, &resident_pages);
  std::fclose(statm);
  return fields == 2 ? resident_pages * sysconf(_SC_PAGESIZE) : 0;
}

/// Fails the run on an API error. Exits at once: a generator or query
/// thread may still be running.
void Check(const common::Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "bench_e2e: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::fflush(nullptr);
  std::_Exit(2);
}

/// Nearest-rank percentile of `values` (sorted in place), in ms.
double PercentileMs(std::vector<int64_t>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  size_t rank = static_cast<size_t>(std::ceil(q * values->size()));
  rank = std::clamp<size_t>(rank, 1, values->size());
  return static_cast<double>((*values)[rank - 1]) / 1e6;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

storage::DatasetDef TweetDataset(const std::string& name) {
  storage::DatasetDef def;
  def.name = name;
  def.datatype = "Tweet";
  def.primary_key_field = "id";
  return def;
}

std::unique_ptr<AsterixInstance> NewInstance(const std::string& root) {
  asterix::InstanceOptions options;
  options.num_nodes = kNodes;
  options.storage_root = root;
  // Loaded 4-core hosts can starve a heartbeat thread for a few hundred
  // ms; failure detection is not under test here.
  options.heartbeat_timeout_ms = 2000;
  auto db = std::make_unique<AsterixInstance>(options);
  Check(db->Start(), "Start");
  return db;
}

void WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::binary);
  for (const std::string& line : lines) out << line << '\n';
  if (!out) {
    std::fprintf(stderr, "bench_e2e: cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

// --- polling the stored counters -----------------------------------------

/// Store progress of one pass: per target connection, the (poll time,
/// records_stored) steps at which the counter moved.
struct StoreTrace {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> steps;
  int64_t polls = 0;
  int64_t first_poll_ns = 0;
  int64_t end_ns = 0;  // the poll that saw the last record stored
  int64_t peak_rss = 0;
  bool complete = false;
};

/// Polls every target until each has stored `expected` records or the
/// deadline passes. `confirm` (optional) is asked once the counters reach
/// `expected`; while it says no, polling goes on. `on_poll` (optional) sees
/// each poll's time and counts.
StoreTrace PollStores(
    const std::vector<std::shared_ptr<feeds::ConnectionMetrics>>& targets,
    int64_t expected, int64_t deadline_ns,
    const std::function<bool()>& confirm = nullptr,
    const std::function<void(int64_t, const std::vector<int64_t>&)>& on_poll =
        nullptr) {
  FineTimerSlack();
  StoreTrace trace;
  trace.steps.resize(targets.size());
  std::vector<int64_t> last(targets.size(), 0);
  trace.first_poll_ns = NowNs();
  while (true) {
    const int64_t now = NowNs();
    bool done = true;
    for (size_t j = 0; j < targets.size(); ++j) {
      int64_t stored = targets[j]->records_stored.load(std::memory_order_acquire);
      if (stored != last[j]) {
        trace.steps[j].emplace_back(now, stored);
        last[j] = stored;
      }
      if (stored < expected) done = false;
    }
    if (trace.polls++ % 16 == 0) {
      trace.peak_rss = std::max(trace.peak_rss, RssBytes());
    }
    if (on_poll) on_poll(now, last);
    if (done && (!confirm || confirm())) {
      trace.end_ns = NowNs();
      trace.complete = true;
      break;
    }
    if (now > deadline_ns) {
      trace.end_ns = now;
      break;
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(kPollSleepNs));
  }
  trace.peak_rss = std::max(trace.peak_rss, RssBytes());
  return trace;
}

/// Virtual FIFO: the k-th record stored on a connection is paired with
/// the k-th record sent, whose scheduled send time is `sched(k)`. Records
/// before `first` (a warm-up) are not sampled.
void AppendStoreLatencies(const std::vector<std::pair<int64_t, int64_t>>& steps,
                          int64_t first, int64_t expected,
                          const std::function<int64_t(int64_t)>& sched,
                          std::vector<int64_t>* out) {
  int64_t prev = 0;
  for (const auto& [at_ns, stored] : steps) {
    for (int64_t k = std::max(prev, first); k < std::min(stored, expected); ++k) {
      out->push_back(at_ns - sched(k));
    }
    prev = std::max(prev, std::min(stored, expected));
  }
}

// --- point reads ----------------------------------------------------------

struct QueryStats {
  std::vector<int64_t> latency_ns;  // from each query's scheduled time
  int64_t issued = 0;
  int64_t failed = 0;
  int64_t late_max_ns = 0;
};

/// GetRecord client on keys drawn from `keys` with a seeded generator.
/// Open loop (`rate` > 0): query q is due at start + q / rate; a query sent
/// on time counts from its actual send (the client's own wake-up jitter is
/// not the program's), one that waited behind a slow predecessor counts
/// from its due time. Closed loop (`rate` == 0): back to back, each query
/// timed alone. Stops after `max_queries` or once `stop` is set.
QueryStats RunQueries(const AsterixInstance& db, const std::string& dataset,
                      const std::vector<std::string>& keys, double rate,
                      int64_t max_queries, uint64_t seed,
                      const std::atomic<bool>* stop) {
  FineTimerSlack();
  QueryStats stats;
  stats.latency_ns.reserve(static_cast<size_t>(std::min<int64_t>(max_queries, 1 << 20)));
  common::Rng rng(seed);
  const int64_t start_ns = NowNs();
  for (int64_t q = 0; q < max_queries; ++q) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    int64_t sent_ns = NowNs();
    if (rate > 0) {
      const int64_t due_ns =
          start_ns + static_cast<int64_t>(static_cast<double>(q) * 1e9 / rate);
      if (sent_ns < due_ns) {
        SleepUntilNs(due_ns);
        sent_ns = NowNs();
      } else {
        stats.late_max_ns = std::max(stats.late_max_ns, sent_ns - due_ns);
        sent_ns = due_ns;
      }
    }
    const std::string& key =
        keys[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(keys.size()) - 1))];
    auto record = db.GetRecord(dataset, Value::String(key));
    const int64_t done_ns = NowNs();
    const Value* id = record.ok() ? record->GetField("id") : nullptr;
    if (id == nullptr || id->tag() != adm::TypeTag::kString ||
        id->AsString() != key) {
      ++stats.failed;
    }
    stats.latency_ns.push_back(done_ns - sent_ns);
    ++stats.issued;
  }
  return stats;
}

/// Waits until every partition of `dataset` has finished its background
/// flushes and merges, so reads after a pass see a settled store.
void SettleStorage(AsterixInstance* db, const std::string& dataset) {
  auto entry = db->datasets().Find(dataset);
  Check(entry.status(), "DatasetCatalog::Find");
  for (const std::string& node_id : entry->nodegroup) {
    asterix::hyracks::NodeController* node = db->cluster().GetNode(node_id);
    if (node == nullptr) continue;
    if (auto* partition = node->storage().GetPartition(dataset)) partition->primary().Drain();
  }
}

// --- correctness ----------------------------------------------------------

struct Verdict {
  int64_t distinct_stored = 0;  // expected ids found
  int64_t failures = 0;         // missing + extra + malformed
};

/// Scans `dataset` and compares its id set with `expected` (both missing
/// and extra ids count), checking each record with `shape_ok`.
Verdict VerifyDataset(const AsterixInstance& db, const std::string& dataset,
                      const std::unordered_set<std::string>& expected,
                      const std::function<bool(const Value&)>& shape_ok) {
  std::unordered_set<std::string> seen;
  seen.reserve(expected.size());
  int64_t extra = 0, malformed = 0;
  Check(db.ScanDataset(dataset,
                       [&](const Value& record) {
                         const Value* id = record.GetField("id");
                         if (id == nullptr || id->tag() != adm::TypeTag::kString ||
                             expected.count(id->AsString()) == 0) {
                           ++extra;
                           return;
                         }
                         seen.insert(id->AsString());
                         if (shape_ok && !shape_ok(record)) ++malformed;
                       }),
        "ScanDataset " + dataset);
  Verdict verdict;
  verdict.distinct_stored = static_cast<int64_t>(seen.size());
  const int64_t missing =
      static_cast<int64_t>(expected.size()) - verdict.distinct_stored;
  verdict.failures = missing + extra + malformed;
  if (verdict.failures > 0) {
    std::printf("  verify %s: %lld missing, %lld extra, %lld malformed\n",
                dataset.c_str(), static_cast<long long>(missing),
                static_cast<long long>(extra), static_cast<long long>(malformed));
  }
  return verdict;
}

bool HasTopics(const Value& record) {
  const Value* topics = record.GetField("topics");
  return topics != nullptr && topics->is_list();
}

bool HasSentiment(const Value& record) {
  const Value* sentiment = record.GetField("sentiment");
  return HasTopics(record) && sentiment != nullptr &&
         sentiment->tag() == adm::TypeTag::kDouble;
}

bool HasPoint(const Value& record) {
  const Value* location = record.GetField("location");
  return location != nullptr && location->tag() == adm::TypeTag::kPoint;
}

// --- per-pass bookkeeping -------------------------------------------------

/// Program-side counters accumulated over a run's timed windows.
struct Counters {
  int64_t frames_overflowed = 0;
  int64_t frames_spilled = 0;
  int64_t intake_peak_pending_bytes = 0;
  int64_t records_replayed = 0;
  int64_t soft_failures = 0;
  int64_t pump_frames = 0;
  int64_t pump_wakeups = 0;
  int64_t lsm_flushes = 0;
  int64_t lsm_merges = 0;
  int64_t wal_syncs = 0;
  int64_t mempool_exhausted = 0;
  int64_t mempool_overdraft = 0;
  std::array<int64_t, common::Histogram::kBuckets> flush_us_buckets{};
  int64_t generator_late_max_ns = 0;
  int64_t backlog_at_gen_end = 0;
};

int64_t SumCounters(const common::MetricsSnapshot& snap, const std::string& name) {
  int64_t total = 0;
  for (const auto& [key, value] : snap.counters) {
    if (key == name || key.rfind(name + "{", 0) == 0) total += value;
  }
  return total;
}

/// Adds the registry deltas between two snapshots around a timed window.
void AddRegistryDeltas(const common::MetricsSnapshot& before,
                       const common::MetricsSnapshot& after, Counters* c) {
  auto delta = [&](const std::string& name) {
    return SumCounters(after, name) - SumCounters(before, name);
  };
  c->pump_frames += delta("hyracks_task_pump_frames_total");
  c->pump_wakeups += delta("hyracks_task_pump_wakeups_total");
  c->lsm_flushes += delta("lsm_flushes_total");
  c->lsm_merges += delta("lsm_merges_total");
  c->wal_syncs += delta("wal_syncs_total");
  c->mempool_exhausted += delta("common_mempool_exhausted_total");
  c->mempool_overdraft += delta("common_mempool_overdraft_total");
  const common::HistogramSnapshot* h1 = after.Histogram("lsm_flush_duration_us");
  const common::HistogramSnapshot* h0 = before.Histogram("lsm_flush_duration_us");
  for (int i = 0; h1 != nullptr && i < common::Histogram::kBuckets; ++i) {
    c->flush_us_buckets[i] += h1->buckets[i] - (h0 != nullptr ? h0->buckets[i] : 0);
  }
}

/// Reads a connection's intake-queue stats and failure counters; call
/// before disconnecting.
void AddConnectionCounters(const AsterixInstance& db, const std::string& feed,
                           const std::string& dataset, Counters* c) {
  auto metrics = db.FeedMetrics(feed, dataset);
  if (metrics == nullptr) return;
  for (const auto& queue : metrics->IntakeQueues()) {
    feeds::SubscriberStats stats = queue->stats();
    c->frames_overflowed += stats.frames_overflowed;
    c->frames_spilled += stats.frames_spilled;
    c->intake_peak_pending_bytes =
        std::max(c->intake_peak_pending_bytes, stats.peak_pending_bytes);
  }
  c->records_replayed += metrics->records_replayed.load();
  c->soft_failures += metrics->soft_failures.load();
}

struct PassResult {
  double window_s = 0;           // ConnectFeed call -> last record stored
  int64_t distinct_stored = 0;   // feed records stored, all targets
  double cpu_s = 0;
  int64_t rss_start = 0;  // resident bytes when the window opened
  int64_t rss_peak = 0;   // and at its peak
  std::vector<int64_t> store_latency_ns;
  QueryStats queries;
  int64_t attempted = 0;
  int64_t failed = 0;
  double poll_period_us = 0;
};

/// Timed-window measurements common to every workload.
struct Window {
  int64_t connect_ns = 0;
  double cpu0 = 0;
  int64_t rss0 = 0;
  common::MetricsSnapshot before;

  void Open() {
    before = AsterixInstance::SnapshotMetrics();
    rss0 = RssBytes();
    cpu0 = CpuSeconds();
    connect_ns = NowNs();
  }
  void Close(const StoreTrace& trace, PassResult* pass, Counters* counters) {
    pass->cpu_s = CpuSeconds() - cpu0;
    pass->window_s = static_cast<double>(trace.end_ns - connect_ns) / 1e9;
    pass->rss_start = rss0;
    pass->rss_peak = std::max(rss0, trace.peak_rss);
    pass->poll_period_us = trace.polls > 1
                               ? static_cast<double>(trace.end_ns - trace.first_poll_ns) /
                                     static_cast<double>(trace.polls - 1) / 1e3
                               : 0;
    AddRegistryDeltas(before, AsterixInstance::SnapshotMetrics(), counters);
  }
};

void Disconnect(AsterixInstance* db, const std::string& feed,
                const std::string& dataset) {
  common::Status status = db->DisconnectFeed(feed, dataset);
  // A finite feed that already drained has no connection left to drop.
  if (!status.ok() && !status.IsNotFound()) {
    Check(status, "DisconnectFeed " + feed);
  }
}

// --- workloads --------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the seeded input; not timed.
  virtual void Generate() = 0;
  /// Untimed preparation of one pass (e.g. copying preload records).
  virtual void Prepare() {}
  /// DDL and preload on a started instance; timed as part of setup_s.
  virtual void Setup(AsterixInstance* db) = 0;
  /// Timed window, queries and verification. Leaves the feeds
  /// disconnected.
  virtual PassResult Run(AsterixInstance* db, Counters* counters) = 0;
  /// Undoes process-wide registrations made by Setup.
  virtual void Teardown() {}
};

/// file_bulk: the Table 5.1 file_based_feed path at saturation.
class FileBulk : public Workload {
 public:
  explicit FileBulk(const Options& options) : options_(options) {}

  void Generate() override {
    TweetInput input = MakeTweets(0, options_.seed, FileBulkRecords(options_.scale));
    path_ = options_.work_dir + "/file_bulk.adm";
    WriteLines(path_, input.texts);
    ids_ = std::move(input.ids);
    expected_.insert(ids_.begin(), ids_.end());
  }

  void Setup(AsterixInstance* db) override {
    Check(db->CreateDataset(TweetDataset("Tweets")), "CreateDataset");
    feeds::FeedDef feed;
    feed.name = "BulkFeed";
    feed.adaptor_alias = "file_based_feed";
    feed.adaptor_config = {{"path", path_}, {"format", "adm"}};
    Check(db->CreateFeed(feed), "CreateFeed");
  }

  PassResult Run(AsterixInstance* db, Counters* counters) override {
    PassResult pass;
    const int64_t n = static_cast<int64_t>(ids_.size());
    Window window;
    window.Open();
    Check(db->ConnectFeed("BulkFeed", "Tweets", "Basic"), "ConnectFeed");
    StoreTrace trace = PollStores({db->FeedMetrics("BulkFeed", "Tweets")}, n,
                                  window.connect_ns + kStoreTimeoutNs);
    window.Close(trace, &pass, counters);
    // Every record of a file is due when the feed is connected.
    AppendStoreLatencies(trace.steps[0], 0, n,
                         [&](int64_t) { return window.connect_ns; },
                         &pass.store_latency_ns);
    AddConnectionCounters(*db, "BulkFeed", "Tweets", counters);
    if (auto head = db->feed_manager().GetHeadMetrics("BulkFeed")) {
      counters->soft_failures += head->soft_failures.load();
    }
    Disconnect(db, "BulkFeed", "Tweets");
    SettleStorage(db, "Tweets");
    pass.queries = RunQueries(*db, "Tweets", ids_, 0, kFileBulkReads, options_.seed + 7, nullptr);
    Verdict verdict = VerifyDataset(*db, "Tweets", expected_, nullptr);
    pass.distinct_stored = verdict.distinct_stored;
    pass.attempted = n + pass.queries.issued;
    pass.failed = verdict.failures + pass.queries.failed + (trace.complete ? 0 : 1);
    return pass;
  }

 private:
  const Options options_;
  std::string path_;
  std::vector<std::string> ids_;
  std::unordered_set<std::string> expected_;
};

/// cascade_paced: one paced source shared by a three-feed cascade.
class CascadePaced : public Workload {
 public:
  static constexpr const char* kAddress = "bench-e2e-source:9000";
  static constexpr const char* kFeeds[3] = {"TwitterFeed", "ProcessedTwitterFeed",
                                            "SentimentFeed"};
  static constexpr const char* kDatasets[3] = {"Tweets", "ProcessedTweets",
                                               "TwitterSentiments"};

  explicit CascadePaced(const Options& options) : options_(options) {}

  void Generate() override {
    rate_ = CascadeRate(options_.scale);
    const double pass_seconds =
        std::min(kCascadePassSeconds, options_.seconds / static_cast<double>(kMinPasses));
    input_ = MakeTweets(0, options_.seed,
                        static_cast<int64_t>(static_cast<double>(rate_) * pass_seconds));
    expected_.insert(input_.ids.begin(), input_.ids.end());
  }

  void Setup(AsterixInstance* db) override {
    channel_ = std::make_unique<asterix::gen::Channel>();
    feeds::ExternalSourceRegistry::Instance().RegisterChannel(kAddress, channel_.get());
    for (const char* dataset : kDatasets) {
      Check(db->CreateDataset(TweetDataset(dataset)), "CreateDataset");
    }
    Check(db->InstallUdf(feeds::AqlUdf::ExtractHashtags("addHashTags")), "InstallUdf");
    Check(db->InstallUdf(SentimentUdf()), "InstallUdf");
    feeds::FeedDef raw;
    raw.name = kFeeds[0];
    raw.adaptor_alias = "socket_adaptor";
    raw.adaptor_config = {{"sockets", kAddress}};
    Check(db->CreateFeed(raw), "CreateFeed");
    feeds::FeedDef processed;
    processed.name = kFeeds[1];
    processed.is_primary = false;
    processed.parent_feed = kFeeds[0];
    processed.udf = "addHashTags";
    Check(db->CreateFeed(processed), "CreateFeed");
    feeds::FeedDef sentiment;
    sentiment.name = kFeeds[2];
    sentiment.is_primary = false;
    sentiment.parent_feed = kFeeds[1];
    sentiment.udf = "tweetlib#sentimentAnalysis";
    Check(db->CreateFeed(sentiment), "CreateFeed");
  }

  void Teardown() override {
    feeds::ExternalSourceRegistry::Instance().UnregisterChannel(kAddress);
    channel_.reset();
  }

  PassResult Run(AsterixInstance* db, Counters* counters) override {
    PassResult pass;
    const int64_t n = static_cast<int64_t>(input_.texts.size());
    const double period_ns = 1e9 / static_cast<double>(rate_);
    Window window;
    window.Open();
    std::vector<std::shared_ptr<feeds::ConnectionMetrics>> targets;
    for (int i = 0; i < 3; ++i) {
      Check(db->ConnectFeed(kFeeds[i], kDatasets[i], "Spill"), "ConnectFeed");
      targets.push_back(db->FeedMetrics(kFeeds[i], kDatasets[i]));
    }

    // Generator thread: a paced source that, at every tick, sends the
    // records that fell due since the previous tick. A record's scheduled
    // send time is the tick that carries it.
    const int64_t start_ns = NowNs();
    auto sched = [&](int64_t k) {
      const double due_ns = static_cast<double>(k) * period_ns;
      return start_ns + static_cast<int64_t>(std::ceil(due_ns / kGeneratorTickNs)) *
                            kGeneratorTickNs;
    };
    std::atomic<bool> generator_done{false};
    int64_t late_max_ns = 0;
    std::thread generator([&] {
      FineTimerSlack();
      int64_t sent = 0;
      for (int64_t tick = start_ns; sent < n; tick += kGeneratorTickNs) {
        SleepUntilNs(tick);
        late_max_ns = std::max(late_max_ns, NowNs() - tick);
        while (sent < n && sched(sent) <= tick) {
          channel_->Send(input_.texts[static_cast<size_t>(sent)]);
          ++sent;
        }
      }
      channel_->CloseSender();
      generator_done.store(true);
    });

    bool backlog_taken = false;
    StoreTrace trace = PollStores(
        targets, n, sched(n) + kStoreTimeoutNs, nullptr,
        [&](int64_t, const std::vector<int64_t>& stored) {
          if (backlog_taken || !generator_done.load()) return;
          backlog_taken = true;
          int64_t backlog = 3 * n;
          for (int64_t s : stored) backlog -= std::min(s, n);
          counters->backlog_at_gen_end = std::max(counters->backlog_at_gen_end, backlog);
        });
    window.Close(trace, &pass, counters);
    generator.join();
    counters->generator_late_max_ns = std::max(counters->generator_late_max_ns, late_max_ns);
    // The first second (at most a tenth of the pass) warms the pipeline up:
    // deferred adaptor creation, job start-up, first-touch memory.
    const int64_t warmup = std::min(rate_, n / 10);
    for (const auto& steps : trace.steps) {
      AppendStoreLatencies(steps, warmup, n, sched, &pass.store_latency_ns);
    }
    for (int i = 0; i < 3; ++i) AddConnectionCounters(*db, kFeeds[i], kDatasets[i], counters);
    if (auto head = db->feed_manager().GetHeadMetrics(kFeeds[0])) {
      counters->soft_failures += head->soft_failures.load();
    }

    for (int i = 2; i >= 0; --i) Disconnect(db, kFeeds[i], kDatasets[i]);
    for (const char* dataset : kDatasets) SettleStorage(db, dataset);
    pass.queries =
        RunQueries(*db, kDatasets[2], input_.ids, 0, kCascadeReads, options_.seed + 7, nullptr);
    const std::function<bool(const Value&)> shapes[3] = {nullptr, HasTopics, HasSentiment};
    pass.attempted = 3 * n + pass.queries.issued;
    pass.failed = pass.queries.failed + (trace.complete ? 0 : 1);
    for (int i = 0; i < 3; ++i) {
      Verdict verdict = VerifyDataset(*db, kDatasets[i], expected_, shapes[i]);
      pass.distinct_stored += verdict.distinct_stored;
      pass.failed += verdict.failures;
    }
    return pass;
  }

 private:
  const Options options_;
  int64_t rate_ = 0;
  TweetInput input_;
  std::unordered_set<std::string> expected_;
  std::unique_ptr<asterix::gen::Channel> channel_;
};

/// geo_mixed: durable, indexed, at-least-once ingest beside point reads.
class GeoMixed : public Workload {
 public:
  explicit GeoMixed(const Options& options) : options_(options) {}

  void Generate() override {
    TweetInput feed = MakeTweets(0, options_.seed, GeoFeedRecords(options_.scale));
    path_ = options_.work_dir + "/geo_mixed.adm";
    WriteLines(path_, feed.texts);
    feed_ids_ = std::move(feed.ids);
    TweetInput preload = MakeTweets(1, options_.seed, GeoPreloadRecords(options_.scale));
    auto to_point = ToPointUdf();
    for (const std::string& text : preload.texts) {
      auto record = adm::ParseAdm(text);
      Check(record.status(), "ParseAdm");
      preload_.push_back(*to_point->Apply(*record));
    }
    preload_ids_ = std::move(preload.ids);
    expected_.insert(feed_ids_.begin(), feed_ids_.end());
    expected_.insert(preload_ids_.begin(), preload_ids_.end());
  }

  void Prepare() override {
    // InsertBatch consumes its records: copy the shared values untimed.
    batches_.clear();
    constexpr size_t kBatch = 10000;
    for (size_t i = 0; i < preload_.size(); i += kBatch) {
      batches_.emplace_back(preload_.begin() + static_cast<std::ptrdiff_t>(i),
                            preload_.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(preload_.size(), i + kBatch)));
    }
  }

  void Setup(AsterixInstance* db) override {
    storage::DatasetDef def = TweetDataset("GeoTweets");
    def.durable_writes = true;
    def.indexes = {{"locationIdx", "location", storage::IndexKind::kRTree},
                   {"countryIdx", "country", storage::IndexKind::kBTree}};
    Check(db->CreateDataset(def), "CreateDataset");
    Check(db->InstallUdf(ToPointUdf()), "InstallUdf");
    Check(db->CreatePolicy("FaultTolerantSpill", "FaultTolerant",
                           {{feeds::IngestionPolicy::kExcessRecordsSpill, "true"}}),
          "CreatePolicy");
    for (auto& batch : batches_) Check(db->InsertBatch("GeoTweets", std::move(batch)), "InsertBatch");
    batches_.clear();
    feeds::FeedDef feed;
    feed.name = "GeoFeed";
    feed.adaptor_alias = "file_based_feed";
    feed.adaptor_config = {{"path", path_}, {"format", "adm"}};
    feed.udf = "latLongToPoint";
    Check(db->CreateFeed(feed), "CreateFeed");
  }

  PassResult Run(AsterixInstance* db, Counters* counters) override {
    PassResult pass;
    const int64_t n = static_cast<int64_t>(feed_ids_.size());
    Window window;
    window.Open();
    std::atomic<bool> stop_queries{false};
    std::thread client([&] {
      pass.queries = RunQueries(*db, "GeoTweets", preload_ids_, kQueryRate, INT64_MAX,
                                options_.seed + 7, &stop_queries);
    });
    Check(db->ConnectFeed("GeoFeed", "GeoTweets", "FaultTolerantSpill"), "ConnectFeed");
    auto metrics = db->FeedMetrics("GeoFeed", "GeoTweets");
    // records_stored counts every Insert, replays included. Before the
    // first replay it counts distinct records; after one, the window ends
    // only once the dataset itself holds every record.
    const int64_t total = n + static_cast<int64_t>(preload_ids_.size());
    auto all_stored = [&] {
      if (metrics->records_replayed.load() == 0) return true;
      auto count = db->CountDataset("GeoTweets");
      return count.ok() && *count >= total;
    };
    StoreTrace trace =
        PollStores({metrics}, n, window.connect_ns + kStoreTimeoutNs, all_stored);
    stop_queries.store(true);
    client.join();
    window.Close(trace, &pass, counters);
    AppendStoreLatencies(trace.steps[0], 0, n,
                         [&](int64_t) { return window.connect_ns; },
                         &pass.store_latency_ns);
    counters->generator_late_max_ns =
        std::max(counters->generator_late_max_ns, pass.queries.late_max_ns);
    AddConnectionCounters(*db, "GeoFeed", "GeoTweets", counters);
    if (auto head = db->feed_manager().GetHeadMetrics("GeoFeed")) {
      counters->soft_failures += head->soft_failures.load();
    }
    Disconnect(db, "GeoFeed", "GeoTweets");
    Verdict verdict = VerifyDataset(*db, "GeoTweets", expected_, HasPoint);
    pass.distinct_stored =
        verdict.distinct_stored - static_cast<int64_t>(preload_ids_.size());
    pass.attempted = n + static_cast<int64_t>(preload_ids_.size()) + pass.queries.issued;
    pass.failed = verdict.failures + pass.queries.failed + (trace.complete ? 0 : 1);
    return pass;
  }

 private:
  const Options options_;
  std::string path_;
  std::vector<std::string> feed_ids_;
  std::vector<std::string> preload_ids_;
  std::vector<Value> preload_;
  std::vector<std::vector<Value>> batches_;
  std::unordered_set<std::string> expected_;
};

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "file_bulk") return std::make_unique<FileBulk>(options);
  if (options.workload == "cascade_paced") return std::make_unique<CascadePaced>(options);
  if (options.workload == "geo_mixed") return std::make_unique<GeoMixed>(options);
  return nullptr;
}

}  // namespace

std::shared_ptr<feeds::Udf> SentimentUdf() {
  return std::make_shared<feeds::JavaUdf>(
      "tweetlib", "sentimentAnalysis",
      [](const Value& tweet) -> std::optional<Value> {
        Value out = tweet;
        out.SetField("sentiment", Value::Double(feeds::PseudoSentiment(
                                      tweet.GetField("message_text")->AsString())));
        return out;
      });
}

std::shared_ptr<feeds::AqlUdf> ToPointUdf() {
  return std::make_shared<feeds::AqlUdf>(
      "latLongToPoint",
      std::vector<feeds::AqlUdf::Step>{
          {feeds::AqlUdf::Step::Op::kLatLongToPoint,
           {"latitude", "longitude", "location"},
           Value::Null()}});
}

int64_t FileBulkRecords(double scale) { return static_cast<int64_t>(250'000 * scale); }
int64_t GeoFeedRecords(double scale) { return static_cast<int64_t>(200'000 * scale); }
int64_t GeoPreloadRecords(double scale) { return static_cast<int64_t>(100'000 * scale); }
int64_t CascadeRate(double scale) { return static_cast<int64_t>(10'000 * scale); }

TweetInput MakeTweets(int source_id, uint64_t seed, int64_t count) {
  asterix::gen::TweetFactory factory(source_id, seed);
  TweetInput input;
  input.ids.reserve(static_cast<size_t>(count));
  input.texts.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    Value tweet = factory.NextTweet();
    tweet.SetField("created_at", Value::String(std::to_string(1'400'000'000'000 + i * 37)));
    input.ids.push_back(tweet.GetField("id")->AsString());
    input.texts.push_back(tweet.ToAdmString());
  }
  return input;
}

RunResult RunWorkload(const Options& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n", options.workload.c_str());
    std::exit(2);
  }
  if (options.traced) feeds::Tracer::Instance().SetSamplingRate(0.01);
  workload->Generate();
  // Write the generated input back to disk now, so the kernel's delayed
  // writeback of it cannot land inside a timed window.
  if (int fd = open(options.work_dir.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
    syncfs(fd);
    close(fd);
  }

  std::vector<double> setups;
  std::vector<PassResult> passes;
  Counters counters;
  double window_total_s = 0;
  auto cycle = [&](bool run_pass) {
    const std::string root =
        options.work_dir + "/instance" + std::to_string(setups.size());
    workload->Prepare();
    const int64_t t0 = NowNs();
    auto db = NewInstance(root);
    workload->Setup(db.get());
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (run_pass) {
      passes.push_back(workload->Run(db.get(), &counters));
      window_total_s += passes.back().window_s;
    }
    db.reset();
    workload->Teardown();
    std::filesystem::remove_all(root);
    malloc_trim(0);
  };
  // Passes repeat until their timed windows fill the run's seconds (at
  // least kMinPasses); the traced binary measures one pass.
  const size_t min_passes = options.traced ? 1 : kMinPasses;
  do {
    cycle(true);
    PassResult& pass = passes.back();
    std::printf("  pass %zu: setup %.3f s, window %.3f s, latency p50/p99 %.3f/%.3f ms, "
                "rss +%.1f MB, %lld records stored, %lld/%lld failed\n",
                passes.size(), setups.back(), pass.window_s,
                PercentileMs(&pass.store_latency_ns, 0.50),
                PercentileMs(&pass.store_latency_ns, 0.99),
                static_cast<double>(pass.rss_peak - pass.rss_start) / (1 << 20),
                static_cast<long long>(pass.distinct_stored),
                static_cast<long long>(pass.failed),
                static_cast<long long>(pass.attempted));
    std::fflush(stdout);
    if (pass.failed > 0) break;
  } while (passes.size() < min_passes ||
           (!options.traced && window_total_s < options.seconds));
  while (setups.size() < kMinSetups) cycle(false);

  RunResult result;
  std::vector<double> rate, cpu, poll, latency_p50, latency_p99;
  std::vector<int64_t> query_latency;
  int64_t latency_samples = 0;
  for (PassResult& pass : passes) {
    result.attempted += pass.attempted;
    result.failed += pass.failed;
    rate.push_back(static_cast<double>(pass.distinct_stored) / pass.window_s);
    latency_samples += static_cast<int64_t>(pass.store_latency_ns.size());
    latency_p50.push_back(PercentileMs(&pass.store_latency_ns, 0.50));
    latency_p99.push_back(PercentileMs(&pass.store_latency_ns, 0.99));
    query_latency.insert(query_latency.end(), pass.queries.latency_ns.begin(),
                         pass.queries.latency_ns.end());
    cpu.push_back(pass.cpu_s * 1e6 / static_cast<double>(std::max<int64_t>(1, pass.distinct_stored)));
    poll.push_back(pass.poll_period_us);
  }
  result.failed += counters.soft_failures;
  if (result.failed > 0) {
    std::printf("  %lld soft failures, %lld memory-pool refusals, %lld replayed records\n",
                static_cast<long long>(counters.soft_failures),
                static_cast<long long>(counters.mempool_exhausted),
                static_cast<long long>(counters.records_replayed));
  }
  result.e2e["records_per_s"] = {Median(rate), "1/s"};
  // Store latency: median of the passes' percentiles, so one pass hit by a
  // host stall does not set the run's tail. Query latency pools every
  // pass's samples (geo_mixed has a few dozen tail samples per pass).
  result.e2e["latency_p50_ms"] = {Median(latency_p50), "ms"};
  result.e2e["latency_p99_ms"] = {Median(latency_p99), "ms"};
  result.e2e["query_p50_ms"] = {PercentileMs(&query_latency, 0.50), "ms"};
  result.e2e["query_p99_ms"] = {PercentileMs(&query_latency, 0.99), "ms"};
  result.e2e["cpu_us_per_record"] = {Median(cpu), "us"};
  // Memory growth of the first pass: later passes start on memory the
  // allocator kept from earlier ones, so their growth depends on its reuse.
  result.e2e["rss_growth_mb"] = {
      static_cast<double>(passes.front().rss_peak - passes.front().rss_start) / (1 << 20),
      "MB"};
  result.e2e["setup_s"] = {Median(setups), "s"};

  const double n_passes = static_cast<double>(passes.size());
  auto per_pass = [&](int64_t v) { return static_cast<double>(v) / n_passes; };
  common::HistogramSnapshot flush;
  for (int i = 0; i < common::Histogram::kBuckets; ++i) {
    flush.buckets[i] = counters.flush_us_buckets[i];
    flush.count += counters.flush_us_buckets[i];
  }
  flush.max = INT64_MAX;
  MetricMap& c = result.counts;
  c["hyracks.pump_frames_per_wakeup"] = {
      counters.pump_wakeups > 0 ? static_cast<double>(counters.pump_frames) /
                                      static_cast<double>(counters.pump_wakeups)
                                : 0,
      "frames/wakeup"};
  c["feeds.frames_overflowed"] = {per_pass(counters.frames_overflowed), "frames"};
  c["feeds.frames_spilled"] = {per_pass(counters.frames_spilled), "frames"};
  c["feeds.intake_peak_pending_bytes"] = {static_cast<double>(counters.intake_peak_pending_bytes), "bytes"};
  c["feeds.records_replayed"] = {per_pass(counters.records_replayed), "records"};
  c["feeds.soft_failures"] = {per_pass(counters.soft_failures), "records"};
  c["storage.lsm_flushes"] = {per_pass(counters.lsm_flushes), "count"};
  c["storage.lsm_merges"] = {per_pass(counters.lsm_merges), "count"};
  c["storage.lsm_flush_p50_us"] = {static_cast<double>(flush.Quantile(0.5)), "us"};
  c["storage.wal_syncs"] = {per_pass(counters.wal_syncs), "count"};
  c["common.mempool_exhausted"] = {per_pass(counters.mempool_exhausted), "count"};
  c["common.mempool_overdraft"] = {per_pass(counters.mempool_overdraft), "count"};
  c["bench.generator_late_max_ms"] = {static_cast<double>(counters.generator_late_max_ns) / 1e6, "ms"};
  c["bench.backlog_at_gen_end_records"] = {static_cast<double>(counters.backlog_at_gen_end), "records"};
  c["bench.cpu_us_per_record"] = result.e2e["cpu_us_per_record"];
  // The first pass starts cold, as the traced binary's single pass does.
  c["bench.first_pass_cpu_us_per_record"] = {cpu.front(), "us"};
  c["bench.poll_period_us"] = {Median(poll), "us"};
  c["bench.latency_samples"] = {static_cast<double>(latency_samples), "samples"};
  c["bench.passes"] = {n_passes, "passes"};
  c["bench.query_samples"] = {static_cast<double>(query_latency.size()), "samples"};
  if (options.traced) {
    common::MetricsSnapshot snap = AsterixInstance::SnapshotMetrics();
    for (const char* stage : {"source", "queue", "intake", "assign0", "store"}) {
      const common::HistogramSnapshot* h =
          snap.Histogram("feed_stage_latency_us", {{"stage", stage}});
      c[std::string("feeds.stage_p50_us.") + stage] = {
          h != nullptr ? static_cast<double>(h->Quantile(0.5)) : 0, "us"};
    }
    feeds::Tracer::Instance().SetSamplingRate(0);
  }
  return result;
}

}  // namespace bench_e2e
