// Per-layer replay: the workload's own seeded input, run through the public
// call of each layer on one thread, timed from the benchmark's side of the
// call. Each replay runs kRepeats times on fresh objects; the median is
// reported as ns/record (and allocs/record where the interposer is linked).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adm/parser.h"
#include "bench_e2e.h"
#include "common/rng.h"
#include "feeds/ack.h"
#include "feeds/joint.h"
#include "feeds/subscriber.h"
#include "hyracks/frame.h"
#include "hyracks/frame_pool.h"
#include "storage/dataset.h"
#include "storage/key.h"
#include "storage/lsm_index.h"
#include "storage/secondary_index.h"
#include "storage/wal.h"

namespace bench_e2e {
namespace {

using asterix::adm::Value;
namespace common = asterix::common;
namespace feeds = asterix::feeds;
namespace hyracks = asterix::hyracks;
namespace storage = asterix::storage;

constexpr int kRepeats = 3;
constexpr size_t kFrameRecords = 128;  // the pipeline's default frame size

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Check(const common::Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "bench_e2e replay: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

struct Cost {
  double ns_per_record = 0;
  double allocs_per_record = 0;
};

/// Runs `body` kRepeats times. `setup` (untimed) builds fresh state before
/// each repeat; `body` processes `records` records. Median of the repeats.
Cost Measure(int64_t records, const std::function<void()>& setup,
             const std::function<void()>& body) {
  std::vector<double> ns, allocs;
  for (int r = 0; r < kRepeats; ++r) {
    if (setup) setup();
    const int64_t allocs0 = ThreadAllocCount();
    const int64_t t0 = NowNs();
    body();
    const int64_t t1 = NowNs();
    ns.push_back(static_cast<double>(t1 - t0) / static_cast<double>(records));
    allocs.push_back(static_cast<double>(ThreadAllocCount() - allocs0) /
                     static_cast<double>(records));
  }
  std::sort(ns.begin(), ns.end());
  std::sort(allocs.begin(), allocs.end());
  return {ns[kRepeats / 2], allocs[kRepeats / 2]};
}

/// Frame sink standing in for the downstream connector.
class DropWriter : public hyracks::IFrameWriter {
 public:
  common::Status NextFrame(const hyracks::FramePtr&) override {
    return common::Status::OK();
  }
};

storage::DatasetDef ReplayDataset(const Options& options) {
  storage::DatasetDef def;
  def.name = "Replay";
  def.datatype = "Tweet";
  def.primary_key_field = "id";
  if (options.workload == "geo_mixed") {
    def.durable_writes = true;
    def.indexes = {{"locationIdx", "location", storage::IndexKind::kRTree},
                   {"countryIdx", "country", storage::IndexKind::kBTree}};
  }
  return def;
}

}  // namespace

MetricMap ReplayLayers(const Options& options) {
  const int64_t n = std::max<int64_t>(500, static_cast<int64_t>(30'000 * options.scale));
  const bool geo = options.workload == "geo_mixed";
  const bool cascade = options.workload == "cascade_paced";
  TweetInput input = MakeTweets(0, options.seed, n);
  const std::string dir = options.work_dir + "/replay";
  std::filesystem::create_directories(dir);

  MetricMap m;
  auto put = [&](const std::string& name, double value, const std::string& unit) {
    m[name] = {value, unit};
  };

  // adm: parse (the collect step) and serialize (the WAL payload).
  std::vector<Value> parsed;
  Cost parse = Measure(
      n, [&] { parsed.clear(); parsed.reserve(static_cast<size_t>(n)); },
      [&] {
        for (const std::string& text : input.texts) {
          auto record = asterix::adm::ParseAdm(text);
          Check(record.status(), "ParseAdm");
          parsed.push_back(std::move(*record));
        }
      });
  put("adm.parse_ns_per_record", parse.ns_per_record, "ns");
  put("adm.parse_allocs_per_record", parse.allocs_per_record, "allocs");
  size_t text_bytes = 0;
  Cost serialize = Measure(n, [&] { text_bytes = 0; }, [&] {
    for (const Value& record : parsed) text_bytes += record.ToAdmString().size();
  });
  put("adm.serialize_ns_per_record", serialize.ns_per_record, "ns");

  // The geo dataset stores records with the UDF-derived point.
  auto to_point = ToPointUdf();
  std::vector<Value> pointed;
  for (const Value& record : parsed) pointed.push_back(*to_point->Apply(record));
  const std::vector<Value>& stored = geo ? pointed : parsed;

  // hyracks: frame building with the pooled appender.
  {
    DropWriter sink;
    hyracks::FramePool pool(nullptr);
    Cost append = Measure(n, nullptr, [&] {
      hyracks::FrameAppender appender(&sink, kFrameRecords, 32 * 1024, &pool);
      for (const Value& record : parsed) Check(appender.Append(record), "Append");
      Check(appender.FlushFrame(), "FlushFrame");
    });
    put("hyracks.frame_append_ns_per_record", append.ns_per_record, "ns");
  }

  // feeds: joint routing + subscriber drain, 1 and 3 subscribers.
  std::vector<hyracks::FramePtr> frames;
  for (size_t i = 0; i < parsed.size(); i += kFrameRecords) {
    frames.push_back(hyracks::MakeFrame(std::vector<Value>(
        parsed.begin() + static_cast<std::ptrdiff_t>(i),
        parsed.begin() + static_cast<std::ptrdiff_t>(std::min(parsed.size(), i + kFrameRecords)))));
  }
  std::map<int, double> joint_ns;
  for (int subscribers : {1, 3}) {
    std::unique_ptr<feeds::FeedJoint> joint;
    std::vector<std::shared_ptr<feeds::SubscriberQueue>> queues;
    std::vector<hyracks::FramePtr> drained;
    Cost deliver = Measure(
        n,
        [&] {
          joint = std::make_unique<feeds::FeedJoint>("replay");
          queues.clear();
          for (int s = 0; s < subscribers; ++s) {
            feeds::SubscriberOptions sub;
            sub.spill_dir = dir;
            sub.name = "replay" + std::to_string(s);
            queues.push_back(joint->Subscribe(sub));
          }
          drained.reserve(16);
        },
        [&] {
          for (const hyracks::FramePtr& frame : frames) {
            Check(joint->NextFrame(frame), "FeedJoint::NextFrame");
            for (const auto& queue : queues) {
              queue->NextBatchInto(&drained, 0);
              drained.clear();
            }
          }
        });
    joint_ns[subscribers] = deliver.ns_per_record;
    put("feeds.joint_deliver_ns_per_record.subs" + std::to_string(subscribers),
        deliver.ns_per_record, "ns");
  }

  // feeds: the UDFs of the cascade and of geo_mixed.
  auto time_udf = [&](feeds::Udf* udf) {
    return Measure(n, nullptr, [&] {
      for (const Value& record : parsed) {
        auto out = udf->Apply(record);
        if (!out.has_value()) std::exit(2);
      }
    }).ns_per_record;
  };
  auto hashtags = feeds::AqlUdf::ExtractHashtags("addHashTags");
  auto sentiment = SentimentUdf();
  const double udf_hashtags = time_udf(hashtags.get());
  const double udf_sentiment = time_udf(sentiment.get());
  const double udf_to_point = time_udf(to_point.get());
  put("feeds.udf_hashtags_ns_per_record", udf_hashtags, "ns");
  put("feeds.udf_sentiment_ns_per_record", udf_sentiment, "ns");
  put("feeds.udf_to_point_ns_per_record", udf_to_point, "ns");

  // feeds: store-side ack grouping, acks landing in an intake ledger.
  {
    auto bus = std::make_shared<feeds::AckBus>();
    std::unique_ptr<feeds::PendingTracker> ledger;
    std::unique_ptr<feeds::AckCollector> collector;
    Cost ack = Measure(
        n,
        [&] {
          ledger = std::make_unique<feeds::PendingTracker>(2000);
          for (int64_t i = 0; i < n; ++i) ledger->Track(feeds::MakeTrackingId(0, i), Value());
          feeds::PendingTracker* target = ledger.get();
          bus->Register("replay", 0, [target](const std::vector<int64_t>& tids) {
            target->Ack(tids);
          });
          collector = std::make_unique<feeds::AckCollector>(bus, "replay", 100);
        },
        [&] {
          for (int64_t i = 0; i < n; ++i) collector->OnPersisted(feeds::MakeTrackingId(0, i));
          collector->Flush();
        });
    put("feeds.ack_ns_per_record", ack.ns_per_record, "ns");
  }

  // storage: each step of DatasetPartition::Insert, then the whole insert.
  std::vector<std::string> keys;
  Cost encode = Measure(n, [&] { keys.clear(); }, [&] {
    for (const Value& record : stored) {
      auto key = storage::EncodeKey(*record.GetField("id"));
      Check(key.status(), "EncodeKey");
      keys.push_back(std::move(*key));
    }
  });
  put("storage.encode_key_ns_per_record", encode.ns_per_record, "ns");

  std::vector<std::string> payloads;
  for (const Value& record : stored) payloads.push_back(record.ToAdmString());
  {
    std::unique_ptr<storage::Wal> wal;
    int repeat = 0;
    Cost append = Measure(
        n,
        [&] {
          wal = std::make_unique<storage::Wal>(
              dir + "/replay" + std::to_string(repeat++) + ".wal", geo);
          Check(wal->Open(), "Wal::Open");
        },
        [&] {
          for (const std::string& payload : payloads) Check(wal->Append(payload), "Wal::Append");
        });
    const double bytes_per_record =
        static_cast<double>(wal->bytes_written()) / static_cast<double>(n);
    wal.reset();
    put("storage.wal_append_ns_per_record", append.ns_per_record, "ns");
    put("storage.wal_bytes_per_record", bytes_per_record, "bytes");
  }

  std::unique_ptr<storage::PartitionedLsmIndex> lsm;
  Cost lsm_insert = Measure(
      n, [&] { lsm = std::make_unique<storage::PartitionedLsmIndex>(); },
      [&] {
        for (size_t i = 0; i < stored.size(); ++i) Check(lsm->Insert(keys[i], stored[i]), "Lsm::Insert");
      });
  put("storage.lsm_insert_ns_per_record", lsm_insert.ns_per_record, "ns");
  {
    lsm->Drain();
    common::Rng rng(options.seed + 11);
    std::vector<size_t> probes;
    for (int64_t i = 0; i < n; ++i) probes.push_back(static_cast<size_t>(rng.Uniform(0, n - 1)));
    Cost get = Measure(n, nullptr, [&] {
      for (size_t probe : probes) {
        if (!lsm->Get(keys[probe]).has_value()) std::exit(2);
      }
    });
    put("storage.lsm_get_ns", get.ns_per_record, "ns");
    lsm.reset();
  }

  for (auto kind : {storage::IndexKind::kBTree, storage::IndexKind::kRTree}) {
    const bool btree = kind == storage::IndexKind::kBTree;
    std::unique_ptr<storage::SecondaryIndex> index;
    Cost insert = Measure(
        n,
        [&] {
          index = storage::MakeSecondaryIndex(kind, "replay",
                                              btree ? "country" : "location");
        },
        [&] {
          for (size_t i = 0; i < pointed.size(); ++i) {
            Check(index->Insert(pointed[i], keys[i]), "SecondaryIndex::Insert");
          }
        });
    put(std::string("storage.secondary_insert_ns_per_record.") + (btree ? "btree" : "rtree"),
        insert.ns_per_record, "ns");
  }

  double dataset_ns = 0;
  {
    std::unique_ptr<storage::DatasetPartition> partition;
    int repeat = 0;
    Cost insert = Measure(
        n,
        [&] {
          partition.reset();
          partition = std::make_unique<storage::DatasetPartition>(
              ReplayDataset(options), repeat++, dir, nullptr);
          Check(partition->Open(), "DatasetPartition::Open");
        },
        [&] {
          for (const Value& record : stored) Check(partition->Insert(record), "Insert");
        });
    partition.reset();
    dataset_ns = insert.ns_per_record;
    put("storage.dataset_insert_ns_per_record", insert.ns_per_record, "ns");
    put("storage.dataset_insert_allocs_per_record", insert.allocs_per_record, "allocs");
  }

  // Replayed CPU per stored record on this workload's path: the collect
  // parse, one appender per re-batching stage, joint routing, the UDFs,
  // the inserts and (geo_mixed) the acks, divided by the stores a source
  // record makes.
  const double append_ns = m["hyracks.frame_append_ns_per_record"].value;
  double per_source = 0;
  double stores = 1;
  if (cascade) {
    per_source = parse.ns_per_record + 3 * append_ns + joint_ns[3] + udf_hashtags +
                 udf_sentiment + 3 * dataset_ns;
    stores = 3;
  } else if (geo) {
    per_source = parse.ns_per_record + 2 * append_ns + joint_ns[1] + udf_to_point +
                 dataset_ns + m["feeds.ack_ns_per_record"].value;
  } else {
    per_source = parse.ns_per_record + append_ns + joint_ns[1] + dataset_ns;
  }
  put("trace.layer_ns_per_record", per_source / stores, "ns");
  std::filesystem::remove_all(dir);
  return m;
}

}  // namespace bench_e2e
