#include <atomic>
#include <filesystem>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "hyracks/cluster.h"
#include "hyracks/operators.h"
#include "storage/key.h"

namespace asterix {
namespace hyracks {
namespace {

using adm::Value;

std::vector<Value> MakeRecords(int n, int start = 0) {
  std::vector<Value> records;
  for (int i = start; i < start + n; ++i) {
    records.push_back(
        Value::Record({{"id", Value::String("r" + std::to_string(i))},
                       {"n", Value::Int64(i)}}));
  }
  return records;
}

class ClusterFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ClusterOptions options;
    options.storage_root =
        "/tmp/asterix_test/hyracks_" +
        std::to_string(common::NowMicros());
    std::filesystem::remove_all(options.storage_root);
    options.heartbeat_period_ms = 10;
    options.heartbeat_timeout_ms = 80;
    options.monitor_period_ms = 10;
    cluster_ = std::make_unique<ClusterController>(options);
    for (const char* id : {"A", "B", "C"}) cluster_->AddNode(id);
    cluster_->Start();
  }

  storage::DatasetDef SimpleDataset(const std::string& name) {
    storage::DatasetDef def;
    def.name = name;
    def.datatype = "Any";
    def.primary_key_field = "id";
    return def;
  }

  void CreateDatasetEverywhere(const storage::DatasetDef& def) {
    int p = 0;
    for (NodeController* node : cluster_->AliveNodes()) {
      ASSERT_TRUE(
          node->storage().CreatePartition(def, p++, nullptr).ok());
    }
  }

  int64_t TotalRecords(const std::string& dataset) {
    int64_t total = 0;
    for (NodeController* node : cluster_->AliveNodes()) {
      auto* partition = node->storage().GetPartition(dataset);
      if (partition != nullptr) total += partition->record_count();
    }
    return total;
  }

  std::unique_ptr<ClusterController> cluster_;
};

TEST_F(ClusterFixture, SingleOperatorJobRuns) {
  auto sink = std::make_shared<CollectSinkOperator::Shared>();
  JobSpec spec;
  spec.name = "single";
  int src = spec.AddOperator(
      {"source",
       {{}, 1},
       [&](int) {
         return std::make_unique<VectorSourceOperator>(MakeRecords(100));
       },
       ""});
  int snk = spec.AddOperator(
      {"sink",
       {{}, 1},
       [&](int) { return std::make_unique<CollectSinkOperator>(sink); },
       ""});
  spec.Connect(src, snk, {ConnectorKind::kOneToOne, nullptr});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Wait(5000));
  EXPECT_EQ(sink->size(), 100u);
}

TEST_F(ClusterFixture, HashConnectorPartitionsByKey) {
  CreateDatasetEverywhere(SimpleDataset("D"));
  JobSpec spec;
  spec.name = "hash";
  int src = spec.AddOperator(
      {"source",
       {{}, 1},
       [&](int) {
         return std::make_unique<VectorSourceOperator>(MakeRecords(300));
       },
       ""});
  int store = spec.AddOperator(
      {"store",
       {{"A", "B", "C"}, 0},
       [&](int) { return std::make_unique<IndexInsertOperator>("D"); },
       ""});
  spec.Connect(src, store,
               {ConnectorKind::kMToNHash, [](const Value& r) {
                  return r.GetField("id")->AsString();
                }});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Wait(5000));
  EXPECT_EQ(TotalRecords("D"), 300);
  // Every node received a share (hash spread).
  for (NodeController* node : cluster_->AliveNodes()) {
    EXPECT_GT(node->storage().GetPartition("D")->record_count(), 0);
  }
}

TEST_F(ClusterFixture, HashConnectorIsDeterministicPerKey) {
  // The same key must always land on the same partition: insert the same
  // records twice; the dataset must hold exactly N distinct records.
  CreateDatasetEverywhere(SimpleDataset("D2"));
  for (int round = 0; round < 2; ++round) {
    JobSpec spec;
    spec.name = "hash2";
    int src = spec.AddOperator(
        {"source",
         {{}, 1},
         [&](int) {
           return std::make_unique<VectorSourceOperator>(MakeRecords(100));
         },
         ""});
    int store = spec.AddOperator(
        {"store",
         {{"A", "B", "C"}, 0},
         [&](int) { return std::make_unique<IndexInsertOperator>("D2"); },
         ""});
    spec.Connect(src, store,
                 {ConnectorKind::kMToNHash, [](const Value& r) {
                    return r.GetField("id")->AsString();
                  }});
    auto job = cluster_->StartJob(std::move(spec));
    ASSERT_TRUE(job.ok());
    ASSERT_TRUE((*job)->Wait(5000));
  }
  EXPECT_EQ(TotalRecords("D2"), 100);  // upserts, not duplicates
}

TEST_F(ClusterFixture, MapOperatorTransformsAndFilters) {
  auto sink = std::make_shared<CollectSinkOperator::Shared>();
  JobSpec spec;
  spec.name = "map";
  int src = spec.AddOperator(
      {"source",
       {{}, 1},
       [&](int) {
         return std::make_unique<VectorSourceOperator>(MakeRecords(50));
       },
       ""});
  int map = spec.AddOperator(
      {"map",
       {{}, 2},
       [&](int) {
         return std::make_unique<MapOperator>(
             [](const Value& r) -> std::optional<Value> {
               if (r.GetField("n")->AsInt64() % 2 != 0) {
                 return std::nullopt;  // drop odd
               }
               Value out = r;
               out.SetField("doubled",
                            Value::Int64(r.GetField("n")->AsInt64() * 2));
               return out;
             });
       },
       ""});
  int snk = spec.AddOperator(
      {"sink",
       {{}, 1},
       [&](int) { return std::make_unique<CollectSinkOperator>(sink); },
       ""});
  spec.Connect(src, map, {ConnectorKind::kMToNRandom, nullptr});
  spec.Connect(map, snk, {ConnectorKind::kMToNHash, [](const Value& r) {
                            return r.GetField("id")->AsString();
                          }});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Wait(5000));
  auto records = sink->Snapshot();
  EXPECT_EQ(records.size(), 25u);
  for (const Value& r : records) {
    EXPECT_EQ(r.GetField("doubled")->AsInt64(),
              r.GetField("n")->AsInt64() * 2);
  }
}

TEST_F(ClusterFixture, CountConstraintSchedulesRoundRobin) {
  JobSpec spec;
  spec.name = "constraints";
  std::atomic<int> opened{0};
  int src = spec.AddOperator(
      {"source",
       {{}, 1},
       [&](int) {
         return std::make_unique<VectorSourceOperator>(MakeRecords(1));
       },
       ""});
  int snk = spec.AddOperator(
      {"sink",
       {{}, 3},
       [&](int) {
         ++opened;
         return std::make_unique<NullSinkOperator>();
       },
       ""});
  spec.Connect(src, snk, {ConnectorKind::kMToNRandom, nullptr});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  ASSERT_TRUE((*job)->Wait(5000));
  EXPECT_EQ(opened.load(), 3);
  // Instances landed on three distinct nodes.
  auto tasks = (*job)->TasksOfOperator("sink");
  ASSERT_EQ(tasks.size(), 3u);
  std::set<std::string> nodes;
  for (const auto& t : tasks) nodes.insert(t->node_id());
  EXPECT_EQ(nodes.size(), 3u);
}

TEST_F(ClusterFixture, LocationConstraintOnDeadNodeFails) {
  cluster_->KillNode("B");
  JobSpec spec;
  spec.name = "deadloc";
  spec.AddOperator(
      {"source",
       {{"B"}, 0},
       [&](int) {
         return std::make_unique<VectorSourceOperator>(MakeRecords(1));
       },
       ""});
  auto job = cluster_->StartJob(std::move(spec));
  EXPECT_FALSE(job.ok());
}

TEST_F(ClusterFixture, NodeFailureDetectedByHeartbeatMonitor) {
  struct Listener : ClusterListener {
    std::atomic<int> failures{0};
    std::string failed_node;
    void OnClusterEvent(const ClusterEvent& e) override {
      if (e.kind == ClusterEvent::Kind::kNodeFailed) {
        failed_node = e.node_id;
        ++failures;
      }
    }
  } listener;
  cluster_->Subscribe(&listener);
  cluster_->KillNode("B");
  common::Stopwatch watch;
  while (listener.failures.load() == 0 && watch.ElapsedMillis() < 2000) {
    common::SleepMillis(5);
  }
  EXPECT_EQ(listener.failures.load(), 1);
  EXPECT_EQ(listener.failed_node, "B");
  cluster_->Unsubscribe(&listener);
}

TEST_F(ClusterFixture, NodeRejoinFiresEvent) {
  struct Listener : ClusterListener {
    std::atomic<int> joins{0};
    void OnClusterEvent(const ClusterEvent& e) override {
      if (e.kind == ClusterEvent::Kind::kNodeJoined) ++joins;
    }
  } listener;
  cluster_->Subscribe(&listener);
  cluster_->KillNode("C");
  common::SleepMillis(150);
  cluster_->RestartNode("C");
  EXPECT_EQ(listener.joins.load(), 1);
  EXPECT_TRUE(cluster_->GetNode("C")->alive());
  cluster_->Unsubscribe(&listener);
}

// An endless source used by abort/failure tests.
class EndlessSource : public Operator {
 public:
  explicit EndlessSource(std::atomic<int64_t>* emitted)
      : emitted_(emitted) {}
  bool is_source() const override { return true; }
  common::Status Run(TaskContext* ctx) override {
    int64_t i = 0;
    while (!ctx->ShouldStop()) {
      std::vector<Value> records;
      for (int k = 0; k < 10; ++k) {
        records.push_back(Value::Record(
            {{"id", Value::String("e" + std::to_string(i++))}}));
      }
      // Delivery may fail once the abort under test tears the job down.
      (void)ctx->writer()->NextFrame(MakeFrame(std::move(records)));
      emitted_->fetch_add(10);
      common::SleepMillis(1);
    }
    return common::Status::OK();
  }
  common::Status ProcessFrame(const FramePtr&, TaskContext*) override {
    return common::Status::NotSupported("source");
  }

 private:
  std::atomic<int64_t>* emitted_;
};

TEST_F(ClusterFixture, AbortJobStopsEndlessSource) {
  std::atomic<int64_t> emitted{0};
  JobSpec spec;
  spec.name = "endless";
  int src = spec.AddOperator(
      {"source",
       {{}, 1},
       [&](int) { return std::make_unique<EndlessSource>(&emitted); },
       ""});
  int snk = spec.AddOperator(
      {"sink",
       {{}, 1},
       [&](int) { return std::make_unique<NullSinkOperator>(); },
       ""});
  spec.Connect(src, snk, {ConnectorKind::kOneToOne, nullptr});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  common::SleepMillis(50);
  EXPECT_GT(emitted.load(), 0);
  (*job)->Abort();
  ASSERT_TRUE((*job)->Wait(2000));
}

TEST_F(ClusterFixture, GracefulFinishDrainsData) {
  std::atomic<int64_t> emitted{0};
  auto sink = std::make_shared<CollectSinkOperator::Shared>();
  JobSpec spec;
  spec.name = "drain";
  int src = spec.AddOperator(
      {"source",
       {{}, 1},
       [&](int) { return std::make_unique<EndlessSource>(&emitted); },
       ""});
  int snk = spec.AddOperator(
      {"sink",
       {{}, 1},
       [&](int) { return std::make_unique<CollectSinkOperator>(sink); },
       ""});
  spec.Connect(src, snk, {ConnectorKind::kOneToOne, nullptr});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  common::SleepMillis(50);
  (*job)->FinishSources();
  ASSERT_TRUE((*job)->Wait(5000));
  // Everything emitted arrived (no loss on graceful close).
  EXPECT_EQ(static_cast<int64_t>(sink->size()), emitted.load());
}

TEST_F(ClusterFixture, NodeKillAbortsJobWithDefaultPolicy) {
  std::atomic<int64_t> emitted{0};
  JobSpec spec;
  spec.name = "failing";
  spec.failure_policy = NodeFailurePolicy::kAbortJob;
  int src = spec.AddOperator(
      {"source",
       {{"A"}, 0},
       [&](int) { return std::make_unique<EndlessSource>(&emitted); },
       ""});
  int snk = spec.AddOperator(
      {"sink",
       {{"B"}, 0},
       [&](int) { return std::make_unique<NullSinkOperator>(); },
       ""});
  spec.Connect(src, snk, {ConnectorKind::kOneToOne, nullptr});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok());
  common::SleepMillis(30);
  cluster_->KillNode("B");
  // Heartbeat monitor notices and aborts the whole job.
  ASSERT_TRUE((*job)->Wait(3000));
}

TEST_F(ClusterFixture, FrameAppenderBatchesByCount) {
  struct CountingWriter : IFrameWriter {
    int frames = 0;
    int records = 0;
    common::Status NextFrame(const FramePtr& f) override {
      ++frames;
      records += static_cast<int>(f->record_count());
      return common::Status::OK();
    }
  } writer;
  FrameAppender appender(&writer, /*max_records=*/10);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(appender.Append(Value::Int64(i)).ok());
  }
  ASSERT_TRUE(appender.FlushFrame().ok());
  EXPECT_EQ(writer.frames, 3);  // 10 + 10 + 5
  EXPECT_EQ(writer.records, 25);
}

TEST_F(ClusterFixture, FrameAppenderCarriesTrackingIds) {
  struct KeepingWriter : IFrameWriter {
    std::vector<FramePtr> frames;
    common::Status NextFrame(const FramePtr& f) override {
      frames.push_back(f);
      return common::Status::OK();
    }
  } writer;
  FrameAppender appender(&writer, /*max_records=*/4);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(appender.Append(Value::Int64(i), 100 + i).ok());
  }
  ASSERT_TRUE(appender.FlushFrame().ok());
  ASSERT_TRUE(appender.Append(Value::Int64(6)).ok());  // untracked frame
  ASSERT_TRUE(appender.FlushFrame().ok());
  ASSERT_EQ(writer.frames.size(), 3u);
  EXPECT_EQ(writer.frames[0]->tracking_ids(),
            (std::vector<int64_t>{100, 101, 102, 103}));
  EXPECT_EQ(writer.frames[1]->tracking_ids(),
            (std::vector<int64_t>{104, 105}));
  EXPECT_FALSE(writer.frames[2]->tracked());
  EXPECT_EQ(writer.frames[2]->tracking_id(0), -1);
}

// The hash connector re-batches records per target; each record keeps its
// tracking id, and the bucket frames split the input's byte estimate.
TEST_F(ClusterFixture, HashConnectorCarriesTrackingIds) {
  struct TrackedSource : Operator {
    bool is_source() const override { return true; }
    common::Status Run(TaskContext* ctx) override {
      std::vector<int64_t> tids;
      for (int i = 0; i < 300; ++i) tids.push_back(1000 + i);
      return ctx->writer()->NextFrame(
          MakeFrame(MakeRecords(300), 300 * 100, {}, std::move(tids)));
    }
    common::Status ProcessFrame(const FramePtr&, TaskContext*) override {
      return common::Status::NotSupported("source operator");
    }
  };
  struct Seen {
    std::atomic<int> records{0};
    std::atomic<int> mismatches{0};
    std::atomic<size_t> bytes{0};
  };
  struct CheckingSink : Operator {
    explicit CheckingSink(Seen* seen) : seen(seen) {}
    common::Status ProcessFrame(const FramePtr& frame,
                                TaskContext*) override {
      for (size_t i = 0; i < frame->record_count(); ++i) {
        const int64_t n = frame->records()[i].GetField("n")->AsInt64();
        if (frame->tracking_id(i) != 1000 + n) ++seen->mismatches;
        ++seen->records;
      }
      seen->bytes += frame->ApproxBytes();
      return common::Status::OK();
    }
    Seen* seen;
  };
  Seen seen;
  JobSpec spec;
  spec.name = "hash-tracked";
  int src = spec.AddOperator(
      {"source", {{}, 1}, [](int) { return std::make_unique<TrackedSource>(); },
       ""});
  int snk = spec.AddOperator(
      {"sink",
       {{"A", "B", "C"}, 0},
       [&](int) { return std::make_unique<CheckingSink>(&seen); },
       ""});
  spec.Connect(src, snk, {ConnectorKind::kMToNHash, [](const Value& r) {
                            return r.GetField("id")->AsString();
                          }});
  auto job = cluster_->StartJob(std::move(spec));
  ASSERT_TRUE(job.ok()) << job.status().ToString();
  ASSERT_TRUE((*job)->Wait(5000));
  EXPECT_EQ(seen.records.load(), 300);
  EXPECT_EQ(seen.mismatches.load(), 0);
  EXPECT_EQ(seen.bytes.load(), 300u * 100);  // shares of the input's bytes
}

}  // namespace
}  // namespace hyracks
}  // namespace asterix
