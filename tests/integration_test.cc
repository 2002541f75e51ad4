// End-to-end tests of the AsterixInstance facade: feed lifecycle, cascade
// networks, policies, soft/hard failures, at-least-once semantics.
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>

#include <gtest/gtest.h>

#include "adm/binary.h"
#include "adm/parser.h"
#include "asterix/asterix.h"
#include "common/clock.h"
#include "feeds/udf.h"
#include "gen/tweetgen.h"
#include "storage/key.h"
#include "testing_util.h"

namespace asterix {
namespace {

using adm::TypeTag;
using adm::Value;
using asterix::testing::FastOptions;
using asterix::testing::TweetsDataset;
using asterix::testing::WaitFor;
using common::Status;

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<AsterixInstance>(FastOptions(3));
    ASSERT_TRUE(db_->Start().ok());
  }

  std::unique_ptr<AsterixInstance> db_;
};

TEST_F(IntegrationTest, PrimaryFeedWithoutUdfIngestsToDataset) {
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("Tweets")).ok());
  feeds::FeedDef feed;
  feed.name = "TweetFeed";
  feed.adaptor_alias = "synthetic_tweets";
  feed.adaptor_config = {{"rate", "5000"}, {"limit", "500"}};
  ASSERT_TRUE(db_->CreateFeed(feed).ok());
  ASSERT_TRUE(db_->ConnectFeed("TweetFeed", "Tweets").ok());

  ASSERT_TRUE(WaitFor(
      [&] { return db_->CountDataset("Tweets").value() == 500; }, 10000))
      << "got " << db_->CountDataset("Tweets").value();
  ASSERT_TRUE(db_->DisconnectFeed("TweetFeed", "Tweets").ok());
  EXPECT_EQ(db_->CountDataset("Tweets").value(), 500);
}

TEST_F(IntegrationTest, ConnectRequiresExistingEntities) {
  EXPECT_FALSE(db_->ConnectFeed("NoFeed", "NoDataset").ok());
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  EXPECT_FALSE(db_->ConnectFeed("NoFeed", "D").ok());
  EXPECT_FALSE(db_->DisconnectFeed("NoFeed", "D").ok());
}

TEST_F(IntegrationTest, DoubleConnectRejected) {
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  feeds::FeedDef feed;
  feed.name = "F";
  feed.adaptor_alias = "synthetic_tweets";
  feed.adaptor_config = {{"rate", "100"}};
  ASSERT_TRUE(db_->CreateFeed(feed).ok());
  ASSERT_TRUE(db_->ConnectFeed("F", "D").ok());
  EXPECT_FALSE(db_->ConnectFeed("F", "D").ok());
  ASSERT_TRUE(db_->DisconnectFeed("F", "D").ok());
}

TEST_F(IntegrationTest, SecondaryFeedAppliesUdf) {
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("Processed")).ok());
  ASSERT_TRUE(
      db_->InstallUdf(feeds::AqlUdf::ExtractHashtags("addHashTags")).ok());
  feeds::FeedDef primary;
  primary.name = "Raw";
  primary.adaptor_alias = "synthetic_tweets";
  primary.adaptor_config = {{"rate", "5000"}, {"limit", "300"}};
  ASSERT_TRUE(db_->CreateFeed(primary).ok());
  feeds::FeedDef secondary;
  secondary.name = "Hashtagged";
  secondary.is_primary = false;
  secondary.parent_feed = "Raw";
  secondary.udf = "addHashTags";
  ASSERT_TRUE(db_->CreateFeed(secondary).ok());

  ASSERT_TRUE(db_->ConnectFeed("Hashtagged", "Processed").ok());
  ASSERT_TRUE(WaitFor(
      [&] { return db_->CountDataset("Processed").value() == 300; },
      10000));
  // Every stored record carries the UDF-added topics list.
  int64_t checked = 0;
  ASSERT_TRUE(db_->ScanDataset("Processed", [&](const Value& record) {
    ++checked;
    const Value* topics = record.GetField("topics");
    ASSERT_NE(topics, nullptr);
    EXPECT_TRUE(topics->is_list());
  }).ok());
  EXPECT_EQ(checked, 300);
  ASSERT_TRUE(db_->DisconnectFeed("Hashtagged", "Processed").ok());
}

TEST_F(IntegrationTest, CascadeSharesHeadSection) {
  // Fetch-Once Compute-Many: raw and processed connected concurrently;
  // the external source is consumed once (a single head section).
  gen::TweetGenServer source(0, gen::Pattern::Constant(2000, 1500));
  feeds::ExternalSourceRegistry::Instance().RegisterChannel(
      "src:1", &source.channel());

  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("Raw")).ok());
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("Cooked")).ok());
  ASSERT_TRUE(
      db_->InstallUdf(feeds::AqlUdf::ExtractHashtags("tagify")).ok());

  feeds::FeedDef primary;
  primary.name = "SockFeed";
  primary.adaptor_alias = "socket_adaptor";
  primary.adaptor_config = {{"sockets", "src:1"}};
  ASSERT_TRUE(db_->CreateFeed(primary).ok());
  feeds::FeedDef secondary;
  secondary.name = "CookedFeed";
  secondary.is_primary = false;
  secondary.parent_feed = "SockFeed";
  secondary.udf = "tagify";
  ASSERT_TRUE(db_->CreateFeed(secondary).ok());

  // Connect the secondary BEFORE the primary (order must not matter).
  ASSERT_TRUE(db_->ConnectFeed("CookedFeed", "Cooked").ok());
  ASSERT_TRUE(db_->ConnectFeed("SockFeed", "Raw").ok());

  auto cooked = db_->feed_manager().GetConnection("CookedFeed", "Cooked");
  auto raw = db_->feed_manager().GetConnection("SockFeed", "Raw");
  ASSERT_TRUE(cooked.ok());
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(cooked->head_root, "SockFeed");
  EXPECT_EQ(raw->head_root, "SockFeed");
  // The primary sources directly from the shared head joint.
  EXPECT_EQ(raw->source_joint, "SockFeed");
  EXPECT_EQ(cooked->source_joint, "SockFeed");

  source.Start();
  source.Join();  // ~2000 tps for 1.5s
  const int64_t sent = source.tweets_sent();
  // Wall-clock rate bound: meaningless under TSan's slowdown (the
  // conservation checks below are the real assertions there).
  if (!asterix::testing::kTsanActive) ASSERT_GT(sent, 2000);
  ASSERT_GT(sent, 0);
  ASSERT_TRUE(WaitFor(
      [&] {
        return db_->CountDataset("Raw").value() == sent &&
               db_->CountDataset("Cooked").value() == sent;
      },
      15000))
      << "sent=" << sent << " raw=" << db_->CountDataset("Raw").value()
      << " cooked=" << db_->CountDataset("Cooked").value();
  // Fetch once: the head collected each record exactly once even though
  // two pipelines consumed it.
  auto head_metrics = db_->feed_manager().GetHeadMetrics("SockFeed");
  ASSERT_NE(head_metrics, nullptr);
  EXPECT_EQ(head_metrics->records_collected.load(), sent);

  ASSERT_TRUE(db_->DisconnectFeed("SockFeed", "Raw").ok());
  ASSERT_TRUE(db_->DisconnectFeed("CookedFeed", "Cooked").ok());
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("src:1");
}

TEST_F(IntegrationTest, SoftFailuresAreSkippedAndLogged) {
  gen::Channel channel;
  feeds::ExternalSourceRegistry::Instance().RegisterChannel("bad:1",
                                                            &channel);
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  feeds::FeedDef feed;
  feed.name = "BadFeed";
  feed.adaptor_alias = "socket_adaptor";
  feed.adaptor_config = {{"sockets", "bad:1"}};
  ASSERT_TRUE(db_->CreateFeed(feed).ok());
  ASSERT_TRUE(db_->ConnectFeed("BadFeed", "D").ok());

  // Interleave malformed payloads with good records.
  for (int i = 0; i < 100; ++i) {
    channel.Send("{\"id\": \"g" + std::to_string(i) + "\"}");
    if (i % 10 == 0) channel.Send("{{{ not adm at all");
  }
  ASSERT_TRUE(WaitFor(
      [&] { return db_->CountDataset("D").value() == 100; }, 10000))
      << db_->CountDataset("D").value();
  // Parse failures happen at the (shared) head section's collect stage.
  auto head_metrics = db_->feed_manager().GetHeadMetrics("BadFeed");
  ASSERT_NE(head_metrics, nullptr);
  EXPECT_EQ(head_metrics->soft_failures.load(), 10);
  EXPECT_EQ(head_metrics->records_collected.load(), 100);
  ASSERT_TRUE(db_->DisconnectFeed("BadFeed", "D").ok());
  feeds::ExternalSourceRegistry::Instance().UnregisterChannel("bad:1");
}

TEST_F(IntegrationTest, ThrowingUdfIsSandboxedByMetaFeed) {
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  // Throws on every 7th record (by seq) — a classic data-dependent bug.
  ASSERT_TRUE(db_->InstallUdf(std::make_shared<feeds::JavaUdf>(
                      "lib", "explode7",
                      [](const Value& record) -> std::optional<Value> {
                        if (record.GetField("seq")->AsInt64() % 7 == 0) {
                          throw std::runtime_error("unexpected value");
                        }
                        return record;
                      }))
                  .ok());
  feeds::FeedDef primary;
  primary.name = "P";
  primary.adaptor_alias = "synthetic_tweets";
  primary.adaptor_config = {{"rate", "5000"}, {"limit", "140"}};
  primary.udf = "lib#explode7";
  ASSERT_TRUE(db_->CreateFeed(primary).ok());
  ASSERT_TRUE(db_->ConnectFeed("P", "D").ok());

  // seq 0,7,14,...,133 throw: 20 of 140.
  ASSERT_TRUE(WaitFor(
      [&] { return db_->CountDataset("D").value() == 120; }, 10000))
      << db_->CountDataset("D").value();
  common::SleepMillis(100);  // no stragglers
  EXPECT_EQ(db_->CountDataset("D").value(), 120);
  auto metrics = db_->FeedMetrics("P", "D");
  EXPECT_EQ(metrics->soft_failures.load(), 20);
  ASSERT_TRUE(db_->DisconnectFeed("P", "D").ok());
}

TEST_F(IntegrationTest, BatchInsertPathWorks) {
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  std::vector<Value> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back(
        Value::Record({{"id", Value::String("b" + std::to_string(i))},
                       {"n", Value::Int64(i)}}));
  }
  ASSERT_TRUE(db_->InsertBatch("D", std::move(batch)).ok());
  EXPECT_EQ(db_->CountDataset("D").value(), 50);
  auto got = db_->GetRecord("D", Value::String("b7"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->GetField("n")->AsInt64(), 7);
}

// A point read asks the key's owner (the node the store's hash connector
// routes it to) first, and every other alive node only when the owner
// misses, so a record a failed-over store wrote elsewhere is still found.
TEST_F(IntegrationTest, GetRecordAsksTheOwnerThenTheOtherNodes) {
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  std::vector<Value> batch;
  for (int i = 0; i < 30; ++i) {
    batch.push_back(
        Value::Record({{"id", Value::String("k" + std::to_string(i))},
                       {"n", Value::Int64(i)}}));
  }
  ASSERT_TRUE(db_->InsertBatch("D", batch).ok());
  auto entry = db_->datasets().Lookup("D");
  ASSERT_NE(entry, nullptr);
  const std::vector<std::string>& nodes = entry->nodegroup;
  for (const Value& record : batch) {
    const Value& key = *record.GetField("id");
    const std::string& owner =
        nodes[hyracks::PrimaryKeyPartition(key, nodes.size())];
    auto* partition =
        db_->cluster().GetNode(owner)->storage().GetPartition("D");
    EXPECT_EQ(partition->primary().Get(storage::EncodeKey(key).value()),
              record)
        << key.ToAdmString();
    auto got = db_->GetRecord("D", key);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, record);
  }
  // A record held only by a node that does not own its key.
  const Value stray = Value::Record({{"id", Value::String("stray")}});
  const size_t owner =
      hyracks::PrimaryKeyPartition(*stray.GetField("id"), nodes.size());
  const std::string& other = nodes[(owner + 1) % nodes.size()];
  ASSERT_TRUE(db_->cluster()
                  .GetNode(other)
                  ->storage()
                  .GetPartition("D")
                  ->Insert(stray)
                  .ok());
  auto got = db_->GetRecord("D", Value::String("stray"));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, stray);
  EXPECT_TRUE(db_->GetRecord("D", Value::String("none")).status().IsNotFound());
  // A value that cannot be a key is on no node.
  EXPECT_TRUE(db_->GetRecord("D", Value::Null()).status().IsNotFound());
  EXPECT_TRUE(db_->GetRecord("E", Value::String("k1")).status().IsNotFound());
}

// A file feed's stored records are in its partitions' WALs, one binary
// entry each: replaying every log and decoding its payloads gives back
// exactly the records the dataset holds, which are the file's records.
TEST_F(IntegrationTest, FileFeedWalReplaysExactlyTheStoredRecords) {
  constexpr int kRecords = 3000;
  const std::string path = (std::filesystem::temp_directory_path() /
                            "asterix_wal_replay.adm")
                               .string();
  asterix::testing::WriteTweetFile(path, kRecords);
  std::map<std::string, Value> in_file;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      auto record = adm::ParseAdm(line);
      ASSERT_TRUE(record.ok());
      in_file[record->GetField("id")->ToAdmString()] = *record;
    }
  }
  ASSERT_EQ(in_file.size(), static_cast<size_t>(kRecords));
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  feeds::FeedDef feed;
  feed.name = "FileFeed";
  feed.adaptor_alias = "file_based_feed";
  feed.adaptor_config = {{"path", path}};
  ASSERT_TRUE(db_->CreateFeed(feed).ok());
  ASSERT_TRUE(db_->ConnectFeed("FileFeed", "D").ok());
  ASSERT_TRUE(WaitFor(
      [&] {
        return db_->feed_manager().Health("FileFeed", "D") !=
               feeds::CentralFeedManager::ConnectionHealth::kActive;
      },
      60000));
  std::filesystem::remove(path);
  ASSERT_EQ(db_->feed_manager().Health("FileFeed", "D"),
            feeds::CentralFeedManager::ConnectionHealth::kCompleted);

  std::map<std::string, Value> stored;
  ASSERT_TRUE(db_->ScanDataset("D", [&](const Value& record) {
                   stored[record.GetField("id")->ToAdmString()] = record;
                 })
                  .ok());
  std::map<std::string, Value> logged;
  int64_t entries = 0;
  for (hyracks::NodeController* node : db_->cluster().AliveNodes()) {
    auto* partition = node->storage().GetPartition("D");
    ASSERT_NE(partition, nullptr);
    ASSERT_TRUE(partition->SyncWal().ok());
    ASSERT_TRUE(partition->wal()
                    .Replay([&](const std::string& payload) {
                      ++entries;
                      auto record = adm::DecodeBinary(payload);
                      ASSERT_TRUE(record.ok()) << record.status().ToString();
                      logged[record->GetField("id")->ToAdmString()] =
                          *record;
                    })
                    .ok());
  }
  EXPECT_EQ(entries, kRecords);  // one entry per record, no replays
  EXPECT_EQ(logged, stored);
  EXPECT_EQ(stored, in_file);
}

// A feed line nested deeper than the codec's limit is a soft failure at
// the parse: the feed completes, every other record is stored, and reads
// of the dataset are unaffected.
TEST_F(IntegrationTest, FileFeedDropsARecordNestedTooDeep) {
  constexpr int kRecords = 200;
  const std::string path = (std::filesystem::temp_directory_path() /
                            "asterix_too_deep.adm")
                               .string();
  const std::multiset<std::string> ids =
      asterix::testing::WriteTweetFile(path, kRecords);
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"id\": \"deep\", \"payload\": " << std::string(600, '[')
        << std::string(600, ']') << "}\n";
  }
  ASSERT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
  feeds::FeedDef feed;
  feed.name = "DeepFeed";
  feed.adaptor_alias = "file_based_feed";
  feed.adaptor_config = {{"path", path}};
  ASSERT_TRUE(db_->CreateFeed(feed).ok());
  ASSERT_TRUE(db_->ConnectFeed("DeepFeed", "D").ok());
  ASSERT_TRUE(WaitFor(
      [&] {
        return db_->feed_manager().Health("DeepFeed", "D") !=
               feeds::CentralFeedManager::ConnectionHealth::kActive;
      },
      60000));
  std::filesystem::remove(path);
  ASSERT_EQ(db_->feed_manager().Health("DeepFeed", "D"),
            feeds::CentralFeedManager::ConnectionHealth::kCompleted);
  EXPECT_EQ(asterix::testing::StoredIds(*db_, "D"), ids);
  EXPECT_TRUE(
      db_->GetRecord("D", Value::String("deep")).status().IsNotFound());
}

// A file feed runs one collect per node, each parsing its own byte-range
// split, and reads no further ahead of its intake queue than a fraction of
// the queue's budget. Behind a compute stage far slower than the parse,
// a 256 KB budget must then neither run out (Basic) nor spill (Spill).
class PacedFileFeedTest : public IntegrationTest {
 protected:
  static constexpr int kRecords = 20000;

  void TearDown() override {
    if (!path_.empty()) std::filesystem::remove(path_);
  }

  /// Ingests the file under a copy of policy `base` with a 256 KB budget
  /// and waits for the feed to finish. Returns its intake queues.
  std::vector<std::shared_ptr<feeds::SubscriberQueue>> Ingest(
      const std::string& base) {
    path_ = (std::filesystem::temp_directory_path() /
             ("asterix_paced_" + base + ".adm"))
                .string();
    ids_ = asterix::testing::WriteTweetFile(path_, kRecords);
    EXPECT_TRUE(db_->CreateDataset(TweetsDataset("D")).ok());
    EXPECT_TRUE(db_->InstallUdf(std::make_shared<feeds::JavaUdf>(
                                    "lib", "slow",
                                    [](const Value& tweet) {
                                      common::SleepMicros(20);
                                      return std::optional<Value>(tweet);
                                    }))
                    .ok());
    const std::string policy = "Small" + base;
    EXPECT_TRUE(db_->CreatePolicy(policy, base,
                                  {{feeds::IngestionPolicy::kMemoryBudget,
                                    std::to_string(256 << 10)}})
                    .ok());
    feeds::FeedDef feed;
    feed.name = "FileFeed";
    feed.adaptor_alias = "file_based_feed";
    feed.adaptor_config = {{"path", path_}};
    feed.udf = "lib#slow";
    EXPECT_TRUE(db_->CreateFeed(feed).ok());
    EXPECT_TRUE(db_->ConnectFeed("FileFeed", "D", policy).ok());
    auto conn = db_->feed_manager().GetConnection("FileFeed", "D");
    EXPECT_TRUE(conn.ok());
    if (conn.ok()) EXPECT_EQ(conn->intake_locations.size(), 3u);
    EXPECT_TRUE(WaitFor(
        [&] {
          return db_->feed_manager().Health("FileFeed", "D") !=
                 feeds::CentralFeedManager::ConnectionHealth::kActive;
        },
        60000));
    EXPECT_EQ(db_->feed_manager().Health("FileFeed", "D"),
              feeds::CentralFeedManager::ConnectionHealth::kCompleted);
    EXPECT_EQ(asterix::testing::StoredIds(*db_, "D"), ids_);
    auto metrics = db_->FeedMetrics("FileFeed", "D");
    EXPECT_NE(metrics, nullptr);
    if (metrics == nullptr) return {};
    for (const auto& queue : metrics->IntakeQueues()) {
      EXPECT_TRUE(queue->failure().ok()) << queue->failure().ToString();
      EXPECT_LE(queue->stats().peak_pending_bytes, 256 << 10);
    }
    return metrics->IntakeQueues();
  }

  std::string path_;
  std::multiset<std::string> ids_;
};

TEST_F(PacedFileFeedTest, BasicBudgetIsNeverExhausted) {
  EXPECT_EQ(Ingest("Basic").size(), 3u);
}

TEST_F(PacedFileFeedTest, SpillPolicyNeverSpills) {
  auto queues = Ingest("Spill");
  EXPECT_EQ(queues.size(), 3u);
  for (const auto& queue : queues) {
    EXPECT_EQ(queue->stats().frames_spilled, 0) << queue->name();
  }
}

}  // namespace
}  // namespace asterix
