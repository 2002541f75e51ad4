// Tests of the mini-AQL statement layer against the dissertation's own
// listings (4.1, 4.4, 4.5, 4.6, 4.7, 3.2, 5.1).
#include <gtest/gtest.h>

#include "asterix/aql.h"
#include "common/clock.h"
#include "gen/tweetgen.h"
#include "testing_util.h"

namespace asterix {
namespace {

using adm::Value;
using asterix::testing::WaitFor;

class AqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<AsterixInstance>(InstanceOptions{.num_nodes = 3});
    ASSERT_TRUE(db_->Start().ok());
  }
  std::unique_ptr<AsterixInstance> db_;
};

TEST_F(AqlTest, CreateDatasetAndIndexStatements) {
  // Listing 3.2's shape (create dataset ... ; create index ... type rtree).
  auto status = aql::Execute(db_.get(), R"(
    use dataverse feeds;
    create dataset ProcessedTweets(Tweet) primary key id;
    create index locationIndex on ProcessedTweets(location) type rtree;
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto entry = db_->datasets().Find("ProcessedTweets");
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->def.primary_key_field, "id");
  ASSERT_EQ(entry->def.indexes.size(), 1u);
  EXPECT_EQ(entry->def.indexes[0].name, "locationIndex");
  EXPECT_EQ(entry->def.indexes[0].kind, storage::IndexKind::kRTree);
}

TEST_F(AqlTest, CreateIndexBackfillsExistingData) {
  ASSERT_TRUE(aql::Execute(db_.get(),
                           "create dataset D(Tweet) primary key id;")
                  .ok());
  std::vector<Value> batch;
  for (int i = 0; i < 30; ++i) {
    batch.push_back(
        Value::Record({{"id", Value::String(std::to_string(i))},
                       {"loc", Value::MakePoint(i, i)}}));
  }
  ASSERT_TRUE(db_->InsertBatch("D", std::move(batch)).ok());
  ASSERT_TRUE(
      aql::Execute(db_.get(), "create index byLoc on D(loc) type rtree;")
          .ok());
  auto cells = db_->SpatialAggregate("D", "byLoc",
                                     {0, 0, 29.5, 29.5}, 10, 10);
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  int64_t total = 0;
  for (const auto& [cell, count] : *cells) total += count;
  EXPECT_EQ(total, 30);  // the backfill indexed every existing record
}

TEST_F(AqlTest, FeedDdlEndToEnd) {
  // Listings 4.1 + 4.4 + 4.7, driven purely through statements.
  auto status = aql::Execute(db_.get(), R"(
    create dataset Tweets(Tweet) primary key id;
    -- a synthetic live stream standing in for TwitterAdaptor
    create feed TwitterFeed using synthetic_tweets
        (("rate"="5000"), ("limit"="400"));
    connect feed TwitterFeed to dataset Tweets using policy Basic;
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(WaitFor(
      [&] { return db_->CountDataset("Tweets").value() == 400; }, 10000));
  ASSERT_TRUE(
      aql::Execute(db_.get(),
                   "disconnect feed TwitterFeed from dataset Tweets;")
          .ok());
}

TEST_F(AqlTest, SecondaryFeedWithFunction) {
  ASSERT_TRUE(db_->InstallUdf(feeds::AqlUdf::ExtractHashtags(
                                  "addHashTags"))
                  .ok());
  auto status = aql::Execute(db_.get(), R"(
    create dataset ProcessedTweets(Tweet) primary key id;
    create feed TwitterFeed using synthetic_tweets
        (("rate"="5000"), ("limit"="200"));
    create secondary feed ProcessedTwitterFeed from feed TwitterFeed
        apply function addHashTags;
    connect feed ProcessedTwitterFeed to dataset ProcessedTweets;
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(WaitFor(
      [&] { return db_->CountDataset("ProcessedTweets").value() == 200; },
      10000));
  ASSERT_TRUE(db_->ScanDataset("ProcessedTweets", [](const Value& record) {
    EXPECT_NE(record.GetField("topics"), nullptr);
  }).ok());
  ASSERT_TRUE(aql::Execute(db_.get(),
                           "disconnect feed ProcessedTwitterFeed from "
                           "dataset ProcessedTweets;")
                  .ok());
}

TEST_F(AqlTest, CustomPolicyStatement) {
  // Listing 4.6 verbatim (modulo whitespace).
  auto status = aql::Execute(db_.get(), R"(
    use dataverse feeds;
    create ingestion policy Spill_then_Throttle from policy Spill
        (("max.spill.size.on.disk"="512MB"),
         ("excess.records.throttle"="true"));
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  // The policy is usable in a connect statement.
  ASSERT_TRUE(aql::Execute(db_.get(), R"(
    create dataset D(Tweet) primary key id;
    create feed F using synthetic_tweets (("rate"="1000"));
    connect feed F to dataset D using policy Spill_then_Throttle;
  )")
                  .ok());
  auto conn = db_->feed_manager().GetConnection("F", "D");
  ASSERT_TRUE(conn.ok());
  EXPECT_EQ(conn->policy.name(), "Spill_then_Throttle");
  EXPECT_EQ(conn->policy.max_spill_bytes(), 512LL << 20);
  ASSERT_TRUE(
      aql::Execute(db_.get(), "disconnect feed F from dataset D;").ok());
}

TEST_F(AqlTest, RejectsMalformedStatements) {
  EXPECT_FALSE(aql::Execute(db_.get(), "create spaceship X;").ok());
  EXPECT_FALSE(aql::Execute(db_.get(), "create dataset;").ok());
  EXPECT_FALSE(
      aql::Execute(db_.get(), "connect feed F dataset D;").ok());
  EXPECT_FALSE(aql::Execute(db_.get(), "create feed F using a (\"k\";")
                   .ok());
  EXPECT_FALSE(
      aql::Execute(db_.get(), "create feed F using a (\"k\"=\"v\") extra;")
          .ok());
  // Errors carry the offending statement for diagnosis.
  auto status = aql::Execute(db_.get(), "create dataset D primary key;");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("in statement"), std::string::npos);
}

TEST_F(AqlTest, ErrorsStopTheScript) {
  auto status = aql::Execute(db_.get(), R"(
    create dataset D(Tweet) primary key id;
    bogus statement here;
    create dataset E(Tweet) primary key id;
  )");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(db_->datasets().Find("D").ok());
  EXPECT_FALSE(db_->datasets().Find("E").ok());  // never reached
}

TEST_F(AqlTest, CommentsAndCaseInsensitiveKeywords) {
  auto status = aql::Execute(db_.get(), R"(
    -- a comment line
    CREATE DATASET D(Tweet) PRIMARY KEY id;  -- trailing comment
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(db_->datasets().Find("D").ok());
}

}  // namespace
}  // namespace asterix
