#include <atomic>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "adm/binary.h"
#include "common/mem_governor.h"
#include "common/observability.h"
#include "common/rng.h"
#include "gen/tweetgen.h"
#include "storage/dataset.h"
#include "storage/key.h"
#include "storage/lsm_index.h"
#include "storage/secondary_index.h"
#include "storage/wal.h"

namespace asterix {
namespace storage {
namespace {

using adm::TypeTag;
using adm::Value;

std::string TempDir(const std::string& name) {
  std::string dir = "/tmp/asterix_test/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string Encoded(const Value& value) {
  std::string bytes;
  EXPECT_TRUE(adm::AppendBinary(value, &bytes).ok());
  return bytes;
}

/// Every WAL entry of `wal`, decoded (a payload that does not decode fails
/// the calling test).
std::vector<Value> ReplayRecords(const Wal& wal) {
  std::vector<Value> records;
  EXPECT_TRUE(wal.Replay([&](const std::string& payload) {
                   auto record = adm::DecodeBinary(payload);
                   EXPECT_TRUE(record.ok()) << record.status().ToString();
                   if (record.ok()) records.push_back(std::move(*record));
                 })
                  .ok());
  return records;
}

TEST(KeyTest, IntOrderPreserved) {
  auto k1 = EncodeKey(Value::Int64(-100)).value();
  auto k2 = EncodeKey(Value::Int64(-1)).value();
  auto k3 = EncodeKey(Value::Int64(0)).value();
  auto k4 = EncodeKey(Value::Int64(1)).value();
  auto k5 = EncodeKey(Value::Int64(1LL << 40)).value();
  EXPECT_LT(k1, k2);
  EXPECT_LT(k2, k3);
  EXPECT_LT(k3, k4);
  EXPECT_LT(k4, k5);
}

TEST(KeyTest, DoubleOrderPreserved) {
  auto keys = {
      EncodeKey(Value::Double(-1e9)).value(),
      EncodeKey(Value::Double(-1.5)).value(),
      EncodeKey(Value::Double(-0.0)).value(),
      EncodeKey(Value::Double(0.25)).value(),
      EncodeKey(Value::Double(3.14)).value(),
      EncodeKey(Value::Double(1e12)).value(),
  };
  std::string prev;
  bool first = true;
  for (const auto& k : keys) {
    if (!first) EXPECT_LE(prev, k);
    prev = k;
    first = false;
  }
}

TEST(KeyTest, RoundTrip) {
  for (const Value& v :
       {Value::Int64(-7), Value::Double(2.5), Value::String("abc"),
        Value::Datetime(12345)}) {
    auto key = EncodeKey(v).value();
    auto back = DecodeKey(key);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(KeyTest, NonKeyableTypesRejected) {
  EXPECT_FALSE(EncodeKey(Value::Null()).ok());
  EXPECT_FALSE(EncodeKey(Value::Record({})).ok());
  EXPECT_FALSE(EncodeKey(Value::List({})).ok());
}

TEST(KeyTest, PropertyRandomIntsSortLikeValues) {
  common::Rng rng(7);
  std::vector<int64_t> ints;
  for (int i = 0; i < 500; ++i) {
    ints.push_back(rng.Uniform(INT64_MIN / 2, INT64_MAX / 2));
  }
  std::vector<std::pair<std::string, int64_t>> keyed;
  for (int64_t i : ints) {
    keyed.emplace_back(EncodeKey(Value::Int64(i)).value(), i);
  }
  std::sort(keyed.begin(), keyed.end());
  for (size_t i = 1; i < keyed.size(); ++i) {
    EXPECT_LE(keyed[i - 1].second, keyed[i].second);
  }
}

TEST(WalTest, AppendAndReplay) {
  std::string dir = TempDir("wal");
  Wal wal(dir + "/test.wal");
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("one").ok());
  ASSERT_TRUE(wal.Append("two").ok());
  ASSERT_TRUE(wal.Append("").ok());
  EXPECT_EQ(wal.entry_count(), 3);
  std::vector<std::string> replayed;
  ASSERT_TRUE(
      wal.Replay([&](const std::string& e) { replayed.push_back(e); })
          .ok());
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[0], "one");
  EXPECT_EQ(replayed[1], "two");
  EXPECT_EQ(replayed[2], "");
}

TEST(WalTest, AppendWithoutOpenFails) {
  Wal wal("/tmp/asterix_test/never_opened.wal");
  EXPECT_FALSE(wal.Append("x").ok());
}

TEST(WalTest, BatchAppendIsOneEntryPerPayload) {
  std::string dir = TempDir("wal_batch");
  Wal wal(dir + "/batch.wal");
  ASSERT_TRUE(wal.Open().ok());
  WalBatch batch;
  batch.Add("one");
  batch.Add("");
  const Value record = Value::Record({{"id", Value::Int64(3)}});
  ASSERT_TRUE(batch.Add(record).ok());
  EXPECT_EQ(batch.Payloads(),
            (std::vector<std::string_view>{"one", "", Encoded(record)}));
  ASSERT_TRUE(wal.Append(batch).ok());
  ASSERT_TRUE(wal.Append(WalBatch()).ok());  // empty batch: no entry
  ASSERT_TRUE(wal.Append("four").ok());
  EXPECT_EQ(wal.entry_count(), 4);
  // The record's entry is its binary encoding: record tag, field count,
  // "id" with its length, int64 tag and 8 bytes.
  EXPECT_EQ(wal.bytes_written(), 4 * 4 + 3 + 0 + 14 + 4);
  std::vector<std::string> replayed;
  ASSERT_TRUE(
      wal.Replay([&](const std::string& e) { replayed.push_back(e); })
          .ok());
  ASSERT_EQ(replayed.size(), 4u);
  EXPECT_EQ(replayed[0], "one");
  EXPECT_EQ(replayed[1], "");
  auto decoded = adm::DecodeBinary(replayed[2]);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, record);
  EXPECT_EQ(replayed[3], "four");
}

// Crash recovery: a crash can cut the log anywhere — at a record boundary,
// inside a payload, even inside the 4-byte length prefix, and inside a
// group-commit batch. Replay must return exactly the complete prefix:
// every entry fully on disk before the cut, the torn tail dropped, nothing
// duplicated or invented.
TEST(WalTest, ReplayAfterCrashTruncationRecoversExactPrefix) {
  constexpr int kEntries = 100;
  // Entries from kFirstBatched on are appended in group-commit batches of
  // kBatch; the on-disk format is the same either way.
  constexpr int kFirstBatched = 50;
  constexpr int kBatch = 8;
  // "entry-0000" is 10 bytes; with the 4-byte length prefix every record
  // occupies exactly 14 bytes, so cut points are easy to aim.
  constexpr uint64_t kRecordBytes = 14;
  auto payload = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "entry-%04d", i);
    return std::string(buf);
  };

  struct Cut {
    const char* name;
    uint64_t offset;  // bytes to keep
    int survivors;    // complete entries expected after replay
  };
  const Cut cuts[] = {
      {"record boundary", 40 * kRecordBytes, 40},
      {"mid payload", 40 * kRecordBytes + 4 + 3, 40},
      {"mid length prefix", 40 * kRecordBytes + 2, 40},
      {"first record torn", 5, 0},
      {"nothing written", 0, 0},
      {"entry boundary inside a batch", 52 * kRecordBytes, 52},
      {"mid payload inside a batch", 52 * kRecordBytes + 4 + 6, 52},
      {"mid length prefix inside a batch", 61 * kRecordBytes + 1, 61},
      {"batch boundary", 58 * kRecordBytes, 58},
  };
  for (const Cut& cut : cuts) {
    std::string dir = TempDir("wal_crash");
    std::string path = dir + "/crash.wal";
    {
      Wal wal(path);
      ASSERT_TRUE(wal.Open().ok());
      for (int i = 0; i < kFirstBatched; ++i) {
        ASSERT_TRUE(wal.Append(payload(i)).ok());
      }
      for (int i = kFirstBatched; i < kEntries; i += kBatch) {
        WalBatch batch;
        for (int j = i; j < std::min(i + kBatch, kEntries); ++j) {
          batch.Add(payload(j));
        }
        ASSERT_TRUE(wal.Append(batch).ok());
      }
      ASSERT_EQ(wal.entry_count(), kEntries);
      ASSERT_TRUE(wal.Sync().ok());
    }  // closed cleanly; the "crash" is the truncation below
    ASSERT_EQ(std::filesystem::file_size(path), kEntries * kRecordBytes);
    std::filesystem::resize_file(path, cut.offset);

    Wal recovered(path);
    std::vector<std::string> replayed;
    ASSERT_TRUE(recovered
                    .Replay([&](const std::string& e) {
                      replayed.push_back(e);
                    })
                    .ok())
        << cut.name;
    ASSERT_EQ(replayed.size(), static_cast<size_t>(cut.survivors))
        << cut.name;
    for (int i = 0; i < cut.survivors; ++i) {
      EXPECT_EQ(replayed[i], payload(i)) << cut.name;
    }
  }
}

TEST(LsmTest, InsertThenGet) {
  LsmIndex index;
  auto key = EncodeKey(Value::Int64(1)).value();
  ASSERT_TRUE(index.Insert(key, Value::String("v")).ok());
  auto got = index.Get(key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->AsString(), "v");
  EXPECT_FALSE(index.Get("missing").has_value());
}

TEST(LsmTest, UpsertNewestWins) {
  LsmIndex index;
  auto key = EncodeKey(Value::Int64(1)).value();
  ASSERT_TRUE(index.Insert(key, Value::Int64(1)).ok());
  ASSERT_TRUE(index.Insert(key, Value::Int64(2)).ok());
  EXPECT_EQ(index.Get(key)->AsInt64(), 2);
  EXPECT_EQ(index.Size(), 1);
}

TEST(LsmTest, UpsertAcrossFlushBoundary) {
  LsmOptions options;
  options.memtable_bytes_limit = 1;  // flush on every insert
  LsmIndex index(options);
  auto key = EncodeKey(Value::Int64(1)).value();
  ASSERT_TRUE(index.Insert(key, Value::Int64(1)).ok());
  ASSERT_TRUE(index.Insert(key, Value::Int64(2)).ok());
  EXPECT_EQ(index.Get(key)->AsInt64(), 2);
  EXPECT_EQ(index.Size(), 1);
  EXPECT_GE(index.stats().flushes, 2);
}

TEST(LsmTest, FlushAndMergeMaintainContents) {
  LsmOptions options;
  options.memtable_bytes_limit = 256;  // frequent flushes
  options.max_runs = 3;
  LsmIndex index(options);
  constexpr int kRecords = 500;
  for (int i = 0; i < kRecords; ++i) {
    auto key = EncodeKey(Value::Int64(i)).value();
    ASSERT_TRUE(index.Insert(key, Value::Int64(i * 10)).ok());
  }
  index.Drain();  // wait for background flush/merge to catch up
  EXPECT_GT(index.stats().flushes, 0);
  EXPECT_GT(index.stats().merges, 0);
  EXPECT_EQ(index.Size(), kRecords);
  for (int i = 0; i < kRecords; i += 37) {
    auto key = EncodeKey(Value::Int64(i)).value();
    auto got = index.Get(key);
    ASSERT_TRUE(got.has_value()) << "missing key " << i;
    EXPECT_EQ(got->AsInt64(), i * 10);
  }
}

TEST(LsmTest, ScanIsSortedAndComplete) {
  LsmOptions options;
  options.memtable_bytes_limit = 128;
  LsmIndex index(options);
  common::Rng rng(3);
  std::set<int64_t> inserted;
  for (int i = 0; i < 300; ++i) {
    int64_t v = rng.Uniform(0, 10000);
    inserted.insert(v);
    auto key = EncodeKey(Value::Int64(v)).value();
    ASSERT_TRUE(index.Insert(key, Value::Int64(v)).ok());
  }
  std::vector<int64_t> scanned;
  index.Scan([&](const std::string&, const Value& v) {
    scanned.push_back(v.AsInt64());
  });
  ASSERT_EQ(scanned.size(), inserted.size());
  auto it = inserted.begin();
  for (size_t i = 0; i < scanned.size(); ++i, ++it) {
    EXPECT_EQ(scanned[i], *it);  // key encoding preserves order
  }
}

// The LSM holds each record as its binary encoding: what Get and Scan
// decode must equal what was inserted, from the memtable, from sealed
// memtables and from (merged) runs alike.
TEST(LsmTest, GetAndScanReturnTheInsertedValues) {
  LsmOptions options;
  options.memtable_bytes_limit = 4096;  // several runs and merges
  options.max_runs = 3;
  LsmIndex index(options);
  gen::TweetFactory factory(7);
  std::map<std::string, Value> inserted;
  for (int i = 0; i < 200; ++i) {
    Value tweet = factory.NextTweet();
    tweet.SetField("score", Value::Double(i % 2 == 0 ? -0.0 : 0.1 * i));
    tweet.SetField("tags", Value::List({Value::String("a\nb"),
                                        Value::Boolean(i % 3 == 0),
                                        Value::Null()}));
    auto key = EncodeKey(*tweet.GetField("id")).value();
    ASSERT_TRUE(index.Insert(key, tweet).ok());
    inserted[key] = tweet;
  }
  EXPECT_GT(index.stats().flushes, 0);
  for (bool drained : {false, true}) {
    if (drained) index.Drain();
    for (const auto& [key, tweet] : inserted) {
      auto got = index.Get(key);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, tweet);
    }
    auto it = inserted.begin();
    index.Scan([&](const std::string& key, const Value& v) {
      ASSERT_NE(it, inserted.end());
      EXPECT_EQ(key, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    });
    EXPECT_EQ(it, inserted.end());
  }
  EXPECT_GT(index.stats().merges, 0);
}

// A tombstone (an empty payload) in a newer component hides the key's
// value in every older run, through flushes, and a full merge retires it.
TEST(LsmTest, TombstoneShadowsOlderRuns) {
  LsmOptions options;
  options.max_runs = 3;  // no merge until the third run below
  LsmIndex index(options);
  const std::string gone = EncodeKey(Value::Int64(1)).value();
  const std::string kept = EncodeKey(Value::Int64(2)).value();
  const std::string other = EncodeKey(Value::Int64(3)).value();
  auto scan_keys = [&index] {
    std::vector<std::string> keys;
    index.Scan([&](const std::string& key, const Value&) {
      keys.push_back(key);
    });
    return keys;
  };
  ASSERT_TRUE(index.Insert(gone, Value::String("old")).ok());
  ASSERT_TRUE(index.Insert(kept, Value::String("kept")).ok());
  index.Flush();  // both now live in a run
  ASSERT_TRUE(index.Delete(gone).ok());
  EXPECT_FALSE(index.Get(gone).has_value());  // memtable tombstone
  index.Flush();
  EXPECT_EQ(index.run_count(), 2u);
  EXPECT_EQ(index.stats().merges, 0);
  EXPECT_FALSE(index.Get(gone).has_value());  // tombstone run shadows
  EXPECT_EQ(index.Size(), 1);
  EXPECT_EQ(scan_keys(), std::vector<std::string>{kept});
  // A third run makes the maintenance thread merge all three into one,
  // the oldest run, where the tombstone is dropped. Flush waits for the
  // merge as well as the flush.
  ASSERT_TRUE(index.Insert(other, Value::String("other")).ok());
  index.Flush();
  EXPECT_GT(index.stats().merges, 0);
  EXPECT_EQ(index.run_count(), 1u);
  EXPECT_FALSE(index.Get(gone).has_value());
  EXPECT_EQ(index.Get(kept)->AsString(), "kept");
  EXPECT_EQ(index.Size(), 2);
  EXPECT_EQ(scan_keys(), (std::vector<std::string>{kept, other}));
  ASSERT_TRUE(index.Insert(gone, Value::String("new")).ok());
  EXPECT_EQ(index.Get(gone)->AsString(), "new");  // re-insert revives
  EXPECT_EQ(index.Get(kept)->AsString(), "kept");
}

// The memtable's governor charge is each row's key plus encoded payload
// plus the fixed per-row overhead, with no walk of a tree; a flush returns
// all of it.
TEST(LsmTest, MemtableChargeIsKeyPayloadAndRowOverhead) {
  common::MemGovernor governor(nullptr);
  LsmOptions options;
  options.memtable_pool = governor.RegisterPool("memtable", 1 << 20);
  options.merge_pool = governor.RegisterPool("merge", 1 << 20);
  LsmIndex index(options);
  gen::TweetFactory factory(3);
  int64_t expected = 0;
  for (int i = 0; i < 20; ++i) {
    const Value tweet = factory.NextTweet();
    const std::string key = EncodeKey(*tweet.GetField("id")).value();
    ASSERT_TRUE(index.Insert(key, tweet).ok());
    expected += static_cast<int64_t>(key.size() + Encoded(tweet).size() +
                                     kRowOverheadBytes);
    EXPECT_EQ(options.memtable_pool->used(), expected);
  }
  ASSERT_TRUE(index.Delete("tombstone").ok());  // the key alone
  expected += static_cast<int64_t>(std::string("tombstone").size() +
                                   kRowOverheadBytes);
  EXPECT_EQ(options.memtable_pool->used(), expected);
  index.Flush();
  EXPECT_EQ(options.memtable_pool->used(), 0);
}

TEST(SecondaryIndexTest, BTreeExactAndRange) {
  BTreeSecondaryIndex index("byCount", "count");
  for (int i = 0; i < 10; ++i) {
    Value r = Value::Record({{"id", Value::String("k" + std::to_string(i))},
                             {"count", Value::Int64(i % 3)}});
    ASSERT_TRUE(
        index.Insert(r, EncodeKey(*r.GetField("id")).value()).ok());
  }
  EXPECT_EQ(index.SearchExact(Value::Int64(0)).size(), 4u);
  EXPECT_EQ(index.SearchExact(Value::Int64(1)).size(), 3u);
  EXPECT_EQ(index.SearchExact(Value::Int64(9)).size(), 0u);
  EXPECT_EQ(index.SearchRange(Value::Int64(1), Value::Int64(2)).size(), 6u);
  EXPECT_EQ(index.entry_count(), 10);
}

TEST(SecondaryIndexTest, SkipsRecordsLackingField) {
  BTreeSecondaryIndex index("byX", "x");
  Value r = Value::Record({{"id", Value::String("a")}});
  ASSERT_TRUE(index.Insert(r, "pk").ok());
  EXPECT_EQ(index.entry_count(), 0);
}

TEST(SecondaryIndexTest, SpatialGridRectQuery) {
  SpatialGridIndex index("byLoc", "location", /*cell_size=*/1.0);
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      Value r = Value::Record(
          {{"id", Value::String(std::to_string(x) + "," +
                                std::to_string(y))},
           {"location", Value::MakePoint(x + 0.5, y + 0.5)}});
      ASSERT_TRUE(
          index.Insert(r, EncodeKey(*r.GetField("id")).value()).ok());
    }
  }
  // A 3x3 box.
  auto hits = index.SearchRect({2.0, 2.0, 4.99, 4.99});
  EXPECT_EQ(hits.size(), 9u);
  // Whole space.
  EXPECT_EQ(index.SearchRect({0, 0, 10, 10}).size(), 100u);
  // Empty corner.
  EXPECT_EQ(index.SearchRect({-5, -5, -1, -1}).size(), 0u);
}

TEST(SecondaryIndexTest, SpatialRejectsNonPoint) {
  SpatialGridIndex index("byLoc", "location");
  Value r = Value::Record({{"location", Value::Int64(1)}});
  EXPECT_FALSE(index.Insert(r, "pk").ok());
}

DatasetDef TweetsDef(const std::string& name = "Tweets") {
  DatasetDef def;
  def.name = name;
  def.datatype = "Tweet";
  def.primary_key_field = "id";
  def.indexes.push_back({"locationIndex", "location", IndexKind::kRTree});
  return def;
}

TEST(DatasetPartitionTest, InsertMaintainsPrimaryAndSecondary) {
  std::string dir = TempDir("partition");
  DatasetPartition partition(TweetsDef(), 0, dir, nullptr);
  ASSERT_TRUE(partition.Open().ok());
  for (int i = 0; i < 20; ++i) {
    Value r = Value::Record(
        {{"id", Value::String("t" + std::to_string(i))},
         {"location", Value::MakePoint(i, i)},
         {"text", Value::String("hello")}});
    ASSERT_TRUE(partition.Insert(r).ok());
  }
  EXPECT_EQ(partition.record_count(), 20);
  auto got = partition.Get(Value::String("t7"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->GetField("text")->AsString(), "hello");
  auto* index =
      static_cast<SpatialGridIndex*>(partition.FindIndex("locationIndex"));
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->SearchRect({0, 0, 5.5, 5.5}).size(), 6u);
}

// A cluster-wide point read probes the primary index by encoded key, which
// builds no Status on a miss; it agrees with the partition's Get.
TEST(DatasetPartitionTest, PrimaryIndexReadMatchesGet) {
  std::string dir = TempDir("partition_lookup");
  DatasetPartition partition(TweetsDef(), 0, dir, nullptr);
  ASSERT_TRUE(partition.Open().ok());
  const Value record = Value::Record({{"id", Value::String("a")},
                                      {"location", Value::MakePoint(1, 2)}});
  ASSERT_TRUE(partition.Insert(record).ok());
  const std::string a = EncodeKey(Value::String("a")).value();
  const std::string b = EncodeKey(Value::String("b")).value();
  EXPECT_EQ(partition.primary().Get(a), record);
  EXPECT_EQ(*partition.Get(Value::String("a")), record);
  EXPECT_FALSE(partition.primary().Get(b).has_value());
  EXPECT_TRUE(partition.Get(Value::String("b")).status().IsNotFound());
}

// A record nested deeper than the codec's limit is refused before its WAL
// entry is written, so it can never reach a read that would fail to decode
// it; the deepest record the limit allows is stored and read back.
TEST(DatasetPartitionTest, RecordNestedTooDeepIsRefusedBeforeTheWal) {
  std::string dir = TempDir("partition_deep");
  DatasetPartition partition(TweetsDef(), 0, dir, nullptr);
  ASSERT_TRUE(partition.Open().ok());
  auto record = [](const std::string& id, int lists) {
    Value payload = Value::Null();
    for (int i = 0; i < lists; ++i) payload = Value::List({payload});
    return Value::Record({{"id", Value::String(id)}, {"payload", payload}});
  };
  const Value too_deep = record("deep", 600);
  const common::Status refused = partition.Insert(too_deep);
  EXPECT_TRUE(refused.IsInvalidArgument()) << refused.ToString();
  const common::Status refused_frame =
      partition.InsertFrame(std::vector<Value>{record("ok", 1), too_deep});
  EXPECT_TRUE(refused_frame.IsInvalidArgument()) << refused_frame.ToString();
  EXPECT_TRUE(partition.primary()
                  .Insert(EncodeKey(Value::String("deep")).value(), too_deep)
                  .IsInvalidArgument());
  EXPECT_EQ(partition.wal().entry_count(), 0);
  EXPECT_EQ(partition.record_count(), 0);
  EXPECT_TRUE(partition.Get(Value::String("deep")).status().IsNotFound());

  // The record itself is one level: its payload may hold one list fewer.
  const Value deepest = record("deepest", adm::kMaxNestingDepth - 1);
  ASSERT_TRUE(partition.Insert(deepest).ok());
  EXPECT_EQ(*partition.Get(Value::String("deepest")), deepest);
  int scanned = 0;
  partition.Scan([&](const Value& v) {
    EXPECT_EQ(v, deepest);
    ++scanned;
  });
  EXPECT_EQ(scanned, 1);
}

TEST(DatasetPartitionTest, RejectsMissingPrimaryKey) {
  std::string dir = TempDir("partition_pk");
  DatasetPartition partition(TweetsDef(), 0, dir, nullptr);
  ASSERT_TRUE(partition.Open().ok());
  EXPECT_FALSE(
      partition.Insert(Value::Record({{"x", Value::Int64(1)}})).ok());
  EXPECT_FALSE(partition.Insert(Value::Int64(1)).ok());
}

TEST(DatasetPartitionTest, ValidatesTypeWhenRequested) {
  std::string dir = TempDir("partition_type");
  adm::TypeRegistry registry;
  ASSERT_TRUE(registry
                  .Register(adm::TypeBuilder("Tweet", /*open=*/false)
                                .Field("id", TypeTag::kString)
                                .Build())
                  .ok());
  DatasetDef def = TweetsDef();
  def.indexes.clear();
  def.validate_type = true;
  DatasetPartition partition(def, 0, dir, &registry);
  ASSERT_TRUE(partition.Open().ok());
  EXPECT_TRUE(
      partition.Insert(Value::Record({{"id", Value::String("a")}})).ok());
  EXPECT_FALSE(partition
                   .Insert(Value::Record({{"id", Value::String("b")},
                                          {"zzz", Value::Int64(1)}}))
                   .ok());
}

TEST(DatasetPartitionTest, WalRecordsEveryInsert) {
  std::string dir = TempDir("partition_wal");
  DatasetDef def = TweetsDef();
  def.indexes.clear();
  DatasetPartition partition(def, 0, dir, nullptr);
  ASSERT_TRUE(partition.Open().ok());
  std::vector<Value> inserted;
  for (int i = 0; i < 5; ++i) {
    inserted.push_back(
        Value::Record({{"id", Value::String(std::to_string(i))}}));
    ASSERT_TRUE(partition.Insert(inserted.back()).ok());
  }
  EXPECT_EQ(partition.wal().entry_count(), 5);
  ASSERT_TRUE(partition.SyncWal().ok());
  std::string wal_path = dir + "/Tweets.p0.wal";
  ASSERT_TRUE(std::filesystem::exists(wal_path));
  EXPECT_GT(std::filesystem::file_size(wal_path), 0u);
  // Replay returns exactly the inserted records.
  EXPECT_EQ(ReplayRecords(partition.wal()), inserted);
}

std::vector<Value> TweetFrame(int n, int start = 0) {
  std::vector<Value> frame;
  for (int i = start; i < start + n; ++i) {
    frame.push_back(Value::Record(
        {{"id", Value::String("t" + std::to_string(i))},
         {"location", Value::MakePoint(i, i)}}));
  }
  return frame;
}

TEST(DatasetPartitionTest, KeylessRecordFailsWholeFrameBeforeAnyWrite) {
  std::string dir = TempDir("partition_frame_reject");
  DatasetPartition partition(TweetsDef(), 0, dir, nullptr);
  ASSERT_TRUE(partition.Open().ok());
  std::vector<Value> frame = TweetFrame(6);
  frame.insert(frame.begin() + 3,
               Value::Record({{"location", Value::MakePoint(1, 1)}}));
  EXPECT_TRUE(partition.InsertFrame(frame).IsInvalidArgument());
  EXPECT_EQ(partition.wal().entry_count(), 0);
  EXPECT_EQ(partition.wal().bytes_written(), 0);
  EXPECT_EQ(partition.record_count(), 0);
  EXPECT_EQ(partition.inserts(), 0);
  EXPECT_EQ(partition.FindIndex("locationIndex")->entry_count(), 0);
  // The same frame without the offender goes through whole.
  frame.erase(frame.begin() + 3);
  ASSERT_TRUE(partition.InsertFrame(frame).ok());
  EXPECT_EQ(partition.record_count(), 6);
  EXPECT_EQ(partition.inserts(), 6);
  EXPECT_EQ(partition.FindIndex("locationIndex")->entry_count(), 6);
}

TEST(DatasetPartitionTest, FrameLogsOneEntryPerRecordInFrameOrder) {
  std::string dir = TempDir("partition_frame_wal");
  DatasetPartition partition(TweetsDef(), 0, dir, nullptr);
  ASSERT_TRUE(partition.Open().ok());
  const std::vector<Value> first = TweetFrame(10);
  const std::vector<Value> second = TweetFrame(5, 10);
  ASSERT_TRUE(partition.InsertFrame(first).ok());
  ASSERT_TRUE(partition.Insert(Value::Record({{"id", Value::String("x")}}))
                  .ok());
  ASSERT_TRUE(partition.InsertFrame(second).ok());
  ASSERT_TRUE(partition.InsertFrame({}).ok());  // empty frame: no entry
  EXPECT_EQ(partition.wal().entry_count(), 16);
  std::vector<Value> expected = first;
  expected.push_back(Value::Record({{"id", Value::String("x")}}));
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(ReplayRecords(partition.wal()), expected);
  EXPECT_EQ(partition.record_count(), 16);
  auto got = partition.Get(Value::String("t12"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, second[2]);
}

TEST(DatasetPartitionTest, DurableFrameFlushesTheWalOnce) {
  std::string dir = TempDir("partition_frame_sync");
  DatasetDef def = TweetsDef();
  def.durable_writes = true;
  DatasetPartition partition(def, 0, dir, nullptr);
  ASSERT_TRUE(partition.Open().ok());
  common::Counter* syncs =
      common::MetricsRegistry::Default().GetCounter("wal_syncs_total");
  const int64_t before = syncs->Value();
  for (int f = 0; f < 4; ++f) {
    ASSERT_TRUE(partition.InsertFrame(TweetFrame(32, 32 * f)).ok());
  }
  EXPECT_EQ(syncs->Value() - before, 4);  // one group commit per frame
  ASSERT_TRUE(partition.Insert(TweetFrame(1, 500)[0]).ok());
  EXPECT_EQ(syncs->Value() - before, 5);
  EXPECT_EQ(partition.wal().entry_count(), 4 * 32 + 1);
}

TEST(StorageManagerTest, PartitionLifecycle) {
  std::string dir = TempDir("manager");
  StorageManager manager("nodeA", dir);
  ASSERT_TRUE(manager.CreatePartition(TweetsDef(), 0, nullptr).ok());
  EXPECT_FALSE(manager.CreatePartition(TweetsDef(), 1, nullptr).ok());
  EXPECT_NE(manager.GetPartition("Tweets"), nullptr);
  EXPECT_EQ(manager.GetPartition("Nope"), nullptr);
  EXPECT_EQ(manager.DatasetNames().size(), 1u);
  ASSERT_TRUE(manager.DropPartition("Tweets").ok());
  EXPECT_EQ(manager.GetPartition("Tweets"), nullptr);
  EXPECT_FALSE(manager.DropPartition("Tweets").ok());
}

TEST(PartitionedLsmTest, RoutesAcrossPartitionsAndScansInOrder) {
  LsmOptions options;
  options.partitions = 4;
  options.memtable_bytes_limit = 256;
  PartitionedLsmIndex index(options);
  ASSERT_EQ(index.partition_count(), 4u);
  constexpr int kRecords = 300;
  for (int i = 0; i < kRecords; ++i) {
    auto key = EncodeKey(Value::Int64(i)).value();
    ASSERT_TRUE(index.Insert(key, Value::Int64(i * 3)).ok());
  }
  EXPECT_EQ(index.Size(), kRecords);
  // Every partition received data (FNV spreads 300 keys over 4 shards).
  for (size_t p = 0; p < index.partition_count(); ++p) {
    EXPECT_GT(index.partition(p).Size(), 0) << "partition " << p;
  }
  // Global scan is in key order despite hash partitioning.
  int64_t expected = 0;
  std::string prev_key;
  index.Scan([&](const std::string& key, const Value& v) {
    if (!prev_key.empty()) EXPECT_LT(prev_key, key);
    prev_key = key;
    EXPECT_EQ(v.AsInt64(), expected * 3);
    ++expected;
  });
  EXPECT_EQ(expected, kRecords);
  for (int i = 0; i < kRecords; i += 23) {
    auto key = EncodeKey(Value::Int64(i)).value();
    auto got = index.Get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->AsInt64(), i * 3);
  }
}

TEST(LsmConcurrencyTest, EightWritersWithConcurrentReaders) {
  LsmOptions options;
  options.memtable_bytes_limit = 512;  // force many flushes and merges
  options.max_runs = 3;
  options.partitions = 4;
  PartitionedLsmIndex index(options);
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 300;

  std::atomic<bool> stop_readers{false};
  // Concurrent point reader: observed values must always be one of the
  // versions a writer produced for that key (no torn or phantom values).
  std::thread reader([&] {
    common::Rng rng(99);
    while (!stop_readers.load()) {
      int64_t k = rng.Uniform(0, kThreads * kKeysPerThread);
      auto key = EncodeKey(Value::Int64(k)).value();
      auto got = index.Get(key);
      if (got.has_value()) {
        int64_t v = got->AsInt64();
        EXPECT_TRUE(v == -1 || v == k * 7) << "key " << k << " -> " << v;
      }
    }
  });
  // Concurrent scanner: sorted keys, valid values, never crashes while
  // flushes and merges swap components underneath.
  std::thread scanner([&] {
    while (!stop_readers.load()) {
      std::string prev;
      index.Scan([&](const std::string& key, const Value& v) {
        if (!prev.empty()) EXPECT_LT(prev, key);
        prev = key;
        int64_t raw = v.AsInt64();
        EXPECT_TRUE(raw == -1 || raw % 7 == 0);
      });
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&index, t] {
      for (int i = 0; i < kKeysPerThread; ++i) {
        int64_t k = t * kKeysPerThread + i;
        auto key = EncodeKey(Value::Int64(k)).value();
        // Two writes per key: the second must win (newest-wins across
        // memtable, sealed memtables, and runs).
        ASSERT_TRUE(index.Insert(key, Value::Int64(-1)).ok());
        ASSERT_TRUE(index.Insert(key, Value::Int64(k * 7)).ok());
      }
    });
  }
  for (auto& w : writers) w.join();
  stop_readers.store(true);
  reader.join();
  scanner.join();

  index.Drain();
  LsmStats stats = index.stats();
  EXPECT_EQ(stats.inserts, kThreads * kKeysPerThread * 2);
  EXPECT_EQ(index.Size(), kThreads * kKeysPerThread);  // no lost keys
  EXPECT_GT(stats.flushes, 0);
  EXPECT_GT(stats.merges, 0);
  for (int64_t k = 0; k < kThreads * kKeysPerThread; ++k) {
    auto key = EncodeKey(Value::Int64(k)).value();
    auto got = index.Get(key);
    ASSERT_TRUE(got.has_value()) << "lost key " << k;
    EXPECT_EQ(got->AsInt64(), k * 7) << "stale value for key " << k;
  }
}

TEST(LsmConcurrencyTest, CloseDrainsPendingWorkDeterministically) {
  LsmOptions options;
  options.memtable_bytes_limit = 1;  // seal on every insert
  options.max_runs = 4;
  LsmIndex index(options);
  constexpr int kRecords = 200;
  for (int i = 0; i < kRecords; ++i) {
    auto key = EncodeKey(Value::Int64(i)).value();
    ASSERT_TRUE(index.Insert(key, Value::Int64(i)).ok());
  }
  // Close without an explicit Drain: every sealed memtable must still
  // reach a run before shutdown completes.
  index.Close();
  const LsmStats stats = index.stats();
  EXPECT_EQ(stats.flush_backlog, 0);
  EXPECT_EQ(stats.merge_backlog, 0);
  EXPECT_GT(index.run_count(), 0u);
  EXPECT_EQ(index.Size(), kRecords);
  for (int i = 0; i < kRecords; i += 17) {
    auto key = EncodeKey(Value::Int64(i)).value();
    ASSERT_TRUE(index.Get(key).has_value()) << "lost key " << i;
  }
}

// The process-wide lsm_flush_backlog gauge (+1 at seal, -1 when the run
// lands) is the one export of the maintenance backlog: it returns to its
// starting value once the backlog drains, on Drain() and on destruction.
// After Close() no thread is left to flush, so a write is refused instead
// of sealing a memtable, and Flush() seals nothing.
TEST(LsmConcurrencyTest, FlushBacklogGaugeSettlesAndClosedIndexRefusesWrites) {
  auto backlog = [] {
    return common::MetricsRegistry::Default().Snapshot().GaugeValue(
        "lsm_flush_backlog");
  };
  const int64_t start = backlog();
  common::MemGovernor governor(nullptr);
  LsmOptions options;
  options.memtable_bytes_limit = 1;  // seal on every insert
  options.memtable_pool = governor.RegisterPool("memtable", 1 << 20);
  options.merge_pool = governor.RegisterPool("merge", 1 << 20);
  constexpr int kRecords = 200;
  {
    LsmIndex index(options);
    for (int i = 0; i < kRecords; ++i) {
      auto key = EncodeKey(Value::Int64(i)).value();
      ASSERT_TRUE(index.Insert(key, Value::Int64(i)).ok());
    }
    EXPECT_EQ(index.stats().flushes, kRecords);
    index.Drain();
    EXPECT_EQ(backlog(), start);
    EXPECT_EQ(options.memtable_pool->used(), 0);

    index.Close();
    const int64_t size = index.Size();
    const int64_t used = options.memtable_pool->used();
    const auto late_key = EncodeKey(Value::Int64(kRecords)).value();
    common::Status late = index.Insert(late_key, Value::Int64(kRecords));
    EXPECT_EQ(late.code(), common::Status::Code::kFailedPrecondition)
        << late.ToString();
    EXPECT_EQ(index.Delete(late_key).code(),
              common::Status::Code::kFailedPrecondition);
    EXPECT_EQ(index.Size(), size);
    EXPECT_EQ(options.memtable_pool->used(), used);
    EXPECT_EQ(backlog(), start);
    EXPECT_FALSE(index.Get(late_key).has_value());
  }
  {
    // Destroyed without a Drain(): the destructor drains what is queued.
    LsmIndex index(options);
    for (int i = 0; i < kRecords; ++i) {
      auto key = EncodeKey(Value::Int64(i)).value();
      ASSERT_TRUE(index.Insert(key, Value::Int64(i)).ok());
    }
  }
  EXPECT_EQ(backlog(), start);
  EXPECT_EQ(options.memtable_pool->used(), 0);
  {
    // A record left in the active memtable at Close() stays there.
    LsmOptions unsealed = options;
    unsealed.memtable_bytes_limit = LsmOptions{}.memtable_bytes_limit;
    LsmIndex index(unsealed);
    ASSERT_TRUE(index.Insert(EncodeKey(Value::Int64(0)).value(),
                             Value::Int64(0))
                    .ok());
    index.Close();
    const int64_t used = options.memtable_pool->used();
    EXPECT_GT(used, 0);
    index.Flush();
    EXPECT_EQ(index.run_count(), 0u);
    EXPECT_EQ(index.Size(), 1);
    EXPECT_EQ(options.memtable_pool->used(), used);
    EXPECT_EQ(backlog(), start);
  }
  EXPECT_EQ(options.memtable_pool->used(), 0);  // released by the destructor
}

}  // namespace
}  // namespace storage
}  // namespace asterix
