// Unit tests of the feed substrate: policies, UDFs, joints and the
// lifetime of the frames they share, the policy-enforcing subscriber
// queues, ack machinery, adaptors and the feed catalog.
#include <atomic>
#include <bit>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "adm/parser.h"
#include "common/mem_governor.h"
#include "feeds/ack.h"
#include "feeds/catalog.h"
#include "feeds/joint.h"
#include "feeds/policy.h"
#include "feeds/subscriber.h"
#include "feeds/udf.h"
#include "gen/pattern.h"
#include "gen/tweetgen.h"
#include "testing_util.h"

namespace asterix {
namespace feeds {
namespace {

using adm::Value;
using asterix::testing::FrameOf;
using hyracks::FramePtr;
using hyracks::MakeFrame;

// --- policies ---------------------------------------------------------

TEST(PolicyTest, BuiltinsExist) {
  PolicyRegistry registry;
  for (const char* name : {"Basic", "Spill", "Discard", "Throttle",
                           "Elastic", "FaultTolerant"}) {
    EXPECT_TRUE(registry.Find(name).ok()) << name;
  }
  EXPECT_FALSE(registry.Find("Nope").ok());
}

TEST(PolicyTest, Table42ExcessModes) {
  PolicyRegistry registry;
  EXPECT_EQ(registry.Find("Basic")->excess_mode(), ExcessMode::kBlock);
  EXPECT_EQ(registry.Find("Spill")->excess_mode(), ExcessMode::kSpill);
  EXPECT_EQ(registry.Find("Discard")->excess_mode(), ExcessMode::kDiscard);
  EXPECT_EQ(registry.Find("Throttle")->excess_mode(),
            ExcessMode::kThrottle);
  EXPECT_EQ(registry.Find("Elastic")->excess_mode(), ExcessMode::kElastic);
}

TEST(PolicyTest, Table41Defaults) {
  IngestionPolicy policy;
  EXPECT_TRUE(policy.recover_soft_failure());
  EXPECT_TRUE(policy.recover_hard_failure());
  EXPECT_FALSE(policy.at_least_once());
  EXPECT_EQ(policy.excess_mode(), ExcessMode::kBlock);
}

TEST(PolicyTest, CustomPolicyExtendsBase) {
  // The Listing 4.6 example: Spill_then_Throttle.
  PolicyRegistry registry;
  ASSERT_TRUE(registry
                  .Create("Spill_then_Throttle", "Spill",
                          {{"max.spill.size.on.disk", "512MB"},
                           {"excess.records.throttle", "true"}})
                  .ok());
  auto policy = registry.Find("Spill_then_Throttle");
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(policy->excess_mode(), ExcessMode::kSpill);  // spill wins
  EXPECT_TRUE(policy->GetBool(IngestionPolicy::kExcessRecordsThrottle,
                              false));
  EXPECT_EQ(policy->max_spill_bytes(), 512LL << 20);
}

TEST(PolicyTest, CreateRejectsUnknownBaseAndDuplicates) {
  PolicyRegistry registry;
  EXPECT_FALSE(registry.Create("X", "Nope", {}).ok());
  EXPECT_TRUE(registry.Create("X", "Basic", {}).ok());
  EXPECT_FALSE(registry.Create("X", "Basic", {}).ok());
}

TEST(PolicyTest, SizeSuffixParsing) {
  IngestionPolicy policy("p", {{"memory.budget", "2MB"},
                               {"max.spill.size.on.disk", "1GB"},
                               {"ack.window.ms", "50"}});
  EXPECT_EQ(policy.memory_budget_bytes(), 2LL << 20);
  EXPECT_EQ(policy.max_spill_bytes(), 1LL << 30);
  EXPECT_EQ(policy.ack_window_ms(), 50);
}

// --- UDFs -------------------------------------------------------------

TEST(UdfTest, ExtractHashtagsCollectsTopics) {
  auto udf = AqlUdf::ExtractHashtags("f");
  Value tweet = Value::Record(
      {{"id", Value::String("1")},
       {"message_text", Value::String("hello #a world #b2 #")}});
  auto out = udf->Apply(tweet);
  ASSERT_TRUE(out.has_value());
  const Value* topics = out->GetField("topics");
  ASSERT_NE(topics, nullptr);
  ASSERT_EQ(topics->AsList().size(), 2u);  // bare "#" excluded
  EXPECT_EQ(topics->AsList()[0].AsString(), "#a");
  EXPECT_EQ(topics->AsList()[1].AsString(), "#b2");
}

TEST(UdfTest, ExtractHashtagsThrowsOnMissingField) {
  auto udf = AqlUdf::ExtractHashtags("f");
  Value bad = Value::Record({{"id", Value::String("1")}});
  EXPECT_THROW(udf->Apply(bad), std::runtime_error);
}

TEST(UdfTest, KeepAndDropFields) {
  AqlUdf keep("k", {{AqlUdf::Step::Op::kKeepFields,
                     {"id", "n"},
                     Value::Null()}});
  Value r = Value::Record({{"id", Value::String("1")},
                           {"n", Value::Int64(2)},
                           {"x", Value::Int64(3)}});
  auto kept = keep.Apply(r);
  EXPECT_EQ(kept->AsRecord().size(), 2u);
  AqlUdf drop("d", {{AqlUdf::Step::Op::kDropFields, {"x"},
                     Value::Null()}});
  auto dropped = drop.Apply(r);
  EXPECT_EQ(dropped->AsRecord().size(), 2u);
  EXPECT_EQ(dropped->GetField("x"), nullptr);
}

TEST(UdfTest, LatLongToPointAndDatetime) {
  AqlUdf udf("geo", {{AqlUdf::Step::Op::kLatLongToPoint,
                      {"latitude", "longitude", "location"},
                      Value::Null()},
                     {AqlUdf::Step::Op::kStringToDatetime,
                      {"created_at", "created_dt"},
                      Value::Null()}});
  Value r = Value::Record({{"latitude", Value::Double(1.0)},
                           {"longitude", Value::Double(2.0)},
                           {"created_at", Value::String("12345")}});
  auto out = udf.Apply(r);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->GetField("location")->AsPoint().x, 1.0);
  EXPECT_EQ(out->GetField("created_dt")->AsDatetime(), 12345);
  // Optional lat/long: field left absent, no throw.
  Value no_geo = Value::Record({{"created_at", Value::String("1")}});
  auto out2 = udf.Apply(no_geo);
  EXPECT_EQ(out2->GetField("location"), nullptr);
}

TEST(UdfTest, FilterFieldEqualsDropsNonMatching) {
  AqlUdf udf("f", {{AqlUdf::Step::Op::kFilterFieldEquals, {"country"},
                    Value::String("US")}});
  Value us = Value::Record({{"country", Value::String("US")}});
  Value de = Value::Record({{"country", Value::String("DE")}});
  EXPECT_TRUE(udf.Apply(us).has_value());
  EXPECT_FALSE(udf.Apply(de).has_value());
}

TEST(UdfTest, JavaUdfQualifiedNameAndInit) {
  JavaUdf udf("tweetlib", "sentimentAnalysis",
              [](const Value& v) { return v; });
  EXPECT_EQ(udf.name(), "tweetlib#sentimentAnalysis");
  EXPECT_EQ(udf.kind(), UdfKind::kJava);
  EXPECT_FALSE(udf.initialized());
  udf.Initialize();
  EXPECT_TRUE(udf.initialized());
}

TEST(UdfTest, PseudoSentimentIsDeterministicAndBounded) {
  double a = PseudoSentiment("some tweet text");
  EXPECT_EQ(a, PseudoSentiment("some tweet text"));
  for (const char* text : {"", "a", "longer text #x", "another"}) {
    double s = PseudoSentiment(text);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(UdfTest, RegistryFindAndDuplicates) {
  UdfRegistry registry;
  ASSERT_TRUE(registry.Register(AqlUdf::ExtractHashtags("f1")).ok());
  EXPECT_FALSE(registry.Register(AqlUdf::ExtractHashtags("f1")).ok());
  EXPECT_TRUE(registry.Find("f1").ok());
  EXPECT_FALSE(registry.Find("f2").ok());
}

// --- joints & frame lifetime -------------------------------------------

TEST(JointTest, InactiveUntilSubscribed) {
  FeedJoint joint("J");
  EXPECT_EQ(joint.subscriber_count(), 0u);
  auto q1 = joint.Subscribe({});
  EXPECT_EQ(joint.subscriber_count(), 1u);
  auto q2 = joint.Subscribe({});
  EXPECT_EQ(joint.subscriber_count(), 2u);
  joint.Unsubscribe(q2);
  EXPECT_EQ(joint.subscriber_count(), 1u);
}

TEST(JointTest, EverySubscriberGetsEveryFrame) {
  FeedJoint joint("J");
  auto q1 = joint.Subscribe({});
  auto q2 = joint.Subscribe({});
  auto q3 = joint.Subscribe({});
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(joint.NextFrame(FrameOf(3, i * 3)).ok());
  }
  for (auto& queue : {q1, q2, q3}) {
    EXPECT_EQ(queue->stats().frames_delivered, 20);
    EXPECT_EQ(queue->stats().records_delivered, 60);
  }
}

// The paper's Data Bucket is the frame's reference count: a frame routed
// to three subscribers lives until the third one has consumed it.
TEST(JointTest, FrameLivesUntilLastSubscriberConsumes) {
  FeedJoint joint("J");
  auto q1 = joint.Subscribe({});
  auto q2 = joint.Subscribe({});
  auto q3 = joint.Subscribe({});
  FramePtr frame = FrameOf(4);
  std::weak_ptr<const hyracks::Frame> watch = frame;
  ASSERT_TRUE(joint.NextFrame(frame).ok());
  frame.reset();
  ASSERT_TRUE(q1->Next(1000).has_value());
  EXPECT_FALSE(watch.expired());
  ASSERT_TRUE(q2->Next(1000).has_value());
  EXPECT_FALSE(watch.expired());
  ASSERT_TRUE(q3->Next(1000).has_value());
  EXPECT_TRUE(watch.expired());
}

// A queue may outlive its joint (connection metrics keep queues for
// reporting). Its undelivered frames stay valid, and destroying the queue
// frees them and returns their governor charge.
TEST(JointTest, QueueOutlivingJointFreesFramesOnDestruction) {
  common::MemGovernor governor(nullptr);
  common::MemPool* frame_path = governor.RegisterPool("frame_path", 1 << 20);
  const int64_t used_before = frame_path->used();
  SubscriberOptions options;
  options.memory_pool = frame_path;
  auto joint = std::make_unique<FeedJoint>("J");
  auto kept = joint->Subscribe(options);
  auto other = joint->Subscribe(options);
  std::vector<std::weak_ptr<const hyracks::Frame>> watches;
  for (int i = 0; i < 5; ++i) {
    FramePtr frame = FrameOf(3, i * 3);
    watches.push_back(frame);
    ASSERT_TRUE(joint->NextFrame(frame).ok());
  }
  other.reset();
  joint.reset();
  EXPECT_EQ(kept->pending_frames(), 5u);
  EXPECT_GT(frame_path->used(), used_before);
  for (const auto& watch : watches) EXPECT_FALSE(watch.expired());
  kept.reset();
  for (const auto& watch : watches) EXPECT_TRUE(watch.expired());
  EXPECT_EQ(frame_path->used(), used_before);
}

TEST(JointTest, CongestionIsolationBetweenSubscribers) {
  // A slow subscriber (never consuming) must not delay a fast one.
  FeedJoint joint("J");
  auto slow = joint.Subscribe({});
  auto fast = joint.Subscribe({});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(joint.NextFrame(FrameOf(1, i)).ok());
    auto frame = fast->Next(1000);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ((*frame)->records()[0].GetField("n")->AsInt64(), i);
  }
  EXPECT_EQ(slow->pending_frames(), 100u);  // buffered, not blocking
}

TEST(JointTest, CloseEndsSubscribers) {
  FeedJoint joint("J");
  auto queue = joint.Subscribe({});
  ASSERT_TRUE(joint.NextFrame(FrameOf(1)).ok());
  ASSERT_TRUE(joint.Close().ok());
  EXPECT_TRUE(queue->Next(100).has_value());  // drains
  EXPECT_FALSE(queue->Next(100).has_value());
  EXPECT_TRUE(queue->ended());
  // Subscribing to a closed joint ends immediately.
  auto late = joint.Subscribe({});
  EXPECT_TRUE(late->ended());
}

TEST(JointTest, DetachPrimaryClosesOnlyInJobPath) {
  struct Probe : hyracks::IFrameWriter {
    int frames = 0;
    bool closed = false;
    common::Status NextFrame(const FramePtr&) override {
      ++frames;
      return common::Status::OK();
    }
    common::Status Close() override {
      closed = true;
      return common::Status::OK();
    }
  };
  auto probe = std::make_shared<Probe>();
  FeedJoint joint("J");
  joint.SetPrimary(probe);
  auto queue = joint.Subscribe({});
  ASSERT_TRUE(joint.NextFrame(FrameOf(1)).ok());
  EXPECT_EQ(probe->frames, 1);
  joint.DetachPrimary();
  EXPECT_TRUE(probe->closed);
  ASSERT_TRUE(joint.NextFrame(FrameOf(1)).ok());
  EXPECT_EQ(probe->frames, 1);  // primary no longer fed
  EXPECT_EQ(queue->stats().frames_delivered, 2);  // subscriber still is
}

// Routing threads call NextFrame while another thread subscribes and
// unsubscribes queues. The joint publishes its routes under its mutex and
// fans out with the lock released, so: a queue subscribed for the whole
// window receives every frame of every router, each router's frames in
// order; and a queue subscribed mid-stream receives, from each router,
// one gap-free run in order (no frame skipped between its first and
// last). Under tsan-chaos this is also a race check on the routes.
TEST(JointTest, ConcurrentRoutingAndResubscription) {
  constexpr int kRouters = 3;
  constexpr int kFramesPerRouter = 2000;
  constexpr int kMaxTransient = 500;
  FeedJoint joint("J");
  std::vector<std::shared_ptr<SubscriberQueue>> stable;
  for (int i = 0; i < 2; ++i) stable.push_back(joint.Subscribe({}));

  std::atomic<bool> go{false};
  std::atomic<int> routers_done{0};
  std::vector<std::thread> routers;
  for (int r = 0; r < kRouters; ++r) {
    routers.emplace_back([&, r] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kFramesPerRouter; ++i) {
        EXPECT_TRUE(
            joint.NextFrame(FrameOf(1, r * kFramesPerRouter + i)).ok());
      }
      routers_done.fetch_add(1);
    });
  }
  std::vector<std::shared_ptr<SubscriberQueue>> transient;
  std::thread churn([&] {
    while (routers_done.load() < kRouters &&
           static_cast<int>(transient.size()) < kMaxTransient) {
      auto queue = joint.Subscribe({});
      go.store(true);  // routing starts once the churn is under way
      // Stay subscribed while a few frames are routed.
      const int64_t routed = joint.frames_routed();
      while (joint.frames_routed() < routed + 8 &&
             routers_done.load() < kRouters) {
        std::this_thread::yield();
      }
      joint.Unsubscribe(queue);
      transient.push_back(std::move(queue));
    }
  });
  for (auto& t : routers) t.join();
  churn.join();
  EXPECT_EQ(joint.subscriber_count(), stable.size());
  EXPECT_EQ(joint.frames_routed(), kRouters * kFramesPerRouter);

  // Per router, the sequence numbers a queue received, in arrival order.
  auto received = [](SubscriberQueue& queue) {
    std::vector<std::vector<int64_t>> by_router(kRouters);
    for (const FramePtr& frame : queue.NextBatch(0)) {
      int64_t n = frame->records()[0].GetField("n")->AsInt64();
      by_router[n / kFramesPerRouter].push_back(n % kFramesPerRouter);
    }
    return by_router;
  };
  for (auto& queue : stable) {
    for (const auto& seqs : received(*queue)) {
      ASSERT_EQ(seqs.size(), static_cast<size_t>(kFramesPerRouter));
      for (int i = 0; i < kFramesPerRouter; ++i) EXPECT_EQ(seqs[i], i);
    }
  }
  int overlapped = 0;  // transient queues that saw routing traffic
  for (auto& queue : transient) {
    bool any = false;
    for (const auto& seqs : received(*queue)) {
      any = any || !seqs.empty();
      for (size_t i = 1; i < seqs.size(); ++i) {
        EXPECT_EQ(seqs[i], seqs[i - 1] + 1);
      }
    }
    overlapped += any ? 1 : 0;
  }
  EXPECT_GT(overlapped, 0) << "churn never overlapped routing";
}

// --- subscriber queues (policy runtimes) --------------------------------

SubscriberOptions SmallQueue(ExcessMode mode, int64_t budget = 4096) {
  SubscriberOptions options;
  options.mode = mode;
  options.memory_budget_bytes = budget;
  options.spill_dir = "/tmp";
  options.name = std::string("test_") + ExcessModeName(mode);
  return options;
}

// A pull source waits once any subscriber holds more than budget /
// kReadAheadBudgetDivisor pending bytes, and resumes once it drains. An
// Elastic subscriber never holds it back: its backlog is the scale-out
// signal.
TEST(JointTest, ReadAheadFullTracksNonElasticBacklog) {
  const int64_t budget = 64 * FrameOf(1)->ApproxBytes();
  FeedJoint joint("J");
  auto elastic = joint.Subscribe(SmallQueue(ExcessMode::kElastic, budget));
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(joint.NextFrame(FrameOf(1)).ok());
  EXPECT_GT(elastic->pending_bytes(), budget / kReadAheadBudgetDivisor);
  EXPECT_FALSE(joint.ReadAheadFull());

  auto basic = joint.Subscribe(SmallQueue(ExcessMode::kBlock, budget));
  while (!joint.ReadAheadFull()) {
    ASSERT_TRUE(joint.NextFrame(FrameOf(1)).ok());
  }
  EXPECT_GT(basic->pending_bytes(), budget / kReadAheadBudgetDivisor);
  EXPECT_LT(basic->pending_bytes(), budget);
  EXPECT_FALSE(basic->failed());
  basic->NextBatch(0);
  EXPECT_FALSE(joint.ReadAheadFull());
}

// Delivers the only reference to a fresh frame; true iff the queue did
// not keep it (dropped it, spilled it, or kept only a sampled copy).
bool DeliverReleases(SubscriberQueue* queue) {
  FramePtr frame = FrameOf(10);
  std::weak_ptr<const hyracks::Frame> watch = frame;
  queue->Deliver(std::move(frame));
  return watch.expired();
}

TEST(SubscriberQueueTest, DroppedFramesAreReleased) {
  SubscriberQueue ended(SmallQueue(ExcessMode::kBlock));
  ended.DeliverEnd();
  EXPECT_TRUE(DeliverReleases(&ended));

  // A one-byte budget puts every frame over it.
  SubscriberQueue discard(SmallQueue(ExcessMode::kDiscard, 1));
  EXPECT_TRUE(DeliverReleases(&discard));
  EXPECT_EQ(discard.stats().records_discarded, 10);

  SubscriberQueue spill(SmallQueue(ExcessMode::kSpill, 1));
  EXPECT_TRUE(DeliverReleases(&spill));
  EXPECT_EQ(spill.stats().frames_spilled, 1);

  // Throttle keeps everything into an empty queue; once one frame is
  // pending over budget, arrivals are sampled into new frames.
  SubscriberQueue throttle(SmallQueue(ExcessMode::kThrottle, 1));
  EXPECT_FALSE(DeliverReleases(&throttle));
  EXPECT_TRUE(DeliverReleases(&throttle));
}

TEST(SubscriberQueueTest, BasicFailsWhenBudgetExhausted) {
  SubscriberQueue queue(SmallQueue(ExcessMode::kBlock, 2048));
  for (int i = 0; i < 200 && !queue.failed(); ++i) {
    queue.Deliver(FrameOf(10));
  }
  EXPECT_TRUE(queue.failed());
  EXPECT_TRUE(queue.failure().IsResourceExhausted());
}

TEST(SubscriberQueueTest, DiscardDropsExcessAndCounts) {
  SubscriberQueue queue(SmallQueue(ExcessMode::kDiscard, 2048));
  for (int i = 0; i < 200; ++i) queue.Deliver(FrameOf(10));
  auto stats = queue.stats();
  EXPECT_FALSE(queue.failed());
  EXPECT_GT(stats.records_discarded, 0);
  EXPECT_GT(stats.records_delivered, 0);
  EXPECT_EQ(stats.records_delivered + stats.records_discarded, 2000);
}

TEST(SubscriberQueueTest, ThrottleSamplesExcess) {
  SubscriberQueue queue(SmallQueue(ExcessMode::kThrottle, 4096));
  for (int i = 0; i < 300; ++i) queue.Deliver(FrameOf(10));
  auto stats = queue.stats();
  EXPECT_FALSE(queue.failed());
  EXPECT_GT(stats.records_throttled_away, 0);
  // Throttling samples rather than truncating: some later records
  // survive even under sustained pressure.
  EXPECT_GT(stats.records_delivered, 0);
}

TEST(SubscriberQueueTest, SpillParksExcessOnDiskAndRestoresInOrder) {
  SubscriberQueue queue(SmallQueue(ExcessMode::kSpill, 2048));
  constexpr int kFrames = 120;
  for (int i = 0; i < kFrames; ++i) {
    queue.Deliver(FrameOf(5, i * 5));
  }
  EXPECT_GT(queue.stats().frames_spilled, 0);
  // Drain everything; order must be preserved across the spill boundary.
  int64_t expected = 0;
  int got_frames = 0;
  while (auto frame = queue.Next(200)) {
    ++got_frames;
    for (const Value& record : (*frame)->records()) {
      EXPECT_EQ(record.GetField("n")->AsInt64(), expected);
      ++expected;
    }
  }
  EXPECT_EQ(expected, kFrames * 5);
  EXPECT_EQ(queue.stats().frames_restored, queue.stats().frames_spilled);
}

// Spilled frames travel as binary records, so what comes back is the
// record that went in, bit for bit: non-finite and signed-zero doubles
// (NaN compared by its bits, sign included) and strings holding the
// newline that once separated records on disk.
TEST(SubscriberQueueTest, SpillRestoresRecordsBitExact) {
  SubscriberQueue queue(SmallQueue(ExcessMode::kSpill, 2048));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {inf, -inf, nan, -nan, -0.0, 0.1};
  constexpr int kFrames = 60;
  constexpr int kPerFrame = 6;
  auto record = [&](int n) {
    const int r = n % kPerFrame;
    return Value::Record(
        {{"n", Value::Int64(n)},
         {"x", Value::Double(specials[r])},
         {"at", Value::MakePoint(specials[r], specials[kPerFrame - 1 - r])},
         {"text", Value::String("line one\nline two\n" +
                                std::string(static_cast<size_t>(r), '\0'))}});
  };
  for (int f = 0; f < kFrames; ++f) {
    std::vector<Value> records;
    for (int r = 0; r < kPerFrame; ++r) records.push_back(record(f * kPerFrame + r));
    queue.Deliver(MakeFrame(std::move(records)));
  }
  ASSERT_GT(queue.stats().frames_spilled, 0);
  auto bits = [](const Value& v) {
    return std::bit_cast<uint64_t>(v.AsDouble());
  };
  int64_t expected = 0;
  while (auto frame = queue.Next(200)) {
    for (const Value& got : (*frame)->records()) {
      ASSERT_EQ(got.GetField("n")->AsInt64(), expected);
      const Value want = record(static_cast<int>(expected));
      EXPECT_EQ(bits(*got.GetField("x")), bits(*want.GetField("x")));
      const adm::Point& at = got.GetField("at")->AsPoint();
      const adm::Point& want_at = want.GetField("at")->AsPoint();
      EXPECT_EQ(std::bit_cast<uint64_t>(at.x), std::bit_cast<uint64_t>(want_at.x));
      EXPECT_EQ(std::bit_cast<uint64_t>(at.y), std::bit_cast<uint64_t>(want_at.y));
      EXPECT_EQ(*got.GetField("text"), *want.GetField("text"));
      ++expected;
    }
  }
  EXPECT_EQ(expected, kFrames * kPerFrame);
  EXPECT_EQ(queue.stats().frames_restored, queue.stats().frames_spilled);
  EXPECT_FALSE(queue.failed());
}

// A record the binary codec refuses (nested deeper than its limit) cannot
// be spilled: the queue fails with the reason instead of writing a frame
// its restore would report as a damaged file, and the frames spilled
// before it still come back in order.
TEST(SubscriberQueueTest, SpillOfARecordNestedTooDeepFailsTheQueue) {
  SubscriberQueue queue(SmallQueue(ExcessMode::kSpill, 2048));
  constexpr int kFrames = 60;
  for (int i = 0; i < kFrames; ++i) queue.Deliver(FrameOf(5, i * 5));
  const int64_t spilled = queue.stats().frames_spilled;
  ASSERT_GT(spilled, 0);
  Value deep = Value::Null();
  for (int i = 0; i < 600; ++i) deep = Value::List({deep});
  queue.Deliver(MakeFrame(std::vector<Value>{
      Value::Record({{"n", Value::Int64(kFrames * 5)}, {"deep", deep}})}));
  EXPECT_TRUE(queue.failed());
  EXPECT_TRUE(queue.failure().IsInvalidArgument())
      << queue.failure().ToString();
  EXPECT_EQ(queue.stats().frames_spilled, spilled);
  int64_t expected = 0;
  while (auto frame = queue.Next(200)) {
    for (const Value& record : (*frame)->records()) {
      ASSERT_EQ(record.GetField("n")->AsInt64(), expected);
      ++expected;
    }
  }
  EXPECT_EQ(expected, kFrames * 5);
  EXPECT_EQ(queue.stats().frames_restored, spilled);
}

// One damaged byte in a spill file must fail the queue: the records before
// it come back in order, and the rest are reported lost through the
// queue's failure rather than skipped.
TEST(SubscriberQueueTest, CorruptSpillFailsTheQueue) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "asterix_spill_corrupt_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  SubscriberOptions options = SmallQueue(ExcessMode::kSpill, 2048);
  options.spill_dir = dir.string();
  options.name = "corrupt";
  SubscriberQueue queue(options);
  constexpr int kFrames = 120;
  for (int i = 0; i < kFrames; ++i) queue.Deliver(FrameOf(5, i * 5));
  ASSERT_GT(queue.stats().frames_spilled, 8);
  // Drain until the first restore pass flushed the file to disk; its last
  // frame is still pending then (a pass restores at most 8 frames).
  int64_t expected = 0;
  auto take = [&](const FramePtr& frame) {
    for (const Value& record : frame->records()) {
      ASSERT_EQ(record.GetField("n")->AsInt64(), expected);
      ++expected;
    }
  };
  while (queue.stats().frames_restored == 0) {
    auto frame = queue.Next(200);
    ASSERT_TRUE(frame.has_value());
    take(*frame);
  }
  // Walk the file's [len][frame] entries to the last frame, and replace
  // its first record's tag (after the frame and record length words) with
  // a byte no tag uses.
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 1u);
  std::fstream file(files[0], std::ios::in | std::ios::out | std::ios::binary);
  const auto size = static_cast<std::streamoff>(fs::file_size(files[0]));
  std::streamoff at = 0;
  std::streamoff last = 0;
  while (at < size) {
    uint32_t len = 0;
    file.seekg(at);
    file.read(reinterpret_cast<char*>(&len), sizeof(len));
    last = at;
    at += static_cast<std::streamoff>(sizeof(len) + len);
  }
  ASSERT_EQ(at, size);
  file.seekp(last + 2 * static_cast<std::streamoff>(sizeof(uint32_t)));
  file.put('\x7f');
  file.close();

  while (auto frame = queue.Next(200)) take(*frame);
  EXPECT_TRUE(queue.failed());
  EXPECT_TRUE(queue.failure().IsCorruption()) << queue.failure().ToString();
  // Everything before the damaged frame arrived; the damaged frame did not.
  EXPECT_EQ(expected, (kFrames - 1) * 5);
  EXPECT_EQ(queue.stats().frames_restored, queue.stats().frames_spilled - 1);
  EXPECT_EQ(queue.pending_frames(), 0u);
  fs::remove_all(dir);
}

TEST(SubscriberQueueTest, SpillOverflowFailsWithoutThrottleFallback) {
  SubscriberOptions options = SmallQueue(ExcessMode::kSpill, 1024);
  options.max_spill_bytes = 2048;  // tiny spill budget
  SubscriberQueue queue(options);
  for (int i = 0; i < 500 && !queue.failed(); ++i) {
    queue.Deliver(FrameOf(10));
  }
  EXPECT_TRUE(queue.failed());
}

TEST(SubscriberQueueTest, SpillOverflowThrottlesWithFallback) {
  // The Spill_then_Throttle custom policy of Listing 4.6.
  SubscriberOptions options = SmallQueue(ExcessMode::kSpill, 1024);
  options.max_spill_bytes = 2048;
  options.throttle_after_spill = true;
  SubscriberQueue queue(options);
  for (int i = 0; i < 500; ++i) queue.Deliver(FrameOf(10));
  EXPECT_FALSE(queue.failed());
  EXPECT_GT(queue.stats().records_throttled_away, 0);
}

TEST(SubscriberQueueTest, EndAfterDrain) {
  SubscriberQueue queue(SmallQueue(ExcessMode::kBlock));
  queue.Deliver(FrameOf(1));
  queue.DeliverEnd();
  EXPECT_FALSE(queue.ended());  // still has data
  EXPECT_TRUE(queue.Next(100).has_value());
  EXPECT_TRUE(queue.ended());
  EXPECT_FALSE(queue.Next(10).has_value());
}

// Deliver + DeliverEnd racing a consumer inside NextBatch: the consumer
// may poll an empty ring and then observe ended_ — it must re-poll the
// ring before trusting the terminal flag, or a frame published between
// the two loads is stranded (the contract is empty only on timeout or
// terminal with NOTHING buffered). Iterated so the thread interleaving
// actually lands inside the window.
TEST(SubscriberQueueTest, FrameRacingDeliverEndIsNeverStranded) {
  for (int iter = 0; iter < 100; ++iter) {
    SubscriberQueue queue(SmallQueue(ExcessMode::kBlock));
    int got = 0;
    std::thread consumer([&] {
      for (;;) {
        std::vector<FramePtr> batch = queue.NextBatch(2000);
        if (batch.empty()) return;
        got += static_cast<int>(batch.size());
      }
    });
    queue.Deliver(FrameOf(1));
    queue.DeliverEnd();
    consumer.join();
    ASSERT_EQ(got, 1) << "final frame stranded on iteration " << iter;
  }
}

// A spill file that can no longer yield the frames its counter claims
// (truncated behind the queue's back here; a torn write in production)
// must fail the queue and let NextBatch return within its timeout — not
// spin on the replenish path retrying the unreadable restore forever.
TEST(SubscriberQueueTest, TruncatedSpillFailsInsteadOfSpinning) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "asterix_spill_truncation_test";
  fs::create_directories(dir);
  SubscriberOptions options = SmallQueue(ExcessMode::kSpill, 2048);
  options.spill_dir = dir.string();
  options.name = "truncated";
  SubscriberQueue queue(options);
  for (int i = 0; i < 120; ++i) queue.Deliver(FrameOf(5));
  ASSERT_GT(queue.stats().frames_spilled, 0);
  // Drain until the first restore pass ran (it flushes libc's write
  // buffer to disk, so the truncation below cannot be undone by a later
  // flush) but spilled frames remain pending.
  while (queue.stats().frames_restored == 0) {
    ASSERT_TRUE(queue.Next(200).has_value());
  }
  ASSERT_GT(queue.stats().frames_spilled, queue.stats().frames_restored);
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    fs::resize_file(entry.path(), 1);  // torn mid length-header
  }
  // Remaining drain must terminate: restored-but-unread frames come
  // back, then the torn file surfaces as a terminal I/O failure.
  while (queue.Next(200).has_value()) {
  }
  EXPECT_TRUE(queue.failed());
  EXPECT_TRUE(queue.failure().IsIOError());
  fs::remove_all(dir);
}

// --- ack machinery -------------------------------------------------------

TEST(AckTest, TrackingIdPacksPartition) {
  int64_t tid = MakeTrackingId(5, 123456789);
  EXPECT_EQ(TrackingIdPartition(tid), 5);
  EXPECT_EQ(tid & ((1LL << 48) - 1), 123456789);
}

TEST(AckTest, PendingTrackerAckAndExpiry) {
  PendingTracker tracker(/*timeout_ms=*/50);
  tracker.Track(1, Value::Record({{"id", Value::String("a")}}));
  tracker.Track(2, Value::Record({{"id", Value::String("b")}}));
  EXPECT_EQ(tracker.pending_count(), 2u);
  tracker.Ack({1});
  EXPECT_EQ(tracker.pending_count(), 1u);
  EXPECT_TRUE(tracker.TakeExpired().empty());  // not yet expired
  common::SleepMillis(80);
  auto expired = tracker.TakeExpired();
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].first, 2);
  EXPECT_EQ(expired[0].second.GetField("id")->AsString(), "b");
  // Timestamps reset: not immediately expired again.
  EXPECT_TRUE(tracker.TakeExpired().empty());
}

TEST(AckTest, CollectorGroupsAcksPerWindow) {
  auto bus = std::make_shared<AckBus>();
  std::vector<std::vector<int64_t>> received;
  bus->Register("c", 0, [&](const std::vector<int64_t>& tids) {
    received.push_back(tids);
  });
  AckCollector collector(bus, "c", /*window_ms=*/30);
  for (int i = 0; i < 100; ++i) {
    collector.OnPersisted(MakeTrackingId(0, i));
  }
  collector.Flush();
  size_t total = 0;
  for (const auto& group : received) total += group.size();
  EXPECT_EQ(total, 100u);
  // Grouping: far fewer messages than acks.
  EXPECT_LT(received.size(), 10u);
}

TEST(AckTest, BusRoutesByPartition) {
  AckBus bus;
  int p0 = 0, p1 = 0;
  bus.Register("c", 0, [&](const std::vector<int64_t>&) { ++p0; });
  bus.Register("c", 1, [&](const std::vector<int64_t>&) { ++p1; });
  bus.Publish("c", 0, {1});
  bus.Publish("c", 1, {2});
  bus.Publish("c", 7, {3});  // unregistered: dropped
  EXPECT_EQ(p0, 1);
  EXPECT_EQ(p1, 1);
  bus.Unregister("c", 0);
  bus.Publish("c", 0, {4});
  EXPECT_EQ(p0, 1);
}

// --- patterns & tweetgen --------------------------------------------------

TEST(PatternTest, ParsesDissertationDescriptor) {
  auto pattern = gen::ParsePatternXml(R"(
    <pattern>
      <cycle repeat="5">
        <interval duration="400" rate="300"/>
        <interval duration="400" rate="600"/>
      </cycle>
    </pattern>)");
  ASSERT_TRUE(pattern.ok()) << pattern.status().ToString();
  EXPECT_EQ(pattern->repeat, 5);
  ASSERT_EQ(pattern->intervals.size(), 2u);
  EXPECT_EQ(pattern->intervals[0].rate_tps, 300);
  EXPECT_EQ(pattern->intervals[1].duration_ms, 400);
  EXPECT_EQ(pattern->TotalDurationMs(), 4000);
  EXPECT_EQ(pattern->TotalRecords(), 5 * (120 + 240));
}

TEST(PatternTest, RoundTripsThroughXml) {
  gen::Pattern pattern = gen::Pattern::Burst(100, 900, 250, 3);
  auto back = gen::ParsePatternXml(gen::PatternToXml(pattern));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->repeat, 3);
  EXPECT_EQ(back->intervals[1].rate_tps, 900);
}

TEST(PatternTest, RejectsMalformedDescriptors) {
  EXPECT_FALSE(gen::ParsePatternXml("<pattern></pattern>").ok());
  EXPECT_FALSE(gen::ParsePatternXml("<pattern><cycle repeat=\"1\">"
                                    "<interval duration=\"1\"/>"
                                    "</cycle></pattern>")
                   .ok());  // missing rate
  EXPECT_FALSE(gen::ParsePatternXml("<bogus/>").ok());
  EXPECT_FALSE(gen::ParsePatternXml(
                   "<pattern><interval duration=\"1\" rate=\"1\"/>"
                   "</pattern>")
                   .ok());  // interval outside cycle
}

TEST(TweetGenTest, TweetsAreWellFormedAndUnique) {
  gen::TweetFactory factory(3);
  std::set<std::string> ids;
  for (int i = 0; i < 100; ++i) {
    Value tweet = factory.NextTweet();
    ASSERT_TRUE(tweet.is_record());
    ids.insert(tweet.GetField("id")->AsString());
    EXPECT_EQ(tweet.GetField("seq")->AsInt64(), i);
    EXPECT_NE(tweet.GetField("user"), nullptr);
    EXPECT_NE(tweet.GetField("message_text"), nullptr);
  }
  EXPECT_EQ(ids.size(), 100u);
}

TEST(TweetGenTest, SerializedTweetsParseBack) {
  gen::TweetFactory factory(0);
  for (int i = 0; i < 20; ++i) {
    auto parsed = adm::ParseAdm(factory.NextTweetText());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  }
}

TEST(TweetGenTest, ServerFollowsPatternApproximately) {
  gen::TweetGenServer server(0, gen::Pattern::Constant(1000, 500));
  server.Start();
  server.Join();
  ASSERT_TRUE(server.finished());
  // ~500 tweets expected; pacing granularity allows a small shortfall.
  EXPECT_GE(server.tweets_sent(), 400);
  EXPECT_LE(server.tweets_sent(), 600);
  EXPECT_EQ(server.channel().pending(), server.tweets_sent());
}

// --- catalog ---------------------------------------------------------------

TEST(FeedCatalogTest, PathFromRootWalksLineage) {
  FeedCatalog catalog;
  FeedDef root;
  root.name = "Root";
  root.adaptor_alias = "a";
  ASSERT_TRUE(catalog.CreateFeed(root).ok());
  FeedDef mid;
  mid.name = "Mid";
  mid.is_primary = false;
  mid.parent_feed = "Root";
  mid.udf = "f1";
  ASSERT_TRUE(catalog.CreateFeed(mid).ok());
  FeedDef leaf;
  leaf.name = "Leaf";
  leaf.is_primary = false;
  leaf.parent_feed = "Mid";
  leaf.udf = "f2";
  ASSERT_TRUE(catalog.CreateFeed(leaf).ok());

  auto path = catalog.PathFromRoot("Leaf");
  ASSERT_TRUE(path.ok());
  ASSERT_EQ(path->size(), 3u);
  EXPECT_EQ((*path)[0].name, "Root");
  EXPECT_EQ((*path)[2].name, "Leaf");
}

TEST(FeedCatalogTest, RejectsBadDefinitions) {
  FeedCatalog catalog;
  FeedDef no_adaptor;
  no_adaptor.name = "X";
  EXPECT_FALSE(catalog.CreateFeed(no_adaptor).ok());
  FeedDef orphan;
  orphan.name = "Y";
  orphan.is_primary = false;
  orphan.parent_feed = "Nope";
  EXPECT_FALSE(catalog.CreateFeed(orphan).ok());
}

TEST(FeedCatalogTest, DropRefusesWhenDependentsExist) {
  FeedCatalog catalog;
  FeedDef root;
  root.name = "Root";
  root.adaptor_alias = "a";
  ASSERT_TRUE(catalog.CreateFeed(root).ok());
  FeedDef child;
  child.name = "Child";
  child.is_primary = false;
  child.parent_feed = "Root";
  ASSERT_TRUE(catalog.CreateFeed(child).ok());
  EXPECT_FALSE(catalog.DropFeed("Root").ok());
  EXPECT_TRUE(catalog.DropFeed("Child").ok());
  EXPECT_TRUE(catalog.DropFeed("Root").ok());
}

// --- adaptors ----------------------------------------------------------

TEST(AdaptorTest, RegistryHasBuiltins) {
  AdaptorRegistry registry;
  ASSERT_TRUE(RegisterBuiltinAdaptors(&registry).ok());
  for (const char* alias : {"socket_adaptor", "TweetGenAdaptor",
                            "file_based_feed", "synthetic_tweets"}) {
    EXPECT_TRUE(registry.Find(alias).ok()) << alias;
  }
}

TEST(AdaptorTest, SocketConstraintsFollowSocketList) {
  SocketAdaptorFactory factory;
  auto constraint =
      factory.GetConstraints({{"sockets", "a:1, b:2, c:3"}});
  ASSERT_TRUE(constraint.ok());
  EXPECT_EQ(constraint->count, 3);
  EXPECT_FALSE(factory.GetConstraints({}).ok());
}

TEST(AdaptorTest, SocketAdaptorDrainsChannel) {
  gen::Channel channel;
  ExternalSourceRegistry::Instance().RegisterChannel("t:1", &channel);
  SocketAdaptorFactory factory;
  auto adaptor = factory.Create({{"sockets", "t:1"}}, 0, 1);
  ASSERT_TRUE(adaptor.ok());
  channel.Send("one");
  channel.Send("two");
  auto batch = (*adaptor)->Fetch(10, 10);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->payloads.size(), 2u);
  EXPECT_EQ(batch->payloads[0], "one");
  // Closed + drained channel reports end of source.
  channel.CloseSender();
  batch = (*adaptor)->Fetch(10, 10);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->end_of_source);
  ExternalSourceRegistry::Instance().UnregisterChannel("t:1");
}

// Reads every split of `path` cut `n` ways, in split order.
std::vector<std::string> ReadSplits(const std::string& path, int n) {
  FileAdaptorFactory factory;
  std::vector<std::string> lines;
  for (int p = 0; p < n; ++p) {
    auto adaptor = factory.Create({{"path", path}}, p, n);
    EXPECT_TRUE(adaptor.ok());
    if (!adaptor.ok()) continue;
    bool ended = false;
    for (int fetches = 0; fetches < 1000 && !ended; ++fetches) {
      auto batch = (*adaptor)->Fetch(/*max=*/2, /*timeout_ms=*/0);
      EXPECT_TRUE(batch.ok());
      if (!batch.ok()) break;
      for (std::string& line : batch->payloads) lines.push_back(line);
      ended = batch->end_of_source;
    }
    EXPECT_TRUE(ended) << "split " << p << " of " << n << " never ended";
  }
  return lines;
}

// Every non-empty line of the file is read by exactly one split, however
// the byte-range boundaries cut the lines.
TEST(AdaptorTest, FileSplitsReadEveryLineOnce) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "asterix_file_split_test";
  fs::create_directories(dir);
  const std::string long_line(40, 'x');  // longer than most splits below
  const std::vector<std::string> contents = {
      // Empty lines, a line longer than a split, no trailing newline.
      "a\n\nbb\n" + long_line + "\n\n\nccc\ndd\ne\nffff",
      "a\nb\nc\n" + long_line + "\n",
      // 8 bytes: cut in two, the boundary is exactly a line start.
      "aaa\nbbb\n",
      // Smaller than n bytes.
      "a\n",
      "ab",
      "",
  };
  for (size_t c = 0; c < contents.size(); ++c) {
    const std::string path = (dir / ("split" + std::to_string(c))).string();
    {
      std::ofstream out(path, std::ios::binary);
      out << contents[c];
    }
    std::vector<std::string> expected;
    std::stringstream stream(contents[c]);
    for (std::string line; std::getline(stream, line);) {
      if (!line.empty()) expected.push_back(line);
    }
    for (int n : {1, 2, 3, 5, 7}) {
      // Splits read in file order, so the concatenation is the file.
      EXPECT_EQ(ReadSplits(path, n), expected)
          << "content " << c << " cut " << n << " ways";
    }
  }
  fs::remove_all(dir);
}

TEST(AdaptorTest, FileAdaptorRunsOnePerAliveNode) {
  FileAdaptorFactory factory;
  auto constraint = factory.GetConstraints({{"path", "/nonexistent"}});
  ASSERT_TRUE(constraint.ok());
  EXPECT_EQ(constraint->InstanceCount(5), 5);
  EXPECT_FALSE(factory.push_based());
  EXPECT_FALSE(factory.Create({{"path", "/nonexistent"}}, 3, 3).ok());
  // A live stream's pace is its own: the collect never waits on it.
  EXPECT_TRUE(SyntheticTweetAdaptorFactory().push_based());
}

TEST(AdaptorTest, SyntheticAdaptorHonorsLimit) {
  SyntheticTweetAdaptorFactory factory;
  auto adaptor =
      factory.Create({{"rate", "100000"}, {"limit", "42"}}, 0, 1);
  ASSERT_TRUE(adaptor.ok());
  int64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    auto batch = (*adaptor)->Fetch(64, 5);
    ASSERT_TRUE(batch.ok());
    total += static_cast<int64_t>(batch->payloads.size());
    if (batch->end_of_source) break;
  }
  EXPECT_EQ(total, 42);
}

}  // namespace
}  // namespace feeds
}  // namespace asterix
