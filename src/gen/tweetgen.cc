#include "gen/tweetgen.h"

#include <pthread.h>

#include "common/clock.h"
#include "common/logging.h"

namespace asterix {
namespace gen {

using adm::Value;

namespace {
const char* kWords[] = {"verizon",  "sprint",   "iphone",   "samsung",
                        "platform", "network",  "signal",   "speed",
                        "customer", "service",  "plan",     "shortcut",
                        "touch",    "screen",   "wireless", "battery"};
const char* kHashtags[] = {"#mobile", "#fast", "#love",  "#fail",
                           "#cool",   "#slow", "#happy", "#Obama"};
const char* kCountries[] = {"US", "IN", "UK", "CA", "DE", "BR"};
}  // namespace

TweetFactory::TweetFactory(int source_id, uint64_t seed)
    : source_id_(source_id),
      // 64-bit product: a large source id must perturb the seed, not
      // overflow int (UBSan-caught).
      rng_(seed + static_cast<uint64_t>(source_id) * 7919) {}

Value TweetFactory::NextTweet() {
  int64_t seq = seq_++;
  std::string id = "g" + std::to_string(source_id_) + "-" +
                   std::to_string(seq);
  std::string user_name = "user" + std::to_string(rng_.Uniform(0, 9999));

  std::string text;
  int words = static_cast<int>(rng_.Uniform(4, 10));
  for (int w = 0; w < words; ++w) {
    if (w > 0) text.push_back(' ');
    text += kWords[rng_.Uniform(0, 15)];
  }
  int hashtags = static_cast<int>(rng_.Uniform(0, 2));
  for (int h = 0; h < hashtags; ++h) {
    text.push_back(' ');
    text += kHashtags[rng_.Uniform(0, 7)];
  }

  Value user = Value::Record({
      {"screen_name", Value::String(user_name)},
      {"lang", Value::String("en")},
      {"friends_count", Value::Int64(rng_.Uniform(0, 2000))},
      {"statuses_count", Value::Int64(rng_.Uniform(0, 50000))},
      {"name", Value::String(user_name)},
      {"followers_count", Value::Int64(rng_.Uniform(0, 100000))},
  });

  return Value::Record({
      {"id", Value::String(id)},
      {"seq", Value::Int64(seq)},
      {"user", std::move(user)},
      {"latitude", Value::Double(24.0 + rng_.NextDouble() * 25.0)},
      {"longitude", Value::Double(-124.0 + rng_.NextDouble() * 58.0)},
      {"created_at", Value::String(std::to_string(common::NowMillis()))},
      {"message_text", Value::String(text)},
      {"country", Value::String(kCountries[rng_.Uniform(0, 5)])},
  });
}

TweetGenServer::TweetGenServer(int source_id, Pattern pattern,
                               uint64_t seed)
    : source_id_(source_id),
      pattern_(std::move(pattern)),
      factory_(source_id, seed) {}

TweetGenServer::~TweetGenServer() {
  Stop();
  Join();
}

void TweetGenServer::Start(double time_scale) {
  thread_ = std::thread([this, time_scale] {
    pthread_setname_np(pthread_self(), "tweetgen");
    RunLoop(time_scale);
  });
}

void TweetGenServer::Stop() { stop_.store(true); }

void TweetGenServer::Join() {
  if (thread_.joinable()) thread_.join();
}

void TweetGenServer::RunLoop(double time_scale) {
  // Pacing: emit in 10ms ticks, carrying fractional tweets across ticks
  // so low rates stay accurate.
  constexpr int64_t kTickMs = 10;
  for (int cycle = 0; cycle < pattern_.repeat && !stop_.load(); ++cycle) {
    for (const Interval& interval : pattern_.intervals) {
      if (stop_.load()) break;
      int64_t duration =
          static_cast<int64_t>(interval.duration_ms * time_scale);
      // The pattern's rate is in the *described* timebase: compressing
      // time raises the physical rate so the workload shape (records per
      // interval) is preserved.
      double tweets_per_tick =
          static_cast<double>(interval.rate_tps) * kTickMs /
          (1000.0 * time_scale);
      common::Stopwatch watch;
      double carry = 0.0;
      while (watch.ElapsedMillis() < duration && !stop_.load()) {
        carry += tweets_per_tick;
        int64_t to_send = static_cast<int64_t>(carry);
        carry -= static_cast<double>(to_send);
        for (int64_t i = 0; i < to_send; ++i) {
          channel_.Send(factory_.NextTweetText());
        }
        // relaxed: stats counter; the records travel via channel_.
        sent_.fetch_add(to_send, std::memory_order_relaxed);
        common::SleepMillis(kTickMs);
      }
    }
  }
  finished_.store(true);
  channel_.CloseSender();
  LOG_MSG(kInfo) << "TweetGen " << source_id_ << " finished after "
                 << sent_.load() << " tweets";
}

}  // namespace gen
}  // namespace asterix
