#include "common/failpoint.h"

#include <pthread.h>

#include <algorithm>

#include "common/clock.h"

namespace asterix {
namespace common {

std::atomic<int64_t> FailPointRegistry::armed_count_{0};

FailPointRegistry& FailPointRegistry::Instance() {
  static FailPointRegistry* registry = new FailPointRegistry();
  return *registry;
}

void FailPointRegistry::Arm(const std::string& site,
                            FailPointPolicy policy) {
  MutexLock lock(mutex_);
  auto it = points_.find(site);
  if (it == points_.end()) {
    // relaxed: armed_count_ is only an AnyArmed fast-path hint; the
    // authoritative point state is read under mutex_ by Evaluate, so a
    // racing reader merely takes (or skips) one map-lookup slow path.
    armed_count_.fetch_add(1, std::memory_order_relaxed);
    it = points_.emplace(site, ArmedPoint{}).first;
  } else {
    // Re-arm resets counters so policies compose over a timeline.
    it->second = ArmedPoint{};
  }
  it->second.rng = Rng(policy.seed);
  it->second.policy = std::move(policy);
}

void FailPointRegistry::Disarm(const std::string& site) {
  MutexLock lock(mutex_);
  if (points_.erase(site) > 0) {
    // relaxed: see Arm — hint counter, truth is under mutex_.
    armed_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FailPointRegistry::DisarmAll() {
  MutexLock lock(mutex_);
  // relaxed: see Arm — hint counter, truth is under mutex_.
  armed_count_.fetch_sub(static_cast<int64_t>(points_.size()),
                         std::memory_order_relaxed);
  points_.clear();
}

Status FailPointRegistry::Evaluate(const std::string& site,
                                   const std::string& instance) {
  // Decide under the lock; act (sleep, callback) outside it so a slow
  // action never serialises unrelated sites.
  FailPointPolicy::Action action;
  Status error;
  int64_t delay_ms = 0;
  std::function<void()> callback;
  {
    MutexLock lock(mutex_);
    auto it = points_.find(site);
    if (it == points_.end()) return Status::OK();
    ArmedPoint& point = it->second;
    const FailPointPolicy& policy = point.policy;
    if (!policy.instance.empty() && policy.instance != instance) {
      return Status::OK();
    }
    int64_t pass = ++point.hits;
    if (pass <= policy.skip_first) return Status::OK();
    pass -= policy.skip_first;
    if (policy.max_fires >= 0 && point.fires >= policy.max_fires) {
      return Status::OK();
    }
    bool fire = false;
    switch (policy.trigger) {
      case FailPointPolicy::Trigger::kAlways:
        fire = true;
        break;
      case FailPointPolicy::Trigger::kOnce:
        fire = point.fires == 0;
        break;
      case FailPointPolicy::Trigger::kEveryNth:
        fire = policy.every_nth > 0 && pass % policy.every_nth == 0;
        break;
      case FailPointPolicy::Trigger::kProbability:
        fire = point.rng.Chance(policy.probability);
        break;
    }
    if (!fire) return Status::OK();
    ++point.fires;
    action = policy.action;
    error = policy.error;
    delay_ms = policy.delay_ms;
    callback = policy.callback;
  }
  switch (action) {
    case FailPointPolicy::Action::kError:
    case FailPointPolicy::Action::kThrow:
      return error;
    case FailPointPolicy::Action::kDelay:
      if (delay_ms > 0) SleepMillis(delay_ms);
      return Status::OK();
    case FailPointPolicy::Action::kCallback:
      if (callback) callback();
      return Status::OK();
  }
  return Status::OK();
}

int64_t FailPointRegistry::Hits(const std::string& site) const {
  MutexLock lock(mutex_);
  auto it = points_.find(site);
  return it == points_.end() ? 0 : it->second.hits;
}

int64_t FailPointRegistry::Fires(const std::string& site) const {
  MutexLock lock(mutex_);
  auto it = points_.find(site);
  return it == points_.end() ? 0 : it->second.fires;
}

ChaosSchedule::ChaosSchedule(uint64_t seed) : seed_(seed), seeder_(seed) {}

ChaosSchedule::~ChaosSchedule() { Stop(); }

ChaosSchedule& ChaosSchedule::ArmAt(int64_t at_ms, std::string site,
                                    FailPointPolicy policy) {
  if (policy.trigger == FailPointPolicy::Trigger::kProbability &&
      policy.seed == 42) {
    // Derive a distinct, reproducible stream per step from the schedule
    // seed — the test only has to remember one number.
    policy.seed = static_cast<uint64_t>(seeder_.engine()());
  }
  steps_.push_back(Step{at_ms, std::move(site), std::move(policy)});
  return *this;
}

ChaosSchedule& ChaosSchedule::DisarmAt(int64_t at_ms, std::string site) {
  steps_.push_back(Step{at_ms, std::move(site), std::nullopt});
  return *this;
}

void ChaosSchedule::Start() {
  if (started_) return;
  started_ = true;
  std::stable_sort(steps_.begin(), steps_.end(),
                   [](const Step& a, const Step& b) {
                     return a.at_ms < b.at_ms;
                   });
  driver_ = std::thread([this] {
    pthread_setname_np(pthread_self(), "chaos_driver");
    DriverMain();
  });
}

void ChaosSchedule::Stop() {
  bool already_stopped;
  {
    MutexLock lock(mutex_);
    already_stopped = stop_;
    stop_ = true;
  }
  // Join outside the lock: DriverMain re-acquires mutex_ at the top of
  // every step, so joining while holding it deadlocks a concurrent or
  // repeated Stop() against a driver still between steps.
  cv_.NotifyAll();
  if (driver_.joinable()) driver_.join();
  if (already_stopped) return;
  for (const Step& step : steps_) {
    FailPointRegistry::Instance().Disarm(step.site);
  }
}

void ChaosSchedule::DriverMain() {
  const int64_t start_ms = NowMillis();
  for (const Step& step : steps_) {
    {
      MutexLock lock(mutex_);
      int64_t due_ms = start_ms + step.at_ms;
      cv_.WaitFor(mutex_,
                  std::chrono::milliseconds(
                      std::max<int64_t>(0, due_ms - NowMillis())),
                  [this]() REQUIRES(mutex_) { return stop_; });
      if (stop_) return;
    }
    if (step.policy.has_value()) {
      FailPointRegistry::Instance().Arm(step.site, *step.policy);
    } else {
      FailPointRegistry::Instance().Disarm(step.site);
    }
  }
}

}  // namespace common
}  // namespace asterix
