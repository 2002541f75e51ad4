#include "common/mem_governor.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"

namespace asterix {
namespace common {

namespace {

// Default capacities for the standard pools. Generous by design: the
// budgets exist to make memory pressure observable and *steerable*
// (tests and elastic policies shrink them), not to trip during normal
// operation on a developer machine.
constexpr int64_t kDefaultFramePathBytes = 256LL << 20;
constexpr int64_t kDefaultMemtableBytes = 512LL << 20;
constexpr int64_t kDefaultMergeBytes = 512LL << 20;
constexpr int64_t kDefaultSpillBytes = 1LL << 30;
constexpr int64_t kDefaultSpanRingBytes = 64LL << 20;
constexpr int64_t kDefaultWalBytes = 64LL << 20;

}  // namespace

void MemLease::Release() {
  if (pool_ != nullptr) {
    pool_->Release(bytes_);
    pool_ = nullptr;
    bytes_ = 0;
  }
}

MemPool::MemPool(std::string name, int64_t capacity_bytes)
    : name_(std::move(name)), capacity_(capacity_bytes) {}

int64_t MemPool::capacity() const {
  MutexLock lock(mutex_);
  return capacity_;
}

void MemPool::SetCapacity(int64_t capacity_bytes) {
  MutexLock lock(mutex_);
  capacity_ = capacity_bytes;
}

int64_t MemPool::used() const {
  MutexLock lock(mutex_);
  return used_;
}

int64_t MemPool::available() const {
  MutexLock lock(mutex_);
  return capacity_ - used_;
}

int64_t MemPool::high_water() const {
  MutexLock lock(mutex_);
  return high_water_;
}

int64_t MemPool::exhausted_count() const {
  MutexLock lock(mutex_);
  return exhausted_;
}

int64_t MemPool::overdraft_count() const {
  MutexLock lock(mutex_);
  return overdraft_;
}

Status MemPool::Exhausted(size_t requested) {
  int64_t available = 0;
  int64_t capacity = 0;
  {
    MutexLock lock(mutex_);
    ++exhausted_;
    available = capacity_ - used_;
    capacity = capacity_;
  }
  return Status::ResourceExhausted(
      "mem pool '" + name_ + "' exhausted: requested " +
      std::to_string(requested) + " bytes, " + std::to_string(available) +
      " of " + std::to_string(capacity) + " available");
}

Status MemPool::TryReserve(size_t bytes) {
  // Forced exhaustion for chaos tests; the policy instance targets one
  // pool by name, so e.g. "frame_path" can be starved in isolation.
  if (ASTERIX_FAILPOINT_TRIGGERED("common.memgov.reserve", name_)) {
    return Exhausted(bytes);
  }
  if (bytes == 0) return Status::OK();
  {
    const int64_t b = static_cast<int64_t>(bytes);
    MutexLock lock(mutex_);
    if (used_ + b <= capacity_) {
      used_ += b;
      high_water_ = std::max(high_water_, used_);
      return Status::OK();
    }
  }
  return Exhausted(bytes);
}

Status MemPool::TryLease(size_t bytes, MemLease* lease) {
  Status reserved = TryReserve(bytes);
  if (!reserved.ok()) return reserved;
  *lease = MemLease(this, bytes);
  return Status::OK();
}

void MemPool::ForceReserve(size_t bytes) {
  if (bytes == 0) return;
  MutexLock lock(mutex_);
  used_ += static_cast<int64_t>(bytes);
  high_water_ = std::max(high_water_, used_);
  if (used_ > capacity_) ++overdraft_;
}

void MemPool::Release(size_t bytes) {
  if (bytes == 0) return;
  MutexLock lock(mutex_);
  used_ -= static_cast<int64_t>(bytes);
}

MemGovernor::MemGovernor(MetricsRegistry* registry) : registry_(registry) {}

MemGovernor::~MemGovernor() = default;

MemGovernor& MemGovernor::Default() {
  static MemGovernor* governor = [] {
    auto* g = new MemGovernor(&MetricsRegistry::Default());
    g->RegisterPool(kFramePathPool, kDefaultFramePathBytes);
    g->RegisterPool(kMemtablePool, kDefaultMemtableBytes);
    g->RegisterPool(kMergePool, kDefaultMergeBytes);
    g->RegisterPool(kSpillPool, kDefaultSpillBytes);
    g->RegisterPool(kSpanRingPool, kDefaultSpanRingBytes);
    g->RegisterPool(kWalPool, kDefaultWalBytes);
    return g;
  }();
  return *governor;
}

MemPool* MemGovernor::RegisterPool(const std::string& name,
                                   int64_t capacity_bytes) {
  MemPool* pool = nullptr;
  bool created = false;
  {
    MutexLock lock(mutex_);
    auto it = pools_.find(name);
    if (it != pools_.end()) {
      pool = it->second.get();
    } else {
      auto owned =
          std::unique_ptr<MemPool>(new MemPool(name, capacity_bytes));
      pool = owned.get();
      pools_.emplace(name, std::move(owned));
      created = true;
    }
  }
  if (created && registry_ != nullptr) {
    // Providers are registered OUTSIDE mutex_: RegisterProvider takes
    // the registry's kMetricsProviders lock, which ranks far above
    // kMemGovernor. Only the creating thread reaches this branch, so
    // the pool gains its providers exactly once.
    std::vector<MetricsRegistry::ProviderHandle> handles;
    const MetricLabels labels = {{"pool", name}};
    handles.push_back(registry_->RegisterProvider(
        "common_mempool_capacity_bytes", MetricsRegistry::ProviderKind::kGauge,
        labels, [pool] { return pool->capacity(); }));
    handles.push_back(registry_->RegisterProvider(
        "common_mempool_used_bytes", MetricsRegistry::ProviderKind::kGauge,
        labels, [pool] { return pool->used(); }));
    handles.push_back(registry_->RegisterProvider(
        "common_mempool_high_water_bytes",
        MetricsRegistry::ProviderKind::kGauge, labels,
        [pool] { return pool->high_water(); }));
    handles.push_back(registry_->RegisterProvider(
        "common_mempool_exhausted_total",
        MetricsRegistry::ProviderKind::kCounter, labels,
        [pool] { return pool->exhausted_count(); }));
    handles.push_back(registry_->RegisterProvider(
        "common_mempool_overdraft_total",
        MetricsRegistry::ProviderKind::kCounter, labels,
        [pool] { return pool->overdraft_count(); }));
    MutexLock lock(mutex_);
    for (auto& h : handles) provider_handles_.push_back(std::move(h));
  }
  return pool;
}

MemPool* MemGovernor::GetPool(const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = pools_.find(name);
  return it == pools_.end() ? nullptr : it->second.get();
}

std::vector<std::string> MemGovernor::PoolNames() const {
  MutexLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(pools_.size());
  for (const auto& [name, pool] : pools_) names.push_back(name);
  return names;
}

namespace {
// Warm the default governor during static initialization (single
// threaded, no locks held): the first Default() call registers the
// per-pool metric providers under kMetricsProviders (rank 490), which
// must never nest inside a lower-ranked subsystem lock — and without
// this, "first call" is whichever subsystem constructor happens to run
// first, typically under its owner's mutex.
[[maybe_unused]] const bool kWarmDefaultGovernor =
    (MemGovernor::Default(), true);
}  // namespace

}  // namespace common
}  // namespace asterix
