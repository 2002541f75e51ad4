#include "storage/lsm_index.h"

#include <pthread.h>

#include <algorithm>
#include <unordered_map>

#include "adm/binary.h"
#include "common/clock.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/strings.h"

namespace asterix {
namespace storage {

using common::Status;

namespace {
// Records reach the LSM only through AppendBinary, which refuses what the
// decoder would, so a stored payload that does not decode is memory
// corruption, not bad input.
adm::Value DecodeStored(std::string_view payload) {
  auto value = adm::DecodeBinary(payload);
  if (!value.ok()) {
    LOG_MSG(kError) << "LSM: stored record does not decode: "
                    << value.status().ToString();
    std::abort();
  }
  return std::move(value).value();
}
}  // namespace

const std::string* SortedRun::Get(const std::string& key) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, const std::string& k) { return e.first < k; });
  if (it != entries_.end() && it->first == key) return &it->second;
  return nullptr;
}

LsmIndex::LsmIndex(LsmOptions options) : options_(options) {
  memtable_pool_ = options_.memtable_pool != nullptr
                       ? options_.memtable_pool
                       : common::MemGovernor::Default().GetPool(
                             common::MemGovernor::kMemtablePool);
  merge_pool_ = options_.merge_pool != nullptr
                    ? options_.merge_pool
                    : common::MemGovernor::Default().GetPool(
                          common::MemGovernor::kMergePool);
  common::MetricsRegistry& reg = common::MetricsRegistry::Default();
  metric_flushes_ = reg.GetCounter("lsm_flushes_total");
  metric_merges_ = reg.GetCounter("lsm_merges_total");
  metric_flush_duration_us_ = reg.GetHistogram("lsm_flush_duration_us");
  metric_merge_duration_us_ = reg.GetHistogram("lsm_merge_duration_us");
  metric_flush_backlog_ = reg.GetGauge("lsm_flush_backlog");
  maintenance_ = std::thread([this] {
    pthread_setname_np(pthread_self(), "lsm_maint");
    MaintenanceMain();
  });
}

LsmIndex::~LsmIndex() {
  Close();
  // Data still resident in (sealed) memtables keeps its governor charge
  // until the index itself goes away.
  common::MutexLock lock(mutex_);
  if (memtable_pool_ != nullptr) {
    size_t held = memtable_bytes_;
    for (const Sealed& sealed : immutables_) held += sealed.bytes;
    if (held > 0) memtable_pool_->Release(held);
  }
  memtable_bytes_ = 0;
  immutables_.clear();
}

std::shared_ptr<SortedRun> LsmIndex::BuildRun(const Memtable& memtable) {
  std::vector<SortedRun::Entry> entries(memtable.begin(), memtable.end());
  return std::make_shared<SortedRun>(std::move(entries));
}

std::shared_ptr<SortedRun> LsmIndex::MergeRuns(
    const std::vector<std::shared_ptr<SortedRun>>& runs,
    bool drop_tombstones) {
  // Oldest-to-newest apply: the newest payload for a key wins. The views
  // point into `runs`, which outlive this call; each survivor is copied
  // once, into the merged run.
  std::map<std::string_view, std::string_view> merged;
  for (const auto& run : runs) {
    for (const auto& [k, payload] : run->entries()) merged[k] = payload;
  }
  std::vector<SortedRun::Entry> entries;
  entries.reserve(merged.size());
  for (const auto& [k, payload] : merged) {
    if (drop_tombstones && IsTombstone(payload)) continue;
    entries.emplace_back(k, payload);
  }
  return std::make_shared<SortedRun>(std::move(entries));
}

void LsmIndex::SealLocked() {
  if (memtable_.empty()) return;
  // The sealed memtable keeps its governor charge until the flush that
  // retires it releases exactly that.
  immutables_.push_back(
      {std::make_shared<const Memtable>(std::move(memtable_)),
       memtable_bytes_});
  memtable_ = Memtable();
  memtable_bytes_ = 0;
  ++stats_.flushes;
  metric_flush_backlog_->Add(1);
  maintenance_cv_.NotifyOne();
}

Status LsmIndex::Insert(const std::string& key, adm::Value value) {
  std::string encoded;
  RETURN_IF_ERROR(adm::AppendBinary(value, &encoded));
  const std::string_view payload = encoded;
  const uint32_t row = 0;
  return InsertRows({&key, 1}, {&payload, 1}, {&row, 1});
}

Status LsmIndex::InsertRows(std::span<const std::string> keys,
                            std::span<const std::string_view> payloads,
                            std::span<const uint32_t> rows) {
  size_t bytes = 0;
  for (uint32_t r : rows) {
    ASTERIX_FAILPOINT("storage.lsm.insert");
    bytes += keys[r].size() + payloads[r].size() + kRowOverheadBytes;
  }
  // Governor admission before any mutation: an exhausted "memtable" pool
  // surfaces as a typed error the at-least-once protocol simply retries
  // (the charge mirrors memtable_bytes_ and is released at flush time).
  if (memtable_pool_ != nullptr) {
    Status reserved = memtable_pool_->TryReserve(bytes);
    if (!reserved.ok()) return reserved;
  }
  common::MutexLock lock(mutex_);
  if (stop_) {
    // No thread is left to flush what this write would seal.
    if (memtable_pool_ != nullptr) memtable_pool_->Release(bytes);
    return Status::FailedPrecondition("LSM index is closed");
  }
  for (uint32_t r : rows) memtable_[keys[r]].assign(payloads[r]);
  memtable_bytes_ += bytes;
  stats_.inserts += static_cast<int64_t>(rows.size());
  if (memtable_bytes_ >= options_.memtable_bytes_limit) SealLocked();
  return Status::OK();
}

Status LsmIndex::Delete(const std::string& key) {
  // A tombstone is just an upsert of the reserved marker: it rides the
  // same memtable/flush/merge machinery and shadows older components.
  const std::string_view tombstone;
  const uint32_t row = 0;
  return InsertRows({&key, 1}, {&tombstone, 1}, {&row, 1});
}

std::optional<adm::Value> LsmIndex::Get(const std::string& key) const {
  // Snapshot the immutable components under the lock, search lock-free.
  // The newest component holding the key decides; a tombstone there means
  // the key is deleted no matter what older components say.
  // The decode runs after the lock is released: a memtable hit copies its
  // payload out, the snapshotted components stay alive on their own.
  std::string memtable_hit;
  std::deque<Sealed> immutables;
  std::vector<std::shared_ptr<SortedRun>> runs;
  {
    common::MutexLock lock(mutex_);
    auto it = memtable_.find(key);
    if (it != memtable_.end()) {
      if (IsTombstone(it->second)) return std::nullopt;
      memtable_hit = it->second;
    } else {
      immutables = immutables_;
      runs = runs_;
    }
  }
  if (!memtable_hit.empty()) return DecodeStored(memtable_hit);
  for (auto rit = immutables.rbegin(); rit != immutables.rend(); ++rit) {
    auto it = rit->memtable->find(key);
    if (it != rit->memtable->end()) {
      if (IsTombstone(it->second)) return std::nullopt;
      return DecodeStored(it->second);
    }
  }
  for (auto rit = runs.rbegin(); rit != runs.rend(); ++rit) {
    const std::string* payload = (*rit)->Get(key);
    if (payload != nullptr) {
      if (IsTombstone(*payload)) return std::nullopt;
      return DecodeStored(*payload);
    }
  }
  return std::nullopt;
}

void LsmIndex::Scan(const std::function<void(const std::string&,
                                             const adm::Value&)>& visitor)
    const {
  ScanPayloads([&](const std::string& key, std::string_view payload) {
    visitor(key, DecodeStored(payload));
  });
}

void LsmIndex::ScanPayloads(
    const std::function<void(const std::string&, std::string_view)>& visitor)
    const {
  // Snapshot components under the lock, then merge outside it.
  Memtable memtable_copy;
  std::deque<Sealed> immutables;
  std::vector<std::shared_ptr<SortedRun>> runs;
  {
    common::MutexLock lock(mutex_);
    memtable_copy = memtable_;
    immutables = immutables_;
    runs = runs_;
  }
  // Oldest-to-newest apply into one map: the newest payload wins. The
  // map points into the snapshots, which outlive it.
  std::map<std::string_view, std::pair<const std::string*, const std::string*>>
      merged;
  auto apply = [&merged](const std::string& key, const std::string& payload) {
    merged[key] = {&key, &payload};
  };
  for (const auto& run : runs) {
    for (const auto& [k, payload] : run->entries()) apply(k, payload);
  }
  for (const Sealed& imm : immutables) {
    for (const auto& [k, payload] : *imm.memtable) apply(k, payload);
  }
  for (const auto& [k, payload] : memtable_copy) apply(k, payload);
  for (const auto& [k, entry] : merged) {
    if (IsTombstone(*entry.second)) continue;  // deleted key
    visitor(*entry.first, *entry.second);
  }
}

int64_t LsmIndex::Size() const {
  std::vector<std::pair<std::string, bool>> memtable_keys;
  std::deque<Sealed> immutables;
  std::vector<std::shared_ptr<SortedRun>> runs;
  {
    common::MutexLock lock(mutex_);
    memtable_keys.reserve(memtable_.size());
    for (const auto& [k, v] : memtable_) {
      memtable_keys.emplace_back(k, IsTombstone(v));
    }
    immutables = immutables_;
    runs = runs_;
  }
  // Oldest-to-newest: the newest occurrence decides whether the key is
  // live or deleted.
  std::unordered_map<std::string_view, bool> live;
  for (const auto& run : runs) {
    for (const auto& [k, v] : run->entries()) live[k] = !IsTombstone(v);
  }
  for (const Sealed& imm : immutables) {
    for (const auto& [k, v] : *imm.memtable) live[k] = !IsTombstone(v);
  }
  for (const auto& [k, dead] : memtable_keys) live[k] = !dead;
  int64_t count = 0;
  for (const auto& [k, is_live] : live) count += is_live ? 1 : 0;
  return count;
}

void LsmIndex::Flush() {
  {
    common::MutexLock lock(mutex_);
    if (stop_) return;
    SealLocked();
  }
  Drain();
}

void LsmIndex::Drain() {
  // The maintenance thread empties the backlog before it exits on stop_,
  // and nothing is sealed after that, so this wait ends after Close() too.
  common::MutexLock lock(mutex_);
  drained_cv_.Wait(mutex_, [this]() REQUIRES(mutex_) {
    return immutables_.empty() && !MergePendingLocked();
  });
}

void LsmIndex::Close() {
  {
    common::MutexLock lock(mutex_);
    stop_ = true;
    maintenance_cv_.NotifyAll();
  }
  if (maintenance_.joinable()) maintenance_.join();
}

void LsmIndex::MaintenanceMain() {
  mutex_.Lock();
  while (true) {
    maintenance_cv_.Wait(mutex_, [this]() REQUIRES(mutex_) {
      return stop_ || !immutables_.empty() || MergePendingLocked();
    });
    if (MergePendingLocked()) {
      // Merge before flushing the next memtable so run counts honor
      // max_runs even under a flush backlog — otherwise hundreds of runs
      // pile up and collapse in one degenerate end-of-stream merge. Only
      // this thread mutates runs_, so the snapshot prefix is stable while
      // the merge runs off-lock.
      std::vector<std::shared_ptr<SortedRun>> to_merge = runs_;
      mutex_.Unlock();
      // Delay action = a long-running merge holding the backlog up.
      ASTERIX_FAILPOINT_HIT("storage.lsm.merge");
      // Merge working memory: charge the inputs' bytes for the merge's
      // duration; must-proceed, so exhaustion is a counted overdraft.
      size_t merge_input_bytes = 0;
      for (const auto& run : to_merge) {
        merge_input_bytes += run->bytes();
      }
      if (merge_pool_ != nullptr &&
          !merge_pool_->TryReserve(merge_input_bytes).ok()) {
        merge_pool_->ForceReserve(merge_input_bytes);
      }
      // to_merge covers every run at snapshot time and the result is
      // re-inserted as the oldest, so tombstones can be retired here.
      common::Stopwatch merge_timer;
      std::shared_ptr<SortedRun> merged =
          MergeRuns(to_merge, /*drop_tombstones=*/true);
      metric_merge_duration_us_->Record(merge_timer.ElapsedMicros());
      metric_merges_->Add(1);
      if (merge_pool_ != nullptr) merge_pool_->Release(merge_input_bytes);
      mutex_.Lock();
      runs_.erase(runs_.begin(),
                  runs_.begin() + static_cast<ptrdiff_t>(to_merge.size()));
      runs_.insert(runs_.begin(), std::move(merged));
      ++stats_.merges;
      drained_cv_.NotifyAll();
      // Free the merged-away runs off-lock: destroying a run's entries
      // takes milliseconds, and every Get and insert waits on mutex_.
      mutex_.Unlock();
      to_merge.clear();
      mutex_.Lock();
      continue;
    }
    if (!immutables_.empty()) {
      // Flush the oldest sealed memtable. The memtable stays visible to
      // readers (newer than every run) while the run is built off-lock;
      // the swap is a single atomic step under the lock.
      std::shared_ptr<const Memtable> imm = immutables_.front().memtable;
      mutex_.Unlock();
      // Delay action = a slow flush (grows the sealed-memtable backlog,
      // the window where a crash strands unflushed data behind the WAL).
      ASTERIX_FAILPOINT_HIT("storage.lsm.flush");
      common::Stopwatch flush_timer;
      std::shared_ptr<SortedRun> run = BuildRun(*imm);
      metric_flush_duration_us_->Record(flush_timer.ElapsedMicros());
      metric_flushes_->Add(1);
      mutex_.Lock();
      runs_.push_back(std::move(run));
      const size_t bytes = immutables_.front().bytes;
      immutables_.pop_front();
      if (memtable_pool_ != nullptr && bytes > 0) {
        memtable_pool_->Release(bytes);
      }
      metric_flush_backlog_->Add(-1);
      drained_cv_.NotifyAll();
      // Free the flushed memtable off-lock, as the merged runs above.
      mutex_.Unlock();
      imm.reset();
      mutex_.Lock();
      continue;
    }
    if (stop_) break;
  }
  mutex_.Unlock();
}

LsmStats LsmIndex::stats() const {
  LsmStats stats;
  {
    common::MutexLock lock(mutex_);
    stats = stats_;
    stats.flush_backlog = static_cast<int64_t>(immutables_.size());
    stats.merge_backlog = MergePendingLocked() ? 1 : 0;
  }
  stats.live_keys = Size();
  return stats;
}

size_t LsmIndex::run_count() const {
  common::MutexLock lock(mutex_);
  return runs_.size();
}

PartitionedLsmIndex::PartitionedLsmIndex(LsmOptions options) {
  size_t n = options.partitions;
  if (n == 0) n = std::max(1u, std::thread::hardware_concurrency());
  partitions_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    partitions_.push_back(std::make_unique<LsmIndex>(options));
  }
}

size_t PartitionedLsmIndex::PartitionOf(const std::string& key) const {
  if (partitions_.size() <= 1) return 0;
  return static_cast<size_t>(common::Fnv1a(key) % partitions_.size());
}

Status PartitionedLsmIndex::Insert(const std::string& key,
                                   adm::Value value) {
  return partitions_[PartitionOf(key)]->Insert(key, std::move(value));
}

Status PartitionedLsmIndex::InsertBatch(
    std::span<const std::string> keys,
    std::span<const std::string_view> payloads) {
  if (keys.size() == 1) {  // Insert's one-record frame: nothing to group
    const uint32_t row = 0;
    return partitions_[PartitionOf(keys[0])]->InsertRows(keys, payloads,
                                                         {&row, 1});
  }
  std::vector<size_t> owner(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) owner[i] = PartitionOf(keys[i]);
  std::vector<uint32_t> rows;  // one partition's rows, in batch order
  rows.reserve(keys.size());
  for (size_t p = 0; p < partitions_.size(); ++p) {
    rows.clear();
    for (size_t i = 0; i < keys.size(); ++i) {
      if (owner[i] == p) rows.push_back(static_cast<uint32_t>(i));
    }
    if (!rows.empty()) {
      RETURN_IF_ERROR(partitions_[p]->InsertRows(keys, payloads, rows));
    }
  }
  return Status::OK();
}

Status PartitionedLsmIndex::Delete(const std::string& key) {
  return partitions_[PartitionOf(key)]->Delete(key);
}

std::optional<adm::Value> PartitionedLsmIndex::Get(
    const std::string& key) const {
  return partitions_[PartitionOf(key)]->Get(key);
}

void PartitionedLsmIndex::Scan(
    const std::function<void(const std::string&, const adm::Value&)>&
        visitor) const {
  if (partitions_.size() == 1) {
    partitions_[0]->Scan(visitor);
    return;
  }
  // Collect each partition's (sorted) payloads, then k-way merge and
  // decode in key order. Keys are disjoint across partitions, so no
  // newest-wins arbitration is needed.
  std::vector<std::vector<SortedRun::Entry>> streams(partitions_.size());
  for (size_t i = 0; i < partitions_.size(); ++i) {
    partitions_[i]->ScanPayloads(
        [&](const std::string& k, std::string_view payload) {
          streams[i].emplace_back(k, payload);
        });
  }
  std::vector<size_t> heads(streams.size(), 0);
  while (true) {
    int best = -1;
    for (size_t i = 0; i < streams.size(); ++i) {
      if (heads[i] >= streams[i].size()) continue;
      if (best < 0 || streams[i][heads[i]].first <
                          streams[static_cast<size_t>(best)]
                                 [heads[static_cast<size_t>(best)]]
                                     .first) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    auto& entry = streams[static_cast<size_t>(best)]
                         [heads[static_cast<size_t>(best)]++];
    visitor(entry.first, DecodeStored(entry.second));
  }
}

int64_t PartitionedLsmIndex::Size() const {
  int64_t total = 0;
  for (const auto& p : partitions_) total += p->Size();
  return total;
}

void PartitionedLsmIndex::Flush() {
  for (auto& p : partitions_) p->Flush();
}

void PartitionedLsmIndex::Drain() {
  for (auto& p : partitions_) p->Drain();
}

void PartitionedLsmIndex::Close() {
  for (auto& p : partitions_) p->Close();
}

LsmStats PartitionedLsmIndex::stats() const {
  LsmStats total;
  for (const auto& p : partitions_) {
    LsmStats s = p->stats();
    total.inserts += s.inserts;
    total.flushes += s.flushes;
    total.merges += s.merges;
    total.live_keys += s.live_keys;
    total.flush_backlog += s.flush_backlog;
    total.merge_backlog += s.merge_backlog;
  }
  return total;
}

}  // namespace storage
}  // namespace asterix
