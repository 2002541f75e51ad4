// LSM-style primary index: an in-memory memtable absorbing writes, sealed
// into immutable memtables when full, flushed into immutable sorted runs
// and merged by a background maintenance thread. AsterixDB stores datasets
// as *partitioned* LSM-based B+-trees whose flush/merge work never stalls
// the ingestion pipeline; this component reproduces that write path's cost
// structure (cheap inserts, asynchronous flush/merge work) and
// PartitionedLsmIndex reproduces the partitioned parallelism.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "adm/value.h"
#include "common/mem_governor.h"
#include "common/observability.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace asterix {
namespace storage {

/// Resident bytes charged per row on top of its key and payload: the row's
/// two std::string headers plus the links of the memtable map node that
/// holds them. Runs keep rows in a vector and are charged the same, a
/// little over their footprint.
inline constexpr size_t kRowOverheadBytes =
    sizeof(std::pair<std::string, std::string>) + 4 * sizeof(void*);

/// Immutable sorted component produced by a memtable flush or a merge.
/// Each entry maps an encoded key to its record's binary encoding
/// (adm/binary.h); an empty payload is a tombstone.
class SortedRun {
 public:
  using Entry = std::pair<std::string, std::string>;

  explicit SortedRun(std::vector<Entry> entries)
      : entries_(std::move(entries)) {
    for (const auto& [k, payload] : entries_) {
      bytes_ += k.size() + payload.size() + kRowOverheadBytes;
    }
  }

  /// The payload stored under `key`, or nullptr.
  const std::string* Get(const std::string& key) const;
  const std::vector<Entry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }
  /// Key, payload and kRowOverheadBytes per row. Merge admission charges the governor's
  /// "merge" pool with the input runs' totals while a merge is in flight.
  size_t bytes() const { return bytes_; }

 private:
  std::vector<Entry> entries_;  // sorted by key, unique keys
  size_t bytes_ = 0;
};

struct LsmOptions {
  /// Seal threshold for the active memtable, in charged bytes (key,
  /// payload and kRowOverheadBytes per row). Insert seals a full memtable
  /// and hands it to the background maintenance thread.
  size_t memtable_bytes_limit = 4 << 20;
  /// The maintenance thread merges all runs into one when the run count
  /// reaches this.
  size_t max_runs = 8;
  /// PartitionedLsmIndex: number of hash partitions. 0 = hardware
  /// concurrency.
  size_t partitions = 0;
  /// Governor pool charged for resident write memory (active + sealed
  /// memtables, each until its run lands). Null resolves to
  /// MemGovernor::Default()'s "memtable" pool. This pool is what bounds
  /// the sealed memtables awaiting flush: an exhausted pool fails Insert
  /// with ResourceExhausted (the at-least-once protocol retries it).
  common::MemPool* memtable_pool = nullptr;
  /// Governor pool charged for merge working memory (the input runs'
  /// bytes while a merge is in flight). Null resolves to the default
  /// "merge" pool; merges must proceed, so exhaustion is taken as a
  /// counted overdraft rather than an error.
  common::MemPool* merge_pool = nullptr;
};

struct LsmStats {
  int64_t inserts = 0;
  /// Memtables sealed for flushing, counted at seal time so the figure
  /// does not depend on whether maintenance has caught up. The registry's
  /// lsm_flushes_total counts completed runs instead.
  int64_t flushes = 0;
  int64_t merges = 0;
  int64_t live_keys = 0;
  /// Gauges sampled when stats() is called.
  int64_t flush_backlog = 0;  // sealed memtables awaiting background flush
  int64_t merge_backlog = 0;  // 1 when a merge is pending/overdue
};

/// Thread-safe LSM index mapping encoded keys to records (upsert semantics:
/// the newest write for a key wins). Every component holds each record as
/// its binary encoding (adm/binary.h): Insert encodes, Get and Scan decode.
/// Readers take a consistent snapshot of the components under the lock and
/// then search lock-free.
class LsmIndex {
 public:
  explicit LsmIndex(LsmOptions options = {});
  ~LsmIndex();

  LsmIndex(const LsmIndex&) = delete;
  LsmIndex& operator=(const LsmIndex&) = delete;

  /// Upserts `value`'s binary encoding under `key`. A value the encoder
  /// refuses (adm/binary.h) fails with InvalidArgument.
  [[nodiscard]] common::Status Insert(const std::string& key, adm::Value value);
  /// Upserts payloads[r] (a binary-encoded record) under keys[r] for
  /// every r in `rows`, in order, with one governor admission and one hold
  /// of the mutex. Each row is charged its key and payload bytes plus
  /// kRowOverheadBytes. Fails before any mutation (admission or an
  /// injected fault on any row); fails with FailedPrecondition after
  /// Close().
  [[nodiscard]] common::Status InsertRows(
      std::span<const std::string> keys,
      std::span<const std::string_view> payloads,
      std::span<const uint32_t> rows);

  /// Deletes `key` by writing a tombstone (an empty payload) that shadows
  /// any older component. Tombstones are dropped when a merge produces the
  /// oldest run; until then Get/Scan/Size treat the key as absent.
  [[nodiscard]] common::Status Delete(const std::string& key);

  /// True if `payload` is the tombstone marker. Every encoded value is at
  /// least its tag byte, so the empty payload is free to reserve.
  static bool IsTombstone(std::string_view payload) {
    return payload.empty();
  }

  /// Point lookup across memtable + sealed memtables + runs (newest
  /// component wins).
  std::optional<adm::Value> Get(const std::string& key) const;

  /// Visits every live (key, value) pair in key order.
  void Scan(const std::function<void(const std::string&,
                                     const adm::Value&)>& visitor) const;
  /// Scan over the stored encodings, with no decode.
  void ScanPayloads(const std::function<void(const std::string&,
                                             std::string_view)>& visitor)
      const;

  /// Number of live (distinct) keys, computed from a component snapshot.
  int64_t Size() const;

  /// Seals the current memtable and waits until it reaches a run (used by
  /// tests and shutdown paths). No-op after Close().
  void Flush();

  /// Blocks until the background maintenance backlog is empty (all sealed
  /// memtables flushed, no merge pending).
  void Drain();

  /// Drains pending maintenance work and stops the background thread;
  /// later writes fail. Idempotent; called by the destructor.
  void Close();

  LsmStats stats() const;
  size_t run_count() const;

 private:
  using Memtable = std::map<std::string, std::string>;

  /// A memtable sealed for flushing and the governor charge it holds
  /// until its run lands.
  struct Sealed {
    std::shared_ptr<const Memtable> memtable;
    size_t bytes = 0;
  };

  /// Moves the active memtable onto the sealed queue. Caller holds mutex_.
  void SealLocked() REQUIRES(mutex_);
  bool MergePendingLocked() const REQUIRES(mutex_) {
    return runs_.size() >= options_.max_runs && runs_.size() >= 2;
  }
  void MaintenanceMain();

  static std::shared_ptr<SortedRun> BuildRun(const Memtable& memtable);
  /// `drop_tombstones` is safe only when the merged result becomes the
  /// oldest run (nothing below it left to shadow).
  static std::shared_ptr<SortedRun> MergeRuns(
      const std::vector<std::shared_ptr<SortedRun>>& runs,
      bool drop_tombstones);

  const LsmOptions options_;
  mutable common::Mutex mutex_{common::LockRank::kLsmIndex};
  common::CondVar maintenance_cv_;  // wakes the maintenance thread
  common::CondVar drained_cv_;      // wakes Drain()
  Memtable memtable_ GUARDED_BY(mutex_);
  size_t memtable_bytes_ GUARDED_BY(mutex_) = 0;
  /// Sealed memtables awaiting background flush, oldest first.
  std::deque<Sealed> immutables_ GUARDED_BY(mutex_);
  /// Newest run last.
  std::vector<std::shared_ptr<SortedRun>> runs_ GUARDED_BY(mutex_);
  LsmStats stats_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;  // set by Close()
  std::thread maintenance_;  // started in the ctor, joined in Close()
  // Resolved governor pools (options_ pools or the Default() governor's
  // standard pools). Reserve/Release take the pool's leaf mutex
  // (kMemGovernor), which ranks below mutex_.
  common::MemPool* memtable_pool_ = nullptr;
  common::MemPool* merge_pool_ = nullptr;  // set once in ctor, then read-only

  // Cached process-wide registry metrics, resolved once in the
  // constructor. All operations on them are relaxed atomics, so they are
  // safe to touch from the maintenance thread and under mutex_ alike.
  common::Counter* metric_flushes_ = nullptr;
  common::Counter* metric_merges_ = nullptr;
  common::Histogram* metric_flush_duration_us_ = nullptr;
  common::Histogram* metric_merge_duration_us_ = nullptr;
  /// Sealed memtables awaiting background flush across all LsmIndex
  /// instances in the process (+1 at seal, -1 when the run lands).
  common::Gauge* metric_flush_backlog_ = nullptr;
};

/// Hash-partitioned LSM index: keys are spread across N independent
/// LsmIndex partitions, each with its own mutex and maintenance thread, so
/// concurrent writers (feed store operators, parallel loaders) do not
/// contend (the paper's partitioned parallelism, Chapter 7).
class PartitionedLsmIndex {
 public:
  explicit PartitionedLsmIndex(LsmOptions options = {});

  [[nodiscard]] common::Status Insert(const std::string& key, adm::Value value);
  /// Upserts payloads[i] under keys[i] for all i: one InsertRows per
  /// partition touched. Partitions are independent, so a failure can
  /// leave the rows of partitions already done inserted (upserts, so a
  /// retry of the whole batch converges).
  [[nodiscard]] common::Status InsertBatch(
      std::span<const std::string> keys,
      std::span<const std::string_view> payloads);
  [[nodiscard]] common::Status Delete(const std::string& key);
  std::optional<adm::Value> Get(const std::string& key) const;

  /// Visits every live (key, value) pair in global key order (k-way merge
  /// of the per-partition scans; partitions hold disjoint key sets).
  void Scan(const std::function<void(const std::string&,
                                     const adm::Value&)>& visitor) const;

  int64_t Size() const;
  void Flush();
  void Drain();
  void Close();

  /// Aggregated over partitions (keys are disjoint, so sums are exact).
  LsmStats stats() const;

  size_t partition_count() const { return partitions_.size(); }
  LsmIndex& partition(size_t i) { return *partitions_[i]; }
  const LsmIndex& partition(size_t i) const { return *partitions_[i]; }
  /// Index of the partition owning `key`.
  size_t PartitionOf(const std::string& key) const;

 private:
  std::vector<std::unique_ptr<LsmIndex>> partitions_;
};

}  // namespace storage
}  // namespace asterix

